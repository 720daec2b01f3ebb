//! Every experiment's quick-scale output, held by the committed golden.
//!
//! `rh all quick` prints exactly what `experiments::write_reports`
//! writes for `experiments::ALL` at quick scale.  Rendering it here puts
//! every table and figure the repository reproduces under `cargo test`:
//! a change that moves one number in any of them fails this test.
//! Regenerate the golden only for an intended output change:
//! `cargo run --release --bin rh -- all quick > tests/golden/rh_all_quick.txt`.

use tivapromi_suite::harness::experiments::{write_reports, ALL};
use tivapromi_suite::harness::ExperimentScale;

const GOLDEN: &str = include_str!("golden/rh_all_quick.txt");

#[test]
fn every_experiment_at_quick_scale_matches_the_golden() {
    let mut out = Vec::new();
    write_reports(&mut out, ALL, &ExperimentScale::quick()).expect("writing to memory");
    let printed = String::from_utf8(out).expect("reports are UTF-8");
    if let Some((line, (want, got))) = GOLDEN
        .lines()
        .zip(printed.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "line {} differs from tests/golden/rh_all_quick.txt\n  golden: {want}\n  now:    {got}",
            line + 1
        );
    }
    assert_eq!(
        printed.lines().count(),
        GOLDEN.lines().count(),
        "line count differs from tests/golden/rh_all_quick.txt"
    );
    assert_eq!(printed, GOLDEN, "line endings differ from the golden");
}
