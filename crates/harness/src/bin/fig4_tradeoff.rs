//! Regenerates Fig. 4 — table size per bank vs. activation overhead for
//! all nine techniques on the mixed workload.
//!
//! Usage: `fig4_tradeoff [quick|paper|full]` (default: paper — 16
//! refresh windows, 4 banks, 5 seeds).

use rh_harness::experiments::fig4;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    eprintln!(
        "running fig4 at {} windows × {} banks × {} seeds…",
        scale.windows, scale.banks, scale.seeds
    );
    let points = fig4::run(&scale);
    println!("Fig. 4 — table size vs. activation overhead (log-log in the paper)");
    println!();
    print!("{}", fig4::render(&points));
    println!();
    println!("shape checks:");
    for (desc, ok) in fig4::shape_checks(&points) {
        println!("  [{}] {desc}", if ok { "ok" } else { "MISS" });
    }
}
