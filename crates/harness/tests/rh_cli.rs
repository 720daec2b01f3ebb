//! The `rh` command line, driven through the built binary: the
//! experiment list, exit codes, how one report is framed, a reader
//! that closes stdout early, and (ignored by default) the paper-scale
//! record in `results/`.

use rh_harness::experiments::{table2, ALL};
use rh_harness::ExperimentScale;
use std::process::{Command, Output};

fn rh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rh"))
        .args(args)
        .output()
        .expect("rh runs")
}

#[test]
fn list_names_every_experiment_once_in_order() {
    let out = rh(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    assert_eq!(listed, names);
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate experiment name");
}

#[test]
fn unknown_experiment_exits_2_and_suggests_list() {
    let out = rh(&["table9", "quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("try `rh list`"));
}

#[test]
fn unknown_scale_exits_2_with_usage() {
    let out = rh(&["table2", "huge"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("usage: rh <experiment|all|list> [quick|paper|full]"));
}

#[test]
fn one_experiment_prints_its_report_between_header_and_blank_line() {
    let out = rh(&["table2", "quick"]);
    assert!(out.status.success());
    let expected = format!(
        "==== table2 ====\n{}\n",
        table2::report(&ExperimentScale::quick())
    );
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), expected);
}

#[test]
fn all_exits_0_when_stdout_is_closed_before_it_writes() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rh"))
        .args(["all", "quick"])
        .stdout(writer)
        .output()
        .expect("rh runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

/// Every committed file in `results/` and the command that prints it,
/// as `results/README.md` lists them.  The `export` files are written
/// by one command, [`EXPORT_FILES`].
const PAPER_RESULTS: &[(&str, &str)] = &[
    ("table1_system.txt", "table1 full"),
    ("trace_stats.txt", "trace-stats paper"),
    ("table2_cycles.txt", "table2 paper"),
    ("fig4_tradeoff.txt", "fig4 paper"),
    ("table3_comparison.txt", "table3 paper"),
    ("reliability.txt", "reliability paper"),
    ("refresh_policies.txt", "refresh-policies paper"),
    ("flooding.txt", "flooding paper"),
    ("vulnerability.txt", "vulnerability paper"),
    ("ablation.txt", "ablation paper"),
    ("weak_dram.txt", "weak-dram paper"),
    ("blast_radius.txt", "blast-radius paper"),
    ("latency.txt", "latency paper"),
    ("aggressor_sweep.txt", "aggressor-sweep paper"),
    ("extensions.txt", "extensions paper"),
];

/// The files `export paper <dir>` writes.
const EXPORT_FILES: &[&str] = &["fig4.csv", "fig4.svg", "flooding.csv", "latency.csv"];

/// Where a differing output first departs from the committed file.
fn first_difference(committed: &str, printed: &str) -> String {
    let line = committed
        .lines()
        .zip(printed.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.lines().count().min(printed.lines().count()));
    format!(
        "line {}: committed {:?}, printed {:?}",
        line + 1,
        committed.lines().nth(line),
        printed.lines().nth(line)
    )
}

/// The paper-scale record: re-runs every command `results/README.md`
/// lists and diffs its output against the committed file.  Paper scale
/// has 4 banks, so this drives bank-sharded runs through the worker
/// pool end to end.  About 7 minutes on 2 vCPU in release mode:
/// `cargo test --release -p rh-harness --test rh_cli -- --ignored`.
#[test]
#[ignore = "paper scale: minutes of release-mode runs"]
fn results_match_what_rh_and_export_print_at_paper_scale() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let index = read(&results.join("README.md"));

    // The table above and the README agree, and cover every file.
    let mut covered: Vec<&str> = EXPORT_FILES.to_vec();
    for (file, command) in PAPER_RESULTS {
        let row = format!("| `{file}` | `rh {command}` |");
        assert!(index.contains(&row), "results/README.md lacks {row}");
        covered.push(file);
    }
    assert!(index.contains("`cargo run --release --bin export -- paper results`"));
    let mut committed: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name != "README.md")
        .collect();
    committed.sort_unstable();
    covered.sort_unstable();
    assert_eq!(
        committed, covered,
        "results/ holds a file no command prints"
    );

    let mut drifted = Vec::new();
    for (file, command) in PAPER_RESULTS {
        let out = rh(&command.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "rh {command} failed");
        let printed = String::from_utf8(out.stdout).expect("utf-8");
        let expected = read(&results.join(file));
        if printed != expected {
            drifted.push(format!("{file}: {}", first_difference(&expected, &printed)));
        }
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper-results");
    let status = Command::new(env!("CARGO_BIN_EXE_export"))
        .arg("paper")
        .arg(&dir)
        .status()
        .expect("export runs");
    assert!(status.success(), "export paper failed");
    for file in EXPORT_FILES {
        let printed = read(&dir.join(file));
        let expected = read(&results.join(file));
        if printed != expected {
            drifted.push(format!("{file}: {}", first_difference(&expected, &printed)));
        }
    }
    assert!(
        drifted.is_empty(),
        "results/ differs from what the code prints:\n{}",
        drifted.join("\n")
    );
}
