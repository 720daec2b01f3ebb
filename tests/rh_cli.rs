//! The `rh` command line, driven through the built binary: the
//! experiment list, exit codes, how one report is framed, a reader
//! that closes stdout early, every subcommand's quick-scale output and
//! files against the golden recorded from the binaries it replaced,
//! usage errors, and (ignored by default) the paper-scale record in
//! `results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tivapromi_suite::harness::experiments::{table2, ALL};
use tivapromi_suite::harness::ExperimentScale;

fn rh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rh"))
        .args(args)
        .output()
        .expect("rh runs")
}

/// An empty scratch directory for one test's output.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("rh_cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
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

/// A reader that closes stdout early stops every subcommand quietly.
/// `rh export` is not among them: it prints nothing on stdout.
#[test]
fn all_exits_0_when_stdout_is_closed_before_it_writes() {
    let dir = scratch("closed-stdout");
    let dir = dir.to_str().expect("utf-8 path");
    for args in [
        &["all", "quick"][..],
        &["timeline", "quick", "PARA", "64", dir],
        &["fleet", "--quick", dir],
        &["redteam", "--quick", "--seed", "7", dir],
        &["exploit", "--quick", "--seed", "7", dir],
        &["fleet", "--help"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_rh"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("rh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "rh {args:?}: {stderr}");
        assert!(stderr.is_empty(), "rh {args:?}: {stderr}");
    }
}

/// The quick-scale runs of every subcommand, as the golden records them.
/// The golden was recorded from the six binaries `rh` replaced, each run
/// with the old form of its line (`timeline quick PARA 32 <out>`,
/// `timeline quick PARA 64 <out> --attack burst --backend cycle`,
/// `fleet --quick <out>`,
/// `fleet --quick --seed 42 --backend fast --frontier <out>`,
/// `redteam --quick 7 <out>`, `exploit --quick 7 <out>` and
/// `export quick <out>`), so it holds the mapping byte for byte.
const QUICK_RUNS: &[&str] = &[
    "timeline quick PARA 32 <out>",
    "timeline quick PARA 64 --attack burst --backend cycle <out>",
    "fleet --quick <out>",
    "fleet --quick --seed 42 --backend fast --frontier <out>",
    "redteam --quick --seed 7 <out>",
    "exploit --quick --seed 7 <out>",
    "export quick <out>",
];

const QUICK_GOLDEN: &str = include_str!("golden/rh_cli_quick.txt");

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Each run as `$ rh <line>`, its stdout with the output directory
/// shown as `<out>`, and `> <file> <FNV-1a>` for every file it wrote.
/// `RH_WORKERS` is cleared, so the fleet header reads `auto`.
#[test]
fn every_subcommand_at_quick_scale_matches_the_golden() {
    let mut printed = String::new();
    for (i, line) in QUICK_RUNS.iter().enumerate() {
        let dir = scratch(&format!("quick-{i}"));
        let shown = dir.to_str().expect("utf-8 path");
        let args: Vec<&str> = line
            .split(' ')
            .map(|arg| if arg == "<out>" { shown } else { arg })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_rh"))
            .args(&args)
            .env_remove("RH_WORKERS")
            .output()
            .expect("rh runs");
        assert!(
            out.status.success(),
            "rh {line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        printed.push_str(&format!("$ rh {line}\n"));
        printed.push_str(
            &String::from_utf8(out.stdout)
                .expect("utf-8")
                .replace(shown, "<out>"),
        );
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("output dir")
            .map(|entry| entry.expect("dir entry").path())
            .collect();
        files.sort_unstable();
        for file in files {
            let bytes = std::fs::read(&file).expect("output file");
            let name = file.file_name().expect("file name").to_string_lossy();
            printed.push_str(&format!("> {name} {:016x}\n", fnv1a(&bytes)));
        }
    }
    assert!(
        printed == QUICK_GOLDEN,
        "differs from tests/golden/rh_cli_quick.txt at {}",
        first_difference(QUICK_GOLDEN, &printed)
    );
}

/// What a command line must do.
enum Expect {
    /// Exit 2 with the usage line on stderr and nothing on stdout.
    Usage(&'static str),
    /// Exit 0 with the usage line on stdout and nothing on stderr.
    Help(&'static str),
    /// Exit 0 with stdout starting with this line.
    Prints(&'static str),
}

#[test]
fn bad_command_lines_are_usage_errors_and_help_is_not() {
    const RH: &str = "usage: rh <experiment|all|list> [quick|paper|full]";
    const EXPORT: &str = "usage: rh export [quick|paper|full] [output-dir]";
    const TIMELINE: &str = "usage: rh timeline [quick|paper|full] [technique] [stride] \
                            [output-dir] [--attack NAME] [--backend exact|fast|cycle]";
    const FLEET: &str = "usage: rh fleet [--quick] [--devices N] [--seed S] \
                         [--backend exact|fast|cycle] [--frontier] [output-dir]";
    const REDTEAM: &str =
        "usage: rh redteam [--quick|--thorough] [--backend exact|fast|cycle] [--seed S] [output-dir]";
    const EXPLOIT: &str = "usage: rh exploit [--quick|--thorough] [--seed S] [output-dir]";
    let dir = scratch("usage");
    let dir = dir.to_str().expect("utf-8 path");
    let cases: &[(&[&str], Expect)] = &[
        // Unparsable, unknown or missing values.
        (
            &["timeline", "quick", "PARA", "abc", dir],
            Expect::Usage(TIMELINE),
        ),
        (
            &["timeline", "huge", "PARA", "64", dir],
            Expect::Usage(TIMELINE),
        ),
        (
            &["timeline", "quick", "NoSuch", "64", dir],
            Expect::Usage(TIMELINE),
        ),
        (
            &["timeline", "quick", "PARA", "64", dir, "--attack", "nope"],
            Expect::Usage(TIMELINE),
        ),
        (
            &["timeline", "quick", "PARA", "64", dir, "--backend=warp"],
            Expect::Usage(TIMELINE),
        ),
        (
            &["timeline", "quick", "PARA", "64", dir, "--attack"],
            Expect::Usage(TIMELINE),
        ),
        (&["export", "huge", dir], Expect::Usage(EXPORT)),
        (&["fleet", "--devices", "ten", dir], Expect::Usage(FLEET)),
        (
            &["fleet", "--devices", "--quick", dir],
            Expect::Usage(FLEET),
        ),
        (&["fleet", "--seed", "-1", dir], Expect::Usage(FLEET)),
        (&["fleet", "--backend", "warp", dir], Expect::Usage(FLEET)),
        (&["redteam", "--seed", "x", dir], Expect::Usage(REDTEAM)),
        (&["exploit", "--seed=", dir], Expect::Usage(EXPLOIT)),
        // Flags a subcommand does not take, or takes once.
        (&["fleet", "--workers", "2", dir], Expect::Usage(FLEET)),
        (&["fleet", "--bogus", dir], Expect::Usage(FLEET)),
        (&["fleet", "--frontier=yes", dir], Expect::Usage(FLEET)),
        (
            &["exploit", "--backend", "fast", dir],
            Expect::Usage(EXPLOIT),
        ),
        (
            &["exploit", "--seed", "1", "--seed", "2", dir],
            Expect::Usage(EXPLOIT),
        ),
        (
            &["redteam", "--quick", "--thorough", dir],
            Expect::Usage(REDTEAM),
        ),
        (&["table2", "--quick"], Expect::Usage(RH)),
        // Extra positionals.
        (&["table2", "quick", "extra-arg"], Expect::Usage(RH)),
        (
            &["export", "quick", dir, "extra-arg"],
            Expect::Usage(EXPORT),
        ),
        (
            &["timeline", "quick", "PARA", "64", dir, "extra-arg"],
            Expect::Usage(TIMELINE),
        ),
        (&["fleet", dir, "extra-arg"], Expect::Usage(FLEET)),
        (&["redteam", "7", dir], Expect::Usage(REDTEAM)),
        (&["exploit", "7", dir], Expect::Usage(EXPLOIT)),
        // `--help` anywhere.
        (&["export", "--help"], Expect::Help(EXPORT)),
        (&["timeline", "quick", "-h"], Expect::Help(TIMELINE)),
        (&["fleet", "--help"], Expect::Help(FLEET)),
        (&["redteam", "--bogus", "--help"], Expect::Help(REDTEAM)),
        (&["exploit", "--help"], Expect::Help(EXPLOIT)),
        // An explicit `--devices` beats `--quick` in either order.
        (
            &["fleet", "--devices", "10", "--quick", dir],
            Expect::Prints("fleet campaign: seed 7, 10 devices over 3 cohorts"),
        ),
        (
            &["fleet", "--quick", "--devices=10", dir],
            Expect::Prints("fleet campaign: seed 7, 10 devices over 3 cohorts"),
        ),
    ];
    for (args, expect) in cases {
        let out = rh(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let context = format!("rh {args:?}\nstdout: {stdout}\nstderr: {stderr}");
        match expect {
            Expect::Usage(usage) => {
                assert_eq!(out.status.code(), Some(2), "{context}");
                assert!(stdout.is_empty(), "{context}");
                assert!(stderr.starts_with("error: "), "{context}");
                assert!(stderr.ends_with(&format!("\n{usage}\n")), "{context}");
            }
            Expect::Help(usage) => {
                assert_eq!(out.status.code(), Some(0), "{context}");
                assert_eq!(stdout, format!("{usage}\n"), "{context}");
                assert!(stderr.is_empty(), "{context}");
            }
            Expect::Prints(first) => {
                assert_eq!(out.status.code(), Some(0), "{context}");
                assert!(stdout.starts_with(first), "{context}");
            }
        }
    }
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

/// The files `rh export paper <dir>` writes.
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
/// `cargo test --release --test rh_cli -- --ignored`.
#[test]
#[ignore = "paper scale: minutes of release-mode runs"]
fn results_match_what_rh_and_export_print_at_paper_scale() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let read = |path: &Path| {
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
    assert!(index.contains("| `rh export paper results` |"));
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
    let dir = scratch("paper-results");
    let out = rh(&["export", "paper", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "rh export paper failed");
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
