//! The `rh` command line, driven through the built binary: the
//! experiment list, exit codes, how one report is framed, and a reader
//! that closes stdout early.

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
