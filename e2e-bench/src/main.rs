//! `rh-bench`: the simulator's end-to-end benchmark (see the crate docs).
//!
//! ```text
//! rh-bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--tiny]
//! ```

use rh_e2e_bench::measure::json_line;
use rh_e2e_bench::workloads;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: rh-bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--tiny]\n\
                     workloads: table3-paper fleet-campaign trace-replay redteam-frontier";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => parsed.tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(outcome) = workloads::run(name, args.seed, args.seconds, args.trace, args.tiny) else {
        eprintln!("rh-bench: unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", json_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in a fresh child process, so peak memory is per
/// workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rh-bench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for name in workloads::NAMES {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.tiny {
            child.arg("--tiny");
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{name} ({status})")),
            Err(e) => failed.push(format!("{name} (did not start: {e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("rh-bench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rh-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
