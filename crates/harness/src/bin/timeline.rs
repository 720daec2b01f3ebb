//! Dumps the per-interval trajectory of one technique/workload run:
//! cumulative activations, triggers, false positives and max
//! disturbance sampled on a stride grid, written as JSON + CSV to
//! `results/`.
//!
//! Usage: `timeline [quick|paper|full] [technique] [stride] [output-dir]
//! [--attack <name>] [--backend <tier>]` (defaults: paper, LoLiPRoMi,
//! 64, `./results`, the paper's ramping attack, and the exact backend).
//! `--attack` selects any attack pattern from the scenario catalog
//! (`ramp`, `flooding`, `double-sided`, `decoy`, `shifted-ramp`,
//! `burst`), mixed with the benign workload.  `--backend` selects the
//! disturbance fidelity tier (`exact`, `fast` or `cycle`); the cycle
//! tier also reports command-timing metrics.
//!
//! The JSON is read back and compared against the in-memory metrics
//! before the process exits; a round-trip mismatch is a hard failure
//! (CI runs this at quick scale).

use rh_harness::{
    report, scenario, BackendSpec, ExperimentScale, RunConfig, RunMetrics, Runner,
    TimeSeriesRecorder,
};
use rh_hwmodel::Technique;
use std::fs::File;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_technique(name: &str) -> Option<Technique> {
    let mut all = Technique::TABLE3.to_vec();
    all.push(Technique::Cat);
    all.into_iter()
        .find(|t| t.name().eq_ignore_ascii_case(name))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Vec::new();
    let mut attack_name: Option<String> = None;
    let mut backend = BackendSpec::Exact;
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--backend" {
            match iter.next().map(|v| v.parse()) {
                Some(Ok(b)) => backend = b,
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--backend needs a tier: exact, fast or cycle");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(tier) = arg.strip_prefix("--backend=") {
            match tier.parse() {
                Ok(b) => backend = b,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--attack" {
            match iter.next() {
                Some(name) => attack_name = Some(name),
                None => {
                    eprintln!(
                        "--attack needs a name: {}",
                        scenario::named_attacks().join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(name) = arg.strip_prefix("--attack=") {
            attack_name = Some(name.to_string());
        } else {
            args.push(arg);
        }
    }
    let scale = ExperimentScale::from_arg_or_exit(args.first().map(String::as_str));
    let technique = match args.get(1) {
        Some(name) => match parse_technique(name) {
            Some(t) => t,
            None => {
                let known: Vec<&str> = Technique::TABLE3.iter().map(|t| t.name()).collect();
                eprintln!("unknown technique {name:?}; known: {}", known.join(", "));
                return ExitCode::FAILURE;
            }
        },
        None => Technique::LoLiPromi,
    };
    let stride: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let dir = PathBuf::from(args.get(3).cloned().unwrap_or_else(|| "results".into()));

    let config = RunConfig::paper(&scale);
    let trace = match &attack_name {
        None => scenario::paper_mix(&config, 1),
        Some(name) => match scenario::named_attack(&config, name) {
            Some(attack) => scenario::mix_with(&config, attack, 1),
            None => {
                eprintln!(
                    "unknown attack {name:?}; known: {}",
                    scenario::named_attacks().join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let metrics = Runner::new(config)
        .technique(technique)
        .seed(1)
        .backend(backend)
        .observer(TimeSeriesRecorder::new(stride))
        .run(trace);

    let series = metrics
        .timeseries
        .as_ref()
        .expect("TimeSeriesRecorder was attached");
    println!(
        "{}: {} intervals, {} activations, {} triggers ({} FP), {} sample points @ stride {stride}",
        metrics.technique,
        metrics.intervals,
        metrics.workload_activations,
        metrics.trigger_events,
        metrics.false_positive_events,
        series.points.len(),
    );
    if let Some(cycle) = &metrics.cycle {
        println!(
            "cycle model: {} mitigation cycles ({:.2}% bandwidth overhead), \
             row-buffer hit rate {:.1}%",
            cycle.mitigation_cycles,
            cycle.bandwidth_overhead_percent(),
            100.0 * cycle.row_buffer_hit_rate(),
        );
    }

    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut slug = metrics.technique.to_lowercase().replace('/', "-");
    if let Some(name) = &attack_name {
        slug = format!("{slug}_{name}");
    }
    let json_path = dir.join(format!("timeline_{slug}.json"));
    let csv_path = dir.join(format!("timeline_{slug}.csv"));
    let json = match serde_json::to_string(&metrics) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("cannot serialize metrics: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    let csv = File::create(&csv_path).and_then(|f| report::timeseries_csv(series, f));
    if let Err(e) = csv {
        eprintln!("cannot write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }

    // Self-check: the emitted JSON must round-trip to the exact metrics.
    let read_back = match std::fs::read_to_string(&json_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot re-read {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    };
    match serde_json::from_str::<RunMetrics>(&read_back) {
        Ok(decoded) if decoded == metrics => {
            println!(
                "wrote {} and {} (JSON round-trip OK)",
                json_path.display(),
                csv_path.display()
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("JSON round-trip mismatch: decoded metrics differ from the run");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("JSON round-trip failed to parse: {e}");
            ExitCode::FAILURE
        }
    }
}
