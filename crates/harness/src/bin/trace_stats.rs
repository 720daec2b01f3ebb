//! Prints the calibration statistics of the synthetic evaluation trace
//! against the paper's reported trace characteristics (Table I and the
//! CaPRoMi sizing argument).
//!
//! Usage: `trace_stats [quick|paper|full]` (default: paper).

use mem_trace::TraceStats;
use rh_harness::{scenario, ExperimentScale, RunConfig, TextTable};

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let config = RunConfig::paper(&scale);
    let stats = TraceStats::collect(scenario::paper_mix(&config, 1));

    let mut table = TextTable::new(vec!["statistic", "measured", "paper target"]);
    table.row(vec![
        "total activations".into(),
        format!("{:.1} M", stats.total_activations as f64 / 1e6),
        "175 M at full scale".into(),
    ]);
    table.row(vec![
        "refresh intervals".into(),
        stats.intervals.to_string(),
        "1.56 M at full scale".into(),
    ]);
    table.row(vec![
        "mean acts / bank-interval".into(),
        format!("{:.1}", stats.mean_per_bank_interval()),
        "≈ 40 (incl. aggressors)".into(),
    ]);
    table.row(vec![
        "max acts / bank-interval".into(),
        stats.max_per_bank_interval.to_string(),
        "≤ 165 (DDR4 bound)".into(),
    ]);
    table.row(vec![
        "aggressor share".into(),
        format!("{:.1} %", 100.0 * stats.aggressor_share()),
        "-".into(),
    ]);
    table.row(vec![
        "top-32 row coverage".into(),
        format!("{:.1} %", 100.0 * stats.top_k_coverage(32)),
        "high (history-table sizing)".into(),
    ]);
    println!("Synthetic trace calibration");
    println!();
    print!("{}", table.render());
}
