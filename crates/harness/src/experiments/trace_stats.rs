//! Calibration of the synthetic evaluation trace against the paper's
//! reported trace characteristics (Table I and the CaPRoMi sizing
//! argument).

use crate::config::{ExperimentScale, RunConfig};
use crate::scenario;
use crate::table::TextTable;
use mem_trace::TraceStats;

/// Collects the statistics of the seed-1 mixed trace at `scale`.
pub fn run(scale: &ExperimentScale) -> TraceStats {
    TraceStats::collect(scenario::paper_mix(&RunConfig::paper(scale), 1))
}

/// Renders the statistics next to the paper's targets.
pub fn render(stats: &TraceStats) -> String {
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
    table.render()
}

/// Everything `rh trace-stats` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!("Synthetic trace calibration\n\n{}", render(&run(scale)))
}
