//! Ablations of the design choices DESIGN.md calls out: history-table
//! size, `P_base` exponent, CaPRoMi's lock threshold, and FIFO-vs-none
//! history (disabling the table shows what the "time-varying probability
//! alone" would cost).

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::{mean_std, sweep, total_flips, worst_margin};
use crate::metrics::{MeanStd, RunMetrics};
use crate::runner::Runner;
use crate::scenario;
use crate::table::TextTable;
use tivapromi::{HistoryPolicy, TivaConfig, TivaVariant};

/// One ablation cell.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Which sweep this cell belongs to.
    pub sweep: &'static str,
    /// Variant under test.
    pub variant: TivaVariant,
    /// Parameter value.
    pub value: String,
    /// Storage per bank, bytes.
    pub storage_bytes: f64,
    /// Overhead % across seeds.
    pub overhead: MeanStd,
    /// Worst attack margin across seeds — lower overhead with a *worse*
    /// margin means triggers were missed, not saved.
    pub margin: f64,
    /// Flips across seeds.
    pub flips: usize,
}

/// One ablation point: its sweep, the variant under test, the swept
/// value and the configuration that sets it.
type Cell = (&'static str, TivaVariant, String, TivaConfig);

/// Every ablation point, sweep by sweep, in the order `rh ablation`
/// prints them.
fn cells(config: &RunConfig) -> Vec<Cell> {
    use TivaVariant::{CaPromi, LiPromi, LoLiPromi};
    let base = TivaConfig::paper(&config.geometry);
    let mut cells: Vec<Cell> = Vec::new();
    // History-table size (paper value: 32) for LoLiPRoMi.
    for n in [4usize, 8, 16, 32, 64, 128] {
        cells.push((
            "history entries",
            LoLiPromi,
            n.to_string(),
            base.with_history_entries(n),
        ));
    }
    // `P_base` exponent (paper value: 23) for LiPRoMi.
    for e in 21u32..=25 {
        cells.push((
            "P_base exponent",
            LiPromi,
            format!("2^-{e}"),
            base.with_p_base_exponent(e),
        ));
    }
    // CaPRoMi lock threshold (default 16).
    for th in [2u32, 4, 8, 16, 32, 64] {
        cells.push((
            "lock threshold",
            CaPromi,
            th.to_string(),
            base.with_lock_threshold(th),
        ));
    }
    // Counter-table size (paper value: 64) for CaPRoMi.
    for n in [16usize, 32, 64, 128] {
        cells.push((
            "counter entries",
            CaPromi,
            n.to_string(),
            base.with_counter_entries(n),
        ));
    }
    // History replacement policy (paper: FIFO) for LoLiPRoMi.
    for p in [HistoryPolicy::Fifo, HistoryPolicy::Lru] {
        cells.push((
            "history policy",
            LoLiPromi,
            format!("{p:?}"),
            base.with_history_policy(p),
        ));
    }
    cells
}

/// Runs every ablation sweep on the mixed trace.
pub fn run(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    sweep(
        &cells(&config),
        scale.seeds,
        |&(_, variant, _, tiva), seed| {
            let trace = scenario::paper_mix(&config, seed);
            Runner::new(config.clone())
                .technique((variant, tiva))
                .seed(seed)
                .run(trace)
        },
        |&(name, variant, ref value, _), runs| AblationResult {
            sweep: name,
            variant,
            value: value.clone(),
            storage_bytes: runs.first().map_or(0.0, |m| m.storage_bytes_per_bank),
            overhead: mean_std(&runs, RunMetrics::overhead_percent),
            margin: worst_margin(&runs),
            flips: total_flips(&runs),
        },
    )
}

/// Renders ablation cells.
pub fn render(results: &[AblationResult]) -> String {
    let mut table = TextTable::new(vec![
        "sweep",
        "variant",
        "value",
        "storage [B/bank]",
        "overhead [%]",
        "worst margin",
        "flips",
    ]);
    for r in results {
        table.row(vec![
            r.sweep.into(),
            r.variant.to_string(),
            r.value.clone(),
            format!("{:.0}", r.storage_bytes),
            r.overhead.to_string(),
            format!("{:.0}%", 100.0 * r.margin),
            r.flips.to_string(),
        ]);
    }
    table.render()
}

/// Everything `rh ablation` prints: every sweep in one table.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Ablations — design-choice sweeps (paper values: history 32,\n\
         P_base 2^-23, counter table 64)\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            windows: 2,
            banks: 1,
            seeds: 1,
        }
    }

    /// The cells of one sweep of [`run`], in order.
    fn sweep_of(name: &str) -> Vec<AblationResult> {
        run(&tiny())
            .into_iter()
            .filter(|r| r.sweep == name)
            .collect()
    }

    #[test]
    fn run_yields_every_sweep_in_order() {
        let cells: Vec<(&str, String)> = run(&tiny())
            .into_iter()
            .map(|r| (r.sweep, r.value))
            .collect();
        let expected: Vec<(&str, String)> = [
            ("history entries", &["4", "8", "16", "32", "64", "128"][..]),
            (
                "P_base exponent",
                &["2^-21", "2^-22", "2^-23", "2^-24", "2^-25"],
            ),
            ("lock threshold", &["2", "4", "8", "16", "32", "64"]),
            ("counter entries", &["16", "32", "64", "128"]),
            ("history policy", &["Fifo", "Lru"]),
        ]
        .iter()
        .flat_map(|&(sweep, values)| values.iter().map(move |v| (sweep, v.to_string())))
        .collect();
        assert_eq!(cells.len(), 23);
        assert_eq!(cells, expected);
    }

    #[test]
    fn history_sweep_changes_storage_monotonically() {
        let results = sweep_of("history entries");
        assert_eq!(results.len(), 6);
        for pair in results.windows(2) {
            assert!(pair[0].storage_bytes < pair[1].storage_bytes);
        }
        for r in &results {
            assert_eq!(r.flips, 0, "history={}", r.value);
        }
        assert!(render(&results).contains("history entries"));
    }

    #[test]
    fn history_policy_sweep_runs_both_policies() {
        let results = sweep_of("history policy");
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.flips, 0, "policy={}", r.value);
            // Same table size either way — LRU costs recency state, not
            // entries.
            assert_eq!(r.storage_bytes, 120.0);
        }
    }

    #[test]
    fn p_base_sweep_orders_overhead() {
        // A larger P_base (smaller exponent) triggers more often.
        let results = sweep_of("P_base exponent");
        let first = results.first().unwrap().overhead.mean; // 2^-21
        let last = results.last().unwrap().overhead.mean; // 2^-25
        assert!(first > last, "2^-21 {first} vs 2^-25 {last}");
    }
}
