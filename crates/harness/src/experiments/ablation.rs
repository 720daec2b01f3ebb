//! Ablations of the design choices DESIGN.md calls out: history-table
//! size, `P_base` exponent, CaPRoMi's lock threshold, and FIFO-vs-none
//! history (disabling the table shows what the "time-varying probability
//! alone" would cost).

use crate::config::{ExperimentScale, RunConfig};
use crate::metrics::MeanStd;
use crate::runner::Runner;
use crate::table::TextTable;
use crate::{parallel, scenario};
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

fn sweep_one(
    sweep: &'static str,
    variant: TivaVariant,
    value: String,
    tiva: TivaConfig,
    config: &RunConfig,
    seeds: u32,
) -> AblationResult {
    let runs = parallel::map((1..=u64::from(seeds)).collect(), |seed| {
        let trace = scenario::paper_mix(config, seed);
        Runner::new(config.clone())
            .technique((variant, tiva))
            .seed(seed)
            .run(trace)
    });
    let overheads: Vec<f64> = runs.iter().map(|m| m.overhead_percent()).collect();
    AblationResult {
        sweep,
        variant,
        value,
        storage_bytes: runs.first().map_or(0.0, |m| m.storage_bytes_per_bank),
        overhead: MeanStd::of(&overheads),
        margin: runs.iter().map(|m| m.attack_margin()).fold(0.0, f64::max),
        flips: runs.iter().map(|m| m.flips).sum(),
    }
}

/// History-table size sweep (paper value: 32) for LoLiPRoMi.
pub fn history_sweep(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    let base = TivaConfig::paper(&config.geometry);
    [4usize, 8, 16, 32, 64, 128]
        .iter()
        .map(|&entries| {
            sweep_one(
                "history entries",
                TivaVariant::LoLiPromi,
                entries.to_string(),
                base.with_history_entries(entries),
                &config,
                scale.seeds,
            )
        })
        .collect()
}

/// `P_base` exponent sweep (paper value: 23) for LiPRoMi.
pub fn p_base_sweep(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    let base = TivaConfig::paper(&config.geometry);
    (21u32..=25)
        .map(|exp| {
            sweep_one(
                "P_base exponent",
                TivaVariant::LiPromi,
                format!("2^-{exp}"),
                base.with_p_base_exponent(exp),
                &config,
                scale.seeds,
            )
        })
        .collect()
}

/// CaPRoMi lock-threshold sweep (default 16).
pub fn lock_threshold_sweep(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    let base = TivaConfig::paper(&config.geometry);
    [2u32, 4, 8, 16, 32, 64]
        .iter()
        .map(|&th| {
            sweep_one(
                "lock threshold",
                TivaVariant::CaPromi,
                th.to_string(),
                base.with_lock_threshold(th),
                &config,
                scale.seeds,
            )
        })
        .collect()
}

/// Counter-table size sweep (paper value: 64) for CaPRoMi.
pub fn counter_table_sweep(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    let base = TivaConfig::paper(&config.geometry);
    [16usize, 32, 64, 128]
        .iter()
        .map(|&entries| {
            sweep_one(
                "counter entries",
                TivaVariant::CaPromi,
                entries.to_string(),
                base.with_counter_entries(entries),
                &config,
                scale.seeds,
            )
        })
        .collect()
}

/// History replacement policy sweep (paper: FIFO) for LoLiPRoMi.
pub fn history_policy_sweep(scale: &ExperimentScale) -> Vec<AblationResult> {
    let config = RunConfig::paper(scale);
    let base = TivaConfig::paper(&config.geometry);
    [HistoryPolicy::Fifo, HistoryPolicy::Lru]
        .iter()
        .map(|&policy| {
            sweep_one(
                "history policy",
                TivaVariant::LoLiPromi,
                format!("{policy:?}"),
                base.with_history_policy(policy),
                &config,
                scale.seeds,
            )
        })
        .collect()
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
            format!("{:.4} ± {:.4}", r.overhead.mean, r.overhead.std),
            format!("{:.0}%", 100.0 * r.margin),
            r.flips.to_string(),
        ]);
    }
    table.render()
}

/// Everything `rh ablation` prints: every sweep in one table.
pub fn report(scale: &ExperimentScale) -> String {
    let mut results = history_sweep(scale);
    results.extend(p_base_sweep(scale));
    results.extend(lock_threshold_sweep(scale));
    results.extend(counter_table_sweep(scale));
    results.extend(history_policy_sweep(scale));
    format!(
        "Ablations — design-choice sweeps (paper values: history 32,\n\
         P_base 2^-23, counter table 64)\n\n{}",
        render(&results)
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

    #[test]
    fn history_sweep_changes_storage_monotonically() {
        let results = history_sweep(&tiny());
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
        let results = history_policy_sweep(&tiny());
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
        let results = p_base_sweep(&tiny());
        let first = results.first().unwrap().overhead.mean; // 2^-21
        let last = results.last().unwrap().overhead.mean; // 2^-25
        assert!(first > last, "2^-21 {first} vs 2^-25 {last}");
    }
}
