//! Aggressor-count sweep: the paper's attacker ramps 1→20 aggressors
//! per bank over the run; this experiment pins the count instead and
//! measures each technique at fixed k ∈ {1, 2, 4, 8, 16, 20} — the
//! decomposition of the ramp into its phases.
//!
//! Low counts concentrate the attacker budget (fast per-aggressor
//! hammering: hardest for counter thresholds and the weight ramp); high
//! counts spread it (many slow aggressors: hardest for small tables,
//! the sequential multi-aggressor pattern ProHit was designed for).

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::{mean_std, sweep, total_flips, worst_margin};
use crate::metrics::{MeanStd, RunMetrics};
use crate::runner::Runner;
use crate::table::TextTable;
use dram_sim::{BankId, RowAddr};
use mem_trace::{AttackConfig, AttackKind, Attacker, MixedTrace, SpecLikeWorkload, WorkloadConfig};
use rh_hwmodel::Technique;

/// The fixed aggressor counts swept.
pub const COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 20];

/// Result of one (technique, count) cell.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Technique.
    pub technique: Technique,
    /// Fixed number of aggressors per bank.
    pub aggressors: u32,
    /// Overhead % across seeds.
    pub overhead: MeanStd,
    /// Bit flips across seeds.
    pub flips: usize,
    /// Worst margin across seeds.
    pub margin: f64,
}

/// A mixed trace with a fixed aggressor count on bank 0.
pub fn fixed_count_mix(config: &RunConfig, aggressors: u32, seed: u64) -> MixedTrace {
    let intervals = config.intervals();
    let workload = SpecLikeWorkload::new(
        WorkloadConfig::paper(&config.geometry).with_intervals(intervals),
        seed,
    );
    // MultiAggressorRamp with a one-interval hold reaches the final
    // count after `aggressors` intervals — effectively a fixed-count
    // attack.
    let attacker = Attacker::new(AttackConfig {
        kind: AttackKind::MultiAggressorRamp {
            base_row: RowAddr(30_000),
            max_aggressors: aggressors,
        },
        target_banks: vec![BankId(0)],
        acts_per_interval: 24,
        start_interval: 0,
        intervals,
        ramp_hold_intervals: 1,
    });
    MixedTrace::new(
        vec![Box::new(workload), Box::new(attacker)],
        config.timing.max_activations_per_interval(),
    )
}

/// Runs the sweep for a representative technique set.
pub fn run(scale: &ExperimentScale) -> Vec<SweepResult> {
    let config = {
        let mut c = RunConfig::paper(scale);
        c.windows = c.windows.min(4);
        c
    };
    let under_test = [
        Technique::Para,
        Technique::TwiCe,
        Technique::LiPromi,
        Technique::LoLiPromi,
        Technique::CaPromi,
    ];
    let cells: Vec<(Technique, u32)> = under_test
        .iter()
        .flat_map(|&t| COUNTS.iter().map(move |&k| (t, k)))
        .collect();
    sweep(
        &cells,
        scale.seeds.max(2),
        |&(t, k), seed| {
            let trace = fixed_count_mix(&config, k, seed);
            Runner::new(config.clone())
                .technique(t)
                .seed(seed)
                .run(trace)
        },
        |&(t, k), runs| SweepResult {
            technique: t,
            aggressors: k,
            overhead: mean_std(&runs, RunMetrics::overhead_percent),
            flips: total_flips(&runs),
            margin: worst_margin(&runs),
        },
    )
}

/// Renders the sweep grid.
pub fn render(results: &[SweepResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "aggressors/bank",
        "overhead [%]",
        "worst margin",
        "flips",
    ]);
    for r in results {
        table.row(vec![
            r.technique.to_string(),
            r.aggressors.to_string(),
            r.overhead.to_string(),
            format!("{:.0}%", 100.0 * r.margin),
            r.flips.to_string(),
        ]);
    }
    table.render()
}

/// Everything `rh aggressor-sweep` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Aggressor-count sweep — fixed k aggressors per bank, mixed workload\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_counts_are_mitigated() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 1;
        let results = run(&scale);
        assert_eq!(results.len(), 5 * COUNTS.len());
        for r in &results {
            assert_eq!(r.flips, 0, "{} at k={}", r.technique, r.aggressors);
        }
        assert!(render(&results).contains("aggressors/bank"));
    }

    #[test]
    fn fixed_count_trace_has_expected_aggressors() {
        let config = RunConfig::paper(&ExperimentScale::quick());
        let mut mix = fixed_count_mix(&config, 4, 1);
        let mut out = Vec::new();
        let mut aggressor_rows = std::collections::BTreeSet::new();
        while {
            out.clear();
            mem_trace::TraceSource::next_interval(&mut mix, &mut out)
        } {
            // Only attacker-labelled events count: the benign workload's
            // uniform cold-row draws may legitimately touch any row.
            aggressor_rows.extend(out.iter().filter(|e| e.aggressor).map(|e| e.row.0));
        }
        // Aggressor rows 30000, 30002, 30004, 30006 — and nothing else.
        let expected: std::collections::BTreeSet<u32> = (0..4u32).map(|j| 30_000 + 2 * j).collect();
        assert_eq!(aggressor_rows, expected);
    }
}
