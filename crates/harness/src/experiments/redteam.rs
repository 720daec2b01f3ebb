//! Red-team attack catalog × the nine Table III techniques.
//!
//! The full adaptive search lives in the `rh-redteam` crate; this
//! experiment runs its *static* attack catalog — the paper's ramp,
//! double-sided hammering, the phase-shifted relocating ramp and the
//! refresh-synchronized burst — against every technique at a fixed
//! attacker budget, under the weakened-cell flip threshold the search
//! uses.  It answers the coarse question the frontier search refines:
//! which attack shapes does each technique stop outright, and which
//! already flip bits at this budget?

use crate::config::{ExperimentScale, RunConfig};
use crate::metrics::RunMetrics;
use crate::table::TextTable;
use crate::{parallel, Parallelism, Runner};
use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::{AttackConfig, AttackKind, Attacker};
use rh_hwmodel::Technique;

/// The weakened-cell flip threshold of the red-team configuration
/// (the `rh-redteam` crate's quick search uses the same value).
pub const REDTEAM_FLIP_THRESHOLD: u32 = 2048;

/// Base aggressor row of every catalog attack.
const BASE_ROW: u32 = 200;

/// One catalog attack under one technique.
#[derive(Debug, Clone)]
pub struct RedteamResult {
    /// Technique name.
    pub technique: String,
    /// Catalog attack name.
    pub attack: &'static str,
    /// Bit flips at this budget.
    pub flips: usize,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

/// The red-team run configuration: 1/64 geometry and the weakened
/// flip threshold, sized by `scale.windows`.
pub fn config(scale: &ExperimentScale) -> RunConfig {
    let mut config = RunConfig::paper(scale);
    config.geometry = Geometry::scaled_down(64);
    config.flip_threshold = REDTEAM_FLIP_THRESHOLD;
    config
}

/// The static attack catalog at a fixed budget of 32 activations per
/// bank-interval.
pub fn catalog(config: &RunConfig) -> Vec<(&'static str, AttackConfig)> {
    let intervals = config.intervals();
    let ipw = u64::from(config.geometry.intervals_per_window());
    let base = AttackConfig {
        kind: AttackKind::DoubleSided {
            victim: RowAddr(BASE_ROW + 1),
        },
        target_banks: vec![BankId(0)],
        acts_per_interval: 32,
        start_interval: 0,
        intervals,
        ramp_hold_intervals: 0,
    };
    vec![
        (
            "static-ramp",
            AttackConfig {
                kind: AttackKind::MultiAggressorRamp {
                    base_row: RowAddr(BASE_ROW),
                    max_aggressors: 20,
                },
                ramp_hold_intervals: (intervals / 20).max(ipw),
                ..base.clone()
            },
        ),
        ("double-sided", base.clone()),
        (
            "shifted-ramp",
            AttackConfig {
                kind: AttackKind::PhaseShifted {
                    base_row: RowAddr(BASE_ROW),
                    max_aggressors: 20,
                    shift_intervals: ipw / 4,
                },
                ..base.clone()
            },
        ),
        (
            "burst",
            AttackConfig {
                kind: AttackKind::RefreshSyncBurst {
                    base_row: RowAddr(BASE_ROW),
                    pairs: 1,
                    duty_intervals: ipw / 2,
                    period_intervals: ipw,
                    phase: ipw / 4,
                },
                ..base
            },
        ),
    ]
}

/// Runs the catalog against all nine techniques.
pub fn run(scale: &ExperimentScale) -> Vec<RedteamResult> {
    let config = config(scale).with_parallelism(Parallelism::sequential());
    let mut jobs = Vec::new();
    for technique in Technique::TABLE3 {
        for (name, attack) in catalog(&config) {
            jobs.push((technique, name, attack));
        }
    }
    parallel::map(jobs, |(technique, name, attack)| {
        let metrics = Runner::new(config.clone())
            .technique(technique)
            .seed(1)
            .run(Attacker::new(attack));
        RedteamResult {
            technique: metrics.technique.clone(),
            attack: name,
            flips: metrics.flips,
            metrics,
        }
    })
}

/// Renders the catalog grid.
pub fn render(results: &[RedteamResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "attack",
        "bit flips",
        "first flip @ act",
        "evasion",
        "flips / M act",
        "attack margin",
    ]);
    for r in results {
        table.row(vec![
            r.technique.clone(),
            r.attack.to_string(),
            r.flips.to_string(),
            r.metrics
                .time_to_first_flip
                .map_or_else(|| "-".into(), |a| a.to_string()),
            format!("{:.1}%", r.metrics.evasion_percent()),
            format!("{:.1}", r.metrics.flips_per_mega_act()),
            format!("{:.2}", r.metrics.attack_margin()),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_grid_covers_all_techniques_and_attacks() {
        let results = run(&ExperimentScale::quick());
        assert_eq!(results.len(), 9 * 4);
        let techniques: std::collections::BTreeSet<&str> =
            results.iter().map(|r| r.technique.as_str()).collect();
        assert_eq!(techniques.len(), 9);
        // At the weakened threshold, the synchronized burst flips bits
        // under at least one technique — the grid is not vacuous.
        assert!(
            results.iter().any(|r| r.attack == "burst" && r.flips > 0),
            "burst should breach some technique at threshold {REDTEAM_FLIP_THRESHOLD}"
        );
        let text = render(&results);
        assert!(text.contains("burst"));
        assert!(text.contains("static-ramp"));
        assert!(text.contains("evasion"));
    }
}
