//! Blast-radius extension study (beyond the paper's evaluation).
//!
//! The paper — like its baselines — models disturbance as strictly
//! nearest-neighbor, and its `act_n` restores only the rows at distance
//! one.  Measurements on modern dense DRAM show *second-order* coupling:
//! an activation also disturbs the rows two away, at a fraction of the
//! nearest-neighbor strength.  Once that fraction is large enough
//! (`≥ 139 K / (165 · 8192) ≈ 10.3 %` at the full flooding rate), a
//! distance-2 victim can cross the flip threshold within one refresh
//! window while *no ±1-refresh-based mitigation ever restores it* — a
//! blind spot shared by every technique in the paper's comparison.
//!
//! The experiment floods one row at couplings of 0 %, 12.5 % and 25 %
//! against a representative technique set, with and without the
//! [`tivapromi::WideNeighborhood`] adapter that widens `act_n` to ±2,
//! and reports who flips.

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::{mean_std, sweep, total_flips, worst_margin};
use crate::metrics::RunMetrics;
use crate::table::TextTable;
use crate::{engine, scenario, techniques};
use dram_sim::RowAddr;
use rh_hwmodel::Technique;
use tivapromi::{Mitigation, WideNeighborhood};

/// Distance-2 couplings swept, in sixteenths (0 %, 12.5 %, 25 %).
pub const COUPLINGS: [u32; 3] = [0, 2, 4];

/// Result of one (technique, coupling, wide?) cell.
#[derive(Debug, Clone)]
pub struct BlastRadiusResult {
    /// Technique name (with `+d2` suffix when widened).
    pub technique: String,
    /// Distance-2 coupling in sixteenths.
    pub coupling_sixteenths: u32,
    /// Bit flips across seeds.
    pub flips: usize,
    /// Worst margin (max disturbance / threshold).
    pub margin: f64,
    /// Mean activation overhead % (the price of widening).
    pub overhead: f64,
}

/// Representative techniques: the paper's best compromise, the tabled
/// counter, and the stateless baseline.
const UNDER_TEST: [Technique; 3] = [Technique::LoLiPromi, Technique::TwiCe, Technique::Para];

fn build(technique: Technique, config: &RunConfig, seed: u64, wide: bool) -> Box<dyn Mitigation> {
    let inner = techniques::build(technique, config, seed);
    if wide {
        Box::new(WideNeighborhood::new(
            inner,
            config.geometry.rows_per_bank(),
        ))
    } else {
        inner
    }
}

/// Runs the coupling × technique × widening sweep under worst-phase
/// flooding.
pub fn run(scale: &ExperimentScale) -> Vec<BlastRadiusResult> {
    let base = {
        let mut c = RunConfig::paper(scale);
        c.windows = c.windows.min(2);
        c
    };
    let cells: Vec<(Technique, u32, bool)> = UNDER_TEST
        .iter()
        .flat_map(|&t| {
            COUPLINGS
                .iter()
                .flat_map(move |&d2| [false, true].map(|wide| (t, d2, wide)))
        })
        .collect();
    sweep(
        &cells,
        scale.seeds.max(2),
        |&(t, d2, wide), seed| {
            let mut config = base.clone();
            config.distance2_sixteenths = d2;
            let trace = scenario::flooding(&config, RowAddr(100));
            engine::run_sharded(trace, &|| build(t, &config, seed, wide), &config, None)
        },
        |&(t, d2, wide), runs| BlastRadiusResult {
            technique: if wide {
                format!("{}+d2", t.name())
            } else {
                t.name().to_string()
            },
            coupling_sixteenths: d2,
            flips: total_flips(&runs),
            margin: worst_margin(&runs),
            overhead: mean_std(&runs, RunMetrics::overhead_percent).mean,
        },
    )
}

/// Renders the blast-radius table.
pub fn render(results: &[BlastRadiusResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "d2 coupling",
        "flips",
        "worst margin",
        "overhead [%]",
    ]);
    for r in results {
        table.row(vec![
            r.technique.clone(),
            format!("{:.1}%", 100.0 * f64::from(r.coupling_sixteenths) / 16.0),
            r.flips.to_string(),
            format!("{:.0}%", 100.0 * r.margin),
            format!("{:.4}", r.overhead),
        ]);
    }
    table.render()
}

/// Everything `rh blast-radius` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Blast-radius study — distance-2 coupling under worst-phase flooding\n\
         (`+d2` = act_n widened to ±2 via the WideNeighborhood adapter)\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_act_n_closes_the_distance2_blind_spot() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 1;
        let results = run(&scale);
        let get = |name: &str, d2: u32| {
            results
                .iter()
                .find(|r| r.technique == name && r.coupling_sixteenths == d2)
                .expect("cell present")
        };
        // No coupling: everything holds either way.
        assert_eq!(get("TWiCe", 0).flips, 0);
        assert_eq!(get("LoLiPRoMi", 0).flips, 0);
        // 25 % coupling defeats the ±1-only techniques under flooding…
        assert!(get("TWiCe", 4).flips > 0, "TWiCe blind spot");
        assert!(get("LoLiPRoMi", 4).flips > 0, "LoLiPRoMi blind spot");
        // …and the widened variants restore protection.
        assert_eq!(get("TWiCe+d2", 4).flips, 0);
        assert_eq!(get("LoLiPRoMi+d2", 4).flips, 0);
        // Widening costs extra activations.
        assert!(get("TWiCe+d2", 4).overhead > get("TWiCe", 4).overhead);
        assert!(render(&results).contains("d2 coupling"));
    }
}
