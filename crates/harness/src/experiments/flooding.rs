//! §IV flooding check — one row is hammered at the full bank budget;
//! the question is how many attacker activations pass before the first
//! mitigation-triggered extra activation lands.
//!
//! The paper reports LoPRoMi/LoLiPRoMi ≤ 10 K, CaPRoMi ≈ 15 K, LiPRoMi
//! ≈ 40 K — all below the 69 K safety bound (half the 139 K threshold,
//! for the double-sided case).  This experiment measures both a
//! *worst-case phase* (the flood begins the moment the flooded row's
//! weight resets — stricter than the paper, whose attack phase is
//! unspecified) and a typical mid-window phase.  The reproduced shape:
//! linear weighting triggers latest, the logarithmic variants earliest,
//! with means below the bound.
//!
//! **Finding beyond the paper:** under sustained worst-phase flooding
//! the retrigger-gap distribution has a heavy tail for *linear*
//! weight regrowth, and after the first trigger LoLiPRoMi switches to
//! exactly that linear regime for the flooded (history-resident) row.
//! A gap longer than the 843-interval flip horizon
//! (`tivapromi::RetriggerTail::horizon_intervals`) flips a victim; the
//! closed form puts that at 2.65 % per window for LiPRoMi and LoLiPRoMi
//! and 0.142 % for LoPRoMi's logarithmic regrowth
//! (`RetriggerTail::flip_probability_per_window`) — the quantitative
//! form of the "potential vulnerability" §IV concedes for LiPRoMi,
//! which the hybrid inherits.  At paper scale each row of the table
//! covers 24 seed-windows (12 seeds × 2 windows): at 2.65 % they expect
//! 0.64 tail flips and see none with probability 52 %, so 0 flips and
//! 2 flips are both consistent with the closed form, and 0 of 24 only
//! bounds the rate below 14 % (two-sided 95 % Clopper–Pearson).  A
//! fleet-scale cohort is what measures it.

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::{first_trigger, sweep, total_flips};
use crate::metrics::MeanStd;
use crate::runner::Runner;
use crate::scenario;
use crate::table::TextTable;
use dram_sim::RowAddr;
use rh_hwmodel::{reference, Technique};

/// Flooding result for one technique at one attack phase.
#[derive(Debug, Clone)]
pub struct FloodingResult {
    /// Technique.
    pub technique: Technique,
    /// Attack phase: intervals since the flooded row's refresh when the
    /// flood starts (0 = worst case).
    pub phase: u64,
    /// First-trigger activation counts across seeds.
    pub first_trigger: MeanStd,
    /// Worst (latest) first trigger across seeds.
    pub worst: u64,
    /// Paper's reference point, if reported.
    pub paper: Option<u64>,
    /// Bit flips (must be 0).
    pub flips: usize,
}

/// The flooded row: chosen so its victims are refreshed at the window
/// start, making interval 0 the worst-case attack phase.
pub const FLOODED_ROW: RowAddr = RowAddr(1);

/// The two attack phases reported: worst case (0 — the flood begins the
/// moment the flooded row's weight resets) and a typical mid-window
/// phase (half a window after the row's refresh).
pub const PHASES: [u64; 2] = [0, 4096];

/// Runs the flood against the four TiVaPRoMi variants (and PARA for
/// reference), at both attack phases.
pub fn run(scale: &ExperimentScale) -> Vec<FloodingResult> {
    let mut config = RunConfig::paper(scale);
    // One window is the natural horizon of the experiment; more windows
    // only repeat the pattern.
    config.windows = config.windows.min(2);
    let mut techniques_under_test = Technique::TIVAPROMI.to_vec();
    techniques_under_test.push(Technique::Para);

    let cells: Vec<(Technique, u64)> = PHASES
        .iter()
        .flat_map(|&phase| techniques_under_test.iter().map(move |&t| (t, phase)))
        .collect();
    sweep(
        &cells,
        scale.seeds.max(12),
        |&(t, phase), seed| {
            let trace = scenario::flooding_with_phase(&config, FLOODED_ROW, phase);
            Runner::new(config.clone())
                .technique(t)
                .seed(seed)
                .run(trace)
        },
        |&(t, phase), runs| FloodingResult {
            technique: t,
            phase,
            first_trigger: first_trigger(&runs),
            worst: runs
                .iter()
                .map(|m| m.first_trigger_act.unwrap_or(u64::MAX))
                .max()
                .unwrap_or(0),
            paper: reference::FLOODING
                .iter()
                .find(|p| p.technique == t)
                .map(|p| p.first_trigger_acts),
            flips: total_flips(&runs),
        },
    )
}

/// Renders the flooding table.
pub fn render(results: &[FloodingResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "attack phase",
        "first extra activation after [acts]",
        "worst seed",
        "paper (§IV)",
        "mean < 69 K bound",
        "flips",
    ]);
    for r in results {
        table.row(vec![
            r.technique.to_string(),
            if r.phase == 0 {
                "worst (w=0)".into()
            } else {
                format!("mid-window (w={})", r.phase)
            },
            format!("{:.0} ± {:.0}", r.first_trigger.mean, r.first_trigger.std),
            r.worst.to_string(),
            r.paper.map_or_else(|| "-".into(), |p| format!("≈{p}")),
            if r.first_trigger.mean < reference::FLOODING_SAFETY_BOUND as f64 {
                "yes"
            } else {
                "NO"
            }
            .into(),
            r.flips.to_string(),
        ]);
    }
    table.render()
}

/// Everything `rh flooding` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Flooding attack — worst-phase flood (attack starts right after the\n\
         flooded row's refresh, where time-varying weights are smallest)\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_bound_hold() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 4;
        let results = run(&scale);
        let mean = |t: Technique, phase: u64| {
            results
                .iter()
                .find(|r| r.technique == t && r.phase == phase)
                .expect("present")
                .first_trigger
                .mean
        };
        // The paper's ordering: logarithmic variants trigger earliest,
        // LiPRoMi much later, everything before a flip.
        assert!(mean(Technique::LoPromi, 0) < mean(Technique::LiPromi, 0));
        assert!(mean(Technique::LoLiPromi, 0) < mean(Technique::LiPromi, 0));
        // At the typical phase everything triggers well below the bound.
        for t in Technique::TIVAPROMI {
            assert!(mean(t, 4096) < 69_000.0, "{t}: {}", mean(t, 4096));
        }
        for r in &results {
            match r.technique {
                // Logarithmic regrowth keeps every retrigger gap short.
                Technique::LoPromi | Technique::CaPromi | Technique::Para => {
                    assert_eq!(r.flips, 0, "{} phase {}", r.technique, r.phase)
                }
                // Linear regrowth (LiPRoMi always; LoLiPRoMi once the
                // flooded row is in the history table) has a heavy
                // retrigger-gap tail: rare flips are the documented
                // finding, not a regression.
                _ => assert!(
                    r.flips <= (results.len() / 2).max(2),
                    "{} phase {}: {} flips",
                    r.technique,
                    r.phase,
                    r.flips
                ),
            }
        }
        assert!(render(&results).contains("69 K"));
    }
}
