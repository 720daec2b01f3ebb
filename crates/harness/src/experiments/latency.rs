//! Demand-latency impact of mitigation traffic (extension study).
//!
//! Fig. 4's activation overhead becomes a *performance* cost only
//! through bank occupancy: every extra activation holds its bank for
//! tRC and can delay the demand activations behind it.  This experiment
//! runs the mixed trace through the engine on the cycle tier, whose
//! per-bank clocks time every command ([`dram_sim::CycleBackend`]), with
//! each technique attached, and reports the mean demand latency against
//! an unprotected baseline.
//!
//! Measurement: the slowdown follows the activation count — fractions
//! of a percent for TiVaPRoMi, tens of percent for ProHit — because the
//! tier delivers a bank's demands back to back, so an activation that
//! takes the bank delays the rest of its burst.

use crate::config::{ExperimentScale, RunConfig};
use crate::engine;
use crate::experiments::reliability::Unprotected;
use crate::experiments::sweep;
use crate::observe::NullObserver;
use crate::table::TextTable;
use crate::{scenario, techniques};
use dram_sim::{CycleBackend, MitigationPriority};
use mem_trace::{ReplayTrace, TraceSource};
use rh_hwmodel::Technique;
use tivapromi::Mitigation;

/// Refresh intervals each configuration runs: a quarter refresh window
/// gives stable means.
const INTERVALS: usize = 2048;

/// Latency result for one configuration.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Technique name ("unprotected" baseline, or `name @urgent`).
    pub technique: String,
    /// Mean demand latency in cycles.
    pub mean_latency: f64,
    /// Worst demand latency in cycles.
    pub max_latency: u64,
    /// Slowdown vs. the unprotected baseline, percent.
    pub slowdown_percent: f64,
    /// Mitigation activations issued.
    pub mitigation_activations: u64,
    /// Cycles demands started late because of mitigation activations.
    pub mitigation_stall_cycles: u64,
}

/// Runs the latency comparison: unprotected baseline, all nine
/// techniques at background priority, and the paper's best compromise at
/// urgent priority.
pub fn run(scale: &ExperimentScale) -> Vec<LatencyResult> {
    let config = RunConfig::paper(scale);
    // Every configuration replays one recording of the mix's first
    // intervals.
    let mut mix = scenario::paper_mix(&config, 1);
    let trace = ReplayTrace::new((0..INTERVALS).map_while(|_| {
        let mut events = Vec::new();
        mix.next_interval(&mut events).then_some(events)
    }));

    let mut cells = vec![(None, MitigationPriority::Background)];
    cells.extend(Technique::TABLE3.map(|t| (Some(t), MitigationPriority::Background)));
    cells.push((Some(Technique::LoLiPromi), MitigationPriority::Urgent));

    let stats = sweep(
        &cells,
        1,
        |&(technique, priority), seed| {
            let mut mitigation: Box<dyn Mitigation> = match technique {
                None => Box::new(Unprotected),
                Some(t) => techniques::build(t, &config, seed),
            };
            let mut backend = CycleBackend::new(config.build_device()).with_priority(priority);
            engine::run_on_backend_observed(
                &mut trace.clone(),
                mitigation.as_mut(),
                &config,
                &mut backend,
                &mut NullObserver,
            );
            backend.latency()
        },
        |&(technique, priority), runs| {
            let name = match (technique, priority) {
                (None, _) => "unprotected".to_string(),
                (Some(t), MitigationPriority::Background) => t.name().to_string(),
                (Some(t), MitigationPriority::Urgent) => format!("{} @urgent", t.name()),
            };
            (name, runs[0])
        },
    );

    let baseline = stats[0].1.mean_latency().max(1e-9);
    stats
        .into_iter()
        .map(|(technique, s)| LatencyResult {
            technique,
            mean_latency: s.mean_latency(),
            max_latency: s.max_latency_cycles,
            slowdown_percent: 100.0 * (s.mean_latency() / baseline - 1.0),
            mitigation_activations: s.mitigation_activations,
            mitigation_stall_cycles: s.mitigation_stall_cycles,
        })
        .collect()
}

/// Renders the latency table.
pub fn render(results: &[LatencyResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "mean demand latency [cyc]",
        "max [cyc]",
        "slowdown vs unprotected",
        "mitigation acts",
        "stall cycles",
    ]);
    for r in results {
        table.row(vec![
            r.technique.clone(),
            format!("{:.2}", r.mean_latency),
            r.max_latency.to_string(),
            format!("{:+.3}%", r.slowdown_percent),
            r.mitigation_activations.to_string(),
            r.mitigation_stall_cycles.to_string(),
        ]);
    }
    table.render()
}

/// Everything `rh latency` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Demand latency — mixed trace on the cycle tier's bank clocks\n\
         (background priority unless marked @urgent)\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_are_small_and_ordered() {
        let mut scale = ExperimentScale::quick();
        scale.windows = 1;
        let results = run(&scale);
        assert_eq!(results.len(), 11);
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.technique == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("unprotected").slowdown_percent, 0.0);
        // Background-priority TiVaPRoMi costs well under a percent.
        assert!(get("LoLiPRoMi").slowdown_percent.abs() < 1.0);
        // ProHit's higher activation overhead costs more latency than
        // TiVaPRoMi's.
        assert!(get("ProHit").mitigation_activations > get("LoLiPRoMi").mitigation_activations);
        assert!(get("ProHit").slowdown_percent > get("LoLiPRoMi").slowdown_percent);
        // Urgent priority can only be as fast or slower for demand.
        assert!(get("LoLiPRoMi @urgent").mean_latency >= get("LoLiPRoMi").mean_latency - 1e-9);
        assert!(render(&results).contains("slowdown"));
    }
}
