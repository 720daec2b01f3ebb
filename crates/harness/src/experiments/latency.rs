//! Demand-latency impact of mitigation traffic (extension study).
//!
//! Fig. 4's activation overhead becomes a *performance* cost only
//! through controller arbitration: every extra activation occupies a
//! bank for `tRC` and can delay queued demand requests.  This experiment
//! replays the mixed trace through the cycle-level
//! [`dram_sim::controller::MemoryController`], with each technique's
//! actions routed through the Fig. 1 mitigation buffer, and reports the
//! mean demand latency against an unprotected baseline.
//!
//! Expectation (and measurement): at ≤ 0.4 % activation overhead and
//! background priority the slowdown is fractions of a percent — the
//! paper's "performance penalty" argument is about the *rate* of extra
//! activations precisely because each one is individually cheap.

use crate::config::{ExperimentScale, RunConfig};
use crate::table::TextTable;
use crate::{parallel, scenario, techniques};
use dram_sim::controller::{ControllerConfig, MemoryController, MitigationPriority, Request};
use dram_sim::RowAddr;
use mem_trace::{TraceEvent, TraceSource};
use rh_hwmodel::Technique;
use tivapromi::{Mitigation, MitigationAction};

/// Latency result for one configuration.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Technique name ("unprotected" baseline, or `name @urgent`).
    pub technique: String,
    /// Mean demand latency in controller cycles.
    pub mean_latency: f64,
    /// Worst demand latency in cycles.
    pub max_latency: u64,
    /// Slowdown vs. the unprotected baseline, percent.
    pub slowdown_percent: f64,
    /// Mitigation activations issued by the controller.
    pub mitigation_activations: u64,
    /// Demand-stall cycles attributed to mitigation bank occupancy.
    pub mitigation_stall_cycles: u64,
}

fn route_actions(
    actions: &mut Vec<MitigationAction>,
    mc: &mut MemoryController,
    rows_per_bank: u32,
) {
    for action in actions.drain(..) {
        match action {
            MitigationAction::ActivateNeighbors { bank, row } => {
                if row.0 > 0 {
                    mc.enqueue_mitigation(bank, RowAddr(row.0 - 1));
                }
                if row.0 + 1 < rows_per_bank {
                    mc.enqueue_mitigation(bank, RowAddr(row.0 + 1));
                }
            }
            MitigationAction::RefreshRow { bank, row } => {
                mc.enqueue_mitigation(bank, row);
            }
        }
    }
}

/// Replays the trace through the controller with `mitigation` attached.
pub fn simulate(
    config: &RunConfig,
    mitigation: Option<&mut dyn Mitigation>,
    priority: MitigationPriority,
    intervals: u64,
    seed: u64,
) -> dram_sim::controller::LatencyStats {
    let controller_config = ControllerConfig::from_timing(&config.timing).with_priority(priority);
    let mut mc = MemoryController::new(config.geometry, controller_config);
    let mut trace = scenario::paper_mix(config, seed);
    let mut mitigation = mitigation;
    let rows = config.geometry.rows_per_bank();
    let t_refi = controller_config.t_refi;

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut actions: Vec<MitigationAction> = Vec::new();
    let mut base_cycle = 0u64;
    for _ in 0..intervals {
        events.clear();
        if !trace.next_interval(&mut events) {
            break;
        }
        // Spread the interval's demand arrivals uniformly over tREFI.
        let spacing = t_refi / (events.len() as u64 + 1).max(1);
        for (k, event) in events.iter().enumerate() {
            let arrival = base_cycle + spacing * (k as u64 + 1);
            mc.enqueue_demand(Request {
                bank: event.bank,
                row: event.row,
                arrival_cycle: arrival,
            });
            if let Some(m) = mitigation.as_deref_mut() {
                m.on_activate(event.bank, event.row, &mut actions);
                route_actions(&mut actions, &mut mc, rows);
            }
        }
        mc.run_until(base_cycle + t_refi);
        if let Some(m) = mitigation.as_deref_mut() {
            m.on_refresh_interval(&mut actions);
            route_actions(&mut actions, &mut mc, rows);
        }
        base_cycle += t_refi;
    }
    mc.drain(base_cycle);
    mc.stats()
}

/// Runs the latency comparison: unprotected baseline, all nine
/// techniques at background priority, and the paper's best compromise at
/// urgent priority.
pub fn run(scale: &ExperimentScale) -> Vec<LatencyResult> {
    let config = RunConfig::paper(scale);
    // A quarter refresh window of cycle-accurate simulation per run is
    // plenty for stable means and keeps the cycle loop affordable.
    let intervals = (scale.windows * 2048).min(2048);

    #[derive(Clone)]
    enum Job {
        Baseline,
        Tech(Technique, MitigationPriority),
    }
    let mut jobs = vec![Job::Baseline];
    for t in Technique::TABLE3 {
        jobs.push(Job::Tech(t, MitigationPriority::Background));
    }
    jobs.push(Job::Tech(Technique::LoLiPromi, MitigationPriority::Urgent));

    let stats = parallel::map(jobs, |job| match job {
        Job::Baseline => (
            "unprotected".to_string(),
            simulate(&config, None, MitigationPriority::Background, intervals, 1),
        ),
        Job::Tech(t, priority) => {
            let mut m = techniques::build(t, &config, 1);
            let name = match priority {
                MitigationPriority::Background => t.name().to_string(),
                MitigationPriority::Urgent => format!("{} @urgent", t.name()),
            };
            (
                name,
                simulate(&config, Some(m.as_mut()), priority, intervals, 1),
            )
        }
    });

    let baseline = stats
        .iter()
        .find(|(n, _)| n == "unprotected")
        .map(|(_, s)| s.mean_latency())
        .unwrap_or(1.0)
        .max(1e-9);

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
        "Demand latency — mixed trace through the cycle-level controller\n\
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
        // TiVaPRoMi's (both still small).
        assert!(get("ProHit").mitigation_activations > get("LoLiPRoMi").mitigation_activations);
        // Urgent priority can only be as fast or slower for demand.
        assert!(get("LoLiPRoMi @urgent").mean_latency >= get("LoLiPRoMi").mean_latency - 1e-9);
        assert!(render(&results).contains("slowdown"));
    }
}
