//! §IV reliability check — "For these nine mitigation techniques, no
//! active attacks were successful."
//!
//! Also demonstrates the converse: without mitigation the same trace
//! flips bits, so the check is not vacuous.

use crate::config::{ExperimentScale, RunConfig};
use crate::metrics::RunMetrics;
use crate::table::TextTable;
use crate::{engine, parallel, scenario, techniques};
use mem_trace::EventBatch;
use rh_hwmodel::Technique;
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// A do-nothing mitigation, used to show the attack is real.
#[derive(Debug, Default)]
pub struct Unprotected;

impl Mitigation for Unprotected {
    fn name(&self) -> &str {
        "unprotected"
    }
    fn on_batch(&mut self, _: &EventBatch, _: Range<usize>, _: &mut ActionSink) {}
    fn on_refresh_interval(&mut self, _: &mut Vec<MitigationAction>) {}
    fn storage_bits_per_bank(&self) -> u64 {
        0
    }
}

/// Result for one technique.
#[derive(Debug, Clone)]
pub struct ReliabilityResult {
    /// Technique name ("unprotected" for the baseline run).
    pub technique: String,
    /// Bit flips observed.
    pub flips: usize,
    /// Attack margin: max disturbance / threshold.
    pub margin: f64,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

/// Runs the ramping attack trace unprotected and under all nine
/// techniques.
pub fn run(scale: &ExperimentScale) -> Vec<ReliabilityResult> {
    let config = RunConfig::paper(scale);

    let mut jobs: Vec<Option<Technique>> = vec![None];
    jobs.extend(Technique::TABLE3.iter().copied().map(Some));

    parallel::map(jobs, |technique| {
        let trace = scenario::paper_mix(&config, 1);
        let build = || -> Box<dyn Mitigation> {
            match technique {
                None => Box::new(Unprotected),
                Some(t) => techniques::build(t, &config, 1),
            }
        };
        let metrics = engine::run_sharded(trace, &build, &config, None);
        ReliabilityResult {
            technique: metrics.technique.clone(),
            flips: metrics.flips,
            margin: metrics.attack_margin(),
            metrics,
        }
    })
}

/// Renders the reliability table.
pub fn render(results: &[ReliabilityResult]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "bit flips",
        "attack margin",
        "first flip @ act",
    ]);
    for r in results {
        table.row(vec![
            r.technique.clone(),
            r.flips.to_string(),
            format!("{:.1}% of threshold", 100.0 * r.margin),
            r.metrics
                .time_to_first_flip
                .map_or_else(|| "-".into(), |act| act.to_string()),
        ]);
    }
    table.render()
}

/// Everything `rh reliability` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Reliability — 1→20 aggressors per bank, mixed workload\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_succeeds_unprotected_and_fails_mitigated() {
        let results = run(&ExperimentScale::quick());
        let unprotected = results
            .iter()
            .find(|r| r.technique == "unprotected")
            .unwrap();
        assert!(unprotected.flips > 0, "the ramp attack must be real");
        for r in results.iter().filter(|r| r.technique != "unprotected") {
            assert_eq!(r.flips, 0, "{} failed to mitigate", r.technique);
            assert!(r.margin < 1.0);
        }
        assert!(render(&results).contains("unprotected"));
    }
}
