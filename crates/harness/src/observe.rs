//! Observability: the hook points inside the run engine, and the
//! time-series recorder built on them.
//!
//! The paper's evaluation reduces every run to end-of-run scalars
//! (Table III overhead μ±σ, FPR, first-trigger points).  This module
//! opens the run up: an [`Observer`] receives callbacks *during* a run
//! — per mitigation action, per refresh-interval boundary, at run end —
//! and an [`Observe`] strategy forks one observer per bank shard of a
//! parallel run, so observability composes with the sharded engine
//! without perturbing its bit-identical determinism contract.
//!
//! [`TimeSeriesRecorder`] records the disturbance-counter and
//! trigger-rate *trajectory* of a run, sampled on a fixed interval grid
//! and installed into [`RunMetrics::timeseries`], where
//! [`RunMetrics::merge`] combines shard trajectories exactly.
//!
//! The no-observer path stays zero-cost: unobserved,
//! [`crate::engine::run_sharded`] monomorphises the engine loop over
//! [`NullObserver`], whose empty inline callbacks compile away.
//! Observers only pay dynamic dispatch when one is actually attached
//! (via [`crate::Runner::observer`] or the `observe` argument of
//! [`crate::engine::run_sharded`]).

use crate::metrics::{RunMetrics, TimePoint, TimeSeries};
use dram_sim::BankId;
use tivapromi::MitigationAction;

/// Which slice of a run an observer is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// The bank this shard drives, or `None` for a whole-run
    /// (sequential, all-banks) observer.
    pub bank: Option<BankId>,
}

impl ShardInfo {
    /// The whole-run pseudo-shard of a sequential (unsharded) run.
    pub fn whole_run() -> Self {
        ShardInfo { bank: None }
    }
}

/// The engine's state at a refresh-interval boundary, passed to
/// [`Observer::on_interval_end`].
///
/// Counters are cumulative over the observed run (shard); the backend's
/// aggregate state (`stats`, `max_disturbance`) is available on every
/// fidelity tier.
#[derive(Debug)]
pub struct IntervalSnapshot {
    /// 0-based index of the refresh interval that just completed.
    pub interval: u64,
    /// Cumulative workload activations delivered.
    pub activations: u64,
    /// Cumulative trigger events.
    pub triggers: u64,
    /// Cumulative ground-truth false-positive trigger events.
    pub false_positives: u64,
    /// The backend's aggregate activity counters so far.
    pub stats: dram_sim::DeviceStats,
    /// Highest disturbance counter seen so far (attack margin), in
    /// whole activations.
    pub max_disturbance: u32,
}

/// Callbacks from inside one engine run (one shard of a parallel run,
/// or the whole of a sequential one).
///
/// All methods default to no-ops so implementations override only the
/// granularity they need; per-action hooks are on the engine's hot path
/// and should stay O(1) and allocation-free.
pub trait Observer: Send {
    /// The mitigation issued `action`; `true_positive` is the
    /// ground-truth attribution against the trace's aggressor ledger.
    fn on_action(&mut self, action: &MitigationAction, true_positive: bool) {
        let _ = (action, true_positive);
    }

    /// A refresh interval completed (after the auto-refresh and the
    /// mitigation's interval-granular actions were applied).
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot) {
        let _ = snapshot;
    }

    /// The run (shard) finished.  `metrics` is the shard's result;
    /// observers may install recorded data into its optional sections
    /// (e.g. [`RunMetrics::timeseries`]), which
    /// [`RunMetrics::merge`] then combines across shards.
    fn on_run_end(&mut self, metrics: &mut RunMetrics) {
        let _ = metrics;
    }
}

/// The zero-cost default observer: every callback is an empty inline
/// no-op, so the engine loop monomorphised over `NullObserver` is
/// identical to an unobserved loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An observation strategy attachable to a whole (possibly sharded)
/// run: forks one [`Observer`] per shard.
///
/// Shards are forked on worker threads, hence the `&self` receiver and
/// the `Sync` bound.
pub trait Observe: Send + Sync {
    /// Creates the observer for one shard (or for the whole sequential
    /// run, when `shard.bank` is `None`).
    fn observer(&self, shard: &ShardInfo) -> Box<dyn Observer>;
}

// --- TimeSeriesRecorder ---------------------------------------------

/// Records the per-interval trajectory of a run into
/// [`RunMetrics::timeseries`].
///
/// Sampling happens at refresh-interval boundaries on a fixed grid
/// (every `stride` intervals, plus a final point at the last processed
/// interval), so attaching the recorder can never perturb the run: it
/// only reads cumulative counters the engine maintains anyway.  In a
/// sharded run every shard records its own trajectory and
/// [`RunMetrics::merge`] combines them into exactly the series the
/// sequential run would have recorded.
///
/// ```
/// use rh_harness::{Runner, TimeSeriesRecorder, RunConfig, ExperimentScale, scenario};
/// use rh_hwmodel::Technique;
///
/// let config = RunConfig::paper(&ExperimentScale::quick());
/// let trace = scenario::paper_mix(&config, 1);
/// let metrics = Runner::new(config.clone())
///     .technique(Technique::Para)
///     .seed(1)
///     .observer(TimeSeriesRecorder::new(64))
///     .run(trace);
/// let series = metrics.timeseries.expect("recorder attached");
/// assert!(!series.points.is_empty());
/// assert_eq!(series.points.last().unwrap().activations, metrics.workload_activations);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimeSeriesRecorder {
    stride: u64,
}

impl TimeSeriesRecorder {
    /// A recorder sampling every `stride` refresh intervals
    /// (`stride == 0` is treated as 1).
    pub fn new(stride: u64) -> Self {
        TimeSeriesRecorder {
            stride: stride.max(1),
        }
    }

    /// The sampling stride in refresh intervals.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

impl Observe for TimeSeriesRecorder {
    fn observer(&self, _shard: &ShardInfo) -> Box<dyn Observer> {
        Box::new(TimeSeriesObserver {
            series: TimeSeries::new(self.stride),
            last: None,
        })
    }
}

/// Per-shard recording observer of [`TimeSeriesRecorder`].
struct TimeSeriesObserver {
    series: TimeSeries,
    /// Snapshot of the most recently completed interval, so the final
    /// (possibly off-grid) point can be emitted at run end.
    last: Option<TimePoint>,
}

impl Observer for TimeSeriesObserver {
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot) {
        let point = TimePoint {
            interval: snapshot.interval,
            activations: snapshot.activations,
            mitigation_activations: snapshot.stats.mitigation_activations,
            triggers: snapshot.triggers,
            false_positives: snapshot.false_positives,
            max_disturbance: snapshot.max_disturbance,
        };
        self.last = Some(point);
        if (snapshot.interval + 1).is_multiple_of(self.series.stride) {
            self.series.points.push(point);
        }
    }

    fn on_run_end(&mut self, metrics: &mut RunMetrics) {
        if let Some(last) = self.last {
            if self.series.points.last().map(|p| p.interval) != Some(last.interval) {
                self.series.points.push(last);
            }
        }
        let stride = self.series.stride;
        metrics.timeseries = Some(std::mem::replace(&mut self.series, TimeSeries::new(stride)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics {
            technique: "X".into(),
            workload_activations: 1000,
            aggressor_activations: 300,
            mitigation_activations: 20,
            trigger_events: 10,
            false_positive_events: 4,
            flips: 0,
            max_disturbance: 50,
            flip_threshold: 100,
            first_trigger_act: Some(42),
            time_to_first_flip: None,
            flip_log: Vec::new(),
            storage_bytes_per_bank: 120.0,
            intervals: 16,
            timeseries: None,
            cycle: None,
        }
    }

    #[test]
    fn recorder_emits_final_point_once() {
        let recorder = TimeSeriesRecorder::new(4);
        assert_eq!(recorder.stride(), 4);
        assert_eq!(TimeSeriesRecorder::new(0).stride(), 1);
        // Exercised end-to-end (grid + final point against a real run)
        // in tests/determinism.rs and the engine tests; here just the
        // empty-run edge: no intervals -> empty series installed.
        let mut observer = recorder.observer(&ShardInfo::whole_run());
        let mut m = metrics();
        observer.on_run_end(&mut m);
        let series = m.timeseries.unwrap();
        assert_eq!(series.stride, 4);
        assert!(series.points.is_empty());
    }
}
