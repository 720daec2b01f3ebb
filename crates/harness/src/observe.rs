//! Observability: hook points inside the run engine, and the concrete
//! observers built on them.
//!
//! The paper's evaluation reduces every run to end-of-run scalars
//! (Table III overhead μ±σ, FPR, first-trigger points).  This module
//! opens the run up: an [`Observer`] receives callbacks *during* a run
//! — per activation, per mitigation action, per refresh-interval
//! boundary — and an [`Observe`] strategy forks one observer per bank
//! shard of a parallel run and joins the results back together, so
//! observability composes with the sharded engine without perturbing
//! its bit-identical determinism contract.
//!
//! Three concrete observers cover the common questions:
//!
//! * [`TimeSeriesRecorder`] — the disturbance-counter and trigger-rate
//!   *trajectory* of a run, sampled on a fixed interval grid and
//!   installed into [`RunMetrics::timeseries`], where
//!   [`RunMetrics::merge`] combines shard trajectories exactly.
//! * [`DisturbanceHistogram`] — the per-bank distribution of
//!   disturbance counters at refresh-window boundaries, for
//!   attack-margin analysis (how close does the tail get to the flip
//!   threshold, and how heavy is it?).
//! * [`PerfCounters`] — per-shard wall-time, events/sec and worker
//!   utilization of the parallel engine, rendered as a
//!   [`crate::TextTable`].
//!
//! The no-observer path stays zero-cost: [`crate::engine::run_sharded`]
//! monomorphises the engine loop over [`NullObserver`], whose empty
//! inline callbacks compile away.  Observers only pay dynamic dispatch
//! when one is actually attached (via [`crate::Runner::observer`] or
//! [`crate::engine::run_with_observed`]).

use crate::metrics::{RunMetrics, TimePoint, TimeSeries};
use crate::table::TextTable;
use dram_sim::{BankId, DramDevice, RowAddr};
use mem_trace::EventBatch;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tivapromi::MitigationAction;

/// Which slice of a run an observer is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard index, `0..count`.
    pub index: usize,
    /// Total shards of the run (1 for a sequential run).
    pub count: usize,
    /// The bank this shard drives, or `None` for a whole-run
    /// (sequential, all-banks) observer.
    pub bank: Option<BankId>,
}

impl ShardInfo {
    /// The whole-run pseudo-shard of a sequential (unsharded) run.
    pub fn whole_run() -> Self {
        ShardInfo {
            index: 0,
            count: 1,
            bank: None,
        }
    }
}

/// The engine's state at a refresh-interval boundary, passed to
/// [`Observer::on_interval_end`].
///
/// Counters are cumulative over the observed run (shard).  The backend's
/// aggregate state (`stats`, `max_disturbance`) is available on every
/// fidelity tier; the borrowed device — for deeper inspection such as
/// per-row disturbance — only when the tier keeps an event-accurate
/// device (`exact` and `cycle`; the fast tier resolves per-row state
/// only at interval boundaries and exposes aggregates alone).
#[derive(Debug)]
pub struct IntervalSnapshot<'a> {
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
    /// The event-accurate device, when the backend tier keeps one.
    pub device: Option<&'a DramDevice>,
}

/// Callbacks from inside one engine run (one shard of a parallel run,
/// or the whole of a sequential one).
///
/// All methods default to no-ops so implementations override only the
/// granularity they need; per-activation hooks are on the engine's hot
/// path and should stay O(1) and allocation-free.
pub trait Observer: Send {
    /// A workload activation of `row` in `bank` was delivered
    /// (`aggressor` is the trace's ground-truth label).
    fn on_activation(&mut self, bank: BankId, row: RowAddr, aggressor: bool) {
        let _ = (bank, row, aggressor);
    }

    /// The mitigation issued `action`; `true_positive` is the
    /// ground-truth attribution against the trace's aggressor ledger.
    fn on_action(&mut self, action: &MitigationAction, true_positive: bool) {
        let _ = (action, true_positive);
    }

    /// One interval segment of an [`EventBatch`] is about to be
    /// replayed: the events at `range` belong to the interval whose
    /// [`Observer::on_interval_end`] fires next.
    ///
    /// The default fans out to [`Observer::on_activation`] per event,
    /// so per-event observers see every activation unchanged.  Batch
    /// granularity lets an observer touch its counters once per
    /// interval instead of once per activation; note that all of a
    /// segment's activations are reported *before* the segment's
    /// [`Observer::on_action`] calls (the scalar path interleaved
    /// them), while interval-end state is identical.
    fn on_batch(&mut self, batch: &EventBatch, range: std::ops::Range<usize>) {
        for i in range {
            self.on_activation(batch.bank(i), batch.row(i), batch.aggressor(i));
        }
    }

    /// A refresh interval completed (after the auto-refresh and the
    /// mitigation's interval-granular actions were applied).
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
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

impl Observer for NullObserver {
    fn on_batch(&mut self, _batch: &EventBatch, _range: std::ops::Range<usize>) {
        // Explicitly empty (not the fan-out default): the unobserved
        // engine must not even loop over the segment.
    }
}

impl Observer for Box<dyn Observer> {
    fn on_activation(&mut self, bank: BankId, row: RowAddr, aggressor: bool) {
        (**self).on_activation(bank, row, aggressor);
    }
    fn on_action(&mut self, action: &MitigationAction, true_positive: bool) {
        (**self).on_action(action, true_positive);
    }
    fn on_batch(&mut self, batch: &EventBatch, range: std::ops::Range<usize>) {
        (**self).on_batch(batch, range);
    }
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
        (**self).on_interval_end(snapshot);
    }
    fn on_run_end(&mut self, metrics: &mut RunMetrics) {
        (**self).on_run_end(metrics);
    }
}

/// Fans every callback out to a list of observers, in attachment order.
#[derive(Default)]
pub struct FanoutObserver(pub Vec<Box<dyn Observer>>);

impl Observer for FanoutObserver {
    fn on_activation(&mut self, bank: BankId, row: RowAddr, aggressor: bool) {
        for o in &mut self.0 {
            o.on_activation(bank, row, aggressor);
        }
    }
    fn on_action(&mut self, action: &MitigationAction, true_positive: bool) {
        for o in &mut self.0 {
            o.on_action(action, true_positive);
        }
    }
    fn on_batch(&mut self, batch: &EventBatch, range: std::ops::Range<usize>) {
        for o in &mut self.0 {
            o.on_batch(batch, range.clone());
        }
    }
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
        for o in &mut self.0 {
            o.on_interval_end(snapshot);
        }
    }
    fn on_run_end(&mut self, metrics: &mut RunMetrics) {
        for o in &mut self.0 {
            o.on_run_end(metrics);
        }
    }
}

/// Wall-clock summary of a (possibly sharded) run, passed to
/// [`Observe::on_run_end`].
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Worker threads the engine used.
    pub workers: usize,
    /// Shards the run was split into (1 for sequential).
    pub shards: usize,
    /// Total wall-clock time of the run, including the merge.
    pub elapsed: Duration,
}

/// An observation strategy attachable to a whole (possibly sharded)
/// run: forks one [`Observer`] per shard and is notified of shard and
/// run completion with wall-clock timings.
///
/// Shard callbacks arrive from worker threads, hence `&self` receivers
/// and the `Sync` bound; implementations aggregate through interior
/// mutability (all provided observers use a mutex locked only at
/// shard-granular events, never on the activation hot path).
pub trait Observe: Send + Sync {
    /// Creates the observer for one shard (or for the whole sequential
    /// run, when `shard.bank` is `None`).
    fn observer(&self, shard: &ShardInfo) -> Box<dyn Observer>;

    /// A shard is about to run (called on the worker thread).
    fn on_shard_start(&self, shard: &ShardInfo) {
        let _ = shard;
    }

    /// A shard finished in `elapsed` with the given per-shard metrics.
    fn on_shard_finish(&self, shard: &ShardInfo, metrics: &RunMetrics, elapsed: Duration) {
        let _ = (shard, metrics, elapsed);
    }

    /// The run finished; `merged` is the final merged result.
    fn on_run_end(&self, merged: &RunMetrics, summary: &RunSummary) {
        let _ = (merged, summary);
    }
}

impl Observe for &[Box<dyn Observe>] {
    fn observer(&self, shard: &ShardInfo) -> Box<dyn Observer> {
        match self.len() {
            0 => Box::new(NullObserver),
            1 => self[0].observer(shard),
            _ => Box::new(FanoutObserver(
                self.iter().map(|o| o.observer(shard)).collect(),
            )),
        }
    }
    fn on_shard_start(&self, shard: &ShardInfo) {
        for o in self.iter() {
            o.on_shard_start(shard);
        }
    }
    fn on_shard_finish(&self, shard: &ShardInfo, metrics: &RunMetrics, elapsed: Duration) {
        for o in self.iter() {
            o.on_shard_finish(shard, metrics, elapsed);
        }
    }
    fn on_run_end(&self, merged: &RunMetrics, summary: &RunSummary) {
        for o in self.iter() {
            o.on_run_end(merged, summary);
        }
    }
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
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
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

// --- DisturbanceHistogram -------------------------------------------

/// Shared, cloneable histogram of per-row disturbance counters,
/// sampled at refresh-window boundaries.
///
/// Buckets are logarithmic: bucket 0 counts rows at disturbance 0,
/// bucket `k >= 1` counts rows with disturbance in `[2^(k-1), 2^k)`.
/// Per bank, samples accumulate over all sampled windows, which makes
/// the tail mass directly comparable across techniques: a mitigation
/// that lets counters climb near the flip threshold shows a heavy high
/// bucket even if no flip ever happens (the attack-margin view).
///
/// The histogram observes each bank from the shard that drives it, so
/// its content is schedule- and worker-count-independent; clone the
/// handle, attach it to a [`crate::Runner`], and read
/// [`DisturbanceHistogram::per_bank`] after the run.
#[derive(Debug, Clone, Default)]
pub struct DisturbanceHistogram {
    inner: Arc<Mutex<BTreeMap<u32, Vec<u64>>>>,
}

impl DisturbanceHistogram {
    /// An empty histogram handle.
    pub fn new() -> Self {
        DisturbanceHistogram::default()
    }

    /// The bucket index for a disturbance value.
    pub fn bucket(disturbance: u32) -> usize {
        if disturbance == 0 {
            0
        } else {
            (u32::BITS - disturbance.leading_zeros()) as usize
        }
    }

    /// The half-open disturbance range `[lo, hi)` a bucket covers.
    pub fn bucket_range(bucket: usize) -> (u32, u64) {
        if bucket == 0 {
            (0, 1)
        } else {
            (1 << (bucket - 1), 1u64 << bucket)
        }
    }

    /// Per-bank bucket counts accumulated so far (bank → buckets).
    pub fn per_bank(&self) -> BTreeMap<u32, Vec<u64>> {
        self.inner.lock().expect("histogram lock").clone()
    }

    /// Renders the per-bank distribution as a table (one row per bank,
    /// one column per occupied bucket).
    pub fn render(&self) -> String {
        let per_bank = self.per_bank();
        let buckets = per_bank.values().map(Vec::len).max().unwrap_or(0);
        let mut header = vec!["bank".to_string()];
        for b in 0..buckets {
            let (lo, hi) = DisturbanceHistogram::bucket_range(b);
            header.push(if b == 0 {
                "0".into()
            } else {
                format!("{lo}..{hi}")
            });
        }
        let mut table = TextTable::new(header);
        for (bank, counts) in &per_bank {
            let mut row = vec![bank.to_string()];
            for b in 0..buckets {
                row.push(counts.get(b).copied().unwrap_or(0).to_string());
            }
            table.row(row);
        }
        table.render()
    }
}

impl Observe for DisturbanceHistogram {
    fn observer(&self, shard: &ShardInfo) -> Box<dyn Observer> {
        Box::new(HistogramObserver {
            handle: Arc::clone(&self.inner),
            bank: shard.bank,
            local: BTreeMap::new(),
        })
    }
}

/// Per-shard sampling observer of [`DisturbanceHistogram`].
struct HistogramObserver {
    handle: Arc<Mutex<BTreeMap<u32, Vec<u64>>>>,
    /// The one bank this shard drives, or `None` to sample every bank
    /// (sequential whole-run attachment).
    bank: Option<BankId>,
    local: BTreeMap<u32, Vec<u64>>,
}

impl HistogramObserver {
    fn sample_bank(&mut self, device: &DramDevice, bank: BankId) {
        let rows = device.geometry().rows_per_bank();
        let buckets = self.local.entry(bank.0).or_default();
        for row in 0..rows {
            let bucket = DisturbanceHistogram::bucket(device.disturbance(bank, RowAddr(row)));
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += 1;
        }
    }
}

impl Observer for HistogramObserver {
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
        // Per-row sampling needs the event-accurate device; on the fast
        // tier (no device) the histogram records nothing — documented
        // behavior, since the fast tier's per-row counters are only
        // meaningful at its own resolution points.
        let Some(device) = snapshot.device else {
            return;
        };
        let per_window = u64::from(device.geometry().intervals_per_window());
        if !(snapshot.interval + 1).is_multiple_of(per_window) {
            return;
        }
        match self.bank {
            Some(bank) => self.sample_bank(device, bank),
            None => {
                for bank in 0..device.geometry().banks() {
                    self.sample_bank(device, BankId(bank));
                }
            }
        }
    }

    fn on_run_end(&mut self, _metrics: &mut RunMetrics) {
        let mut shared = self.handle.lock().expect("histogram lock");
        for (bank, counts) in std::mem::take(&mut self.local) {
            let entry = shared.entry(bank).or_default();
            if entry.len() < counts.len() {
                entry.resize(counts.len(), 0);
            }
            for (b, c) in counts.into_iter().enumerate() {
                entry[b] += c;
            }
        }
    }
}

// --- PerfCounters ---------------------------------------------------

/// Wall-time of one shard of a run.
#[derive(Debug, Clone)]
pub struct ShardPerf {
    /// Shard index.
    pub shard: usize,
    /// The bank the shard drove (`None` for a whole-run shard).
    pub bank: Option<u32>,
    /// Events processed: workload plus mitigation activations.
    pub events: u64,
    /// Wall-clock time of the shard.
    pub elapsed: Duration,
}

impl ShardPerf {
    /// Events per second (0 for a zero-duration shard).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }
}

#[derive(Debug, Default)]
struct PerfData {
    shards: Vec<ShardPerf>,
    run: Option<(RunSummaryData, u64)>,
}

#[derive(Debug, Clone, Copy)]
struct RunSummaryData {
    workers: usize,
    elapsed: Duration,
}

/// Shared, cloneable per-shard performance counters for the parallel
/// engine: wall-time and events/sec per bank shard, plus overall
/// worker utilization.
///
/// Wall-clock readings are inherently non-deterministic, so they live
/// here — outside [`RunMetrics`] — and never affect the engine's
/// bit-identical determinism contract.  Clone the handle, attach it to
/// a [`crate::Runner`], and call [`PerfCounters::render`] after the
/// run:
///
/// ```
/// use rh_harness::{PerfCounters, Runner, RunConfig, ExperimentScale, scenario};
/// use rh_hwmodel::Technique;
///
/// let config = RunConfig::paper(&ExperimentScale::quick());
/// let perf = PerfCounters::new();
/// let trace = scenario::paper_mix(&config, 1);
/// Runner::new(config.clone())
///     .technique(Technique::TwiCe)
///     .observer(perf.clone())
///     .run(trace);
/// assert!(!perf.shards().is_empty());
/// assert!(perf.render().contains("events/sec"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfCounters {
    inner: Arc<Mutex<PerfData>>,
}

impl PerfCounters {
    /// A fresh counter handle.
    pub fn new() -> Self {
        PerfCounters::default()
    }

    /// Per-shard timings recorded so far, in shard order.
    pub fn shards(&self) -> Vec<ShardPerf> {
        let mut shards = self.inner.lock().expect("perf lock").shards.clone();
        shards.sort_by_key(|s| s.shard);
        shards
    }

    /// Total events per second over the whole run, if it completed.
    pub fn total_events_per_sec(&self) -> Option<f64> {
        let data = self.inner.lock().expect("perf lock");
        data.run.map(|(summary, events)| {
            let secs = summary.elapsed.as_secs_f64();
            if secs <= 0.0 {
                0.0
            } else {
                events as f64 / secs
            }
        })
    }

    /// Worker utilization in percent: the shards' summed busy time over
    /// `workers x run wall-time`.  `None` until the run completes.
    pub fn utilization_percent(&self) -> Option<f64> {
        let data = self.inner.lock().expect("perf lock");
        let (summary, _) = data.run?;
        let busy: f64 = data.shards.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        let capacity = summary.elapsed.as_secs_f64() * summary.workers.max(1) as f64;
        if capacity <= 0.0 {
            return Some(0.0);
        }
        Some(100.0 * busy / capacity)
    }

    /// Renders the per-shard table plus the run totals.
    pub fn render(&self) -> String {
        let shards = self.shards();
        let mut table = TextTable::new(vec!["shard", "bank", "events", "wall [ms]", "events/sec"]);
        for s in &shards {
            table.row(vec![
                s.shard.to_string(),
                s.bank.map_or_else(|| "all".into(), |b| b.to_string()),
                s.events.to_string(),
                format!("{:.2}", s.elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", s.events_per_sec()),
            ]);
        }
        let mut out = table.render();
        let data = self.inner.lock().expect("perf lock");
        if let Some((summary, events)) = data.run {
            drop(data);
            out.push_str(&format!(
                "total: {events} events in {:.2} ms on {} workers ({:.0} events/sec, {:.0}% utilization)\n",
                summary.elapsed.as_secs_f64() * 1e3,
                summary.workers,
                self.total_events_per_sec().unwrap_or(0.0),
                self.utilization_percent().unwrap_or(0.0),
            ));
        }
        out
    }
}

impl Observe for PerfCounters {
    fn observer(&self, _shard: &ShardInfo) -> Box<dyn Observer> {
        // Timing happens around the shard run; nothing to record inside.
        Box::new(NullObserver)
    }

    fn on_shard_finish(&self, shard: &ShardInfo, metrics: &RunMetrics, elapsed: Duration) {
        let mut data = self.inner.lock().expect("perf lock");
        data.shards.push(ShardPerf {
            shard: shard.index,
            bank: shard.bank.map(|b| b.0),
            events: metrics.workload_activations + metrics.mitigation_activations,
            elapsed,
        });
    }

    fn on_run_end(&self, merged: &RunMetrics, summary: &RunSummary) {
        let mut data = self.inner.lock().expect("perf lock");
        data.run = Some((
            RunSummaryData {
                workers: summary.workers,
                elapsed: summary.elapsed,
            },
            merged.workload_activations + merged.mitigation_activations,
        ));
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
    fn histogram_buckets_are_log2() {
        assert_eq!(DisturbanceHistogram::bucket(0), 0);
        assert_eq!(DisturbanceHistogram::bucket(1), 1);
        assert_eq!(DisturbanceHistogram::bucket(2), 2);
        assert_eq!(DisturbanceHistogram::bucket(3), 2);
        assert_eq!(DisturbanceHistogram::bucket(4), 3);
        assert_eq!(DisturbanceHistogram::bucket(1024), 11);
        assert_eq!(DisturbanceHistogram::bucket_range(0), (0, 1));
        assert_eq!(DisturbanceHistogram::bucket_range(3), (4, 8));
        for value in [0u32, 1, 5, 139_000] {
            let (lo, hi) = DisturbanceHistogram::bucket_range(DisturbanceHistogram::bucket(value));
            assert!(
                u64::from(value) >= u64::from(lo) && u64::from(value) < hi,
                "{value}"
            );
        }
    }

    #[test]
    fn fanout_reaches_every_observer() {
        struct Counting(Arc<Mutex<u64>>);
        impl Observer for Counting {
            fn on_action(&mut self, _: &MitigationAction, _: bool) {
                *self.0.lock().unwrap() += 1;
            }
        }
        let count = Arc::new(Mutex::new(0));
        let mut fan = FanoutObserver(vec![
            Box::new(Counting(Arc::clone(&count))),
            Box::new(Counting(Arc::clone(&count))),
        ]);
        let action = MitigationAction::RefreshRow {
            bank: BankId(0),
            row: RowAddr(1),
        };
        fan.on_action(&action, true);
        assert_eq!(*count.lock().unwrap(), 2);
    }

    #[test]
    fn perf_counters_aggregate_shards() {
        let perf = PerfCounters::new();
        let shard0 = ShardInfo {
            index: 0,
            count: 2,
            bank: Some(BankId(0)),
        };
        let shard1 = ShardInfo {
            index: 1,
            count: 2,
            bank: Some(BankId(1)),
        };
        let m = metrics();
        // Completion order is scheduler-dependent; report out of order.
        perf.on_shard_finish(&shard1, &m, Duration::from_millis(10));
        perf.on_shard_finish(&shard0, &m, Duration::from_millis(30));
        perf.on_run_end(
            &m.clone().merge(m.clone()),
            &RunSummary {
                workers: 2,
                shards: 2,
                elapsed: Duration::from_millis(40),
            },
        );
        let shards = perf.shards();
        assert_eq!(shards.len(), 2);
        // Sorted by shard index regardless of completion order.
        assert_eq!(shards[0].shard, 0);
        assert_eq!(shards[0].events, 1020);
        assert!(shards[0].events_per_sec() > 0.0);
        // 40 ms busy over 2 x 40 ms capacity = 50%.
        let util = perf.utilization_percent().unwrap();
        assert!((util - 50.0).abs() < 1e-9, "{util}");
        let rendered = perf.render();
        assert!(rendered.contains("events/sec"));
        assert!(rendered.contains("utilization"));
    }

    #[test]
    fn observe_slice_fans_out_and_empty_slice_is_inert() {
        let list: Vec<Box<dyn Observe>> = vec![
            Box::new(TimeSeriesRecorder::new(8)),
            Box::new(PerfCounters::new()),
        ];
        let shard = ShardInfo::whole_run();
        let slice: &[Box<dyn Observe>] = &list;
        let mut observer = slice.observer(&shard);
        let mut m = metrics();
        observer.on_run_end(&mut m);
        // The recorder installed an (empty) series even with no intervals.
        assert!(m.timeseries.is_some());
        let empty: &[Box<dyn Observe>] = &[];
        let _ = empty.observer(&shard); // NullObserver; nothing to assert beyond no panic
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
