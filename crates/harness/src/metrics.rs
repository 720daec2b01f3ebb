//! Run metrics, time-series trajectories, and multi-seed statistics.

use dram_sim::{BankId, CycleStats, RowAddr};
use serde::{Deserialize, Serialize};

/// One attributed bit flip: which row flipped, when, and how much
/// bank-local activation budget had been spent by then.
///
/// The flip log is the profiling attacker's only sensor — it sees the
/// flips it caused, never the device's threshold map — so the record
/// carries exactly what an attacker reading back its own memory could
/// know: the location and the budget position.  `bank_act` uses the
/// same bank-local accounting as [`RunMetrics::time_to_first_flip`],
/// which makes every field invariant under bank sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipRecord {
    /// Bank in which the flip occurred.
    pub bank: BankId,
    /// Physical row that flipped.
    pub row: RowAddr,
    /// Global refresh-interval count at which the flip happened.
    pub interval: u64,
    /// Bank-local activation count when the flip was recorded.
    pub bank_act: u64,
}

impl FlipRecord {
    /// Canonical log order: by interval, then bank, then row.  A row
    /// flips at most once per run, so the key is unique and any
    /// concatenation of disjoint shard logs re-sorts to the same bytes.
    fn sort_key(&self) -> (u64, u32, u32) {
        (self.interval, self.bank.0, self.row.0)
    }
}

/// Sorts a flip log into the canonical order shared by sequential runs
/// and shard merges.
pub(crate) fn sort_flip_log(log: &mut [FlipRecord]) {
    log.sort_unstable_by_key(FlipRecord::sort_key);
}

/// One sampled point of a run's per-interval trajectory.
///
/// Counters are *cumulative* up to and including `interval` (0-based
/// index of the refresh interval just completed), so a point is a
/// snapshot of the run so far, not a per-interval delta.  Cumulative
/// counters make shard merging exact: banks are disjoint, so the
/// sequential run's snapshot at any interval is the sum (max for
/// `max_disturbance`) of the shards' snapshots at that interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimePoint {
    /// 0-based index of the refresh interval this point samples.
    pub interval: u64,
    /// Cumulative workload activations.
    pub activations: u64,
    /// Cumulative mitigation activations.
    pub mitigation_activations: u64,
    /// Cumulative trigger events.
    pub triggers: u64,
    /// Cumulative ground-truth false-positive trigger events.
    pub false_positives: u64,
    /// Highest disturbance counter seen so far (attack margin over time).
    pub max_disturbance: u32,
}

/// A per-interval trajectory recorded by
/// [`crate::observe::TimeSeriesRecorder`]: cumulative [`TimePoint`]s on
/// a fixed sampling grid (every `stride` intervals) plus a final point
/// at the last processed interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Sampling stride in refresh intervals: points sit at intervals
    /// `stride-1, 2*stride-1, …` plus the run's final interval.
    pub stride: u64,
    /// Sampled points in ascending `interval` order.
    pub points: Vec<TimePoint>,
}

impl TimeSeries {
    /// An empty series with the given sampling stride (`stride == 0` is
    /// treated as 1).
    pub fn new(stride: u64) -> Self {
        TimeSeries {
            stride: stride.max(1),
            points: Vec::new(),
        }
    }

    /// The cumulative snapshot in effect at `interval`: the latest point
    /// at or before it.  `None` before the first point (or for an empty
    /// series), in which case all counters are zero.
    pub fn value_at(&self, interval: u64) -> Option<&TimePoint> {
        self.points.iter().rev().find(|p| p.interval <= interval)
    }

    /// Combines the trajectories of two disjoint bank shards of one run.
    ///
    /// Both series must use the same `stride` (they come from the same
    /// recorder).  The merged sample set is the union of the two sample
    /// sets restricted to the stride grid, plus the later of the two
    /// final intervals; each shard contributes its cumulative snapshot
    /// in effect at the sampled interval (a shard whose trace ended
    /// early holds its final totals, exactly as its frozen counters do
    /// in the sequential run).  Like [`RunMetrics::merge`] the operation
    /// is associative and commutative, so the merged trajectory is
    /// bit-identical to the sequential recording for every worker count
    /// and merge order.
    ///
    /// # Panics
    ///
    /// Panics if the strides differ (the series are not shards of one
    /// recorded run).
    #[must_use]
    // Rule D8: a float fold here would make the merged bits depend on
    // merge order.
    #[deny(clippy::float_arithmetic)]
    pub fn merge(self, other: TimeSeries) -> TimeSeries {
        assert_eq!(
            self.stride, other.stride,
            "cannot merge time series with different sampling strides"
        );
        let stride = self.stride;
        let end = match (self.points.last(), other.points.last()) {
            (Some(a), Some(b)) => a.interval.max(b.interval),
            (Some(a), None) => a.interval,
            (None, Some(b)) => b.interval,
            (None, None) => return TimeSeries::new(stride),
        };
        let mut intervals: Vec<u64> = self
            .points
            .iter()
            .chain(&other.points)
            .map(|p| p.interval)
            .filter(|&i| i == end || (i + 1) % stride == 0)
            .collect();
        intervals.sort_unstable();
        intervals.dedup();
        let points = intervals
            .into_iter()
            .map(|interval| {
                let zero = TimePoint {
                    interval,
                    activations: 0,
                    mitigation_activations: 0,
                    triggers: 0,
                    false_positives: 0,
                    max_disturbance: 0,
                };
                let a = self.value_at(interval).copied().unwrap_or(zero);
                let b = other.value_at(interval).copied().unwrap_or(zero);
                TimePoint {
                    interval,
                    activations: a.activations + b.activations,
                    mitigation_activations: a.mitigation_activations + b.mitigation_activations,
                    triggers: a.triggers + b.triggers,
                    false_positives: a.false_positives + b.false_positives,
                    max_disturbance: a.max_disturbance.max(b.max_disturbance),
                }
            })
            .collect();
        TimeSeries { stride, points }
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Technique name.
    pub technique: String,
    /// Workload activations driven through the device.
    pub workload_activations: u64,
    /// Workload activations carrying the trace's ground-truth
    /// `aggressor` label — the attacker's spent budget.
    pub aggressor_activations: u64,
    /// Extra activations issued by the mitigation (`act_n` counts the
    /// neighbors it touches).
    pub mitigation_activations: u64,
    /// Mitigation trigger *events* (one `act_n`/`RefreshRow` = one event).
    pub trigger_events: u64,
    /// Trigger events attributable to benign rows (ground-truth false
    /// positives).
    pub false_positive_events: u64,
    /// Bit flips — successful row-hammer attacks.
    pub flips: usize,
    /// Highest disturbance counter reached anywhere (attack margin).
    pub max_disturbance: u32,
    /// The flip threshold in effect.
    pub flip_threshold: u32,
    /// Workload activation count at the first trigger event, if any.
    pub first_trigger_act: Option<u64>,
    /// Bank-local activation count at the first bit flip, if any: the
    /// number of activations delivered to the flipping bank up to and
    /// including the one that crossed the threshold.  Uses the same
    /// bank-local accounting as `first_trigger_act`, so it is invariant
    /// under bank sharding; for a pure single-bank attack trace this is
    /// exactly the attacker budget spent to the first flip.
    pub time_to_first_flip: Option<u64>,
    /// Every attributed flip in canonical `(interval, bank, row)` order
    /// — the profiling attacker's sensor.  A row flips at most once per
    /// run, so the log is bounded by the device's row count.
    pub flip_log: Vec<FlipRecord>,
    /// Storage the technique needs per bank, bytes.
    pub storage_bytes_per_bank: f64,
    /// Refresh intervals simulated.
    pub intervals: u64,
    /// Per-interval trajectory, present when a
    /// [`crate::observe::TimeSeriesRecorder`] was attached to the run.
    pub timeseries: Option<TimeSeries>,
    /// Cycle-level accounting, present when the run used the `cycle`
    /// backend tier ([`dram_sim::CycleBackend`]).
    pub cycle: Option<CycleStats>,
}

impl RunMetrics {
    /// Activation overhead in percent — Fig. 4's y-axis and Table III's
    /// "Activations Overhead" column.
    pub fn overhead_percent(&self) -> f64 {
        if self.workload_activations == 0 {
            0.0
        } else {
            100.0 * self.mitigation_activations as f64 / self.workload_activations as f64
        }
    }

    /// False-positive rate in percent, as defined by the paper's
    /// Table III: ground-truth false-positive trigger events per
    /// *workload activation*.
    ///
    /// This is deliberately **not** the share of triggers that are
    /// false (see [`RunMetrics::false_positive_share_percent`] for
    /// that): Table III's FPR column is bounded by its activation
    /// overhead column on every row — ProHit 0.34 % < 0.6 %, PARA
    /// 0.062 % < 0.1 % — which only holds for a per-activation rate,
    /// since each trigger costs at least one extra activation.
    pub fn fpr_percent(&self) -> f64 {
        if self.workload_activations == 0 {
            0.0
        } else {
            100.0 * self.false_positive_events as f64 / self.workload_activations as f64
        }
    }

    /// The share of trigger events that are ground-truth false
    /// positives, in percent (0 when the run never triggered).
    ///
    /// A *precision-style* diagnostic complementing the paper's
    /// per-activation [`RunMetrics::fpr_percent`]: it answers "when the
    /// mitigation acts, how often is it wrong?" and is the quantity to
    /// watch on time-series trajectories, where the activation
    /// denominator grows without bound.
    pub fn false_positive_share_percent(&self) -> f64 {
        if self.trigger_events == 0 {
            0.0
        } else {
            100.0 * self.false_positive_events as f64 / self.trigger_events as f64
        }
    }

    /// How close the worst attack came to flipping a bit, as a fraction
    /// of the threshold (1.0 = a flip happened).
    pub fn attack_margin(&self) -> f64 {
        f64::from(self.max_disturbance) / f64::from(self.flip_threshold)
    }

    /// Evasion rate in percent: the share of the attacker's activation
    /// budget that drew no true-positive response from the mitigation,
    /// `100 · (1 − true_positive_triggers / aggressor_activations)`,
    /// clamped at 0 (a mitigation may fire several justified triggers
    /// per aggressor activation).  0 when the trace had no aggressors.
    ///
    /// High evasion with flips is a defeated defense; high evasion
    /// without flips just means the attack stayed under the radar *and*
    /// under the threshold.
    pub fn evasion_percent(&self) -> f64 {
        if self.aggressor_activations == 0 {
            return 0.0;
        }
        let true_positives = self.trigger_events - self.false_positive_events;
        (100.0 * (1.0 - true_positives as f64 / self.aggressor_activations as f64)).max(0.0)
    }

    /// Bit flips per million attacker activations (0 when the trace had
    /// no aggressors) — the red-team search's efficiency metric.
    pub fn flips_per_mega_act(&self) -> f64 {
        if self.aggressor_activations == 0 {
            0.0
        } else {
            1e6 * self.flips as f64 / self.aggressor_activations as f64
        }
    }

    /// Cycles spent on mitigation-issued commands (0 unless the run
    /// used the `cycle` backend tier).
    pub fn mitigation_cycles(&self) -> u64 {
        self.cycle.map_or(0, |c| c.mitigation_cycles)
    }

    /// Share of workload activations served from the open row, in
    /// `[0, 1]` (0 unless the run used the `cycle` backend tier).
    pub fn row_buffer_hit_rate(&self) -> f64 {
        self.cycle.map_or(0.0, |c| c.row_buffer_hit_rate())
    }

    /// Mitigation cycles in percent of workload cycles — the measured
    /// bandwidth cost of the defense, as opposed to the activation-count
    /// proxy [`RunMetrics::overhead_percent`] (0 unless the run used the
    /// `cycle` backend tier).
    pub fn bandwidth_overhead_percent(&self) -> f64 {
        self.cycle.map_or(0.0, |c| c.bandwidth_overhead_percent())
    }

    /// Combines the metrics of two disjoint shards of one run (the
    /// per-bank shards of [`crate::engine::run_sharded`]).
    ///
    /// Counters sum; `max_disturbance` and `intervals` take the maximum;
    /// `first_trigger_act` and `time_to_first_flip` take the earliest
    /// (bank-local) occurrence present; the `flip_log`s concatenate and
    /// re-sort into canonical `(interval, bank, row)` order (unique per
    /// run, so any merge grouping yields the same bytes); the
    /// optional `timeseries` sections combine point-wise with
    /// [`TimeSeries::merge`].  The run-level fields (`technique`,
    /// `flip_threshold`, `storage_bytes_per_bank`) are identical across
    /// shards and are kept from `self`.
    ///
    /// The operation is associative, and commutative whenever the kept
    /// fields agree — so a parallel reduction merges shards in any
    /// grouping with identical results.
    #[must_use]
    // Rule D8: a float fold here would make the merged bits depend on
    // merge order.
    #[deny(clippy::float_arithmetic)]
    pub fn merge(self, other: RunMetrics) -> RunMetrics {
        RunMetrics {
            technique: self.technique,
            workload_activations: self.workload_activations + other.workload_activations,
            aggressor_activations: self.aggressor_activations + other.aggressor_activations,
            mitigation_activations: self.mitigation_activations + other.mitigation_activations,
            trigger_events: self.trigger_events + other.trigger_events,
            false_positive_events: self.false_positive_events + other.false_positive_events,
            flips: self.flips + other.flips,
            max_disturbance: self.max_disturbance.max(other.max_disturbance),
            flip_threshold: self.flip_threshold,
            first_trigger_act: match (self.first_trigger_act, other.first_trigger_act) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            time_to_first_flip: match (self.time_to_first_flip, other.time_to_first_flip) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            flip_log: {
                let mut log = self.flip_log;
                log.extend(other.flip_log);
                sort_flip_log(&mut log);
                log
            },
            storage_bytes_per_bank: self.storage_bytes_per_bank,
            intervals: self.intervals.max(other.intervals),
            timeseries: match (self.timeseries, other.timeseries) {
                (Some(a), Some(b)) => Some(a.merge(b)),
                (a, b) => a.or(b),
            },
            cycle: match (self.cycle, other.cycle) {
                (Some(a), Some(b)) => Some(a.merge(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Combines the metrics of two *different devices* of a fleet
    /// population — the second level of the metrics merge tree, above
    /// the per-run shard [`RunMetrics::merge`].
    ///
    /// Unlike shard merging, the devices may be heterogeneous: their
    /// techniques, flip thresholds and storage figures can all differ.
    /// Counters still sum and extrema still combine, but the kept
    /// fields are resolved symmetrically instead of taken from `self`:
    /// `flip_threshold` takes the **minimum** (the population's weakest
    /// device bounds its security), `storage_bytes_per_bank` the
    /// maximum (provisioning is worst-case), and the `technique` label
    /// is kept only when both sides agree (mixed populations get the
    /// empty string — callers label cohorts themselves).  Per-device
    /// `timeseries` sections are dropped: their strides need not agree
    /// across devices, and population trajectories are the quantile
    /// sketches' job.  The per-device `flip_log` is dropped too — its
    /// `(interval, bank, row)` keys collide across devices, so no
    /// canonical population order exists (and the aggregate `flips`
    /// counter already carries the population total).
    ///
    /// The operation is associative **and** commutative for arbitrary
    /// operands — no agreement precondition — so a fleet can fold
    /// device results in any grouping.  `first_trigger_act` and
    /// `time_to_first_flip` become population minima: the earliest
    /// (bank-local) occurrence on any device.
    #[must_use]
    // Rule D8: a float fold here would make the merged bits depend on
    // merge order.
    #[deny(clippy::float_arithmetic)]
    pub fn merge_population(self, other: RunMetrics) -> RunMetrics {
        let technique = if self.technique == other.technique {
            self.technique.clone()
        } else {
            String::new()
        };
        let flip_threshold = self.flip_threshold.min(other.flip_threshold);
        let storage = self
            .storage_bytes_per_bank
            .max(other.storage_bytes_per_bank);
        let mut merged = self.merge(other);
        merged.technique = technique;
        merged.flip_threshold = flip_threshold;
        merged.storage_bytes_per_bank = storage;
        merged.timeseries = None;
        merged.flip_log = Vec::new();
        merged
    }

    /// Returns a copy without the optional observability sections, for
    /// comparing the core counters of runs recorded with different
    /// observers attached.
    #[must_use]
    pub fn without_timeseries(mut self) -> RunMetrics {
        self.timeseries = None;
        self
    }
}

/// Mean and (sample) standard deviation over seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Sample count.
    pub n: usize,
}

impl MeanStd {
    /// Computes mean ± std of `values`.
    ///
    /// ```
    /// use rh_harness::MeanStd;
    /// let s = MeanStd::of(&[1.0, 2.0, 3.0]);
    /// assert!((s.mean - 2.0).abs() < 1e-12);
    /// assert!((s.std - 1.0).abs() < 1e-12);
    /// ```
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return MeanStd {
                mean: 0.0,
                std: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        MeanStd { mean, std, n }
    }
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.std)
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
    fn derived_rates() {
        let m = metrics();
        assert!((m.overhead_percent() - 2.0).abs() < 1e-12);
        assert!((m.fpr_percent() - 0.4).abs() < 1e-12);
        assert!((m.attack_margin() - 0.5).abs() < 1e-12);
        // 6 true positives over 300 aggressor acts -> 98% evasion.
        assert!((m.evasion_percent() - 98.0).abs() < 1e-12);
        assert_eq!(m.flips_per_mega_act(), 0.0);
        let mut flipped = metrics();
        flipped.flips = 3;
        assert!((flipped.flips_per_mega_act() - 1e4).abs() < 1e-9);
        let mut benign = metrics();
        benign.aggressor_activations = 0;
        assert_eq!(benign.evasion_percent(), 0.0);
        // More true positives than aggressor acts clamps at 0.
        let mut swamped = metrics();
        swamped.aggressor_activations = 2;
        assert_eq!(swamped.evasion_percent(), 0.0);
    }

    /// Pins the FPR definition to the paper's Table III: false-positive
    /// triggers per workload activation — NOT per trigger event, which
    /// is the separate `false_positive_share_percent`.
    #[test]
    fn fpr_is_per_workload_activation_not_per_trigger() {
        let m = metrics(); // 4 FPs, 10 triggers, 1000 activations
        assert!((m.fpr_percent() - 100.0 * 4.0 / 1000.0).abs() < 1e-12);
        assert!((m.false_positive_share_percent() - 100.0 * 4.0 / 10.0).abs() < 1e-12);
        // Consistent with Table III: FPR never exceeds the activation
        // overhead it is printed next to (each trigger costs >= 1 act).
        let mut t3 = metrics();
        t3.mitigation_activations = t3.trigger_events; // 1 act per trigger
        assert!(t3.fpr_percent() <= t3.overhead_percent());
    }

    #[test]
    fn zero_activations_do_not_divide_by_zero() {
        let mut m = metrics();
        m.workload_activations = 0;
        m.trigger_events = 0;
        assert_eq!(m.overhead_percent(), 0.0);
        assert_eq!(m.fpr_percent(), 0.0);
        assert_eq!(m.false_positive_share_percent(), 0.0);
    }

    #[test]
    fn mean_std_edge_cases() {
        let empty = MeanStd::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let single = MeanStd::of(&[5.0]);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.mean, 5.0);
    }

    #[test]
    fn mean_std_display_is_nonempty() {
        assert!(MeanStd::of(&[1.0, 2.0]).to_string().contains('±'));
    }

    #[test]
    fn merge_sums_counters_and_takes_extrema() {
        let mut a = metrics();
        a.time_to_first_flip = Some(900);
        let mut b = metrics();
        b.workload_activations = 500;
        b.aggressor_activations = 100;
        b.trigger_events = 3;
        b.false_positive_events = 1;
        b.flips = 2;
        b.max_disturbance = 80;
        b.first_trigger_act = Some(7);
        b.time_to_first_flip = Some(650);
        b.intervals = 20;
        let m = a.merge(b);
        assert_eq!(m.workload_activations, 1500);
        assert_eq!(m.aggressor_activations, 400);
        assert_eq!(m.trigger_events, 13);
        assert_eq!(m.false_positive_events, 5);
        assert_eq!(m.flips, 2);
        assert_eq!(m.max_disturbance, 80);
        assert_eq!(m.first_trigger_act, Some(7));
        assert_eq!(m.time_to_first_flip, Some(650));
        assert_eq!(m.intervals, 20);
        assert_eq!(m.technique, "X");
        assert_eq!(m.flip_threshold, 100);
    }

    #[test]
    fn merge_first_flip_handles_missing_sides() {
        let mut a = metrics();
        a.time_to_first_flip = Some(11);
        let b = metrics(); // None
        assert_eq!(a.clone().merge(b.clone()).time_to_first_flip, Some(11));
        assert_eq!(b.clone().merge(a).time_to_first_flip, Some(11));
        assert_eq!(b.clone().merge(b).time_to_first_flip, None);
    }

    #[test]
    fn merge_first_trigger_handles_missing_sides() {
        let mut a = metrics();
        a.first_trigger_act = None;
        let b = metrics();
        assert_eq!(a.clone().merge(b.clone()).first_trigger_act, Some(42));
        assert_eq!(b.merge(a.clone()).first_trigger_act, Some(42));
        let mut c = metrics();
        c.first_trigger_act = None;
        assert_eq!(a.merge(c).first_trigger_act, None);
    }

    #[test]
    fn merge_population_resolves_heterogeneous_kept_fields() {
        let mut a = metrics();
        a.technique = "PARA".into();
        a.flip_threshold = 90;
        a.storage_bytes_per_bank = 64.0;
        let mut b = metrics();
        b.technique = "TWiCe".into();
        b.flip_threshold = 140;
        b.storage_bytes_per_bank = 512.0;
        let m = a.clone().merge_population(b.clone());
        // Mixed techniques blank the label; weakest threshold and
        // largest storage footprint win.
        assert_eq!(m.technique, "");
        assert_eq!(m.flip_threshold, 90);
        assert_eq!(m.storage_bytes_per_bank, 512.0);
        // Counters still sum, like the shard merge.
        assert_eq!(m.workload_activations, 2000);
        // Homogeneous devices keep their shared label.
        let same = a.clone().merge_population(a.clone());
        assert_eq!(same.technique, "PARA");
    }

    #[test]
    fn merge_population_is_commutative_and_associative_across_devices() {
        let mut a = metrics();
        a.technique = "PARA".into();
        a.flip_threshold = 90;
        let mut b = metrics();
        b.technique = "TWiCe".into();
        b.storage_bytes_per_bank = 512.0;
        b.time_to_first_flip = Some(700);
        let mut c = metrics();
        c.technique = "PARA".into();
        c.flip_threshold = 75;
        c.first_trigger_act = Some(5);
        assert_eq!(
            a.clone().merge_population(b.clone()),
            b.clone().merge_population(a.clone())
        );
        assert_eq!(
            a.clone()
                .merge_population(b.clone())
                .merge_population(c.clone()),
            a.merge_population(b.merge_population(c))
        );
    }

    fn flip(bank: u32, row: u32, interval: u64, bank_act: u64) -> FlipRecord {
        FlipRecord {
            bank: BankId(bank),
            row: RowAddr(row),
            interval,
            bank_act,
        }
    }

    #[test]
    fn merge_concatenates_flip_logs_in_canonical_order() {
        let mut a = metrics();
        a.flip_log = vec![flip(0, 10, 2, 300), flip(0, 12, 5, 800)];
        let mut b = metrics();
        b.flip_log = vec![flip(1, 4, 1, 90), flip(1, 7, 2, 310)];
        let left = a.clone().merge(b.clone()).flip_log;
        let right = b.clone().merge(a.clone()).flip_log;
        assert_eq!(left, right, "merge order must not change the log");
        let keys: Vec<(u64, u32, u32)> = left
            .iter()
            .map(|f| (f.interval, f.bank.0, f.row.0))
            .collect();
        assert_eq!(keys, vec![(1, 1, 4), (2, 0, 10), (2, 1, 7), (5, 0, 12)]);
    }

    #[test]
    fn merge_population_drops_flip_log() {
        let mut a = metrics();
        a.flip_log = vec![flip(0, 10, 2, 300)];
        let m = a.clone().merge_population(a);
        assert!(m.flip_log.is_empty());
        assert_eq!(m.flips, 0); // the counter, not the log, carries totals
    }

    #[test]
    fn merge_population_drops_timeseries() {
        let mut a = metrics();
        a.timeseries = Some(TimeSeries {
            stride: 4,
            points: vec![point(3, 100, 10)],
        });
        let m = a.clone().merge_population(a);
        assert_eq!(m.timeseries, None);
    }

    fn point(interval: u64, acts: u64, dist: u32) -> TimePoint {
        TimePoint {
            interval,
            activations: acts,
            mitigation_activations: acts / 10,
            triggers: acts / 100,
            false_positives: acts / 200,
            max_disturbance: dist,
        }
    }

    #[test]
    fn timeseries_merge_sums_on_the_shared_grid() {
        // Stride 4: grid points at 3, 7, …; both shards run 8 intervals.
        let a = TimeSeries {
            stride: 4,
            points: vec![point(3, 100, 10), point(7, 200, 20)],
        };
        let b = TimeSeries {
            stride: 4,
            points: vec![point(3, 50, 30), point(7, 80, 5)],
        };
        let m = a.merge(b);
        assert_eq!(m.points.len(), 2);
        assert_eq!(m.points[0].activations, 150);
        assert_eq!(m.points[0].max_disturbance, 30);
        assert_eq!(m.points[1].activations, 280);
        assert_eq!(m.points[1].max_disturbance, 20);
    }

    #[test]
    fn timeseries_merge_extends_short_shards_with_final_totals() {
        // Shard `a` ended at interval 5 (off-grid final point); shard
        // `b` ran through interval 11.  The merged series must keep the
        // grid of the longer shard and hold `a`'s frozen totals — and
        // drop `a`'s off-grid final point, which the sequential run
        // never samples.
        let a = TimeSeries {
            stride: 4,
            points: vec![point(3, 100, 10), point(5, 120, 12)],
        };
        let b = TimeSeries {
            stride: 4,
            points: vec![point(3, 40, 4), point(7, 70, 7), point(11, 110, 11)],
        };
        let m = a.clone().merge(b.clone());
        let intervals: Vec<u64> = m.points.iter().map(|p| p.interval).collect();
        assert_eq!(intervals, vec![3, 7, 11]);
        assert_eq!(m.points[1].activations, 120 + 70);
        assert_eq!(m.points[2].activations, 120 + 110);
        assert_eq!(m.points[2].max_disturbance, 12);
        // Commutative.
        assert_eq!(b.merge(a), m);
    }

    #[test]
    fn timeseries_merge_is_associative_across_unequal_lengths() {
        let a = TimeSeries {
            stride: 4,
            points: vec![point(1, 10, 1)], // ended before the first grid point
        };
        let b = TimeSeries {
            stride: 4,
            points: vec![point(3, 30, 3), point(6, 60, 6)],
        };
        let c = TimeSeries {
            stride: 4,
            points: vec![point(3, 7, 9), point(7, 14, 2), point(9, 21, 4)],
        };
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        assert_eq!(left, right);
        // The global final interval survives; earlier off-grid finals do not.
        let intervals: Vec<u64> = left.points.iter().map(|p| p.interval).collect();
        assert_eq!(intervals, vec![3, 7, 9]);
        assert_eq!(left.points[2].activations, 10 + 60 + 21);
    }

    #[test]
    fn timeseries_merge_handles_empty_series() {
        let empty = TimeSeries::new(4);
        let a = TimeSeries {
            stride: 4,
            points: vec![point(3, 30, 3)],
        };
        assert_eq!(empty.clone().merge(a.clone()), a);
        assert_eq!(a.clone().merge(empty.clone()), a);
        assert_eq!(empty.clone().merge(empty.clone()), empty);
    }

    #[test]
    fn metrics_merge_combines_timeseries_sections() {
        let mut a = metrics();
        let mut b = metrics();
        a.timeseries = Some(TimeSeries {
            stride: 2,
            points: vec![point(1, 5, 1)],
        });
        b.timeseries = None;
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.timeseries, a.timeseries);
        b.timeseries = Some(TimeSeries {
            stride: 2,
            points: vec![point(1, 7, 3)],
        });
        let merged = a.clone().merge(b).timeseries.unwrap();
        assert_eq!(merged.points[0].activations, 12);
        assert_eq!(a.without_timeseries().timeseries, None);
    }
}
