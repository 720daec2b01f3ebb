//! Trace events and the interval-batched trace source abstraction.

use crate::batch::EventBatch;
use dram_sim::{BankId, RowAddr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One row activation in the trace.
///
/// `aggressor` is ground-truth labelling from the generator: the access
/// belongs to attacker code.  Mitigations never see this flag — it is
/// used only by the metrics layer to separate true from false positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Bank being activated.
    pub bank: BankId,
    /// Row being activated.
    pub row: RowAddr,
    /// Whether this access was issued by attacker code.
    pub aggressor: bool,
}

impl TraceEvent {
    /// A benign workload access.
    pub fn benign(bank: BankId, row: RowAddr) -> Self {
        TraceEvent {
            bank,
            row,
            aggressor: false,
        }
    }

    /// An attacker access.
    pub fn attack(bank: BankId, row: RowAddr) -> Self {
        TraceEvent {
            bank,
            row,
            aggressor: true,
        }
    }
}

/// Why a trace source cannot be split into per-bank sub-streams.
///
/// Sharding by bank is only sound when banks are *independent* in the
/// generator: each bank's sub-stream must be a pure function of the
/// configuration and the bank id.  Sources whose banks share mutable
/// state (one RNG, one cache hierarchy, a feedback loop) cannot honour
/// that contract, and must say so through this typed error instead of a
/// doc-only caveat, so the harness and the fleet layer can refuse a
/// sharded run loudly rather than produce schedule-dependent results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// The source type that refused to shard, e.g. `"CpuWorkload"`.
    pub source: String,
    /// Why per-bank sub-streams would be unsound for this source.
    pub reason: String,
}

impl ShardError {
    /// A new error naming the refusing source and the coupling that
    /// makes per-bank sharding unsound for it.
    pub fn new(source: impl Into<String>, reason: impl Into<String>) -> Self {
        ShardError {
            source: source.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cannot be sharded by bank: {}",
            self.source, self.reason
        )
    }
}

impl std::error::Error for ShardError {}

/// A source of activations, delivered one refresh interval at a time.
///
/// The driving harness alternates `next_interval` (activations) with the
/// device's refresh command, mirroring how the memory controller
/// interleaves traffic with auto-refresh.
pub trait TraceSource {
    /// Appends this interval's activations to `out`, in issue order.
    ///
    /// Returns `false` when the trace is exhausted (nothing appended).
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool;

    /// A hint of the number of intervals this source will produce, if
    /// bounded.
    fn intervals_hint(&self) -> Option<u64> {
        None
    }

    /// Whether this source may be split into per-bank sub-streams.
    ///
    /// Returns `Ok(())` for sources whose banks are independent (the
    /// default — it covers every [`TraceSplit`] implementor and every
    /// single-bank source, where the question never arises).  Sources
    /// whose banks share mutable state override this to return a
    /// [`ShardError`] naming the coupling, so callers that want to
    /// shard — [`crate::TraceSplit`] users, the harness engine, the
    /// fleet layer — can fail with a typed error *before* running
    /// instead of silently producing schedule-dependent results.
    fn shard_support(&self) -> Result<(), ShardError> {
        Ok(())
    }

    /// The most intervals this source may deliver in one batch.
    ///
    /// Sources that *react* to what the consumer did with earlier
    /// intervals (closed-loop attackers reading a feedback board) must
    /// return `1`: prefetching interval `n+1` before the mitigation has
    /// processed interval `n` would decouple the loop.  Open-loop
    /// generators keep the default unbounded value.  Composite sources
    /// take the minimum over their parts.
    fn max_batch_intervals(&self) -> u64 {
        u64::MAX
    }

    /// Fills `batch` (cleared first) with up to `max_intervals` whole
    /// refresh intervals of activations, stopping early once the
    /// batch's soft event capacity is reached.  Returns `false` when
    /// the trace is exhausted (no interval delivered).
    ///
    /// The default implementation is a one-interval-at-a-time shim over
    /// [`TraceSource::next_interval`], so every existing source —
    /// including externally-driven ones like `CpuWorkload` — batches
    /// without changes.  The number of intervals per fill is bounded by
    /// `max_intervals`, by [`TraceSource::max_batch_intervals`], and by
    /// the batch's event target (so sparse traces cannot grow the
    /// boundary list without bound).
    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        batch.clear();
        let cap = max_intervals
            .min(self.max_batch_intervals())
            .min(batch.target_events() as u64);
        let mut delivered = 0u64;
        let mut scratch = batch.take_scratch();
        while delivered < cap && !batch.is_full() {
            scratch.clear();
            if !self.next_interval(&mut scratch) {
                break;
            }
            batch.push_interval(&scratch);
            delivered += 1;
        }
        batch.restore_scratch(scratch);
        delivered > 0
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        (**self).next_interval(out)
    }

    fn intervals_hint(&self) -> Option<u64> {
        (**self).intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        (**self).shard_support()
    }

    fn max_batch_intervals(&self) -> u64 {
        (**self).max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        (**self).next_batch(batch, max_intervals)
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        (**self).next_interval(out)
    }

    fn intervals_hint(&self) -> Option<u64> {
        (**self).intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        (**self).shard_support()
    }

    fn max_batch_intervals(&self) -> u64 {
        (**self).max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        (**self).next_batch(batch, max_intervals)
    }
}

/// A trace source that can be split into deterministic per-bank
/// sub-streams.
///
/// DRAM banks are independent: no disturbance couples them, and every
/// mitigation keeps per-bank state, so a run can be *sharded by bank* —
/// each bank's sub-stream driven through its own mitigation instance and
/// device view — and merged afterwards with bit-identical results.  The
/// contract that makes this sound:
///
/// * `bank_shard(b)` must be called on a **fresh** (not yet consumed)
///   source, and returns a fresh source producing exactly the events the
///   parent would emit for bank `b`, in the parent's per-bank order;
/// * the shard ticks the **same number of intervals** as the parent
///   (banks with no traffic still tick — see [`IdleTrace`]);
/// * the shard is a pure function of the parent's configuration and
///   `b` — independent of worker count or scheduling.  Generators with
///   randomness derive per-bank sub-streams via
///   [`dram_sim::bank_seed`].
///
/// Shards implement `TraceSplit` themselves so composite sources (for
/// example [`crate::MixedTrace`]) can shard their parts recursively.
pub trait TraceSplit: TraceSource + Send {
    /// This source's bank-`bank` sub-stream, from the beginning.
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit>;
}

impl<S: TraceSplit + ?Sized> TraceSplit for Box<S> {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        (**self).bank_shard(bank)
    }
}

/// A source that produces no events but ticks a fixed number of
/// intervals — the bank shard of a source that never touches that bank.
/// Keeping idle banks ticking preserves interval alignment, so every
/// shard of a run simulates the same number of refresh intervals.
#[derive(Debug, Clone)]
pub struct IdleTrace {
    remaining: u64,
    total: u64,
}

impl IdleTrace {
    /// An idle source ticking `intervals` times.
    pub fn new(intervals: u64) -> Self {
        IdleTrace {
            remaining: intervals,
            total: intervals,
        }
    }
}

impl TraceSource for IdleTrace {
    fn next_interval(&mut self, _out: &mut Vec<TraceEvent>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.total)
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // Idle bank shards are the common case of a sharded run: ticks
        // only, no events, no scratch round-trip.
        batch.clear();
        let n = self
            .remaining
            .min(max_intervals)
            .min(batch.target_events() as u64);
        if n == 0 {
            return false;
        }
        self.remaining -= n;
        batch.push_empty_intervals(n);
        true
    }
}

impl TraceSplit for IdleTrace {
    fn bank_shard(&self, _bank: BankId) -> Box<dyn TraceSplit> {
        Box::new(IdleTrace::new(self.total))
    }
}

/// A pre-recorded trace replayed interval by interval.
///
/// A `ReplayTrace` is a cursor over one immutable recording that every
/// clone and bank shard shares, so `clone()` bumps a reference count
/// instead of copying events.  The first [`TraceSplit::bank_shard`] on
/// any of them splits the recording into per-bank lanes, once, in time
/// linear in its events; every later shard, of any clone or shard,
/// reuses those lanes.  A shard always replays its lane from interval 0,
/// however far the cursor it was taken from has advanced.
///
/// ```
/// use mem_trace::{ReplayTrace, TraceEvent, TraceSource};
/// use dram_sim::{BankId, RowAddr};
///
/// let intervals = vec![
///     vec![TraceEvent::benign(BankId(0), RowAddr(1))],
///     vec![],
/// ];
/// let mut replay = ReplayTrace::new(intervals);
/// let mut out = Vec::new();
/// assert!(replay.next_interval(&mut out));
/// assert_eq!(out.len(), 1);
/// out.clear();
/// assert!(replay.next_interval(&mut out)); // empty interval still ticks
/// assert!(!replay.next_interval(&mut out)); // exhausted
/// ```
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    recording: Arc<Recording>,
    /// Index of the next interval to deliver.
    next: usize,
}

/// The events behind a [`ReplayTrace`], its clones and its shards.
#[derive(Debug)]
enum Recording {
    /// As recorded, one `Vec` per interval; the per-bank lanes are split
    /// off on the first shard.
    Whole {
        intervals: Vec<Vec<TraceEvent>>,
        lanes: OnceLock<Vec<(BankId, Arc<Recording>)>>,
    },
    /// One bank's events.
    Lane(Lane),
}

/// One bank's events as a row column and an aggressor column; interval
/// `i` ends at `ends[i]`.
#[derive(Debug)]
struct Lane {
    bank: BankId,
    rows: Vec<RowAddr>,
    aggressors: Vec<bool>,
    ends: Vec<usize>,
}

/// One recorded interval, as its recording stores it.
enum Interval<'a> {
    Events(&'a [TraceEvent]),
    Lane {
        bank: BankId,
        rows: &'a [RowAddr],
        aggressors: &'a [bool],
    },
}

impl Recording {
    fn len(&self) -> usize {
        match self {
            Recording::Whole { intervals, .. } => intervals.len(),
            Recording::Lane(lane) => lane.ends.len(),
        }
    }

    fn interval(&self, index: usize) -> Option<Interval<'_>> {
        match self {
            Recording::Whole { intervals, .. } => {
                intervals.get(index).map(|events| Interval::Events(events))
            }
            Recording::Lane(lane) => {
                let end = *lane.ends.get(index)?;
                let start = index
                    .checked_sub(1)
                    .map_or(0, |previous| lane.ends[previous]);
                Some(Interval::Lane {
                    bank: lane.bank,
                    rows: &lane.rows[start..end],
                    aggressors: &lane.aggressors[start..end],
                })
            }
        }
    }
}

/// Partitions `intervals` into per-bank lanes, in bank order, one
/// same-bank run at a time.  Lanes are keyed by bank, never indexed by
/// a bank id: a recording read from outside may name any id.  Every
/// lane keeps every interval, empty where its bank is silent, so shards
/// tick in step with the parent.
fn split(intervals: &[Vec<TraceEvent>]) -> Vec<(BankId, Arc<Recording>)> {
    let runs = || {
        intervals.iter().enumerate().flat_map(|(index, events)| {
            events
                .chunk_by(|a, b| a.bank == b.bank)
                .map(move |run| (index, run))
        })
    };
    // Sizing each lane before filling it allocates its columns once,
    // without the copies and slack of a growing `Vec`.
    let mut sizes: BTreeMap<BankId, usize> = BTreeMap::new();
    for (_, run) in runs() {
        *sizes.entry(run[0].bank).or_default() += run.len();
    }
    let mut lanes: BTreeMap<BankId, Lane> = sizes
        .into_iter()
        .map(|(bank, size)| {
            let lane = Lane {
                bank,
                rows: Vec::with_capacity(size),
                aggressors: Vec::with_capacity(size),
                ends: Vec::with_capacity(intervals.len()),
            };
            (bank, lane)
        })
        .collect();
    for (index, run) in runs() {
        let lane = lanes.get_mut(&run[0].bank).expect("every bank was sized");
        // Close the intervals this lane was silent in.
        lane.ends.resize(index, lane.rows.len());
        lane.rows.extend(run.iter().map(|e| e.row));
        lane.aggressors.extend(run.iter().map(|e| e.aggressor));
    }
    lanes
        .into_iter()
        .map(|(bank, mut lane)| {
            lane.ends.resize(intervals.len(), lane.rows.len());
            (bank, Arc::new(Recording::Lane(lane)))
        })
        .collect()
}

impl ReplayTrace {
    /// Wraps a list of per-interval event batches.
    pub fn new<I>(intervals: I) -> Self
    where
        I: IntoIterator<Item = Vec<TraceEvent>>,
    {
        ReplayTrace {
            recording: Arc::new(Recording::Whole {
                intervals: intervals.into_iter().collect(),
                lanes: OnceLock::new(),
            }),
            next: 0,
        }
    }

    /// The next recorded interval, advancing the cursor past it.
    fn advance(&mut self) -> Option<Interval<'_>> {
        let interval = self.recording.interval(self.next)?;
        self.next += 1;
        Some(interval)
    }
}

impl Default for ReplayTrace {
    fn default() -> Self {
        ReplayTrace::new(Vec::new())
    }
}

impl TraceSource for ReplayTrace {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        match self.advance() {
            Some(Interval::Events(events)) => out.extend_from_slice(events),
            Some(Interval::Lane {
                bank,
                rows,
                aggressors,
            }) => out.extend(
                rows.iter()
                    .zip(aggressors)
                    .map(|(&row, &aggressor)| TraceEvent {
                        bank,
                        row,
                        aggressor,
                    }),
            ),
            None => return false,
        }
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.recording.len() as u64)
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // Recorded intervals go straight into the SoA buffer as column
        // copies, skipping the shim's staging copy.
        batch.clear();
        let cap = max_intervals.min(batch.target_events() as u64);
        let mut delivered = 0u64;
        while delivered < cap && !batch.is_full() {
            match self.advance() {
                Some(Interval::Events(events)) => batch.push_interval(events),
                Some(Interval::Lane {
                    bank,
                    rows,
                    aggressors,
                }) => batch.push_bank_interval(bank, rows, aggressors),
                None => break,
            }
            delivered += 1;
        }
        delivered > 0
    }
}

impl TraceSplit for ReplayTrace {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        let lane = match &*self.recording {
            Recording::Whole { intervals, lanes } => {
                let lanes = lanes.get_or_init(|| split(intervals));
                lanes
                    .binary_search_by_key(&bank, |(b, _)| *b)
                    .ok()
                    .map(|index| Arc::clone(&lanes[index].1))
            }
            Recording::Lane(lane) => (lane.bank == bank).then(|| Arc::clone(&self.recording)),
        };
        match lane {
            Some(recording) => Box::new(ReplayTrace { recording, next: 0 }),
            None => Box::new(IdleTrace::new(self.recording.len() as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_label() {
        assert!(!TraceEvent::benign(BankId(0), RowAddr(1)).aggressor);
        assert!(TraceEvent::attack(BankId(0), RowAddr(1)).aggressor);
    }

    #[test]
    fn idle_trace_ticks_without_events() {
        let mut idle = IdleTrace::new(3);
        assert_eq!(idle.intervals_hint(), Some(3));
        let mut out = Vec::new();
        let mut n = 0;
        while idle.next_interval(&mut out) {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(out.is_empty());
    }

    #[test]
    fn replay_shard_filters_by_bank_and_keeps_interval_count() {
        let trace = ReplayTrace::new(vec![
            vec![
                TraceEvent::benign(BankId(0), RowAddr(1)),
                TraceEvent::attack(BankId(1), RowAddr(2)),
            ],
            vec![TraceEvent::benign(BankId(1), RowAddr(3))],
        ]);
        let mut shard = trace.bank_shard(BankId(1));
        assert_eq!(shard.intervals_hint(), Some(2));
        let mut out = Vec::new();
        assert!(shard.next_interval(&mut out));
        assert_eq!(out, vec![TraceEvent::attack(BankId(1), RowAddr(2))]);
        out.clear();
        assert!(shard.next_interval(&mut out));
        assert_eq!(out, vec![TraceEvent::benign(BankId(1), RowAddr(3))]);
        assert!(!shard.next_interval(&mut out));
    }

    #[test]
    fn clones_and_shards_share_one_recording() {
        let trace = ReplayTrace::new(vec![
            vec![TraceEvent::benign(BankId(2), RowAddr(1))],
            vec![TraceEvent::attack(BankId(0), RowAddr(2))],
        ]);
        let clone = trace.clone();
        assert!(Arc::ptr_eq(&trace.recording, &clone.recording));
        let Recording::Whole { lanes, .. } = &*clone.recording else {
            panic!("a new trace holds the whole recording");
        };
        assert!(lanes.get().is_none());
        let _ = trace.bank_shard(BankId(0));
        // One split serves every clone: the lanes are already there.
        let lanes = lanes.get().expect("lanes built once");
        let banks: Vec<BankId> = lanes.iter().map(|(bank, _)| *bank).collect();
        assert_eq!(banks, vec![BankId(0), BankId(2)]);
        // A bank no event names is an idle shard of the same length.
        let idle = clone.bank_shard(BankId(1));
        assert_eq!(idle.intervals_hint(), Some(2));
    }

    #[test]
    fn default_batch_shim_matches_interval_delivery() {
        let intervals = vec![
            vec![TraceEvent::benign(BankId(0), RowAddr(1))],
            vec![],
            vec![
                TraceEvent::attack(BankId(1), RowAddr(2)),
                TraceEvent::benign(BankId(0), RowAddr(3)),
            ],
        ];
        // Drive the *shim* (not ReplayTrace's override) through a
        // wrapper that only implements next_interval.
        struct Shimmed(ReplayTrace);
        impl TraceSource for Shimmed {
            fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
                self.0.next_interval(out)
            }
        }
        let mut shimmed = Shimmed(ReplayTrace::new(intervals.clone()));
        let mut batch = EventBatch::new();
        assert!(shimmed.next_batch(&mut batch, u64::MAX));
        assert_eq!(batch.intervals(), 3);
        let flattened: Vec<_> = (0..batch.len()).map(|i| batch.event(i)).collect();
        let expected: Vec<_> = intervals.iter().flatten().copied().collect();
        assert_eq!(flattened, expected);
        assert_eq!(batch.segment(1), 1..1);
        assert!(!shimmed.next_batch(&mut batch, u64::MAX));
    }

    #[test]
    fn batch_respects_max_intervals_and_source_cap() {
        struct OnePerBatch(ReplayTrace);
        impl TraceSource for OnePerBatch {
            fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
                self.0.next_interval(out)
            }
            fn max_batch_intervals(&self) -> u64 {
                1
            }
        }
        let intervals = vec![vec![], vec![], vec![]];
        let mut capped = OnePerBatch(ReplayTrace::new(intervals.clone()));
        let mut batch = EventBatch::new();
        let mut fills = 0;
        while capped.next_batch(&mut batch, u64::MAX) {
            assert_eq!(batch.intervals(), 1);
            fills += 1;
        }
        assert_eq!(fills, 3);

        // The caller's limit binds too, on the override path.
        let mut replay = ReplayTrace::new(intervals);
        assert!(replay.next_batch(&mut batch, 2));
        assert_eq!(batch.intervals(), 2);
    }

    #[test]
    fn idle_batch_ticks_in_bulk() {
        let mut idle = IdleTrace::new(5);
        let mut batch = EventBatch::new();
        assert!(idle.next_batch(&mut batch, 3));
        assert_eq!(batch.intervals(), 3);
        assert!(batch.is_empty());
        assert!(idle.next_batch(&mut batch, u64::MAX));
        assert_eq!(batch.intervals(), 2);
        assert!(!idle.next_batch(&mut batch, u64::MAX));
    }

    #[test]
    fn replay_reports_hint_and_exhausts() {
        let mut t = ReplayTrace::new(vec![vec![], vec![]]);
        assert_eq!(t.intervals_hint(), Some(2));
        let mut out = Vec::new();
        assert!(t.next_interval(&mut out));
        assert!(t.next_interval(&mut out));
        assert!(!t.next_interval(&mut out));
        assert!(out.is_empty());
    }
}
