//! Fixed-size event batches: the chunked delivery format of the hot
//! path.
//!
//! [`EventBatch`] is a structure-of-arrays buffer of `(bank, row,
//! aggressor)` activations covering one or more *whole* refresh
//! intervals.  Interval boundaries are marked in-band as a cumulative
//! offset list, so the consumer can walk `segment(i)` ranges and issue
//! the device refresh between them exactly as the one-interval-at-a-time
//! API did.  Batches are filled by [`crate::TraceSource::next_batch`]
//! and target `target_events` activations (default
//! [`DEFAULT_BATCH_EVENTS`]); the target is soft — intervals are never
//! split across batches, so a single heavy interval may overshoot it.
//!
//! Every interval enters as column copies, never event by event:
//! [`EventBatch::push_interval`] copies an interval of [`TraceEvent`]s
//! one column at a time (the default shim, the mix and a whole
//! recording deliver this way), a recorded bank lane appends a bank
//! fill plus its row and aggressor slices, and
//! [`EventBatch::push_empty_intervals`] ticks idle intervals.

use crate::event::TraceEvent;
use dram_sim::{BankId, RowAddr};
use std::ops::Range;

/// Default soft capacity of a batch, in events.
///
/// Large enough to amortise per-batch dispatch over thousands of
/// activations, small enough that a batch of three `Vec`s stays within
/// L2-cache reach (~2 K events ≈ 18 KiB of SoA payload).
pub const DEFAULT_BATCH_EVENTS: usize = 2048;

/// A structure-of-arrays buffer of activations spanning whole refresh
/// intervals, with the interval boundaries marked in-band.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    banks: Vec<BankId>,
    rows: Vec<RowAddr>,
    aggressors: Vec<bool>,
    /// Cumulative event count at the end of each interval.  Two equal
    /// consecutive entries encode an empty interval — the refresh still
    /// ticks, no activations arrive.
    boundaries: Vec<usize>,
    /// Staging area reused by the default one-interval-at-a-time shim,
    /// kept here so repeated `next_batch` calls allocate nothing.
    scratch: Vec<TraceEvent>,
    target_events: usize,
}

impl EventBatch {
    /// An empty batch with the default soft capacity.
    pub fn new() -> Self {
        Self::with_target_events(DEFAULT_BATCH_EVENTS)
    }

    /// An empty batch targeting `target_events` activations per fill
    /// (clamped to at least 1).
    pub fn with_target_events(target_events: usize) -> Self {
        EventBatch {
            banks: Vec::new(),
            rows: Vec::new(),
            aggressors: Vec::new(),
            boundaries: Vec::new(),
            scratch: Vec::new(),
            target_events: target_events.max(1),
        }
    }

    /// The soft per-fill capacity, in events.
    pub fn target_events(&self) -> usize {
        self.target_events.max(1)
    }

    /// Whether the batch has reached its soft capacity.
    pub fn is_full(&self) -> bool {
        self.banks.len() >= self.target_events()
    }

    /// Drops all events and boundaries (capacity is kept).
    pub fn clear(&mut self) {
        self.banks.clear();
        self.rows.clear();
        self.aggressors.clear();
        self.boundaries.clear();
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether the batch holds no events (it may still hold empty
    /// intervals — check [`EventBatch::intervals`]).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Number of whole refresh intervals the batch covers.
    pub fn intervals(&self) -> usize {
        self.boundaries.len()
    }

    /// The event-index range of interval `interval` (within the batch).
    pub fn segment(&self, interval: usize) -> Range<usize> {
        let end = self.boundaries[interval];
        let start = if interval == 0 {
            0
        } else {
            self.boundaries[interval - 1]
        };
        start..end
    }

    /// Bank of event `i`.
    #[inline]
    pub fn bank(&self, i: usize) -> BankId {
        self.banks[i]
    }

    /// Row of event `i`.
    #[inline]
    pub fn row(&self, i: usize) -> RowAddr {
        self.rows[i]
    }

    /// Event `i` reassembled into the array-of-structs form.
    pub fn event(&self, i: usize) -> TraceEvent {
        TraceEvent {
            bank: self.banks[i],
            row: self.rows[i],
            aggressor: self.aggressors[i],
        }
    }

    /// The three event columns as parallel slices `(banks, rows,
    /// aggressors)` — the consumer's zero-bounds-check walk.
    pub fn columns(&self) -> (&[BankId], &[RowAddr], &[bool]) {
        (&self.banks, &self.rows, &self.aggressors)
    }

    /// Run-length-grouped per-bank view of the events at `range`: yields
    /// `(bank, subrange)` pairs where every event in `subrange` hits
    /// `bank`, and the subranges partition `range` in order.
    ///
    /// This is the lane layout the batched decision kernels walk: a
    /// bank-sharded (or single-bank) column is one run, so per-bank
    /// state — the bank's RNG stream, history table, counter lane — is
    /// hoisted once per run instead of being re-resolved per event.
    /// Because runs preserve event order within each bank, any per-bank
    /// stream consumed run-by-run sees exactly the sequence the scalar
    /// one-event-at-a-time walk would produce.
    pub fn bank_runs(&self, range: Range<usize>) -> BankRuns<'_> {
        BankRuns {
            banks: &self.banks,
            cursor: range.start,
            end: range.end,
        }
    }
}

/// Iterator over `(bank, event-index range)` runs of consecutive
/// same-bank events; see [`EventBatch::bank_runs`].
#[derive(Debug)]
pub struct BankRuns<'a> {
    banks: &'a [BankId],
    cursor: usize,
    end: usize,
}

impl Iterator for BankRuns<'_> {
    type Item = (BankId, Range<usize>);

    #[inline]
    fn next(&mut self) -> Option<(BankId, Range<usize>)> {
        if self.cursor >= self.end {
            return None;
        }
        let start = self.cursor;
        let bank = self.banks[start];
        let mut j = start + 1;
        while j < self.end && self.banks[j] == bank {
            j += 1;
        }
        self.cursor = j;
        Some((bank, start..j))
    }
}

impl EventBatch {
    /// Appends one whole interval's events and closes its boundary.
    pub fn push_interval(&mut self, events: &[TraceEvent]) {
        self.banks.extend(events.iter().map(|e| e.bank));
        self.rows.extend(events.iter().map(|e| e.row));
        self.aggressors.extend(events.iter().map(|e| e.aggressor));
        self.boundaries.push(self.banks.len());
    }

    /// Appends one whole interval of `bank`'s events, given as its row
    /// and aggressor columns, and closes its boundary: a bank fill and
    /// two slice copies, the delivery of a recorded bank lane.
    ///
    /// # Panics
    ///
    /// Panics if the two columns differ in length.
    pub(crate) fn push_bank_interval(
        &mut self,
        bank: BankId,
        rows: &[RowAddr],
        aggressors: &[bool],
    ) {
        assert_eq!(rows.len(), aggressors.len(), "one aggressor label per row");
        self.banks.resize(self.banks.len() + rows.len(), bank);
        self.rows.extend_from_slice(rows);
        self.aggressors.extend_from_slice(aggressors);
        self.boundaries.push(self.banks.len());
    }

    /// Appends `n` event-free intervals (refresh ticks with no
    /// activations) — the fast path for idle bank shards.
    pub fn push_empty_intervals(&mut self, n: u64) {
        let len = self.banks.len();
        for _ in 0..n {
            self.boundaries.push(len);
        }
    }

    /// Takes the internal staging buffer (cleared) for a
    /// one-interval-at-a-time fill; pair with
    /// [`EventBatch::restore_scratch`].
    pub fn take_scratch(&mut self) -> Vec<TraceEvent> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch
    }

    /// Returns a staging buffer taken with [`EventBatch::take_scratch`]
    /// so its allocation is reused by the next fill.
    pub fn restore_scratch(&mut self, scratch: Vec<TraceEvent>) {
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(bank: u32, row: u32) -> TraceEvent {
        TraceEvent::benign(BankId(bank), RowAddr(row))
    }

    #[test]
    fn boundaries_partition_events_into_segments() {
        let mut batch = EventBatch::new();
        batch.push_interval(&[ev(0, 1), ev(1, 2)]);
        batch.push_interval(&[]);
        batch.push_interval(&[ev(0, 3)]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.intervals(), 3);
        assert_eq!(batch.segment(0), 0..2);
        assert_eq!(batch.segment(1), 2..2);
        assert_eq!(batch.segment(2), 2..3);
        assert_eq!(batch.event(2), ev(0, 3));
    }

    #[test]
    fn bank_intervals_fill_the_bank_column() {
        let mut batch = EventBatch::new();
        batch.push_interval(&[ev(0, 1)]);
        batch.push_bank_interval(BankId(7), &[RowAddr(4), RowAddr(5)], &[true, false]);
        batch.push_bank_interval(BankId(7), &[], &[]);
        assert_eq!(batch.intervals(), 3);
        assert_eq!(batch.segment(1), 1..3);
        assert_eq!(batch.segment(2), 3..3);
        assert_eq!(batch.event(1), TraceEvent::attack(BankId(7), RowAddr(4)));
        assert_eq!(batch.event(2), TraceEvent::benign(BankId(7), RowAddr(5)));
    }

    #[test]
    #[should_panic(expected = "one aggressor label per row")]
    fn bank_interval_columns_must_match() {
        EventBatch::new().push_bank_interval(BankId(0), &[RowAddr(1)], &[]);
    }

    #[test]
    fn empty_intervals_tick_without_events() {
        let mut batch = EventBatch::new();
        batch.push_empty_intervals(4);
        assert!(batch.is_empty());
        assert_eq!(batch.intervals(), 4);
        assert_eq!(batch.segment(3), 0..0);
    }

    #[test]
    fn capacity_is_soft_and_clamped() {
        let mut batch = EventBatch::with_target_events(0);
        assert_eq!(batch.target_events(), 1);
        batch.push_interval(&[ev(0, 1), ev(0, 2), ev(0, 3)]);
        // A single interval may overshoot the soft target; it is never
        // split.
        assert_eq!(batch.len(), 3);
        assert!(batch.is_full());
        batch.clear();
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.intervals(), 0);
    }

    #[test]
    fn bank_runs_partition_a_segment_in_order() {
        let mut batch = EventBatch::new();
        batch.push_interval(&[ev(0, 1), ev(0, 2), ev(1, 3), ev(0, 4), ev(2, 5), ev(2, 6)]);
        let runs: Vec<(BankId, Range<usize>)> = batch.bank_runs(batch.segment(0)).collect();
        assert_eq!(
            runs,
            vec![
                (BankId(0), 0..2),
                (BankId(1), 2..3),
                (BankId(0), 3..4),
                (BankId(2), 4..6),
            ]
        );
        // The runs partition the range: contiguous, in order, no gaps.
        let mut cursor = 0;
        for (_, run) in &runs {
            assert_eq!(run.start, cursor);
            cursor = run.end;
        }
        assert_eq!(cursor, batch.len());
        // A sub-range (the engine's chunked replay) yields runs clipped
        // to it, and an empty range yields nothing.
        let runs: Vec<(BankId, Range<usize>)> = batch.bank_runs(1..4).collect();
        assert_eq!(
            runs,
            vec![(BankId(0), 1..2), (BankId(1), 2..3), (BankId(0), 3..4)]
        );
        assert_eq!(batch.bank_runs(2..2).count(), 0);
    }

    #[test]
    fn scratch_round_trips_without_leaking_events() {
        let mut batch = EventBatch::new();
        let mut scratch = batch.take_scratch();
        scratch.push(ev(0, 9));
        batch.push_interval(&scratch);
        batch.restore_scratch(scratch);
        // The staged events live in the batch, and the returned scratch
        // comes back cleared on the next take.
        assert_eq!(batch.take_scratch().len(), 0);
        assert_eq!(batch.len(), 1);
    }
}
