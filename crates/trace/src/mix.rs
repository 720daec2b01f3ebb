//! Merging benign and attacker streams under the bank bandwidth budget.

use crate::batch::EventBatch;
use crate::event::{TraceEvent, TraceSource, TraceSplit};
use dram_sim::BankId;

/// Interleaves any number of trace sources, enforcing the per-bank
/// per-interval activation cap of the DRAM timing.
///
/// Within each bank, events from the sources are interleaved round-robin
/// (modelling the memory controller arbitrating between cores), and any
/// events beyond the bank's cap are dropped — on real hardware that
/// traffic would simply slip into later intervals; dropping keeps
/// interval alignment while preserving rates, which is what the
/// mitigations observe.  Arbitration and the cap are applied *per bank*
/// (banks emitted in ascending id order), so a bank's merged sub-stream —
/// including which of its events the cap drops — depends only on that
/// bank's traffic.  That keeps the mix shardable: see [`TraceSplit`].
///
/// Both deliveries share one merge: [`TraceSource::next_interval`]
/// writes the merged interval to its event list, and
/// [`TraceSource::next_batch`] writes it straight into the batch's
/// columns.  Each source's interval is split into bank runs in one pass,
/// which is also the check that it names its banks in ascending order
/// (a recording that does not is regrouped first); every interval of a
/// bank shard is one run per source, interleaved directly.
///
/// The mix ends when *all* sources are exhausted.
///
/// ```
/// use mem_trace::{MixedTrace, ReplayTrace, TraceEvent, TraceSource};
/// use dram_sim::{BankId, RowAddr};
///
/// let a = ReplayTrace::new(vec![vec![TraceEvent::benign(BankId(0), RowAddr(1))]]);
/// let b = ReplayTrace::new(vec![vec![TraceEvent::attack(BankId(0), RowAddr(2))]]);
/// let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], 165);
/// let mut out = Vec::new();
/// assert!(mix.next_interval(&mut out));
/// assert_eq!(out.len(), 2);
/// assert!(!mix.next_interval(&mut out));
/// ```
pub struct MixedTrace {
    sources: Vec<Box<dyn TraceSplit>>,
    max_acts_per_bank_interval: u32,
    /// Each source's current interval, grouped by ascending bank.
    buffers: Vec<Vec<TraceEvent>>,
    /// The current interval's bank runs, ordered by bank and then by
    /// source, so that each bank's lanes sit side by side.
    runs: Vec<Run>,
    /// Where an interval that names banks out of order is regrouped.
    regrouped: Vec<TraceEvent>,
    /// Events dropped so far by the bandwidth cap (diagnostic).
    dropped: u64,
}

/// One source's events for one bank in the current interval:
/// `buffers[source][start..end]`, that source's lane of the bank.
#[derive(Debug, Clone, Copy)]
struct Run {
    bank: BankId,
    source: usize,
    start: usize,
    end: usize,
}

impl std::fmt::Debug for MixedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedTrace")
            .field("sources", &self.sources.len())
            .field(
                "max_acts_per_bank_interval",
                &self.max_acts_per_bank_interval,
            )
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl MixedTrace {
    /// Combines `sources` under a per-bank-per-interval cap.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or the cap is zero.
    pub fn new(sources: Vec<Box<dyn TraceSplit>>, max_acts_per_bank_interval: u32) -> Self {
        assert!(!sources.is_empty(), "mix needs at least one source");
        assert!(max_acts_per_bank_interval > 0, "cap must be nonzero");
        MixedTrace {
            buffers: vec![Vec::new(); sources.len()],
            runs: Vec::new(),
            sources,
            max_acts_per_bank_interval,
            regrouped: Vec::new(),
            dropped: 0,
        }
    }

    /// Events dropped by the bandwidth cap so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Draws every source's next interval and merges it into `out`,
    /// bank by bank in ascending order.  Returns `false`, writing
    /// nothing, once every source is exhausted.
    fn merge_interval(&mut self, out: &mut impl Merged) -> bool {
        self.runs.clear();
        let mut any = false;
        for (source, (trace, buffer)) in self.sources.iter_mut().zip(&mut self.buffers).enumerate()
        {
            buffer.clear();
            any |= trace.next_interval(buffer);
            // The synthetic generators emit bank-major; a recording
            // need not.
            if !split_runs(buffer, source, &mut self.runs) {
                group_by_bank(buffer, &mut self.regrouped);
                let grouped = split_runs(buffer, source, &mut self.runs);
                debug_assert!(grouped, "a regrouped interval ascends by bank");
            }
        }
        if !any {
            return false;
        }
        // Each source's runs ascend by bank, so a single-bank interval
        // is already in order; a multi-bank one brings each bank's lanes
        // together.  Keys are unique, so the order is deterministic.
        if !self.runs.is_sorted_by_key(|run| run.bank) {
            self.runs.sort_unstable_by_key(|run| (run.bank, run.source));
        }
        // Nothing outside a bank's own lanes influences what is kept or
        // dropped for it.
        let room = self.max_acts_per_bank_interval as usize;
        for lanes in self.runs.chunk_by(|a, b| a.bank == b.bank) {
            self.dropped += merge_bank(&self.buffers, lanes, room, out);
        }
        true
    }
}

/// Appends the runs of equal bank in `events` to `runs` as source
/// `source`'s lanes.  Returns `false`, leaving `runs` as it was, when a
/// run names a lower bank than the run before it.
fn split_runs(events: &[TraceEvent], source: usize, runs: &mut Vec<Run>) -> bool {
    let first = runs.len();
    let mut start = 0;
    for run in events.chunk_by(|a, b| a.bank == b.bank) {
        let bank = run[0].bank;
        if runs[first..]
            .last()
            .is_some_and(|previous| previous.bank > bank)
        {
            runs.truncate(first);
            return false;
        }
        let end = start + run.len();
        runs.push(Run {
            bank,
            source,
            start,
            end,
        });
        start = end;
    }
    true
}

/// Regroups `events` by ascending bank, each bank's events kept in
/// order, through `scratch` (swapped in), without indexing by bank id.
fn group_by_bank(events: &mut Vec<TraceEvent>, scratch: &mut Vec<TraceEvent>) {
    scratch.clear();
    let mut next = events.iter().map(|e| e.bank).min();
    while let Some(bank) = next {
        scratch.extend(events.iter().filter(|e| e.bank == bank));
        next = events.iter().map(|e| e.bank).filter(|&b| b > bank).min();
    }
    std::mem::swap(events, scratch);
}

/// Merges one bank's lanes, `runs` in source order, into `out`:
/// round-robin, round `r` taking event `r` of every lane that long, and
/// only the first `room` events; returns how many the cap dropped.
fn merge_bank(
    buffers: &[Vec<TraceEvent>],
    runs: &[Run],
    room: usize,
    out: &mut impl Merged,
) -> u64 {
    let lane = |run: &Run| &buffers[run.source][run.start..run.end];
    let total: usize = runs.iter().map(|run| run.end - run.start).sum();
    let kept = total.min(room);
    match runs {
        [only] => out.extend_events(&lane(only)[..kept]),
        // A benign and an attack lane, the paper mix's common case:
        // interleaved, `table3-paper` runs ≈ 19 % faster end to end
        // than through the event-at-a-time rounds below.
        [a, b] => {
            let (a, b) = (lane(a), lane(b));
            // Whole rounds while both lanes last and the cap allows ...
            let rounds = a.len().min(b.len()).min(kept / 2);
            out.interleave(&a[..rounds], &b[..rounds]);
            // ... then either the cap stops a round after `a`'s event,
            // or the longer lane goes on alone.
            let rest = kept - 2 * rounds;
            let tail = if a.len() > rounds { a } else { b };
            out.extend_events(&tail[rounds..rounds + rest]);
        }
        _ => {
            let longest = runs.iter().map(|run| run.end - run.start).max();
            let mut left = kept;
            'rounds: for r in 0..longest.unwrap_or(0) {
                for event in runs.iter().filter_map(|run| lane(run).get(r)) {
                    if left == 0 {
                        break 'rounds;
                    }
                    left -= 1;
                    out.push_event(*event);
                }
            }
        }
    }
    (total - kept) as u64
}

/// Where [`MixedTrace`] writes a merged interval: the interval API's
/// event list, or a batch's columns.
trait Merged {
    /// Appends `events` in order.
    fn extend_events(&mut self, events: &[TraceEvent]);
    /// Appends `a[0], b[0], a[1], b[1], …` from two equally long lanes
    /// of one bank.
    fn interleave(&mut self, a: &[TraceEvent], b: &[TraceEvent]);
    /// Appends one event.
    fn push_event(&mut self, event: TraceEvent);
}

impl Merged for Vec<TraceEvent> {
    fn extend_events(&mut self, events: &[TraceEvent]) {
        self.extend_from_slice(events);
    }

    fn interleave(&mut self, a: &[TraceEvent], b: &[TraceEvent]) {
        // Pushed one by one, so the list grows as it always has: a
        // recording that keeps each interval's list keeps its size.
        for (x, y) in a.iter().zip(b) {
            self.push(*x);
            self.push(*y);
        }
    }

    fn push_event(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

impl Merged for EventBatch {
    fn extend_events(&mut self, events: &[TraceEvent]) {
        self.push_events(events);
    }

    fn interleave(&mut self, a: &[TraceEvent], b: &[TraceEvent]) {
        self.push_interleaved(a, b);
    }

    fn push_event(&mut self, event: TraceEvent) {
        EventBatch::push_event(self, event);
    }
}

impl TraceSource for MixedTrace {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        self.merge_interval(out)
    }

    fn intervals_hint(&self) -> Option<u64> {
        self.sources
            .iter()
            .map(|s| s.intervals_hint())
            .collect::<Option<Vec<_>>>()
            .map(|hints| hints.into_iter().max().unwrap_or(0))
    }

    fn max_batch_intervals(&self) -> u64 {
        // The tightest part binds: a feedback-coupled attacker in the
        // mix caps the whole mix at its look-ahead.
        self.sources
            .iter()
            .map(|s| s.max_batch_intervals())
            .min()
            .unwrap_or(u64::MAX)
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // The default shim's fill rule, with each interval merged
        // straight into the batch instead of staged and copied.
        batch.clear();
        let cap = max_intervals
            .min(self.max_batch_intervals())
            .min(batch.target_events() as u64);
        let mut delivered = 0u64;
        while delivered < cap && !batch.is_full() && self.merge_interval(batch) {
            batch.close_interval();
            delivered += 1;
        }
        delivered > 0
    }
}

impl TraceSplit for MixedTrace {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        Box::new(MixedTrace::new(
            self.sources.iter().map(|s| s.bank_shard(bank)).collect(),
            self.max_acts_per_bank_interval,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplayTrace;
    use dram_sim::RowAddr;

    fn burst(bank: u32, row: u32, n: usize, aggressor: bool) -> Vec<TraceEvent> {
        (0..n)
            .map(|_| TraceEvent {
                bank: BankId(bank),
                row: RowAddr(row),
                aggressor,
            })
            .collect()
    }

    #[test]
    fn cap_drops_excess_per_bank() {
        let a = ReplayTrace::new(vec![burst(0, 1, 100, false)]);
        let b = ReplayTrace::new(vec![burst(0, 2, 100, true)]);
        let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], 150);
        let mut out = Vec::new();
        mix.next_interval(&mut out);
        assert_eq!(out.len(), 150);
        assert_eq!(mix.dropped(), 50);
        // Round-robin interleave: both sources are represented fairly.
        let attacks = out.iter().filter(|e| e.aggressor).count();
        assert_eq!(attacks, 75);
    }

    #[test]
    fn caps_are_per_bank() {
        let a = ReplayTrace::new(vec![burst(0, 1, 10, false)]);
        let b = ReplayTrace::new(vec![burst(1, 2, 10, false)]);
        let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], 10);
        let mut out = Vec::new();
        mix.next_interval(&mut out);
        assert_eq!(out.len(), 20);
        assert_eq!(mix.dropped(), 0);
    }

    #[test]
    fn runs_until_longest_source_ends() {
        let a = ReplayTrace::new(vec![burst(0, 1, 1, false)]);
        let b = ReplayTrace::new(vec![
            burst(0, 2, 1, false),
            burst(0, 2, 1, false),
            burst(0, 2, 1, false),
        ]);
        let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], 165);
        assert_eq!(mix.intervals_hint(), Some(3));
        let mut out = Vec::new();
        let mut n = 0;
        while mix.next_interval(&mut out) {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn banks_emitted_in_ascending_order() {
        let a = ReplayTrace::new(vec![[burst(1, 5, 2, false), burst(0, 1, 2, false)].concat()]);
        let b = ReplayTrace::new(vec![burst(0, 2, 2, true)]);
        let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], 165);
        let mut out = Vec::new();
        mix.next_interval(&mut out);
        let banks: Vec<u32> = out.iter().map(|e| e.bank.0).collect();
        assert_eq!(banks, vec![0, 0, 0, 0, 1, 1]);
        // Within bank 0 the two sources alternate.
        assert_eq!(
            out[..4].iter().map(|e| e.aggressor).collect::<Vec<_>>(),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn shard_matches_bank_filter_of_parent() {
        let a = ReplayTrace::new(vec![
            [burst(0, 1, 80, false), burst(1, 3, 80, false)].concat(),
            burst(1, 4, 5, false),
        ]);
        let b = ReplayTrace::new(vec![burst(0, 2, 80, true), burst(0, 2, 3, true)]);
        let mix = MixedTrace::new(vec![Box::new(a.clone()), Box::new(b.clone())], 100);
        let mut shard = MixedTrace::new(vec![Box::new(a), Box::new(b)], 100).bank_shard(BankId(0));

        let mut full = MixedTrace::new(
            vec![
                mix.sources[0].bank_shard(BankId(0)),
                mix.sources[1].bank_shard(BankId(0)),
            ],
            100,
        );
        // The shard (recursive per-source shards) equals the bank-0
        // subsequence of the parent, interval by interval, drops included.
        let mut parent = mix;
        let mut parent_out = Vec::new();
        let mut shard_out = Vec::new();
        let mut full_out = Vec::new();
        loop {
            parent_out.clear();
            shard_out.clear();
            full_out.clear();
            let p = parent.next_interval(&mut parent_out);
            let s = shard.next_interval(&mut shard_out);
            let f = full.next_interval(&mut full_out);
            assert_eq!(p, s);
            assert_eq!(p, f);
            if !p {
                break;
            }
            let filtered: Vec<TraceEvent> = parent_out
                .iter()
                .filter(|e| e.bank == BankId(0))
                .copied()
                .collect();
            assert_eq!(filtered, shard_out);
            assert_eq!(filtered, full_out);
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_mix_rejected() {
        let _ = MixedTrace::new(vec![], 10);
    }
}
