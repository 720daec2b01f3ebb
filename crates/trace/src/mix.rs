//! Merging benign and attacker streams under the bank bandwidth budget.

use crate::event::{TraceEvent, TraceSource, TraceSplit};
use dram_sim::BankId;
use std::ops::Range;

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
    /// Per source, the range of its buffer holding the bank being
    /// merged: each source's lane, read in place.
    runs: Vec<Range<usize>>,
    /// Where an interval that names banks out of order is regrouped.
    regrouped: Vec<TraceEvent>,
    /// Events dropped so far by the bandwidth cap (diagnostic).
    dropped: u64,
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
            runs: vec![0..0; sources.len()],
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

    /// The sources' lanes of the bank being merged.
    fn lanes(&self) -> impl Iterator<Item = &[TraceEvent]> + Clone {
        self.runs
            .iter()
            .zip(&self.buffers)
            .map(|(run, buffer)| &buffer[run.clone()])
    }

    /// Emits one bank's lanes round-robin under the cap, counting what
    /// the cap drops.
    fn merge_bank(&mut self, out: &mut Vec<TraceEvent>) {
        // Round `r` takes event `r` of every lane that long, so the
        // round number is every lane's read position.  Rounds run while
        // two or more lanes still hold events ...
        let (mut longest, mut second) = (0, 0);
        for lane in self.lanes() {
            if lane.len() > longest {
                second = longest;
                longest = lane.len();
            } else if lane.len() > second {
                second = lane.len();
            }
        }
        let mut room = self.max_acts_per_bank_interval as usize;
        let mut dropped = 0;
        for r in 0..second {
            for event in self.lanes().filter_map(|lane| lane.get(r)) {
                if room > 0 {
                    room -= 1;
                    out.push(*event);
                } else {
                    dropped += 1;
                }
            }
        }
        // ... then the longest lane alone takes the rest of the budget.
        for lane in self.lanes().filter(|lane| lane.len() > second) {
            let rest = &lane[second..];
            let kept = rest.len().min(room);
            out.extend_from_slice(&rest[..kept]);
            room -= kept;
            dropped += rest.len() - kept;
        }
        self.dropped += dropped as u64;
    }
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

impl TraceSource for MixedTrace {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        let mut any = false;
        for (source, buffer) in self.sources.iter_mut().zip(&mut self.buffers) {
            buffer.clear();
            any |= source.next_interval(buffer);
            // The synthetic generators emit bank-major; a recording
            // need not.
            if !buffer.is_sorted_by_key(|e| e.bank) {
                group_by_bank(buffer, &mut self.regrouped);
            }
        }
        if !any {
            return false;
        }
        // Bank-major emission: per bank, round-robin across the sources
        // under the cap.  Nothing outside a bank's own lanes influences
        // what is kept or dropped for it.
        self.runs.fill(0..0);
        while let Some(bank) = self
            .runs
            .iter()
            .zip(&self.buffers)
            .filter_map(|(run, buffer)| buffer.get(run.end))
            .map(|e| e.bank)
            .min()
        {
            for (run, buffer) in self.runs.iter_mut().zip(&self.buffers) {
                let len = buffer[run.end..]
                    .iter()
                    .take_while(|e| e.bank == bank)
                    .count();
                *run = run.end..run.end + len;
            }
            self.merge_bank(out);
        }
        true
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
