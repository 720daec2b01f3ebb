//! Merging benign and attacker streams under the bank bandwidth budget.

use crate::batch::EventBatch;
use crate::event::{TraceEvent, TraceSource, TraceSplit};
use dram_sim::BankId;
use std::collections::BTreeMap;

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
    buffers: Vec<Vec<TraceEvent>>,
    /// Persistent per-bank, per-source merge lanes reused by the
    /// batched delivery path ([`MixedTrace::next_batch`]), indexed by
    /// bank id.  `next_interval` deliberately keeps its original
    /// allocate-per-interval merge: it is the independent reference the
    /// sharding suite (`crates/trace/tests/sharding.rs`) holds
    /// `next_batch` to, and the delivery `engine::run_scalar` uses.
    lanes: Vec<Vec<Vec<TraceEvent>>>,
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
        let buffers = sources.iter().map(|_| Vec::new()).collect();
        MixedTrace {
            sources,
            max_acts_per_bank_interval,
            buffers,
            lanes: Vec::new(),
            dropped: 0,
        }
    }

    /// Events dropped by the bandwidth cap so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merges one interval of all sources directly into `batch` and
    /// closes its boundary — the same bank-major round-robin merge as
    /// [`MixedTrace::next_interval`] (bit-identical event order and cap
    /// drops), but through persistent lane buffers and the batch's SoA
    /// columns, so the steady state allocates nothing.
    fn merge_interval_into(&mut self, batch: &mut EventBatch) -> bool {
        let mut any = false;
        for (source, buffer) in self.sources.iter_mut().zip(&mut self.buffers) {
            buffer.clear();
            if source.next_interval(buffer) {
                any = true;
            }
        }
        if !any {
            return false;
        }

        let source_count = self.buffers.len();
        for bank_lanes in &mut self.lanes {
            for lane in bank_lanes.iter_mut() {
                lane.clear();
            }
        }
        // Split each buffer into its bank lanes one same-bank run at a
        // time (a bank shard's buffer is a single run).
        for (index, buffer) in self.buffers.iter().enumerate() {
            let mut rest = buffer.as_slice();
            while let Some(first) = rest.first() {
                let run = rest.iter().take_while(|e| e.bank == first.bank).count();
                let bank = first.bank.index();
                if bank >= self.lanes.len() {
                    self.lanes
                        .resize_with(bank + 1, || vec![Vec::new(); source_count]);
                }
                self.lanes[bank][index].extend_from_slice(&rest[..run]);
                rest = &rest[run..];
            }
        }
        // Lane indices ascend by bank id, matching the BTreeMap's
        // ascending-key iteration; banks with no traffic this interval
        // contribute nothing.
        for bank_lanes in &self.lanes {
            // Round `r` takes event `r` of every lane that long, so the
            // round number is every lane's read position.  Rounds run
            // while two or more lanes still hold events ...
            let (mut longest, mut second) = (0, 0);
            for lane in bank_lanes {
                if lane.len() > longest {
                    second = longest;
                    longest = lane.len();
                } else if lane.len() > second {
                    second = lane.len();
                }
            }
            let mut room = self.max_acts_per_bank_interval as usize;
            for r in 0..second {
                for event in bank_lanes.iter().filter_map(|lane| lane.get(r)) {
                    if room > 0 {
                        room -= 1;
                        batch.push_event(event.bank, event.row, event.aggressor);
                    } else {
                        self.dropped += 1;
                    }
                }
            }
            // ... then the longest lane alone takes the rest of the budget.
            for lane in bank_lanes.iter().filter(|lane| lane.len() > second) {
                let rest = &lane[second..];
                let kept = rest.len().min(room);
                for event in &rest[..kept] {
                    batch.push_event(event.bank, event.row, event.aggressor);
                }
                room -= kept;
                self.dropped += (rest.len() - kept) as u64;
            }
        }
        batch.end_interval();
        true
    }
}

impl TraceSource for MixedTrace {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        let mut any = false;
        for (source, buffer) in self.sources.iter_mut().zip(&mut self.buffers) {
            buffer.clear();
            if source.next_interval(buffer) {
                any = true;
            }
        }
        if !any {
            return false;
        }

        // Split each source's batch by bank, preserving per-source order.
        let mut lanes: BTreeMap<BankId, Vec<Vec<TraceEvent>>> = BTreeMap::new();
        for (index, buffer) in self.buffers.iter().enumerate() {
            for &event in buffer {
                lanes
                    .entry(event.bank)
                    .or_insert_with(|| vec![Vec::new(); self.buffers.len()])[index]
                    .push(event);
            }
        }
        // Bank-major emission: per bank, round-robin across the sources
        // under the cap.  Nothing outside a bank's own lanes influences
        // what is kept or dropped for it.
        for lanes in lanes.into_values() {
            let mut used = 0u32;
            let mut cursors = vec![0usize; lanes.len()];
            loop {
                let mut progressed = false;
                for (lane, cursor) in lanes.iter().zip(&mut cursors) {
                    if *cursor < lane.len() {
                        let event = lane[*cursor];
                        *cursor += 1;
                        progressed = true;
                        if used < self.max_acts_per_bank_interval {
                            used += 1;
                            out.push(event);
                        } else {
                            self.dropped += 1;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
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

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // Native batched delivery: merge each interval straight into
        // the batch's SoA columns through persistent lane buffers,
        // skipping both the per-interval lane allocations and the
        // AoS staging copy the default shim would pay.
        batch.clear();
        let cap = max_intervals
            .min(self.max_batch_intervals())
            .min(batch.target_events() as u64);
        let mut delivered = 0u64;
        while delivered < cap && !batch.is_full() {
            if !self.merge_interval_into(batch) {
                break;
            }
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
