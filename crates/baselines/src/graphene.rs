//! Graphene (Park et al., MICRO 2020 — "Graphene: Strong yet
//! Lightweight Row Hammer Protection") — an extension beyond the
//! paper's comparison set.
//!
//! Published the year before TiVaPRoMi, Graphene applies the
//! Misra–Gries frequent-item algorithm to row tracking: a small table
//! of `(row, counter)` pairs plus one *spillover* counter.  The
//! Misra–Gries invariant guarantees that any row activated at least
//! `W / (entries + 1)` times within a window of `W` activations is in
//! the table with a count that underestimates its true count by at most
//! the spillover value — so with enough entries, no aggressor can reach
//! the row-hammer threshold untracked.  This gives TWiCe-class
//! deterministic protection from a TiVaPRoMi-class table size, which is
//! why it makes an interesting extra point on the Fig. 4 plane.

use dram_sim::{BankId, Geometry, RowAddr, FLIP_THRESHOLD};
use mem_trace::EventBatch;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Configuration of a [`Graphene`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrapheneConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Table entries per bank.
    pub entries: usize,
    /// Estimated count at which `act_n` fires (`th_RH / 4`).
    pub trigger_threshold: u32,
    /// Refresh intervals per window (reset period).
    pub intervals_per_window: u32,
}

impl GrapheneConfig {
    /// Sizing from the Misra–Gries bound at the paper's parameters:
    /// a window carries at most `W = 165 × 8192 ≈ 1.35 M` activations
    /// per bank; an entry count of `⌈W / th⌉ + margin` with
    /// `th = 139 000 / 4` guarantees every potential aggressor is
    /// tracked before its victims are at risk.
    pub fn paper(geometry: &Geometry) -> Self {
        let trigger_threshold = FLIP_THRESHOLD / 4;
        let window_acts = 165u64 * u64::from(geometry.intervals_per_window());
        let entries = usize::try_from(window_acts / u64::from(trigger_threshold) + 9)
            .expect("Misra-Gries entry count fits usize");
        GrapheneConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            entries,
            trigger_threshold,
            intervals_per_window: geometry.intervals_per_window(),
        }
    }
}

/// Per-bank Misra–Gries state.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// `(row, estimated count)` pairs.
    entries: Vec<(RowAddr, u32)>,
    /// The spillover counter.
    spillover: u32,
    /// Activation counts already "spent" on triggers, per entry index —
    /// a trigger fires each time the estimate crosses another multiple
    /// of the threshold.
    fired: Vec<u32>,
}

impl Summary {
    /// One Misra–Gries update; returns whether the estimate crossed
    /// another threshold multiple (→ `act_n`).
    fn observe(&mut self, row: RowAddr, threshold: u32, capacity: usize) -> bool {
        let index = if let Some(i) = self.entries.iter().position(|(r, _)| *r == row) {
            self.entries[i].1 += 1;
            Some(i)
        } else if self.entries.len() < capacity {
            self.entries.push((row, self.spillover + 1));
            self.fired.push(0);
            Some(self.entries.len() - 1)
        } else {
            // Misra–Gries replacement: if some entry's count equals the
            // spillover, it is indistinguishable from untracked traffic —
            // replace it; otherwise the access lands in the spillover.
            let spill = self.spillover;
            if let Some(i) = self.entries.iter().position(|&(_, c)| c == spill) {
                self.entries[i] = (row, spill + 1);
                self.fired[i] = 0;
                Some(i)
            } else {
                self.spillover += 1;
                None
            }
        };

        if let Some(i) = index {
            let count = self.entries[i].1;
            // Fire each time the estimate crosses another threshold
            // multiple.
            if count / threshold > self.fired[i] {
                self.fired[i] = count / threshold;
                return true;
            }
        }
        false
    }

    /// Window reset in place: the entry and fired lanes keep their
    /// capacity so steady-state windows never touch the heap.
    fn reset(&mut self) {
        self.entries.clear();
        self.fired.clear();
        self.spillover = 0;
    }
}

/// The Graphene mitigation.
///
/// ```
/// use rh_baselines::Graphene;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut graphene = Graphene::paper(&Geometry::paper());
/// let mut actions = Vec::new();
/// for _ in 0..34_750 {
///     graphene.on_activate(BankId(0), RowAddr(77), &mut actions);
/// }
/// assert_eq!(actions.len(), 1); // deterministic, like the tabled counters
/// ```
#[derive(Debug)]
pub struct Graphene {
    config: GrapheneConfig,
    banks: Vec<Summary>,
    interval: u32,
}

impl Graphene {
    /// Creates Graphene from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the table or threshold is zero-sized.
    pub fn new(config: GrapheneConfig) -> Self {
        assert!(config.entries > 0, "table must be nonempty");
        assert!(config.trigger_threshold > 0, "threshold must be nonzero");
        Graphene {
            banks: (0..config.banks).map(|_| Summary::default()).collect(),
            config,
            interval: 0,
        }
    }

    /// The MICRO 2020 sizing for this geometry.
    pub fn paper(geometry: &Geometry) -> Self {
        Graphene::new(GrapheneConfig::paper(geometry))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }

    /// Current estimated count for `row` (diagnostic).
    pub fn estimate(&self, bank: BankId, row: RowAddr) -> Option<u32> {
        self.banks[bank.index()]
            .entries
            .iter()
            .find(|(r, _)| *r == row)
            .map(|&(_, c)| c)
    }
}

impl Mitigation for Graphene {
    fn name(&self) -> &str {
        "Graphene"
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the bank's Misra–Gries summary is hoisted once
        // per run and the threshold/capacity scalars stay in registers.
        let threshold = self.config.trigger_threshold;
        let capacity = self.config.entries;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let summary = &mut self.banks[bank.index()];
            for i in run {
                let row = rows[i];
                if summary.observe(row, threshold, capacity) {
                    sink.push(i as u32, MitigationAction::ActivateNeighbors { bank, row });
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {
        self.interval += 1;
        if self.interval == self.config.intervals_per_window {
            self.interval = 0;
            for summary in &mut self.banks {
                summary.reset();
            }
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        let row_bits = u64::from(u32::BITS - (self.config.rows_per_bank - 1).leading_zeros());
        let count_bits = u64::from(u32::BITS - self.config.trigger_threshold.leading_zeros()) + 2;
        // Entries + the spillover counter.
        self.config.entries as u64 * (row_bits + count_bits + 1) + count_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphene() -> Graphene {
        Graphene::paper(&Geometry::paper().with_banks(1))
    }

    #[test]
    fn paper_sizing_is_tivapromi_class() {
        let g = graphene();
        assert_eq!(g.config().entries, 47); // ⌈1.35 M / 34 750⌉ + 9
        let bytes = g.storage_bytes_per_bank();
        assert!(bytes > 100.0 && bytes < 400.0, "got {bytes}");
    }

    #[test]
    fn deterministic_trigger_at_threshold_multiples() {
        let mut g = graphene();
        let mut actions = Vec::new();
        for _ in 0..(34_750 * 3) {
            g.on_activate(BankId(0), RowAddr(9), &mut actions);
        }
        assert_eq!(actions.len(), 3);
    }

    #[test]
    fn misra_gries_underestimate_is_bounded_by_spillover() {
        // Hammer one row among heavy scattered noise: the estimate may
        // lag the true count, but by at most the spillover.
        let mut g = graphene();
        let mut actions = Vec::new();
        let mut true_count = 0u32;
        for i in 0..200_000u32 {
            if i % 3 == 0 {
                g.on_activate(BankId(0), RowAddr(9), &mut actions);
                true_count += 1;
            } else {
                g.on_activate(BankId(0), RowAddr(20_000 + (i * 7) % 30_000), &mut actions);
            }
        }
        let estimate = g.estimate(BankId(0), RowAddr(9)).expect("hot row tracked");
        let spill = g.banks[0].spillover;
        assert!(estimate <= true_count + spill, "over-estimate too large");
        assert!(
            estimate + spill >= true_count,
            "under-estimate beyond MG bound"
        );
    }

    #[test]
    fn hot_rows_survive_scattered_pressure() {
        let mut g = graphene();
        let mut actions = Vec::new();
        for i in 0..500_000u32 {
            // One row at 1/4 of the traffic, the rest scattered.
            if i % 4 == 0 {
                g.on_activate(BankId(0), RowAddr(9), &mut actions);
            } else {
                g.on_activate(BankId(0), RowAddr((i * 13) % 65_536), &mut actions);
            }
        }
        assert!(g.estimate(BankId(0), RowAddr(9)).is_some());
        assert!(!actions.is_empty(), "the hot row crossed th multiple times");
    }

    #[test]
    fn window_reset_clears_summaries() {
        let mut g = graphene();
        let mut actions = Vec::new();
        for _ in 0..100 {
            g.on_activate(BankId(0), RowAddr(9), &mut actions);
        }
        assert!(g.estimate(BankId(0), RowAddr(9)).is_some());
        for _ in 0..8192 {
            g.on_refresh_interval(&mut actions);
        }
        assert!(g.estimate(BankId(0), RowAddr(9)).is_none());
    }

    #[test]
    fn batched_kernel_matches_one_event_batches() {
        use mem_trace::TraceEvent;
        use tivapromi::ActionSink;
        let cfg = GrapheneConfig {
            trigger_threshold: 25,
            ..GrapheneConfig::paper(&Geometry::paper().with_banks(3))
        };
        let mut kernel = Graphene::new(cfg);
        let mut scalar = Graphene::new(cfg);

        let mut events = Vec::new();
        for i in 0..512u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(500 + i % 6)));
        }
        let mut batch = EventBatch::new();
        batch.push_interval(&events);
        let mut sink = ActionSink::new();
        kernel.on_batch(&batch, batch.segment(0), &mut sink);

        let mut expected = Vec::new();
        for e in &events {
            scalar.on_activate(e.bank, e.row, &mut expected);
        }
        let mut drained = Vec::new();
        for tag in 0..u32::try_from(events.len()).expect("fits") {
            while let Some(a) = sink.next_for(tag) {
                drained.push(a);
            }
        }
        assert_eq!(drained, expected);
        assert!(!drained.is_empty());
        for (k, s) in kernel.banks.iter().zip(&scalar.banks) {
            assert_eq!(k.entries, s.entries);
            assert_eq!(k.fired, s.fired);
            assert_eq!(k.spillover, s.spillover);
        }
    }

    #[test]
    fn table_never_exceeds_capacity() {
        let mut g = graphene();
        let mut actions = Vec::new();
        for i in 0..100_000u32 {
            g.on_activate(BankId(0), RowAddr(i % 65_536), &mut actions);
        }
        assert!(g.banks[0].entries.len() <= g.config().entries);
    }
}
