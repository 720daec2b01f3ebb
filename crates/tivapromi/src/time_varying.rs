//! The purely probabilistic variants: LiPRoMi, LoPRoMi, LoLiPRoMi.
//!
//! All three share one engine (they use the same FSM in the paper,
//! Fig. 2) and differ only in how the raw Eq. 1 weight is shaped in the
//! "calculate weight" state.
//!
//! Each activation fires when its masked `P_base`-bit draw is below the
//! row's shaped weight.  No shaped weight exceeds
//! `RefInt.next_power_of_two()` (Eq. 1 stays below `RefInt`, and Eq. 2
//! rounds `w + 1 ≤ RefInt` up to a power of two), so the lane kernel
//! draws first and skips the history search and the weight lookup for a
//! draw at or above that bound — at the paper's `2^-23` all but about
//! 0.1 % of activations.  The skip changes no decision or stream
//! position: every activation still takes one word.  Under
//! [`HistoryPolicy::Lru`] the search also refreshes the row's recency,
//! so with that policy it runs on every activation.  The scalar
//! [`Mitigation::on_activate`] stays the eager reference.

use crate::bank_rng::BankRngs;
use crate::config::TivaConfig;
use crate::draw;
use crate::history::{HistoryPolicy, HistoryTable};
use crate::mitigation::{ActionSink, Mitigation, MitigationAction};
use crate::weight::{linear_weight, log_weight};
use dram_sim::{BankId, RowAddr};
use mem_trace::EventBatch;
use rand::RngCore;
use std::ops::Range;

/// How the Eq. 1 weight is shaped before computing the probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightMode {
    /// LiPRoMi: use `w_r` directly.
    Linear,
    /// LoPRoMi: use `w_log = 2^⌈log2(w_r + 1)⌉` (Eq. 2).
    Logarithmic,
    /// LoLiPRoMi: linear when the row is in the history table (a trigger
    /// already happened recently, so the probability of needing another
    /// is low), logarithmic otherwise.
    Hybrid,
}

/// One memoised weight slot: the shaped weights of every row whose
/// phase `f_r = base % RefInt` equals the slot index, valid for the
/// stamped interval.
#[derive(Debug, Clone, Copy)]
struct SlotWeight {
    /// The interval this slot was computed for (`u32::MAX` = never).
    epoch: u32,
    /// Shaped weight when the row was found in the history table.
    hit: u32,
    /// Shaped weight on a history miss.
    miss: u32,
}

/// The precomputed per-row weight vector of the lane kernels, indexed
/// by refresh-slot phase `f_r`.
///
/// The shaped weight is a pure function of `(interval, f_r, mode)`, so
/// one vector of `RefInt` slots covers every row: each slot is filled
/// lazily the first time its phase is touched in an interval (epoch
/// stamp), and hammered rows — which repeat the same phase thousands of
/// times per interval — hit the memo on every subsequent event.  The
/// vector is allocated once at construction and never grows.
#[derive(Debug)]
struct SlotWeights {
    slots: Vec<SlotWeight>,
}

impl SlotWeights {
    fn new(ref_int: u32) -> Self {
        SlotWeights {
            slots: vec![
                SlotWeight {
                    epoch: u32::MAX,
                    hit: 0,
                    miss: 0,
                };
                ref_int as usize
            ],
        }
    }

    /// The `(hit, miss)` shaped weights of phase `f_r` at `interval`,
    /// recomputing the slot only when its epoch stamp is stale.
    #[inline]
    fn get(&mut self, interval: u32, f_r: u32, ref_int: u32, mode: WeightMode) -> (u32, u32) {
        let slot = &mut self.slots[f_r as usize];
        if slot.epoch != interval {
            let w = linear_weight(interval, f_r, ref_int);
            let (hit, miss) = match mode {
                WeightMode::Linear => (w, w),
                WeightMode::Logarithmic => (log_weight(w), log_weight(w)),
                WeightMode::Hybrid => (w, log_weight(w)),
            };
            *slot = SlotWeight {
                epoch: interval,
                hit,
                miss,
            };
        }
        (slot.hit, slot.miss)
    }
}

/// The shared engine of the three purely probabilistic TiVaPRoMi
/// variants.
///
/// On every activation of row `r` the engine computes the weight from
/// the current refresh interval and either the row's refresh slot
/// (`f_r = r / RowsPI`) or — if the row is in the per-bank history table
/// — the interval of the row's last triggered extra activation.  The
/// probability `p_r = weight · P_base` is realised in hardware style:
/// a uniform `p_base_exponent`-bit draw is compared against the weight.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct TimeVarying {
    config: TivaConfig,
    mode: WeightMode,
    histories: Vec<HistoryTable>,
    /// Current refresh interval within the window (`i` in Eq. 1).
    interval: u32,
    /// Per-bank LFSR streams — keyed by bank so each bank's draws depend
    /// only on that bank's traffic (bank-shardable determinism).
    rngs: BankRngs,
    /// Memoised shaped weights keyed by refresh-slot phase — the
    /// precomputed per-row weight vector both decision paths read.
    slot_weights: SlotWeights,
    name: &'static str,
    /// Total triggers issued (diagnostic).
    triggers: u64,
}

impl TimeVarying {
    /// Creates an engine with an explicit weight mode.
    pub fn new(config: TivaConfig, mode: WeightMode, seed: u64) -> Self {
        let name = match mode {
            WeightMode::Linear => "LiPRoMi",
            WeightMode::Logarithmic => "LoPRoMi",
            WeightMode::Hybrid => "LoLiPRoMi",
        };
        TimeVarying {
            histories: (0..config.banks)
                .map(|_| HistoryTable::with_policy(config.history_entries, config.history_policy))
                .collect(),
            mode,
            interval: 0,
            rngs: BankRngs::with_banks(seed, config.banks),
            slot_weights: SlotWeights::new(config.ref_int),
            name,
            triggers: 0,
            config,
        }
    }

    /// LiPRoMi: linear weighting (Section III-A).
    pub fn lipromi(config: TivaConfig, seed: u64) -> Self {
        TimeVarying::new(config, WeightMode::Linear, seed)
    }

    /// LoPRoMi: logarithmic weighting (Section III-B).
    pub fn lopromi(config: TivaConfig, seed: u64) -> Self {
        TimeVarying::new(config, WeightMode::Logarithmic, seed)
    }

    /// LoLiPRoMi: logarithmic/linear hybrid weighting (Section III-C).
    pub fn lolipromi(config: TivaConfig, seed: u64) -> Self {
        TimeVarying::new(config, WeightMode::Hybrid, seed)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TivaConfig {
        &self.config
    }

    /// The weight mode in effect.
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// Current refresh interval within the window.
    pub fn current_interval(&self) -> u32 {
        self.interval
    }

    /// Total extra activations triggered so far.
    pub fn trigger_count(&self) -> u64 {
        self.triggers
    }

    /// The effective (shaped) weight the engine would use for `row` in
    /// `bank` right now — exposed for analysis and the hardware model.
    pub fn effective_weight(&self, bank: BankId, row: RowAddr) -> u32 {
        let found = self.histories[bank.index()].lookup(row);
        let base = found.unwrap_or_else(|| self.config.home_interval(row));
        let w = linear_weight(
            self.interval,
            base % self.config.ref_int,
            self.config.ref_int,
        );
        match self.mode {
            WeightMode::Linear => w,
            WeightMode::Logarithmic => log_weight(w),
            WeightMode::Hybrid => {
                if found.is_some() {
                    w
                } else {
                    log_weight(w)
                }
            }
        }
    }
}

impl Mitigation for TimeVarying {
    fn name(&self) -> &str {
        self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        // The FSM's table search; under LRU it also refreshes recency.
        let found = self.histories[bank.index()].search(row);
        let base = found.unwrap_or_else(|| self.config.home_interval(row));
        let (hit_w, miss_w) = self.slot_weights.get(
            self.interval,
            base % self.config.ref_int,
            self.config.ref_int,
            self.mode,
        );
        let weight = if found.is_some() { hit_w } else { miss_w };
        // Hardware-style Bernoulli draw: p = weight · 2^-exponent is
        // realised by comparing the weight against a uniform
        // `exponent`-bit pseudo-random number (an LFSR in the VHDL
        // implementation) — the masked low bits of one stream word, the
        // same one-word-per-event discipline the lane kernel prefetches.
        let word = self.rngs.get(bank).next_u64();
        if draw::masked(word, self.config.p_base_exponent) < u64::from(weight) {
            actions.push(MitigationAction::ActivateNeighbors { bank, row });
            self.histories[bank.index()].record(row, self.interval);
            self.triggers += 1;
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the interval clock, window length, mode, draw
        // mask and weight bound are constant across a whole segment and
        // hoisted; the segment is walked in per-bank runs so the bank's
        // history table is resolved once per run and its stream words
        // arrive in one block refill (one word per event).  A draw at or
        // above the bound cannot fire (module docs), so only a draw below
        // it searches the history — or every draw under LRU, whose search
        // mutates — and reads the memoised weight.  State updates and
        // stream positions match the scalar path exactly — the
        // determinism contract depends on it.
        let interval = self.interval;
        let config = self.config;
        let exponent = config.p_base_exponent;
        let bound = u64::from(config.ref_int.next_power_of_two());
        let lru = config.history_policy == HistoryPolicy::Lru;
        let mode = self.mode;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let words = self.rngs.draw_block(bank, run.len());
            let history = &mut self.histories[bank.index()];
            for (&word, i) in words.iter().zip(run) {
                let row = rows[i];
                let draw = draw::masked(word, exponent);
                if draw >= bound {
                    if lru {
                        let _ = history.search(row);
                    }
                    continue;
                }
                let found = history.search(row);
                let base = match found {
                    Some(base) => base,
                    None => config.home_interval(row),
                };
                let (hit_w, miss_w) =
                    self.slot_weights
                        .get(interval, base % config.ref_int, config.ref_int, mode);
                let weight = if found.is_some() { hit_w } else { miss_w };
                if draw < u64::from(weight) {
                    sink.push(i as u32, MitigationAction::ActivateNeighbors { bank, row });
                    history.record(row, interval);
                    self.triggers += 1;
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {
        self.interval += 1;
        if self.interval == self.config.ref_int {
            // New refresh window: weights restart and the history tables
            // are cleared (Fig. 2 "reset table" path).
            self.interval = 0;
            for h in &mut self.histories {
                h.clear();
            }
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.config.history_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Geometry;

    fn config() -> TivaConfig {
        TivaConfig::paper(&Geometry::paper().with_banks(1))
    }

    fn drive_intervals(m: &mut TimeVarying, n: u32) {
        let mut buf = Vec::new();
        for _ in 0..n {
            m.on_refresh_interval(&mut buf);
        }
    }

    #[test]
    fn weight_zero_right_after_refresh_slot() {
        // Row 0 has f_r = 0; at interval 0 its weight is 0, so an
        // activation can never trigger (draw < 0 is impossible).
        let mut m = TimeVarying::lipromi(config(), 1);
        let mut actions = Vec::new();
        for _ in 0..10_000 {
            m.on_activate(BankId(0), RowAddr(0), &mut actions);
        }
        assert!(actions.is_empty());
        assert_eq!(m.trigger_count(), 0);
    }

    #[test]
    fn stale_rows_trigger_with_growing_probability() {
        // Advance deep into the window; row 0's weight is now ~8000 and
        // p ≈ 10^-3, so 40 K activations almost surely trigger.
        let mut m = TimeVarying::lipromi(config(), 2);
        drive_intervals(&mut m, 8000);
        assert_eq!(m.effective_weight(BankId(0), RowAddr(0)), 8000);
        let mut actions = Vec::new();
        for _ in 0..40_000 {
            m.on_activate(BankId(0), RowAddr(0), &mut actions);
        }
        assert!(!actions.is_empty());
    }

    #[test]
    fn history_hit_shrinks_weight() {
        let mut m = TimeVarying::lipromi(config(), 3);
        drive_intervals(&mut m, 4000);
        let before = m.effective_weight(BankId(0), RowAddr(0));
        assert_eq!(before, 4000);
        // Force a trigger by hammering, then check the weight restarted.
        let mut actions = Vec::new();
        while actions.is_empty() {
            m.on_activate(BankId(0), RowAddr(0), &mut actions);
        }
        assert_eq!(m.effective_weight(BankId(0), RowAddr(0)), 0);
    }

    #[test]
    fn modes_shape_weight_as_specified() {
        let cfg = config();
        let li = TimeVarying::lipromi(cfg, 1);
        let lo = TimeVarying::lopromi(cfg, 1);
        let loli = TimeVarying::lolipromi(cfg, 1);
        // Row far from its refresh slot: f_r of row 65535 is 8191, so at
        // interval 0 the weight wraps to 0+8192-8191 = 1.
        let r = RowAddr(65_535);
        assert_eq!(li.effective_weight(BankId(0), r), 1);
        assert_eq!(lo.effective_weight(BankId(0), r), 2); // 2^ceil(log2(2))
                                                          // Not in history → hybrid behaves logarithmically.
        assert_eq!(loli.effective_weight(BankId(0), r), 2);
    }

    #[test]
    fn hybrid_switches_to_linear_on_history_hit() {
        let cfg = config();
        let mut m = TimeVarying::lolipromi(cfg, 5);
        drive_intervals(&mut m, 1000);
        let r = RowAddr(0);
        // Miss: logarithmic shaping of w=1000 → 1024.
        assert_eq!(m.effective_weight(BankId(0), r), 1024);
        // Trigger to insert into history.
        let mut actions = Vec::new();
        while actions.is_empty() {
            m.on_activate(BankId(0), r, &mut actions);
        }
        drive_intervals(&mut m, 100);
        // Hit: linear weight from the trigger interval (100), not 2^k.
        assert_eq!(m.effective_weight(BankId(0), r), 100);
    }

    #[test]
    fn window_wrap_clears_history_and_interval() {
        let cfg = config();
        let mut m = TimeVarying::lipromi(cfg, 6);
        drive_intervals(&mut m, 4000);
        let mut actions = Vec::new();
        while actions.is_empty() {
            m.on_activate(BankId(0), RowAddr(0), &mut actions);
        }
        assert_eq!(m.effective_weight(BankId(0), RowAddr(0)), 0);
        // Complete the window: interval wraps to 0 and history clears, so
        // the weight falls back to f_r-based (0 for row 0 at interval 0).
        drive_intervals(&mut m, cfg.ref_int - 4000);
        assert_eq!(m.current_interval(), 0);
        assert_eq!(m.effective_weight(BankId(0), RowAddr(0)), 0);
        // And a row with a late refresh slot is stale again.
        assert!(m.effective_weight(BankId(0), RowAddr(65_535)) >= 1);
    }

    #[test]
    fn trigger_rate_tracks_probability() {
        // At weight w the trigger probability is w·2^-23.  With w = 8000
        // and 100 K draws we expect ≈ 95 triggers; accept a wide band.
        let mut m = TimeVarying::lipromi(config(), 7);
        drive_intervals(&mut m, 8000);
        let mut actions = Vec::new();
        let mut hits = 0u32;
        for _ in 0..100_000 {
            m.on_activate(BankId(0), RowAddr(0), &mut actions);
            hits += actions.len() as u32;
            actions.clear();
            // Re-clear history so every draw uses the same weight.
            m.histories[0].clear();
        }
        let expected = 100_000.0 * 8000.0 / (1u64 << 23) as f64;
        assert!(
            (f64::from(hits) - expected).abs() < expected * 0.4,
            "hits {hits}, expected ≈ {expected:.1}"
        );
    }

    #[test]
    fn storage_is_history_only() {
        let m = TimeVarying::lipromi(config(), 1);
        assert_eq!(m.storage_bits_per_bank(), 960);
        assert!((m.storage_bytes_per_bank() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn batched_override_matches_scalar_path() {
        use mem_trace::TraceEvent;
        let cfg = config();
        for mode in [
            WeightMode::Linear,
            WeightMode::Logarithmic,
            WeightMode::Hybrid,
        ] {
            let mut scalar = TimeVarying::new(cfg, mode, 9);
            let mut batched = TimeVarying::new(cfg, mode, 9);
            drive_intervals(&mut scalar, 6000);
            drive_intervals(&mut batched, 6000);

            // One interval of mixed traffic, hot rows included.
            let events: Vec<TraceEvent> = (0..512)
                .map(|i| TraceEvent::benign(BankId(0), RowAddr([0, 123, 65_000][i % 3])))
                .collect();
            let mut batch = EventBatch::new();
            batch.push_interval(&events);

            let mut expected = Vec::new();
            for e in &events {
                scalar.on_activate(e.bank, e.row, &mut expected);
            }
            let mut sink = ActionSink::new();
            batched.on_batch(&batch, batch.segment(0), &mut sink);
            let mut got = Vec::new();
            for tag in 0..events.len() as u32 {
                while let Some(a) = sink.next_for(tag) {
                    got.push(a);
                }
            }
            assert_eq!(got, expected, "{mode:?} diverged");
            assert_eq!(scalar.trigger_count(), batched.trigger_count());
        }
    }

    #[test]
    fn kernel_weight_bound_is_tight() {
        // The kernel skips draws at or above `RefInt.next_power_of_two()`:
        // no shaped weight may exceed it, and LoPRoMi's reaches it.
        for ref_int in [100u32, 128, 8192] {
            let bound = ref_int.next_power_of_two();
            let (mut linear, mut log) = (0, 0);
            for interval in 0..ref_int {
                // f_r = 0 gives every w once; the next slot gives the max.
                for f_r in [0, (interval + 1) % ref_int] {
                    let w = linear_weight(interval, f_r, ref_int);
                    linear = linear.max(w);
                    log = log.max(log_weight(w));
                }
            }
            assert!(linear < bound, "RefInt {ref_int}");
            assert_eq!(log, bound, "RefInt {ref_int}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = config();
        let run = |seed| {
            let mut m = TimeVarying::lopromi(cfg, seed);
            drive_intervals(&mut m, 2000);
            let mut actions = Vec::new();
            for _ in 0..50_000 {
                m.on_activate(BankId(0), RowAddr(123), &mut actions);
            }
            actions.len()
        };
        assert_eq!(run(11), run(11));
    }
}
