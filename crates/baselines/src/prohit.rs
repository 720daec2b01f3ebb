//! ProHit (Son et al., DAC 2017 — "Making DRAM Stronger Against Row
//! Hammering").
//!
//! ProHit tracks *victim candidates* (the neighbors of activated rows) in
//! two small per-bank tables: a cold table for newly seen victims and a
//! hot table for victims that keep reappearing.  Insertion and promotion
//! are probabilistic, which keeps the tables tiny; at every refresh
//! interval the top entry of the hot table is refreshed and retired.
//! This defends the sequential multi-aggressor pattern PARA struggles
//! with, at the price of the highest activation overhead and
//! false-positive rate in Table III — the hot-table top is refreshed
//! whether or not it was a real aggressor's victim.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::EventBatch;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{draw, ActionSink, BankRngs, Mitigation, MitigationAction};

/// Configuration of a [`ProHit`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProHitConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank (for neighbor arithmetic and address widths).
    pub rows_per_bank: u32,
    /// Hot-table entries per bank (paper: 4).
    pub hot_entries: usize,
    /// Cold-table entries per bank (paper: 4).
    pub cold_entries: usize,
    /// Probability that an activation's victims are processed at all —
    /// the probabilistic insertion/promotion that keeps table churn and
    /// overhead bounded.
    pub select_probability: f64,
}

impl ProHitConfig {
    /// The DAC 2017 configuration: 4 hot + 4 cold entries; the selection
    /// probability is calibrated so the hot table drains roughly every
    /// other refresh interval, matching the ≈ 0.6 % activation overhead
    /// of Table III.
    pub fn paper(geometry: &Geometry) -> Self {
        ProHitConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            hot_entries: 4,
            cold_entries: 4,
            select_probability: 0.01,
        }
    }
}

/// Per-bank ProHit state.
#[derive(Debug, Clone, Default)]
struct Tables {
    /// Hot table, index 0 = top (next to be refreshed).
    hot: Vec<RowAddr>,
    /// Cold table, index 0 = most recently inserted.
    cold: Vec<RowAddr>,
}

impl Tables {
    fn process_victim(&mut self, victim: RowAddr, hot_entries: usize, cold_entries: usize) {
        if let Some(pos) = self.hot.iter().position(|&r| r == victim) {
            // Promote one slot toward the top.
            if pos > 0 {
                self.hot.swap(pos, pos - 1);
            }
            return;
        }
        if let Some(pos) = self.cold.iter().position(|&r| r == victim) {
            // Promote cold → hot bottom; a full hot table demotes its
            // bottom entry back to the cold top.
            self.cold.remove(pos);
            if self.hot.len() >= hot_entries {
                let demoted = self.hot.pop().expect("hot table nonempty");
                self.cold.insert(0, demoted);
                self.cold.truncate(cold_entries);
            }
            self.hot.push(victim);
            return;
        }
        // New victim: insert at the cold top, evicting the bottom.
        self.cold.insert(0, victim);
        self.cold.truncate(cold_entries);
    }

    /// Both neighbors of a selected activation enter the tables.
    fn process_event(&mut self, row: RowAddr, config: &ProHitConfig) {
        if row.0 > 0 {
            self.process_victim(RowAddr(row.0 - 1), config.hot_entries, config.cold_entries);
        }
        if row.0 + 1 < config.rows_per_bank {
            self.process_victim(RowAddr(row.0 + 1), config.hot_entries, config.cold_entries);
        }
    }
}

/// The ProHit mitigation.
///
/// ```
/// use rh_baselines::ProHit;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut prohit = ProHit::paper(&Geometry::paper(), 3);
/// let mut actions = Vec::new();
/// // Hammer: the victims of row 1000 migrate cold → hot and the
/// // interval refresh drains the hot-table top.
/// for _ in 0..50 {
///     for _ in 0..165 {
///         prohit.on_activate(BankId(0), RowAddr(1000), &mut actions);
///     }
///     prohit.on_refresh_interval(&mut actions);
/// }
/// assert!(actions.iter().any(|a| a.row() == RowAddr(999) || a.row() == RowAddr(1001)));
/// ```
#[derive(Debug)]
pub struct ProHit {
    config: ProHitConfig,
    banks: Vec<Tables>,
    rngs: BankRngs,
}

impl ProHit {
    /// Creates ProHit from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either table size is zero or the probability is not in
    /// `[0, 1]`.
    pub fn new(config: ProHitConfig, seed: u64) -> Self {
        assert!(
            config.hot_entries > 0 && config.cold_entries > 0,
            "empty tables"
        );
        assert!(
            (0.0..=1.0).contains(&config.select_probability),
            "probability must be in [0, 1]"
        );
        ProHit {
            banks: (0..config.banks).map(|_| Tables::default()).collect(),
            rngs: BankRngs::with_banks(seed, config.banks),
            config,
        }
    }

    /// The paper configuration (see [`ProHitConfig::paper`]).
    pub fn paper(geometry: &Geometry, seed: u64) -> Self {
        ProHit::new(ProHitConfig::paper(geometry), seed)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ProHitConfig {
        &self.config
    }
}

impl Mitigation for ProHit {
    fn name(&self) -> &str {
        "ProHit"
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, _sink: &mut ActionSink) {
        // Lane kernel: per bank run, the selection draws are prefetched
        // in one block refill, one word per event, and gated against
        // the hoisted threshold (exactly the float gate at every `p`,
        // the clamped ends included — see `draw::threshold`).
        let threshold = draw::threshold(self.config.select_probability);
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let words = self.rngs.draw_block(bank, run.len());
            let tables = &mut self.banks[bank.index()];
            for (&word, i) in words.iter().zip(run) {
                if draw::gate_at(word, threshold) {
                    tables.process_event(rows[i], &self.config);
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        // "The top entry of the table is added to the list of rows that
        //  are refreshed in the next refresh interval."
        for (bank_idx, tables) in self.banks.iter_mut().enumerate() {
            if !tables.hot.is_empty() {
                let victim = tables.hot.remove(0);
                actions.push(MitigationAction::RefreshRow {
                    bank: BankId(u32::try_from(bank_idx).expect("bank count fits u32")),
                    row: victim,
                });
            }
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        let row_bits = u64::from(u32::BITS - (self.config.rows_per_bank - 1).leading_zeros());
        ((self.config.hot_entries + self.config.cold_entries) as u64) * (row_bits + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prohit() -> ProHit {
        let mut cfg = ProHitConfig::paper(&Geometry::paper().with_banks(1));
        cfg.select_probability = 1.0; // deterministic tables for testing
        ProHit::new(cfg, 1)
    }

    #[test]
    fn new_victims_enter_cold_table() {
        let mut p = prohit();
        let mut actions = Vec::new();
        p.on_activate(BankId(0), RowAddr(100), &mut actions);
        assert!(p.banks[0].cold.contains(&RowAddr(99)));
        assert!(p.banks[0].cold.contains(&RowAddr(101)));
        assert!(p.banks[0].hot.is_empty());
    }

    #[test]
    fn repeat_victims_promote_to_hot() {
        let mut p = prohit();
        let mut actions = Vec::new();
        p.on_activate(BankId(0), RowAddr(100), &mut actions);
        p.on_activate(BankId(0), RowAddr(100), &mut actions);
        assert!(p.banks[0].hot.contains(&RowAddr(99)));
        assert!(p.banks[0].hot.contains(&RowAddr(101)));
    }

    #[test]
    fn refresh_drains_hot_top() {
        let mut p = prohit();
        let mut actions = Vec::new();
        p.on_activate(BankId(0), RowAddr(100), &mut actions);
        p.on_activate(BankId(0), RowAddr(100), &mut actions);
        p.on_refresh_interval(&mut actions);
        assert_eq!(actions.len(), 1);
        let refreshed = actions[0].row();
        assert!(refreshed == RowAddr(99) || refreshed == RowAddr(101));
        // One entry left in hot.
        assert_eq!(p.banks[0].hot.len(), 1);
    }

    #[test]
    fn empty_hot_table_refreshes_nothing() {
        let mut p = prohit();
        let mut actions = Vec::new();
        p.on_refresh_interval(&mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn cold_table_is_bounded() {
        let mut p = prohit();
        let mut actions = Vec::new();
        for r in (200..400).step_by(3) {
            p.on_activate(BankId(0), RowAddr(r), &mut actions);
        }
        assert!(p.banks[0].cold.len() <= p.config.cold_entries);
        assert!(p.banks[0].hot.len() <= p.config.hot_entries);
    }

    #[test]
    fn hammered_victim_reaches_hot_top() {
        let mut p = prohit();
        let mut actions = Vec::new();
        // Interleave a hammered row with noise; its victims must win.
        for i in 0..50u32 {
            p.on_activate(BankId(0), RowAddr(100), &mut actions);
            p.on_activate(BankId(0), RowAddr(500 + i * 3), &mut actions);
        }
        let top = p.banks[0].hot[0];
        assert!(top == RowAddr(99) || top == RowAddr(101), "top {top}");
    }

    #[test]
    fn storage_is_tens_of_bytes() {
        let p = ProHit::paper(&Geometry::paper(), 1);
        let bytes = p.storage_bytes_per_bank();
        assert!(bytes > 10.0 && bytes < 100.0, "got {bytes}");
    }

    #[test]
    fn batched_kernel_matches_one_event_batches() {
        use mem_trace::TraceEvent;
        // An interior and a clamped probability.
        for select_probability in [0.3, 1.0] {
            let mut cfg = ProHitConfig::paper(&Geometry::paper().with_banks(3));
            cfg.select_probability = select_probability;
            let mut kernel = ProHit::new(cfg, 7);
            let mut scalar = ProHit::new(cfg, 7);

            let mut events = Vec::new();
            for i in 0..400u32 {
                events.push(TraceEvent::benign(BankId(i % 3), RowAddr(100 + i % 11)));
            }
            let mut batch = mem_trace::EventBatch::new();
            batch.push_interval(&events);
            let mut sink = ActionSink::new();
            kernel.on_batch(&batch, batch.segment(0), &mut sink);
            let mut scratch = Vec::new();
            for e in &events {
                scalar.on_activate(e.bank, e.row, &mut scratch);
            }
            for (k, s) in kernel.banks.iter().zip(&scalar.banks) {
                assert_eq!(k.hot, s.hot);
                assert_eq!(k.cold, s.cold);
            }
            let mut kernel_actions = Vec::new();
            let mut scalar_actions = Vec::new();
            kernel.on_refresh_interval(&mut kernel_actions);
            scalar.on_refresh_interval(&mut scalar_actions);
            assert_eq!(kernel_actions, scalar_actions);
        }
    }
}
