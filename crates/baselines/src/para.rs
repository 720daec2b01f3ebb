//! PARA — Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
//!
//! The reference static-probability technique: "whenever a row is
//! activated, one of its neighboring rows is probabilistically activated
//! based on p".  Stateless — no tables, no counters — which is why it is
//! the resource-usage baseline of Table III.  Its weakness is the flip
//! side: the probability cannot adapt, so every activation of a benign
//! row carries the full `p = 0.001`, producing the highest class of
//! activation overhead and false positives among the compared schemes.
//!
//! The decision discipline is *one stream word per event*: the word's
//! high bits drive the Bernoulli gate and its low bit picks the
//! neighbor ([`tivapromi::draw`]), so the lane kernel can prefetch a
//! whole run's words in one block refill while the scalar path consumes
//! the identical sequence word by word.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::EventBatch;
use rand::RngCore;
use std::ops::Range;
use tivapromi::{draw, ActionSink, BankRngs, Mitigation, MitigationAction};

/// The PARA mitigation.
///
/// See the [crate example](crate) for usage.
#[derive(Debug)]
pub struct Para {
    probability: f64,
    rows_per_bank: u32,
    rngs: BankRngs,
}

/// The neighbor a triggered event refreshes: the word's direction bit
/// picks a side, edge rows fall back to their only neighbor.
#[inline]
fn neighbor_victim(row: RowAddr, word: u64, rows_per_bank: u32) -> RowAddr {
    if draw::direction_up(word) && row.0 + 1 < rows_per_bank {
        RowAddr(row.0 + 1)
    } else if row.0 > 0 {
        RowAddr(row.0 - 1)
    } else {
        RowAddr(row.0 + 1)
    }
}

impl Para {
    /// Creates PARA with an explicit trigger probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn new(probability: f64, rows_per_bank: u32, seed: u64) -> Self {
        Para::with_banks(probability, rows_per_bank, seed, 0)
    }

    /// [`Para::new`] with `banks` per-bank streams seeded eagerly — the
    /// construction the harness uses so the hot path never grows the
    /// RNG pool.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn with_banks(probability: f64, rows_per_bank: u32, seed: u64, banks: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be in [0, 1]"
        );
        Para {
            probability,
            rows_per_bank,
            rngs: BankRngs::with_banks(seed, banks),
        }
    }

    /// The paper's configuration: `p = 0.001` ("a value of at least
    /// 0.001 is considered as effective").
    pub fn paper(geometry: &Geometry, seed: u64) -> Self {
        Para::with_banks(0.001, geometry.rows_per_bank(), seed, geometry.banks())
    }

    /// The configured trigger probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl Mitigation for Para {
    fn name(&self) -> &str {
        "PARA"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let word = self.rngs.get(bank).next_u64();
        if draw::gate(word, self.probability) {
            let victim = neighbor_victim(row, word, self.rows_per_bank);
            actions.push(MitigationAction::RefreshRow { bank, row: victim });
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: per bank run, one stream refill covers the whole
        // run (one word per event), the gate is a single integer compare
        // against the hoisted threshold (exactly the float gate — see
        // `draw::threshold`), and the row column is read directly.
        // Word k decides event k of the run — the exact stream positions
        // the scalar path consumes — so batched ≡ scalar bit for bit.
        let threshold = draw::threshold(self.probability);
        let rows_per_bank = self.rows_per_bank;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let words = self.rngs.draw_block(bank, run.len());
            for (&word, i) in words.iter().zip(run) {
                if draw::gate_at(word, threshold) {
                    let victim = neighbor_victim(rows[i], word, rows_per_bank);
                    sink.push(i as u32, MitigationAction::RefreshRow { bank, row: victim });
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {}

    fn storage_bits_per_bank(&self) -> u64 {
        0 // stateless
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_rate_matches_probability() {
        let mut para = Para::new(0.01, 1024, 1);
        let mut actions = Vec::new();
        for _ in 0..100_000 {
            para.on_activate(BankId(0), RowAddr(500), &mut actions);
        }
        let rate = actions.len() as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.002, "rate {rate}");
    }

    #[test]
    fn refreshes_only_adjacent_rows() {
        let mut para = Para::new(0.5, 1024, 2);
        let mut actions = Vec::new();
        for _ in 0..1000 {
            para.on_activate(BankId(0), RowAddr(500), &mut actions);
        }
        assert!(actions.iter().all(|a| {
            let r = a.row().0;
            r == 499 || r == 501
        }));
        // Both sides are chosen.
        assert!(actions.iter().any(|a| a.row().0 == 499));
        assert!(actions.iter().any(|a| a.row().0 == 501));
    }

    #[test]
    fn edge_rows_never_select_outside_bank() {
        let mut para = Para::new(1.0, 8, 3);
        let mut actions = Vec::new();
        for _ in 0..100 {
            para.on_activate(BankId(0), RowAddr(0), &mut actions);
            para.on_activate(BankId(0), RowAddr(7), &mut actions);
        }
        assert!(actions.iter().all(|a| a.row().0 < 8));
    }

    #[test]
    fn stateless_has_zero_storage() {
        let g = Geometry::paper();
        assert_eq!(Para::paper(&g, 1).storage_bits_per_bank(), 0);
        assert!((Para::paper(&g, 1).probability() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn batched_kernel_matches_scalar_path() {
        use mem_trace::TraceEvent;
        // Mixed-bank traffic, including single-event runs.
        let mut events = Vec::new();
        for i in 0..512u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(100 + i % 7)));
        }
        let mut batch = EventBatch::new();
        batch.push_interval(&events);

        let mut kernel = Para::with_banks(0.5, 1024, 9, 3);
        let mut sink = ActionSink::new();
        kernel.on_batch(&batch, batch.segment(0), &mut sink);

        let mut scalar = Para::with_banks(0.5, 1024, 9, 3);
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
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = Para::new(1.5, 8, 1);
    }
}
