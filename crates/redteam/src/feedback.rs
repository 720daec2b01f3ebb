//! Mitigation-feedback coupling: an observer probe that publishes the
//! defense's actions onto a shared board, and the adaptive attacker
//! that reads the board to steer its next interval.
//!
//! The coupling is deliberately *bank-local*: the probe writes only the
//! slot of the bank an action addresses, and the attacker reads only
//! its own bank's slot.  Banks never observe each other, so a run with
//! a feedback-coupled attacker stays bit-identical between the
//! sequential engine and the bank-sharded engine — the shard of bank
//! `b` sees exactly the action stream the sequential run produced for
//! bank `b`, in the same order.

use dram_sim::{BankId, RowAddr};
use mem_trace::{IdleTrace, TraceEvent, TraceSource, TraceSplit};
use rh_harness::{Observe, Observer, ShardInfo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tivapromi::MitigationAction;

/// Per-bank counters of mitigation actions, shared between the probe
/// (writer) and the adaptive attacker (reader).
#[derive(Debug, Clone)]
pub struct FeedbackBoard {
    actions: Arc<Vec<AtomicU64>>,
}

impl FeedbackBoard {
    /// A board for `banks` banks, all counters zero.
    pub fn new(banks: u32) -> Self {
        FeedbackBoard {
            actions: Arc::new((0..banks.max(1)).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Records one mitigation action on `bank`.
    pub fn record(&self, bank: BankId) {
        if let Some(slot) = self.actions.get(bank.0 as usize) {
            #[expect(
                clippy::disallowed_methods,
                reason = "Relaxed: writer and reader of a bank-local slot are the same engine thread, so the RMW needs atomicity only, no cross-thread ordering"
            )]
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative mitigation actions observed on `bank`.
    #[expect(
        clippy::disallowed_methods,
        reason = "Relaxed: a same-thread read of a bank-local slot (see `record`) needs no ordering for determinism"
    )]
    pub fn actions_on(&self, bank: BankId) -> u64 {
        self.actions
            .get(bank.0 as usize)
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }
}

/// The observer side of the coupling: bumps the board slot of every
/// mitigation action's bank.
#[derive(Debug, Clone)]
pub struct FeedbackProbe {
    board: FeedbackBoard,
}

impl FeedbackProbe {
    /// A probe writing to `board`.
    pub fn new(board: FeedbackBoard) -> Self {
        FeedbackProbe { board }
    }
}

impl Observe for FeedbackProbe {
    fn observer(&self, _shard: &ShardInfo) -> Box<dyn Observer> {
        Box::new(FeedbackObserver {
            board: self.board.clone(),
        })
    }
}

struct FeedbackObserver {
    board: FeedbackBoard,
}

impl Observer for FeedbackObserver {
    fn on_action(&mut self, action: &MitigationAction, _true_positive: bool) {
        self.board.record(action.bank());
    }
}

/// A double-sided attacker that sprays decoy rows only while the
/// mitigation is reacting.
///
/// Each interval the attacker compares its bank's board counter against
/// the value it saw last interval.  New mitigation actions mean the
/// defense noticed: the attacker raises its decoy count (up to
/// `max_decoys`), diluting whatever the mitigation samples or tracks —
/// PARA-style probabilistic selection picks decoy neighbors, table
/// techniques (ProHit, MRLoc) evict the true aggressors.  A quiet
/// defense lets the attacker drop decoys one per interval and put the
/// whole budget back into hammering.
#[derive(Debug)]
pub struct AdaptiveDecoyAttack {
    bank: BankId,
    victim: RowAddr,
    acts_per_interval: u32,
    intervals: u64,
    max_decoys: u32,
    board: FeedbackBoard,
    adaptive: bool,
    produced: u64,
    seen_actions: u64,
    decoys: u32,
    decoy_cursor: u32,
}

impl AdaptiveDecoyAttack {
    /// A feedback-adaptive attack on `victim` in `bank`, reading
    /// `board` for the defense's reactions.
    pub fn new(
        bank: BankId,
        victim: RowAddr,
        acts_per_interval: u32,
        intervals: u64,
        max_decoys: u32,
        board: FeedbackBoard,
    ) -> Self {
        AdaptiveDecoyAttack {
            bank,
            victim,
            acts_per_interval: acts_per_interval.max(1),
            intervals,
            max_decoys,
            board,
            adaptive: true,
            produced: 0,
            seen_actions: 0,
            decoys: 0,
            decoy_cursor: 0,
        }
    }

    /// A non-adaptive variant holding a constant decoy level: the same
    /// decoy-interleaved hammering with the feedback loop disabled
    /// (used for the static decoy search shape, whose decoy rows must
    /// stay inside small search geometries).
    pub fn fixed(
        bank: BankId,
        victim: RowAddr,
        acts_per_interval: u32,
        intervals: u64,
        decoys: u32,
    ) -> Self {
        AdaptiveDecoyAttack {
            bank,
            victim,
            acts_per_interval: acts_per_interval.max(1),
            intervals,
            max_decoys: decoys,
            board: FeedbackBoard::new(1),
            adaptive: false,
            produced: 0,
            seen_actions: 0,
            decoys,
            decoy_cursor: 0,
        }
    }

    /// The decoy level the attacker is currently holding.
    pub fn decoy_level(&self) -> u32 {
        self.decoys
    }
}

impl TraceSource for AdaptiveDecoyAttack {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        if self.produced >= self.intervals {
            return false;
        }
        if self.adaptive {
            let now = self.board.actions_on(self.bank);
            if now > self.seen_actions {
                self.decoys = (self.decoys + 1).min(self.max_decoys);
            } else {
                self.decoys = self.decoys.saturating_sub(1);
            }
            self.seen_actions = now;
        }

        // One decoy interleaved after every hammer pair, up to the
        // current level; decoy rows live far above the victim so their
        // neighbors never overlap the attacked rows.
        let flanks = [
            RowAddr(self.victim.0.saturating_sub(1)),
            RowAddr(self.victim.0 + 1),
        ];
        let mut emitted = 0u32;
        let mut since_decoy = 0u32;
        while emitted < self.acts_per_interval {
            out.push(TraceEvent::attack(
                self.bank,
                flanks[(emitted % 2) as usize],
            ));
            emitted += 1;
            since_decoy += 1;
            if self.decoys > 0 && since_decoy >= 2 && emitted < self.acts_per_interval {
                let decoy = RowAddr(self.victim.0 + 64 + 2 * (self.decoy_cursor % self.decoys));
                self.decoy_cursor = self.decoy_cursor.wrapping_add(1);
                out.push(TraceEvent::attack(self.bank, decoy));
                emitted += 1;
                since_decoy = 0;
            }
        }
        self.produced += 1;
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.intervals)
    }

    fn max_batch_intervals(&self) -> u64 {
        // The adaptive variant reads the feedback board at the top of
        // every interval: batching ahead of the mitigation would break
        // the closed loop.  The fixed variant is open-loop and may be
        // prefetched freely.
        if self.adaptive {
            1
        } else {
            u64::MAX
        }
    }
}

impl TraceSplit for AdaptiveDecoyAttack {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        if bank == self.bank {
            // Fresh attacker state sharing the same board: the shard
            // re-derives the decoy schedule from the actions the
            // defense takes on this bank alone.
            Box::new(AdaptiveDecoyAttack {
                bank: self.bank,
                victim: self.victim,
                acts_per_interval: self.acts_per_interval,
                intervals: self.intervals,
                max_decoys: self.max_decoys,
                board: self.board.clone(),
                adaptive: self.adaptive,
                produced: 0,
                seen_actions: 0,
                decoys: if self.adaptive { 0 } else { self.max_decoys },
                decoy_cursor: 0,
            })
        } else {
            Box::new(IdleTrace::new(self.intervals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_is_bank_local() {
        let board = FeedbackBoard::new(2);
        board.record(BankId(0));
        board.record(BankId(0));
        board.record(BankId(1));
        assert_eq!(board.actions_on(BankId(0)), 2);
        assert_eq!(board.actions_on(BankId(1)), 1);
        // Out-of-range banks are ignored, not a panic.
        board.record(BankId(7));
        assert_eq!(board.actions_on(BankId(7)), 0);
    }

    #[test]
    fn probe_observer_records_actions() {
        let board = FeedbackBoard::new(1);
        let probe = FeedbackProbe::new(board.clone());
        let mut observer = probe.observer(&ShardInfo::whole_run());
        observer.on_action(
            &MitigationAction::RefreshRow {
                bank: BankId(0),
                row: RowAddr(10),
            },
            true,
        );
        assert_eq!(board.actions_on(BankId(0)), 1);
    }

    #[test]
    fn decoys_ramp_with_feedback_and_decay_without() {
        let board = FeedbackBoard::new(1);
        let mut attack = AdaptiveDecoyAttack::new(BankId(0), RowAddr(201), 8, 10, 4, board.clone());
        let mut out = Vec::new();

        // Quiet defense: no decoys, pure double-sided hammering.
        assert!(attack.next_interval(&mut out));
        assert_eq!(attack.decoy_level(), 0);
        assert!(out
            .iter()
            .all(|e| e.row == RowAddr(200) || e.row == RowAddr(202)));

        // The defense reacts: decoys appear next interval.
        board.record(BankId(0));
        out.clear();
        assert!(attack.next_interval(&mut out));
        assert_eq!(attack.decoy_level(), 1);
        assert!(out.iter().any(|e| e.row.0 >= 201 + 64));
        assert_eq!(out.len(), 8);

        // Quiet again: the level decays back down.
        out.clear();
        assert!(attack.next_interval(&mut out));
        assert_eq!(attack.decoy_level(), 0);
    }

    #[test]
    fn shard_shares_the_board_and_other_banks_idle() {
        let board = FeedbackBoard::new(2);
        let attack = AdaptiveDecoyAttack::new(BankId(0), RowAddr(201), 4, 3, 2, board.clone());
        let mut own = attack.bank_shard(BankId(0));
        let mut other = attack.bank_shard(BankId(1));
        let mut out = Vec::new();
        assert!(own.next_interval(&mut out));
        assert!(!out.is_empty());
        out.clear();
        assert!(other.next_interval(&mut out));
        assert!(out.is_empty());
    }
}
