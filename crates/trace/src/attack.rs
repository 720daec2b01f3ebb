//! Row-hammer attacker generators.
//!
//! The paper's attacker "has aggressors increasing gradually from 1 to 20
//! aggressors per targeted bank" and hammers with cache flushing, i.e. at
//! the maximum rate the bank will accept.  The generators here produce
//! exactly the activation patterns such code emits; every event is
//! labelled `aggressor = true` so the metrics layer has ground truth.

use crate::event::{IdleTrace, TraceEvent, TraceSource, TraceSplit};
use dram_sim::{BankId, RowAddr};
use serde::{Deserialize, Serialize};

/// The attack pattern to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Hammer a single aggressor row (victims: both its neighbors).
    SingleSided {
        /// The hammered row.
        aggressor: RowAddr,
    },
    /// Hammer both neighbors of one victim row.
    DoubleSided {
        /// The victim row between the two aggressors.
        victim: RowAddr,
    },
    /// The paper's evaluation attack: the number of simultaneously
    /// hammered aggressors ramps linearly from 1 to `max_aggressors`
    /// over the attack duration.  Aggressors sit at
    /// `base_row, base_row+2, base_row+4, …`, so consecutive aggressors
    /// flank shared victims (a many-sided attack).
    MultiAggressorRamp {
        /// First aggressor row.
        base_row: RowAddr,
        /// Final number of aggressors per targeted bank (paper: 20).
        max_aggressors: u32,
    },
    /// Flooding: one row hammered at the attacker's full budget —
    /// the §IV stress test against LiPRoMi's slow weight ramp.
    Flooding {
        /// The flooded row.
        row: RowAddr,
    },
    /// Decoy-assisted double-sided hammering (TRRespass-style): both
    /// neighbors of `victim` are hammered while `decoys` far-away rows
    /// are interleaved to churn recency/insertion-based tracker state
    /// (MRLoc's queue, ProHit's cold table, CaPRoMi's counter table).
    /// The budget is shared round-robin, so more decoys mean a slower
    /// hammer — the attacker's fundamental trade-off.
    DecoyAssisted {
        /// The victim row between the two aggressors.
        victim: RowAddr,
        /// Number of decoy rows (placed 10 000 rows above the victim).
        decoys: u32,
    },
    /// Phase-shifted many-sided ramp: the aggressor count ramps exactly
    /// like [`AttackKind::MultiAggressorRamp`], but the whole aggressor
    /// block relocates to a different row region every
    /// `shift_intervals` intervals, cycling through four disjoint
    /// positions.  Relocation costs the attacker almost nothing — a
    /// victim's disturbance counter is cleared by its once-per-window
    /// auto-refresh anyway — while any *cross-window* per-row tracker
    /// state (TWiCe lifetime counts, Graphene epoch tables, CaPRoMi
    /// counters, MRLoc queue residency) is built against rows the
    /// attack no longer touches.
    PhaseShifted {
        /// First aggressor row of position 0; positions `p` start at
        /// `base_row + p * 2 * max_aggressors`.
        base_row: RowAddr,
        /// Final number of aggressors per targeted bank.
        max_aggressors: u32,
        /// Intervals between relocations (typically one refresh
        /// window); `0` disables relocation.
        shift_intervals: u64,
    },
    /// Profiling sweep (the exploit subsystem's phase-1 pattern): a
    /// double-sided hammer whose victim slides across a span of rows,
    /// dwelling `dwell_intervals` on each victim before advancing and
    /// wrapping at the end of the span.  The per-victim hammer budget is
    /// therefore `dwell_intervals * acts_per_interval` — the knob an
    /// attacker turns to separate weak rows (which flip inside the
    /// dwell) from strong ones (which don't), building a weak-cell map
    /// from nothing but observed flips.
    ProfilingSweep {
        /// First victim row of the sweep.
        base_row: RowAddr,
        /// Number of consecutive victim rows covered before wrapping.
        span_rows: u32,
        /// Intervals spent on each victim before advancing (`0` acts
        /// as 1).
        dwell_intervals: u64,
    },
    /// Refresh-synchronized burst: `pairs` adjacent aggressors (spaced
    /// two apart, flanking shared victims) are hammered only during the
    /// first `duty_intervals` of every `period_intervals`-long period,
    /// offset by `phase`.  Aligning the duty cycle with the victims'
    /// refresh slot concentrates the entire budget into the stretch
    /// where a time-varying mitigation's selection probability is still
    /// ramping up from its post-refresh floor — the attack spends
    /// nothing while the defender is most likely to sample it.
    RefreshSyncBurst {
        /// First aggressor row.
        base_row: RowAddr,
        /// Number of aggressor rows (spaced two apart).
        pairs: u32,
        /// Active intervals at the start of each period.
        duty_intervals: u64,
        /// Period length in intervals (typically one refresh window);
        /// `0` means always active.
        period_intervals: u64,
        /// Offset of the duty window within the period.
        phase: u64,
    },
}

impl AttackKind {
    /// The most aggressor rows this pattern hammers in any one interval.
    fn largest_aggressor_set(&self) -> usize {
        let count = match *self {
            AttackKind::SingleSided { .. } | AttackKind::Flooding { .. } => 1,
            AttackKind::DoubleSided { .. } | AttackKind::ProfilingSweep { .. } => 2,
            AttackKind::DecoyAssisted { decoys, .. } => decoys.saturating_add(2),
            AttackKind::MultiAggressorRamp { max_aggressors, .. }
            | AttackKind::PhaseShifted { max_aggressors, .. } => max_aggressors.max(1),
            AttackKind::RefreshSyncBurst { pairs, .. } => pairs.max(1),
        };
        usize::try_from(count).expect("aggressor count fits usize")
    }
}

/// Number of disjoint aggressor-block positions
/// [`AttackKind::PhaseShifted`] cycles through.
pub const PHASE_SHIFT_SLOTS: u64 = 4;

/// A parameterised attacker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// The pattern.
    pub kind: AttackKind,
    /// Banks under attack (the paper attacks each targeted bank
    /// independently with the same pattern).
    pub target_banks: Vec<BankId>,
    /// Attacker activation budget per targeted bank per refresh interval
    /// (bounded by the DDR4 165 minus whatever the benign mix uses).
    pub acts_per_interval: u32,
    /// Interval at which the attack starts.
    pub start_interval: u64,
    /// Total trace length in intervals.
    pub intervals: u64,
    /// For [`AttackKind::MultiAggressorRamp`]: how many intervals each
    /// aggressor-count step lasts.  `0` spreads the ramp linearly over
    /// the whole attack duration.  The paper ramps 1→20 aggressors over
    /// ≈190 refresh windows, i.e. each step holds for ≈9.5 windows, so
    /// short runs should hold each step for at least one window —
    /// otherwise the low-aggressor phases are too brief for their
    /// (strongest) attacks to develop.
    pub ramp_hold_intervals: u64,
}

impl AttackConfig {
    /// The paper's ramping attack on `banks`, lasting `intervals`, with
    /// each aggressor-count step held for at least one refresh window of
    /// `intervals_per_window` intervals.
    ///
    /// The budget of 24 activations per bank-interval keeps the mixed
    /// trace near the paper's ≈40 activations per bank-interval average
    /// while still flipping bits unprotected in the 1–2-aggressor
    /// phases (a victim needs ≥ 17 disturbances per interval sustained
    /// over its refresh window to reach 139 K).
    pub fn paper_ramp(banks: u32, intervals: u64, intervals_per_window: u64) -> Self {
        AttackConfig {
            kind: AttackKind::MultiAggressorRamp {
                base_row: RowAddr(30_000),
                max_aggressors: 20,
            },
            target_banks: (0..banks).map(BankId).collect(),
            acts_per_interval: 24,
            start_interval: 0,
            intervals,
            ramp_hold_intervals: (intervals / 20).max(intervals_per_window),
        }
    }

    /// A flooding attack against one bank.
    pub fn flooding(row: RowAddr, intervals: u64) -> Self {
        AttackConfig {
            kind: AttackKind::Flooding { row },
            target_banks: vec![BankId(0)],
            acts_per_interval: 137,
            start_interval: 0,
            intervals,
            ramp_hold_intervals: 0,
        }
    }
}

/// The attacker trace source.
///
/// ```
/// use mem_trace::{AttackConfig, AttackKind, Attacker, TraceSource};
/// use dram_sim::{BankId, RowAddr};
///
/// let config = AttackConfig {
///     kind: AttackKind::DoubleSided { victim: RowAddr(100) },
///     target_banks: vec![BankId(0)],
///     acts_per_interval: 10,
///     start_interval: 0,
///     intervals: 1,
///     ramp_hold_intervals: 0,
/// };
/// let mut attacker = Attacker::new(config);
/// let mut out = Vec::new();
/// attacker.next_interval(&mut out);
/// assert_eq!(out.len(), 10);
/// assert!(out.iter().all(|e| e.aggressor));
/// assert!(out.iter().all(|e| e.row == RowAddr(99) || e.row == RowAddr(101)));
/// ```
#[derive(Debug, Clone)]
pub struct Attacker {
    config: AttackConfig,
    interval: u64,
    /// Round-robin offset so the budget rotates fairly across aggressors
    /// when it does not divide evenly.
    rotation: u32,
    /// The current interval's aggressor block, reused across intervals.
    block: Vec<RowAddr>,
}

impl Attacker {
    /// Creates the attacker for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `target_banks` is empty or the budget is zero.
    pub fn new(config: AttackConfig) -> Self {
        assert!(
            !config.target_banks.is_empty(),
            "attack needs a target bank"
        );
        assert!(
            config.acts_per_interval > 0,
            "attack budget must be nonzero"
        );
        // Sized once for the largest block, so no interval grows it.
        let block = Vec::with_capacity(config.kind.largest_aggressor_set());
        Attacker {
            config,
            interval: 0,
            rotation: 0,
            block,
        }
    }

    /// The aggressor rows active at `interval`.
    pub fn aggressors_at(&self, interval: u64) -> Vec<RowAddr> {
        let mut rows = Vec::new();
        self.fill_aggressors(interval, &mut rows);
        rows
    }

    /// Replaces `rows` with the aggressor rows active at `interval`.
    fn fill_aggressors(&self, interval: u64, rows: &mut Vec<RowAddr>) {
        rows.clear();
        let spaced = |base: u32, count: u32| (0..count).map(move |j| RowAddr(base + 2 * j));
        match self.config.kind {
            AttackKind::SingleSided { aggressor } => rows.push(aggressor),
            AttackKind::DoubleSided { victim } => {
                rows.extend([RowAddr(victim.0.saturating_sub(1)), RowAddr(victim.0 + 1)]);
            }
            AttackKind::Flooding { row } => rows.push(row),
            AttackKind::DecoyAssisted { victim, decoys } => {
                rows.extend([RowAddr(victim.0.saturating_sub(1)), RowAddr(victim.0 + 1)]);
                rows.extend((0..decoys).map(|d| RowAddr(victim.0 + 10_000 + 2 * d)));
            }
            AttackKind::MultiAggressorRamp {
                base_row,
                max_aggressors,
            } => {
                let k = self.ramp_count(interval, max_aggressors);
                rows.extend(spaced(base_row.0, k.max(1)));
            }
            AttackKind::PhaseShifted {
                base_row,
                max_aggressors,
                shift_intervals,
            } => {
                let k = self.ramp_count(interval, max_aggressors);
                let elapsed = interval.saturating_sub(self.config.start_interval);
                let slot = match shift_intervals {
                    0 => 0,
                    s => (elapsed / s) % PHASE_SHIFT_SLOTS,
                };
                let slot = u32::try_from(slot).expect("slot index below PHASE_SHIFT_SLOTS");
                rows.extend(spaced(base_row.0 + slot * 2 * max_aggressors, k.max(1)));
            }
            AttackKind::ProfilingSweep {
                base_row,
                span_rows,
                dwell_intervals,
            } => {
                let elapsed = interval.saturating_sub(self.config.start_interval);
                let step = elapsed / dwell_intervals.max(1);
                let offset = u32::try_from(step % u64::from(span_rows.max(1)))
                    .expect("offset is below span_rows");
                let victim = base_row.0 + offset;
                rows.extend([RowAddr(victim.saturating_sub(1)), RowAddr(victim + 1)]);
            }
            AttackKind::RefreshSyncBurst {
                base_row,
                pairs,
                duty_intervals,
                period_intervals,
                phase,
            } => {
                let elapsed = interval.saturating_sub(self.config.start_interval);
                let active = match period_intervals {
                    0 => true,
                    p => (elapsed + p - phase % p) % p < duty_intervals,
                };
                if active {
                    rows.extend(spaced(base_row.0, pairs.max(1)));
                }
            }
        }
    }

    /// The ramping aggressor count at `interval`, guaranteed to reach
    /// `max_aggressors` in the final interval of the attack.
    ///
    /// The stepped schedule holds each count for `ramp_hold_intervals`
    /// (preserving the long low-aggressor phases — the strongest part
    /// of the attack), but is clamped from the end so the staircase
    /// never schedules a step too late for the remaining counts to each
    /// get at least one interval before the attack ends.  On a short
    /// run the old schedule stalled below the maximum — the off-by-one
    /// pinned by the proptests in `tests/ramp.rs`.
    fn ramp_count(&self, interval: u64, max_aggressors: u32) -> u32 {
        let elapsed = interval.saturating_sub(self.config.start_interval);
        let duration = self
            .config
            .intervals
            .saturating_sub(self.config.start_interval);
        let span = u64::from(max_aggressors.saturating_sub(1));
        if duration <= 1 || span == 0 {
            return max_aggressors;
        }
        let elapsed = elapsed.min(duration - 1);
        let hold = self.config.ramp_hold_intervals;
        let max = u64::from(max_aggressors);
        let count = match elapsed.checked_div(hold) {
            Some(steps) => {
                // Stepped ramp, with a deadline floor: by interval `e`
                // the count must be at least `max - (remaining
                // intervals)` or the tail of the staircase cannot fit.
                let stepped = 1 + steps.min(span);
                let deadline = max.saturating_sub(duration - 1 - elapsed);
                stepped.max(deadline).min(max)
            }
            // No hold: linear ramp over the whole duration; exact at
            // both ends.
            None => 1 + elapsed * span / (duration - 1),
        };
        u32::try_from(count).expect("ramp count is bounded by max_aggressors")
    }

    /// All rows that are potential victims of this attack (the physical
    /// neighbors of every aggressor that can ever be active) — used by
    /// the reliability analysis.
    pub fn victim_rows(&self) -> Vec<RowAddr> {
        // The sweep makes every row in its span the victim at some
        // interval (each is also an aggressor at *other* intervals, but
        // the usual aggressor exclusion is per-instant, not across
        // time), so the victim set is the span itself.
        if let AttackKind::ProfilingSweep {
            base_row,
            span_rows,
            ..
        } = self.config.kind
        {
            return (0..span_rows.max(1))
                .map(|d| RowAddr(base_row.0 + d))
                .collect();
        }
        let mut aggressors = self.aggressors_at(self.config.intervals.saturating_sub(1));
        aggressors.extend(self.aggressors_at(self.config.start_interval));
        match self.config.kind {
            // The aggressor block relocates over time: union the full
            // block over every position it can occupy.
            AttackKind::PhaseShifted {
                base_row,
                max_aggressors,
                shift_intervals,
            } if shift_intervals > 0 => {
                for slot in 0..u32::try_from(PHASE_SHIFT_SLOTS).expect("slot count fits u32") {
                    let base = base_row.0 + slot * 2 * max_aggressors;
                    aggressors.extend((0..max_aggressors.max(1)).map(|j| RowAddr(base + 2 * j)));
                }
            }
            // The burst may be off-duty at the sampled intervals: take
            // the full aggressor set directly.
            AttackKind::RefreshSyncBurst {
                base_row, pairs, ..
            } => {
                aggressors.extend((0..pairs.max(1)).map(|j| RowAddr(base_row.0 + 2 * j)));
            }
            _ => {}
        }
        let mut victims: Vec<RowAddr> = aggressors
            .iter()
            .flat_map(|a| [RowAddr(a.0.saturating_sub(1)), RowAddr(a.0 + 1)])
            .collect();
        victims.sort_unstable();
        victims.dedup();
        // A row that is itself an aggressor is being refreshed by the
        // attack and is not a meaningful victim.
        let aggr: std::collections::BTreeSet<RowAddr> = aggressors.into_iter().collect();
        victims.retain(|v| !aggr.contains(v));
        victims
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }
}

impl TraceSource for Attacker {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        if self.interval >= self.config.intervals {
            return false;
        }
        if self.interval >= self.config.start_interval {
            let mut block = std::mem::take(&mut self.block);
            self.fill_aggressors(self.interval, &mut block);
            let n = u32::try_from(block.len()).expect("aggressor count fits u32");
            // An empty set (a burst pattern off-duty) emits nothing and
            // leaves the rotation untouched.
            if n > 0 {
                // Shot `s` hammers `block[(s + rotation) % n]`: walk the
                // block cyclically from the rotation instead.
                let first = (self.rotation % n) as usize;
                let shots = self.config.acts_per_interval as usize;
                for &bank in &self.config.target_banks {
                    let mut idx = first;
                    for _ in 0..shots {
                        out.push(TraceEvent::attack(bank, block[idx]));
                        idx += 1;
                        if idx == block.len() {
                            idx = 0;
                        }
                    }
                }
                self.rotation = (self.rotation + self.config.acts_per_interval) % n;
            }
            self.block = block;
        }
        self.interval += 1;
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.config.intervals)
    }
}

impl TraceSplit for Attacker {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        if self.config.target_banks.contains(&bank) {
            // The attacker is deterministic and emits the identical
            // aggressor block to every targeted bank (the rotation
            // advances once per interval, after all banks), so the
            // bank-`bank` sub-stream is the same attack with a single
            // target.
            let mut config = self.config.clone();
            config.target_banks = vec![bank];
            Box::new(Attacker::new(config))
        } else {
            Box::new(IdleTrace::new(self.config.intervals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sided_hammers_one_row() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::SingleSided {
                aggressor: RowAddr(5),
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 4,
            start_interval: 0,
            intervals: 3,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        while a.next_interval(&mut out) {}
        assert_eq!(out.len(), 12);
        assert!(out.iter().all(|e| e.row == RowAddr(5) && e.aggressor));
    }

    #[test]
    fn double_sided_splits_budget_evenly() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::DoubleSided {
                victim: RowAddr(100),
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 10,
            start_interval: 0,
            intervals: 10,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        while a.next_interval(&mut out) {}
        let left = out.iter().filter(|e| e.row == RowAddr(99)).count();
        let right = out.iter().filter(|e| e.row == RowAddr(101)).count();
        assert_eq!(left, 50);
        assert_eq!(right, 50);
    }

    #[test]
    fn ramp_grows_from_one_to_max() {
        let a = Attacker::new(AttackConfig::paper_ramp(1, 1000, 0));
        assert_eq!(a.aggressors_at(0).len(), 1);
        assert_eq!(a.aggressors_at(999).len(), 20);
        let mid = a.aggressors_at(500).len();
        assert!((9..=12).contains(&mid), "midpoint count {mid}");
        // Aggressors are spaced two apart (shared victims between them).
        let rows = a.aggressors_at(999);
        for w in rows.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 2);
        }
    }

    #[test]
    fn victims_flank_aggressors() {
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::SingleSided {
                aggressor: RowAddr(5),
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 1,
            start_interval: 0,
            intervals: 1,
            ramp_hold_intervals: 0,
        });
        assert_eq!(a.victim_rows(), vec![RowAddr(4), RowAddr(6)]);
    }

    #[test]
    fn ramp_victims_exclude_aggressors() {
        let a = Attacker::new(AttackConfig::paper_ramp(1, 100, 0));
        let victims = a.victim_rows();
        let aggressors = a.aggressors_at(99);
        for v in &victims {
            assert!(!aggressors.contains(v));
        }
        // The interleaved victims 30001, 30003, … are all present.
        assert!(victims.contains(&RowAddr(30_001)));
        assert!(victims.contains(&RowAddr(30_039)));
    }

    #[test]
    fn start_interval_delays_attack() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::Flooding { row: RowAddr(7) },
            target_banks: vec![BankId(0)],
            acts_per_interval: 5,
            start_interval: 2,
            intervals: 4,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        a.next_interval(&mut out);
        a.next_interval(&mut out);
        assert!(out.is_empty());
        a.next_interval(&mut out);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn multiple_banks_each_get_full_budget() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::Flooding { row: RowAddr(7) },
            target_banks: vec![BankId(0), BankId(2)],
            acts_per_interval: 3,
            start_interval: 0,
            intervals: 1,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        a.next_interval(&mut out);
        assert_eq!(out.iter().filter(|e| e.bank == BankId(0)).count(), 3);
        assert_eq!(out.iter().filter(|e| e.bank == BankId(2)).count(), 3);
    }

    #[test]
    #[should_panic(expected = "target bank")]
    fn empty_targets_rejected() {
        let _ = Attacker::new(AttackConfig {
            kind: AttackKind::Flooding { row: RowAddr(7) },
            target_banks: vec![],
            acts_per_interval: 3,
            start_interval: 0,
            intervals: 1,
            ramp_hold_intervals: 0,
        });
    }

    #[test]
    fn short_ramp_still_reaches_max_aggressors() {
        // A hold too long for the duration must not stall the ramp: the
        // schedule compresses to linear and hits max in the final
        // interval (this is the off-by-one the redteam search tripped
        // over with quick-scale durations).
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::MultiAggressorRamp {
                base_row: RowAddr(100),
                max_aggressors: 20,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 4,
            start_interval: 0,
            intervals: 256,
            ramp_hold_intervals: 128,
        });
        assert_eq!(a.aggressors_at(0).len(), 1);
        assert_eq!(a.aggressors_at(255).len(), 20);
    }

    #[test]
    fn phase_shifted_relocates_block_each_window() {
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::PhaseShifted {
                base_row: RowAddr(1000),
                max_aggressors: 4,
                shift_intervals: 100,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 4,
            start_interval: 0,
            intervals: 400,
            ramp_hold_intervals: 0,
        });
        // Position 0 in the first window, position 1 in the second, and
        // wrap-around after PHASE_SHIFT_SLOTS windows.
        assert_eq!(a.aggressors_at(0)[0], RowAddr(1000));
        assert_eq!(a.aggressors_at(100)[0], RowAddr(1008));
        assert_eq!(a.aggressors_at(399)[0], RowAddr(1024));
        // The final interval still reaches max_aggressors.
        assert_eq!(a.aggressors_at(399).len(), 4);
        // Victims cover every position the block can occupy.
        let victims = a.victim_rows();
        assert!(victims.contains(&RowAddr(1001)));
        assert!(victims.contains(&RowAddr(1009)));
        assert!(victims.contains(&RowAddr(1025)));
    }

    #[test]
    fn refresh_sync_burst_is_silent_off_duty() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::RefreshSyncBurst {
                base_row: RowAddr(200),
                pairs: 2,
                duty_intervals: 3,
                period_intervals: 10,
                phase: 0,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 6,
            start_interval: 0,
            intervals: 20,
            ramp_hold_intervals: 0,
        });
        let mut per_interval = Vec::new();
        let mut out = Vec::new();
        loop {
            out.clear();
            if !a.next_interval(&mut out) {
                break;
            }
            per_interval.push(out.len());
        }
        // 3 active intervals per 10-interval period, 2 periods.
        assert_eq!(per_interval.iter().filter(|&&n| n > 0).count(), 6);
        assert_eq!(per_interval.iter().sum::<usize>(), 6 * 6);
        assert!(per_interval[0] > 0 && per_interval[3] == 0);
        // The burst victims are known even when sampled off-duty.
        assert!(a.victim_rows().contains(&RowAddr(201)));
    }

    #[test]
    fn burst_phase_delays_duty_window() {
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::RefreshSyncBurst {
                base_row: RowAddr(200),
                pairs: 1,
                duty_intervals: 2,
                period_intervals: 8,
                phase: 3,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 1,
            start_interval: 0,
            intervals: 8,
            ramp_hold_intervals: 0,
        });
        let active: Vec<u64> = (0..8).filter(|&i| !a.aggressors_at(i).is_empty()).collect();
        assert_eq!(active, vec![3, 4]);
    }

    #[test]
    fn profiling_sweep_dwells_then_advances_and_wraps() {
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::ProfilingSweep {
                base_row: RowAddr(100),
                span_rows: 3,
                dwell_intervals: 2,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 4,
            start_interval: 0,
            intervals: 12,
            ramp_hold_intervals: 0,
        });
        // Two intervals on victim 100, then 101, 102, and wrap to 100.
        assert_eq!(a.aggressors_at(0), vec![RowAddr(99), RowAddr(101)]);
        assert_eq!(a.aggressors_at(1), vec![RowAddr(99), RowAddr(101)]);
        assert_eq!(a.aggressors_at(2), vec![RowAddr(100), RowAddr(102)]);
        assert_eq!(a.aggressors_at(4), vec![RowAddr(101), RowAddr(103)]);
        assert_eq!(a.aggressors_at(6), vec![RowAddr(99), RowAddr(101)]);
        // Every row of the span is a victim.
        assert_eq!(
            a.victim_rows(),
            vec![RowAddr(100), RowAddr(101), RowAddr(102)]
        );
    }

    #[test]
    fn profiling_sweep_zero_dwell_acts_as_one() {
        let a = Attacker::new(AttackConfig {
            kind: AttackKind::ProfilingSweep {
                base_row: RowAddr(10),
                span_rows: 2,
                dwell_intervals: 0,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 2,
            start_interval: 0,
            intervals: 4,
            ramp_hold_intervals: 0,
        });
        assert_eq!(a.aggressors_at(0), vec![RowAddr(9), RowAddr(11)]);
        assert_eq!(a.aggressors_at(1), vec![RowAddr(10), RowAddr(12)]);
        assert_eq!(a.aggressors_at(2), vec![RowAddr(9), RowAddr(11)]);
    }

    #[test]
    fn decoy_assisted_shares_budget_with_decoys() {
        let mut a = Attacker::new(AttackConfig {
            kind: AttackKind::DecoyAssisted {
                victim: RowAddr(100),
                decoys: 2,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 8,
            start_interval: 0,
            intervals: 10,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        while a.next_interval(&mut out) {}
        // 4 rows round-robin over 80 shots: 20 each.
        for row in [99u32, 101, 10_100, 10_102] {
            let n = out.iter().filter(|e| e.row == RowAddr(row)).count();
            assert_eq!(n, 20, "row {row}");
        }
        // The hammer pair gets only half the budget — the decoy cost.
        let pair: usize = out
            .iter()
            .filter(|e| e.row == RowAddr(99) || e.row == RowAddr(101))
            .count();
        assert_eq!(pair, 40);
    }

    #[test]
    fn no_interval_outgrows_the_presized_block() {
        let kinds = [
            AttackKind::SingleSided {
                aggressor: RowAddr(5),
            },
            AttackKind::DoubleSided {
                victim: RowAddr(100),
            },
            AttackKind::Flooding { row: RowAddr(7) },
            AttackKind::DecoyAssisted {
                victim: RowAddr(300),
                decoys: 12,
            },
            AttackKind::MultiAggressorRamp {
                base_row: RowAddr(500),
                max_aggressors: 20,
            },
            AttackKind::PhaseShifted {
                base_row: RowAddr(500),
                max_aggressors: 0,
                shift_intervals: 4,
            },
            AttackKind::ProfilingSweep {
                base_row: RowAddr(10),
                span_rows: 3,
                dwell_intervals: 2,
            },
            AttackKind::RefreshSyncBurst {
                base_row: RowAddr(40),
                pairs: 6,
                duty_intervals: 3,
                period_intervals: 8,
                phase: 1,
            },
        ];
        for kind in kinds {
            let a = Attacker::new(AttackConfig {
                kind,
                target_banks: vec![BankId(0)],
                acts_per_interval: 24,
                start_interval: 2,
                intervals: 64,
                ramp_hold_intervals: 3,
            });
            let largest = (0..64).map(|i| a.aggressors_at(i).len()).max();
            assert_eq!(largest, Some(kind.largest_aggressor_set()), "{kind:?}");
            assert!(a.block.capacity() >= kind.largest_aggressor_set());
        }
    }
}
