//! Executable models of the paper's FSMs (Fig. 2 and Fig. 3).
//!
//! Each state carries a micro-op latency; walking the worst-case path of
//! a command reproduces Table II.  Latency assumptions, taken from the
//! FSM descriptions in §III:
//!
//! * History-table search compares **one entry per cycle** ("we
//!   sequentially search the table"; the search is overlapped with the
//!   activate-to-activate gap).
//! * CaPRoMi's counter-table search compares **two entries per cycle**
//!   (the table is twice as large but must fit the same 54-cycle DDR4
//!   budget, so the VHDL doubles the comparator lanes).
//! * Weight calculation costs one cycle for the subtractor (linear) and
//!   one for the modified priority encoder (logarithmic).  LoLiPRoMi
//!   computes *both* candidate weights speculatively during the search
//!   and merely muxes on the hit signal, saving its calculate-weight
//!   cycle — which is why Table II reports 36 cycles for LoLiPRoMi
//!   versus 37 for LiPRoMi/LoPRoMi.
//! * CaPRoMi's `ref`-side decision walk costs four cycles per counter
//!   entry (find linked history slot, Eq. 1 weight, Eq. 2 encoder,
//!   probabilistic decision).

use serde::{Deserialize, Serialize};

/// States of the Fig. 2 FSM (LiPRoMi / LoPRoMi / LoLiPRoMi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimeVaryingState {
    /// Waiting for a command.
    Idle,
    /// Sequential history-table search.
    SearchInTable,
    /// Weight computation (Eq. 1 / Eq. 2).
    CalculateWeight,
    /// Probabilistic decision (LFSR compare).
    Decide,
    /// Trigger path: raise `IRQ_RH` and update the history table.
    ActivateNeighborAndUpdateTable,
    /// `ref` path: bump the refresh-interval register.
    UpdateRefreshInterval,
    /// `ref` path on a new window: clear the history table.
    ResetTable,
}

/// States of the Fig. 3 FSM (CaPRoMi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CounterAssistedState {
    /// Waiting for a command.
    Idle,
    /// Counter-table search / increment (two entries per cycle).
    SearchIncrease,
    /// Insert a new entry.
    Insert,
    /// Table full: probabilistic replacement.
    Replace,
    /// Link the entry to its history-table slot.
    Link,
    /// Entry bookkeeping after a hit.
    Update,
    /// `ref` path: per-entry weight computation.
    Weight,
    /// `ref` path: Eq. 2 priority encoder.
    LogWeight,
    /// `ref` path: find the linked history interval.
    FindLinked,
    /// `ref` path: probabilistic decision.
    Decision,
}

/// One step of a worst-case FSM walk: the state and the cycles spent in
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step<S> {
    /// The state visited.
    pub state: S,
    /// Cycles spent in the state.
    pub cycles: u32,
}

/// Worst-case walk of the Fig. 2 FSM for an `act` command.
///
/// `log_weight_cycle` is 1 for LiPRoMi/LoPRoMi (a dedicated
/// calculate-weight cycle) and 0 for LoLiPRoMi (speculative computation
/// during the search).
pub fn time_varying_act_walk(
    history_entries: u32,
    calc_cycles: u32,
) -> Vec<Step<TimeVaryingState>> {
    vec![
        Step {
            state: TimeVaryingState::SearchInTable,
            cycles: history_entries,
        },
        Step {
            state: TimeVaryingState::CalculateWeight,
            cycles: calc_cycles,
        },
        Step {
            state: TimeVaryingState::Decide,
            cycles: 2,
        },
        Step {
            state: TimeVaryingState::ActivateNeighborAndUpdateTable,
            cycles: 2,
        },
    ]
}

/// Worst-case walk of the Fig. 2 FSM for a `ref` command (new window:
/// update interval, detect wrap, reset table).
pub fn time_varying_ref_walk() -> Vec<Step<TimeVaryingState>> {
    vec![
        Step {
            state: TimeVaryingState::UpdateRefreshInterval,
            cycles: 1,
        },
        Step {
            state: TimeVaryingState::Idle,
            cycles: 1,
        }, // window compare
        Step {
            state: TimeVaryingState::ResetTable,
            cycles: 1,
        },
    ]
}

/// Worst-case walk of the Fig. 3 FSM for an `act` command: search misses,
/// the table is full, the probabilistic replacement runs, and the entry
/// is linked against the history table.
pub fn counter_assisted_act_walk(counter_entries: u32) -> Vec<Step<CounterAssistedState>> {
    vec![
        Step {
            state: CounterAssistedState::SearchIncrease,
            cycles: counter_entries.div_ceil(2),
        },
        Step {
            state: CounterAssistedState::Insert,
            cycles: 4,
        },
        Step {
            state: CounterAssistedState::Replace,
            cycles: 6,
        },
        Step {
            state: CounterAssistedState::Link,
            cycles: 4,
        },
        Step {
            state: CounterAssistedState::Update,
            cycles: 4,
        },
    ]
}

/// Worst-case walk of the Fig. 3 FSM for a `ref` command: the decision
/// loop visits every counter entry (four cycles each), bracketed by one
/// setup and one teardown cycle.
pub fn counter_assisted_ref_walk(counter_entries: u32) -> Vec<Step<CounterAssistedState>> {
    let mut steps = vec![Step {
        state: CounterAssistedState::Idle,
        cycles: 1,
    }];
    steps.push(Step {
        state: CounterAssistedState::FindLinked,
        cycles: counter_entries,
    });
    steps.push(Step {
        state: CounterAssistedState::Weight,
        cycles: counter_entries,
    });
    steps.push(Step {
        state: CounterAssistedState::LogWeight,
        cycles: counter_entries,
    });
    steps.push(Step {
        state: CounterAssistedState::Decision,
        cycles: counter_entries,
    });
    steps.push(Step {
        state: CounterAssistedState::Idle,
        cycles: 1,
    });
    steps
}

/// Sums the cycles of a walk.
pub fn walk_cycles<S>(walk: &[Step<S>]) -> u32 {
    walk.iter().map(|s| s.cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn li_lo_act_walk_is_37_cycles() {
        assert_eq!(walk_cycles(&time_varying_act_walk(32, 1)), 37);
    }

    #[test]
    fn loli_act_walk_is_36_cycles() {
        assert_eq!(walk_cycles(&time_varying_act_walk(32, 0)), 36);
    }

    #[test]
    fn time_varying_ref_walk_is_3_cycles() {
        assert_eq!(walk_cycles(&time_varying_ref_walk()), 3);
    }

    #[test]
    fn capromi_act_walk_is_50_cycles() {
        assert_eq!(walk_cycles(&counter_assisted_act_walk(64)), 50);
    }

    #[test]
    fn capromi_ref_walk_is_258_cycles() {
        assert_eq!(walk_cycles(&counter_assisted_ref_walk(64)), 258);
    }

    #[test]
    fn walks_scale_with_table_sizes() {
        assert_eq!(walk_cycles(&time_varying_act_walk(64, 1)), 69);
        assert_eq!(walk_cycles(&counter_assisted_act_walk(128)), 82);
        assert_eq!(walk_cycles(&counter_assisted_ref_walk(16)), 66);
    }

    #[test]
    fn act_walk_visits_expected_states() {
        let walk = time_varying_act_walk(32, 1);
        assert_eq!(walk[0].state, TimeVaryingState::SearchInTable);
        assert_eq!(
            walk.last().unwrap().state,
            TimeVaryingState::ActivateNeighborAndUpdateTable
        );
    }
}
