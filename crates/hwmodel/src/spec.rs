//! Transition-table specifications of the paper's FSMs — the Fig. 2 and
//! Fig. 3 state graphs as data, with structural checks.
//!
//! [`fsm`](crate::fsm) walks the worst-case paths for cycle counting;
//! this module captures the *full* transition structure (including the
//! negative-decision and same-window paths the walks skip) so the test
//! suite can verify spec-level properties the VHDL reviewers would
//! check by eye:
//!
//! * determinism — one successor per (state, event);
//! * reachability — every state is reachable from `Idle`;
//! * liveness — every state has a path back to `Idle` (no FSM loop can
//!   wedge between commands);
//! * conformance — the worst-case `act` path through the graph visits
//!   exactly the states the cycle model charges for.

use crate::fsm::{CounterAssistedState, TimeVaryingState};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;

/// Events of the Fig. 2 machine (labels from the figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TvEvent {
    /// `act` command observed.
    Act,
    /// `ref` command observed.
    Ref,
    /// `search_cm`: sequential table search finished.
    SearchComplete,
    /// Weight computation finished (implicit edge in the figure).
    WeightReady,
    /// `pos`: the probabilistic decision fired.
    Pos,
    /// `neg`: the probabilistic decision declined.
    Neg,
    /// Trigger bookkeeping finished (implicit edge).
    UpdateDone,
    /// `same_RW`: the refresh stayed within the current window.
    SameWindow,
    /// `new_RW`: a new refresh window started.
    NewWindow,
    /// Table reset finished (implicit edge).
    ResetDone,
}

/// Events of the Fig. 3 machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaEvent {
    /// `act` command observed.
    Act,
    /// `ref` command observed.
    Ref,
    /// `found`: the counter-table search matched.
    Found,
    /// `insert`: search missed; insert a new entry.
    Insert,
    /// `full`: the table was full — run the probabilistic replacement.
    Full,
    /// Insert found a free slot (implicit edge).
    SlotFree,
    /// `fail`: the probabilistic replacement hit a locked entry.
    Fail,
    /// `success`: the replacement evicted an unlocked entry.
    Success,
    /// `link` bookkeeping finished (history slot attached).
    Linked,
    /// Entry update finished.
    UpdateDone,
    /// Per-entry weight computed.
    WeightReady,
    /// Eq. 2 encoder output ready.
    LogReady,
    /// Linked history interval fetched.
    LinkFetched,
    /// `not_end`: more counter entries to decide.
    NotEnd,
    /// `end`: decision walk finished.
    End,
}

/// A deterministic finite state machine given as a transition list.
///
/// ```
/// use rh_hwmodel::spec::{fig2_machine, TvEvent};
/// use rh_hwmodel::TimeVaryingState;
///
/// let machine = fig2_machine();
/// assert!(machine.is_deterministic());
/// assert_eq!(
///     machine.step(TimeVaryingState::Idle, TvEvent::Act),
///     Some(TimeVaryingState::SearchInTable)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct StateMachine<S, E> {
    /// The idle/initial state.
    pub initial: S,
    /// `(from, event, to)` triples.
    pub transitions: Vec<(S, E, S)>,
}

impl<S, E> StateMachine<S, E>
where
    S: Copy + Ord + Debug,
    E: Copy + Ord + Debug,
{
    /// The successor of `state` on `event`, if defined.
    pub fn step(&self, state: S, event: E) -> Option<S> {
        self.transitions
            .iter()
            .find(|(from, e, _)| *from == state && *e == event)
            .map(|&(_, _, to)| to)
    }

    /// All states mentioned by the machine.
    pub fn states(&self) -> BTreeSet<S> {
        let mut states: BTreeSet<S> = BTreeSet::new();
        states.insert(self.initial);
        for &(from, _, to) in &self.transitions {
            states.insert(from);
            states.insert(to);
        }
        states
    }

    /// Whether every (state, event) pair has at most one successor.
    pub fn is_deterministic(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.transitions
            .iter()
            .all(|&(from, event, _)| seen.insert((from, event)))
    }

    /// States reachable from the initial state.
    pub fn reachable(&self) -> BTreeSet<S> {
        let mut reached = BTreeSet::new();
        let mut queue = VecDeque::new();
        reached.insert(self.initial);
        queue.push_back(self.initial);
        while let Some(state) = queue.pop_front() {
            for &(from, _, to) in &self.transitions {
                if from == state && reached.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        reached
    }

    /// Whether every state can reach `target` (liveness: the FSM always
    /// returns to idle before the next command).
    pub fn all_reach(&self, target: S) -> bool {
        // Reverse reachability from `target`.
        let mut reaches = BTreeSet::new();
        reaches.insert(target);
        let mut changed = true;
        while changed {
            changed = false;
            for &(from, _, to) in &self.transitions {
                if reaches.contains(&to) && reaches.insert(from) {
                    changed = true;
                }
            }
        }
        self.states().iter().all(|s| reaches.contains(s))
    }

    /// Runs an event script from the initial state, returning the
    /// visited states (excluding the initial), or `None` if an event has
    /// no defined transition.
    pub fn run(&self, script: &[E]) -> Option<Vec<S>> {
        let mut state = self.initial;
        let mut visited = Vec::with_capacity(script.len());
        for &event in script {
            state = self.step(state, event)?;
            visited.push(state);
        }
        Some(visited)
    }
}

/// The Fig. 2 machine (LiPRoMi / LoPRoMi / LoLiPRoMi).
pub fn fig2_machine() -> StateMachine<TimeVaryingState, TvEvent> {
    use TimeVaryingState as S;
    use TvEvent as E;
    StateMachine {
        initial: S::Idle,
        transitions: vec![
            // act path
            (S::Idle, E::Act, S::SearchInTable),
            (S::SearchInTable, E::SearchComplete, S::CalculateWeight),
            (S::CalculateWeight, E::WeightReady, S::Decide),
            (S::Decide, E::Pos, S::ActivateNeighborAndUpdateTable),
            (S::Decide, E::Neg, S::Idle),
            (S::ActivateNeighborAndUpdateTable, E::UpdateDone, S::Idle),
            // ref path
            (S::Idle, E::Ref, S::UpdateRefreshInterval),
            (S::UpdateRefreshInterval, E::SameWindow, S::Idle),
            (S::UpdateRefreshInterval, E::NewWindow, S::ResetTable),
            (S::ResetTable, E::ResetDone, S::Idle),
        ],
    }
}

/// The Fig. 3 machine (CaPRoMi).
pub fn fig3_machine() -> StateMachine<CounterAssistedState, CaEvent> {
    use CaEvent as E;
    use CounterAssistedState as S;
    StateMachine {
        initial: S::Idle,
        transitions: vec![
            // act path: search, then hit-update or insert/replace+link
            (S::Idle, E::Act, S::SearchIncrease),
            (S::SearchIncrease, E::Found, S::Update),
            (S::SearchIncrease, E::Insert, S::Insert),
            (S::Insert, E::SlotFree, S::Link),
            (S::Insert, E::Full, S::Replace),
            (S::Replace, E::Fail, S::Idle),
            (S::Replace, E::Success, S::Link),
            (S::Link, E::Linked, S::Update),
            (S::Update, E::UpdateDone, S::Idle),
            // ref path: per-entry decision walk
            (S::Idle, E::Ref, S::FindLinked),
            (S::FindLinked, E::LinkFetched, S::Weight),
            (S::Weight, E::WeightReady, S::LogWeight),
            (S::LogWeight, E::LogReady, S::Decision),
            (S::Decision, E::NotEnd, S::FindLinked),
            (S::Decision, E::End, S::Idle),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{counter_assisted_act_walk, time_varying_act_walk};

    #[test]
    fn fig2_is_deterministic_reachable_and_live() {
        let m = fig2_machine();
        assert!(m.is_deterministic());
        assert_eq!(m.reachable(), m.states());
        assert!(m.all_reach(TimeVaryingState::Idle));
        assert_eq!(m.states().len(), 7);
    }

    #[test]
    fn fig3_is_deterministic_reachable_and_live() {
        let m = fig3_machine();
        assert!(m.is_deterministic());
        assert_eq!(m.reachable(), m.states());
        assert!(m.all_reach(CounterAssistedState::Idle));
        assert_eq!(m.states().len(), 10);
    }

    #[test]
    fn fig2_trigger_script_matches_the_cycle_walk() {
        use TimeVaryingState as S;
        use TvEvent as E;
        let m = fig2_machine();
        let visited = m
            .run(&[
                E::Act,
                E::SearchComplete,
                E::WeightReady,
                E::Pos,
                E::UpdateDone,
            ])
            .expect("valid script");
        assert_eq!(
            visited,
            vec![
                S::SearchInTable,
                S::CalculateWeight,
                S::Decide,
                S::ActivateNeighborAndUpdateTable,
                S::Idle
            ]
        );
        // Conformance: the states the cycle model charges for are
        // exactly the non-idle states of this path.
        let walk_states: Vec<S> = time_varying_act_walk(32, 1)
            .iter()
            .map(|s| s.state)
            .collect();
        for s in &walk_states {
            assert!(visited.contains(s), "{s:?} missing from the graph path");
        }
    }

    #[test]
    fn fig2_negative_decision_returns_to_idle() {
        use TvEvent as E;
        let m = fig2_machine();
        let visited = m
            .run(&[E::Act, E::SearchComplete, E::WeightReady, E::Neg])
            .expect("valid script");
        assert_eq!(visited.last(), Some(&TimeVaryingState::Idle));
    }

    #[test]
    fn fig3_replace_fail_drops_the_insertion() {
        use CaEvent as E;
        let m = fig3_machine();
        let visited = m
            .run(&[E::Act, E::Insert, E::Full, E::Fail])
            .expect("valid script");
        assert_eq!(visited.last(), Some(&CounterAssistedState::Idle));
    }

    #[test]
    fn fig3_decision_walk_loops_per_entry() {
        use CaEvent as E;
        use CounterAssistedState as S;
        let m = fig3_machine();
        // Two entries: the decision loop returns to FindLinked once.
        let visited = m
            .run(&[
                E::Ref,
                E::LinkFetched,
                E::WeightReady,
                E::LogReady,
                E::NotEnd,
                E::LinkFetched,
                E::WeightReady,
                E::LogReady,
                E::End,
            ])
            .expect("valid script");
        assert_eq!(visited.iter().filter(|&&s| s == S::Decision).count(), 2);
        assert_eq!(visited.last(), Some(&S::Idle));
        // Conformance with the cycle walk: the per-entry loop visits the
        // four states the ref walk charges four cycles per entry for.
        let walk_states: std::collections::BTreeSet<S> = counter_assisted_ref_states();
        for s in [S::FindLinked, S::Weight, S::LogWeight, S::Decision] {
            assert!(walk_states.contains(&s), "{s:?} not charged by the walk");
        }
    }

    fn counter_assisted_ref_states() -> std::collections::BTreeSet<CounterAssistedState> {
        crate::fsm::counter_assisted_ref_walk(4)
            .iter()
            .map(|s| s.state)
            .collect()
    }

    #[test]
    fn undefined_events_are_rejected() {
        use TvEvent as E;
        let m = fig2_machine();
        // Ref is not defined from the search state.
        assert!(m.run(&[E::Act, E::Ref]).is_none());
    }

    #[test]
    fn fig3_act_walk_states_are_on_the_graph() {
        let m = fig3_machine();
        let states = m.states();
        for step in counter_assisted_act_walk(64) {
            assert!(states.contains(&step.state), "{:?}", step.state);
        }
    }
}
