//! The mitigation interface shared by TiVaPRoMi and every baseline.
//!
//! A mitigation sits next to the memory controller (Fig. 1) and observes
//! two command streams: row activations (`act`, per bank) and refresh
//! commands (`ref`, device-wide).  In response it may ask the controller
//! to issue extra restorative activations.

use dram_sim::{BankId, RowAddr};
use mem_trace::{EventBatch, TraceEvent};
use std::ops::Range;

/// An extra command a mitigation asks the memory controller to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationAction {
    /// Issue `act_n`: activate both physical neighbors of `row`
    /// (TiVaPRoMi's interrupt path, also used by TWiCe and CRA).  Costs
    /// two extra activations on interior rows.
    ActivateNeighbors {
        /// Bank of the aggressor row.
        bank: BankId,
        /// The aggressor whose neighbors are restored.
        row: RowAddr,
    },
    /// Refresh one explicit victim row (PARA, ProHit, MRLoc style).
    /// Costs one extra activation.
    RefreshRow {
        /// Bank of the victim row.
        bank: BankId,
        /// The victim row to restore.
        row: RowAddr,
    },
}

impl MitigationAction {
    /// The bank the action addresses.
    pub fn bank(&self) -> BankId {
        match self {
            MitigationAction::ActivateNeighbors { bank, .. }
            | MitigationAction::RefreshRow { bank, .. } => *bank,
        }
    }

    /// The row the action names (aggressor for `ActivateNeighbors`,
    /// victim for `RefreshRow`).
    pub fn row(&self) -> RowAddr {
        match self {
            MitigationAction::ActivateNeighbors { row, .. }
            | MitigationAction::RefreshRow { row, .. } => *row,
        }
    }

    /// Converts the action to the DRAM command the controller issues.
    pub fn to_command(self) -> dram_sim::Command {
        match self {
            MitigationAction::ActivateNeighbors { bank, row } => {
                dram_sim::Command::ActivateNeighbors { bank, row }
            }
            MitigationAction::RefreshRow { bank, row } => {
                dram_sim::Command::RefreshRow { bank, row }
            }
        }
    }
}

/// Action arena of the batched hot path: every action a mitigation
/// emits while processing an [`EventBatch`] segment is tagged with the
/// index of the event that caused it.
///
/// The tag is what lets the driving harness *decide ahead, apply in
/// order*: a mitigation processes a whole interval segment in one call
/// (amortising dispatch and letting it hoist per-interval state), and
/// the harness then replays the segment event by event, applying each
/// event's actions to the device immediately after that event's
/// activation — the exact order the one-event-at-a-time path used, so
/// results stay bit-identical.  Tags must be pushed in ascending order,
/// which falls out naturally from walking the segment front to back.
///
/// The sink is a reusable bump-arena: the tag and action lanes are
/// parallel buffers that only ever grow, [`ActionSink::reset`] rewinds
/// the bump cursor without releasing them, and [`ActionSink::push`]
/// writes into the retained lanes.  After the first few segments have
/// established a high-water mark, a steady-state segment performs zero
/// heap allocations — the contract `tests/alloc_free.rs` enforces with
/// a counting allocator (DESIGN.md §15).
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<MitigationAction>,
    tags: Vec<u32>,
    cursor: usize,
}

impl ActionSink {
    /// An empty sink.
    pub fn new() -> Self {
        ActionSink::default()
    }

    /// An empty sink with both lanes preallocated for `capacity`
    /// actions — skips the warm-up growth entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        ActionSink {
            actions: Vec::with_capacity(capacity),
            tags: Vec::with_capacity(capacity),
            cursor: 0,
        }
    }

    /// Rewinds the arena for the next segment: drops all actions and
    /// resets the drain cursor, keeping both lanes' capacity.
    pub fn reset(&mut self) {
        self.actions.clear();
        self.tags.clear();
        self.cursor = 0;
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the sink holds no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Buffers `action` as caused by the event at batch index `tag`.
    #[inline]
    pub fn push(&mut self, tag: u32, action: MitigationAction) {
        debug_assert!(
            self.tags.last().is_none_or(|&last| last <= tag),
            "actions must be pushed in ascending event order"
        );
        self.actions.push(action);
        self.tags.push(tag);
    }

    /// The tag of the next undrained action, if any — lets a batching
    /// replay jump straight to the next event that has actions instead
    /// of polling every event.
    #[inline]
    pub fn peek_tag(&self) -> Option<u32> {
        self.tags.get(self.cursor).copied()
    }

    /// Drains the next action if it is tagged with event `tag`.
    ///
    /// The harness calls this in its replay walk; because tags ascend,
    /// a single forward cursor visits every action exactly once.
    #[inline]
    pub fn next_for(&mut self, tag: u32) -> Option<MitigationAction> {
        if self.cursor < self.tags.len() && self.tags[self.cursor] == tag {
            let action = self.actions[self.cursor];
            self.cursor += 1;
            Some(action)
        } else {
            None
        }
    }

    /// Whether the replay walk consumed every buffered action.
    pub fn fully_drained(&self) -> bool {
        self.cursor == self.actions.len()
    }
}

/// A hardware row-hammer mitigation observing the command stream.
///
/// A technique decides in one place, [`Mitigation::on_batch`]: it walks
/// one refresh interval's activations and pushes the commands it wants
/// issued into an [`ActionSink`], each tagged with its causing event.
/// The driving harness applies each action to the DRAM device right
/// after that event's activation and charges it to the technique's
/// activation overhead.  [`Mitigation::on_activate`], the one-event
/// form, runs the same decision over a one-event batch.
///
/// Implementors must be deterministic given their construction seed: the
/// experiment harness relies on reproducible runs.
///
/// Implementing a custom technique takes a handful of lines — here is a
/// toy "refresh every 1000th activated row's neighbors" policy:
///
/// ```
/// use std::ops::Range;
/// use dram_sim::{BankId, RowAddr};
/// use mem_trace::EventBatch;
/// use tivapromi::{ActionSink, Mitigation, MitigationAction};
///
/// struct EveryNth {
///     n: u64,
///     count: u64,
/// }
///
/// impl Mitigation for EveryNth {
///     fn name(&self) -> &str {
///         "every-nth"
///     }
///     fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
///         for i in range {
///             self.count += 1;
///             if self.count % self.n == 0 {
///                 let (bank, row) = (batch.bank(i), batch.row(i));
///                 let tag = u32::try_from(i).expect("batch index fits u32");
///                 sink.push(tag, MitigationAction::ActivateNeighbors { bank, row });
///             }
///         }
///     }
///     fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {}
///     fn storage_bits_per_bank(&self) -> u64 {
///         64 // the counter
///     }
/// }
///
/// let mut m = EveryNth { n: 1000, count: 0 };
/// let mut actions = Vec::new();
/// for _ in 0..1000 {
///     m.on_activate(BankId(0), RowAddr(7), &mut actions);
/// }
/// assert_eq!(actions.len(), 1);
/// ```
pub trait Mitigation: Send {
    /// Human-readable technique name ("PARA", "LoLiPRoMi", …).
    fn name(&self) -> &str;

    /// Processes one refresh interval's worth of activations — the
    /// events of `batch` at `range` — in a single call, pushing every
    /// resulting action into `sink` tagged with its causing event's
    /// batch index.
    ///
    /// This is the technique's decision.  Implementations may hoist
    /// per-interval work (the time-varying weight, PARA's probability
    /// bound) out of the per-event loop, but a run's outcome must not
    /// depend on how its intervals are cut into calls: the engine's
    /// determinism contract (sequential ≡ sharded, batched ≡ scalar)
    /// depends on it.
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink);

    /// Called once per refresh interval, *after* the interval's refresh
    /// executed.  Implementations advance their interval clock here;
    /// window wrap-around (table resets) is handled internally.
    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>);

    /// Storage the technique requires per memory bank, in bits — the
    /// x-axis of Fig. 4.  Stateless techniques (PARA) return 0.
    fn storage_bits_per_bank(&self) -> u64;

    /// One activation of `row` in `bank`: runs [`Mitigation::on_batch`]
    /// over a one-event batch and appends its actions to `actions`.
    ///
    /// Batched runs never call it; the harness's scalar reference loop,
    /// tests and hand-driven examples do.  Techniques whose kernel skips
    /// table reads (MRLoc and the TiVaPRoMi variants) override it with
    /// their eager paper form, the oracle the equivalence tests hold
    /// those kernels to.
    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let mut batch = EventBatch::new();
        batch.push_interval(&[TraceEvent::benign(bank, row)]);
        let mut sink = ActionSink::new();
        self.on_batch(&batch, batch.segment(0), &mut sink);
        actions.append(&mut sink.actions);
    }

    /// Storage per bank in bytes (derived; Fig. 4 is plotted in bytes).
    fn storage_bytes_per_bank(&self) -> f64 {
        self.storage_bits_per_bank() as f64 / 8.0
    }
}

impl<M: Mitigation + ?Sized> Mitigation for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        (**self).on_activate(bank, row, actions)
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        (**self).on_refresh_interval(actions)
    }

    fn storage_bits_per_bank(&self) -> u64 {
        (**self).storage_bits_per_bank()
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        (**self).on_batch(batch, range, sink)
    }
}

/// Adapter widening any mitigation's restorative reach to distance two.
///
/// The paper-era `act_n` restores a suspected aggressor's *immediate*
/// neighbors.  On devices with measurable distance-2 coupling (the
/// blast-radius extension of `dram-sim`), rows two away from a hammered
/// row accumulate disturbance that no ±1 refresh ever clears.  This
/// adapter rewrites every [`MitigationAction::ActivateNeighbors`] into
/// explicit refreshes of the rows at distance one *and* two — doubling
/// that action's activation cost, which the harness charges honestly.
///
/// ```
/// use tivapromi::{Mitigation, TimeVarying, TivaConfig, WideNeighborhood};
/// use dram_sim::Geometry;
///
/// let geometry = Geometry::paper();
/// let inner = TimeVarying::lopromi(TivaConfig::paper(&geometry), 1);
/// let wide = WideNeighborhood::new(inner, geometry.rows_per_bank());
/// assert_eq!(wide.name(), "LoPRoMi+d2");
/// ```
#[derive(Debug)]
pub struct WideNeighborhood<M> {
    inner: M,
    rows_per_bank: u32,
    name: String,
    /// The inner kernel's actions, reused across segments.
    sink: ActionSink,
    /// The inner interval-end actions, reused across intervals.
    scratch: Vec<MitigationAction>,
}

impl<M: Mitigation> WideNeighborhood<M> {
    /// Wraps `inner`, widening its `act_n` actions to ±2.
    pub fn new(inner: M, rows_per_bank: u32) -> Self {
        let name = format!("{}+d2", inner.name());
        WideNeighborhood {
            inner,
            rows_per_bank,
            name,
            sink: ActionSink::new(),
            scratch: Vec::new(),
        }
    }

    /// The wrapped mitigation.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped mitigation.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

/// Passes `action` to `push`, with an `act_n` rewritten into refreshes
/// of the rows within distance two of its aggressor that lie inside the
/// bank.
fn widen(action: MitigationAction, rows_per_bank: u32, mut push: impl FnMut(MitigationAction)) {
    match action {
        MitigationAction::ActivateNeighbors { bank, row } => {
            for offset in [-2i64, -1, 1, 2] {
                let target = i64::from(row.0) + offset;
                // try_from rejects negatives and overflow in one go.
                if let Ok(target) = u32::try_from(target) {
                    if target < rows_per_bank {
                        push(MitigationAction::RefreshRow {
                            bank,
                            row: RowAddr(target),
                        });
                    }
                }
            }
        }
        other => push(other),
    }
}

impl<M: Mitigation> Mitigation for WideNeighborhood<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // The inner kernel decides the segment into the adapter's own
        // sink; each of its actions is widened under its event's tag.
        let decided = &mut self.sink;
        decided.reset();
        self.inner.on_batch(batch, range, decided);
        for (&tag, &action) in decided.tags.iter().zip(&decided.actions) {
            widen(action, self.rows_per_bank, |wide| sink.push(tag, wide));
        }
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        self.scratch.clear();
        self.inner.on_refresh_interval(&mut self.scratch);
        for &action in &self.scratch {
            widen(action, self.rows_per_bank, |wide| actions.push(wide));
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.inner.storage_bits_per_bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_accessors() {
        let a = MitigationAction::ActivateNeighbors {
            bank: BankId(1),
            row: RowAddr(2),
        };
        assert_eq!(a.bank(), BankId(1));
        assert_eq!(a.row(), RowAddr(2));
        assert!(matches!(
            a.to_command(),
            dram_sim::Command::ActivateNeighbors { .. }
        ));

        let r = MitigationAction::RefreshRow {
            bank: BankId(0),
            row: RowAddr(7),
        };
        assert_eq!(r.row(), RowAddr(7));
        assert!(matches!(
            r.to_command(),
            dram_sim::Command::RefreshRow { .. }
        ));
    }

    /// Fires `act_n` on every activation.
    struct Fixed;
    impl Mitigation for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
            for i in range {
                let (bank, row) = (batch.bank(i), batch.row(i));
                let tag = u32::try_from(i).expect("batch index fits u32");
                sink.push(tag, MitigationAction::ActivateNeighbors { bank, row });
            }
        }
        fn on_refresh_interval(&mut self, _: &mut Vec<MitigationAction>) {}
        fn storage_bits_per_bank(&self) -> u64 {
            7
        }
    }

    #[test]
    fn sink_tags_and_replays_in_event_order() {
        let mut sink = ActionSink::new();
        let act = |row| MitigationAction::RefreshRow {
            bank: BankId(0),
            row: RowAddr(row),
        };
        sink.push(0, act(10));
        sink.push(2, act(20));
        sink.push(2, act(21));
        assert_eq!(sink.len(), 3);
        // Replay walk: event 0 yields one action, event 1 none, event 2
        // both of its actions, in push order.
        assert_eq!(sink.next_for(0), Some(act(10)));
        assert_eq!(sink.next_for(0), None);
        assert_eq!(sink.next_for(1), None);
        assert_eq!(sink.next_for(2), Some(act(20)));
        assert_eq!(sink.next_for(2), Some(act(21)));
        assert_eq!(sink.next_for(2), None);
        assert!(sink.fully_drained());
        sink.reset();
        assert!(sink.is_empty());
    }

    #[test]
    fn wide_neighborhood_expands_act_n() {
        let mut wide = WideNeighborhood::new(Fixed, 64);
        assert_eq!(wide.name(), "fixed+d2");
        assert_eq!(wide.storage_bits_per_bank(), 7);
        let mut actions = Vec::new();
        wide.on_activate(BankId(0), RowAddr(10), &mut actions);
        let rows: Vec<u32> = actions.iter().map(|a| a.row().0).collect();
        assert_eq!(rows, vec![8, 9, 11, 12]);
        assert!(actions
            .iter()
            .all(|a| matches!(a, MitigationAction::RefreshRow { .. })));
    }

    #[test]
    fn wide_neighborhood_clips_at_bank_edges() {
        let mut wide = WideNeighborhood::new(Fixed, 64);
        let mut actions = Vec::new();
        wide.on_activate(BankId(0), RowAddr(0), &mut actions);
        let rows: Vec<u32> = actions.iter().map(|a| a.row().0).collect();
        assert_eq!(rows, vec![1, 2]);
        actions.clear();
        wide.on_activate(BankId(0), RowAddr(63), &mut actions);
        let rows: Vec<u32> = actions.iter().map(|a| a.row().0).collect();
        assert_eq!(rows, vec![61, 62]);
    }

    #[test]
    fn wide_neighborhood_preserves_earlier_actions() {
        let mut wide = WideNeighborhood::new(Fixed, 64);
        let mut actions = vec![MitigationAction::RefreshRow {
            bank: BankId(1),
            row: RowAddr(5),
        }];
        wide.on_activate(BankId(0), RowAddr(10), &mut actions);
        assert_eq!(actions.len(), 5);
        assert_eq!(actions[0].row(), RowAddr(5));
        assert_eq!(wide.inner().storage_bits_per_bank(), 7);
        let _ = wide.into_inner();
    }
}
