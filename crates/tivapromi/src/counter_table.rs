//! CaPRoMi's per-bank counter table.
//!
//! The counters track row activations *within one refresh interval* —
//! the table is sized between the DDR4 maximum of 165 activations per
//! interval and the measured average of 40 (64 entries in the paper) and
//! is drained at the end of every interval when the collective trigger
//! decisions are made.
//!
//! Replacement is random among *unlocked* entries: an entry whose counter
//! reached the lock threshold sets a lock bit and can no longer be
//! evicted, so a hammering row cannot be pushed out by table churn.  The
//! random replacement may land on a locked entry, in which case the
//! insertion simply fails (the FSM's "probabilistic replace failed"
//! transition in Fig. 3).

use dram_sim::RowAddr;
use rand::rngs::StdRng;
use rand::RngExt;

/// One counter-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterEntry {
    /// The tracked row.
    pub row: RowAddr,
    /// Activations of the row within the current refresh interval.
    pub count: u32,
    /// Lock bit: set once `count` reaches the lock threshold; locked
    /// entries cannot be replaced.
    pub locked: bool,
    /// Link to the row's history-table slot, if the row was found there
    /// when inserted ("the matching address of the history table is
    /// added to the counter table entry").
    pub history_slot: Option<usize>,
}

/// Outcome of an insertion attempt into a full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The row was already present; its counter was incremented.
    Incremented,
    /// The row was inserted into a free slot.
    Inserted,
    /// The table was full and a random unlocked entry was evicted.
    Replaced,
    /// The table was full and the randomly chosen victim was locked:
    /// the insertion failed (Fig. 3 "fail").
    ReplaceFailed,
}

/// Fixed-capacity activation counter table with lock-protected random
/// replacement.
///
/// ```
/// use tivapromi::{CounterTable, InsertOutcome};
/// use dram_sim::RowAddr;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut t = CounterTable::new(2, 3);
/// assert_eq!(t.observe(RowAddr(1), None, &mut rng), InsertOutcome::Inserted);
/// assert_eq!(t.observe(RowAddr(1), None, &mut rng), InsertOutcome::Incremented);
/// assert_eq!(t.entry(RowAddr(1)).unwrap().count, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CounterTable {
    entries: Vec<CounterEntry>,
    capacity: usize,
    lock_threshold: u32,
}

impl CounterTable {
    /// Creates an empty table with the given capacity and lock threshold.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `lock_threshold` is zero.
    pub fn new(capacity: usize, lock_threshold: u32) -> Self {
        assert!(capacity > 0, "counter table capacity must be nonzero");
        assert!(lock_threshold > 0, "lock threshold must be nonzero");
        CounterTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            lock_threshold,
        }
    }

    /// Processes one activation of `row`.
    ///
    /// * Row present → increment (and possibly lock).
    /// * Row absent, table not full → insert with count 1.
    /// * Row absent, table full → evict one *randomly chosen* entry if it
    ///   is unlocked, else fail.
    ///
    /// `history_slot` is the row's history-table link, captured by the
    /// parallel history search of the Fig. 3 FSM.
    pub fn observe(
        &mut self,
        row: RowAddr,
        history_slot: Option<usize>,
        rng: &mut StdRng,
    ) -> InsertOutcome {
        if let Some(e) = self.increment(row) {
            // A history link discovered later (e.g. a trigger happened
            // since insertion) refreshes the stored link.
            if history_slot.is_some() {
                e.history_slot = history_slot;
            }
            return InsertOutcome::Incremented;
        }
        self.insert(row, history_slot, rng)
    }

    /// [`CounterTable::observe`] for a caller whose history table cannot
    /// change while the row's entry lives: `link` runs only when the row
    /// has no entry yet, because an existing entry's link is then
    /// already current.  CaPRoMi qualifies: its history changes only at
    /// interval ends, where the table is drained.
    pub fn observe_linking_new(
        &mut self,
        row: RowAddr,
        link: impl FnOnce() -> Option<usize>,
        rng: &mut StdRng,
    ) -> InsertOutcome {
        if self.increment(row).is_some() {
            return InsertOutcome::Incremented;
        }
        self.insert(row, link(), rng)
    }

    /// Counts one more activation of `row` (locking it at the threshold)
    /// if the row has an entry, and returns that entry.
    fn increment(&mut self, row: RowAddr) -> Option<&mut CounterEntry> {
        let lock_threshold = self.lock_threshold;
        let e = self.entries.iter_mut().find(|e| e.row == row)?;
        e.count += 1;
        if e.count >= lock_threshold {
            e.locked = true;
        }
        Some(e)
    }

    /// Inserts an untracked `row`: into a free slot, or over a randomly
    /// chosen unlocked entry of a full table.
    fn insert(
        &mut self,
        row: RowAddr,
        history_slot: Option<usize>,
        rng: &mut StdRng,
    ) -> InsertOutcome {
        let fresh = CounterEntry {
            row,
            count: 1,
            locked: self.lock_threshold == 1,
            history_slot,
        };

        if self.entries.len() < self.capacity {
            self.entries.push(fresh);
            return InsertOutcome::Inserted;
        }

        // Full: probabilistic replacement — one random draw, fail on a
        // locked victim.
        let victim = rng.random_range(0..self.entries.len());
        if self.entries[victim].locked {
            InsertOutcome::ReplaceFailed
        } else {
            self.entries[victim] = fresh;
            InsertOutcome::Replaced
        }
    }

    /// The entry tracking `row`, if any.
    pub fn entry(&self, row: RowAddr) -> Option<&CounterEntry> {
        self.entries.iter().find(|e| e.row == row)
    }

    /// Iterates over all valid entries (the `ref`-side decision walk).
    pub fn iter(&self) -> impl Iterator<Item = &CounterEntry> {
        self.entries.iter()
    }

    /// Drains the table at the end of a refresh interval into `out`
    /// (cleared first), leaving the table empty for the next interval.
    ///
    /// Both the table's storage and `out` keep their capacity, so a
    /// steady-state caller reusing one scratch buffer drains without
    /// heap traffic — part of the allocation-free hot-loop contract
    /// (`tests/alloc_free.rs`).
    pub fn drain_into(&mut self, out: &mut Vec<CounterEntry>) {
        out.clear();
        out.append(&mut self.entries);
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured lock threshold.
    pub fn lock_threshold(&self) -> u32 {
        self.lock_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn insert_and_increment() {
        let mut rng = rng();
        let mut t = CounterTable::new(4, 10);
        assert_eq!(
            t.observe(RowAddr(1), None, &mut rng),
            InsertOutcome::Inserted
        );
        assert_eq!(
            t.observe(RowAddr(1), None, &mut rng),
            InsertOutcome::Incremented
        );
        assert_eq!(
            t.observe(RowAddr(2), None, &mut rng),
            InsertOutcome::Inserted
        );
        assert_eq!(t.entry(RowAddr(1)).unwrap().count, 2);
        assert_eq!(t.entry(RowAddr(2)).unwrap().count, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lock_engages_at_threshold() {
        let mut rng = rng();
        let mut t = CounterTable::new(4, 3);
        for _ in 0..2 {
            t.observe(RowAddr(5), None, &mut rng);
        }
        assert!(!t.entry(RowAddr(5)).unwrap().locked);
        t.observe(RowAddr(5), None, &mut rng);
        assert!(t.entry(RowAddr(5)).unwrap().locked);
    }

    #[test]
    fn locked_entries_survive_replacement_pressure() {
        let mut rng = rng();
        let mut t = CounterTable::new(2, 2);
        // Lock both entries.
        for _ in 0..2 {
            t.observe(RowAddr(1), None, &mut rng);
            t.observe(RowAddr(2), None, &mut rng);
        }
        assert!(t.entry(RowAddr(1)).unwrap().locked);
        assert!(t.entry(RowAddr(2)).unwrap().locked);
        // Any further insertion must fail: every victim is locked.
        for r in 10..50 {
            assert_eq!(
                t.observe(RowAddr(r), None, &mut rng),
                InsertOutcome::ReplaceFailed
            );
        }
        assert!(t.entry(RowAddr(1)).is_some());
        assert!(t.entry(RowAddr(2)).is_some());
    }

    #[test]
    fn unlocked_entries_are_eventually_replaced() {
        let mut rng = rng();
        let mut t = CounterTable::new(2, 100);
        t.observe(RowAddr(1), None, &mut rng);
        t.observe(RowAddr(2), None, &mut rng);
        let mut replaced = 0;
        for r in 10..60 {
            if t.observe(RowAddr(r), None, &mut rng) == InsertOutcome::Replaced {
                replaced += 1;
            }
        }
        assert!(replaced > 0, "unlocked entries must be replaceable");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn drain_empties_the_table_and_reuses_the_scratch() {
        let mut rng = rng();
        let mut t = CounterTable::new(4, 10);
        t.observe(RowAddr(1), None, &mut rng);
        t.observe(RowAddr(2), Some(3), &mut rng);
        let mut drained = Vec::new();
        t.drain_into(&mut drained);
        assert_eq!(drained.len(), 2);
        assert!(t.is_empty());
        assert_eq!(drained[1].history_slot, Some(3));
        // A stale scratch is cleared, not appended to.
        t.observe(RowAddr(9), None, &mut rng);
        t.drain_into(&mut drained);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].row, RowAddr(9));
    }

    #[test]
    fn history_link_is_stored_and_refreshed() {
        let mut rng = rng();
        let mut t = CounterTable::new(4, 10);
        t.observe(RowAddr(1), None, &mut rng);
        assert_eq!(t.entry(RowAddr(1)).unwrap().history_slot, None);
        t.observe(RowAddr(1), Some(7), &mut rng);
        assert_eq!(t.entry(RowAddr(1)).unwrap().history_slot, Some(7));
        // A later lookup miss does not erase the link.
        t.observe(RowAddr(1), None, &mut rng);
        assert_eq!(t.entry(RowAddr(1)).unwrap().history_slot, Some(7));
    }

    #[test]
    fn linking_new_searches_only_on_insertion() {
        let mut rng = rng();
        let mut t = CounterTable::new(4, 10);
        let mut searches = 0;
        let mut link = |slot| {
            searches += 1;
            slot
        };
        t.observe_linking_new(RowAddr(1), || link(Some(2)), &mut rng);
        t.observe_linking_new(RowAddr(1), || link(None), &mut rng);
        t.observe_linking_new(RowAddr(3), || link(None), &mut rng);
        assert_eq!(searches, 2);
        let e = t.entry(RowAddr(1)).unwrap();
        assert_eq!((e.count, e.history_slot), (2, Some(2)));
        assert_eq!(t.entry(RowAddr(3)).unwrap().history_slot, None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = CounterTable::new(0, 1);
    }
}
