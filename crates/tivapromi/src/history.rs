//! The per-bank FIFO history table.
//!
//! After TiVaPRoMi triggers an extra activation for the neighbors of an
//! aggressor row, another trigger is only useful once the aggressor has
//! accumulated enough further activations.  The history table therefore
//! stores `(row, interval-of-trigger)` pairs; a subsequent activation of
//! a stored row computes its weight from the stored interval instead of
//! the row's refresh slot, keeping the weight — and hence the probability
//! of a redundant trigger — small.
//!
//! The table is small (32 entries per bank in the paper, 120 B), searched
//! sequentially (the search is overlapped with the activate-to-activate
//! gap), replaced FIFO when full, and cleared at every new refresh
//! window.

use dram_sim::RowAddr;
use serde::{Deserialize, Serialize};

/// Replacement policy of the history table.
///
/// The paper uses FIFO ("old entries are replaced based on a simple
/// FIFO policy"); LRU is provided for the replacement-policy ablation —
/// it needs per-entry recency state (a timestamp or shift network in
/// hardware), which is exactly the cost the paper avoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HistoryPolicy {
    /// Evict the oldest *inserted* entry (the paper's choice).
    #[default]
    Fifo,
    /// Evict the least recently *matched* entry.
    Lru,
}

/// A fixed-capacity table of `(row, trigger interval)` pairs with FIFO
/// (default) or LRU replacement.
///
/// ```
/// use tivapromi::HistoryTable;
/// use dram_sim::RowAddr;
///
/// let mut t = HistoryTable::new(2);
/// t.record(RowAddr(5), 100);
/// t.record(RowAddr(9), 120);
/// assert_eq!(t.lookup(RowAddr(5)), Some(100));
/// t.record(RowAddr(7), 130);         // full: evicts the oldest (row 5)
/// assert_eq!(t.lookup(RowAddr(5)), None);
/// assert_eq!(t.lookup(RowAddr(7)), Some(130));
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTable {
    entries: Vec<(RowAddr, u32)>,
    capacity: usize,
    /// Next slot to overwrite once full (FIFO pointer).
    next_victim: usize,
    policy: HistoryPolicy,
    /// Monotonic use clock (LRU only).
    clock: u64,
    /// Last-use stamp per slot (LRU only).
    stamps: Vec<u64>,
}

impl HistoryTable {
    /// Creates an empty table holding at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        HistoryTable::with_policy(capacity, HistoryPolicy::Fifo)
    }

    /// Creates an empty table with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_policy(capacity: usize, policy: HistoryPolicy) -> Self {
        assert!(capacity > 0, "history table capacity must be nonzero");
        HistoryTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_victim: 0,
            policy,
            clock: 0,
            stamps: Vec::with_capacity(capacity),
        }
    }

    /// The replacement policy in effect.
    pub fn policy(&self) -> HistoryPolicy {
        self.policy
    }

    /// Like [`HistoryTable::lookup`], but also registers the access for
    /// LRU recency — the search the FSM performs on every activation.
    ///
    /// The recency update matters only under [`HistoryPolicy::Lru`]:
    /// FIFO never reads it, so under FIFO a caller that does not need the
    /// answer may skip the search without changing any later result.
    pub fn search(&mut self, row: RowAddr) -> Option<u32> {
        match self.position(row) {
            Some(pos) => {
                self.clock += 1;
                self.stamps[pos] = self.clock;
                Some(self.entries[pos].1)
            }
            None => None,
        }
    }

    /// Sequentially searches the table for `row`; returns the stored
    /// trigger interval if present.
    pub fn lookup(&self, row: RowAddr) -> Option<u32> {
        self.entries
            .iter()
            .find(|(r, _)| *r == row)
            .map(|&(_, i)| i)
    }

    /// Index of `row`'s entry, if present — CaPRoMi's counter table links
    /// to history entries by index ("the matching address of the history
    /// table").
    pub fn position(&self, row: RowAddr) -> Option<usize> {
        self.entries.iter().position(|(r, _)| *r == row)
    }

    /// The stored interval at `index`, if valid.
    pub fn interval_at(&self, index: usize) -> Option<u32> {
        self.entries.get(index).map(|&(_, i)| i)
    }

    /// Records that an extra activation for `row` was triggered in
    /// refresh interval `interval`.
    ///
    /// If the row is already stored, its interval is updated in place;
    /// otherwise it is appended, evicting the oldest entry (simple FIFO)
    /// when the table is full.  Returns the slot index used.
    pub fn record(&mut self, row: RowAddr, interval: u32) -> usize {
        self.clock += 1;
        if let Some(pos) = self.position(row) {
            self.entries[pos].1 = interval;
            self.stamps[pos] = self.clock;
            return pos;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((row, interval));
            self.stamps.push(self.clock);
            self.entries.len() - 1
        } else {
            let slot = match self.policy {
                HistoryPolicy::Fifo => {
                    let slot = self.next_victim;
                    self.next_victim = (slot + 1) % self.capacity;
                    slot
                }
                HistoryPolicy::Lru => self
                    .stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &stamp)| stamp)
                    .map(|(slot, _)| slot)
                    .expect("table is full, hence nonempty"),
            };
            self.entries[slot] = (row, interval);
            self.stamps[slot] = self.clock;
            slot
        }
    }

    /// Clears the table (called at every new refresh window).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stamps.clear();
        self.next_victim = 0;
        self.clock = 0;
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

    /// Iterates over `(row, interval)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (RowAddr, u32)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_returns_none() {
        let t = HistoryTable::new(4);
        assert_eq!(t.lookup(RowAddr(1)), None);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn record_then_lookup() {
        let mut t = HistoryTable::new(4);
        let slot = t.record(RowAddr(3), 77);
        assert_eq!(slot, 0);
        assert_eq!(t.lookup(RowAddr(3)), Some(77));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn record_existing_updates_in_place() {
        let mut t = HistoryTable::new(4);
        t.record(RowAddr(3), 77);
        t.record(RowAddr(5), 80);
        let slot = t.record(RowAddr(3), 99);
        assert_eq!(slot, 0, "existing entry keeps its slot");
        assert_eq!(t.lookup(RowAddr(3)), Some(99));
        assert_eq!(t.len(), 2, "no duplicate entry");
    }

    #[test]
    fn fifo_eviction_order() {
        let mut t = HistoryTable::new(3);
        t.record(RowAddr(1), 10);
        t.record(RowAddr(2), 20);
        t.record(RowAddr(3), 30);
        // Full: the next three inserts evict rows 1, 2, 3 in order.
        t.record(RowAddr(4), 40);
        assert_eq!(t.lookup(RowAddr(1)), None);
        assert_eq!(t.lookup(RowAddr(2)), Some(20));
        t.record(RowAddr(5), 50);
        assert_eq!(t.lookup(RowAddr(2)), None);
        assert_eq!(t.lookup(RowAddr(3)), Some(30));
        t.record(RowAddr(6), 60);
        assert_eq!(t.lookup(RowAddr(3)), None);
        assert_eq!(t.lookup(RowAddr(4)), Some(40));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = HistoryTable::new(2);
        t.record(RowAddr(1), 10);
        t.record(RowAddr(2), 20);
        t.record(RowAddr(3), 30); // wraps the FIFO pointer
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(RowAddr(3)), None);
        // After clear the FIFO restarts from slot 0.
        assert_eq!(t.record(RowAddr(9), 1), 0);
    }

    #[test]
    fn position_and_interval_at_agree() {
        let mut t = HistoryTable::new(4);
        t.record(RowAddr(8), 5);
        t.record(RowAddr(9), 6);
        let pos = t.position(RowAddr(9)).unwrap();
        assert_eq!(t.interval_at(pos), Some(6));
        assert_eq!(t.interval_at(99), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = HistoryTable::new(0);
    }

    #[test]
    fn iter_yields_storage_order() {
        let mut t = HistoryTable::new(3);
        t.record(RowAddr(1), 10);
        t.record(RowAddr(2), 20);
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v, vec![(RowAddr(1), 10), (RowAddr(2), 20)]);
    }

    #[test]
    fn lru_evicts_least_recently_matched() {
        let mut t = HistoryTable::with_policy(2, HistoryPolicy::Lru);
        assert_eq!(t.policy(), HistoryPolicy::Lru);
        t.record(RowAddr(1), 10);
        t.record(RowAddr(2), 20);
        // Touch row 1 — row 2 becomes the LRU victim.
        assert_eq!(t.search(RowAddr(1)), Some(10));
        t.record(RowAddr(3), 30);
        assert_eq!(t.lookup(RowAddr(1)), Some(10));
        assert_eq!(t.lookup(RowAddr(2)), None);
        assert_eq!(t.lookup(RowAddr(3)), Some(30));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut t = HistoryTable::new(2);
        t.record(RowAddr(1), 10);
        t.record(RowAddr(2), 20);
        // Touching row 1 does not save it under FIFO.
        assert_eq!(t.search(RowAddr(1)), Some(10));
        t.record(RowAddr(3), 30);
        assert_eq!(t.lookup(RowAddr(1)), None);
        assert_eq!(t.lookup(RowAddr(2)), Some(20));
    }

    #[test]
    fn search_misses_do_not_disturb_state() {
        let mut t = HistoryTable::with_policy(2, HistoryPolicy::Lru);
        t.record(RowAddr(1), 10);
        assert_eq!(t.search(RowAddr(9)), None);
        assert_eq!(t.len(), 1);
    }
}
