//! CAT — adaptive Counter-based tree (Seyedzadeh, Jones, Melhem, ISCA
//! 2018: "Mitigating wordline crosstalk using adaptive trees of
//! counters").
//!
//! Discussed in §II of the paper as the first area-reduction approach
//! for tabled counters: a binary tree in which each node counts the
//! activations of a *range* of rows.  When a node's counter overflows
//! its split threshold, the node splits and each child counts half of
//! the range — so only frequently activated regions grow deep subtrees.
//! The tree is reset at each new refresh window.  A leaf covering a
//! single row that reaches the trigger threshold fires `act_n`.
//!
//! §II also records the weakness we reproduce in the adversarial suite:
//! an attacker can "fill all the levels of the tree to make it balanced
//! and saturated before it reaches the levels where it would track the
//! aggressor rows precisely" — when the node budget is exhausted, splits
//! stop and precision is lost.

use dram_sim::{BankId, Geometry, RowAddr, FLIP_THRESHOLD};
use mem_trace::EventBatch;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Configuration of a [`CounterTree`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterTreeConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank (the root range).
    pub rows_per_bank: u32,
    /// Refresh intervals per window (tree reset period).
    pub intervals_per_window: u32,
    /// Node budget per bank — the literature requires "no less than
    /// 1 KB per bank" of tree storage for successful mitigation.
    pub max_nodes: usize,
    /// Counter value at which an inner node splits.
    pub split_threshold: u32,
    /// Counter value at which a single-row leaf fires `act_n`.
    pub trigger_threshold: u32,
}

impl CounterTreeConfig {
    /// A 1 KB-class tree per bank: 256 nodes of ~40 bits.
    pub fn paper(geometry: &Geometry) -> Self {
        CounterTreeConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            intervals_per_window: geometry.intervals_per_window(),
            max_nodes: 256,
            split_threshold: 2048,
            trigger_threshold: FLIP_THRESHOLD / 4,
        }
    }
}

/// One tree node covering rows `lo..hi` (half-open).
#[derive(Debug, Clone, Copy)]
struct Node {
    lo: u32,
    hi: u32,
    count: u32,
    /// Index of the left child; `hi`-child is `left + 1`.  `None` = leaf.
    left: Option<usize>,
}

/// Per-bank adaptive counter tree.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new(rows: u32) -> Self {
        Tree {
            nodes: vec![Node {
                lo: 0,
                hi: rows,
                count: 0,
                left: None,
            }],
        }
    }

    /// Window reset in place: the node arena keeps its capacity so
    /// steady-state window turnover never touches the heap.
    fn reset(&mut self, rows: u32) {
        self.nodes.clear();
        self.nodes.push(Node {
            lo: 0,
            hi: rows,
            count: 0,
            left: None,
        });
    }

    /// Walks the tree for one activation; returns true if the row's
    /// single-row leaf crossed the trigger threshold (which also resets
    /// that leaf).
    fn insert(&mut self, row: u32, config: &CounterTreeConfig) -> bool {
        let mut idx = 0usize;
        loop {
            self.nodes[idx].count += 1;
            let node = self.nodes[idx];
            if let Some(left) = node.left {
                idx = if row < self.nodes[left].hi {
                    left
                } else {
                    left + 1
                };
                continue;
            }
            // Leaf.
            let width = node.hi - node.lo;
            if width == 1 {
                if node.count >= config.trigger_threshold {
                    self.nodes[idx].count = 0;
                    return true;
                }
                return false;
            }
            if node.count >= config.split_threshold && self.nodes.len() + 2 <= config.max_nodes {
                // Split: children each start counting from zero — the
                // parent keeps the coarse history (the unbalanced,
                // adaptive shape of the ISCA 2018 design).
                let mid = node.lo + width / 2;
                let left_idx = self.nodes.len();
                self.nodes.push(Node {
                    lo: node.lo,
                    hi: mid,
                    count: 0,
                    left: None,
                });
                self.nodes.push(Node {
                    lo: mid,
                    hi: node.hi,
                    count: 0,
                    left: None,
                });
                self.nodes[idx].left = Some(left_idx);
            }
            return false;
        }
    }
}

/// The CAT mitigation.
///
/// ```
/// use rh_baselines::CounterTree;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut cat = CounterTree::paper(&Geometry::paper());
/// let mut actions = Vec::new();
/// for _ in 0..200_000 {
///     cat.on_activate(BankId(0), RowAddr(12_345), &mut actions);
/// }
/// assert!(!actions.is_empty(), "a hammered row is eventually isolated and caught");
/// ```
#[derive(Debug)]
pub struct CounterTree {
    config: CounterTreeConfig,
    trees: Vec<Tree>,
    interval: u32,
    /// High-watermark of allocated nodes (diagnostic).
    peak_nodes: usize,
}

impl CounterTree {
    /// Creates a counter tree from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are zero or the node budget is below 3
    /// (a root plus one split).
    pub fn new(config: CounterTreeConfig) -> Self {
        assert!(config.split_threshold > 0 && config.trigger_threshold > 0);
        assert!(config.max_nodes >= 3, "node budget too small to ever split");
        CounterTree {
            trees: (0..config.banks)
                .map(|_| Tree::new(config.rows_per_bank))
                .collect(),
            config,
            interval: 0,
            peak_nodes: 0,
        }
    }

    /// The ≈1 KB/bank configuration (see [`CounterTreeConfig::paper`]).
    pub fn paper(geometry: &Geometry) -> Self {
        CounterTree::new(CounterTreeConfig::paper(geometry))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CounterTreeConfig {
        &self.config
    }

    /// Highest node count reached in any bank.
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }
}

impl Mitigation for CounterTree {
    fn name(&self) -> &str {
        "CAT"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let tree = &mut self.trees[bank.index()];
        if tree.insert(row.0, &self.config) {
            actions.push(MitigationAction::ActivateNeighbors { bank, row });
        }
        self.peak_nodes = self.peak_nodes.max(tree.nodes.len());
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the bank's tree is hoisted once per run and the
        // node watermark is settled at run end — node count only grows
        // within a run (resets happen at window boundaries), so the
        // end-of-run length is the run's maximum.
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let tree = &mut self.trees[bank.index()];
            for i in run {
                let row = rows[i];
                if tree.insert(row.0, &self.config) {
                    sink.push(i as u32, MitigationAction::ActivateNeighbors { bank, row });
                }
            }
            self.peak_nodes = self.peak_nodes.max(tree.nodes.len());
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {
        self.interval += 1;
        if self.interval == self.config.intervals_per_window {
            // "the tree is reset at each new refresh window"
            self.interval = 0;
            for tree in &mut self.trees {
                tree.reset(self.config.rows_per_bank);
            }
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        // Row-range bounds can be reconstructed from the tree shape, so
        // a hardware node stores a counter plus two child pointers.
        let counter_bits = u64::from(u32::BITS - self.config.split_threshold.leading_zeros()).max(
            u64::from(u32::BITS - self.config.trigger_threshold.leading_zeros()),
        );
        let pointer_bits = u64::from(usize::BITS - (self.config.max_nodes - 1).leading_zeros());
        self.config.max_nodes as u64 * (counter_bits + pointer_bits + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> CounterTree {
        CounterTree::paper(&Geometry::paper().with_banks(1))
    }

    #[test]
    fn tree_splits_toward_hammered_row() {
        let mut c = cat();
        let mut actions = Vec::new();
        for _ in 0..100_000 {
            c.on_activate(BankId(0), RowAddr(12_345), &mut actions);
        }
        // log2(65536) = 16 splits isolate a single row: 1 + 2·16 nodes.
        assert!(c.peak_nodes() >= 33, "peak {}", c.peak_nodes());
        assert!(c.peak_nodes() <= c.config().max_nodes);
    }

    #[test]
    fn hammered_row_triggers() {
        let mut c = cat();
        let mut actions = Vec::new();
        for _ in 0..200_000 {
            c.on_activate(BankId(0), RowAddr(12_345), &mut actions);
        }
        assert!(!actions.is_empty());
        assert!(actions.iter().all(|a| a.row() == RowAddr(12_345)));
    }

    #[test]
    fn scattered_traffic_never_triggers() {
        let mut c = cat();
        let mut actions = Vec::new();
        for i in 0..100_000u32 {
            c.on_activate(BankId(0), RowAddr((i * 37) % 65_536), &mut actions);
        }
        assert!(actions.is_empty());
    }

    #[test]
    fn window_reset_restores_root_only() {
        let mut c = cat();
        let mut actions = Vec::new();
        for _ in 0..10_000 {
            c.on_activate(BankId(0), RowAddr(12_345), &mut actions);
        }
        assert!(c.trees[0].nodes.len() > 1);
        for _ in 0..8192 {
            c.on_refresh_interval(&mut actions);
        }
        assert_eq!(c.trees[0].nodes.len(), 1);
    }

    #[test]
    fn saturation_attack_stops_splitting() {
        // Spray the whole bank to exhaust the node budget, then check
        // the tree is saturated (the §II criticism).
        let mut c = cat();
        let mut actions = Vec::new();
        for i in 0..2_000_000u64 {
            c.on_activate(
                BankId(0),
                RowAddr(((i * 7919) % 65_536) as u32),
                &mut actions,
            );
        }
        assert!(c.peak_nodes() >= c.config().max_nodes - 2);
    }

    #[test]
    fn batched_kernel_matches_scalar_path() {
        use mem_trace::TraceEvent;
        use tivapromi::ActionSink;
        let cfg = CounterTreeConfig {
            split_threshold: 8,
            trigger_threshold: 60,
            ..CounterTreeConfig::paper(&Geometry::paper().with_banks(3))
        };
        let mut kernel = CounterTree::new(cfg);
        let mut scalar = CounterTree::new(cfg);

        let mut events = Vec::new();
        for i in 0..1024u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(12_345)));
        }
        let mut batch = EventBatch::new();
        batch.push_interval(&events);
        let mut sink = ActionSink::new();
        kernel.on_batch(&batch, batch.segment(0), &mut sink);

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
        assert_eq!(kernel.peak_nodes(), scalar.peak_nodes());
    }

    #[test]
    fn storage_is_about_a_kilobyte() {
        let c = cat();
        let bytes = c.storage_bytes_per_bank();
        assert!(bytes > 500.0 && bytes < 2048.0, "got {bytes}");
    }
}
