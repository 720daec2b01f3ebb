//! TWiCe (Lee et al., ISCA 2019 — "TWiCe: Preventing Row-hammering by
//! Exploiting Time Window Counters").
//!
//! TWiCe is the state of the art of tabled counters in the paper's
//! comparison.  Its key insight: a row can only receive a bounded number
//! of activations per refresh interval (165 on DDR4), so a row whose
//! per-interval average falls below a *pruning threshold* can never reach
//! the row-hammer threshold before its next scheduled refresh — such
//! entries can be dropped, which caps the number of live counters at a
//! few hundred instead of one per row.
//!
//! Mechanics per bank:
//!
//! * On activation: increment the row's counter, allocating an entry
//!   (with a `life` of the number of intervals it has been tracked) on a
//!   miss.
//! * When a counter reaches the trigger threshold (`th_RH / 4`,
//!   accounting for double-sided attacks and detection latency), issue
//!   `act_n` for the row and restart the entry.
//! * At each refresh-interval boundary: increment every entry's `life`
//!   and prune entries with `count < pruning_rate · life`.
//!
//! The paper's criticisms are also visible in this model: the valid
//! entry set must be searched associatively (a CAM in hardware — the
//! source of TWiCe's 740× LUT count in Table III).

use dram_sim::{Geometry, RowAddr, FLIP_THRESHOLD};
use mem_trace::EventBatch;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Configuration of a [`TwiCe`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwiCeConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Counter value that triggers a neighbor refresh (`th_RH / 4`).
    pub trigger_threshold: u32,
    /// Minimum average activations per interval an entry must sustain to
    /// stay tracked (`⌈trigger_threshold / RefInt⌉`).
    pub pruning_rate: u32,
    /// Maximum live entries per bank (the CAM capacity; ISCA 2019 sizes
    /// this analytically — 595 entries for DDR4).
    pub max_entries: usize,
}

impl TwiCeConfig {
    /// The ISCA 2019 sizing for the paper's DDR4 parameters:
    /// trigger at 139 000 / 4 = 34 750, pruning rate
    /// ⌈34 750 / 8192⌉ = 5, 595 CAM entries.
    pub fn paper(geometry: &Geometry) -> Self {
        let trigger_threshold = FLIP_THRESHOLD / 4;
        let ref_int = geometry.intervals_per_window();
        TwiCeConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            trigger_threshold,
            pruning_rate: trigger_threshold.div_ceil(ref_int),
            max_entries: 595,
        }
    }
}

/// One TWiCe counter entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    row: RowAddr,
    count: u32,
    /// Refresh intervals since the entry was allocated.
    life: u32,
}

/// One activation against a bank's CAM: increment on hit (returning
/// whether `act_n` fired, which restarts the entry), allocate on miss.
fn observe(table: &mut Vec<Entry>, row: RowAddr, config: &TwiCeConfig) -> bool {
    if let Some(entry) = table.iter_mut().find(|e| e.row == row) {
        entry.count += 1;
        if entry.count >= config.trigger_threshold {
            // The neighbors were just restored: the row's budget
            // restarts.
            entry.count = 0;
            entry.life = 0;
            return true;
        }
        return false;
    }
    // Allocate on miss.  The analytic sizing guarantees space; if an
    // adversarial pattern still overflows the CAM, evict the entry
    // closest to pruning (smallest count-per-life) — it is the one
    // the pruning proof says is least dangerous.
    if table.len() >= config.max_entries {
        if let Some(idx) = table
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (u64::from(e.count) << 16) / u64::from(e.life.max(1)))
            .map(|(i, _)| i)
        {
            table.swap_remove(idx);
        }
    }
    table.push(Entry {
        row,
        count: 1,
        life: 0,
    });
    false
}

/// The TWiCe mitigation.
///
/// ```
/// use rh_baselines::TwiCe;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut twice = TwiCe::paper(&Geometry::paper());
/// let mut actions = Vec::new();
/// // 34 750 activations of one row deterministically trigger act_n.
/// for _ in 0..34_750 {
///     twice.on_activate(BankId(0), RowAddr(123), &mut actions);
/// }
/// assert_eq!(actions.len(), 1);
/// ```
#[derive(Debug)]
pub struct TwiCe {
    config: TwiCeConfig,
    tables: Vec<Vec<Entry>>,
    /// High-watermark of live entries (validates the CAM sizing).
    peak_entries: usize,
}

impl TwiCe {
    /// Creates TWiCe from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if thresholds or capacity are zero.
    pub fn new(config: TwiCeConfig) -> Self {
        assert!(
            config.trigger_threshold > 0,
            "trigger threshold must be nonzero"
        );
        assert!(config.pruning_rate > 0, "pruning rate must be nonzero");
        assert!(config.max_entries > 0, "CAM must be nonempty");
        TwiCe {
            // Each CAM is sized once: eviction keeps it within
            // `max_entries`, and it holds distinct rows of one bank, so
            // no activation grows it.
            tables: (0..config.banks)
                .map(|_| Vec::with_capacity(config.max_entries.min(config.rows_per_bank as usize)))
                .collect(),
            config,
            peak_entries: 0,
        }
    }

    /// The ISCA 2019 sizing (see [`TwiCeConfig::paper`]).
    pub fn paper(geometry: &Geometry) -> Self {
        TwiCe::new(TwiCeConfig::paper(geometry))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TwiCeConfig {
        &self.config
    }

    /// Highest number of simultaneously live entries seen in any bank.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }
}

impl Mitigation for TwiCe {
    fn name(&self) -> &str {
        "TWiCe"
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the bank's CAM is hoisted once per run and the
        // peak-occupancy watermark is settled at run end — within a run
        // the table length is monotone (pruning only happens at interval
        // boundaries), so the end-of-run length is the run's maximum.
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let table = &mut self.tables[bank.index()];
            for i in run {
                let row = rows[i];
                if observe(table, row, &self.config) {
                    sink.push(i as u32, MitigationAction::ActivateNeighbors { bank, row });
                }
            }
            self.peak_entries = self.peak_entries.max(table.len());
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {
        let rate = self.config.pruning_rate;
        for table in &mut self.tables {
            for entry in table.iter_mut() {
                entry.life += 1;
            }
            // Prune entries that can no longer reach the trigger
            // threshold before their refresh (count < rate · life).
            table.retain(|e| e.count >= rate.saturating_mul(e.life));
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        let row_bits = u64::from(u32::BITS - (self.config.rows_per_bank - 1).leading_zeros());
        let count_bits = u64::from(u32::BITS - self.config.trigger_threshold.leading_zeros());
        let life_bits = 13; // interval index within a window
        self.config.max_entries as u64 * (row_bits + count_bits + life_bits + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::BankId;

    fn twice() -> TwiCe {
        TwiCe::paper(&Geometry::paper().with_banks(1))
    }

    #[test]
    fn paper_thresholds() {
        let t = twice();
        assert_eq!(t.config().trigger_threshold, 34_750);
        assert_eq!(t.config().pruning_rate, 5);
        assert_eq!(t.config().max_entries, 595);
    }

    #[test]
    fn trigger_is_deterministic() {
        let mut t = twice();
        let mut actions = Vec::new();
        for i in 0..34_749 {
            t.on_activate(BankId(0), RowAddr(9), &mut actions);
            assert!(actions.is_empty(), "early trigger at {i}");
        }
        t.on_activate(BankId(0), RowAddr(9), &mut actions);
        assert_eq!(
            actions,
            vec![MitigationAction::ActivateNeighbors {
                bank: BankId(0),
                row: RowAddr(9)
            }]
        );
    }

    #[test]
    fn trigger_resets_budget() {
        let mut t = twice();
        let mut actions = Vec::new();
        for _ in 0..(34_750 * 2) {
            t.on_activate(BankId(0), RowAddr(9), &mut actions);
        }
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn slow_rows_are_pruned() {
        let mut t = twice();
        let mut actions = Vec::new();
        // 3 activations per interval < pruning rate 5 → pruned after the
        // first boundary.
        for _ in 0..3 {
            t.on_activate(BankId(0), RowAddr(9), &mut actions);
        }
        assert_eq!(t.tables[0].len(), 1);
        t.on_refresh_interval(&mut actions);
        assert!(t.tables[0].is_empty());
    }

    #[test]
    fn fast_rows_survive_pruning() {
        let mut t = twice();
        let mut actions = Vec::new();
        for _ in 0..10 {
            for _ in 0..20 {
                // 20 per interval ≥ 5·life
                t.on_activate(BankId(0), RowAddr(9), &mut actions);
            }
            t.on_refresh_interval(&mut actions);
        }
        assert_eq!(t.tables[0].len(), 1);
        assert_eq!(t.tables[0][0].count, 200);
    }

    #[test]
    fn pruning_never_discards_a_dangerous_row() {
        // The TWiCe safety argument: a pruned row has
        // count < rate · life, so even at the max future rate it cannot
        // reach the trigger threshold before a full window elapses.
        // Hammer at exactly rate-1 per interval for a full window: the
        // entry is pruned, and indeed the total count stays far below
        // the trigger threshold.
        let mut t = twice();
        let mut actions = Vec::new();
        let mut total = 0u32;
        for _ in 0..8192u32 {
            for _ in 0..4 {
                t.on_activate(BankId(0), RowAddr(9), &mut actions);
                total += 1;
            }
            t.on_refresh_interval(&mut actions);
        }
        assert!(actions.is_empty());
        assert!(total < t.config().trigger_threshold * 4);
        // And the row never survived tracking long enough to matter.
        assert!(t.tables[0].len() <= 1);
    }

    #[test]
    fn cam_occupancy_stays_within_sizing() {
        let mut t = twice();
        let mut actions = Vec::new();
        // Worst realistic churn: 165 distinct rows per interval.
        for interval in 0..100u32 {
            for k in 0..165u32 {
                t.on_activate(BankId(0), RowAddr(interval * 165 + k), &mut actions);
            }
            t.on_refresh_interval(&mut actions);
        }
        assert!(t.peak_entries() <= 595, "peak {}", t.peak_entries());
    }

    #[test]
    fn batched_kernel_matches_one_event_batches() {
        use mem_trace::TraceEvent;
        use tivapromi::ActionSink;
        let cfg = TwiCeConfig {
            trigger_threshold: 30,
            ..TwiCeConfig::paper(&Geometry::paper().with_banks(3))
        };
        let mut kernel = TwiCe::new(cfg);
        let mut scalar = TwiCe::new(cfg);

        let mut events = Vec::new();
        for i in 0..512u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(400 + i % 5)));
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
        assert_eq!(kernel.tables, scalar.tables);
        assert_eq!(kernel.peak_entries(), scalar.peak_entries());
    }

    #[test]
    fn storage_is_kilobytes() {
        let t = twice();
        let bytes = t.storage_bytes_per_bank();
        assert!(bytes > 2000.0 && bytes < 5000.0, "got {bytes}");
    }
}
