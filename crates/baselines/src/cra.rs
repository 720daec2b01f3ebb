//! CRA — Counter-based Row Activation (Kim, Nair, Qureshi, IEEE CAL
//! 2015: "Architectural support for mitigating row hammering in DRAM
//! memories").
//!
//! The simplest tabled-counter scheme: one counter per DRAM row.  When a
//! row's counter crosses the trigger threshold, its neighbors
//! are refreshed (`act_n`) and the counter resets; each row's counter
//! also resets when the row's victims… rather, when the row's *neighbors*
//! are refreshed by the regular refresh schedule, their accumulated
//! disturbance is gone, so CRA resets a row's counter when the refresh
//! schedule has passed its neighborhood — modelled here by resetting the
//! counters of the rows refreshed in each interval (the counters live in
//! DRAM alongside the rows and are reset by the refresh sweep).
//!
//! The storage is exact and huge — `rows × counter_bits` ≈ 136 KB per
//! 64 K-row bank — which is why the paper calls per-row counters "mostly
//! infeasible to implement" in the controller: the counters must live in
//! DRAM, with a small cache in the controller.

use dram_sim::{BankId, Geometry, RowAddr, FLIP_THRESHOLD};
use mem_trace::EventBatch;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Configuration of a [`Cra`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CraConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank (one counter each).
    pub rows_per_bank: u32,
    /// Counter value triggering the neighbor refresh (`th_RH / 4`, see
    /// [`CraConfig::paper`]).
    pub trigger_threshold: u32,
    /// Refresh intervals per window (for the refresh-sweep reset).
    pub intervals_per_window: u32,
    /// Rows refreshed per interval.
    pub rows_per_interval: u32,
}

impl CraConfig {
    /// The CAL 2015 scheme at the paper's parameters.
    ///
    /// The trigger threshold is `th_RH / 4` rather than `th_RH / 2`:
    /// the refresh sweep resets a row's counter at the row's *own*
    /// refresh slot, which for rows at refresh-group boundaries is up to
    /// one interval away from a victim's slot — the victim's
    /// accumulation span can therefore straddle two counter windows.
    /// Quartering the threshold (as TWiCe does for the same reason)
    /// keeps the worst case `2 windows × 2 aggressors × (th/4 − 1)`
    /// strictly below the 139 K flip threshold.
    pub fn paper(geometry: &Geometry) -> Self {
        CraConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            trigger_threshold: FLIP_THRESHOLD / 4,
            intervals_per_window: geometry.intervals_per_window(),
            rows_per_interval: geometry.rows_per_interval(),
        }
    }
}

/// The CRA mitigation.
///
/// ```
/// use rh_baselines::Cra;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut cra = Cra::paper(&Geometry::paper());
/// let mut actions = Vec::new();
/// for _ in 0..34_750 {
///     cra.on_activate(BankId(0), RowAddr(77), &mut actions);
/// }
/// assert_eq!(actions.len(), 1); // deterministic trigger at th/4
/// ```
#[derive(Debug)]
pub struct Cra {
    config: CraConfig,
    /// Per-bank, per-row activation counters.
    counters: Vec<Vec<u32>>,
    /// Interval within the window (drives the refresh-sweep reset).
    interval: u32,
}

impl Cra {
    /// Creates CRA from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the trigger threshold is zero.
    pub fn new(config: CraConfig) -> Self {
        assert!(
            config.trigger_threshold > 0,
            "trigger threshold must be nonzero"
        );
        Cra {
            counters: (0..config.banks)
                .map(|_| vec![0; config.rows_per_bank as usize])
                .collect(),
            config,
            interval: 0,
        }
    }

    /// The CAL 2015 configuration (see [`CraConfig::paper`]).
    pub fn paper(geometry: &Geometry) -> Self {
        Cra::new(CraConfig::paper(geometry))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CraConfig {
        &self.config
    }

    /// Current counter of a row (diagnostic).
    pub fn counter(&self, bank: BankId, row: RowAddr) -> u32 {
        self.counters[bank.index()][row.index()]
    }
}

impl Mitigation for Cra {
    fn name(&self) -> &str {
        "CRA"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let counter = &mut self.counters[bank.index()][row.index()];
        *counter += 1;
        if *counter >= self.config.trigger_threshold {
            *counter = 0;
            actions.push(MitigationAction::ActivateNeighbors { bank, row });
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: per bank run the counter array is hoisted once
        // and the update is a branchless increment-compare-select — the
        // trigger itself is the only (rare) branch.
        let threshold = self.config.trigger_threshold;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let counters = &mut self.counters[bank.index()];
            for i in run {
                let row = rows[i];
                let value = counters[row.index()] + 1;
                let fire = value >= threshold;
                counters[row.index()] = if fire { 0 } else { value };
                if fire {
                    sink.push(i as u32, MitigationAction::ActivateNeighbors { bank, row });
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {
        // The refresh sweep restores the rows of this interval; an
        // aggressor's budget against them restarts, so the aggressor
        // counters adjacent to the refreshed range reset.  CRA stores
        // its counters in the same DRAM rows, so the sweep resets the
        // counters of the refreshed rows themselves.
        let start = self.interval * self.config.rows_per_interval;
        for bank in &mut self.counters {
            for offset in 0..self.config.rows_per_interval {
                bank[(start + offset) as usize] = 0;
            }
        }
        self.interval = (self.interval + 1) % self.config.intervals_per_window;
    }

    fn storage_bits_per_bank(&self) -> u64 {
        let counter_bits = u64::from(u32::BITS - self.config.trigger_threshold.leading_zeros());
        u64::from(self.config.rows_per_bank) * counter_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cra() -> Cra {
        Cra::paper(&Geometry::paper().with_banks(1))
    }

    #[test]
    fn deterministic_trigger_at_quarter_threshold() {
        let mut c = cra();
        let mut actions = Vec::new();
        for _ in 0..34_749 {
            c.on_activate(BankId(0), RowAddr(5), &mut actions);
        }
        assert!(actions.is_empty());
        c.on_activate(BankId(0), RowAddr(5), &mut actions);
        assert_eq!(actions.len(), 1);
        assert_eq!(c.counter(BankId(0), RowAddr(5)), 0);
    }

    #[test]
    fn refresh_sweep_resets_swept_rows() {
        let mut c = cra();
        let mut actions = Vec::new();
        // Row 3 is refreshed by interval 0 (rows 0–7).
        for _ in 0..100 {
            c.on_activate(BankId(0), RowAddr(3), &mut actions);
        }
        assert_eq!(c.counter(BankId(0), RowAddr(3)), 100);
        c.on_refresh_interval(&mut actions);
        assert_eq!(c.counter(BankId(0), RowAddr(3)), 0);
        // Row 100 is not in interval 0's sweep.
        for _ in 0..10 {
            c.on_activate(BankId(0), RowAddr(100), &mut actions);
        }
        c.on_refresh_interval(&mut actions); // interval 1 refreshes 8–15
        assert_eq!(c.counter(BankId(0), RowAddr(100)), 10);
    }

    #[test]
    fn interval_wraps_at_window_end() {
        let mut c = cra();
        let mut actions = Vec::new();
        for _ in 0..8192 {
            c.on_refresh_interval(&mut actions);
        }
        assert_eq!(c.interval, 0);
    }

    #[test]
    fn batched_kernel_matches_scalar_path() {
        use mem_trace::TraceEvent;
        use tivapromi::ActionSink;
        let cfg = CraConfig {
            trigger_threshold: 40,
            ..CraConfig::paper(&Geometry::paper().with_banks(3))
        };
        let mut kernel = Cra::new(cfg);
        let mut scalar = Cra::new(cfg);

        let mut events = Vec::new();
        for i in 0..512u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(300 + i % 4)));
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
        assert_eq!(kernel.counters, scalar.counters);
    }

    #[test]
    fn storage_is_a_counter_per_row() {
        let c = cra();
        // 65 536 rows × 16 bits = 128 KB.
        assert_eq!(c.storage_bits_per_bank(), 65_536 * 16);
        assert!(c.storage_bytes_per_bank() > 100_000.0);
    }
}
