//! The cycle tier: row-buffer state and per-command cycle costs on top
//! of the exact model.
//!
//! [`CycleBackend`] wraps a [`DramDevice`] — every disturbance-visible
//! result (flips, activity statistics, the disturbance high-water mark)
//! is the exact model's, by construction.  What the tier *adds* is a
//! price tag: per bank it tracks the open row, and per command it
//! charges cycles from the device timing's [`CycleBudget`]:
//!
//! * a workload activation that **hits** the open row costs a column
//!   access, approximated as `act_cycles / 3` (tRC covers
//!   activate-restore-precharge; a CAS-only access rides the open row);
//! * a **miss** costs the full `act_cycles` (tRC) and re-opens the row;
//! * a mitigation command (`act_n` neighbor activation, victim refresh)
//!   costs `act_cycles` per physical activation and *closes* the open
//!   row — the conservative choice, since a mitigation activate evicts
//!   whatever the workload had open;
//! * the end-of-interval auto-refresh costs `ref_cycles` (tRFC).
//!
//! The accounting lands in [`CycleStats`], per-bank-additive except the
//! per-interval refresh cost (see [`CycleStats::merge`]), so
//! bank-sharded runs stay byte-identical to sequential ones.

use crate::backend::{CycleStats, DisturbanceBackend};
use crate::timing::CycleBudget;
use crate::{BankId, Command, DeviceStats, DramDevice, FlipEvent, RowAddr};

/// The row-buffer + command-timing backend (`--backend cycle`).
#[derive(Debug)]
pub struct CycleBackend {
    inner: DramDevice,
    /// Open row per bank (logical address; `None` after refresh or a
    /// mitigation command).
    open_row: Vec<Option<RowAddr>>,
    budget: CycleBudget,
    /// Cost of a row-buffer hit: `act_cycles / 3`, at least 1.
    hit_cycles: u32,
    cycles: CycleStats,
}

impl CycleBackend {
    /// Wraps an exact device; the cycle budget derives from its timing.
    pub fn new(inner: DramDevice) -> Self {
        let budget = inner.timing().cycle_budget();
        let banks = inner.geometry().banks() as usize;
        CycleBackend {
            inner,
            open_row: vec![None; banks],
            hit_cycles: (budget.act_cycles / 3).max(1),
            budget,
            cycles: CycleStats::default(),
        }
    }

    /// The wrapped event-accurate device.
    pub fn inner(&self) -> &DramDevice {
        &self.inner
    }

    /// The cycle accounting so far.
    pub fn cycles(&self) -> CycleStats {
        self.cycles
    }

    /// Prices one workload activation: a hit on the bank's open row, or
    /// a miss that opens it.
    #[inline]
    fn price_activation(&mut self, bank: BankId, row: RowAddr) {
        let open = &mut self.open_row[bank.index()];
        if *open == Some(row) {
            self.cycles.row_buffer_hits += 1;
            self.cycles.workload_cycles += u64::from(self.hit_cycles);
        } else {
            self.cycles.row_buffer_misses += 1;
            self.cycles.workload_cycles += u64::from(self.budget.act_cycles);
            *open = Some(row);
        }
    }
}

impl DisturbanceBackend for CycleBackend {
    #[inline]
    fn apply(&mut self, command: Command) {
        match command {
            Command::Activate { bank, row } => {
                self.price_activation(bank, row);
                self.inner.apply(command);
            }
            Command::Refresh => {
                self.inner.apply(command);
                self.cycles.refresh_cycles += u64::from(self.budget.ref_cycles);
                for slot in &mut self.open_row {
                    *slot = None;
                }
            }
            Command::ActivateNeighbors { bank, .. } => {
                // Mitigation fan-out varies (edge rows have one
                // neighbor): price the activations the device actually
                // issued, via the stats delta.
                let before = self.inner.stats().mitigation_activations;
                self.inner.apply(command);
                let issued = self.inner.stats().mitigation_activations - before;
                self.cycles.mitigation_cycles += issued * u64::from(self.budget.act_cycles);
                self.open_row[bank.index()] = None;
            }
            Command::RefreshRow { bank, .. } => {
                self.inner.apply(command);
                self.cycles.mitigation_cycles += u64::from(self.budget.act_cycles);
                self.open_row[bank.index()] = None;
            }
        }
    }

    #[inline]
    fn flip_headroom(&self, bank: BankId) -> u64 {
        self.inner.flip_headroom(bank)
    }

    /// Prices the slice's row-buffer hits and misses in one loop — the
    /// open rows depend on nothing the device computes — then hands the
    /// slice to the device's own run delivery.
    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        for (&bank, &row) in banks.iter().zip(rows) {
            self.price_activation(bank, row);
        }
        self.inner.apply_activations(banks, rows);
    }

    #[inline]
    fn flips(&self) -> &[FlipEvent] {
        self.inner.flips()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn max_disturbance_seen(&self) -> u32 {
        self.inner.max_disturbance_seen()
    }

    fn device(&self) -> Option<&DramDevice> {
        Some(&self.inner)
    }

    fn cycle_stats(&self) -> Option<CycleStats> {
        Some(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Geometry;

    fn backend() -> CycleBackend {
        let mut device = DramDevice::new(Geometry::new(64, 2, 8).expect("geometry"));
        device.set_flip_threshold(10);
        CycleBackend::new(device)
    }

    fn act(bank: u32, row: u32) -> Command {
        Command::Activate {
            bank: BankId(bank),
            row: RowAddr(row),
        }
    }

    #[test]
    fn repeat_activations_hit_the_row_buffer() {
        let mut b = backend();
        b.apply(act(0, 5)); // miss: opens the row
        b.apply(act(0, 5)); // hit
        b.apply(act(0, 5)); // hit
        b.apply(act(0, 7)); // miss: conflict
        let c = b.cycles();
        assert_eq!(c.row_buffer_hits, 2);
        assert_eq!(c.row_buffer_misses, 2);
        let act_cost = u64::from(b.budget.act_cycles);
        let hit_cost = u64::from(b.hit_cycles);
        assert_eq!(c.workload_cycles, 2 * act_cost + 2 * hit_cost);
        assert!((c.row_buffer_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn banks_track_open_rows_independently() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(act(1, 5)); // different bank: its own miss
        b.apply(act(0, 5)); // still open in bank 0
        let c = b.cycles();
        assert_eq!(c.row_buffer_hits, 1);
        assert_eq!(c.row_buffer_misses, 2);
    }

    #[test]
    fn mitigation_commands_are_priced_and_close_the_row() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(Command::ActivateNeighbors {
            bank: BankId(0),
            row: RowAddr(5),
        });
        let act_cost = u64::from(b.budget.act_cycles);
        // Interior row: two neighbors activated, two activations priced.
        assert_eq!(b.cycles().mitigation_cycles, 2 * act_cost);
        assert_eq!(b.stats().mitigation_activations, 2);
        b.apply(act(0, 5)); // mitigation closed the row: miss again
        assert_eq!(b.cycles().row_buffer_misses, 2);
        assert!(b.cycles().bandwidth_overhead_percent() > 0.0);
    }

    #[test]
    fn edge_row_mitigation_prices_single_neighbor() {
        let mut b = backend();
        b.apply(Command::ActivateNeighbors {
            bank: BankId(0),
            row: RowAddr(0),
        });
        assert_eq!(b.stats().mitigation_activations, 1);
        assert_eq!(b.cycles().mitigation_cycles, u64::from(b.budget.act_cycles));
    }

    #[test]
    fn refresh_costs_trfc_and_flushes_row_buffers() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(Command::Refresh);
        assert_eq!(b.cycles().refresh_cycles, u64::from(b.budget.ref_cycles));
        b.apply(act(0, 5)); // refresh closed it: miss
        assert_eq!(b.cycles().row_buffer_misses, 2);
    }

    #[test]
    fn disturbance_results_are_the_exact_models() {
        let mut cycle = backend();
        let mut exact = DramDevice::new(Geometry::new(64, 2, 8).expect("geometry"));
        exact.set_flip_threshold(10);
        for _ in 0..12 {
            cycle.apply(act(0, 5));
            exact.apply(act(0, 5));
        }
        cycle.apply(Command::Refresh);
        exact.apply(Command::Refresh);
        assert_eq!(cycle.flips(), exact.flips());
        assert_eq!(cycle.stats(), exact.stats());
        assert_eq!(cycle.max_disturbance_seen(), exact.max_disturbance_seen());
        assert!(cycle.device().is_some());
        assert!(cycle.cycle_stats().is_some());
    }
}
