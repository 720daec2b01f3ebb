//! The fast tier: per-interval disturbance accumulation.
//!
//! [`FastBackend`] trades per-event counter updates for per-interval
//! resolution.  Within a refresh interval it only *counts*: an
//! activation is three array writes (bump the row's pending count,
//! remember first touches, bump the workload counter).  All physics —
//! address resolution, restores, neighbor disturbance, flip checks —
//! runs once per interval, at `Refresh`, over the distinct rows that
//! were touched.
//!
//! ## What stays exact, what drifts
//!
//! Per-bank totals (activation counts, mitigation activation counts,
//! interval counts) and the mitigation decision stream are exact.
//! Disturbance *physics* is approximate in one specific way: within an
//! interval the model applies restores first (the row's own
//! activations, mitigation restores) and neighbor accumulation second.
//! The drift goes both ways:
//!
//! - *hammer, restore, hammer again* collapses to *restore, hammer
//!   everything*, so a row's counter can run up to one interval's worth
//!   of activations (≤ 165 on DDR4 timing, see
//!   [`crate::DramTiming::max_activations_per_interval`]) above the
//!   exact model;
//! - a row that crosses its threshold and is then activated in the same
//!   interval flips on the exact model at the crossing, but here its own
//!   restore comes first and erases the disturbance it carried in, so
//!   the flip is lost (the unit test
//!   `a_row_activated_after_it_crosses_its_threshold_flips_only_on_the_exact_tier`).
//!
//! Flips therefore equal the exact tier's on the equivalence suite's
//! configurations (`tests/backend_equivalence.rs`) and can differ
//! elsewhere: the report of `rh fleet --quick --seed 42` counts 673
//! flips on `--backend exact` and 672 on `--backend fast`.  The
//! end-of-interval auto-refresh ([`crate::RefreshSchedule`]) is applied
//! after accumulation, exactly as in the event-accurate model.
//!
//! All state is per-bank and all per-interval iteration follows
//! first-touch/insertion order, so bank-sharded runs merge
//! byte-identically to sequential ones at any worker count.

use crate::backend::DisturbanceBackend;
use crate::disturb::DISTURB_SCALE;
use crate::{
    BankId, Command, DeviceStats, DisturbState, FlipEvent, Geometry, IdentityMapping, RefreshOrder,
    RefreshSchedule, RowAddr, RowMapping, WeakCellMap,
};

/// Per-bank accumulation state of the fast tier.
#[derive(Debug)]
struct FastBank {
    /// Counter/flip physics, shared with the exact model.
    state: DisturbState,
    /// Pending activation count per *logical* row this interval.
    acts: Vec<u32>,
    /// Logical rows with pending activations, in first-touch order.
    touched: Vec<RowAddr>,
    /// Physical rows restored by mitigation commands this interval, in
    /// issue order.
    restores: Vec<RowAddr>,
}

/// The batch-accumulation backend (`--backend fast`).
///
/// Mirrors [`crate::DramDevice`]'s construction surface so
/// configuration code can build either from the same policies.
#[derive(Debug)]
pub struct FastBackend {
    geometry: Geometry,
    mapping: Box<dyn RowMapping>,
    schedule: RefreshSchedule,
    banks: Vec<FastBank>,
    interval: u64,
    stats: DeviceStats,
    flips: Vec<FlipEvent>,
    distance2_sixteenths: u32,
}

impl FastBackend {
    /// Creates a fast backend with identity mapping, sequential refresh
    /// order and the paper's flip threshold.
    pub fn new(geometry: Geometry) -> Self {
        FastBackend::with_policies(
            geometry,
            Box::new(IdentityMapping),
            &RefreshOrder::SequentialNeighbors,
        )
    }

    /// Creates a fast backend with explicit row mapping and refresh
    /// order (timing does not enter the fast model).
    pub fn with_policies(
        geometry: Geometry,
        mapping: Box<dyn RowMapping>,
        refresh_order: &RefreshOrder,
    ) -> Self {
        let schedule = RefreshSchedule::new(&geometry, refresh_order);
        let rows = geometry.rows_per_bank() as usize;
        let banks = (0..geometry.banks())
            .map(|_| FastBank {
                state: DisturbState::with_paper_threshold(geometry.rows_per_bank()),
                acts: vec![0; rows],
                touched: Vec::new(),
                restores: Vec::new(),
            })
            .collect();
        FastBackend {
            geometry,
            mapping,
            schedule,
            banks,
            interval: 0,
            stats: DeviceStats::default(),
            flips: Vec::new(),
            distance2_sixteenths: 0,
        }
    }

    /// Overrides the flip threshold on every bank.
    pub fn set_flip_threshold(&mut self, threshold: u32) {
        for bank in &mut self.banks {
            bank.state.set_flip_threshold(threshold);
        }
    }

    /// Installs a heterogeneous weak-cell map, exactly as
    /// [`crate::DramDevice::set_weak_cell_map`]: the fast tier shares
    /// `DisturbState`, so per-row thresholds carry over unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover this backend's geometry.
    pub fn set_weak_cell_map(&mut self, map: &WeakCellMap) {
        assert_eq!(map.banks(), self.geometry.banks(), "map bank count");
        assert_eq!(
            map.rows_per_bank(),
            self.geometry.rows_per_bank(),
            "map row count"
        );
        for (index, bank) in self.banks.iter_mut().enumerate() {
            let id = BankId(u32::try_from(index).expect("bank count fits u32"));
            bank.state.set_row_thresholds(map.bank_thresholds(id));
        }
    }

    /// Enables distance-2 ("blast radius") coupling, in sixteenths of
    /// the distance-1 disturbance.
    ///
    /// # Panics
    ///
    /// Panics if `sixteenths` exceeds 16 (distance-2 coupling cannot
    /// exceed distance-1).
    pub fn set_distance2_coupling(&mut self, sixteenths: u32) {
        assert!(sixteenths <= 16, "distance-2 coupling must be ≤ 1.0");
        self.distance2_sixteenths = sixteenths;
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Total refresh intervals executed so far.
    pub fn current_interval(&self) -> u64 {
        self.interval
    }

    /// Resolves the interval's pending accounting: restores first
    /// (activated rows and mitigation targets), neighbor accumulation
    /// second, the scheduled auto-refresh last — then drains new flips.
    fn resolve_interval(&mut self) {
        let per_window = u64::from(self.geometry.intervals_per_window());
        let in_window =
            u32::try_from(self.interval % per_window).expect("modulo a u32 always fits u32");
        let scheduled = self.schedule.rows_for_interval(in_window);
        let rows = self.geometry.rows_per_bank();
        let d2 = self.distance2_sixteenths;
        let interval = self.interval;
        for (bank_index, bank) in self.banks.iter_mut().enumerate() {
            // 1. Restores: every activated row had its own charge
            // restored by the activation; mitigation restores land in
            // issue order after them.
            for &row in &bank.touched {
                bank.state.restore(self.mapping.physical(row));
            }
            for &phys in &bank.restores {
                bank.state.restore(phys);
            }
            // 2. Neighbor disturbance, one scaled event per distinct
            // activated row (first-touch order keeps flip detection
            // order deterministic and shard-stable).
            for &row in &bank.touched {
                let count = std::mem::take(&mut bank.acts[row.index()]);
                let phys = self.mapping.physical(row);
                let scaled = count.saturating_mul(DISTURB_SCALE);
                if phys.0 > 0 {
                    bank.state.disturb_scaled(RowAddr(phys.0 - 1), scaled);
                }
                if phys.0 + 1 < rows {
                    bank.state.disturb_scaled(RowAddr(phys.0 + 1), scaled);
                }
                if d2 > 0 {
                    let scaled2 = count.saturating_mul(d2);
                    if phys.0 > 1 {
                        bank.state.disturb_scaled(RowAddr(phys.0 - 2), scaled2);
                    }
                    if phys.0 + 2 < rows {
                        bank.state.disturb_scaled(RowAddr(phys.0 + 2), scaled2);
                    }
                }
            }
            bank.touched.clear();
            bank.restores.clear();
            // 3. End-of-interval auto-refresh (physical rows, every
            // bank), exactly as the event-accurate model.
            for &row in scheduled {
                bank.state.restore(row);
            }
            let bank_id = BankId(u32::try_from(bank_index).expect("bank count fits u32"));
            for row in bank.state.take_new_flips() {
                self.flips.push(FlipEvent {
                    bank: bank_id,
                    row,
                    interval,
                });
            }
        }
        self.interval += 1;
        self.stats.refresh_intervals += 1;
    }
}

impl DisturbanceBackend for FastBackend {
    #[inline]
    fn apply(&mut self, command: Command) {
        match command {
            Command::Activate { bank, row } => {
                self.stats.workload_activations += 1;
                let bank = &mut self.banks[bank.index()];
                let pending = &mut bank.acts[row.index()];
                if *pending == 0 {
                    bank.touched.push(row);
                }
                *pending += 1;
            }
            Command::Refresh => self.resolve_interval(),
            Command::ActivateNeighbors { bank, row } => {
                let neighbors = self.mapping.neighbors(row, &self.geometry);
                let bank = &mut self.banks[bank.index()];
                for &n in neighbors.as_slice() {
                    self.stats.mitigation_activations += 1;
                    bank.restores.push(n);
                }
            }
            Command::RefreshRow { bank, row } => {
                self.stats.mitigation_activations += 1;
                let phys = self.mapping.physical(row);
                self.banks[bank.index()].restores.push(phys);
            }
        }
    }

    /// Flips only ever appear when `Refresh` resolves the interval.
    fn defers_flips(&self) -> bool {
        true
    }

    /// The whole point of the tier: a slice of activations is three
    /// array writes per event, with no `Command` dispatch in the loop.
    /// The column is walked in runs of equal bank (the engine hands
    /// over one run per call), hoisting the bank lookup out of the
    /// per-event loop.
    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        self.stats.workload_activations +=
            u64::try_from(banks.len()).expect("segment length fits u64");
        let mut i = 0;
        while i < banks.len() {
            let bank_id = banks[i];
            let mut j = i + 1;
            while j < banks.len() && banks[j] == bank_id {
                j += 1;
            }
            let bank = &mut self.banks[bank_id.index()];
            for &row in &rows[i..j] {
                let pending = &mut bank.acts[row.index()];
                if *pending == 0 {
                    bank.touched.push(row);
                }
                *pending += 1;
            }
            i = j;
        }
    }

    fn flips(&self) -> &[FlipEvent] {
        &self.flips
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn max_disturbance_seen(&self) -> u32 {
        self.banks
            .iter()
            .map(|b| b.state.max_disturbance_seen())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramDevice;

    fn small() -> Geometry {
        Geometry::new(64, 2, 8).expect("geometry")
    }

    fn fast(threshold: u32) -> FastBackend {
        let mut backend = FastBackend::new(small());
        backend.set_flip_threshold(threshold);
        backend
    }

    #[test]
    fn uninterrupted_hammering_matches_the_exact_model() {
        // No mid-interval restores of the victims: the accumulated sum
        // equals the exact per-event sum, so flips agree exactly.
        let mut exact = DramDevice::new(small());
        exact.set_flip_threshold(10);
        let mut fast = fast(10);
        for _ in 0..10 {
            let cmd = Command::Activate {
                bank: BankId(0),
                row: RowAddr(5),
            };
            exact.apply(cmd);
            DisturbanceBackend::apply(&mut fast, cmd);
        }
        exact.apply(Command::Refresh);
        DisturbanceBackend::apply(&mut fast, Command::Refresh);
        let exact_rows: Vec<RowAddr> = exact.flips().iter().map(|f| f.row).collect();
        let fast_rows: Vec<RowAddr> = fast.flips.iter().map(|f| f.row).collect();
        assert_eq!(exact_rows, fast_rows);
        assert_eq!(
            DisturbanceBackend::stats(&fast).workload_activations,
            exact.stats().workload_activations
        );
        assert_eq!(fast.max_disturbance_seen(), exact.max_disturbance_seen());
    }

    #[test]
    fn flips_resolve_at_the_interval_boundary() {
        let mut backend = fast(10);
        for _ in 0..12 {
            DisturbanceBackend::apply(
                &mut backend,
                Command::Activate {
                    bank: BankId(0),
                    row: RowAddr(5),
                },
            );
        }
        // Nothing resolved yet: counting only.
        assert!(backend.flips().is_empty());
        assert_eq!(backend.max_disturbance_seen(), 0);
        DisturbanceBackend::apply(&mut backend, Command::Refresh);
        let rows: Vec<RowAddr> = backend.flips().iter().map(|f| f.row).collect();
        assert_eq!(rows, vec![RowAddr(4), RowAddr(6)]);
        assert!(backend.flips().iter().all(|f| f.interval == 0));
        assert_eq!(backend.current_interval(), 1);
    }

    #[test]
    fn mitigation_restore_defuses_the_interval() {
        let mut backend = fast(10);
        for _ in 0..12 {
            DisturbanceBackend::apply(
                &mut backend,
                Command::Activate {
                    bank: BankId(0),
                    row: RowAddr(5),
                },
            );
        }
        // act_n on the aggressor restores both victims; within the
        // interval the restore-first order defuses all 12 activations.
        DisturbanceBackend::apply(
            &mut backend,
            Command::ActivateNeighbors {
                bank: BankId(0),
                row: RowAddr(5),
            },
        );
        DisturbanceBackend::apply(&mut backend, Command::Refresh);
        // Restores run before accumulation, so the victims still absorb
        // this interval's 12 disturbances and flip: the fast tier is
        // conservative (attacker-favouring) within an interval.
        assert_eq!(backend.flips().len(), 2);
        assert_eq!(
            DisturbanceBackend::stats(&backend).mitigation_activations,
            2
        );
    }

    #[test]
    fn a_row_activated_after_it_crosses_its_threshold_flips_only_on_the_exact_tier() {
        // Interval 0 leaves rows 39 and 41 (row 40's neighbors) at 6.
        // In interval 1 five more hammers take both to 11, past the
        // threshold of 10, and then row 41 is itself activated.  The
        // exact model flips 41 at the crossing, before that activation
        // restores it; the fast tier applies every activation's restore
        // first, so 41 keeps only this interval's 5 and does not flip.
        let mut exact = DramDevice::new(small());
        exact.set_flip_threshold(10);
        let mut fast = fast(10);
        let activate = |row| Command::Activate {
            bank: BankId(0),
            row: RowAddr(row),
        };
        let commands = std::iter::repeat_n(activate(40), 6)
            .chain([Command::Refresh])
            .chain(std::iter::repeat_n(activate(40), 5))
            .chain([activate(41), Command::Refresh]);
        for cmd in commands {
            exact.apply(cmd);
            DisturbanceBackend::apply(&mut fast, cmd);
        }
        let rows = |flips: &[FlipEvent]| flips.iter().map(|f| f.row).collect::<Vec<_>>();
        assert_eq!(rows(exact.flips()), vec![RowAddr(39), RowAddr(41)]);
        assert_eq!(rows(fast.flips()), vec![RowAddr(39)]);
    }

    #[test]
    fn mitigation_restore_protects_following_intervals() {
        let mut backend = fast(20);
        for _ in 0..2 {
            for _ in 0..9 {
                DisturbanceBackend::apply(
                    &mut backend,
                    Command::Activate {
                        bank: BankId(0),
                        row: RowAddr(5),
                    },
                );
            }
            DisturbanceBackend::apply(
                &mut backend,
                Command::ActivateNeighbors {
                    bank: BankId(0),
                    row: RowAddr(5),
                },
            );
            DisturbanceBackend::apply(&mut backend, Command::Refresh);
        }
        // Each interval contributes 9 < 20, and the act_n zeroes the
        // carry-over, so no flip accumulates across intervals.
        assert!(backend.flips().is_empty());
        assert!(backend.max_disturbance_seen() < 20);
    }

    #[test]
    fn banks_are_independent() {
        let mut backend = fast(5);
        for _ in 0..6 {
            DisturbanceBackend::apply(
                &mut backend,
                Command::Activate {
                    bank: BankId(1),
                    row: RowAddr(30),
                },
            );
        }
        DisturbanceBackend::apply(&mut backend, Command::Refresh);
        assert!(!backend.flips().is_empty());
        assert!(backend.flips().iter().all(|f| f.bank == BankId(1)));
    }

    #[test]
    fn scheduled_refresh_protects_rows_like_the_exact_model() {
        let mut exact = DramDevice::new(small());
        exact.set_flip_threshold(10);
        let mut fast = fast(10);
        // Hammer below the threshold each window; the auto-refresh of
        // rows 4/6 in interval 0 resets the counters in both models.
        for _ in 0..20 {
            for _ in 0..5 {
                let cmd = Command::Activate {
                    bank: BankId(0),
                    row: RowAddr(5),
                };
                exact.apply(cmd);
                DisturbanceBackend::apply(&mut fast, cmd);
            }
            for _ in 0..8 {
                exact.apply(Command::Refresh);
                DisturbanceBackend::apply(&mut fast, Command::Refresh);
            }
        }
        assert!(exact.flips().is_empty());
        assert!(fast.flips().is_empty());
    }

    #[test]
    fn distance2_coupling_composes_with_accumulation() {
        let mut backend = fast(1000);
        backend.set_distance2_coupling(4); // 25 %
        for _ in 0..8 {
            DisturbanceBackend::apply(
                &mut backend,
                Command::Activate {
                    bank: BankId(0),
                    row: RowAddr(10),
                },
            );
        }
        DisturbanceBackend::apply(&mut backend, Command::Refresh);
        // ±1 victims absorbed 8 whole events; ±2 absorbed 8 × 0.25 = 2.
        assert_eq!(backend.banks[0].state.disturbance(RowAddr(9)), 8);
        assert_eq!(backend.banks[0].state.disturbance(RowAddr(8)), 2);
        assert_eq!(backend.banks[0].state.disturbance(RowAddr(12)), 2);
    }

    #[test]
    #[should_panic(expected = "coupling")]
    fn distance2_above_one_rejected() {
        fast(10).set_distance2_coupling(17);
    }
}
