//! The DRAM device: banks + refresh engine + disturbance bookkeeping.

use crate::{
    BankId, Command, ConfigError, DisturbState, DramTiming, Geometry, IdentityMapping,
    RefreshOrder, RefreshSchedule, RowAddr, RowMapping, WeakCellMap,
};
use serde::{Deserialize, Serialize};

/// A recorded bit flip: a row crossed the disturbance threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlipEvent {
    /// Bank in which the flip occurred.
    pub bank: BankId,
    /// Physical row that flipped.
    pub row: RowAddr,
    /// Global refresh-interval count at which the flip happened.
    pub interval: u64,
}

/// Aggregate activity counters of a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Activations issued by the workload (`Command::Activate`).
    pub workload_activations: u64,
    /// Activations issued by mitigations (`ActivateNeighbors` counts the
    /// neighbors it touches, `RefreshRow` counts one).
    pub mitigation_activations: u64,
    /// Refresh intervals executed.
    pub refresh_intervals: u64,
}

impl DeviceStats {
    /// Mitigation activation overhead in percent of workload activations
    /// — the y-axis of Fig. 4.
    pub fn overhead_percent(&self) -> f64 {
        if self.workload_activations == 0 {
            0.0
        } else {
            100.0 * self.mitigation_activations as f64 / self.workload_activations as f64
        }
    }
}

/// The simulated DRAM device.
///
/// Feed it [`Command`]s; it maintains per-bank disturbance counters, the
/// refresh schedule and the flip log.  See the [crate docs](crate) for a
/// complete example.
#[derive(Debug)]
pub struct DramDevice {
    geometry: Geometry,
    timing: DramTiming,
    mapping: Box<dyn RowMapping>,
    /// `mapping.is_identity()`, cached so a workload activation skips
    /// the virtual `physical` call.
    identity_mapping: bool,
    schedule: RefreshSchedule,
    banks: Vec<DisturbState>,
    interval: u64,
    stats: DeviceStats,
    flips: Vec<FlipEvent>,
    /// Distance-2 coupling in sixteenths of the distance-1 disturbance
    /// (0 = the paper's ±1-only model; the blast-radius extension).
    distance2_sixteenths: u32,
}

impl DramDevice {
    /// Creates a device with identity row mapping, sequential refresh
    /// order, DDR4 timing, and the paper's 139 K flip threshold.
    pub fn new(geometry: Geometry) -> Self {
        DramDevice::with_policies(
            geometry,
            DramTiming::ddr4(),
            Box::new(IdentityMapping),
            &RefreshOrder::SequentialNeighbors,
        )
    }

    /// Creates a device with explicit timing, row mapping and refresh
    /// order.
    pub fn with_policies(
        geometry: Geometry,
        timing: DramTiming,
        mapping: Box<dyn RowMapping>,
        refresh_order: &RefreshOrder,
    ) -> Self {
        let schedule = RefreshSchedule::new(&geometry, refresh_order);
        let banks = (0..geometry.banks())
            .map(|_| DisturbState::with_paper_threshold(geometry.rows_per_bank()))
            .collect();
        DramDevice {
            geometry,
            timing,
            identity_mapping: mapping.is_identity(),
            mapping,
            schedule,
            banks,
            interval: 0,
            stats: DeviceStats::default(),
            flips: Vec::new(),
            distance2_sixteenths: 0,
        }
    }

    /// Overrides the flip threshold on every bank (tests/examples use
    /// small thresholds; weak-DRAM what-if studies use e.g. 2 K).
    pub fn set_flip_threshold(&mut self, threshold: u32) {
        for b in &mut self.banks {
            b.set_flip_threshold(threshold);
        }
    }

    /// Installs a heterogeneous weak-cell map: every bank takes its
    /// per-row flip thresholds from `map` (see [`crate::weakmap`]).
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover this device's geometry.
    pub fn set_weak_cell_map(&mut self, map: &WeakCellMap) {
        assert_eq!(map.banks(), self.geometry.banks(), "map bank count");
        assert_eq!(
            map.rows_per_bank(),
            self.geometry.rows_per_bank(),
            "map row count"
        );
        for (index, bank) in self.banks.iter_mut().enumerate() {
            let id = BankId(u32::try_from(index).expect("bank count fits u32"));
            bank.set_row_thresholds(map.bank_thresholds(id));
        }
    }

    /// Enables second-order ("blast radius") disturbance: every
    /// activation additionally disturbs rows at distance two by
    /// `sixteenths / 16` of a full disturbance event.  Zero (the
    /// default) is the paper's ±1-only model; measurements on modern
    /// devices report distance-2 coupling of a few to ~25 %.
    ///
    /// # Panics
    ///
    /// Panics if `sixteenths` exceeds 16 (distance-2 coupling cannot
    /// exceed distance-1).
    pub fn set_distance2_coupling(&mut self, sixteenths: u32) {
        assert!(sixteenths <= 16, "distance-2 coupling must be ≤ 1.0");
        self.distance2_sixteenths = sixteenths;
    }

    /// The configured distance-2 coupling in sixteenths.
    pub fn distance2_coupling(&self) -> u32 {
        self.distance2_sixteenths
    }

    /// Applies one command.
    ///
    /// Inlined so a workload activation — the engine's per-event call —
    /// compiles to the counter updates themselves, across crates too.
    ///
    /// # Panics
    ///
    /// Panics if the command addresses a bank or row outside the
    /// geometry; use [`DramDevice::check`] first for untrusted input.
    #[inline]
    pub fn apply(&mut self, command: Command) {
        match command {
            Command::Activate { bank, row } => {
                self.stats.workload_activations += 1;
                self.activate_physical(bank, row);
            }
            Command::Refresh => self.run_refresh_interval(),
            Command::ActivateNeighbors { bank, row } => self.activate_neighbors(bank, row),
            Command::RefreshRow { bank, row } => {
                self.stats.mitigation_activations += 1;
                self.activate_physical(bank, row);
            }
        }
    }

    /// Validates a command against the geometry without applying it.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`ConfigError`] if the bank or row does
    /// not exist.
    pub fn check(&self, command: Command) -> Result<(), ConfigError> {
        if let Some(bank) = command.bank() {
            self.geometry.check_bank(bank)?;
        }
        if let Some(row) = command.row() {
            self.geometry.check_row(row)?;
        }
        Ok(())
    }

    /// Activation of a *logical* row: resolves the physical location,
    /// restores it, disturbs its physical neighbors.
    #[inline]
    fn activate_physical(&mut self, bank: BankId, row: RowAddr) {
        let phys = if self.identity_mapping {
            row
        } else {
            self.mapping.physical(row)
        };
        self.activate_physical_raw(bank, phys);
        self.drain_flips(bank);
    }

    /// A mitigation's `act_n`: activates the physical neighbors of
    /// `row`.  Kept out of [`DramDevice::apply`] so the inlined
    /// activate path stays small.
    fn activate_neighbors(&mut self, bank: BankId, row: RowAddr) {
        let neighbors = self.mapping.neighbors(row, &self.geometry);
        for n in neighbors.iter() {
            self.stats.mitigation_activations += 1;
            self.activate_physical_raw(bank, n);
        }
        self.drain_flips(bank);
    }

    /// Activation semantics on an already-physical row address.
    #[inline]
    fn activate_physical_raw(&mut self, bank: BankId, phys: RowAddr) {
        let rows = self.geometry.rows_per_bank();
        let d2 = self.distance2_sixteenths;
        let state = &mut self.banks[bank.index()];
        state.restore(phys);
        if phys.0 > 0 {
            state.disturb(RowAddr(phys.0 - 1));
        }
        if phys.0 + 1 < rows {
            state.disturb(RowAddr(phys.0 + 1));
        }
        if d2 > 0 {
            if phys.0 > 1 {
                state.disturb_scaled(RowAddr(phys.0 - 2), d2);
            }
            if phys.0 + 2 < rows {
                state.disturb_scaled(RowAddr(phys.0 + 2), d2);
            }
        }
    }

    /// Moves `bank`'s newly flipped rows into the flip log.  Flips are
    /// rare, so the common case is one emptiness test.
    #[inline]
    fn drain_flips(&mut self, bank: BankId) {
        if self.banks[bank.index()].has_new_flips() {
            self.record_flips(bank);
        }
    }

    #[cold]
    fn record_flips(&mut self, bank: BankId) {
        let interval = self.interval;
        let rows = self.banks[bank.index()].take_new_flips();
        self.flips.extend(rows.into_iter().map(|row| FlipEvent {
            bank,
            row,
            interval,
        }));
    }

    fn run_refresh_interval(&mut self) {
        let in_window = self.interval_in_window();
        // The schedule is shared by all banks; borrowing its slice beside
        // the banks (disjoint fields) keeps refresh allocation-free.
        let rows = self.schedule.rows_for_interval(in_window);
        for state in &mut self.banks {
            for &row in rows {
                // Auto-refresh addresses physical rows directly.
                state.restore(row);
            }
        }
        self.interval += 1;
        self.stats.refresh_intervals += 1;
    }

    /// Total refresh intervals executed so far (the global clock).
    pub fn current_interval(&self) -> u64 {
        self.interval
    }

    /// Position of the *next* refresh interval within the current window
    /// (`i ∈ [0, RefInt−1]` in the paper's notation).
    pub fn interval_in_window(&self) -> u32 {
        u32::try_from(self.interval % u64::from(self.geometry.intervals_per_window()))
            .expect("modulo a u32 always fits u32")
    }

    /// Index of the current refresh window.
    pub fn current_window(&self) -> u64 {
        self.interval / u64::from(self.geometry.intervals_per_window())
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The device timing.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// The refresh schedule in effect.
    pub fn schedule(&self) -> &RefreshSchedule {
        &self.schedule
    }

    /// The row mapping in effect.
    pub fn mapping(&self) -> &dyn RowMapping {
        self.mapping.as_ref()
    }

    /// All recorded bit flips.
    #[inline]
    pub fn flips(&self) -> &[FlipEvent] {
        &self.flips
    }

    /// Aggregate activity counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Disturbance counter of a logical row.
    pub fn disturbance(&self, bank: BankId, row: RowAddr) -> u32 {
        let phys = self.mapping.physical(row);
        self.banks[bank.index()].disturbance(phys)
    }

    /// Highest disturbance counter ever observed across all banks — the
    /// attack margin (how close any attack came to flipping a bit).
    pub fn max_disturbance_seen(&self) -> u32 {
        self.banks
            .iter()
            .map(DisturbState::max_disturbance_seen)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DramDevice {
        let mut d = DramDevice::new(Geometry::new(64, 2, 8).unwrap());
        d.set_flip_threshold(10);
        d
    }

    #[test]
    fn hammering_flips_neighbors() {
        let mut d = device();
        for _ in 0..10 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(5),
            });
        }
        let flipped: Vec<RowAddr> = d.flips().iter().map(|f| f.row).collect();
        assert_eq!(flipped, vec![RowAddr(4), RowAddr(6)]);
        // Only the hammered bank is affected.
        assert!(d.flips().iter().all(|f| f.bank == BankId(0)));
    }

    #[test]
    fn refresh_between_hammers_prevents_flips() {
        let mut d = device();
        for _ in 0..20 {
            for _ in 0..5 {
                d.apply(Command::Activate {
                    bank: BankId(0),
                    row: RowAddr(5),
                });
            }
            // Run a full refresh window (8 intervals) — rows 4 and 6 are
            // refreshed in interval 0, resetting their counters.
            for _ in 0..8 {
                d.apply(Command::Refresh);
            }
        }
        assert!(d.flips().is_empty());
        assert!(d.max_disturbance_seen() < 10);
    }

    #[test]
    fn activate_neighbors_restores_both_victims() {
        let mut d = device();
        for _ in 0..9 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(5),
            });
        }
        assert_eq!(d.disturbance(BankId(0), RowAddr(4)), 9);
        d.apply(Command::ActivateNeighbors {
            bank: BankId(0),
            row: RowAddr(5),
        });
        assert_eq!(d.disturbance(BankId(0), RowAddr(4)), 0);
        assert_eq!(d.disturbance(BankId(0), RowAddr(6)), 0);
        assert!(d.flips().is_empty());
        // act_n on an interior row costs two extra activations.
        assert_eq!(d.stats().mitigation_activations, 2);
    }

    #[test]
    fn refresh_row_counts_one_extra_activation() {
        let mut d = device();
        d.apply(Command::RefreshRow {
            bank: BankId(1),
            row: RowAddr(3),
        });
        let s = d.stats();
        assert_eq!(s.mitigation_activations, 1);
        assert_eq!(s.workload_activations, 0);
    }

    #[test]
    fn remapped_row_activation_disturbs_its_physical_neighbors() {
        // Logical row 1 is backed by physical row 30.
        let mapping = crate::RemappedMapping::new(vec![(RowAddr(1), RowAddr(30))]);
        let mut d = DramDevice::with_policies(
            Geometry::new(64, 2, 8).unwrap(),
            DramTiming::ddr4(),
            Box::new(mapping),
            &RefreshOrder::SequentialNeighbors,
        );
        d.apply(Command::Activate {
            bank: BankId(0),
            row: RowAddr(1),
        });
        assert_eq!(d.disturbance(BankId(0), RowAddr(29)), 1);
        assert_eq!(d.disturbance(BankId(0), RowAddr(31)), 1);
        assert_eq!(d.disturbance(BankId(0), RowAddr(0)), 0);
        assert_eq!(d.disturbance(BankId(0), RowAddr(2)), 0);
    }

    #[test]
    fn activation_of_victim_restores_itself() {
        let mut d = device();
        for _ in 0..9 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(5),
            });
        }
        // The victim itself is accessed by the workload: its charge is
        // restored and the attack counter restarts.
        d.apply(Command::Activate {
            bank: BankId(0),
            row: RowAddr(4),
        });
        assert_eq!(d.disturbance(BankId(0), RowAddr(4)), 0);
        for _ in 0..9 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(5),
            });
        }
        // Row 4 restarted from zero, so its 9 new disturbances stay below
        // the threshold of 10.  Row 6 was never restored (9 + 9 = 18) and
        // is the only flip.
        assert!(!d.banks[0].is_flipped(RowAddr(4)));
        let flipped: Vec<RowAddr> = d.flips().iter().map(|f| f.row).collect();
        assert_eq!(flipped, vec![RowAddr(6)]);
    }

    #[test]
    fn interval_clock_and_window_wrap() {
        let mut d = device();
        assert_eq!(d.interval_in_window(), 0);
        for _ in 0..8 {
            d.apply(Command::Refresh);
        }
        assert_eq!(d.current_interval(), 8);
        assert_eq!(d.interval_in_window(), 0);
        assert_eq!(d.current_window(), 1);
        d.apply(Command::Refresh);
        assert_eq!(d.interval_in_window(), 1);
    }

    #[test]
    fn overhead_percent_computes_ratio() {
        let mut d = device();
        for _ in 0..100 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(20),
            });
        }
        d.apply(Command::ActivateNeighbors {
            bank: BankId(0),
            row: RowAddr(20),
        });
        assert!((d.stats().overhead_percent() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn check_rejects_out_of_range() {
        let d = device();
        assert!(d
            .check(Command::Activate {
                bank: BankId(9),
                row: RowAddr(0)
            })
            .is_err());
        assert!(d
            .check(Command::Activate {
                bank: BankId(0),
                row: RowAddr(64)
            })
            .is_err());
        assert!(d.check(Command::Refresh).is_ok());
    }

    #[test]
    fn edge_row_activate_neighbors_costs_one() {
        let mut d = device();
        d.apply(Command::ActivateNeighbors {
            bank: BankId(0),
            row: RowAddr(0),
        });
        assert_eq!(d.stats().mitigation_activations, 1);
    }

    #[test]
    fn stats_default_overhead_is_zero() {
        assert_eq!(DeviceStats::default().overhead_percent(), 0.0);
    }

    #[test]
    fn distance2_coupling_disturbs_second_neighbors() {
        let mut d = device();
        d.set_distance2_coupling(4); // 25 %
        for _ in 0..8 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(10),
            });
        }
        assert_eq!(d.disturbance(BankId(0), RowAddr(9)), 8);
        assert_eq!(d.disturbance(BankId(0), RowAddr(8)), 2); // 8 × 0.25
        assert_eq!(d.disturbance(BankId(0), RowAddr(12)), 2);
        assert_eq!(d.distance2_coupling(), 4);
    }

    #[test]
    fn distance2_victims_can_flip() {
        let mut d = device(); // threshold 10
        d.set_distance2_coupling(8); // 50 %
        for _ in 0..20 {
            d.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(10),
            });
        }
        // Row 8 got 20 × 0.5 = 10 ≥ threshold.
        let flipped: Vec<RowAddr> = d.flips().iter().map(|f| f.row).collect();
        assert!(flipped.contains(&RowAddr(8)), "{flipped:?}");
        assert!(flipped.contains(&RowAddr(12)));
    }

    #[test]
    #[should_panic(expected = "coupling")]
    fn distance2_coupling_above_one_rejected() {
        let mut d = device();
        d.set_distance2_coupling(17);
    }
}
