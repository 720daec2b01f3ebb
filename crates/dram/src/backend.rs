//! Pluggable disturbance backends: fidelity as a trait-level choice.
//!
//! The event-accurate [`DramDevice`] is one way to account for
//! disturbance — the bit-exact way, and the default.  But different
//! questions want different fidelity: a million-device fleet sweep
//! cares about aggregate flip counts, not the per-event order of
//! counter updates, while the paper's performance-overhead story wants
//! *more* state than the exact model keeps — row-buffer hits and
//! command timing, so a mitigation-issued `act_n` has a bandwidth
//! price, not just an activation count.
//!
//! [`DisturbanceBackend`] is the narrow interface the run engine
//! drives: feed it [`Command`]s, read back flips, activity statistics
//! and the disturbance high-water mark.  Three implementations ship:
//!
//! | tier | type | guarantees |
//! |------|------|------------|
//! | `exact` | [`DramDevice`] | bit-identical to the historical engine; the default |
//! | `fast`  | [`crate::FastBackend`] | per-interval accumulation; command-stream metrics exact, physics within declared tolerances |
//! | `cycle` | [`crate::CycleBackend`] | exact model **plus** row-buffer state and a per-bank clock: per-command cycle costs ([`CycleStats`]) and demand latency ([`crate::LatencyStats`]) |
//!
//! Selection is by [`BackendSpec`], a serde-able enum with
//! `Display`/`FromStr` so configs and CLIs (`--backend exact|fast|cycle`)
//! name tiers the same way.
//!
//! Every tier honours the determinism contract: banks never couple, all
//! per-bank state merges associatively, so sequential and bank-sharded
//! runs are byte-identical at any worker count.

use crate::{BankId, Command, DeviceStats, DramDevice, FlipEvent, RowAddr};
use serde::{Deserialize, Serialize};

/// The interface between the run engine and a disturbance model.
///
/// The engine issues commands in trace order within a bank (`Refresh`
/// closes every interval) and reads results through the accessors.
/// Workload activations arrive either one `Command::Activate` at a
/// time or, for a run of one bank that cannot flip a row
/// ([`DisturbanceBackend::flip_headroom`]), as one
/// [`DisturbanceBackend::apply_activations`] call.  Implementations may
/// defer work — the fast tier resolves disturbance only at `Refresh` —
/// but after any `apply` returns, the [`DisturbanceBackend::flips`] log
/// must already contain every flip the model attributes to the commands
/// applied so far.
pub trait DisturbanceBackend {
    /// Applies one command.
    fn apply(&mut self, command: Command);

    /// Whether the tier defers *all* flip detection to the `Refresh`
    /// boundary: [`DisturbanceBackend::flips`] cannot grow from any
    /// command other than `Refresh` — not activations, and not
    /// mitigation commands either.  Such a tier has unbounded
    /// [`DisturbanceBackend::flip_headroom`].
    fn defers_flips(&self) -> bool {
        false
    }

    /// How many further workload activations `bank` can take before
    /// [`DisturbanceBackend::flips`] could grow: a run no longer than
    /// this may go to [`DisturbanceBackend::apply_activations`] without
    /// a flip poll after each event.
    ///
    /// The default is unbounded for a flip-deferring tier and zero
    /// otherwise, so a backend that states no bound (a wrapper that does
    /// not forward this method, say) keeps per-event delivery.  The exact
    /// and cycle tiers answer with the exact device's proven bound,
    /// [`DramDevice::flip_headroom`].
    fn flip_headroom(&self, _bank: BankId) -> u64 {
        if self.defers_flips() {
            u64::MAX
        } else {
            0
        }
    }

    /// Applies a column-slice of workload activations.  Semantically
    /// identical to applying `Command::Activate` per element in order;
    /// every shipped tier overrides it with a loop that skips the
    /// per-event work the slice cannot need.
    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        for (&bank, &row) in banks.iter().zip(rows) {
            self.apply(Command::Activate { bank, row });
        }
    }

    /// All flips recorded so far, in detection order.  The engine reads
    /// only the suffix past its own cursor, so the slice must be
    /// append-only.
    fn flips(&self) -> &[FlipEvent];

    /// Aggregate activity counters.
    fn stats(&self) -> DeviceStats;

    /// Highest disturbance counter observed anywhere, in whole
    /// activations (the attack margin).
    fn max_disturbance_seen(&self) -> u32;

    /// The underlying event-accurate device, when the tier keeps one —
    /// per-row inspection is only available then.
    fn device(&self) -> Option<&DramDevice> {
        None
    }

    /// Cycle-level accounting, when the tier models it.
    fn cycle_stats(&self) -> Option<CycleStats> {
        None
    }
}

/// The exact tier: the event-accurate device *is* a backend.
impl DisturbanceBackend for DramDevice {
    #[inline]
    fn apply(&mut self, command: Command) {
        DramDevice::apply(self, command);
    }

    #[inline]
    fn flip_headroom(&self, bank: BankId) -> u64 {
        DramDevice::flip_headroom(self, bank)
    }

    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        DramDevice::apply_activations(self, banks, rows);
    }

    #[inline]
    fn flips(&self) -> &[FlipEvent] {
        DramDevice::flips(self)
    }

    fn stats(&self) -> DeviceStats {
        DramDevice::stats(self)
    }

    fn max_disturbance_seen(&self) -> u32 {
        DramDevice::max_disturbance_seen(self)
    }

    fn device(&self) -> Option<&DramDevice> {
        Some(self)
    }
}

/// Which disturbance backend a run uses.
///
/// Serde-able (lowercase strings), with `Display`/`FromStr` for CLI
/// round-trips:
///
/// ```
/// use dram_sim::BackendSpec;
/// assert_eq!("fast".parse::<BackendSpec>(), Ok(BackendSpec::Fast));
/// assert_eq!(BackendSpec::Cycle.to_string(), "cycle");
/// assert_eq!(BackendSpec::default(), BackendSpec::Exact);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// The event-accurate model — bit-identical to the historical
    /// engine, and the default.
    #[default]
    Exact,
    /// Batch-level accumulation ([`crate::FastBackend`]) for
    /// fleet-scale sweeps.
    Fast,
    /// Row-buffer + bank-clock timing model ([`crate::CycleBackend`]).
    Cycle,
}

impl BackendSpec {
    /// Every tier, in fidelity order (for sweeps and tables).
    pub const ALL: [BackendSpec; 3] = [BackendSpec::Exact, BackendSpec::Fast, BackendSpec::Cycle];

    /// The canonical lowercase name (`Display` and `FromStr` agree).
    pub fn name(self) -> &'static str {
        match self {
            BackendSpec::Exact => "exact",
            BackendSpec::Fast => "fast",
            BackendSpec::Cycle => "cycle",
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(BackendSpec::Exact),
            "fast" => Ok(BackendSpec::Fast),
            "cycle" => Ok(BackendSpec::Cycle),
            other => Err(format!(
                "unknown backend {other:?} (expected exact, fast or cycle)"
            )),
        }
    }
}

impl Serialize for BackendSpec {
    fn to_json_value(&self) -> serde::json::Value {
        serde::json::Value::Str(self.name().to_string())
    }
}

impl Deserialize for BackendSpec {
    fn from_json_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        match v {
            serde::json::Value::Str(s) => s.parse().map_err(serde::json::Error::new),
            other => Err(serde::json::Error::new(format!(
                "BackendSpec: expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// Configs and specs written before backends existed carry no
    /// `backend` field: they ran the exact tier, so they parse to it.
    fn if_absent() -> Option<Self> {
        Some(BackendSpec::Exact)
    }
}

/// Cycle-level accounting of the `cycle` tier.
///
/// Raw counters only — every field sums across disjoint bank shards
/// except `refresh_cycles`, which (like a run's interval count) is
/// per-interval and merges by maximum; the derived rates live in
/// methods so merged stats stay exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Cycles spent serving workload activations (row-buffer hits cost
    /// a column access, misses a full activate).
    pub workload_cycles: u64,
    /// Cycles spent on mitigation-issued commands (`act_n` neighbor
    /// activations, victim refreshes) — the bandwidth the defense
    /// steals from the workload.
    pub mitigation_cycles: u64,
    /// Cycles spent executing auto-refresh (tRFC per interval).
    pub refresh_cycles: u64,
    /// Workload activations that hit the open row.
    pub row_buffer_hits: u64,
    /// Workload activations that missed (row activate required).
    pub row_buffer_misses: u64,
}

impl CycleStats {
    /// All cycles accounted: workload + mitigation + refresh.
    pub fn total_cycles(&self) -> u64 {
        self.workload_cycles + self.mitigation_cycles + self.refresh_cycles
    }

    /// Share of workload activations served from the open row, in
    /// `[0, 1]` (0 for an empty run).
    pub fn row_buffer_hit_rate(&self) -> f64 {
        let total = self.row_buffer_hits + self.row_buffer_misses;
        if total == 0 {
            0.0
        } else {
            self.row_buffer_hits as f64 / total as f64
        }
    }

    /// Mitigation cycles in percent of workload cycles — the
    /// cycle-level analogue of the activation overhead, and the
    /// honest cost of an `act_n`-heavy defense (0 for an empty run).
    pub fn bandwidth_overhead_percent(&self) -> f64 {
        if self.workload_cycles == 0 {
            0.0
        } else {
            100.0 * self.mitigation_cycles as f64 / self.workload_cycles as f64
        }
    }

    /// Combines the stats of two disjoint bank shards of one run:
    /// per-command counters sum; `refresh_cycles` takes the maximum
    /// (every shard executes the same refresh intervals, exactly like
    /// the run's `intervals` metric).  Associative and commutative, so
    /// shard merges are order-independent.
    #[must_use]
    // Rule D8: a float fold here would make the merged bits depend on
    // merge order.
    #[deny(clippy::float_arithmetic)]
    pub fn merge(self, other: CycleStats) -> CycleStats {
        CycleStats {
            workload_cycles: self.workload_cycles + other.workload_cycles,
            mitigation_cycles: self.mitigation_cycles + other.mitigation_cycles,
            refresh_cycles: self.refresh_cycles.max(other.refresh_cycles),
            row_buffer_hits: self.row_buffer_hits + other.row_buffer_hits,
            row_buffer_misses: self.row_buffer_misses + other.row_buffer_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BankId, Geometry, RowAddr};

    #[test]
    fn spec_display_fromstr_round_trip() {
        for spec in BackendSpec::ALL {
            assert_eq!(spec.to_string().parse::<BackendSpec>(), Ok(spec));
        }
        assert!("EXACT".parse::<BackendSpec>().is_err());
        assert!("".parse::<BackendSpec>().is_err());
    }

    #[test]
    fn spec_serde_uses_lowercase_names() {
        for spec in BackendSpec::ALL {
            let json = serde_json::to_string(&spec).expect("serializes");
            assert_eq!(json, format!("\"{spec}\""));
            let back: BackendSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn device_implements_the_exact_tier() {
        let mut device = DramDevice::new(Geometry::new(64, 1, 8).expect("geometry"));
        device.set_flip_threshold(5);
        let backend: &mut dyn DisturbanceBackend = &mut device;
        for _ in 0..5 {
            backend.apply(Command::Activate {
                bank: BankId(0),
                row: RowAddr(10),
            });
        }
        assert_eq!(backend.flips().len(), 2);
        assert_eq!(backend.stats().workload_activations, 5);
        assert_eq!(backend.max_disturbance_seen(), 5);
        assert!(backend.device().is_some());
        assert_eq!(backend.cycle_stats(), None);
    }

    #[test]
    fn only_tiers_that_state_a_bound_get_headroom() {
        // A wrapper that forwards `device()` but not `flip_headroom`
        // takes the zero default: per-event delivery, always correct.
        struct Wrapper(DramDevice);
        impl DisturbanceBackend for Wrapper {
            fn apply(&mut self, command: Command) {
                self.0.apply(command);
            }
            fn flips(&self) -> &[FlipEvent] {
                self.0.flips()
            }
            fn stats(&self) -> DeviceStats {
                self.0.stats()
            }
            fn max_disturbance_seen(&self) -> u32 {
                self.0.max_disturbance_seen()
            }
            fn device(&self) -> Option<&DramDevice> {
                Some(&self.0)
            }
        }
        let geometry = Geometry::new(64, 1, 8).expect("geometry");
        let device = || {
            let mut device = DramDevice::new(geometry);
            device.set_flip_threshold(5);
            device
        };
        let bank = BankId(0);
        assert_eq!(DisturbanceBackend::flip_headroom(&device(), bank), 4);
        assert_eq!(crate::CycleBackend::new(device()).flip_headroom(bank), 4);
        assert_eq!(Wrapper(device()).flip_headroom(bank), 0);
        let fast = crate::FastBackend::new(geometry);
        assert_eq!(fast.flip_headroom(bank), u64::MAX);
    }

    #[test]
    fn cycle_stats_rates_and_merge() {
        let a = CycleStats {
            workload_cycles: 1000,
            mitigation_cycles: 40,
            refresh_cycles: 420,
            row_buffer_hits: 30,
            row_buffer_misses: 10,
        };
        let b = CycleStats {
            workload_cycles: 500,
            mitigation_cycles: 10,
            refresh_cycles: 420,
            row_buffer_hits: 10,
            row_buffer_misses: 50,
        };
        assert!((a.row_buffer_hit_rate() - 0.75).abs() < 1e-12);
        assert!((a.bandwidth_overhead_percent() - 4.0).abs() < 1e-12);
        assert_eq!(a.total_cycles(), 1460);
        let m = a.merge(b);
        assert_eq!(m.workload_cycles, 1500);
        assert_eq!(m.mitigation_cycles, 50);
        // Per-interval cost: shards of one run take the max, not 2x.
        assert_eq!(m.refresh_cycles, 420);
        assert_eq!(m.row_buffer_hits, 40);
        assert_eq!(m.row_buffer_misses, 60);
        assert_eq!(a.merge(b), b.merge(a));
    }

    #[test]
    fn cycle_stats_empty_run_rates_are_zero() {
        let empty = CycleStats::default();
        assert_eq!(empty.row_buffer_hit_rate(), 0.0);
        assert_eq!(empty.bandwidth_overhead_percent(), 0.0);
        assert_eq!(empty.total_cycles(), 0);
    }
}
