//! # dram-sim — event-accurate DRAM disturbance simulator
//!
//! This crate is the substrate beneath the TiVaPRoMi row-hammer work: a
//! DRAM device model that is *event accurate* with respect to everything a
//! row-hammer mitigation can observe or influence.
//!
//! The model tracks, per bank, how often each row has disturbed its
//! physical neighbors since those neighbors were last restored (by an
//! explicit activation, an auto-refresh, or a mitigation-issued neighbor
//! activation).  When the accumulated disturbance of a row crosses the
//! bit-flip threshold (139 K activations of its aggressors, following
//! Kim et al.), a [`FlipEvent`] is recorded — a successful row-hammer
//! attack.
//!
//! What the crate provides:
//!
//! * [`Geometry`] — rows/banks/refresh-interval structure of the device,
//!   including the paper configuration (64 ms window, 7.8 µs interval,
//!   8192 intervals per window, 8 rows refreshed per interval).
//! * [`DramTiming`] — DDR4/DDR3 timing parameters and the per-command
//!   cycle budgets a memory-controller-level mitigation must meet.
//! * [`RowMapping`] — logical→physical neighbor relationships, including
//!   remapped (defect-replaced) rows.
//! * [`RefreshOrder`] — the four refresh-order policies evaluated in the
//!   paper (§IV): sequential neighbors, neighbors with replacements,
//!   fully random, and counter-with-mask.
//! * [`DramDevice`] — the device itself: feed it [`Command`]s, read back
//!   flips and activity statistics.
//! * [`DisturbanceBackend`] — pluggable fidelity tiers over the same
//!   command stream: the exact device (default), a batch-accumulating
//!   [`FastBackend`] for fleet-scale sweeps, and a [`CycleBackend`]
//!   adding row-buffer state and a per-bank clock that prices and times
//!   every command; selected by [`BackendSpec`].
//! * [`WeakCellSpec`] / [`WeakCellMap`] — heterogeneous per-row flip
//!   thresholds and weak-cell columns, sampled from a seeded
//!   distribution so every shard sees the identical device.
//!
//! ## Example
//!
//! ```
//! use dram_sim::{Command, DramDevice, Geometry, BankId, RowAddr};
//!
//! # fn main() -> Result<(), dram_sim::ConfigError> {
//! // A small device: 1 bank, 64 rows, 8 intervals per refresh window.
//! let geometry = Geometry::new(64, 1, 8)?;
//! let mut dram = DramDevice::new(geometry);
//!
//! // Hammer row 10 past the (tiny, for the example) flip threshold.
//! dram.set_flip_threshold(100);
//! for _ in 0..150 {
//!     dram.apply(Command::Activate { bank: BankId(0), row: RowAddr(10) });
//! }
//! assert!(!dram.flips().is_empty()); // neighbors of row 10 flipped
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod backend;
pub mod command;
pub mod cycle;
pub mod device;
pub mod disturb;
pub mod error;
pub mod fast;
pub mod geometry;
pub mod mapping;
pub mod refresh;
pub mod seeding;
pub mod timing;
pub mod weakmap;

pub use addr::{BankId, RowAddr};
pub use backend::{BackendSpec, CycleStats, DisturbanceBackend};
pub use command::Command;
pub use cycle::{CycleBackend, LatencyStats, MitigationPriority};
pub use device::{DeviceStats, DramDevice, FlipEvent};
pub use disturb::{DisturbState, DISTURB_SCALE};
pub use error::ConfigError;
pub use fast::FastBackend;
pub use geometry::Geometry;
pub use mapping::{IdentityMapping, RemappedMapping, RowMapping};
pub use refresh::{RefreshOrder, RefreshSchedule};
pub use seeding::bank_seed;
pub use timing::{CycleBudget, DramGeneration, DramTiming};
pub use weakmap::{WeakCellMap, WeakCellSpec, WEAK_CELL_COLUMNS};

/// Bit-flip activation threshold reported by Kim et al. and used
/// throughout the paper: the sum of activations of both aggressor rows
/// that makes a victim start flipping bits.
pub const FLIP_THRESHOLD: u32 = 139_000;

/// Half of [`FLIP_THRESHOLD`], the per-side budget when both neighbors of
/// a victim are aggressors (the paper's 69 K reference point for the
/// flooding analysis).
pub const HALF_FLIP_THRESHOLD: u32 = FLIP_THRESHOLD / 2;
