//! # tivapromi-suite — workspace facade
//!
//! Re-exports every crate of the TiVaPRoMi reproduction so that the
//! examples and integration tests in this package (and downstream quick
//! experiments) can reach the whole system through one dependency.
//!
//! * [`dram`] — the DRAM disturbance simulator substrate.
//! * [`trace`] — synthetic workload and attacker trace generation.
//! * [`tivapromi`] — the paper's contribution: the four time-varying
//!   probabilistic mitigation variants and the shared mitigation trait.
//! * [`baselines`] — PARA, ProHit, MRLoc, TWiCe, CRA (and CAT).
//! * [`hwmodel`] — FSM cycle-count and LUT area models.
//! * [`harness`] — the experiment engine reproducing each table/figure.
//! * [`redteam`] — adaptive attack synthesis and the security-frontier
//!   search engine.
//! * [`exploit`] — targeted profile → evaluate → attack campaigns
//!   against per-row weak-cell maps.
//! * [`fleet`] — fleet-scale campaigns: heterogeneous device
//!   populations, two-level scheduling, mergeable population
//!   statistics, checkpoint/resume.

pub use dram_sim as dram;
pub use mem_trace as trace;
pub use rh_baselines as baselines;
pub use rh_exploit as exploit;
pub use rh_fleet as fleet;
pub use rh_harness as harness;
pub use rh_hwmodel as hwmodel;
pub use rh_redteam as redteam;
pub use tivapromi;

// The user-facing run API, flattened to the facade root so examples
// need a single import path.
pub use rh_harness::{
    Observe, Observer, RunMetrics, Runner, TechniqueSpec, TimeSeries, TimeSeriesRecorder,
};
