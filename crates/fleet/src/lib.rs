//! # rh-fleet — fleet-scale row-hammer campaigns
//!
//! The paper evaluates TiVaPRoMi on single-device traces; its
//! probabilistic-defense story only becomes meaningful at population
//! scale — how often does the *weakest* device of a heterogeneous fleet
//! flip first?  This crate runs campaigns of N independent simulated
//! devices, each with its own bank count, flip threshold (weak-cell
//! tail) and mitigation technique sampled from per-cohort
//! distributions, over one shared worker pool:
//!
//! * [`CohortSpec`] / [`CampaignSpec`] — the population model: each
//!   cohort samples device configurations from ranges and a technique
//!   mix; every device's full configuration derives from
//!   [`device_seed`]`(campaign_seed, index)` alone, so any device is
//!   reproducible in isolation with the existing
//!   [`rh_harness::Runner`].
//! * [`Fleet`] — the campaign engine: the harness's two-level
//!   work-stealing pool ([`rh_harness::parallel::run_in_order`]) hands
//!   workers whole devices first and individual bank shards second,
//!   and hands finished devices back *in device order* to a streaming
//!   fold into per-cohort aggregates, so the report is byte-identical
//!   at every worker count.
//! * [`QuantileSketch`] — deterministic mergeable log-bucket sketch
//!   for time-to-first-flip and flips-per-mega-activation population
//!   distributions.
//! * [`Checkpoint`] — serde snapshot of the completed-device frontier
//!   plus per-cohort partials; [`Fleet::resume`] continues an
//!   interrupted campaign to a byte-identical final report.
//! * [`frontier`] — red-team security-frontier searches per cohort,
//!   at each cohort's weak-cell threshold.
//!
//! ## Example
//!
//! ```
//! use rh_fleet::{CampaignSpec, CohortSpec, Fleet};
//!
//! let spec = CampaignSpec::new(7).cohort(
//!     CohortSpec::new("demo", 4).windows(1).banks(1, 2),
//! );
//! let report = Fleet::new(spec).workers(2).run().expect("valid campaign");
//! assert_eq!(report.devices, 4);
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod cohort;
pub mod frontier;
pub mod report;
pub mod seeding;
pub mod sketch;

pub use campaign::{Fleet, FleetError};
pub use checkpoint::{Checkpoint, CohortPartial};
pub use cohort::{CampaignSpec, CohortSpec, DeviceSpec, WorkloadKind};
pub use frontier::{cohort_frontiers, CohortFrontier};
pub use report::{CohortReport, FleetReport, SketchSummary};
pub use seeding::device_seed;
pub use sketch::QuantileSketch;
