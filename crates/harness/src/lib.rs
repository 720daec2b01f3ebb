//! # rh-harness — the experiment engine
//!
//! Everything needed to regenerate the paper's evaluation: the run
//! engine wiring *trace → mitigation → DRAM device*, metric collection
//! (activation overhead, false-positive rate, bit flips, attack
//! margins), multi-seed statistics, and one experiment module per table
//! and figure.
//!
//! [`experiments::ALL`] is the one list of experiments, each with the
//! table or figure it reproduces.  The `rh` binary of the workspace's
//! root package runs them: `rh list` names them, `rh fig4 paper` prints
//! one and `rh all quick` every one.
//!
//! ## Example
//!
//! The [`Runner`] builder is the documented entrypoint: pick a
//! technique, a seed, optionally some observers, and run a trace.
//!
//! ```
//! use rh_harness::{Runner, RunConfig, ExperimentScale, scenario, TimeSeriesRecorder};
//! use rh_hwmodel::Technique;
//!
//! // A tiny run: PARA against the mixed workload, 2 windows, 1 bank,
//! // recording the per-interval trajectory every 64 intervals.
//! let scale = ExperimentScale::quick();
//! let config = RunConfig::paper(&scale);
//! let trace = scenario::paper_mix(&config, 1);
//! let metrics = Runner::new(config)
//!     .technique(Technique::Para)
//!     .seed(1)
//!     .observer(TimeSeriesRecorder::new(64))
//!     .run(trace);
//! assert!(metrics.workload_activations > 0);
//! assert!(metrics.timeseries.is_some());
//! ```

pub mod config;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod observe;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table;
pub mod techniques;

pub use config::{ExperimentScale, Parallelism, RunConfig, UnknownScale};
pub use dram_sim::BackendSpec;
pub use engine::run_sharded;
pub use metrics::{FlipRecord, MeanStd, RunMetrics, TimePoint, TimeSeries};
pub use observe::{
    DisturbanceHistogram, IntervalSnapshot, NullObserver, Observe, Observer, PerfCounters,
    RunSummary, ShardInfo, TimeSeriesRecorder,
};
pub use runner::Runner;
pub use table::TextTable;
pub use techniques::TechniqueSpec;
