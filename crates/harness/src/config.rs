//! Experiment configuration: the simulated system (Table I) and the
//! scale knobs that trade fidelity for runtime.

use dram_sim::{BackendSpec, DramTiming, Geometry, RefreshOrder, RowAddr, WeakCellSpec};
use serde::{Deserialize, Serialize};

/// How large an experiment run is.
///
/// The paper simulates 1.56 M refresh intervals (≈ 190 refresh windows)
/// and 175 M activations.  That is [`ExperimentScale::full`]; the
/// default [`ExperimentScale::paper_shape`] uses 16 windows, which
/// reproduces every reported *shape* (rates are per-interval, so they
/// converge within a few windows) in seconds instead of minutes, and
/// [`ExperimentScale::quick`] is for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Refresh windows to simulate.
    pub windows: u64,
    /// Banks under traffic/attack.
    pub banks: u32,
    /// Independent seeds for μ ± σ statistics.
    pub seeds: u32,
}

impl ExperimentScale {
    /// Test scale: 2 windows, 1 bank, 2 seeds.
    pub fn quick() -> Self {
        ExperimentScale {
            windows: 2,
            banks: 1,
            seeds: 2,
        }
    }

    /// Default experiment scale: 16 windows, 4 banks, 5 seeds.
    pub fn paper_shape() -> Self {
        ExperimentScale {
            windows: 16,
            banks: 4,
            seeds: 5,
        }
    }

    /// The paper's full trace length: ≈ 190 windows (1.56 M intervals),
    /// 4 banks, 10 seeds.
    pub fn full() -> Self {
        ExperimentScale {
            windows: 190,
            banks: 4,
            seeds: 10,
        }
    }

    /// Parses a scale name (`quick` / `paper` / `full`), the scale
    /// argument of `rh <experiment>`, `rh export` and `rh timeline`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(ExperimentScale::quick()),
            "paper" => Some(ExperimentScale::paper_shape()),
            "full" => Some(ExperimentScale::full()),
            _ => None,
        }
    }

    /// Parses the optional scale argument of `rh <experiment>`,
    /// `rh export` or `rh timeline`: no argument is the paper scale; an
    /// unknown name is an error, never a silent fallback to a
    /// multi-minute default.
    pub fn from_arg(arg: Option<&str>) -> Result<Self, UnknownScale> {
        match arg {
            None => Ok(ExperimentScale::paper_shape()),
            Some(name) => {
                ExperimentScale::from_name(name).ok_or_else(|| UnknownScale(name.to_string()))
            }
        }
    }
}

/// A scale argument other than `quick`, `paper` or `full`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScale(pub String);

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale `{}` (expected quick, paper or full)",
            self.0
        )
    }
}

impl std::error::Error for UnknownScale {}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::paper_shape()
    }
}

/// How a run is parallelised.
///
/// Banks are independent in the disturbance model and every mitigation
/// keeps per-bank state, so the engine can split a run into per-bank
/// shards (see [`crate::engine::run_sharded`]) and merge the metrics with
/// bit-identical results.  Worker count and scheduling never change the
/// outcome — only the wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads; `0` means auto (the `RH_WORKERS` environment
    /// variable if set, else `std::thread::available_parallelism`).
    pub workers: usize,
    /// Whether to shard runs by bank (on by default; sharding a
    /// single-bank run falls back to the sequential path).
    pub shard_by_bank: bool,
}

impl Parallelism {
    /// Sequential execution: one worker, no sharding.
    pub fn sequential() -> Self {
        Parallelism {
            workers: 1,
            shard_by_bank: false,
        }
    }

    /// A fixed worker count with bank sharding.
    pub fn with_workers(workers: usize) -> Self {
        Parallelism {
            workers,
            shard_by_bank: true,
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            crate::parallel::available_workers()
        } else {
            self.workers
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            workers: 0,
            shard_by_bank: true,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Device geometry.
    pub geometry: Geometry,
    /// Device timing.
    pub timing: DramTiming,
    /// Refresh-order policy.
    pub refresh_order: RefreshOrder,
    /// Defect remapping pairs (logical, physical), if any.
    pub remapping: Vec<(RowAddr, RowAddr)>,
    /// Bit-flip threshold (paper: 139 K).
    pub flip_threshold: u32,
    /// Distance-2 disturbance coupling in sixteenths (0 = the paper's
    /// ±1-only model; the blast-radius extension).
    pub distance2_sixteenths: u32,
    /// Refresh windows to simulate.
    pub windows: u64,
    /// How [`crate::engine::run_sharded`] parallelises this run.
    pub parallelism: Parallelism,
    /// Soft size of the engine's event batches, in activations (the
    /// chunk granularity of trace delivery and mitigation dispatch —
    /// see [`mem_trace::EventBatch`]).  Any value ≥ 1 produces
    /// bit-identical results; the default amortises per-batch dispatch
    /// while keeping the buffer cache-resident.
    pub batch_events: usize,
    /// Which disturbance backend the engine drives (fidelity tier).
    /// Absent in configs written before backends existed, which parse
    /// as [`BackendSpec::Exact`] — the event-accurate default.
    pub backend: BackendSpec,
    /// Per-row weak-cell model.  Absent in configs written before the
    /// heterogeneous model existed, which parse as
    /// [`WeakCellSpec::Uniform`] — every row at [`Self::flip_threshold`],
    /// bit-identical to the pre-weak-map engine.
    pub weak_cells: WeakCellSpec,
}

impl RunConfig {
    /// The paper configuration at the given scale.
    pub fn paper(scale: &ExperimentScale) -> Self {
        RunConfig {
            geometry: Geometry::paper().with_banks(scale.banks),
            timing: DramTiming::ddr4(),
            refresh_order: RefreshOrder::SequentialNeighbors,
            remapping: Vec::new(),
            flip_threshold: dram_sim::FLIP_THRESHOLD,
            distance2_sixteenths: 0,
            windows: scale.windows,
            parallelism: Parallelism::default(),
            batch_events: mem_trace::DEFAULT_BATCH_EVENTS,
            backend: BackendSpec::Exact,
            weak_cells: WeakCellSpec::Uniform,
        }
    }

    /// Returns a copy with a different parallelism policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy with a different event-batch size (clamped to at
    /// least 1 by the batch buffer; results are identical at any size).
    pub fn with_batch_events(mut self, batch_events: usize) -> Self {
        self.batch_events = batch_events;
        self
    }

    /// Returns a copy running a different disturbance backend (see
    /// [`BackendSpec`] for what each tier guarantees).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Total refresh intervals of the run.
    pub fn intervals(&self) -> u64 {
        self.windows * u64::from(self.geometry.intervals_per_window())
    }

    /// Returns a copy with a different refresh order (§IV robustness
    /// check).
    pub fn with_refresh_order(mut self, order: RefreshOrder) -> Self {
        self.refresh_order = order;
        self
    }

    /// Returns a copy with defect-row remapping.
    pub fn with_remapping(mut self, pairs: Vec<(RowAddr, RowAddr)>) -> Self {
        self.remapping = pairs;
        self
    }

    /// Builds the DRAM device for this configuration.
    pub fn build_device(&self) -> dram_sim::DramDevice {
        let mapping: Box<dyn dram_sim::RowMapping> = if self.remapping.is_empty() {
            Box::new(dram_sim::IdentityMapping)
        } else {
            Box::new(dram_sim::RemappedMapping::new(
                self.remapping.iter().copied(),
            ))
        };
        let mut device = dram_sim::DramDevice::with_policies(
            self.geometry,
            self.timing,
            mapping,
            &self.refresh_order,
        );
        device.set_flip_threshold(self.flip_threshold);
        device.set_distance2_coupling(self.distance2_sixteenths);
        if let Some(map) = self.weak_cells.materialize(&self.geometry) {
            device.set_weak_cell_map(&map);
        }
        device
    }

    /// Builds the fast-tier backend for this configuration (same
    /// mapping, refresh order, threshold and coupling as
    /// [`RunConfig::build_device`]; timing does not enter the fast
    /// model).
    pub fn build_fast_backend(&self) -> dram_sim::FastBackend {
        let mapping: Box<dyn dram_sim::RowMapping> = if self.remapping.is_empty() {
            Box::new(dram_sim::IdentityMapping)
        } else {
            Box::new(dram_sim::RemappedMapping::new(
                self.remapping.iter().copied(),
            ))
        };
        let mut backend =
            dram_sim::FastBackend::with_policies(self.geometry, mapping, &self.refresh_order);
        backend.set_flip_threshold(self.flip_threshold);
        backend.set_distance2_coupling(self.distance2_sixteenths);
        if let Some(map) = self.weak_cells.materialize(&self.geometry) {
            backend.set_weak_cell_map(&map);
        }
        backend
    }
}

/// Renders Table I — the simulated system specification.
pub fn table1_rows(scale: &ExperimentScale) -> Vec<(String, String)> {
    let config = RunConfig::paper(scale);
    let g = &config.geometry;
    let t = &config.timing;
    let mean_acts = 28.0 + 137.0 / 2.0 / f64::from(g.banks()); // benign + shared attacker budget
    vec![
        (
            "Work load".into(),
            "SPEC-like synthetic mixed load + ramping attacker".into(),
        ),
        ("Number of banks".into(), g.banks().to_string()),
        ("Rows per bank".into(), g.rows_per_bank().to_string()),
        (
            "DDR4 refresh window".into(),
            format!("{} ms", t.refresh_window_ms),
        ),
        (
            "DDR4 refresh interval".into(),
            format!("{} µs", t.refresh_interval_us),
        ),
        (
            "DDR4 activation to activation".into(),
            format!("{} ns", t.act_to_act_ns),
        ),
        (
            "DDR4 refresh time".into(),
            format!("{} ns", t.refresh_time_ns),
        ),
        ("DDR4 frequency".into(), format!("{} GHz", t.frequency_ghz)),
        (
            "Refresh intervals (RefInt)".into(),
            g.intervals_per_window().to_string(),
        ),
        (
            "Rows per interval (RowsPI)".into(),
            g.rows_per_interval().to_string(),
        ),
        (
            "Simulated refresh intervals".into(),
            config.intervals().to_string(),
        ),
        (
            "Approx. activations".into(),
            format!(
                "{:.1} M",
                mean_acts * config.intervals() as f64 * f64::from(g.banks()) / 1e6
            ),
        ),
        ("Bit flipping activation threshold".into(), "139 K".into()),
        ("P_base".into(), "2^-23".into()),
        (
            "RefInt · P_base".into(),
            format!("{:.2e}", 8192.0 * (2f64).powi(-23)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_by_name() {
        assert_eq!(
            ExperimentScale::from_name("quick"),
            Some(ExperimentScale::quick())
        );
        assert_eq!(
            ExperimentScale::from_name("paper"),
            Some(ExperimentScale::paper_shape())
        );
        assert_eq!(
            ExperimentScale::from_name("full"),
            Some(ExperimentScale::full())
        );
        assert_eq!(ExperimentScale::from_name("bogus"), None);
    }

    #[test]
    fn missing_scale_arg_is_paper_and_unknown_is_an_error() {
        assert_eq!(
            ExperimentScale::from_arg(None),
            Ok(ExperimentScale::paper_shape())
        );
        assert_eq!(
            ExperimentScale::from_arg(Some("quick")),
            Ok(ExperimentScale::quick())
        );
        let err = ExperimentScale::from_arg(Some("quik")).expect_err("a typo must not run");
        assert_eq!(err, UnknownScale("quik".into()));
        assert!(err.to_string().contains("quik"), "{err}");
    }

    #[test]
    fn full_scale_matches_table_i_interval_count() {
        let config = RunConfig::paper(&ExperimentScale::full());
        // Table I: 1.56 M refresh intervals.
        let intervals = config.intervals() as f64;
        assert!((intervals - 1.56e6).abs() / 1.56e6 < 0.01, "{intervals}");
    }

    #[test]
    fn device_builder_applies_policies() {
        let scale = ExperimentScale::quick();
        let config = RunConfig::paper(&scale)
            .with_refresh_order(RefreshOrder::FullyRandom { seed: 3 })
            .with_remapping(vec![(RowAddr(1), RowAddr(99))]);
        let device = config.build_device();
        assert_eq!(device.mapping().physical(RowAddr(1)), RowAddr(99));
    }

    #[test]
    fn table1_includes_key_parameters() {
        let rows = table1_rows(&ExperimentScale::full());
        let text: String = rows.iter().map(|(k, v)| format!("{k}={v};")).collect();
        assert!(text.contains("8192"));
        assert!(text.contains("139 K"));
        assert!(text.contains("2^-23"));
        assert!(text.contains("64 ms"));
    }
}
