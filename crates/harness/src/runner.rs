//! The [`Runner`] builder: the one documented way to drive a run.
//!
//! The engine module exposes the sharded entrypoints
//! ([`engine::run_sharded`], [`engine::run_observed`]) for callers that
//! build their own mitigation; `Runner` collapses the common path: pick
//! a technique, a seed, a backend fidelity tier, a parallelism policy
//! and any number of observers, then call [`Runner::run`].
//!
//! ```
//! use rh_harness::{Runner, RunConfig, ExperimentScale, scenario, TimeSeriesRecorder};
//! use rh_hwmodel::Technique;
//!
//! let config = RunConfig::paper(&ExperimentScale::quick());
//! let trace = scenario::paper_mix(&config, 1);
//! let metrics = Runner::new(config.clone())
//!     .technique(Technique::Para)
//!     .seed(1)
//!     .observer(TimeSeriesRecorder::new(64))
//!     .run(trace);
//! assert!(metrics.workload_activations > 0);
//! assert!(metrics.timeseries.is_some());
//! ```

use crate::config::{Parallelism, RunConfig};
use crate::engine;
use crate::metrics::RunMetrics;
use crate::observe::{Observe, RunSummary, ShardInfo};
use crate::techniques::{self, TechniqueSpec};
use dram_sim::BackendSpec;
use mem_trace::{ShardError, TraceSource, TraceSplit};
use rh_hwmodel::Technique;
use std::time::Instant;

/// Builder over the run engine: technique, seed, backend tier,
/// parallelism and observers in one place.
///
/// With no observers attached, [`Runner::run`] calls straight into the
/// monomorphised no-observer engine ([`engine::run_sharded`]) — the
/// builder adds nothing to the per-activation path.  Attaching an
/// observer switches to the dynamically-dispatched observed loop.
pub struct Runner {
    config: RunConfig,
    spec: TechniqueSpec,
    seed: u64,
    observers: Vec<Box<dyn Observe>>,
}

impl Runner {
    /// A runner for `config`, defaulting to the paper's headline
    /// technique (LoLiPRoMi), seed 1, the config's parallelism, and no
    /// observers.
    pub fn new(config: RunConfig) -> Self {
        Runner {
            config,
            spec: TechniqueSpec::Paper(Technique::LoLiPromi),
            seed: 1,
            observers: Vec::new(),
        }
    }

    /// Selects the mitigation: a [`Technique`], a
    /// `(TivaVariant, TivaConfig)` pair, or an explicit
    /// [`TechniqueSpec`].
    #[must_use]
    pub fn technique(mut self, spec: impl Into<TechniqueSpec>) -> Self {
        self.spec = spec.into();
        self
    }

    /// Seeds the mitigation's decision streams (default 1).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the config's [`Parallelism`] policy.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Overrides the config's disturbance backend tier (see
    /// [`BackendSpec`] for what each tier guarantees).
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.config.backend = backend;
        self
    }

    /// Attaches an [`Observe`] strategy; may be called repeatedly, and
    /// every attached strategy sees every event.
    ///
    /// Strategies with shared state ([`crate::PerfCounters`],
    /// [`crate::DisturbanceHistogram`]) are `Clone`: keep a clone to
    /// read results after the run.
    #[must_use]
    pub fn observer(mut self, observe: impl Observe + 'static) -> Self {
        self.observers.push(Box::new(observe));
        self
    }

    /// The technique spec this runner will build.
    pub fn spec(&self) -> TechniqueSpec {
        self.spec
    }

    /// The run configuration (with any [`Runner::parallelism`] override
    /// applied).
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Drives `trace` through the configured technique, sharding by
    /// bank when the parallelism policy allows it.
    ///
    /// Deterministic: the result is bit-identical for every worker
    /// count, with or without deterministic observers attached.
    pub fn run<S: TraceSplit>(&self, trace: S) -> RunMetrics {
        // Static dispatch: the engine loop matches on [`AnyMitigation`]
        // per interval segment instead of making per-event vtable calls.
        let build = || techniques::build_any(self.spec, &self.config, self.seed);
        if self.observers.is_empty() {
            engine::run_sharded(trace, &build, &self.config)
        } else {
            let observe: &[Box<dyn Observe>] = &self.observers;
            engine::run_with_observed(trace, &build, &self.config, &observe)
        }
    }

    /// Drives a [`TraceSource`] that may or may not support bank
    /// sharding, surfacing the mismatch as a typed error.
    ///
    /// When the parallelism policy asks for a sharded run (`shard_by_bank`
    /// over more than one bank) but the source's
    /// [`TraceSource::shard_support`] refuses — for example
    /// [`mem_trace::CpuWorkload`], whose cores share one RNG and whose
    /// cache hierarchies span every bank — this returns the source's
    /// [`ShardError`] instead of silently running a schedule-dependent
    /// computation.  Callers that accept sequential execution for such
    /// sources should request it explicitly
    /// ([`Parallelism::sequential`], or a single-bank geometry) before
    /// calling.
    ///
    /// # Errors
    ///
    /// The source's [`ShardError`] when a sharded run was requested but
    /// the source cannot be split by bank.
    pub fn run_source<S: TraceSource>(&self, trace: S) -> Result<RunMetrics, ShardError> {
        let sharding_requested =
            self.config.parallelism.shard_by_bank && self.config.geometry.banks() > 1;
        if sharding_requested {
            trace.shard_support()?;
            // The source says sharding would be sound, but a bare
            // `TraceSource` offers no `bank_shard`; that is the
            // `run::<TraceSplit>` path.  This entrypoint exists for
            // sources that *cannot* shard, so a shardable source here
            // still runs sequentially — which the contract guarantees
            // is bit-identical to the sharded run.
        }
        Ok(self.run_sequential(trace))
    }

    /// Drives an unshardable trace ([`TraceSource`] only, e.g. one that
    /// is not `Send`) sequentially, still honouring observers: the
    /// whole run is reported as a single shard.
    pub fn run_sequential<S: TraceSource>(&self, trace: S) -> RunMetrics {
        let mut mitigation = techniques::build_any(self.spec, &self.config, self.seed);
        if self.observers.is_empty() {
            return engine::run_observed(
                trace,
                &mut mitigation,
                &self.config,
                &mut crate::observe::NullObserver,
            );
        }
        let observe: &[Box<dyn Observe>] = &self.observers;
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time feeds only Observe shard/run callbacks, never RunMetrics"
        )]
        let start = Instant::now();
        let shard = ShardInfo::whole_run();
        observe.on_shard_start(&shard);
        let mut observer = observe.observer(&shard);
        let metrics = engine::run_observed(trace, &mut mitigation, &self.config, observer.as_mut());
        observe.on_shard_finish(&shard, &metrics, start.elapsed());
        observe.on_run_end(
            &metrics,
            &RunSummary {
                workers: 1,
                shards: 1,
                elapsed: start.elapsed(),
            },
        );
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::observe::{PerfCounters, TimeSeriesRecorder};
    use crate::scenario;

    fn config() -> RunConfig {
        RunConfig::paper(&ExperimentScale::quick())
    }

    #[test]
    fn runner_matches_direct_engine_call() {
        let config = config();
        let direct = engine::run_sharded(
            scenario::paper_mix(&config, 4),
            &|| techniques::build(Technique::Para, &config, 4),
            &config,
        );
        let built = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(4)
            .run(scenario::paper_mix(&config, 4));
        assert_eq!(direct, built);
    }

    #[test]
    fn runner_defaults_to_lolipromi_seed_1() {
        let runner = Runner::new(config());
        assert_eq!(runner.spec(), TechniqueSpec::Paper(Technique::LoLiPromi));
        let config = config();
        let metrics = runner.run(scenario::paper_mix(&config, 1));
        assert_eq!(metrics.technique, "LoLiPRoMi");
    }

    #[test]
    fn observers_do_not_perturb_metrics() {
        let config = config();
        let plain = Runner::new(config.clone())
            .technique(Technique::TwiCe)
            .run(scenario::paper_mix(&config, 9));
        let perf = PerfCounters::default();
        let observed = Runner::new(config.clone())
            .technique(Technique::TwiCe)
            .observer(TimeSeriesRecorder::new(32))
            .observer(perf.clone())
            .run(scenario::paper_mix(&config, 9));
        assert!(observed.timeseries.is_some());
        assert_eq!(plain, observed.clone().without_timeseries());
        assert!(!perf.shards().is_empty());
    }

    #[test]
    fn run_sequential_attaches_whole_run_observer() {
        let config = config();
        let metrics = Runner::new(config.clone())
            .observer(TimeSeriesRecorder::new(16))
            .run_sequential(scenario::paper_mix(&config, 2));
        let series = metrics.timeseries.expect("recorder attached");
        assert_eq!(series.stride, 16);
        assert!(!series.points.is_empty());
    }

    #[test]
    fn run_source_rejects_unshardable_trace_under_sharded_policy() {
        use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
        let mut config = config();
        config.geometry = config.geometry.with_banks(4);
        config.parallelism = Parallelism::with_workers(2);
        let cpu = CpuWorkload::new(CpuWorkloadConfig::paper(&config.geometry, 4), 7);
        let err = Runner::new(config)
            .run_source(cpu)
            .expect_err("sharded policy over an unshardable source must fail");
        assert_eq!(err.source, "CpuWorkload");
        assert!(err.to_string().contains("cannot be sharded by bank"));
    }

    #[test]
    fn run_source_accepts_unshardable_trace_sequentially() {
        use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
        let mut config = config();
        config.parallelism = Parallelism::sequential();
        let build = |seed| CpuWorkload::new(CpuWorkloadConfig::paper(&config.geometry, 4), seed);
        let metrics = Runner::new(config.clone())
            .run_source(build(7))
            .expect("sequential policy accepts any source");
        assert_eq!(
            metrics,
            Runner::new(config.clone()).run_sequential(build(7))
        );
        assert!(metrics.workload_activations > 0);
    }

    #[test]
    fn run_source_runs_shardable_traces_like_run_sequential() {
        let config = config();
        let metrics = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(3)
            .run_source(scenario::paper_mix(&config, 3))
            .expect("shardable sources always pass the policy check");
        let sequential = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(3)
            .run_sequential(scenario::paper_mix(&config, 3));
        assert_eq!(metrics, sequential);
    }

    #[test]
    fn sequential_and_sharded_observed_runs_agree() {
        let config = config();
        let sharded = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(2)
            .observer(TimeSeriesRecorder::new(16))
            .run(scenario::paper_mix(&config, 2));
        let sequential = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(2)
            .observer(TimeSeriesRecorder::new(16))
            .run_sequential(scenario::paper_mix(&config, 2));
        assert_eq!(sharded, sequential);
    }
}
