//! Timed wrappers around the simulator's public trait objects, and the
//! traced twins of the engine entrypoints built from them.
//!
//! [`TimedSource`], [`TimedMitigation`] and [`TimedBackend`] forward
//! every trait method to the wrapped object, timing the calls that are
//! layer boundaries.  Forwarding matters beyond the timed calls: a
//! wrapper that dropped `max_batch_intervals` would let a closed-loop
//! attacker batch ahead of the mitigation, and one that dropped
//! `defers_flips` would silently move the fast tier onto the per-event
//! path.  Per-event `Command::Activate` is forwarded untimed: it costs
//! less than a span, so it stays in the engine residual.

use crate::clock::{elapsed_ns, table3_index, Layer, LayerClock, Totals};
use dram_sim::{
    BackendSpec, BankId, Command, CycleBackend, CycleStats, DeviceStats, DisturbanceBackend,
    DramDevice, FlipEvent, RowAddr,
};
use mem_trace::{EventBatch, ShardError, TraceEvent, TraceSource, TraceSplit};
use rh_harness::{engine, parallel, techniques};
use rh_harness::{NullObserver, Observer, RunConfig, RunMetrics, TechniqueSpec};
use std::ops::Range;
use std::time::Instant;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// A [`TraceSource`] whose deliveries are timed as the trace layer.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    totals: Totals,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            totals: Totals::default(),
        }
    }

    /// What the wrapper recorded.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        let before = out.len();
        let more = self
            .totals
            .time(Layer::Trace, || self.inner.next_interval(out));
        self.totals.trace_events += (out.len() - before) as u64;
        more
    }

    fn intervals_hint(&self) -> Option<u64> {
        self.inner.intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        self.inner.shard_support()
    }

    fn max_batch_intervals(&self) -> u64 {
        self.inner.max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        let more = self
            .totals
            .time(Layer::Trace, || self.inner.next_batch(batch, max_intervals));
        self.totals.trace_events += batch.len() as u64;
        more
    }
}

/// A [`Mitigation`] whose decisions are timed as the kernel layer.
#[derive(Debug)]
pub struct TimedMitigation<M> {
    inner: M,
    totals: Totals,
}

impl<M> TimedMitigation<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMitigation {
            inner,
            totals: Totals::default(),
        }
    }

    /// What the wrapper recorded.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }
}

impl<M: Mitigation> Mitigation for TimedMitigation<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let before = actions.len();
        self.totals
            .time(Layer::Kernel, || self.inner.on_activate(bank, row, actions));
        self.totals.kernel_events += 1;
        self.totals.kernel_actions += (actions.len() - before) as u64;
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        let before = actions.len();
        self.totals.time(Layer::KernelRefresh, || {
            self.inner.on_refresh_interval(actions);
        });
        self.totals.kernel_actions += (actions.len() - before) as u64;
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.inner.storage_bits_per_bank()
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        let before = sink.len();
        self.totals.kernel_events += range.len() as u64;
        self.totals
            .time(Layer::Kernel, || self.inner.on_batch(batch, range, sink));
        self.totals.kernel_actions += (sink.len() - before) as u64;
    }

    fn storage_bytes_per_bank(&self) -> f64 {
        self.inner.storage_bytes_per_bank()
    }
}

/// A [`DisturbanceBackend`] whose non-per-event commands are timed as
/// the DRAM layer.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    totals: Totals,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            totals: Totals::default(),
        }
    }

    /// What the wrapper recorded.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }
}

impl<B: DisturbanceBackend> DisturbanceBackend for TimedBackend<B> {
    #[inline]
    fn apply(&mut self, command: Command) {
        match command {
            Command::Activate { .. } => {
                self.totals.dram_acts += 1;
                self.inner.apply(command);
            }
            Command::Refresh => self
                .totals
                .time(Layer::DramRefresh, || self.inner.apply(command)),
            Command::ActivateNeighbors { .. } | Command::RefreshRow { .. } => self
                .totals
                .time(Layer::DramCmd, || self.inner.apply(command)),
        }
    }

    fn defers_flips(&self) -> bool {
        self.inner.defers_flips()
    }

    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        self.totals.dram_acts += banks.len() as u64;
        self.totals.time(Layer::DramBulk, || {
            self.inner.apply_activations(banks, rows);
        });
    }

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
        self.inner.device()
    }

    fn cycle_stats(&self) -> Option<CycleStats> {
        self.inner.cycle_stats()
    }
}

/// The traced twin of `engine::run_observed`: builds the mitigation and
/// the backend tier `config.backend` names (timed as set-up), wraps all
/// three trait objects and drives them through
/// `engine::run_on_backend_observed`, charging the shard to `clock`.
pub fn run_shard<S, O>(
    clock: &LayerClock,
    trace: S,
    spec: TechniqueSpec,
    seed: u64,
    config: &RunConfig,
    observer: &mut O,
) -> RunMetrics
where
    S: TraceSource,
    O: Observer + ?Sized,
{
    let mut setup = Totals::default();
    let mitigation = setup.time(Layer::Setup, || techniques::build_any(spec, config, seed));
    let technique = table3_index(spec.name());
    let mut shard = Shard {
        clock,
        setup,
        technique,
        config,
    };
    match config.backend {
        BackendSpec::Exact => {
            let backend = shard.setup.time(Layer::Setup, || config.build_device());
            shard.drive(trace, mitigation, backend, observer)
        }
        BackendSpec::Fast => {
            let backend = shard
                .setup
                .time(Layer::Setup, || config.build_fast_backend());
            shard.drive(trace, mitigation, backend, observer)
        }
        BackendSpec::Cycle => {
            let backend = shard
                .setup
                .time(Layer::Setup, || CycleBackend::new(config.build_device()));
            shard.drive(trace, mitigation, backend, observer)
        }
    }
}

/// One engine run being assembled by [`run_shard`].
struct Shard<'a> {
    clock: &'a LayerClock,
    setup: Totals,
    technique: Option<usize>,
    config: &'a RunConfig,
}

impl Shard<'_> {
    fn drive<S, M, B, O>(self, trace: S, mitigation: M, backend: B, observer: &mut O) -> RunMetrics
    where
        S: TraceSource,
        M: Mitigation,
        B: DisturbanceBackend,
        O: Observer + ?Sized,
    {
        let mut trace = TimedSource::new(trace);
        let mut mitigation = TimedMitigation::new(mitigation);
        let mut backend = TimedBackend::new(backend);
        let start = Instant::now();
        let metrics = engine::run_on_backend_observed(
            &mut trace,
            &mut mitigation,
            self.config,
            &mut backend,
            observer,
        );
        let wall = elapsed_ns(start);
        let mut totals = self.setup;
        totals.absorb(trace.totals());
        totals.absorb(mitigation.totals());
        totals.absorb(backend.totals());
        totals.dram_flips += backend.flips().len() as u64;
        self.clock.close_shard(totals, self.technique, wall);
        metrics
    }
}

/// The traced twin of `engine::run_sharded`, where `Runner::run` lands
/// without observers: bank shards prepared on the calling thread, one
/// [`run_shard`] per bank on the config's workers, merged in bank order.
pub fn run_sharded<S: TraceSplit>(
    clock: &LayerClock,
    trace: S,
    spec: TechniqueSpec,
    seed: u64,
    config: &RunConfig,
) -> RunMetrics {
    let banks = config.geometry.banks();
    if !config.parallelism.shard_by_bank || banks <= 1 {
        return run_shard(clock, trace, spec, seed, config, &mut NullObserver);
    }
    let shards: Vec<Box<dyn TraceSplit>> = clock.time(Layer::TracePrep, || {
        (0..banks).map(|b| trace.bank_shard(BankId(b))).collect()
    });
    let workers = config.parallelism.effective_workers();
    let results = parallel::map_workers(shards, workers, |shard| {
        run_shard(clock, shard, spec, seed, config, &mut NullObserver)
    });
    clock.count_merges(u64::from(banks - 1));
    clock.time(Layer::Merge, || {
        results
            .into_iter()
            .reduce(RunMetrics::merge)
            .expect("geometry has at least one bank")
    })
}
