//! The layer clock: busy time and work counts per simulator layer,
//! recorded from outside the simulator around calls into each layer.
//!
//! A span is two `Instant` reads around one call.  Spans inside an engine
//! run are kept in a per-shard [`Totals`] owned by the wrappers of
//! [`crate::timed`] and folded into the shared [`LayerClock`] once per
//! shard, so workers never contend on the clock in the hot loop.

use rh_hwmodel::Technique;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// A timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Run configs, mitigation and backend construction.
    Setup,
    /// Trace-source construction, cloning and bank-shard preparation.
    TracePrep,
    /// Trace synthesis or replay: `TraceSource::next_batch`.
    Trace,
    /// Decision kernels: `Mitigation::on_batch` (and `on_activate`).
    Kernel,
    /// Interval-granular decisions: `Mitigation::on_refresh_interval`.
    KernelRefresh,
    /// Auto-refresh on the backend (`Command::Refresh`).
    DramRefresh,
    /// Mitigation commands on the backend (`act_n`, row refresh).
    DramCmd,
    /// The fast tier's chunked activation replay (`apply_activations`).
    DramBulk,
    /// Shard, device and result merges.
    Merge,
    /// Report assembly, rendering and serialization.
    Report,
    /// A call the benchmark cannot split from outside (the red-team
    /// search), charged at `workers ×` its wall time.
    Opaque,
}

const LAYERS: usize = 11;

/// The layers timed inside an engine run, by the wrappers.
const SHARD_CHILDREN: [Layer; 6] = [
    Layer::Trace,
    Layer::Kernel,
    Layer::KernelRefresh,
    Layer::DramRefresh,
    Layer::DramCmd,
    Layer::DramBulk,
];

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulated busy time and counts: per shard inside the wrappers, and
/// per unit in the [`LayerClock`].
#[derive(Debug, Clone, Default)]
pub struct Totals {
    busy_ns: [u64; LAYERS],
    spans: [u64; LAYERS],
    /// Kernel busy time per Table III technique (`Technique::TABLE3`
    /// order).
    pub kernel_ns_by_technique: [u64; 9],
    /// Events the trace delivered.
    pub trace_events: u64,
    /// Events handed to the kernels.
    pub kernel_events: u64,
    /// Actions the kernels issued (per-event and per-interval).
    pub kernel_actions: u64,
    /// Workload activations applied to the backend.
    pub dram_acts: u64,
    /// Flips the backends recorded.
    pub dram_flips: u64,
    /// Metric merges.
    pub merge_calls: u64,
    /// Bytes of rendered or serialized report.
    pub report_bytes: u64,
    /// Engine residual: shard wall minus timed children minus span
    /// overhead (see [`LayerClock::close_shard`]).
    pub engine_ns: u64,
    /// Timer overhead inside engine runs: spans × span cost.
    pub overhead_ns: u64,
    /// Per-op wall times (runs, devices or searches).
    pub op_ns: Vec<u64>,
}

impl Totals {
    /// Busy nanoseconds charged to `layer`.
    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize]
    }

    /// Spans recorded for `layer` (its call count).
    pub fn spans(&self, layer: Layer) -> u64 {
        self.spans[layer as usize]
    }

    /// Charges `ns` to `layer` as one span.
    pub fn charge(&mut self, layer: Layer, ns: u64) {
        self.busy_ns[layer as usize] += ns;
        self.spans[layer as usize] += 1;
    }

    /// Times `f` as one span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.charge(layer, elapsed_ns(start));
        out
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Totals) {
        let pairs = self
            .busy_ns
            .iter_mut()
            .zip(other.busy_ns)
            .chain(self.spans.iter_mut().zip(other.spans))
            .chain(
                self.kernel_ns_by_technique
                    .iter_mut()
                    .zip(other.kernel_ns_by_technique),
            );
        for (a, b) in pairs {
            *a += b;
        }
        self.trace_events += other.trace_events;
        self.kernel_events += other.kernel_events;
        self.kernel_actions += other.kernel_actions;
        self.dram_acts += other.dram_acts;
        self.dram_flips += other.dram_flips;
        self.merge_calls += other.merge_calls;
        self.report_bytes += other.report_bytes;
        self.engine_ns += other.engine_ns;
        self.overhead_ns += other.overhead_ns;
        self.op_ns.extend_from_slice(&other.op_ns);
    }
}

/// The cost of one timer span, measured on the running machine.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Wall time one span adds to the code around it.
    pub span_ns: f64,
    /// The part of that cost a span reports as its own duration.
    pub inner_ns: f64,
}

impl Calibration {
    /// The median over trials of a loop of empty spans.
    pub fn measure() -> Self {
        const SPANS: u32 = 20_000;
        let mut trials: Vec<(f64, f64)> = (0..9)
            .map(|_| {
                let mut inner = 0u64;
                let start = Instant::now();
                for _ in 0..SPANS {
                    let span = Instant::now();
                    inner += elapsed_ns(black_box(span));
                }
                let total = elapsed_ns(start);
                black_box(inner);
                (
                    total as f64 / f64::from(SPANS),
                    inner as f64 / f64::from(SPANS),
                )
            })
            .collect();
        trials.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (span_ns, inner_ns) = trials[trials.len() / 2];
        Calibration { span_ns, inner_ns }
    }
}

/// The shared clock one traced unit charges its spans to.
#[derive(Debug)]
pub struct LayerClock {
    totals: Mutex<Totals>,
    /// Span cost on this machine.
    pub calibration: Calibration,
    /// Worker threads the traced unit runs on.
    pub workers: usize,
}

impl LayerClock {
    /// An empty clock for a unit on `workers` workers.
    pub fn new(workers: usize, calibration: Calibration) -> Self {
        LayerClock {
            totals: Mutex::new(Totals::default()),
            calibration,
            workers,
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Totals) -> R) -> R {
        f(&mut self
            .totals
            .lock()
            .expect("a worker panicked while holding the layer clock"))
    }

    /// Times `f` as one span of `layer` (coordinator-side calls; spans
    /// inside an engine run go through the shard's [`Totals`]).
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let mut ns = elapsed_ns(start);
        if layer == Layer::Opaque {
            ns *= self.workers as u64;
        }
        self.with(|t| t.charge(layer, ns));
        out
    }

    /// Records `merges` metric merges.
    pub fn count_merges(&self, merges: u64) {
        self.with(|t| t.merge_calls += merges);
    }

    /// Records `bytes` of rendered report.
    pub fn count_report_bytes(&self, bytes: usize) {
        self.with(|t| t.report_bytes += bytes as u64);
    }

    /// Records one op's wall time.
    pub fn record_op(&self, ns: u64) {
        self.with(|t| t.op_ns.push(ns));
    }

    /// Folds a finished shard into the clock.
    ///
    /// Each child span reports `inner_ns` of timer cost as its own time
    /// and adds `span_ns` of wall in all.  The first is taken out of the
    /// child, the whole cost is kept as tracing overhead, and the engine
    /// residual is what is left of the shard's wall time:
    /// `wall − Σ corrected children − spans × span_ns`.  The per-event
    /// exact and cycle `apply` and the ledger bookkeeping land in the
    /// residual, because a span costs more than they do.
    pub fn close_shard(&self, mut shard: Totals, technique: Option<usize>, shard_wall_ns: u64) {
        let Calibration { span_ns, inner_ns } = self.calibration;
        let mut children = 0u64;
        let mut spans = 0u64;
        for layer in SHARD_CHILDREN {
            let n = shard.spans(layer);
            let slot = &mut shard.busy_ns[layer as usize];
            *slot = slot.saturating_sub((n as f64 * inner_ns) as u64);
            children += *slot;
            spans += n;
        }
        let overhead = (spans as f64 * span_ns) as u64;
        shard.overhead_ns += overhead;
        shard.engine_ns += shard_wall_ns.saturating_sub(children + overhead);
        if let Some(index) = technique {
            shard.kernel_ns_by_technique[index] += shard.busy_ns(Layer::Kernel);
        }
        self.with(|t| t.absorb(&shard));
    }

    /// Takes the accumulated totals, leaving the clock empty.
    pub fn take(&self) -> Totals {
        self.with(std::mem::take)
    }
}

/// Position of a technique name in `Technique::TABLE3`.
pub fn table3_index(name: &str) -> Option<usize> {
    Technique::TABLE3.iter().position(|t| t.name() == name)
}
