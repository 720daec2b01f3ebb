//! The run engine: drives a trace through a mitigation and the DRAM
//! device, collecting [`RunMetrics`].
//!
//! The hot loop is *batched*: the trace delivers [`EventBatch`]es of a
//! few thousand activations spanning whole refresh intervals
//! ([`mem_trace::TraceSource::next_batch`]), and per interval segment
//! the engine
//!
//! 1. hands the whole segment to the mitigation in one
//!    [`Mitigation::on_batch`] call, collecting its actions — tagged by
//!    causing event — in an [`ActionSink`];
//! 2. replays the segment in chunks, each ending at the next event that
//!    carries actions ([`ActionSink::peek_tag`]): ledger and per-bank
//!    counts once per run of equal bank, each run's activations
//!    delivered to the backend, then that event's actions applied —
//!    every read sees exactly the state of the one-event-at-a-time path,
//!    so the batched engine is bit-identical to the scalar reference
//!    ([`run_scalar`], kept for the equivalence tests).  Delivery has
//!    one rule for every tier: a run no longer than the bank's
//!    [`DisturbanceBackend::flip_headroom`] cannot flip a row and goes to
//!    [`DisturbanceBackend::apply_activations`] in one call; a longer
//!    one goes as one `Command::Activate` per event, with its flips
//!    noted on the spot;
//! 3. issues the auto-refresh and the mitigation's
//!    `on_refresh_interval`, applying the interval-granular actions
//!    (CaPRoMi's collective decisions, ProHit's hot-table refresh).
//!
//! Step 2 is sound because mitigations never read the device: deciding
//! a whole segment before applying any of its device commands cannot
//! change a decision.  The only segment-visible coupling runs the other
//! way — feedback-coupled *traces* reading mitigation actions — and is
//! handled at delivery: such sources bound their batch to one interval
//! via [`mem_trace::TraceSource::max_batch_intervals`].
//!
//! False-positive attribution uses the trace's ground-truth aggressor
//! labels: a trigger is a false positive when the row it names (the
//! suspected aggressor for `act_n`, the victim for `RefreshRow`) is not,
//! respectively adjacent to, an attacker-hammered row.
//!
//! [`run_observed`] threads an [`Observer`] through the loop, and
//! [`run_sharded`], the sharded entrypoint, takes an optional
//! [`Observe`] strategy (see [`crate::observe`]); unobserved, both run
//! the loop monomorphised over [`crate::observe::NullObserver`], whose
//! empty inline callbacks compile away, so the no-observer path costs
//! nothing.  The mitigation
//! is a generic parameter: built as [`rh_baselines::AnyMitigation`]
//! (see [`crate::techniques::build_any`]) the per-event inner loop is a
//! `match`, not a vtable call — one dynamic-free dispatch per interval
//! segment.
//!
//! The *device* side is equally generic: the loop drives any
//! [`DisturbanceBackend`] (see [`dram_sim::backend`]), and the
//! entrypoints pick the tier `config.backend` names exactly once before
//! entering it — exact (the event-accurate [`dram_sim::DramDevice`], the
//! default), fast (interval-level accumulation), or cycle (row-buffer
//! and command-timing accounting in [`RunMetrics::cycle`]).  Because
//! mitigations never read the device, the mitigation decision stream —
//! triggers, false positives, first-trigger time — is identical on
//! every tier; only flip-side metrics inherit the tier's fidelity.
//! Prefer the [`crate::Runner`] builder over calling these functions
//! directly.

use crate::config::RunConfig;
use crate::metrics::{sort_flip_log, FlipRecord, RunMetrics};
use crate::observe::{IntervalSnapshot, NullObserver, Observe, Observer, ShardInfo};
use dram_sim::{
    BackendSpec, BankId, Command, CycleBackend, DisturbanceBackend, FlipEvent, Geometry, RowAddr,
};
use mem_trace::{EventBatch, TraceEvent, TraceSource, TraceSplit};
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Actions each per-run buffer holds before it first grows: the sink of
/// a segment's per-event actions and the buffer of interval-end
/// actions.  CaPRoMi's interval-end backlog, the largest of the latter,
/// is at most `counter_entries × banks` (256 at the paper's 64 entries
/// and 4 banks), so the steady-state windows of `tests/alloc_free.rs`
/// grow neither buffer.
const ACTION_BUFFER_CAPACITY: usize = 1024;

/// Tracks which rows the attacker has hammered, for ground-truth
/// false-positive attribution: one bit per (bank, row) of the geometry,
/// sized once at run start.  The ledger is only ever membership-tested,
/// so it needs no order (and no hashing, rule D1).
#[derive(Debug)]
struct AggressorLedger {
    rows_per_bank: usize,
    bits: Vec<u64>,
}

impl AggressorLedger {
    fn new(geometry: &Geometry) -> Self {
        let rows_per_bank = geometry.rows_per_bank() as usize;
        let rows = rows_per_bank * geometry.banks() as usize;
        AggressorLedger {
            rows_per_bank,
            bits: vec![0; rows.div_ceil(64)],
        }
    }

    #[inline]
    fn record(&mut self, bank: BankId, row: RowAddr) {
        let bit = bank.index() * self.rows_per_bank + row.index();
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    fn is_aggressor(&self, bank: BankId, row: RowAddr) -> bool {
        // Rows past the bank edge (a last-row victim's upper neighbor)
        // were never hammered.
        if row.index() >= self.rows_per_bank {
            return false;
        }
        let bit = bank.index() * self.rows_per_bank + row.index();
        self.bits
            .get(bit / 64)
            .is_some_and(|word| word >> (bit % 64) & 1 == 1)
    }

    /// Is this action aimed at real attacker activity?
    fn is_true_positive(&self, action: &MitigationAction) -> bool {
        match action {
            // act_n names the suspected aggressor.
            MitigationAction::ActivateNeighbors { bank, row } => self.is_aggressor(*bank, *row),
            // RefreshRow names a victim; it is justified if either
            // physical neighbor is an attacker row.
            MitigationAction::RefreshRow { bank, row } => {
                (row.0 > 0 && self.is_aggressor(*bank, RowAddr(row.0 - 1)))
                    || self.is_aggressor(*bank, RowAddr(row.0 + 1))
            }
        }
    }
}

/// Trigger/first-trigger bookkeeping shared by the per-activation and
/// per-interval action drains.
struct TriggerLedger {
    trigger_events: u64,
    false_positive_events: u64,
    // First-trigger bookkeeping is *bank-local*: each trigger is
    // attributed to the bank it targets and recorded against that bank's
    // own activation count.  The run-level `first_trigger_act` is the
    // minimum over banks, which makes it invariant under bank sharding
    // (each shard sees exactly its bank's activations).
    bank_acts: Vec<u64>,
    bank_first: Vec<Option<u64>>,
    // First-flip bookkeeping mirrors the first-trigger accounting: a
    // new device flip is attributed to the bank whose activation (or
    // mitigation action) caused it — disturbance never couples banks,
    // so the bank issuing the current command is the flipping bank —
    // and recorded against that bank's activation count.
    flips_seen: usize,
    bank_first_flip: Vec<Option<u64>>,
    // Per-row flip attribution: every new device flip becomes a
    // `FlipRecord` carrying the flipping bank's activation count at the
    // moment the flip was noted — the same bank-local accounting as
    // `bank_first_flip`, so the log is invariant under bank sharding.
    flip_log: Vec<FlipRecord>,
}

impl TriggerLedger {
    fn new(banks: u32) -> Self {
        let banks = banks as usize;
        TriggerLedger {
            trigger_events: 0,
            false_positive_events: 0,
            bank_acts: vec![0; banks],
            bank_first: vec![None; banks],
            flips_seen: 0,
            bank_first_flip: vec![None; banks],
            flip_log: Vec::new(),
        }
    }

    /// Walks the backend's flip log past the ledger's cursor, appends a
    /// [`FlipRecord`] per new flip, and records, per flipping bank, the
    /// bank-local activation count of its first flip.
    ///
    /// Each flip carries its own bank (disturbance never couples banks,
    /// so on the exact tier new flips always land in the bank of the
    /// command that caused them — this is the historical attribution,
    /// generalized to backends that resolve flips at interval ends).
    fn note_flips(&mut self, flips: &[FlipEvent]) {
        while self.flips_seen < flips.len() {
            let event = flips[self.flips_seen];
            let bank = event.bank.index();
            self.flips_seen += 1;
            let bank_act = self.bank_acts[bank];
            self.flip_log.push(FlipRecord {
                bank: event.bank,
                row: event.row,
                interval: event.interval,
                bank_act,
            });
            self.bank_first_flip[bank].get_or_insert(bank_act);
        }
    }
}

#[inline]
fn apply_action<B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    action: MitigationAction,
    backend: &mut B,
    ledger: &AggressorLedger,
    triggers: &mut TriggerLedger,
    observer: &mut O,
) {
    triggers.trigger_events += 1;
    let true_positive = ledger.is_true_positive(&action);
    if !true_positive {
        triggers.false_positive_events += 1;
    }
    observer.on_action(&action, true_positive);
    let bank = action.bank().index();
    triggers.bank_first[bank].get_or_insert(triggers.bank_acts[bank]);
    backend.apply(action.to_command());
    // ActivateNeighbors disturbs the neighbors' neighbors and can
    // itself cross the flip threshold.
    triggers.note_flips(backend.flips());
}

fn apply_actions<B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    actions: &mut Vec<MitigationAction>,
    backend: &mut B,
    ledger: &AggressorLedger,
    triggers: &mut TriggerLedger,
    observer: &mut O,
) {
    for action in actions.drain(..) {
        apply_action(action, backend, ledger, triggers, observer);
    }
}

/// Runs `trace` through `mitigation` with an [`Observer`] receiving
/// callbacks from inside the loop, on the backend tier `config.backend`
/// selects.
///
/// The backend is chosen **once** here, then the loop monomorphises
/// over its concrete type — the per-event hot path carries no enum or
/// vtable dispatch.  The observer type is also a
/// generic parameter, so passing [`NullObserver`] monomorphises to the
/// unobserved loop.
pub fn run_observed<S: TraceSource, M: Mitigation + ?Sized, O: Observer + ?Sized>(
    mut trace: S,
    mitigation: &mut M,
    config: &RunConfig,
    observer: &mut O,
) -> RunMetrics {
    match config.backend {
        BackendSpec::Exact => {
            let mut device = config.build_device();
            run_on_backend_observed(&mut trace, mitigation, config, &mut device, observer)
        }
        BackendSpec::Fast => {
            let mut backend = config.build_fast_backend();
            run_on_backend_observed(&mut trace, mitigation, config, &mut backend, observer)
        }
        BackendSpec::Cycle => {
            let mut backend = CycleBackend::new(config.build_device());
            run_on_backend_observed(&mut trace, mitigation, config, &mut backend, observer)
        }
    }
}

/// The full engine loop — batched, generic over the disturbance
/// backend: caller-provided backend and observer.
///
/// Every fidelity tier shares this one loop, replay included: a bank
/// run within [`DisturbanceBackend::flip_headroom`] reaches the backend
/// through [`DisturbanceBackend::apply_activations`], any other run one
/// activation at a time (a flip-deferring tier's headroom is
/// unbounded; a backend that states no bound has none).  The backend
/// parameter is monomorphised, so each tier compiles to its own
/// straight-line code.
/// The mitigation decision stream is backend-independent (mitigations
/// never read the device), so trigger/false-positive accounting is
/// bit-identical across tiers — only the flip-side metrics inherit the
/// backend's fidelity.
pub fn run_on_backend_observed<S, M, B, O>(
    trace: &mut S,
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
    observer: &mut O,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation + ?Sized,
    B: DisturbanceBackend + ?Sized,
    O: Observer + ?Sized,
{
    let mut batch = EventBatch::with_target_events(config.batch_events);
    // Both action buffers are made once per run and reused: the sink is
    // rewound with `reset` per segment, and every interval end drains
    // `actions` in place.
    let mut sink = ActionSink::with_capacity(ACTION_BUFFER_CAPACITY);
    let mut actions: Vec<MitigationAction> = Vec::with_capacity(ACTION_BUFFER_CAPACITY);
    let mut ledger = AggressorLedger::new(&config.geometry);
    let mut triggers = TriggerLedger::new(config.geometry.banks());
    let mut total_acts = 0u64;
    let mut aggressor_acts = 0u64;
    let max_intervals = config.intervals();
    let mut interval = 0u64;

    while interval < max_intervals && trace.next_batch(&mut batch, max_intervals - interval) {
        // The columns are walked as parallel slices so the hot loop
        // carries no per-event bounds checks.
        let (banks_col, rows_col, aggrs_col) = batch.columns();
        for segment in 0..batch.intervals() {
            let range = batch.segment(segment);
            // Decide ahead: the mitigation sees the whole segment in
            // one call (mitigations never read the device, so deciding
            // before applying cannot change a decision) …
            sink.reset();
            mitigation.on_batch(&batch, range.clone(), &mut sink);
            // … then replay in scalar order, one chunk per action point:
            // an action's trigger accounting reads the counters as of its
            // causing event and its true-positive check reads the ledger
            // as of that event, so each chunk runs up to and including
            // the next event that carries actions (or to the segment
            // end), then drains that event's actions.  Between action
            // points nothing reads the counters, so they add per run of
            // equal bank ([`EventBatch::bank_runs`]).
            let mut cur = range.start;
            while cur < range.end {
                let stop = sink.peek_tag().map_or(range.end, |tag| {
                    let tag = usize::try_from(tag).expect("event tag fits usize");
                    (tag + 1).min(range.end)
                });
                for (bank_id, run) in batch.bank_runs(cur..stop) {
                    let bank = bank_id.index();
                    let rows = &rows_col[run.clone()];
                    for (&row, &aggressor) in rows.iter().zip(&aggrs_col[run.clone()]) {
                        if aggressor {
                            aggressor_acts += 1;
                            ledger.record(bank_id, row);
                        }
                    }
                    let base = triggers.bank_acts[bank];
                    let len = u64::try_from(rows.len()).expect("run length fits u64");
                    if len <= backend.flip_headroom(bank_id) {
                        // No activation of the run can flip a row: one
                        // call, and no flip to poll for.
                        backend.apply_activations(&banks_col[run], rows);
                    } else {
                        // Per-event delivery.  A flip is attributed to
                        // the bank's count as of the activation that
                        // caused it, exactly as an event-by-event walk
                        // would have counted it.
                        for (bank_act, &row) in (base + 1..).zip(rows) {
                            backend.apply(Command::Activate { bank: bank_id, row });
                            if backend.flips().len() > triggers.flips_seen {
                                triggers.bank_acts[bank] = bank_act;
                                triggers.note_flips(backend.flips());
                            }
                        }
                    }
                    triggers.bank_acts[bank] = base + len;
                }
                total_acts += u64::try_from(stop - cur).expect("chunk length fits u64");
                cur = stop;
                // Drain the actions of the chunk's last event, if it had
                // any (tags ascend, so equal tags drain together).
                if let Some(tag) = sink.peek_tag() {
                    if usize::try_from(tag).expect("event tag fits usize") < cur {
                        while let Some(action) = sink.next_for(tag) {
                            apply_action(action, backend, &ledger, &mut triggers, observer);
                        }
                    }
                }
            }
            debug_assert!(sink.fully_drained(), "sink tags must cover the segment");
            backend.apply(Command::Refresh);
            // Backends may resolve deferred disturbance at the interval
            // boundary (the fast tier); on the exact tier refresh only
            // restores, so this is a cursor comparison and nothing else.
            triggers.note_flips(backend.flips());
            mitigation.on_refresh_interval(&mut actions);
            if !actions.is_empty() {
                apply_actions(&mut actions, backend, &ledger, &mut triggers, observer);
            }
            observer.on_interval_end(&IntervalSnapshot {
                interval,
                activations: total_acts,
                triggers: triggers.trigger_events,
                false_positives: triggers.false_positive_events,
                stats: backend.stats(),
                max_disturbance: backend.max_disturbance_seen(),
            });
            interval += 1;
        }
    }

    finish_metrics(
        mitigation,
        config,
        backend,
        triggers,
        aggressor_acts,
        observer,
    )
}

/// The scalar reference loop: one event at a time, exactly the pre-batch
/// engine.
///
/// Each event is decided by [`Mitigation::on_activate`]: a one-event
/// [`Mitigation::on_batch`] call, or the eager paper form of MRLoc and
/// the TiVaPRoMi variants, whose kernels skip table reads.  Kept public
/// because the equivalence tests prove the batched loop bit-identical
/// against it at several batch sizes; not otherwise called by the
/// harness.  Dispatches on `config.backend` exactly like
/// [`run_observed`], so the scalar reference pins every tier, not just
/// the exact one.
pub fn run_scalar<S: TraceSource, M: Mitigation + ?Sized>(
    mut trace: S,
    mitigation: &mut M,
    config: &RunConfig,
) -> RunMetrics {
    match config.backend {
        BackendSpec::Exact => {
            let mut device = config.build_device();
            run_scalar_on_backend(&mut trace, mitigation, config, &mut device)
        }
        BackendSpec::Fast => {
            let mut backend = config.build_fast_backend();
            run_scalar_on_backend(&mut trace, mitigation, config, &mut backend)
        }
        BackendSpec::Cycle => {
            let mut backend = CycleBackend::new(config.build_device());
            run_scalar_on_backend(&mut trace, mitigation, config, &mut backend)
        }
    }
}

/// The scalar loop body, generic over the backend tier.
fn run_scalar_on_backend<S, M, B>(
    trace: &mut S,
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation + ?Sized,
    B: DisturbanceBackend + ?Sized,
{
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut actions: Vec<MitigationAction> = Vec::new();
    let mut ledger = AggressorLedger::new(&config.geometry);
    let mut triggers = TriggerLedger::new(config.geometry.banks());
    let mut aggressor_acts = 0u64;
    let mut observer = NullObserver;
    let max_intervals = config.intervals();

    for _ in 0..max_intervals {
        events.clear();
        if !trace.next_interval(&mut events) {
            break;
        }
        for event in &events {
            if event.aggressor {
                ledger.record(event.bank, event.row);
                aggressor_acts += 1;
            }
            triggers.bank_acts[event.bank.index()] += 1;
            backend.apply(Command::Activate {
                bank: event.bank,
                row: event.row,
            });
            triggers.note_flips(backend.flips());
            mitigation.on_activate(event.bank, event.row, &mut actions);
            if !actions.is_empty() {
                apply_actions(&mut actions, backend, &ledger, &mut triggers, &mut observer);
            }
        }
        backend.apply(Command::Refresh);
        triggers.note_flips(backend.flips());
        mitigation.on_refresh_interval(&mut actions);
        if !actions.is_empty() {
            apply_actions(&mut actions, backend, &ledger, &mut triggers, &mut observer);
        }
    }

    finish_metrics(
        mitigation,
        config,
        backend,
        triggers,
        aggressor_acts,
        &mut observer,
    )
}

fn finish_metrics<M: Mitigation + ?Sized, B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
    mut triggers: TriggerLedger,
    aggressor_acts: u64,
    observer: &mut O,
) -> RunMetrics {
    // Catch up on any flips the loop has not yet noted (both loops end
    // every interval with a post-refresh note, so this is normally a
    // cursor comparison) and put the log into its canonical order.
    triggers.note_flips(backend.flips());
    sort_flip_log(&mut triggers.flip_log);
    let stats = backend.stats();
    let mut metrics = RunMetrics {
        technique: mitigation.name().to_string(),
        workload_activations: stats.workload_activations,
        aggressor_activations: aggressor_acts,
        mitigation_activations: stats.mitigation_activations,
        trigger_events: triggers.trigger_events,
        false_positive_events: triggers.false_positive_events,
        flips: backend.flips().len(),
        max_disturbance: backend.max_disturbance_seen(),
        flip_threshold: config.flip_threshold,
        first_trigger_act: triggers.bank_first.iter().flatten().copied().min(),
        time_to_first_flip: triggers.bank_first_flip.iter().flatten().copied().min(),
        flip_log: triggers.flip_log,
        storage_bytes_per_bank: mitigation.storage_bytes_per_bank(),
        intervals: stats.refresh_intervals,
        timeseries: None,
        cycle: backend.cycle_stats(),
    };
    observer.on_run_end(&mut metrics);
    metrics
}

/// Runs `trace` through the mitigation that `build` constructs, sharded
/// by bank when `config.parallelism` allows it, with an optional
/// [`Observe`] strategy attached.
///
/// This is the engine's one sharded entrypoint; [`crate::Runner::run`]
/// lands here.  With `shard_by_bank` (and more than one bank) each
/// bank's sub-stream ([`TraceSplit::bank_shard`]) is driven through its
/// *own* mitigation instance and backend on the worker pool
/// ([`crate::parallel::map_workers`]), and the per-shard [`RunMetrics`]
/// are combined in bank order with [`RunMetrics::merge`].  Because
/// banks are independent — disturbance never couples them on any
/// backend tier and every mitigation derives per-bank decision streams
/// via [`dram_sim::bank_seed`] — the merged result is bit-identical to
/// the sequential run, for every worker count and schedule.
///
/// With `observe`, one [`Observer`] is forked per bank shard (or one for
/// the whole run on the sequential path); a deterministic observer
/// ([`crate::TimeSeriesRecorder`]) leaves the merged metrics
/// bit-identical to the sequential run at every worker count.  Without
/// one, the engine loop stays monomorphised over [`NullObserver`], so
/// the run is exactly as fast as an engine without observability hooks.
///
/// `build` must construct the mitigation identically on every call
/// (same technique, same seed); it is called once per shard.
pub fn run_sharded<S, M, F>(
    trace: S,
    build: &F,
    config: &RunConfig,
    observe: Option<&dyn Observe>,
) -> RunMetrics
where
    S: TraceSplit,
    M: Mitigation,
    F: Fn() -> M + Sync,
{
    let banks = config.geometry.banks();
    if !config.parallelism.shard_by_bank || banks <= 1 {
        return run_whole(trace, build, config, observe);
    }
    let shards: Vec<(ShardInfo, Box<dyn TraceSplit>)> = (0..banks)
        .map(|b| {
            let bank = BankId(b);
            (ShardInfo { bank: Some(bank) }, trace.bank_shard(bank))
        })
        .collect();
    let workers = config.parallelism.effective_workers();
    crate::parallel::map_workers(shards, workers, |(info, shard)| {
        run_shard(shard, build, config, observe, &info)
    })
    .into_iter()
    .reduce(RunMetrics::merge)
    .expect("geometry has at least one bank")
}

/// The unsharded path of [`run_sharded`], open to any [`TraceSource`]
/// (including unshardable ones, for [`crate::Runner::run_sequential`]):
/// the whole run is one shard.
pub(crate) fn run_whole<S, M, F>(
    trace: S,
    build: &F,
    config: &RunConfig,
    observe: Option<&dyn Observe>,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation,
    F: Fn() -> M,
{
    run_shard(trace, build, config, observe, &ShardInfo::whole_run())
}

/// Runs one shard (or the whole run) on a freshly built mitigation,
/// with `observe`'s observer for it forked when one is attached.
fn run_shard<S, M, F>(
    trace: S,
    build: &F,
    config: &RunConfig,
    observe: Option<&dyn Observe>,
    shard: &ShardInfo,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation,
    F: Fn() -> M,
{
    let mut mitigation = build();
    match observe {
        None => run_observed(trace, &mut mitigation, config, &mut NullObserver),
        Some(observe) => run_observed(
            trace,
            &mut mitigation,
            config,
            observe.observer(shard).as_mut(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::experiments::reliability::Unprotected;
    use crate::observe::TimeSeriesRecorder;
    use crate::{scenario, techniques};
    use mem_trace::{AttackConfig, Attacker, ReplayTrace};
    use rh_hwmodel::Technique;

    fn quick_config() -> RunConfig {
        RunConfig::paper(&ExperimentScale::quick())
    }

    #[test]
    fn unprotected_attack_flips_bits() {
        // No mitigation: the attack must succeed.
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let metrics = run_observed(attack, &mut Unprotected, &config, &mut NullObserver);
        assert!(metrics.flips > 0, "{metrics:?}");
        assert_eq!(metrics.mitigation_activations, 0);
        assert_eq!(metrics.first_trigger_act, None);
    }

    #[test]
    fn twice_stops_the_same_attack() {
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let mut twice = techniques::build(Technique::TwiCe, &config, 1);
        let metrics = run_observed(attack, twice.as_mut(), &config, &mut NullObserver);
        assert_eq!(metrics.flips, 0, "{metrics:?}");
        assert!(metrics.trigger_events > 0);
        // Pure attack trace → no false positives.
        assert_eq!(metrics.false_positive_events, 0);
    }

    #[test]
    fn false_positives_attribute_to_benign_rows() {
        let config = quick_config();
        // Benign-only trace with PARA: every trigger is a false positive.
        let trace = scenario::workload_only(&config, 3);
        let mut para = techniques::build(Technique::Para, &config, 3);
        let metrics = run_observed(trace, para.as_mut(), &config, &mut NullObserver);
        assert!(metrics.trigger_events > 0);
        assert_eq!(metrics.false_positive_events, metrics.trigger_events);
    }

    #[test]
    fn first_trigger_records_activation_count() {
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let mut twice = techniques::build(Technique::TwiCe, &config, 1);
        let metrics = run_observed(attack, twice.as_mut(), &config, &mut NullObserver);
        // TWiCe triggers deterministically at 34 750 activations.
        assert_eq!(metrics.first_trigger_act, Some(34_750));
    }

    #[test]
    fn run_stops_at_configured_intervals() {
        let config = quick_config();
        // An endless trace is clipped at config.intervals().
        let long = ReplayTrace::new(vec![vec![]; 10 * config.intervals() as usize]);
        let metrics = run_observed(long, &mut Unprotected, &config, &mut NullObserver);
        assert_eq!(metrics.intervals, config.intervals());
    }

    /// A counting observer: every hook increments a counter, so the test
    /// can check the engine calls each hook the documented number of
    /// times.  Activations are read from the interval snapshots.
    #[derive(Default)]
    struct Counting {
        activations: u64,
        actions: u64,
        true_positives: u64,
        intervals: u64,
        run_ends: u64,
    }

    impl Observer for Counting {
        fn on_action(&mut self, _: &MitigationAction, true_positive: bool) {
            self.actions += 1;
            if true_positive {
                self.true_positives += 1;
            }
        }
        fn on_interval_end(&mut self, snapshot: &IntervalSnapshot) {
            self.intervals += 1;
            assert_eq!(snapshot.interval + 1, self.intervals);
            assert!(snapshot.activations >= self.activations);
            self.activations = snapshot.activations;
            assert_eq!(snapshot.triggers, self.actions);
        }
        fn on_run_end(&mut self, _: &mut RunMetrics) {
            self.run_ends += 1;
        }
    }

    #[test]
    fn observer_hooks_fire_once_per_event() {
        let config = quick_config();
        let trace = scenario::paper_mix(&config, 5);
        let mut para = techniques::build(Technique::Para, &config, 5);
        let mut counting = Counting::default();
        let metrics = run_observed(trace, para.as_mut(), &config, &mut counting);
        assert_eq!(counting.activations, metrics.workload_activations);
        assert_eq!(counting.actions, metrics.trigger_events);
        assert_eq!(
            counting.actions - counting.true_positives,
            metrics.false_positive_events
        );
        assert_eq!(counting.intervals, metrics.intervals);
        assert_eq!(counting.run_ends, 1);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let config = quick_config();
        let unobserved = {
            let mut m = techniques::build(Technique::LoLiPromi, &config, 2);
            run_observed(
                scenario::paper_mix(&config, 2),
                m.as_mut(),
                &config,
                &mut NullObserver,
            )
        };
        let observed = {
            let mut m = techniques::build(Technique::LoLiPromi, &config, 2);
            let mut counting = Counting::default();
            run_observed(
                scenario::paper_mix(&config, 2),
                m.as_mut(),
                &config,
                &mut counting,
            )
        };
        assert_eq!(unobserved, observed);
    }

    #[test]
    fn timeseries_final_point_matches_run_totals() {
        let config = quick_config();
        let trace = scenario::paper_mix(&config, 3);
        let build = |seed: u64| move || techniques::build(Technique::Para, &quick_config(), seed);
        let recorder = TimeSeriesRecorder::new(64);
        let metrics = run_sharded(trace, &build(3), &config, Some(&recorder));
        let series = metrics.timeseries.as_ref().expect("recorder attached");
        assert_eq!(series.stride, 64);
        let last = series.points.last().expect("nonempty run");
        assert_eq!(last.interval, metrics.intervals - 1);
        assert_eq!(last.activations, metrics.workload_activations);
        assert_eq!(last.mitigation_activations, metrics.mitigation_activations);
        assert_eq!(last.triggers, metrics.trigger_events);
        assert_eq!(last.false_positives, metrics.false_positive_events);
        assert_eq!(last.max_disturbance, metrics.max_disturbance);
        // Grid points sit at stride boundaries; cumulative counters are
        // monotone along the series.
        for pair in series.points.windows(2) {
            assert!(pair[0].interval < pair[1].interval);
            assert!(pair[0].activations <= pair[1].activations);
            assert!(pair[0].triggers <= pair[1].triggers);
            assert!(pair[0].max_disturbance <= pair[1].max_disturbance);
        }
        for p in &series.points[..series.points.len() - 1] {
            assert_eq!((p.interval + 1) % series.stride, 0);
        }
    }
}
