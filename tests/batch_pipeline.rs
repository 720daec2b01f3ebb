//! Equivalence of the batched event pipeline and the scalar reference
//! loop.
//!
//! The engine's batched loop ([`engine::run_observed`]) must be *bit-identical*
//! to the retained one-event-at-a-time reference ([`engine::run_scalar`])
//! for every technique and every batch size: the batch is a delivery
//! granularity, never a semantic knob.  These tests pin that contract
//! for all nine Table III techniques at batch sizes 1 (every interval
//! alone), 2 and 7 (intervals split mid-stream), 63 (odd split just
//! under a power of two), 1024 and 4096 (many intervals per batch), on
//! the paper-shaped mixed trace and on arbitrary replayed traces —
//! including adversarially interleaved traffic whose bank column
//! alternates every event, so every [`mem_trace::EventBatch::bank_runs`]
//! run degenerates to a single event (the lane kernels' worst case).
//! One case lowers the flip threshold until the mix flips bits, so flip
//! attribution through the chunked replay is pinned too.
//!
//! The kernels of MRLoc and the four TiVaPRoMi variants read their tables
//! only when the answer can change the decision.  On the paper mix those
//! slow paths are rare, so further cases drive each kernel where its
//! skip binds often and can go wrong: MRLoc at high probabilities and
//! across log fills, the time-varying variants at a `P_base` where the
//! weight bound binds on half the draws (FIFO, and LRU with a small
//! history), and CaPRoMi with rows re-activated after their triggers and
//! a full counter table of locked entries.
//!
//! The replay hands a bank run to the backend in one call only when the
//! run cannot flip a row (`DisturbanceBackend::flip_headroom`).  A
//! flooding case at consecutive small thresholds puts runs exactly on
//! that bound, one past it, and across it with a flip inside.
//!
//! The distance-2 adapter (`WideNeighborhood`) re-tags each widened
//! action with its causing event; a flooding case at both bank edges
//! holds it to the scalar reference around three inner techniques.

use dram_sim::{BackendSpec, BankId, Geometry, RowAddr};
use proptest::prelude::*;
use tivapromi_suite::baselines::mrloc::{MrLoc, MrLocConfig};
use tivapromi_suite::baselines::twice::{TwiCe, TwiCeConfig};
use tivapromi_suite::harness::experiments::reliability::Unprotected;
use tivapromi_suite::harness::{
    engine, scenario, techniques, ExperimentScale, NullObserver, RunConfig, RunMetrics,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::tivapromi::{
    CaPromi, HistoryPolicy, Mitigation, TimeVarying, TivaConfig, WeightMode, WideNeighborhood,
};
use tivapromi_suite::trace::{
    AttackConfig, AttackKind, Attacker, MixedTrace, ReplayTrace, SpecLikeWorkload, TraceEvent,
    TraceSource, WorkloadConfig,
};

const BANKS: u32 = 4;
const BATCH_SIZES: [usize; 6] = [1, 2, 7, 63, 1024, 4096];

/// A small multi-bank configuration on the sequential path (batching is
/// orthogonal to sharding; determinism.rs covers the product).
fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 2,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config.parallelism = tivapromi_suite::harness::Parallelism::sequential();
    config
}

/// The paper-shaped mixed trace scaled to the small geometry.
fn mix(config: &RunConfig, seed: u64) -> MixedTrace {
    let intervals = config.intervals();
    let workload = SpecLikeWorkload::new(
        WorkloadConfig::paper(&config.geometry).with_intervals(intervals),
        seed,
    );
    let mut attack = AttackConfig::paper_ramp(
        config.geometry.banks(),
        intervals,
        u64::from(config.geometry.intervals_per_window()),
    );
    attack.kind = AttackKind::MultiAggressorRamp {
        base_row: RowAddr(500),
        max_aggressors: 20,
    };
    let attacker = Attacker::new(attack);
    MixedTrace::new(
        vec![Box::new(workload), Box::new(attacker)],
        config.timing.max_activations_per_interval(),
    )
}

/// Batched == scalar for all nine techniques on the paper mix, at every
/// batch size: at the paper's threshold, where nothing flips, and at a
/// flip threshold of 64 on the tiers that poll flips per activation,
/// where the mix flips bits — so each flip record's bank-local
/// activation count and `time_to_first_flip` are pinned through the
/// chunked replay too.  With four banks interleaved, a chunk spans
/// several bank runs.
#[test]
fn batched_run_matches_scalar_reference_for_all_techniques() {
    let mut flipping = config();
    flipping.flip_threshold = 64;
    let configs = [
        config(),
        flipping.clone(),
        flipping.with_backend(BackendSpec::Cycle),
    ];
    for base in configs {
        let backend = base.backend;
        for technique in Technique::TABLE3 {
            let mut scalar_mitigation = techniques::build_any(technique, &base, 11);
            let scalar = engine::run_scalar(mix(&base, 11), &mut scalar_mitigation, &base);
            assert!(scalar.workload_activations > 0);
            assert_eq!(
                scalar.flips > 0,
                base.flip_threshold == 64,
                "{technique:?} on {backend}: {} flips at threshold {}",
                scalar.flips,
                base.flip_threshold
            );
            for batch_events in BATCH_SIZES {
                let batched_config = base.clone().with_batch_events(batch_events);
                let mut mitigation = techniques::build_any(technique, &batched_config, 11);
                let batched = engine::run_observed(
                    mix(&batched_config, 11),
                    &mut mitigation,
                    &batched_config,
                    &mut NullObserver,
                );
                assert_eq!(
                    scalar, batched,
                    "{technique:?} on {backend} diverged at batch_events={batch_events}"
                );
            }
        }
    }
}

/// The boxed dynamic path and the enum path batch identically.
#[test]
fn boxed_and_enum_mitigations_agree_through_the_batched_loop() {
    let base = config();
    for technique in [Technique::LoLiPromi, Technique::Para, Technique::TwiCe] {
        let mut boxed = techniques::build(technique, &base, 5);
        let via_box = engine::run_observed(mix(&base, 5), boxed.as_mut(), &base, &mut NullObserver);
        let mut any = techniques::build_any(technique, &base, 5);
        let via_enum = engine::run_observed(mix(&base, 5), &mut any, &base, &mut NullObserver);
        assert_eq!(via_box, via_enum, "{technique:?}");
    }
}

/// Runs a mitigation from `build` over a trace from `trace` through the
/// scalar reference and through the batched loop at every batch size,
/// asserts equal metrics, and returns the reference's.
fn matches_scalar<S: TraceSource, M: Mitigation>(
    what: &str,
    base: &RunConfig,
    trace: impl Fn() -> S,
    build: impl Fn() -> M,
) -> RunMetrics {
    let scalar = engine::run_scalar(trace(), &mut build(), base);
    for batch_events in BATCH_SIZES {
        let batched_config = base.clone().with_batch_events(batch_events);
        let batched =
            engine::run_observed(trace(), &mut build(), &batched_config, &mut NullObserver);
        assert_eq!(
            scalar, batched,
            "{what} diverged at batch_events={batch_events}"
        );
    }
    scalar
}

/// [`matches_scalar`] over a replayed trace.
fn kernel_matches_scalar<M: Mitigation>(
    what: &str,
    base: &RunConfig,
    intervals: &[Vec<TraceEvent>],
    build: impl Fn() -> M,
) -> RunMetrics {
    matches_scalar(what, base, || ReplayTrace::new(intervals.to_vec()), build)
}

/// Flooding one row of bank 0 at 165 activations per interval: an
/// unprotected device's victims flip on exactly the `T`-th activation.
/// At `T` = 160…164 the first interval's run crosses the bound and
/// flips inside; at 165 it flips on its last event; at 166 the run ends
/// exactly on the bound and the next run flips on its first event;
/// above that the second run flips partway.  Under PARA, triggers cut
/// the runs and restore the victims, so runs past the bound also
/// complete without a flip.
#[test]
fn batched_run_matches_scalar_across_the_flip_headroom() {
    for tier in [BackendSpec::Exact, BackendSpec::Cycle] {
        for threshold in 160..=170 {
            let mut base = config().with_backend(tier);
            base.flip_threshold = threshold;
            let what = format!("threshold {threshold} on {tier}");
            let flood = || scenario::flooding(&base, RowAddr(500));
            let unprotected = matches_scalar(&format!("unprotected, {what}"), &base, flood, || {
                Unprotected
            });
            assert_eq!(
                unprotected.time_to_first_flip,
                Some(u64::from(threshold)),
                "{what}"
            );
            let para = matches_scalar(&format!("PARA, {what}"), &base, flood, || {
                techniques::build_any(Technique::Para, &base, 3)
            });
            assert!(
                para.trigger_events > 0 && para.flips > 0,
                "{what}: {para:?}"
            );
        }
    }
}

/// The distance-2 adapter decides through its inner kernel and pushes
/// each widened action again under its causing event's tag, so its
/// batched runs must equal the one-event-at-a-time reference.  Flooding
/// row 1 and the second-to-last row under distance-2 coupling puts its
/// widened refreshes against both bank edges; each inner technique is
/// tuned to trigger on the flood.
#[test]
fn wide_neighborhood_matches_scalar_at_the_bank_edges() {
    let mut base = config();
    base.distance2_sixteenths = 4;
    let rows = base.geometry.rows_per_bank();
    let tiva = TivaConfig::paper(&base.geometry).with_p_base_exponent(8);
    let twice = TwiCeConfig {
        trigger_threshold: 1000,
        pruning_rate: 1,
        ..TwiCeConfig::paper(&base.geometry)
    };
    type Build<'a> = &'a dyn Fn() -> Box<dyn Mitigation>;
    let inners: [(&str, Build); 3] = [
        ("LoLiPRoMi", &|| Box::new(TimeVarying::lolipromi(tiva, 31))),
        ("TWiCe", &|| Box::new(TwiCe::new(twice))),
        ("PARA", &|| techniques::build(Technique::Para, &base, 31)),
    ];
    for row in [1, 500, rows - 2] {
        let flood = || scenario::flooding(&base, RowAddr(row));
        for (name, inner) in inners {
            let what = format!("{name}+d2 flooding row {row}");
            let scalar =
                matches_scalar(&what, &base, flood, || WideNeighborhood::new(inner(), rows));
            assert!(scalar.trigger_events > 0, "{what} never triggered");
        }
    }
}

/// `count` intervals of `per_interval` events; `event(k)` makes the
/// trace's `k`-th event.
fn synthetic(
    count: u32,
    per_interval: u32,
    event: impl Fn(u32) -> TraceEvent,
) -> Vec<Vec<TraceEvent>> {
    (0..count)
        .map(|interval| {
            (0..per_interval)
                .map(|i| event(interval * per_interval + i))
                .collect()
        })
        .collect()
}

/// Runs of five same-bank events over all banks, mixing row 0, the last
/// row, a hammered pair with repeats and a sweep of 300 distinct rows —
/// more distinct victims than MRLoc's 64-entry queue holds.
fn edge_mix(k: u32) -> TraceEvent {
    let rows = config().geometry.rows_per_bank();
    let row = match k % 10 {
        0 => 0,
        1 => rows - 1,
        2..=4 => 500 + 2 * (k % 2),
        _ => (k * 37) % 300 + 1,
    };
    TraceEvent::benign(BankId((k / 5) % BANKS), RowAddr(row))
}

/// MRLoc's kernel decides on an up-to-date queue.  At 0.2/0.6 most
/// candidates take the slow path; at the paper's 0.0002/0.0011 about
/// 2 activations in 1000 do, so the gaps between them average ≈ 450
/// activations and a third outlast the 512-entry log, which then fills.
#[test]
fn mrloc_kernel_matches_scalar_at_high_probabilities_and_across_log_fills() {
    let mut base = config();
    base.windows = 3;
    let intervals = synthetic(384, 160, edge_mix);
    for (min, max) in [(0.2, 0.6), (0.0002, 0.0011)] {
        let mut cfg = MrLocConfig::paper(&base.geometry);
        (cfg.min_probability, cfg.max_probability) = (min, max);
        let scalar =
            kernel_matches_scalar(&format!("MRLoc {min}/{max}"), &base, &intervals, || {
                MrLoc::new(cfg, 17)
            });
        assert!(scalar.trigger_events > 0, "MRLoc {min}/{max} never fired");
    }
}

/// The time-varying kernels skip the search and weight lookup for a
/// draw at or above `RefInt.next_power_of_two()` (128 here).  At
/// `P_base = 2^-8` half the draws are skipped and half decide, LoPRoMi's
/// weights reach the bound, and triggers are frequent enough to churn a
/// two-entry LRU history, whose recency every search refreshes.
#[test]
fn time_varying_kernels_match_scalar_where_the_weight_bound_binds() {
    let base = config();
    // Four rows per bank, in an order that shifts between banks, so rows
    // in the history are searched again between the records that evict;
    // every fifth event is a row seen once, whose weight is its slot's.
    let intervals = synthetic(256, 40, |k| {
        let row = match k % 5 {
            4 => (k * 53) % 1024,
            i => [7, 300, 650, 1000][i as usize],
        };
        TraceEvent::benign(BankId((k / 3) % BANKS), RowAddr(row))
    });
    let paper = TivaConfig::paper(&base.geometry).with_p_base_exponent(8);
    let histories = [
        paper,
        paper
            .with_history_policy(HistoryPolicy::Lru)
            .with_history_entries(2),
    ];
    for tiva in histories {
        for mode in [
            WeightMode::Linear,
            WeightMode::Logarithmic,
            WeightMode::Hybrid,
        ] {
            let what = format!("{mode:?} under {:?}", tiva.history_policy);
            let scalar = kernel_matches_scalar(&what, &base, &intervals, || {
                TimeVarying::new(tiva, mode, 23)
            });
            let triggers = scalar.trigger_events;
            assert!(triggers > 100, "{what}: only {triggers} triggers");
        }
    }
}

/// CaPRoMi's kernel searches the history only for a row without a
/// counter entry.  Hot rows trigger and are activated again in later
/// intervals, so their insertions must find their history links; a
/// four-entry table with a lock threshold of 2 fills with locked entries,
/// so later rows meet failed and successful random replacements.
#[test]
fn capromi_kernel_matches_scalar_with_relinked_rows_and_locked_counters() {
    let base = config();
    let intervals = synthetic(256, 48, |k| {
        let i = k % 48;
        let row = if i < 24 {
            100 + 17 * (i % 3)
        } else {
            (k * 29) % 1024
        };
        TraceEvent::benign(BankId(k % 2), RowAddr(row))
    });
    let tiva = TivaConfig::paper(&base.geometry)
        .with_p_base_exponent(10)
        .with_counter_entries(4)
        .with_lock_threshold(2);
    let scalar = kernel_matches_scalar("CaPRoMi", &base, &intervals, || CaPromi::new(tiva, 29));
    let triggers = scalar.trigger_events;
    assert!(triggers > 100, "CaPRoMi: only {triggers} triggers");
}

fn trace_strategy() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..BANKS, 0u32..1024, any::<bool>()), 0..40),
        1..40,
    )
    .prop_map(|intervals| {
        intervals
            .into_iter()
            .map(|interval| {
                interval
                    .into_iter()
                    .map(|(bank, row, aggressor)| TraceEvent {
                        bank: BankId(bank),
                        row: RowAddr(row),
                        aggressor,
                    })
                    .collect()
            })
            .collect()
    })
}

/// Adversarially interleaved traffic: consecutive events never share a
/// bank, so every bank run the lane kernels see is a single event —
/// maximal per-run overhead, and the strongest stream-interleaving
/// stress for the per-bank RNG block refills.
fn interleaved_strategy() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..1024, any::<bool>()), 0..40),
        1..30,
    )
    .prop_map(|intervals| {
        intervals
            .into_iter()
            .map(|interval| {
                interval
                    .into_iter()
                    .enumerate()
                    .map(|(i, (row, aggressor))| TraceEvent {
                        // Cycling through all banks guarantees adjacent
                        // events differ in bank whenever BANKS > 1.
                        bank: BankId(u32::try_from(i).expect("fits") % BANKS),
                        row: RowAddr(row),
                        aggressor,
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-batch accumulation equals per-event accumulation on arbitrary
    /// traces: every metric field, every technique, every batch size.
    #[test]
    fn batched_metrics_equal_scalar_metrics(
        intervals in trace_strategy(),
        technique_index in 0usize..9,
        seed in any::<u64>(),
    ) {
        let technique = Technique::TABLE3[technique_index];
        let base = config();
        let mut scalar_mitigation = techniques::build_any(technique, &base, seed);
        let scalar = engine::run_scalar(
            ReplayTrace::new(intervals.clone()),
            &mut scalar_mitigation,
            &base,
        );
        for batch_events in BATCH_SIZES {
            let batched_config = base.clone().with_batch_events(batch_events);
            let mut mitigation = techniques::build_any(technique, &batched_config, seed);
            let batched = engine::run_observed(
                ReplayTrace::new(intervals.clone()),
                &mut mitigation,
                &batched_config,
                &mut NullObserver,
            );
            prop_assert_eq!(
                &scalar, &batched,
                "{:?} diverged at batch_events={}", technique, batch_events
            );
        }
    }

    /// Single-event bank runs (the run-length grouping's worst case)
    /// stay bit-identical to the scalar reference for every technique.
    #[test]
    fn interleaved_single_event_runs_equal_scalar_metrics(
        intervals in interleaved_strategy(),
        technique_index in 0usize..9,
        seed in any::<u64>(),
    ) {
        let technique = Technique::TABLE3[technique_index];
        let base = config();
        let mut scalar_mitigation = techniques::build_any(technique, &base, seed);
        let scalar = engine::run_scalar(
            ReplayTrace::new(intervals.clone()),
            &mut scalar_mitigation,
            &base,
        );
        for batch_events in BATCH_SIZES {
            let batched_config = base.clone().with_batch_events(batch_events);
            let mut mitigation = techniques::build_any(technique, &batched_config, seed);
            let batched = engine::run_observed(
                ReplayTrace::new(intervals.clone()),
                &mut mitigation,
                &batched_config,
                &mut NullObserver,
            );
            prop_assert_eq!(
                &scalar, &batched,
                "{:?} diverged at batch_events={}", technique, batch_events
            );
        }
    }
}
