//! Determinism of the bank-sharded parallel run engine.
//!
//! The engine's contract: a sharded run — every bank's sub-stream driven
//! through its own mitigation instance and device on a worker pool — is
//! *bit-identical* to the sequential run, for every technique and every
//! worker count.  These tests pin that contract for all nine Table III
//! techniques at 1, 2, and `available_parallelism` workers, for live
//! generators and for recorded traces replayed from one shared
//! recording, and check the algebra ([`RunMetrics::merge`]
//! associativity/commutativity) that makes merge order irrelevant.

use dram_sim::{BackendSpec, CycleStats, Geometry, RowAddr};
use proptest::prelude::*;
use tivapromi_suite::harness::{
    engine, techniques, ExperimentScale, NullObserver, Parallelism, RunConfig, RunMetrics, Runner,
    TimeSeriesRecorder,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::trace::{
    AttackConfig, AttackKind, Attacker, MixedTrace, ReplayTrace, SpecLikeWorkload, TraceSource,
    WorkloadConfig,
};

const BANKS: u32 = 8;

/// A small multi-bank configuration: 8 banks, scaled-down geometry
/// (1024 rows, 128 intervals per window), two windows.
fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 2,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config
}

/// The paper-shaped mixed trace scaled to the small geometry: benign
/// Zipf workload on every bank plus a ramping multi-aggressor attack,
/// with aggressors placed inside the 1024-row bank.
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

#[test]
fn sharded_runs_match_sequential_for_every_technique() {
    let seed = 7;
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for technique in Technique::TABLE3 {
        let base = config().with_parallelism(Parallelism::sequential());
        let sequential = {
            let mut mitigation = techniques::build(technique, &base, seed);
            engine::run_observed(
                mix(&base, seed),
                mitigation.as_mut(),
                &base,
                &mut NullObserver,
            )
        };
        for workers in [1, 2, available] {
            let parallel = base
                .clone()
                .with_parallelism(Parallelism::with_workers(workers));
            let sharded = engine::run_sharded(
                mix(&parallel, seed),
                &|| techniques::build(technique, &parallel, seed),
                &parallel,
                None,
            );
            assert_eq!(
                sequential, sharded,
                "{technique} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_runs_are_schedule_independent() {
    // Repeated sharded runs at a thread count above the core count give
    // the scheduler room to vary; the result must not.
    let parallel = config().with_parallelism(Parallelism::with_workers(4));
    let technique = Technique::LoLiPromi;
    let build = || techniques::build(technique, &parallel, 3);
    let first = engine::run_sharded(mix(&parallel, 3), &build, &parallel, None);
    for _ in 0..3 {
        let again = engine::run_sharded(mix(&parallel, 3), &build, &parallel, None);
        assert_eq!(first, again);
    }
}

#[test]
fn worker_count_zero_resolves_to_auto() {
    let parallel = config().with_parallelism(Parallelism::default());
    assert!(parallel.parallelism.effective_workers() >= 1);
    let sequential = config().with_parallelism(Parallelism::sequential());
    let technique = Technique::TwiCe;
    let seq = {
        let mut mitigation = techniques::build(technique, &sequential, 1);
        engine::run_observed(
            mix(&sequential, 1),
            mitigation.as_mut(),
            &sequential,
            &mut NullObserver,
        )
    };
    let auto = engine::run_sharded(
        mix(&parallel, 1),
        &|| techniques::build(technique, &parallel, 1),
        &parallel,
        None,
    );
    assert_eq!(seq, auto);
}

// --- Recorded traces -----------------------------------------------

/// `mix(config, seed)`, recorded once.
fn record(config: &RunConfig, seed: u64) -> ReplayTrace {
    let mut live = mix(config, seed);
    let mut intervals = Vec::new();
    let mut events = Vec::new();
    while live.next_interval(&mut events) {
        intervals.push(std::mem::take(&mut events));
    }
    ReplayTrace::new(intervals)
}

/// Clones of one recording, sharded by bank over the lanes the first
/// shard split off, replay exactly the live run: every technique, on
/// the exact and cycle tiers, at 1, 2 and `available_parallelism`
/// workers.
#[test]
fn sharded_replays_of_one_recording_match_the_live_run() {
    let seed = 9;
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for tier in [BackendSpec::Exact, BackendSpec::Cycle] {
        let base = config()
            .with_backend(tier)
            .with_parallelism(Parallelism::sequential());
        let recording = record(&base, seed);
        for technique in Technique::TABLE3 {
            let live = Runner::new(base.clone())
                .technique(technique)
                .seed(seed)
                .run(mix(&base, seed));
            for workers in [1, 2, available] {
                let replayed = Runner::new(base.clone())
                    .technique(technique)
                    .seed(seed)
                    .parallelism(Parallelism::with_workers(workers))
                    .run(recording.clone());
                assert_eq!(
                    live, replayed,
                    "{technique} on {tier} replayed at {workers} workers diverged"
                );
            }
        }
    }
}

/// Two clones of one fresh recording, released together on two
/// threads, race to split its shared lanes; both runs must equal the
/// live run.
#[test]
fn concurrent_replays_of_one_recording_agree() {
    let seed = 4;
    let config = config().with_parallelism(Parallelism::with_workers(2));
    let start = std::sync::Barrier::new(2);
    let run = |trace: ReplayTrace| {
        let runner = Runner::new(config.clone())
            .technique(Technique::LoLiPromi)
            .seed(seed);
        start.wait();
        runner.run(trace)
    };
    let recording = record(&config, seed);
    let (left, right) = (recording.clone(), recording);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(left));
        let b = scope.spawn(|| run(right));
        (
            a.join().expect("left replay completes"),
            b.join().expect("right replay completes"),
        )
    });
    assert_eq!(a, b);
    let sequential = config.clone().with_parallelism(Parallelism::sequential());
    let live = Runner::new(sequential.clone())
        .technique(Technique::LoLiPromi)
        .seed(seed)
        .run(mix(&sequential, seed));
    assert_eq!(a, live);
}

// --- Observers must not perturb the engine --------------------------

/// Attaching a [`TimeSeriesRecorder`] must not change any metric: the
/// observed run equals the unobserved run (modulo the recorded series
/// itself), for sequential and sharded execution alike.
#[test]
fn timeseries_recorder_does_not_perturb_results() {
    let seed = 11;
    let technique = Technique::LoLiPromi;
    let base = config().with_parallelism(Parallelism::sequential());
    let plain = Runner::new(base.clone())
        .technique(technique)
        .seed(seed)
        .run(mix(&base, seed));
    let observed = Runner::new(base.clone())
        .technique(technique)
        .seed(seed)
        .observer(TimeSeriesRecorder::new(32))
        .run(mix(&base, seed));
    assert!(observed.timeseries.is_some());
    assert_eq!(plain, observed.without_timeseries());
}

/// With an observer attached, sharded runs stay bit-identical to the
/// sequential run — including the recorded time series, whose merge is
/// associative over bank shards — at 1, 2 and `available_parallelism`
/// workers, on 8 banks and on a bank count that is not a power of two.
#[test]
fn observed_sharded_runs_match_observed_sequential() {
    let seed = 5;
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for banks in [BANKS, 3] {
        let mut base = config().with_parallelism(Parallelism::sequential());
        base.geometry = base.geometry.with_banks(banks);
        for technique in [Technique::Para, Technique::TwiCe, Technique::LoLiPromi] {
            let sequential = Runner::new(base.clone())
                .technique(technique)
                .seed(seed)
                .observer(TimeSeriesRecorder::new(32))
                .run(mix(&base, seed));
            assert!(sequential.timeseries.is_some());
            for workers in [1, 2, available] {
                let parallel = base
                    .clone()
                    .with_parallelism(Parallelism::with_workers(workers));
                let sharded = Runner::new(parallel.clone())
                    .technique(technique)
                    .seed(seed)
                    .observer(TimeSeriesRecorder::new(32))
                    .run(mix(&parallel, seed));
                assert_eq!(
                    sequential, sharded,
                    "{technique} observed run diverged on {banks} banks at {workers} workers"
                );
            }
        }
    }
}

// --- Red-team search determinism ------------------------------------

/// The security-frontier search is a coordinator/worker design: all
/// randomness and ranking happen on the coordinator, workers only
/// evaluate candidates.  The full quick search under a fixed seed must
/// therefore produce *byte-identical* frontier JSON at 1, 2 and
/// `available_parallelism` workers.
#[test]
fn redteam_search_json_is_worker_count_independent() {
    use tivapromi_suite::redteam::{run_search, SearchConfig};
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let baseline = run_search(&SearchConfig::quick(7).with_workers(1)).to_json();
    for workers in [2, available] {
        let json = run_search(&SearchConfig::quick(7).with_workers(workers)).to_json();
        assert_eq!(
            baseline, json,
            "frontier JSON diverged at {workers} workers"
        );
    }
}

// --- RunMetrics::merge algebra --------------------------------------

/// Shard-like metrics: the kept fields (technique, flip threshold,
/// storage) are fixed — as they are across the shards of one run — and
/// everything else varies freely.
fn metrics_strategy() -> impl Strategy<Value = RunMetrics> {
    (
        (0u64..10_000, 0u64..1000, 0u64..500, 0u64..500),
        (0usize..5, 0u32..200_000, (any::<bool>(), 0u64..50_000)),
        (0u64..64, 0u64..5000, (any::<bool>(), 0u64..60_000)),
    )
        .prop_map(
            |(
                (workload, mitigation, triggers, fps),
                (flips, max_disturbance, (has_trigger, trigger_act)),
                (intervals, aggressors, (has_flip, flip_act)),
            )| {
                let first_trigger = has_trigger.then_some(trigger_act);
                RunMetrics {
                    technique: "shard".into(),
                    workload_activations: workload,
                    aggressor_activations: aggressors.min(workload),
                    mitigation_activations: mitigation,
                    trigger_events: triggers,
                    false_positive_events: fps.min(triggers),
                    flips,
                    max_disturbance,
                    flip_threshold: 139_000,
                    first_trigger_act: first_trigger,
                    time_to_first_flip: has_flip.then_some(flip_act),
                    flip_log: Vec::new(),
                    storage_bytes_per_bank: 64.0,
                    intervals,
                    timeseries: None,
                    // Present on roughly half the shards so the merge
                    // algebra is exercised across Some/None mixes too.
                    cycle: has_trigger.then(|| CycleStats {
                        workload_cycles: workload * 54,
                        mitigation_cycles: mitigation * 54,
                        refresh_cycles: intervals * 420,
                        row_buffer_hits: triggers,
                        row_buffer_misses: workload.saturating_sub(triggers),
                    }),
                }
            },
        )
}

proptest! {
    #[test]
    fn merge_is_associative(
        a in metrics_strategy(),
        b in metrics_strategy(),
        c in metrics_strategy(),
    ) {
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative(a in metrics_strategy(), b in metrics_strategy()) {
        prop_assert_eq!(a.clone().merge(b.clone()), b.merge(a));
    }
}
