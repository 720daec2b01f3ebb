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

use dram_sim::{BackendSpec, BankId, Geometry, RowAddr};
use proptest::prelude::*;
use tivapromi_suite::harness::{engine, techniques, ExperimentScale, NullObserver, RunConfig};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::trace::{
    AttackConfig, AttackKind, Attacker, MixedTrace, ReplayTrace, SpecLikeWorkload, TraceEvent,
    WorkloadConfig,
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
