//! The timed wrappers change no result: they forward every trait method,
//! and a wrapped run equals the unwrapped `Runner` run for every
//! Table III technique on every fidelity tier.

use dram_sim::{BackendSpec, BankId, CycleBackend, DisturbanceBackend, RowAddr};
use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
use mem_trace::TraceSource;
use rh_e2e_bench::clock::{Calibration, Layer, LayerClock};
use rh_e2e_bench::timed::{self, TimedBackend, TimedMitigation, TimedSource};
use rh_harness::{scenario, techniques, ExperimentScale, Parallelism, RunConfig, Runner};
use rh_hwmodel::Technique;
use rh_redteam::{AdaptiveDecoyAttack, FeedbackBoard};
use tivapromi::Mitigation;

/// Quick scale with two banks, so the sharded path runs too.
fn quick(backend: BackendSpec) -> RunConfig {
    let mut scale = ExperimentScale::quick();
    scale.banks = 2;
    RunConfig::paper(&scale)
        .with_backend(backend)
        .with_parallelism(Parallelism::with_workers(2))
}

#[test]
fn wrapped_runs_equal_runner_runs_for_every_technique_and_tier() {
    let calibration = Calibration::measure();
    for backend in BackendSpec::ALL {
        let config = quick(backend);
        for (i, &t) in Technique::TABLE3.iter().enumerate() {
            let seed = 3 + i as u64;
            let plain = Runner::new(config.clone())
                .technique(t)
                .seed(seed)
                .run(scenario::paper_mix(&config, seed));
            let clock = LayerClock::new(2, calibration);
            let wrapped = timed::run_sharded(
                &clock,
                scenario::paper_mix(&config, seed),
                t.into(),
                seed,
                &config,
            );
            assert_eq!(plain, wrapped, "{t} on the {backend} tier");

            let totals = clock.take();
            assert_eq!(
                totals.trace_events, plain.workload_activations,
                "{t} {backend}"
            );
            assert_eq!(
                totals.kernel_events, plain.workload_activations,
                "{t} {backend}"
            );
            assert_eq!(
                totals.dram_acts, plain.workload_activations,
                "{t} {backend}"
            );
            assert_eq!(totals.kernel_actions, plain.trigger_events, "{t} {backend}");
            assert_eq!(totals.dram_flips, plain.flips as u64, "{t} {backend}");
            assert_eq!(totals.merge_calls, 1, "two shards, one merge");
            // `defers_flips` reaches the engine: only the fast tier takes
            // the chunked `apply_activations` path.
            assert_eq!(
                totals.spans(Layer::DramBulk) > 0,
                backend == BackendSpec::Fast,
                "{t} {backend}"
            );
            // `cycle_stats` reaches the metrics.
            assert_eq!(wrapped.cycle.is_some(), backend == BackendSpec::Cycle);
            assert!(
                totals.kernel_ns_by_technique[i] > 0,
                "{t} kernel time attributed"
            );
        }
    }
}

#[test]
fn wrappers_forward_every_trait_method() {
    let config = quick(BackendSpec::Exact);

    // A closed-loop attacker must keep its one-interval batches.
    let board = FeedbackBoard::new(1);
    let attack = AdaptiveDecoyAttack::new(BankId(0), RowAddr(201), 8, 10, 4, board);
    let source = TimedSource::new(attack);
    assert_eq!(source.max_batch_intervals(), 1);
    assert_eq!(source.intervals_hint(), Some(10));

    // An unshardable source still refuses sharding through the wrapper.
    let cpu = CpuWorkload::new(CpuWorkloadConfig::paper(&config.geometry, 4), 7);
    let expected = cpu
        .shard_support()
        .expect_err("CpuWorkload refuses sharding");
    let err = TimedSource::new(cpu)
        .shard_support()
        .expect_err("wrapper forwards the refusal");
    assert_eq!(err, expected);

    for &t in &Technique::TABLE3 {
        let inner = techniques::build_any(t, &config, 1);
        let (name, bits, bytes) = (
            inner.name().to_string(),
            inner.storage_bits_per_bank(),
            inner.storage_bytes_per_bank(),
        );
        let wrapped = TimedMitigation::new(inner);
        assert_eq!(wrapped.name(), name);
        assert_eq!(wrapped.storage_bits_per_bank(), bits);
        assert_eq!(wrapped.storage_bytes_per_bank(), bytes);
    }

    let exact = TimedBackend::new(config.build_device());
    assert!(!exact.defers_flips());
    assert!(exact.device().is_some());
    assert_eq!(exact.cycle_stats(), None);
    let fast = TimedBackend::new(config.build_fast_backend());
    assert!(fast.defers_flips());
    assert!(fast.device().is_none());
    let cycle = TimedBackend::new(CycleBackend::new(config.build_device()));
    assert!(!cycle.defers_flips());
    assert!(cycle.device().is_some());
    assert!(cycle.cycle_stats().is_some());
}
