//! Per-activation mitigation cost — the simulator-side analogue of the
//! paper's cycle budget — plus the bank-sharded engine's multi-core
//! scaling (a full 8-bank run, sequential vs. sharded at 1/2/4 workers)
//! and the batched-vs-scalar pipeline comparison, which writes
//! `BENCH_batch.json` at the workspace root.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark measures wall time; its readings never reach simulation results"
)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dram_sim::{BankId, RowAddr};
use rand::{RngExt, SeedableRng};
use rh_bench::bench_scale;
use rh_harness::{
    engine, scenario, techniques, ExperimentScale, NullObserver, Parallelism, RunConfig,
};
use rh_hwmodel::Technique;
use std::hint::black_box;
use std::time::Instant;

/// Batched pipeline vs. the scalar reference loop: every Table III
/// technique on a full 8-bank mixed run, min-of-k wall times.
///
/// The scalar arm is the engine exactly as it was before the batched
/// refactor — one `Box<dyn Mitigation>` vtable call per activation
/// ([`engine::run_scalar`]).  The batched arm is the current production
/// path: chunked trace delivery into an [`mem_trace::EventBatch`] and
/// one [`rh_baselines::AnyMitigation`] dispatch per interval segment
/// ([`engine::run_observed`]).  Both compute bit-identical metrics
/// (`tests/batch_pipeline.rs`), so the delta is pure dispatch and
/// delivery overhead.
///
/// Results go to `BENCH_batch.json`; `--quick` (or `--test`, or the
/// `RH_BENCH_QUICK` environment variable) shrinks the run for CI.
fn batched_vs_scalar(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("RH_BENCH_QUICK").is_some();
    let scale = ExperimentScale {
        windows: if quick { 1 } else { 2 },
        banks: 8,
        seeds: 1,
    };
    let reps = if quick { 2 } else { 5 };
    let config = RunConfig::paper(&scale).with_parallelism(Parallelism::sequential());

    let min_secs = |run: &mut dyn FnMut() -> u64| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut events = 0;
        for _ in 0..reps {
            let start = Instant::now();
            events = run();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, events)
    };

    let mut rows = Vec::new();
    let mut scalar_total = 0.0;
    let mut batched_total = 0.0;
    for technique in Technique::TABLE3 {
        let (scalar_s, events) = min_secs(&mut || {
            let trace = scenario::paper_mix(&config, 1);
            let mut mitigation = techniques::build(technique, &config, 1);
            black_box(engine::run_scalar(trace, mitigation.as_mut(), &config)).workload_activations
        });
        let (batched_s, _) = min_secs(&mut || {
            let trace = scenario::paper_mix(&config, 1);
            let mut mitigation = techniques::build_any(technique, &config, 1);
            black_box(engine::run_observed(
                trace,
                &mut mitigation,
                &config,
                &mut NullObserver,
            ))
            .workload_activations
        });
        let speedup = (scalar_s / batched_s - 1.0) * 100.0;
        println!(
            "batch_vs_scalar/{:<10} scalar {:>8.2} ms  batched {:>8.2} ms  {:+.1}%",
            technique.name(),
            scalar_s * 1e3,
            batched_s * 1e3,
            speedup
        );
        scalar_total += scalar_s;
        batched_total += batched_s;
        rows.push(format!(
            concat!(
                "    {{\"technique\": {:?}, \"events\": {}, \"scalar_s\": {:.6}, ",
                "\"batched_s\": {:.6}, \"speedup_percent\": {:.2}}}"
            ),
            technique.name(),
            events,
            scalar_s,
            batched_s,
            speedup
        ));
    }
    let overall = (scalar_total / batched_total - 1.0) * 100.0;
    println!(
        "batch_vs_scalar/all        scalar {:>8.2} ms  batched {:>8.2} ms  {:+.1}%",
        scalar_total * 1e3,
        batched_total * 1e3,
        overall
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"batched_vs_scalar\",\n  \"scale\": ",
            "{{\"windows\": {}, \"banks\": {}, \"reps\": {}}},\n",
            "  \"scalar_total_s\": {:.6},\n  \"batched_total_s\": {:.6},\n",
            "  \"speedup_percent\": {:.2},\n  \"techniques\": [\n{}\n  ]\n}}\n"
        ),
        scale.windows,
        scale.banks,
        reps,
        scalar_total,
        batched_total,
        overall,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(path, json).expect("write BENCH_batch.json");
    println!("batch_vs_scalar: wrote {path}");
}

/// Full-run scaling of the sharded engine on an 8-bank mixed trace.
///
/// Speedup over the `sequential` baseline tracks physical core count:
/// on a single-core host all variants are within noise of each other
/// (the dispatcher adds no measurable overhead), while with 4+ cores the
/// 4-worker variant approaches 4×.  Sharding is bit-identical at every
/// worker count (see `tests/determinism.rs`), so this is a pure
/// wall-clock knob.
fn sharded_run_scaling(c: &mut Criterion) {
    let scale = ExperimentScale {
        windows: 2,
        banks: 8,
        seeds: 1,
    };
    let technique = Technique::LoLiPromi;
    let mut group = c.benchmark_group("sharded_run_8_banks");
    group.sample_size(10);

    let variants: [(&str, Parallelism); 4] = [
        ("sequential", Parallelism::sequential()),
        ("workers/1", Parallelism::with_workers(1)),
        ("workers/2", Parallelism::with_workers(2)),
        ("workers/4", Parallelism::with_workers(4)),
    ];
    for (name, parallelism) in variants {
        let config = RunConfig::paper(&scale).with_parallelism(parallelism);
        group.bench_function(name, |b| {
            b.iter(|| {
                let trace = scenario::paper_mix(&config, 1);
                let metrics = if parallelism.shard_by_bank {
                    engine::run_sharded(
                        trace,
                        &|| techniques::build(technique, &config, 1),
                        &config,
                    )
                } else {
                    let mut mitigation = techniques::build(technique, &config, 1);
                    engine::run_observed(trace, mitigation.as_mut(), &config, &mut NullObserver)
                };
                black_box(metrics)
            })
        });
    }
    group.finish();
}

fn per_activation_cost(c: &mut Criterion) {
    let config = RunConfig::paper(&bench_scale());
    let mut group = c.benchmark_group("on_activate");
    group.throughput(Throughput::Elements(1));

    // A pre-generated mixed address pattern: a few hot rows + noise.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let rows: Vec<RowAddr> = (0..4096)
        .map(|i| {
            if i % 4 == 0 {
                RowAddr(30_000) // hammered row
            } else {
                RowAddr(rng.random_range(0..config.geometry.rows_per_bank()))
            }
        })
        .collect();

    for technique in Technique::TABLE3 {
        group.bench_function(technique.name(), |b| {
            let mut mitigation = techniques::build(technique, &config, 1);
            let mut actions = Vec::new();
            let mut cursor = 0usize;
            b.iter(|| {
                let row = rows[cursor & 4095];
                cursor = cursor.wrapping_add(1);
                mitigation.on_activate(BankId(0), black_box(row), &mut actions);
                actions.clear();
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("on_refresh_interval");
    for technique in [Technique::CaPromi, Technique::TwiCe, Technique::ProHit] {
        group.bench_function(technique.name(), |b| {
            let mut mitigation = techniques::build(technique, &config, 1);
            let mut actions = Vec::new();
            // Populate tables realistically.
            for i in 0..64u32 {
                mitigation.on_activate(BankId(0), RowAddr(1000 + i * 3), &mut actions);
            }
            actions.clear();
            b.iter(|| {
                mitigation.on_refresh_interval(&mut actions);
                actions.clear();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    per_activation_cost,
    sharded_run_scaling,
    batched_vs_scalar
);
criterion_main!(benches);
