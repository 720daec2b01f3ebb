//! Fidelity-tier benchmark: the three disturbance backends on a
//! fleet-scale weak-cell screening campaign, plus the cycle tier's
//! bandwidth-overhead regeneration.  Writes `BENCH_backend.json` at the
//! workspace root.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark measures wall time; its readings never reach simulation results"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use dram_sim::{BackendSpec, BankId, RowAddr};
use mem_trace::{EventBatch, TraceEvent, TraceSource};
use rh_fleet::{CampaignSpec, CohortSpec, Fleet};
use rh_harness::{engine, scenario, techniques, ExperimentScale, NullObserver, RunConfig, Runner};
use rh_hwmodel::Technique;
use std::hint::black_box;
use std::time::Instant;

/// One device's recorded trace, as per-interval SoA columns.
type Cols = (Vec<BankId>, Vec<RowAddr>, Vec<bool>);

/// Replays recorded columns straight into the batch buffer — a memcpy
/// per interval, so the timed arms below contain no trace synthesis.
struct ColumnReplay<'a> {
    intervals: &'a [Cols],
    pos: usize,
}

impl TraceSource for ColumnReplay<'_> {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        match self.intervals.get(self.pos) {
            Some((banks, rows, aggrs)) => {
                for ((&bank, &row), &aggressor) in banks.iter().zip(rows).zip(aggrs) {
                    out.push(TraceEvent {
                        bank,
                        row,
                        aggressor,
                    });
                }
                self.pos += 1;
                true
            }
            None => false,
        }
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.intervals.len() as u64)
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        batch.clear();
        let cap = max_intervals.min(batch.target_events() as u64);
        let mut delivered = 0u64;
        while delivered < cap && !batch.is_full() {
            let Some((banks, rows, aggrs)) = self.intervals.get(self.pos) else {
                break;
            };
            batch.push_interval_columns(banks, rows, aggrs);
            self.pos += 1;
            delivered += 1;
        }
        delivered > 0
    }
}

/// The benchmark campaign: a 1024-device weak-cell screening sweep —
/// the fast tier's intended fleet workload.  Every cohort hammers the
/// weak-threshold band with the flooding attack; the cohorts differ in
/// which probabilistic defense screens the population.
fn screening_campaign(devices: u64) -> CampaignSpec {
    let quarter = devices / 4;
    CampaignSpec::new(7)
        .cohort(
            CohortSpec::new("screen-cra", devices - 2 * quarter)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding")
                .techniques(vec![Technique::Cra]),
        )
        .cohort(
            CohortSpec::new("screen-para", quarter)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding")
                .techniques(vec![Technique::Para]),
        )
        .cohort(
            CohortSpec::new("screen-lipromi", quarter)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding")
                .techniques(vec![Technique::LiPromi]),
        )
}

/// Three-tier comparison on the screening campaign.
///
/// Per device, the trace is generated **once** and each tier replays
/// the identical recorded columns, so the timed arms measure exactly
/// what a tier owns: engine delivery plus disturbance accounting.
/// (Trace synthesis is tier-invariant by construction — the end-to-end
/// `Fleet::run` wall times, which include it, are reported alongside.)
/// Results go to `BENCH_backend.json`; `--quick` (or `--test`, or the
/// `RH_BENCH_QUICK` environment variable) shrinks the rep count for CI.
fn backend_tiers(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("RH_BENCH_QUICK").is_some();
    let devices = 1024u64;
    let reps = if quick { 2 } else { 4 };
    let spec = screening_campaign(devices);

    let min_secs = |run: &mut dyn FnMut() -> u64| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            black_box(run());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    // Simulation-only arms: record each device's trace once, then time
    // every tier on the identical columns.
    let mut sim = [0.0f64; 3];
    let mut events = 0u64;
    for index in 0..devices {
        let device = spec.device(index).expect("device index in range");
        let config = device.run_config();
        let mut intervals: Vec<Cols> = Vec::new();
        let mut source = device.spec_trace(&config);
        let mut out = Vec::new();
        while source.next_interval(&mut out) {
            events += out.len() as u64;
            let mut cols: Cols = Cols::default();
            for e in &out {
                cols.0.push(e.bank);
                cols.1.push(e.row);
                cols.2.push(e.aggressor);
            }
            intervals.push(cols);
            out.clear();
        }
        for (slot, tier) in BackendSpec::ALL.into_iter().enumerate() {
            let mut config = config.clone();
            config.backend = tier;
            sim[slot] += min_secs(&mut || {
                let mut mitigation = techniques::build(device.technique, &config, device.seed);
                engine::run_observed(
                    ColumnReplay {
                        intervals: &intervals,
                        pos: 0,
                    },
                    mitigation.as_mut(),
                    &config,
                    &mut NullObserver,
                )
                .workload_activations
            });
        }
    }
    let fast_speedup = sim[0] / sim[1];
    println!(
        "backend_tiers/sim        {devices} devices, {events} events: \
         exact {:.0} ms  fast {:.0} ms  cycle {:.0} ms  (fast speedup {fast_speedup:.2}x)",
        sim[0] * 1e3,
        sim[1] * 1e3,
        sim[2] * 1e3,
    );

    // End-to-end arms: the fleet scheduler including trace synthesis.
    let mut end_to_end = [0.0f64; 2];
    for (slot, tier) in [BackendSpec::Exact, BackendSpec::Fast]
        .into_iter()
        .enumerate()
    {
        let mut spec = spec.clone();
        for cohort in &mut spec.cohorts {
            cohort.backend = tier;
        }
        end_to_end[slot] = min_secs(&mut || {
            Fleet::new(spec.clone())
                .workers(2)
                .run()
                .expect("screening campaign is valid")
                .devices
        });
    }
    let end_to_end_speedup = end_to_end[0] / end_to_end[1];
    println!(
        "backend_tiers/end_to_end exact {:.0} ms  fast {:.0} ms  ({end_to_end_speedup:.2}x \
         including tier-invariant trace synthesis)",
        end_to_end[0] * 1e3,
        end_to_end[1] * 1e3,
    );

    // Cycle-tier headline: mitigation bandwidth overhead at quick scale
    // (TWiCe's trigger threshold is unreachable on the 1/64 fleet
    // geometry, so this section runs the full quick-scale paper mix).
    let mut cycled = RunConfig::paper(&ExperimentScale::quick());
    cycled.backend = BackendSpec::Cycle;
    let mut overhead_rows = Vec::new();
    for technique in [Technique::Para, Technique::TwiCe] {
        let metrics = Runner::new(cycled.clone())
            .technique(technique)
            .seed(2)
            .run(scenario::paper_mix(&cycled, 2));
        println!(
            "backend_tiers/cycle      {:<6} {:.4}% bandwidth overhead, {} mitigation cycles, \
             row-buffer hit rate {:.1}%",
            technique.name(),
            metrics.bandwidth_overhead_percent(),
            metrics.mitigation_cycles(),
            100.0 * metrics.row_buffer_hit_rate(),
        );
        overhead_rows.push(format!(
            concat!(
                "    {{\"technique\": {:?}, \"bandwidth_overhead_percent\": {:.6}, ",
                "\"mitigation_cycles\": {}, \"row_buffer_hit_rate\": {:.6}}}"
            ),
            technique.name(),
            metrics.bandwidth_overhead_percent(),
            metrics.mitigation_cycles(),
            metrics.row_buffer_hit_rate(),
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"backend_tiers\",\n",
            "  \"campaign\": {{\"devices\": {}, \"cohorts\": ",
            "[\"screen-cra\", \"screen-para\", \"screen-lipromi\"], \"reps\": {}}},\n",
            "  \"events\": {},\n",
            "  \"sim\": {{\"exact_s\": {:.6}, \"fast_s\": {:.6}, \"cycle_s\": {:.6}}},\n",
            "  \"fast_speedup\": {:.3},\n",
            "  \"end_to_end\": {{\"exact_s\": {:.6}, \"fast_s\": {:.6}, \"speedup\": {:.3}}},\n",
            "  \"cycle_overhead\": [\n{}\n  ]\n}}\n"
        ),
        devices,
        reps,
        events,
        sim[0],
        sim[1],
        sim[2],
        fast_speedup,
        end_to_end[0],
        end_to_end[1],
        end_to_end_speedup,
        overhead_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backend.json");
    std::fs::write(path, json).expect("write BENCH_backend.json");
    println!("backend_tiers: wrote {path}");
}

criterion_group!(benches, backend_tiers);
criterion_main!(benches);
