//! Lane-kernel decision-layer throughput: the run-grouped `on_batch`
//! kernels vs. the default per-event fan-out, writing `BENCH_simd.json`
//! at the workspace root.
//!
//! The fan-out arm wraps a `Box<dyn Mitigation>` (`techniques::build`)
//! in [`FanOut`], which delegates everything *except* `on_batch` — so
//! the trait's default implementation runs: one `sink.record` plus one
//! *virtual* `on_activate` call per event, exactly the delivery the
//! batched engine used before the lane-kernel refactor.  The kernel arm
//! is the production [`rh_baselines::AnyMitigation`] path:
//! run-length-grouped per-bank column sweeps, block RNG draws, hoisted
//! integer gate thresholds, branchless counter updates.
//!
//! Both arms consume identical RNG streams and emit identical actions
//! (`tests/batch_pipeline.rs` pins bit-identity), so the delta is pure
//! decision-layer cost: per-event virtual dispatch, per-bank state
//! re-lookup, and word-at-a-time RNG refills, all hoisted or batched
//! away by the kernels.
//!
//! The driver measures `on_batch` + tag drain + `on_refresh_interval`
//! over a prebuilt multi-interval [`EventBatch`] — no trace generation
//! or disturbance backend in the loop, so the ratio is the decision
//! layer's own.  `--quick` (or `--test`, or `RH_BENCH_QUICK`) shrinks
//! the run for CI.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark measures wall time; its readings never reach simulation results"
)]

use dram_sim::{BankId, RowAddr};
use mem_trace::{EventBatch, TraceEvent};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use rh_harness::{techniques, ExperimentScale, RunConfig};
use rh_hwmodel::Technique;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Delegates every trait method except `on_batch`, so the default
/// per-event fan-out runs — each event paying a virtual `on_activate`
/// through the boxed technique: the pre-kernel batched delivery,
/// preserved as the benchmark baseline.
struct FanOut(Box<dyn Mitigation>);

impl Mitigation for FanOut {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        self.0.on_activate(bank, row, actions);
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        self.0.on_refresh_interval(actions);
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.0.storage_bits_per_bank()
    }
}

const BANKS: u32 = 8;

/// A paper-mix-shaped batch: per interval, bursts of bank-local traffic
/// (geometric-ish run lengths, so `bank_runs` sees realistic groups)
/// mixing hammered aggressors with a benign spread.
fn build_batch(intervals: usize, events_per_interval: usize, rows_per_bank: u32) -> EventBatch {
    let mut rng = StdRng::seed_from_u64(42);
    let mut batch = EventBatch::new();
    let mut events = Vec::with_capacity(events_per_interval);
    for _ in 0..intervals {
        events.clear();
        let mut bank = 0u32;
        while events.len() < events_per_interval {
            let run = 1 + rng.random_range(0..24u32) as usize;
            for _ in 0..run.min(events_per_interval - events.len()) {
                let row = if rng.random_range(0..4u32) == 0 {
                    RowAddr(30_000 + rng.random_range(0..3u32))
                } else {
                    RowAddr(rng.random_range(0..rows_per_bank))
                };
                events.push(TraceEvent::benign(BankId(bank), row));
            }
            bank = (bank + 1) % BANKS;
        }
        batch.push_interval(&events);
    }
    batch
}

/// One full pass over the batch: per interval, `on_batch`, a tag-order
/// drain (as the engine replays actions), then the interval turnover.
fn drive<M: Mitigation + ?Sized>(
    mitigation: &mut M,
    batch: &EventBatch,
    segments: &[Range<usize>],
    sink: &mut ActionSink,
    actions: &mut Vec<MitigationAction>,
) -> u64 {
    let mut triggers = 0u64;
    for segment in segments {
        sink.reset();
        mitigation.on_batch(batch, segment.clone(), sink);
        // Engine-style replay: jump from action point to action point
        // (`peek_tag`), never touching action-free events.
        while let Some(tag) = sink.peek_tag() {
            while let Some(action) = sink.next_for(tag) {
                black_box(action);
                triggers += 1;
            }
        }
        mitigation.on_refresh_interval(actions);
        triggers += u64::try_from(actions.len()).expect("action count fits u64");
        actions.clear();
    }
    triggers
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("RH_BENCH_QUICK").is_some();
    let intervals = if quick { 48 } else { 256 };
    let events_per_interval = 800;
    let reps = if quick { 3 } else { 7 };

    let scale = ExperimentScale {
        windows: 1,
        banks: BANKS,
        seeds: 1,
    };
    let config = RunConfig::paper(&scale);
    let batch = build_batch(intervals, events_per_interval, config.geometry.rows_per_bank());
    let segments: Vec<Range<usize>> = (0..intervals).map(|k| batch.segment(k)).collect();
    let total_events = u64::try_from(intervals * events_per_interval).expect("event count fits");

    let min_secs = |run: &mut dyn FnMut() -> u64| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut triggers = 0;
        for _ in 0..reps {
            let start = Instant::now();
            triggers = run();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, triggers)
    };

    let mut rows = Vec::new();
    let mut fanout_total = 0.0;
    let mut kernel_total = 0.0;
    let mut slower: Vec<&str> = Vec::new();
    for technique in Technique::TABLE3 {
        let mut sink = ActionSink::with_capacity(4096);
        let mut actions = Vec::with_capacity(4096);
        let (fanout_s, fanout_triggers) = min_secs(&mut || {
            let mut mitigation = FanOut(techniques::build(technique, &config, 1));
            drive(&mut mitigation, &batch, &segments, &mut sink, &mut actions)
        });
        let (kernel_s, kernel_triggers) = min_secs(&mut || {
            let mut mitigation = techniques::build_any(technique, &config, 1);
            drive(&mut mitigation, &batch, &segments, &mut sink, &mut actions)
        });
        assert_eq!(
            fanout_triggers, kernel_triggers,
            "{technique:?}: arms must emit identical actions"
        );
        let speedup = fanout_s / kernel_s;
        if speedup < 1.0 {
            slower.push(technique.name());
        }
        println!(
            "simd/{:<10} fan-out {:>8.2} ms  kernel {:>8.2} ms  {:>5.2}x  ({} triggers)",
            technique.name(),
            fanout_s * 1e3,
            kernel_s * 1e3,
            speedup,
            kernel_triggers
        );
        fanout_total += fanout_s;
        kernel_total += kernel_s;
        rows.push(format!(
            concat!(
                "    {{\"technique\": {:?}, \"fanout_s\": {:.6}, ",
                "\"kernel_s\": {:.6}, \"speedup\": {:.3}}}"
            ),
            technique.name(),
            fanout_s,
            kernel_s,
            speedup
        ));
    }
    let aggregate = fanout_total / kernel_total;
    println!(
        "simd/all        fan-out {:>8.2} ms  kernel {:>8.2} ms  {:>5.2}x aggregate",
        fanout_total * 1e3,
        kernel_total * 1e3,
        aggregate
    );
    if !slower.is_empty() {
        println!("simd: slower-than-fan-out techniques: {slower:?}");
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"lane_kernels_vs_fanout\",\n  \"scale\": ",
            "{{\"intervals\": {}, \"events_per_interval\": {}, \"banks\": {}, \"reps\": {}}},\n",
            "  \"events\": {},\n  \"fanout_total_s\": {:.6},\n  \"kernel_total_s\": {:.6},\n",
            "  \"aggregate_speedup\": {:.3},\n  \"techniques\": [\n{}\n  ]\n}}\n"
        ),
        intervals,
        events_per_interval,
        BANKS,
        reps,
        total_events,
        fanout_total,
        kernel_total,
        aggregate,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd.json");
    std::fs::write(path, json).expect("write BENCH_simd.json");
    println!("simd: wrote {path}");
}
