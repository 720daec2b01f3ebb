//! `trace-replay`: a recorded paper mix replayed on the cycle tier.
//!
//! Set-up records a one-window paper mix into a `ReplayTrace`; each unit
//! replays it through `Runner::run` for the nine Table III techniques.
//! No synthesis: the trace layer's cost is the clone plus the
//! O(banks × events) `bank_shard` copy on the coordinating thread, and
//! kernels and cycle-tier replay dominate.  The only cycle-tier workload.

use crate::clock::{elapsed_ns, Layer, LayerClock};
use crate::measure::{fnv1a, metrics_digest, Sim, Unit, Workload, WORKERS};
use crate::timed;
use crate::workloads::construct_shard;
use dram_sim::BackendSpec;
use mem_trace::{ReplayTrace, TraceSource};
use rh_harness::{scenario, ExperimentScale, Parallelism, RunConfig, RunMetrics, Runner};
use rh_hwmodel::Technique;
use std::time::Instant;

/// The workload at a given seed and trace size.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    seed: u64,
    config: RunConfig,
}

/// One unit's inputs: the recorded trace.
pub struct Inputs {
    trace: ReplayTrace,
}

impl TraceReplay {
    /// A `banks`-bank, `windows`-window recording.
    pub fn new(seed: u64, windows: u64, banks: u32) -> Self {
        let scale = ExperimentScale {
            windows,
            banks,
            seeds: 1,
        };
        let config = RunConfig::paper(&scale)
            .with_backend(BackendSpec::Cycle)
            .with_parallelism(Parallelism::with_workers(WORKERS));
        TraceReplay { seed, config }
    }

    /// Mitigation seed of the replays (the trace seed plus one).
    fn mitigation_seed(&self) -> u64 {
        self.seed + 1
    }
}

impl Workload for TraceReplay {
    type Inputs = Inputs;
    const OP: &'static str = "run";

    fn setup_reps(&self) -> usize {
        3
    }

    fn setup(&self) -> Inputs {
        let mut source = scenario::paper_mix(&self.config, self.seed);
        let intervals =
            usize::try_from(self.config.intervals()).expect("interval count fits usize");
        let mut recorded = Vec::with_capacity(intervals);
        for _ in 0..intervals {
            let mut events = Vec::new();
            if !source.next_interval(&mut events) {
                break;
            }
            recorded.push(events);
        }
        for &t in &Technique::TABLE3 {
            for _ in 0..self.config.geometry.banks() {
                construct_shard(t.into(), self.mitigation_seed(), &self.config);
            }
        }
        Inputs {
            trace: ReplayTrace::new(recorded),
        }
    }

    fn run(&self, inputs: Inputs, clock: Option<&LayerClock>) -> Unit {
        let seed = self.mitigation_seed();
        let runs: Vec<RunMetrics> = Technique::TABLE3
            .iter()
            .map(|&t| {
                let start = Instant::now();
                match clock {
                    None => Runner::new(self.config.clone())
                        .technique(t)
                        .seed(seed)
                        .run(inputs.trace.clone()),
                    Some(clock) => {
                        let trace = clock.time(Layer::TracePrep, || inputs.trace.clone());
                        let metrics =
                            timed::run_sharded(clock, trace, t.into(), seed, &self.config);
                        clock.record_op(elapsed_ns(start));
                        metrics
                    }
                }
            })
            .collect();
        let serialize = || serde_json::to_string(&runs).expect("metrics serialize");
        let json = match clock {
            None => serialize(),
            Some(clock) => {
                let json = clock.time(Layer::Report, serialize);
                clock.count_report_bytes(json.len());
                json
            }
        };
        Unit {
            op_digests: runs.iter().map(metrics_digest).collect(),
            digest: fnv1a(json.as_bytes()),
            problems: Vec::new(),
            sim: Sim::of(&runs),
            counts: vec![(
                "replay.mitigation_cycles",
                runs.iter().map(RunMetrics::mitigation_cycles).sum(),
            )],
        }
    }

    fn verify(&self, reference: &Unit) -> Vec<String> {
        // The recording is faithful: replaying it equals running the
        // live generator.
        let t = Technique::TABLE3[0];
        let live = Runner::new(self.config.clone())
            .technique(t)
            .seed(self.mitigation_seed())
            .run(scenario::paper_mix(&self.config, self.seed));
        if Some(&metrics_digest(&live)) == reference.op_digests.first() {
            Vec::new()
        } else {
            vec![format!("replayed {t} differs from the live paper mix")]
        }
    }
}
