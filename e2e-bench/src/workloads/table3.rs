//! `table3-paper`: the paper's headline experiment.
//!
//! The nine Table III techniques × seeds {s, s+1} on the paper's mixed
//! trace at paper-shape geometry (4 banks of 65 536 rows, exact tier),
//! fanned out over two workers exactly as `fig4::run` fans them out, then
//! assembled and rendered as `table3::render` renders Table III.  Long
//! steady-state runs put the time in trace synthesis, the decision
//! kernels and the per-event replay.

use crate::clock::{elapsed_ns, Layer, LayerClock};
use crate::measure::{fnv1a, metrics_digest, Sim, Unit, Workload, WORKERS};
use crate::timed;
use crate::workloads::construct_shard;
use dram_sim::DramGeneration;
use mem_trace::MixedTrace;
use rh_harness::experiments::fig4;
use rh_harness::experiments::table3::{self, Table3Result};
use rh_harness::{parallel, scenario};
use rh_harness::{ExperimentScale, MeanStd, Parallelism, RunConfig, RunMetrics, Runner};
use rh_hwmodel::{area, reference, Technique};
use std::time::Instant;

/// The workload at a given seed and scale.
#[derive(Debug, Clone)]
pub struct Table3Paper {
    seed: u64,
    scale: ExperimentScale,
}

/// One unit's inputs: the run configuration and the 18 traces.
pub struct Inputs {
    config: RunConfig,
    jobs: Vec<(Technique, u64, MixedTrace)>,
}

impl Table3Paper {
    /// Paper-shape geometry over `windows` refresh windows.
    pub fn new(seed: u64, windows: u64, banks: u32) -> Self {
        Table3Paper {
            seed,
            scale: ExperimentScale {
                windows,
                banks,
                seeds: 2,
            },
        }
    }

    /// Seeds {s, s+1}, technique-major, as `fig4::run` orders its jobs.
    fn jobs(&self) -> impl Iterator<Item = (Technique, u64)> + '_ {
        Technique::TABLE3
            .iter()
            .flat_map(move |&t| (0..2).map(move |k| (t, self.seed + k)))
    }
}

/// Table III from the runs, exactly as `fig4::run` aggregates and
/// `table3::run` maps its points.
fn render(scale: &ExperimentScale, runs: &[(Technique, RunMetrics)]) -> String {
    let params = table3::hw_params(&RunConfig::paper(scale));
    let results: Vec<Table3Result> = Technique::TABLE3
        .iter()
        .map(|&t| {
            let of_t = || runs.iter().filter(move |(rt, _)| *rt == t).map(|(_, m)| m);
            let overheads: Vec<f64> = of_t().map(RunMetrics::overhead_percent).collect();
            let fprs: Vec<f64> = of_t().map(RunMetrics::fpr_percent).collect();
            let paper = *reference::table3_row(t).expect("table3 technique");
            Table3Result {
                technique: t,
                luts_ddr4: area::area(t, &params, DramGeneration::Ddr4).total(),
                luts_ddr3: area::area(t, &params, DramGeneration::Ddr3).total(),
                vulnerable: paper.vulnerable,
                overhead: MeanStd::of(&overheads),
                fpr: MeanStd::of(&fprs),
                paper,
            }
        })
        .collect();
    table3::render(&results)
}

impl Workload for Table3Paper {
    type Inputs = Inputs;
    const OP: &'static str = "run";

    fn setup(&self) -> Inputs {
        // Two outer workers over the jobs; each run shards by bank
        // inline, so the process keeps to two busy threads.
        let config = RunConfig::paper(&self.scale).with_parallelism(Parallelism::with_workers(1));
        let jobs = self
            .jobs()
            .map(|(t, seed)| {
                for _ in 0..self.scale.banks {
                    construct_shard(t.into(), seed, &config);
                }
                (t, seed, scenario::paper_mix(&config, seed))
            })
            .collect();
        Inputs { config, jobs }
    }

    fn run(&self, inputs: Inputs, clock: Option<&LayerClock>) -> Unit {
        let Inputs { config, jobs } = inputs;
        let runs = parallel::map_workers(jobs, WORKERS, |(t, seed, trace)| {
            let start = Instant::now();
            let metrics = match clock {
                None => Runner::new(config.clone())
                    .technique(t)
                    .seed(seed)
                    .run(trace),
                Some(clock) => {
                    let metrics = timed::run_sharded(clock, trace, t.into(), seed, &config);
                    clock.record_op(elapsed_ns(start));
                    metrics
                }
            };
            (t, metrics)
        });
        let rendered = match clock {
            None => render(&self.scale, &runs),
            Some(clock) => {
                let rendered = clock.time(Layer::Report, || render(&self.scale, &runs));
                clock.count_report_bytes(rendered.len());
                rendered
            }
        };
        Unit {
            op_digests: runs.iter().map(|(_, m)| metrics_digest(m)).collect(),
            digest: fnv1a(rendered.as_bytes()),
            problems: Vec::new(),
            sim: Sim::of(runs.iter().map(|(_, m)| m)),
            counts: Vec::new(),
        }
    }

    fn verify(&self, reference: &Unit) -> Vec<String> {
        let mut problems = Vec::new();
        // The first job through the library's own entrypoint, at the
        // default (automatic) parallelism.
        let (t, seed) = self.jobs().next().expect("nine techniques");
        let live = fig4::run_one(t, &RunConfig::paper(&self.scale), seed);
        if Some(&metrics_digest(&live)) != reference.op_digests.first() {
            problems.push(format!("{t} seed {seed} differs from fig4::run_one"));
        }
        // Seeds {1, 2} are exactly what `table3::run` computes.
        if self.seed == 1 {
            let table = table3::render(&table3::run(&self.scale));
            if fnv1a(table.as_bytes()) != reference.digest {
                problems.push("table differs from table3::render(&table3::run(..))".into());
            }
        }
        problems
    }
}
