//! Demand-latency impact study: mitigation traffic through the
//! cycle-level memory controller, plus per-shard engine throughput
//! ([`PerfCounters`]) for the same scale.
//!
//! Usage: `latency [quick|paper|full]` (default: paper).

use rh_harness::experiments::latency;
use rh_harness::{ExperimentScale, PerfCounters, RunConfig, Runner};
use rh_hwmodel::Technique;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    println!("Demand latency — mixed trace through the cycle-level controller");
    println!("(background priority unless marked @urgent)");
    println!();
    print!("{}", latency::render(&latency::run(&scale)));

    // Engine-side throughput: the same mixed workload through the run
    // engine with per-shard perf counters attached.
    let config = RunConfig::paper(&scale);
    let perf = PerfCounters::default();
    let trace = rh_harness::scenario::paper_mix(&config, 1);
    Runner::new(config)
        .technique(Technique::LoLiPromi)
        .seed(1)
        .observer(perf.clone())
        .run(trace);
    println!();
    println!("Engine shard throughput (LoLiPRoMi, mixed trace)");
    print!("{}", perf.render());
}
