//! The four workloads, by name.

pub mod fleet;
pub mod redteam;
pub mod replay;
pub mod table3;

use crate::measure::{measure, Outcome};
use dram_sim::{BackendSpec, CycleBackend};
use rh_harness::{techniques, RunConfig, TechniqueSpec};
use std::hint::black_box;

/// Every workload, in the order the default run goes through them.
pub const NAMES: [&str; 4] = [
    "table3-paper",
    "fleet-campaign",
    "trace-replay",
    "redteam-frontier",
];

/// Measures workload `name` for `seconds` (traced when `trace`), at the
/// benchmark's size or, with `tiny`, a size for tests.  `None` for an
/// unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Option<Outcome> {
    let outcome = match name {
        "table3-paper" => {
            let (windows, banks) = if tiny { (1, 2) } else { (2, 4) };
            let w = table3::Table3Paper::new(seed, windows, banks);
            measure(&w, name, seed, seconds, trace)
        }
        "fleet-campaign" => {
            let w = fleet::FleetCampaign::new(seed, if tiny { 64 } else { 1024 });
            measure(&w, name, seed, seconds, trace)
        }
        "trace-replay" => {
            let (windows, banks) = if tiny { (1, 2) } else { (1, 4) };
            let w = replay::TraceReplay::new(seed, windows, banks);
            measure(&w, name, seed, seconds, trace)
        }
        "redteam-frontier" => {
            let w = redteam::RedteamFrontier::new(seed, if tiny { 1 } else { 2 }, !tiny);
            measure(&w, name, seed, seconds, trace)
        }
        _ => return None,
    };
    Some(outcome)
}

/// Builds, and drops, the mitigation and the backend one engine shard
/// runs on, as the engine builds them: the construction cost a unit pays
/// per shard, measured again in set-up so that work moved into
/// constructors shows in `setup_s`.
pub fn construct_shard(spec: TechniqueSpec, seed: u64, config: &RunConfig) {
    black_box(techniques::build_any(spec, config, seed));
    match config.backend {
        BackendSpec::Exact => drop(black_box(config.build_device())),
        BackendSpec::Fast => drop(black_box(config.build_fast_backend())),
        BackendSpec::Cycle => drop(black_box(CycleBackend::new(config.build_device()))),
    }
}
