//! `redteam-frontier`: security-frontier searches with the `redteam`
//! CLI's `--thorough` configuration.
//!
//! Many 1–4-window runs on the 1/64 geometry, through the observed
//! engine path (`FeedbackProbe`) with one-interval batches and the
//! content-addressed cache: per-run and per-batch overheads show here
//! rather than per-event cost.  The search is a closed box from outside
//! (its evaluations run inside `run_search`), so the traced unit charges
//! it whole to one opaque span; every frontier it reports is then
//! re-run and must reproduce exactly, which the traced unit does through
//! the timed wrappers.

use crate::clock::{elapsed_ns, Layer, LayerClock};
use crate::measure::{fnv1a, Unit, Workload, WORKERS};
use crate::timed;
use crate::workloads::construct_shard;
use rh_harness::{parallel, NullObserver, Observe, Parallelism, ShardInfo, TechniqueSpec};
use rh_hwmodel::Technique;
use rh_redteam::{
    build_attack, evaluate, run_search, Candidate, Evaluation, FrontierReport, SearchConfig,
};
use std::time::Instant;

/// The workload at a given seed and search count.
#[derive(Debug, Clone)]
pub struct RedteamFrontier {
    seed: u64,
    searches: u64,
    thorough: bool,
}

impl RedteamFrontier {
    /// `searches` searches over seeds `seed..seed + searches`, with the
    /// `--thorough` configuration or the quick one.
    pub fn new(seed: u64, searches: u64, thorough: bool) -> Self {
        RedteamFrontier {
            seed,
            searches,
            thorough,
        }
    }
}

/// The CLI's search configuration for `seed`, on two workers.
fn search_config(seed: u64, thorough: bool) -> SearchConfig {
    let mut search = SearchConfig::quick(seed).with_workers(WORKERS);
    if thorough {
        search.rounds = 5;
        search.population = 24;
        search.survivors = 5;
        search.max_windows = 4;
    }
    search
}

/// `evaluate` (blind objective) rebuilt from public parts, traced.
fn evaluate_traced(
    clock: &LayerClock,
    spec: TechniqueSpec,
    candidate: &Candidate,
    search: &SearchConfig,
) -> Evaluation {
    let (config, built) = clock.time(Layer::TracePrep, || {
        let mut config = search.base.clone();
        config.windows = candidate.windows;
        config.parallelism = Parallelism::sequential();
        let built = build_attack(candidate, &config);
        (config, built)
    });
    let metrics = match built.probe {
        Some(probe) => {
            let mut observer = probe.observer(&ShardInfo::whole_run());
            timed::run_shard(
                clock,
                built.trace,
                spec,
                search.seed,
                &config,
                observer.as_mut(),
            )
        }
        None => timed::run_shard(
            clock,
            built.trace,
            spec,
            search.seed,
            &config,
            &mut NullObserver,
        ),
    };
    Evaluation {
        candidate: *candidate,
        budget: metrics.aggressor_activations,
        flips: metrics.flips,
        achieved: metrics.flips >= search.flip_target,
        time_to_first_flip: metrics.time_to_first_flip,
        triggers: metrics.trigger_events,
        evasion_percent: metrics.evasion_percent(),
        flips_per_mega_act: metrics.flips_per_mega_act(),
        attack_margin: metrics.attack_margin(),
    }
}

/// Every distinct frontier evaluation of a report, with its technique.
fn frontiers(report: &FrontierReport) -> Vec<(TechniqueSpec, Evaluation)> {
    let mut out: Vec<(TechniqueSpec, Evaluation)> = Vec::new();
    for (&technique, result) in Technique::TABLE3.iter().zip(&report.results) {
        let spec = TechniqueSpec::Paper(technique);
        for e in [
            &result.frontier,
            &result.frontier_static,
            &result.frontier_adaptive,
        ]
        .into_iter()
        .flatten()
        {
            if !out
                .iter()
                .any(|(s, seen)| *s == spec && seen.candidate == e.candidate)
            {
                out.push((spec, e.clone()));
            }
        }
    }
    out
}

impl Workload for RedteamFrontier {
    type Inputs = Vec<SearchConfig>;
    const OP: &'static str = "search";

    fn setup(&self) -> Vec<SearchConfig> {
        let searches: Vec<SearchConfig> = (self.seed..self.seed + self.searches)
            .map(|seed| search_config(seed, self.thorough))
            .collect();
        for search in &searches {
            for &t in &Technique::TABLE3 {
                construct_shard(t.into(), search.seed, &search.base);
            }
        }
        searches
    }

    fn run(&self, searches: Vec<SearchConfig>, clock: Option<&LayerClock>) -> Unit {
        let mut unit = Unit::default();
        let mut jsons = String::new();
        let mut best: Vec<Option<u64>> = vec![None; Technique::TABLE3.len()];
        let (mut evaluations, mut cache_hits, mut checked) = (0u64, 0u64, 0u64);
        for search in &searches {
            let start = Instant::now();
            let report = match clock {
                None => run_search(search),
                Some(clock) => {
                    let report = clock.time(Layer::Opaque, || run_search(search));
                    clock.record_op(elapsed_ns(start));
                    report
                }
            };
            let serialize = || {
                let json = report.to_json();
                let back = FrontierReport::from_json(&json);
                (json, back)
            };
            let (json, back) = match clock {
                None => serialize(),
                Some(clock) => {
                    let out = clock.time(Layer::Report, serialize);
                    clock.count_report_bytes(out.0.len());
                    out
                }
            };
            if back.as_ref().ok() != Some(&report) {
                unit.problems.push(format!(
                    "seed {}: report does not survive a JSON round trip",
                    search.seed
                ));
            }
            // Re-run every reported frontier; each must reproduce exactly.
            let checks = frontiers(&report);
            checked += checks.len() as u64;
            let reproduced = parallel::map_workers(checks, WORKERS, |(spec, expected)| {
                let again = match clock {
                    None => evaluate(spec, &expected.candidate, search),
                    Some(clock) => evaluate_traced(clock, spec, &expected.candidate, search),
                };
                (again == expected, expected)
            });
            for (same, e) in &reproduced {
                if !same {
                    unit.problems.push(format!(
                        "seed {}: frontier {} does not reproduce",
                        search.seed,
                        e.candidate.label()
                    ));
                }
                unit.sim.triggers += e.triggers;
                unit.sim.flips += e.flips as u64;
            }
            // Fold into the unit's cheapest breach per technique.
            let mut fold = || {
                for (slot, result) in best.iter_mut().zip(&report.results) {
                    if let Some(e) = &result.frontier {
                        *slot = Some(slot.map_or(e.budget, |b| b.min(e.budget)));
                    }
                }
            };
            match clock {
                None => fold(),
                Some(clock) => {
                    clock.count_merges(1);
                    clock.time(Layer::Merge, fold);
                }
            }
            evaluations += report.results.iter().map(|r| r.evaluations).sum::<u64>();
            cache_hits += report.results.iter().map(|r| r.cache_hits).sum::<u64>();
            unit.op_digests.push(fnv1a(json.as_bytes()));
            jsons.push_str(&json);
        }
        unit.digest = fnv1a(jsons.as_bytes());
        unit.counts = vec![
            ("redteam.evaluations", evaluations),
            ("redteam.cache_hits", cache_hits),
            ("redteam.frontiers_rerun", checked),
            (
                "redteam.techniques_breached",
                best.iter().flatten().count() as u64,
            ),
            (
                "redteam.cheapest_breach_budget",
                best.iter().flatten().copied().min().unwrap_or(0),
            ),
        ];
        unit
    }

    fn verify(&self, reference: &Unit) -> Vec<String> {
        // The search is worker-invariant: one worker gives the same bytes.
        let search = search_config(self.seed, self.thorough).with_workers(1);
        let json = run_search(&search).to_json();
        if Some(&fnv1a(json.as_bytes())) == reference.op_digests.first() {
            Vec::new()
        } else {
            vec![format!("seed {}: search differs at one worker", self.seed)]
        }
    }
}
