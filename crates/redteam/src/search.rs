//! The security-frontier search driver.
//!
//! For each mitigation technique the driver synthesizes attack
//! candidates and looks for the *security frontier*: the minimum
//! attacker budget (activations actually spent) that reaches the flip
//! target, and the attack shape that achieves it.  The search is a
//! budgeted two-stage scheduler:
//!
//! 1. **Exploration** — a deterministic seed grid over every shape
//!    family, topped up each round with seeded-random candidates drawn
//!    on the coordinator thread only;
//! 2. **Refinement** (successive halving) — the best achievers shrink
//!    their budget knobs (halve activations, duration, duty cycle),
//!    the best non-achievers grow theirs, and the survivors re-enter
//!    the pool.
//!
//! Candidate evaluations fan out across a worker pool through the
//! order-preserving [`rh_harness::parallel::map_workers`]; each
//! evaluation itself runs the engine sequentially.  Results are
//! content-addressed in an in-memory cache keyed on
//! `(technique, attack-config hash, seed)`, so survivors re-entering
//! the pool — and any shape the random sampler re-draws — cost
//! nothing.  All randomness is drawn on the coordinator, every ranking
//! uses a total order, and the cache is consulted before dispatch:
//! the whole search, including its cache-hit counters, is a pure
//! function of the search seed, independent of the worker count.

use crate::candidate::{build_attack, build_attack_on, AttackShape, Candidate};
use crate::report::{Evaluation, FrontierReport, TechniqueFrontier};
use dram_sim::RowAddr;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_harness::{parallel, Parallelism, RunConfig, Runner, TechniqueSpec};
use rh_hwmodel::Technique;
use std::collections::{BTreeMap, BTreeSet};

/// Flip threshold used by the quick red-team configuration: the
/// weakest-cell scenario (the paper's 139 K threshold scaled to the
/// 1/64 search geometry's refresh window, further weakened to the
/// tail of the cell distribution) at which the search can resolve the
/// frontier in seconds.
pub const QUICK_FLIP_THRESHOLD: u32 = 2048;

/// Everything that parameterizes one frontier search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Base run configuration: geometry, timing, flip threshold.  The
    /// per-candidate window count overrides `base.windows`, and every
    /// evaluation forces sequential engine parallelism (the search
    /// parallelizes across candidates instead).
    pub base: RunConfig,
    /// Bit flips a candidate must cause to count as an achiever.
    pub flip_target: usize,
    /// Seed for candidate sampling and for every evaluation run.
    pub seed: u64,
    /// Search rounds (exploration + refinement each round).
    pub rounds: usize,
    /// Random candidates added per round.
    pub population: usize,
    /// Achievers and non-achievers kept per round for refinement.
    pub survivors: usize,
    /// Worker threads for candidate fan-out (`0` = auto).
    pub workers: usize,
    /// Ceiling for sampled activations per interval.
    pub max_acts: u32,
    /// Ceiling for sampled attack duration in windows.
    pub max_windows: u64,
    /// When set, the objective is *targeted*: every shape is recentered
    /// on this row (see [`build_attack_on`]) and a candidate achieves
    /// only when the run's flip log shows **this row** flipping —
    /// collateral flips of other rows do not count.  `None` keeps the
    /// blind frontier objective (any `flip_target` flips anywhere).
    pub target_row: Option<RowAddr>,
}

impl SearchConfig {
    /// The quick-scale search: 1/64 geometry (1024 rows, 128 intervals
    /// per window), weakened flip threshold, a small budgeted search
    /// that resolves all nine techniques in seconds.
    pub fn quick(seed: u64) -> Self {
        let mut base = RunConfig::paper(&rh_harness::ExperimentScale::quick());
        base.geometry = dram_sim::Geometry::scaled_down(64);
        base.flip_threshold = QUICK_FLIP_THRESHOLD;
        SearchConfig {
            base,
            flip_target: 1,
            seed,
            rounds: 3,
            population: 10,
            survivors: 3,
            workers: 0,
            max_acts: 64,
            max_windows: 2,
            target_row: None,
        }
    }

    /// Returns a copy with a different candidate-fan-out worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns a copy searching at a different flip threshold — the
    /// fleet layer probes each cohort's weak-cell tail this way.
    pub fn with_flip_threshold(mut self, flip_threshold: u32) -> Self {
        self.base.flip_threshold = flip_threshold;
        self
    }

    /// Returns a copy with the targeted objective aimed at `row` (the
    /// exploit subsystem's phase-3 campaigns).
    pub fn with_target_row(mut self, row: RowAddr) -> Self {
        self.target_row = Some(row);
        self
    }
}

/// FNV-1a over `bytes` (content-addressing for the result cache).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// The content-addressed cache key of one evaluation:
/// `(technique, attack-config hash, seed)`.
pub fn cache_key(technique: &str, candidate: &Candidate, seed: u64) -> u64 {
    let config = serde_json::to_string(candidate).expect("candidate serializes");
    fnv1a(format!("{technique}\u{1f}{config}\u{1f}{seed}").as_bytes())
}

/// Runs one candidate against one technique and measures it.
///
/// Under the blind objective `achieved` means `flip_target` flips
/// anywhere; under a [`SearchConfig::target_row`] it means the target
/// row itself flipped, and `time_to_first_flip` becomes the time to
/// *that* flip (in bank-local attacker activations, the same clock as
/// the blind metric).
pub fn evaluate(spec: TechniqueSpec, candidate: &Candidate, search: &SearchConfig) -> Evaluation {
    let mut config = search.base.clone();
    config.windows = candidate.windows;
    config.parallelism = Parallelism::sequential();
    let built = match search.target_row {
        Some(victim) => build_attack_on(candidate, &config, victim),
        None => build_attack(candidate, &config),
    };
    let runner = Runner::new(config).technique(spec).seed(search.seed);
    let metrics = match built.probe {
        Some(probe) => runner.observer(probe).run(built.trace),
        None => runner.run(built.trace),
    };
    let (achieved, time_to_first_flip) = match search.target_row {
        Some(victim) => {
            let hit = metrics.flip_log.iter().find(|f| f.row == victim);
            (hit.is_some(), hit.map(|f| f.bank_act))
        }
        None => (
            metrics.flips >= search.flip_target,
            metrics.time_to_first_flip,
        ),
    };
    Evaluation {
        candidate: *candidate,
        budget: metrics.aggressor_activations,
        flips: metrics.flips,
        achieved,
        time_to_first_flip,
        triggers: metrics.trigger_events,
        evasion_percent: metrics.evasion_percent(),
        flips_per_mega_act: metrics.flips_per_mega_act(),
        attack_margin: metrics.attack_margin(),
    }
}

/// The deterministic exploration grid: every shape family at a few
/// budget points.
fn seed_candidates(search: &SearchConfig) -> Vec<Candidate> {
    let shapes = [
        AttackShape::StaticRamp,
        AttackShape::DoubleSided,
        AttackShape::Decoy { decoys: 4 },
        AttackShape::ShiftedRamp { shift_16ths: 4 },
        AttackShape::Burst {
            pairs: 1,
            duty_16ths: 8,
            phase_16ths: 4,
        },
        AttackShape::AdaptiveDecoy { max_decoys: 4 },
    ];
    let mut out = Vec::new();
    for shape in shapes {
        for acts in [16, 32, search.max_acts] {
            for windows in [1, search.max_windows] {
                out.push(Candidate {
                    shape,
                    acts_per_interval: acts.clamp(1, search.max_acts),
                    windows: windows.clamp(1, search.max_windows),
                });
            }
        }
    }
    out
}

/// One random candidate, drawn entirely from `rng` (coordinator-only).
fn random_candidate(rng: &mut StdRng, search: &SearchConfig) -> Candidate {
    let shape = match rng.random_range(0u32..6) {
        0 => AttackShape::StaticRamp,
        1 => AttackShape::DoubleSided,
        2 => AttackShape::Decoy {
            decoys: rng.random_range(1u32..8),
        },
        3 => AttackShape::ShiftedRamp {
            shift_16ths: rng.random_range(1u32..16),
        },
        4 => AttackShape::Burst {
            pairs: rng.random_range(1u32..4),
            duty_16ths: rng.random_range(1u32..16),
            phase_16ths: rng.random_range(0u32..8),
        },
        _ => AttackShape::AdaptiveDecoy {
            max_decoys: rng.random_range(1u32..8),
        },
    };
    Candidate {
        shape,
        acts_per_interval: rng.random_range(1u32..=search.max_acts),
        windows: rng.random_range(1u64..=search.max_windows),
    }
}

/// Successive-halving refinement: achievers shrink their budget knobs,
/// non-achievers grow them.
fn refine(candidate: &Candidate, achieved: bool, search: &SearchConfig) -> Vec<Candidate> {
    let mut out = Vec::new();
    let c = *candidate;
    if achieved {
        out.push(Candidate {
            acts_per_interval: (c.acts_per_interval / 2).max(1),
            ..c
        });
        out.push(Candidate {
            acts_per_interval: (c.acts_per_interval * 3 / 4).max(1),
            ..c
        });
        out.push(Candidate {
            windows: (c.windows / 2).max(1),
            ..c
        });
        if let AttackShape::Burst {
            pairs,
            duty_16ths,
            phase_16ths,
        } = c.shape
        {
            out.push(Candidate {
                shape: AttackShape::Burst {
                    pairs,
                    duty_16ths: (duty_16ths / 2).max(1),
                    phase_16ths,
                },
                ..c
            });
        }
    } else {
        out.push(Candidate {
            acts_per_interval: (c.acts_per_interval * 2).min(search.max_acts),
            ..c
        });
        out.push(Candidate {
            windows: (c.windows * 2).min(search.max_windows),
            ..c
        });
        if let AttackShape::Burst {
            pairs,
            duty_16ths,
            phase_16ths,
        } = c.shape
        {
            out.push(Candidate {
                shape: AttackShape::Burst {
                    pairs,
                    duty_16ths: (duty_16ths * 2).min(16),
                    phase_16ths,
                },
                ..c
            });
        }
    }
    out
}

/// A total order for ranking achievers: budget, then time to first
/// flip, then the serialized candidate (an arbitrary but deterministic
/// final tie-break).
fn achiever_rank(e: &Evaluation) -> (u64, u64, String) {
    (
        e.budget,
        e.time_to_first_flip.unwrap_or(u64::MAX),
        serde_json::to_string(&e.candidate).expect("candidate serializes"),
    )
}

/// Searches the security frontier of one technique.
pub fn search_technique(spec: TechniqueSpec, search: &SearchConfig) -> TechniqueFrontier {
    // Keyed by content hash in a BTreeMap: every traversal of the
    // cache is in key order — structural, not hash-seeded — so no
    // ranking below depends on a sort for correctness of its *input*
    // order (rule D1).
    let mut cache: BTreeMap<u64, Evaluation> = BTreeMap::new();
    let mut cache_hits = 0u64;
    // `Display` renders the exact `.name()` bytes, so seeds and cache
    // keys derived from it are stable across the refactor.
    let technique = spec.to_string();
    let mut rng = StdRng::seed_from_u64(search.seed ^ fnv1a(technique.as_bytes()));
    let mut pool = seed_candidates(search);

    for _round in 0..search.rounds {
        for _ in 0..search.population {
            pool.push(random_candidate(&mut rng, search));
        }

        // Dedup the round's pool by cache key, preserving first-seen
        // order, and dispatch only the misses.  The hit counter is a
        // function of the pool alone, never of worker scheduling.
        let mut seen = BTreeSet::new();
        let mut batch = Vec::new();
        for candidate in pool.drain(..) {
            let key = cache_key(&technique, &candidate, search.seed);
            if !seen.insert(key) {
                continue;
            }
            if cache.contains_key(&key) {
                cache_hits += 1;
                continue;
            }
            batch.push((key, candidate));
        }
        let results = parallel::map_workers(batch, search.workers, |(key, candidate)| {
            (key, evaluate(spec, &candidate, search))
        });
        for (key, evaluation) in results {
            cache.insert(key, evaluation);
        }

        // Rank with total orders (cache iteration order never leaks
        // into the outcome).
        let mut achievers: Vec<&Evaluation> = cache.values().filter(|e| e.achieved).collect();
        achievers.sort_by_key(|e| achiever_rank(e));
        let mut rest: Vec<&Evaluation> = cache.values().filter(|e| !e.achieved).collect();
        rest.sort_by(|a, b| {
            b.attack_margin
                .total_cmp(&a.attack_margin)
                .then_with(|| achiever_rank(a).cmp(&achiever_rank(b)))
        });

        // Survivors re-enter the pool (guaranteed cache hits next
        // round) together with their refinements.  Besides the top
        // achievers overall, the cheapest achiever of *each* shape
        // family survives, so a family whose best sits behind a wall
        // of same-budget ties still gets successively halved.
        let mut family_best: BTreeSet<&str> = BTreeSet::new();
        let per_family: Vec<&&Evaluation> = achievers
            .iter()
            .filter(|e| family_best.insert(e.candidate.shape.family()))
            .collect();
        for e in achievers.iter().take(search.survivors).chain(per_family) {
            pool.push(e.candidate);
            pool.extend(refine(&e.candidate, true, search));
        }
        for e in rest.iter().take(search.survivors) {
            pool.push(e.candidate);
            pool.extend(refine(&e.candidate, false, search));
        }
    }

    let mut all: Vec<&Evaluation> = cache.values().filter(|e| e.achieved).collect();
    all.sort_by_key(|e| achiever_rank(e));
    let frontier = all.first().map(|e| (*e).clone());
    let frontier_static = all
        .iter()
        .find(|e| e.candidate.shape == AttackShape::StaticRamp)
        .map(|e| (*e).clone());
    let frontier_adaptive = all
        .iter()
        .find(|e| e.candidate.shape.is_adaptive())
        .map(|e| (*e).clone());

    TechniqueFrontier {
        technique,
        frontier,
        frontier_static,
        frontier_adaptive,
        evaluations: cache.len() as u64,
        cache_hits,
    }
}

/// Searches the frontier of every Table III technique.
///
/// Techniques are searched one after another (each search already fans
/// its candidates across the worker pool), so the report order — and
/// every byte of its JSON — is deterministic under a fixed seed.
pub fn run_search(search: &SearchConfig) -> FrontierReport {
    let results = Technique::TABLE3
        .iter()
        .map(|&technique| search_technique(TechniqueSpec::Paper(technique), search))
        .collect();
    FrontierReport {
        flip_threshold: search.base.flip_threshold,
        flip_target: search.flip_target,
        search_seed: search.seed,
        rounds: search.rounds,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SearchConfig {
        let mut search = SearchConfig::quick(7);
        search.rounds = 2;
        search.population = 4;
        search.survivors = 2;
        search.workers = 2;
        search
    }

    #[test]
    fn cache_key_separates_techniques_candidates_and_seeds() {
        let a = Candidate {
            shape: AttackShape::DoubleSided,
            acts_per_interval: 8,
            windows: 1,
        };
        let b = Candidate {
            acts_per_interval: 9,
            ..a
        };
        assert_ne!(cache_key("PARA", &a, 1), cache_key("TWiCe", &a, 1));
        assert_ne!(cache_key("PARA", &a, 1), cache_key("PARA", &b, 1));
        assert_ne!(cache_key("PARA", &a, 1), cache_key("PARA", &a, 2));
        assert_eq!(cache_key("PARA", &a, 1), cache_key("PARA", &a, 1));
    }

    #[test]
    fn seed_grid_covers_every_shape_family() {
        let families: BTreeSet<&str> = seed_candidates(&tiny())
            .iter()
            .map(|c| c.shape.family())
            .collect();
        assert_eq!(families.len(), 6);
    }

    #[test]
    fn targeted_objective_counts_only_the_target_row() {
        let mut search = tiny();
        search.target_row = Some(RowAddr(400));
        let candidate = Candidate {
            shape: AttackShape::DoubleSided,
            acts_per_interval: 64,
            windows: 2,
        };
        let spec = rh_harness::TechniqueSpec::Paper(rh_hwmodel::Technique::Para);
        let targeted = evaluate(spec, &candidate, &search);
        // A full-budget double-sided flood beats PARA at the quick
        // threshold, and the achieved flip is the recentered target's.
        assert!(targeted.achieved);
        assert!(targeted.time_to_first_flip.is_some());
        // The same candidate under the blind objective also achieves —
        // the targeted run is the same physics, only aimed and scored
        // differently.
        search.target_row = None;
        let blind = evaluate(spec, &candidate, &search);
        assert!(blind.achieved);
        assert_eq!(targeted.budget, blind.budget);
    }

    #[test]
    fn refinement_moves_budget_knobs_the_right_way() {
        let c = Candidate {
            shape: AttackShape::Burst {
                pairs: 1,
                duty_16ths: 8,
                phase_16ths: 4,
            },
            acts_per_interval: 32,
            windows: 2,
        };
        let search = tiny();
        assert!(refine(&c, true, &search)
            .iter()
            .all(|r| r.planned_budget(128) < c.planned_budget(128)));
        assert!(refine(&c, false, &search)
            .iter()
            .all(|r| r.planned_budget(128) >= c.planned_budget(128)));
    }
}
