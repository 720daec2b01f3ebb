//! Equivalence contracts between the three disturbance backend tiers.
//!
//! The engine decides mitigations ahead of the device ("decide ahead,
//! apply in order"), so the *command stream* — triggers, false
//! positives, first-trigger point, activation counters — is identical
//! across every tier by construction, and these tests pin that
//! exactly.  What a tier is allowed to approximate is the *physics*:
//!
//! - `exact` is the reference: the event-accurate `DramDevice`, the
//!   default, and the tier every pre-backend config keeps meaning.
//! - `fast` accumulates disturbance per refresh interval and resolves
//!   it at the interval boundary, so flip counts must match but the
//!   flip *instant* and the disturbance *peak* may drift by at most
//!   one interval's worth of activations (tolerances below).
//! - `cycle` wraps the exact device in a command-timing model: every
//!   disturbance metric is bit-identical to `exact`, plus a populated
//!   `CycleStats` on the metrics.
//!
//! `tests/determinism.rs` and `tests/fleet_determinism.rs` pin the
//! exact tier's byte-identical sharding contract; the worker-count
//! test here extends the same contract to the fast and cycle tiers.
//!
//! Below the engine, the exact and cycle tiers take a bank run that
//! cannot flip a row ([`DisturbanceBackend::flip_headroom`]) in one
//! `apply_activations` call that skips the flip checks.  A generated
//! command stream pins that call equal to per-event delivery, across
//! consecutive flip thresholds, so some runs end exactly on the bound.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tivapromi_suite::dram::{
    BankId, Command, CycleBackend, DisturbanceBackend, DramDevice, DramTiming, Geometry,
    IdentityMapping, RefreshOrder, RemappedMapping, RowAddr, RowMapping, WeakCellSpec,
    DISTURB_SCALE,
};
use tivapromi_suite::harness::experiments::reliability::Unprotected;
use tivapromi_suite::harness::{
    engine, scenario, BackendSpec, ExperimentScale, NullObserver, Parallelism, RunConfig,
    RunMetrics, Runner,
};
use tivapromi_suite::hwmodel::Technique;

const BANKS: u32 = 8;

/// The fast tier defers disturbance to the interval boundary, so a
/// counter's observed peak may miss (or double-count around) restores
/// issued inside one interval: at most one interval's activation
/// budget (165) hitting one neighbor at full coupling (±1 scale plus
/// distance-2), in sixteenths.  Measured drift on the flooding probe
/// is ±135; this bound leaves that an order of magnitude of headroom
/// without accepting cross-interval divergence.
const MAX_DISTURBANCE_TOLERANCE: u32 = 165 * 2 * DISTURB_SCALE;

/// A flip the exact tier lands mid-interval surfaces at the fast
/// tier's interval boundary: the first-flip instant may differ by at
/// most one interval of global activations (165 per bank).
const TIME_TO_FIRST_FLIP_TOLERANCE: u64 = 165 * BANKS as u64;

/// The determinism suite's small multi-bank shape: 8 banks on the
/// 1/64 geometry, two refresh windows.
fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 2,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config
}

/// `config()` with the red-team weak-cell threshold, so the flooding
/// attack actually flips bits and the flip physics are exercised.
fn weak_config() -> RunConfig {
    let mut config = config();
    config.flip_threshold = 4096;
    config
}

fn run_tier(config: &RunConfig, technique: Technique, tier: BackendSpec, seed: u64) -> RunMetrics {
    let mut tiered = config.clone();
    tiered.backend = tier;
    Runner::new(tiered.clone())
        .technique(technique)
        .seed(seed)
        .run(scenario::paper_mix(&tiered, seed))
}

/// Strict equality on every field the mitigation decision stream
/// determines; tolerance only on the physics the fast tier declares
/// approximate.
fn assert_fast_within_tolerances(exact: &RunMetrics, fast: &RunMetrics, label: &str) {
    assert_eq!(exact.technique, fast.technique, "{label}: technique");
    assert_eq!(
        exact.workload_activations, fast.workload_activations,
        "{label}: workload activations"
    );
    assert_eq!(
        exact.aggressor_activations, fast.aggressor_activations,
        "{label}: aggressor activations"
    );
    assert_eq!(
        exact.mitigation_activations, fast.mitigation_activations,
        "{label}: mitigation activations"
    );
    assert_eq!(
        exact.trigger_events, fast.trigger_events,
        "{label}: triggers"
    );
    assert_eq!(
        exact.false_positive_events, fast.false_positive_events,
        "{label}: false positives"
    );
    assert_eq!(
        exact.first_trigger_act, fast.first_trigger_act,
        "{label}: first trigger"
    );
    assert_eq!(exact.intervals, fast.intervals, "{label}: intervals");
    assert_eq!(exact.flips, fast.flips, "{label}: flip count");
    assert_eq!(fast.cycle, None, "{label}: fast tier has no cycle model");
    let drift = exact.max_disturbance.abs_diff(fast.max_disturbance);
    assert!(
        drift <= MAX_DISTURBANCE_TOLERANCE,
        "{label}: max disturbance drift {drift} (exact {} vs fast {})",
        exact.max_disturbance,
        fast.max_disturbance
    );
    match (exact.time_to_first_flip, fast.time_to_first_flip) {
        (None, None) => {}
        (Some(e), Some(f)) => assert!(
            e.abs_diff(f) <= TIME_TO_FIRST_FLIP_TOLERANCE,
            "{label}: first-flip drift {} (exact {e} vs fast {f})",
            e.abs_diff(f)
        ),
        (e, f) => panic!("{label}: first-flip presence diverged (exact {e:?} vs fast {f:?})"),
    }
}

/// All nine Table III techniques: the fast tier reproduces the exact
/// command stream verbatim on the paper mix, with the declared
/// physics tolerances.
#[test]
fn fast_tier_matches_exact_for_all_techniques() {
    let base = config();
    for technique in Technique::TABLE3 {
        let exact = run_tier(&base, technique, BackendSpec::Exact, 11);
        let fast = run_tier(&base, technique, BackendSpec::Fast, 11);
        assert_fast_within_tolerances(&exact, &fast, technique.name());
    }
}

/// Flip physics under flooding at the weak-cell threshold: both tiers
/// flip the same bits, within the declared drift on when.
#[test]
fn fast_tier_flip_physics_within_tolerance_under_flooding() {
    let base = weak_config();
    let mut fast_config = base.clone();
    fast_config.backend = BackendSpec::Fast;

    // Unprotected: pure accumulation, no restores in flight.
    let exact = engine::run_observed(
        scenario::flooding(&base, RowAddr(500)),
        &mut Unprotected,
        &base,
        &mut NullObserver,
    );
    let fast = engine::run_observed(
        scenario::flooding(&fast_config, RowAddr(500)),
        &mut Unprotected,
        &fast_config,
        &mut NullObserver,
    );
    assert!(exact.flips > 0, "flooding must break the weak threshold");
    assert_fast_within_tolerances(&exact, &fast, "unprotected flooding");

    // Mitigated: restores land mid-interval on exact, boundary on fast.
    for technique in [Technique::Para, Technique::MrLoc, Technique::LoLiPromi] {
        let exact = Runner::new(base.clone())
            .technique(technique)
            .seed(2)
            .run_source(scenario::flooding(&base, RowAddr(500)))
            .expect("flooding runs sequentially");
        let fast = Runner::new(fast_config.clone())
            .technique(technique)
            .seed(2)
            .run_source(scenario::flooding(&fast_config, RowAddr(500)))
            .expect("flooding runs sequentially");
        assert_fast_within_tolerances(&exact, &fast, technique.name());
    }
}

/// The cycle tier is the exact device plus a timing model: every
/// metric is bit-identical, and the cycle accounting is populated and
/// internally consistent.
#[test]
fn cycle_tier_matches_exact_bit_for_bit_modulo_cycle_stats() {
    let base = config();
    for technique in Technique::TABLE3 {
        let exact = run_tier(&base, technique, BackendSpec::Exact, 11);
        let cycled = run_tier(&base, technique, BackendSpec::Cycle, 11);
        let cycle = cycled
            .cycle
            .unwrap_or_else(|| panic!("{technique}: cycle tier must report CycleStats"));
        let mut stripped = cycled.clone();
        stripped.cycle = None;
        assert_eq!(stripped, exact, "{technique}: disturbance metrics");
        assert!(cycle.workload_cycles > 0, "{technique}: workload cycles");
        assert!(cycle.refresh_cycles > 0, "{technique}: refresh cycles");
        assert_eq!(
            cycle.row_buffer_hits + cycle.row_buffer_misses,
            exact.workload_activations,
            "{technique}: every trace activation is a hit or a miss"
        );
        assert_eq!(
            cycle.total_cycles(),
            cycle.workload_cycles + cycle.mitigation_cycles + cycle.refresh_cycles,
            "{technique}: cycle accounting"
        );
    }
}

/// The acceptance headline: mitigation bandwidth is visible for the
/// actively-refreshing techniques.  TWiCe's paper trigger threshold
/// (34 750 activations) is unreachable on the 1/64 geometry, so this
/// runs the full quick-scale paper mix.
#[test]
fn cycle_tier_reports_bandwidth_overhead_for_para_and_twice() {
    let mut cycled = RunConfig::paper(&ExperimentScale::quick());
    cycled.backend = BackendSpec::Cycle;
    // (technique, mitigation cycles, row-buffer hits, row-buffer misses)
    // at quick scale, seed 2.
    for (technique, mitigation_cycles, hits, misses) in [
        (Technique::Para, 49_896, 18_239, 833_076),
        (Technique::TwiCe, 1_512, 18_256, 833_059),
    ] {
        let metrics = Runner::new(cycled.clone())
            .technique(technique)
            .seed(2)
            .run(scenario::paper_mix(&cycled, 2));
        assert!(
            metrics.bandwidth_overhead_percent() > 0.0,
            "{technique}: expected nonzero bandwidth overhead, got {:?}",
            metrics.cycle
        );
        let cycle = metrics.cycle.expect("cycle tier fills CycleStats");
        assert_eq!(
            (
                cycle.mitigation_cycles,
                cycle.row_buffer_hits,
                cycle.row_buffer_misses
            ),
            (mitigation_cycles, hits, misses),
            "{technique}"
        );
        let hit_rate = metrics.row_buffer_hit_rate();
        assert!((0.0..=1.0).contains(&hit_rate), "{technique}: {hit_rate}");
    }
}

/// The determinism contract holds per tier: sequential, two-worker and
/// auto-parallel runs are byte-identical for fast and cycle too.
#[test]
fn fast_and_cycle_tiers_are_deterministic_across_worker_counts() {
    let base = config();
    for tier in [BackendSpec::Fast, BackendSpec::Cycle] {
        for technique in [Technique::Para, Technique::LoLiPromi] {
            let mut tiered = base.clone();
            tiered.backend = tier;
            let runner = |parallelism: Parallelism| {
                Runner::new(tiered.clone())
                    .technique(technique)
                    .seed(5)
                    .parallelism(parallelism)
                    .run(scenario::paper_mix(&tiered, 5))
            };
            let sequential = runner(Parallelism::sequential());
            let two = runner(Parallelism::with_workers(2));
            let auto = runner(Parallelism::default());
            assert_eq!(sequential, two, "{tier} {technique}: 2 workers");
            assert_eq!(sequential, auto, "{tier} {technique}: auto workers");
        }
    }
}

/// A profiling sweep over `span` rows of bank 0 (the exploit
/// subsystem's phase-1 attack), on the weak-tailed 8-bank device.
fn sweep_metrics(parallelism: Parallelism, tier: BackendSpec, span: u32) -> RunMetrics {
    use tivapromi_suite::dram::WeakCellSpec;
    use tivapromi_suite::trace::{AttackConfig, AttackKind, Attacker};
    let mut config = config();
    config.backend = tier;
    config.weak_cells = WeakCellSpec::Sampled {
        seed: 9,
        strong: 16_384,
        weak_lo: 256,
        weak_hi: 512,
        weak_per_mille: 250,
    };
    config.flip_threshold = 16_384;
    let dwell = 5u64;
    let intervals = u64::from(span) * dwell;
    config.windows = intervals.div_ceil(u64::from(config.geometry.intervals_per_window()));
    Runner::new(config.clone())
        .parallelism(parallelism)
        .technique(Technique::Para)
        .seed(3)
        .run(Attacker::new(AttackConfig {
            kind: AttackKind::ProfilingSweep {
                base_row: RowAddr(200),
                span_rows: span,
                dwell_intervals: dwell,
            },
            target_banks: vec![tivapromi_suite::dram::BankId(0)],
            acts_per_interval: 128,
            start_interval: 0,
            intervals,
            ramp_hold_intervals: 0,
        }))
}

/// The exploit profiler's learned map is a pure function of the seed:
/// byte-identical JSON whether the sweep ran sequentially, on two
/// workers or auto-parallel.
#[test]
fn profiler_learned_map_is_byte_identical_across_worker_counts() {
    use tivapromi_suite::dram::BankId;
    use tivapromi_suite::exploit::LearnedMap;
    let learned = |parallelism: Parallelism| {
        let metrics = sweep_metrics(parallelism, BackendSpec::Exact, 16);
        LearnedMap::from_flip_log(BankId(0), &metrics.flip_log).to_json()
    };
    let sequential = learned(Parallelism::sequential());
    assert!(
        sequential.contains("\"row\""),
        "the sweep must learn at least one weak row"
    );
    assert_eq!(sequential, learned(Parallelism::with_workers(2)));
    assert_eq!(sequential, learned(Parallelism::default()));
}

/// The fast tier learns the same weak-cell map as the exact tier: the
/// same rows flip, in the same interval, with the flip instant allowed
/// to drift only to that interval's boundary.
#[test]
fn profiler_learned_map_fast_vs_exact_within_tolerances() {
    use tivapromi_suite::dram::BankId;
    use tivapromi_suite::exploit::LearnedMap;
    let exact_run = sweep_metrics(Parallelism::sequential(), BackendSpec::Exact, 16);
    let fast_run = sweep_metrics(Parallelism::sequential(), BackendSpec::Fast, 16);
    assert_fast_within_tolerances(&exact_run, &fast_run, "profiling sweep");
    let exact = LearnedMap::from_flip_log(BankId(0), &exact_run.flip_log);
    let fast = LearnedMap::from_flip_log(BankId(0), &fast_run.flip_log);
    assert!(!exact.is_empty(), "the sweep must learn at least one row");
    let rows = |map: &LearnedMap| map.rows.iter().map(|r| r.row).collect::<Vec<_>>();
    assert_eq!(rows(&exact), rows(&fast), "learned row sets");
    for (e, f) in exact.rows.iter().zip(&fast.rows) {
        assert!(
            e.interval.abs_diff(f.interval) <= 1,
            "row {}: flip interval drifted (exact {} vs fast {})",
            e.row.0,
            e.interval,
            f.interval
        );
        assert!(
            e.bank_act.abs_diff(f.bank_act) <= TIME_TO_FIRST_FLIP_TOLERANCE,
            "row {}: flip instant drifted {} (exact {} vs fast {})",
            e.row.0,
            e.bank_act.abs_diff(f.bank_act),
            e.bank_act,
            f.bank_act
        );
    }
}

/// The exact tier is the default, and naming it changes nothing.
#[test]
fn exact_tier_is_the_default() {
    let base = config();
    assert_eq!(base.backend, BackendSpec::Exact);
    let implicit = Runner::new(base.clone())
        .technique(Technique::Para)
        .seed(7)
        .run(scenario::paper_mix(&base, 7));
    let explicit = run_tier(&base, Technique::Para, BackendSpec::Exact, 7);
    assert_eq!(implicit, explicit);
}

/// One step of a generated device stream: a slice of workload
/// activations, or one command applied alike to every copy.
enum Step {
    Activations(Vec<BankId>, Vec<RowAddr>),
    Command(Command),
}

/// A stream over a 64-row, 2-bank device: mostly single-row hammer
/// runs (on row 0, the last row, or a hot middle row) and mixed-bank
/// slices, with auto-refreshes and mitigation commands in between.
fn device_stream(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = [0, 1, 2, 30, 31, 32, 61, 62, 63];
    (0..400)
        .map(|_| {
            let bank = BankId(rng.random_range(0..2));
            let row = RowAddr(hot[rng.random_range(0..hot.len())]);
            match rng.random_range(0..100) {
                0..=59 => {
                    let len = rng.random_range(1..=24);
                    Step::Activations(vec![bank; len], vec![row; len])
                }
                60..=79 => {
                    let len = rng.random_range(1..=24);
                    let banks = (0..len).map(|_| BankId(rng.random_range(0..2))).collect();
                    let rows = (0..len)
                        .map(|_| RowAddr(hot[rng.random_range(0..hot.len())]))
                        .collect();
                    Step::Activations(banks, rows)
                }
                80..=87 => Step::Command(Command::Refresh),
                88..=94 => Step::Command(Command::ActivateNeighbors { bank, row }),
                _ => Step::Command(Command::RefreshRow { bank, row }),
            }
        })
        .collect()
}

/// A device at `threshold`: distance-2 coupling in sixteenths, a row
/// mapping that swaps rows at both edges and in the middle, and
/// optionally a weak-cell map whose weakest rows sit below `threshold`.
fn stream_device(threshold: u32, d2: u32, remap: bool, weak: bool) -> DramDevice {
    let geometry = Geometry::new(64, 2, 8).expect("geometry");
    let mapping: Box<dyn RowMapping> = if remap {
        let swaps = [(1, 62), (62, 1), (0, 31), (31, 0), (63, 33), (33, 63)];
        Box::new(RemappedMapping::new(swaps.map(|(logical, physical)| {
            (RowAddr(logical), RowAddr(physical))
        })))
    } else {
        Box::new(IdentityMapping)
    };
    let mut device = DramDevice::with_policies(
        geometry,
        DramTiming::ddr4(),
        mapping,
        &RefreshOrder::SequentialNeighbors,
    );
    device.set_flip_threshold(threshold);
    device.set_distance2_coupling(d2);
    if weak {
        let spec = WeakCellSpec::Sampled {
            seed: u64::from(threshold),
            strong: threshold,
            weak_lo: (threshold / 2).max(1),
            weak_hi: threshold,
            weak_per_mille: 300,
        };
        device.set_weak_cell_map(&spec.materialize(&geometry).expect("sampled map"));
    }
    device
}

/// Applies `steps` to `backend`, each activation slice either in one
/// `apply_activations` call or one `Command::Activate` per event.
fn replay_stream<B: DisturbanceBackend>(backend: &mut B, steps: &[Step], in_runs: bool) {
    for step in steps {
        match step {
            Step::Activations(banks, rows) if in_runs => backend.apply_activations(banks, rows),
            Step::Activations(banks, rows) => {
                for (&bank, &row) in banks.iter().zip(rows) {
                    backend.apply(Command::Activate { bank, row });
                }
            }
            Step::Command(command) => backend.apply(*command),
        }
    }
}

fn assert_devices_agree(runs: &DramDevice, events: &DramDevice, label: &str) {
    assert_eq!(runs.flips(), events.flips(), "{label}: flips");
    assert_eq!(runs.stats(), events.stats(), "{label}: stats");
    assert_eq!(
        runs.max_disturbance_seen(),
        events.max_disturbance_seen(),
        "{label}: max disturbance"
    );
    let geometry = *events.geometry();
    for bank in (0..geometry.banks()).map(BankId) {
        for row in (0..geometry.rows_per_bank()).map(RowAddr) {
            assert_eq!(
                runs.disturbance(bank, row),
                events.disturbance(bank, row),
                "{label}: bank {} row {}",
                bank.0,
                row.0
            );
        }
    }
}

/// Run delivery equals per-event delivery on the exact and cycle tiers:
/// flips in order, stats, the high-water mark, every row's counter and
/// the cycle accounting.  The thresholds are consecutive, so single-bank
/// runs land exactly on the bound and one past it.
#[test]
fn run_delivery_matches_per_event_delivery_across_the_flip_headroom() {
    let (mut on_bound, mut past_bound, mut flips) = (0, 0, 0);
    for seed in 0..2 {
        let steps = device_stream(seed);
        for threshold in 1..=40 {
            for d2 in [0, 5, DISTURB_SCALE] {
                for (remap, weak) in [(false, false), (true, false), (false, true), (true, true)] {
                    let label = format!(
                        "seed {seed} threshold {threshold} d2 {d2} remap {remap} weak {weak}"
                    );
                    let device = || stream_device(threshold, d2, remap, weak);
                    let mut events = device();
                    replay_stream(&mut events, &steps, false);
                    let mut runs = device();
                    for step in &steps {
                        if let Step::Activations(banks, _) = step {
                            if banks.iter().all(|&b| b == banks[0]) {
                                let len = banks.len() as u64;
                                let headroom = runs.flip_headroom(banks[0]);
                                on_bound += u32::from(len == headroom);
                                past_bound += u32::from(headroom > 0 && len == headroom + 1);
                            }
                        }
                        replay_stream(&mut runs, std::slice::from_ref(step), true);
                    }
                    assert_devices_agree(&runs, &events, &label);
                    flips += events.flips().len();

                    let mut cycle_events = CycleBackend::new(device());
                    replay_stream(&mut cycle_events, &steps, false);
                    let mut cycle_runs = CycleBackend::new(device());
                    replay_stream(&mut cycle_runs, &steps, true);
                    assert_devices_agree(cycle_runs.inner(), cycle_events.inner(), &label);
                    assert_eq!(
                        cycle_runs.cycles(),
                        cycle_events.cycles(),
                        "{label}: cycles"
                    );
                    assert_eq!(cycle_runs.inner().flips(), events.flips(), "{label}: tiers");
                }
            }
        }
    }
    assert!(on_bound > 0, "no run ended exactly on its bank's headroom");
    assert!(
        past_bound > 0,
        "no run went exactly one past its bank's headroom"
    );
    assert!(flips > 0, "the stream never flipped a row");
}

proptest! {
    /// `BackendSpec` round-trips through Display/FromStr and through
    /// its JSON encoding, for every tier.
    #[test]
    fn backend_spec_display_fromstr_serde_round_trip(index in 0usize..BackendSpec::ALL.len()) {
        let spec = BackendSpec::ALL[index];
        let parsed: BackendSpec = spec.to_string().parse().expect("Display output parses");
        prop_assert_eq!(parsed, spec);
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: BackendSpec = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(back, spec);
    }

    /// Unknown tier names fail cleanly (an `Err`, never a panic) and
    /// the error names the candidates.
    #[test]
    fn backend_spec_rejects_unknown_names(
        letters in proptest::collection::vec(0u8..26, 1..12),
    ) {
        let name: String = letters.into_iter().map(|b| (b'a' + b) as char).collect();
        match name.parse::<BackendSpec>() {
            Ok(spec) => prop_assert_eq!(spec.name(), name),
            Err(e) => prop_assert!(e.contains("exact")),
        }
    }
}
