//! Cross-crate integration tests: the full pipeline
//! trace → mitigation → DRAM device, exercised through the public APIs
//! of every crate.

use tivapromi_suite::dram::RowAddr;
use tivapromi_suite::harness::experiments::reliability::Unprotected;
use tivapromi_suite::harness::{
    engine, scenario, techniques, ExperimentScale, NullObserver, RunConfig,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::trace::{AttackConfig, Attacker};

fn quick_config() -> RunConfig {
    RunConfig::paper(&ExperimentScale::quick())
}

#[test]
fn every_technique_survives_the_paper_mix() {
    let config = quick_config();
    for technique in Technique::TABLE3 {
        let trace = scenario::paper_mix(&config, 11);
        let mut mitigation = techniques::build(technique, &config, 11);
        let metrics = engine::run_observed(trace, mitigation.as_mut(), &config, &mut NullObserver);
        assert_eq!(metrics.flips, 0, "{technique} let the attack through");
        assert!(metrics.workload_activations > 100_000, "{technique}");
        assert!(metrics.intervals == config.intervals(), "{technique}");
    }
}

#[test]
fn the_attack_is_real_without_mitigation() {
    let config = quick_config();
    let metrics = engine::run_observed(
        scenario::paper_mix(&config, 11),
        &mut Unprotected,
        &config,
        &mut NullObserver,
    );
    assert!(metrics.flips > 0);
    assert!(metrics.max_disturbance >= config.flip_threshold);
}

#[test]
fn cat_extension_also_mitigates() {
    let config = quick_config();
    let trace = scenario::paper_mix(&config, 5);
    let mut cat = techniques::build(Technique::Cat, &config, 5);
    let metrics = engine::run_observed(trace, cat.as_mut(), &config, &mut NullObserver);
    assert_eq!(metrics.flips, 0);
    assert!(metrics.trigger_events > 0, "CAT must detect the aggressors");
}

#[test]
fn overhead_ordering_matches_figure_4_classes() {
    // probabilistic (PARA) > TiVaPRoMi (LoLiPRoMi) > tabled counters
    // (TWiCe), on identical traces.
    let config = quick_config();
    let overhead = |technique| {
        let trace = scenario::paper_mix(&config, 3);
        let mut m = techniques::build(technique, &config, 3);
        engine::run_observed(trace, m.as_mut(), &config, &mut NullObserver).overhead_percent()
    };
    let para = overhead(Technique::Para);
    let loli = overhead(Technique::LoLiPromi);
    let twice = overhead(Technique::TwiCe);
    assert!(para > loli, "PARA {para} vs LoLiPRoMi {loli}");
    assert!(loli > twice, "LoLiPRoMi {loli} vs TWiCe {twice}");
}

#[test]
fn remapped_rows_divert_disturbance_and_mitigation_still_holds() {
    // Remap an aggressor's victim: the physical damage lands elsewhere,
    // the mitigation still prevents flips.
    let config = quick_config().with_remapping(vec![(RowAddr(30_001), RowAddr(50_000))]);
    let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
    let mut mitigation = techniques::build(Technique::LoPromi, &config, 9);
    let metrics = engine::run_observed(attack, mitigation.as_mut(), &config, &mut NullObserver);
    assert_eq!(metrics.flips, 0);
}

#[test]
fn identical_seeds_reproduce_identical_metrics() {
    let config = quick_config();
    let run = || {
        let trace = scenario::paper_mix(&config, 21);
        let mut m = techniques::build(Technique::CaPromi, &config, 21);
        engine::run_observed(trace, m.as_mut(), &config, &mut NullObserver)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn fpr_is_bounded_by_trigger_events() {
    let config = quick_config();
    for technique in [Technique::Para, Technique::LiPromi, Technique::CaPromi] {
        let trace = scenario::paper_mix(&config, 2);
        let mut m = techniques::build(technique, &config, 2);
        let metrics = engine::run_observed(trace, m.as_mut(), &config, &mut NullObserver);
        assert!(
            metrics.false_positive_events <= metrics.trigger_events,
            "{technique}"
        );
        assert!(
            metrics.fpr_percent() <= metrics.overhead_percent(),
            "{technique}"
        );
    }
}
