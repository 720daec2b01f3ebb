//! API-guideline conformance checks across the workspace: thread-safety
//! markers, `Default` agreements, and `Display` behaviour that the other
//! tests rely on implicitly.

use tivapromi_suite::dram;
use tivapromi_suite::harness;
use tivapromi_suite::hwmodel;
use tivapromi_suite::tivapromi as tiva;
use tivapromi_suite::trace;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<dram::Geometry>();
    assert_send_sync::<dram::DramTiming>();
    assert_send_sync::<dram::RefreshOrder>();
    assert_send_sync::<dram::DisturbState>();
    assert_send_sync::<dram::LatencyStats>();
    assert_send_sync::<trace::TraceEvent>();
    assert_send_sync::<trace::TraceStats>();
    assert_send_sync::<tiva::TivaConfig>();
    assert_send_sync::<tiva::HistoryTable>();
    assert_send_sync::<hwmodel::HwParams>();
    assert_send_sync::<harness::RunMetrics>();
    assert_send_sync::<harness::MeanStd>();
}

#[test]
fn stateful_components_are_send() {
    // Mitigations cross thread boundaries in the parallel seed sweeps.
    assert_send::<Box<dyn tiva::Mitigation>>();
    assert_send::<tiva::TimeVarying>();
    assert_send::<tiva::CaPromi>();
    assert_send::<dram::DramDevice>();
    assert_send::<dram::CycleBackend>();
    assert_sync::<dram::Geometry>();
}

#[test]
fn defaults_match_paper_constructors() {
    // C-COMMON-TRAITS: Default mirrors the documented primary
    // constructor.
    assert_eq!(dram::Geometry::default(), dram::Geometry::paper());
    assert_eq!(dram::DramTiming::default(), dram::DramTiming::ddr4());
    assert_eq!(
        dram::RefreshOrder::default(),
        dram::RefreshOrder::SequentialNeighbors
    );
    assert_eq!(hwmodel::HwParams::default(), hwmodel::HwParams::paper());
    assert_eq!(
        harness::ExperimentScale::default(),
        harness::ExperimentScale::paper_shape()
    );
}

#[test]
fn displays_are_never_empty() {
    // C-DEBUG-NONEMPTY analogue for our Display impls.
    let displays: Vec<String> = vec![
        dram::RowAddr(0).to_string(),
        dram::BankId(0).to_string(),
        dram::DramGeneration::Ddr4.to_string(),
        dram::RefreshOrder::SequentialNeighbors.to_string(),
        tiva::TivaVariant::CaPromi.to_string(),
        hwmodel::Technique::Para.to_string(),
        harness::MeanStd::of(&[]).to_string(),
    ];
    for d in displays {
        assert!(!d.is_empty());
    }
}

#[test]
fn errors_are_well_behaved() {
    // C-GOOD-ERR: error type implements Error + Send + Sync + 'static
    // and has a lowercase, punctuation-free message.
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<dram::ConfigError>();
    let e = dram::Geometry::new(10, 1, 4).unwrap_err();
    let msg = e.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));
}

#[test]
fn debug_representations_are_nonempty() {
    let debugs: Vec<String> = vec![
        format!("{:?}", dram::Geometry::paper()),
        format!("{:?}", tiva::TivaConfig::paper(&dram::Geometry::paper())),
        format!("{:?}", tiva::HistoryTable::new(1)),
        format!("{:?}", trace::TraceStats::default()),
        format!("{:?}", hwmodel::fig2_machine()),
    ];
    for d in debugs {
        assert!(!d.is_empty());
    }
}
