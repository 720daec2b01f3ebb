//! Quickstart: protect a DRAM bank against a row-hammer attack with
//! TiVaPRoMi — first by driving the substrate directly, then through
//! the [`Runner`] builder with a time-series observer and wall-clock
//! perf counters attached.
//!
//! Run with `cargo run --release --example quickstart`.

use tivapromi_suite::dram::{BankId, Command, DramDevice, Geometry, RowAddr};
use tivapromi_suite::harness::{scenario, ExperimentScale, RunConfig};
use tivapromi_suite::tivapromi::{Mitigation, TimeVarying, TivaConfig};
use tivapromi_suite::{PerfCounters, Runner, TimeSeriesRecorder};

fn main() {
    // The paper's DDR4 geometry: 65 536 rows per bank, 8192 refresh
    // intervals per 64 ms window.
    let geometry = Geometry::paper().with_banks(1);
    let mut dram = DramDevice::new(geometry);

    // LoLiPRoMi: the paper's best area/overhead compromise.
    let mut mitigation = TimeVarying::lolipromi(TivaConfig::paper(&geometry), 42);

    // A double-sided row-hammer attack on victim row 5000: hammer both
    // neighbors at the DDR4 maximum rate for one full refresh window.
    let aggressors = [RowAddr(4999), RowAddr(5001)];
    let mut actions = Vec::new();
    let mut extra_activations = 0u64;
    let mut attacker_acts = 0u64;

    for interval in 0..geometry.intervals_per_window() {
        for shot in 0..165u32 {
            let row = aggressors[(shot % 2) as usize];
            dram.apply(Command::Activate {
                bank: BankId(0),
                row,
            });
            attacker_acts += 1;
            mitigation.on_activate(BankId(0), row, &mut actions);
            for action in actions.drain(..) {
                extra_activations += 1;
                dram.apply(action.to_command());
            }
        }
        dram.apply(Command::Refresh);
        mitigation.on_refresh_interval(&mut actions);
        actions.drain(..).for_each(|a| dram.apply(a.to_command()));
        let _ = interval;
    }

    println!("attacker activations : {attacker_acts}");
    println!("extra activations    : {extra_activations}");
    println!(
        "victim disturbance   : {} / {} (threshold)",
        dram.disturbance(BankId(0), RowAddr(5000)),
        139_000
    );
    println!("bit flips            : {}", dram.flips().len());
    println!(
        "history-table storage: {} B per bank",
        mitigation.storage_bytes_per_bank()
    );
    assert!(dram.flips().is_empty(), "the attack must be mitigated");
    println!("\nLoLiPRoMi stopped the attack.");

    // The same protection through the harness's one documented
    // entrypoint: the Runner builder, here with a time-series recorder
    // watching the run from inside the engine and wall-clock perf
    // counters timing each shard.
    let config = RunConfig::paper(&ExperimentScale::quick());
    let trace = scenario::paper_mix(&config, 42);
    let perf = PerfCounters::default();
    let metrics = Runner::new(config)
        .seed(42) // defaults to LoLiPRoMi
        .observer(TimeSeriesRecorder::new(1024))
        .observer(perf.clone())
        .run(trace);
    let series = metrics.timeseries.as_ref().expect("recorder attached");
    println!(
        "\nRunner: {} — {} activations, overhead {:.4}%, {} trajectory points",
        metrics.technique,
        metrics.workload_activations,
        metrics.overhead_percent(),
        series.points.len()
    );
    assert_eq!(metrics.flips, 0, "mixed workload must stay safe");
    println!("\nEngine shard throughput (LoLiPRoMi, mixed trace)");
    print!("{}", perf.render());
}
