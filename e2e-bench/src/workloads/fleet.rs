//! `fleet-campaign`: the `fleet` CLI's three-cohort campaign (broad /
//! weak-tail / cpu) on the fast tier.
//!
//! Thousands of short devices, so per-device set-up, trace synthesis and
//! the fast tier's chunked `apply_activations` path matter while the
//! kernels matter little.  The only workload with the CPU trace model
//! and the two-level dispatcher.  The traced unit rebuilds `Fleet::run`
//! from public parts: `spec.device(i)`, the per-bank jobs on a
//! `TwoLevelDispatcher`, bank-order merges, in-order `absorb`, and
//! `FleetReport::new`.

use crate::clock::{elapsed_ns, Layer, LayerClock};
use crate::measure::{fnv1a, metrics_digest, Sim, Unit, Workload, WORKERS};
use crate::timed;
use crate::workloads::construct_shard;
use dram_sim::{BackendSpec, BankId};
use mem_trace::TraceSplit;
use rh_fleet::{
    CampaignSpec, CohortPartial, CohortSpec, DeviceSpec, Fleet, FleetReport, WorkloadKind,
};
use rh_harness::parallel::{TwoLevelDispatcher, WorkerCursor};
use rh_harness::{NullObserver, RunMetrics, Runner};
use rh_hwmodel::Technique;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// The workload at a given seed and fleet size.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    seed: u64,
    devices: u64,
}

/// One unit's inputs: the campaign and its materialized devices.
pub struct Inputs {
    spec: CampaignSpec,
    devices: Vec<DeviceSpec>,
}

impl FleetCampaign {
    /// A campaign of `devices` devices.
    pub fn new(seed: u64, devices: u64) -> Self {
        FleetCampaign { seed, devices }
    }
}

/// The `fleet` CLI's campaign shape with `--backend fast`.
fn campaign(seed: u64, devices: u64) -> CampaignSpec {
    let cpu = devices / 8;
    let weak = devices / 4;
    let broad = devices - weak - cpu;
    let mut spec = CampaignSpec::new(seed)
        .cohort(CohortSpec::new("broad", broad).banks(1, 4).techniques(vec![
            Technique::LoLiPromi,
            Technique::Para,
            Technique::TwiCe,
        ]))
        .cohort(
            CohortSpec::new("weak-tail", weak)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding"),
        )
        .cohort(
            CohortSpec::new("cpu", cpu)
                .workload(WorkloadKind::Cpu)
                .banks(1, 1),
        );
    for cohort in &mut spec.cohorts {
        cohort.backend = BackendSpec::Fast;
    }
    spec
}

/// Jobs a device splits into, as `Fleet::run` splits it.
fn device_jobs(device: &DeviceSpec) -> usize {
    if device.workload == WorkloadKind::SpecLike && device.banks > 1 {
        device.banks as usize
    } else {
        1
    }
}

/// One job of one device, traced (the twin of the fleet's job runner).
fn run_job(clock: &LayerClock, device: &DeviceSpec, job: usize) -> RunMetrics {
    let config = clock.time(Layer::Setup, || device.run_config());
    let spec = device.technique.into();
    match device.workload {
        WorkloadKind::Cpu => {
            let trace = clock.time(Layer::TracePrep, || device.cpu_trace(&config));
            timed::run_shard(clock, trace, spec, device.seed, &config, &mut NullObserver)
        }
        WorkloadKind::SpecLike if device.banks > 1 => {
            let bank = BankId(u32::try_from(job).expect("job index is a bank index"));
            let shard = clock.time(Layer::TracePrep, || {
                device.spec_trace(&config).bank_shard(bank)
            });
            timed::run_shard(clock, shard, spec, device.seed, &config, &mut NullObserver)
        }
        WorkloadKind::SpecLike => {
            let trace = clock.time(Layer::TracePrep, || device.spec_trace(&config));
            timed::run_shard(clock, trace, spec, device.seed, &config, &mut NullObserver)
        }
    }
}

/// `Fleet::run` rebuilt from public parts, every layer timed, calling
/// `sink` once per device in device order like `Fleet::run_with_sink`.
fn run_traced(
    clock: &LayerClock,
    spec: &CampaignSpec,
    devices: &[DeviceSpec],
    mut sink: impl FnMut(&RunMetrics),
) -> FleetReport {
    let job_counts: Vec<usize> = devices.iter().map(device_jobs).collect();
    let total_jobs: usize = job_counts.iter().sum();
    let dispatcher = TwoLevelDispatcher::new(job_counts.clone());
    let mut partials: Vec<CohortPartial> =
        spec.cohorts.iter().map(|_| CohortPartial::new()).collect();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let tx = tx.clone();
            let dispatcher = &dispatcher;
            scope.spawn(move || {
                let mut cursor = WorkerCursor::new();
                while let Some((d, j)) = dispatcher.claim(&mut cursor) {
                    let start = Instant::now();
                    let metrics = run_job(clock, &devices[d], j);
                    tx.send((d, j, metrics, elapsed_ns(start)))
                        .expect("coordinator outlives workers");
                }
            });
        }
        drop(tx);
        // The coordinator: merge a finished device's shards in bank
        // order, then fold devices strictly in device order.
        let mut parts: Vec<Vec<Option<RunMetrics>>> =
            job_counts.iter().map(|&c| vec![None; c]).collect();
        let mut remaining = job_counts.clone();
        let mut device_ns = vec![0u64; devices.len()];
        let mut reorder: BTreeMap<usize, RunMetrics> = BTreeMap::new();
        let mut next = 0usize;
        for _ in 0..total_jobs {
            let (d, j, metrics, ns) = rx.recv().expect("a worker thread panicked");
            parts[d][j] = Some(metrics);
            device_ns[d] += ns;
            remaining[d] -= 1;
            if remaining[d] > 0 {
                continue;
            }
            clock.record_op(device_ns[d]);
            clock.count_merges(job_counts[d] as u64 - 1);
            let done = clock.time(Layer::Merge, || {
                parts[d]
                    .drain(..)
                    .map(|m| m.expect("counted down to zero"))
                    .reduce(RunMetrics::merge)
                    .expect("every device has at least one job")
            });
            reorder.insert(d, done);
            while let Some(done) = reorder.remove(&next) {
                clock.count_merges(1);
                clock.time(Layer::Merge, || {
                    partials[devices[next].cohort].absorb(&done)
                });
                sink(&done);
                next += 1;
            }
        }
    });
    clock.time(Layer::Report, || FleetReport::new(spec, &partials))
}

impl Workload for FleetCampaign {
    type Inputs = Inputs;
    const OP: &'static str = "device";

    fn setup(&self) -> Inputs {
        let spec = campaign(self.seed, self.devices);
        let devices: Vec<DeviceSpec> = (0..spec.total_devices())
            .map(|i| spec.device(i).expect("index inside the fleet"))
            .collect();
        for device in &devices {
            let config = device.run_config();
            for _ in 0..device_jobs(device) {
                construct_shard(device.technique.into(), device.seed, &config);
            }
            match device.workload {
                WorkloadKind::Cpu => drop(black_box(device.cpu_trace(&config))),
                WorkloadKind::SpecLike => drop(black_box(device.spec_trace(&config))),
            }
        }
        Inputs { spec, devices }
    }

    fn run(&self, inputs: Inputs, clock: Option<&LayerClock>) -> Unit {
        let Inputs { spec, devices } = inputs;
        let mut problems = Vec::new();
        let mut op_digests = Vec::with_capacity(devices.len());
        let mut sim = Sim::counting();
        let mut sink = |metrics: &RunMetrics| {
            op_digests.push(metrics_digest(metrics));
            sim.add(metrics);
        };
        let report = match clock {
            None => Fleet::new(spec)
                .workers(WORKERS)
                .run_with_sink(|_, metrics| sink(metrics))
                .expect("the CLI campaign is valid"),
            Some(clock) => {
                let fleet = Fleet::new(spec);
                clock
                    .time(Layer::Setup, || fleet.validate())
                    .expect("the CLI campaign is valid");
                run_traced(clock, fleet.spec(), &devices, sink)
            }
        };
        let serialize = || {
            let json = report.to_json();
            let back = FleetReport::from_json(&json);
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
            problems.push("fleet report does not survive a JSON round trip".into());
        }
        let flipped: u64 = report.cohorts.iter().map(|c| c.flip_devices).sum();
        Unit {
            op_digests,
            digest: fnv1a(json.as_bytes()),
            problems,
            sim,
            counts: vec![("fleet.devices_flipped", flipped)],
        }
    }

    fn verify(&self, reference: &Unit) -> Vec<String> {
        // The fleet's contract: any device replays in isolation through
        // the Runner with its derived seed.  Check the first device of
        // every cohort.
        let spec = campaign(self.seed, self.devices);
        let mut first = 0u64;
        let mut problems = Vec::new();
        for cohort in &spec.cohorts {
            let index = first;
            first += cohort.devices;
            let Some(device) = spec.device(index).filter(|_| cohort.devices > 0) else {
                continue;
            };
            let config = device.run_config();
            let runner = Runner::new(config.clone())
                .technique(device.technique)
                .seed(device.seed);
            let replay = match device.workload {
                WorkloadKind::Cpu => runner
                    .run_source(device.cpu_trace(&config))
                    .expect("CPU cohorts are single-bank"),
                WorkloadKind::SpecLike => runner.run(device.spec_trace(&config)),
            };
            let expected = reference.op_digests.get(index as usize);
            if expected != Some(&metrics_digest(&replay)) {
                problems.push(format!("device {index} differs from its Runner replay"));
            }
        }
        problems
    }
}
