//! The campaign engine: two-level scheduling with streaming, in-order
//! aggregation.
//!
//! [`Fleet::run`] materializes one [`crate::DeviceSpec`] per global
//! device index, decomposes each device into jobs (one per bank shard
//! for multi-bank SPEC-like devices, one whole-device job otherwise)
//! and drives them over the harness's worker pool,
//! [`rh_harness::parallel::run_in_order`]: a worker finishes its
//! current device's shards before claiming a fresh device, and steals
//! bank shards of in-flight devices only when no fresh device remains.
//!
//! Determinism: workers race, the *fold* does not.  Every job is a pure
//! function of its device spec (seeded via [`crate::device_seed`]), the
//! pool hands finished devices back strictly in global device order,
//! and the fold merges a device's shards in bank order exactly as
//! [`rh_harness::engine::run_sharded`] would before absorbing it into
//! its cohort's partial.  The final report is therefore byte-identical
//! at every worker count and schedule — and equal to replaying any
//! single device through [`rh_harness::Runner`] with its derived seed.

use crate::checkpoint::{Checkpoint, CohortPartial};
use crate::cohort::{CampaignSpec, DeviceSpec, WorkloadKind};
use crate::report::FleetReport;
use dram_sim::{BankId, Geometry};
use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
use mem_trace::{ShardError, TraceSource, TraceSplit};
use rh_harness::{engine, parallel, scenario, techniques, NullObserver};
use rh_harness::{ExperimentScale, RunConfig, RunMetrics, Runner};

/// Why a campaign cannot run (all caught before any device starts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The campaign has no devices.
    EmptyCampaign,
    /// A cohort's distributions are degenerate (empty technique mix,
    /// empty bank or threshold range).
    InvalidCohort {
        /// Offending cohort's name.
        cohort: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A SPEC-like cohort names an attack scenario that does not exist.
    UnknownAttack {
        /// Offending cohort's name.
        cohort: String,
        /// The unknown attack name.
        attack: String,
    },
    /// A cohort pairs an unshardable trace source with a multi-bank
    /// range; the underlying [`ShardError`] says why the source cannot
    /// split.
    Unshardable {
        /// Offending cohort's name.
        cohort: String,
        /// The trace source's own refusal.
        error: ShardError,
    },
    /// A checkpoint from a different campaign (spec fingerprints
    /// disagree) was passed to [`Fleet::resume`].
    CheckpointMismatch {
        /// This campaign's [`CampaignSpec::fingerprint`].
        expected: u64,
        /// The checkpoint's recorded fingerprint.
        found: u64,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyCampaign => write!(f, "campaign has no devices"),
            FleetError::InvalidCohort { cohort, reason } => {
                write!(f, "cohort {cohort:?} is invalid: {reason}")
            }
            FleetError::UnknownAttack { cohort, attack } => {
                write!(f, "cohort {cohort:?} names unknown attack {attack:?}")
            }
            FleetError::Unshardable { cohort, error } => {
                write!(f, "cohort {cohort:?} spans multiple banks but {error}")
            }
            FleetError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign \
                 (spec fingerprint {found:#x}, expected {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Unshardable { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The campaign engine; see the module docs for the execution model.
///
/// ```
/// use rh_fleet::{CampaignSpec, CohortSpec, Fleet};
///
/// let spec = CampaignSpec::new(1).cohort(CohortSpec::new("pop", 3));
/// let report = Fleet::new(spec).workers(2).run().expect("valid");
/// assert_eq!(report.devices, 3);
/// ```
pub struct Fleet {
    spec: CampaignSpec,
    workers: usize,
}

impl Fleet {
    /// A fleet over `spec` with automatic worker count
    /// (`RH_WORKERS` / available parallelism).
    pub fn new(spec: CampaignSpec) -> Self {
        Fleet { spec, workers: 0 }
    }

    /// Sets the worker count (`0` = automatic).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The campaign spec this fleet runs.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Checks the campaign without running anything.
    ///
    /// # Errors
    ///
    /// Every [`FleetError`] except
    /// [`FleetError::CheckpointMismatch`]: empty campaigns, degenerate
    /// cohort distributions, unknown attack names, and unshardable
    /// trace sources paired with multi-bank ranges.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.spec.total_devices() == 0 {
            return Err(FleetError::EmptyCampaign);
        }
        let probe = RunConfig::paper(&ExperimentScale::quick());
        for cohort in &self.spec.cohorts {
            let invalid = |reason: String| FleetError::InvalidCohort {
                cohort: cohort.name.clone(),
                reason,
            };
            if cohort.techniques.is_empty() {
                return Err(invalid("empty technique mix".into()));
            }
            if cohort.banks.0 == 0 || cohort.banks.0 > cohort.banks.1 {
                return Err(invalid(format!("empty bank range {:?}", cohort.banks)));
            }
            if cohort.flip_threshold.0 == 0 || cohort.flip_threshold.0 > cohort.flip_threshold.1 {
                return Err(invalid(format!(
                    "empty flip-threshold range {:?}",
                    cohort.flip_threshold
                )));
            }
            match cohort.workload {
                WorkloadKind::SpecLike => {
                    if scenario::named_attack(&probe, &cohort.attack).is_none() {
                        return Err(FleetError::UnknownAttack {
                            cohort: cohort.name.clone(),
                            attack: cohort.attack.clone(),
                        });
                    }
                }
                WorkloadKind::Cpu => {
                    if cohort.banks.1 > 1 {
                        // Ask the source itself so the fleet error
                        // carries the trace layer's typed refusal.
                        let geometry = Geometry::scaled_down(64).with_banks(cohort.banks.1);
                        let error = CpuWorkload::new(CpuWorkloadConfig::paper(&geometry, 1), 0)
                            .shard_support()
                            .expect_err("CpuWorkload refuses bank sharding");
                        return Err(FleetError::Unshardable {
                            cohort: cohort.name.clone(),
                            error,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the whole campaign.
    ///
    /// # Errors
    ///
    /// See [`Fleet::validate`].
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        self.run_with_sink(|_, _| {})
    }

    /// Runs the whole campaign, calling `sink` once per device — in
    /// global device order, regardless of worker count — with the
    /// device's spec and merged metrics.
    ///
    /// # Errors
    ///
    /// See [`Fleet::validate`].
    pub fn run_with_sink<F>(&self, mut sink: F) -> Result<FleetReport, FleetError>
    where
        F: FnMut(&DeviceSpec, &RunMetrics),
    {
        self.validate()?;
        let mut partials = self.fresh_partials();
        self.execute(0, self.spec.total_devices(), &mut partials, &mut sink);
        Ok(FleetReport::new(&self.spec, &partials))
    }

    /// Runs devices `[0, cut)` and returns the resumable snapshot —
    /// the "kill" half of checkpoint-kill-resume.  `cut` past the fleet
    /// is clamped.
    ///
    /// # Errors
    ///
    /// See [`Fleet::validate`].
    pub fn run_until(&self, cut: u64) -> Result<Checkpoint, FleetError> {
        self.validate()?;
        let frontier = cut.min(self.spec.total_devices());
        let mut partials = self.fresh_partials();
        self.execute(0, frontier, &mut partials, &mut |_, _| {});
        Ok(Checkpoint {
            fingerprint: self.spec.fingerprint(),
            frontier,
            cohorts: partials,
        })
    }

    /// Resumes from a [`Checkpoint`]: runs the remaining devices and
    /// returns the final report, byte-identical to the uninterrupted
    /// [`Fleet::run`].
    ///
    /// # Errors
    ///
    /// [`FleetError::CheckpointMismatch`] when the checkpoint's spec
    /// fingerprint is not this campaign's, plus everything
    /// [`Fleet::validate`] reports.
    pub fn resume(&self, checkpoint: Checkpoint) -> Result<FleetReport, FleetError> {
        self.resume_with_sink(checkpoint, |_, _| {})
    }

    /// [`Fleet::resume`] with a per-device sink over the *remaining*
    /// devices (the checkpointed ones are already folded in).
    ///
    /// # Errors
    ///
    /// See [`Fleet::resume`].
    pub fn resume_with_sink<F>(
        &self,
        checkpoint: Checkpoint,
        mut sink: F,
    ) -> Result<FleetReport, FleetError>
    where
        F: FnMut(&DeviceSpec, &RunMetrics),
    {
        self.validate()?;
        let expected = self.spec.fingerprint();
        if checkpoint.fingerprint != expected {
            return Err(FleetError::CheckpointMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        let mut partials = checkpoint.cohorts;
        self.execute(
            checkpoint.frontier,
            self.spec.total_devices(),
            &mut partials,
            &mut sink,
        );
        Ok(FleetReport::new(&self.spec, &partials))
    }

    fn fresh_partials(&self) -> Vec<CohortPartial> {
        self.spec
            .cohorts
            .iter()
            .map(|_| CohortPartial::new())
            .collect()
    }

    /// Runs devices `[start, end)` over the worker pool, folding each
    /// finished device into `partials` (and `sink`) in global device
    /// order.
    fn execute(
        &self,
        start: u64,
        end: u64,
        partials: &mut [CohortPartial],
        sink: &mut dyn FnMut(&DeviceSpec, &RunMetrics),
    ) {
        let devices: Vec<DeviceSpec> = (start..end)
            .map(|i| {
                self.spec
                    .device(i)
                    .expect("range checked against the fleet")
            })
            .collect();
        let job_counts: Vec<usize> = devices.iter().map(device_jobs).collect();
        parallel::run_in_order(
            &job_counts,
            self.workers,
            |d, j| run_device_job(&devices[d], j),
            |d, shards| {
                // Merge the device's shards in bank order, mirroring
                // `engine::run_sharded`.
                let merged = shards
                    .into_iter()
                    .reduce(RunMetrics::merge)
                    .expect("every device has at least one job");
                let device = &devices[d];
                sink(device, &merged);
                partials[device.cohort].absorb(&merged);
            },
        );
    }
}

/// Jobs a device decomposes into: one per bank for shardable multi-bank
/// devices, else one whole-device job.
fn device_jobs(device: &DeviceSpec) -> usize {
    if device.workload == WorkloadKind::SpecLike && device.banks > 1 {
        usize::try_from(device.banks).expect("bank count fits usize")
    } else {
        1
    }
}

/// Runs one job of one device — a pure function of `(device, job)`.
///
/// Multi-bank SPEC-like devices run one bank shard per job, built
/// exactly as [`engine::run_sharded`] builds them, so the in-order merge
/// of a device's jobs equals the [`Runner`] replay of that device.
fn run_device_job(device: &DeviceSpec, job: usize) -> RunMetrics {
    let config = device.run_config();
    match device.workload {
        WorkloadKind::Cpu => {
            let trace = device.cpu_trace(&config);
            Runner::new(config)
                .technique(device.technique)
                .seed(device.seed)
                .run_source(trace)
                .expect("validation pins CPU cohorts to one bank")
        }
        WorkloadKind::SpecLike => {
            let mut mitigation = techniques::build_any(device.technique, &config, device.seed);
            if device.banks > 1 {
                let bank = BankId(u32::try_from(job).expect("job index is a bank index"));
                let shard = device.spec_trace(&config).bank_shard(bank);
                engine::run_observed(shard, &mut mitigation, &config, &mut NullObserver)
            } else {
                engine::run_observed(
                    device.spec_trace(&config),
                    &mut mitigation,
                    &config,
                    &mut NullObserver,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::CohortSpec;
    use rh_hwmodel::Technique;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::new(5)
            .cohort(
                CohortSpec::new("mixed", 6)
                    .banks(1, 3)
                    .techniques(vec![Technique::Para, Technique::LoLiPromi]),
            )
            .cohort(
                CohortSpec::new("cpu", 2)
                    .workload(WorkloadKind::Cpu)
                    .banks(1, 1),
            )
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let fleet = Fleet::new(small_spec());
        let one = fleet.workers(1).run().expect("valid");
        let fleet = Fleet::new(small_spec());
        let four = fleet.workers(4).run().expect("valid");
        assert_eq!(one.to_json(), four.to_json());
    }

    #[test]
    fn sink_sees_devices_in_global_order_with_runner_equal_metrics() {
        let mut seen = Vec::new();
        Fleet::new(small_spec())
            .workers(3)
            .run_with_sink(|device, metrics| seen.push((device.clone(), metrics.clone())))
            .expect("valid");
        let indices: Vec<u64> = seen.iter().map(|(d, _)| d.index).collect();
        assert_eq!(indices, (0..8).collect::<Vec<u64>>());
        // Spot-check one multi-bank device against the Runner replay.
        let (device, fleet_metrics) = seen
            .iter()
            .find(|(d, _)| d.banks > 1)
            .expect("mixed cohort samples a multi-bank device");
        let config = device.run_config();
        let replay = Runner::new(config.clone())
            .technique(device.technique)
            .seed(device.seed)
            .run(device.spec_trace(&config));
        assert_eq!(&replay, fleet_metrics);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let whole = Fleet::new(small_spec()).workers(2).run().expect("valid");
        for cut in [0, 3, 8, 99] {
            let checkpoint = Fleet::new(small_spec())
                .workers(2)
                .run_until(cut)
                .expect("valid");
            let resumed = Fleet::new(small_spec())
                .workers(2)
                .resume(checkpoint)
                .expect("same campaign");
            assert_eq!(whole.to_json(), resumed.to_json(), "cut at {cut}");
        }
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let checkpoint = Fleet::new(small_spec()).run_until(2).expect("valid");
        let mut other = small_spec();
        other.seed = 6;
        let err = Fleet::new(other)
            .resume(checkpoint)
            .expect_err("fingerprints differ");
        assert!(matches!(err, FleetError::CheckpointMismatch { .. }));
    }

    #[test]
    fn validation_rejects_degenerate_campaigns() {
        assert_eq!(
            Fleet::new(CampaignSpec::new(1))
                .run()
                .expect_err("no devices"),
            FleetError::EmptyCampaign
        );
        let empty_mix =
            CampaignSpec::new(1).cohort(CohortSpec::new("bad", 1).techniques(Vec::new()));
        assert!(matches!(
            Fleet::new(empty_mix).run().expect_err("empty mix"),
            FleetError::InvalidCohort { .. }
        ));
        let bad_attack = CampaignSpec::new(1).cohort(CohortSpec::new("bad", 1).attack("meltdown"));
        assert!(matches!(
            Fleet::new(bad_attack).run().expect_err("unknown attack"),
            FleetError::UnknownAttack { .. }
        ));
    }

    #[test]
    fn validation_surfaces_unshardable_cpu_cohorts_as_typed_error() {
        let spec = CampaignSpec::new(1).cohort(
            CohortSpec::new("cpu-wide", 4)
                .workload(WorkloadKind::Cpu)
                .banks(1, 4),
        );
        let err = Fleet::new(spec)
            .run()
            .expect_err("CPU cohorts cannot shard");
        match err {
            FleetError::Unshardable { cohort, error } => {
                assert_eq!(cohort, "cpu-wide");
                assert_eq!(error.source, "CpuWorkload");
            }
            other => panic!("expected Unshardable, got {other:?}"),
        }
    }
}
