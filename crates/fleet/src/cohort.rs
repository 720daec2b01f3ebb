//! The population model: cohorts of heterogeneous devices.
//!
//! A campaign is a list of cohorts; each cohort samples per-device
//! configurations — bank count, flip threshold (the weak-cell tail of
//! the cell distribution), and mitigation technique — from ranges and a
//! technique mix.  Every device's full configuration is a pure function
//! of `(campaign_seed, global_device_index)` via
//! [`crate::device_seed`], so [`CampaignSpec::device`] materializes any
//! single device without touching the rest of the fleet, and the
//! determinism suite replays fleet devices in isolation through
//! [`rh_harness::Runner`].

use crate::seeding::device_seed;
use dram_sim::{BackendSpec, Geometry, WeakCellSpec};
use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
use mem_trace::MixedTrace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_harness::{scenario, ExperimentScale, RunConfig};
use rh_hwmodel::Technique;
use serde::{Deserialize, Serialize};

/// Which trace generator a cohort's devices run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The SPEC-like interval-level mix plus a named attack —
    /// bank-shardable ([`mem_trace::TraceSplit`]).
    SpecLike,
    /// The access-level CPU model ([`mem_trace::CpuWorkload`]) — NOT
    /// bank-shardable (cores share one RNG and cache hierarchy), so
    /// cohorts using it must stay single-bank; see
    /// [`crate::FleetError::Unshardable`].
    Cpu,
}

/// One cohort: a sub-population sharing distributions, not values.
///
/// Ranges are inclusive `(lo, hi)`; each device samples its own value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Cohort label (reported per cohort).
    pub name: String,
    /// Devices in this cohort.
    pub devices: u64,
    /// Inclusive bank-count range sampled per device.
    pub banks: (u32, u32),
    /// Inclusive flip-threshold range sampled per device — the
    /// weak-cell distribution (lower = weaker worst cell).
    pub flip_threshold: (u32, u32),
    /// Technique mix sampled uniformly per device.
    pub techniques: Vec<Technique>,
    /// Refresh windows each device simulates.
    pub windows: u64,
    /// Attack scenario name ([`rh_harness::scenario::named_attack`]).
    pub attack: String,
    /// Trace generator.
    pub workload: WorkloadKind,
    /// Disturbance backend fidelity tier every device in the cohort
    /// runs under (absent in pre-tier campaign files ⇒ exact).
    pub backend: BackendSpec,
    /// Per-row weak-cell model override for every device in the cohort
    /// (absent in pre-weak-map campaign files ⇒ `None`, which keeps the
    /// device's sampled uniform `flip_threshold`).  Like `backend`, the
    /// value is copied, never sampled — specs with a per-device `seed`
    /// still materialize per-device maps, because the map itself is
    /// seeded per bank at run time.
    pub weak_cells: Option<WeakCellSpec>,
}

impl CohortSpec {
    /// A cohort of `devices` devices with fleet-quick defaults: 1–2
    /// banks, the red-team weak-cell threshold band, the paper's
    /// headline technique, one window of the ramp attack on the
    /// SPEC-like workload.
    pub fn new(name: impl Into<String>, devices: u64) -> Self {
        CohortSpec {
            name: name.into(),
            devices,
            banks: (1, 2),
            flip_threshold: (
                rh_redteam::QUICK_FLIP_THRESHOLD,
                2 * rh_redteam::QUICK_FLIP_THRESHOLD,
            ),
            techniques: vec![Technique::LoLiPromi],
            windows: 1,
            attack: "ramp".into(),
            workload: WorkloadKind::SpecLike,
            backend: BackendSpec::Exact,
            weak_cells: None,
        }
    }

    /// Sets the inclusive per-device bank-count range.
    #[must_use]
    pub fn banks(mut self, lo: u32, hi: u32) -> Self {
        self.banks = (lo, hi);
        self
    }

    /// Sets the inclusive per-device flip-threshold range.
    #[must_use]
    pub fn flip_threshold(mut self, lo: u32, hi: u32) -> Self {
        self.flip_threshold = (lo, hi);
        self
    }

    /// Sets the technique mix devices sample from.
    #[must_use]
    pub fn techniques(mut self, techniques: Vec<Technique>) -> Self {
        self.techniques = techniques;
        self
    }

    /// Sets the per-device window count.
    #[must_use]
    pub fn windows(mut self, windows: u64) -> Self {
        self.windows = windows;
        self
    }

    /// Sets the attack scenario name.
    #[must_use]
    pub fn attack(mut self, attack: impl Into<String>) -> Self {
        self.attack = attack.into();
        self
    }

    /// Sets the trace generator.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadKind) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the disturbance backend tier ([`BackendSpec`]) the cohort's
    /// devices run under.
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the per-row weak-cell model ([`WeakCellSpec`]) the cohort's
    /// devices run under.
    #[must_use]
    pub fn weak_cells(mut self, weak_cells: WeakCellSpec) -> Self {
        self.weak_cells = Some(weak_cells);
        self
    }
}

/// A whole campaign: the seed and the cohorts, in report order.
///
/// Devices are numbered globally: cohort 0's devices first, then
/// cohort 1's, and so on — [`CampaignSpec::device`] maps a global index
/// back to its cohort and sampled configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// The single campaign seed every device seed derives from.
    pub seed: u64,
    /// The cohorts, in device-numbering and report order.
    pub cohorts: Vec<CohortSpec>,
}

impl CampaignSpec {
    /// An empty campaign under `seed`; add cohorts with
    /// [`CampaignSpec::cohort`].
    pub fn new(seed: u64) -> Self {
        CampaignSpec {
            seed,
            cohorts: Vec::new(),
        }
    }

    /// Appends a cohort.
    #[must_use]
    pub fn cohort(mut self, cohort: CohortSpec) -> Self {
        self.cohorts.push(cohort);
        self
    }

    /// Total devices across all cohorts.
    pub fn total_devices(&self) -> u64 {
        self.cohorts.iter().map(|c| c.devices).sum()
    }

    /// FNV-1a over the canonical JSON of the spec: the identity a
    /// [`crate::Checkpoint`] is pinned to, so a checkpoint can never be
    /// resumed against a different campaign.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("spec serializes");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in json.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Materializes global device `index`, or `None` past the fleet.
    ///
    /// The sampled configuration is a pure function of
    /// `(self.seed, index)` plus the owning cohort's distributions —
    /// independent of every other device — drawn from a dedicated
    /// `StdRng` seeded with the device's [`device_seed`].
    pub fn device(&self, index: u64) -> Option<DeviceSpec> {
        let mut first = 0u64;
        for (cohort_index, cohort) in self.cohorts.iter().enumerate() {
            if index < first + cohort.devices {
                let seed = device_seed(self.seed, index);
                let mut rng = StdRng::seed_from_u64(seed);
                // Fixed draw order — banks, threshold, technique — so
                // the sampling is part of the campaign's stable
                // contract, not an implementation detail.
                let (bank_lo, bank_hi) = cohort.banks;
                let banks = rng.random_range(bank_lo..=bank_hi);
                let (t_lo, t_hi) = cohort.flip_threshold;
                let flip_threshold = rng.random_range(t_lo..=t_hi);
                let technique = cohort.techniques[rng.random_range(0..cohort.techniques.len())];
                return Some(DeviceSpec {
                    index,
                    cohort: cohort_index,
                    seed,
                    banks,
                    flip_threshold,
                    technique,
                    windows: cohort.windows,
                    attack: cohort.attack.clone(),
                    workload: cohort.workload,
                    // Copied, never sampled: the tier and weak-cell
                    // model must not consume RNG draws, so
                    // banks/threshold/technique sampling is identical
                    // across tiers and maps (the draw order above is a
                    // stable campaign contract).
                    backend: cohort.backend,
                    weak_cells: cohort.weak_cells,
                });
            }
            first += cohort.devices;
        }
        None
    }
}

/// One materialized device: everything needed to run (or re-run) it in
/// isolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Global device index.
    pub index: u64,
    /// Owning cohort's index in [`CampaignSpec::cohorts`].
    pub cohort: usize,
    /// The device's run seed ([`device_seed`]).
    pub seed: u64,
    /// Sampled bank count.
    pub banks: u32,
    /// Sampled flip threshold (weak-cell tail).
    pub flip_threshold: u32,
    /// Sampled mitigation technique.
    pub technique: Technique,
    /// Refresh windows to simulate.
    pub windows: u64,
    /// Attack scenario name.
    pub attack: String,
    /// Trace generator.
    pub workload: WorkloadKind,
    /// Disturbance backend fidelity tier (from the cohort).
    pub backend: BackendSpec,
    /// Per-row weak-cell model (from the cohort).
    pub weak_cells: Option<WeakCellSpec>,
}

impl DeviceSpec {
    /// The device's run configuration: the 1/64 fleet geometry with the
    /// sampled bank count and flip threshold.
    ///
    /// The parallelism policy is the default (shard by bank): the fleet
    /// scheduler drives the shards itself, and a replay through
    /// [`rh_harness::Runner`] produces bit-identical results at any
    /// worker count by the engine's determinism contract.
    pub fn run_config(&self) -> RunConfig {
        let mut config = RunConfig::paper(&ExperimentScale {
            windows: self.windows,
            banks: self.banks,
            seeds: 1,
        });
        config.geometry = Geometry::scaled_down(64).with_banks(self.banks);
        config.flip_threshold = self.flip_threshold;
        config.backend = self.backend;
        if let Some(weak_cells) = self.weak_cells {
            config.weak_cells = weak_cells;
        }
        config
    }

    /// The SPEC-like trace of this device ([`WorkloadKind::SpecLike`]).
    ///
    /// # Panics
    ///
    /// Panics when the cohort's attack name is unknown (campaign
    /// validation rejects such specs before any device runs).
    pub fn spec_trace(&self, config: &RunConfig) -> MixedTrace {
        let attack = scenario::named_attack(config, &self.attack)
            .unwrap_or_else(|| panic!("unknown attack {:?} reached a device run", self.attack));
        scenario::mix_with(config, attack, self.seed)
    }

    /// The CPU-model trace of this device ([`WorkloadKind::Cpu`]).
    pub fn cpu_trace(&self, config: &RunConfig) -> CpuWorkload {
        CpuWorkload::new(
            CpuWorkloadConfig::paper(&config.geometry, config.intervals()),
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cohorts() -> CampaignSpec {
        CampaignSpec::new(11)
            .cohort(
                CohortSpec::new("alpha", 3)
                    .banks(1, 4)
                    .flip_threshold(1000, 4000)
                    .techniques(vec![Technique::Para, Technique::TwiCe]),
            )
            .cohort(
                CohortSpec::new("beta", 2)
                    .workload(WorkloadKind::Cpu)
                    .banks(1, 1),
            )
    }

    #[test]
    fn device_indexing_spans_cohorts_in_order() {
        let spec = two_cohorts();
        assert_eq!(spec.total_devices(), 5);
        for i in 0..3 {
            assert_eq!(spec.device(i).expect("in range").cohort, 0);
        }
        for i in 3..5 {
            assert_eq!(spec.device(i).expect("in range").cohort, 1);
        }
        assert_eq!(spec.device(5), None);
    }

    #[test]
    fn materialization_is_pure_and_in_distribution() {
        let spec = two_cohorts();
        for i in 0..5 {
            let a = spec.device(i).expect("in range");
            let b = spec.device(i).expect("in range");
            assert_eq!(a, b, "device {i} not pure");
            assert_eq!(a.seed, device_seed(11, i));
            let cohort = &spec.cohorts[a.cohort];
            assert!(a.banks >= cohort.banks.0 && a.banks <= cohort.banks.1);
            assert!(
                a.flip_threshold >= cohort.flip_threshold.0
                    && a.flip_threshold <= cohort.flip_threshold.1
            );
            assert!(cohort.techniques.contains(&a.technique));
        }
    }

    #[test]
    fn devices_are_heterogeneous_across_a_cohort() {
        let spec = CampaignSpec::new(3).cohort(
            CohortSpec::new("wide", 32)
                .banks(1, 4)
                .flip_threshold(1000, 100_000)
                .techniques(vec![
                    Technique::Para,
                    Technique::TwiCe,
                    Technique::LoLiPromi,
                ]),
        );
        let devices: Vec<DeviceSpec> = (0..32).map(|i| spec.device(i).expect("in range")).collect();
        let distinct_banks: std::collections::BTreeSet<u32> =
            devices.iter().map(|d| d.banks).collect();
        let distinct_thresholds: std::collections::BTreeSet<u32> =
            devices.iter().map(|d| d.flip_threshold).collect();
        let distinct_techniques: std::collections::BTreeSet<String> =
            devices.iter().map(|d| d.technique.to_string()).collect();
        assert!(distinct_banks.len() > 1, "bank sampling degenerate");
        assert!(
            distinct_thresholds.len() > 8,
            "threshold sampling degenerate"
        );
        assert_eq!(distinct_techniques.len(), 3, "technique mix not covered");
    }

    #[test]
    fn fingerprint_tracks_spec_identity() {
        let spec = two_cohorts();
        assert_eq!(spec.fingerprint(), two_cohorts().fingerprint());
        let mut other = two_cohorts();
        other.seed = 12;
        assert_ne!(spec.fingerprint(), other.fingerprint());
        let mut renamed = two_cohorts();
        renamed.cohorts[0].name = "gamma".into();
        assert_ne!(spec.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn backend_tier_is_copied_not_sampled() {
        // The tier must not consume RNG draws: the same campaign with a
        // different tier samples identical banks/threshold/technique.
        let exact = two_cohorts();
        let mut fast = two_cohorts();
        for cohort in &mut fast.cohorts {
            cohort.backend = BackendSpec::Fast;
        }
        for i in 0..5 {
            let a = exact.device(i).expect("in range");
            let b = fast.device(i).expect("in range");
            assert_eq!(a.backend, BackendSpec::Exact);
            assert_eq!(b.backend, BackendSpec::Fast);
            assert_eq!(b.run_config().backend, BackendSpec::Fast);
            assert_eq!(
                (a.banks, a.flip_threshold, a.technique),
                (b.banks, b.flip_threshold, b.technique),
                "device {i}: backend tier perturbed sampling"
            );
        }
    }

    #[test]
    fn weak_cell_spec_is_copied_not_sampled() {
        // Like the backend tier, the weak-cell model must not consume
        // RNG draws: the same campaign with a sampled map draws
        // identical banks/threshold/technique per device.
        let uniform = two_cohorts();
        let mut sampled = two_cohorts();
        let spec = WeakCellSpec::Sampled {
            seed: 5,
            strong: 4096,
            weak_lo: 1024,
            weak_hi: 2048,
            weak_per_mille: 50,
        };
        for cohort in &mut sampled.cohorts {
            cohort.weak_cells = Some(spec);
        }
        for i in 0..5 {
            let a = uniform.device(i).expect("in range");
            let b = sampled.device(i).expect("in range");
            assert_eq!(a.weak_cells, None);
            assert_eq!(b.weak_cells, Some(spec));
            assert_eq!(b.run_config().weak_cells, spec);
            assert_eq!(
                (a.banks, a.flip_threshold, a.technique),
                (b.banks, b.flip_threshold, b.technique),
                "device {i}: weak-cell model perturbed sampling"
            );
        }
    }

    #[test]
    fn pre_weakmap_campaign_json_parses_as_none() {
        // Campaign files written before the weak_cells field existed
        // carry no such key; they must keep meaning the uniform model.
        let spec = two_cohorts();
        let json = serde_json::to_string(&spec).expect("serializes");
        let stripped = json.replace(",\"weak_cells\":null", "");
        assert_ne!(json, stripped, "test must actually strip the field");
        let back: CampaignSpec = serde_json::from_str(&stripped).expect("parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn pre_tier_campaign_json_parses_as_exact() {
        // Campaign files written before the backend field existed carry
        // no "backend" key; they must keep meaning the exact tier.
        let spec = two_cohorts();
        let json = serde_json::to_string(&spec).expect("serializes");
        let stripped = json.replace(",\"backend\":\"exact\"", "");
        assert_ne!(json, stripped, "test must actually strip the field");
        let back: CampaignSpec = serde_json::from_str(&stripped).expect("parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = two_cohorts();
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: CampaignSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(spec, back);
    }
}
