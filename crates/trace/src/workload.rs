//! The SPEC-like benign workload generator.
//!
//! Calibration targets (Table I and §IV of the paper):
//!
//! * ≈ 28 activations per bank per refresh interval on average for the
//!   benign mix (so that benign + ramping attacker traffic averages the
//!   paper's ≈ 40 per bank-interval and totals ≈ 175 M activations over
//!   1.56 M intervals on 4 banks);
//! * bursty per-interval counts bounded by the DDR4 maximum of 165;
//! * strong row-popularity skew: caches filter most locality, but
//!   row-buffer-level hot rows (stack, hot heap, code pages) still absorb
//!   the bulk of activations — the generator uses phased working sets
//!   with Zipf-distributed popularity.

use crate::event::{TraceEvent, TraceSource, TraceSplit};
use crate::zipf::Zipf;
use dram_sim::{bank_seed, BankId, Geometry, RowAddr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the benign workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of banks receiving traffic.
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Mean activations per bank per refresh interval (Poisson).
    pub mean_acts_per_interval: f64,
    /// Hard per-bank-per-interval cap (DDR4: 165).
    pub max_acts_per_interval: u32,
    /// Size of each phase's hot working set (rows per bank).  The
    /// default of 8 models post-cache residual row activity: caches
    /// absorb most locality, so only a handful of rows per bank sustain
    /// high *activation* rates — which is also what makes the paper's
    /// 32-entry history table sufficient ("the best optimization based
    /// on the simulated memory traces").  The hot rows are drawn distinct
    /// and non-adjacent, which needs `rows_per_bank ≥ 3·hot_rows − 2`.
    pub hot_rows: usize,
    /// Zipf exponent over the hot set.
    pub zipf_exponent: f64,
    /// Probability that an access goes to the hot set (vs. a uniformly
    /// random cold row).
    pub locality: f64,
    /// Phase length in refresh intervals: the hot set is re-drawn at
    /// every phase boundary, modelling program phases in the SPEC mix.
    pub phase_intervals: u64,
    /// Number of refresh intervals to generate.
    pub intervals: u64,
}

impl WorkloadConfig {
    /// The calibrated paper-like configuration for `geometry`, sized to
    /// run for 16 refresh windows (scale the `intervals` field up for
    /// full-length runs).
    pub fn paper(geometry: &Geometry) -> Self {
        WorkloadConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            mean_acts_per_interval: 28.0,
            max_acts_per_interval: 165,
            hot_rows: 8,
            zipf_exponent: 1.1,
            locality: 0.95,
            phase_intervals: u64::from(geometry.intervals_per_window()) * 2,
            intervals: u64::from(geometry.intervals_per_window()) * 16,
        }
    }

    /// Returns a copy with a different total length.
    pub fn with_intervals(mut self, intervals: u64) -> Self {
        self.intervals = intervals;
        self
    }

    /// Returns a copy with a different mean activation rate.
    pub fn with_mean_rate(mut self, mean: f64) -> Self {
        self.mean_acts_per_interval = mean;
        self
    }
}

/// Per-bank generator state: each bank owns its working set *and* its
/// pseudo-random stream (derived from the run seed and the bank id via
/// [`bank_seed`]), so a bank's event stream is a pure function of
/// `(seed, bank, interval)` — independent of which other banks exist.
/// That is what makes the workload bank-shardable.
#[derive(Debug)]
struct BankState {
    id: BankId,
    hot_set: Vec<RowAddr>,
    rng: StdRng,
}

impl BankState {
    fn new(config: &WorkloadConfig, seed: u64, id: BankId) -> Self {
        let mut rng = StdRng::seed_from_u64(bank_seed(seed, id));
        let mut hot_set = Vec::with_capacity(config.hot_rows);
        SpecLikeWorkload::draw_hot_set(config, &mut rng, &mut hot_set);
        BankState { id, hot_set, rng }
    }
}

/// The phased, Zipf-skewed benign workload.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct SpecLikeWorkload {
    config: WorkloadConfig,
    /// `exp(-mean)`, the Poisson draw's stopping bound.
    poisson_floor: f64,
    zipf: Zipf,
    banks: Vec<BankState>,
    seed: u64,
    interval: u64,
}

impl SpecLikeWorkload {
    /// Creates the generator with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero banks or rows,
    /// `hot_rows` of zero, or a locality outside `[0, 1]`) or the bank
    /// has fewer than `3·hot_rows − 2` rows (see
    /// [`WorkloadConfig::hot_rows`]).
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        Self::validate(&config);
        let banks = (0..config.banks)
            .map(|b| BankState::new(&config, seed, BankId(b)))
            .collect();
        SpecLikeWorkload {
            poisson_floor: (-config.mean_acts_per_interval).exp(),
            zipf: Zipf::new(config.hot_rows, config.zipf_exponent),
            config,
            banks,
            seed,
            interval: 0,
        }
    }

    fn validate(config: &WorkloadConfig) {
        assert!(
            config.banks > 0 && config.rows_per_bank > 0,
            "empty geometry"
        );
        assert!(config.hot_rows > 0, "hot set must be nonempty");
        // The hot-set draw accepts any free row and never backtracks;
        // each accepted row rules out itself and both neighbours, so
        // only `rows_per_bank ≥ 3·hot_rows − 2` guarantees a free row
        // is left for every draw.  Below it the draw can corner itself
        // and spin forever (at `2·hot_rows − 1` rows one odd first pick
        // already does).
        let needed = config.hot_rows.saturating_mul(3) - 2;
        assert!(
            config.rows_per_bank as usize >= needed,
            "hot_rows = {} needs rows_per_bank ≥ 3·hot_rows − 2 = {needed} \
             (distinct, non-adjacent hot rows), got {}",
            config.hot_rows,
            config.rows_per_bank
        );
        assert!(
            (0.0..=1.0).contains(&config.locality),
            "locality must be a probability"
        );
    }

    /// Refills `set` in place with a fresh hot set.
    fn draw_hot_set(config: &WorkloadConfig, rng: &mut StdRng, set: &mut Vec<RowAddr>) {
        // Hot rows are distinct and non-adjacent: they model different
        // hot pages, and two adjacent hot rows would double-disturb the
        // row between them — benign traffic alone must never approach
        // the flip threshold.
        set.clear();
        while set.len() < config.hot_rows {
            let candidate = RowAddr(rng.random_range(0..config.rows_per_bank));
            if set.iter().all(|r| r.0.abs_diff(candidate.0) > 1) {
                set.push(candidate);
            }
        }
    }

    /// Draws a Poisson count with the configured mean (Knuth's method —
    /// the mean is small, so this is fast and allocation-free); `floor`
    /// is `exp(-mean)`.
    fn poisson(config: &WorkloadConfig, floor: f64, rng: &mut StdRng) -> u32 {
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= floor {
                return k;
            }
            k += 1;
            if k >= config.max_acts_per_interval {
                return config.max_acts_per_interval;
            }
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The current hot set of a bank (diagnostic/calibration).
    ///
    /// # Panics
    ///
    /// Panics if this instance does not generate traffic for `bank`
    /// (out of range, or restricted away by [`TraceSplit::bank_shard`]).
    pub fn hot_set(&self, bank: BankId) -> &[RowAddr] {
        &self
            .banks
            .iter()
            .find(|b| b.id == bank)
            .expect("bank not generated by this instance")
            .hot_set
    }
}

impl TraceSource for SpecLikeWorkload {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        if self.interval >= self.config.intervals {
            return false;
        }
        let redraw = self.interval > 0 && self.interval.is_multiple_of(self.config.phase_intervals);
        // Bank-major emission: each bank's events come from its own
        // stream, in bank order, so the per-bank sub-sequence never
        // depends on the other banks' draws.
        for bank in &mut self.banks {
            // Phase boundary: re-draw this bank's working set.
            if redraw {
                Self::draw_hot_set(&self.config, &mut bank.rng, &mut bank.hot_set);
            }
            let n = Self::poisson(&self.config, self.poisson_floor, &mut bank.rng);
            for _ in 0..n {
                let hot: bool = bank.rng.random_bool(self.config.locality);
                let row = if hot {
                    let rank = self.zipf.sample(&mut bank.rng);
                    bank.hot_set[rank]
                } else {
                    RowAddr(bank.rng.random_range(0..self.config.rows_per_bank))
                };
                out.push(TraceEvent::benign(bank.id, row));
            }
        }
        self.interval += 1;
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.config.intervals)
    }
}

impl TraceSplit for SpecLikeWorkload {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        if self.banks.iter().any(|b| b.id == bank) {
            Box::new(SpecLikeWorkload {
                poisson_floor: self.poisson_floor,
                zipf: self.zipf.clone(),
                config: self.config,
                banks: vec![BankState::new(&self.config, self.seed, bank)],
                seed: self.seed,
                interval: 0,
            })
        } else {
            Box::new(crate::event::IdleTrace::new(self.config.intervals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WorkloadConfig {
        WorkloadConfig::paper(&Geometry::scaled_down(64)).with_intervals(500)
    }

    #[test]
    fn produces_configured_interval_count() {
        let mut w = SpecLikeWorkload::new(config(), 1);
        let mut out = Vec::new();
        let mut n = 0;
        while w.next_interval(&mut out) {
            n += 1;
        }
        assert_eq!(n, 500);
        assert_eq!(w.intervals_hint(), Some(500));
    }

    #[test]
    fn mean_rate_is_near_target() {
        let cfg = config();
        let mut w = SpecLikeWorkload::new(cfg, 2);
        let mut out = Vec::new();
        while w.next_interval(&mut out) {}
        let per_bank_interval = out.len() as f64 / (500.0 * f64::from(cfg.banks));
        assert!(
            (per_bank_interval - 28.0).abs() < 2.0,
            "mean {per_bank_interval}"
        );
    }

    #[test]
    fn respects_per_interval_cap() {
        let cfg = config().with_mean_rate(150.0);
        let mut w = SpecLikeWorkload::new(cfg, 3);
        let mut out = Vec::new();
        while {
            out.clear();
            w.next_interval(&mut out)
        } {
            assert!(out.len() as u32 <= cfg.max_acts_per_interval * cfg.banks);
        }
    }

    #[test]
    fn all_events_are_benign_and_in_range() {
        let cfg = config();
        let mut w = SpecLikeWorkload::new(cfg, 4);
        let mut out = Vec::new();
        while w.next_interval(&mut out) {}
        for e in &out {
            assert!(!e.aggressor);
            assert!(e.row.0 < cfg.rows_per_bank);
            assert!(e.bank.0 < cfg.banks);
        }
    }

    #[test]
    fn popularity_is_skewed() {
        // The hottest 32 rows must absorb the majority of accesses —
        // this is the property the TiVaPRoMi history table exploits.
        let cfg = config();
        let mut w = SpecLikeWorkload::new(cfg, 5);
        let mut out = Vec::new();
        while w.next_interval(&mut out) {}
        let mut counts = std::collections::BTreeMap::new();
        let bank0 = out.iter().filter(|e| e.bank == BankId(0));
        let mut total = 0u64;
        for e in bank0 {
            *counts.entry(e.row).or_insert(0u64) += 1;
            total += 1;
        }
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top32: u64 = by_count.iter().take(32).sum();
        let coverage = top32 as f64 / total as f64;
        assert!(coverage > 0.6, "top-32 coverage {coverage}");
    }

    #[test]
    fn phases_change_working_sets() {
        let mut cfg = config();
        cfg.phase_intervals = 50;
        let mut w = SpecLikeWorkload::new(cfg, 6);
        let before = w.hot_set(BankId(0)).to_vec();
        let mut out = Vec::new();
        for _ in 0..60 {
            w.next_interval(&mut out);
        }
        assert_ne!(before, w.hot_set(BankId(0)));
    }

    #[test]
    #[should_panic(expected = "needs rows_per_bank ≥ 3·hot_rows − 2 = 22")]
    fn bank_too_small_for_hot_set_is_rejected() {
        // 8 rows for 8 hot rows: the draw used to spin forever here.
        let _ = SpecLikeWorkload::new(WorkloadConfig::paper(&Geometry::scaled_down(8192)), 1);
    }

    #[test]
    #[should_panic(expected = "got 21")]
    fn one_row_below_the_hot_set_bound_is_rejected() {
        let mut cfg = config();
        cfg.rows_per_bank = 21;
        let _ = SpecLikeWorkload::new(cfg, 1);
    }

    #[test]
    fn smallest_admitted_bank_always_draws_its_hot_set() {
        let mut cfg = config().with_intervals(40);
        cfg.rows_per_bank = 22;
        cfg.phase_intervals = 1;
        for seed in 0..200 {
            let mut w = SpecLikeWorkload::new(cfg, seed);
            let mut out = Vec::new();
            while w.next_interval(&mut out) {}
            let mut rows: Vec<u32> = w.hot_set(BankId(0)).iter().map(|r| r.0).collect();
            rows.sort_unstable();
            assert_eq!(rows.len(), 8);
            assert!(rows.windows(2).all(|w| w[1] - w[0] > 1), "{rows:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut w = SpecLikeWorkload::new(config(), seed);
            let mut out = Vec::new();
            while w.next_interval(&mut out) {}
            out
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
