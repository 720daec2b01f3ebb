//! Closed-form analysis of the time-varying probability process.
//!
//! The simulator measures; this module *predicts*.  For a row hammered
//! at a constant rate `r` activations per refresh interval, the trigger
//! process is a discrete-time inhomogeneous Bernoulli process with
//! per-activation probability `p(i) = shape(w(i)) · P_base`, where the
//! weight `w(i)` grows by one per interval since the row's last refresh
//! or last triggered extra activation.  Closed forms for the expected
//! number of triggers and the expected first-trigger point let the test
//! suite cross-validate the simulator, the flooding experiment quantify
//! the LiPRoMi window analytically, and users size `P_base` without
//! running traces.

use crate::time_varying::WeightMode;
use crate::weight::log_weight;

/// Analytic model of one hammered row under a TiVaPRoMi variant.
///
/// ```
/// use tivapromi::{HammerModel, WeightMode};
///
/// // A full-rate flood against LiPRoMi, starting right after refresh:
/// let model = HammerModel::paper_flood(WeightMode::Linear, 165.0);
/// let first = model.expected_first_trigger_acts();
/// // The paper's §IV ballpark: tens of thousands of activations.
/// assert!(first > 20_000.0 && first < 69_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerModel {
    /// Activations of the row per refresh interval.
    pub rate_per_interval: f64,
    /// Weight shaping of the variant under analysis.
    pub mode: WeightMode,
    /// `P_base` exponent (paper: 23).
    pub p_base_exponent: u32,
    /// Weight at the moment the hammering starts (0 = worst case,
    /// right after the row's refresh).
    pub start_weight: u32,
}

impl HammerModel {
    /// The paper configuration for a flood at the worst-case phase.
    pub fn paper_flood(mode: WeightMode, rate_per_interval: f64) -> Self {
        HammerModel {
            rate_per_interval,
            mode,
            p_base_exponent: crate::P_BASE_EXPONENT,
            start_weight: 0,
        }
    }

    fn shaped_weight(&self, w: u32) -> f64 {
        match self.mode {
            WeightMode::Linear => f64::from(w),
            // The hybrid behaves logarithmically until the first trigger
            // inserts the row into the history table, which is the
            // regime this first-trigger model covers.
            WeightMode::Logarithmic | WeightMode::Hybrid => f64::from(log_weight(w)),
        }
    }

    /// Per-activation trigger probability during interval
    /// `intervals_elapsed` after the hammering started.
    pub fn probability_at(&self, intervals_elapsed: u32) -> f64 {
        let w = self.start_weight.saturating_add(intervals_elapsed);
        self.shaped_weight(w) * (2f64).powi(-(self.p_base_exponent as i32))
    }

    /// Expected number of triggers within the first `intervals` refresh
    /// intervals of hammering.
    pub fn expected_triggers(&self, intervals: u32) -> f64 {
        (0..intervals)
            .map(|i| self.rate_per_interval * self.probability_at(i))
            .sum()
    }

    /// Probability that *no* trigger happens within the first
    /// `intervals` refresh intervals (the per-attempt failure
    /// probability of a flooding attack that needs that long).
    pub fn failure_probability(&self, intervals: u32) -> f64 {
        // Π (1-p)^r ≈ exp(Σ r · ln(1-p)); the probabilities are ≤ 1e-3,
        // so the log expansion is numerically exact here.
        let log_p: f64 = (0..intervals)
            .map(|i| self.rate_per_interval * (1.0 - self.probability_at(i)).ln())
            .sum();
        log_p.exp()
    }

    /// Expected activation count of the first trigger: the mean of the
    /// first-success time of the inhomogeneous process, computed by
    /// direct summation until the survival mass is exhausted.
    pub fn expected_first_trigger_acts(&self) -> f64 {
        let mut survival = 1.0f64;
        let mut expected = 0.0f64;
        let mut interval = 0u32;
        // Survival decays at least geometrically once the weight
        // saturates, so this converges quickly.
        while survival > 1e-9 && interval < 1 << 20 {
            let p = self.probability_at(interval).min(1.0);
            // Within the interval the row is activated `rate` times,
            // each an independent Bernoulli(p) trial.
            let interval_survive = (1.0 - p).powf(self.rate_per_interval);
            expected += survival * self.rate_per_interval;
            survival *= interval_survive;
            interval += 1;
        }
        expected
    }
}

/// Tail analysis of the *retrigger* process: after a trigger inserts the
/// hammered row into the history table, its weight regrows from zero
/// under the variant's shaping.  A victim flips if a single retrigger
/// gap exceeds the flip horizon (`th_RH / rate` activations); this
/// computes that per-gap probability and the per-window failure
/// probability — the analytic form of the linear-regrowth tail finding
/// documented in the flooding experiment.
///
/// ```
/// use tivapromi::analysis::RetriggerTail;
/// use tivapromi::WeightMode;
///
/// let li = RetriggerTail::paper(WeightMode::Linear);
/// let lo = RetriggerTail::paper(WeightMode::Logarithmic);
/// // Linear regrowth leaves a percent-class per-window flip tail under
/// // sustained flooding; logarithmic regrowth closes it.
/// assert!(li.flip_probability_per_window() > 10.0 * lo.flip_probability_per_window());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetriggerTail {
    /// The hammering model after a trigger (start weight 0).
    pub model: HammerModel,
    /// Flip threshold of the device (paper: 139 000).
    pub flip_threshold: u32,
    /// Refresh intervals per window (paper: 8192).
    pub ref_int: u32,
}

impl RetriggerTail {
    /// The paper configuration for a given weight mode at the full
    /// flooding rate.
    pub fn paper(mode: WeightMode) -> Self {
        RetriggerTail {
            model: HammerModel::paper_flood(mode, 165.0),
            flip_threshold: 139_000,
            ref_int: 8192,
        }
    }

    /// The flip horizon in refresh intervals: how long one retrigger gap
    /// must last for a victim to reach the threshold.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "threshold / rate is a few thousand intervals, far inside u32"
    )]
    pub fn horizon_intervals(&self) -> u32 {
        (f64::from(self.flip_threshold) / self.model.rate_per_interval).ceil() as u32
    }

    /// Probability that one retrigger gap exceeds the flip horizon.
    pub fn gap_exceeds_horizon(&self) -> f64 {
        self.model.failure_probability(self.horizon_intervals())
    }

    /// Expected retrigger gaps per refresh window.
    pub fn gaps_per_window(&self) -> f64 {
        let mean_gap_acts = self.model.expected_first_trigger_acts();
        let window_acts = self.model.rate_per_interval * f64::from(self.ref_int);
        window_acts / mean_gap_acts.max(1.0)
    }

    /// Per-window flip probability under sustained flooding:
    /// `1 − (1 − p_gap)^gaps` (gaps are independent — each starts from
    /// weight zero).
    pub fn flip_probability_per_window(&self) -> f64 {
        let p = self.gap_exceeds_horizon();
        1.0 - (1.0 - p).powf(self.gaps_per_window())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TivaConfig;
    use crate::mitigation::Mitigation;
    use crate::time_varying::TimeVarying;
    use dram_sim::{BankId, Geometry, RowAddr};

    #[test]
    fn probability_grows_linearly_and_logarithmically() {
        let li = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let lo = HammerModel::paper_flood(WeightMode::Logarithmic, 165.0);
        assert_eq!(li.probability_at(0), 0.0);
        assert!(lo.probability_at(0) > 0.0, "log weight of 0 is 1");
        assert!(lo.probability_at(100) >= li.probability_at(100));
        // Logarithmic is at most 2× linear for w ≥ 1.
        assert!(lo.probability_at(1000) <= 2.0 * li.probability_at(1000) + 1e-12);
    }

    #[test]
    fn expected_triggers_accumulate_quadratically_for_linear() {
        let m = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let e100 = m.expected_triggers(100);
        let e200 = m.expected_triggers(200);
        let ratio = e200 / e100;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn failure_probability_is_consistent_with_expectation() {
        // For small cumulative expectation λ, P(no trigger) ≈ e^-λ.
        let m = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let lambda = m.expected_triggers(300);
        let failure = m.failure_probability(300);
        assert!((failure - (-lambda).exp()).abs() < 1e-3);
    }

    #[test]
    fn linear_flooding_window_is_wider_than_logarithmic() {
        let li = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let lo = HammerModel::paper_flood(WeightMode::Logarithmic, 165.0);
        let li_first = li.expected_first_trigger_acts();
        let lo_first = lo.expected_first_trigger_acts();
        assert!(li_first > lo_first, "Li {li_first} vs Lo {lo_first}");
        // Both well below the 69 K safety bound in expectation.
        assert!(li_first < 69_000.0);
    }

    #[test]
    fn analytic_first_trigger_matches_simulation() {
        // Cross-validation: simulate the flooding process many times and
        // compare the mean first trigger with the analytic expectation.
        let geometry = Geometry::paper().with_banks(1);
        let config = TivaConfig::paper(&geometry);
        let model = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let analytic = model.expected_first_trigger_acts();

        let mut total = 0.0f64;
        let runs = 40;
        for seed in 0..runs {
            let mut m = TimeVarying::lipromi(config, seed);
            let mut actions = Vec::new();
            let mut acts = 0u64;
            'run: loop {
                for _ in 0..165 {
                    acts += 1;
                    m.on_activate(BankId(0), RowAddr(1), &mut actions);
                    if !actions.is_empty() {
                        break 'run;
                    }
                }
                m.on_refresh_interval(&mut actions);
            }
            total += acts as f64;
        }
        let simulated = total / runs as f64;
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.25,
            "simulated {simulated} vs analytic {analytic} (rel {rel:.2})"
        );
    }

    #[test]
    fn start_weight_shrinks_the_window() {
        let worst = HammerModel::paper_flood(WeightMode::Linear, 165.0);
        let mid = HammerModel {
            start_weight: 4096,
            ..worst
        };
        assert!(mid.expected_first_trigger_acts() < worst.expected_first_trigger_acts() / 10.0);
    }

    #[test]
    fn linear_tail_is_orders_above_logarithmic() {
        let li = RetriggerTail::paper(WeightMode::Linear);
        let lo = RetriggerTail::paper(WeightMode::Logarithmic);
        assert_eq!(li.horizon_intervals(), 843);
        let li_window = li.flip_probability_per_window();
        let lo_window = lo.flip_probability_per_window();
        // The per-window rates the flooding experiment and
        // EXPERIMENTS.md quote: 2.65 % for linear regrowth, 0.142 % for
        // logarithmic.
        assert_eq!(format!("{:.2}", 100.0 * li_window), "2.65");
        assert_eq!(format!("{:.3}", 100.0 * lo_window), "0.142");
        assert!(
            lo_window < li_window / 10.0,
            "Lo {lo_window} vs Li {li_window}"
        );
    }

    #[test]
    fn tail_matches_expected_trigger_exponential() {
        let li = RetriggerTail::paper(WeightMode::Linear);
        let lambda = li.model.expected_triggers(li.horizon_intervals());
        let p = li.gap_exceeds_horizon();
        assert!((p - (-lambda).exp()).abs() / p < 0.05, "p {p} vs e^-λ");
    }
}
