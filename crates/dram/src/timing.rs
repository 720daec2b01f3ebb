//! DRAM timing parameters and mitigation cycle budgets.
//!
//! Table I of the paper fixes the DDR4 timing the whole evaluation runs
//! on; §IV additionally ports every mitigation to a slower DDR3 FPGA
//! controller.  The [`CycleBudget`] type captures the key consequence for
//! a memory-controller-level mitigation: one FSM loop after an `act` must
//! finish within the activate-to-activate time, and one loop after `ref`
//! within the refresh time.

use serde::{Deserialize, Serialize};

/// Which DRAM generation a timing set models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DramGeneration {
    /// DDR4 per JESD79-4, the paper's primary target (ASIC, 1.2 GHz).
    Ddr4,
    /// DDR3 as implemented by the FPGA controller of §IV (320 MHz).
    Ddr3,
    /// DDR5 per JESD79-5 (forward-looking extension: 32 ms window,
    /// 3.9 µs tREFI).
    Ddr5,
}

impl std::fmt::Display for DramGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramGeneration::Ddr4 => write!(f, "DDR4"),
            DramGeneration::Ddr3 => write!(f, "DDR3"),
            DramGeneration::Ddr5 => write!(f, "DDR5"),
        }
    }
}

/// Timing parameters of the simulated memory (Table I).
///
/// ```
/// use dram_sim::DramTiming;
/// let t = DramTiming::ddr4();
/// assert_eq!(t.refresh_window_ms, 64.0);
/// let budget = t.cycle_budget();
/// assert_eq!(budget.act_cycles, 54);   // 45 ns at 1.2 GHz
/// assert_eq!(budget.ref_cycles, 420);  // 350 ns at 1.2 GHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Generation this timing set belongs to.
    pub generation: DramGeneration,
    /// Refresh window (all rows refreshed once) in milliseconds.
    pub refresh_window_ms: f64,
    /// Refresh interval (one `REF` command) in microseconds.
    pub refresh_interval_us: f64,
    /// Minimum activate-to-activate time (tRC) in nanoseconds.
    pub act_to_act_ns: f64,
    /// Refresh execution time (tRFC) in nanoseconds.
    pub refresh_time_ns: f64,
    /// Clock frequency available to the mitigation logic in GHz.
    pub frequency_ghz: f64,
}

/// Cycle budgets available to a mitigation FSM between commands.
///
/// Derived from [`DramTiming`]: the FSM must return to `idle` before the
/// next command of the same bank can arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CycleBudget {
    /// Cycles available after an `act` (one FSM loop from idle to idle).
    pub act_cycles: u32,
    /// Cycles available after a `ref`.
    pub ref_cycles: u32,
}

impl DramTiming {
    /// DDR4 timing from Table I: 64 ms window, 7.8 µs interval, 45 ns
    /// activate-to-activate, 350 ns refresh, 1.2 GHz.
    pub fn ddr4() -> Self {
        DramTiming {
            generation: DramGeneration::Ddr4,
            refresh_window_ms: 64.0,
            refresh_interval_us: 7.8,
            act_to_act_ns: 45.0,
            refresh_time_ns: 350.0,
            frequency_ghz: 1.2,
        }
    }

    /// DDR3 timing as used for the FPGA port in §IV.  Same protocol-level
    /// windows, but the mitigation logic only runs at 320 MHz, which
    /// shrinks the cycle budgets by ~3.75× and forces the parallelised
    /// implementations compared in Table III.
    pub fn ddr3() -> Self {
        DramTiming {
            generation: DramGeneration::Ddr3,
            refresh_window_ms: 64.0,
            refresh_interval_us: 7.8,
            act_to_act_ns: 45.0,
            refresh_time_ns: 350.0,
            frequency_ghz: 0.32,
        }
    }

    /// DDR5-class timing (extension beyond the paper): the refresh
    /// window halves to 32 ms and tREFI to 3.9 µs, keeping RefInt ≈ 8192
    /// but halving the attacker's per-interval activation budget —
    /// which is exactly the knob the CaPRoMi counter-table sizing
    /// argument depends on.
    pub fn ddr5() -> Self {
        DramTiming {
            generation: DramGeneration::Ddr5,
            refresh_window_ms: 32.0,
            refresh_interval_us: 3.9,
            act_to_act_ns: 46.0,
            refresh_time_ns: 295.0,
            frequency_ghz: 1.6,
        }
    }

    /// Number of refresh intervals per window implied by the timing
    /// (≈ 8192 for 64 ms / 7.8 µs).
    #[allow(
        clippy::cast_possible_truncation,
        reason = "physical timing ratios are a few thousand at most, far inside u32"
    )]
    pub fn intervals_per_window(&self) -> u32 {
        ((self.refresh_window_ms * 1000.0) / self.refresh_interval_us).round() as u32
    }

    /// Maximum number of activations a bank can absorb in one refresh
    /// interval: `(refresh_interval − tRFC) / tRC`, i.e. the interval
    /// minus the time consumed by the refresh itself — the
    /// "165 activations" DDR4 bound quoted from TWiCe and used for the
    /// CaPRoMi counter-table sizing argument.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a few hundred activations per interval for any real timing set"
    )]
    pub fn max_activations_per_interval(&self) -> u32 {
        ((self.refresh_interval_us * 1000.0 - self.refresh_time_ns) / self.act_to_act_ns).floor()
            as u32
    }

    /// Cycle budget available to a mitigation FSM running at this
    /// timing's clock.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "cycle counts per DRAM command are double digits for any real clock"
    )]
    pub fn cycle_budget(&self) -> CycleBudget {
        CycleBudget {
            act_cycles: (self.act_to_act_ns * self.frequency_ghz).floor() as u32,
            ref_cycles: (self.refresh_time_ns * self.frequency_ghz).floor() as u32,
        }
    }

    /// The refresh interval (tREFI) in cycles of this timing's clock,
    /// floored like [`DramTiming::cycle_budget`] — the period of the
    /// cycle tier's interval clock.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a refresh interval is a few thousand cycles for any real clock"
    )]
    pub fn refresh_interval_cycles(&self) -> u64 {
        (self.refresh_interval_us * 1000.0 * self.frequency_ghz).floor() as u64
    }
}

impl Default for DramTiming {
    /// Defaults to DDR4 (the paper's primary configuration).
    fn default() -> Self {
        DramTiming::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_budget_matches_section_iv() {
        // "one loop in the FSM … after receiving act should not exceed
        //  45 ns, which is equivalent to 54 clock cycles. For a loop in
        //  the FSM after ref, it should not exceed 350 ns, which is
        //  equivalent to 420 clock cycles."
        let b = DramTiming::ddr4().cycle_budget();
        assert_eq!(b.act_cycles, 54);
        assert_eq!(b.ref_cycles, 420);
        // tREFI: 7.8 µs at 1.2 GHz.
        assert_eq!(DramTiming::ddr4().refresh_interval_cycles(), 9360);
    }

    #[test]
    fn ddr3_budget_is_much_tighter() {
        let b = DramTiming::ddr3().cycle_budget();
        assert_eq!(b.act_cycles, 14); // 45 ns at 320 MHz
        assert_eq!(b.ref_cycles, 112); // 350 ns at 320 MHz
        assert!(b.act_cycles < DramTiming::ddr4().cycle_budget().act_cycles);
    }

    #[test]
    fn intervals_per_window_is_8192ish() {
        // 64 ms / 7.8 µs = 8205; the JEDEC nominal count is 8192.  The
        // paper (and Geometry::paper) round to the nominal 8192.
        let n = DramTiming::ddr4().intervals_per_window();
        assert!((8190..=8210).contains(&n), "got {n}");
    }

    #[test]
    fn max_activations_per_interval_is_165ish() {
        // TWiCe's DDR4 bound quoted by the paper: 165 activations.
        let m = DramTiming::ddr4().max_activations_per_interval();
        assert_eq!(m, 165);
    }

    #[test]
    fn generations_display() {
        assert_eq!(DramGeneration::Ddr4.to_string(), "DDR4");
        assert_eq!(DramGeneration::Ddr3.to_string(), "DDR3");
    }

    #[test]
    fn ddr5_keeps_ref_int_but_halves_the_activation_budget() {
        let t = DramTiming::ddr5();
        let n = t.intervals_per_window();
        assert!((8190..=8210).contains(&n), "RefInt {n}");
        // Half of DDR4's 165: the flooding attacker gets ~78 shots per
        // interval, so a DDR5 CaPRoMi could halve its counter table.
        let m = t.max_activations_per_interval();
        assert!((70..=80).contains(&m), "max acts {m}");
        // And the mitigation FSMs still fit the budget comfortably.
        let b = t.cycle_budget();
        assert!(b.act_cycles >= 54, "act budget {}", b.act_cycles);
    }
}
