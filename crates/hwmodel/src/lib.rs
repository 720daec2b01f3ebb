//! # rh-hwmodel — hardware cost models for row-hammer mitigations
//!
//! The paper implements all nine techniques in VHDL and reports (a) FSM
//! clock cycles per observed `act`/`ref` command (Table II) and (b) LUT
//! usage on a Virtex UltraScale+ XCVU9P for DDR4- and DDR3-targeted
//! variants (Table III).  VHDL synthesis is not available in this
//! environment, so this crate substitutes two analytical models:
//!
//! * [`fsm`] / [`cycles`] — an *executable* model of the Fig. 2 and
//!   Fig. 3 finite state machines.  Each FSM state carries a micro-op
//!   latency (e.g. one history entry compared per cycle, two counter
//!   entries per cycle); walking the worst-case path yields the cycle
//!   counts, which reproduce Table II exactly at the paper's table sizes
//!   and — more importantly — *scale* with table sizes for ablations.
//! * [`area`] — a component-level LUT model: each technique is
//!   decomposed into registers, comparators, CAM bits, counters,
//!   multipliers, LFSRs and control logic, with per-component LUT
//!   coefficients fitted once against the paper's synthesis results
//!   (the fit is documented next to the coefficients).  The DDR3
//!   variants replicate the search/decision logic by the parallelism
//!   factor needed to fit the 320 MHz cycle budget, reproducing the
//!   paper's observation that only PARA and CRA fit DDR3 unchanged.
//!
//! [`budget`] checks both models against the timing budgets of
//! [`dram_sim::DramTiming`].
//!
//! ## Example
//!
//! ```
//! use rh_hwmodel::{cycles, HwParams, Technique};
//!
//! let params = HwParams::paper();
//! let c = cycles::fsm_cycles(Technique::LiPromi, &params);
//! assert_eq!(c.act, 37);  // Table II
//! assert_eq!(c.refresh, 3);
//! ```

pub mod area;
pub mod budget;
pub mod cycles;
pub mod fsm;
pub mod reference;
pub mod spec;

pub use area::{AreaBreakdown, Component};
pub use budget::BudgetCheck;
pub use cycles::{fsm_cycles, CyclePair};
pub use fsm::{CounterAssistedState, TimeVaryingState};
pub use spec::{fig2_machine, fig3_machine, StateMachine};

use serde::{Deserialize, Serialize};

/// All nine techniques of the paper's comparison, plus the CAT tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// PARA (Kim et al., 2014).
    Para,
    /// ProHit (Son et al., 2017).
    ProHit,
    /// MRLoc (You & Yang, 2019).
    MrLoc,
    /// TWiCe (Lee et al., 2019).
    TwiCe,
    /// CRA (Kim et al., 2015).
    Cra,
    /// CAT counter tree (Seyedzadeh et al., 2018) — §II extension.
    Cat,
    /// Graphene Misra–Gries tracker (Park et al., 2020) — extension.
    Graphene,
    /// TiVaPRoMi linear weighting.
    LiPromi,
    /// TiVaPRoMi logarithmic weighting.
    LoPromi,
    /// TiVaPRoMi hybrid weighting.
    LoLiPromi,
    /// TiVaPRoMi counter-assisted weighting.
    CaPromi,
}

impl Technique {
    /// The nine techniques of Fig. 4 / Table III, in Table III order.
    pub const TABLE3: [Technique; 9] = [
        Technique::ProHit,
        Technique::MrLoc,
        Technique::Para,
        Technique::TwiCe,
        Technique::Cra,
        Technique::CaPromi,
        Technique::LiPromi,
        Technique::LoPromi,
        Technique::LoLiPromi,
    ];

    /// Extension techniques beyond the paper's nine.
    pub const EXTENSIONS: [Technique; 2] = [Technique::Cat, Technique::Graphene];

    /// The four TiVaPRoMi variants (Table II order).
    pub const TIVAPROMI: [Technique; 4] = [
        Technique::CaPromi,
        Technique::LoLiPromi,
        Technique::LoPromi,
        Technique::LiPromi,
    ];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Technique::Para => "PARA",
            Technique::ProHit => "ProHit",
            Technique::MrLoc => "MRLoc",
            Technique::TwiCe => "TWiCe",
            Technique::Cra => "CRA",
            Technique::Cat => "CAT",
            Technique::Graphene => "Graphene",
            Technique::LiPromi => "LiPRoMi",
            Technique::LoPromi => "LoPRoMi",
            Technique::LoLiPromi => "LoLiPRoMi",
            Technique::CaPromi => "CaPRoMi",
        }
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structural parameters the hardware models depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwParams {
    /// Banks served (one table set each).
    pub banks: u32,
    /// Row-address width in bits.
    pub row_bits: u32,
    /// Refresh-interval index width in bits.
    pub interval_bits: u32,
    /// TiVaPRoMi history entries per bank.
    pub history_entries: u32,
    /// CaPRoMi counter entries per bank.
    pub counter_entries: u32,
    /// TWiCe CAM entries per bank.
    pub twice_entries: u32,
    /// MRLoc queue entries per bank.
    pub mrloc_entries: u32,
    /// ProHit hot+cold entries per bank.
    pub prohit_entries: u32,
    /// CRA counters per bank (= rows).
    pub cra_counters: u32,
    /// CAT nodes per bank.
    pub cat_nodes: u32,
    /// `P_base` exponent (LFSR width).
    pub lfsr_bits: u32,
}

impl HwParams {
    /// The paper's evaluated configuration (Table I / §IV).
    pub fn paper() -> Self {
        HwParams {
            banks: 4,
            row_bits: 16,
            interval_bits: 13,
            history_entries: 32,
            counter_entries: 64,
            twice_entries: 595,
            mrloc_entries: 64,
            prohit_entries: 8,
            cra_counters: 65_536,
            cat_nodes: 256,
            lfsr_bits: 23,
        }
    }

    /// Returns a copy with a different history size (ablation).
    pub fn with_history_entries(mut self, entries: u32) -> Self {
        self.history_entries = entries;
        self
    }

    /// Returns a copy with a different counter-table size (ablation).
    pub fn with_counter_entries(mut self, entries: u32) -> Self {
        self.counter_entries = entries;
        self
    }
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_names_match_paper() {
        assert_eq!(Technique::Para.to_string(), "PARA");
        assert_eq!(Technique::CaPromi.to_string(), "CaPRoMi");
        assert_eq!(Technique::TABLE3.len(), 9);
        assert_eq!(Technique::TIVAPROMI.len(), 4);
    }

    #[test]
    fn paper_params_match_table_i() {
        let p = HwParams::paper();
        assert_eq!(p.history_entries, 32);
        assert_eq!(p.counter_entries, 64);
        assert_eq!(p.lfsr_bits, 23);
    }
}
