//! # rh-baselines — state-of-the-art row-hammer mitigation baselines
//!
//! The five comparison techniques evaluated against TiVaPRoMi in the
//! paper (§II, §IV), re-implemented from their original publications and
//! driven through the same [`Mitigation`](tivapromi::Mitigation) trait:
//!
//! | Technique | Source | Class | Extra-refresh style |
//! |---|---|---|---|
//! | [`Para`] | Kim et al., ISCA 2014 | static probabilistic | one random neighbor |
//! | [`ProHit`] | Son et al., DAC 2017 | probabilistic tables | hot-table top, once per interval |
//! | [`MrLoc`] | You & Yang, DAC 2019 | locality-weighted probabilistic | queued victim |
//! | [`TwiCe`] | Lee et al., ISCA 2019 | pruned tabled counters | `act_n` both neighbors |
//! | [`Cra`] | Kim et al., CAL 2015 | counter per row | `act_n` both neighbors |
//! | [`CounterTree`] | Seyedzadeh et al., ISCA 2018 | adaptive tree of counters | `act_n` both neighbors |
//!
//! `CounterTree` (CAT) is included beyond the paper's Fig. 4 set as the
//! tree-based approach discussed in §II, and [`Graphene`] (Park et al.,
//! MICRO 2020) as the contemporaneous Misra–Gries tracker.
//!
//! ## Example
//!
//! ```
//! use rh_baselines::Para;
//! use tivapromi::Mitigation;
//! use dram_sim::{BankId, Geometry, RowAddr};
//!
//! let mut para = Para::paper(&Geometry::paper(), 7);
//! let mut actions = Vec::new();
//! for _ in 0..100_000 {
//!     para.on_activate(BankId(0), RowAddr(500), &mut actions);
//! }
//! // p = 0.001 → ≈ 100 triggers over 100 K activations.
//! assert!(actions.len() > 50 && actions.len() < 200);
//! ```

pub mod cat;
pub mod cra;
pub mod dispatch;
pub mod graphene;
pub mod mrloc;
pub mod para;
pub mod prohit;
pub mod twice;

pub use cat::CounterTree;
pub use cra::Cra;
pub use dispatch::AnyMitigation;
pub use graphene::Graphene;
pub use mrloc::MrLoc;
pub use para::Para;
pub use prohit::ProHit;
pub use twice::TwiCe;

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Geometry;
    use tivapromi::Mitigation;

    #[test]
    fn storage_ordering_matches_figure_4() {
        // PARA is stateless; ProHit and MRLoc are small tables; TWiCe is
        // kilobytes; CRA is the largest (a counter per row).
        let g = Geometry::paper();
        let para = Para::paper(&g, 1).storage_bytes_per_bank();
        let prohit = ProHit::paper(&g, 1).storage_bytes_per_bank();
        let mrloc = MrLoc::paper(&g, 1).storage_bytes_per_bank();
        let twice = TwiCe::paper(&g).storage_bytes_per_bank();
        let cra = Cra::paper(&g).storage_bytes_per_bank();
        assert_eq!(para, 0.0);
        assert!(prohit > 0.0 && prohit < 100.0);
        assert!(mrloc > prohit && mrloc < 1000.0);
        assert!(twice > 1000.0 && twice < 10_000.0);
        assert!(cra > 100_000.0);
    }
}
