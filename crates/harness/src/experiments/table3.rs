//! Table III — the full comparison: LUTs (DDR4/DDR3), vulnerability,
//! activation overhead μ ± σ, false-positive rate.
//!
//! LUT columns come from the `rh-hwmodel` area model; the overhead/FPR
//! columns are measured on the mixed trace across seeds; the
//! "Vulnerable" column reports the literature classification (see
//! [`rh_hwmodel::reference`]) — it is a qualitative property of each
//! design (static probabilities beatable by adaptive multi-aggressor
//! patterns for PARA/MRLoc, the slow linear ramp for LiPRoMi) — next to
//! our measured quantitative evidence from the adversarial suite
//! ([`crate::experiments::vulnerability`]).

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::fig4;
use crate::metrics::MeanStd;
use crate::table::TextTable;
use dram_sim::DramGeneration;
use rh_hwmodel::{area, reference, HwParams, Technique};

/// One regenerated row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Technique.
    pub technique: Technique,
    /// Modelled LUTs targeting DDR4.
    pub luts_ddr4: u64,
    /// Modelled LUTs targeting DDR3.
    pub luts_ddr3: u64,
    /// Literature vulnerability classification.
    pub vulnerable: bool,
    /// Measured overhead μ ± σ (%).
    pub overhead: MeanStd,
    /// Measured FPR μ (%).
    pub fpr: MeanStd,
    /// The paper's row, for side-by-side printing.
    pub paper: reference::Table3Row,
}

/// Regenerates Table III at the given scale.
pub fn run(scale: &ExperimentScale) -> Vec<Table3Result> {
    let points = fig4::run(scale);
    let params = hw_params(&RunConfig::paper(scale));
    points
        .into_iter()
        .map(|p| {
            let paper = *reference::table3_row(p.technique).expect("table3 technique");
            Table3Result {
                technique: p.technique,
                luts_ddr4: area::area(p.technique, &params, DramGeneration::Ddr4).total(),
                luts_ddr3: area::area(p.technique, &params, DramGeneration::Ddr3).total(),
                vulnerable: paper.vulnerable,
                overhead: p.overhead,
                fpr: p.fpr,
                paper,
            }
        })
        .collect()
}

/// Derives the hardware-model parameters from a run configuration.
pub fn hw_params(config: &RunConfig) -> HwParams {
    let g = &config.geometry;
    let mut params = HwParams::paper();
    params.banks = g.banks();
    params.row_bits = u32::BITS - (g.rows_per_bank() - 1).leading_zeros();
    params.interval_bits = u32::BITS - (g.intervals_per_window() - 1).leading_zeros();
    params.cra_counters = g.rows_per_bank();
    params
}

/// Renders the regenerated table, paper values in brackets.
pub fn render(results: &[Table3Result]) -> String {
    let para_ddr4 = results
        .iter()
        .find(|r| r.technique == Technique::Para)
        .map_or(1, |r| r.luts_ddr4)
        .max(1);
    let mut table = TextTable::new(vec![
        "technique",
        "LUTs DDR4 (model | paper)",
        "rel. PARA",
        "LUTs DDR3 (model | paper)",
        "vulnerable",
        "overhead % (measured | paper)",
        "FPR % (measured | paper)",
    ]);
    for r in results {
        table.row(vec![
            r.technique.to_string(),
            format!("{} | {}", r.luts_ddr4, r.paper.luts_ddr4),
            format!("{:.1}x", r.luts_ddr4 as f64 / para_ddr4 as f64),
            format!("{} | {}", r.luts_ddr3, r.paper.luts_ddr3),
            if r.vulnerable { "Yes" } else { "No" }.into(),
            format!(
                "{} | {:.4} ± {:.4}",
                r.overhead, r.paper.overhead_mean, r.paper.overhead_std
            ),
            format!("{:.4} | {:.3}", r.fpr.mean, r.paper.fpr),
        ]);
    }
    table.render()
}

/// Everything `rh table3` prints.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Table III — comparison with state-of-the-art RH mitigation solutions\n\n{}",
        render(&run(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_has_nine_rows_and_sane_columns() {
        let results = run(&ExperimentScale::quick());
        assert_eq!(results.len(), 9);
        for r in &results {
            assert!(r.luts_ddr3 >= r.luts_ddr4, "{}", r.technique);
            assert!(r.overhead.mean >= 0.0);
        }
        // The vulnerability column matches the paper.
        let vulnerable: Vec<Technique> = results
            .iter()
            .filter(|r| r.vulnerable)
            .map(|r| r.technique)
            .collect();
        assert_eq!(
            vulnerable,
            vec![Technique::MrLoc, Technique::Para, Technique::LiPromi]
        );
        assert!(render(&results).contains("PARA"));
    }
}
