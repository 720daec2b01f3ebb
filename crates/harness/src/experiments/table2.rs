//! Table II — FSM clock cycles per observed `act` and `ref` command.

use crate::config::ExperimentScale;
use crate::table::TextTable;
use dram_sim::DramTiming;
use rh_hwmodel::{fsm_cycles, reference, HwParams, Technique};

/// One regenerated column of Table II, with the paper's value alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Result {
    /// Technique.
    pub technique: Technique,
    /// Modelled cycles after `act`.
    pub act: u32,
    /// Modelled cycles after `ref`.
    pub refresh: u32,
    /// Paper's cycles after `act`.
    pub paper_act: u32,
    /// Paper's cycles after `ref`.
    pub paper_refresh: u32,
}

/// Regenerates Table II from the FSM model.
pub fn run() -> Vec<Table2Result> {
    let params = HwParams::paper();
    reference::TABLE2
        .iter()
        .map(|col| {
            let c = fsm_cycles(col.technique, &params);
            Table2Result {
                technique: col.technique,
                act: c.act,
                refresh: c.refresh,
                paper_act: col.act,
                paper_refresh: col.refresh,
            }
        })
        .collect()
}

/// Renders the regenerated table with budgets.
pub fn render(results: &[Table2Result]) -> String {
    let budget = DramTiming::ddr4().cycle_budget();
    let mut table = TextTable::new(vec![
        "command",
        "budget",
        "CaPRoMi",
        "LoLiPRoMi",
        "LoPRoMi",
        "LiPRoMi",
    ]);
    let find = |t: Technique| results.iter().find(|r| r.technique == t).expect("present");
    let act_row: Vec<String> = vec![
        "act".into(),
        budget.act_cycles.to_string(),
        find(Technique::CaPromi).act.to_string(),
        find(Technique::LoLiPromi).act.to_string(),
        find(Technique::LoPromi).act.to_string(),
        find(Technique::LiPromi).act.to_string(),
    ];
    let ref_row: Vec<String> = vec![
        "ref".into(),
        budget.ref_cycles.to_string(),
        find(Technique::CaPromi).refresh.to_string(),
        find(Technique::LoLiPromi).refresh.to_string(),
        find(Technique::LoPromi).refresh.to_string(),
        find(Technique::LiPromi).refresh.to_string(),
    ];
    table.row(act_row);
    table.row(ref_row);
    table.render()
}

/// Everything `rh table2` prints: the table and whether every cell
/// equals the paper's. Table II depends on no scale.
pub fn report(_scale: &ExperimentScale) -> String {
    let results = run();
    let exact = results
        .iter()
        .all(|r| r.act == r.paper_act && r.refresh == r.paper_refresh);
    format!(
        "Table II — clock cycles per FSM loop (DDR4, 1.2 GHz)\n\n{}\npaper agreement: {}\n",
        render(&results),
        if exact { "exact" } else { "deviations present" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reproduces_paper_exactly() {
        for r in run() {
            assert_eq!(r.act, r.paper_act, "{}", r.technique);
            assert_eq!(r.refresh, r.paper_refresh, "{}", r.technique);
        }
    }

    #[test]
    fn render_contains_budgets_and_values() {
        let s = render(&run());
        assert!(s.contains("54"));
        assert!(s.contains("420"));
        assert!(s.contains("258"));
    }
}
