//! Table I — simulated system specifications.

use crate::config::{table1_rows, ExperimentScale};
use crate::table::TextTable;

/// Renders Table I for the given scale.
pub fn render(scale: &ExperimentScale) -> String {
    let mut table = TextTable::new(vec!["parameter", "value"]);
    for (k, v) in table1_rows(scale) {
        table.row(vec![k, v]);
    }
    table.render()
}

/// Everything `rh table1` prints. The paper's Table I is the `full`
/// scale.
pub fn report(scale: &ExperimentScale) -> String {
    format!(
        "Table I — simulated system specifications\n\n{}",
        render(scale)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_parameters() {
        let s = render(&ExperimentScale::full());
        assert!(s.contains("refresh window"));
        assert!(s.contains("139 K"));
        assert!(s.lines().count() > 10);
    }
}
