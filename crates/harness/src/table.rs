//! Minimal text-table rendering for the experiment reports.

/// A simple left-aligned text table.
///
/// ```
/// use rh_harness::TextTable;
/// let mut t = TextTable::new(vec!["technique", "overhead %"]);
/// t.row(vec!["PARA".into(), "0.1".into()]);
/// let s = t.render();
/// assert!(s.contains("PARA"));
/// assert!(s.lines().count() >= 3); // header, rule, row
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', widths[c] - cell.len()));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat_n('-', rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // "b" column starts at the same offset in every row.
        let col = lines[0].find('b').unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
        assert_eq!(&lines[3][col..col + 2], "22");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        TextTable::new(vec!["a"]).row(vec!["1".into(), "2".into()]);
    }
}
