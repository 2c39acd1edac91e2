//! Minimal fixed-width text tables for experiment output.
//!
//! Every figure/table reproduction prints its rows through [`TextTable`] so
//! the output of `lukewarm figure` lines up in readable columns (and can be
//! pasted into `EXPERIMENTS.md` verbatim).

use std::fmt;

/// A simple text table with a header row and left-aligned first column.
///
/// # Examples
///
/// ```
/// use luke_common::table::TextTable;
///
/// let mut t = TextTable::new(&["function", "speedup"]);
/// t.row(&["Auth-G".to_string(), "29.5%".to_string()]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("Auth-G"));
/// assert!(rendered.contains("speedup"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of displayable cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_display<D: fmt::Display>(&mut self, cells: &[D]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    write!(f, "{:<width$}", cell, width = widths[0])?;
                } else {
                    write!(f, "  {:>width$}", cell, width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio as a percentage string with one decimal, e.g. `0.187`
/// becomes `"18.7%"`.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

/// Formats a value with a fixed number of decimals.
pub fn fixed(value: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_separator_and_rows() {
        let mut t = TextTable::new(&["a", "bbb"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["yy".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("x "));
    }

    #[test]
    fn columns_align() {
        let mut t = TextTable::new(&["name", "v"]);
        t.row(&["longer-name".into(), "1".into()]);
        t.row(&["s".into(), "100".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // All lines equal width (right-aligned numeric column).
        let w = lines[2].len();
        assert_eq!(lines[3].len(), w);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn row_display_converts() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row_display(&[1.5, 2.5]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn pct_and_fixed_format() {
        assert_eq!(pct(0.187), "18.7%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(fixed(1.23456, 2), "1.23");
    }
}
