//! Experiment results as tables: the [`Dataset`] table IR and its three
//! writers.
//!
//! Every experiment builds each result table once, as a [`Dataset`] of
//! typed [`Value`] cells whose [`Column`]s carry a name, a text header and
//! a cell formatter. The same rows are then rendered three ways:
//! [`Dataset::to_text`] prints the fixed-width table behind `--emit table`
//! (the experiment's `Display` adds only its title and prose lines), and
//! [`to_json`] and [`to_csv`] write the machine-readable emissions.

use crate::json::{write_f64, write_str};
use luke_common::size::ByteSize;

/// One typed cell in a [`Dataset`] row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string cell (function names, config labels).
    Str(String),
    /// An unsigned counter (cycle counts can exceed `i64`).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point measurement.
    Float(f64),
}

impl Value {
    /// Builds a string cell.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The cell as a number: integers widen to `f64`, a string is NaN.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Str(_) => f64::NAN,
            Value::UInt(v) => *v as f64,
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => write_str(out, s),
            Value::UInt(v) => out.push_str(&v.to_string()),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => write_f64(out, *v),
        }
    }

    fn write_csv(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                if s.contains(',') || s.contains('"') || s.contains('\n') {
                    out.push('"');
                    out.push_str(&s.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(s);
                }
            }
            Value::UInt(v) => out.push_str(&v.to_string()),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                }
                // Non-finite floats leave the cell empty (CSV has no null).
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Prints one number cell of a [`Column`] in the text table. String
/// cells always print as they are.
pub type Fmt = fn(&Value) -> String;

/// One column of a [`Dataset`].
#[derive(Clone, Debug)]
pub struct Column {
    /// Header in JSON and CSV.
    pub name: String,
    /// Header in the text table; `None` leaves the column out of it.
    pub header: Option<String>,
    /// Prints the column's number cells in the text table.
    pub fmt: Fmt,
}

impl Column {
    /// A column headed `name` in every format, its cells printed by `fmt`.
    pub fn new(name: impl Into<String>, fmt: Fmt) -> Column {
        let name = name.into();
        Column {
            header: Some(name.clone()),
            name,
            fmt,
        }
    }

    /// A column only JSON and CSV carry.
    pub fn hidden(name: impl Into<String>) -> Column {
        Column {
            header: None,
            ..Column::new(name, plain)
        }
    }

    /// The same column, headed `header` in the text table.
    pub fn titled(self, header: &str) -> Column {
        Column {
            header: Some(header.to_string()),
            ..self
        }
    }
}

/// A named table of typed rows — the intermediate representation every
/// experiment's results render through.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (e.g. `"fig10.speedup"`).
    pub name: String,
    /// Columns, one per cell of each row.
    pub columns: Vec<Column>,
    /// Data rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

impl Dataset {
    /// An empty dataset with the given column names, each printed
    /// [`plain`] in the text table.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Dataset {
        Dataset::with_columns(
            name,
            columns.iter().map(|c| Column::new(*c, plain)).collect(),
        )
    }

    /// An empty dataset with the given columns.
    pub fn with_columns(name: impl Into<String>, columns: Vec<Column>) -> Dataset {
        Dataset {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count does not match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "dataset {:?}: row has {} cells, expected {}",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// The text table of every row: see [`Dataset::text_of`].
    pub fn to_text(&self) -> String {
        self.text_of(&self.rows)
    }

    /// The text table of `rows` (all or some of this dataset's): a header
    /// line, a dash rule, then one line per row. Hidden columns are left
    /// out; the first shown column is left-aligned and the rest
    /// right-aligned, two spaces apart, each as wide as its widest cell.
    pub fn text_of<'a>(&self, rows: impl IntoIterator<Item = &'a Vec<Value>>) -> String {
        let shown: Vec<(usize, &str, Fmt)> = self
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((i, c.header.as_deref()?, c.fmt)))
            .collect();
        let header: Vec<String> = shown.iter().map(|&(_, h, _)| h.to_string()).collect();
        let body: Vec<Vec<String>> = rows
            .into_iter()
            .map(|row| {
                shown
                    .iter()
                    .map(|&(i, _, fmt)| match &row[i] {
                        Value::Str(s) => s.clone(),
                        number => fmt(number),
                    })
                    .collect()
            })
            .collect();
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &body {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, &width)) in cells.iter().zip(&widths).enumerate() {
                if i == 0 {
                    out.push_str(&format!("{cell:<width$}"));
                } else {
                    out.push_str(&format!("  {cell:>width$}"));
                }
            }
            out.push('\n');
        };
        let mut out = String::new();
        line(&mut out, &header);
        let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &body {
            line(&mut out, row);
        }
        out
    }
}

/// Prints a cell as it is: integers in decimal, floats by `Display`.
pub fn plain(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(x) => x.to_string(),
    }
}

/// Prints a number with `D` decimals: `1.25` as `"1.3"` for `D = 1`.
pub fn fixed<const D: usize>(v: &Value) -> String {
    format!("{:.*}", D, v.as_f64())
}

/// Prints a ratio as a percentage with `D` decimals: `0.187` as `"18.7%"`.
pub fn pct<const D: usize>(v: &Value) -> String {
    format!("{:.*}%", D, v.as_f64() * 100.0)
}

/// Prints a ratio times 100 with `D` decimals and no sign, for columns
/// whose header carries the `%`: `0.187` as `"18.7"`.
pub fn x100<const D: usize>(v: &Value) -> String {
    format!("{:.*}", D, v.as_f64() * 100.0)
}

/// Prints a speedup ratio as a signed percent change with `D` decimals:
/// `1.187` as `"+18.7%"`.
pub fn speedup<const D: usize>(v: &Value) -> String {
    format!("{:+.*}%", D, (v.as_f64() - 1.0) * 100.0)
}

/// Prints a byte count in `KB`/`MB` units (see [`ByteSize`]).
pub fn bytes(v: &Value) -> String {
    match v {
        Value::UInt(n) => ByteSize::new(*n).to_string(),
        other => plain(other),
    }
}

/// Implemented by every experiment result that can export its numbers.
pub trait Export {
    /// The result as one or more typed datasets: every table its
    /// `Display` prints (through [`Dataset::to_text`]) plus any the text
    /// states only in prose or leaves out.
    fn datasets(&self) -> Vec<Dataset>;
}

/// Serializes datasets as
/// `{"datasets":[{"name":..,"columns":[..],"rows":[[..]]}]}`.
pub fn to_json(datasets: &[Dataset]) -> String {
    let mut out = String::from("{\"datasets\":[");
    for (i, ds) in datasets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, &ds.name);
        out.push_str(",\"columns\":[");
        for (j, col) in ds.columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_str(&mut out, &col.name);
        }
        out.push_str("],\"rows\":[");
        for (j, row) in ds.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            for (k, cell) in row.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                cell.write_json(&mut out);
            }
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serializes datasets as CSV: each dataset is a `# <name>` comment line,
/// a header row, then data rows; datasets are separated by a blank line.
pub fn to_csv(datasets: &[Dataset]) -> String {
    let mut out = String::new();
    for (i, ds) in datasets.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str("# ");
        out.push_str(&ds.name);
        out.push('\n');
        let names: Vec<&str> = ds.columns.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for row in &ds.rows {
            for (k, cell) in row.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                cell.write_csv(&mut out);
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Vec<Dataset> {
        let mut ds = Dataset::new("fig10.speedup", &["function", "jukebox", "cycles"]);
        ds.push_row(vec![
            "Auth-G".into(),
            Value::Float(1.25),
            Value::UInt(123456),
        ]);
        ds.push_row(vec![
            Value::str("GEOMEAN"),
            Value::Float(f64::NAN),
            0u64.into(),
        ]);
        vec![ds]
    }

    #[test]
    fn json_export_parses_and_keeps_columns() {
        let json = to_json(&sample());
        let v = parse(&json).unwrap();
        let ds = &v.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(ds.get("name").unwrap().as_str(), Some("fig10.speedup"));
        let cols = ds.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols.len(), 3);
        let rows = ds.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_arr().unwrap()[0].as_str(), Some("Auth-G"));
        // NaN must serialize as null, not break the document.
        assert_eq!(rows[1].as_arr().unwrap()[1], crate::json::JsonValue::Null);
    }

    #[test]
    fn csv_export_has_sections_and_quoting() {
        let mut ds = Dataset::new("t", &["a", "b"]);
        ds.push_row(vec![Value::str("x,y"), Value::str("say \"hi\"")]);
        let csv = to_csv(&[ds]);
        assert_eq!(csv, "# t\na,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn text_table_left_aligns_the_first_column_and_rules_the_header() {
        let mut ds = Dataset::with_columns(
            "t",
            vec![
                Column::new("name", plain),
                Column::new("speedup", speedup::<1>),
                Column::new("share", pct::<0>),
            ],
        );
        ds.push_row(vec!["longer-name".into(), 1.187.into(), 0.5.into()]);
        ds.push_row(vec!["s".into(), 0.9.into(), 1.0.into()]);
        assert_eq!(
            ds.to_text(),
            "name         speedup  share\n\
             ---------------------------\n\
             longer-name   +18.7%    50%\n\
             s             -10.0%   100%\n"
        );
    }

    #[test]
    fn text_table_hides_columns_retitles_and_prints_strings_as_they_are() {
        let mut ds = Dataset::with_columns(
            "t",
            vec![
                Column::hidden("group"),
                Column::new("window_ms", fixed::<2>).titled("window"),
                Column::new("size", bytes),
            ],
        );
        ds.push_row(vec!["a".into(), 1.5.into(), 9830u64.into()]);
        ds.push_row(vec!["b".into(), "-".into(), 32u64.into()]);
        assert_eq!(
            ds.to_text(),
            "window   size\n-------------\n1.50    9.6KB\n-         32B\n"
        );
        // JSON and CSV keep every column under its name.
        assert!(to_csv(&[ds]).starts_with("# t\ngroup,window_ms,size\n"));
    }

    #[test]
    fn text_of_sizes_columns_to_the_rows_it_renders() {
        let mut ds = Dataset::with_columns(
            "t",
            vec![Column::new("k", plain), Column::new("v", x100::<1>)],
        );
        ds.push_row(vec!["wide-key".into(), 0.25.into()]);
        ds.push_row(vec!["k2".into(), 0.5.into()]);
        let second = ds.text_of(ds.rows.iter().skip(1));
        assert_eq!(second, "k      v\n--------\nk2  50.0\n");
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn mismatched_row_width_panics() {
        let mut ds = Dataset::new("t", &["a", "b"]);
        ds.push_row(vec![Value::UInt(1)]);
    }
}
