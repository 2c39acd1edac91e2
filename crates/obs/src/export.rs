//! Machine-readable experiment export: the [`Dataset`] table IR and the
//! JSON/CSV writers over it.
//!
//! Every experiment keeps its human-facing `Display` impl untouched (so
//! `--emit table` is byte-identical to historic output) and additionally
//! implements [`Export`], describing the same numbers as one or more
//! [`Dataset`]s of typed [`Value`] cells. The CLI then renders whichever
//! format was requested from the same data.

use crate::json::{write_f64, write_str};

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

/// A named table of typed rows — the intermediate representation every
/// experiment's results export through.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Dataset name (e.g. `"fig10.speedup"`).
    pub name: String,
    /// Column headers, one per cell of each row.
    pub columns: Vec<String>,
    /// Data rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

impl Dataset {
    /// An empty dataset with the given name and column headers.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Dataset {
        Dataset {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
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
}

/// Implemented by every experiment result that can export its numbers.
pub trait Export {
    /// The result rendered as one or more typed datasets. Columns must
    /// cover at least what the `Display` table shows.
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
            write_str(&mut out, col);
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
        out.push_str(&ds.columns.join(","));
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
    #[should_panic(expected = "row has 1 cells")]
    fn mismatched_row_width_panics() {
        let mut ds = Dataset::new("t", &["a", "b"]);
        ds.push_row(vec![Value::UInt(1)]);
    }
}
