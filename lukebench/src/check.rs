//! The correctness gate: every operation's simulated output is digested
//! and, where a golden digest applies, compared with it; invariants are
//! checked on every seed. A mismatch is counted as a failed operation and
//! reported on stderr, never a panic, so one bad output cannot hide the
//! rest of the run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::measure::digest;

/// File of golden digests, one `workload op digest` line each, recorded
/// at the default seed and full size.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.txt")
}

/// Operation counts for the result line.
pub struct Checks {
    workload: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a golden or invariant check or returned an
    /// error.
    pub failed: u64,
    golden: Option<BTreeMap<String, String>>,
    /// Digests recorded this run, by op.
    recorded: BTreeMap<String, String>,
}

impl Checks {
    /// A gate for `workload`. With `compare`, outputs must match the
    /// golden file's digests for this workload.
    pub fn new(workload: &str, compare: bool) -> Self {
        let golden = compare.then(|| {
            let text = std::fs::read_to_string(golden_path()).unwrap_or_default();
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let mut parts = l.split_whitespace();
                    match (parts.next(), parts.next(), parts.next()) {
                        (Some(w), Some(op), Some(d)) if w == workload => {
                            Some((op.to_string(), d.to_string()))
                        }
                        _ => None,
                    }
                })
                .collect()
        });
        Checks {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            golden,
            recorded: BTreeMap::new(),
        }
    }

    /// Counts one operation; it fails unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("lukebench: {}: FAILED {}", self.workload, what());
        }
    }

    /// Counts one operation whose output is `output`: it fails when
    /// `ok` is false or the output's digest differs from its golden.
    pub fn output(&mut self, op: &str, output: &str, ok: bool, what: impl FnOnce() -> String) {
        let got = digest(output.as_bytes());
        let golden = self
            .golden
            .as_ref()
            .map(|g| g.get(op).cloned().unwrap_or_else(|| "missing".to_string()));
        let matches = golden.as_deref().is_none_or(|want| want == got);
        self.op(ok && matches, || {
            if !ok {
                what()
            } else {
                format!(
                    "{op}: digest {got} != golden {}",
                    golden.unwrap_or_default()
                )
            }
        });
        self.recorded.entry(op.to_string()).or_insert(got);
    }

    /// Replaces this workload's lines in the golden file with the digests
    /// recorded this run.
    pub fn write_golden(&self) -> std::io::Result<()> {
        let path = golden_path();
        let old = std::fs::read_to_string(&path).unwrap_or_default();
        let mut lines: Vec<String> = old
            .lines()
            .filter(|l| l.split_whitespace().next() != Some(self.workload.as_str()))
            .map(str::to_string)
            .collect();
        if lines.is_empty() {
            lines.push(
                "# Golden digests (FNV-1a 64) of every operation's simulated output at the \
                 default seed; regenerate with --write-golden (see README.md)."
                    .to_string(),
            );
        }
        for (op, d) in &self.recorded {
            lines.push(format!("{} {op} {d}", self.workload));
        }
        std::fs::write(path, lines.join("\n") + "\n")
    }
}
