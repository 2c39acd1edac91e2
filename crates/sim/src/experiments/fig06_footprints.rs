//! **Figure 6** — instruction footprints and cross-invocation commonality
//! (§2.5 methodology: 25 invocations per function, L1-I accesses traced
//! at cache-block granularity, pairwise Jaccard over all 300 pairs).
//!
//! Paper shape: footprints range from just over 300KB to ≈800KB with low
//! variance; mean commonality exceeds 0.9 for all but three functions.

use crate::engine::{Engine, Spec};
use crate::runner::ExperimentParams;
use luke_common::size::ByteSize;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::footprint::{study, FootprintStudy};
use workloads::{paper_suite, SyntheticFunction};

/// Per-function footprint study results.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// The §2.5 study results.
    pub study: FootprintStudy,
}

/// The complete Figure 6 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
    /// Invocations measured per function (paper: 25).
    pub invocations: u64,
}

/// Registry entry: see [`crate::engine::registry`]. The footprint study
/// traces L1-I accesses directly (no cycle-accurate runner cells), so the
/// plan is empty, and the run maps one study per function over the
/// engine's workers.
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig06",
    aliases: &[],
    description: "Instruction footprints and cross-invocation Jaccard commonality",
    module: module_path!(),
    plan: |_| Vec::new(),
    run,
};

/// Runs the footprint/commonality study with each function's study as
/// one [`Engine::map`] job.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    // The paper uses 25 invocations; quick runs use fewer.
    let invocations = if params.scale >= 0.5 { 25 } else { 6 };
    let rows = engine.map(&paper_suite(), |p| {
        let profile = p.scaled(params.scale);
        let function = SyntheticFunction::build(&profile);
        Row {
            function: profile.name.clone(),
            study: study(&function, invocations),
        }
    });
    Ok(Data { rows, invocations })
}

impl Data {
    /// Number of functions whose mean commonality is at least 0.9 (the
    /// paper: 17 of 20).
    pub fn functions_above_09(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.study.jaccard_mean >= 0.9)
            .count()
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: instruction footprints and Jaccard commonality over {} invocations",
            self.invocations
        )?;
        let mut t = TextTable::new(&[
            "function",
            "mean footprint",
            "min",
            "max",
            "jaccard mean",
            "jaccard min",
        ]);
        for row in &self.rows {
            let (lo, hi) = row.study.range_bytes();
            t.row(&[
                row.function.clone(),
                ByteSize::new(row.study.mean_bytes() as u64).to_string(),
                ByteSize::new(lo).to_string(),
                ByteSize::new(hi).to_string(),
                format!("{:.3}", row.study.jaccard_mean),
                format!("{:.3}", row.study.jaccard_min),
            ]);
        }
        writeln!(
            f,
            "{t}{} of {} functions have mean commonality >= 0.9",
            self.functions_above_09(),
            self.rows.len()
        )
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut footprints = luke_obs::Dataset::new(
            "fig06.footprints",
            &[
                "function",
                "mean footprint",
                "min",
                "max",
                "jaccard mean",
                "jaccard min",
            ],
        );
        for row in &self.rows {
            let (lo, hi) = row.study.range_bytes();
            footprints.push_row(vec![
                row.function.clone().into(),
                (row.study.mean_bytes() as u64).into(),
                lo.into(),
                hi.into(),
                row.study.jaccard_mean.into(),
                row.study.jaccard_min.into(),
            ]);
        }
        let mut summary = luke_obs::Dataset::new(
            "fig06.summary",
            &[
                "invocations",
                "functions",
                "functions with commonality >= 0.9",
            ],
        );
        summary.push_row(vec![
            self.invocations.into(),
            (self.rows.len() as u64).into(),
            (self.functions_above_09() as u64).into(),
        ]);
        vec![footprints, summary]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    fn subset(names: &[&str], scale: f64, invocations: u64) -> Data {
        let rows = names
            .iter()
            .map(|name| {
                let profile = FunctionProfile::named(name).unwrap().scaled(scale);
                let function = SyntheticFunction::build(&profile);
                Row {
                    function: name.to_string(),
                    study: study(&function, invocations),
                }
            })
            .collect();
        Data { rows, invocations }
    }

    #[test]
    fn commonality_is_high_for_regular_functions() {
        let data = subset(&["Auth-G", "Fib-P", "Pay-N"], 0.05, 5);
        for row in &data.rows {
            assert!(
                row.study.jaccard_mean > 0.85,
                "{}: commonality {}",
                row.function,
                row.study.jaccard_mean
            );
        }
        // At this reduced scale the optional groups are few and chunky, so
        // allow one function to sit just below the 0.9 line.
        assert!(data.functions_above_09() + 1 >= data.rows.len());
    }

    #[test]
    fn outlier_functions_have_lower_commonality() {
        let regular = subset(&["Auth-G"], 0.05, 6).rows[0].study.jaccard_mean;
        let outlier = subset(&["RecO-P"], 0.05, 6).rows[0].study.jaccard_mean;
        assert!(
            outlier < regular,
            "outlier {outlier} should be below regular {regular}"
        );
    }

    #[test]
    fn footprint_variance_is_low() {
        let data = subset(&["Ship-G"], 0.05, 5);
        let (lo, hi) = data.rows[0].study.range_bytes();
        assert!(
            (hi as f64) < lo as f64 * 1.5,
            "footprint range too wide: {lo}..{hi}"
        );
    }

    #[test]
    fn render_lists_functions() {
        let data = subset(&["Geo-G"], 0.05, 3);
        let s = data.to_string();
        assert!(s.contains("Geo-G"));
        assert!(s.contains("Figure 6"));
    }
}
