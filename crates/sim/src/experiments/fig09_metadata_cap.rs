//! **Figure 9** — speedup as a function of the metadata-storage budget.
//!
//! Jukebox is run with per-direction metadata capacities of 8/12/16/32KB
//! on one representative function per language (Email-P, Pay-N, ProdL-G)
//! plus the whole-suite geometric mean. Paper shape: functions with large
//! working sets (Pay-N) are the most sensitive to the cap; beyond 16KB
//! the average gains little — which is why 16KB is the default.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::size::ByteSize;
use luke_common::stats::geomean;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// The metadata capacities swept (KB), as in the paper.
pub const CAPACITIES_KB: [u64; 4] = [8, 12, 16, 32];

/// The representative functions plotted individually.
pub const REPRESENTATIVES: [&str; 3] = ["Email-P", "Pay-N", "ProdL-G"];

/// Speedups for one function (or the geomean row) across the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name, or `"GEOMEAN"`.
    pub function: String,
    /// `(capacity_kb, speedup_over_baseline)` points.
    pub speedups: Vec<(u64, f64)>,
}

impl Row {
    /// Speedup at a given capacity.
    pub fn at(&self, capacity_kb: u64) -> Option<f64> {
        self.speedups
            .iter()
            .find(|&&(c, _)| c == capacity_kb)
            .map(|&(_, s)| s)
    }
}

/// The complete Figure 9 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// Representative rows plus the geomean row (last).
    pub rows: Vec<Row>,
}

/// The prefetcher configurations swept per function: the baseline plus
/// one Jukebox per metadata capacity.
fn kinds(config: &SystemConfig) -> Vec<PrefetcherKind> {
    std::iter::once(PrefetcherKind::None)
        .chain(CAPACITIES_KB.iter().map(|&kb| {
            PrefetcherKind::Jukebox(config.jukebox.with_metadata_capacity(ByteSize::kib(kb)))
        }))
        .collect()
}

/// Cell grid: (baseline + 4 capacity-limited Jukeboxes) × suite.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
    paper_suite()
        .into_iter()
        .flat_map(|p| {
            let profile = p.scaled(params.scale);
            kinds(&config)
                .into_iter()
                .map(move |kind| Cell::new(&config, &profile, kind, RunSpec::lukewarm(), params))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig09",
    aliases: &[],
    description: "Jukebox speedup vs metadata storage capacity (8/12/16/32KB)",
    module: module_path!(),
    plan,
    run,
};

/// Measures `function`'s Jukebox speedup across the capacity sweep.
fn sweep_function(
    engine: &Engine,
    config: &SystemConfig,
    profile: &workloads::FunctionProfile,
    params: &ExperimentParams,
) -> Vec<(u64, f64)> {
    let baseline = engine.run(
        config,
        profile,
        PrefetcherKind::None,
        RunSpec::lukewarm(),
        params,
    );
    CAPACITIES_KB
        .iter()
        .map(|&kb| {
            let jb = config.jukebox.with_metadata_capacity(ByteSize::kib(kb));
            let s = engine.run(
                config,
                profile,
                PrefetcherKind::Jukebox(jb),
                RunSpec::lukewarm(),
                params,
            );
            (kb, s.speedup_over(&baseline))
        })
        .collect()
}

/// Runs the Figure 9 sweep through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let mut rows = Vec::new();
    let mut all: Vec<Vec<(u64, f64)>> = Vec::new();
    for p in paper_suite() {
        let profile = p.scaled(params.scale);
        let speedups = sweep_function(engine, &config, &profile, params);
        if REPRESENTATIVES.contains(&profile.name.as_str()) {
            rows.push(Row {
                function: profile.name.clone(),
                speedups: speedups.clone(),
            });
        }
        all.push(speedups);
    }
    let geo: Vec<(u64, f64)> = CAPACITIES_KB
        .iter()
        .enumerate()
        .map(|(i, &kb)| {
            let values: Vec<f64> = all.iter().map(|s| s[i].1).collect();
            (kb, geomean(&values))
        })
        .collect();
    rows.push(Row {
        function: "GEOMEAN".to_string(),
        speedups: geo,
    });
    Ok(Data { rows })
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: Jukebox speedup vs metadata storage capacity")?;
        let mut header = vec!["function".to_string()];
        header.extend(CAPACITIES_KB.iter().map(|kb| format!("{kb}KB")));
        let refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = TextTable::new(&refs);
        for row in &self.rows {
            let mut cells = vec![row.function.clone()];
            cells.extend(
                row.speedups
                    .iter()
                    .map(|&(_, s)| format!("{:+.1}%", (s - 1.0) * 100.0)),
            );
            t.row(&cells);
        }
        write!(f, "{t}")
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut columns = vec!["function".to_string()];
        columns.extend(CAPACITIES_KB.iter().map(|kb| format!("{kb}KB")));
        let mut ds = luke_obs::Dataset {
            name: "fig09.speedup_vs_capacity".to_string(),
            columns,
            rows: Vec::new(),
        };
        for row in &self.rows {
            let mut cells: Vec<luke_obs::Value> = vec![row.function.clone().into()];
            cells.extend(row.speedups.iter().map(|&(_, s)| s.into()));
            ds.push_row(cells);
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    #[test]
    fn more_metadata_never_materially_hurts() {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named("Pay-N")
            .unwrap()
            .scaled(params.scale);
        let speedups = sweep_function(&Engine::single(), &config, &profile, &params);
        let at_8 = speedups[0].1;
        let at_32 = speedups[3].1;
        assert!(
            at_32 > at_8 * 0.97,
            "32KB ({at_32}) should not be materially worse than 8KB ({at_8})"
        );
    }

    #[test]
    fn speedups_are_positive_at_full_budget() {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named("ProdL-G")
            .unwrap()
            .scaled(params.scale);
        let speedups = sweep_function(&Engine::single(), &config, &profile, &params);
        let at_16 = speedups[2].1;
        assert!(at_16 > 1.0, "16KB speedup {at_16}");
    }

    #[test]
    fn render_contains_capacities() {
        let data = Data {
            rows: vec![Row {
                function: "X".into(),
                speedups: CAPACITIES_KB.iter().map(|&kb| (kb, 1.1)).collect(),
            }],
        };
        let s = data.to_string();
        for kb in CAPACITIES_KB {
            assert!(s.contains(&format!("{kb}KB")));
        }
    }
}
