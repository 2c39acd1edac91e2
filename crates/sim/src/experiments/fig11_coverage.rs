//! **Figure 11** — L2 instruction-miss coverage, uncovered misses and
//! overprediction, normalized to the interleaved baseline's miss count.
//!
//! Paper shape: coverage correlates with language — Go functions reach
//! 75–90% (their metadata fits the 16KB budget), Python/NodeJS 48–74%
//! (metadata overflows); overprediction averages just 10% (max ≈15.8%),
//! reflecting the high cross-invocation commonality.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::mean;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// Coverage results for one function (fractions of baseline L2
/// instruction misses).
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Baseline misses eliminated by a demand hit on a prefetched line.
    pub covered: f64,
    /// Misses remaining with Jukebox.
    pub uncovered: f64,
    /// Prefetched-but-never-referenced lines.
    pub overpredicted: f64,
}

/// The complete Figure 11 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Cell grid: (baseline, Jukebox) × suite, all lukewarm.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    baseline_jukebox_plan(&SystemConfig::skylake(), params)
}

/// The shared (baseline, Jukebox) × suite grid — fig11, fig12 and the
/// per-platform halves of table3 all request exactly these cells, which
/// is where the cross-figure cache earns its keep.
pub fn baseline_jukebox_plan(config: &SystemConfig, params: &ExperimentParams) -> Vec<Cell> {
    paper_suite()
        .into_iter()
        .flat_map(|p| {
            let profile = p.scaled(params.scale);
            [
                PrefetcherKind::None,
                PrefetcherKind::Jukebox(config.jukebox),
            ]
            .into_iter()
            .map(move |kind| Cell::new(config, &profile, kind, RunSpec::lukewarm(), params))
            .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig11",
    aliases: &[],
    description: "L2 instruction-miss coverage, uncovered misses and overprediction",
    module: module_path!(),
    plan,
    run,
};

/// Measures coverage for one function.
pub fn measure_function(
    engine: &Engine,
    config: &SystemConfig,
    profile: &workloads::FunctionProfile,
    params: &ExperimentParams,
) -> Row {
    let baseline = engine.run(
        config,
        profile,
        PrefetcherKind::None,
        RunSpec::lukewarm(),
        params,
    );
    let jukebox = engine.run(
        config,
        profile,
        PrefetcherKind::Jukebox(config.jukebox),
        RunSpec::lukewarm(),
        params,
    );
    let base_misses = baseline.mem.l2.instr.misses.max(1) as f64;
    let covered = jukebox.mem.l2.prefetch_first_hits as f64;
    let overpredicted = jukebox
        .mem
        .l2
        .prefetch_fills
        .saturating_sub(jukebox.mem.l2.prefetch_first_hits) as f64;
    Row {
        function: profile.name.clone(),
        covered: covered / base_misses,
        uncovered: jukebox.mem.l2.instr.misses as f64 / base_misses,
        overpredicted: overpredicted / base_misses,
    }
}

/// Runs Figure 11 through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let rows = paper_suite()
        .into_iter()
        .map(|p| measure_function(engine, &config, &p.scaled(params.scale), params))
        .collect();
    Ok(Data { rows })
}

impl Data {
    /// Mean coverage across the suite.
    pub fn mean_coverage(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.covered).collect::<Vec<_>>())
    }

    /// Mean overprediction across the suite (the paper's ≈10%).
    pub fn mean_overprediction(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.overpredicted)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean coverage restricted to functions whose name ends in the
    /// given language suffix (e.g. `'G'`).
    pub fn mean_coverage_for_suffix(&self, suffix: char) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.function.ends_with(suffix))
            .map(|r| r.covered)
            .collect();
        mean(&values)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11: L2 instruction-miss coverage (fractions of baseline misses)"
        )?;
        let mut t = TextTable::new(&["function", "covered", "uncovered", "overpredicted"]);
        for row in &self.rows {
            t.row(&[
                row.function.clone(),
                format!("{:.0}%", row.covered * 100.0),
                format!("{:.0}%", row.uncovered * 100.0),
                format!("{:.0}%", row.overpredicted * 100.0),
            ]);
        }
        writeln!(
            f,
            "{t}Mean coverage {:.0}%, mean overprediction {:.0}%",
            self.mean_coverage() * 100.0,
            self.mean_overprediction() * 100.0
        )
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut coverage = luke_obs::Dataset::new(
            "fig11.coverage",
            &["function", "covered", "uncovered", "overpredicted"],
        );
        for row in &self.rows {
            coverage.push_row(vec![
                row.function.clone().into(),
                row.covered.into(),
                row.uncovered.into(),
                row.overpredicted.into(),
            ]);
        }
        let mut means =
            luke_obs::Dataset::new("fig11.means", &["mean coverage", "mean overprediction"]);
        means.push_row(vec![
            self.mean_coverage().into(),
            self.mean_overprediction().into(),
        ]);
        vec![coverage, means]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    fn measure(name: &str) -> Row {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
        measure_function(&Engine::single(), &config, &profile, &params)
    }

    #[test]
    fn coverage_is_substantial() {
        let row = measure("Auth-G");
        assert!(row.covered > 0.4, "coverage {}", row.covered);
        assert!(row.uncovered < 0.7, "uncovered {}", row.uncovered);
    }

    #[test]
    fn coverage_plus_uncovered_accounts_for_baseline() {
        let row = measure("Ship-G");
        let total = row.covered + row.uncovered;
        // Not exactly 1.0 (stochastic invocation variation), but close.
        assert!(
            (0.6..1.45).contains(&total),
            "covered {} + uncovered {} = {total}",
            row.covered,
            row.uncovered
        );
    }

    #[test]
    fn overprediction_is_modest() {
        let row = measure("Fib-G");
        assert!(
            row.overpredicted < 0.5,
            "overprediction {}",
            row.overpredicted
        );
    }

    #[test]
    fn render_has_percentages() {
        let data = Data {
            rows: vec![Row {
                function: "Auth-G".into(),
                covered: 0.85,
                uncovered: 0.15,
                overpredicted: 0.10,
            }],
        };
        let s = data.to_string();
        assert!(s.contains("85%"));
        assert!(s.contains("Mean coverage"));
    }
}
