//! **Figure 13** — comparison against the state-of-the-art temporal-
//! streaming prefetcher PIF (§5.5).
//!
//! Five configurations over the interleaved baseline: PIF (paper
//! configuration, non-persistent), PIF-ideal (unlimited, persistent),
//! Jukebox, and Jukebox + PIF-ideal. Paper shape: PIF ≈2.4% average
//! (≤4.8%), PIF-ideal ≈6.7% (≤12.4%), Jukebox ≈18.7% — bulk replay into
//! the L2 beats stream-following because it never stops to re-index and
//! therefore actually hides main-memory latency.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::geomean;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// The representative functions plotted individually (one per language).
pub const REPRESENTATIVES: [&str; 3] = ["Email-P", "Pay-N", "ProdL-G"];

/// Speedups of the four prefetcher configurations for one function.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name, or `"GEOMEAN"`.
    pub function: String,
    /// PIF (paper configuration).
    pub pif: f64,
    /// PIF-ideal.
    pub pif_ideal: f64,
    /// Jukebox.
    pub jukebox: f64,
    /// Jukebox + PIF-ideal.
    pub jukebox_pif_ideal: f64,
}

/// The complete Figure 13 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// Representative rows plus the geomean row (last).
    pub rows: Vec<Row>,
}

/// The five configurations each function is measured under.
fn kinds(config: &SystemConfig) -> [PrefetcherKind; 5] {
    [
        PrefetcherKind::None,
        PrefetcherKind::Pif,
        PrefetcherKind::PifIdeal,
        PrefetcherKind::Jukebox(config.jukebox),
        PrefetcherKind::JukeboxPlusPifIdeal(config.jukebox),
    ]
}

/// Cell grid: (baseline, PIF, PIF-ideal, Jukebox, JB+PIF-ideal) × suite.
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
    name: "fig13",
    aliases: &[],
    description: "PIF vs PIF-ideal vs Jukebox vs the combination, speedup over baseline",
    module: module_path!(),
    plan,
    run,
};

/// Measures all four configurations for one function.
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
    let speedup = |kind: PrefetcherKind| {
        engine
            .run(config, profile, kind, RunSpec::lukewarm(), params)
            .speedup_over(&baseline)
    };
    Row {
        function: profile.name.clone(),
        pif: speedup(PrefetcherKind::Pif),
        pif_ideal: speedup(PrefetcherKind::PifIdeal),
        jukebox: speedup(PrefetcherKind::Jukebox(config.jukebox)),
        jukebox_pif_ideal: speedup(PrefetcherKind::JukeboxPlusPifIdeal(config.jukebox)),
    }
}

/// Runs Figure 13 through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for p in paper_suite() {
        let profile = p.scaled(params.scale);
        let row = measure_function(engine, &config, &profile, params);
        if REPRESENTATIVES.contains(&profile.name.as_str()) {
            rows.push(row.clone());
        }
        all.push(row);
    }
    let geo = |f: fn(&Row) -> f64| geomean(&all.iter().map(f).collect::<Vec<_>>());
    rows.push(Row {
        function: "GEOMEAN".to_string(),
        pif: geo(|r| r.pif),
        pif_ideal: geo(|r| r.pif_ideal),
        jukebox: geo(|r| r.jukebox),
        jukebox_pif_ideal: geo(|r| r.jukebox_pif_ideal),
    });
    Ok(Data { rows })
}

impl Data {
    /// The geomean row (last by construction).
    pub fn geomean_row(&self) -> &Row {
        self.rows.last().expect("geomean row")
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 13: PIF vs Jukebox (speedup over baseline)")?;
        let mut t = TextTable::new(&["function", "PIF", "PIF-ideal", "JB", "JB+PIF-ideal"]);
        for row in &self.rows {
            let pct = |s: f64| format!("{:+.1}%", (s - 1.0) * 100.0);
            t.row(&[
                row.function.clone(),
                pct(row.pif),
                pct(row.pif_ideal),
                pct(row.jukebox),
                pct(row.jukebox_pif_ideal),
            ]);
        }
        write!(f, "{t}")
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut ds = luke_obs::Dataset::new(
            "fig13.pif_vs_jukebox",
            &["function", "PIF", "PIF-ideal", "JB", "JB+PIF-ideal"],
        );
        for row in &self.rows {
            ds.push_row(vec![
                row.function.clone().into(),
                row.pif.into(),
                row.pif_ideal.into(),
                row.jukebox.into(),
                row.jukebox_pif_ideal.into(),
            ]);
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    #[test]
    fn jukebox_beats_both_pif_variants() {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named("Auth-G")
            .unwrap()
            .scaled(params.scale);
        let row = measure_function(&Engine::single(), &config, &profile, &params);
        assert!(
            row.jukebox > row.pif,
            "jukebox {} should beat PIF {}",
            row.jukebox,
            row.pif
        );
        assert!(
            row.jukebox > row.pif_ideal,
            "jukebox {} should beat PIF-ideal {}",
            row.jukebox,
            row.pif_ideal
        );
    }

    #[test]
    fn pif_ideal_beats_plain_pif() {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named("ProdL-G")
            .unwrap()
            .scaled(params.scale);
        let row = measure_function(&Engine::single(), &config, &profile, &params);
        assert!(
            row.pif_ideal >= row.pif * 0.99,
            "pif-ideal {} vs pif {}",
            row.pif_ideal,
            row.pif
        );
    }

    #[test]
    fn render_has_all_columns() {
        let data = Data {
            rows: vec![Row {
                function: "GEOMEAN".into(),
                pif: 1.024,
                pif_ideal: 1.067,
                jukebox: 1.187,
                jukebox_pif_ideal: 1.19,
            }],
        };
        let s = data.to_string();
        assert!(s.contains("PIF-ideal"));
        assert!(s.contains("+18.7%"));
        assert_eq!(data.geomean_row().function, "GEOMEAN");
    }
}
