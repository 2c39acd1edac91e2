//! **Figure 10** — the headline result: Jukebox and Perfect-I-cache
//! speedups over the interleaved baseline on the Skylake-like platform.
//!
//! Paper shape: Perfect I-cache (the opportunity bound) averages ≈31%
//! (max ≈46% on Auth-N); Jukebox delivers ≈18.7% geomean, tracking the
//! per-function opportunity — large where Perfect is large (Auth-G
//! ≈29.5%), small where it is small (AES-P ≈6.2%).

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::geomean;
use luke_common::SimError;
use luke_obs::export::{plain, speedup, Column, Dataset, Export};
use std::fmt;
use workloads::paper_suite;

/// The three prefetcher configurations each function is measured under.
fn kinds(config: &SystemConfig) -> [PrefetcherKind; 3] {
    [
        PrefetcherKind::None,
        PrefetcherKind::Jukebox(config.jukebox),
        PrefetcherKind::PerfectICache,
    ]
}

/// Cell grid: (baseline, Jukebox, Perfect-I-cache) × suite, all lukewarm.
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
    name: "fig10",
    aliases: &[],
    description: "Jukebox and Perfect-I-cache speedup over the interleaved baseline (Skylake)",
    module: module_path!(),
    plan,
    run,
};

/// Speedups for one function.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Jukebox speedup over the interleaved baseline (1.0 = no change).
    pub jukebox: f64,
    /// Perfect-I-cache speedup over the interleaved baseline.
    pub perfect: f64,
}

/// The complete Figure 10 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Runs the speedup study for one function.
pub fn measure_function(
    engine: &Engine,
    config: &SystemConfig,
    profile: &workloads::FunctionProfile,
    params: &ExperimentParams,
) -> Row {
    let [baseline, jukebox, perfect] =
        kinds(config).map(|kind| engine.run(config, profile, kind, RunSpec::lukewarm(), params));
    Row {
        function: profile.name.clone(),
        jukebox: jukebox.speedup_over(&baseline),
        perfect: perfect.speedup_over(&baseline),
    }
}

/// Runs Figure 10 over the whole suite through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let rows = paper_suite()
        .into_iter()
        .map(|p| measure_function(engine, &config, &p.scaled(params.scale), params))
        .collect();
    Ok(Data { rows })
}

impl Data {
    /// Geometric-mean Jukebox speedup (the paper's 18.7%).
    pub fn jukebox_geomean(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.jukebox).collect::<Vec<_>>())
    }

    /// Geometric-mean Perfect-I-cache speedup (the paper's ≈31%... as an
    /// arithmetic mean in the text; we report geomean for consistency).
    pub fn perfect_geomean(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.perfect).collect::<Vec<_>>())
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: speedup over the interleaved baseline (Skylake-like)"
        )?;
        write!(f, "{}", self.datasets()[0].to_text())
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut ds = Dataset::with_columns(
            "fig10.speedup",
            vec![
                Column::new("function", plain),
                Column::new("jukebox", speedup::<1>),
                Column::new("perfect I-cache", speedup::<1>),
            ],
        );
        for row in &self.rows {
            ds.push_row(vec![
                row.function.clone().into(),
                row.jukebox.into(),
                row.perfect.into(),
            ]);
        }
        ds.push_row(vec![
            "GEOMEAN".into(),
            self.jukebox_geomean().into(),
            self.perfect_geomean().into(),
        ]);
        vec![ds]
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
    fn plan_covers_three_cells_per_function() {
        let params = ExperimentParams::quick();
        let cells = plan(&params);
        assert_eq!(cells.len(), workloads::paper_suite().len() * 3);
    }

    #[test]
    fn jukebox_speedup_is_positive_and_bounded_by_perfect() {
        for name in ["Auth-G", "Email-P"] {
            let row = measure(name);
            assert!(row.jukebox > 1.0, "{name}: jukebox {}", row.jukebox);
            assert!(row.perfect > 1.0, "{name}: perfect {}", row.perfect);
            assert!(
                row.perfect > row.jukebox * 0.9,
                "{name}: perfect {} should bound jukebox {}",
                row.perfect,
                row.jukebox
            );
        }
    }

    #[test]
    fn geomean_math() {
        let data = Data {
            rows: vec![
                Row {
                    function: "a".into(),
                    jukebox: 1.1,
                    perfect: 1.3,
                },
                Row {
                    function: "b".into(),
                    jukebox: 1.3,
                    perfect: 1.3,
                },
            ],
        };
        let g = data.jukebox_geomean();
        assert!((g - (1.1f64 * 1.3).sqrt()).abs() < 1e-12);
        assert!((data.perfect_geomean() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn render_has_geomean_row() {
        let data = Data {
            rows: vec![Row {
                function: "Auth-G".into(),
                jukebox: 1.2,
                perfect: 1.3,
            }],
        };
        let s = data.to_string();
        assert!(s.contains("GEOMEAN"));
        assert!(s.contains("+20.0%"));
    }
}
