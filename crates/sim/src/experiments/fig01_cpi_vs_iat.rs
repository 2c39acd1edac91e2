//! **Figure 1** — effect of request inter-arrival time on CPI.
//!
//! Two representative functions (an authentication function in Python and
//! AES in NodeJS — deliberately different languages, §2.2) run on a
//! high-occupancy host. For each fixed IAT, the interleaving between
//! consecutive invocations of the function-under-test partially decays
//! the cache hierarchy (see [`server::InterleaveModel`]); CPI is reported
//! normalized to back-to-back execution (IAT = 0). The paper's curves
//! rise from 100% and saturate around 250–270% past one-second IATs.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{CacheState, ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::table::TextTable;
use luke_common::SimError;
use luke_obs::{Dataset, Export, Value};
use server::InterleaveModel;
use std::fmt;
use workloads::FunctionProfile;

/// The IAT sweep points in milliseconds (the paper's log-scale axis:
/// 0, 10, 100, 1000, 10000).
pub const IATS_MS: [f64; 5] = [0.0, 10.0, 100.0, 1000.0, 10_000.0];

/// The two functions-under-test.
pub const FUNCTIONS: [&str; 2] = ["Auth-P", "AES-N"];

/// One measured curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Curve {
    /// Function name.
    pub function: String,
    /// `(iat_ms, normalized_cpi)` points; normalized to the IAT = 0 point.
    pub points: Vec<(f64, f64)>,
}

/// The complete Figure 1 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One curve per function-under-test.
    pub curves: Vec<Curve>,
}

/// The `(iat_ms, RunSpec)` sweep points: IAT 0 is back-to-back reference
/// execution; longer gaps partially decay the hierarchy according to the
/// high-occupancy interleave model. Shared by [`plan`] and [`run`] so
/// the plan always matches what the fold requests.
fn iat_specs(config: &SystemConfig) -> Vec<(f64, RunSpec)> {
    let model = InterleaveModel::high_occupancy();
    let l2_lines = config.mem.l2.lines();
    let llc_lines = config.mem.llc.lines();
    IATS_MS
        .iter()
        .map(|&iat| {
            let spec = if iat == 0.0 {
                RunSpec::reference()
            } else {
                let l2 = model.decay_fraction(l2_lines, iat);
                let llc = model.llc_decay_fraction(llc_lines, iat);
                RunSpec {
                    state: CacheState::Decayed {
                        l2,
                        llc,
                        flush_core: l2 > 0.5,
                    },
                }
            };
            (iat, spec)
        })
        .collect()
}

/// Cell grid: one decay point per (function, IAT).
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::broadwell();
    FUNCTIONS
        .iter()
        .flat_map(|name| {
            let profile = FunctionProfile::named(name)
                .expect("figure 1 function in suite")
                .scaled(params.scale);
            iat_specs(&config)
                .into_iter()
                .map(move |(_, spec)| {
                    Cell::new(&config, &profile, PrefetcherKind::None, spec, params)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig01",
    aliases: &[],
    description: "Normalized CPI vs invocation inter-arrival time (Broadwell)",
    module: module_path!(),
    plan,
    run,
};

/// Runs the Figure 1 experiment through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::broadwell(); // characterization platform
    let curves = FUNCTIONS
        .iter()
        .map(|name| {
            let profile = FunctionProfile::named(name)
                .expect("figure 1 function in suite")
                .scaled(params.scale);
            let mut points = Vec::new();
            let mut base_cpi = None;
            for (iat, spec) in iat_specs(&config) {
                let summary = engine.run(&config, &profile, PrefetcherKind::None, spec, params);
                let cpi = summary.cpi();
                let base = *base_cpi.get_or_insert(cpi);
                points.push((iat, cpi / base));
            }
            Curve {
                function: name.to_string(),
                points,
            }
        })
        .collect();
    Ok(Data { curves })
}

impl Data {
    /// Normalized CPI of `function` at the largest IAT (the saturated
    /// right end of the curve).
    pub fn saturated_cpi(&self, function: &str) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.function == function)
            .and_then(|c| c.points.last())
            .map(|&(_, cpi)| cpi)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1: normalized CPI vs invocation inter-arrival time"
        )?;
        let mut header = vec!["IAT [ms]".to_string()];
        header.extend(self.curves.iter().map(|c| c.function.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = TextTable::new(&header_refs);
        for (i, &(iat, _)) in self.curves[0].points.iter().enumerate() {
            let mut row = vec![format!("{iat:.0}")];
            for c in &self.curves {
                row.push(format!("{:.0}%", c.points[i].1 * 100.0));
            }
            table.row(&row);
        }
        write!(f, "{table}")
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut columns = vec!["IAT [ms]".to_string()];
        columns.extend(self.curves.iter().map(|c| c.function.clone()));
        let mut ds = Dataset {
            name: "fig01.normalized_cpi".to_string(),
            columns,
            rows: Vec::new(),
        };
        if let Some(first) = self.curves.first() {
            for (i, &(iat, _)) in first.points.iter().enumerate() {
                let mut row: Vec<Value> = vec![iat.into()];
                for c in &self.curves {
                    row.push(c.points[i].1.into());
                }
                ds.push_row(row);
            }
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_grows_with_iat_and_saturates() {
        let data = run(&Engine::single(), &ExperimentParams::quick()).unwrap();
        assert_eq!(data.curves.len(), 2);
        for curve in &data.curves {
            assert_eq!(curve.points.len(), IATS_MS.len());
            // Starts at 1.0 by construction.
            assert!((curve.points[0].1 - 1.0).abs() < 1e-9);
            // Non-trivially degraded at the saturated end.
            let last = curve.points.last().unwrap().1;
            assert!(last > 1.2, "{}: saturated at {last}", curve.function);
            // Monotone within tolerance (stochastic workloads jitter).
            for pair in curve.points.windows(2) {
                assert!(
                    pair[1].1 > pair[0].1 * 0.93,
                    "{}: CPI should not materially decrease with IAT ({:?})",
                    curve.function,
                    curve.points
                );
            }
        }
    }

    #[test]
    fn render_contains_every_iat() {
        let data = run(&Engine::single(), &ExperimentParams::quick()).unwrap();
        let s = data.to_string();
        for iat in IATS_MS {
            assert!(s.contains(&format!("{iat:.0}")), "missing {iat} in\n{s}");
        }
        assert!(data.saturated_cpi("Auth-P").is_some());
        assert!(data.saturated_cpi("nope").is_none());
    }
}
