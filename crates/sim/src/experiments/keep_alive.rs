//! **Keep-alive economics (§2.1)** — why lukewarm invocations exist at all.
//!
//! Providers keep idle instances warm for 5–60 minutes because cold boots
//! cost hundreds of milliseconds; the Azure study the paper cites found
//! that with such windows, roughly 20–40% of deployed functions have a
//! warm instance when a request arrives, and fewer than 5% of invocations
//! arrive less than a second apart. This experiment reproduces that
//! trade-off with the host model: a population of functions with
//! heavy-tailed inter-arrival times, swept across keep-alive windows,
//! reporting the warm-hit rate and the memory cost of the warm pool —
//! the supply side of the lukewarm phenomenon.
//!
//! Each window drives one [`FleetHost`] (the fleet's host lifecycle:
//! keep-alive expiry, cold spawn, warm invoke) over the same arrival
//! stream. No cycle-accurate timing runs, so it covers a large
//! population cheaply.

use crate::engine::{Engine, Spec};
use crate::runner::ExperimentParams;
use luke_common::rng::DetRng;
use luke_common::SimError;
use luke_fleet::{FleetConfig, FleetHost, RoutedInvocation, ServiceModel};
use luke_obs::export::{fixed, pct, Column, Dataset, Export};
use server::{IatDistribution, TrafficGenerator};
use std::fmt;

/// Results for one keep-alive window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Keep-alive window in minutes.
    pub keep_alive_min: f64,
    /// Fraction of invocations served by a warm instance. High in
    /// practice — which is exactly why warm (and therefore lukewarm)
    /// executions dominate.
    pub warm_hit_rate: f64,
    /// Mean number of warm instances resident on the host.
    pub mean_warm_instances: f64,
    /// Mean fraction of the *function population* with a warm instance —
    /// the Azure study's 20–40% statistic.
    pub warm_function_fraction: f64,
    /// Fraction of invocations with a sub-second gap to the previous one
    /// on the same instance (the Azure study: <5%).
    pub subsecond_gap_rate: f64,
}

/// The complete keep-alive sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per keep-alive window.
    pub rows: Vec<Row>,
    /// Number of functions in the population.
    pub functions: usize,
    /// Invocations simulated per window.
    pub invocations: usize,
}

/// The windows the paper cites providers using (§2.1: 5–60 minutes).
pub const KEEP_ALIVE_MINUTES: [f64; 4] = [5.0, 10.0, 30.0, 60.0];

/// Builds a heavy-tailed population of invocation rates: a few chatty
/// functions (tens of seconds), a long tail of rare ones (hours up to
/// `max_mean_iat_ms`) — the shape of the Azure trace's per-function IAT
/// distribution. This sweep's tail reaches a week; `cold_spectrum` cuts
/// it at 2 days so that every keep-alive window sees real cold starts.
pub(crate) fn population(
    functions: usize,
    seed: u64,
    max_mean_iat_ms: f64,
) -> Vec<IatDistribution> {
    let mut rng = DetRng::new(seed);
    (0..functions)
        .map(|_| {
            // Log-uniform mean IAT between 30 seconds and the bound.
            let log_lo = (30_000.0f64).ln();
            let log_hi = max_mean_iat_ms.ln();
            let mean_ms = (log_lo + rng.unit() * (log_hi - log_lo)).exp();
            IatDistribution::Exponential { mean_ms }
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`]. The sweep has no
/// cycle-accurate runner cells, so the plan is empty, and the run maps
/// one job per keep-alive window over the engine's workers.
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "keep-alive",
    aliases: &[],
    description: "Keep-alive economics: warm-hit rate vs warm-pool memory cost (§2.1)",
    module: module_path!(),
    plan: |_| Vec::new(),
    run,
};

/// Runs the sweep with each window as one [`Engine::map`] job.
/// `params.scale` scales the population size; the default population is
/// 400 functions, 40_000 invocations per window. Invalid windows surface
/// as `InvalidConfig` (exit 3), not a panic.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let functions = ((400.0 * params.scale) as usize).max(20);
    let invocations = ((40_000.0 * params.scale) as usize).max(2_000);
    let distributions = population(functions, 0xAC11, 7.0 * 24.0 * 3600.0 * 1000.0);
    let model = ServiceModel::analytic(&workloads::paper_suite())?;
    let rows = engine
        .map(&KEEP_ALIVE_MINUTES, |&minutes| {
            run_window(minutes, functions, invocations, &distributions, &model)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(Data {
        rows,
        functions,
        invocations,
    })
}

/// Simulates one keep-alive window: one host over the whole stream.
fn run_window(
    minutes: f64,
    functions: usize,
    invocations: usize,
    distributions: &[IatDistribution],
    model: &ServiceModel,
) -> Result<Row, SimError> {
    let config = FleetConfig {
        hosts: 1,
        population: functions,
        invocations,
        keep_alive_ms: minutes * 60_000.0,
        ..FleetConfig::default()
    };
    config.validate()?;
    let mut host = FleetHost::new(&config, 0);
    // Each function's previous arrival: a warm arrival's idle gap.
    let mut last_at = vec![0.0; functions];
    let mut subsecond = 0usize;
    let mut warm_sum = 0u64;
    for event in TrafficGenerator::new(distributions, 7).take_events(invocations) {
        let (at, function) = (event.at_ms, event.instance);
        let cold_starts = host.cold_starts;
        host.process(&config, model, false, RoutedInvocation::new(at, function));
        if host.cold_starts == cold_starts && at - last_at[function] < 1_000.0 {
            subsecond += 1;
        }
        last_at[function] = at;
        warm_sum += host.warm_instances() as u64;
    }

    let mean_warm = warm_sum as f64 / invocations as f64;
    Ok(Row {
        keep_alive_min: minutes,
        warm_hit_rate: host.hits() as f64 / invocations as f64,
        mean_warm_instances: mean_warm,
        warm_function_fraction: mean_warm / functions as f64,
        subsecond_gap_rate: subsecond as f64 / invocations as f64,
    })
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Keep-alive economics (§2.1): {} functions, {} invocations per window",
            self.functions, self.invocations
        )?;
        writeln!(
            f,
            "{}Longer windows turn cold starts into warm — and therefore lukewarm — \
             invocations, at the cost of memory-resident instances.",
            self.datasets()[0].to_text()
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut sweep = Dataset::with_columns(
            "keep_alive.sweep",
            vec![
                Column::new("keep-alive", |v| format!("{:.0} min", v.as_f64())),
                Column::new("warm-hit rate", pct::<0>),
                Column::new("warm functions", pct::<0>),
                Column::new("mean warm instances", fixed::<0>),
                Column::new("sub-second gaps", pct::<1>),
            ],
        );
        for r in &self.rows {
            sweep.push_row(vec![
                r.keep_alive_min.into(),
                r.warm_hit_rate.into(),
                r.warm_function_fraction.into(),
                r.mean_warm_instances.into(),
                r.subsecond_gap_rate.into(),
            ]);
        }
        let mut population = Dataset::new("keep_alive.population", &["functions", "invocations"]);
        population.push_row(vec![
            (self.functions as u64).into(),
            (self.invocations as u64).into(),
        ]);
        vec![sweep, population]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Data {
        let params = ExperimentParams {
            scale: 0.25,
            invocations: 1,
            warmup: 0,
        };
        run(&Engine::single(), &params).unwrap()
    }

    #[test]
    fn warm_statistics_grow_with_keep_alive() {
        let d = data();
        for pair in d.rows.windows(2) {
            assert!(
                pair[1].warm_hit_rate >= pair[0].warm_hit_rate - 0.02,
                "warm hits should grow with the window: {:?}",
                d.rows
            );
        }
        assert!(
            d.rows.last().unwrap().mean_warm_instances
                > d.rows.first().unwrap().mean_warm_instances,
            "{:?}",
            d.rows
        );
    }

    #[test]
    fn a_minority_of_functions_is_warm_at_any_instant() {
        // §2.1 / Azure: with 5–60 minute windows, roughly 20–40% of
        // deployed functions have a warm instance when a request arrives.
        let d = data();
        for r in &d.rows {
            assert!(
                (0.05..0.8).contains(&r.warm_function_fraction),
                "warm-function fraction {:.2} at {} min",
                r.warm_function_fraction,
                r.keep_alive_min
            );
        }
        let at_5 = d.rows[0].warm_function_fraction;
        let at_60 = d.rows.last().unwrap().warm_function_fraction;
        assert!(at_60 > at_5, "fraction must grow with the window");
    }

    #[test]
    fn subsecond_gaps_are_rare() {
        // "fewer than 5% of all invocations have an IAT of under a
        // second" — warm-instance gaps are overwhelmingly ≥ 1s.
        let d = data();
        for r in &d.rows {
            assert!(
                r.subsecond_gap_rate < 0.08,
                "sub-second rate {:.2} at {} min",
                r.subsecond_gap_rate,
                r.keep_alive_min
            );
        }
    }

    #[test]
    fn render_lists_all_windows() {
        let s = data().to_string();
        for m in KEEP_ALIVE_MINUTES {
            assert!(s.contains(&format!("{m:.0} min")));
        }
    }
}
