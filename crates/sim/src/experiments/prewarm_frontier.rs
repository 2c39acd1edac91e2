//! **Pre-warm frontier** — memory-seconds vs tail latency, fixed
//! keep-alive vs predictive policy, per cold-start model.
//!
//! Every keep-alive window buys tail latency with memory: hold
//! instances longer and fewer arrivals start cold, but idle instances
//! bill instance-seconds the whole time. This experiment charts that
//! trade-off. Identical Zipf traffic is replayed under three fixed
//! windows (15 s, 2 min, 10 min), under the predictive policy from
//! `luke-predict` (per-function adaptive keep-alive plus IAT-driven
//! REAP pre-restores, capped at the 10-minute window), and against an
//! *oracle* reference that foresees every arrival and pays only the
//! restore lead time. The sweep repeats per [`luke_fleet::ColdStartModel`]
//! — a flat boot, a lazily-paged snapshot restore, and a REAP prefetch —
//! because the cheaper a cold start is, the less memory a rational
//! policy should spend avoiding one.
//!
//! Service times are calibrated from the cycle-accurate core exactly as
//! in [`fleet_scale`] (same cells, so a shared engine simulates them
//! once). The headline check: the adaptive policy lands strictly below
//! at least one fixed window on memory-seconds without giving up P99 —
//! it decays the Zipf tail early while predictions keep the head warm.
//!
//! The predictive policy's decisions execute as `PrewarmTimer` /
//! `AdaptiveDecay` entries in each host's calendar queue (see
//! `docs/PREDICT.md`), so the adaptive rows share the fixed windows'
//! event order exactly — the frontier differences are pure policy, not
//! scheduling artifacts.

use crate::engine::{Cell, Engine, Spec};
use crate::experiments::fleet_scale;
use crate::experiments::surge::over_slo;
use crate::runner::ExperimentParams;
use luke_common::SimError;
use luke_fleet::{run_fleet, ColdStartModel, FleetConfig, FleetRun, PrewarmConfig};
use luke_obs::export::{fixed, plain, x100, Column, Dataset, Export, Value};
use std::fmt;

/// End-to-end latency SLO, ms. Warm paper-suite service times sit well
/// under it; any cold start (even a REAP restore) blows through it, so
/// the violation rate tracks the cold-start rate each policy tolerates.
pub const SLO_MS: f64 = 25.0;

/// Fleet size — small enough that the 12-point grid stays test-speed.
const HOSTS: usize = 4;
/// Invocations per host per point (~100 fleet-seconds at the default
/// 20/s per host, so the short fixed window below actually binds).
const INVOCATIONS_PER_HOST: usize = 2_000;
/// Fixed keep-alive windows swept, minutes: aggressive, provider-short,
/// Azure-style long. The long window doubles as the adaptive policy's
/// cap.
pub const FIXED_KEEP_ALIVE_MINUTES: [f64; 3] = [0.25, 2.0, 10.0];
/// The adaptive policy's hold cap, minutes (the longest fixed window,
/// so the comparison isolates the policy, not the budget).
pub const ADAPTIVE_CAP_MINUTES: f64 = 10.0;

/// Cold-start models swept; each gets its own frontier.
pub const MODELS: [ColdStartModel; 3] = [
    ColdStartModel::Instant,
    ColdStartModel::LazyPaging,
    ColdStartModel::ReapPrefetch,
];

/// The predictive policy under test: conservative early decay (99th
/// IAT percentile, 1 s floor) with median-IAT pre-warm scheduling.
/// `min_samples` is low enough that the ~100-second run actually
/// graduates the Zipf head out of the under-sampled (hold = cap) state.
fn adaptive_policy() -> PrewarmConfig {
    PrewarmConfig {
        min_samples: 32,
        ..PrewarmConfig::default_enabled()
    }
}

/// One frontier point: a keep-alive policy under one cold-start model.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Cold-start model label.
    pub model: &'static str,
    /// Policy label: `fixed`, `adaptive`, or `oracle`.
    pub policy: &'static str,
    /// Keep-alive window (fixed) or hold cap (adaptive), minutes.
    pub keep_alive_min: f64,
    /// Total instance-seconds of pool residency billed by the run.
    pub memory_instance_s: f64,
    /// Fraction of invocations with no warm instance.
    pub cold_start_rate: f64,
    /// Fraction of served requests exceeding [`SLO_MS`].
    pub slo_violation_rate: f64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// Tail latency, ms.
    pub p99_ms: f64,
    /// Pre-restores actually spawned (adaptive only).
    pub prewarm_spawns: u64,
    /// Arrivals served off a finished pre-restore (adaptive only).
    pub prewarm_hits: u64,
    /// Arrivals whose hold was shortened below the cap (adaptive only).
    pub early_decays: u64,
}

/// The full sweep: one frontier per cold-start model.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per (model, policy) point, fixed windows first.
    pub rows: Vec<Row>,
}

/// Cell grid: the same calibration runs as the fleet sweep, so a shared
/// engine simulates them once for both experiments.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    fleet_scale::plan(params)
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "prewarm-frontier",
    aliases: &["prewarm_frontier", "prewarm"],
    description: "Memory-seconds vs P99 frontier: fixed keep-alive vs predictive pre-warming",
    module: module_path!(),
    plan,
    run,
};

/// One sweep point's fleet configuration.
fn fleet_config(model: ColdStartModel, keep_alive_min: f64, prewarm: PrewarmConfig) -> FleetConfig {
    FleetConfig {
        hosts: HOSTS,
        invocations: HOSTS * INVOCATIONS_PER_HOST,
        keep_alive_ms: keep_alive_min * 60_000.0,
        cold_start_model: model,
        prewarm,
        ..FleetConfig::default()
    }
}

/// Runs the sweep, calibrating through the shared engine. Each
/// fleet run is one [`Engine::map`] job; the rows, oracle points
/// included, are assembled in sweep order.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let model = fleet_scale::calibrate_model(engine, params)?;
    // Per model: every fixed window, then the adaptive policy.
    let mut jobs = Vec::new();
    for cold_model in MODELS {
        for keep_alive_min in FIXED_KEEP_ALIVE_MINUTES {
            jobs.push(fleet_config(
                cold_model,
                keep_alive_min,
                PrewarmConfig::disabled(),
            ));
        }
        jobs.push(fleet_config(
            cold_model,
            ADAPTIVE_CAP_MINUTES,
            adaptive_policy(),
        ));
    }
    let mut runs = engine
        .map(&jobs, |config| run_fleet(config, &model, false))
        .into_iter();
    let mut next_run = || runs.next().expect("one run per job");
    let mut rows = Vec::new();
    for cold_model in MODELS {
        for keep_alive_min in FIXED_KEEP_ALIVE_MINUTES {
            let run = next_run()?;
            rows.push(point(&run, cold_model, "fixed", keep_alive_min));
        }
        let adaptive = next_run()?;
        rows.push(point(
            &adaptive,
            cold_model,
            "adaptive",
            ADAPTIVE_CAP_MINUTES,
        ));
        rows.push(oracle_point(&rows, cold_model, &adaptive));
    }
    Ok(Data { rows })
}

/// Measures one simulated frontier point.
fn point(run: &FleetRun, model: ColdStartModel, policy: &'static str, keep_alive_min: f64) -> Row {
    let served = run.latency_us.count();
    Row {
        model: model.label(),
        policy,
        keep_alive_min,
        memory_instance_s: run.memory_instance_s(),
        cold_start_rate: run.cold_start_rate(),
        slo_violation_rate: if served == 0 {
            0.0
        } else {
            over_slo(run, SLO_MS).min(served) as f64 / served as f64
        },
        mean_ms: run.mean_latency_ms(),
        p99_ms: run.p99_ms(),
        prewarm_spawns: run.prewarm_spawns,
        prewarm_hits: run.prewarm_hits,
        early_decays: run.early_decays(),
    }
}

/// The oracle reference for one model: perfect prediction pre-restores
/// exactly one restore-lead ahead of every arrival, so it matches the
/// best measured latency while billing only the lead time — the
/// analytic floor the frontier converges toward, not a simulated run.
fn oracle_point(rows: &[Row], model: ColdStartModel, adaptive: &FleetRun) -> Row {
    let measured = rows.iter().filter(|r| r.model == model.label());
    let best_p99 = measured
        .clone()
        .map(|r| r.p99_ms)
        .fold(f64::INFINITY, f64::min);
    let best_mean = measured.map(|r| r.mean_ms).fold(f64::INFINITY, f64::min);
    // Lead time per arrival: the flat boot cost bounds every restore
    // path from above, so the floor is conservative (never understated).
    let lead_s = FleetConfig::default().cold_start_ms / 1000.0;
    Row {
        model: model.label(),
        policy: "oracle",
        keep_alive_min: 0.0,
        memory_instance_s: adaptive.invocations as f64 * lead_s,
        cold_start_rate: 0.0,
        slo_violation_rate: 0.0,
        mean_ms: best_mean,
        p99_ms: best_p99,
        prewarm_spawns: 0,
        prewarm_hits: 0,
        early_decays: 0,
    }
}

impl Data {
    /// Rows under one cold-start model, in sweep order.
    pub fn rows_for(&self, model: ColdStartModel) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.model == model.label())
            .collect()
    }

    /// Fixed windows the adaptive policy strictly dominates under
    /// `model`: lower memory-seconds at equal-or-better P99.
    pub fn dominated_fixed_windows(&self, model: ColdStartModel) -> Vec<f64> {
        let rows = self.rows_for(model);
        let Some(adaptive) = rows.iter().find(|r| r.policy == "adaptive") else {
            return Vec::new();
        };
        rows.iter()
            .filter(|r| {
                r.policy == "fixed"
                    && adaptive.memory_instance_s < r.memory_instance_s
                    && adaptive.p99_ms <= r.p99_ms
            })
            .map(|r| r.keep_alive_min)
            .collect()
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pre-warm frontier: memory-seconds vs P99 per cold-start model, SLO {SLO_MS}ms"
        )?;
        // The oracle holds no window, so its window cell reads "-": the
        // one text cell that depends on another column (the policy).
        let mut frontier = self.datasets().swap_remove(0);
        for (cells, r) in frontier.rows.iter_mut().zip(&self.rows) {
            if r.policy == "oracle" {
                cells[2] = Value::str("-");
            }
        }
        write!(f, "{}", frontier.to_text())?;
        for model in MODELS {
            let dominated = self.dominated_fixed_windows(model);
            if dominated.is_empty() {
                writeln!(f, "{}: adaptive dominates no fixed window", model.label())?;
            } else {
                writeln!(
                    f,
                    "{}: adaptive strictly dominates fixed {} (less memory, P99 no worse)",
                    model.label(),
                    dominated
                        .iter()
                        .map(|m| format!("{m:.2}min"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )?;
            }
        }
        Ok(())
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut frontier = Dataset::with_columns(
            "prewarm_frontier.sweep",
            vec![
                Column::new("model", plain),
                Column::new("policy", plain),
                Column::new("keep_alive_min", |v| format!("{:.2}min", v.as_f64())).titled("window"),
                Column::new("memory_instance_s", fixed::<1>).titled("memory inst-s"),
                Column::new("cold_start_rate", x100::<1>).titled("cold %"),
                Column::new("slo_violation_rate", x100::<2>).titled("SLO viol %"),
                Column::new("mean_ms", fixed::<3>).titled("mean ms"),
                Column::new("p99_ms", fixed::<3>).titled("p99 ms"),
                Column::new("prewarm_spawns", plain).titled("pre-spawns"),
                Column::new("prewarm_hits", plain).titled("pre-hits"),
                Column::new("early_decays", plain).titled("decays"),
            ],
        );
        for r in &self.rows {
            frontier.push_row(vec![
                r.model.into(),
                r.policy.into(),
                r.keep_alive_min.into(),
                r.memory_instance_s.into(),
                r.cold_start_rate.into(),
                r.slo_violation_rate.into(),
                r.mean_ms.into(),
                r.p99_ms.into(),
                r.prewarm_spawns.into(),
                r.prewarm_hits.into(),
                r.early_decays.into(),
            ]);
        }
        let mut dominance = Dataset::new(
            "prewarm_frontier.dominance",
            &["model", "dominated_fixed_windows"],
        );
        for model in MODELS {
            dominance.push_row(vec![
                model.label().into(),
                (self.dominated_fixed_windows(model).len() as u64).into(),
            ]);
        }
        vec![frontier, dominance]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Data {
        run(&Engine::single(), &ExperimentParams::quick()).unwrap()
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let d = data();
        // Per model: the fixed windows, one adaptive point, one oracle.
        assert_eq!(
            d.rows.len(),
            MODELS.len() * (FIXED_KEEP_ALIVE_MINUTES.len() + 2)
        );
        for model in MODELS {
            assert_eq!(d.rows_for(model).len(), FIXED_KEEP_ALIVE_MINUTES.len() + 2);
        }
    }

    #[test]
    fn longer_fixed_windows_buy_latency_with_memory() {
        let d = data();
        for model in MODELS {
            let rows = d.rows_for(model);
            let short = rows
                .iter()
                .find(|r| r.policy == "fixed" && r.keep_alive_min < 1.0)
                .unwrap();
            let long = rows
                .iter()
                .find(|r| r.policy == "fixed" && r.keep_alive_min >= 10.0)
                .unwrap();
            assert!(
                short.memory_instance_s < long.memory_instance_s,
                "{}: short window must bill less memory",
                model.label()
            );
            assert!(
                short.cold_start_rate > long.cold_start_rate,
                "{}: short window must start colder",
                model.label()
            );
        }
    }

    #[test]
    fn adaptive_dominates_at_least_one_fixed_window_per_model() {
        let d = data();
        for model in MODELS {
            let dominated = d.dominated_fixed_windows(model);
            assert!(
                !dominated.is_empty(),
                "{}: adaptive must dominate a fixed window\n{d}",
                model.label()
            );
        }
    }

    #[test]
    fn adaptive_policy_actually_predicts() {
        let d = data();
        for model in MODELS {
            let rows = d.rows_for(model);
            let adaptive = rows.iter().find(|r| r.policy == "adaptive").unwrap();
            assert!(
                adaptive.early_decays > 0,
                "{}: no early decays",
                model.label()
            );
            assert!(
                adaptive.memory_instance_s > 0.0,
                "{}: memory must be billed",
                model.label()
            );
        }
    }

    #[test]
    fn oracle_is_the_latency_floor() {
        let d = data();
        for model in MODELS {
            let rows = d.rows_for(model);
            let oracle = rows.iter().find(|r| r.policy == "oracle").unwrap();
            for r in &rows {
                assert!(
                    oracle.p99_ms <= r.p99_ms,
                    "{}: oracle p99 above {}",
                    model.label(),
                    r.policy
                );
            }
            assert_eq!(oracle.cold_start_rate, 0.0);
        }
    }

    #[test]
    fn render_reports_the_frontier_and_exports_two_datasets() {
        let d = data();
        let s = d.to_string();
        assert!(s.contains("Pre-warm frontier"));
        assert!(s.contains("adaptive strictly dominates"));
        let datasets = luke_obs::Export::datasets(&d);
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].name, "prewarm_frontier.sweep");
        assert_eq!(datasets[0].rows.len(), d.rows.len());
        assert_eq!(datasets[1].name, "prewarm_frontier.dominance");
        assert_eq!(datasets[1].rows.len(), MODELS.len());
    }
}
