//! **Fleet-scale sweep** — routing policy × fleet size × keep-alive
//! window, with the fleet's service model calibrated from the
//! cycle-accurate simulator.
//!
//! The paper characterizes one lukewarm host; this experiment asks what
//! its findings imply at cluster scale. The bridge is calibration: for
//! every suite function the cycle-accurate core measures warm CPI,
//! lukewarm (flush-model) CPI, and lukewarm+Jukebox CPI, and those
//! ratios become the fleet simulator's per-function latency factors
//! ([`luke_fleet::ServiceModel::from_timings`]). The fleet then sweeps
//! the knobs only a cluster has — how the load balancer spreads
//! functions over hosts, how many hosts there are, how long instances
//! are kept alive — and reports cold-start rate, lukewarm fraction,
//! latency percentiles, and the Jukebox speedup for each point.
//!
//! The headline result mirrors §2's argument: locality-blind routing
//! (round-robin) multiplies per-host inter-arrival gaps by the fleet
//! size, so *almost every* warm hit turns lukewarm, while
//! keep-alive-aware routing keeps functions pinned and caches warm —
//! and Jukebox's benefit is largest exactly where routing is worst.
//!
//! Every sweep point runs through the fleet's calendar-queue event core
//! (see `docs/FLEET.md`): a streaming producer routes arrivals into
//! bounded per-shard queues while work-stealing workers drain
//! deterministic host shards, so each cell's result is byte-identical
//! at any worker-thread count and peak routed memory stays
//! O(hosts + in-flight) even at the largest fleet sizes swept here.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::SimError;
use luke_fleet::{
    run_fleet, FleetComparison, FleetConfig, FunctionTiming, RoutingPolicy, ServiceModel, FREQ_GHZ,
};
use luke_obs::export::{fixed, plain, speedup, x100, Column, Dataset, Export};
use std::fmt;
use workloads::paper_suite;

/// Fleet invocations simulated per host in each sweep point. At the
/// default 20 invocations per host-second every run spans ~100 seconds
/// of fleet time, so the short keep-alive window below actually binds.
const INVOCATIONS_PER_HOST: usize = 2_000;
/// Deployed logical functions across the fleet.
const POPULATION: usize = 200;
/// Keep-alive windows swept, minutes: 15 seconds (tail functions
/// expire and pay fresh cold starts) vs the Azure-style 10 minutes
/// (nothing expires within the run).
const KEEP_ALIVE_MINUTES: [f64; 2] = [0.25, 10.0];

/// One sweep point: a routing policy on a fleet of a given size and
/// keep-alive window, base vs Jukebox over identical traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Routing policy label.
    pub policy: &'static str,
    /// Fleet size.
    pub hosts: usize,
    /// Keep-alive window, minutes.
    pub keep_alive_min: f64,
    /// Fraction of invocations with no warm instance.
    pub cold_start_rate: f64,
    /// Fraction of invocations served warm but microarchitecturally
    /// cold.
    pub lukewarm_fraction: f64,
    /// Lukewarm share *of warm hits* — the policy-comparable number
    /// (the total fraction above is deflated by cold starts, which
    /// locality-blind policies produce far more of).
    pub lukewarm_of_hits: f64,
    /// Mean end-to-end latency without Jukebox, ms.
    pub mean_ms: f64,
    /// Median latency without Jukebox, ms.
    pub p50_ms: f64,
    /// Tail latency without Jukebox, ms.
    pub p99_ms: f64,
    /// Mean-latency speedup of Jukebox at this point.
    pub speedup: f64,
}

/// The sweep plus the calibrated per-function timings that priced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// Simulator-calibrated per-function timings.
    pub timings: Vec<FunctionTiming>,
    /// One row per (policy, fleet size, keep-alive) point.
    pub rows: Vec<Row>,
}

/// The calibration configurations per function: warm reference, flush-
/// model lukewarm, and lukewarm+Jukebox.
fn calibration_points(config: &SystemConfig) -> [(PrefetcherKind, RunSpec); 3] {
    [
        (PrefetcherKind::None, RunSpec::reference()),
        (PrefetcherKind::None, RunSpec::lukewarm()),
        (PrefetcherKind::Jukebox(config.jukebox), RunSpec::lukewarm()),
    ]
}

/// Cell grid: the calibration runs (the fleet sweep itself is pool-level
/// and stays outside the cache).
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
    paper_suite()
        .into_iter()
        .flat_map(|p| {
            let profile = p.scaled(params.scale);
            calibration_points(&config)
                .into_iter()
                .map(move |(kind, spec)| Cell::new(&config, &profile, kind, spec, params))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fleet",
    aliases: &[],
    description:
        "Cluster sweep: routing policy x fleet size x keep-alive, calibrated from the core",
    module: module_path!(),
    plan,
    run,
};

/// Calibrates the fleet's service model from the cycle-accurate core,
/// through a shared engine: per suite function, warm CPI (back-to-back,
/// no prefetcher), lukewarm CPI (flush model), and lukewarm+Jukebox CPI.
/// Service times use the *unscaled* instruction counts so fleet latencies
/// stay paper-sized even in quick runs.
pub fn calibrate_model(
    engine: &Engine,
    params: &ExperimentParams,
) -> Result<ServiceModel, SimError> {
    let config = SystemConfig::skylake();
    let full = paper_suite();
    let timings = full
        .iter()
        .map(|full_profile| {
            let p = full_profile.scaled(params.scale);
            let [(warm_kind, warm_spec), (lw_kind, lw_spec), (jb_kind, jb_spec)] =
                calibration_points(&config);
            let warm = engine.run(&config, &p, warm_kind, warm_spec, params);
            let lukewarm = engine.run(&config, &p, lw_kind, lw_spec, params);
            let jukebox = engine.run(&config, &p, jb_kind, jb_spec, params);
            let warm_cpi = warm.cpi();
            let lukewarm_factor = (lukewarm.cpi() / warm_cpi).max(1.0);
            let jukebox_factor = (jukebox.cpi() / warm_cpi).clamp(1.0, lukewarm_factor);
            FunctionTiming {
                name: full_profile.name.clone(),
                warm_ms: full_profile.instructions as f64 * warm_cpi / (FREQ_GHZ * 1e6),
                lukewarm_factor,
                jukebox_factor,
            }
        })
        .collect();
    ServiceModel::from_timings(timings)
}

/// Fleet sizes for the sweep: cluster-scale when `params` is at paper
/// scale, small when quick.
fn fleet_sizes(params: &ExperimentParams) -> &'static [usize] {
    if params.scale >= 0.5 {
        &[8, 32, 128]
    } else {
        &[4, 16]
    }
}

/// Runs the sweep, calibrating through the shared engine. Each
/// sweep point's base and Jukebox fleet runs are two [`Engine::map`]
/// jobs; the rows are assembled in sweep order.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let model = calibrate_model(engine, params)?;
    let mut points = Vec::new();
    let mut jobs = Vec::new();
    for &hosts in fleet_sizes(params) {
        for keep_alive_min in KEEP_ALIVE_MINUTES {
            for policy in RoutingPolicy::ALL {
                let config = FleetConfig {
                    hosts,
                    invocations: hosts * INVOCATIONS_PER_HOST,
                    keep_alive_ms: keep_alive_min * 60_000.0,
                    policy,
                    population: POPULATION,
                    ..FleetConfig::default()
                };
                points.push((hosts, keep_alive_min, policy));
                jobs.push((config.clone(), false));
                jobs.push((config, true));
            }
        }
    }
    let mut runs = engine
        .map(&jobs, |(config, jukebox)| {
            run_fleet(config, &model, *jukebox)
        })
        .into_iter();
    let mut rows = Vec::new();
    for (hosts, keep_alive_min, policy) in points {
        let pair = FleetComparison {
            base: runs.next().expect("one base run per point")?,
            jukebox: runs.next().expect("one Jukebox run per point")?,
        };
        let hits = pair.base.warm_hits + pair.base.lukewarm_hits;
        rows.push(Row {
            policy: policy.label(),
            hosts,
            keep_alive_min,
            cold_start_rate: pair.base.cold_start_rate(),
            lukewarm_fraction: pair.base.lukewarm_fraction(),
            lukewarm_of_hits: if hits == 0 {
                0.0
            } else {
                pair.base.lukewarm_hits as f64 / hits as f64
            },
            mean_ms: pair.base.mean_latency_ms(),
            p50_ms: pair.base.p50_ms(),
            p99_ms: pair.base.p99_ms(),
            speedup: pair.speedup(),
        });
    }
    Ok(Data {
        timings: model_timings(&model),
        rows,
    })
}

fn model_timings(model: &ServiceModel) -> Vec<FunctionTiming> {
    (0..model.functions())
        .map(|i| model.timing(i).clone())
        .collect()
}

impl Data {
    /// Rows for one policy, in sweep order.
    pub fn rows_for(&self, policy: RoutingPolicy) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.policy == policy.label())
            .collect()
    }

    /// Worst lukewarm fraction across the sweep for `policy`.
    pub fn peak_lukewarm_fraction(&self, policy: RoutingPolicy) -> f64 {
        self.rows_for(policy)
            .iter()
            .map(|r| r.lukewarm_fraction)
            .fold(0.0, f64::max)
    }

    /// Mean lukewarm share of warm hits across the sweep for `policy`.
    pub fn mean_lukewarm_of_hits(&self, policy: RoutingPolicy) -> f64 {
        let rows = self.rows_for(policy);
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.lukewarm_of_hits).sum::<f64>() / rows.len() as f64
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet scale: routing policy x fleet size x keep-alive, \
             {} simulator-calibrated functions",
            self.timings.len()
        )?;
        write!(f, "{}", self.datasets()[0].to_text())?;
        writeln!(
            f,
            "Mean lukewarm share of warm hits: round-robin {:.1}% vs keep-alive-aware {:.1}%",
            self.mean_lukewarm_of_hits(RoutingPolicy::RoundRobin) * 100.0,
            self.mean_lukewarm_of_hits(RoutingPolicy::KeepAliveAware) * 100.0,
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut sweep = Dataset::with_columns(
            "fleet_scale.sweep",
            vec![
                Column::new("policy", plain),
                Column::new("hosts", plain),
                Column::new("keep_alive_min", |v| format!("{:.2}min", v.as_f64()))
                    .titled("keep-alive"),
                Column::new("cold_start_rate", x100::<1>).titled("cold %"),
                Column::new("lukewarm_fraction", x100::<1>).titled("lukewarm %"),
                Column::new("lukewarm_of_hits", x100::<1>).titled("lw/hits %"),
                Column::new("mean_ms", fixed::<3>).titled("mean ms"),
                Column::new("p50_ms", fixed::<3>).titled("p50 ms"),
                Column::new("p99_ms", fixed::<3>).titled("p99 ms"),
                Column::new("speedup", speedup::<1>).titled("JB speedup"),
            ],
        );
        for r in &self.rows {
            sweep.push_row(vec![
                r.policy.into(),
                (r.hosts as u64).into(),
                r.keep_alive_min.into(),
                r.cold_start_rate.into(),
                r.lukewarm_fraction.into(),
                r.lukewarm_of_hits.into(),
                r.mean_ms.into(),
                r.p50_ms.into(),
                r.p99_ms.into(),
                r.speedup.into(),
            ]);
        }
        let mut calibration = Dataset::new(
            "fleet_scale.calibration",
            &["function", "warm_ms", "lukewarm_factor", "jukebox_factor"],
        );
        for t in &self.timings {
            calibration.push_row(vec![
                t.name.clone().into(),
                t.warm_ms.into(),
                t.lukewarm_factor.into(),
                t.jukebox_factor.into(),
            ]);
        }
        vec![sweep, calibration]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Data {
        run(&Engine::single(), &ExperimentParams::quick()).unwrap()
    }

    #[test]
    fn calibrated_timings_are_ordered_and_paper_sized() {
        let model = calibrate_model(&Engine::single(), &ExperimentParams::quick()).unwrap();
        for i in 0..model.functions() {
            let t = model.timing(i);
            assert!(
                t.warm_ms > 0.05 && t.warm_ms < 10.0,
                "{}: {}",
                t.name,
                t.warm_ms
            );
            assert!(t.lukewarm_factor > 1.0, "{}: flush model must cost", t.name);
            assert!(
                t.jukebox_factor < t.lukewarm_factor,
                "{}: jukebox must recover some penalty",
                t.name
            );
        }
    }

    #[test]
    fn routing_policy_changes_the_lukewarm_fraction() {
        let d = data();
        // Hit-normalized: scattering functions makes essentially every
        // warm hit lukewarm; pinning them keeps a visible share truly
        // warm. (The total fraction is policy-dependent too, but in the
        // opposite-looking direction: locality-blind policies convert
        // would-be lukewarm hits into cold starts.)
        let rr = d.mean_lukewarm_of_hits(RoutingPolicy::RoundRobin);
        let kaa = d.mean_lukewarm_of_hits(RoutingPolicy::KeepAliveAware);
        assert!(kaa < rr, "keep-alive-aware {kaa} vs round-robin {rr}");
        // And every sweep point agrees on cold starts and latency.
        let largest = *fleet_sizes(&ExperimentParams::quick()).last().unwrap();
        let rr_row = d
            .rows
            .iter()
            .find(|r| r.policy == "round-robin" && r.hosts == largest)
            .unwrap();
        let kaa_row = d
            .rows
            .iter()
            .find(|r| r.policy == "keep-alive-aware" && r.hosts == largest)
            .unwrap();
        assert!(kaa_row.cold_start_rate < rr_row.cold_start_rate);
        assert!(kaa_row.mean_ms < rr_row.mean_ms);
        assert!(kaa_row.lukewarm_fraction != rr_row.lukewarm_fraction);
    }

    #[test]
    fn short_keep_alive_raises_cold_starts() {
        let d = data();
        for policy in RoutingPolicy::ALL {
            let rows = d.rows_for(policy);
            let short: f64 = rows
                .iter()
                .filter(|r| r.keep_alive_min < 1.0)
                .map(|r| r.cold_start_rate)
                .sum();
            let long: f64 = rows
                .iter()
                .filter(|r| r.keep_alive_min >= 1.0)
                .map(|r| r.cold_start_rate)
                .sum();
            assert!(
                short > long,
                "{}: 15s keep-alive cold {short} vs 10min {long}",
                policy.label()
            );
        }
    }

    #[test]
    fn jukebox_speeds_up_every_policy() {
        let d = data();
        for policy in RoutingPolicy::ALL {
            for r in d.rows_for(policy) {
                assert!(
                    r.speedup > 1.0,
                    "{} at {} hosts: speedup {}",
                    r.policy,
                    r.hosts,
                    r.speedup
                );
            }
        }
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let d = data();
        let points = fleet_sizes(&ExperimentParams::quick()).len()
            * KEEP_ALIVE_MINUTES.len()
            * RoutingPolicy::ALL.len();
        assert_eq!(d.rows.len(), points);
    }

    #[test]
    fn render_reports_policies_and_calibration() {
        let d = data();
        let s = d.to_string();
        assert!(s.contains("keep-alive-aware"));
        assert!(s.contains("Mean lukewarm share of warm hits"));
        let datasets = luke_obs::Export::datasets(&d);
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[1].rows.len(), 20);
    }
}
