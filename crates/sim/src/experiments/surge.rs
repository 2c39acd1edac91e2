//! **Surge** — fleet resilience under flash crowds and host faults.
//!
//! The fleet sweep ([`fleet_scale`]) assumes stationary traffic and
//! perfectly reliable hosts. This experiment drops both assumptions at
//! once: traffic follows a diurnal ramp with an 8x flash crowd on the
//! hottest function ([`luke_fleet::SurgeConfig`]), while a seeded chaos
//! timeline crashes and degrades whole hosts
//! ([`luke_fleet::ChaosConfig`]). The resilience stack responds —
//! probe-driven circuit breakers fail traffic over, half-open hosts get
//! hedged dispatches, down-host reconnects burn a per-function retry
//! budget, and (when enabled) SLO-driven admission control walks its
//! shedding ladder: revoke burst for the long tail, degrade restores to
//! lazy paging under memory pressure, shed only as the last rung.
//!
//! The sweep is routing policy x chaos level (fault-free / moderate /
//! heavy) x admission control (off / on), over identical surge traffic.
//! Service times are calibrated from the cycle-accurate core exactly as
//! in [`fleet_scale`] (same cells, so a shared engine simulates them
//! once). Reported per point: SLO-violation rate at [`SLO_MS`], shed
//! arrivals, degraded restores, failovers, host crashes, retry
//! amplification, and the cold/lukewarm/warm mix.
//!
//! Chaos transitions, hedge joins, and retry reconnects all ride the
//! fleet's calendar-queue event order (`crates/fleet/src/event.rs`), so
//! even the heavy-chaos points are byte-identical across worker-thread
//! counts — the surge rows here are reproducible artifacts, not samples.

use crate::engine::{Cell, Engine, Spec};
use crate::experiments::fleet_scale;
use crate::runner::ExperimentParams;
use luke_common::SimError;
use luke_fleet::{
    run_fleet, AdmissionConfig, ChaosConfig, FleetConfig, FleetRun, HedgeConfig, RetryBudget,
    RoutingPolicy, ServiceModel, SurgeConfig,
};
use luke_obs::export::{fixed, plain, x100, Column, Dataset, Export, Fmt, Value};
use luke_obs::hist::{bucket_index, BUCKETS};
use luke_obs::WindowRow;
use server::RetryPolicy;
use std::fmt;

/// End-to-end latency SLO, ms. Above the 125ms instant cold start, so a
/// plain cold start does not violate; chaos-driven reconnect backoffs
/// and degraded-host slowdowns do.
pub const SLO_MS: f64 = 150.0;

/// Fleet size for the sweep — small enough that the 18-point grid stays
/// test-speed, large enough that even heavy chaos (each host down ~20%
/// of the time) leaves somewhere to fail over to.
const HOSTS: usize = 6;
/// Invocations per host per point (~60–80 surge-seconds of fleet time:
/// several heavy-chaos MTBFs and the whole flash window).
const INVOCATIONS_PER_HOST: usize = 2_000;
/// Deployed functions — smaller than the fleet default so per-function
/// admission limits bind during the flash crowd.
const POPULATION: usize = 60;
/// Timeline window width — 12+ windows over the run, enough to see the
/// flash crowd enter and leave.
const WINDOW_MS: f64 = 5_000.0;

/// Chaos severity swept against every policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosLevel {
    /// No host faults: the surge-only baseline.
    None,
    /// Occasional crashes, mild degradation.
    Moderate,
    /// Frequent crashes, severe (thrashing-host) degradation.
    Heavy,
}

impl ChaosLevel {
    /// Sweep order.
    pub const ALL: [ChaosLevel; 3] = [ChaosLevel::None, ChaosLevel::Moderate, ChaosLevel::Heavy];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ChaosLevel::None => "none",
            ChaosLevel::Moderate => "moderate",
            ChaosLevel::Heavy => "heavy",
        }
    }

    /// The chaos timeline this level seeds.
    pub fn chaos(self) -> ChaosConfig {
        match self {
            ChaosLevel::None => ChaosConfig::none(),
            ChaosLevel::Moderate => ChaosConfig::light(),
            ChaosLevel::Heavy => ChaosConfig::heavy(),
        }
    }
}

/// The non-stationary traffic every point replays: a diurnal ramp plus
/// an 8x flash crowd on the hottest function.
fn surge() -> SurgeConfig {
    SurgeConfig {
        diurnal_amplitude: 0.3,
        diurnal_period_ms: 60_000.0,
        flash_multiplier: 8.0,
        flash_start_ms: 15_000.0,
        flash_duration_ms: 20_000.0,
    }
}

/// Admission knobs when the sweep point enables the controller: tight
/// per-function limits (so the flash crowd actually sheds) and a
/// memory-pressure rung that degrades restores first.
fn admission_on() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        reserved_concurrency: 1,
        burst_concurrency: 2,
        host_concurrency: 24,
        memory_pressure_instances: 40,
    }
}

/// One sweep point's fleet configuration.
fn fleet_config(policy: RoutingPolicy, level: ChaosLevel, admission: bool) -> FleetConfig {
    FleetConfig {
        hosts: HOSTS,
        invocations: HOSTS * INVOCATIONS_PER_HOST,
        population: POPULATION,
        policy,
        chaos: level.chaos(),
        hedge: HedgeConfig {
            enabled: true,
            max_fraction: 0.05,
        },
        retry_budget: RetryBudget::new(10.0, 0.1).expect("budget knobs are valid"),
        admission: if admission {
            admission_on()
        } else {
            AdmissionConfig::disabled()
        },
        surge: surge(),
        // Windowed time-series: the sweep reports per-window timelines
        // (latency percentiles, shed rate, SLO burn) instead of only
        // end-of-run scalars.
        series_window_ms: WINDOW_MS,
        series_slo_ms: SLO_MS,
        // Heavier backoff than the platform default so waiting out a
        // host outage is visible at the SLO (60ms doubling to 500ms).
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 60.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 500.0,
            jitter: 0.3,
            deadline_ms: 10_000.0,
        },
        ..FleetConfig::default()
    }
}

/// Served requests slower than `slo_ms`, by histogram bucket walk (the
/// bucket containing the threshold counts as violating, so the rate is
/// a conservative upper bound — consistent with the histogram's
/// `P99 >= actual` convention). `prewarm_frontier` reads it too.
pub(crate) fn over_slo(run: &FleetRun, slo_ms: f64) -> u64 {
    let first = bucket_index((slo_ms * 1_000.0) as u64);
    (first..BUCKETS)
        .map(|i| run.latency_us.bucket_count(i))
        .sum()
}

/// One sweep point: a routing policy under a chaos level, admission on
/// or off, over identical surge traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Routing policy label.
    pub policy: &'static str,
    /// Chaos level label.
    pub chaos: &'static str,
    /// Whether admission control was enabled.
    pub admission: bool,
    /// Fraction of served requests exceeding [`SLO_MS`] (abandoned
    /// requests count as violations).
    pub slo_violation_rate: f64,
    /// Arrivals rejected by the admission ladder's last rung.
    pub shed: u64,
    /// Cold starts degraded to lazy-paging restores under memory
    /// pressure.
    pub degraded_restores: u64,
    /// Arrivals re-routed around an open breaker.
    pub failovers: u64,
    /// Hedged dispatches to half-open hosts.
    pub hedges: u64,
    /// Whole-host crashes over the run.
    pub host_crashes: u64,
    /// Mean dispatch attempts per served invocation (1.0 = no retries).
    pub retry_amplification: f64,
    /// Fraction of served invocations with no warm instance.
    pub cold_start_rate: f64,
    /// Fraction served warm but microarchitecturally cold.
    pub lukewarm_fraction: f64,
    /// Fraction served truly warm.
    pub warm_fraction: f64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// Tail latency, ms.
    pub p99_ms: f64,
}

/// One window of one sweep point's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineRow {
    /// Routing policy label.
    pub policy: &'static str,
    /// Chaos level label.
    pub chaos: &'static str,
    /// Whether admission control was enabled.
    pub admission: bool,
    /// The windowed statistics.
    pub window: WindowRow,
}

/// The full sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per (policy, chaos level, admission) point.
    pub rows: Vec<Row>,
    /// Per-window timelines (`WINDOW_MS`-wide), one run per point, in
    /// sweep order.
    pub timelines: Vec<TimelineRow>,
}

/// Cell grid: the same calibration runs as the fleet sweep, so a shared
/// engine simulates them once for both experiments.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    fleet_scale::plan(params)
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "surge",
    aliases: &[],
    description: "Resilience sweep: policy x chaos level x admission under a flash crowd",
    module: module_path!(),
    plan,
    run,
};

/// Runs the sweep, calibrating through the shared engine. Each
/// grid point is one [`Engine::map`] job; rows and timelines are
/// assembled in grid order.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let model = fleet_scale::calibrate_model(engine, params)?;
    let mut points = Vec::new();
    for level in ChaosLevel::ALL {
        for admission in [false, true] {
            for policy in RoutingPolicy::ALL {
                points.push((level, admission, policy));
            }
        }
    }
    let results = engine.map(&points, |&(level, admission, policy)| {
        run_point(&model, policy, level, admission)
    });
    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    for (&(level, admission, policy), result) in points.iter().zip(results) {
        let (row, timeline) = result?;
        rows.push(row);
        timelines.extend(timeline.into_iter().map(|window| TimelineRow {
            policy: policy.label(),
            chaos: level.label(),
            admission,
            window,
        }));
    }
    Ok(Data { rows, timelines })
}

fn run_point(
    model: &ServiceModel,
    policy: RoutingPolicy,
    level: ChaosLevel,
    admission: bool,
) -> Result<(Row, Vec<WindowRow>), SimError> {
    let run = run_fleet(&fleet_config(policy, level, admission), model, false)?;
    let served = run.latency_us.count();
    let row = Row {
        policy: policy.label(),
        chaos: level.label(),
        admission,
        slo_violation_rate: if served == 0 {
            0.0
        } else {
            (over_slo(&run, SLO_MS) + run.abandoned).min(served) as f64 / served as f64
        },
        shed: run.shed,
        degraded_restores: run.degraded_restores,
        failovers: run.failovers,
        hedges: run.hedges,
        host_crashes: run.host_crashes,
        retry_amplification: run.retry_amplification(),
        cold_start_rate: run.cold_start_rate(),
        lukewarm_fraction: run.lukewarm_fraction(),
        warm_fraction: if run.invocations == 0 {
            0.0
        } else {
            run.warm_hits as f64 / run.invocations as f64
        },
        mean_ms: run.mean_latency_ms(),
        p99_ms: run.p99_ms(),
    };
    Ok((row, run.timeline))
}

impl Data {
    /// Rows at one chaos level, in sweep order.
    pub fn rows_at(&self, level: ChaosLevel) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.chaos == level.label())
            .collect()
    }

    /// Mean SLO-violation rate over the rows at `level`.
    pub fn mean_violation_rate(&self, level: ChaosLevel) -> f64 {
        let rows = self.rows_at(level);
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.slo_violation_rate).sum::<f64>() / rows.len() as f64
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Surge: policy x chaos x admission under a flash crowd, SLO {SLO_MS}ms"
        )?;
        let datasets = self.datasets();
        write!(f, "{}", datasets[0].to_text())?;
        writeln!(
            f,
            "Mean SLO violations: fault-free {:.2}% vs heavy chaos {:.2}%",
            self.mean_violation_rate(ChaosLevel::None) * 100.0,
            self.mean_violation_rate(ChaosLevel::Heavy) * 100.0,
        )?;
        // The headline point's timeline: heavy chaos with admission on,
        // under the keep-alive-aware router.
        let timeline = &datasets[1];
        let headline: Vec<&Vec<Value>> = self
            .timelines
            .iter()
            .zip(&timeline.rows)
            .filter(|(t, _)| t.chaos == "heavy" && t.admission && t.policy == "keep-alive-aware")
            .map(|(_, cells)| cells)
            .collect();
        if headline.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "\nTimeline (keep-alive-aware, heavy chaos, admission on):"
        )?;
        write!(f, "{}", timeline.text_of(headline))
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let on_off: Fmt = |v| if v.as_f64() == 0.0 { "off" } else { "on" }.to_string();
        let mut sweep = Dataset::with_columns(
            "surge.sweep",
            vec![
                Column::new("policy", plain),
                Column::new("chaos", plain),
                Column::new("admission", on_off),
                Column::new("slo_violation_rate", x100::<2>).titled("SLO viol %"),
                Column::new("shed", plain),
                Column::new("degraded_restores", plain).titled("degraded"),
                Column::new("failovers", plain),
                Column::new("hedges", plain),
                Column::new("host_crashes", plain).titled("crashes"),
                Column::new("retry_amplification", fixed::<3>).titled("retry amp"),
                Column::new("cold_start_rate", x100::<1>).titled("cold %"),
                Column::new("lukewarm_fraction", x100::<1>).titled("lukewarm %"),
                Column::new("warm_fraction", x100::<1>).titled("warm %"),
                Column::new("mean_ms", fixed::<3>).titled("mean ms"),
                Column::new("p99_ms", fixed::<3>).titled("p99 ms"),
            ],
        );
        for r in &self.rows {
            sweep.push_row(vec![
                r.policy.into(),
                r.chaos.into(),
                u64::from(r.admission).into(),
                r.slo_violation_rate.into(),
                r.shed.into(),
                r.degraded_restores.into(),
                r.failovers.into(),
                r.hedges.into(),
                r.host_crashes.into(),
                r.retry_amplification.into(),
                r.cold_start_rate.into(),
                r.lukewarm_fraction.into(),
                r.warm_fraction.into(),
                r.mean_ms.into(),
                r.p99_ms.into(),
            ]);
        }
        // Empty windows export as NaN, which the JSON writer renders as
        // null and the text table as "-" (never a fake 0).
        let ms_or_dash: Fmt = |v| match v.as_f64() {
            ms if ms.is_nan() => "-".to_string(),
            ms => format!("{ms:.1}"),
        };
        let mut timeline = Dataset::with_columns(
            "surge.timeline",
            vec![
                Column::hidden("policy"),
                Column::hidden("chaos"),
                Column::hidden("admission"),
                Column::new("window_start_ms", |v| format!("{:.0}", v.as_f64() / 1000.0))
                    .titled("window s"),
                Column::new("arrivals", plain),
                Column::new("p50_ms", ms_or_dash).titled("p50 ms"),
                Column::new("p99_ms", ms_or_dash).titled("p99 ms"),
                Column::new("shed_rate", x100::<1>).titled("shed %"),
                Column::new("slo_burn", x100::<1>).titled("burn %"),
                Column::new("cold_frac", x100::<1>).titled("cold %"),
                Column::new("luke_frac", x100::<1>).titled("luke %"),
                Column::new("warm_frac", x100::<1>).titled("warm %"),
            ],
        );
        for t in &self.timelines {
            let w = &t.window;
            timeline.push_row(vec![
                t.policy.into(),
                t.chaos.into(),
                u64::from(t.admission).into(),
                w.start_ms.into(),
                w.arrivals.into(),
                w.p50_ms.unwrap_or(f64::NAN).into(),
                w.p99_ms.unwrap_or(f64::NAN).into(),
                w.shed_rate.into(),
                w.slo_burn.into(),
                w.cold_frac.into(),
                w.luke_frac.into(),
                w.warm_frac.into(),
            ]);
        }
        vec![sweep, timeline]
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
        assert_eq!(
            d.rows.len(),
            RoutingPolicy::ALL.len() * ChaosLevel::ALL.len() * 2
        );
    }

    #[test]
    fn fault_free_points_see_no_resilience_activity() {
        let d = data();
        for r in d.rows_at(ChaosLevel::None) {
            assert_eq!(r.host_crashes, 0, "{}: crashes without chaos", r.policy);
            assert_eq!(r.failovers, 0, "{}: failovers without chaos", r.policy);
            assert_eq!(r.hedges, 0, "{}: hedges without half-open hosts", r.policy);
            if !r.admission {
                assert_eq!(r.shed, 0, "{}: shed without admission", r.policy);
                assert!(
                    (r.retry_amplification - 1.0).abs() < 1e-12,
                    "{}: retries without faults",
                    r.policy
                );
            }
        }
    }

    #[test]
    fn heavy_chaos_crashes_hosts_and_fails_over_everywhere() {
        let d = data();
        for r in d.rows_at(ChaosLevel::Heavy) {
            assert!(
                r.host_crashes > 0,
                "{} adm={}: no crashes",
                r.policy,
                r.admission
            );
            assert!(
                r.failovers > 0,
                "{} adm={}: no failovers",
                r.policy,
                r.admission
            );
            assert!(
                r.retry_amplification > 1.0,
                "{} adm={}: down-host reconnects must retry",
                r.policy,
                r.admission
            );
        }
    }

    #[test]
    fn chaos_raises_the_slo_violation_rate() {
        let d = data();
        let none = d.mean_violation_rate(ChaosLevel::None);
        let heavy = d.mean_violation_rate(ChaosLevel::Heavy);
        assert!(heavy > none, "heavy {heavy} vs fault-free {none}");
    }

    #[test]
    fn admission_sheds_the_flash_crowd() {
        let d = data();
        let shed_on: u64 = d.rows.iter().filter(|r| r.admission).map(|r| r.shed).sum();
        let shed_off: u64 = d.rows.iter().filter(|r| !r.admission).map(|r| r.shed).sum();
        assert!(shed_on > 0, "tight limits under an 8x flash must shed");
        assert_eq!(shed_off, 0, "no controller, no shedding");
    }

    #[test]
    fn render_reports_the_sweep_and_exports_two_datasets() {
        let d = data();
        let s = d.to_string();
        assert!(s.contains("Mean SLO violations"));
        assert!(s.contains("heavy"));
        assert!(s.contains("Timeline (keep-alive-aware"));
        let datasets = luke_obs::Export::datasets(&d);
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].name, "surge.sweep");
        assert_eq!(datasets[0].rows.len(), d.rows.len());
        assert_eq!(datasets[1].name, "surge.timeline");
        assert_eq!(datasets[1].rows.len(), d.timelines.len());
    }

    #[test]
    fn timelines_track_the_flash_crowd_per_window() {
        let d = data();
        // Every sweep point reports a multi-window timeline.
        for r in &d.rows {
            let windows: Vec<_> = d
                .timelines
                .iter()
                .filter(|t| {
                    t.policy == r.policy && t.chaos == r.chaos && t.admission == r.admission
                })
                .collect();
            assert!(
                windows.len() >= 3,
                "{} {}: {} windows",
                r.policy,
                r.chaos,
                windows.len()
            );
            // Windowed arrivals cover every routed invocation.
            let arrivals: u64 = windows.iter().map(|t| t.window.arrivals).sum();
            assert!(arrivals > 0, "{} {}: empty timeline", r.policy, r.chaos);
        }
        // The flash window (15s–35s) concentrates arrivals: its busiest
        // window beats the pre-flash baseline window.
        let heavy_off: Vec<_> = d
            .timelines
            .iter()
            .filter(|t| t.chaos == "none" && !t.admission && t.policy == "keep-alive-aware")
            .collect();
        let at = |ms: f64| {
            heavy_off
                .iter()
                .find(|t| t.window.start_ms <= ms && ms < t.window.start_ms + WINDOW_MS)
                .map(|t| t.window.arrivals)
                .unwrap_or(0)
        };
        assert!(
            at(20_000.0) > at(5_000.0),
            "flash window {} vs baseline {}",
            at(20_000.0),
            at(5_000.0)
        );
        // Shedding shows up in the windowed shed rate exactly when the
        // controller is on.
        let shed_on: f64 = d
            .timelines
            .iter()
            .filter(|t| t.admission)
            .map(|t| t.window.shed_rate)
            .sum();
        let shed_off: f64 = d
            .timelines
            .iter()
            .filter(|t| !t.admission)
            .map(|t| t.window.shed_rate)
            .sum();
        assert!(shed_on > 0.0);
        assert_eq!(shed_off, 0.0);
    }
}
