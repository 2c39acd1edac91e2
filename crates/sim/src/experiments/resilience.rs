//! **Resilience** — workflow latency distributions under seeded fault
//! injection.
//!
//! The paper's SLO framing (workflows must finish within a few tens of
//! milliseconds) assumes every stage completes on its first attempt. Real
//! fleets are less polite: instances crash mid-invocation, requests time
//! out, spawns fail, and warm instances are evicted under memory pressure.
//! This experiment measures the five-stage paper workflows end-to-end
//! while a deterministic [`FaultPlan`] injects those events at a swept
//! rate, with the platform's [`RetryPolicy`] retrying bounded times.
//!
//! Per-stage fault-free service times come from the cycle-accurate
//! simulator (the same measurement [`workflow_slo`] makes) for three
//! configurations: warm (reference), lukewarm (interleaved baseline) and
//! lukewarm with Jukebox — the latter with replay validation active, so a
//! degraded (record-only) Jukebox is what a corrupt-metadata fleet would
//! run. Each swept rate then replays the same seeded fault pattern against
//! all three, making every comparison paired: a rate point differs across
//! configurations only through the service times the faults act on.
//!
//! Reported per (rate, configuration): P50/P99 end-to-end latency over
//! completed requests and SLO attainment (fraction of requests that
//! completed within [`SLO_MS`]; requests abandoned by the retry policy
//! count as misses).

use crate::engine::{Engine, Spec};
use crate::experiments::workflow_slo::{self, WorkflowResult};
use crate::runner::ExperimentParams;
use luke_common::stats::percentile;
use luke_common::table::TextTable;
use luke_common::SimError;
use luke_obs::span::{SpanRing, SpanScope};
use server::{AttemptCosts, FaultPlan, FaultRates, FaultStats, RetryPolicy};
use std::fmt;
use workloads::workflow::Workflow;

/// Cold-start (instance spawn) overhead charged when a stage has no live
/// instance, in milliseconds — the order of a container start.
pub const COLD_START_MS: f64 = 100.0;

/// Per-attempt deadline after which the platform kills a stage attempt.
pub const TIMEOUT_MS: f64 = 250.0;

/// End-to-end SLO target: "a few tens of milliseconds" (paper §1).
pub const SLO_MS: f64 = 25.0;

/// Swept per-kind fault rates (first point is fault-free).
pub const DEFAULT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.15];

/// Seed for the fault plan. Fixed, so rate points share their underlying
/// uniform draws: raising the rate strictly grows the set of struck
/// opportunities.
const SEED: u64 = 0x6C75_6B65; // "luke"

/// Latency distribution of one configuration at one fault rate.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeOutcome {
    /// Configuration label ("warm" / "lukewarm" / "lukewarm+JB").
    pub mode: &'static str,
    /// Median end-to-end latency over completed requests, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency over completed requests, ms.
    pub p99_ms: f64,
    /// Fraction of requests completing within [`SLO_MS`].
    pub slo_attainment: f64,
    /// What the plan injected and how the retry layer responded.
    pub faults: FaultStats,
}

/// All three configurations at one fault rate.
#[derive(Clone, Debug, PartialEq)]
pub struct RatePoint {
    /// Per-kind fault rate.
    pub rate: f64,
    /// Outcomes in warm / lukewarm / lukewarm+JB order.
    pub modes: Vec<ModeOutcome>,
}

/// The resilience sweep for one workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowResilience {
    /// Workflow name.
    pub workflow: String,
    /// Fault-free per-stage latency (the simulator measurement).
    pub latency: WorkflowResult,
    /// Requests simulated per rate point.
    pub requests: u64,
    /// One point per swept rate.
    pub points: Vec<RatePoint>,
}

/// The complete study.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One sweep per workflow.
    pub workflows: Vec<WorkflowResilience>,
}

/// Registry entry: see [`crate::engine::registry`]. The fault sweep
/// itself is pool-level; its cycle-accurate input is the workflow stage
/// latencies, so the plan is exactly [`workflow_slo::plan`]'s grid — the
/// two experiments share every cached cell.
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "resilience",
    aliases: &[],
    description: "Workflow latency distributions under seeded fault injection",
    module: module_path!(),
    plan: workflow_slo::plan,
    run,
};

/// Runs the study on both paper workflows through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let workflows = Workflow::paper_workflows()
        .iter()
        .map(|w| run_workflow_resilience(engine, w, params))
        .collect();
    Ok(Data { workflows })
}

/// Measures one workflow's stage latencies through a shared engine, then
/// sweeps fault rates.
pub fn run_workflow_resilience(
    engine: &Engine,
    workflow: &Workflow,
    params: &ExperimentParams,
) -> WorkflowResilience {
    let latency = workflow_slo::run_workflow(engine, workflow, params);
    let stage_ms = |f: fn(&workflow_slo::StageLatency) -> f64| -> Vec<f64> {
        latency.stages.iter().map(|s| f(s) / 1000.0).collect()
    };
    let requests = requests_for(params);
    let points = sweep(
        &stage_ms(|s| s.warm_us),
        &stage_ms(|s| s.lukewarm_us),
        &stage_ms(|s| s.jukebox_us),
        &DEFAULT_RATES,
        requests,
        &RetryPolicy::default(),
    );
    WorkflowResilience {
        workflow: workflow.name.clone(),
        latency,
        requests,
        points,
    }
}

/// Requests per rate point: enough for a stable P99 even at quick scale.
fn requests_for(params: &ExperimentParams) -> u64 {
    (params.invocations * 150).max(600)
}

/// Sweeps fault rates over three sets of per-stage service times (ms).
/// Every rate point replays the same seeded fault pattern against all
/// three, so comparisons across configurations are paired.
pub fn sweep(
    warm_ms: &[f64],
    lukewarm_ms: &[f64],
    jukebox_ms: &[f64],
    rates: &[f64],
    requests: u64,
    policy: &RetryPolicy,
) -> Vec<RatePoint> {
    rates
        .iter()
        .map(|&rate| {
            let plan = if rate == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::new(SEED, FaultRates::uniform(rate)).expect("swept rate in [0, 1]")
            };
            RatePoint {
                rate,
                modes: vec![
                    simulate_mode("warm", warm_ms, &plan, policy, requests),
                    simulate_mode("lukewarm", lukewarm_ms, &plan, policy, requests),
                    simulate_mode("lukewarm+JB", jukebox_ms, &plan, policy, requests),
                ],
            }
        })
        .collect()
}

/// Pushes `requests` five-stage requests through the fault plan with the
/// given per-stage service times.
fn simulate_mode(
    mode: &'static str,
    stage_ms: &[f64],
    plan: &FaultPlan,
    policy: &RetryPolicy,
    requests: u64,
) -> ModeOutcome {
    let stages = stage_ms.len() as u64;
    let mut stats = FaultStats::default();
    let mut latencies = Vec::with_capacity(requests as usize);
    let mut met = 0u64;
    for req in 0..requests {
        let mut total_ms = 0.0;
        let mut completed = true;
        for (si, &service_ms) in stage_ms.iter().enumerate() {
            let costs = AttemptCosts {
                service_ms,
                cold_start_ms: COLD_START_MS,
                timeout_ms: TIMEOUT_MS,
                starts_cold: false,
            };
            // Each (request, stage) is its own fault-plan invocation, so
            // stages draw independent fault streams.
            let invocation = req * stages + si as u64;
            let r = plan.run_invocation(
                policy,
                invocation,
                &costs,
                &mut stats,
                &mut SpanScope::new(&mut SpanRing::disabled(), 0, 0),
                0.0,
            );
            total_ms += r.latency_ms;
            if !r.completed {
                completed = false;
                break;
            }
        }
        if completed {
            latencies.push(total_ms);
            if total_ms <= SLO_MS {
                met += 1;
            }
        }
    }
    ModeOutcome {
        mode,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        slo_attainment: met as f64 / requests.max(1) as f64,
        faults: stats,
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in &self.workflows {
            writeln!(
                f,
                "Workflow {}: end-to-end latency under fault injection \
                 (SLO {SLO_MS} ms, {} requests/rate, retry {} attempts)",
                w.workflow,
                w.requests,
                RetryPolicy::default().max_attempts,
            )?;
            let mut t = TextTable::new(&[
                "rate",
                "config",
                "P50 ms",
                "P99 ms",
                "SLO %",
                "faults",
                "retries",
                "abandoned",
            ]);
            for p in &w.points {
                for m in &p.modes {
                    t.row(&[
                        format!("{:.2}", p.rate),
                        m.mode.to_string(),
                        format!("{:.2}", m.p50_ms),
                        format!("{:.2}", m.p99_ms),
                        format!("{:.1}", m.slo_attainment * 100.0),
                        format!("{}", m.faults.total_faults()),
                        format!("{}", m.faults.retries),
                        format!("{}", m.faults.abandoned),
                    ]);
                }
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut sweep = luke_obs::Dataset::new(
            "resilience.sweep",
            &[
                "workflow",
                "rate",
                "config",
                "P50 ms",
                "P99 ms",
                "SLO %",
                "faults",
                "retries",
                "abandoned",
                "crashes",
                "timeouts",
                "cold start failures",
                "evictions",
                "completed",
            ],
        );
        let mut replay = luke_obs::Dataset::new(
            "resilience.replay_telemetry",
            &[
                "workflow",
                "requests",
                "replay aborts",
                "dropped prefetches",
            ],
        );
        for w in &self.workflows {
            for p in &w.points {
                for m in &p.modes {
                    sweep.push_row(vec![
                        w.workflow.clone().into(),
                        p.rate.into(),
                        m.mode.into(),
                        m.p50_ms.into(),
                        m.p99_ms.into(),
                        (m.slo_attainment * 100.0).into(),
                        m.faults.total_faults().into(),
                        m.faults.retries.into(),
                        m.faults.abandoned.into(),
                        m.faults.crashes.into(),
                        m.faults.timeouts.into(),
                        m.faults.cold_start_failures.into(),
                        m.faults.evictions.into(),
                        m.faults.completed.into(),
                    ]);
                }
            }
            replay.push_row(vec![
                w.workflow.clone().into(),
                w.requests.into(),
                w.latency.replay_aborts.into(),
                w.latency.dropped_prefetches.into(),
            ]);
        }
        vec![sweep, replay]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic per-stage service times (ms): lukewarm 2× warm, Jukebox
    /// recovering most of the gap — the qualitative shape the simulator
    /// produces, without paying for it in every unit test.
    fn synthetic() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let warm = vec![0.4, 0.6, 0.5, 0.3, 0.7];
        let lukewarm: Vec<f64> = warm.iter().map(|w| w * 2.0).collect();
        let jukebox: Vec<f64> = warm.iter().map(|w| w * 1.2).collect();
        (warm, lukewarm, jukebox)
    }

    fn synthetic_sweep() -> Vec<RatePoint> {
        let (warm, lukewarm, jukebox) = synthetic();
        sweep(
            &warm,
            &lukewarm,
            &jukebox,
            &DEFAULT_RATES,
            800,
            &RetryPolicy::default(),
        )
    }

    #[test]
    fn fault_free_point_is_degenerate_and_meets_slo() {
        let points = synthetic_sweep();
        let p0 = &points[0];
        assert_eq!(p0.rate, 0.0);
        for m in &p0.modes {
            // No faults: every request is identical, so P50 == P99.
            assert_eq!(m.p50_ms, m.p99_ms, "{}", m.mode);
            assert_eq!(m.slo_attainment, 1.0, "{}", m.mode);
            assert_eq!(m.faults.total_faults(), 0, "{}", m.mode);
        }
        // Fault-free latency is the plain sum of stage times.
        let (warm, ..) = synthetic();
        let e2e: f64 = warm.iter().sum();
        assert!((p0.modes[0].p50_ms - e2e).abs() < 1e-9);
    }

    #[test]
    fn faults_degrade_attainment_and_stretch_the_tail() {
        let points = synthetic_sweep();
        let (first, last) = (&points[0], &points[points.len() - 1]);
        for (clean, faulty) in first.modes.iter().zip(&last.modes) {
            assert!(faulty.faults.total_faults() > 0, "{}", faulty.mode);
            assert!(
                faulty.slo_attainment < clean.slo_attainment,
                "{}: {} !< {}",
                faulty.mode,
                faulty.slo_attainment,
                clean.slo_attainment
            );
            assert!(faulty.p99_ms > clean.p99_ms * 2.0, "{}", faulty.mode);
        }
    }

    #[test]
    fn warm_dominates_lukewarm_at_every_rate() {
        // Same seeded fault pattern, smaller service times: warm latency
        // is pointwise ≤ lukewarm, so its percentiles are too.
        for p in synthetic_sweep() {
            let (warm, lukewarm) = (&p.modes[0], &p.modes[1]);
            assert!(warm.p50_ms <= lukewarm.p50_ms, "rate {}", p.rate);
            assert!(warm.p99_ms <= lukewarm.p99_ms, "rate {}", p.rate);
            assert!(
                warm.slo_attainment >= lukewarm.slo_attainment,
                "rate {}",
                p.rate
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(synthetic_sweep(), synthetic_sweep());
    }

    #[test]
    fn experiment_runs_at_quick_scale() {
        let w = run_workflow_resilience(
            &Engine::single(),
            &Workflow::hotel_reservation(),
            &ExperimentParams::quick(),
        );
        assert_eq!(w.latency.stages.len(), 5);
        assert!(w.points.len() >= 3, "at least three swept rates");
        assert!(w.points.iter().any(|p| p.rate == 0.0));
        assert!(w.points.iter().any(|p| p.rate > 0.0));
        // Jukebox recovers latency at the fault-free point: it sits
        // between warm and lukewarm.
        let p0 = &w.points[0];
        let (warm, lukewarm, jukebox) = (&p0.modes[0], &p0.modes[1], &p0.modes[2]);
        assert!(jukebox.p50_ms < lukewarm.p50_ms);
        assert!(jukebox.p50_ms > warm.p50_ms * 0.99);
        // Render shape.
        let data = Data { workflows: vec![w] };
        let s = data.to_string();
        assert!(s.contains("SLO"));
        assert!(s.contains("lukewarm+JB"));
        assert!(s.contains("hotel-reservation"));
    }
}
