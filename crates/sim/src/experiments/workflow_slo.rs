//! **Workflow end-to-end latency** — the SLO framing of the paper's
//! introduction, measured on the two serverless workflows in the suite.
//!
//! Interactive services must meet end-to-end SLOs of a few tens of
//! milliseconds \[20\], which is why individual functions are expected to
//! complete in about a millisecond \[25, 45, 54\]. A request to the Hotel
//! Reservation or Online Boutique application traverses five functions in
//! sequence; every stage's lukewarm penalty lands on the critical path.
//! This experiment measures per-stage and end-to-end latency (cycles →
//! wall-clock at the platform frequency) for warm, lukewarm and
//! lukewarm+Jukebox execution.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{run_observed, ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::SimError;
use luke_obs::export::{fixed, plain, Column, Dataset, Export, Value};
use std::fmt;
use workloads::workflow::Workflow;

/// Latency of one workflow stage under the three configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct StageLatency {
    /// Stage function name.
    pub function: String,
    /// Mean warm (reference) invocation latency in microseconds.
    pub warm_us: f64,
    /// Mean lukewarm invocation latency in microseconds.
    pub lukewarm_us: f64,
    /// Mean lukewarm latency with Jukebox, in microseconds.
    pub jukebox_us: f64,
}

/// End-to-end results for one workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowResult {
    /// Workflow name.
    pub workflow: String,
    /// Per-stage latencies.
    pub stages: Vec<StageLatency>,
    /// Replay validation aborts observed across the Jukebox stage
    /// measurements (corrupt metadata degrades Jukebox to record-only).
    pub replay_aborts: u64,
    /// Prefetches dropped by replay validation across the Jukebox stage
    /// measurements.
    pub dropped_prefetches: u64,
}

impl WorkflowResult {
    /// End-to-end latency (sum of stages) for (warm, lukewarm, jukebox),
    /// in microseconds.
    pub fn end_to_end_us(&self) -> (f64, f64, f64) {
        let sum = |f: fn(&StageLatency) -> f64| self.stages.iter().map(f).sum();
        (
            sum(|s| s.warm_us),
            sum(|s| s.lukewarm_us),
            sum(|s| s.jukebox_us),
        )
    }

    /// Fraction of the lukewarm end-to-end *slowdown* that Jukebox
    /// removes.
    pub fn recovered_fraction(&self) -> f64 {
        let (warm, lukewarm, jukebox) = self.end_to_end_us();
        if lukewarm <= warm {
            return 0.0;
        }
        (lukewarm - jukebox) / (lukewarm - warm)
    }
}

/// The complete workflow study.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One result per workflow.
    pub workflows: Vec<WorkflowResult>,
}

/// Cell grid: the warm (reference) and lukewarm baseline points of every
/// stage of both workflows. The Jukebox stage runs observed — its
/// replay-validation telemetry is part of the result — so it stays
/// outside the cell cache.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
    Workflow::paper_workflows()
        .into_iter()
        .flat_map(|w| w.scaled(params.scale).stages)
        .flat_map(|profile| {
            [RunSpec::reference(), RunSpec::lukewarm()]
                .into_iter()
                .map(move |spec| Cell::new(&config, &profile, PrefetcherKind::None, spec, params))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "workflows",
    aliases: &[],
    description: "End-to-end workflow latency: warm vs lukewarm vs lukewarm+Jukebox",
    module: module_path!(),
    plan,
    run,
};

/// Runs the study on both paper workflows through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let workflows = Workflow::paper_workflows()
        .into_iter()
        .map(|w| run_workflow(engine, &w, params))
        .collect();
    Ok(Data { workflows })
}

/// Measures one workflow through a shared engine. Each stage's observed
/// Jukebox run is one [`Engine::map`] job; the stages are assembled in
/// workflow order.
pub fn run_workflow(
    engine: &Engine,
    workflow: &Workflow,
    params: &ExperimentParams,
) -> WorkflowResult {
    let config = SystemConfig::skylake();
    let cycles_to_us = 1.0 / (config.core.freq_ghz * 1000.0);
    let profiles = workflow.scaled(params.scale).stages;
    // The Jukebox configuration runs observed (event tracing off) so its
    // replay-validation telemetry lands in the result; the observed
    // summary is identical to a plain run's.
    let observed = engine.map(&profiles, |profile| {
        run_observed(
            &config,
            profile,
            PrefetcherKind::Jukebox(config.jukebox),
            RunSpec::lukewarm(),
            params,
            0,
        )
    });
    let mut replay_aborts = 0u64;
    let mut dropped_prefetches = 0u64;
    let stages = profiles
        .iter()
        .zip(observed)
        .map(|(profile, obs)| {
            let mean_us = |kind: PrefetcherKind, spec: RunSpec| {
                let s = engine.run(&config, profile, kind, spec, params);
                s.cycles as f64 / s.invocations.max(1) as f64 * cycles_to_us
            };
            replay_aborts += obs.registry.counter("replay.aborts");
            dropped_prefetches += obs.registry.counter("replay.dropped_prefetches");
            StageLatency {
                function: profile.name.clone(),
                warm_us: mean_us(PrefetcherKind::None, RunSpec::reference()),
                lukewarm_us: mean_us(PrefetcherKind::None, RunSpec::lukewarm()),
                jukebox_us: obs.summary.cycles as f64 / obs.summary.invocations.max(1) as f64
                    * cycles_to_us,
            }
        })
        .collect();
    WorkflowResult {
        workflow: workflow.name.clone(),
        stages,
        replay_aborts,
        dropped_prefetches,
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let datasets = self.datasets();
        let stages = &datasets[0];
        for w in &self.workflows {
            writeln!(f, "Workflow {}: per-stage latency (µs)", w.workflow)?;
            let workflow = Value::str(&w.workflow);
            let rows = stages.rows.iter().filter(|row| row[0] == workflow);
            writeln!(f, "{}", stages.text_of(rows))?;
            writeln!(
                f,
                "Jukebox recovers {:.0}% of the end-to-end lukewarm slowdown\n",
                w.recovered_fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut stages = Dataset::with_columns(
            "workflow_slo.stages",
            vec![
                Column::hidden("workflow"),
                Column::new("stage", plain),
                Column::new("warm", fixed::<0>),
                Column::new("lukewarm", fixed::<0>),
                Column::new("lukewarm+JB", fixed::<0>),
            ],
        );
        let mut summary = Dataset::new(
            "workflow_slo.summary",
            &[
                "workflow",
                "warm end-to-end us",
                "lukewarm end-to-end us",
                "jukebox end-to-end us",
                "recovered fraction",
                "replay aborts",
                "dropped prefetches",
            ],
        );
        for w in &self.workflows {
            for s in &w.stages {
                stages.push_row(vec![
                    w.workflow.clone().into(),
                    s.function.clone().into(),
                    s.warm_us.into(),
                    s.lukewarm_us.into(),
                    s.jukebox_us.into(),
                ]);
            }
            let (warm, lukewarm, jukebox) = w.end_to_end_us();
            stages.push_row(vec![
                w.workflow.clone().into(),
                "END-TO-END".into(),
                warm.into(),
                lukewarm.into(),
                jukebox.into(),
            ]);
            summary.push_row(vec![
                w.workflow.clone().into(),
                warm.into(),
                lukewarm.into(),
                jukebox.into(),
                w.recovered_fraction().into(),
                w.replay_aborts.into(),
                w.dropped_prefetches.into(),
            ]);
        }
        vec![stages, summary]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkflowResult {
        run_workflow(
            &Engine::single(),
            &Workflow::hotel_reservation(),
            &ExperimentParams::quick(),
        )
    }

    #[test]
    fn lukewarm_penalty_accumulates_across_stages() {
        let r = result();
        let (warm, lukewarm, _) = r.end_to_end_us();
        assert_eq!(r.stages.len(), 5);
        assert!(
            lukewarm > warm * 1.3,
            "end-to-end lukewarm {lukewarm} vs warm {warm}"
        );
    }

    #[test]
    fn jukebox_recovers_substantial_slowdown() {
        let r = result();
        let recovered = r.recovered_fraction();
        assert!(
            (0.2..=1.0).contains(&recovered),
            "recovered fraction {recovered}"
        );
        let (_, lukewarm, jukebox) = r.end_to_end_us();
        assert!(jukebox < lukewarm);
    }

    #[test]
    fn every_stage_reports_positive_latency() {
        let r = result();
        for s in &r.stages {
            assert!(s.warm_us > 0.0 && s.lukewarm_us > 0.0 && s.jukebox_us > 0.0);
            assert!(s.lukewarm_us > s.warm_us, "{}", s.function);
        }
    }

    #[test]
    fn render_has_end_to_end_row() {
        let data = Data {
            workflows: vec![result()],
        };
        let s = data.to_string();
        assert!(s.contains("END-TO-END"));
        assert!(s.contains("hotel-reservation"));
    }
}
