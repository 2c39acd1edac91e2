//! **Host-interleaving validation** — true multi-instance interleaving vs
//! the paper's flush-between-invocations model (§5.2).
//!
//! The paper's simulated baseline *models* interleaving by flushing all
//! microarchitectural state between invocations of the function under
//! test. This experiment runs the real thing: a set of warm instances
//! time-sharing one core and hierarchy in a round-robin schedule, so each
//! instance's state is obliterated by the others' actual execution. It
//! reports, per instance: solo (back-to-back) CPI, flush-model CPI,
//! co-run CPI, and the Jukebox speedup under *true* interleaving — the
//! end-to-end check that the flush model, and Jukebox's benefit under it,
//! carry over.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::host::HostSim;
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::{geomean, mean};
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// Per-instance results.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Back-to-back (warm) CPI, solo on the host.
    pub solo_cpi: f64,
    /// CPI under the flush-between-invocations model.
    pub flush_cpi: f64,
    /// CPI under true co-run interleaving.
    pub corun_cpi: f64,
    /// CPI under true co-run interleaving with Jukebox on every instance.
    pub corun_jukebox_cpi: f64,
}

impl Row {
    /// Jukebox speedup under true interleaving.
    pub fn jukebox_speedup(&self) -> f64 {
        self.corun_cpi / self.corun_jukebox_cpi
    }
}

/// The complete validation dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per co-run instance.
    pub rows: Vec<Row>,
}

/// Cell grid: the solo (reference) and flush-model (lukewarm) reference
/// points per suite function. The true co-run drives [`HostSim`] directly
/// — multi-instance state is not a per-cell quantity — and stays outside
/// the cache.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
    paper_suite()
        .into_iter()
        .flat_map(|p| {
            let profile = p.scaled(params.scale);
            [RunSpec::reference(), RunSpec::lukewarm()]
                .into_iter()
                .map(move |spec| Cell::new(&config, &profile, PrefetcherKind::None, spec, params))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "host",
    aliases: &[],
    description: "True multi-instance host interleaving vs the flush-between-invocations model",
    module: module_path!(),
    plan,
    run,
};

/// Runs the validation with the full 20-function suite co-resident: at
/// paper scale their combined footprints (~9MB) exceed the LLC, so true
/// interleaving pushes instruction working sets to DRAM — the regime the
/// paper describes (§2.2, with thousands of instances).
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let profiles: Vec<_> = paper_suite()
        .into_iter()
        .map(|p| p.scaled(params.scale))
        .collect();
    run_on(engine, &profiles, params)
}

/// Runs the validation on an explicit instance set through a shared
/// engine (which memoizes the solo and flush-model reference points),
/// rejecting an empty set with [`SimError`].
pub fn run_on(
    engine: &Engine,
    profiles: &[workloads::FunctionProfile],
    params: &ExperimentParams,
) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();

    let warmup_rounds = params.warmup.max(1) as usize;
    let measure_rounds = params.invocations.max(1) as usize;
    let schedule =
        |rounds: usize| -> Vec<usize> { (0..rounds).flat_map(|_| 0..profiles.len()).collect() };

    // True co-run, without and with Jukebox. The two stay serial rather
    // than `Engine::map` jobs: each holds a full hierarchy, and running
    // them together costs more peak memory than it saves time
    // (docs/ENGINE.md).
    let corun = |jukebox: bool| -> Result<Vec<f64>, SimError> {
        let mut host = HostSim::try_new(config, profiles, jukebox)?;
        host.run_schedule(&schedule(warmup_rounds));
        host.reset_stats();
        host.run_schedule(&schedule(measure_rounds));
        Ok(host
            .all_stats()
            .iter()
            // Every instance in the round-robin schedule retires
            // instructions; a `None` CPI would mean the schedule broke,
            // so degrade it to NaN (filtered by the geomean) rather
            // than panic.
            .map(|s| s.cpi().unwrap_or(f64::NAN))
            .collect())
    };
    let corun_base = corun(false)?;
    let corun_jukebox = corun(true)?;

    // Solo and flush-model references per function.
    let rows = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let solo = engine.run(
                &config,
                p,
                PrefetcherKind::None,
                RunSpec::reference(),
                params,
            );
            let flush = engine.run(
                &config,
                p,
                PrefetcherKind::None,
                RunSpec::lukewarm(),
                params,
            );
            Row {
                function: p.name.clone(),
                solo_cpi: solo.cpi(),
                flush_cpi: flush.cpi(),
                corun_cpi: corun_base[i],
                corun_jukebox_cpi: corun_jukebox[i],
            }
        })
        .collect();
    Ok(Data { rows })
}

impl Data {
    /// Mean ratio of co-run CPI to flush-model CPI: 1.0 means the flush
    /// model predicts true interleaving exactly.
    pub fn flush_model_fidelity(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.corun_cpi / r.flush_cpi)
                .collect::<Vec<_>>(),
        )
    }

    /// Geomean Jukebox speedup under true interleaving.
    pub fn jukebox_geomean(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|r| r.jukebox_speedup())
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Host interleaving: {} co-resident instances, round-robin dispatch",
            self.rows.len()
        )?;
        let mut t = TextTable::new(&[
            "function",
            "solo CPI",
            "flush-model CPI",
            "co-run CPI",
            "co-run+JB CPI",
            "JB speedup",
        ]);
        for r in &self.rows {
            t.row(&[
                r.function.clone(),
                format!("{:.2}", r.solo_cpi),
                format!("{:.2}", r.flush_cpi),
                format!("{:.2}", r.corun_cpi),
                format!("{:.2}", r.corun_jukebox_cpi),
                format!("{:+.1}%", (r.jukebox_speedup() - 1.0) * 100.0),
            ]);
        }
        writeln!(
            f,
            "{t}Flush-model fidelity (co-run/flush CPI): {:.2}; \
             Jukebox geomean under true interleaving: {:+.1}%",
            self.flush_model_fidelity(),
            (self.jukebox_geomean() - 1.0) * 100.0
        )
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut cpi = luke_obs::Dataset::new(
            "host_interleaving.cpi",
            &[
                "function",
                "solo CPI",
                "flush-model CPI",
                "co-run CPI",
                "co-run+JB CPI",
                "JB speedup",
            ],
        );
        for r in &self.rows {
            cpi.push_row(vec![
                r.function.clone().into(),
                r.solo_cpi.into(),
                r.flush_cpi.into(),
                r.corun_cpi.into(),
                r.corun_jukebox_cpi.into(),
                r.jukebox_speedup().into(),
            ]);
        }
        let mut summary = luke_obs::Dataset::new(
            "host_interleaving.summary",
            &["flush-model fidelity", "jukebox geomean"],
        );
        summary.push_row(vec![
            self.flush_model_fidelity().into(),
            self.jukebox_geomean().into(),
        ]);
        vec![cpi, summary]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A co-run whose combined footprints exceed the 1MB L2, so true
    /// interleaving visibly degrades each instance. (Exceeding the 8MB
    /// LLC — the paper-scale regime where the flush model's fidelity is
    /// near 1 — is exercised by `lukewarm figure host --scale 1`.)
    fn data() -> Data {
        let scale = 0.55;
        let profiles: Vec<_> = paper_suite()
            .into_iter()
            .rev()
            .take(5)
            .map(|p| p.scaled(scale))
            .collect();
        let params = ExperimentParams {
            scale,
            invocations: 1,
            warmup: 1,
        };
        run_on(&Engine::single(), &profiles, &params).unwrap()
    }

    #[test]
    fn co_run_degrades_and_jukebox_recovers() {
        let d = data();
        for r in &d.rows {
            assert!(
                r.corun_cpi > r.solo_cpi * 1.02,
                "{}: co-run {:.2} vs solo {:.2}",
                r.function,
                r.corun_cpi,
                r.solo_cpi
            );
        }
        assert!(
            d.jukebox_geomean() > 1.005,
            "geomean {:.3}",
            d.jukebox_geomean()
        );
    }

    #[test]
    fn flush_model_is_an_upper_bound_at_llc_resident_scale() {
        // With combined footprints between L2 and LLC capacity, true
        // interleaving is milder than the full flush (misses hit the LLC,
        // not DRAM): fidelity below ~1. At paper scale it approaches 1.
        let d = data();
        let fidelity = d.flush_model_fidelity();
        assert!((0.25..=1.15).contains(&fidelity), "fidelity {fidelity}");
    }

    #[test]
    fn empty_instance_set_is_an_error_not_a_panic() {
        let err = run_on(
            &Engine::single(),
            &[],
            &ExperimentParams {
                scale: 0.1,
                invocations: 1,
                warmup: 0,
            },
        );
        assert!(err.is_err());
        assert_eq!(err.err().map(|e| e.exit_code()), Some(3));
    }

    #[test]
    fn render_reports_fidelity() {
        let s = data().to_string();
        assert!(s.contains("Flush-model fidelity"));
        assert!(s.contains("JB speedup"));
    }
}
