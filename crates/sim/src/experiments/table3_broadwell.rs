//! **Table 3 / §5.6** — Jukebox on the Broadwell-like CPU.
//!
//! Compares the reduction in L2 and LLC instruction MPKI with Jukebox on
//! both platforms, plus the Broadwell geomean speedup. Paper shape:
//! Jukebox eliminates the vast majority of LLC instruction misses on both
//! platforms (−86% Skylake, −91% Broadwell), but struggles with L2 misses
//! on Broadwell (−15% vs −74%) because the small 256KB L2 evicts
//! prefetches before use — hence the smaller 12% geomean speedup there.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::geomean;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// Aggregate results for one platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlatformResult {
    /// Relative change of L2 instruction MPKI with Jukebox (negative =
    /// reduction).
    pub l2_instr_delta: f64,
    /// Relative change of LLC instruction MPKI with Jukebox.
    pub llc_instr_delta: f64,
    /// Geomean Jukebox speedup on this platform.
    pub speedup_geomean: f64,
}

/// The complete Table 3 dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Data {
    /// Skylake-like platform.
    pub skylake: PlatformResult,
    /// Broadwell-like platform.
    pub broadwell: PlatformResult,
}

/// Cell grid: (baseline, Jukebox) × suite on both platforms — the Skylake
/// half is identical to fig11/fig12's grid.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let mut cells = super::fig11_coverage::baseline_jukebox_plan(&SystemConfig::skylake(), params);
    cells.extend(super::fig11_coverage::baseline_jukebox_plan(
        &SystemConfig::broadwell(),
        params,
    ));
    cells
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "table3",
    aliases: &[],
    description: "Instruction-MPKI reduction and speedup with Jukebox on both platforms",
    module: module_path!(),
    plan,
    run,
};

fn measure_platform(
    engine: &Engine,
    config: &SystemConfig,
    params: &ExperimentParams,
) -> PlatformResult {
    let mut base_l2 = 0.0;
    let mut base_llc = 0.0;
    let mut jb_l2 = 0.0;
    let mut jb_llc = 0.0;
    let mut speedups = Vec::new();
    for p in paper_suite() {
        let profile = p.scaled(params.scale);
        let baseline = engine.run(
            config,
            &profile,
            PrefetcherKind::None,
            RunSpec::lukewarm(),
            params,
        );
        let jukebox = engine.run(
            config,
            &profile,
            PrefetcherKind::Jukebox(config.jukebox),
            RunSpec::lukewarm(),
            params,
        );
        base_l2 += baseline.l2_instr_mpki();
        base_llc += baseline.llc_instr_mpki();
        jb_l2 += jukebox.l2_instr_mpki();
        jb_llc += jukebox.llc_instr_mpki();
        speedups.push(jukebox.speedup_over(&baseline));
    }
    PlatformResult {
        l2_instr_delta: jb_l2 / base_l2.max(f64::MIN_POSITIVE) - 1.0,
        llc_instr_delta: jb_llc / base_llc.max(f64::MIN_POSITIVE) - 1.0,
        speedup_geomean: geomean(&speedups),
    }
}

/// Runs Table 3 through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    Ok(Data {
        skylake: measure_platform(engine, &SystemConfig::skylake(), params),
        broadwell: measure_platform(engine, &SystemConfig::broadwell(), params),
    })
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: instruction-MPKI reduction and speedup with Jukebox"
        )?;
        let mut t = TextTable::new(&["platform", "L2 instr misses", "LLC instr misses", "speedup"]);
        for (name, r) in [("Skylake", &self.skylake), ("Broadwell", &self.broadwell)] {
            t.row(&[
                name.to_string(),
                format!("{:+.0}%", r.l2_instr_delta * 100.0),
                format!("{:+.0}%", r.llc_instr_delta * 100.0),
                format!("{:+.1}%", (r.speedup_geomean - 1.0) * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut ds = luke_obs::Dataset::new(
            "table3.platforms",
            &["platform", "L2 instr misses", "LLC instr misses", "speedup"],
        );
        for (name, r) in [("Skylake", &self.skylake), ("Broadwell", &self.broadwell)] {
            ds.push_row(vec![
                name.into(),
                r.l2_instr_delta.into(),
                r.llc_instr_delta.into(),
                r.speedup_geomean.into(),
            ]);
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    /// Single-function platform comparison (the suite-wide version runs
    /// in the bench harness).
    fn compare_one(name: &str) -> (f64, f64, f64, f64) {
        let params = ExperimentParams::quick();
        let engine = Engine::single();
        let measure = |config: &SystemConfig| {
            let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
            let baseline = engine.run(
                config,
                &profile,
                PrefetcherKind::None,
                RunSpec::lukewarm(),
                &params,
            );
            let jukebox = engine.run(
                config,
                &profile,
                PrefetcherKind::Jukebox(config.jukebox),
                RunSpec::lukewarm(),
                &params,
            );
            (
                jukebox.llc_instr_mpki() / baseline.llc_instr_mpki().max(f64::MIN_POSITIVE),
                jukebox.speedup_over(&baseline),
            )
        };
        let (sky_llc, sky_sp) = measure(&SystemConfig::skylake());
        let (bdw_llc, bdw_sp) = measure(&SystemConfig::broadwell());
        (sky_llc, sky_sp, bdw_llc, bdw_sp)
    }

    #[test]
    fn jukebox_eliminates_most_llc_instruction_misses() {
        let (sky_llc, _, bdw_llc, _) = compare_one("Auth-G");
        assert!(sky_llc < 0.6, "Skylake LLC ratio {sky_llc}");
        assert!(bdw_llc < 0.7, "Broadwell LLC ratio {bdw_llc}");
    }

    #[test]
    fn speedup_positive_on_both_platforms() {
        let (_, sky_sp, _, bdw_sp) = compare_one("Auth-G");
        assert!(sky_sp > 1.0, "Skylake speedup {sky_sp}");
        assert!(bdw_sp > 1.0, "Broadwell speedup {bdw_sp}");
    }

    #[test]
    fn render_has_both_platforms() {
        let data = Data {
            skylake: PlatformResult {
                l2_instr_delta: -0.74,
                llc_instr_delta: -0.86,
                speedup_geomean: 1.187,
            },
            broadwell: PlatformResult {
                l2_instr_delta: -0.15,
                llc_instr_delta: -0.91,
                speedup_geomean: 1.12,
            },
        };
        let s = data.to_string();
        assert!(s.contains("Skylake") && s.contains("Broadwell"));
        assert!(s.contains("-86%"));
    }
}
