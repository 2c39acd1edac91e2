//! **Related-work comparison (§6)** — Jukebox against the two prior-work
//! families the paper argues cannot solve the lukewarm problem, measured
//! on the same harness:
//!
//! * **cache restoration** (Daly & Cain \[10\], RECAP \[53\]): saves the full
//!   cache footprint to memory and restores it indiscriminately — high
//!   coverage but per-line metadata (8B/line vs Jukebox's 54b/region) and
//!   heavy restore traffic, "in some cases more than doubling the amount
//!   of memory traffic";
//! * **BTB-directed prefetching** (FDIP \[41\], Boomerang \[33\]): drives
//!   prefetch from the BTB and branch predictor, which are core state and
//!   therefore *cold* at every lukewarm invocation — near-zero benefit.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::size::ByteSize;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::FunctionProfile;

/// Per-prefetcher measurements on one function.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Prefetcher label.
    pub prefetcher: &'static str,
    /// Speedup over the lukewarm baseline.
    pub speedup: f64,
    /// Metadata bytes moved per invocation (record + replay traffic).
    pub metadata_bytes_per_invocation: u64,
    /// Total DRAM bytes relative to the baseline.
    pub bandwidth_ratio: f64,
}

/// The comparison for one function.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// Function studied.
    pub function: String,
    /// One row per prefetcher.
    pub rows: Vec<Row>,
}

/// The configurations compared, baseline first.
fn kinds(config: &SystemConfig) -> [PrefetcherKind; 4] {
    [
        PrefetcherKind::None,
        PrefetcherKind::Jukebox(config.jukebox),
        PrefetcherKind::FootprintRestore,
        PrefetcherKind::FetchDirected,
    ]
}

/// Cell grid: Auth-G under (baseline, Jukebox, footprint-restore,
/// fetch-directed).
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
    let profile = FunctionProfile::named("Auth-G")
        .expect("suite function")
        .scaled(params.scale);
    kinds(&config)
        .into_iter()
        .map(|kind| Cell::new(&config, &profile, kind, RunSpec::lukewarm(), params))
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "related-work",
    aliases: &[],
    description: "Jukebox vs cache restoration and BTB-directed prefetching (§6)",
    module: module_path!(),
    plan,
    run,
};

/// Runs the §6 comparison on the default function through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let profile = FunctionProfile::named("Auth-G").expect("suite function");
    Ok(run_for(engine, &profile, params))
}

/// Runs the §6 comparison on the given function.
pub fn run_for(engine: &Engine, profile: &FunctionProfile, params: &ExperimentParams) -> Data {
    let config = SystemConfig::skylake();
    let profile = profile.scaled(params.scale);
    let baseline = engine.run(
        &config,
        &profile,
        PrefetcherKind::None,
        RunSpec::lukewarm(),
        params,
    );
    let rows = [
        PrefetcherKind::Jukebox(config.jukebox),
        PrefetcherKind::FootprintRestore,
        PrefetcherKind::FetchDirected,
    ]
    .iter()
    .map(|&kind| {
        let s = engine.run(&config, &profile, kind, RunSpec::lukewarm(), params);
        Row {
            prefetcher: kind.label(),
            speedup: s.speedup_over(&baseline),
            metadata_bytes_per_invocation: (s.mem.traffic.metadata_record
                + s.mem.traffic.metadata_replay)
                / params.invocations.max(1),
            bandwidth_ratio: s.mem.traffic.total() as f64
                / baseline.mem.traffic.total().max(1) as f64,
        }
    })
    .collect();
    Data {
        function: profile.name.clone(),
        rows,
    }
}

impl Data {
    /// The row for a given prefetcher label.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.prefetcher == label)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Related work (§6) on {}: speedup, metadata traffic, bandwidth",
            self.function
        )?;
        let mut t = TextTable::new(&[
            "prefetcher",
            "speedup",
            "metadata/invocation",
            "DRAM bytes vs baseline",
        ]);
        for r in &self.rows {
            t.row(&[
                r.prefetcher.to_string(),
                format!("{:+.1}%", (r.speedup - 1.0) * 100.0),
                ByteSize::new(r.metadata_bytes_per_invocation).to_string(),
                format!("{:.2}x", r.bandwidth_ratio),
            ]);
        }
        write!(f, "{t}")
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut ds = luke_obs::Dataset::new(
            "related_work.comparison",
            &[
                "function",
                "prefetcher",
                "speedup",
                "metadata/invocation",
                "DRAM bytes vs baseline",
            ],
        );
        for r in &self.rows {
            ds.push_row(vec![
                self.function.clone().into(),
                r.prefetcher.into(),
                r.speedup.into(),
                r.metadata_bytes_per_invocation.into(),
                r.bandwidth_ratio.into(),
            ]);
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Data {
        run_for(
            &Engine::single(),
            &FunctionProfile::named("Auth-G").unwrap(),
            &ExperimentParams::quick(),
        )
    }

    #[test]
    fn btb_directed_is_nearly_useless_when_cold() {
        let d = data();
        let fd = d.row("fetch-directed").unwrap();
        let jb = d.row("jukebox").unwrap();
        assert!(
            fd.speedup < 1.0 + (jb.speedup - 1.0) * 0.4,
            "fetch-directed ({:.3}) should capture far less than jukebox ({:.3})",
            fd.speedup,
            jb.speedup
        );
    }

    #[test]
    fn cache_restoration_needs_far_more_metadata() {
        let d = data();
        let fr = d.row("footprint-restore").unwrap();
        let jb = d.row("jukebox").unwrap();
        assert!(
            fr.metadata_bytes_per_invocation > 3 * jb.metadata_bytes_per_invocation,
            "restore metadata {}B vs jukebox {}B",
            fr.metadata_bytes_per_invocation,
            jb.metadata_bytes_per_invocation
        );
    }

    #[test]
    fn cache_restoration_also_helps_but_with_more_traffic() {
        let d = data();
        let fr = d.row("footprint-restore").unwrap();
        let jb = d.row("jukebox").unwrap();
        assert!(fr.speedup > 1.0, "restoration should help: {}", fr.speedup);
        assert!(
            fr.bandwidth_ratio > jb.bandwidth_ratio,
            "restore traffic {:.2}x should exceed jukebox {:.2}x",
            fr.bandwidth_ratio,
            jb.bandwidth_ratio
        );
    }

    #[test]
    fn render_lists_all_three() {
        let s = data().to_string();
        assert!(s.contains("jukebox"));
        assert!(s.contains("footprint-restore"));
        assert!(s.contains("fetch-directed"));
    }
}
