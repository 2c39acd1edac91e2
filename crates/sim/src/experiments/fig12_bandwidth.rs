//! **Figure 12** — Jukebox's memory-bandwidth overhead over the
//! interleaved baseline, split into overpredicted prefetch traffic and
//! metadata record/replay traffic.
//!
//! Paper shape: ≈14% average overhead, ≤23% worst case; roughly 40% of
//! the overhead is metadata and 60% overpredicted prefetches. Correct,
//! timely prefetches do not add traffic — they move the same line the
//! demand miss would have moved.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::addr::LINE_BYTES;
use luke_common::stats::mean;
use luke_common::table::TextTable;
use luke_common::SimError;
use std::fmt;
use workloads::paper_suite;

/// Bandwidth overheads for one function, as fractions of baseline
/// demand traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Overpredicted (unused prefetch) bytes / baseline bytes.
    pub overpredicted: f64,
    /// Metadata record bytes / baseline bytes.
    pub metadata_record: f64,
    /// Metadata replay bytes / baseline bytes.
    pub metadata_replay: f64,
}

impl Row {
    /// Total bandwidth overhead fraction.
    pub fn total(&self) -> f64 {
        self.overpredicted + self.metadata_record + self.metadata_replay
    }
}

/// The complete Figure 12 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Cell grid: identical to fig11's (baseline, Jukebox) × suite — every
/// cell here is a cache hit when fig11 ran first in the same engine.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    super::fig11_coverage::baseline_jukebox_plan(&SystemConfig::skylake(), params)
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig12",
    aliases: &[],
    description: "Jukebox memory-bandwidth overhead: overprediction and metadata traffic",
    module: module_path!(),
    plan,
    run,
};

/// Measures bandwidth overhead for one function.
pub fn measure_function(
    engine: &Engine,
    config: &SystemConfig,
    profile: &workloads::FunctionProfile,
    params: &ExperimentParams,
) -> Row {
    let baseline = engine.run(
        config,
        profile,
        PrefetcherKind::None,
        RunSpec::lukewarm(),
        params,
    );
    let jukebox = engine.run(
        config,
        profile,
        PrefetcherKind::Jukebox(config.jukebox),
        RunSpec::lukewarm(),
        params,
    );
    let base_bytes = baseline.mem.traffic.total().max(1) as f64;
    // Overpredicted prefetch traffic: unused prefetched lines.
    let unused_lines = jukebox
        .mem
        .l2
        .prefetch_fills
        .saturating_sub(jukebox.mem.l2.prefetch_first_hits);
    Row {
        function: profile.name.clone(),
        overpredicted: (unused_lines * LINE_BYTES as u64) as f64 / base_bytes,
        metadata_record: jukebox.mem.traffic.metadata_record as f64 / base_bytes,
        metadata_replay: jukebox.mem.traffic.metadata_replay as f64 / base_bytes,
    }
}

/// Runs Figure 12 through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let rows = paper_suite()
        .into_iter()
        .map(|p| measure_function(engine, &config, &p.scaled(params.scale), params))
        .collect();
    Ok(Data { rows })
}

impl Data {
    /// Mean total overhead (the paper's ≈14%).
    pub fn mean_overhead(&self) -> f64 {
        mean(&self.rows.iter().map(Row::total).collect::<Vec<_>>())
    }

    /// Worst-case total overhead (the paper's ≈23%).
    pub fn max_overhead(&self) -> f64 {
        self.rows.iter().map(Row::total).fold(0.0, f64::max)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 12: Jukebox memory-bandwidth overhead")?;
        let mut t = TextTable::new(&[
            "function",
            "overpredicted",
            "metadata record",
            "metadata replay",
            "total",
        ]);
        for row in &self.rows {
            t.row(&[
                row.function.clone(),
                format!("{:.1}%", row.overpredicted * 100.0),
                format!("{:.1}%", row.metadata_record * 100.0),
                format!("{:.1}%", row.metadata_replay * 100.0),
                format!("{:.1}%", row.total() * 100.0),
            ]);
        }
        writeln!(
            f,
            "{t}Mean overhead {:.1}%, max {:.1}%",
            self.mean_overhead() * 100.0,
            self.max_overhead() * 100.0
        )
    }
}

impl luke_obs::Export for Data {
    fn datasets(&self) -> Vec<luke_obs::Dataset> {
        let mut overhead = luke_obs::Dataset::new(
            "fig12.bandwidth_overhead",
            &[
                "function",
                "overpredicted",
                "metadata record",
                "metadata replay",
                "total",
            ],
        );
        for row in &self.rows {
            overhead.push_row(vec![
                row.function.clone().into(),
                row.overpredicted.into(),
                row.metadata_record.into(),
                row.metadata_replay.into(),
                row.total().into(),
            ]);
        }
        let mut means = luke_obs::Dataset::new("fig12.means", &["mean overhead", "max overhead"]);
        means.push_row(vec![
            self.mean_overhead().into(),
            self.max_overhead().into(),
        ]);
        vec![overhead, means]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    fn measure(name: &str) -> Row {
        let params = ExperimentParams::quick();
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
        measure_function(&Engine::single(), &config, &profile, &params)
    }

    #[test]
    fn overhead_components_are_present_and_bounded() {
        let row = measure("Auth-G");
        assert!(row.metadata_record > 0.0, "record traffic expected");
        assert!(row.metadata_replay > 0.0, "replay traffic expected");
        assert!(
            row.total() < 0.6,
            "overhead should be modest, got {:.1}%",
            row.total() * 100.0
        );
    }

    #[test]
    fn metadata_overhead_is_small_fraction() {
        let row = measure("Fib-G");
        let metadata = row.metadata_record + row.metadata_replay;
        assert!(
            metadata < 0.2,
            "metadata is a few KB against hundreds of KB of demand traffic, got {metadata}"
        );
    }

    #[test]
    fn render_reports_mean_and_max() {
        let data = Data {
            rows: vec![
                Row {
                    function: "a".into(),
                    overpredicted: 0.05,
                    metadata_record: 0.02,
                    metadata_replay: 0.02,
                },
                Row {
                    function: "b".into(),
                    overpredicted: 0.10,
                    metadata_record: 0.05,
                    metadata_replay: 0.05,
                },
            ],
        };
        assert!((data.mean_overhead() - 0.145).abs() < 1e-9);
        assert!((data.max_overhead() - 0.20).abs() < 1e-9);
        assert!(data.to_string().contains("Mean overhead"));
    }
}
