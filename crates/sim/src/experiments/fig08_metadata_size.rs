//! **Figure 8** — sensitivity of Jukebox's metadata size to the code
//! region size, with a 16-entry CRRB.
//!
//! For each region size from 128B to 8KB, a lukewarm invocation is
//! recorded with *unlimited* metadata capacity and the packed metadata
//! size is measured. Paper shape: for most workloads the metadata
//! reaches its minimum around 1KB regions, landing between ≈9.6KB and
//! ≈29.5KB, with Go functions at the small end.

use crate::config::SystemConfig;
use crate::engine::{Engine, Spec};
use crate::runner::ExperimentParams;
use crate::system::SystemSim;
use jukebox::{JukeboxConfig, JukeboxPrefetcher};
use luke_common::size::ByteSize;
use luke_common::SimError;
use luke_obs::export::{bytes, plain, Column, Dataset, Export, Value};
use std::fmt;
use workloads::{paper_suite, FunctionProfile};

/// The region-size sweep (bytes). The paper's x-axis runs 128B–8KB.
pub const REGION_SIZES: [usize; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// Metadata sizes for one function across the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// `(region_bytes, metadata_bytes)` for each sweep point.
    pub sizes: Vec<(usize, u64)>,
}

impl Row {
    /// The sweep point with the smallest metadata.
    pub fn best_region(&self) -> (usize, u64) {
        self.sizes
            .iter()
            .copied()
            .min_by_key(|&(_, bytes)| bytes)
            .expect("non-empty sweep")
    }

    /// Metadata size at a particular region size.
    pub fn at_region(&self, region: usize) -> Option<u64> {
        self.sizes
            .iter()
            .find(|&&(r, _)| r == region)
            .map(|&(_, b)| b)
    }
}

/// The complete Figure 8 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Records one lukewarm invocation with unlimited metadata and returns
/// the required packed size.
pub fn required_metadata_bytes(
    config: &SystemConfig,
    profile: &FunctionProfile,
    jukebox: JukeboxConfig,
) -> u64 {
    // Unlimited capacity: nothing is dropped, so the sealed buffer's
    // packed size is the requirement.
    let unlimited = jukebox.with_metadata_capacity(ByteSize::mib(64));
    let mut sim = SystemSim::new(*config, profile);
    let mut jb = JukeboxPrefetcher::new(unlimited);
    jb.set_replay_enabled(false); // record-only measurement
    sim.flush_microarch();
    sim.run_invocation(&mut jb);
    jb.replay_buffer().map_or(0, |b| b.bytes_used())
}

/// Registry entry: see [`crate::engine::registry`]. The sweep measures
/// record-only metadata sizes by driving [`SystemSim`] with a custom
/// prefetcher setup, not through the cycle-accurate runner — the plan is
/// empty, and the run maps one job per (function, region size) over the
/// engine's workers.
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig08",
    aliases: &[],
    description: "Jukebox metadata size vs code-region size (record-only sweep)",
    module: module_path!(),
    plan: |_| Vec::new(),
    run,
};

/// Runs the Figure 8 sweep with each (function, region size) recording
/// as one [`Engine::map`] job.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let profiles: Vec<FunctionProfile> = paper_suite()
        .into_iter()
        .map(|p| p.scaled(params.scale))
        .collect();
    let jobs: Vec<(&FunctionProfile, usize)> = profiles
        .iter()
        .flat_map(|profile| REGION_SIZES.iter().map(move |&region| (profile, region)))
        .collect();
    let bytes = engine.map(&jobs, |&(profile, region)| {
        required_metadata_bytes(&config, profile, config.jukebox.with_region_bytes(region))
    });
    let rows = profiles
        .iter()
        .zip(bytes.chunks(REGION_SIZES.len()))
        .map(|(profile, bytes)| Row {
            function: profile.name.clone(),
            sizes: REGION_SIZES
                .iter()
                .copied()
                .zip(bytes.iter().copied())
                .collect(),
        })
        .collect();
    Ok(Data { rows })
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: Jukebox metadata size vs code-region size (16-entry CRRB)"
        )?;
        write!(f, "{}", self.datasets()[0].to_text())
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut columns = vec![Column::new("function", plain)];
        columns.extend(
            REGION_SIZES
                .iter()
                .map(|r| Column::new(format!("{r}B"), bytes)),
        );
        let mut ds = Dataset::with_columns("fig08.metadata_bytes", columns);
        for row in &self.rows {
            let mut cells: Vec<Value> = vec![row.function.clone().into()];
            cells.extend(row.sizes.iter().map(|&(_, bytes)| bytes.into()));
            ds.push_row(cells);
        }
        vec![ds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(name: &str, scale: f64) -> Row {
        let config = SystemConfig::skylake();
        let profile = FunctionProfile::named(name).unwrap().scaled(scale);
        let sizes = REGION_SIZES
            .iter()
            .map(|&region| {
                let jb = config.jukebox.with_region_bytes(region);
                (region, required_metadata_bytes(&config, &profile, jb))
            })
            .collect();
        Row {
            function: name.to_string(),
            sizes,
        }
    }

    #[test]
    fn metadata_is_nonzero_and_finite() {
        let row = sweep("Auth-G", 0.04);
        for &(region, bytes) in &row.sizes {
            assert!(bytes > 0, "region {region} produced no metadata");
            assert!(bytes < 1_000_000, "region {region}: {bytes}B");
        }
    }

    #[test]
    fn mid_sized_regions_beat_extremes() {
        // The characteristic U-shape: tiny regions waste pointer bits,
        // huge regions suffer CRRB-lifetime duplicates (scattered
        // runtimes revisit regions after the CRRB has evicted them).
        let row = sweep("Email-P", 0.3);
        let (best_region, _) = row.best_region();
        assert!(
            (256..=4096).contains(&best_region),
            "best region {best_region}B is at an extreme: {:?}",
            row.sizes
        );
        let at_128 = row.at_region(128).unwrap();
        let at_1k = row.at_region(1024).unwrap();
        assert!(at_1k < at_128, "1KB ({at_1k}) should beat 128B ({at_128})");
    }

    #[test]
    fn go_needs_less_metadata_than_python() {
        // Same footprint scale: the dense Go layout coalesces better.
        let go = sweep("Auth-G", 0.05).at_region(1024).unwrap();
        let py = sweep("Auth-P", 0.05).at_region(1024).unwrap();
        assert!(
            go < py,
            "Go metadata ({go}B) should be below Python ({py}B)"
        );
    }

    #[test]
    fn render_has_all_region_columns() {
        let data = Data {
            rows: vec![sweep("Fib-G", 0.03)],
        };
        let s = data.to_string();
        for r in REGION_SIZES {
            assert!(s.contains(&format!("{r}B")));
        }
    }
}
