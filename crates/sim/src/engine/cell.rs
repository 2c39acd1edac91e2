//! The unit of simulation work the engine schedules and memoizes.

use crate::config::SystemConfig;
use crate::runner::{self, ExperimentParams, PrefetcherKind, RunSpec, RunSummary};
use workloads::FunctionProfile;

/// One (platform, function, prefetcher, state, repetition-count) point of
/// an experiment's sweep grid — exactly the argument tuple of
/// [`runner::run`], which is a pure function of it.
///
/// The workload `scale` is intentionally *not* part of the cell: profiles
/// are scaled before they reach the runner, so two experiments passing the
/// same scaled profile share a cell even though they built it themselves.
/// [`Cell::simulate`] relies on the same invariant — `runner::run` reads
/// only `invocations` and `warmup` from its params.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Platform preset (Skylake or Broadwell, possibly with overrides).
    pub config: SystemConfig,
    /// The (already scaled) synthetic function to invoke.
    pub profile: FunctionProfile,
    /// Instruction prefetcher or oracle under test.
    pub prefetcher: PrefetcherKind,
    /// Cache-state manipulation between invocations.
    pub spec: RunSpec,
    /// Measured invocations.
    pub invocations: u64,
    /// Warm-up invocations before measurement.
    pub warmup: u64,
}

impl Cell {
    /// Builds a cell from the same arguments [`runner::run`] takes.
    pub fn new(
        config: &SystemConfig,
        profile: &FunctionProfile,
        prefetcher: PrefetcherKind,
        spec: RunSpec,
        params: &ExperimentParams,
    ) -> Cell {
        Cell {
            config: *config,
            profile: profile.clone(),
            prefetcher,
            spec,
            invocations: params.invocations,
            warmup: params.warmup,
        }
    }

    /// Canonical memoization key.
    ///
    /// Uses the `Debug` encoding of every field: Rust formats `f64` as the
    /// shortest string that round-trips, so distinct values never collide,
    /// and all key types are plain field structs/enums whose `Debug` output
    /// is injective over their values.
    pub fn key(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|inv={}|warm={}",
            self.config, self.profile, self.prefetcher, self.spec, self.invocations, self.warmup
        )
    }

    /// Runs the full measurement protocol for this cell.
    ///
    /// Pure and deterministic: two calls with equal keys return identical
    /// summaries, which is what makes the engine's memoization and
    /// parallel execution invisible to experiment folds.
    pub fn simulate(&self) -> RunSummary {
        let params = ExperimentParams {
            // Scale is already baked into the profile; the runner ignores it.
            scale: 1.0,
            invocations: self.invocations,
            warmup: self.warmup,
        };
        runner::run(
            &self.config,
            &self.profile,
            self.prefetcher,
            self.spec,
            &params,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_for(name: &str, prefetcher: PrefetcherKind, spec: RunSpec) -> Cell {
        let params = ExperimentParams::quick();
        let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
        Cell::new(
            &SystemConfig::skylake(),
            &profile,
            prefetcher,
            spec,
            &params,
        )
    }

    #[test]
    fn keys_distinguish_every_axis() {
        let base = cell_for("Auth-G", PrefetcherKind::None, RunSpec::lukewarm());
        let other_fn = cell_for("Fib-G", PrefetcherKind::None, RunSpec::lukewarm());
        let other_pf = cell_for("Auth-G", PrefetcherKind::NextLine, RunSpec::lukewarm());
        let other_spec = cell_for("Auth-G", PrefetcherKind::None, RunSpec::reference());
        let mut other_params = base.clone();
        other_params.invocations += 1;
        let mut other_platform = base.clone();
        other_platform.config = SystemConfig::broadwell();
        let keys = [
            base.key(),
            other_fn.key(),
            other_pf.key(),
            other_spec.key(),
            other_params.key(),
            other_platform.key(),
        ];
        let distinct: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:#?}");
    }

    #[test]
    fn equal_cells_share_a_key() {
        let a = cell_for("Auth-G", PrefetcherKind::None, RunSpec::lukewarm());
        let b = cell_for("Auth-G", PrefetcherKind::None, RunSpec::lukewarm());
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn simulate_matches_direct_runner_call() {
        let params = ExperimentParams::quick();
        let profile = FunctionProfile::named("Auth-G")
            .unwrap()
            .scaled(params.scale);
        let cfg = SystemConfig::skylake();
        let cell = Cell::new(
            &cfg,
            &profile,
            PrefetcherKind::None,
            RunSpec::lukewarm(),
            &params,
        );
        let direct = runner::run(
            &cfg,
            &profile,
            PrefetcherKind::None,
            RunSpec::lukewarm(),
            &params,
        );
        assert_eq!(cell.simulate(), direct);
    }
}
