//! The experiment registry: every experiment module registers one
//! [`Spec`] constant here, and the CLI, exporters, docs and benchmark are
//! all driven from this single list instead of hand-maintained parallel
//! match arms.

use super::{Cell, Engine};
use crate::runner::ExperimentParams;
use luke_common::SimError;
use std::fmt::Display;

/// What an experiment returns: a renderable (`Display`) and exportable
/// (`luke_obs::Export`) dataset. Blanket-implemented, so every existing
/// `Data` struct qualifies without changes.
pub trait ExperimentData: Display + luke_obs::Export {}

impl<T: Display + luke_obs::Export> ExperimentData for T {}

/// One registered experiment: a name for the CLI, a plan (the simulation
/// cells it will need) and a fold (the run that aggregates them).
pub trait Experiment: Sync {
    /// Canonical CLI name (`lukewarm figure <name>`).
    fn name(&self) -> &'static str;

    /// Alternate CLI names resolving to this experiment (e.g. `fig03`
    /// and `fig04` render from the same Top-Down run as `fig02`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description, surfaced by `lukewarm list` and the docs.
    fn description(&self) -> &'static str;

    /// The registering module's path (`module_path!()`), used by the
    /// registry-completeness test.
    fn module(&self) -> &'static str;

    /// The cell grid this experiment folds over. Experiments that do not
    /// use the cycle-accurate runner plan no cells.
    fn plan(&self, _params: &ExperimentParams) -> Vec<Cell> {
        Vec::new()
    }

    /// Runs the experiment's fold against a (pre-fetched) engine.
    ///
    /// # Errors
    ///
    /// Returns the experiment's own validation/integrity errors.
    fn run(
        &self,
        engine: &Engine,
        params: &ExperimentParams,
    ) -> Result<Box<dyn ExperimentData>, SimError>;
}

/// An experiment's registration as data: each module declares one
/// `pub const EXPERIMENT: Spec<Data>` naming its plan and its `run`.
pub struct Spec<D> {
    /// Canonical CLI name.
    pub name: &'static str,
    /// Alternate CLI names.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub description: &'static str,
    /// The registering module's path (`module_path!()`).
    pub module: &'static str,
    /// The cell grid the fold reads.
    pub plan: fn(&ExperimentParams) -> Vec<Cell>,
    /// The fold.
    pub run: fn(&Engine, &ExperimentParams) -> Result<D, SimError>,
}

impl<D: ExperimentData + 'static> Experiment for Spec<D> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn module(&self) -> &'static str {
        self.module
    }

    fn plan(&self, params: &ExperimentParams) -> Vec<Cell> {
        (self.plan)(params)
    }

    fn run(
        &self,
        engine: &Engine,
        params: &ExperimentParams,
    ) -> Result<Box<dyn ExperimentData>, SimError> {
        Ok(Box::new((self.run)(engine, params)?))
    }
}

use crate::experiments::*;

/// Every experiment, in paper order: figures, Table 3, then the
/// beyond-the-paper studies.
static REGISTRY: [&dyn Experiment; 22] = [
    &fig01_cpi_vs_iat::EXPERIMENT,
    &fig02_topdown::EXPERIMENT,
    &fig05_mpki::EXPERIMENT,
    &fig06_footprints::EXPERIMENT,
    &fig08_metadata_size::EXPERIMENT,
    &fig09_metadata_cap::EXPERIMENT,
    &fig10_speedup::EXPERIMENT,
    &fig11_coverage::EXPERIMENT,
    &fig12_bandwidth::EXPERIMENT,
    &fig13_pif::EXPERIMENT,
    &table3_broadwell::EXPERIMENT,
    &ablations::EXPERIMENT,
    &related_work::EXPERIMENT,
    &workflow_slo::EXPERIMENT,
    &host_interleaving::EXPERIMENT,
    &keep_alive::EXPERIMENT,
    &resilience::EXPERIMENT,
    &fleet_scale::EXPERIMENT,
    &cold_spectrum::EXPERIMENT,
    &surge::EXPERIMENT,
    &prewarm_frontier::EXPERIMENT,
    &tenancy::EXPERIMENT,
];

/// All registered experiments, in paper order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    &REGISTRY
}

/// Looks an experiment up by canonical name or alias.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry()
        .iter()
        .find(|e| e.name() == name || e.aliases().contains(&name))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = HashSet::new();
        for e in registry() {
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            for alias in e.aliases() {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
        }
    }

    #[test]
    fn find_resolves_names_and_aliases() {
        assert_eq!(find("fig10").unwrap().name(), "fig10");
        assert_eq!(find("fig03").unwrap().name(), "fig02");
        assert_eq!(find("fleet").unwrap().name(), "fleet");
        assert_eq!(find("cold_spectrum").unwrap().name(), "cold-spectrum");
        assert!(find("fig99").is_none());
    }

    #[test]
    fn every_entry_has_a_description_and_module() {
        for e in registry() {
            assert!(!e.description().is_empty(), "{}", e.name());
            assert!(
                e.module().starts_with("lukewarm_sim::experiments::"),
                "{}: {}",
                e.name(),
                e.module()
            );
        }
    }

    #[test]
    fn quick_plans_agree_with_registration() {
        // Spot-check the cache-sharing claim: fig12's plan is exactly
        // fig11's, so running both through one engine simulates the
        // shared cells once.
        let params = ExperimentParams::quick();
        let k11: Vec<String> = find("fig11")
            .unwrap()
            .plan(&params)
            .iter()
            .map(Cell::key)
            .collect();
        let k12: Vec<String> = find("fig12")
            .unwrap()
            .plan(&params)
            .iter()
            .map(Cell::key)
            .collect();
        assert_eq!(k11, k12);
    }
}
