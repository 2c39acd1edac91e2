//! The shared experiment engine: a registry of every experiment, a
//! deterministic parallel executor for their simulation cells and fold
//! jobs, and a memoized cell cache shared across experiments.
//!
//! # Model
//!
//! An experiment is a *plan* plus a *fold*. The plan ([`Experiment::plan`])
//! enumerates the [`Cell`]s — (platform, function, prefetcher, state)
//! points — the experiment will measure; the fold ([`Experiment::run`])
//! calls [`Engine::run`] per cell and aggregates the summaries into the
//! experiment's typed `Data` struct exactly as the hand-rolled loops did.
//!
//! # Determinism
//!
//! [`runner::run`](crate::runner::run) is a pure function of the cell key:
//! the simulator seeds its RNG from the configuration, so equal cells
//! produce bit-identical [`RunSummary`]s. The engine exploits this twice:
//!
//! * **Memoization** — a cell simulated once is served from the cache
//!   forever after; since a cache hit returns the exact value a fresh
//!   simulation would, memoization cannot change any experiment's output.
//! * **Parallelism** — [`Engine::map`] runs independent jobs through the
//!   workspace's one parallel primitive, [`luke_common::par::map`]:
//!   scoped workers claim items in order from an atomic counter and the
//!   results come back in item order.
//!   [`Engine::prefetch`] plans sequentially (dedup in plan order), maps
//!   the missing cells, then merges into the cache in plan order. A fold
//!   maps its independent sweep points (record-only runs, footprint
//!   studies, fleet runs) and assembles its rows sequentially from the
//!   ordered results, so `--threads N` is byte-identical to `--threads 1`.
//!
//! A map job is a pure function of its item and reads only cells planned
//! before the map started. Cache hit/miss counters are deterministic too:
//! plan-time accounting runs on the calling thread, and an inline miss is
//! counted by the insert that fills the slot, so two jobs racing on one
//! unplanned cell count it once.

mod cell;
mod registry;

pub use cell::Cell;
pub use registry::{find, registry, Experiment, ExperimentData, Spec};

use crate::config::SystemConfig;
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec, RunSummary};
use luke_common::SimError;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workloads::FunctionProfile;

/// Execution context shared by every experiment in one invocation: the
/// memoized cell cache, the worker-thread budget, and the cache counters.
pub struct Engine {
    threads: usize,
    cache: Mutex<HashMap<String, RunSummary>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Engine {
    /// An engine that runs planned cells and fold jobs on up to `threads`
    /// workers. `0` is treated as `1`.
    pub fn new(threads: usize) -> Engine {
        Engine {
            threads: threads.max(1),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A single-threaded engine: every cell and fold job runs on the
    /// calling thread.
    pub fn single() -> Engine {
        Engine::new(1)
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cells served from the cache so far (plan-time requests that an
    /// earlier simulation already covers, including duplicates within one
    /// plan).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells that required a fresh simulation — equivalently, the number
    /// of unique cells simulated so far.
    pub fn cells_simulated(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Applies `job` to every item on up to [`Engine::threads`] workers
    /// and returns the results in item order: [`luke_common::par::map`]
    /// with this engine's thread budget. Workers claim items in order from
    /// an atomic counter, so uneven job costs balance; with one worker
    /// every job runs inline on the calling thread.
    ///
    /// `job` must be a pure function of its item: the engine's
    /// determinism rests on it. Fallible jobs return `Result`s; collecting
    /// them yields the first error in item order, the one a serial loop
    /// would have stopped at.
    pub fn map<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        luke_common::par::map(self.threads, items, job)
    }

    /// Simulates every not-yet-cached cell of a plan: sequential plan →
    /// [`Engine::map`] over the missing cells → merge in plan order.
    ///
    /// Each planned cell is accounted exactly once: a cache hit (already
    /// simulated, or duplicated earlier in this plan) or a miss (simulated
    /// now). Both phases that touch the counters and the cache run on the
    /// calling thread, so the counts are independent of the thread budget.
    pub fn prefetch(&self, cells: &[Cell]) {
        let mut queue: Vec<&Cell> = Vec::new();
        {
            let cache = self.cache.lock().expect("engine cache poisoned");
            let mut queued: HashSet<String> = HashSet::new();
            for cell in cells {
                let key = cell.key();
                if cache.contains_key(&key) || queued.contains(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    queued.insert(key);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    queue.push(cell);
                }
            }
        }
        let results = self.map(&queue, |cell| cell.simulate());
        let mut cache = self.cache.lock().expect("engine cache poisoned");
        for (cell, summary) in queue.iter().zip(results) {
            cache.insert(cell.key(), summary);
        }
    }

    /// Memoized drop-in for [`runner::run`](crate::runner::run): serves the
    /// cell from the cache when present, simulates (and caches) it inline
    /// otherwise.
    ///
    /// Inline lookups of planned cells are not re-counted — each planned
    /// cell was already accounted by [`Engine::prefetch`]. An *unplanned*
    /// cell counts as one more simulated cell, once: when map jobs race
    /// to simulate the same cell, only the insert that fills the slot
    /// counts it.
    pub fn run(
        &self,
        config: &SystemConfig,
        profile: &FunctionProfile,
        prefetcher: PrefetcherKind,
        spec: RunSpec,
        params: &ExperimentParams,
    ) -> RunSummary {
        let cell = Cell::new(config, profile, prefetcher, spec, params);
        let key = cell.key();
        if let Some(hit) = self
            .cache
            .lock()
            .expect("engine cache poisoned")
            .get(&key)
            .copied()
        {
            return hit;
        }
        let summary = cell.simulate();
        let raced = self
            .cache
            .lock()
            .expect("engine cache poisoned")
            .insert(key, summary);
        if raced.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        summary
    }

    /// Plans and runs one registered experiment: validate the params,
    /// `prefetch(plan)`, then the experiment's fold.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid params (see
    /// [`ExperimentParams::validate`]) and propagates the experiment's own
    /// validation/integrity errors.
    pub fn execute(
        &self,
        experiment: &dyn Experiment,
        params: &ExperimentParams,
    ) -> Result<Box<dyn ExperimentData>, SimError> {
        params.validate()?;
        self.prefetch(&experiment.plan(params));
        experiment.run(self, params)
    }

    /// The engine counters as an exportable dataset (appended to
    /// `figure --all` emissions). Deliberately excludes the thread budget:
    /// the counters are thread-independent, so this dataset is too — which
    /// keeps `--threads N` emissions byte-identical to `--threads 1`.
    pub fn dataset(&self) -> luke_obs::Dataset {
        let mut ds = luke_obs::Dataset::new(
            "engine.cells",
            &["cells simulated", "cache hits", "cache misses"],
        );
        ds.push_row(vec![
            self.cells_simulated().into(),
            self.cache_hits().into(),
            self.cells_simulated().into(),
        ]);
        ds
    }

    /// One-line human-readable cache report for `--emit table` output and
    /// the bench harness. It names the workers a map can run, which the
    /// cores cap, not the threads asked for.
    pub fn summary_line(&self) -> String {
        format!(
            "engine: {} cells simulated, {} cache hits, {} worker(s)",
            self.cells_simulated(),
            self.cache_hits(),
            luke_common::par::workers(self.threads, usize::MAX)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_cells(names: &[&str]) -> Vec<Cell> {
        let params = ExperimentParams::quick();
        let cfg = SystemConfig::skylake();
        names
            .iter()
            .map(|name| {
                let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
                Cell::new(
                    &cfg,
                    &profile,
                    PrefetcherKind::None,
                    RunSpec::lukewarm(),
                    &params,
                )
            })
            .collect()
    }

    #[test]
    fn prefetch_counts_hits_and_misses_deterministically() {
        let cells = suite_cells(&["Auth-G", "Fib-G", "Auth-G"]);
        for threads in [1, 4] {
            let engine = Engine::new(threads);
            engine.prefetch(&cells);
            assert_eq!(engine.cells_simulated(), 2, "threads={threads}");
            assert_eq!(engine.cache_hits(), 1, "threads={threads}");
            // Replanning the same cells is pure hits.
            engine.prefetch(&cells);
            assert_eq!(engine.cells_simulated(), 2);
            assert_eq!(engine.cache_hits(), 4);
        }
    }

    #[test]
    fn parallel_prefetch_matches_serial_runs() {
        let cells = suite_cells(&["Auth-G", "Fib-G", "AES-N", "Pay-N"]);
        let engine = Engine::new(4);
        engine.prefetch(&cells);
        let params = ExperimentParams::quick();
        for cell in &cells {
            let cached = engine.run(
                &cell.config,
                &cell.profile,
                cell.prefetcher,
                cell.spec,
                &params,
            );
            assert_eq!(cached, cell.simulate(), "{}", cell.profile.name);
        }
        // Serving those four cells must not have simulated anything new.
        assert_eq!(engine.cells_simulated(), 4);
    }

    #[test]
    fn inline_miss_simulates_and_caches() {
        let engine = Engine::single();
        let params = ExperimentParams::quick();
        let profile = FunctionProfile::named("Fib-G")
            .unwrap()
            .scaled(params.scale);
        let cfg = SystemConfig::skylake();
        let first = engine.run(
            &cfg,
            &profile,
            PrefetcherKind::None,
            RunSpec::reference(),
            &params,
        );
        assert_eq!(engine.cells_simulated(), 1);
        let second = engine.run(
            &cfg,
            &profile,
            PrefetcherKind::None,
            RunSpec::reference(),
            &params,
        );
        assert_eq!(first, second);
        assert_eq!(engine.cells_simulated(), 1, "second call must be a hit");
    }

    #[test]
    fn prefetch_of_mixed_cost_cells_is_thread_invariant() {
        let params = ExperimentParams::quick();
        let cfg = SystemConfig::skylake();
        let mut cells = suite_cells(&["Auth-G", "Fib-G", "Email-P", "Auth-G", "Pay-N"]);
        // A larger scale and a costlier prefetcher make the cells uneven.
        let big = FunctionProfile::named("RecO-P").unwrap().scaled(0.06);
        cells.push(Cell::new(
            &cfg,
            &big,
            PrefetcherKind::Jukebox(cfg.jukebox),
            RunSpec::lukewarm(),
            &params,
        ));
        let run = |threads: usize| {
            let engine = Engine::new(threads);
            engine.prefetch(&cells);
            let cache = engine.cache.lock().unwrap().clone();
            (cache, engine.cells_simulated(), engine.cache_hits())
        };
        let serial = run(1);
        assert_eq!((serial.1, serial.2), (5, 1));
        assert_eq!(run(3), serial);
    }

    #[test]
    fn racing_inline_misses_count_once() {
        let params = ExperimentParams::quick();
        let cfg = SystemConfig::skylake();
        let profile = FunctionProfile::named("Geo-G")
            .unwrap()
            .scaled(params.scale);
        for threads in [1, 4] {
            let engine = Engine::new(threads);
            let runs = engine.map(&[(); 4], |_| {
                engine.run(
                    &cfg,
                    &profile,
                    PrefetcherKind::None,
                    RunSpec::lukewarm(),
                    &params,
                )
            });
            assert!(runs.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(engine.cells_simulated(), 1, "threads={threads}");
        }
    }

    #[test]
    fn execute_rejects_invalid_params_for_every_experiment() {
        let quick = ExperimentParams::quick();
        let bad = [
            (
                "params.scale",
                ExperimentParams {
                    scale: 0.0,
                    ..quick
                },
            ),
            (
                "params.scale",
                ExperimentParams {
                    scale: -1.0,
                    ..quick
                },
            ),
            (
                "params.scale",
                ExperimentParams {
                    scale: f64::NAN,
                    ..quick
                },
            ),
            (
                "params.invocations",
                ExperimentParams {
                    invocations: 0,
                    ..quick
                },
            ),
        ];
        let engine = Engine::single();
        for experiment in registry() {
            for (expected, params) in &bad {
                match engine.execute(*experiment, params) {
                    Err(SimError::InvalidConfig { field, .. }) => {
                        assert_eq!(field, *expected, "{}: {params:?}", experiment.name());
                    }
                    Err(other) => panic!("{}: {params:?}: {other}", experiment.name()),
                    Ok(_) => panic!("{}: {params:?} accepted", experiment.name()),
                }
            }
        }
        assert_eq!(engine.cells_simulated(), 0, "nothing ran");
    }

    #[test]
    fn counters_surface_in_the_dataset_and_summary_line() {
        let engine = Engine::new(2);
        engine.prefetch(&suite_cells(&["Auth-G", "Auth-G"]));
        let ds = engine.dataset();
        assert_eq!(ds.name, "engine.cells");
        assert_eq!(ds.rows.len(), 1);
        assert!(engine.summary_line().contains("1 cells simulated"));
        // The line names the workers a map runs, capped at the cores.
        let cores = luke_common::par::cores();
        let line = engine.summary_line();
        assert!(
            line.ends_with(&format!(" {} worker(s)", cores.min(2))),
            "{line}"
        );
        let line = Engine::new(cores + 6).summary_line();
        assert!(line.ends_with(&format!(" {cores} worker(s)")), "{line}");
    }
}
