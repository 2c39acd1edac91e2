//! **Cold-start spectrum (beyond the paper)** — what a cold start costs
//! under each restore strategy, and how much of it snapshots win back.
//!
//! The paper's lukewarm analysis takes the cold/warm split as given;
//! this experiment prices the cold side. The same keep-alive-driven
//! traffic is charged four ways: a full container boot (the fleet's flat
//! `cold_start_ms`), a snapshot restore with demand paging (one fault
//! per working-set page), a REAP-style restore that records the page
//! working set once and bulk-prefetches it afterwards, and REAP combined
//! with Jukebox replay on the warm side — the two record-and-replay
//! mechanisms stacked, one for the data plane and one for the
//! instruction plane.
//!
//! A corruption axis stress-tests the validate-or-degrade discipline:
//! before a fraction of REAP restores, the recorded metadata is tampered
//! with (a bit-flip on the snapshot medium), which must degrade that
//! restore to lazy paging, bump `snapshot.replay_aborts`, and re-record
//! — never panic, never prefetch a bogus page.
//!
//! Each cell drives two [`FleetHost`]s (Jukebox off and on) in lockstep
//! over one arrival stream: the hosts decide which arrivals start cold
//! and price the warm ones. Expiry keys on arrival time alone, so both
//! hosts see the same cold/warm split. Cold arrivals are priced here,
//! once per variant, against the experiment's own snapshot stores. No
//! cycle-accurate timing runs; working sets are always paper-scale
//! (`workloads::paper_suite`), so the REAP recovery fraction is
//! meaningful at every `--scale`.

use crate::engine::{Engine, Spec};
use crate::experiments::keep_alive::population;
use crate::runner::ExperimentParams;
use luke_common::rng::DetRng;
use luke_common::SimError;
use luke_fleet::{FleetConfig, FleetHost, RoutedInvocation, ServiceModel};
use luke_obs::export::{pct, plain, Column, Dataset, Export, Fmt};
use luke_snapshot::{ColdStartModel, SnapshotStore, SnapshotTimings};
use server::{IatDistribution, TrafficGenerator};
use std::fmt;

/// Seed-space tag for the metadata-corruption draw stream.
const CORRUPT_STREAM: u64 = 0x636F_7272; // "corr"

/// Flat full-boot cost charged by the `cold-boot` variant, ms — the
/// fleet's default `cold_start_ms`.
pub const COLD_BOOT_MS: f64 = 125.0;

/// Keep-alive windows swept, minutes: short, provider-typical, long.
pub const KEEP_ALIVE_MINUTES: [f64; 3] = [5.0, 15.0, 60.0];

/// Metadata-corruption probabilities applied per REAP restore.
pub const CORRUPTION_RATES: [f64; 3] = [0.0, 0.1, 0.3];

/// Results for one (keep-alive window, corruption rate) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Keep-alive window in minutes.
    pub keep_alive_min: f64,
    /// Probability each REAP restore finds its metadata corrupted.
    pub corruption_rate: f64,
    /// Fraction of invocations that started cold.
    pub cold_rate: f64,
    /// Mean end-to-end latency with the flat full-boot cost, ms.
    pub cold_boot_latency_ms: f64,
    /// Mean end-to-end latency with lazily-paged restores, ms.
    pub lazy_latency_ms: f64,
    /// Mean end-to-end latency with REAP prefetch restores, ms.
    pub reap_latency_ms: f64,
    /// Mean end-to-end latency with REAP restores *and* Jukebox-priced
    /// warm invocations, ms.
    pub reap_jukebox_latency_ms: f64,
    /// Mean lazy restore cost per cold start, ms.
    pub lazy_restore_ms: f64,
    /// Mean REAP restore cost per cold start, ms (record passes and
    /// degraded restores included).
    pub reap_restore_ms: f64,
    /// Fraction of the lazy-paging restore cost a *replayed* (prefetch)
    /// restore wins back: `1 − replay/lazy`. Record and degraded passes
    /// are excluded — they pay lazy cost by construction, and show up in
    /// [`Row::reap_restore_ms`] and [`Row::replay_aborts`] instead.
    pub reap_recovery: f64,
    /// REAP restores that failed validation and degraded to lazy paging.
    pub replay_aborts: u64,
    /// Pages bulk-prefetched by the REAP store.
    pub pages_prefetched: u64,
    /// Pages demand-faulted by the REAP store.
    pub pages_faulted: u64,
}

/// The complete cold-start spectrum sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per (keep-alive window, corruption rate).
    pub rows: Vec<Row>,
    /// Number of deployed functions in the population.
    pub functions: usize,
    /// Invocations simulated per cell.
    pub invocations: usize,
}

/// Registry entry: see [`crate::engine::registry`]. The sweep has no
/// cycle-accurate runner cells, so the plan is empty, and the run maps
/// one job per (window, corruption) cell over the engine's workers.
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "cold-spectrum",
    aliases: &["cold_spectrum"],
    description: "Cold-start spectrum: full boot vs lazy restore vs REAP prefetch vs REAP+Jukebox",
    module: module_path!(),
    plan: |_| Vec::new(),
    run,
};

/// Runs the sweep with each (window, corruption) cell as one
/// [`Engine::map`] job. `params.scale` scales the population and event
/// count; the working sets stay paper-scale regardless (restore cost is
/// closed-form, so large pages are free).
///
/// # Errors
///
/// Propagates `ServiceModel`/`SnapshotStore` construction errors (the
/// paper suite and default timings always validate).
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let functions = ((150.0 * params.scale) as usize).max(20);
    let invocations = ((30_000.0 * params.scale) as usize).max(2_000);
    let suite = workloads::paper_suite();
    let model = ServiceModel::analytic(&suite)?;
    let distributions = population(functions, 0xC01D, 2.0 * 24.0 * 3600.0 * 1000.0);
    let timings = SnapshotTimings::default();

    let cells: Vec<(f64, f64)> = KEEP_ALIVE_MINUTES
        .iter()
        .flat_map(|&minutes| CORRUPTION_RATES.map(|rate| (minutes, rate)))
        .collect();
    let rows = engine
        .map(&cells, |&(minutes, corruption_rate)| {
            run_cell(
                minutes,
                corruption_rate,
                functions,
                invocations,
                &distributions,
                &model,
                timings,
            )
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(Data {
        rows,
        functions,
        invocations,
    })
}

/// Simulates one (window, corruption) cell: a single pass over the
/// traffic, pricing every invocation under all four variants at once so
/// the cold/warm split is identical across them.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    minutes: f64,
    corruption_rate: f64,
    functions: usize,
    invocations: usize,
    distributions: &[IatDistribution],
    model: &ServiceModel,
    timings: SnapshotTimings,
) -> Result<Row, SimError> {
    let config = FleetConfig {
        hosts: 1,
        population: functions,
        invocations,
        keep_alive_ms: minutes * 60_000.0,
        ..FleetConfig::default()
    };
    config.validate()?;
    let mut plain_host = FleetHost::new(&config, 0);
    let mut jukebox_host = FleetHost::new(&config, 0);
    let mut lazy_store = SnapshotStore::for_profiles(
        ColdStartModel::LazyPaging,
        timings,
        &workloads::paper_suite(),
    )?;
    let mut reap_store = SnapshotStore::for_profiles(
        ColdStartModel::ReapPrefetch,
        timings,
        &workloads::paper_suite(),
    )?;
    let mut corrupt_rng = DetRng::new(0xC01D)
        .split(CORRUPT_STREAM)
        .split((minutes * 1000.0) as u64)
        .split((corruption_rate * 1000.0) as u64);

    // Latency sums per variant: cold-boot, lazy, reap, reap+jukebox.
    let mut sums = [0.0f64; 4];
    let mut lazy_restore_sum = 0.0;
    let mut reap_restore_sum = 0.0;
    // Replayed (prefetch) restores only — the steady-state REAP cost.
    let mut replay_sum = 0.0;
    let mut replays = 0usize;

    for event in TrafficGenerator::new(distributions, 7).take_events(invocations) {
        let function = event.instance;
        let routed = RoutedInvocation::new(event.at_ms, function);
        let cold_starts = plain_host.cold_starts;
        let plain = plain_host.process(&config, model, false, routed);
        let jukebox = jukebox_host.process(&config, model, true, routed);
        if plain_host.cold_starts == cold_starts {
            sums[0] += plain;
            sums[1] += plain;
            sums[2] += plain;
            sums[3] += jukebox;
            continue;
        }
        let service = model.service_ms(function % model.functions(), 1.0, false);
        let lazy_ms = lazy_store.restore_ms(function);
        // A crash mid-write or a bit-flip on the snapshot medium
        // corrupts the record this restore would replay.
        if corruption_rate > 0.0 && corrupt_rng.chance(corruption_rate) {
            reap_store.tamper(function);
        }
        let recorded_before = reap_store.stats().pages_recorded;
        let reap_ms = reap_store.restore_ms(function);
        if reap_store.stats().pages_recorded == recorded_before {
            // No fresh record means this restore replayed one.
            replay_sum += reap_ms;
            replays += 1;
        }
        lazy_restore_sum += lazy_ms;
        reap_restore_sum += reap_ms;
        sums[0] += service + COLD_BOOT_MS;
        sums[1] += service + lazy_ms;
        sums[2] += service + reap_ms;
        sums[3] += service + reap_ms;
    }

    let n = invocations as f64;
    let cold_starts = plain_host.cold_starts;
    let cold = cold_starts.max(1) as f64;
    let lazy_restore_ms = lazy_restore_sum / cold;
    let reap_restore_ms = reap_restore_sum / cold;
    let stats = reap_store.stats();
    Ok(Row {
        keep_alive_min: minutes,
        corruption_rate,
        cold_rate: cold_starts as f64 / n,
        cold_boot_latency_ms: sums[0] / n,
        lazy_latency_ms: sums[1] / n,
        reap_latency_ms: sums[2] / n,
        reap_jukebox_latency_ms: sums[3] / n,
        lazy_restore_ms,
        reap_restore_ms,
        reap_recovery: if replays > 0 && lazy_restore_ms > 0.0 {
            1.0 - (replay_sum / replays as f64) / lazy_restore_ms
        } else {
            0.0
        },
        replay_aborts: stats.replay_aborts,
        pages_prefetched: stats.pages_prefetched,
        pages_faulted: stats.pages_faulted,
    })
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = SnapshotTimings::default();
        writeln!(
            f,
            "Cold-start spectrum: {} functions, {} invocations per cell \
             (boot {COLD_BOOT_MS:.0}ms; restore base {:.0}µs, fault {:.0}µs/page, \
             prefetch {:.0}µs + {:.1}µs/page)",
            self.functions,
            self.invocations,
            t.base_restore_us,
            t.page_fault_us,
            t.prefetch_batch_us,
            t.prefetch_page_us
        )?;
        // One text table: the sweep with the restore columns it shows
        // (recovery and aborts) beside it, row for row.
        let [mut table, restore]: [Dataset; 2] = self
            .datasets()
            .try_into()
            .expect("sweep and restore datasets");
        table.columns.extend(restore.columns);
        for (cells, more) in table.rows.iter_mut().zip(restore.rows) {
            cells.extend(more);
        }
        writeln!(
            f,
            "{}REAP turns the per-page fault storm into one batched read; corruption \
             degrades single restores to lazy paging (never a panic), and Jukebox \
             stacks on the warm side.",
            table.to_text()
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let ms: Fmt = |v| format!("{:.2} ms", v.as_f64());
        let mut sweep = Dataset::with_columns(
            "cold_spectrum.sweep",
            vec![
                Column::new("keep-alive min", |v| format!("{:.0} min", v.as_f64()))
                    .titled("keep-alive"),
                Column::new("corruption rate", pct::<0>).titled("corrupt"),
                Column::new("cold rate", pct::<1>),
                Column::new("cold-boot ms", ms).titled("boot"),
                Column::new("lazy ms", ms).titled("lazy"),
                Column::new("reap ms", ms).titled("reap"),
                Column::new("reap+jukebox ms", ms).titled("reap+jb"),
            ],
        );
        let mut restore = Dataset::with_columns(
            "cold_spectrum.restore",
            vec![
                Column::hidden("keep-alive min"),
                Column::hidden("corruption rate"),
                Column::hidden("lazy restore ms"),
                Column::hidden("reap restore ms"),
                Column::new("reap recovery", pct::<0>).titled("recovery"),
                Column::new("replay aborts", plain).titled("aborts"),
                Column::hidden("pages prefetched"),
                Column::hidden("pages faulted"),
            ],
        );
        for r in &self.rows {
            sweep.push_row(vec![
                r.keep_alive_min.into(),
                r.corruption_rate.into(),
                r.cold_rate.into(),
                r.cold_boot_latency_ms.into(),
                r.lazy_latency_ms.into(),
                r.reap_latency_ms.into(),
                r.reap_jukebox_latency_ms.into(),
            ]);
            restore.push_row(vec![
                r.keep_alive_min.into(),
                r.corruption_rate.into(),
                r.lazy_restore_ms.into(),
                r.reap_restore_ms.into(),
                r.reap_recovery.into(),
                r.replay_aborts.into(),
                r.pages_prefetched.into(),
                r.pages_faulted.into(),
            ]);
        }
        vec![sweep, restore]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_obs::Export;

    fn data() -> Data {
        run(
            &Engine::single(),
            &ExperimentParams {
                scale: 0.25,
                invocations: 1,
                warmup: 0,
            },
        )
        .expect("paper suite and default timings validate")
    }

    #[test]
    fn reap_recovers_at_least_half_the_lazy_penalty_without_corruption() {
        let d = data();
        for r in d.rows.iter().filter(|r| r.corruption_rate == 0.0) {
            assert!(
                r.reap_recovery >= 0.5,
                "recovery {:.2} at {} min",
                r.reap_recovery,
                r.keep_alive_min
            );
            assert_eq!(r.replay_aborts, 0, "no corruption, no aborts");
        }
    }

    #[test]
    fn restore_strategies_order_as_designed() {
        // Per cell: lazy paging beats a full boot, REAP ≤ lazy on both
        // the restore cost and the end-to-end mean, and Jukebox only
        // improves on REAP.
        let d = data();
        for r in &d.rows {
            assert!(r.cold_rate > 0.0, "cells must see cold traffic");
            assert!(r.lazy_latency_ms < r.cold_boot_latency_ms, "{r:?}");
            assert!(r.reap_restore_ms <= r.lazy_restore_ms + 1e-9, "{r:?}");
            assert!(r.reap_latency_ms <= r.lazy_latency_ms + 1e-9, "{r:?}");
            assert!(
                r.reap_jukebox_latency_ms <= r.reap_latency_ms + 1e-9,
                "{r:?}"
            );
        }
    }

    #[test]
    fn corruption_costs_recovery_and_counts_aborts() {
        let d = data();
        for window in KEEP_ALIVE_MINUTES {
            let cell = |rate: f64| {
                *d.rows
                    .iter()
                    .find(|r| r.keep_alive_min == window && r.corruption_rate == rate)
                    .expect("cell exists")
            };
            let clean = cell(0.0);
            let noisy = cell(0.3);
            assert!(
                noisy.replay_aborts > 0,
                "30% corruption must draw aborts at {window} min"
            );
            assert!(
                noisy.reap_restore_ms >= clean.reap_restore_ms,
                "degraded restores cost more: {noisy:?} vs {clean:?}"
            );
        }
    }

    #[test]
    fn export_and_render_cover_every_cell() {
        let d = data();
        assert_eq!(
            d.rows.len(),
            KEEP_ALIVE_MINUTES.len() * CORRUPTION_RATES.len()
        );
        let datasets = d.datasets();
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].name, "cold_spectrum.sweep");
        assert_eq!(datasets[1].name, "cold_spectrum.restore");
        let s = d.to_string();
        for m in KEEP_ALIVE_MINUTES {
            assert!(s.contains(&format!("{m:.0} min")), "{s}");
        }
    }
}
