//! **Tenancy sweep** — cross-function page sharing and multi-tenant
//! contention, per routing policy.
//!
//! Co-resident instances of the same language runtime duplicate most of
//! their memory: the interpreter or runtime core and the shared
//! libraries are byte-identical across functions, and only the heap is
//! truly private. `luke-tenancy` models that with a content-addressed
//! shared-page store per host — registrations dedup against resident
//! pages, REAP restores skip what is already mapped, and the pool's
//! memory bill charges each instance only the fraction of its footprint
//! the host actually materialized. Sharing has a price, though: the
//! more working sets a host packs, the more they fight over the same
//! memory system, modeled as a continuous pressure-to-slowdown curve.
//!
//! This experiment sweeps tenancy variants (off, dedup only, dedup with
//! contention) against routing policies (least-loaded, keep-alive-aware,
//! placement-aware) under the REAP cold-start model and identical Zipf
//! traffic. The headline claims: dedup cuts both memory-instance-seconds
//! and the mean restore bill at no latency cost; contention buys back
//! some of that as a real co-residency-vs-P99 trade-off; and the
//! placement-aware policy — which chases shared-page affinity while
//! fleeing contention pressure — sits on the frontier of that trade-off
//! rather than inside it.
//!
//! Service times are calibrated from the cycle-accurate core exactly as
//! in [`fleet_scale`] (same cells, so a shared engine simulates them
//! once).

use crate::engine::{Cell, Engine, Spec};
use crate::experiments::fleet_scale;
use crate::runner::ExperimentParams;
use luke_common::SimError;
use luke_fleet::{
    run_fleet, ColdStartModel, ContentionConfig, FleetConfig, FleetRun, RoutingPolicy,
    TenancyConfig,
};
use luke_obs::export::{fixed, plain, x100, Column, Dataset, Export};
use std::fmt;

/// Fleet size — small enough that the 9-point grid stays test-speed.
const HOSTS: usize = 4;
/// Invocations per host per point.
const INVOCATIONS_PER_HOST: usize = 2_000;
/// Logical functions sharing the fleet — enough co-residency per host
/// that same-language instances actually overlap.
const POPULATION: usize = 40;
/// Per-host memory capacity for the contention variant, bytes. Sized so
/// the swept population's working sets genuinely crowd it (pressure
/// crosses the curve's knee) without saturating the slowdown cap.
const CONTENTION_CAPACITY_BYTES: u64 = 4 << 20;

/// Routing policies swept.
pub const POLICIES: [RoutingPolicy; 3] = [
    RoutingPolicy::LeastLoaded,
    RoutingPolicy::KeepAliveAware,
    RoutingPolicy::PlacementAware,
];

/// Tenancy variant labels, in sweep order.
pub const VARIANTS: [&str; 3] = ["off", "dedup", "dedup+contention"];

/// The tenancy configuration behind each variant label.
fn variant_config(variant: &str) -> TenancyConfig {
    match variant {
        "dedup" => TenancyConfig::dedup_enabled(),
        "dedup+contention" => TenancyConfig {
            contention: ContentionConfig {
                capacity_bytes: CONTENTION_CAPACITY_BYTES,
                ..ContentionConfig::default_enabled()
            },
            ..TenancyConfig::default_enabled()
        },
        _ => TenancyConfig::disabled(),
    }
}

/// One sweep point: a routing policy under one tenancy variant.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Routing policy label.
    pub policy: &'static str,
    /// Tenancy variant label.
    pub variant: &'static str,
    /// Total instance-seconds of (dedup-weighted) pool residency.
    pub memory_instance_s: f64,
    /// Fraction of invocations with no warm instance.
    pub cold_start_rate: f64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// Tail latency, ms.
    pub p99_ms: f64,
    /// Shared-page hit rate over all shareable registrations.
    pub hit_rate: f64,
    /// Memory dedup avoided materializing, MiB.
    pub dedup_mib_saved: f64,
    /// Invocations slowed by contention pressure.
    pub slowed: u64,
    /// Latency contention pressure added fleet-wide, ms.
    pub contention_extra_ms: f64,
}

/// The full sweep: policies × tenancy variants.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per (policy, variant) point, variants inner.
    pub rows: Vec<Row>,
}

/// Cell grid: the same calibration runs as the fleet sweep, so a shared
/// engine simulates them once for both experiments.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    fleet_scale::plan(params)
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "tenancy",
    aliases: &["tenancy-sweep", "multi-tenancy", "page-sharing"],
    description: "Shared-page dedup and contention pressure across routing policies",
    module: module_path!(),
    plan,
    run,
};

/// One sweep point's fleet configuration. Every point uses the REAP
/// prefetch model so restore pricing can actually discount resident
/// pages.
fn fleet_config(policy: RoutingPolicy, variant: &str) -> FleetConfig {
    FleetConfig {
        hosts: HOSTS,
        invocations: HOSTS * INVOCATIONS_PER_HOST,
        population: POPULATION,
        policy,
        cold_start_model: ColdStartModel::ReapPrefetch,
        tenancy: variant_config(variant),
        ..FleetConfig::default()
    }
}

/// Runs the sweep, calibrating through the shared engine. Each
/// grid point is one [`Engine::map`] job.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let model = fleet_scale::calibrate_model(engine, params)?;
    let points: Vec<(RoutingPolicy, &'static str)> = POLICIES
        .into_iter()
        .flat_map(|policy| VARIANTS.map(|variant| (policy, variant)))
        .collect();
    let rows = engine
        .map(&points, |&(policy, variant)| {
            let run = run_fleet(&fleet_config(policy, variant), &model, false)?;
            Ok(point(&run, policy, variant))
        })
        .into_iter()
        .collect::<Result<_, SimError>>()?;
    Ok(Data { rows })
}

/// Measures one simulated sweep point.
fn point(run: &FleetRun, policy: RoutingPolicy, variant: &'static str) -> Row {
    Row {
        policy: policy.label(),
        variant,
        memory_instance_s: run.memory_instance_s(),
        cold_start_rate: run.cold_start_rate(),
        mean_ms: run.mean_latency_ms(),
        p99_ms: run.p99_ms(),
        hit_rate: run.shared_page_hit_rate(),
        dedup_mib_saved: run.dedup_bytes_saved() as f64 / (1024.0 * 1024.0),
        slowed: run.slowed_invocations(),
        contention_extra_ms: run.contention_extra_ms,
    }
}

impl Data {
    /// The row for one (policy, variant) point.
    pub fn row(&self, policy: RoutingPolicy, variant: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.policy == policy.label() && r.variant == variant)
    }

    /// Memory-instance-seconds dedup saved under `policy`: the tenancy
    /// bill subtracted from the baseline bill over identical traffic.
    pub fn memory_savings(&self, policy: RoutingPolicy) -> f64 {
        match (self.row(policy, "off"), self.row(policy, "dedup")) {
            (Some(off), Some(dedup)) => off.memory_instance_s - dedup.memory_instance_s,
            _ => 0.0,
        }
    }

    /// Mean latency recovered by dedup'd restores under `policy`, ms —
    /// resident shared pages shrink the REAP prefetch batch, so cold
    /// starts get cheaper with no behavioural change.
    pub fn restore_recovery_ms(&self, policy: RoutingPolicy) -> f64 {
        match (self.row(policy, "off"), self.row(policy, "dedup")) {
            (Some(off), Some(dedup)) => off.mean_ms - dedup.mean_ms,
            _ => 0.0,
        }
    }

    /// Whether the placement-aware policy sits on the memory-vs-P99
    /// frontier under full tenancy: no other swept policy beats it on
    /// *both* axes at once.
    pub fn placement_on_frontier(&self) -> bool {
        let Some(pa) = self.row(RoutingPolicy::PlacementAware, "dedup+contention") else {
            return false;
        };
        POLICIES
            .iter()
            .filter(|&&p| p != RoutingPolicy::PlacementAware)
            .filter_map(|&p| self.row(p, "dedup+contention"))
            .all(|other| {
                !(other.memory_instance_s < pa.memory_instance_s && other.p99_ms < pa.p99_ms)
            })
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tenancy sweep: shared-page dedup and contention pressure per routing policy"
        )?;
        write!(f, "{}", self.datasets()[0].to_text())?;
        for policy in POLICIES {
            writeln!(
                f,
                "{}: dedup saves {:.1} memory inst-s and recovers {:.3}ms mean restore cost",
                policy.label(),
                self.memory_savings(policy),
                self.restore_recovery_ms(policy),
            )?;
        }
        writeln!(
            f,
            "placement-aware on the memory-vs-P99 frontier under contention: {}",
            if self.placement_on_frontier() {
                "yes"
            } else {
                "no"
            }
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut sweep = Dataset::with_columns(
            "tenancy.sweep",
            vec![
                Column::new("policy", plain),
                Column::new("variant", plain).titled("tenancy"),
                Column::new("memory_instance_s", fixed::<1>).titled("memory inst-s"),
                Column::new("cold_start_rate", x100::<1>).titled("cold %"),
                Column::new("mean_ms", fixed::<3>).titled("mean ms"),
                Column::new("p99_ms", fixed::<3>).titled("p99 ms"),
                Column::new("hit_rate", x100::<1>).titled("hit %"),
                Column::new("dedup_mib_saved", fixed::<2>).titled("MiB deduped"),
                Column::new("slowed", plain),
                Column::new("contention_extra_ms", fixed::<1>).titled("contention ms"),
            ],
        );
        for r in &self.rows {
            sweep.push_row(vec![
                r.policy.into(),
                r.variant.into(),
                r.memory_instance_s.into(),
                r.cold_start_rate.into(),
                r.mean_ms.into(),
                r.p99_ms.into(),
                r.hit_rate.into(),
                r.dedup_mib_saved.into(),
                r.slowed.into(),
                r.contention_extra_ms.into(),
            ]);
        }
        let mut savings = Dataset::new(
            "tenancy.savings",
            &["policy", "memory_savings_instance_s", "restore_recovery_ms"],
        );
        for policy in POLICIES {
            savings.push_row(vec![
                policy.label().into(),
                self.memory_savings(policy).into(),
                self.restore_recovery_ms(policy).into(),
            ]);
        }
        vec![sweep, savings]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Data {
        run(&Engine::single(), &ExperimentParams::quick()).unwrap()
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let d = data();
        assert_eq!(d.rows.len(), POLICIES.len() * VARIANTS.len());
        for policy in POLICIES {
            for variant in VARIANTS {
                assert!(d.row(policy, variant).is_some(), "{policy:?}/{variant}");
            }
        }
    }

    #[test]
    fn dedup_cuts_memory_and_recovers_restore_cost_under_every_policy() {
        let d = data();
        for policy in POLICIES {
            assert!(
                d.memory_savings(policy) > 0.0,
                "{}: dedup must cut the memory bill\n{d}",
                policy.label()
            );
            assert!(
                d.restore_recovery_ms(policy) >= 0.0,
                "{}: shared restores must not cost extra\n{d}",
                policy.label()
            );
            let dedup = d.row(policy, "dedup").unwrap();
            assert!(
                dedup.hit_rate > 0.0,
                "{}: no shared-page hits",
                policy.label()
            );
            assert!(dedup.dedup_mib_saved > 0.0);
            let off = d.row(policy, "off").unwrap();
            assert_eq!(off.hit_rate, 0.0, "disabled variant must not dedup");
            assert_eq!(off.slowed, 0);
        }
    }

    #[test]
    fn contention_is_a_real_tradeoff_with_placement_on_the_frontier() {
        let d = data();
        // Under at least one policy the pressure curve must actually
        // engage and show up in the tail.
        let engaged: Vec<_> = POLICIES
            .iter()
            .filter_map(|&p| d.row(p, "dedup+contention"))
            .filter(|r| r.slowed > 0 && r.contention_extra_ms > 0.0)
            .collect();
        assert!(!engaged.is_empty(), "contention never engaged\n{d}");
        for r in &engaged {
            let dedup = d
                .rows
                .iter()
                .find(|q| q.policy == r.policy && q.variant == "dedup")
                .unwrap();
            assert!(
                r.p99_ms >= dedup.p99_ms,
                "{}: pressure cannot improve the tail\n{d}",
                r.policy
            );
        }
        assert!(d.placement_on_frontier(), "{d}");
    }

    #[test]
    fn render_reports_the_sweep_and_exports_two_datasets() {
        let d = data();
        let s = d.to_string();
        assert!(s.contains("Tenancy sweep"));
        assert!(s.contains("placement-aware on the memory-vs-P99 frontier"));
        let datasets = luke_obs::Export::datasets(&d);
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].name, "tenancy.sweep");
        assert_eq!(datasets[0].rows.len(), d.rows.len());
        assert_eq!(datasets[1].name, "tenancy.savings");
        assert_eq!(datasets[1].rows.len(), POLICIES.len());
    }
}
