//! Observability overhead on the Figure-10 quick path: the plain runner
//! against [`run_observed`] with metrics only and with lifecycle span
//! tracing.
//!
//! The acceptance target is that the *disabled* instrumentation path costs
//! at most ~2% over the plain runner:
//!
//! ```text
//! cargo bench --bench obs_overhead                          # default build
//! cargo bench --bench obs_overhead --features obs_disabled  # compiled-out spans
//! ```
//!
//! The final `overhead` lines print the paired comparisons directly (best
//! of interleaved rounds, so frequency drift hits both sides equally).
//!
//! The span path is covered the same way: a fleet run with tracing off
//! (`trace_sample: 0`, the default) against every-8th-dispatch sampling.
//! The untraced fleet number is the one the ≤1% disabled-overhead budget
//! in docs/OBSERVABILITY.md speaks about — compare it across a default
//! and an `--features obs_disabled` build.

use criterion::{black_box, Criterion};
use luke_fleet::{run_fleet, FleetConfig, ServiceModel};
use lukewarm_sim::config::SystemConfig;
use lukewarm_sim::runner::{run, run_observed, PrefetcherKind, RunSpec};
use lukewarm_sim::ExperimentParams;
use std::time::{Duration, Instant};
use workloads::{paper_suite, FunctionProfile};

/// The Figure-10 measurement on one function, quick scale.
struct Fig10Quick {
    config: SystemConfig,
    profile: FunctionProfile,
    params: ExperimentParams,
}

impl Fig10Quick {
    fn new() -> Self {
        let params = ExperimentParams::quick();
        Fig10Quick {
            config: SystemConfig::skylake(),
            profile: FunctionProfile::named("Auth-G")
                .expect("suite function")
                .scaled(params.scale),
            params,
        }
    }

    fn plain(&self) -> u64 {
        run(
            &self.config,
            &self.profile,
            PrefetcherKind::Jukebox(self.config.jukebox),
            RunSpec::lukewarm(),
            &self.params,
        )
        .cycles
    }

    fn observed(&self, trace_capacity: usize) -> u64 {
        run_observed(
            &self.config,
            &self.profile,
            PrefetcherKind::Jukebox(self.config.jukebox),
            RunSpec::lukewarm(),
            &self.params,
            trace_capacity,
        )
        .summary
        .cycles
    }
}

fn bench_runners(c: &mut Criterion) {
    let f = Fig10Quick::new();
    c.bench_function("obs/fig10_quick_plain", |b| b.iter(|| black_box(f.plain())));
    c.bench_function("obs/fig10_quick_observed", |b| {
        b.iter(|| black_box(f.observed(0)))
    });
    c.bench_function("obs/fig10_quick_observed_traced", |b| {
        b.iter(|| black_box(f.observed(65_536)))
    });
    let fleet = FleetQuick::new();
    c.bench_function("obs/fleet_untraced", |b| b.iter(|| black_box(fleet.run(0))));
    c.bench_function("obs/fleet_spans_1in8", |b| {
        b.iter(|| black_box(fleet.run(8)))
    });
}

/// The span-path workload: a small fleet run, with and without span
/// sampling.
struct FleetQuick {
    config: FleetConfig,
    model: ServiceModel,
}

impl FleetQuick {
    fn new() -> Self {
        FleetQuick {
            config: FleetConfig {
                hosts: 4,
                invocations: 20_000,
                ..FleetConfig::default()
            },
            model: ServiceModel::analytic(&paper_suite()).expect("paper suite is valid"),
        }
    }

    fn run(&self, trace_sample: u64) -> u64 {
        let config = FleetConfig {
            trace_sample,
            ..self.config.clone()
        };
        run_fleet(&config, &self.model, false)
            .expect("config is valid")
            .invocations
    }
}

/// Best-of-N interleaved timing of one routine.
fn best_of<R>(rounds: u32, mut routine: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        black_box(routine());
        best = best.min(start.elapsed());
    }
    best
}

/// Prints the paired plain-vs-observed overhead on the same workload.
fn overhead_report() {
    let f = Fig10Quick::new();
    // Warm up both paths before timing.
    black_box(f.plain());
    black_box(f.observed(0));
    let rounds = 7;
    let plain = best_of(rounds, || f.plain());
    let observed = best_of(rounds, || f.observed(0));
    let pct = (observed.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;
    let mode = if cfg!(feature = "obs_disabled") {
        "obs_disabled"
    } else {
        "default"
    };
    println!(
        "overhead ({mode:>12}): plain {:>10.3?}  observed {:>10.3?}  => {pct:+.2}%",
        plain, observed
    );
}

/// Prints the paired untraced-vs-sampled span overhead on a fleet run.
fn span_overhead_report() {
    let fleet = FleetQuick::new();
    black_box(fleet.run(0));
    black_box(fleet.run(8));
    let rounds = 7;
    let untraced = best_of(rounds, || fleet.run(0));
    let sampled = best_of(rounds, || fleet.run(8));
    let pct = (sampled.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0;
    let mode = if cfg!(feature = "obs_disabled") {
        "obs_disabled"
    } else {
        "default"
    };
    println!(
        "span overhead ({mode:>12}): untraced {:>10.3?}  1-in-8 sampled {:>10.3?}  => {pct:+.2}%",
        untraced, sampled
    );
}

fn main() {
    let mut c = Criterion::default();
    bench_runners(&mut c);
    overhead_report();
    span_overhead_report();
}
