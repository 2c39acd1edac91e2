//! `fleet-steady` and `fleet-cluster`: `run_fleet` plus the JSON export
//! of its datasets, and the stage driver that times each fleet layer by
//! driving the same public calls `run_fleet` makes.

use std::time::Instant;

use luke_common::rng::DetRng;
use luke_fleet::{
    run_fleet, AdmissionConfig, ArrivalStream, ChaosConfig, ChaosPlan, ColdStartModel,
    ContentionConfig, FleetConfig, FleetHost, FleetRun, HealthView, HedgeConfig, HostSummary,
    Population, PrewarmConfig, RetryBudget, RoutedInvocation, Router, RoutingPolicy, ServiceModel,
    SurgeConfig, TenancyConfig,
};
use luke_obs::export::to_json;
use luke_obs::{Export, Histogram, Registry};

use crate::check::Checks;
use crate::measure::{heap_counting, heap_live_bytes, measure, ratio, secs, Acc, Spans, Timings};
use crate::{Metrics, Opts};

/// Arrivals generated, routed and processed per timed chunk of the
/// stage driver: clock reads amortize to noise, and routing a chunk
/// before processing it is what `run_fleet`'s streaming mode does.
const CHUNK: usize = 1024;

/// Which fleet shape a workload runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Shape {
    /// 16 hosts, keep-alive-aware routing, every optional layer off.
    Steady,
    /// 2,048 hosts, placement-aware routing, REAP restores, pre-warm,
    /// dedup + contention and the `--chaos light` resilience stack.
    Cluster,
}

/// The CLI's `--chaos light` preset: seeded host crashes and degrades,
/// hedging, a retry budget, admission control, a flash-crowd surge and
/// the windowed series.
fn chaos_light(config: &mut FleetConfig) {
    config.chaos = ChaosConfig {
        host_mtbf_ms: 30_000.0,
        crash_downtime_ms: 2_000.0,
        degrade_mtbf_ms: 25_000.0,
        degrade_duration_ms: 3_000.0,
        degrade_slowdown: 5.0,
    };
    config.hedge = HedgeConfig {
        enabled: true,
        max_fraction: 0.05,
    };
    config.retry_budget = RetryBudget::new(10.0, 0.1).expect("preset knobs are valid");
    config.admission = AdmissionConfig {
        enabled: true,
        reserved_concurrency: 2,
        burst_concurrency: 4,
        host_concurrency: 32,
        memory_pressure_instances: 60,
    };
    config.surge = SurgeConfig {
        diurnal_amplitude: 0.3,
        diurnal_period_ms: 60_000.0,
        flash_multiplier: 6.0,
        flash_start_ms: 10_000.0,
        flash_duration_ms: 15_000.0,
    };
    config.series_window_ms = 5_000.0;
    config.series_slo_ms = 50.0;
}

/// The workload's fleet. Seed 0 keeps the default fleet seed; any other
/// seed derives a fresh one from it.
fn config(shape: Shape, opts: &Opts) -> FleetConfig {
    let base = FleetConfig::default();
    let seed = if opts.seed == 0 {
        base.seed
    } else {
        DetRng::new(base.seed).split(opts.seed).seed()
    };
    match shape {
        Shape::Steady => FleetConfig {
            invocations: if opts.tiny { 20_000 } else { 1_000_000 },
            seed,
            ..base
        },
        Shape::Cluster => {
            let mut config = FleetConfig {
                hosts: if opts.tiny { 64 } else { 2_048 },
                invocations: if opts.tiny { 5_000 } else { 100_000 },
                policy: RoutingPolicy::PlacementAware,
                seed,
                cold_start_model: ColdStartModel::ReapPrefetch,
                prewarm: PrewarmConfig::default_enabled(),
                tenancy: TenancyConfig {
                    dedup: true,
                    contention: ContentionConfig::default_enabled(),
                    ..TenancyConfig::disabled()
                },
                ..base
            };
            chaos_light(&mut config);
            config
        }
    }
}

/// One operation: `run_fleet` and the JSON export of its datasets.
fn fleet_op(config: &FleetConfig, model: &ServiceModel) -> Result<(FleetRun, String), String> {
    let run = run_fleet(config, model, false).map_err(|e| e.to_string())?;
    let json = to_json(&run.datasets());
    Ok((run, json))
}

/// Checks one run: the golden digest of its telemetry snapshot and
/// datasets, and that every arrival (plus every hedge copy) is accounted
/// as completed, abandoned or shed.
fn check_run(config: &FleetConfig, out: &Result<(FleetRun, String), String>, checks: &mut Checks) {
    match out {
        Ok((run, json)) => {
            let arrivals = config.invocations as u64 + run.hedges;
            let accounted = run.completed + run.abandoned + run.shed;
            let output = format!("{}\n{json}", run.snapshot.to_json());
            checks.output("run", &output, accounted == arrivals, || {
                format!(
                    "{accounted} accounted (completed + abandoned + shed) != {arrivals} \
                     arrivals + hedge copies"
                )
            });
        }
        Err(e) => {
            checks.op(false, || format!("run_fleet: {e}"));
        }
    }
}

/// The routed copies of one run, in canonical route order.
type Routed = Vec<(usize, RoutedInvocation)>;

/// What the stage driver measured.
struct StageRun {
    hosts: Vec<FleetHost>,
    routed: Routed,
}

fn router(config: &FleetConfig) -> Router {
    if config.policy == RoutingPolicy::PlacementAware {
        let lang_of = workloads::paper_suite()
            .iter()
            .map(|p| luke_tenancy::language_slot(p.language))
            .collect();
        Router::with_languages(config.policy, config.hosts, lang_of)
    } else {
        Router::new(config.policy, config.hosts)
    }
}

/// `run_fleet`'s sequential path rebuilt from the fleet's public calls —
/// `FleetHost::new` × hosts, `Population::synthesize` → `ArrivalStream`
/// → `Router` (with `ChaosPlan` + `HealthView` under chaos) →
/// `FleetHost::process` — timing each stage per chunk of arrivals.
fn stage_driver(
    config: &FleetConfig,
    model: &ServiceModel,
    acc: &mut Acc,
    spans: &mut Spans,
) -> Result<StageRun, String> {
    let root = spans.open("fleet stage driver", 0);
    let t = Instant::now();
    let mut hosts: Vec<FleetHost> = (0..config.hosts)
        .map(|id| FleetHost::new(config, id))
        .collect();
    let construct_s = secs(t);
    spans.record("fleet.construct", root, t, construct_s);
    acc.add("fleet.construct", construct_s, 1.0);

    let t = Instant::now();
    let population = Population::synthesize(config);
    let mut stream = ArrivalStream::synthesize(config, &population).map_err(|e| e.to_string())?;
    acc.add("fleet.generate", secs(t), 0.0);
    let chaos = ChaosPlan::synthesize(config);
    let mut health = HealthView::new(config.hosts, config.health);
    let mut router = router(config);
    let warm_ms: Vec<f64> = (0..model.functions())
        .map(|f| model.timing(f).warm_ms)
        .collect();

    let stream_span = spans.open("fleet.generate+route+process", root);
    let mut routed: Routed = Vec::with_capacity(config.invocations + config.invocations / 16);
    let mut arrivals = Vec::with_capacity(CHUNK);
    let mut dispatch = 0_u64;
    while (dispatch as usize) < config.invocations {
        let take = CHUNK.min(config.invocations - dispatch as usize);
        let t = Instant::now();
        arrivals.clear();
        arrivals.extend(stream.by_ref().take(take));
        let generate_s = secs(t);
        if arrivals.is_empty() {
            return Err("arrival stream ended early".into());
        }

        let t = Instant::now();
        let first = routed.len();
        for event in &arrivals {
            let function = event.instance;
            let expected_ms = warm_ms[function % warm_ms.len()];
            let at_ms = event.at_ms;
            let invocation = |hedge, duplicate| RoutedInvocation {
                at_ms,
                function,
                dispatch,
                hedge,
                duplicate,
            };
            if chaos.is_none() {
                let host = router.route(function, expected_ms);
                routed.push((host, invocation(false, false)));
            } else {
                health.advance_to(at_ms, &chaos);
                if chaos.all_down_at(at_ms) {
                    return Err(format!("all hosts down at {at_ms} ms"));
                }
                let decision =
                    router.route_resilient(function, expected_ms, &health, &config.hedge);
                routed.push((decision.host, invocation(decision.hedge.is_some(), false)));
                if let Some(second) = decision.hedge {
                    routed.push((second, invocation(true, true)));
                }
            }
            dispatch += 1;
        }
        let route_s = secs(t);

        let t = Instant::now();
        for &(host, invocation) in &routed[first..] {
            hosts[host].process(config, model, false, invocation);
        }
        let process_s = secs(t);
        let n = arrivals.len() as f64;
        acc.add("fleet.generate", generate_s, n);
        acc.add("fleet.route", route_s, n);
        acc.add("fleet.process", process_s, n);
    }
    spans.close(stream_span);
    spans.close(root);
    Ok(StageRun { hosts, routed })
}

/// `run_fleet`'s per-host row for `host`.
fn host_summary(host: &FleetHost) -> HostSummary {
    HostSummary {
        host: host.host_id,
        invocations: host.invocations,
        cold_starts: host.cold_starts,
        warm_hits: host.warm_hits,
        lukewarm_hits: host.lukewarm_hits,
        mean_degree: host.mean_degree(),
        mean_latency_ms: ratio(host.latency_sum_ms, host.latency_us.count() as f64),
        warm_instances: host.warm_instances(),
    }
}

/// The merge stage, in host-id order: registry fill, histogram merge and
/// per-host rows, as `run_fleet` folds its hosts.
fn merge(hosts: &[FleetHost]) -> Vec<HostSummary> {
    let mut registry = Registry::new();
    let mut latency = Histogram::new();
    let rows = hosts
        .iter()
        .map(|host| {
            host.fill_registry(&mut registry);
            latency.merge(&host.latency_us);
            host_summary(host)
        })
        .collect();
    std::hint::black_box((registry.snapshot(), latency));
    rows
}

/// Host processing of a recorded routed stream on freshly built hosts:
/// seconds, and the live heap bytes the hosts hold afterwards.
fn process_recorded(config: &FleetConfig, model: &ServiceModel, routed: &Routed) -> (f64, i64) {
    heap_counting(true);
    let before = heap_live_bytes();
    let mut hosts: Vec<FleetHost> = (0..config.hosts)
        .map(|id| FleetHost::new(config, id))
        .collect();
    let t = Instant::now();
    for &(host, invocation) in routed {
        hosts[host].process(config, model, false, invocation);
    }
    let process_s = secs(t);
    let held = heap_live_bytes() - before;
    drop(hosts);
    heap_counting(false);
    (process_s, held)
}

/// Each optional layer's cost to host processing: the same routed stream
/// processed with the layer on minus off, ns per arrival (0 for a layer
/// the workload leaves off), and pre-warm's heap held, MB.
fn layer_deltas(
    config: &FleetConfig,
    model: &ServiceModel,
    routed: &Routed,
    metrics: &mut Metrics,
) {
    let per_arrival = 1e9 / config.invocations as f64;
    let (full_s, full_heap) = process_recorded(config, model, routed);
    let variants: [(&str, bool, FleetConfig); 4] = [
        (
            "snapshot",
            config.cold_start_model != ColdStartModel::Instant,
            FleetConfig {
                cold_start_model: ColdStartModel::Instant,
                ..config.clone()
            },
        ),
        (
            "predict",
            config.prewarm_enabled(),
            FleetConfig {
                prewarm: PrewarmConfig::disabled(),
                ..config.clone()
            },
        ),
        (
            "tenancy",
            config.tenancy_enabled(),
            FleetConfig {
                tenancy: TenancyConfig::disabled(),
                ..config.clone()
            },
        ),
        (
            "chaos",
            !config.chaos.is_none(),
            FleetConfig {
                chaos: ChaosConfig::none(),
                ..config.clone()
            },
        ),
    ];
    for (layer, on, off) in variants {
        let (mut delta_ns, mut heap_mb) = (0.0, 0.0);
        if on && off.validate().is_ok() {
            let (off_s, off_heap) = process_recorded(&off, model, routed);
            delta_ns = (full_s - off_s) * per_arrival;
            heap_mb = (full_heap - off_heap) as f64 / (1024.0 * 1024.0);
        }
        metrics.insert(format!("{layer}.process_ns_delta"), delta_ns);
        if layer == "predict" {
            metrics.insert("predict.rss_mb_delta".into(), heap_mb);
        }
    }
}

/// Outcome counts of a run: where the fleet's work went.
fn count_metrics(config: &FleetConfig, run: &FleetRun, metrics: &mut Metrics) {
    let arrivals = config.invocations as f64;
    metrics.insert("fleet.cold_frac".into(), run.cold_start_rate());
    metrics.insert("fleet.lukewarm_frac".into(), run.lukewarm_fraction());
    metrics.insert(
        "fleet.retry_amplification".into(),
        run.retry_amplification(),
    );
    metrics.insert("admission.shed_frac".into(), run.shed as f64 / arrivals);
    metrics.insert("fleet.failovers".into(), run.failovers as f64);
    metrics.insert("fleet.hedges".into(), run.hedges as f64);
    metrics.insert(
        "snapshot.degraded_restores".into(),
        run.degraded_restores as f64,
    );
    metrics.insert("tenancy.dedup_hit_ratio".into(), run.shared_page_hit_rate());
    metrics.insert(
        "predict.prewarm_hit_ratio".into(),
        ratio(run.prewarm_hits as f64, run.prewarm_spawns as f64),
    );
    metrics.insert("predict.prewarm_spawns".into(), run.prewarm_spawns as f64);
}

/// A fleet workload.
pub fn run(shape: Shape, opts: &Opts, checks: &mut Checks, spans: &mut Spans) -> Metrics {
    let setup = || {
        let config = config(shape, opts);
        config.validate().map_err(|e| e.to_string())?;
        let model = ServiceModel::analytic(&workloads::paper_suite()).map_err(|e| e.to_string())?;
        Ok::<_, String>((config, model))
    };
    let (config, model) = match setup() {
        Ok(fleet) => fleet,
        Err(e) => {
            checks.op(false, || format!("set-up: {e}"));
            return Metrics::new();
        }
    };

    // Thread-invariance pre-pass (untimed): two workers against the
    // timed runs' one.
    let threaded = fleet_op(
        &FleetConfig {
            threads: 2,
            ..config.clone()
        },
        &model,
    );
    let mut pending = Some(threaded);
    let mut compare_first = |out: &Result<(FleetRun, String), String>, checks: &mut Checks| {
        if let (Some(Ok((_, a))), Ok((_, b))) = (pending.take(), out) {
            checks.op(*a == *b, || {
                "export at 2 threads differs from 1 thread".into()
            });
        }
    };

    let mut metrics = Metrics::new();
    if !opts.trace {
        let mut timings = Timings::default();
        let (_, setup_s) = measure(opts.seconds, setup, |_| {
            let out = timings.time("run", || fleet_op(&config, &model));
            check_run(&config, &out, checks);
            compare_first(&out, checks);
        });
        let cost = timings.batch_cal();
        let inv_per_cal = config.invocations as f64 / cost;
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("batch_cal".into(), cost);
        metrics.insert("work_per_cal".into(), inv_per_cal);
        eprintln!("lukebench: fleet: inv_per_cal {inv_per_cal:.1}");
        return metrics;
    }

    let mut acc = Acc::default();
    let (mut plain, mut traced) = (Timings::default(), Timings::default());
    let mut last_run = None;
    let mut recorded: Option<Routed> = None;
    let _ = measure(opts.seconds, setup, |_| {
        let out = plain.time("run", || fleet_op(&config, &model));
        check_run(&config, &out, checks);
        compare_first(&out, checks);
        let Ok((run, _)) = out else { return };
        let e = Instant::now();
        std::hint::black_box(to_json(&run.datasets()));
        acc.add("obs.export", secs(e), 1.0);

        let staged = traced.time("run", || {
            let stages = stage_driver(&config, &model, &mut acc, spans)?;
            let m = Instant::now();
            let rows = merge(&stages.hosts);
            acc.add("fleet.merge", secs(m), 1.0);
            Ok::<_, String>((stages, rows))
        });
        match staged {
            Ok((stages, rows)) => {
                checks.op(rows == run.per_host, || {
                    "stage driver per-host counters differ from run_fleet's per_host rows".into()
                });
                recorded.get_or_insert(stages.routed);
            }
            Err(e) => {
                checks.op(false, || format!("stage driver: {e}"));
            }
        }
        last_run = Some(run);
    });

    metrics.insert(
        "fleet.generate_ns_per_inv".into(),
        acc.per("fleet.generate", 1e9),
    );
    metrics.insert("fleet.route_ns_per_inv".into(), acc.per("fleet.route", 1e9));
    metrics.insert(
        "fleet.process_ns_per_inv".into(),
        acc.per("fleet.process", 1e9),
    );
    metrics.insert("fleet.construct_ms".into(), acc.per("fleet.construct", 1e3));
    metrics.insert("fleet.merge_ms".into(), acc.per("fleet.merge", 1e3));
    metrics.insert("obs.export_ms".into(), acc.per("obs.export", 1e3));
    if let Some(routed) = &recorded {
        layer_deltas(&config, &model, routed, &mut metrics);
    }
    if let Some(run) = &last_run {
        count_metrics(&config, run, &mut metrics);
    }
    metrics.insert(
        "trace_overhead_frac".into(),
        ratio(traced.batch_cal(), plain.batch_cal()) - 1.0,
    );
    metrics
}
