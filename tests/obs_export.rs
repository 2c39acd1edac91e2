//! Integration tests for the observability layer: snapshot determinism,
//! machine-readable CLI export round-trips, and Chrome-trace validity.

use luke_obs::json::{parse, JsonValue};
use lukewarm::prelude::*;
use lukewarm::sim::runner::run_observed;
use lukewarm_cli::run_cli;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn quick() -> ExperimentParams {
    ExperimentParams::quick()
}

fn observed(trace_capacity: usize) -> lukewarm::sim::runner::ObsRun {
    let params = quick();
    let config = SystemConfig::skylake();
    let profile = FunctionProfile::named("Auth-G")
        .expect("suite function")
        .scaled(params.scale);
    run_observed(
        &config,
        &profile,
        PrefetcherKind::Jukebox(config.jukebox),
        RunSpec::lukewarm(),
        &params,
        trace_capacity,
    )
}

// --- Registry snapshot determinism ---

#[test]
fn identical_runs_export_byte_identical_snapshots() {
    let a = observed(0);
    let b = observed(0);
    assert_eq!(a.registry.to_json(), b.registry.to_json());
    assert_eq!(a.registry.to_csv(), b.registry.to_csv());
    for name in a.registry.counter_names() {
        assert_eq!(
            a.registry.counter(name),
            b.registry.counter(name),
            "{name} changed between runs"
        );
    }
}

#[test]
fn snapshot_json_round_trips_through_the_parser() {
    let obs = observed(0);
    let v = parse(&obs.registry.to_json()).expect("snapshot JSON parses");
    let counters = v.get("counters").expect("counters object");
    let invocations = counters
        .get("run.invocations")
        .and_then(JsonValue::as_f64)
        .expect("run.invocations counter");
    assert_eq!(invocations as u64, obs.summary.invocations);
    // The zero-cycle guard surfaces as a counter even when nothing was
    // invalid, so exports always carry the column.
    assert_eq!(
        counters
            .get("run.invalid_samples")
            .and_then(JsonValue::as_f64),
        Some(0.0)
    );
    let cpi = v
        .get("gauges")
        .and_then(|g| g.get("run.cpi"))
        .and_then(JsonValue::as_f64)
        .expect("run.cpi gauge");
    assert!((cpi - obs.summary.cpi()).abs() < 1e-9);
    let hist = v
        .get("histograms")
        .and_then(|h| h.get("invocation.cycles"))
        .expect("invocation.cycles histogram");
    for field in ["count", "min", "max", "mean", "p50", "p90", "p99"] {
        assert!(hist.get(field).is_some(), "histogram missing {field}");
    }
}

#[test]
fn observed_summary_matches_the_plain_runner() {
    let params = quick();
    let config = SystemConfig::skylake();
    let profile = FunctionProfile::named("Auth-G")
        .expect("suite function")
        .scaled(params.scale);
    let plain = run(
        &config,
        &profile,
        PrefetcherKind::Jukebox(config.jukebox),
        RunSpec::lukewarm(),
        &params,
    );
    let obs = observed(0);
    assert_eq!(obs.summary.cycles, plain.cycles);
    assert_eq!(obs.summary.instructions, plain.instructions);
    assert_eq!(
        obs.registry.counter("core.instructions"),
        plain.instructions,
        "registry instruction counter disagrees with the summary"
    );
}

// --- Golden CLI `--emit json` round-trip ---

#[test]
fn figure_emit_json_is_parseable_and_covers_the_table() {
    let out = run_cli(&argv(
        "figure fig10 --scale 0.02 --invocations 1 --emit json",
    ))
    .unwrap();
    let v = parse(&out).expect("--emit json output parses");
    let datasets = v
        .get("datasets")
        .and_then(JsonValue::as_arr)
        .expect("datasets array");
    let fig10 = datasets
        .iter()
        .find(|d| d.get("name").and_then(JsonValue::as_str) == Some("fig10.speedup"))
        .expect("fig10.speedup dataset");
    let columns: Vec<&str> = fig10
        .get("columns")
        .and_then(JsonValue::as_arr)
        .expect("columns")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(columns, ["function", "jukebox", "perfect I-cache"]);
    let rows = fig10.get("rows").and_then(JsonValue::as_arr).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        let cells = row.as_arr().expect("row array");
        assert_eq!(cells.len(), columns.len(), "ragged row in export");
        for cell in &cells[1..] {
            let speedup = cell.as_f64().expect("numeric speedup");
            assert!(speedup.is_finite() && speedup > 0.0, "speedup {speedup}");
        }
    }
    let geomean = rows
        .iter()
        .any(|r| r.as_arr().unwrap()[0].as_str() == Some("GEOMEAN"));
    assert!(geomean, "summary GEOMEAN row missing from export");
}

#[test]
fn figure_emit_csv_matches_its_column_header() {
    let out = run_cli(&argv(
        "figure fig10 --scale 0.02 --invocations 1 --emit csv",
    ))
    .unwrap();
    assert!(
        out.starts_with("# fig10.speedup\n"),
        "missing dataset header"
    );
    let mut lines = out.lines().skip(1);
    let header = lines.next().expect("column header");
    let width = header.split(',').count();
    assert_eq!(width, 3);
    let mut rows = 0;
    for line in lines.take_while(|l| !l.is_empty()) {
        assert_eq!(line.split(',').count(), width, "ragged CSV row: {line}");
        rows += 1;
    }
    assert!(rows >= 2, "expected data rows plus GEOMEAN");
}

// --- Chrome trace validity ---

#[test]
fn trace_command_emits_valid_chrome_trace_json() {
    let out = run_cli(&argv("trace Fib-G --scale 0.05 --invocations 1")).unwrap();
    let v = parse(&out).expect("trace output parses as JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ns")
    );
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // First event is process-name metadata; every event carries a phase.
    assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("M"));
    for e in events {
        assert!(e.get("ph").is_some(), "event without a phase");
    }
    // With instrumentation compiled in, the last invocation's lifecycle
    // (dispatch through retire) is on the timeline.
    if events.len() > 1 {
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains(&"dispatch"), "missing dispatch event");
        assert!(names.contains(&"retire"), "missing retire event");
    }
}

// --- Pool lifecycle counters ---

#[test]
fn pool_lifecycle_counters_all_reach_the_export() {
    // A fleet run with a short keep-alive and memory-pressure faults
    // exercises all three pool lifecycle paths: cold starts (spawns),
    // keep-alive expirations (sweeps) and explicit evictions. All three
    // counters must reach the exported registry snapshot.
    use lukewarm::fleet::{run_fleet, FleetConfig, ServiceModel};
    use lukewarm::server::FaultRates;
    use lukewarm::workloads::paper_suite;

    let config = FleetConfig {
        hosts: 4,
        invocations: 4_000,
        population: 80,
        keep_alive_ms: 2_000.0,
        fault_rates: FaultRates {
            memory_pressure: 0.05,
            ..FaultRates::zero()
        },
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let run = run_fleet(&config, &model, false).expect("valid config");

    let v = parse(&run.snapshot.to_json()).expect("fleet snapshot JSON parses");
    let counters = v.get("counters").expect("counters object");
    for name in [
        "pool.cold_starts",
        "pool.expirations",
        "pool.evictions",
        "pool.memory_ms",
    ] {
        let value = counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from export"));
        assert!(value > 0.0, "{name} never incremented");
    }
    assert_eq!(
        run.snapshot.counter("pool.cold_starts"),
        run.cold_starts,
        "pool and fleet disagree on cold starts"
    );
    // The exported counter bills only *retired* residency (expired or
    // evicted instances); the run's total adds instances still live at
    // the end, so the counter can never exceed it (modulo the per-host
    // rounding of the counter).
    let retired = run.snapshot.counter("pool.memory_ms");
    assert!(
        retired as f64 <= run.memory_ms + config.hosts as f64,
        "retired residency {retired} exceeds total {}",
        run.memory_ms
    );
}

#[test]
fn resilience_counters_all_reach_the_export() {
    // A fleet run with chaos, hedged failover, a retry budget and tight
    // admission limits under a flash crowd must export the whole
    // resilience counter family — and a default run must export none of
    // it (bit-transparency of the disabled stack).
    use lukewarm::fleet::{
        run_fleet, AdmissionConfig, ChaosConfig, FleetConfig, HedgeConfig, RetryBudget,
        ServiceModel, SurgeConfig,
    };
    use lukewarm::workloads::paper_suite;

    let config = FleetConfig {
        hosts: 6,
        invocations: 9_000,
        population: 60,
        chaos: ChaosConfig {
            host_mtbf_ms: 10_000.0,
            crash_downtime_ms: 2_500.0,
            degrade_mtbf_ms: 15_000.0,
            degrade_duration_ms: 3_000.0,
            degrade_slowdown: 5.0,
        },
        hedge: HedgeConfig {
            enabled: true,
            max_fraction: 0.1,
        },
        retry_budget: RetryBudget::new(10.0, 0.1).expect("budget knobs are valid"),
        // Reserved-only limits: the 8x flash on the hot function must
        // overrun a per-function concurrency of 1 and shed.
        admission: AdmissionConfig {
            enabled: true,
            reserved_concurrency: 1,
            burst_concurrency: 0,
            host_concurrency: 24,
            memory_pressure_instances: 40,
        },
        surge: SurgeConfig {
            diurnal_amplitude: 0.3,
            diurnal_period_ms: 60_000.0,
            flash_multiplier: 8.0,
            flash_start_ms: 15_000.0,
            flash_duration_ms: 20_000.0,
        },
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let run = run_fleet(&config, &model, false).expect("valid config");

    let v = parse(&run.snapshot.to_json()).expect("fleet snapshot JSON parses");
    let counters = v.get("counters").expect("counters object");
    for name in [
        "fleet.host_crashes",
        "fleet.failovers",
        "fleet.hedges",
        "fleet.retries",
        "admission.shed",
        "admission.admitted",
    ] {
        let value = counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from export"));
        assert!(value > 0.0, "{name} never incremented");
    }
    assert_eq!(
        run.snapshot.counter("fleet.host_crashes"),
        run.host_crashes()
    );
    assert_eq!(run.snapshot.counter("fleet.failovers"), run.failovers);
    assert_eq!(run.snapshot.counter("admission.shed"), run.shed);

    // And the exported datasets carry the dedicated resilience series.
    let datasets = luke_obs::Export::datasets(&run);
    assert!(
        datasets.iter().any(|d| d.name == "fleet.resilience"),
        "fleet.resilience dataset missing"
    );

    // Disabled stack: none of the resilience family may leak.
    let plain = run_fleet(
        &FleetConfig {
            hosts: 4,
            invocations: 2_000,
            ..FleetConfig::default()
        },
        &model,
        false,
    )
    .expect("valid config");
    let json = plain.snapshot.to_json();
    for key in [
        "fleet.host_crashes",
        "fleet.failovers",
        "fleet.hedges",
        "admission.",
    ] {
        assert!(!json.contains(key), "{key} leaked into a default run");
    }
}

#[test]
fn tenancy_counters_all_reach_the_export() {
    // A placement-aware fleet run with dedup and a deliberately tight
    // contention capacity exercises the whole tenancy counter family:
    // shared-page registrations, dedup hits and bytes saved, slowed
    // invocations and the rounded contention-slowdown total, plus the
    // router's placement counter. All must reach the exported registry
    // snapshot — and a default run must export none of them
    // (bit-transparency of the disabled stack).
    use lukewarm::fleet::{
        run_fleet, ColdStartModel, ContentionConfig, FleetConfig, RoutingPolicy, ServiceModel,
        TenancyConfig,
    };
    use lukewarm::workloads::paper_suite;

    let config = FleetConfig {
        hosts: 4,
        invocations: 4_000,
        population: 40,
        policy: RoutingPolicy::PlacementAware,
        cold_start_model: ColdStartModel::ReapPrefetch,
        tenancy: TenancyConfig {
            contention: ContentionConfig {
                capacity_bytes: 4 << 20,
                ..ContentionConfig::default_enabled()
            },
            ..TenancyConfig::default_enabled()
        },
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let run = run_fleet(&config, &model, false).expect("valid config");

    let v = parse(&run.snapshot.to_json()).expect("fleet snapshot JSON parses");
    let counters = v.get("counters").expect("counters object");
    for name in [
        "tenancy.shared_pages",
        "tenancy.dedup_hits",
        "tenancy.dedup_bytes_saved",
        "tenancy.slowed_invocations",
        "tenancy.contention_slowdown",
        "fleet.placement_routed",
    ] {
        let value = counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from export"));
        assert!(value > 0.0, "{name} never incremented");
    }
    assert_eq!(
        run.snapshot.counter("tenancy.shared_pages"),
        run.shared_pages()
    );
    assert_eq!(run.snapshot.counter("tenancy.dedup_hits"), run.dedup_hits());
    assert_eq!(
        run.snapshot.counter("tenancy.dedup_bytes_saved"),
        run.dedup_bytes_saved()
    );
    assert_eq!(
        run.snapshot.counter("tenancy.slowed_invocations"),
        run.slowed_invocations()
    );
    assert_eq!(
        run.snapshot.counter("fleet.placement_routed"),
        run.placement_routed()
    );

    // The exported datasets carry the dedicated tenancy series.
    let datasets = luke_obs::Export::datasets(&run);
    assert!(
        datasets.iter().any(|d| d.name == "fleet.tenancy"),
        "fleet.tenancy dataset missing"
    );

    // Disabled stack: nothing tenancy-flavoured may leak.
    let plain = run_fleet(
        &FleetConfig {
            hosts: 4,
            invocations: 2_000,
            ..FleetConfig::default()
        },
        &model,
        false,
    )
    .expect("valid config");
    let json = plain.snapshot.to_json();
    for key in ["tenancy.", "fleet.placement_routed"] {
        assert!(!json.contains(key), "{key} leaked into a default run");
    }
    assert!(
        !luke_obs::Export::datasets(&plain)
            .iter()
            .any(|d| d.name == "fleet.tenancy"),
        "fleet.tenancy dataset leaked into a default run"
    );
}

// --- Statistics guards (satellites a and b) ---

#[test]
fn geomean_tolerates_non_positive_inputs() {
    use lukewarm::common::stats::geomean;
    assert_eq!(geomean(&[]), 0.0);
    assert!(geomean(&[0.0, -1.0]).is_nan());
    // Non-positive samples are filtered, not propagated.
    let g = geomean(&[2.0, 0.0, 8.0]);
    assert!((g - 4.0).abs() < 1e-9, "geomean {g}");
}

#[test]
fn invalid_sample_counter_flags_zero_cycle_runs() {
    let obs = observed(0);
    assert_eq!(obs.registry.counter("run.invalid_samples"), 0);
    assert!(obs.summary.try_speedup_over(&obs.summary).is_some());
    let empty = lukewarm::sim::runner::RunSummary::default();
    assert!(obs.summary.speedup_over(&empty).is_nan());
}

// --- Fleet span exports ---

fn traced_chaotic_config() -> lukewarm::fleet::FleetConfig {
    use lukewarm::fleet::{ChaosConfig, FleetConfig, HedgeConfig, RetryBudget};
    FleetConfig {
        hosts: 4,
        invocations: 4_000,
        population: 60,
        chaos: ChaosConfig {
            host_mtbf_ms: 10_000.0,
            crash_downtime_ms: 2_500.0,
            degrade_mtbf_ms: 15_000.0,
            degrade_duration_ms: 3_000.0,
            degrade_slowdown: 5.0,
        },
        hedge: HedgeConfig {
            enabled: true,
            max_fraction: 0.1,
        },
        retry_budget: RetryBudget::new(10.0, 0.1).expect("budget knobs are valid"),
        trace_sample: 3,
        ..FleetConfig::default()
    }
}

fn traced_run() -> lukewarm::fleet::FleetRun {
    use lukewarm::fleet::{run_fleet, ServiceModel};
    use lukewarm::workloads::paper_suite;
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    run_fleet(&traced_chaotic_config(), &model, false).expect("valid config")
}

#[test]
fn chrome_span_trace_pairs_every_hedge_flow() {
    use luke_obs::span::is_hedge_lane;

    let run = traced_run();
    assert!(!run.spans.is_empty(), "sampled chaotic run records spans");
    let hedge_lanes = run
        .spans
        .iter()
        .filter(|s| s.id == 0 && is_hedge_lane(s.trace))
        .count();
    assert!(
        hedge_lanes > 0,
        "chaos with hedging must sample a hedged pair"
    );

    let doc = luke_obs::trace::chrome_trace_spans("fleet", "us", &run.spans);
    let v = parse(&doc).expect("span trace parses");
    let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let phase_ids = |phase: &str| -> Vec<u64> {
        let mut ids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(phase))
            .map(|e| e.get("id").and_then(JsonValue::as_f64).expect("flow id") as u64)
            .collect();
        ids.sort_unstable();
        ids
    };
    let starts = phase_ids("s");
    let finishes = phase_ids("f");
    // Every flow arrow has exactly one start and one finish, keyed by
    // the dispatch index, one per sampled hedged pair.
    assert_eq!(starts, finishes);
    assert_eq!(starts.len(), hedge_lanes);
    for w in starts.windows(2) {
        assert!(w[0] < w[1], "duplicate flow id {}", w[0]);
    }
}

#[test]
fn fleet_spans_dataset_round_trips_through_the_parser() {
    use luke_obs::span::{Span, SpanKind};

    let run = traced_run();
    let datasets = luke_obs::Export::datasets(&run);
    let json = luke_obs::export::to_json(&datasets);
    let v = parse(&json).expect("datasets JSON parses");
    let spans_ds = v
        .get("datasets")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .find(|d| d.get("name").and_then(JsonValue::as_str) == Some("fleet.spans"))
        .expect("fleet.spans dataset")
        .clone();
    let columns: Vec<&str> = spans_ds
        .get("columns")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(
        columns,
        ["trace", "span", "parent", "kind", "start_us", "dur_us", "a", "b"]
    );
    let rebuilt: Vec<Span> = spans_ds
        .get("rows")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|row| {
            let cells = row.as_arr().expect("row array");
            let n = |i: usize| cells[i].as_f64().expect("numeric cell") as u64;
            Span {
                trace: n(0),
                id: n(1) as u32,
                parent: n(2) as u32,
                kind: SpanKind::from_index(n(3)).expect("valid kind"),
                start_us: n(4),
                dur_us: n(5),
                a: n(6),
                b: n(7),
            }
        })
        .collect();
    assert_eq!(rebuilt, run.spans, "span export does not round-trip");
}

#[test]
fn timeline_dataset_exports_empty_windows_as_null() {
    use luke_obs::{Dataset, Value};

    // A window with arrivals but no completions must export its
    // percentiles as JSON null (NaN through the writer), never 0.
    let mut ds = Dataset::new("t.timeline", &["window_start_ms", "p50_ms"]);
    ds.push_row(vec![Value::Float(0.0), Value::Float(f64::NAN)]);
    let json = luke_obs::export::to_json(&[ds]);
    let v = parse(&json).expect("timeline JSON parses");
    let row = v.get("datasets").and_then(JsonValue::as_arr).unwrap()[0]
        .get("rows")
        .and_then(JsonValue::as_arr)
        .unwrap()[0]
        .as_arr()
        .unwrap();
    assert_eq!(row[1], JsonValue::Null, "{json}");

    // And a real surge timeline produced by the fleet carries nulls for
    // its empty windows while keeping filled windows numeric.
    let out = run_cli(&argv(
        "fleet --hosts 2 --invocations 1000 --chaos light --trace-sample 7 --emit json",
    ))
    .unwrap();
    assert!(out.contains("fleet.spans"), "{out}");
}
