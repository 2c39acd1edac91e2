//! Proof of the fleet simulator's headline property: the worker-thread
//! count is results-neutral. A 1-thread run and a 4-thread run of the
//! same config produce bit-identical telemetry snapshots, latency
//! histograms, per-host summaries, and exported JSON/CSV (span traces
//! included, through the `fleet.spans` rows) — with and without fault
//! injection, and for every routing policy.

use luke_obs::export::{to_csv, to_json};
use luke_obs::span::{dispatch_of, SpanKind};
use luke_obs::Export;
use lukewarm::common::par;
use lukewarm::fleet::run::WINDOW;
use lukewarm::fleet::{
    run_fleet, run_fleet_pair, AdmissionConfig, CalendarQueue, ChaosConfig, ColdStartModel,
    FleetConfig, FleetEventKind, FleetRun, HedgeConfig, PrewarmConfig, RetryBudget, RoutingPolicy,
    ServiceModel, SurgeConfig,
};
use lukewarm::server::FaultRates;
use lukewarm::workloads::paper_suite;
use proptest::prelude::*;

/// A 64-host sweep config — the same scale the `fleet_scale` bench uses
/// to demonstrate the parallel speedup — tracing every 16th dispatch, so
/// every export comparison covers a recorded span trace.
fn sweep_config() -> FleetConfig {
    FleetConfig {
        hosts: 64,
        invocations: 64 * 500,
        population: 200,
        trace_sample: 16,
        ..FleetConfig::default()
    }
}

fn model() -> ServiceModel {
    ServiceModel::analytic(&paper_suite()).expect("paper suite is valid")
}

/// Asserts every observable surface of two runs is identical.
fn assert_bit_identical(a: &FleetRun, b: &FleetRun) {
    assert_eq!(a.snapshot.to_json(), b.snapshot.to_json(), "snapshot");
    assert_eq!(a.latency_us, b.latency_us, "latency histogram");
    assert_eq!(a.per_host, b.per_host, "per-host summaries");
    assert_eq!(
        to_json(&a.datasets()),
        to_json(&b.datasets()),
        "JSON export"
    );
    assert_eq!(to_csv(&a.datasets()), to_csv(&b.datasets()), "CSV export");
}

#[test]
fn four_threads_are_bit_identical_to_one_on_a_64_host_sweep() {
    let m = model();
    let one = run_fleet(&sweep_config(), &m, false).expect("1-thread run");
    let four = run_fleet(
        &FleetConfig {
            threads: 4,
            ..sweep_config()
        },
        &m,
        false,
    )
    .expect("4-thread run");
    assert!(one.invocations > 0);
    assert!(!one.spans.is_empty(), "the sweep records a span trace");
    assert_bit_identical(&one, &four);
}

#[test]
fn every_policy_is_thread_count_neutral() {
    let m = model();
    for policy in RoutingPolicy::ALL {
        let base = FleetConfig {
            policy,
            hosts: 16,
            invocations: 8_000,
            ..sweep_config()
        };
        let one = run_fleet(&base, &m, false).expect("1-thread run");
        let four = run_fleet(
            &FleetConfig {
                threads: 4,
                ..base.clone()
            },
            &m,
            false,
        )
        .expect("4-thread run");
        assert_bit_identical(&one, &four);
    }
}

#[test]
fn fault_injection_stays_deterministic_across_thread_counts() {
    // Each host draws from its own seed-split fault stream, so the fault
    // layer must be exactly as schedule-independent as the happy path.
    let m = model();
    let base = FleetConfig {
        fault_rates: FaultRates {
            crash: 0.01,
            timeout: 0.01,
            cold_start_failure: 0.02,
            memory_pressure: 0.02,
        },
        ..sweep_config()
    };
    let one = run_fleet(&base, &m, false).expect("1-thread run");
    let four = run_fleet(
        &FleetConfig {
            threads: 4,
            ..base.clone()
        },
        &m,
        false,
    )
    .expect("4-thread run");
    let faults = one.snapshot.counter("fault.crashes")
        + one.snapshot.counter("fault.timeouts")
        + one.snapshot.counter("fault.cold_start_failures")
        + one.snapshot.counter("fault.evictions");
    assert!(faults > 0, "fault plan actually drew faults");
    assert_bit_identical(&one, &four);
}

#[test]
fn uneven_and_oversubscribed_shards_are_results_neutral() {
    // 64 hosts over 3 threads leaves a ragged final shard; 64 threads
    // puts one host per shard. Neither may shift a single bit.
    let m = model();
    let one = run_fleet(&sweep_config(), &m, false).expect("1-thread run");
    for threads in [3, 64, 200] {
        let run = run_fleet(
            &FleetConfig {
                threads,
                ..sweep_config()
            },
            &m,
            false,
        )
        .expect("sharded run");
        assert_bit_identical(&one, &run);
    }
    // Streams that end on and one past the window boundaries of one
    // worker (`WINDOW` copies) and of two (`2 * WINDOW`), on a 1-host
    // fleet and a ragged 7-host one: the final partial window must be
    // processed exactly once at any thread count.
    for invocations in [WINDOW, WINDOW + 1, 2 * WINDOW + 1] {
        for hosts in [1, 7] {
            let base = FleetConfig {
                hosts,
                invocations,
                ..sweep_config()
            };
            let one = run_fleet(&base, &m, false).expect("1-thread run");
            assert_eq!(one.invocations, invocations as u64, "{hosts} hosts");
            let served: u64 = one.per_host.iter().map(|h| h.invocations).sum();
            assert_eq!(served, one.invocations, "{hosts} hosts");
            for threads in [2, 3] {
                let run = run_fleet(
                    &FleetConfig {
                        threads,
                        ..base.clone()
                    },
                    &m,
                    false,
                )
                .expect("windowed run");
                assert_bit_identical(&one, &run);
            }
        }
    }
}

#[test]
fn snapshot_restore_models_are_thread_count_neutral() {
    // REAP restores mutate per-pool snapshot metadata as they record and
    // prefetch, so the snapshot layer must be exactly as shard-local as
    // the pool itself.
    let m = model();
    for cold_start_model in [ColdStartModel::LazyPaging, ColdStartModel::ReapPrefetch] {
        let base = FleetConfig {
            cold_start_model,
            hosts: 16,
            invocations: 8_000,
            ..sweep_config()
        };
        let one = run_fleet(&base, &m, false).expect("1-thread run");
        let four = run_fleet(
            &FleetConfig {
                threads: 4,
                ..base.clone()
            },
            &m,
            false,
        )
        .expect("4-thread run");
        assert!(
            one.snapshot.counter("snapshot.restores") > 0,
            "restores drawn"
        );
        assert_bit_identical(&one, &four);
    }
}

#[test]
fn instant_model_reproduces_the_pre_snapshot_fleet_bit_for_bit() {
    // `ColdStartModel::Instant` with no faults must leave every exported
    // surface untouched by the snapshot subsystem: no snapshot.* series,
    // and the flat cold_start_ms pricing of the original fleet.
    let m = model();
    let run = run_fleet(&sweep_config(), &m, false).expect("instant run");
    assert!(run.cold_starts > 0);
    assert!(
        !run.snapshot.to_json().contains("snapshot."),
        "Instant fleets must not export snapshot.* series"
    );
}

/// The sweep config with the whole resilience stack turned on: seeded
/// host crashes and degradation, hedged failover routing, a per-function
/// retry budget, tight admission limits, and flash-crowd surge traffic.
fn resilient_config() -> FleetConfig {
    FleetConfig {
        hosts: 16,
        invocations: 16 * 500,
        chaos: ChaosConfig {
            host_mtbf_ms: 15_000.0,
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
        admission: AdmissionConfig {
            enabled: true,
            reserved_concurrency: 1,
            burst_concurrency: 2,
            host_concurrency: 24,
            memory_pressure_instances: 40,
        },
        surge: SurgeConfig {
            diurnal_amplitude: 0.3,
            diurnal_period_ms: 60_000.0,
            flash_multiplier: 6.0,
            flash_start_ms: 10_000.0,
            flash_duration_ms: 15_000.0,
        },
        ..sweep_config()
    }
}

#[test]
fn chaos_failover_and_admission_are_thread_count_neutral_for_every_policy() {
    // Host crashes, breaker-driven failover, hedged dispatch pairs,
    // down-host reconnect backoffs and the shedding ladder all engage,
    // and none of them may depend on the worker schedule.
    let m = model();
    for policy in RoutingPolicy::ALL {
        let base = FleetConfig {
            policy,
            ..resilient_config()
        };
        let one = run_fleet(&base, &m, false).expect("1-thread run");
        let four = run_fleet(
            &FleetConfig {
                threads: 4,
                ..base.clone()
            },
            &m,
            false,
        )
        .expect("4-thread run");
        assert!(one.host_crashes > 0, "{policy:?}: chaos must crash hosts");
        assert!(one.failovers > 0, "{policy:?}: open breakers must divert");
        assert_bit_identical(&one, &four);
    }
}

#[test]
fn ragged_and_oversubscribed_shards_stay_neutral_under_chaos() {
    let m = model();
    let one = run_fleet(&resilient_config(), &m, false).expect("1-thread run");
    for threads in [3, 16, 200] {
        let run = run_fleet(
            &FleetConfig {
                threads,
                ..resilient_config()
            },
            &m,
            false,
        )
        .expect("sharded run");
        assert_bit_identical(&one, &run);
    }
}

/// `run_fleet` inside a map whose workers fill the cores: no core is
/// spare, so a single worker routes and processes in turn on its own
/// thread. Only one item runs the fleet; the map's other workers still
/// count as busy beside it.
fn run_without_spare_core(config: &FleetConfig, m: &ServiceModel) -> FleetRun {
    let cores = par::cores();
    let items: Vec<usize> = (0..cores).collect();
    let mut runs = par::map(cores, &items, |&item| {
        assert!(!par::spare_core(), "the map fills the cores");
        (item == 0).then(|| run_fleet(config, m, false).expect("inline run"))
    });
    runs.swap_remove(0).expect("item 0 ran the fleet")
}

/// Served copies plus shed arrivals account for every arrival and every
/// hedge copy, on the hosts as in the totals.
fn assert_conserved(run: &FleetRun, arrivals: usize) {
    let served: u64 = run.per_host.iter().map(|h| h.invocations).sum();
    assert_eq!(served, run.invocations, "per-host sum");
    assert_eq!(run.invocations + run.shed, arrivals as u64 + run.hedges);
}

/// Whether some hedged dispatch has its two copies in different routed
/// windows of one worker, i.e. its primary is the last copy of a window.
/// Reads the hedged dispatches off the route spans, so `run` must have
/// traced every dispatch.
fn hedge_straddles_a_window(run: &FleetRun) -> bool {
    let mut hedged: Vec<usize> = run
        .spans
        .iter()
        .filter(|span| span.kind == SpanKind::Hedge)
        .map(|span| dispatch_of(span.trace) as usize)
        .collect();
    hedged.sort_unstable();
    // Each earlier dispatch routed one copy and each earlier hedge one
    // more, so the duplicate's copy index is `dispatch + earlier + 1`.
    hedged
        .iter()
        .enumerate()
        .any(|(earlier, &dispatch)| (dispatch + earlier + 1) % WINDOW == 0)
}

#[test]
fn one_worker_routes_the_same_with_and_without_a_spare_core() {
    // At one worker the router runs one window ahead on a helper thread
    // when a core is spare, and inline on the calling thread when none
    // is. Streams ending on and one past the window boundaries, on one
    // host and on seven, must export the same bytes either way.
    let m = model();
    for invocations in [WINDOW, WINDOW + 1, 2 * WINDOW + 1] {
        for hosts in [1, 7] {
            let config = FleetConfig {
                hosts,
                invocations,
                ..sweep_config()
            };
            let spare = run_fleet(&config, &m, false).expect("1-worker run");
            let inline = run_without_spare_core(&config, &m);
            assert_conserved(&spare, invocations);
            assert_conserved(&inline, invocations);
            assert_bit_identical(&spare, &inline);
        }
    }
    // Chaos with hedging, on the first seed whose stream splits a hedged
    // pair's two copies across a window boundary.
    let (chaos, spare) = (0..64)
        .map(|seed| {
            let config = FleetConfig {
                seed,
                trace_sample: 1,
                ..resilient_config()
            };
            let run = run_fleet(&config, &m, false).expect("1-worker chaos run");
            (config, run)
        })
        .find(|(_, run)| hedge_straddles_a_window(run))
        .expect("some seed splits a hedged pair across two windows");
    let inline = run_without_spare_core(&chaos, &m);
    assert_conserved(&spare, chaos.invocations);
    assert_conserved(&inline, chaos.invocations);
    assert_bit_identical(&spare, &inline);
}

#[test]
fn disabled_resilience_reproduces_the_plain_fleet_bit_for_bit() {
    // Explicitly-disabled resilience knobs must be indistinguishable
    // from a config predating the resilience layer: same routing, same
    // RNG draws, same telemetry, no resilience series anywhere.
    let m = model();
    let plain = run_fleet(&sweep_config(), &m, false).expect("plain run");
    let explicit = run_fleet(
        &FleetConfig {
            chaos: ChaosConfig::none(),
            hedge: HedgeConfig::disabled(),
            retry_budget: RetryBudget::unlimited(),
            admission: AdmissionConfig::disabled(),
            surge: SurgeConfig::none(),
            ..sweep_config()
        },
        &m,
        false,
    )
    .expect("explicitly-disabled run");
    assert_bit_identical(&plain, &explicit);
    let json = plain.snapshot.to_json();
    for key in ["fleet.host_crashes", "fleet.failovers", "admission."] {
        assert!(!json.contains(key), "{key} leaked into a plain run");
    }
}

/// A quick 2,048-host fleet with every event source live: seeded chaos
/// crashes and degradation, hedged failover, predictive pre-warming with
/// adaptive keep-alive, and span tracing — the worst case for the
/// windowed drive, since keep-alive expiry, pre-restore, and chaos
/// timers all flow through each host's calendar queue while the workers
/// claim shards in whatever order they get to them.
fn quick_scale_config() -> FleetConfig {
    FleetConfig {
        hosts: 2_048,
        invocations: 2_048 * 8,
        population: 4_096,
        trace_sample: 8,
        keep_alive_ms: 30_000.0,
        chaos: ChaosConfig {
            host_mtbf_ms: 20_000.0,
            crash_downtime_ms: 2_500.0,
            degrade_mtbf_ms: 20_000.0,
            degrade_duration_ms: 3_000.0,
            degrade_slowdown: 5.0,
        },
        hedge: HedgeConfig {
            enabled: true,
            max_fraction: 0.1,
        },
        prewarm: PrewarmConfig::default_enabled(),
        ..FleetConfig::default()
    }
}

#[test]
fn windowed_drive_at_2048_hosts_is_bit_identical_to_one_thread() {
    let m = model();
    let one = run_fleet(&quick_scale_config(), &m, false).expect("1-thread run");
    assert!(one.host_crashes > 0, "chaos must engage at this scale");
    assert!(
        one.prewarm_spawns > 0 || one.early_decays > 0,
        "prediction must engage"
    );
    for threads in [4, 8] {
        let sharded = run_fleet(
            &FleetConfig {
                threads,
                ..quick_scale_config()
            },
            &m,
            false,
        )
        .expect("sharded run");
        assert_bit_identical(&one, &sharded);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar queue's total order: events pop sorted by time, with
    /// ties broken by (host_id, kind rank, seq) — never by push order
    /// across hosts, which is what makes per-host timer streams
    /// independent of producer interleaving.
    #[test]
    fn calendar_queue_breaks_ties_by_host_then_seq(
        events in prop::collection::vec(
            (0.0f64..16.0, 0u32..8, 0u32..4),
            1..200,
        ),
    ) {
        let mut queue = CalendarQueue::new();
        for &(time_ms, host_id, function) in &events {
            // Quantize times so ties actually occur.
            queue.push(
                time_ms.floor(),
                host_id,
                FleetEventKind::KeepAliveExpiry,
                function,
            );
        }
        let mut popped = Vec::new();
        while let Some(event) = queue.pop() {
            popped.push((event.time_ms, event.host_id, event.seq));
        }
        prop_assert_eq!(popped.len(), events.len());
        for pair in popped.windows(2) {
            let (t0, h0, s0) = pair[0];
            let (t1, h1, s1) = pair[1];
            prop_assert!(
                t0 < t1 || (t0 == t1 && (h0 < h1 || (h0 == h1 && s0 < s1))),
                "order violated: ({}, {}, {}) before ({}, {}, {})",
                t0, h0, s0, t1, h1, s1
            );
        }
    }

}

/// Same-instant events of different kinds fire in lifecycle order
/// (chaos < pre-restore < keep-alive expiry), regardless of the order
/// they were scheduled in.
#[test]
fn calendar_queue_ranks_kinds_at_equal_time() {
    let kinds = [
        FleetEventKind::KeepAliveExpiry,
        FleetEventKind::ChaosTransition,
        FleetEventKind::PrewarmTimer,
    ];
    let mut queue = CalendarQueue::new();
    for kind in kinds {
        queue.push(5.0, 0, kind, 0);
    }
    let order: Vec<FleetEventKind> = std::iter::from_fn(|| queue.pop().map(|e| e.kind)).collect();
    assert_eq!(
        order,
        vec![
            FleetEventKind::ChaosTransition,
            FleetEventKind::PrewarmTimer,
            FleetEventKind::KeepAliveExpiry,
        ]
    );
}

#[test]
fn jukebox_pair_summaries_match_across_thread_counts() {
    let m = model();
    let one = run_fleet_pair(&sweep_config(), &m).expect("1-thread pair");
    let four = run_fleet_pair(
        &FleetConfig {
            threads: 4,
            ..sweep_config()
        },
        &m,
    )
    .expect("4-thread pair");
    assert_eq!(
        to_json(&one.datasets()),
        to_json(&four.datasets()),
        "pair export (base + jukebox + speedup)"
    );
    assert_eq!(one.speedup(), four.speedup());
    assert!(one.speedup() > 1.0, "speedup {}", one.speedup());
}
