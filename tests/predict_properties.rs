//! Property-based tests for the `luke-predict` subsystem: IAT-histogram
//! quantile monotonicity, merge determinism, the adaptive hold floor,
//! and the fleet-level bit-transparency of a disabled `PrewarmConfig`.

use luke_obs::export::{to_csv, to_json};
use luke_obs::{Export, Registry};
use lukewarm::fleet::{
    run_fleet, FleetConfig, FleetHost, PrewarmConfig, RoutedInvocation, ServiceModel,
};
use lukewarm::predict::{IatHistogram, Predictor, PredictorBank};
use lukewarm::workloads::paper_suite;
use proptest::prelude::*;

/// Arrival gaps bounded to the histogram's meaningful range (sub-ms to
/// hours), as a generatable vector.
fn iats() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..7_200_000.0, 1..200)
}

/// Strictly increasing arrival times built from generated gaps.
fn arrivals(gaps: &[f64]) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity(gaps.len());
    for gap in gaps {
        at += gap;
        out.push(at);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- IAT histogram ---

    #[test]
    fn quantiles_are_monotone_in_q(values in iats(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let mut hist = IatHistogram::new();
        for v in &values {
            hist.record(*v);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ql = hist.quantile(lo).expect("non-empty histogram");
        let qh = hist.quantile(hi).expect("non-empty histogram");
        prop_assert!(ql <= qh, "q({lo}) = {ql} > q({hi}) = {qh}");
        // Every quantile sits within the recorded range's bucket bounds.
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(qh <= max.ceil(), "q({hi}) = {qh} beyond max {max}");
    }

    #[test]
    fn histogram_merge_equals_recording_the_union(a in iats(), b in iats()) {
        let mut merged = IatHistogram::new();
        let mut left = IatHistogram::new();
        let mut right = IatHistogram::new();
        for v in &a {
            merged.record(*v);
            left.record(*v);
        }
        for v in &b {
            merged.record(*v);
            right.record(*v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), merged.count());
        prop_assert_eq!(left.max_ms(), merged.max_ms());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile(q), merged.quantile(q), "q = {}", q);
        }
    }

    // --- Predictor merge determinism ---

    #[test]
    fn predictor_merge_is_deterministic(a in iats(), b in iats()) {
        let config = PrewarmConfig::default_enabled();
        let observe_all = |gaps: &[f64]| {
            let mut p = Predictor::new();
            for at in arrivals(gaps) {
                p.observe(at);
            }
            p
        };
        let mut first = observe_all(&a);
        first.merge(&observe_all(&b));
        let mut second = observe_all(&a);
        second.merge(&observe_all(&b));
        prop_assert_eq!(first.samples(), second.samples());
        prop_assert_eq!(first.last_arrival_ms(), second.last_arrival_ms());
        prop_assert_eq!(
            first.predicted_iat_ms(&config),
            second.predicted_iat_ms(&config)
        );
        prop_assert_eq!(
            first.hold_ms(&config, 600_000.0),
            second.hold_ms(&config, 600_000.0)
        );
        // The merged anchor is the later of the two sides' anchors
        // (both sides saw at least one arrival, so both are anchored).
        let left_anchor = observe_all(&a).last_arrival_ms().expect("anchored");
        let right_anchor = observe_all(&b).last_arrival_ms().expect("anchored");
        prop_assert_eq!(first.last_arrival_ms(), Some(left_anchor.max(right_anchor)));
    }

    // --- Adaptive hold floor ---

    #[test]
    fn holds_never_drop_below_the_configured_floor(
        gaps in iats(),
        cap_ms in 10_000.0f64..1_200_000.0,
    ) {
        let config = PrewarmConfig {
            min_hold_ms: 1_000.0,
            ..PrewarmConfig::default_enabled()
        };
        let floor = config.min_hold_ms.min(cap_ms);
        let mut bank = PredictorBank::new(config, 1, cap_ms);
        for at in arrivals(&gaps) {
            bank.observe(0, at, 5.0);
            let hold = bank.holds()[0];
            prop_assert!(
                hold >= floor && hold <= cap_ms,
                "hold {hold} outside [{floor}, {cap_ms}]"
            );
        }
    }
}

/// The floor property through the path the fleet runs: a host under
/// prediction retires an idle instance only once its function's hold
/// has lapsed (`FleetHost::process` drains the expiry timers, which
/// retire instances through `InstancePool::expire_with_deadline`). The
/// hold never drops below the floor, so no instance expires while
/// arrivals keep landing within the floor of the last one; past the
/// cap (the longest hold) it does expire.
#[test]
fn adaptive_sweeps_respect_the_last_arrival_plus_minimum_hold() {
    let config = FleetConfig {
        hosts: 1,
        population: 1,
        keep_alive_ms: 60_000.0,
        prewarm: PrewarmConfig::default_enabled(),
        ..FleetConfig::default()
    };
    let floor = config.prewarm.min_hold_ms.min(config.keep_alive_ms);
    let model = ServiceModel::analytic(&paper_suite()).expect("analytic model");
    let mut host = FleetHost::new(&config, 0);
    let expirations = |host: &FleetHost| {
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        registry.snapshot().counter("pool.expirations")
    };

    // A burst of sub-second arrivals drives the adaptive hold toward the
    // floor; every other gap stretches to just inside the floor.
    let mut at = 0.0;
    host.process(&config, &model, false, RoutedInvocation::new(at, 0));
    for i in 0..256u64 {
        at += if i % 2 == 0 { 100.0 } else { floor - 1e-3 };
        host.process(&config, &model, false, RoutedInvocation::new(at, 0));
        assert_eq!(expirations(&host), 0, "expired before the hold at {at}");
    }
    assert_eq!(host.hits(), 256, "every arrival after the first is warm");
    // Past last-arrival + the longest hold the instance does expire.
    at += config.keep_alive_ms + 1.0;
    host.process(&config, &model, false, RoutedInvocation::new(at, 0));
    assert_eq!(expirations(&host), 1, "instance must expire after the hold");
}

// --- Fleet-level bit-transparency ---

/// A disabled `PrewarmConfig` must be indistinguishable from a config
/// predating the prediction layer: same RNG draws, same telemetry, no
/// `predict.*` or `fleet.prewarm` series anywhere — at 1 and 4 threads.
#[test]
fn disabled_prewarm_reproduces_the_plain_fleet_bit_for_bit() {
    let config = FleetConfig {
        hosts: 16,
        invocations: 8_000,
        population: 120,
        keep_alive_ms: 30_000.0,
        trace_sample: 16,
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let plain = run_fleet(&config, &model, false).expect("plain run");
    for threads in [1usize, 4] {
        let explicit = run_fleet(
            &FleetConfig {
                threads,
                prewarm: PrewarmConfig::disabled(),
                ..config.clone()
            },
            &model,
            false,
        )
        .expect("explicitly-disabled run");
        assert_eq!(
            plain.snapshot.to_json(),
            explicit.snapshot.to_json(),
            "snapshot ({threads} threads)"
        );
        assert_eq!(plain.latency_us, explicit.latency_us, "latency histogram");
        assert_eq!(plain.per_host, explicit.per_host, "per-host summaries");
        assert_eq!(
            to_json(&plain.datasets()),
            to_json(&explicit.datasets()),
            "JSON export ({threads} threads)"
        );
        assert_eq!(
            to_csv(&plain.datasets()),
            to_csv(&explicit.datasets()),
            "CSV export ({threads} threads)"
        );
    }
    let json = plain.snapshot.to_json();
    assert!(
        !json.contains("predict."),
        "predict.* leaked into a plain run"
    );
    assert!(
        !to_json(&plain.datasets()).contains("fleet.prewarm"),
        "fleet.prewarm leaked into a plain run"
    );
}
