//! End-to-end properties of the causal span forest recorded by the
//! fleet: every sampled invocation's children telescope exactly to its
//! root (so critical-path attribution sums to 100%), root durations
//! reproduce the reported latency histogram, and the whole export is
//! byte-identical whatever the worker-thread count.

use luke_obs::span::{dispatch_of, is_hedge_lane, SpanKind};
use luke_obs::{Export, Histogram};
use lukewarm::fleet::{
    run_fleet, AdmissionConfig, ChaosConfig, FleetConfig, FleetRun, HedgeConfig, ServiceModel,
    SurgeConfig,
};
use lukewarm::workloads::paper_suite;
use std::collections::BTreeMap;

fn model() -> ServiceModel {
    ServiceModel::analytic(&paper_suite()).expect("paper suite is valid")
}

/// The `lukewarm fleet --chaos heavy` stack at test scale: seeded
/// crashes and degradations plus failover, hedging, retry budgets,
/// admission control and a flash-crowd surge — the full resilient path.
fn heavy_chaos_config() -> FleetConfig {
    let mut config = FleetConfig {
        hosts: 8,
        invocations: 6_000,
        trace_sample: 1,
        ..FleetConfig::default()
    };
    config.enable_resilience(ChaosConfig::heavy());
    config
}

fn heavy_chaos_run() -> FleetRun {
    run_fleet(&heavy_chaos_config(), &model(), true).expect("valid config")
}

fn by_trace(run: &FleetRun) -> BTreeMap<u64, Vec<&luke_obs::Span>> {
    let mut map: BTreeMap<u64, Vec<&luke_obs::Span>> = BTreeMap::new();
    for s in &run.spans {
        map.entry(s.trace).or_default().push(s);
    }
    map
}

#[test]
fn every_sampled_lane_telescopes_to_its_root() {
    let run = heavy_chaos_run();
    assert!(run.traced && !run.spans.is_empty());
    let lanes = by_trace(&run);
    // trace_sample = 1: every arrival (served or shed) gets exactly one
    // primary lane.
    let primaries = lanes.keys().filter(|t| !is_hedge_lane(**t)).count();
    assert_eq!(
        primaries,
        heavy_chaos_config().invocations,
        "one primary lane per arrival"
    );
    for (trace, spans) in &lanes {
        let roots: Vec<_> = spans.iter().filter(|s| s.id == 0).collect();
        assert_eq!(roots.len(), 1, "trace {trace} must have exactly one root");
        let root = roots[0];
        assert_eq!(root.kind, SpanKind::Invocation);
        // The critical path sums exactly to the end-to-end latency:
        // children partition the root's duration with no gaps and no
        // double counting, so per-kind attribution adds up to 100%.
        let children_us: u64 = spans.iter().filter(|s| s.id != 0).map(|s| s.dur_us).sum();
        assert_eq!(
            children_us, root.dur_us,
            "trace {trace}: critical path must equal the root duration"
        );
        // Child spans stay inside the root's interval and every parent
        // link points at a span that exists on the same lane.
        let ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        for child in spans.iter().filter(|s| s.id != 0) {
            assert!(
                ids.contains(&child.parent),
                "trace {trace}: span {} has a dangling parent {}",
                child.id,
                child.parent
            );
            assert!(
                child.start_us >= root.start_us
                    && child.start_us + child.dur_us <= root.start_us + root.dur_us,
                "trace {trace}: span {} [{}+{}] escapes its root [{}+{}]",
                child.id,
                child.start_us,
                child.dur_us,
                root.start_us,
                root.dur_us
            );
        }
    }
}

#[test]
fn root_durations_reproduce_the_latency_histogram() {
    // Hedging collapses lane pairs to the winner and admission sheds
    // arrivals outside the histogram, so both stay off here: with
    // every dispatch sampled, the root spans must carry exactly the
    // latencies the run reports.
    let config = FleetConfig {
        hedge: HedgeConfig::disabled(),
        admission: AdmissionConfig::disabled(),
        surge: SurgeConfig::none(),
        ..heavy_chaos_config()
    };
    let run = run_fleet(&config, &model(), true).expect("valid config");
    assert_eq!(run.shed, 0);
    let mut rebuilt = Histogram::new();
    for root in run.spans.iter().filter(|s| s.id == 0) {
        assert!(!is_hedge_lane(root.trace), "no hedge lanes without hedging");
        rebuilt.record(root.dur_us);
    }
    assert_eq!(rebuilt.count(), run.invocations);
    assert_eq!(
        rebuilt, run.latency_us,
        "span roots must carry the reported end-to-end latencies"
    );
}

#[test]
fn span_exports_are_byte_identical_across_thread_counts() {
    let m = model();
    let base = heavy_chaos_run();
    let json = luke_obs::export::to_json(&base.datasets());
    let chrome = luke_obs::trace::chrome_trace_spans("fleet", "us", &base.spans);
    for threads in [4, 16] {
        let config = FleetConfig {
            threads,
            ..heavy_chaos_config()
        };
        let run = run_fleet(&config, &m, true).expect("valid config");
        assert_eq!(base.spans, run.spans, "{threads} threads reorder spans");
        assert_eq!(
            json,
            luke_obs::export::to_json(&run.datasets()),
            "{threads} threads change the dataset export"
        );
        assert_eq!(
            chrome,
            luke_obs::trace::chrome_trace_spans("fleet", "us", &run.spans),
            "{threads} threads change the Chrome trace"
        );
    }
}

#[test]
fn hedged_lanes_share_their_dispatch() {
    let run = heavy_chaos_run();
    let lanes = by_trace(&run);
    let mut hedged = 0;
    for trace in lanes.keys().filter(|t| is_hedge_lane(**t)) {
        let primary = trace - 1;
        assert_eq!(dispatch_of(*trace), dispatch_of(primary));
        assert!(
            lanes.contains_key(&primary),
            "hedge lane {trace} has no primary lane"
        );
        hedged += 1;
    }
    assert!(
        hedged > 0,
        "heavy chaos with hedging must sample hedge lanes"
    );
    assert_eq!(hedged, run.hedges, "one hedge lane per hedged dispatch");
}

#[test]
fn default_config_records_no_spans_and_no_extra_datasets() {
    let config = FleetConfig {
        hosts: 4,
        invocations: 2_000,
        ..FleetConfig::default()
    };
    let run = run_fleet(&config, &model(), false).expect("valid config");
    assert!(!run.traced && !run.windowed);
    assert!(run.spans.is_empty());
    assert!(run.timeline.is_empty());
    let names: Vec<String> = run.datasets().into_iter().map(|d| d.name).collect();
    assert_eq!(names, ["fleet.summary", "fleet.hosts"]);
}
