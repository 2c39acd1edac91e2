//! Fleet orchestration: route in windows, process each window's shards
//! on the workspace's ordered parallel map, merge in host order.
//!
//! The run is build → drive → merge, with a sharp determinism argument
//! at each stage of the drive:
//!
//! 1. **Route** (one thread): the arrival stream is drawn lane-by-lane
//!    from the traffic generator and pushed through the router in
//!    arrival order. Router state (round-robin cursor, load ledger,
//!    health view) only ever sees this one canonical order, and hosts
//!    never feed back into it. Routed copies fill a window of [`WINDOW`]
//!    copies per worker, bucketed per shard of contiguous hosts, so peak
//!    routed work in flight is two windows, independent of the invocation
//!    count.
//! 2. **Process** ([`luke_common::par::map`]): each full window's shard
//!    batches are mapped over the workers, several shards per worker, so
//!    the map's claim counter balances a skewed routing distribution.
//!    Each host lives in exactly one shard and consumes its copies in
//!    route order, and hosts share nothing — each owns its pool, fault
//!    stream, calendar queue of timers, counters, and span ring — so
//!    which worker ran which shard cannot influence any host's state.
//!    Whenever a second thread has a core — a second worker, or a core
//!    left over beside a single one ([`par::spare_core`]) — the router
//!    runs on its own scoped thread and fills the next window while this
//!    one is processed: on every worker when processing has fallen behind
//!    (the window was already waiting, twice running), else on the
//!    calling thread alone, which leaves the router a core. Only a single
//!    worker with no core to spare (a 1-core machine, or a run inside a
//!    map whose workers fill the cores) routes and processes in turn on
//!    the calling thread, starting no thread.
//! 3. **Merge** (sequential): per-host state is folded into fleet
//!    totals, one registry, one histogram, and one span list *in host-id
//!    order*, which is independent of which thread ran which shard.
//!
//! `threads` never appears in any result, and
//! `tests/fleet_determinism.rs` asserts a 1-thread and an N-thread run
//! export byte-identical JSON.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

use luke_common::{par, SimError};
use luke_obs::export::{fixed, plain, Column};
use luke_obs::span::{sort_canonical, trace_id, Span, SpanKind, SpanRing};
use luke_obs::{Dataset, Export, Histogram, Registry, Snapshot, TimeWindows, Value, WindowRow};

use crate::chaos::ChaosPlan;
use crate::config::FleetConfig;
use crate::health::HealthView;
use crate::host::{admission_priorities, FleetHost, HedgeOutcome, RoutedInvocation};
use crate::route::{RouteDecision, Router, RoutingPolicy};
use crate::tenant::HostTenancy;
use crate::timing::ServiceModel;
use crate::traffic::{ArrivalStream, Population};
use server::AdmissionControl;

/// Per-host slice of a [`FleetRun`].
#[derive(Clone, Debug, PartialEq)]
pub struct HostSummary {
    /// Host index.
    pub host: usize,
    /// Invocations this host served.
    pub invocations: u64,
    /// Cold starts (first touches, expiries, evictions, crash respawns).
    pub cold_starts: u64,
    /// Warm hits below the lukewarm threshold.
    pub warm_hits: u64,
    /// Warm hits at or above it.
    pub lukewarm_hits: u64,
    /// Mean interleaving degree over warm hits.
    pub mean_degree: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Instances still warm at the end of the run.
    pub warm_instances: usize,
}

/// Result of one fleet run. Contains no trace of how many threads
/// produced it.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Routing policy that shaped the run.
    pub policy: RoutingPolicy,
    /// Fleet size.
    pub hosts: usize,
    /// Whether warm service times used the Jukebox factor.
    pub jukebox: bool,
    /// Total invocations.
    pub invocations: u64,
    /// Fleet-wide cold starts.
    pub cold_starts: u64,
    /// Fleet-wide warm (non-lukewarm) hits.
    pub warm_hits: u64,
    /// Fleet-wide lukewarm hits.
    pub lukewarm_hits: u64,
    /// Invocations that completed (fault layer).
    pub completed: u64,
    /// Invocations abandoned by the retry policy.
    pub abandoned: u64,
    /// Sum of end-to-end latencies, ms.
    pub latency_sum_ms: f64,
    /// Merged latency distribution, µs.
    pub latency_us: Histogram,
    /// Per-host breakdown, in host order.
    pub per_host: Vec<HostSummary>,
    /// Merged telemetry snapshot (pool, fault, and fleet series).
    pub snapshot: Snapshot,
    /// Whole-host chaos crashes applied across the fleet.
    pub host_crashes: u64,
    /// Dispatches routed around an unhealthy preferred host.
    pub failovers: u64,
    /// Hedged dispatches issued (each added one extra copy of load).
    pub hedges: u64,
    /// Retries spent fleet-wide: fault-layer re-attempts plus down-host
    /// reconnects.
    pub retries: u64,
    /// Arrivals rejected by the admission ladder.
    pub shed: u64,
    /// Cold starts degraded to lazy-paging restores under memory
    /// pressure.
    pub degraded_restores: u64,
    /// Whether any resilience knob was on (gates the resilience
    /// dataset so disabled runs export byte-identical output).
    pub resilient: bool,
    /// Span trees of every sampled invocation, canonically ordered by
    /// (trace lane, span id) — empty when `trace_sample` is 0.
    pub spans: Vec<Span>,
    /// Windowed time-series rows in time order — empty when
    /// `series_window_ms` is 0.
    pub timeline: Vec<WindowRow>,
    /// Whether span tracing was on (gates the spans dataset).
    pub traced: bool,
    /// Whether the windowed series was on (gates the timeline dataset).
    pub windowed: bool,
    /// Warm-pool occupancy in instance-milliseconds through the last
    /// arrival — what a provider pays to run the keep-alive policy.
    /// Always computed (fixed policies have a memory bill too); only
    /// exported as a dataset when prediction was on.
    pub memory_ms: f64,
    /// Pre-restores the prediction policy scheduled (0 when off).
    pub prewarms_scheduled: u64,
    /// Pre-restores actually spawned ahead of a predicted arrival.
    pub prewarm_spawns: u64,
    /// Arrivals that landed on a pre-warmed instance.
    pub prewarm_hits: u64,
    /// Arrivals processed under a tightened (below-cap) adaptive hold.
    pub early_decays: u64,
    /// Whether prediction was on (gates the prewarm dataset).
    pub prewarmed: bool,
    /// Dispatches scored by the placement-aware policy (0 otherwise).
    pub placement_routed: u64,
    /// Distinct shared pages registered across all hosts.
    pub shared_pages: u64,
    /// Shared-page registrations that found the page already resident.
    pub dedup_hits: u64,
    /// Bytes dedup avoided materializing fleet-wide.
    pub dedup_bytes_saved: u64,
    /// Total latency contention pressure added across the fleet, ms.
    pub contention_extra_ms: f64,
    /// Invocations that ran with a contention slowdown above 1.
    pub slowed_invocations: u64,
    /// Whether any tenancy knob was on (gates the tenancy dataset).
    pub tenant: bool,
}

impl FleetRun {
    /// Mean end-to-end latency, ms, over the invocations the latency
    /// histogram tracked (hedged pairs count once, shed arrivals not at
    /// all; without resilience this is exactly `invocations`).
    pub fn mean_latency_ms(&self) -> f64 {
        ratio(self.latency_sum_ms, self.latency_us.count())
    }

    /// Retry amplification: dispatched attempts per admitted arrival
    /// (1.0 when nothing ever retried).
    pub fn retry_amplification(&self) -> f64 {
        1.0 + ratio(self.retries as f64, self.invocations)
    }

    /// Fleet-wide shared-page hit rate: the share of shareable page
    /// registrations that found the page already resident on the host
    /// (0.0 when nothing registered — dedup off or tenancy disabled).
    pub fn shared_page_hit_rate(&self) -> f64 {
        ratio(self.dedup_hits as f64, self.shared_pages + self.dedup_hits)
    }

    /// Median end-to-end latency, ms (0.0 when nothing completed — an
    /// all-shed run has no tail to report).
    pub fn p50_ms(&self) -> f64 {
        self.latency_us
            .try_percentile(50.0)
            .map_or(0.0, |us| us as f64 / 1000.0)
    }

    /// Tail end-to-end latency, ms (0.0 when nothing completed).
    pub fn p99_ms(&self) -> f64 {
        self.latency_us
            .try_percentile(99.0)
            .map_or(0.0, |us| us as f64 / 1000.0)
    }

    /// Fraction of invocations that found no warm instance.
    pub fn cold_start_rate(&self) -> f64 {
        ratio(self.cold_starts as f64, self.invocations)
    }

    /// Fraction of invocations served warm but microarchitecturally
    /// cold — the paper's lukewarm share.
    pub fn lukewarm_fraction(&self) -> f64 {
        ratio(self.lukewarm_hits as f64, self.invocations)
    }

    /// Warm-pool occupancy in instance-seconds — the frontier's x-axis
    /// in its natural unit.
    pub fn memory_instance_s(&self) -> f64 {
        self.memory_ms / 1000.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn ratio(part: f64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part / whole as f64
    }
}

/// Routed copies per window, per worker. A router on its own thread
/// fills one window while the workers process the other, so peak routed
/// work in flight is two windows: 2,048 copies each at one worker, 4,096
/// at two, enough to amortize the hand-off between threads. Routing on
/// the calling thread keeps one window.
pub const WINDOW: usize = 2048;
/// Shards per worker. A window's map claims shards one at a time, so
/// many small shards let an idle worker take the tail of a skewed
/// routing distribution, and shorten the wait at the end of each window
/// for the last shard to finish.
const SHARDS_PER_WORKER: usize = 16;

/// One routed copy addressed to a host *within* its shard.
type ShardItem = (usize, RoutedInvocation);

/// One window of routed copies: a batch per shard, each in route order.
type Window = Vec<Vec<ShardItem>>;

/// Drives the traffic generator through the router in the one canonical
/// arrival order, handing every routed copy to `emit`, and returns the
/// last arrival time — the memory-accounting horizon. Routing state
/// never sees anything but this canonical order. Under chaos the router
/// consults a health view advanced to each arrival — probe rounds,
/// breaker transitions, failover walks, and hedge decisions all happen
/// here, which is what keeps them thread-count-independent. Without chaos the view stays all-healthy,
/// so the router takes its preferred host and never hedges.
fn route_stream(
    config: &FleetConfig,
    model: &ServiceModel,
    router: &mut Router,
    route_spans: &mut SpanRing,
    mut emit: impl FnMut(usize, RoutedInvocation),
) -> Result<f64, SimError> {
    let population = Population::synthesize(config);
    let mut stream = ArrivalStream::synthesize(config, &population)?;
    let chaos_plan = ChaosPlan::synthesize(config);
    let mut health = HealthView::new(config.hosts, config.health);
    // Warm-service estimates per suite profile, hoisted off the
    // per-arrival path (the router charges this estimate to its load
    // ledger on every dispatch).
    let warm_ms: Vec<f64> = (0..model.functions())
        .map(|profile| model.timing(profile).warm_ms)
        .collect();
    let mut end_ms = 0.0_f64;
    for (dispatch, event) in (0_u64..).zip(stream.by_ref().take(config.invocations)) {
        let at_ms = event.at_ms;
        end_ms = end_ms.max(at_ms);
        let function = event.instance;
        if !chaos_plan.is_none() {
            health.advance_to(at_ms, &chaos_plan);
            if chaos_plan.all_down_at(at_ms) {
                return Err(SimError::all_hosts_down(at_ms as u64));
            }
        }
        let expected_ms = warm_ms[function % warm_ms.len()];
        let decision = router.route_resilient(function, expected_ms, &health, &config.hedge);
        if config.samples(dispatch) {
            record_route_spans(route_spans, dispatch, &decision);
        }
        let copy = |hedge, duplicate| RoutedInvocation {
            at_ms,
            function,
            dispatch,
            hedge,
            duplicate,
        };
        emit(decision.host, copy(decision.hedge.is_some(), false));
        if let Some(second) = decision.hedge {
            emit(second, copy(true, true));
        }
    }
    Ok(end_ms)
}

/// Records a sampled dispatch's route-phase spans: the primary lane's
/// route (flagged when it failed over) and, for a hedged dispatch, the
/// hedge decision and the duplicate lane's route.
fn record_route_spans(ring: &mut SpanRing, dispatch: u64, decision: &RouteDecision) {
    let span = |duplicate: bool, id: u32, kind: SpanKind, a: usize, b: u64| Span {
        trace: trace_id(dispatch, duplicate),
        id,
        parent: 0,
        kind,
        start_us: 0,
        dur_us: 0,
        a: a as u64,
        b,
    };
    let failed_over = u64::from(decision.failed_over);
    ring.record(span(false, 1, SpanKind::Route, decision.host, failed_over));
    if let Some(second) = decision.hedge {
        ring.record(span(
            false,
            2,
            SpanKind::Hedge,
            decision.host,
            second as u64,
        ));
        ring.record(span(true, 1, SpanKind::Route, second, 0));
    }
}

/// The span-ring capacity for route-phase spans of sampled dispatches
/// (ids 1–3 on each lane; the host side owns the root and ids from 4).
fn route_span_capacity(config: &FleetConfig) -> usize {
    if config.trace_sample > 0 {
        (config.invocations / config.trace_sample as usize + 1).saturating_mul(4)
    } else {
        0
    }
}

/// Runs the fleet once. `model` prices service times; `jukebox` selects
/// which lukewarm factor warm hits pay.
pub fn run_fleet(
    config: &FleetConfig,
    model: &ServiceModel,
    jukebox: bool,
) -> Result<FleetRun, SimError> {
    config.validate()?;
    let (mut hosts, mut router) = build(config)?;
    let mut route_spans = SpanRing::with_capacity(route_span_capacity(config));
    let end_ms = drive(
        config,
        model,
        jukebox,
        &mut hosts,
        &mut router,
        &mut route_spans,
    )?;
    merge(config, jukebox, &router, route_spans, &hosts, end_ms)
}

/// Build: every host, sharing one admission-priority table, and the
/// router. The placement-aware policy scores hosts by same-language
/// affinity, so it routes with the suite's language table; every other
/// policy keeps the language-blind constructor (identical state, bit
/// for bit). A host count whose table cannot be allocated is an invalid
/// configuration, not a panic.
fn build(config: &FleetConfig) -> Result<(Vec<FleetHost>, Router), SimError> {
    let priorities = admission_priorities(config);
    let mut hosts = Vec::new();
    hosts.try_reserve_exact(config.hosts).map_err(|_| {
        SimError::invalid_config(
            "fleet.hosts",
            format!("cannot allocate a table of {} hosts", config.hosts),
        )
    })?;
    hosts.extend((0..config.hosts).map(|id| FleetHost::with_priorities(config, id, &priorities)));
    let router = if config.policy == RoutingPolicy::PlacementAware {
        let lang_of: Vec<u8> = workloads::paper_suite()
            .iter()
            .map(|profile| luke_tenancy::language_slot(profile.language))
            .collect();
        Router::with_languages(config.policy, config.hosts, lang_of)
    } else {
        Router::new(config.policy, config.hosts)
    };
    Ok((hosts, router))
}

/// Drive: routes the arrival stream in windows and processes every
/// window's shard batches on [`par::map`], returning the last arrival
/// time (see the module docs). Shards are contiguous host chunks
/// borrowed in place, so no host ever moves; their count follows the
/// requested `threads`, not the cores, so a shard's hosts do not depend
/// on the machine.
fn drive(
    config: &FleetConfig,
    model: &ServiceModel,
    jukebox: bool,
    hosts: &mut [FleetHost],
    router: &mut Router,
    route_spans: &mut SpanRing,
) -> Result<f64, SimError> {
    let shard_count = config
        .threads
        .saturating_mul(SHARDS_PER_WORKER)
        .min(hosts.len());
    let shard_len = hosts.len().div_ceil(shard_count);
    // The lock is never contended (each shard is one map item); it
    // carries `&mut` into the map's workers.
    let shards: Vec<Mutex<&mut [FleetHost]>> =
        hosts.chunks_mut(shard_len).map(Mutex::new).collect();
    let process = |window: &mut Window, threads: usize| {
        let batches: Vec<_> = shards
            .iter()
            .zip(window.iter())
            .filter(|(_, batch)| !batch.is_empty())
            .collect();
        par::map(threads, &batches, |(hosts, batch)| {
            let mut hosts = hosts.lock().expect("shard hosts mutex");
            for &(local, routed) in batch.iter() {
                hosts[local].process(config, model, jukebox, routed);
            }
        });
        // Each batch keeps its capacity for the next window.
        window.iter_mut().for_each(Vec::clear);
    };
    let mut window: Window = vec![Vec::new(); shards.len()];
    let workers = par::workers(config.threads, shards.len());
    let len = WINDOW * workers;
    if workers == 1 && !par::spare_core() {
        let sink = windowed(shard_len, len, &mut window, |full| process(full, 1));
        let end_ms = route_stream(config, model, router, route_spans, sink)?;
        process(&mut window, 1);
        return Ok(end_ms);
    }
    // A second worker or a spare core: two windows circulate, the router
    // filling one on its own thread while the workers process the other.
    // Neither channel can fill, since only two exist.
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = mpsc::sync_channel::<Window>(2);
        let (free_tx, free_rx) = mpsc::sync_channel::<Window>(2);
        free_tx
            .send(vec![Vec::new(); shards.len()])
            .expect("receiver is alive");
        let routing = scope.spawn(move || {
            let sink = windowed(shard_len, len, &mut window, |full| {
                full_tx
                    .send(std::mem::take(full))
                    .expect("window consumer is alive");
                *full = free_rx.recv().expect("window consumer is alive");
            });
            let end_ms = route_stream(config, model, router, route_spans, sink)?;
            full_tx.send(window).expect("window consumer is alive");
            Ok(end_ms)
        });
        // A window already waiting when this thread asks for it means the
        // router is ahead. Twice running, processing is the bottleneck:
        // spread the window over every worker. Otherwise routing is, or
        // one late window was scheduling noise: this thread alone keeps
        // up and leaves the router a core.
        let mut was_waiting = false;
        loop {
            let (mut full, waiting) = match full_rx.try_recv() {
                Ok(full) => (full, true),
                Err(mpsc::TryRecvError::Empty) => match full_rx.recv() {
                    Ok(full) => (full, false),
                    Err(mpsc::RecvError) => break,
                },
                Err(mpsc::TryRecvError::Disconnected) => break,
            };
            let threads = if waiting && was_waiting {
                config.threads
            } else {
                1
            };
            was_waiting = waiting;
            process(&mut full, threads);
            // Fails only once the router has sent its last window.
            let _ = free_tx.send(full);
        }
        routing
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The [`route_stream`] sink that fills `window`: each routed copy is
/// addressed to its shard, and each time the window holds `len` copies it
/// is handed to `flush`, which leaves an empty window in its place. The
/// final, partly filled window stays in `window`.
fn windowed<'w>(
    shard_len: usize,
    len: usize,
    window: &'w mut Window,
    mut flush: impl FnMut(&mut Window) + 'w,
) -> impl FnMut(usize, RoutedInvocation) + 'w {
    let mut filled = 0;
    move |host, routed| {
        window[host / shard_len].push((host % shard_len, routed));
        filled += 1;
        if filled == len {
            flush(window);
            filled = 0;
        }
    }
}

/// Merge: folds per-host state into fleet totals, one registry, one
/// histogram, one span list and one series *in host-id order*, which is
/// independent of which thread ran which shard.
fn merge(
    config: &FleetConfig,
    jukebox: bool,
    router: &Router,
    mut route_spans: SpanRing,
    hosts: &[FleetHost],
    end_ms: f64,
) -> Result<FleetRun, SimError> {
    let total = |count: fn(&FleetHost) -> u64| hosts.iter().map(count).sum::<u64>();
    let total_ms = |ms: &dyn Fn(&FleetHost) -> f64| hosts.iter().map(ms).fold(0.0, |a, b| a + b);
    let mut registry = Registry::new();
    let mut latency_us = Histogram::new();
    let mut latency_sum_ms = total_ms(&|h| h.latency_sum_ms);
    let mut spans = route_spans.take_spans();
    let mut series = TimeWindows::new(config.series_window_ms);
    for host in hosts {
        host.fill_registry(&mut registry);
        latency_us.merge(&host.latency_us);
        spans.extend(host.spans.spans());
        series.merge(&host.series);
    }
    // Each hedged dispatch lands in the fleet histogram exactly once,
    // as its joined (faster) outcome — in dispatch order, which is
    // host-schedule-independent. The time-series records the joined
    // pair the same way: one arrival, one outcome.
    for outcome in join_hedges(hosts).values() {
        let outcome_us = (outcome.latency_ms * 1000.0).round() as u64;
        latency_us.record(outcome_us);
        latency_sum_ms += outcome.latency_ms;
        series.record_arrival(outcome.at_ms);
        let over_slo = config.series_slo_ms > 0.0 && outcome.latency_ms > config.series_slo_ms;
        series.record_outcome(outcome.at_ms, outcome_us, outcome.class, over_slo);
    }
    // Canonical span order: (trace lane, span id), independent of which
    // thread ran which shard.
    sort_canonical(&mut spans);
    registry.gauge_set("fleet.hosts", config.hosts as f64);
    if config.resilience_enabled() {
        registry.counter_add("fleet.failovers", router.failovers());
        registry.counter_add("fleet.hedges", router.hedges());
    }
    // Route-phase placement counter, only under the policy that scores
    // placements — every other policy keeps its exact export shape.
    if config.policy == RoutingPolicy::PlacementAware {
        registry.counter_add("fleet.placement_routed", router.placement_routed());
    }
    let run = FleetRun {
        policy: config.policy,
        hosts: config.hosts,
        jukebox,
        invocations: total(|h| h.invocations),
        cold_starts: total(|h| h.cold_starts),
        warm_hits: total(|h| h.warm_hits),
        lukewarm_hits: total(|h| h.lukewarm_hits),
        completed: total(|h| h.fault_stats.completed),
        abandoned: total(|h| h.fault_stats.abandoned),
        latency_sum_ms,
        latency_us,
        per_host: hosts.iter().map(summarize).collect(),
        snapshot: registry.snapshot(),
        host_crashes: total(|h| h.host_crashes),
        failovers: router.failovers(),
        hedges: router.hedges(),
        retries: total(|h| h.retries + h.down_retries),
        shed: total(|h| h.admission().map_or(0, AdmissionControl::shed)),
        degraded_restores: total(|h| h.admission().map_or(0, AdmissionControl::degraded_restores)),
        resilient: config.resilience_enabled(),
        spans,
        timeline: series.rows(),
        traced: config.tracing_enabled(),
        windowed: config.series_enabled(),
        memory_ms: total_ms(&|h| h.memory_ms_through(end_ms)),
        prewarms_scheduled: total(FleetHost::prewarms_scheduled),
        prewarm_spawns: total(FleetHost::prewarm_spawns),
        prewarm_hits: total(FleetHost::prewarm_hits),
        early_decays: total(FleetHost::early_decays),
        prewarmed: config.prewarm_enabled(),
        placement_routed: router.placement_routed(),
        shared_pages: total(|h| h.tenancy().map_or(0, HostTenancy::shared_pages)),
        dedup_hits: total(|h| h.tenancy().map_or(0, HostTenancy::dedup_hits)),
        dedup_bytes_saved: total(|h| h.tenancy().map_or(0, HostTenancy::dedup_bytes_saved)),
        contention_extra_ms: total_ms(&|h| h.tenancy().map_or(0.0, HostTenancy::extra_ms)),
        slowed_invocations: total(|h| h.tenancy().map_or(0, HostTenancy::slowed)),
        tenant: config.tenancy_enabled(),
    };
    if config.admission.enabled && run.invocations == 0 && run.shed > 0 {
        return Err(SimError::admission_rejected(run.shed));
    }
    Ok(run)
}

/// Joins hedge copies, which share a dispatch id, keeping each
/// dispatch's better fate: a completion beats a failure, then the
/// faster latency wins.
fn join_hedges(hosts: &[FleetHost]) -> BTreeMap<u64, HedgeOutcome> {
    let mut pairs: BTreeMap<u64, HedgeOutcome> = BTreeMap::new();
    for &outcome in hosts.iter().flat_map(|host| &host.hedge_outcomes) {
        let best = pairs.entry(outcome.dispatch).or_insert(outcome);
        if (outcome.completed && !best.completed)
            || (outcome.completed == best.completed && outcome.latency_ms < best.latency_ms)
        {
            *best = outcome;
        }
    }
    pairs
}

/// One host's row of [`FleetRun::per_host`].
fn summarize(host: &FleetHost) -> HostSummary {
    HostSummary {
        host: host.host_id,
        invocations: host.invocations,
        cold_starts: host.cold_starts,
        warm_hits: host.warm_hits,
        lukewarm_hits: host.lukewarm_hits,
        mean_degree: host.mean_degree(),
        mean_latency_ms: ratio(host.latency_sum_ms, host.latency_us.count()),
        warm_instances: host.warm_instances(),
    }
}

/// A base-vs-Jukebox pair over identical traffic.
#[derive(Clone, Debug)]
pub struct FleetComparison {
    /// Run without the prefetcher.
    pub base: FleetRun,
    /// Run with Jukebox pricing on warm hits.
    pub jukebox: FleetRun,
}

impl FleetComparison {
    /// Mean-latency speedup of Jukebox over base.
    pub fn speedup(&self) -> f64 {
        let jb = self.jukebox.mean_latency_ms();
        if jb == 0.0 {
            1.0
        } else {
            self.base.mean_latency_ms() / jb
        }
    }
}

/// Runs the same config twice — without and with Jukebox — over
/// identical traffic, routing, and fault draws.
pub fn run_fleet_pair(
    config: &FleetConfig,
    model: &ServiceModel,
) -> Result<FleetComparison, SimError> {
    Ok(FleetComparison {
        base: run_fleet(config, model, false)?,
        jukebox: run_fleet(config, model, true)?,
    })
}

/// Hosts shown individually in the `Display` table before eliding.
const DISPLAY_HOST_ROWS: usize = 12;

impl std::fmt::Display for FleetRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} hosts, policy {}, jukebox {}",
            self.hosts,
            self.policy,
            if self.jukebox { "on" } else { "off" }
        )?;
        writeln!(
            f,
            "  {} invocations | cold {:.1}% | lukewarm {:.1}% | mean {:.3}ms | p50 {:.3}ms | p99 {:.3}ms",
            self.invocations,
            100.0 * self.cold_start_rate(),
            100.0 * self.lukewarm_fraction(),
            self.mean_latency_ms(),
            self.p50_ms(),
            self.p99_ms(),
        )?;
        if self.traced {
            let roots = self.spans.iter().filter(|s| s.id == 0).count();
            writeln!(
                f,
                "  tracing: {} spans over {} sampled lanes",
                self.spans.len(),
                roots
            )?;
        }
        if self.windowed {
            writeln!(f, "  timeline: {} windows", self.timeline.len())?;
        }
        if self.prewarmed {
            writeln!(
                f,
                "  prewarm: {:.0} instance-s memory | {} scheduled | {} spawned | {} hits | {} early decays",
                self.memory_instance_s(),
                self.prewarms_scheduled,
                self.prewarm_spawns,
                self.prewarm_hits,
                self.early_decays,
            )?;
        }
        if self.tenant {
            writeln!(
                f,
                "  tenancy: {} shared pages | {:.1}% hit rate | {:.2} MiB deduped | {} placement-routed | {} slowed | {:.1}ms contention",
                self.shared_pages,
                100.0 * self.shared_page_hit_rate(),
                self.dedup_bytes_saved as f64 / (1024.0 * 1024.0),
                self.placement_routed,
                self.slowed_invocations,
                self.contention_extra_ms,
            )?;
        }
        if self.resilient {
            writeln!(
                f,
                "  resilience: {} host crashes | {} failovers | {} hedges | {} retries | {} shed | {} degraded restores",
                self.host_crashes,
                self.failovers,
                self.hedges,
                self.retries,
                self.shed,
                self.degraded_restores,
            )?;
        }
        let hosts = self.hosts_dataset();
        write!(
            f,
            "{}",
            hosts.text_of(hosts.rows.iter().take(DISPLAY_HOST_ROWS))
        )?;
        if self.per_host.len() > DISPLAY_HOST_ROWS {
            writeln!(
                f,
                "  ... {} more hosts",
                self.per_host.len() - DISPLAY_HOST_ROWS
            )?;
        }
        Ok(())
    }
}

/// A one-row dataset, each cell given next to its column name.
fn single_row(name: &str, cells: Vec<(&str, Value)>) -> Dataset {
    let (columns, row): (Vec<&str>, Vec<Value>) = cells.into_iter().unzip();
    let mut dataset = Dataset::new(name, &columns);
    dataset.push_row(row);
    dataset
}

impl Export for FleetRun {
    fn datasets(&self) -> Vec<Dataset> {
        let summary = single_row(
            "fleet.summary",
            vec![
                ("policy", Value::str(self.policy.label())),
                ("hosts", Value::UInt(self.hosts as u64)),
                ("jukebox", Value::UInt(u64::from(self.jukebox))),
                ("invocations", Value::UInt(self.invocations)),
                ("cold_start_rate", Value::Float(self.cold_start_rate())),
                ("lukewarm_fraction", Value::Float(self.lukewarm_fraction())),
                ("mean_ms", Value::Float(self.mean_latency_ms())),
                ("p50_ms", Value::Float(self.p50_ms())),
                ("p99_ms", Value::Float(self.p99_ms())),
                ("completed", Value::UInt(self.completed)),
                ("abandoned", Value::UInt(self.abandoned)),
            ],
        );
        let mut out = vec![summary, self.hosts_dataset()];
        // Each optional layer's dataset exists only when that layer was
        // on, so a run with it off keeps its exact export shape.
        if self.prewarmed {
            out.push(single_row(
                "fleet.prewarm",
                vec![
                    ("memory_instance_s", Value::Float(self.memory_instance_s())),
                    ("prewarms_scheduled", Value::UInt(self.prewarms_scheduled)),
                    ("prewarm_spawns", Value::UInt(self.prewarm_spawns)),
                    ("prewarm_hits", Value::UInt(self.prewarm_hits)),
                    ("early_decays", Value::UInt(self.early_decays)),
                    ("cold_starts", Value::UInt(self.cold_starts)),
                ],
            ));
        }
        if self.tenant {
            out.push(single_row(
                "fleet.tenancy",
                vec![
                    ("memory_instance_s", Value::Float(self.memory_instance_s())),
                    ("shared_pages", Value::UInt(self.shared_pages)),
                    ("dedup_hits", Value::UInt(self.dedup_hits)),
                    ("dedup_bytes_saved", Value::UInt(self.dedup_bytes_saved)),
                    ("hit_rate", Value::Float(self.shared_page_hit_rate())),
                    ("placement_routed", Value::UInt(self.placement_routed)),
                    ("slowed_invocations", Value::UInt(self.slowed_invocations)),
                    (
                        "contention_extra_ms",
                        Value::Float(self.contention_extra_ms),
                    ),
                    ("cold_starts", Value::UInt(self.cold_starts)),
                ],
            ));
        }
        if self.resilient {
            out.push(single_row(
                "fleet.resilience",
                vec![
                    ("host_crashes", Value::UInt(self.host_crashes)),
                    ("failovers", Value::UInt(self.failovers)),
                    ("hedges", Value::UInt(self.hedges)),
                    ("retries", Value::UInt(self.retries)),
                    (
                        "retry_amplification",
                        Value::Float(self.retry_amplification()),
                    ),
                    ("shed", Value::UInt(self.shed)),
                    ("degraded_restores", Value::UInt(self.degraded_restores)),
                    ("abandoned", Value::UInt(self.abandoned)),
                ],
            ));
        }
        if self.traced {
            out.push(self.spans_dataset());
        }
        if self.windowed {
            out.push(self.timeline_dataset());
        }
        out
    }
}

impl FleetRun {
    /// The `fleet.hosts` dataset: one row per host, in host order. The
    /// text table leaves out the warm-instance count.
    fn hosts_dataset(&self) -> Dataset {
        let mut hosts = Dataset::with_columns(
            "fleet.hosts",
            vec![
                Column::new("host", plain),
                Column::new("invocations", plain).titled("invocs"),
                Column::new("cold_starts", plain).titled("cold"),
                Column::new("warm_hits", plain).titled("warm"),
                Column::new("lukewarm_hits", plain).titled("lukewarm"),
                Column::new("mean_degree", fixed::<3>).titled("degree"),
                Column::new("mean_latency_ms", fixed::<3>).titled("mean ms"),
                Column::hidden("warm_instances"),
            ],
        );
        for s in &self.per_host {
            hosts.push_row(vec![
                Value::UInt(s.host as u64),
                Value::UInt(s.invocations),
                Value::UInt(s.cold_starts),
                Value::UInt(s.warm_hits),
                Value::UInt(s.lukewarm_hits),
                Value::Float(s.mean_degree),
                Value::Float(s.mean_latency_ms),
                Value::UInt(s.warm_instances as u64),
            ]);
        }
        hosts
    }

    /// The `fleet.spans` dataset: one row per recorded span.
    fn spans_dataset(&self) -> Dataset {
        let columns = [
            "trace", "span", "parent", "kind", "start_us", "dur_us", "a", "b",
        ];
        let mut spans = Dataset::new("fleet.spans", &columns);
        for s in &self.spans {
            spans.push_row(vec![
                Value::UInt(s.trace),
                Value::UInt(u64::from(s.id)),
                Value::UInt(u64::from(s.parent)),
                Value::UInt(s.kind as u64),
                Value::UInt(s.start_us),
                Value::UInt(s.dur_us),
                Value::UInt(s.a),
                Value::UInt(s.b),
            ]);
        }
        spans
    }

    /// The `fleet.timeline` dataset: one row per series window. Empty
    /// percentiles export as NaN, which the JSON writer renders null.
    fn timeline_dataset(&self) -> Dataset {
        let mut timeline = Dataset::new(
            "fleet.timeline",
            &[
                "window_start_ms",
                "arrivals",
                "p50_ms",
                "p99_ms",
                "shed_rate",
                "slo_burn",
                "cold_frac",
                "luke_frac",
                "warm_frac",
            ],
        );
        for r in &self.timeline {
            timeline.push_row(vec![
                Value::Float(r.start_ms),
                Value::UInt(r.arrivals),
                Value::Float(r.p50_ms.unwrap_or(f64::NAN)),
                Value::Float(r.p99_ms.unwrap_or(f64::NAN)),
                Value::Float(r.shed_rate),
                Value::Float(r.slo_burn),
                Value::Float(r.cold_frac),
                Value::Float(r.luke_frac),
                Value::Float(r.warm_frac),
            ]);
        }
        timeline
    }
}

impl std::fmt::Display for FleetComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.base)?;
        write!(f, "{}", self.jukebox)?;
        writeln!(f, "jukebox mean-latency speedup: {:.3}x", self.speedup())
    }
}

impl Export for FleetComparison {
    fn datasets(&self) -> Vec<Dataset> {
        let mut out = Vec::new();
        for (tag, run) in [("base", &self.base), ("jukebox", &self.jukebox)] {
            for mut ds in run.datasets() {
                ds.name = format!("{}.{tag}", ds.name);
                out.push(ds);
            }
        }
        let mut speedup = Dataset::new("fleet.speedup", &["policy", "hosts", "speedup"]);
        speedup.push_row(vec![
            Value::str(self.base.policy.label()),
            Value::UInt(self.base.hosts as u64),
            Value::Float(self.speedup()),
        ]);
        out.push(speedup);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    fn quick_config() -> FleetConfig {
        FleetConfig {
            hosts: 4,
            invocations: 4_000,
            population: 40,
            ..FleetConfig::default()
        }
    }

    fn model() -> ServiceModel {
        ServiceModel::analytic(&paper_suite()).unwrap()
    }

    #[test]
    fn conservation_every_invocation_is_accounted_for() {
        let run = run_fleet(&quick_config(), &model(), false).unwrap();
        assert_eq!(run.invocations, 4_000);
        assert_eq!(
            run.cold_starts + run.warm_hits + run.lukewarm_hits,
            run.invocations
        );
        assert_eq!(run.completed, run.invocations); // no faults configured
        assert_eq!(run.abandoned, 0);
        assert_eq!(run.latency_us.count(), run.invocations);
        let by_host: u64 = run.per_host.iter().map(|h| h.invocations).sum();
        assert_eq!(by_host, run.invocations);
        assert_eq!(run.snapshot.counter("fleet.invocations"), run.invocations);
        assert_eq!(run.snapshot.gauge("fleet.hosts"), Some(4.0));
    }

    #[test]
    fn empty_latency_histogram_reports_zero_percentiles() {
        let mut run = run_fleet(&quick_config(), &model(), false).unwrap();
        assert!(run.p50_ms() > 0.0);
        assert!(run.p99_ms() >= run.p50_ms());
        // A run whose histogram tracked nothing (every arrival shed)
        // must report 0, not panic inside the percentile lookup.
        run.latency_us = Histogram::new();
        assert_eq!(run.p50_ms(), 0.0);
        assert_eq!(run.p99_ms(), 0.0);
    }

    #[test]
    fn keep_alive_aware_beats_round_robin_on_lukewarm_fraction() {
        let m = model();
        let kaa = run_fleet(
            &FleetConfig {
                policy: RoutingPolicy::KeepAliveAware,
                ..quick_config()
            },
            &m,
            false,
        )
        .unwrap();
        let rr = run_fleet(
            &FleetConfig {
                policy: RoutingPolicy::RoundRobin,
                ..quick_config()
            },
            &m,
            false,
        )
        .unwrap();
        // Scattering functions across hosts multiplies per-host gaps and
        // first-touch cold starts.
        assert!(
            kaa.lukewarm_fraction() < rr.lukewarm_fraction(),
            "kaa {} vs rr {}",
            kaa.lukewarm_fraction(),
            rr.lukewarm_fraction()
        );
        assert!(
            kaa.cold_start_rate() < rr.cold_start_rate(),
            "kaa {} vs rr {}",
            kaa.cold_start_rate(),
            rr.cold_start_rate()
        );
    }

    #[test]
    fn jukebox_pair_shows_speedup_over_identical_traffic() {
        let pair = run_fleet_pair(&quick_config(), &model()).unwrap();
        // Same traffic, same routing, same cold starts — only warm
        // pricing differs.
        assert_eq!(pair.base.cold_starts, pair.jukebox.cold_starts);
        assert_eq!(pair.base.invocations, pair.jukebox.invocations);
        assert!(pair.speedup() > 1.0, "speedup {}", pair.speedup());
    }

    #[test]
    fn default_run_computes_memory_but_exports_no_prewarm_dataset() {
        let run = run_fleet(&quick_config(), &model(), false).unwrap();
        assert!(!run.prewarmed);
        assert!(run.memory_ms > 0.0, "fixed policies have a memory bill too");
        assert_eq!(run.prewarm_spawns, 0);
        assert!(!luke_obs::export::to_json(&run.datasets()).contains("fleet.prewarm"));
    }

    #[test]
    fn prewarm_run_exports_the_prewarm_dataset() {
        let config = FleetConfig {
            keep_alive_ms: 30_000.0,
            prewarm: luke_predict::PrewarmConfig::default_enabled(),
            ..quick_config()
        };
        let run = run_fleet(&config, &model(), false).unwrap();
        assert!(run.prewarmed);
        assert!(run.early_decays > 0, "the adaptive policy never engaged");
        let json = luke_obs::export::to_json(&run.datasets());
        assert!(json.contains("fleet.prewarm"));
        assert!(json.contains("memory_instance_s"));
        assert!(run.snapshot.counter("predict.early_decays") > 0);
    }

    #[test]
    fn tenancy_run_exports_the_tenancy_dataset_and_dedup_pays_off() {
        let m = model();
        let base = run_fleet(&quick_config(), &m, false).unwrap();
        assert!(!base.tenant);
        assert!(!luke_obs::export::to_json(&base.datasets()).contains("fleet.tenancy"));
        let config = FleetConfig {
            cold_start_model: luke_snapshot::ColdStartModel::ReapPrefetch,
            tenancy: luke_tenancy::TenancyConfig::dedup_enabled(),
            ..quick_config()
        };
        let run = run_fleet(&config, &m, false).unwrap();
        assert!(run.tenant);
        assert!(run.shared_pages > 0, "suite functions share runtime pages");
        assert!(run.dedup_hits > 0, "co-resident instances must dedup");
        assert!(run.shared_page_hit_rate() > 0.0);
        let json = luke_obs::export::to_json(&run.datasets());
        assert!(json.contains("fleet.tenancy"));
        assert!(json.contains("dedup_bytes_saved"));
        assert!(run.snapshot.counter("tenancy.dedup_hits") == run.dedup_hits);
        // Deduped restores skip resident pages and deduped footprints
        // weigh less: the memory bill must shrink against the same
        // traffic without tenancy.
        let full = run_fleet(
            &FleetConfig {
                cold_start_model: luke_snapshot::ColdStartModel::ReapPrefetch,
                ..quick_config()
            },
            &m,
            false,
        )
        .unwrap();
        assert!(
            run.memory_ms < full.memory_ms,
            "dedup {} vs full {}",
            run.memory_ms,
            full.memory_ms
        );
        assert!(
            run.mean_latency_ms() <= full.mean_latency_ms(),
            "shared restores must not cost extra: {} vs {}",
            run.mean_latency_ms(),
            full.mean_latency_ms()
        );
    }

    #[test]
    fn contention_pressure_slows_crowded_hosts() {
        let m = model();
        let config = FleetConfig {
            tenancy: luke_tenancy::TenancyConfig {
                contention: luke_tenancy::ContentionConfig {
                    // Tight capacity so a 40-function population on 4
                    // hosts crosses the knee.
                    capacity_bytes: 4 << 20,
                    ..luke_tenancy::ContentionConfig::default_enabled()
                },
                ..luke_tenancy::TenancyConfig::default_enabled()
            },
            ..quick_config()
        };
        let run = run_fleet(&config, &m, false).unwrap();
        assert!(
            run.slowed_invocations > 0,
            "pressure never crossed the knee"
        );
        assert!(run.contention_extra_ms > 0.0);
        let base = run_fleet(&quick_config(), &m, false).unwrap();
        assert!(
            run.mean_latency_ms() > base.mean_latency_ms(),
            "contention {} vs base {}",
            run.mean_latency_ms(),
            base.mean_latency_ms()
        );
        assert_eq!(
            run.snapshot.counter("tenancy.slowed_invocations"),
            run.slowed_invocations
        );
    }

    #[test]
    fn placement_aware_consolidates_languages_and_counts_routes() {
        let m = model();
        let config = FleetConfig {
            policy: RoutingPolicy::PlacementAware,
            cold_start_model: luke_snapshot::ColdStartModel::ReapPrefetch,
            tenancy: luke_tenancy::TenancyConfig::dedup_enabled(),
            ..quick_config()
        };
        let run = run_fleet(&config, &m, false).unwrap();
        assert_eq!(run.placement_routed, run.invocations);
        assert_eq!(
            run.snapshot.counter("fleet.placement_routed"),
            run.placement_routed
        );
        assert!(run.shared_page_hit_rate() > 0.0);
        // The affinity credit makes a host that already carries a
        // language *more* attractive, so functions stop wandering to
        // whichever host is momentarily lightest — fewer first-touch
        // cold starts than pure least-loaded.
        let ll = run_fleet(
            &FleetConfig {
                policy: RoutingPolicy::LeastLoaded,
                ..config
            },
            &m,
            false,
        )
        .unwrap();
        assert_eq!(ll.placement_routed, 0);
        assert!(
            run.cold_starts < ll.cold_starts,
            "placement-aware {} vs least-loaded {}",
            run.cold_starts,
            ll.cold_starts
        );
    }

    #[test]
    fn adaptive_policy_spends_less_memory_than_its_fixed_cap() {
        let m = model();
        let fixed = run_fleet(&quick_config(), &m, false).unwrap();
        let adaptive = run_fleet(
            &FleetConfig {
                prewarm: luke_predict::PrewarmConfig::default_enabled(),
                ..quick_config()
            },
            &m,
            false,
        )
        .unwrap();
        // Same traffic, same 10-minute cap: early decay can only shed
        // residency the fixed window would have held.
        assert!(
            adaptive.memory_ms < fixed.memory_ms,
            "adaptive {} vs fixed {}",
            adaptive.memory_ms,
            fixed.memory_ms
        );
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped_to_hosts() {
        let run = run_fleet(
            &FleetConfig {
                threads: 64,
                ..quick_config()
            },
            &model(),
            false,
        )
        .unwrap();
        assert_eq!(run.invocations, 4_000);
    }

    #[test]
    fn invalid_config_is_rejected_before_any_work() {
        let err = run_fleet(
            &FleetConfig {
                hosts: 0,
                ..quick_config()
            },
            &model(),
            false,
        );
        assert!(err.is_err());
    }

    use crate::chaos::ChaosConfig;
    use crate::route::HedgeConfig;
    use crate::traffic::SurgeConfig;
    use server::{AdmissionConfig, RetryBudget, RetryPolicy};

    fn chaotic_config() -> FleetConfig {
        FleetConfig {
            chaos: ChaosConfig {
                host_mtbf_ms: 15_000.0,
                crash_downtime_ms: 3_000.0,
                degrade_mtbf_ms: 20_000.0,
                degrade_duration_ms: 4_000.0,
                degrade_slowdown: 2.0,
            },
            hedge: HedgeConfig {
                enabled: true,
                max_fraction: 0.1,
            },
            retry_budget: RetryBudget::new(10.0, 0.1).unwrap(),
            ..quick_config()
        }
    }

    #[test]
    fn chaos_crashes_hosts_and_routing_fails_over() {
        let run = run_fleet(&chaotic_config(), &model(), false).unwrap();
        assert!(run.resilient);
        assert!(run.host_crashes > 0, "15s MTBF over ~50s must crash");
        assert!(run.failovers > 0, "open breakers must divert traffic");
        assert_eq!(run.snapshot.counter("fleet.host_crashes"), run.host_crashes);
        assert_eq!(run.snapshot.counter("fleet.failovers"), run.failovers);
        let datasets = run.datasets();
        assert_eq!(datasets.len(), 3, "resilience dataset must appear");
        assert_eq!(datasets[2].name, "fleet.resilience");
        // Hedged pairs collapse to one histogram entry each; shed
        // arrivals to none. Served = non-hedged + joined pairs.
        assert!(run.latency_us.count() <= run.invocations);
    }

    #[test]
    fn default_run_exports_no_resilience_series() {
        let run = run_fleet(&quick_config(), &model(), false).unwrap();
        assert!(!run.resilient);
        assert_eq!(run.datasets().len(), 2);
        let json = run.snapshot.to_json();
        for key in [
            "fleet.host_crashes",
            "fleet.failovers",
            "admission.",
            "fleet.retries",
        ] {
            assert!(!json.contains(key), "{key} leaked into a default run");
        }
    }

    #[test]
    fn tight_admission_sheds_and_survives() {
        let run = run_fleet(
            &FleetConfig {
                admission: AdmissionConfig {
                    enabled: true,
                    reserved_concurrency: 1,
                    burst_concurrency: 0,
                    host_concurrency: 2,
                    memory_pressure_instances: 0,
                },
                surge: SurgeConfig {
                    flash_multiplier: 30.0,
                    flash_start_ms: 0.0,
                    flash_duration_ms: 60_000.0,
                    ..SurgeConfig::none()
                },
                ..quick_config()
            },
            &model(),
            false,
        )
        .unwrap();
        assert!(
            run.shed > 0,
            "a 30x flash crowd over 1-deep limits must shed"
        );
        assert_eq!(run.snapshot.counter("admission.shed"), run.shed);
        assert_eq!(
            run.invocations + run.shed,
            4_000,
            "shed + served = arrivals"
        );
    }

    #[test]
    fn permanently_down_fleet_is_a_typed_error() {
        let err = run_fleet(
            &FleetConfig {
                hosts: 1,
                chaos: ChaosConfig {
                    // Crash almost immediately, stay down for the whole
                    // run: every arrival lands inside the outage.
                    host_mtbf_ms: 0.001,
                    crash_downtime_ms: 1e9,
                    ..ChaosConfig::none()
                },
                ..quick_config()
            },
            &model(),
            false,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(format!("{err}").contains("all hosts down"), "{err}");
    }

    #[test]
    fn sampled_run_emits_exact_critical_path_span_trees() {
        let config = FleetConfig {
            trace_sample: 4,
            series_window_ms: 5_000.0,
            series_slo_ms: 50.0,
            ..chaotic_config()
        };
        let run = run_fleet(&config, &model(), false).unwrap();
        assert!(run.traced && run.windowed);
        let datasets = run.datasets();
        let names: Vec<&str> = datasets.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"fleet.spans"));
        assert!(names.contains(&"fleet.timeline"));
        assert!(!run.spans.is_empty());
        assert!(!run.timeline.is_empty());
        let mut by_trace: BTreeMap<u64, Vec<&luke_obs::Span>> = BTreeMap::new();
        for s in &run.spans {
            by_trace.entry(s.trace).or_default().push(s);
        }
        for (trace, spans) in &by_trace {
            let roots: Vec<_> = spans.iter().filter(|s| s.id == 0).collect();
            assert_eq!(roots.len(), 1, "trace {trace} must have exactly one root");
            let children_us: u64 = spans.iter().filter(|s| s.id != 0).map(|s| s.dur_us).sum();
            assert_eq!(
                children_us, roots[0].dur_us,
                "trace {trace}: children must telescope to the root"
            );
        }
    }

    /// One optional layer of the power-set test: its name and how it
    /// switches itself on.
    type Layer = (&'static str, fn(&mut FleetConfig));

    const LAYERS: [Layer; 5] = [
        ("reap", |c| {
            c.cold_start_model = luke_snapshot::ColdStartModel::ReapPrefetch
        }),
        ("prewarm", |c| {
            c.keep_alive_ms = 30_000.0;
            c.prewarm = luke_predict::PrewarmConfig::default_enabled();
        }),
        ("tenancy", |c| {
            c.policy = RoutingPolicy::PlacementAware;
            c.tenancy = luke_tenancy::TenancyConfig::default_enabled();
        }),
        ("resilience", |c| {
            let chaotic = chaotic_config();
            c.chaos = chaotic.chaos;
            c.hedge = chaotic.hedge;
            c.retry_budget = chaotic.retry_budget;
            c.admission = AdmissionConfig {
                enabled: true,
                reserved_concurrency: 1,
                burst_concurrency: 0,
                host_concurrency: 2,
                memory_pressure_instances: 8,
            };
            c.surge = SurgeConfig {
                flash_multiplier: 10.0,
                flash_start_ms: 10_000.0,
                flash_duration_ms: 10_000.0,
                ..SurgeConfig::none()
            };
        }),
        ("observability", |c| {
            c.trace_sample = 4;
            c.series_window_ms = 5_000.0;
            c.series_slo_ms = 50.0;
        }),
    ];

    #[test]
    fn every_layer_combination_is_thread_count_invariant_and_conserves_arrivals() {
        let m = model();
        for mask in 0..1_u32 << LAYERS.len() {
            let mut config = quick_config();
            let mut on = Vec::new();
            for (bit, (name, enable)) in LAYERS.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    enable(&mut config);
                    on.push(*name);
                }
            }
            let one = run_fleet(&config, &m, false).unwrap();
            let three = run_fleet(
                &FleetConfig {
                    threads: 3,
                    ..config.clone()
                },
                &m,
                false,
            )
            .unwrap();
            assert_eq!(one.snapshot.to_json(), three.snapshot.to_json(), "{on:?}");
            assert_eq!(one.latency_us, three.latency_us, "{on:?}");
            assert_eq!(one.per_host, three.per_host, "{on:?}");
            assert_eq!(one.memory_ms.to_bits(), three.memory_ms.to_bits(), "{on:?}");
            assert_eq!(
                one.contention_extra_ms.to_bits(),
                three.contention_extra_ms.to_bits(),
                "{on:?}"
            );
            assert_eq!(
                luke_obs::export::to_json(&one.datasets()),
                luke_obs::export::to_json(&three.datasets()),
                "{on:?}"
            );
            // Every dispatched copy (arrivals plus hedge duplicates) ends
            // exactly one way: completed, abandoned or shed.
            assert_eq!(
                one.completed + one.abandoned + one.shed,
                config.invocations as u64 + one.hedges,
                "{on:?}"
            );
        }
    }

    #[test]
    fn retry_policy_is_validated_and_a_huge_attempt_cap_runs() {
        let faulty = FleetConfig {
            fault_rates: server::FaultRates {
                crash: 0.1,
                timeout: 0.05,
                cold_start_failure: 0.05,
                memory_pressure: 0.05,
            },
            trace_sample: 7,
            ..quick_config()
        };
        let base = RetryPolicy::default();
        // Each policy with the field validation must name, or `None`
        // when the run must complete.
        let cases = [
            (
                RetryPolicy {
                    max_attempts: 0,
                    ..base
                },
                Some("retry.max_attempts"),
            ),
            (
                RetryPolicy {
                    base_backoff_ms: f64::NAN,
                    ..base
                },
                Some("retry.base_backoff_ms"),
            ),
            (
                RetryPolicy {
                    deadline_ms: -1.0,
                    ..base
                },
                Some("retry.deadline_ms"),
            ),
            (
                RetryPolicy {
                    max_attempts: u64::MAX,
                    ..base
                },
                None,
            ),
        ];
        for (retry, expected) in cases {
            let config = FleetConfig {
                retry,
                ..faulty.clone()
            };
            match (expected, run_fleet(&config, &model(), false)) {
                (Some(expected), Err(SimError::InvalidConfig { field, .. })) => {
                    assert_eq!(field, expected);
                }
                (None, Ok(run)) => {
                    assert_eq!(run.completed + run.abandoned, 4_000);
                    assert!(run.traced);
                }
                (expected, other) => panic!("{retry:?} (expected {expected:?}): {other:?}"),
            }
        }
    }
}
