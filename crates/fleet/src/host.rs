//! One simulated host: an instance pool, a fault plan, and the
//! interleaving-degree estimate that prices every warm hit.
//!
//! A host is deliberately self-contained — it owns its pool, fault
//! stream, counters, histogram, span ring, and a private
//! [`CalendarQueue`] of timers (keep-alive expiries, adaptive-decay
//! re-checks, pre-warm restores), and consumes its pre-routed arrival
//! queue with no shared state. Timers drain at each arrival boundary in
//! `(time, kind, seq)` order, so everything between two arrivals is a
//! pure function of the host's own history. That is what makes the
//! fleet *embarrassingly deterministic*: hosts can be processed in any
//! order, on any number of threads, and merging their state in host-id
//! order reproduces the sequential run bit for bit.

use luke_common::rng::DetRng;
use luke_obs::span::{tick_us, trace_id, SpanKind, SpanRing, SpanScope};
use luke_obs::{Histogram, Registry, StartClass, TimeWindows};
use luke_predict::PredictorBank;
use luke_snapshot::{ColdStartModel, PageWorkingSet, SnapshotStore};
use server::{
    AdmissionControl, AdmissionDecision, AttemptCosts, FaultPlan, FaultStats, InstancePool,
    InvocationResult, RetryPolicy,
};

use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

use crate::chaos::{HostSchedule, HostState};
use crate::config::FleetConfig;
use crate::event::{CalendarQueue, FleetEvent, FleetEventKind};
use crate::tenant::HostTenancy;
use crate::timing::ServiceModel;
use crate::traffic::Population;

/// Seed-space tag for per-host fault plans.
const FAULT_STREAM: u64 = 0x66_6C_74; // "flt"
/// Seed-space tag for down-host reconnect backoff jitter.
const DOWN_STREAM: u64 = 0x646F_776E; // "down"
/// First span id the host side hands out: the root is id 0 and the
/// route-phase spans own ids 1–3.
const HOST_SPAN_FIRST_ID: u32 = 4;

/// A routed invocation waiting on a host's queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedInvocation {
    /// Arrival time, ms since fleet start.
    pub at_ms: f64,
    /// Logical function id (`id % profiles` = suite profile).
    pub function: usize,
    /// Fleet-wide dispatch sequence number (hedge copies share it; the
    /// merge joins them back together).
    pub dispatch: u64,
    /// Whether this is one copy of a hedged dispatch. Hedged copies are
    /// real load but report through [`FleetHost::hedge_outcomes`] so the
    /// merge can keep only the faster completion.
    pub hedge: bool,
    /// Whether this copy is the hedged *duplicate* (the second lane of
    /// the pair). The primary copy of a hedged dispatch has `hedge ==
    /// true, duplicate == false`; span trees use this to pick the lane.
    pub duplicate: bool,
}

impl RoutedInvocation {
    /// A plain (non-hedged) routed invocation.
    pub fn new(at_ms: f64, function: usize) -> Self {
        RoutedInvocation {
            at_ms,
            function,
            dispatch: 0,
            hedge: false,
            duplicate: false,
        }
    }
}

/// The fate of one hedged copy, joined across hosts at merge time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeOutcome {
    /// The dispatch id both copies share.
    pub dispatch: u64,
    /// The shared arrival time, ms (for time-series attribution).
    pub at_ms: f64,
    /// This copy's end-to-end latency, ms.
    pub latency_ms: f64,
    /// Whether this copy completed.
    pub completed: bool,
    /// How this copy's instance was found (cold/lukewarm/warm).
    pub class: StartClass,
}

/// One host's pre-warm state, present only when prediction is enabled
/// (`None` takes the exact fixed-keep-alive code path). The per-function
/// pre-warm times live in each [`FunctionState`].
#[derive(Clone, Debug)]
struct HostPrewarm {
    /// Predictive pre-warm / adaptive keep-alive policy bank, keyed by
    /// slot.
    bank: PredictorBank,
    /// Pre-restores actually spawned ahead of a predicted arrival.
    spawns: u64,
    /// Arrivals that landed on a pre-warmed instance.
    hits: u64,
}

impl HostPrewarm {
    /// The host's pre-warm state, or `None` with prediction off.
    fn new(config: &FleetConfig) -> Option<Self> {
        config.prewarm.enabled.then(|| HostPrewarm {
            bank: PredictorBank::new(config.prewarm, config.keep_alive_ms),
            spawns: 0,
            hits: 0,
        })
    }
}

/// One function's state on this host, pushed on its first arrival here.
/// Its slot (its index in [`FleetHost::records`]) also keys its warm
/// instance in the pool and its predictor and hold in the pre-warm bank;
/// everything derived from the function itself (profile, page layout,
/// snapshot record, admission priority) keeps using its id.
#[derive(Clone, Debug, PartialEq)]
struct FunctionState {
    /// The function's id.
    function: usize,
    /// Invocations of the function seen by this host — the "own rate"
    /// term of the interleaving estimate.
    invocations: u64,
    /// Retry-budget tokens (0, and never read, while the budget is
    /// unlimited).
    tokens: f64,
    /// The time of the function's expiry entry currently in the timer
    /// queue — the lazy-invalidation key, `0.0` meaning none (real
    /// deadlines are strictly positive). A popped entry whose time no
    /// longer matches was superseded by a re-key and is dropped; a
    /// matching entry re-checks the true idle predicate before acting,
    /// so at most one expiry entry per function does work.
    expiry_queued: f64,
    /// The simulated time a pending pre-restored instance becomes ready,
    /// while one is waiting untouched for its predicted arrival.
    prewarm_ready: Option<f64>,
    /// The scheduled time of the valid pre-warm timer, if any. Each
    /// model observation *replaces* the function's pending pre-restore,
    /// so updating this key is what cancels a stale timer still sitting
    /// in the queue.
    prewarm_pending: Option<f64>,
    /// Most recent observed restore (or boot) cost, ms — the lead time
    /// pre-warms are back-dated by.
    last_restore_ms: f64,
}

impl FunctionState {
    /// `function`'s state before its first arrival.
    fn new(config: &FleetConfig, function: usize) -> Self {
        let budget = &config.retry_budget;
        FunctionState {
            function,
            invocations: 0,
            tokens: if budget.is_limited() {
                budget.initial_tokens()
            } else {
                0.0
            },
            expiry_queued: 0.0,
            prewarm_ready: None,
            prewarm_pending: None,
            // Until a restore is observed, pre-warms are back-dated by
            // the flat boot cost — the only estimate available cold.
            last_restore_ms: config.cold_start_ms,
        }
    }
}

/// One invocation's state as it moves through the host's stages (see
/// [`FleetHost::process_scoped`]). Each stage reads what the earlier
/// ones decided and fills in its own part.
struct Invocation<'s, 'r> {
    routed: RoutedInvocation,
    /// The function's slot on this host.
    slot: usize,
    /// Where this invocation's spans record (disabled when unsampled).
    scope: &'s mut SpanScope<'r>,
    /// Suite profile that prices the function.
    profile: usize,
    /// Host-local sequence number: keys the fault and jitter streams.
    seq: u64,
    /// The function's retry-budget tokens at arrival (0 when unlimited).
    tokens: f64,
    /// Attempts allowed in total, reconnects and fault retries alike.
    allowed_attempts: u64,
    /// Time spent reconnecting to a down host, ms.
    down_wait_ms: f64,
    /// Reconnects spent against a down host.
    down_retries: u64,
    /// Admission's memory-pressure rung: restore by lazy paging.
    degrade_restore: bool,
    /// Whether no live instance was found (or it was just evicted).
    starts_cold: bool,
    /// How the instance was found.
    class: StartClass,
    /// Execution time, ms.
    service_ms: f64,
    /// Boot or restore time a spawn pays, ms.
    cold_start_ms: f64,
    /// Whether an instance crash struck during execution.
    crashed: bool,
}

/// One host's complete simulation state.
#[derive(Clone, Debug)]
pub struct FleetHost {
    /// This host's index in the fleet (also its shard-merge position).
    pub host_id: usize,
    /// Per function id: 1 + its slot, or 0 while it has never arrived
    /// here. The only table sized by the population; zero-filled, so
    /// the pages of functions a host never sees stay unfaulted.
    slots: Vec<u32>,
    /// Per slot: the state of each function seen here, in first-arrival
    /// order.
    records: Vec<FunctionState>,
    /// The warm pool, keyed by slot: at most one live instance each.
    pool: InstancePool,
    faults: FaultPlan,
    /// Total invocations processed.
    pub invocations: u64,
    /// Invocations that found no live instance (or lost it to a fault).
    pub cold_starts: u64,
    /// Warm hits below the lukewarm threshold.
    pub warm_hits: u64,
    /// Warm hits at or above the lukewarm threshold — the paper's
    /// lukewarm invocations.
    pub lukewarm_hits: u64,
    /// Sum of interleaving degrees over all warm hits.
    pub degree_sum: f64,
    /// Interleaving degree of the most recent warm hit (0 before any).
    last_warm_degree: f64,
    /// Sum of end-to-end latencies, ms.
    pub latency_sum_ms: f64,
    /// End-to-end latency distribution, µs.
    pub latency_us: Histogram,
    /// Fault-layer tallies.
    pub fault_stats: FaultStats,
    /// This host's chaos timeline (empty without chaos).
    schedule: HostSchedule,
    /// Next crash boundary to apply (index into the schedule).
    next_crash: usize,
    /// Whole-host crashes applied: pool wiped, keep-alive state gone.
    pub host_crashes: u64,
    /// Reconnect retries burned against down-windows.
    pub down_retries: u64,
    /// Invocations abandoned because the host stayed down past the
    /// retry budget.
    pub down_failures: u64,
    /// Outcomes of hedged copies, joined fleet-wide at merge time.
    pub hedge_outcomes: Vec<HedgeOutcome>,
    /// Span trees of this host's sampled invocations (empty ring when
    /// tracing is off).
    pub spans: SpanRing,
    /// This host's windowed time-series (disabled when the window is 0).
    pub series: TimeWindows,
    /// SLO threshold the series' burn rate counts against, ms (0 = none).
    series_slo_ms: f64,
    /// Admission controller (present only when enabled).
    admission: Option<AdmissionControl>,
    /// Seed for down-host reconnect backoff jitter.
    chaos_seed: u64,
    /// Whether any resilience knob is on — gates the resilience series
    /// so disabled runs export byte-identical telemetry.
    resilient: bool,
    /// Pre-warm and adaptive keep-alive state (present only when
    /// prediction is enabled).
    prewarm: Option<HostPrewarm>,
    /// The host's private calendar queue: keep-alive expiries,
    /// adaptive-decay re-checks, and pre-warm timers, drained at each
    /// arrival boundary (see [`crate::event`]). Each event carries its
    /// function's slot.
    timers: CalendarQueue,
    /// Cross-function page sharing and contention state (present only
    /// when some tenancy knob is on; `None` takes the exact pre-tenancy
    /// code path).
    tenancy: Option<HostTenancy>,
}

/// Per-host span-ring capacity: generous enough that no sampled trace is
/// ever overwritten, even if routing skews every sampled dispatch (and
/// its hedge copy) onto one host. The ring allocates lazily, so the
/// bound is free until spans actually record. Saturating: a huge
/// attempt cap must not wrap the bound small.
fn span_capacity(config: &FleetConfig) -> usize {
    if config.trace_sample == 0 {
        return 0;
    }
    // Worst case per lane: a restore + execute + backoff per attempt,
    // plus reconnects, the admission verdict and the root.
    let per_lane = config
        .retry
        .max_attempts
        .saturating_mul(3)
        .saturating_add(8);
    let per_lane = usize::try_from(per_lane).unwrap_or(usize::MAX);
    let sampled = config.invocations / config.trace_sample as usize + 1;
    sampled.saturating_mul(2).saturating_mul(per_lane)
}

/// The paper suite's page working sets, built once per process and
/// shared read-only by every host's snapshot store: the suite is fixed,
/// so a fleet of any size holds one table.
fn suite_working_sets() -> Arc<[PageWorkingSet]> {
    static TABLE: OnceLock<Arc<[PageWorkingSet]>> = OnceLock::new();
    Arc::clone(TABLE.get_or_init(|| {
        workloads::paper_suite()
            .iter()
            .map(PageWorkingSet::from_profile)
            .collect()
    }))
}

/// The admission-priority table every host of `config` enforces — a pure
/// function of the config (the router derives the same classes), so a
/// run builds it once and shares it among all its hosts. Empty with
/// admission off.
pub fn admission_priorities(config: &FleetConfig) -> Arc<[u8]> {
    if config.admission.enabled {
        Population::synthesize(config).priorities().into()
    } else {
        Arc::from([])
    }
}

impl FleetHost {
    /// Builds host `host_id`, deriving its admission priorities from
    /// `config` — see [`FleetHost::with_priorities`], which a caller
    /// building many hosts should use with one shared table.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid — call `config.validate()` first
    /// (run-level entry points do).
    pub fn new(config: &FleetConfig, host_id: usize) -> Self {
        Self::with_priorities(config, host_id, &admission_priorities(config))
    }

    /// Builds host `host_id` sharing `priorities` as its admission table
    /// (from [`admission_priorities`]; ignored with admission off). The
    /// fault stream is split from the fleet seed per host; all-zero
    /// rates get the bit-transparent [`FaultPlan::none`] so a
    /// fault-free fleet never touches fault RNG state. Nothing but the
    /// function→slot index is sized by the population: per-function
    /// state is built as functions arrive.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid — call `config.validate()` first
    /// (run-level entry points do).
    pub fn with_priorities(config: &FleetConfig, host_id: usize, priorities: &Arc<[u8]>) -> Self {
        let mut pool = InstancePool::try_new(config.keep_alive_ms)
            .expect("config validated upstream: keep_alive_ms");
        // Snapshot models price each routed cold start as a restore of
        // the suite profile's page working set; `Instant` leaves the
        // pool untouched so the pre-snapshot numbers reproduce bit for
        // bit.
        if config.cold_start_model != ColdStartModel::Instant {
            let store = SnapshotStore::try_new(
                config.cold_start_model,
                config.snapshot_timings,
                suite_working_sets(),
            )
            .expect("config validated upstream: snapshot_timings");
            pool = pool.with_snapshots(store);
        }
        let faults = if config.fault_rates == server::FaultRates::zero() {
            FaultPlan::none()
        } else {
            let seed = DetRng::new(config.seed)
                .split(FAULT_STREAM)
                .split(host_id as u64)
                .seed();
            FaultPlan::new(seed, config.fault_rates)
                .expect("config validated upstream: fault_rates")
        };
        let admission = config
            .admission
            .enabled
            .then(|| AdmissionControl::new(config.admission, Arc::clone(priorities)));
        FleetHost {
            host_id,
            slots: vec![0; config.population],
            records: Vec::new(),
            pool,
            faults,
            invocations: 0,
            cold_starts: 0,
            warm_hits: 0,
            lukewarm_hits: 0,
            degree_sum: 0.0,
            last_warm_degree: 0.0,
            latency_sum_ms: 0.0,
            latency_us: Histogram::new(),
            fault_stats: FaultStats::default(),
            schedule: HostSchedule::synthesize(config, host_id),
            next_crash: 0,
            host_crashes: 0,
            down_retries: 0,
            down_failures: 0,
            hedge_outcomes: Vec::new(),
            spans: SpanRing::with_capacity(span_capacity(config)),
            series: TimeWindows::new(config.series_window_ms),
            series_slo_ms: config.series_slo_ms,
            admission,
            chaos_seed: DetRng::new(config.seed)
                .split(DOWN_STREAM)
                .split(host_id as u64)
                .seed(),
            resilient: config.resilience_enabled(),
            prewarm: HostPrewarm::new(config),
            timers: CalendarQueue::new(),
            tenancy: HostTenancy::new(config),
        }
    }

    /// The slot of `function` on this host, pushing its record on its
    /// first arrival here.
    fn slot_of(&mut self, config: &FleetConfig, function: usize) -> usize {
        match self.slots[function] {
            0 => {
                self.records.push(FunctionState::new(config, function));
                // Fits: `FleetConfig::validate` bounds the population
                // by `u32::MAX`.
                self.slots[function] = self.records.len() as u32;
                self.records.len() - 1
            }
            seen => seen as usize - 1,
        }
    }

    /// Applies every chaos crash boundary at or before `at` (see
    /// [`FleetHost::crash`]).
    fn apply_crash_boundaries(&mut self, at: f64) {
        while self.next_crash < self.schedule.crash_count()
            && self.schedule.crash_start(self.next_crash) <= at
        {
            self.crash();
            self.next_crash += 1;
        }
    }

    /// One whole-host crash: the pool is wiped (in-flight work fails,
    /// snapshots-in-memory and keep-alive state are gone), with every
    /// pre-warmed instance's ready time and every page registration, so
    /// every function starts cold afterwards. What the host learned
    /// about each function (counts, tokens, models, pending timers)
    /// survives.
    fn crash(&mut self) {
        self.pool.evict_all();
        for record in &mut self.records {
            record.prewarm_ready = None;
        }
        if let Some(tenancy) = self.tenancy.as_mut() {
            tenancy.clear_resident();
        }
        self.host_crashes += 1;
    }

    /// Records one invocation's terminal accounting: totals, and the
    /// histogram or hedge-outcome side list.
    fn retire(&mut self, inv: &Invocation, latency_ms: f64, completed: bool) -> f64 {
        let (routed, class) = (inv.routed, inv.class);
        self.invocations += 1;
        self.records[inv.slot].invocations += 1;
        if routed.hedge {
            // Hedge copies report through the side list; the merge joins
            // the pair and records the winner (histogram and series).
            self.hedge_outcomes.push(HedgeOutcome {
                dispatch: routed.dispatch,
                at_ms: routed.at_ms,
                latency_ms,
                completed,
                class,
            });
        } else {
            self.latency_sum_ms += latency_ms;
            let latency_us = (latency_ms * 1000.0).round() as u64;
            self.latency_us.record(latency_us);
            self.series
                .record_outcome(routed.at_ms, latency_us, class, self.over_slo(latency_ms));
        }
        latency_ms
    }

    /// Whether `latency_ms` blew the series SLO (false when no SLO set).
    fn over_slo(&self, latency_ms: f64) -> bool {
        self.series_slo_ms > 0.0 && latency_ms > self.series_slo_ms
    }

    /// Takes (and clears) the pending-prewarm ready time in `slot`.
    /// Always `None` when prediction is disabled.
    fn take_prewarm_ready(&mut self, slot: usize) -> Option<f64> {
        self.records[slot].prewarm_ready.take()
    }

    /// Shareable pages of `function` already resident on this host —
    /// the restore discount. Always 0 with tenancy off (or dedup off),
    /// which prices the restore identically to the pre-tenancy path.
    fn tenancy_resident(&self, function: usize) -> usize {
        self.tenancy
            .as_ref()
            .map_or(0, |tenancy| tenancy.resident_pages(function))
    }

    /// Registers the pages of the freshly-spawned instance in `slot` and
    /// weights its pool memory accounting by the deduped fraction. No-op
    /// with tenancy off (weight stays at the spawn default 1.0).
    fn tenancy_register(&mut self, slot: usize) {
        if let Some(tenancy) = self.tenancy.as_mut() {
            let weight = tenancy.register(self.records[slot].function);
            self.pool.set_weight(slot, weight);
        }
    }

    /// Tears down the live instance in `slot`: expired at `expired_at`
    /// (residency credited through that deadline) or, with `None`,
    /// forcibly evicted. The function is left with no live instance, no
    /// pending pre-warm ready time and no page registration (its pages
    /// are registered exactly while it has a live instance, so they are
    /// released only when the pool had one to retire).
    fn drop_instance(&mut self, slot: usize, expired_at: Option<f64>) {
        let retired = match expired_at {
            Some(deadline_ms) => self.pool.expire_with_deadline(slot, deadline_ms),
            None => self.pool.evict(slot),
        };
        self.take_prewarm_ready(slot);
        if let (true, Some(tenancy)) = (retired, self.tenancy.as_mut()) {
            tenancy.release(self.records[slot].function);
        }
    }

    /// The keep-alive hold in force for `slot`: its adaptive hold under
    /// prediction, the pool's global window otherwise.
    fn hold_for(&self, slot: usize) -> f64 {
        match &self.prewarm {
            Some(prewarm) => prewarm.bank.hold(slot),
            None => self.pool.keep_alive_ms(),
        }
    }

    /// Registers `deadline_ms` as the expiry deadline of the instance in
    /// `slot`, queued as a `kind` entry. If an entry that fires no later
    /// is already queued, only the deadline moves — the queued entry
    /// re-checks the idle predicate when it fires and re-arms itself at
    /// the true deadline, so a hot function keeps a single long-lived
    /// entry instead of one per invocation.
    fn schedule_expiry(&mut self, slot: usize, deadline_ms: f64, kind: FleetEventKind) {
        let queued = &mut self.records[slot].expiry_queued;
        if *queued == 0.0 || *queued > deadline_ms {
            *queued = deadline_ms;
            self.timers.push(deadline_ms, kind, slot as u32);
        }
    }

    /// Re-keys the expiry in `slot` after a model observation moved its
    /// hold without an invocation (the shed path): a tightened hold
    /// needs an adaptive-decay re-check at the earlier deadline, while
    /// a raised hold rides on the outstanding entry (which revalidates
    /// when it fires).
    fn resync_expiry(&mut self, slot: usize) {
        let Some(last) = self.pool.last_invoked_ms(slot) else {
            return;
        };
        let deadline = last + self.hold_for(slot);
        self.schedule_expiry(slot, deadline, FleetEventKind::AdaptiveDecay);
    }

    /// Pops and fires every timer due at the arrival boundary `at`: all
    /// events strictly before it, plus pre-warm timers scheduled
    /// exactly at it. (Pre-warm firing was inclusive in the polled
    /// implementation; expiry stays strict because the keep-alive
    /// predicate is `idle > hold`. The [`FleetEventKind::rank`] order
    /// makes the pre-warm reachable at the heap head when both share an
    /// instant.)
    fn drain_timers(&mut self, at: f64) {
        let due = |next: &FleetEvent| {
            next.time_ms < at || (next.time_ms == at && next.kind == FleetEventKind::PrewarmTimer)
        };
        while let Some(event) = self.timers.pop_if(due) {
            let slot = event.function as usize;
            match event.kind {
                FleetEventKind::PrewarmTimer => self.fire_prewarm(slot, event.time_ms, at),
                FleetEventKind::KeepAliveExpiry | FleetEventKind::AdaptiveDecay => {
                    self.fire_expiry(slot, event.time_ms, at);
                }
            }
        }
    }

    /// A keep-alive expiry (or adaptive-decay re-check) popped at
    /// `fired_ms` while processing the arrival at `at`. Lazy
    /// invalidation: the entry only acts if it still carries the
    /// function's queued-entry key, and the true predicate is re-checked
    /// against the hold in force — an entry that fired ahead of the real
    /// deadline (the instance was re-invoked, or its hold grew) re-arms
    /// itself there instead of expiring. A genuine expiry credits
    /// residency through the deadline, exactly what the lazy sweep used
    /// to charge.
    fn fire_expiry(&mut self, slot: usize, fired_ms: f64, at: f64) {
        let queued = &mut self.records[slot].expiry_queued;
        if *queued != fired_ms {
            return;
        }
        *queued = 0.0;
        if let Some(deadline_ms) = self.expire_if_lapsed(slot, at) {
            self.schedule_expiry(slot, deadline_ms, FleetEventKind::KeepAliveExpiry);
        }
    }

    /// Expires the live instance in `slot` if it will have lapsed by `at`
    /// under the hold in force, crediting residency through its
    /// deadline. Returns the deadline of an instance that survives, or
    /// `None` when the function is left with no live instance.
    fn expire_if_lapsed(&mut self, slot: usize, at: f64) -> Option<f64> {
        let last = self.pool.last_invoked_ms(slot)?;
        let hold = self.hold_for(slot);
        if at - last > hold {
            self.drop_instance(slot, Some(last + hold));
            return None;
        }
        Some(last + hold)
    }

    /// A pre-warm timer popped at its scheduled time `t_pre` while
    /// processing the arrival at `at`. If the function's instance will
    /// have lapsed by `at`, it is retired first (the polled
    /// implementation swept before firing pre-warms); if it genuinely
    /// survives this arrival, the pre-restore buys nothing and is
    /// dropped. Otherwise a restored instance spawns back-dated to
    /// `t_pre`, leaving its ready time behind so an arrival that beats
    /// the restore pays the residual wait.
    fn fire_prewarm(&mut self, slot: usize, t_pre: f64, at: f64) {
        // Only a host under prediction ever sets a pending time.
        let record = &mut self.records[slot];
        if record.prewarm_pending != Some(t_pre) {
            return;
        }
        record.prewarm_pending = None;
        if self.expire_if_lapsed(slot, at).is_some() {
            // The instance survived after all (e.g. the hold was raised
            // by a later observation): nothing to pre-warm.
            return;
        }
        let function = self.records[slot].function;
        let resident = self.tenancy_resident(function);
        let restore_ms = self
            .pool
            .spawn_restored_shared(slot, function, t_pre, resident);
        self.tenancy_register(slot);
        let snapshots = self.pool.snapshots().is_some();
        let record = &mut self.records[slot];
        // Without a snapshot store the pre-boot still takes the flat
        // cold-start time before the instance is ready.
        let cost_ms = if snapshots {
            restore_ms
        } else {
            record.last_restore_ms
        };
        record.prewarm_ready = Some(t_pre + cost_ms);
        record.last_restore_ms = cost_ms;
        if let Some(prewarm) = self.prewarm.as_mut() {
            prewarm.spawns += 1;
        }
        let deadline_ms = t_pre + self.hold_for(slot);
        self.schedule_expiry(slot, deadline_ms, FleetEventKind::KeepAliveExpiry);
    }

    /// Processes one routed invocation and returns its end-to-end
    /// latency in milliseconds.
    pub fn process(
        &mut self,
        config: &FleetConfig,
        model: &ServiceModel,
        jukebox: bool,
        routed: RoutedInvocation,
    ) -> f64 {
        // The span ring leaves `self` for the duration so the recording
        // scope can borrow it while the host mutates its own state.
        let mut spans = std::mem::take(&mut self.spans);
        let mut off = SpanRing::disabled();
        let ring = if config.samples(routed.dispatch) {
            &mut spans
        } else {
            &mut off
        };
        let trace = trace_id(routed.dispatch, routed.duplicate);
        let mut scope = SpanScope::new(ring, trace, HOST_SPAN_FIRST_ID);
        let latency_ms = self.process_scoped(config, model, jukebox, routed, &mut scope);
        self.spans = spans;
        latency_ms
    }

    /// [`FleetHost::process`] with an explicit span-recording scope: a
    /// fixed sequence of stages over one invocation's context. A stage
    /// that ends the invocation early (abandonment on a down host, a
    /// shed) breaks with the latency to report.
    fn process_scoped(
        &mut self,
        config: &FleetConfig,
        model: &ServiceModel,
        jukebox: bool,
        routed: RoutedInvocation,
        scope: &mut SpanScope<'_>,
    ) -> f64 {
        let mut inv = self.arrive(config, model, routed, scope);
        if let ControlFlow::Break(latency_ms) = self.connect(config, &mut inv) {
            return latency_ms;
        }
        self.observe(&inv);
        if let ControlFlow::Break(latency_ms) = self.admit(&mut inv) {
            return latency_ms;
        }
        self.start(model, jukebox, &mut inv);
        self.stretch(config, &mut inv);
        let result = self.execute(config, &mut inv);
        self.settle(config, &mut inv, result)
    }

    /// Opens the invocation's context: finds the function's slot (a first
    /// arrival here pushes its record), counts the arrival in the series
    /// (hedge copies are duplicate load, not arrivals — the merge
    /// records the joined pair once) and reads the retry allowance.
    fn arrive<'s, 'r>(
        &mut self,
        config: &FleetConfig,
        model: &ServiceModel,
        routed: RoutedInvocation,
        scope: &'s mut SpanScope<'r>,
    ) -> Invocation<'s, 'r> {
        if !routed.hedge {
            self.series.record_arrival(routed.at_ms);
        }
        let slot = self.slot_of(config, routed.function);
        let tokens = self.records[slot].tokens;
        let budget = &config.retry_budget;
        Invocation {
            routed,
            slot,
            scope,
            profile: routed.function % model.functions(),
            seq: self.invocations,
            tokens,
            allowed_attempts: budget.allowed_attempts(tokens, config.retry.max_attempts),
            down_wait_ms: 0.0,
            down_retries: 0,
            degrade_restore: false,
            starts_cold: false,
            // An invocation abandoned before `start` reports as cold.
            class: StartClass::Cold,
            service_ms: 0.0,
            // Until `start` prices it, a spawn costs the flat boot time.
            cold_start_ms: config.cold_start_ms,
            crashed: false,
        }
    }

    /// Stage 1, connect: applies chaos crash boundaries; on a host in a
    /// down window, retries the connection with bounded exponential
    /// backoff until the host is back or the allowance is spent, and
    /// breaks with the wait as latency if it never came back. Jitter
    /// comes from a per-invocation split stream, so the wait is a pure
    /// function of (seed, host, invocation). A no-op without chaos.
    fn connect(&mut self, config: &FleetConfig, inv: &mut Invocation) -> ControlFlow<f64> {
        let at = inv.routed.at_ms;
        self.apply_crash_boundaries(at);
        if self.schedule.is_none() || self.schedule.state_at(at) != HostState::Down {
            return ControlFlow::Continue(());
        }
        let mut rng = DetRng::new(self.chaos_seed).split(inv.seq);
        let down_at = |wait_ms: f64| self.schedule.state_at(at + wait_ms) == HostState::Down;
        // Reconnect spans tile [0, down_wait) exactly; the last one is
        // flagged when the wait ends in abandonment — the allowance is
        // spent and the host is still down.
        while inv.down_retries + 1 < inv.allowed_attempts && down_at(inv.down_wait_ms) {
            let from_ms = inv.down_wait_ms;
            inv.down_retries += 1;
            inv.down_wait_ms += config.retry.bounded_backoff_ms(inv.down_retries, &mut rng);
            if inv.scope.is_enabled() {
                let spent = inv.down_retries + 1 >= inv.allowed_attempts;
                let flag = u64::from(spent && down_at(inv.down_wait_ms));
                let (to_ms, retry) = (inv.down_wait_ms, inv.down_retries);
                inv.scope
                    .child(SpanKind::Reconnect, from_ms, to_ms, retry, flag);
            }
        }
        self.down_retries += inv.down_retries;
        if !down_at(inv.down_wait_ms) {
            return ControlFlow::Continue(());
        }
        // Still down with nothing left to spend: abandoned without ever
        // executing.
        self.down_failures += 1;
        self.fault_stats.abandoned += 1;
        self.settle_budget(config, inv, inv.down_retries, false);
        inv.scope
            .root(inv.down_wait_ms, self.host_id as u64, tick_us(at));
        ControlFlow::Break(self.retire(inv, inv.down_wait_ms, false))
    }

    /// Stage 2, observe: fires every timer due at this arrival boundary
    /// in calendar order — keep-alive expiries retire idle instances with
    /// the deadline credit the lazy sweep used to charge, pre-restores
    /// spawn back-dated instances — then shows the arrival to the
    /// predictor. Every live instance keeps a queued expiry entry at or
    /// before its true deadline, so the drain alone reproduces the old
    /// per-arrival sweep's strict `at − last > hold` predicate exactly.
    /// Without prediction only the drain runs.
    fn observe(&mut self, inv: &Invocation) {
        let (at, slot) = (inv.routed.at_ms, inv.slot);
        self.drain_timers(at);
        let Some(prewarm) = self.prewarm.as_mut() else {
            return;
        };
        let record = &mut self.records[slot];
        let scheduled = prewarm.bank.observe(slot, at, record.last_restore_ms);
        // Each observation replaces the function's pending pre-restore;
        // moving the key cancels any stale timer still in the queue.
        record.prewarm_pending = scheduled;
        if let Some(t_pre) = scheduled {
            self.timers
                .push(t_pre, FleetEventKind::PrewarmTimer, slot as u32);
        }
    }

    /// Stage 3, admit: the admission ladder decides before any pool
    /// state is touched. A degraded admit marks the restore for lazy
    /// paging; a shed breaks with latency 0, since the invocation never
    /// executes. Every arrival passes without admission control.
    fn admit(&mut self, inv: &mut Invocation) -> ControlFlow<f64> {
        let Some(ctl) = self.admission.as_mut() else {
            return ControlFlow::Continue(());
        };
        let (at, function) = (inv.routed.at_ms, inv.routed.function);
        let verdict = match ctl.decide(at, function, self.pool.warm_count()) {
            AdmissionDecision::Admit => 0,
            AdmissionDecision::AdmitDegraded => {
                inv.degrade_restore = true;
                1
            }
            AdmissionDecision::Shed => 2,
        };
        inv.scope
            .instant(SpanKind::Admission, inv.down_wait_ms, verdict, 0);
        if verdict != 2 {
            return ControlFlow::Continue(());
        }
        if !inv.routed.hedge {
            self.series.record_shed(at);
        }
        // The observation may have tightened this function's hold
        // without an invocation to re-key it.
        self.resync_expiry(inv.slot);
        // A shed invocation's root covers only the reconnect wait it
        // burned getting here.
        inv.scope
            .root(inv.down_wait_ms, self.host_id as u64, tick_us(at));
        ControlFlow::Break(0.0)
    }

    /// Stage 4, start: the idle-gap eviction draw, then the start's
    /// classification and price — a cold boot or restore, an arrival
    /// on a pre-warmed instance, or a warm hit priced by its
    /// interleaving degree.
    fn start(&mut self, model: &ServiceModel, jukebox: bool, inv: &mut Invocation) {
        let (at, slot) = (inv.routed.at_ms, inv.slot);
        // A memory-pressure eviction during the idle gap takes the warm
        // instance away before the invocation lands. The fault plan only
        // draws (and counts) this on warm starts, so when we act on it
        // here — evicting from the pool and flipping to a cold start —
        // we take over the bookkeeping it would have done.
        if self.pool.is_warm(slot) && self.faults.evicted_before(inv.seq) {
            self.drop_instance(slot, None);
            self.fault_stats.evictions += 1;
        }
        // Taken on every path, so no ready time outlives this stage. (A
        // ready time only ever sits beside a live instance, so a cold
        // start finds none.)
        let prewarm_ready = self.take_prewarm_ready(slot);
        inv.service_ms = match (self.pool.invoke(slot, at), prewarm_ready) {
            (None, _) => self.start_cold(model, inv),
            (Some(_), Some(ready_ms)) => self.start_prewarmed(model, jukebox, inv, ready_ms),
            (Some(gap_ms), None) => self.start_warm(model, jukebox, inv, gap_ms),
        };
    }

    /// A cold start: spawns a fresh instance and returns its service
    /// time. Under `Instant` the spawn is a full boot priced by the flat
    /// config knob; the snapshot models replace it with the restore cost
    /// of bringing the working set back (lazy faults or a REAP prefetch
    /// of the recorded pages). A fresh container has nothing resident:
    /// full penalty, and Jukebox has no prior invocation to replay.
    fn start_cold(&mut self, model: &ServiceModel, inv: &mut Invocation) -> f64 {
        let (at, function, slot) = (inv.routed.at_ms, inv.routed.function, inv.slot);
        inv.starts_cold = true;
        let restore_ms = if inv.degrade_restore && self.pool.snapshots().is_some() {
            // Memory-pressure rung: restore by lazy paging instead of a
            // prefetch burst the pressured host can't afford. Pays the
            // full page count — a pressured host can't count on
            // co-resident sharing either.
            let spawned = self.pool.spawn_restored_degraded(slot, function, at);
            if let Some(ctl) = self.admission.as_mut() {
                ctl.note_degraded_restore();
            }
            spawned
        } else {
            // Pages already resident from co-located same-language
            // instances come off the restore bill (0 resident — the
            // disabled path — prices identically to pre-tenancy).
            let resident = self.tenancy_resident(function);
            self.pool
                .spawn_restored_shared(slot, function, at, resident)
        };
        self.tenancy_register(slot);
        if self.pool.snapshots().is_some() {
            inv.cold_start_ms = restore_ms;
        }
        // Keep the pre-warm lead-time estimate tracking the restore
        // model's actual pricing (read only under prediction).
        self.records[slot].last_restore_ms = inv.cold_start_ms;
        self.cold_starts += 1;
        inv.class = StartClass::Cold;
        model.service_ms(inv.profile, 1.0, false)
    }

    /// An arrival on an instance pre-restored ahead of it. Memory is up
    /// (no boot, no restore burst on the critical path — only the
    /// residual wait if the arrival beat the restore), but nothing is
    /// cache-resident from a *prior invocation*: microarchitecturally
    /// this is the paper's lukewarm case at full interleaving penalty,
    /// and Jukebox replays the snapshot's recorded history.
    fn start_prewarmed(
        &mut self,
        model: &ServiceModel,
        jukebox: bool,
        inv: &mut Invocation,
        ready_ms: f64,
    ) -> f64 {
        self.lukewarm_hits += 1;
        if let Some(prewarm) = self.prewarm.as_mut() {
            prewarm.hits += 1;
        }
        inv.class = StartClass::Lukewarm;
        self.degree_sum += 1.0;
        self.last_warm_degree = 1.0;
        (ready_ms - inv.routed.at_ms).max(0.0) + model.service_ms(inv.profile, 1.0, jukebox)
    }

    /// A warm hit: the gap `gap_ms` since the instance's last invocation
    /// and the host's cross-traffic rate give the interleaving degree,
    /// which classifies the hit as warm or lukewarm and prices it.
    fn start_warm(
        &mut self,
        model: &ServiceModel,
        jukebox: bool,
        inv: &mut Invocation,
        gap_ms: f64,
    ) -> f64 {
        let at = inv.routed.at_ms;
        let elapsed_sec = at / 1000.0;
        let other_per_sec = if elapsed_sec > 0.0 {
            let host_rate = self.invocations as f64 / elapsed_sec;
            let own_rate = self.records[inv.slot].invocations as f64 / elapsed_sec;
            (host_rate - own_rate).max(0.0)
        } else {
            0.0
        };
        let degree = model.degree(other_per_sec, gap_ms);
        if degree >= model.lukewarm_threshold {
            self.lukewarm_hits += 1;
            inv.class = StartClass::Lukewarm;
        } else {
            self.warm_hits += 1;
            inv.class = StartClass::Warm;
        }
        self.degree_sum += degree;
        self.last_warm_degree = degree;
        model.service_ms(inv.profile, degree, jukebox)
    }

    /// Stage 5, stretch: a degraded host (chaos) is up but slow —
    /// thermal throttling or a noisy neighbour stretches execution, not
    /// queueing or restores. Registered working sets crowding the host's
    /// memory (contention) slow every page access, execution and restore
    /// faults alike, by the contention curve's continuous factor.
    /// Without chaos and tenancy nothing changes.
    fn stretch(&mut self, config: &FleetConfig, inv: &mut Invocation) {
        let at = inv.routed.at_ms;
        if !self.schedule.is_none() && self.schedule.state_at(at) == HostState::Degraded {
            inv.service_ms *= config.chaos.degrade_slowdown;
        }
        let Some(tenancy) = self.tenancy.as_mut() else {
            return;
        };
        let slowdown = tenancy.slowdown();
        if slowdown > 1.0 {
            let before = inv.service_ms
                + if inv.starts_cold {
                    inv.cold_start_ms
                } else {
                    0.0
                };
            inv.service_ms *= slowdown;
            inv.cold_start_ms *= slowdown;
            let after = inv.service_ms
                + if inv.starts_cold {
                    inv.cold_start_ms
                } else {
                    0.0
                };
            tenancy.note_slowed(after - before);
        }
    }

    /// Stage 6, execute: the fault layer's attempt loop, given what the
    /// reconnects left of the allowance (always ≥ 1 attempt here).
    fn execute(&mut self, config: &FleetConfig, inv: &mut Invocation) -> InvocationResult {
        // Fast path: with the fault plan disabled nothing can strike (no
        // eviction, crash, timeout, or retry — none of their streams are
        // even drawn), and with the span scope disabled no child spans
        // are recorded. The fault layer would then charge exactly one
        // clean attempt; replicate it here without the attempt loop.
        // `0.0 + x == x` bit-exactly for the non-negative costs involved,
        // so the summed latency matches the layer's running accumulator.
        if !self.faults.is_enabled() && !inv.scope.is_enabled() {
            self.fault_stats.completed += 1;
            let boot_ms = if inv.starts_cold {
                inv.cold_start_ms
            } else {
                0.0
            };
            return InvocationResult {
                latency_ms: boot_ms + inv.service_ms,
                attempts: 1,
                completed: true,
            };
        }
        let costs = AttemptCosts {
            service_ms: inv.service_ms,
            cold_start_ms: inv.cold_start_ms,
            timeout_ms: config.timeout_ms,
            starts_cold: inv.starts_cold,
        };
        let policy = RetryPolicy {
            max_attempts: inv.allowed_attempts - inv.down_retries,
            ..config.retry
        };
        let crashes_before = self.fault_stats.crashes;
        let stats = &mut self.fault_stats;
        let (seq, base_ms) = (inv.seq, inv.down_wait_ms);
        let result = self
            .faults
            .run_invocation(&policy, seq, &costs, stats, inv.scope, base_ms);
        inv.crashed = self.fault_stats.crashes > crashes_before;
        result
    }

    /// Stage 7, settle: repairs the pool after a crash, re-keys the live
    /// instance's keep-alive expiry, settles the retry budget, commits
    /// the latency to admission control, closes the span tree and
    /// retires the invocation.
    fn settle(
        &mut self,
        config: &FleetConfig,
        inv: &mut Invocation,
        result: InvocationResult,
    ) -> f64 {
        let (at, function, slot) = (inv.routed.at_ms, inv.routed.function, inv.slot);
        // Crashes tear the instance down. If the retry layer recovered,
        // its final attempt ran on a fresh spawn; reflect that in the
        // pool. If it gave up, the function has no live instance left.
        if self.pool.is_warm(slot) {
            if inv.crashed || !result.completed {
                // `start` already took any pre-warm ready time, so the
                // teardown's take is a no-op here.
                self.drop_instance(slot, None);
            }
            if inv.crashed && result.completed {
                self.pool.spawn(slot, at);
                self.tenancy_register(slot);
            }
        }
        // Whatever instance is live now was just invoked at `at`: re-key
        // its keep-alive deadline under the hold in force.
        if self.pool.is_warm(slot) {
            let deadline_ms = at + self.hold_for(slot);
            self.schedule_expiry(slot, deadline_ms, FleetEventKind::KeepAliveExpiry);
        }
        let fault_retries = result.attempts.saturating_sub(1);
        self.settle_budget(
            config,
            inv,
            inv.down_retries + fault_retries,
            result.completed,
        );
        let latency_ms = inv.down_wait_ms + result.latency_ms;
        if let Some(ctl) = self.admission.as_mut() {
            ctl.commit(at, function, latency_ms);
        }
        // The root's tick duration equals the histogram's recorded value
        // exactly (same float, same rounding), and the children tiled
        // every contributing window — exact critical-path attribution.
        inv.scope.root(latency_ms, self.host_id as u64, tick_us(at));
        self.retire(inv, latency_ms, result.completed)
    }

    /// Settles `retries` spent attempts against the invocation's retry
    /// budget (a no-op when the budget is unlimited).
    fn settle_budget(&mut self, config: &FleetConfig, inv: &Invocation, retries: u64, done: bool) {
        if config.retry_budget.is_limited() {
            let mut level = inv.tokens;
            config.retry_budget.settle(&mut level, retries, done);
            self.records[inv.slot].tokens = level;
        }
    }

    /// Warm hits of either temperature.
    pub fn hits(&self) -> u64 {
        self.warm_hits + self.lukewarm_hits
    }

    /// Mean interleaving degree over warm hits (0 when there were none).
    pub fn mean_degree(&self) -> f64 {
        if self.hits() == 0 {
            0.0
        } else {
            self.degree_sum / self.hits() as f64
        }
    }

    /// Interleaving degree of the most recent warm hit (1 for an arrival
    /// on a pre-warmed instance; 0 before any hit). A caller pricing the
    /// same hit another way reads it here rather than re-deriving it.
    pub fn last_warm_degree(&self) -> f64 {
        self.last_warm_degree
    }

    /// Currently warm instances.
    pub fn warm_instances(&self) -> usize {
        self.pool.warm_count()
    }

    /// Warm-pool occupancy in instance-milliseconds through `end_ms`,
    /// priced under this host's holds in force (adaptive when
    /// prediction is on, the global keep-alive otherwise). Read-only —
    /// see [`server::InstancePool::residency_ms_through`].
    pub fn memory_ms_through(&self, end_ms: f64) -> f64 {
        self.pool.residency_ms_through(
            end_ms,
            self.prewarm.as_ref().map(|prewarm| prewarm.bank.holds()),
        )
    }

    /// Pre-restores the policy bank scheduled (0 when prediction is
    /// off; scheduled ≥ spawned, since a raised hold cancels a pending
    /// pre-warm).
    pub fn prewarms_scheduled(&self) -> u64 {
        self.prewarm
            .as_ref()
            .map_or(0, |prewarm| prewarm.bank.prewarms_scheduled())
    }

    /// Pre-restores actually spawned ahead of a predicted arrival (0
    /// when prediction is off).
    pub fn prewarm_spawns(&self) -> u64 {
        self.prewarm.as_ref().map_or(0, |prewarm| prewarm.spawns)
    }

    /// Arrivals that landed on a pre-warmed instance (0 when prediction
    /// is off).
    pub fn prewarm_hits(&self) -> u64 {
        self.prewarm.as_ref().map_or(0, |prewarm| prewarm.hits)
    }

    /// Arrivals processed while a tightened (below-cap) adaptive hold
    /// was in force (0 when prediction is off).
    pub fn early_decays(&self) -> u64 {
        self.prewarm
            .as_ref()
            .map_or(0, |prewarm| prewarm.bank.early_decays())
    }

    /// The admission controller, when admission control is enabled.
    pub fn admission(&self) -> Option<&AdmissionControl> {
        self.admission.as_ref()
    }

    /// The host's tenancy state, when some tenancy knob is enabled.
    pub fn tenancy(&self) -> Option<&HostTenancy> {
        self.tenancy.as_ref()
    }

    /// Contributes this host's telemetry: pool and fault counters,
    /// `fleet.*` lifecycle counters, and the latency histogram. Safe to
    /// call on per-shard registries that are later merged — everything
    /// is additive.
    pub fn fill_registry(&self, registry: &mut Registry) {
        self.pool.fill_registry(registry);
        self.fault_stats.fill_registry(registry);
        registry.counter_add("fleet.invocations", self.invocations);
        registry.counter_add("fleet.cold_starts", self.cold_starts);
        registry.counter_add("fleet.warm_hits", self.warm_hits);
        registry.counter_add("fleet.lukewarm_hits", self.lukewarm_hits);
        registry.hist_merge("fleet.latency_us", &self.latency_us);
        // The resilience series only exist when some resilience knob is
        // on — a disabled run must export byte-identical telemetry.
        if self.resilient {
            registry.counter_add("fleet.host_crashes", self.host_crashes);
            registry.counter_add(
                "fleet.retries",
                self.fault_stats.retries + self.down_retries,
            );
            registry.counter_add("fleet.down_failures", self.down_failures);
        }
        if let Some(ctl) = &self.admission {
            registry.counter_add("admission.admitted", ctl.admitted());
            registry.counter_add("admission.degraded_restores", ctl.degraded_restores());
            registry.counter_add("admission.shed", ctl.shed());
        }
        // The prediction series only exist when the policy is on — a
        // disabled run must export byte-identical telemetry.
        if let Some(prewarm) = &self.prewarm {
            registry.counter_add(
                "predict.prewarms_scheduled",
                prewarm.bank.prewarms_scheduled(),
            );
            registry.counter_add("predict.prewarm_spawns", prewarm.spawns);
            registry.counter_add("predict.prewarm_hits", prewarm.hits);
            registry.counter_add("predict.early_decays", prewarm.bank.early_decays());
        }
        // The tenancy series only exist when some tenancy knob is on —
        // a disabled run must export byte-identical telemetry.
        if let Some(tenancy) = &self.tenancy {
            registry.counter_add("tenancy.shared_pages", tenancy.shared_pages());
            registry.counter_add("tenancy.dedup_hits", tenancy.dedup_hits());
            registry.counter_add("tenancy.dedup_bytes_saved", tenancy.dedup_bytes_saved());
            registry.counter_add("tenancy.slowed_invocations", tenancy.slowed());
            // Total contention-added latency, rounded to whole ms — the
            // registry speaks integers.
            registry.counter_add(
                "tenancy.contention_slowdown",
                tenancy.extra_ms().round() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::ServiceModel;
    use luke_predict::Predictor;
    use workloads::paper_suite;

    fn setup() -> (FleetConfig, ServiceModel) {
        let config = FleetConfig {
            population: 10,
            ..FleetConfig::default()
        };
        let model = ServiceModel::analytic(&paper_suite()).unwrap();
        (config, model)
    }

    #[test]
    fn first_touch_is_cold_then_warm() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        let cold = host.process(&config, &model, false, RoutedInvocation::new(0.0, 3));
        assert_eq!(host.cold_starts, 1);
        assert_eq!(host.hits(), 0);
        let warm = host.process(&config, &model, false, RoutedInvocation::new(10.0, 3));
        assert_eq!(host.hits(), 1);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(host.invocations, 2);
        assert_eq!(host.warm_instances(), 1);
    }

    #[test]
    fn keep_alive_expiry_forces_a_new_cold_start() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        host.process(&config, &model, false, RoutedInvocation::new(0.0, 0));
        let later = config.keep_alive_ms + 1000.0;
        host.process(&config, &model, false, RoutedInvocation::new(later, 0));
        assert_eq!(host.cold_starts, 2);
        assert_eq!(host.hits(), 0);
    }

    #[test]
    fn long_gaps_classify_as_lukewarm_short_as_warm() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        // Foreign traffic so the interleaving estimate has pressure.
        for i in 0..2000 {
            let at = i as f64 * 2.0;
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(at, 1 + (i % 9)),
            );
        }
        host.process(&config, &model, false, RoutedInvocation::new(4000.0, 0));
        let before = (host.warm_hits, host.lukewarm_hits);
        // 1ms gap: caches still hot.
        host.process(&config, &model, false, RoutedInvocation::new(4001.0, 0));
        assert_eq!(host.warm_hits, before.0 + 1, "short gap should stay warm");
        // 10s gap inside keep-alive: lukewarm.
        host.process(&config, &model, false, RoutedInvocation::new(14_001.0, 0));
        assert_eq!(
            host.lukewarm_hits,
            before.1 + 1,
            "long gap should be lukewarm"
        );
    }

    #[test]
    fn jukebox_only_speeds_up_warm_traffic() {
        let (config, model) = setup();
        let mut base = FleetHost::new(&config, 0);
        let mut jb = FleetHost::new(&config, 0);
        let mut base_sum = 0.0;
        let mut jb_sum = 0.0;
        for i in 0..500 {
            let routed = RoutedInvocation::new(i as f64 * 50.0, i % 5);
            base_sum += base.process(&config, &model, false, routed);
            jb_sum += jb.process(&config, &model, true, routed);
        }
        assert_eq!(base.cold_starts, jb.cold_starts);
        assert!(jb_sum < base_sum, "jukebox {jb_sum} vs base {base_sum}");
    }

    #[test]
    fn fault_free_hosts_share_no_fault_state() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..100 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 10.0, i % 10),
            );
        }
        assert_eq!(host.fault_stats.total_faults(), 0);
        assert_eq!(host.fault_stats.completed, 100);
        assert_eq!(host.latency_us.count(), 100);
    }

    #[test]
    fn faulty_host_keeps_pool_and_liveness_consistent() {
        let (mut config, model) = setup();
        config.fault_rates = server::FaultRates {
            crash: 0.2,
            timeout: 0.1,
            cold_start_failure: 0.1,
            memory_pressure: 0.2,
        };
        config.validate().unwrap();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..500 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 10.0, i % 10),
            );
        }
        assert!(host.fault_stats.total_faults() > 0, "faults should strike");
        assert_eq!(host.fault_stats.completed + host.fault_stats.abandoned, 500);
        // The warm count covers exactly the warm slots, and each one
        // keeps a queued expiry entry no later than its true deadline.
        let warm: Vec<usize> = (0..host.records.len())
            .filter(|&slot| host.pool.is_warm(slot))
            .collect();
        assert!(!warm.is_empty());
        assert_eq!(warm.len(), host.warm_instances());
        for slot in warm {
            let deadline = host.pool.last_invoked_ms(slot).unwrap() + host.hold_for(slot);
            let queued = host.records[slot].expiry_queued;
            assert!(
                queued > 0.0 && queued <= deadline,
                "slot {slot}: expiry queued at {queued}, deadline {deadline}"
            );
        }
    }

    #[test]
    fn a_fresh_host_holds_no_records() {
        let (config, _) = setup();
        let host = FleetHost::new(&config, 0);
        assert!(host.records.is_empty());
        assert!(host.slots.iter().all(|&slot| slot == 0));
        assert_eq!(host.warm_instances(), 0);
    }

    #[test]
    fn records_follow_first_arrival_order() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        let stream = [7, 2, 7, 9, 2, 0, 9, 7];
        for (i, &function) in stream.iter().enumerate() {
            let routed = RoutedInvocation::new(i as f64 * 10.0, function);
            host.process(&config, &model, false, routed);
        }
        let seen: Vec<usize> = host.records.iter().map(|r| r.function).collect();
        assert_eq!(
            seen,
            vec![7, 2, 9, 0],
            "distinct functions, first-arrival order"
        );
        let counts: Vec<u64> = host.records.iter().map(|r| r.invocations).collect();
        assert_eq!(counts, vec![3, 2, 2, 1]);
        for (slot, record) in host.records.iter().enumerate() {
            assert_eq!(host.slots[record.function] as usize, slot + 1);
        }
        let unseen = (0..config.population).filter(|&f| host.slots[f] == 0);
        assert_eq!(unseen.count(), config.population - 4);
    }

    #[test]
    fn a_crash_clears_instances_ready_times_and_registrations_only() {
        use luke_predict::PrewarmConfig;
        use luke_tenancy::TenancyConfig;
        let (config, model) = setup();
        let config = FleetConfig {
            keep_alive_ms: 2_000.0,
            cold_start_model: ColdStartModel::ReapPrefetch,
            prewarm: PrewarmConfig {
                min_samples: 4,
                ..PrewarmConfig::default_enabled()
            },
            tenancy: TenancyConfig::default_enabled(),
            retry_budget: server::RetryBudget::new(10.0, 0.1).unwrap(),
            ..config
        };
        config.validate().unwrap();
        let mut host = FleetHost::new(&config, 0);
        // Functions 0 and 3 arrive on a strict 5 s period past the 2 s
        // keep-alive, so pre-restores are scheduled and spawned; 1 and 2
        // arrive every 500 ms and stay warm beside them.
        let mut arrivals = Vec::new();
        for i in 0..30 {
            let base = i as f64 * 5_000.0;
            arrivals.push((base, 0));
            arrivals.push((base + 2_500.0, 3));
            for k in 0..10 {
                arrivals.push((base + k as f64 * 500.0 + 1.0, 1));
                arrivals.push((base + k as f64 * 500.0 + 2.0, 2));
            }
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(at, function) in &arrivals {
            host.process(&config, &model, false, RoutedInvocation::new(at, function));
        }
        // Fire function 0's last pre-restore without an arrival consuming
        // it; function 3's is still pending.
        host.drain_timers(29.0 * 5_000.0 + 4_999.0);
        assert!(host.prewarm_spawns() > 0);
        let before = host.records.clone();
        let functions: Vec<usize> = before.iter().map(|r| r.function).collect();
        assert_eq!(functions, vec![0, 1, 2, 3]);
        assert!(
            before[0].prewarm_ready.is_some(),
            "a pre-restore is waiting"
        );
        assert!(
            before[3].prewarm_pending.is_some(),
            "a pre-restore is pending"
        );
        assert!(before.iter().all(|r| r.tokens > 0.0 && r.invocations > 0));
        assert!(before[..3].iter().all(|r| r.expiry_queued > 0.0));
        let bank = &host.prewarm.as_ref().unwrap().bank;
        let models: Vec<Predictor> = (0..4).map(|slot| bank.predictor(slot).clone()).collect();
        let holds = bank.holds().to_vec();
        assert!(holds.iter().any(|&hold| hold < config.keep_alive_ms));
        assert!(host.tenancy.as_ref().unwrap().resident_bytes() > 0);
        assert_eq!(host.warm_instances(), 3);

        host.crash();

        assert_eq!(host.host_crashes, 1);
        assert_eq!(host.warm_instances(), 0);
        assert!((0..4).all(|slot| !host.pool.is_warm(slot)));
        assert_eq!(host.tenancy.as_ref().unwrap().resident_bytes(), 0);
        let expected: Vec<FunctionState> = before
            .into_iter()
            .map(|record| FunctionState {
                prewarm_ready: None,
                ..record
            })
            .collect();
        assert_eq!(host.records, expected, "only the ready times cleared");
        let bank = &host.prewarm.as_ref().unwrap().bank;
        for (slot, model) in models.iter().enumerate() {
            assert_eq!(bank.predictor(slot), model);
        }
        assert_eq!(bank.holds(), &holds[..]);
    }

    #[test]
    fn reap_restores_are_cheaper_than_lazy_paging() {
        let (config, model) = setup();
        let lazy_config = FleetConfig {
            cold_start_model: ColdStartModel::LazyPaging,
            ..config.clone()
        };
        let reap_config = FleetConfig {
            cold_start_model: ColdStartModel::ReapPrefetch,
            ..config.clone()
        };
        let mut lazy = FleetHost::new(&lazy_config, 0);
        let mut reap = FleetHost::new(&reap_config, 0);
        let mut lazy_sum = 0.0;
        let mut reap_sum = 0.0;
        // Space invocations past keep-alive so every one restarts cold;
        // REAP has metadata from the second restore on.
        for i in 0..8 {
            let routed = RoutedInvocation::new(i as f64 * (config.keep_alive_ms + 1000.0), 0);
            lazy_sum += lazy.process(&lazy_config, &model, false, routed);
            reap_sum += reap.process(&reap_config, &model, false, routed);
        }
        assert_eq!(lazy.cold_starts, 8);
        assert_eq!(reap.cold_starts, 8);
        assert!(
            reap_sum < lazy_sum,
            "reap {reap_sum} should beat lazy {lazy_sum}"
        );
    }

    #[test]
    fn restore_model_and_jukebox_never_move_the_cold_warm_split() {
        // Expiry keys on arrival time, never on service or restore time,
        // so hosts that price starts differently still agree on which
        // arrivals start cold — what lets one stream drive several
        // hosts in lockstep.
        use server::{IatDistribution, TrafficGenerator};
        let (config, model) = setup();
        let config = FleetConfig {
            keep_alive_ms: 5_000.0,
            ..config
        };
        let distributions: Vec<IatDistribution> = (0..config.population)
            .map(|f| IatDistribution::Exponential {
                mean_ms: 500.0 * 1.5f64.powi(f as i32),
            })
            .collect();
        let mut hosts: Vec<(FleetConfig, bool, FleetHost)> = [
            ColdStartModel::Instant,
            ColdStartModel::LazyPaging,
            ColdStartModel::ReapPrefetch,
        ]
        .into_iter()
        .flat_map(|cold_start_model| {
            let config = FleetConfig {
                cold_start_model,
                ..config.clone()
            };
            [false, true].map(|jukebox| (config.clone(), jukebox, FleetHost::new(&config, 0)))
        })
        .collect();
        let events = TrafficGenerator::new(&distributions, 7).take_events(2_000);
        let mut cold = 0;
        for event in &events {
            let routed = RoutedInvocation::new(event.at_ms, event.instance);
            let flags: Vec<bool> = hosts
                .iter_mut()
                .map(|(config, jukebox, host)| {
                    let before = host.cold_starts;
                    host.process(config, &model, *jukebox, routed);
                    host.cold_starts > before
                })
                .collect();
            assert!(
                flags.iter().all(|&flag| flag == flags[0]),
                "cold/warm split diverged at {routed:?}: {flags:?}"
            );
            cold += usize::from(flags[0]);
        }
        assert!(
            cold > 50 && cold < events.len() - 50,
            "the stream must mix cold and warm starts: {cold} cold"
        );
    }

    #[test]
    fn instant_model_exports_no_snapshot_series() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..20 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 10.0, i % 10),
            );
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        assert!(
            !registry.snapshot().to_json().contains("snapshot."),
            "Instant hosts must not grow snapshot.* series"
        );
    }

    #[test]
    fn snapshot_hosts_export_restore_telemetry() {
        let (config, model) = setup();
        let config = FleetConfig {
            cold_start_model: ColdStartModel::ReapPrefetch,
            ..config
        };
        let mut host = FleetHost::new(&config, 0);
        for i in 0..20 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 10.0, i % 10),
            );
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("snapshot.restores"), host.cold_starts);
        assert!(snapshot.counter("snapshot.pages_recorded") > 0);
    }

    #[test]
    fn prewarmed_periodic_function_skips_the_cold_start() {
        use luke_predict::PrewarmConfig;
        let (config, model) = setup();
        let keep_alive_ms = 2_000.0;
        let plain_config = FleetConfig {
            keep_alive_ms,
            ..config.clone()
        };
        let prewarm_config = FleetConfig {
            keep_alive_ms,
            prewarm: PrewarmConfig {
                min_samples: 4,
                ..PrewarmConfig::default_enabled()
            },
            ..config
        };
        let mut plain = FleetHost::new(&plain_config, 0);
        let mut warm = FleetHost::new(&prewarm_config, 0);
        // Strict 5 s period, far past the 2 s keep-alive: without
        // prediction every arrival is a cold boot; with it, the
        // periodicity head schedules a pre-restore before each one.
        for i in 0..40 {
            let routed = RoutedInvocation::new(i as f64 * 5_000.0, 0);
            plain.process(&plain_config, &model, false, routed);
            warm.process(&prewarm_config, &model, false, routed);
        }
        assert_eq!(plain.cold_starts, 40);
        assert!(
            warm.prewarm_hits() > 30,
            "prewarm hits {} of 40 arrivals",
            warm.prewarm_hits()
        );
        assert!(warm.cold_starts < 10, "cold starts {}", warm.cold_starts);
        assert!(
            warm.latency_sum_ms < plain.latency_sum_ms,
            "prewarmed {} vs plain {}",
            warm.latency_sum_ms,
            plain.latency_sum_ms
        );
    }

    #[test]
    fn disabled_prewarm_keeps_the_exact_fixed_keep_alive_state() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..200 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 25.0, i % 10),
            );
        }
        assert_eq!(host.prewarm_spawns(), 0);
        assert_eq!(host.prewarm_hits(), 0);
        assert_eq!(host.prewarms_scheduled(), 0);
        assert_eq!(host.early_decays(), 0);
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        assert!(
            !registry.snapshot().to_json().contains("predict."),
            "disabled hosts must not grow predict.* series"
        );
    }

    #[test]
    fn prewarm_registry_series_appear_when_enabled() {
        use luke_predict::PrewarmConfig;
        let (config, model) = setup();
        let config = FleetConfig {
            keep_alive_ms: 2_000.0,
            prewarm: PrewarmConfig {
                min_samples: 4,
                ..PrewarmConfig::default_enabled()
            },
            ..config
        };
        let mut host = FleetHost::new(&config, 0);
        for i in 0..40 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 5_000.0, 0),
            );
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("predict.prewarm_spawns"),
            host.prewarm_spawns()
        );
        assert_eq!(
            snapshot.counter("predict.prewarm_hits"),
            host.prewarm_hits()
        );
        assert!(snapshot.counter("predict.early_decays") > 0);
    }

    #[test]
    fn memory_accounting_tracks_the_pool() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..50 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 100.0, i % 10),
            );
        }
        // 10 functions resident from their first touch through the
        // horizon (all gaps far inside keep-alive).
        let end_ms = 4_900.0;
        let memory = host.memory_ms_through(end_ms);
        assert!(memory > 0.0);
        assert!(
            memory <= 10.0 * end_ms,
            "{memory} exceeds 10 instances × horizon"
        );
    }

    #[test]
    fn registry_contribution_is_additive() {
        let (config, model) = setup();
        let mut host = FleetHost::new(&config, 0);
        for i in 0..50 {
            host.process(
                &config,
                &model,
                false,
                RoutedInvocation::new(i as f64 * 20.0, i % 10),
            );
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("fleet.invocations"), 50);
        assert_eq!(
            snapshot.counter("fleet.cold_starts")
                + snapshot.counter("fleet.warm_hits")
                + snapshot.counter("fleet.lukewarm_hits"),
            50
        );
    }

    #[test]
    fn shared_priority_table_builds_the_host_new_builds() {
        let (mut config, model) = setup();
        config.cold_start_model = ColdStartModel::ReapPrefetch;
        config.admission = server::AdmissionConfig {
            enabled: true,
            reserved_concurrency: 1,
            burst_concurrency: 1,
            host_concurrency: 2,
            memory_pressure_instances: 3,
        };
        let priorities = admission_priorities(&config);
        assert_eq!(priorities.len(), config.population);
        let mut built = FleetHost::new(&config, 3);
        let mut shared = FleetHost::with_priorities(&config, 3, &priorities);
        for i in 0..400 {
            let routed = RoutedInvocation::new(i as f64 * 0.5, i % 10);
            built.process(&config, &model, false, routed);
            shared.process(&config, &model, false, routed);
        }
        let export = |host: &FleetHost| {
            let mut registry = Registry::new();
            host.fill_registry(&mut registry);
            registry.snapshot().to_json()
        };
        assert_eq!(export(&built), export(&shared));
        assert!(
            export(&built).contains("admission."),
            "admission must engage"
        );
        // Admission off: the table is empty and never consulted.
        config.admission = server::AdmissionConfig::disabled();
        assert!(admission_priorities(&config).is_empty());
    }
}
