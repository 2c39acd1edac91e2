//! Seeded fault injection and bounded retry for host-level simulations.
//!
//! Real serverless fleets lose instances mid-invocation, time requests
//! out, fail cold starts, and evict warm instances under memory pressure —
//! exactly the events that turn warm invocations into lukewarm or cold
//! ones. This module injects those events *deterministically*: whether a
//! fault strikes invocation `n` is a pure function of `(seed, kind, n)`,
//! derived through [`DetRng::split`], so a run is reproducible bit-for-bit
//! from its seed and a [`FaultPlan::none`] plan touches no random stream
//! at all — disabled injection is indistinguishable from the fault layer
//! not existing.

use luke_common::rng::DetRng;
use luke_common::SimError;
use luke_obs::span::{SpanKind, SpanScope};
use luke_obs::Registry;

/// The kinds of fault the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The instance dies partway through executing an invocation.
    InstanceCrash,
    /// The invocation exceeds its deadline and is killed.
    InvocationTimeout,
    /// Spawning a new instance fails (image pull error, node pressure).
    ColdStartFailure,
    /// A warm instance is reclaimed between invocations to relieve host
    /// memory pressure, forcing the next arrival to cold-start.
    MemoryPressureEviction,
}

impl FaultKind {
    /// Stable label used to derive this kind's independent random stream.
    fn stream_label(self) -> u64 {
        match self {
            FaultKind::InstanceCrash => 0x11,
            FaultKind::InvocationTimeout => 0x22,
            FaultKind::ColdStartFailure => 0x33,
            FaultKind::MemoryPressureEviction => 0x44,
        }
    }

    /// All kinds, for iteration in tests and reports.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::InstanceCrash,
        FaultKind::InvocationTimeout,
        FaultKind::ColdStartFailure,
        FaultKind::MemoryPressureEviction,
    ];
}

/// Per-kind injection probabilities, each per opportunity (crash, timeout:
/// per attempt; cold-start failure: per spawn; eviction: per invocation
/// gap).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRates {
    /// Probability an attempt crashes the instance mid-run.
    pub crash: f64,
    /// Probability an attempt hits its deadline and is killed.
    pub timeout: f64,
    /// Probability a required spawn fails outright.
    pub cold_start_failure: f64,
    /// Probability the warm instance was evicted during the idle gap
    /// before this invocation.
    pub memory_pressure: f64,
}

impl FaultRates {
    /// All rates zero.
    pub fn zero() -> Self {
        FaultRates {
            crash: 0.0,
            timeout: 0.0,
            cold_start_failure: 0.0,
            memory_pressure: 0.0,
        }
    }

    /// The same rate for every kind.
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            crash: rate,
            timeout: rate,
            cold_start_failure: rate,
            memory_pressure: rate,
        }
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::InstanceCrash => self.crash,
            FaultKind::InvocationTimeout => self.timeout,
            FaultKind::ColdStartFailure => self.cold_start_failure,
            FaultKind::MemoryPressureEviction => self.memory_pressure,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        let fields = [
            ("fault.crash", self.crash),
            ("fault.timeout", self.timeout),
            ("fault.cold_start_failure", self.cold_start_failure),
            ("fault.memory_pressure", self.memory_pressure),
        ];
        for (name, rate) in fields {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(SimError::invalid_config(
                    name,
                    format!("fault rate must be in [0, 1], got {rate}"),
                ));
            }
        }
        Ok(())
    }
}

/// A deterministic, seeded fault plan (see module docs).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    root: DetRng,
    rates: FaultRates,
    enabled: bool,
}

impl FaultPlan {
    /// A plan that injects nothing and draws no randomness. Running with
    /// this plan is bit-identical to running without a fault layer.
    pub fn none() -> Self {
        FaultPlan {
            root: DetRng::new(0),
            rates: FaultRates::zero(),
            enabled: false,
        }
    }

    /// Creates a plan, rejecting rates outside `[0, 1]`.
    pub fn new(seed: u64, rates: FaultRates) -> Result<Self, SimError> {
        rates.validate()?;
        Ok(FaultPlan {
            root: DetRng::new(seed),
            rates,
            enabled: true,
        })
    }

    /// Whether any fault can ever strike.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The plan's rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Whether fault `kind` strikes opportunity `n` of invocation
    /// `invocation`.
    ///
    /// A pure function of `(seed, kind, invocation, n)`: draws never
    /// consume shared state, so adding or removing a fault kind cannot
    /// perturb another kind's stream, and a zero rate draws nothing.
    pub fn strikes(&self, kind: FaultKind, invocation: u64, n: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let rate = self.rates.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        self.stream(kind, invocation, n).chance(rate)
    }

    /// Whether the warm instance serving `invocation` was evicted during
    /// the preceding idle gap (so the invocation cold-starts).
    pub fn evicted_before(&self, invocation: u64) -> bool {
        self.strikes(FaultKind::MemoryPressureEviction, invocation, 0)
    }

    /// Independent random stream for one fault opportunity; also used for
    /// draws *within* a struck fault (crash point, retry jitter).
    fn stream(&self, kind: FaultKind, invocation: u64, n: u64) -> DetRng {
        self.root
            .split(kind.stream_label())
            .split(invocation)
            .split(n)
    }

    /// Runs one logical invocation through the plan with bounded retries.
    ///
    /// `costs` gives the latency model for a single attempt; `stats`
    /// accumulates what struck. The result's latency covers every attempt
    /// plus backoff between them.
    ///
    /// Each attempt's snapshot restore, execution and retry backoff is
    /// recorded into `spans` as a child covering *exactly* the latency
    /// window it contributed, offset by `base_ms` (the down-host wait the
    /// caller already charged before the fault layer ran). A failed
    /// spawn is a `Restore` span with `b = 1`; a crash or a timeout is an
    /// `Execute` span with `b = 1` or `b = 2`. Callers that do not trace
    /// pass a scope over a disabled ring.
    ///
    /// Every boundary is computed as `base_ms + latency_ms` on the same
    /// running float the result reports, so the children's tick durations
    /// telescope to exactly the tick of the final end-to-end latency —
    /// the invariant the span critical-path tests assert. Span recording
    /// never draws randomness, so a disabled scope produces the same
    /// result and stats as an enabled one.
    pub fn run_invocation(
        &self,
        policy: &RetryPolicy,
        invocation: u64,
        costs: &AttemptCosts,
        stats: &mut FaultStats,
        spans: &mut SpanScope<'_>,
        base_ms: f64,
    ) -> InvocationResult {
        let mut latency_ms = 0.0;
        // A memory-pressure eviction during the idle gap forces a cold
        // start even if the caller expected a warm instance.
        let mut needs_spawn = costs.starts_cold || self.evicted_before(invocation);
        if !costs.starts_cold && needs_spawn {
            stats.evictions += 1;
        }

        let mut attempt: u64 = 0;
        loop {
            let fault = self.attempt_fault(invocation, attempt, needs_spawn, costs, stats);
            match fault {
                None => {
                    if needs_spawn {
                        let from = base_ms + latency_ms;
                        latency_ms += costs.cold_start_ms;
                        spans.child(SpanKind::Restore, from, base_ms + latency_ms, attempt, 0);
                    }
                    let from = base_ms + latency_ms;
                    latency_ms += costs.service_ms;
                    spans.child(SpanKind::Execute, from, base_ms + latency_ms, attempt, 0);
                    stats.completed += 1;
                    return InvocationResult {
                        latency_ms,
                        attempts: attempt + 1,
                        completed: true,
                    };
                }
                Some((kind, wasted_ms)) => {
                    let from = base_ms + latency_ms;
                    let spawn_ms = if needs_spawn {
                        costs.cold_start_ms
                    } else {
                        0.0
                    };
                    latency_ms += wasted_ms;
                    let to = base_ms + latency_ms;
                    match kind {
                        // The spawn itself failed: the whole waste is the
                        // restore attempt.
                        FaultKind::ColdStartFailure => {
                            spans.child(SpanKind::Restore, from, to, attempt, 1);
                        }
                        // Crash/timeout strike *after* any spawn: split
                        // the waste at the spawn boundary.
                        FaultKind::InstanceCrash => {
                            if needs_spawn {
                                spans.child(SpanKind::Restore, from, from + spawn_ms, attempt, 0);
                            }
                            spans.child(SpanKind::Execute, from + spawn_ms, to, attempt, 1);
                        }
                        FaultKind::InvocationTimeout => {
                            if needs_spawn {
                                spans.child(SpanKind::Restore, from, from + spawn_ms, attempt, 0);
                            }
                            spans.child(SpanKind::Execute, from + spawn_ms, to, attempt, 2);
                        }
                        FaultKind::MemoryPressureEviction => {}
                    }
                    // A crash tears the instance down; the retry must
                    // spawn a fresh one.
                    if kind == FaultKind::InstanceCrash {
                        needs_spawn = true;
                    }
                    attempt += 1;
                    let backoff =
                        policy.backoff_ms(attempt, &mut self.stream(kind, invocation, attempt));
                    if !policy.allows(attempt, latency_ms + backoff) {
                        stats.abandoned += 1;
                        return InvocationResult {
                            latency_ms,
                            attempts: attempt,
                            completed: false,
                        };
                    }
                    stats.retries += 1;
                    let from = base_ms + latency_ms;
                    latency_ms += backoff;
                    spans.child(SpanKind::Backoff, from, base_ms + latency_ms, attempt, 0);
                }
            }
        }
    }

    /// Draws the faults for one attempt in a fixed priority order and
    /// returns the first that strikes, with the latency it wasted.
    fn attempt_fault(
        &self,
        invocation: u64,
        attempt: u64,
        needs_spawn: bool,
        costs: &AttemptCosts,
        stats: &mut FaultStats,
    ) -> Option<(FaultKind, f64)> {
        if needs_spawn && self.strikes(FaultKind::ColdStartFailure, invocation, attempt) {
            stats.cold_start_failures += 1;
            // A failed spawn is detected after the full spawn overhead.
            return Some((FaultKind::ColdStartFailure, costs.cold_start_ms));
        }
        let spawn_ms = if needs_spawn {
            costs.cold_start_ms
        } else {
            0.0
        };
        if self.strikes(FaultKind::InstanceCrash, invocation, attempt) {
            stats.crashes += 1;
            // The crash point is uniform over the attempt's service time.
            let frac = self
                .stream(FaultKind::InstanceCrash, invocation, attempt)
                .unit();
            return Some((FaultKind::InstanceCrash, spawn_ms + frac * costs.service_ms));
        }
        if self.strikes(FaultKind::InvocationTimeout, invocation, attempt) {
            stats.timeouts += 1;
            // A timed-out invocation burns its whole deadline.
            return Some((FaultKind::InvocationTimeout, spawn_ms + costs.timeout_ms));
        }
        None
    }
}

/// Latency model for one invocation attempt, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttemptCosts {
    /// Fault-free run-to-completion time.
    pub service_ms: f64,
    /// Spawn overhead charged when no live instance exists.
    pub cold_start_ms: f64,
    /// Deadline after which the platform kills the attempt.
    pub timeout_ms: f64,
    /// Whether the first attempt already requires a spawn.
    pub starts_cold: bool,
}

/// Outcome of [`FaultPlan::run_invocation`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvocationResult {
    /// End-to-end latency across all attempts and backoff.
    pub latency_ms: f64,
    /// Attempts made (1 = no retry needed).
    pub attempts: u64,
    /// Whether any attempt succeeded before the policy gave up.
    pub completed: bool,
}

/// Counts of what the plan injected and how the retry layer responded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Mid-invocation instance crashes.
    pub crashes: u64,
    /// Invocation deadline kills.
    pub timeouts: u64,
    /// Failed spawns.
    pub cold_start_failures: u64,
    /// Memory-pressure evictions of warm instances.
    pub evictions: u64,
    /// Retry attempts started.
    pub retries: u64,
    /// Invocations that completed (possibly after retries).
    pub completed: u64,
    /// Invocations abandoned by the retry policy.
    pub abandoned: u64,
}

impl FaultStats {
    /// Registry name of [`FaultStats::retries`].
    pub const RETRIES: &'static str = "fault.retries";
    /// Registry name of [`FaultStats::completed`].
    pub const COMPLETED: &'static str = "fault.completed";
    /// Registry name of [`FaultStats::abandoned`].
    pub const ABANDONED: &'static str = "fault.abandoned";

    /// Accumulates these counters into `registry` under `fault.*`.
    pub fn fill_registry(&self, registry: &mut Registry) {
        registry.counter_add("fault.crashes", self.crashes);
        registry.counter_add("fault.timeouts", self.timeouts);
        registry.counter_add("fault.cold_start_failures", self.cold_start_failures);
        registry.counter_add("fault.evictions", self.evictions);
        registry.counter_add(Self::RETRIES, self.retries);
        registry.counter_add(Self::COMPLETED, self.completed);
        registry.counter_add(Self::ABANDONED, self.abandoned);
    }

    /// Total faults injected, of any kind.
    pub fn total_faults(&self) -> u64 {
        self.crashes + self.timeouts + self.cold_start_failures + self.evictions
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.timeouts += other.timeouts;
        self.cold_start_failures += other.cold_start_failures;
        self.evictions += other.evictions;
        self.retries += other.retries;
        self.completed += other.completed;
        self.abandoned += other.abandoned;
    }
}

/// Bounded retry with exponential backoff, jitter and a hard deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts, counting the first (1 = never retry).
    pub max_attempts: u64,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: f64,
    /// Multiplier applied per further retry.
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_backoff_ms: f64,
    /// Jitter as a fraction of the backoff, drawn uniformly from
    /// `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Total latency budget: no retry starts once the invocation's
    /// accumulated latency (including the pending backoff) exceeds this.
    pub deadline_ms: f64,
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0.0,
            backoff_multiplier: 1.0,
            max_backoff_ms: 0.0,
            jitter: 0.0,
            deadline_ms: f64::INFINITY,
        }
    }

    /// Creates a policy, validating every field.
    pub fn new(
        max_attempts: u64,
        base_backoff_ms: f64,
        backoff_multiplier: f64,
        max_backoff_ms: f64,
        jitter: f64,
        deadline_ms: f64,
    ) -> Result<Self, SimError> {
        let policy = RetryPolicy {
            max_attempts,
            base_backoff_ms,
            backoff_multiplier,
            max_backoff_ms,
            jitter,
            deadline_ms,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Validates every field, naming the first offending one. Policies
    /// built as struct literals (config defaults, sweeps) must pass this
    /// before they drive a run.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_attempts == 0 {
            return Err(SimError::invalid_config(
                "retry.max_attempts",
                "at least one attempt is required",
            ));
        }
        if !(self.base_backoff_ms >= 0.0 && self.base_backoff_ms.is_finite()) {
            return Err(SimError::invalid_config(
                "retry.base_backoff_ms",
                format!("must be ≥ 0 and finite, got {}", self.base_backoff_ms),
            ));
        }
        if !(self.backoff_multiplier >= 1.0 && self.backoff_multiplier.is_finite()) {
            return Err(SimError::invalid_config(
                "retry.backoff_multiplier",
                format!("must be ≥ 1, got {}", self.backoff_multiplier),
            ));
        }
        if !(self.max_backoff_ms >= self.base_backoff_ms && self.max_backoff_ms.is_finite()) {
            return Err(SimError::invalid_config(
                "retry.max_backoff_ms",
                format!("must be ≥ base backoff, got {}", self.max_backoff_ms),
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(SimError::invalid_config(
                "retry.jitter",
                format!("must be in [0, 1], got {}", self.jitter),
            ));
        }
        if self.deadline_ms.is_nan() || self.deadline_ms <= 0.0 {
            return Err(SimError::invalid_config(
                "retry.deadline_ms",
                format!("must be positive, got {}", self.deadline_ms),
            ));
        }
        Ok(())
    }

    /// Backoff before retry number `retry` (1-based), with jitter drawn
    /// from `rng`. Exponential in the retry number, capped at
    /// `max_backoff_ms`.
    pub fn backoff_ms(&self, retry: u64, rng: &mut DetRng) -> f64 {
        if retry == 0 || self.base_backoff_ms == 0.0 {
            return 0.0;
        }
        let exp = self.backoff_multiplier.powi((retry - 1).min(63) as i32);
        let backoff = (self.base_backoff_ms * exp).min(self.max_backoff_ms);
        if self.jitter == 0.0 {
            return backoff;
        }
        let factor = 1.0 + self.jitter * (2.0 * rng.unit() - 1.0);
        backoff * factor
    }

    /// Whether a retry numbered `attempts_so_far` may start when the
    /// invocation's latency (including the pending backoff) would be
    /// `projected_latency_ms`.
    pub fn allows(&self, attempts_so_far: u64, projected_latency_ms: f64) -> bool {
        attempts_so_far < self.max_attempts && projected_latency_ms <= self.deadline_ms
    }

    /// Like [`RetryPolicy::backoff_ms`] but clamped into
    /// `[base_backoff_ms, max_backoff_ms]` after jitter, so a sleep can
    /// never undershoot the base or overshoot the cap. The fleet's
    /// resilience layer uses this variant for its down-host reconnect
    /// backoff, where the bounds are part of the SLO contract.
    pub fn bounded_backoff_ms(&self, retry: u64, rng: &mut DetRng) -> f64 {
        if retry == 0 || self.base_backoff_ms == 0.0 {
            return 0.0;
        }
        self.backoff_ms(retry, rng)
            .clamp(self.base_backoff_ms, self.max_backoff_ms)
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 10ms base backoff doubling to at most 100ms, ±30%
    /// jitter, 10s deadline.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 100.0,
            jitter: 0.3,
            deadline_ms: 10_000.0,
        }
    }
}

/// A per-function retry *budget* (the Finagle/gRPC token-bucket scheme):
/// each retry spends one token, each completion refunds `token_ratio`
/// tokens, and retries are only allowed while whole tokens remain. Under
/// a surge the bucket drains and retries stop amplifying load; in steady
/// state completions keep it topped up and occasional retries are free.
///
/// The budget only *caps* the [`RetryPolicy`]: the effective attempt
/// limit for an invocation whose bucket holds `tokens` is
/// `min(policy.max_attempts, 1 + floor(tokens))`. A budget built with
/// [`RetryBudget::unlimited`] never caps anything and draws no state —
/// the bit-transparent disabled form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryBudget {
    /// Bucket capacity in tokens; `0` disables the budget entirely.
    pub max_tokens: f64,
    /// Tokens refunded per completed invocation.
    pub token_ratio: f64,
}

impl RetryBudget {
    /// A budget that never limits retries (the disabled sentinel).
    pub fn unlimited() -> Self {
        RetryBudget {
            max_tokens: 0.0,
            token_ratio: 0.0,
        }
    }

    /// Creates a limited budget, validating both knobs.
    pub fn new(max_tokens: f64, token_ratio: f64) -> Result<Self, SimError> {
        let budget = RetryBudget {
            max_tokens,
            token_ratio,
        };
        budget.validate()?;
        Ok(budget)
    }

    /// Validates the knobs, naming the offending field. The unlimited
    /// sentinel is always valid.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_tokens == 0.0 && self.token_ratio == 0.0 {
            return Ok(());
        }
        if !(self.max_tokens > 0.0 && self.max_tokens.is_finite()) {
            return Err(SimError::invalid_config(
                "retry_budget.max_tokens",
                format!("must be positive and finite, got {}", self.max_tokens),
            ));
        }
        if !(0.0..=1.0).contains(&self.token_ratio) {
            return Err(SimError::invalid_config(
                "retry_budget.token_ratio",
                format!("must be in [0, 1], got {}", self.token_ratio),
            ));
        }
        Ok(())
    }

    /// Whether this budget actually limits retries.
    pub fn is_limited(&self) -> bool {
        self.max_tokens > 0.0
    }

    /// Bucket fill level a fresh function starts with (full).
    pub fn initial_tokens(&self) -> f64 {
        self.max_tokens
    }

    /// The attempt limit a bucket holding `tokens` allows under
    /// `policy_max` (the retry policy's own cap). Unlimited budgets pass
    /// `policy_max` through untouched.
    pub fn allowed_attempts(&self, tokens: f64, policy_max: u64) -> u64 {
        if !self.is_limited() {
            return policy_max;
        }
        policy_max.min(1 + tokens.max(0.0).floor() as u64)
    }

    /// Settles one invocation against the bucket: `retries` tokens are
    /// spent, a completion refunds `token_ratio`, and the level is
    /// clamped into `[0, max_tokens]`. A no-op for unlimited budgets.
    pub fn settle(&self, tokens: &mut f64, retries: u64, completed: bool) {
        if !self.is_limited() {
            return;
        }
        *tokens -= retries as f64;
        if completed {
            *tokens += self.token_ratio;
        }
        *tokens = tokens.clamp(0.0, self.max_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_obs::span::SpanRing;

    /// [`FaultPlan::run_invocation`] with tracing off.
    fn run_untraced(
        plan: &FaultPlan,
        policy: &RetryPolicy,
        invocation: u64,
        costs: &AttemptCosts,
        stats: &mut FaultStats,
    ) -> InvocationResult {
        let mut off = SpanRing::disabled();
        plan.run_invocation(
            policy,
            invocation,
            costs,
            stats,
            &mut SpanScope::new(&mut off, 0, 0),
            0.0,
        )
    }

    fn warm_costs() -> AttemptCosts {
        AttemptCosts {
            service_ms: 2.0,
            cold_start_ms: 120.0,
            timeout_ms: 500.0,
            starts_cold: false,
        }
    }

    #[test]
    fn none_plan_never_strikes() {
        let plan = FaultPlan::none();
        assert!(!plan.is_enabled());
        for kind in FaultKind::ALL {
            for n in 0..1000 {
                assert!(!plan.strikes(kind, n, 0));
            }
        }
    }

    #[test]
    fn none_plan_invocation_is_fault_free_service_time() {
        let plan = FaultPlan::none();
        let mut stats = FaultStats::default();
        let r = run_untraced(
            &plan,
            &RetryPolicy::default(),
            42,
            &warm_costs(),
            &mut stats,
        );
        assert!(r.completed);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.latency_ms, 2.0);
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn rates_outside_unit_interval_rejected() {
        assert!(FaultPlan::new(1, FaultRates::uniform(1.5)).is_err());
        assert!(FaultPlan::new(1, FaultRates::uniform(-0.1)).is_err());
        assert!(FaultPlan::new(1, FaultRates::uniform(f64::NAN)).is_err());
        assert!(FaultPlan::new(1, FaultRates::uniform(0.5)).is_ok());
    }

    #[test]
    fn strikes_is_deterministic_and_stateless() {
        let plan = FaultPlan::new(99, FaultRates::uniform(0.5)).unwrap();
        let first: Vec<bool> = (0..200)
            .map(|n| plan.strikes(FaultKind::InstanceCrash, n, 0))
            .collect();
        // Interleaving draws of other kinds must not perturb the stream.
        for n in 0..200 {
            plan.strikes(FaultKind::InvocationTimeout, n, 0);
        }
        let second: Vec<bool> = (0..200)
            .map(|n| plan.strikes(FaultKind::InstanceCrash, n, 0))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn strike_frequency_tracks_rate() {
        let plan = FaultPlan::new(7, FaultRates::uniform(0.2)).unwrap();
        let hits = (0..10_000)
            .filter(|&n| plan.strikes(FaultKind::InvocationTimeout, n, 0))
            .count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.2).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn crash_forces_cold_start_on_retry() {
        // Crash always strikes attempt 0; find an invocation where the
        // crash does NOT strike attempt 1 so the retry completes.
        let plan = FaultPlan::new(
            3,
            FaultRates {
                crash: 0.7,
                timeout: 0.0,
                cold_start_failure: 0.0,
                memory_pressure: 0.0,
            },
        )
        .unwrap();
        let policy = RetryPolicy {
            max_attempts: 10,
            deadline_ms: f64::INFINITY,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let costs = warm_costs();
        let mut saw_crash_then_complete = false;
        for n in 0..200 {
            let r = run_untraced(&plan, &policy, n, &costs, &mut stats);
            if r.completed && r.attempts > 1 {
                // Retry after a crash must include the cold-start cost.
                assert!(
                    r.latency_ms >= costs.cold_start_ms + costs.service_ms,
                    "latency {} too small for a post-crash cold start",
                    r.latency_ms
                );
                saw_crash_then_complete = true;
            }
        }
        assert!(saw_crash_then_complete);
        assert!(stats.crashes > 0);
        assert_eq!(stats.completed + stats.abandoned, 200);
    }

    #[test]
    fn timeout_burns_full_deadline() {
        let plan = FaultPlan::new(
            5,
            FaultRates {
                crash: 0.0,
                timeout: 1.0,
                cold_start_failure: 0.0,
                memory_pressure: 0.0,
            },
        )
        .unwrap();
        let policy = RetryPolicy::no_retry();
        let mut stats = FaultStats::default();
        let costs = warm_costs();
        let r = run_untraced(&plan, &policy, 0, &costs, &mut stats);
        assert!(!r.completed);
        assert_eq!(r.latency_ms, costs.timeout_ms);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.abandoned, 1);
    }

    #[test]
    fn retry_policy_bounds_attempts_and_deadline() {
        let plan = FaultPlan::new(11, FaultRates::uniform(1.0)).unwrap();
        let policy = RetryPolicy {
            max_attempts: 4,
            deadline_ms: f64::INFINITY,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let r = run_untraced(&plan, &policy, 0, &warm_costs(), &mut stats);
        assert!(!r.completed);
        assert_eq!(r.attempts, 4);

        // A tight deadline cuts retries off before max_attempts.
        let tight = RetryPolicy {
            max_attempts: 100,
            deadline_ms: 1.0,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let r = run_untraced(&plan, &tight, 0, &warm_costs(), &mut stats);
        assert!(!r.completed);
        assert!(r.attempts < 100);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_ms: 10.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 50.0,
            jitter: 0.0,
            deadline_ms: 1e9,
        };
        let mut rng = DetRng::new(0);
        assert_eq!(policy.backoff_ms(1, &mut rng), 10.0);
        assert_eq!(policy.backoff_ms(2, &mut rng), 20.0);
        assert_eq!(policy.backoff_ms(3, &mut rng), 40.0);
        assert_eq!(policy.backoff_ms(4, &mut rng), 50.0, "capped");
        assert_eq!(policy.backoff_ms(9, &mut rng), 50.0, "still capped");
    }

    #[test]
    fn jitter_stays_within_band() {
        let policy = RetryPolicy {
            jitter: 0.3,
            max_backoff_ms: 1000.0,
            base_backoff_ms: 100.0,
            backoff_multiplier: 1.0,
            max_attempts: 2,
            deadline_ms: 1e9,
        };
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            let b = policy.backoff_ms(1, &mut rng);
            assert!((70.0..=130.0).contains(&b), "backoff {b}");
        }
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::new(0, 1.0, 2.0, 10.0, 0.1, 100.0).is_err());
        assert!(RetryPolicy::new(3, -1.0, 2.0, 10.0, 0.1, 100.0).is_err());
        assert!(RetryPolicy::new(3, 1.0, 0.5, 10.0, 0.1, 100.0).is_err());
        assert!(RetryPolicy::new(3, 20.0, 2.0, 10.0, 0.1, 100.0).is_err());
        assert!(RetryPolicy::new(3, 1.0, 2.0, 10.0, 1.5, 100.0).is_err());
        assert!(RetryPolicy::new(3, 1.0, 2.0, 10.0, 0.1, 0.0).is_err());
        assert!(RetryPolicy::new(3, 1.0, 2.0, 10.0, 0.1, 100.0).is_ok());
    }

    #[test]
    fn eviction_makes_invocation_start_cold() {
        let plan = FaultPlan::new(
            17,
            FaultRates {
                crash: 0.0,
                timeout: 0.0,
                cold_start_failure: 0.0,
                memory_pressure: 1.0,
            },
        )
        .unwrap();
        let mut stats = FaultStats::default();
        let costs = warm_costs();
        let r = run_untraced(&plan, &RetryPolicy::no_retry(), 0, &costs, &mut stats);
        assert!(r.completed);
        assert_eq!(r.latency_ms, costs.cold_start_ms + costs.service_ms);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn run_invocation_is_reproducible() {
        let plan = FaultPlan::new(23, FaultRates::uniform(0.3)).unwrap();
        let policy = RetryPolicy::default();
        let costs = warm_costs();
        let run = || {
            let mut stats = FaultStats::default();
            let results: Vec<InvocationResult> = (0..500)
                .map(|n| run_untraced(&plan, &policy, n, &costs, &mut stats))
                .collect();
            (results, stats)
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn fault_outcomes_are_span_payloads() {
        // One plan per strike kind, each certain to strike the first
        // attempt; a cold first attempt so the cold-start draw happens.
        let only = |rates: FaultRates| FaultPlan::new(5, rates).unwrap();
        let none = FaultRates::zero();
        let cases = [
            (
                only(FaultRates {
                    cold_start_failure: 1.0,
                    ..none
                }),
                SpanKind::Restore,
                1,
            ),
            (
                only(FaultRates { crash: 1.0, ..none }),
                SpanKind::Execute,
                1,
            ),
            (
                only(FaultRates {
                    timeout: 1.0,
                    ..none
                }),
                SpanKind::Execute,
                2,
            ),
        ];
        let costs = AttemptCosts {
            starts_cold: true,
            ..warm_costs()
        };
        for (plan, kind, outcome) in cases {
            let mut ring = SpanRing::with_capacity(64);
            let mut traced_stats = FaultStats::default();
            let traced = plan.run_invocation(
                &RetryPolicy::no_retry(),
                0,
                &costs,
                &mut traced_stats,
                &mut SpanScope::new(&mut ring, 0, 4),
                0.0,
            );
            let mut plain_stats = FaultStats::default();
            let plain = run_untraced(&plan, &RetryPolicy::no_retry(), 0, &costs, &mut plain_stats);
            assert_eq!(
                traced, plain,
                "{kind:?}/{outcome}: scope changed the result"
            );
            assert_eq!(
                traced_stats, plain_stats,
                "{kind:?}/{outcome}: scope changed the stats"
            );
            assert!(!traced.completed);
            // The struck attempt is the last span; its outcome payload
            // names the fault.
            let last = *ring.spans().last().expect("struck attempt recorded");
            assert_eq!((last.kind, last.a, last.b), (kind, 0, outcome));
        }
    }

    #[test]
    fn spanned_run_children_telescope_to_exact_latency() {
        use luke_obs::span::tick_us;
        let plan = FaultPlan::new(23, FaultRates::uniform(0.3)).unwrap();
        let policy = RetryPolicy::default();
        let costs = AttemptCosts {
            service_ms: 2.0,
            cold_start_ms: 120.0,
            timeout_ms: 500.0,
            starts_cold: true,
        };
        let base = 3.517;
        for n in 0..300 {
            let mut stats = FaultStats::default();
            let mut ring = SpanRing::with_capacity(256);
            let mut scope = SpanScope::new(&mut ring, n * 2, 4);
            let r = plan.run_invocation(&policy, n, &costs, &mut stats, &mut scope, base);
            // The children tile [base, base + latency) contiguously, so
            // their tick durations telescope to exactly the tick window.
            let sum: u64 = ring.spans().iter().map(|s| s.dur_us).sum();
            assert_eq!(
                sum,
                tick_us(base + r.latency_ms) - tick_us(base),
                "invocation {n}"
            );
            // And span emission never perturbs the simulated outcome.
            let mut plain_stats = FaultStats::default();
            let plain = run_untraced(&plan, &policy, n, &costs, &mut plain_stats);
            assert_eq!(plain, r);
            assert_eq!(plain_stats, stats);
        }
    }

    #[test]
    fn fill_registry_exports_fault_counters() {
        let stats = FaultStats {
            crashes: 1,
            timeouts: 2,
            cold_start_failures: 3,
            evictions: 4,
            retries: 5,
            completed: 6,
            abandoned: 7,
        };
        let mut reg = Registry::new();
        stats.fill_registry(&mut reg);
        assert_eq!(reg.counter("fault.crashes"), 1);
        assert_eq!(reg.counter("fault.retries"), 5);
        assert_eq!(reg.counter("fault.abandoned"), 7);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = FaultStats {
            crashes: 1,
            timeouts: 2,
            cold_start_failures: 3,
            evictions: 4,
            retries: 5,
            completed: 6,
            abandoned: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.crashes, 2);
        assert_eq!(a.abandoned, 14);
        assert_eq!(a.total_faults(), 20);
    }
}
