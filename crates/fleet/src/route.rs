//! Front-end load balancing: where an invocation lands decides how warm
//! the instance that serves it is.
//!
//! The paper's core observation (§2) is that latency is governed not by
//! cold starts but by *interleaving*: how many foreign invocations run
//! on a host between two invocations of the same function. Routing
//! controls exactly that. Spreading a function across many hosts
//! ([`RoutingPolicy::RoundRobin`]) multiplies its per-host inter-arrival
//! gap by the fleet size, pushing every hit into the lukewarm regime;
//! pinning it to one host ([`RoutingPolicy::KeepAliveAware`]) keeps the
//! per-host gap at the fleet-wide gap, the best case for cache residency
//! — at the price of load imbalance, which
//! [`RoutingPolicy::LeastLoaded`] optimizes for instead.
//!
//! Under chaos, every policy composes with *failover*: the router
//! consults the deterministic [`HealthView`](crate::health::HealthView)
//! and walks past hosts whose breaker is open, and can *hedge* an
//! invocation toward a half-open host by dispatching a second copy
//! elsewhere ([`HedgeConfig`]). Both decisions happen in the sequential
//! routing phase, so they preserve the 1-thread ≡ N-thread contract.

use luke_common::rng::DetRng;
use luke_common::SimError;

use crate::health::{HealthStatus, HealthView};

/// Seed-space tag for the consistent-hash ring's virtual-node hashes.
const RING_STREAM: u64 = 0x7269_6E67; // "ring"
/// Seed-space tag for routing keys (function → ring position).
const KEY_STREAM: u64 = 0x6B_65_79; // "key"
/// Virtual nodes per host on the consistent-hash ring.
const VNODES_PER_HOST: usize = 16;
/// How much of a host's *same-language* assigned work the
/// placement-aware score credits back as shared-page affinity: the
/// score is `assigned − AFFINITY_CREDIT × same_language_assigned`, so
/// same-language work counts half (its runtime and library pages are
/// already resident) while foreign work counts full (pure contention
/// pressure).
const AFFINITY_CREDIT: f64 = 0.5;

/// Host index marking a padding leaf of a [`MinTree`]: it loses every
/// match, so padding never wins the root.
const PAD: usize = usize::MAX;

/// A min-tournament tree over per-host scores. The root names the host
/// with the smallest score under `total_cmp`, ties resolved toward the
/// lowest host index — exactly the host `Iterator::min_by` returns from
/// a scan in host order, because every match puts a lower-indexed left
/// subtree against a higher-indexed right one. Re-scoring one host
/// replays only the matches on its leaf-to-root path.
#[derive(Clone, Debug)]
struct MinTree {
    /// Leaf count: the host count rounded up to a power of two.
    leaves: usize,
    /// Match winners as `(score, host)` in 1-based heap order (node `i`
    /// plays `2i` against `2i + 1`); host `h`'s leaf is `leaves + h`.
    nodes: Vec<(f64, usize)>,
}

impl MinTree {
    /// A tree over `hosts` hosts that all score `0.0` — the value every
    /// score expression takes on empty ledgers.
    fn new(hosts: usize) -> Self {
        let leaves = hosts.next_power_of_two();
        let mut nodes = vec![(0.0, PAD); 2 * leaves];
        for host in 0..hosts {
            nodes[leaves + host] = (0.0, host);
        }
        for i in (1..leaves).rev() {
            nodes[i] = Self::play(nodes[2 * i], nodes[2 * i + 1]);
        }
        MinTree { leaves, nodes }
    }

    /// One match: the right (higher-indexed) side wins only on a
    /// strictly smaller score.
    fn play(left: (f64, usize), right: (f64, usize)) -> (f64, usize) {
        if right.1 != PAD && right.0.total_cmp(&left.0).is_lt() {
            right
        } else {
            left
        }
    }

    /// The host with the smallest score.
    fn min_host(&self) -> usize {
        self.nodes[1].1
    }

    /// Sets `host`'s score and replays its path toward the root. The
    /// replay stops at the first match whose winner comes out unchanged
    /// (same host, bit-equal score): every match above it then sees the
    /// same players as before.
    fn set(&mut self, host: usize, score: f64) {
        let mut i = self.leaves + host;
        self.nodes[i] = (score, host);
        while i > 1 {
            i /= 2;
            let winner = Self::play(self.nodes[2 * i], self.nodes[2 * i + 1]);
            let stored = self.nodes[i];
            if winner.1 == stored.1 && winner.0.to_bits() == stored.0.to_bits() {
                break;
            }
            self.nodes[i] = winner;
        }
    }
}

/// Front-end routing policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through hosts regardless of function identity: perfect
    /// spatial balance, worst-case interleaving (every host sees every
    /// function rarely).
    RoundRobin,
    /// Send each invocation to the host with the least assigned work so
    /// far: balances temporal load, still scatters functions.
    LeastLoaded,
    /// Consistent-hash each *function* to a stable host so repeat
    /// invocations find their warm instance: the keep-alive-friendly
    /// policy the paper's characterization argues for.
    KeepAliveAware,
    /// Tenancy-aware placement: score hosts by shared-page affinity
    /// (same-language work already assigned there dedupes runtime and
    /// library pages) minus contention pressure (total assigned work),
    /// and send the invocation to the best score. Consolidates each
    /// language onto few hosts while still spreading aggregate load —
    /// see the `luke-tenancy` crate for the sharing model.
    PlacementAware,
}

impl RoutingPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::KeepAliveAware,
        RoutingPolicy::PlacementAware,
    ];

    /// Stable CLI/display label.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::KeepAliveAware => "keep-alive-aware",
            RoutingPolicy::PlacementAware => "placement-aware",
        }
    }

    /// Parses a CLI label (accepts the canonical labels plus short
    /// aliases `rr`, `ll`, `kaa`, `pa`).
    pub fn parse(text: &str) -> Result<Self, SimError> {
        match text {
            "round-robin" | "rr" => Ok(RoutingPolicy::RoundRobin),
            "least-loaded" | "ll" => Ok(RoutingPolicy::LeastLoaded),
            "keep-alive-aware" | "kaa" => Ok(RoutingPolicy::KeepAliveAware),
            "placement-aware" | "pa" => Ok(RoutingPolicy::PlacementAware),
            other => Err(SimError::invalid_config(
                "fleet.policy",
                format!(
                    "unknown routing policy '{other}' (expected round-robin, least-loaded, keep-alive-aware, or placement-aware)"
                ),
            )),
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hedged-request knobs. [`HedgeConfig::disabled`] (the default) is
/// bit-transparent: no hedge copies, no extra counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Master switch.
    pub enabled: bool,
    /// Cap on hedged dispatches as a fraction of all dispatches — the
    /// hedge *budget* (e.g. 0.05 = at most 5% extra load).
    pub max_fraction: f64,
}

impl HedgeConfig {
    /// The disabled sentinel.
    pub fn disabled() -> Self {
        HedgeConfig {
            enabled: false,
            max_fraction: 0.0,
        }
    }

    /// Validates the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.enabled && !(self.max_fraction > 0.0 && self.max_fraction <= 1.0) {
            return Err(SimError::invalid_config(
                "hedge.max_fraction",
                format!("must be in (0, 1] when enabled, got {}", self.max_fraction),
            ));
        }
        Ok(())
    }
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Where one invocation goes under failover routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteDecision {
    /// The primary target host.
    pub host: usize,
    /// Whether the policy's preferred host was skipped because its
    /// breaker was open.
    pub failed_over: bool,
    /// A second host to dispatch a hedge copy to (the primary is
    /// half-open and the hedge budget has room).
    pub hedge: Option<usize>,
}

/// Deterministic front-end router. One instance routes one run's entire
/// arrival stream sequentially, so its internal state (round-robin
/// cursor, assigned-work ledger) is a pure function of the arrival
/// order.
#[derive(Clone, Debug)]
pub struct Router {
    policy: RoutingPolicy,
    hosts: usize,
    rr_next: usize,
    /// Expected service milliseconds assigned to each host so far.
    assigned_ms: Vec<f64>,
    /// Consistent-hash ring: (hash, host) sorted by hash. Built
    /// eagerly for every policy (it is tiny) so switching policies
    /// never changes struct layout.
    ring: Vec<(u64, usize)>,
    /// Memoized ring lookups per function id. The ring is immutable for
    /// the router's lifetime, so `function → host` is a pure function;
    /// caching it turns the hot keep-alive-aware path from a hash +
    /// binary search into one indexed load. Grows on demand.
    kaa_cache: Vec<Option<usize>>,
    /// Language slot per function profile (`function % lang_of.len()`),
    /// for placement-aware affinity scoring. Empty means "one
    /// language": every function scores as the same tenant.
    lang_of: Vec<u8>,
    /// Number of distinct language slots.
    lang_count: usize,
    /// Expected milliseconds assigned per `host × language`, flattened
    /// `host * lang_count + lang` — the shared-page affinity ledger.
    lang_assigned: Vec<f64>,
    /// Score index of the load-scoring policies: one tree scoring
    /// `assigned_ms` under least-loaded, one per language slot scoring
    /// the placement-aware expression, none under the other policies.
    index: Vec<MinTree>,
    /// Dispatches routed so far (hedge copies not included).
    dispatches: u64,
    /// Dispatches that skipped an unhealthy preferred host.
    failovers: u64,
    /// Hedge copies issued.
    hedges: u64,
    /// Dispatches scored by the placement-aware policy.
    placement_routed: u64,
}

impl Router {
    /// Builds a router over `hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero (validated upstream by
    /// `FleetConfig::validate`).
    pub fn new(policy: RoutingPolicy, hosts: usize) -> Self {
        Self::with_languages(policy, hosts, Vec::new())
    }

    /// Builds a router that also knows each function profile's language
    /// slot (`function % lang_of.len()` maps functions onto profiles,
    /// the fleet-wide convention), so the placement-aware policy can
    /// score shared-page affinity. An empty table degenerates to a
    /// single language.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero (validated upstream by
    /// `FleetConfig::validate`).
    pub fn with_languages(policy: RoutingPolicy, hosts: usize, lang_of: Vec<u8>) -> Self {
        assert!(hosts > 0, "router needs at least one host");
        let mut ring = Vec::with_capacity(hosts * VNODES_PER_HOST);
        for host in 0..hosts {
            let host_stream = DetRng::new(RING_STREAM).split(host as u64);
            for vnode in 0..VNODES_PER_HOST {
                ring.push((host_stream.split(vnode as u64).seed(), host));
            }
        }
        ring.sort_unstable();
        let lang_count = lang_of.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
        let trees = match policy {
            RoutingPolicy::LeastLoaded => 1,
            RoutingPolicy::PlacementAware => lang_count,
            RoutingPolicy::RoundRobin | RoutingPolicy::KeepAliveAware => 0,
        };
        Router {
            policy,
            hosts,
            rr_next: 0,
            assigned_ms: vec![0.0; hosts],
            ring,
            kaa_cache: Vec::new(),
            lang_of,
            lang_count,
            lang_assigned: vec![0.0; hosts * lang_count],
            index: (0..trees).map(|_| MinTree::new(hosts)).collect(),
            dispatches: 0,
            failovers: 0,
            hedges: 0,
            placement_routed: 0,
        }
    }

    /// The language slot of `function` under the profile mapping.
    fn language_of(&self, function: usize) -> usize {
        if self.lang_of.is_empty() {
            0
        } else {
            self.lang_of[function % self.lang_of.len()] as usize
        }
    }

    /// The host the policy would pick, advancing policy-internal state
    /// (the round-robin cursor) but not charging the work ledger.
    fn preferred(&mut self, function: usize) -> usize {
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let host = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.hosts;
                host
            }
            // Equal loads resolve to the lowest host index.
            RoutingPolicy::LeastLoaded => self.index[0].min_host(),
            RoutingPolicy::KeepAliveAware => {
                if function >= self.kaa_cache.len() {
                    self.kaa_cache.resize(function + 1, None);
                }
                match self.kaa_cache[function] {
                    Some(host) => host,
                    None => {
                        let key = DetRng::new(KEY_STREAM).split(function as u64).seed();
                        // First vnode clockwise from the key; wrap to
                        // ring[0].
                        let at = self.ring.partition_point(|&(hash, _)| hash < key);
                        let host = self.ring[at % self.ring.len()].1;
                        self.kaa_cache[function] = Some(host);
                        host
                    }
                }
            }
            // Shared-page affinity minus contention pressure (see
            // `placement_score`), ties to the lowest host index.
            RoutingPolicy::PlacementAware => self.index[self.language_of(function)].min_host(),
        }
    }

    /// The placement-aware score of `host` for language slot `lang`: a
    /// host's total assigned work is its pressure, and same-language
    /// work earns affinity credit because its runtime and library pages
    /// are already resident there.
    fn placement_score(&self, host: usize, lang: usize) -> f64 {
        self.assigned_ms[host] - AFFINITY_CREDIT * self.lang_assigned[host * self.lang_count + lang]
    }

    /// Charges `expected_ms` of work on `host` to the load ledgers —
    /// the total ledger always, the per-language affinity ledger only
    /// under the placement-aware policy (so every other policy leaves
    /// it untouched and bit-cold) — and re-scores `host` in the index.
    fn charge(&mut self, host: usize, function: usize, expected_ms: f64) {
        self.assigned_ms[host] += expected_ms;
        match self.policy {
            RoutingPolicy::LeastLoaded => self.index[0].set(host, self.assigned_ms[host]),
            RoutingPolicy::PlacementAware => {
                let lang = self.language_of(function);
                self.lang_assigned[host * self.lang_count + lang] += expected_ms;
                // The total ledger moved, so the host's score changes
                // under every language slot.
                for slot in 0..self.lang_count {
                    let score = self.placement_score(host, slot);
                    self.index[slot].set(host, score);
                }
            }
            RoutingPolicy::RoundRobin | RoutingPolicy::KeepAliveAware => {}
        }
    }

    /// Charges a dispatch to `host` and counts it.
    fn commit(&mut self, host: usize, function: usize, expected_ms: f64) {
        self.charge(host, function, expected_ms);
        self.dispatches += 1;
        if self.policy == RoutingPolicy::PlacementAware {
            self.placement_routed += 1;
        }
    }

    /// Routes one invocation of `function`, whose expected cost is
    /// `expected_ms`, returning the target host index. `expected_ms`
    /// feeds the least-loaded ledger (all policies maintain it, so
    /// observability is policy-independent).
    pub fn route(&mut self, function: usize, expected_ms: f64) -> usize {
        let host = self.preferred(function);
        self.commit(host, function, expected_ms);
        host
    }

    /// Routes one invocation around open breakers: the preferred host is
    /// used unless `health` marks it `Unhealthy`, in which case the
    /// walk `preferred+1, preferred+2, …` (mod hosts) lands on the first
    /// routable host. If *every* breaker is open the router fails open
    /// back to the preferred host — the caller's all-down check decides
    /// whether that is a hard error.
    ///
    /// When the chosen host is `HalfOpen` and `hedge` is enabled with
    /// budget to spare, a hedge target (the next routable host) is
    /// returned too; the caller dispatches both copies and keeps the
    /// faster completion.
    pub fn route_resilient(
        &mut self,
        function: usize,
        expected_ms: f64,
        health: &HealthView,
        hedge: &HedgeConfig,
    ) -> RouteDecision {
        let preferred = self.preferred(function);
        self.route_around(preferred, function, expected_ms, health, hedge)
    }

    /// [`Router::route_resilient`] from an already-chosen `preferred`
    /// host: failover walk, charge, and the hedge decision.
    fn route_around(
        &mut self,
        preferred: usize,
        function: usize,
        expected_ms: f64,
        health: &HealthView,
        hedge: &HedgeConfig,
    ) -> RouteDecision {
        let failover = if health.status(preferred) == HealthStatus::Unhealthy {
            self.next_routable(preferred, health)
        } else {
            None
        };
        let host = failover.unwrap_or(preferred);
        self.commit(host, function, expected_ms);
        if failover.is_some() {
            self.failovers += 1;
        }
        let mut hedge_target = None;
        if hedge.enabled
            && health.status(host) == HealthStatus::HalfOpen
            && (self.hedges + 1) as f64 <= hedge.max_fraction * self.dispatches as f64
        {
            // Hedge toward the next routable host after the primary.
            hedge_target = self.next_routable(host, health);
            if let Some(h) = hedge_target {
                self.charge(h, function, expected_ms);
                self.hedges += 1;
            }
        }
        RouteDecision {
            host,
            failed_over: failover.is_some(),
            hedge: hedge_target,
        }
    }

    /// The first host after `from` (walking `from + 1, from + 2, …`
    /// modulo the fleet) whose breaker is not open, if any.
    fn next_routable(&self, from: usize, health: &HealthView) -> Option<usize> {
        (1..self.hosts)
            .map(|step| (from + step) % self.hosts)
            .find(|&host| health.status(host) != HealthStatus::Unhealthy)
    }

    /// Expected-work ledger (ms per host), for imbalance reporting.
    pub fn assigned_ms(&self) -> &[f64] {
        &self.assigned_ms
    }

    /// Dispatches that skipped an unhealthy preferred host.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Hedge copies issued so far.
    pub fn hedges(&self) -> u64 {
        self.hedges
    }

    /// Dispatches scored by the placement-aware policy (0 under every
    /// other policy).
    pub fn placement_routed(&self) -> u64 {
        self.placement_routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear-scan reference the score index must reproduce: the
    /// same ledgers, scanned in host order with `min_by(total_cmp)`.
    impl Router {
        fn scan_preferred(&mut self, function: usize) -> usize {
            let scan = |score: &dyn Fn(usize) -> f64| {
                (0..self.hosts)
                    .map(|host| (host, score(host)))
                    .min_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(host, _)| host)
                    .unwrap_or(0)
            };
            match self.policy {
                RoutingPolicy::LeastLoaded => scan(&|host| self.assigned_ms[host]),
                RoutingPolicy::PlacementAware => {
                    let lang = self.language_of(function);
                    scan(&|host| self.placement_score(host, lang))
                }
                RoutingPolicy::RoundRobin | RoutingPolicy::KeepAliveAware => {
                    self.preferred(function)
                }
            }
        }

        fn route_scanned(&mut self, function: usize, expected_ms: f64) -> usize {
            let host = self.scan_preferred(function);
            self.commit(host, function, expected_ms);
            host
        }

        fn route_resilient_scanned(
            &mut self,
            function: usize,
            expected_ms: f64,
            health: &HealthView,
            hedge: &HedgeConfig,
        ) -> RouteDecision {
            let preferred = self.scan_preferred(function);
            self.route_around(preferred, function, expected_ms, health, hedge)
        }
    }

    #[test]
    fn min_tree_picks_the_lowest_index_among_tied_minima() {
        for hosts in [1, 2, 3, 5, 8, 13] {
            let mut tree = MinTree::new(hosts);
            assert_eq!(tree.min_host(), 0);
            for host in 0..hosts {
                tree.set(host, 2.0);
            }
            assert_eq!(tree.min_host(), 0);
            tree.set(hosts - 1, 1.0);
            assert_eq!(tree.min_host(), hosts - 1);
            if hosts > 2 {
                tree.set(1, 1.0);
                assert_eq!(tree.min_host(), 1, "tie resolves to the lower index");
            }
            // total_cmp orders -0.0 below 0.0.
            tree.set(hosts - 1, 0.0);
            tree.set(0, -0.0);
            assert_eq!(tree.min_host(), 0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Charges on arbitrary hosts (not only the routed one) leave
        /// every language tree's root on the host a full scan picks,
        /// including when an early-exiting replay stops below the root.
        #[test]
        fn every_language_root_matches_the_scan_after_each_charge(
            size in 0usize..4,
            charges in proptest::collection::vec((0usize..2_048, 0usize..6, 0usize..5), 1..200),
        ) {
            const HOSTS: [usize; 4] = [3, 5, 13, 99];
            const COSTS: [f64; 5] = [1.0, 0.0, -0.0, 0.5, 2.0];
            let hosts = HOSTS[size];
            let mut router =
                Router::with_languages(RoutingPolicy::PlacementAware, hosts, vec![0, 1, 2]);
            for (host, function, cost) in charges {
                router.charge(host % hosts, function, COSTS[cost]);
                for function in 0..3 {
                    let lang = router.language_of(function);
                    proptest::prop_assert_eq!(
                        router.index[lang].min_host(),
                        router.scan_preferred(function)
                    );
                }
            }
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for policy in RoutingPolicy::ALL {
            assert_eq!(RoutingPolicy::parse(policy.label()).unwrap(), policy);
        }
        assert_eq!(
            RoutingPolicy::parse("kaa").unwrap(),
            RoutingPolicy::KeepAliveAware
        );
        let err = RoutingPolicy::parse("random").unwrap_err();
        assert!(format!("{err}").contains("fleet.policy"));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let mut router = Router::new(RoutingPolicy::RoundRobin, 4);
        let targets: Vec<usize> = (0..8).map(|f| router.route(f, 1.0)).collect();
        assert_eq!(targets, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn least_loaded_tracks_expected_work() {
        let mut router = Router::new(RoutingPolicy::LeastLoaded, 3);
        assert_eq!(router.route(0, 10.0), 0); // all tied → lowest index
        assert_eq!(router.route(1, 1.0), 1);
        assert_eq!(router.route(2, 1.0), 2);
        // Host 0 carries 10ms; the cheap hosts absorb the next work.
        assert_eq!(router.route(3, 1.0), 1);
        assert_eq!(router.route(4, 1.0), 2);
        assert_eq!(router.route(5, 1.0), 1);
    }

    #[test]
    fn keep_alive_aware_is_sticky_per_function() {
        let mut router = Router::new(RoutingPolicy::KeepAliveAware, 8);
        for function in 0..50 {
            let first = router.route(function, 1.0);
            for _ in 0..5 {
                assert_eq!(router.route(function, 1.0), first);
            }
        }
    }

    #[test]
    fn keep_alive_aware_spreads_functions_across_hosts() {
        let mut router = Router::new(RoutingPolicy::KeepAliveAware, 8);
        let mut used = std::collections::BTreeSet::new();
        for function in 0..200 {
            used.insert(router.route(function, 1.0));
        }
        // 200 functions over 8 hosts with 16 vnodes each: every host
        // should own a slice of the key space.
        assert_eq!(used.len(), 8, "hosts used: {used:?}");
    }

    #[test]
    fn consistent_hash_moves_few_keys_when_fleet_grows() {
        let mut small = Router::new(RoutingPolicy::KeepAliveAware, 8);
        let mut large = Router::new(RoutingPolicy::KeepAliveAware, 9);
        let moved = (0..1000)
            .filter(|&f| {
                let a = small.route(f, 1.0);
                let b = large.route(f, 1.0);
                a != b
            })
            .count();
        // Plain modulo hashing would move ~8/9 of keys; consistent
        // hashing should move roughly 1/9. Allow generous slack.
        assert!(moved < 350, "{moved} of 1000 keys moved");
    }

    #[test]
    fn placement_aware_consolidates_languages_under_even_load() {
        // Two languages, four hosts, uniform work: the affinity credit
        // should pull each language onto its own host subset instead of
        // scattering both everywhere.
        let lang_of = vec![0u8, 1u8];
        let mut router = Router::with_languages(RoutingPolicy::PlacementAware, 4, lang_of);
        let mut per_host_lang = vec![std::collections::BTreeSet::new(); 4];
        for f in 0..400 {
            let host = router.route(f, 1.0);
            per_host_lang[host].insert(f % 2);
        }
        let mixed = per_host_lang.iter().filter(|langs| langs.len() > 1).count();
        assert!(
            mixed <= 1,
            "placement-aware should keep languages apart: {per_host_lang:?}"
        );
        // Aggregate load still spreads: no host is idle.
        assert!(router.assigned_ms().iter().all(|&ms| ms > 0.0));
        assert_eq!(router.placement_routed(), 400);
    }

    #[test]
    fn placement_aware_prefers_the_same_language_host_over_an_equally_loaded_one() {
        let mut router = Router::with_languages(RoutingPolicy::PlacementAware, 2, vec![0u8, 1u8]);
        // Function 0 (lang 0) lands on host 0 (tie → lowest index).
        assert_eq!(router.route(0, 1.0), 0);
        // Another lang-0 function: host 0 carries 1ms total but earns
        // 0.5ms affinity credit (score 0.5) vs host 1's 0 — still the
        // pressure-optimal pick is host 1, and with credit the choice
        // depends on magnitudes. Charge host 1 with foreign work first
        // so the affinity decision is isolated:
        assert_eq!(router.route(1, 1.0), 1); // lang 1 → host 1 (least loaded)
                                             // Now both hosts carry 1.0ms. A lang-0 invocation scores
                                             // host 0 at 1.0 − 0.5×1.0 = 0.5 and host 1 at 1.0 → host 0.
        assert_eq!(router.route(2, 1.0), 0);
        // And a lang-1 invocation symmetrically sticks to host 1.
        assert_eq!(router.route(3, 1.0), 1);
    }

    #[test]
    fn placement_aware_without_languages_degenerates_to_load_spreading() {
        // An empty language table means every function shares one
        // language: the score is (1 − credit) × assigned, which orders
        // hosts exactly like least-loaded.
        let mut placement = Router::new(RoutingPolicy::PlacementAware, 3);
        let mut least = Router::new(RoutingPolicy::LeastLoaded, 3);
        for f in 0..60 {
            let cost = 1.0 + (f % 5) as f64;
            assert_eq!(placement.route(f, cost), least.route(f, cost));
        }
        assert_eq!(placement.placement_routed(), 60);
        assert_eq!(least.placement_routed(), 0, "only placement-aware counts");
    }

    #[test]
    fn routers_are_deterministic() {
        let mut a = Router::new(RoutingPolicy::KeepAliveAware, 16);
        let mut b = Router::new(RoutingPolicy::KeepAliveAware, 16);
        for f in 0..500 {
            assert_eq!(a.route(f % 37, 1.0), b.route(f % 37, 1.0));
        }
    }

    /// The indexed router against the linear-scan reference, dispatch
    /// by dispatch, on the plain and the failover/hedge paths.
    mod oracle {
        use super::*;
        use crate::chaos::{ChaosPlan, HostSchedule};
        use crate::health::HealthConfig;
        use proptest::prelude::*;

        /// Fleet sizes, powers of two or not.
        const HOSTS: [usize; 5] = [1, 3, 5, 64, 2_048];
        /// Dispatch costs: exact ties, both zeros, and a huge value.
        const COSTS: [f64; 7] = [1.0, 1.0, 0.0, -0.0, 0.5, 1e300, 3.25];

        /// One generated routing scenario.
        #[derive(Clone, Debug)]
        struct Scenario {
            hosts: usize,
            policy: RoutingPolicy,
            lang_of: Vec<u8>,
            /// `(function, cost index, ms since the previous arrival)`.
            dispatches: Vec<(usize, usize, u64)>,
            /// `(host, start ms, length ms)` down windows; empty routes
            /// on the plain path.
            outages: Vec<(usize, u64, u64)>,
        }

        /// Routes `scenario` through an indexed router and a scanning
        /// reference, asserting every decision matches, and returns
        /// the (failovers, hedges) the run exercised.
        fn check(scenario: &Scenario) -> Result<(u64, u64), TestCaseError> {
            let hosts = scenario.hosts;
            let mut indexed =
                Router::with_languages(scenario.policy, hosts, scenario.lang_of.clone());
            let mut reference = indexed.clone();
            let mut schedules = vec![Vec::new(); hosts];
            for &(host, start, len) in &scenario.outages {
                schedules[host % hosts].push((start as f64, (start + len) as f64));
            }
            let plan = ChaosPlan::from_schedules(
                schedules
                    .iter()
                    .map(|down| HostSchedule::explicit(down, &[]))
                    .collect(),
            );
            let mut health = HealthView::new(hosts, HealthConfig::default());
            let hedge = HedgeConfig {
                enabled: true,
                max_fraction: 0.5,
            };
            let mut now_ms = 0.0;
            for &(function, cost, gap_ms) in &scenario.dispatches {
                let expected_ms = COSTS[cost];
                if scenario.outages.is_empty() {
                    let want = reference.route_scanned(function, expected_ms);
                    prop_assert_eq!(indexed.route(function, expected_ms), want);
                } else {
                    now_ms += gap_ms as f64;
                    health.advance_to(now_ms, &plan);
                    let want =
                        reference.route_resilient_scanned(function, expected_ms, &health, &hedge);
                    let got = indexed.route_resilient(function, expected_ms, &health, &hedge);
                    prop_assert_eq!(got, want);
                }
            }
            let bits = |router: &Router| -> Vec<u64> {
                router.assigned_ms().iter().map(|ms| ms.to_bits()).collect()
            };
            prop_assert_eq!(bits(&indexed), bits(&reference));
            prop_assert_eq!(indexed.failovers(), reference.failovers());
            prop_assert_eq!(indexed.hedges(), reference.hedges());
            prop_assert_eq!(indexed.placement_routed(), reference.placement_routed());
            Ok((indexed.failovers(), indexed.hedges()))
        }

        fn scenario() -> impl Strategy<Value = Scenario> {
            (
                0..HOSTS.len(),
                any::<bool>(),
                prop::collection::vec(0u8..3, 0..8),
                prop::collection::vec((0usize..40, 0..COSTS.len(), 0u64..300), 1..300),
                any::<bool>(),
                prop::collection::vec((0usize..2_048, 0u64..30_000, 1_000u64..8_000), 1..12),
            )
                .prop_map(|(size, placement, lang_of, dispatches, chaos, outages)| {
                    Scenario {
                        hosts: HOSTS[size],
                        policy: if placement {
                            RoutingPolicy::PlacementAware
                        } else {
                            RoutingPolicy::LeastLoaded
                        },
                        lang_of,
                        dispatches,
                        outages: if chaos { outages } else { Vec::new() },
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn indexed_router_picks_the_linear_scan_host(scenario in scenario()) {
                check(&scenario)?;
            }
        }

        #[test]
        fn every_size_and_policy_fails_over_and_hedges_like_the_scan() {
            // Every third host goes down early and comes back, so the
            // failover walk and half-open hedges both fire.
            for hosts in HOSTS.into_iter().filter(|&h| h > 1) {
                for policy in [RoutingPolicy::LeastLoaded, RoutingPolicy::PlacementAware] {
                    let scenario = Scenario {
                        hosts,
                        policy,
                        lang_of: vec![0, 1, 2, 0, 1],
                        dispatches: (0..2_000).map(|i| (i % 23, i % COSTS.len(), 7)).collect(),
                        outages: (0..hosts).step_by(3).map(|h| (h, 0, 4_000)).collect(),
                    };
                    let (failovers, hedges) = check(&scenario).expect("indexed ≡ scan");
                    assert!(failovers > 0, "{hosts} hosts {policy}: no failover");
                    assert!(hedges > 0, "{hosts} hosts {policy}: no hedge");
                }
            }
        }
    }

    mod resilient {
        use super::*;
        use crate::chaos::{ChaosPlan, HostSchedule};
        use crate::health::HealthConfig;

        /// A health view over `hosts` hosts with host 0 in the given
        /// breaker state, derived the real way: probes against an
        /// explicit chaos window.
        fn view_with_host0(hosts: usize, status: HealthStatus) -> HealthView {
            let mut schedules = vec![HostSchedule::none(); hosts];
            schedules[0] = HostSchedule::explicit(&[(0.0, 5_000.0)], &[]);
            let plan = ChaosPlan::from_schedules(schedules);
            let mut view = HealthView::new(hosts, HealthConfig::default());
            match status {
                HealthStatus::Healthy => {}
                // Probes at 500…4500 fail; the 5000 one succeeds.
                HealthStatus::Unhealthy => view.advance_to(4_500.0, &plan),
                HealthStatus::HalfOpen => view.advance_to(5_000.0, &plan),
            }
            assert_eq!(view.status(0), status);
            view
        }

        #[test]
        fn healthy_fleet_routes_exactly_like_the_plain_path() {
            let view = view_with_host0(4, HealthStatus::Healthy);
            for policy in RoutingPolicy::ALL {
                let mut plain = Router::new(policy, 4);
                let mut resilient = Router::new(policy, 4);
                for f in 0..200 {
                    let d = resilient.route_resilient(f % 31, 1.0, &view, &HedgeConfig::disabled());
                    assert_eq!(d.host, plain.route(f % 31, 1.0));
                    assert!(!d.failed_over);
                    assert_eq!(d.hedge, None);
                }
                assert_eq!(resilient.failovers(), 0);
                assert_eq!(plain.assigned_ms(), resilient.assigned_ms());
            }
        }

        #[test]
        fn open_breaker_diverts_to_the_next_routable_host() {
            let view = view_with_host0(3, HealthStatus::Unhealthy);
            let mut router = Router::new(RoutingPolicy::RoundRobin, 3);
            // Round-robin wants 0, 1, 2, 0, … — every host-0 slot lands
            // on host 1 instead.
            let hosts: Vec<usize> = (0..6)
                .map(|f| {
                    router
                        .route_resilient(f, 1.0, &view, &HedgeConfig::disabled())
                        .host
                })
                .collect();
            assert_eq!(hosts, vec![1, 1, 2, 1, 1, 2]);
            assert_eq!(router.failovers(), 2);
            assert_eq!(router.assigned_ms()[0], 0.0);
        }

        #[test]
        fn every_breaker_open_fails_open_to_the_preferred_host() {
            let plan = ChaosPlan::from_schedules(vec![
                HostSchedule::explicit(&[(0.0, 1e6)], &[]),
                HostSchedule::explicit(&[(0.0, 1e6)], &[]),
            ]);
            let mut view = HealthView::new(2, HealthConfig::default());
            view.advance_to(10_000.0, &plan);
            assert_eq!(view.routable_count(), 0);
            let mut router = Router::new(RoutingPolicy::RoundRobin, 2);
            let d = router.route_resilient(0, 1.0, &view, &HedgeConfig::disabled());
            assert_eq!(d.host, 0, "nothing to fail over to — keep the preference");
            assert!(!d.failed_over);
        }

        #[test]
        fn half_open_primary_hedges_within_budget() {
            let view = view_with_host0(3, HealthStatus::HalfOpen);
            let hedge = HedgeConfig {
                enabled: true,
                max_fraction: 0.4,
            };
            let mut router = Router::new(RoutingPolicy::RoundRobin, 3);
            let mut hedged = 0u64;
            for f in 0..30 {
                let d = router.route_resilient(f, 1.0, &view, &hedge);
                if let Some(h) = d.hedge {
                    assert_eq!(d.host, 0, "only the half-open host is hedged");
                    assert_ne!(h, 0, "the hedge copy goes elsewhere");
                    hedged += 1;
                }
            }
            assert!(hedged > 0, "some host-0 dispatches must hedge");
            assert_eq!(hedged, router.hedges());
            // 30 dispatches at max_fraction 0.4 → at most 12 hedges.
            assert!(hedged <= 12, "{hedged} hedges blew the budget");
            // Disabled hedging never hedges, even when half-open.
            let mut plain = Router::new(RoutingPolicy::RoundRobin, 3);
            for f in 0..30 {
                let d = plain.route_resilient(f, 1.0, &view, &HedgeConfig::disabled());
                assert_eq!(d.hedge, None);
            }
        }

        #[test]
        fn bad_hedge_fraction_is_named() {
            assert!(HedgeConfig::disabled().validate().is_ok());
            let err = HedgeConfig {
                enabled: true,
                max_fraction: 0.0,
            }
            .validate()
            .unwrap_err();
            assert!(format!("{err}").contains("hedge.max_fraction"), "{err}");
        }
    }
}
