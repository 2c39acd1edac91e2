//! The warm-instance pool and provider keep-alive policy.
//!
//! Providers keep idle function instances alive for 5–60 minutes (§2.1)
//! in anticipation of further invocations; with hundreds of gigabytes of
//! host memory, a thousand or more warm instances may be resident (§2.2).
//! The pool tracks per-instance idle times; the keep-alive policy is
//! applied one instance at a time by an event-driven caller that already
//! knows which deadline fired ([`InstancePool::expire_with_deadline`]).
//!
//! # Layout: one record per slot
//!
//! A host keeps at most one warm instance per function, so the pool is
//! keyed by *slot*: a dense index its owner assigns to each function it
//! has seen (a fleet host numbers functions in first-arrival order).
//! The table is indexed by slot, grown to the highest slot spawned, and
//! a record is zeroed while its function has no warm instance. Every
//! lookup is an index, and a host that sees a handful of a large
//! population's functions holds a handful of records. The snapshot
//! store prices a restore by the function's own id, so the spawns that
//! restore take it alongside the slot. Each instance carries its spawn
//! sequence number, and the two passes that sum over every resident
//! instance ([`InstancePool::evict_all`] and
//! [`InstancePool::residency_ms_through`]) add their credits in spawn
//! order, so the `f64` totals are bit-reproducible and independent of
//! which slots the instances sit in.

use luke_common::SimError;
use luke_snapshot::SnapshotStore;

/// One slot's warm instance; all zeros while it has none.
#[derive(Clone, Copy, Debug, Default)]
struct Instance {
    /// Spawn sequence number (the pool's `n`-th spawn is `n`, from 1);
    /// 0 means no warm instance.
    spawn_seq: u64,
    /// Most recent invocation time.
    last_invoked_ms: f64,
    /// Spawn (residency-start) time.
    spawned_ms: f64,
    /// Memory-accounting weight: the fraction of the instance's
    /// footprint the host actually materialized. 1.0 unless a tenancy
    /// layer dedupes shared pages ([`InstancePool::set_weight`]);
    /// residency credits multiply by it, and `× 1.0` is IEEE-exact so
    /// weightless pools account bit-for-bit as before the weight existed.
    weight: f64,
}

/// The pool of warm instances (see module docs).
#[derive(Clone, Debug)]
pub struct InstancePool {
    keep_alive_ms: f64,
    /// Per slot: its function's warm instance, or a zeroed record.
    instances: Vec<Instance>,
    /// Warm instances resident now.
    warm: usize,
    /// Spawns so far; the latest spawn's sequence number.
    cold_starts: u64,
    expirations: u64,
    evictions: u64,
    /// Instance-milliseconds of memory residency credited by retired
    /// (expired or evicted) instances — see
    /// [`InstancePool::residency_ms_through`].
    retired_memory_ms: f64,
    /// Pluggable cold-start pricing ([`luke_snapshot::ColdStartModel`]):
    /// `None` keeps the pre-snapshot behavior where spawns are free.
    snapshots: Option<SnapshotStore>,
}

impl InstancePool {
    /// Creates a pool with the given keep-alive window in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `keep_alive_ms` is not positive. Use
    /// [`InstancePool::try_new`] to get an error instead.
    pub fn new(keep_alive_ms: f64) -> Self {
        match Self::try_new(keep_alive_ms) {
            Ok(pool) => pool,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a pool, returning an error if the keep-alive window is not
    /// strictly positive and finite.
    pub fn try_new(keep_alive_ms: f64) -> Result<Self, SimError> {
        if !(keep_alive_ms > 0.0 && keep_alive_ms.is_finite()) {
            return Err(SimError::invalid_config(
                "pool.keep_alive_ms",
                format!("keep-alive must be positive and finite, got {keep_alive_ms}"),
            ));
        }
        Ok(InstancePool {
            keep_alive_ms,
            instances: Vec::new(),
            warm: 0,
            cold_starts: 0,
            expirations: 0,
            evictions: 0,
            retired_memory_ms: 0.0,
            snapshots: None,
        })
    }

    /// Attaches a snapshot store so cold starts are priced by its
    /// [`luke_snapshot::ColdStartModel`] via
    /// [`InstancePool::spawn_restored_shared`]. Without one (or with
    /// `ColdStartModel::Instant`), restores are free and the pool
    /// behaves bit-for-bit as before.
    pub fn with_snapshots(mut self, snapshots: SnapshotStore) -> Self {
        self.snapshots = Some(snapshots);
        self
    }

    /// The attached snapshot store, if any.
    pub fn snapshots(&self) -> Option<&SnapshotStore> {
        self.snapshots.as_ref()
    }

    /// The keep-alive window in milliseconds.
    pub fn keep_alive_ms(&self) -> f64 {
        self.keep_alive_ms
    }

    /// The warm instance in `slot`, if it has one.
    fn get(&self, slot: usize) -> Option<&Instance> {
        self.instances
            .get(slot)
            .filter(|instance| instance.spawn_seq != 0)
    }

    /// [`InstancePool::get`], mutably.
    fn get_mut(&mut self, slot: usize) -> Option<&mut Instance> {
        self.instances
            .get_mut(slot)
            .filter(|instance| instance.spawn_seq != 0)
    }

    /// Spawns a warm instance in `slot` at time `now_ms` (a cold start).
    /// The slot must have no warm instance.
    pub fn spawn(&mut self, slot: usize, now_ms: f64) {
        if slot >= self.instances.len() {
            self.instances.resize(slot + 1, Instance::default());
        }
        debug_assert!(!self.is_warm(slot), "slot {slot} is warm");
        self.cold_starts += 1;
        self.warm += 1;
        self.instances[slot] = Instance {
            spawn_seq: self.cold_starts,
            last_invoked_ms: now_ms,
            spawned_ms: now_ms,
            weight: 1.0,
        };
    }

    /// Like [`InstancePool::spawn_restored_shared`] with nothing
    /// resident, but forces the restore onto the lazy-paging path — the
    /// admission ladder's memory-pressure rung skips the prefetch burst
    /// on an already-pressured host.
    pub fn spawn_restored_degraded(&mut self, slot: usize, function: usize, now_ms: f64) -> f64 {
        let restore_ms = self
            .snapshots
            .as_mut()
            .map_or(0.0, |s| s.restore_ms_degraded(function));
        self.spawn(slot, now_ms);
        restore_ms
    }

    /// Like [`InstancePool::spawn`], but also prices the cold start's
    /// memory bring-up through the attached snapshot store, by the id of
    /// the `function` in `slot`: returns the restore latency in
    /// milliseconds (0 with no store, or under
    /// `ColdStartModel::Instant`). `resident_pages` of the function's
    /// working set are already resident on the host — shared pages a
    /// co-resident same-language instance brought in (the
    /// `luke-tenancy` dedup path). The restore skips them: smaller REAP
    /// prefetch batch, fewer demand faults. `resident_pages = 0` is a
    /// full restore.
    pub fn spawn_restored_shared(
        &mut self,
        slot: usize,
        function: usize,
        now_ms: f64,
        resident_pages: usize,
    ) -> f64 {
        let restore_ms = self.snapshots.as_mut().map_or(0.0, |s| {
            s.restore_ms_with_resident(function, resident_pages)
        });
        self.spawn(slot, now_ms);
        restore_ms
    }

    /// Sets the memory-accounting weight of the warm instance in `slot`:
    /// the fraction of its footprint the host materialized after
    /// shared-page dedup. Every residency credit (expiry, eviction, live
    /// accounting) multiplies by it. Instances spawn at weight 1.0.
    /// Returns `false` if the slot has no warm instance.
    pub fn set_weight(&mut self, slot: usize, weight: f64) -> bool {
        match self.get_mut(slot) {
            Some(instance) => {
                instance.weight = weight;
                true
            }
            None => false,
        }
    }

    /// Records an invocation dispatched to the warm instance in `slot`
    /// at `now_ms`. Returns the idle gap since the previous invocation,
    /// or `None` if the slot has no warm instance (a cold start).
    pub fn invoke(&mut self, slot: usize, now_ms: f64) -> Option<f64> {
        let instance = self.get_mut(slot)?;
        let gap = (now_ms - instance.last_invoked_ms).max(0.0);
        instance.last_invoked_ms = now_ms;
        Some(gap)
    }

    /// Whether `slot` has a warm instance.
    pub fn is_warm(&self, slot: usize) -> bool {
        self.get(slot).is_some()
    }

    /// The most recent invocation time of the warm instance in `slot`
    /// (`None` while it has none) — the read the event-driven expiry
    /// check needs.
    pub fn last_invoked_ms(&self, slot: usize) -> Option<f64> {
        self.get(slot).map(|instance| instance.last_invoked_ms)
    }

    /// Number of warm instances.
    pub fn warm_count(&self) -> usize {
        self.warm
    }

    /// Takes the warm instance in `slot` out of the pool.
    fn take(&mut self, slot: usize) -> Option<Instance> {
        let instance = std::mem::take(self.get_mut(slot)?);
        self.warm -= 1;
        Some(instance)
    }

    /// Retires the warm instance in `slot` through its keep-alive
    /// *deadline*: an expiry event fired for it, whose deadline
    /// (`last_invoked + hold`) the caller already knows. Counts as an
    /// expiration and credits residency through `deadline_ms`, not
    /// through the (later) time the caller noticed — so memory
    /// accounting is independent of when the next arrival happened to
    /// land. Returns `false` if the slot has no warm instance.
    pub fn expire_with_deadline(&mut self, slot: usize, deadline_ms: f64) -> bool {
        let Some(instance) = self.take(slot) else {
            return false;
        };
        self.retired_memory_ms += (deadline_ms - instance.spawned_ms) * instance.weight;
        self.expirations += 1;
        true
    }

    /// Forcibly tears down the warm instance in `slot` (a crash or a
    /// memory-pressure eviction, as opposed to a keep-alive expiry).
    /// Returns `true` if there was one.
    pub fn evict(&mut self, slot: usize) -> bool {
        let Some(instance) = self.take(slot) else {
            return false;
        };
        self.evictions += 1;
        // Forced teardown carries no expiry deadline; credit residency
        // through the last invocation (a slight undercount of the idle
        // tail before the crash).
        self.retired_memory_ms +=
            (instance.last_invoked_ms - instance.spawned_ms) * instance.weight;
        true
    }

    /// The warm instances in spawn order — the order every sum over
    /// the resident set adds its credits in.
    fn by_spawn_order(&self) -> Vec<(usize, &Instance)> {
        let mut warm: Vec<(usize, &Instance)> = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, instance)| instance.spawn_seq != 0)
            .collect();
        warm.sort_unstable_by_key(|(_, instance)| instance.spawn_seq);
        warm
    }

    /// Evicts every warm instance at once — a host crash wipes the whole
    /// pool. Each loss counts as a forced eviction.
    pub fn evict_all(&mut self) {
        let mut total = self.retired_memory_ms;
        for (_, instance) in self.by_spawn_order() {
            total += (instance.last_invoked_ms - instance.spawned_ms) * instance.weight;
        }
        self.retired_memory_ms = total;
        self.evictions += self.warm as u64;
        self.warm = 0;
        self.instances.clear();
    }

    /// Cold starts since pool creation.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Keep-alive expirations since pool creation.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Forced evictions (crashes, memory pressure) since pool creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Instance-milliseconds already credited by retired instances.
    pub fn retired_memory_ms(&self) -> f64 {
        self.retired_memory_ms
    }

    /// Total warm-pool occupancy in instance-milliseconds through
    /// simulated time `end_ms`: everything retired instances credited,
    /// plus each still-resident instance's stay from spawn through the
    /// earlier of `end_ms` and its expiry deadline under `holds`, indexed
    /// by slot (`None`, or a slot past its end, = the global keep-alive). Read-only — nothing expires —
    /// so exporters can price memory without disturbing the
    /// end-of-run warm population.
    ///
    /// This is the x-axis of the memory-seconds-vs-P99 frontier: what a
    /// provider actually pays to run a keep-alive policy.
    pub fn residency_ms_through(&self, end_ms: f64, holds: Option<&[f64]>) -> f64 {
        let mut total = self.retired_memory_ms;
        for (slot, instance) in self.by_spawn_order() {
            let hold = holds
                .and_then(|h| h.get(slot).copied())
                .unwrap_or(self.keep_alive_ms);
            let until = end_ms.min(instance.last_invoked_ms + hold);
            total += (until - instance.spawned_ms).max(0.0) * instance.weight;
        }
        total
    }

    /// Contributes pool telemetry to `registry`: lifecycle counters under
    /// `pool.*`, the current warm population as a gauge, and — only when
    /// a snapshot store is attached — the `snapshot.*` restore series
    /// (so snapshot-free pools export exactly the pre-snapshot keys).
    ///
    /// The gauge is overwritten, not added: a fleet fills one registry
    /// from every host in turn, so its snapshot's `pool.warm_instances`
    /// is the last host's count, not the fleet's. It stays that way
    /// because lukebench hashes the fleet snapshot.
    pub fn fill_registry(&self, registry: &mut luke_obs::Registry) {
        registry.counter_add("pool.cold_starts", self.cold_starts);
        registry.counter_add("pool.expirations", self.expirations);
        registry.counter_add("pool.evictions", self.evictions);
        registry.counter_add("pool.memory_ms", self.retired_memory_ms.round() as u64);
        registry.gauge_set("pool.warm_instances", self.warm as f64);
        if let Some(snapshots) = &self.snapshots {
            snapshots.fill_registry(registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_invoke_track_gaps() {
        let mut pool = InstancePool::new(60_000.0);
        pool.spawn(0, 1000.0);
        assert_eq!(pool.invoke(0, 3500.0), Some(2500.0));
        assert_eq!(pool.invoke(0, 3600.0), Some(100.0));
        assert_eq!(pool.last_invoked_ms(0), Some(3600.0));
    }

    #[test]
    fn function_without_an_instance_returns_none() {
        let mut pool = InstancePool::new(60_000.0);
        assert_eq!(pool.invoke(99, 0.0), None);
        pool.spawn(3, 0.0);
        // Below the highest spawned function, but never spawned itself.
        assert_eq!(pool.invoke(1, 0.0), None);
        assert!(!pool.is_warm(1));
        assert!(pool.is_warm(3));
    }

    #[test]
    fn keep_alive_expires_idle_instances() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 0.0);
        pool.spawn(1, 0.0);
        pool.invoke(1, 9_000.0);
        // Function 0's deadline (0s + 10s) fired; function 1's (9s +
        // 10s) has not.
        assert!(pool.expire_with_deadline(0, 10_000.0));
        assert_eq!(pool.last_invoked_ms(0), None);
        assert_eq!(pool.last_invoked_ms(1), Some(9_000.0));
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.expirations(), 1);
        assert_eq!(pool.retired_memory_ms(), 10_000.0);
    }

    #[test]
    fn warm_count_and_cold_starts() {
        let mut pool = InstancePool::new(60_000.0);
        for f in 0..5 {
            pool.spawn(f, 0.0);
        }
        assert_eq!(pool.warm_count(), 5);
        assert_eq!(pool.cold_starts(), 5);
        // A function that expired spawns again: one more cold start, the
        // same warm population.
        assert!(pool.expire_with_deadline(2, 60_000.0));
        pool.spawn(2, 61_000.0);
        assert_eq!(pool.warm_count(), 5);
        assert_eq!(pool.cold_starts(), 6);
    }

    #[test]
    fn thousand_warm_instances_supported() {
        // §2.2: a thousand or more warm instances per server, one per
        // deployed function.
        let mut pool = InstancePool::new(600_000.0);
        for f in 0..1000 {
            pool.spawn(f, 0.0);
        }
        assert_eq!(pool.warm_count(), 1000);
        assert_eq!(pool.residency_ms_through(1.0, None), 1000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_keep_alive_rejected() {
        InstancePool::new(0.0);
    }

    #[test]
    fn try_new_reports_bad_keep_alive_without_panicking() {
        assert!(InstancePool::try_new(0.0).is_err());
        assert!(InstancePool::try_new(-1.0).is_err());
        assert!(InstancePool::try_new(f64::NAN).is_err());
        assert!(InstancePool::try_new(f64::INFINITY).is_err());
        let err = InstancePool::try_new(-1.0).unwrap_err();
        assert!(format!("{err}").contains("pool.keep_alive_ms"));
        assert!(InstancePool::try_new(60_000.0).is_ok());
    }

    #[test]
    fn evict_removes_and_counts() {
        let mut pool = InstancePool::new(60_000.0);
        pool.spawn(0, 0.0);
        pool.spawn(1, 0.0);
        assert!(pool.evict(0));
        assert!(!pool.evict(0), "double-evict must be a no-op");
        assert_eq!(pool.last_invoked_ms(0), None);
        assert_eq!(pool.last_invoked_ms(1), Some(0.0));
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.expirations(), 0, "evictions are not expirations");
    }

    #[test]
    fn expire_with_deadline_counts_and_credits_each_instance() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 1_000.0);
        pool.spawn(1, 2_000.0);
        pool.invoke(0, 4_000.0);
        // Both deadlines fired: function 0's at 4s + 10s, function 1's at
        // its 2s spawn + 10s.
        assert!(pool.expire_with_deadline(0, 14_000.0));
        assert!(pool.expire_with_deadline(1, 12_000.0));
        assert!(!pool.expire_with_deadline(0, 14_000.0), "already expired");
        assert!(
            !pool.expire_with_deadline(99, 0.0),
            "unknown function is a no-op"
        );
        assert_eq!(pool.expirations(), 2);
        assert_eq!(pool.evictions(), 0, "expirations are not evictions");
        assert_eq!(pool.retired_memory_ms(), 13_000.0 + 10_000.0);
        assert_eq!(pool.warm_count(), 0);
    }

    #[test]
    fn spawn_restored_without_a_store_is_free() {
        let mut pool = InstancePool::new(60_000.0);
        let restore_ms = pool.spawn_restored_shared(3, 3, 10.0, 0);
        assert_eq!(restore_ms, 0.0);
        assert_eq!(pool.last_invoked_ms(3), Some(10.0));
        assert_eq!(pool.cold_starts(), 1);
        assert!(pool.snapshots().is_none());
    }

    #[test]
    fn spawn_restored_prices_cold_starts_through_the_store() {
        use luke_snapshot::{ColdStartModel, SnapshotStore, SnapshotTimings};
        let store = SnapshotStore::for_profiles(
            ColdStartModel::ReapPrefetch,
            SnapshotTimings::default(),
            &workloads::paper_suite(),
        )
        .unwrap();
        let mut pool = InstancePool::new(60_000.0).with_snapshots(store);
        // The store keys its records by function id, not by slot: the
        // same function respawned in another slot replays its record.
        let record_ms = pool.spawn_restored_shared(0, 7, 0.0, 0);
        assert!(pool.expire_with_deadline(0, 60_000.0));
        let prefetch_ms = pool.spawn_restored_shared(1, 7, 61_000.0, 0);
        assert!(
            prefetch_ms < record_ms,
            "REAP replay {prefetch_ms}ms vs record {record_ms}ms"
        );
        let mut registry = luke_obs::Registry::new();
        pool.fill_registry(&mut registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("snapshot.restores"), 2);
        assert_eq!(snap.counter("snapshot.replay_aborts"), 0);
    }

    #[test]
    fn snapshot_free_pools_export_no_snapshot_series() {
        let mut pool = InstancePool::new(60_000.0);
        pool.spawn(0, 0.0);
        let mut registry = luke_obs::Registry::new();
        pool.fill_registry(&mut registry);
        let json = registry.snapshot().to_json();
        assert!(!json.contains("snapshot."), "pre-snapshot keys only");
        assert!(json.contains("pool.cold_starts"));
    }

    #[test]
    fn retired_memory_credits_the_expiry_deadline() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 1_000.0);
        pool.invoke(0, 4_000.0);
        // Expired by an arrival at t=50s: residency ran 1s → 14s (the
        // deadline), not through 50s.
        assert!(pool.expire_with_deadline(0, 4_000.0 + 10_000.0));
        assert_eq!(pool.retired_memory_ms(), 13_000.0);
    }

    #[test]
    fn eviction_credits_residency_through_the_last_invocation() {
        let mut pool = InstancePool::new(60_000.0);
        pool.spawn(0, 0.0);
        pool.invoke(0, 2_500.0);
        pool.evict(0);
        pool.spawn(1, 3_000.0);
        pool.invoke(1, 4_000.0);
        pool.evict_all();
        assert_eq!(pool.retired_memory_ms(), 2_500.0 + 1_000.0);
        assert_eq!(pool.warm_count(), 0);
        assert_eq!(pool.evictions(), 2);
        assert!(!pool.is_warm(1), "a crash leaves nothing warm");
    }

    #[test]
    fn residency_through_is_read_only_and_caps_at_end() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 1_000.0);
        // Live instance, deadline 11s: through t=5s counts 4s of stay;
        // through t=60s counts only to the deadline.
        assert_eq!(pool.residency_ms_through(5_000.0, None), 4_000.0);
        assert_eq!(pool.residency_ms_through(60_000.0, None), 10_000.0);
        assert!(pool.last_invoked_ms(0).is_some(), "nothing expired");
        assert_eq!(pool.retired_memory_ms(), 0.0);
        // A tighter per-function hold shrinks the live credit.
        assert_eq!(
            pool.residency_ms_through(60_000.0, Some(&[2_000.0])),
            2_000.0
        );
    }

    #[test]
    fn resident_credits_sum_in_spawn_order() {
        // Functions spawn out of index order. Each stay credits its last
        // invocation time, and the credits are chosen so that their f64
        // sum depends on the order they are added in.
        let spawns = [(2, 1e16), (0, 0.75), (1, 0.75)];
        let sum = |credits: &[(usize, f64)]| credits.iter().fold(0.0, |total, &(_, c)| total + c);
        let spawn_order = sum(&spawns);
        let mut by_function = spawns;
        by_function.sort_by_key(|&(function, _)| function);
        assert_ne!(
            spawn_order.to_bits(),
            sum(&by_function).to_bits(),
            "the credits must tell the two orders apart"
        );
        let mut pool = InstancePool::new(60_000.0);
        for &(function, last) in &spawns {
            pool.spawn(function, 0.0);
            pool.invoke(function, last);
        }
        // Zero holds end every live stay at its last invocation.
        let live = pool.residency_ms_through(f64::INFINITY, Some(&[0.0; 3]));
        assert_eq!(live.to_bits(), spawn_order.to_bits());
        // A crash credits every stay through its last invocation.
        pool.evict_all();
        assert_eq!(pool.retired_memory_ms().to_bits(), spawn_order.to_bits());
    }

    #[test]
    fn memory_ms_is_exported_as_a_pool_counter() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 0.0);
        assert!(pool.expire_with_deadline(0, 10_000.0));
        let mut registry = luke_obs::Registry::new();
        pool.fill_registry(&mut registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("pool.memory_ms"), 10_000);
        assert_eq!(snapshot.counter("pool.expirations"), 1);
        assert_eq!(snapshot.counter("pool.evictions"), 0);
    }

    #[test]
    fn weighted_instances_charge_deduped_residency() {
        let mut pool = InstancePool::new(10_000.0);
        pool.spawn(0, 0.0);
        assert!(pool.set_weight(0, 0.25));
        assert!(!pool.set_weight(99, 0.5), "no instance");
        // Live accounting scales by the weight...
        assert_eq!(pool.residency_ms_through(4_000.0, None), 1_000.0);
        // ...and so does the retirement credit (deadline 10s).
        assert!(pool.expire_with_deadline(0, 10_000.0));
        assert_eq!(pool.retired_memory_ms(), 2_500.0);
        // Eviction of a weighted instance credits through the last
        // invocation, scaled.
        pool.spawn(1, 0.0);
        pool.set_weight(1, 0.5);
        pool.invoke(1, 2_000.0);
        pool.evict(1);
        assert_eq!(pool.retired_memory_ms(), 2_500.0 + 1_000.0);
    }

    #[test]
    fn default_weight_accounts_bit_identically() {
        // The weight must be invisible until someone sets it: identical
        // schedules with and without weight writes of 1.0 produce
        // bitwise-equal memory credits.
        let mut plain = InstancePool::new(8_000.0);
        let mut weighted = InstancePool::new(8_000.0);
        let mut deadlines = Vec::new();
        for f in 0..16 {
            let at = (f % 5) as f64 * 700.0;
            plain.spawn(f, at);
            weighted.spawn(f, at);
            weighted.set_weight(f, 1.0);
            deadlines.push((f, at + 8_000.0));
        }
        for round in 1..=4 {
            let now = round as f64 * 3_500.0;
            for &(f, deadline) in deadlines.iter().filter(|&&(_, d)| d < now) {
                assert_eq!(
                    plain.expire_with_deadline(f, deadline),
                    weighted.expire_with_deadline(f, deadline)
                );
            }
            assert_eq!(plain.warm_count(), weighted.warm_count());
            assert_eq!(
                plain.retired_memory_ms().to_bits(),
                weighted.retired_memory_ms().to_bits()
            );
            assert_eq!(
                plain.residency_ms_through(now, None).to_bits(),
                weighted.residency_ms_through(now, None).to_bits()
            );
        }
        assert_eq!(plain.warm_count(), 0, "every deadline passed by 14s");
    }

    #[test]
    fn spawn_restored_shared_discounts_resident_pages() {
        use luke_snapshot::{ColdStartModel, SnapshotStore, SnapshotTimings};
        let store = SnapshotStore::for_profiles(
            ColdStartModel::ReapPrefetch,
            SnapshotTimings::default(),
            &workloads::paper_suite(),
        )
        .unwrap();
        let mut pool = InstancePool::new(60_000.0).with_snapshots(store);
        pool.spawn_restored_shared(0, 0, 0.0, 0); // record pass
        pool.evict(0);
        let full = pool.spawn_restored_shared(0, 0, 1.0, 0);
        pool.evict(0);
        let discounted = pool.spawn_restored_shared(0, 0, 2.0, 50);
        assert!(discounted < full, "{discounted} vs {full}");
        // Without a store the shared path stays free.
        let mut bare = InstancePool::new(60_000.0);
        assert_eq!(bare.spawn_restored_shared(0, 0, 0.0, 10), 0.0);
    }

    #[test]
    fn gap_clamped_for_out_of_order_clock() {
        let mut pool = InstancePool::new(60_000.0);
        pool.spawn(0, 100.0);
        assert_eq!(pool.invoke(0, 50.0), Some(0.0));
    }
}
