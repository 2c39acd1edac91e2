//! The warm-instance pool and provider keep-alive policy.
//!
//! Providers keep idle function instances alive for 5–60 minutes (§2.1)
//! in anticipation of further invocations; with hundreds of gigabytes of
//! host memory, a thousand or more warm instances may be resident (§2.2).
//! The pool tracks per-instance idle times; the keep-alive policy is
//! applied one instance at a time by an event-driven caller that already
//! knows which deadline fired ([`InstancePool::expire_with_deadline`]).
//!
//! # Layout: struct of arrays
//!
//! Instance state lives in parallel columns (`ids`, `functions`,
//! `last_invoked_ms`, `spawned_ms`, `weights`) kept sorted by id. Ids
//! are handed out monotonically, so a spawn is an ordered push and a
//! lookup is a binary search; residency accounting is a linear pass
//! over dense `f64` columns in ascending id order, so the pool stays
//! bit-reproducible run to run.

use luke_common::SimError;
use luke_snapshot::SnapshotStore;

/// The pool of warm instances (see module docs).
#[derive(Clone, Debug)]
pub struct InstancePool {
    keep_alive_ms: f64,
    /// Instance ids, ascending (ids are allocated monotonically).
    ids: Vec<u64>,
    /// Function run by each instance, parallel to `ids`.
    functions: Vec<usize>,
    /// Most recent invocation time per instance, parallel to `ids`.
    last_invoked_ms: Vec<f64>,
    /// Spawn (residency-start) time per instance, parallel to `ids`.
    spawned_ms: Vec<f64>,
    /// Memory-accounting weight per instance, parallel to `ids`: the
    /// fraction of the instance's footprint the host actually
    /// materialized. 1.0 unless a tenancy layer dedupes shared pages
    /// ([`InstancePool::set_weight`]); residency credits multiply by it,
    /// and `× 1.0` is IEEE-exact so weightless pools account bit-for-bit
    /// as before the column existed.
    weights: Vec<f64>,
    next_id: u64,
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
            ids: Vec::new(),
            functions: Vec::new(),
            last_invoked_ms: Vec::new(),
            spawned_ms: Vec::new(),
            weights: Vec::new(),
            next_id: 1,
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

    /// The column index of instance `id`, by binary search over the
    /// ascending id column.
    fn slot(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Drops the instance in `slot` out of every column.
    fn remove_slot(&mut self, slot: usize) {
        self.ids.remove(slot);
        self.functions.remove(slot);
        self.last_invoked_ms.remove(slot);
        self.spawned_ms.remove(slot);
        self.weights.remove(slot);
    }

    /// Spawns a new warm instance for `function` at time `now_ms` (a cold
    /// start). Returns its id.
    pub fn spawn(&mut self, function: usize, now_ms: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.cold_starts += 1;
        // Ids are monotonic, so pushing keeps every column id-sorted.
        self.ids.push(id);
        self.functions.push(function);
        self.last_invoked_ms.push(now_ms);
        self.spawned_ms.push(now_ms);
        self.weights.push(1.0);
        id
    }

    /// Like [`InstancePool::spawn_restored_shared`] with nothing
    /// resident, but forces the restore onto the lazy-paging path — the
    /// admission ladder's memory-pressure rung skips the prefetch burst
    /// on an already-pressured host.
    pub fn spawn_restored_degraded(&mut self, function: usize, now_ms: f64) -> (u64, f64) {
        let restore_ms = self
            .snapshots
            .as_mut()
            .map_or(0.0, |s| s.restore_ms_degraded(function));
        (self.spawn(function, now_ms), restore_ms)
    }

    /// Like [`InstancePool::spawn`], but also prices the cold start's
    /// memory bring-up through the attached snapshot store: returns the
    /// new instance id and the restore latency in milliseconds (0 with
    /// no store, or under `ColdStartModel::Instant`). `resident_pages`
    /// of the function's working set are already resident on the host —
    /// shared pages a co-resident same-language instance brought in
    /// (the `luke-tenancy` dedup path). The restore skips them: smaller
    /// REAP prefetch batch, fewer demand faults. `resident_pages = 0` is
    /// a full restore.
    pub fn spawn_restored_shared(
        &mut self,
        function: usize,
        now_ms: f64,
        resident_pages: usize,
    ) -> (u64, f64) {
        let restore_ms = self.snapshots.as_mut().map_or(0.0, |s| {
            s.restore_ms_with_resident(function, resident_pages)
        });
        (self.spawn(function, now_ms), restore_ms)
    }

    /// Sets the memory-accounting weight of instance `id`: the fraction
    /// of its footprint the host materialized after shared-page dedup.
    /// Every residency credit (expiry, eviction, live accounting)
    /// multiplies by it. Instances spawn at weight 1.0. Returns `false`
    /// if the instance is unknown.
    pub fn set_weight(&mut self, id: u64, weight: f64) -> bool {
        match self.slot(id) {
            Some(slot) => {
                self.weights[slot] = weight;
                true
            }
            None => false,
        }
    }

    /// Records an invocation dispatched to `id` at `now_ms`. Returns the
    /// idle gap since the previous invocation, or `None` if the instance
    /// is unknown (expired).
    pub fn invoke(&mut self, id: u64, now_ms: f64) -> Option<f64> {
        let slot = self.slot(id)?;
        let gap = (now_ms - self.last_invoked_ms[slot]).max(0.0);
        self.last_invoked_ms[slot] = now_ms;
        Some(gap)
    }

    /// Retires one instance through its keep-alive *deadline*: an expiry
    /// event fired for `id`, whose deadline (`last_invoked + hold`) the
    /// caller already knows. Counts as an expiration and credits
    /// residency through `deadline_ms`, not through the (later) time the
    /// caller noticed — so memory accounting is independent of when the
    /// next arrival happened to land. Returns `false` if the instance is
    /// unknown.
    pub fn expire_with_deadline(&mut self, id: u64, deadline_ms: f64) -> bool {
        match self.slot(id) {
            Some(slot) => {
                self.retired_memory_ms +=
                    (deadline_ms - self.spawned_ms[slot]) * self.weights[slot];
                self.remove_slot(slot);
                self.expirations += 1;
                true
            }
            None => false,
        }
    }

    /// Number of warm instances.
    pub fn warm_count(&self) -> usize {
        self.ids.len()
    }

    /// The most recent invocation time of instance `id` (`None` once it
    /// has expired or been evicted) — the read the event-driven expiry
    /// check needs.
    pub fn last_invoked_ms(&self, id: u64) -> Option<f64> {
        self.slot(id).map(|slot| self.last_invoked_ms[slot])
    }

    /// Forcibly tears down one instance (a crash or a memory-pressure
    /// eviction, as opposed to a keep-alive expiry). Returns `true` if the
    /// instance existed.
    pub fn evict(&mut self, id: u64) -> bool {
        match self.slot(id) {
            Some(slot) => {
                self.evictions += 1;
                // Forced teardown carries no expiry deadline; credit
                // residency through the last invocation (a slight
                // undercount of the idle tail before the crash).
                self.retired_memory_ms +=
                    (self.last_invoked_ms[slot] - self.spawned_ms[slot]) * self.weights[slot];
                self.remove_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Evicts every warm instance at once — a host crash wipes the whole
    /// pool. Each loss counts as a forced eviction.
    pub fn evict_all(&mut self) {
        let died = self.ids.len();
        for slot in 0..died {
            self.retired_memory_ms +=
                (self.last_invoked_ms[slot] - self.spawned_ms[slot]) * self.weights[slot];
        }
        self.ids.clear();
        self.functions.clear();
        self.last_invoked_ms.clear();
        self.spawned_ms.clear();
        self.weights.clear();
        self.evictions += died as u64;
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
    /// earlier of `end_ms` and its expiry deadline under `holds`
    /// (`None` = the global keep-alive). Read-only — nothing expires —
    /// so exporters can price memory without disturbing the
    /// end-of-run warm population.
    ///
    /// This is the x-axis of the memory-seconds-vs-P99 frontier: what a
    /// provider actually pays to run a keep-alive policy.
    pub fn residency_ms_through(&self, end_ms: f64, holds: Option<&[f64]>) -> f64 {
        let mut total = self.retired_memory_ms;
        for slot in 0..self.ids.len() {
            let hold = holds
                .and_then(|h| h.get(self.functions[slot]).copied())
                .unwrap_or(self.keep_alive_ms);
            let until = end_ms.min(self.last_invoked_ms[slot] + hold);
            total += (until - self.spawned_ms[slot]).max(0.0) * self.weights[slot];
        }
        total
    }

    /// Contributes pool telemetry to `registry`: lifecycle counters under
    /// `pool.*`, the current warm population as a gauge, and — only when
    /// a snapshot store is attached — the `snapshot.*` restore series
    /// (so snapshot-free pools export exactly the pre-snapshot keys).
    pub fn fill_registry(&self, registry: &mut luke_obs::Registry) {
        registry.counter_add("pool.cold_starts", self.cold_starts);
        registry.counter_add("pool.expirations", self.expirations);
        registry.counter_add("pool.evictions", self.evictions);
        registry.counter_add("pool.memory_ms", self.retired_memory_ms.round() as u64);
        registry.gauge_set("pool.warm_instances", self.ids.len() as f64);
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
        let id = pool.spawn(0, 1000.0);
        assert_eq!(pool.invoke(id, 3500.0), Some(2500.0));
        assert_eq!(pool.invoke(id, 3600.0), Some(100.0));
        assert_eq!(pool.last_invoked_ms(id), Some(3600.0));
    }

    #[test]
    fn unknown_instance_returns_none() {
        let mut pool = InstancePool::new(60_000.0);
        assert_eq!(pool.invoke(99, 0.0), None);
    }

    #[test]
    fn keep_alive_expires_idle_instances() {
        let mut pool = InstancePool::new(10_000.0);
        let a = pool.spawn(0, 0.0);
        let b = pool.spawn(1, 0.0);
        pool.invoke(b, 9_000.0);
        // a's deadline (0s + 10s) fired; b's (9s + 10s) has not.
        assert!(pool.expire_with_deadline(a, 10_000.0));
        assert_eq!(pool.last_invoked_ms(a), None);
        assert_eq!(pool.last_invoked_ms(b), Some(9_000.0));
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
    }

    #[test]
    fn thousand_warm_instances_supported() {
        // §2.2: a thousand or more warm instances per server.
        let mut pool = InstancePool::new(600_000.0);
        for f in 0..1000 {
            pool.spawn(f % 20, 0.0);
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
        let a = pool.spawn(0, 0.0);
        let b = pool.spawn(1, 0.0);
        assert!(pool.evict(a));
        assert!(!pool.evict(a), "double-evict must be a no-op");
        assert_eq!(pool.last_invoked_ms(a), None);
        assert_eq!(pool.last_invoked_ms(b), Some(0.0));
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.expirations(), 0, "evictions are not expirations");
    }

    #[test]
    fn expire_with_deadline_counts_and_credits_each_instance() {
        let mut pool = InstancePool::new(10_000.0);
        let a = pool.spawn(0, 1_000.0);
        let b = pool.spawn(1, 2_000.0);
        pool.invoke(a, 4_000.0);
        // Both deadlines fired: a's at 4s + 10s, b's at its 2s spawn + 10s.
        assert!(pool.expire_with_deadline(a, 14_000.0));
        assert!(pool.expire_with_deadline(b, 12_000.0));
        assert!(!pool.expire_with_deadline(a, 14_000.0), "already expired");
        assert!(!pool.expire_with_deadline(99, 0.0), "unknown id is a no-op");
        assert_eq!(pool.expirations(), 2);
        assert_eq!(pool.evictions(), 0, "expirations are not evictions");
        assert_eq!(pool.retired_memory_ms(), 13_000.0 + 10_000.0);
        assert_eq!(pool.warm_count(), 0);
    }

    #[test]
    fn spawn_restored_without_a_store_is_free() {
        let mut pool = InstancePool::new(60_000.0);
        let (id, restore_ms) = pool.spawn_restored_shared(3, 10.0, 0);
        assert_eq!(restore_ms, 0.0);
        assert_eq!(pool.last_invoked_ms(id), Some(10.0));
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
        let (_, record_ms) = pool.spawn_restored_shared(0, 0.0, 0);
        let (_, prefetch_ms) = pool.spawn_restored_shared(0, 1.0, 0);
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
        let id = pool.spawn(0, 1_000.0);
        pool.invoke(id, 4_000.0);
        // Expired by an arrival at t=50s: residency ran 1s → 14s (the
        // deadline), not through 50s.
        assert!(pool.expire_with_deadline(id, 4_000.0 + 10_000.0));
        assert_eq!(pool.retired_memory_ms(), 13_000.0);
    }

    #[test]
    fn eviction_credits_residency_through_the_last_invocation() {
        let mut pool = InstancePool::new(60_000.0);
        let a = pool.spawn(0, 0.0);
        pool.invoke(a, 2_500.0);
        pool.evict(a);
        let b = pool.spawn(1, 3_000.0);
        pool.invoke(b, 4_000.0);
        pool.evict_all();
        assert_eq!(pool.retired_memory_ms(), 2_500.0 + 1_000.0);
    }

    #[test]
    fn residency_through_is_read_only_and_caps_at_end() {
        let mut pool = InstancePool::new(10_000.0);
        let id = pool.spawn(0, 1_000.0);
        // Live instance, deadline 11s: through t=5s counts 4s of stay;
        // through t=60s counts only to the deadline.
        assert_eq!(pool.residency_ms_through(5_000.0, None), 4_000.0);
        assert_eq!(pool.residency_ms_through(60_000.0, None), 10_000.0);
        assert!(pool.last_invoked_ms(id).is_some(), "nothing expired");
        assert_eq!(pool.retired_memory_ms(), 0.0);
        // A tighter per-function hold shrinks the live credit.
        assert_eq!(
            pool.residency_ms_through(60_000.0, Some(&[2_000.0])),
            2_000.0
        );
    }

    #[test]
    fn memory_ms_is_exported_as_a_pool_counter() {
        let mut pool = InstancePool::new(10_000.0);
        let id = pool.spawn(0, 0.0);
        assert!(pool.expire_with_deadline(id, 10_000.0));
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
        let a = pool.spawn(0, 0.0);
        assert!(pool.set_weight(a, 0.25));
        assert!(!pool.set_weight(99, 0.5), "unknown id");
        // Live accounting scales by the weight...
        assert_eq!(pool.residency_ms_through(4_000.0, None), 1_000.0);
        // ...and so does the retirement credit (deadline 10s).
        assert!(pool.expire_with_deadline(a, 10_000.0));
        assert_eq!(pool.retired_memory_ms(), 2_500.0);
        // Eviction of a weighted instance credits through the last
        // invocation, scaled.
        let b = pool.spawn(1, 0.0);
        pool.set_weight(b, 0.5);
        pool.invoke(b, 2_000.0);
        pool.evict(b);
        assert_eq!(pool.retired_memory_ms(), 2_500.0 + 1_000.0);
    }

    #[test]
    fn default_weight_accounts_bit_identically() {
        // The weight column must be invisible until someone sets it:
        // identical schedules with and without weight writes of 1.0
        // produce bitwise-equal memory credits.
        let mut plain = InstancePool::new(8_000.0);
        let mut weighted = InstancePool::new(8_000.0);
        let mut deadlines = Vec::new();
        for f in 0..16 {
            let at = (f % 5) as f64 * 700.0;
            let id = plain.spawn(f, at);
            assert_eq!(weighted.spawn(f, at), id);
            weighted.set_weight(id, 1.0);
            deadlines.push((id, at + 8_000.0));
        }
        for round in 1..=4 {
            let now = round as f64 * 3_500.0;
            for &(id, deadline) in deadlines.iter().filter(|&&(_, d)| d < now) {
                assert_eq!(
                    plain.expire_with_deadline(id, deadline),
                    weighted.expire_with_deadline(id, deadline)
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
        pool.spawn_restored_shared(0, 0.0, 0); // record pass
        let (_, full) = pool.spawn_restored_shared(0, 1.0, 0);
        let (_, discounted) = pool.spawn_restored_shared(0, 2.0, 50);
        assert!(discounted < full, "{discounted} vs {full}");
        // Without a store the shared path stays free.
        let mut bare = InstancePool::new(60_000.0);
        let (_, ms) = bare.spawn_restored_shared(0, 0.0, 10);
        assert_eq!(ms, 0.0);
    }

    #[test]
    fn gap_clamped_for_out_of_order_clock() {
        let mut pool = InstancePool::new(60_000.0);
        let id = pool.spawn(0, 100.0);
        assert_eq!(pool.invoke(id, 50.0), Some(0.0));
    }
}
