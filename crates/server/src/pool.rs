//! The warm-instance pool and provider keep-alive policy.
//!
//! Providers keep idle function instances alive for 5–60 minutes (§2.1)
//! in anticipation of further invocations; with hundreds of gigabytes of
//! host memory, a thousand or more warm instances may be resident (§2.2).
//! The pool tracks per-instance idle times and applies the keep-alive
//! policy either on a sweep ([`InstancePool::sweep`]) or one instance at
//! a time when an event-driven caller already knows which deadline fired
//! ([`InstancePool::expire_with_deadline`]).
//!
//! # Layout: struct of arrays
//!
//! Instance state lives in parallel columns (`ids`, `functions`,
//! `last_invoked_ms`, `spawned_ms`, `invocations`) kept sorted by id.
//! Ids are handed out monotonically, so a spawn is an ordered push, a
//! lookup is a binary search, and the expiry/decay sweep is a linear
//! pass over two dense `f64` columns — the cache-friendly shape the
//! fleet's hot loop wants. Sorted-by-id iteration also preserves the
//! old `BTreeMap` semantics exactly: sweeps expire in ascending id
//! order and equally idle instances tie-break to the highest id, so the
//! pool stays bit-reproducible run to run.

use luke_common::SimError;
use luke_snapshot::SnapshotStore;

/// One warm (memory-resident) function instance, materialized from the
/// pool's columns on lookup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmInstance {
    /// Unique instance id (process id on the host).
    pub id: u64,
    /// Index of the function this instance runs (into the host's function
    /// table).
    pub function: usize,
    /// Wall-clock time of the most recent invocation, in milliseconds.
    pub last_invoked_ms: f64,
    /// Wall-clock time this instance was spawned, in milliseconds — the
    /// start of its memory residency.
    pub spawned_ms: f64,
    /// Number of invocations served.
    pub invocations: u64,
}

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
    /// Invocations served per instance, parallel to `ids`.
    invocations: Vec<u64>,
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
            invocations: Vec::new(),
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
    /// [`InstancePool::spawn_restored`]. Without one (or with
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
        self.invocations.remove(slot);
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
        self.invocations.push(0);
        self.weights.push(1.0);
        id
    }

    /// Like [`InstancePool::spawn`], but also prices the cold start's
    /// memory bring-up through the attached snapshot store: returns the
    /// new instance id and the restore latency in milliseconds (0 with
    /// no store, or under `ColdStartModel::Instant`).
    pub fn spawn_restored(&mut self, function: usize, now_ms: f64) -> (u64, f64) {
        let restore_ms = self
            .snapshots
            .as_mut()
            .map_or(0.0, |s| s.restore_ms(function));
        (self.spawn(function, now_ms), restore_ms)
    }

    /// Like [`InstancePool::spawn_restored`], but forces the restore onto
    /// the lazy-paging path — the admission ladder's memory-pressure rung
    /// skips the prefetch burst on an already-pressured host.
    pub fn spawn_restored_degraded(&mut self, function: usize, now_ms: f64) -> (u64, f64) {
        let restore_ms = self
            .snapshots
            .as_mut()
            .map_or(0.0, |s| s.restore_ms_degraded(function));
        (self.spawn(function, now_ms), restore_ms)
    }

    /// Like [`InstancePool::spawn_restored`], but `resident_pages` of
    /// the function's working set are already resident on the host —
    /// shared pages a co-resident same-language instance brought in
    /// (the `luke-tenancy` dedup path). The restore skips them:
    /// smaller REAP prefetch batch, fewer demand faults. With
    /// `resident_pages = 0` this is exactly `spawn_restored`.
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
    /// Every residency credit (retirement, sweep, live accounting)
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
        self.invocations[slot] += 1;
        Some(gap)
    }

    /// Builds the row view of one column slot.
    fn materialize(&self, slot: usize) -> WarmInstance {
        WarmInstance {
            id: self.ids[slot],
            function: self.functions[slot],
            last_invoked_ms: self.last_invoked_ms[slot],
            spawned_ms: self.spawned_ms[slot],
            invocations: self.invocations[slot],
        }
    }

    /// Applies the keep-alive policy at time `now_ms`: tears down
    /// instances idle longer than the window. Returns how many expired.
    ///
    /// Delegates to [`InstancePool::sweep_expired_ids`] — both
    /// expiration paths share one compaction so they cannot drift.
    pub fn sweep(&mut self, now_ms: f64) -> usize {
        self.sweep_expired_ids(now_ms).len()
    }

    /// Like [`InstancePool::sweep`], but returns the expired instance
    /// ids in ascending order. Because the columns are id-sorted, two
    /// identical runs expire identical id sequences.
    pub fn sweep_expired_ids(&mut self, now_ms: f64) -> Vec<u64> {
        self.sweep_by_hold(now_ms, None)
    }

    /// The adaptive-expiry hook: like
    /// [`InstancePool::sweep_expired_ids`], but each instance is held
    /// for its *function's* window — `holds[function]`, as maintained by
    /// a `luke-predict` policy bank — instead of the pool's single
    /// global `keep_alive_ms`. Functions beyond the slice (or a hold of
    /// exactly the cap) behave as without prediction.
    pub fn sweep_adaptive(&mut self, now_ms: f64, holds: &[f64]) -> Vec<u64> {
        self.sweep_by_hold(now_ms, Some(holds))
    }

    /// The one shared compaction behind every sweep path (so fixed and
    /// adaptive sweeps cannot drift): a single order-preserving pass
    /// over the columns. A retired instance credits its residency
    /// through its expiry *deadline* (`last_invoked + hold`), not the
    /// sweep time — sweeps run lazily on arrivals, and crediting the
    /// deadline makes memory accounting independent of when the next
    /// arrival happened to land.
    fn sweep_by_hold(&mut self, now_ms: f64, holds: Option<&[f64]>) -> Vec<u64> {
        let keep_alive = self.keep_alive_ms;
        let mut expired = Vec::new();
        let mut retired_ms = 0.0;
        let mut write = 0;
        for read in 0..self.ids.len() {
            let hold = holds
                .and_then(|h| h.get(self.functions[read]).copied())
                .unwrap_or(keep_alive);
            if now_ms - self.last_invoked_ms[read] <= hold {
                if write != read {
                    self.ids[write] = self.ids[read];
                    self.functions[write] = self.functions[read];
                    self.last_invoked_ms[write] = self.last_invoked_ms[read];
                    self.spawned_ms[write] = self.spawned_ms[read];
                    self.invocations[write] = self.invocations[read];
                    self.weights[write] = self.weights[read];
                }
                write += 1;
            } else {
                expired.push(self.ids[read]);
                retired_ms += (self.last_invoked_ms[read] + hold - self.spawned_ms[read])
                    * self.weights[read];
            }
        }
        self.truncate(write);
        self.retired_memory_ms += retired_ms;
        self.expirations += expired.len() as u64;
        expired
    }

    /// Shrinks every column to `len` survivors.
    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.functions.truncate(len);
        self.last_invoked_ms.truncate(len);
        self.spawned_ms.truncate(len);
        self.invocations.truncate(len);
        self.weights.truncate(len);
    }

    /// Retires one instance through its keep-alive *deadline* — the
    /// event-driven twin of [`InstancePool::sweep`]: an expiry event
    /// fired for `id`, whose deadline (`last_invoked + hold`) the caller
    /// already knows. Counts as an expiration and credits residency
    /// through `deadline_ms`, exactly as the sweep would have. Returns
    /// `false` if the instance is unknown.
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

    /// The resident instance ids, ascending.
    pub fn live_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Instance lookup.
    pub fn instance(&self, id: u64) -> Option<WarmInstance> {
        self.slot(id).map(|slot| self.materialize(slot))
    }

    /// The most recent invocation time of instance `id` — the hot-path
    /// read the event-driven expiry check needs, without materializing
    /// the whole row.
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
        self.truncate(0);
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
    /// (`None` = the global keep-alive). Read-only — the pool is not
    /// swept — so exporters can price memory without disturbing the
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
        assert_eq!(pool.instance(id).unwrap().invocations, 2);
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
        let expired = pool.sweep(15_000.0);
        assert_eq!(expired, 1);
        assert!(pool.instance(a).is_none());
        assert!(pool.instance(b).is_some());
        assert_eq!(pool.expirations(), 1);
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
        assert_eq!(pool.sweep(1.0), 0);
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
        assert!(pool.instance(a).is_none());
        assert!(pool.instance(b).is_some());
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.expirations(), 0, "evictions are not expirations");
    }

    /// Spawns a population, idles some of it out, and returns the exact
    /// eviction order observed.
    fn eviction_sequence() -> Vec<u64> {
        let mut pool = InstancePool::new(10_000.0);
        let mut evicted = Vec::new();
        // 64 instances, all idle past the window at t=20s.
        for f in 0..64 {
            pool.spawn(f % 8, (f % 3) as f64 * 100.0);
        }
        evicted.extend(pool.sweep_expired_ids(20_000.0));
        // A second wave with staggered last-invocation times.
        let ids: Vec<u64> = (0..32).map(|f| pool.spawn(f % 8, 20_000.0)).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.invoke(id, 20_000.0 + (i % 4) as f64 * 1_000.0);
        }
        evicted.extend(pool.sweep_expired_ids(32_500.0));
        evicted
    }

    #[test]
    fn identical_sweeps_evict_identical_instance_ids() {
        // Regression: with a `HashMap<u64, _, RandomState>` the sweep
        // visited instances in a per-process random order, so the
        // eviction sequence differed run to run. The id-sorted columns
        // make it a pure function of the invocation history.
        let first = eviction_sequence();
        let second = eviction_sequence();
        assert_eq!(first, second);
        assert!(!first.is_empty());
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(first, sorted, "expiries must come back in id order");
    }

    #[test]
    fn sweep_delegates_so_the_two_expiration_paths_cannot_drift() {
        // Regression for the formerly duplicated sweep bodies: run
        // the same schedule through both entry points and pin that the
        // eviction order (and therefore the surviving state) is
        // identical round after round.
        let mut by_ids = InstancePool::new(8_000.0);
        let mut by_count = InstancePool::new(8_000.0);
        for f in 0..48 {
            let at = (f % 7) as f64 * 900.0;
            by_ids.spawn(f, at);
            by_count.spawn(f, at);
        }
        for round in 1..=6 {
            let now = round as f64 * 4_000.0;
            let ids = by_ids.sweep_expired_ids(now);
            let n = by_count.sweep(now);
            assert_eq!(ids.len(), n, "round {round}");
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "round {round}: id-order eviction");
            assert_eq!(by_ids.expirations(), by_count.expirations());
            assert_eq!(
                by_ids.live_ids(),
                by_count.live_ids(),
                "round {round}: survivors diverged"
            );
            // Refill a little so later rounds have work to do.
            let f = 100 + round;
            by_ids.spawn(f, now);
            by_count.spawn(f, now);
        }
    }

    #[test]
    fn expire_with_deadline_matches_the_sweep_exactly() {
        // The event-driven path must leave the same counters, credit,
        // and survivors as a lazy sweep that fires the same deadline.
        let mut swept = InstancePool::new(10_000.0);
        let mut evented = InstancePool::new(10_000.0);
        let a1 = swept.spawn(0, 1_000.0);
        let a2 = evented.spawn(0, 1_000.0);
        swept.spawn(1, 2_000.0);
        evented.spawn(1, 2_000.0);
        swept.invoke(a1, 4_000.0);
        evented.invoke(a2, 4_000.0);
        // Sweep at t=50s expires only function 0's instance (deadline
        // 14s); function 1's last touch was its spawn at 2s... also past
        // due, so expire that one by event too.
        let expired = swept.sweep(50_000.0);
        assert_eq!(expired, 2);
        assert!(evented.expire_with_deadline(a2, 4_000.0 + 10_000.0));
        assert!(evented.expire_with_deadline(2, 2_000.0 + 10_000.0));
        assert!(
            !evented.expire_with_deadline(99, 0.0),
            "unknown id is a no-op"
        );
        assert_eq!(evented.expirations(), swept.expirations());
        assert_eq!(evented.retired_memory_ms(), swept.retired_memory_ms());
        assert_eq!(evented.warm_count(), swept.warm_count());
    }

    #[test]
    fn spawn_restored_without_a_store_is_free() {
        let mut pool = InstancePool::new(60_000.0);
        let (id, restore_ms) = pool.spawn_restored(3, 10.0);
        assert_eq!(restore_ms, 0.0);
        assert_eq!(pool.instance(id).unwrap().function, 3);
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
        let (_, record_ms) = pool.spawn_restored(0, 0.0);
        let (_, prefetch_ms) = pool.spawn_restored(0, 1.0);
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
    fn sweep_expired_ids_matches_sweep_counts() {
        let mut a = InstancePool::new(5_000.0);
        let mut b = InstancePool::new(5_000.0);
        for f in 0..10 {
            a.spawn(f, f as f64 * 400.0);
            b.spawn(f, f as f64 * 400.0);
        }
        let ids = a.sweep_expired_ids(6_000.0);
        let n = b.sweep(6_000.0);
        assert_eq!(ids.len(), n);
        assert_eq!(a.expirations(), b.expirations());
        assert_eq!(a.warm_count(), b.warm_count());
    }

    #[test]
    fn adaptive_sweep_honors_per_function_holds() {
        let mut pool = InstancePool::new(60_000.0);
        let a = pool.spawn(0, 0.0); // hold 5s
        let b = pool.spawn(1, 0.0); // hold 60s (global)
        let expired = pool.sweep_adaptive(10_000.0, &[5_000.0, 60_000.0]);
        assert_eq!(expired, vec![a]);
        assert!(pool.instance(b).is_some());
        assert_eq!(pool.expirations(), 1);
    }

    #[test]
    fn adaptive_sweep_with_global_holds_matches_the_fixed_sweep() {
        let mut fixed = InstancePool::new(8_000.0);
        let mut adaptive = InstancePool::new(8_000.0);
        for f in 0..24 {
            let at = (f % 5) as f64 * 700.0;
            fixed.spawn(f, at);
            adaptive.spawn(f, at);
        }
        let holds = vec![8_000.0; 24];
        for round in 1..=4 {
            let now = round as f64 * 3_500.0;
            assert_eq!(
                fixed.sweep_expired_ids(now),
                adaptive.sweep_adaptive(now, &holds),
                "round {round}"
            );
            assert_eq!(fixed.retired_memory_ms(), adaptive.retired_memory_ms());
        }
    }

    #[test]
    fn functions_beyond_the_holds_slice_use_the_global_window() {
        let mut pool = InstancePool::new(60_000.0);
        let a = pool.spawn(9, 0.0); // function 9, holds slice covers 0..1
        assert!(pool.sweep_adaptive(10_000.0, &[5_000.0]).is_empty());
        assert!(pool.instance(a).is_some());
    }

    #[test]
    fn retired_memory_credits_the_expiry_deadline_not_the_sweep_time() {
        let mut pool = InstancePool::new(10_000.0);
        let id = pool.spawn(0, 1_000.0);
        pool.invoke(id, 4_000.0);
        // Swept late, at t=50s: residency ran 1s → 14s (deadline), not 50s.
        assert_eq!(pool.sweep(50_000.0), 1);
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
        assert!(pool.instance(id).is_some(), "no sweep happened");
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
        pool.spawn(0, 0.0);
        pool.sweep(20_000.0);
        let mut registry = luke_obs::Registry::new();
        pool.fill_registry(&mut registry);
        assert_eq!(registry.snapshot().counter("pool.memory_ms"), 10_000);
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
        assert_eq!(pool.sweep(30_000.0), 1);
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
        for f in 0..16 {
            let at = (f % 5) as f64 * 700.0;
            plain.spawn(f, at);
            let id = weighted.spawn(f, at);
            weighted.set_weight(id, 1.0);
        }
        for round in 1..=4 {
            let now = round as f64 * 3_500.0;
            assert_eq!(
                plain.sweep_expired_ids(now),
                weighted.sweep_expired_ids(now)
            );
            assert_eq!(plain.retired_memory_ms(), weighted.retired_memory_ms());
            assert_eq!(
                plain.residency_ms_through(now, None),
                weighted.residency_ms_through(now, None)
            );
        }
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
        pool.spawn_restored(0, 0.0); // record pass
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
