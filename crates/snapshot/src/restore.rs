//! The restore timing model: instant, lazy paging, or REAP prefetch.
//!
//! Restoring an instance from a snapshot is dominated by page faults:
//! every first touch of a non-resident page takes a VM exit, a
//! userfaultfd round trip and a backing-store read. REAP replaces the
//! fault storm with one batched sequential read of the recorded working
//! set. The [`SnapshotStore`] prices both paths:
//!
//! * **lazy paging** — `base + pages × page_fault`;
//! * **REAP prefetch** — `base + batch + pages × prefetch_page`, after a
//!   first restore that records the set while paying lazy-paging cost.
//!
//! Metadata validation is the same trust boundary as Jukebox replay:
//! before prefetching, the record's integrity tag is recomputed and its
//! pages bounds-checked against the function's working set. A failed
//! check *degrades* the restore — lazy paging, `replay_aborts` bumped,
//! fresh metadata re-recorded — and never panics or prefetches outside
//! the layout.

use crate::metadata::SnapshotMetadata;
use crate::working_set::PageWorkingSet;
use luke_common::SimError;
use luke_obs::{Histogram, Registry};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use workloads::FunctionProfile;

/// How the serving layer prices a cold start's memory bring-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ColdStartModel {
    /// No snapshot modeling: instances materialize instantly and the
    /// serving layer keeps charging its flat configured boot cost — the
    /// pre-snapshot behavior, bit for bit.
    #[default]
    Instant,
    /// Snapshot restore with demand paging: every working-set page pays
    /// a fault on first touch.
    LazyPaging,
    /// REAP: record the page working set on the first restore, then
    /// bulk-prefetch it on every later restore (validate-or-degrade).
    ReapPrefetch,
}

impl ColdStartModel {
    /// Stable label for tables and exports.
    pub fn label(&self) -> &'static str {
        match self {
            ColdStartModel::Instant => "instant",
            ColdStartModel::LazyPaging => "lazy-paging",
            ColdStartModel::ReapPrefetch => "reap-prefetch",
        }
    }
}

/// Restore-path latency parameters, microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotTimings {
    /// Fixed restore overhead: loading the VMM state and device model.
    pub base_restore_us: f64,
    /// Per-page demand-fault cost: VM exit + userfaultfd round trip +
    /// random backing-store read.
    pub page_fault_us: f64,
    /// Fixed cost of issuing the batched working-set read.
    pub prefetch_batch_us: f64,
    /// Per-page cost inside the batched sequential read.
    pub prefetch_page_us: f64,
}

impl Default for SnapshotTimings {
    /// REAP-paper-flavoured magnitudes: a ~200-page working set restores
    /// in ~10ms lazily and ~1.5ms prefetched, against a ~125ms full
    /// boot.
    fn default() -> Self {
        SnapshotTimings {
            base_restore_us: 900.0,
            page_fault_us: 45.0,
            prefetch_batch_us: 150.0,
            prefetch_page_us: 2.5,
        }
    }
}

impl SnapshotTimings {
    /// Validates every field, naming the offending one.
    pub fn validate(&self) -> Result<(), SimError> {
        for (field, value) in [
            ("snapshot.base_restore_us", self.base_restore_us),
            ("snapshot.page_fault_us", self.page_fault_us),
            ("snapshot.prefetch_batch_us", self.prefetch_batch_us),
            ("snapshot.prefetch_page_us", self.prefetch_page_us),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(SimError::invalid_config(
                    field,
                    format!("must be ≥ 0 and finite, got {value}"),
                ));
            }
        }
        // A prefetched page cheaper than a faulted one is the entire
        // point of REAP; a backwards configuration silently inverts
        // every comparison downstream.
        if self.prefetch_page_us > self.page_fault_us {
            return Err(SimError::invalid_config(
                "snapshot.prefetch_page_us",
                format!(
                    "batched prefetch ({}) must not cost more per page than a demand fault ({})",
                    self.prefetch_page_us, self.page_fault_us
                ),
            ));
        }
        Ok(())
    }

    /// Lazy-paging restore latency for `pages` first touches, µs.
    pub fn lazy_restore_us(&self, pages: usize) -> f64 {
        self.base_restore_us + pages as f64 * self.page_fault_us
    }

    /// REAP restore latency with `prefetched` recorded pages and
    /// `faulted` residual demand faults, µs.
    pub fn prefetch_restore_us(&self, prefetched: usize, faulted: usize) -> f64 {
        self.base_restore_us
            + self.prefetch_batch_us
            + prefetched as f64 * self.prefetch_page_us
            + faulted as f64 * self.page_fault_us
    }
}

/// Restore-path telemetry, exported under `snapshot.*`.
#[derive(Clone, Debug, Default)]
pub struct SnapshotStats {
    /// Restores priced by the store (lazy or prefetch; Instant charges
    /// nothing and counts nothing).
    pub restores: u64,
    /// Pages recorded into snapshot metadata.
    pub pages_recorded: u64,
    /// Pages brought in by batched prefetches.
    pub pages_prefetched: u64,
    /// Pages brought in by demand faults.
    pub pages_faulted: u64,
    /// Restores whose metadata failed validation and degraded to lazy
    /// paging (the snapshot analogue of `replay.aborts`).
    pub replay_aborts: u64,
    /// Restore latency distribution, µs.
    pub restore_latency_us: Histogram,
}

impl SnapshotStats {
    /// Contributes the `snapshot.*` series to `registry`. Additive, so
    /// per-shard registries can be merged.
    pub fn fill_registry(&self, registry: &mut Registry) {
        registry.counter_add("snapshot.restores", self.restores);
        registry.counter_add("snapshot.pages_recorded", self.pages_recorded);
        registry.counter_add("snapshot.pages_prefetched", self.pages_prefetched);
        registry.counter_add("snapshot.pages_faulted", self.pages_faulted);
        registry.counter_add("snapshot.replay_aborts", self.replay_aborts);
        registry.hist_merge("snapshot.restore_latency_us", &self.restore_latency_us);
    }
}

/// One function's stored REAP record plus the number of distinct pages
/// it names, counted once when the record enters the store so a replay
/// need not rebuild the page set to price its residual faults.
#[derive(Clone, Debug)]
struct Record {
    metadata: SnapshotMetadata,
    distinct_pages: usize,
}

impl Record {
    /// Wraps untrusted metadata, counting its distinct pages.
    fn untrusted(metadata: SnapshotMetadata) -> Self {
        let distinct: BTreeSet<u64> = metadata.pages().iter().map(|p| p.page).collect();
        Record {
            distinct_pages: distinct.len(),
            metadata,
        }
    }
}

/// Per-function snapshot state for one host: working sets, recorded
/// metadata, and the restore clock.
///
/// Logical function `f` maps onto working set `f % working_sets.len()`
/// (the same suite-profile mapping the fleet's `ServiceModel` uses), but
/// metadata is recorded per *logical* function — two deployments of the
/// same profile each record their own snapshot, exactly as two
/// containers would.
///
/// The working-set table is read-only, so it is held behind an [`Arc`]:
/// stores built from one table (every host of a fleet) share it instead
/// of each owning a copy.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    model: ColdStartModel,
    timings: SnapshotTimings,
    working_sets: Arc<[PageWorkingSet]>,
    records: BTreeMap<usize, Record>,
    stats: SnapshotStats,
}

impl SnapshotStore {
    /// Builds a store over explicit working sets — an owned `Vec`, or a
    /// shared `Arc<[PageWorkingSet]>` table other stores also read.
    ///
    /// # Errors
    ///
    /// Rejects invalid timings and an empty working-set table.
    pub fn try_new(
        model: ColdStartModel,
        timings: SnapshotTimings,
        working_sets: impl Into<Arc<[PageWorkingSet]>>,
    ) -> Result<Self, SimError> {
        let working_sets = working_sets.into();
        timings.validate()?;
        if working_sets.is_empty() {
            return Err(SimError::invalid_config(
                "snapshot.working_sets",
                "at least one function working set is required",
            ));
        }
        Ok(SnapshotStore {
            model,
            timings,
            working_sets,
            records: BTreeMap::new(),
            stats: SnapshotStats::default(),
        })
    }

    /// Builds a store with working sets derived from function profiles
    /// (one per profile, in order).
    pub fn for_profiles(
        model: ColdStartModel,
        timings: SnapshotTimings,
        profiles: &[FunctionProfile],
    ) -> Result<Self, SimError> {
        Self::try_new(
            model,
            timings,
            profiles
                .iter()
                .map(PageWorkingSet::from_profile)
                .collect::<Vec<_>>(),
        )
    }

    /// The cold-start model this store prices.
    pub fn model(&self) -> ColdStartModel {
        self.model
    }

    /// The timing parameters.
    pub fn timings(&self) -> &SnapshotTimings {
        &self.timings
    }

    /// Restore telemetry so far.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }

    /// The working set function `function` restores from.
    pub fn working_set(&self, function: usize) -> &PageWorkingSet {
        &self.working_sets[function % self.working_sets.len()]
    }

    /// The metadata recorded for `function`, if any.
    pub fn metadata(&self, function: usize) -> Option<&SnapshotMetadata> {
        self.records.get(&function).map(|record| &record.metadata)
    }

    /// Installs untrusted metadata for `function` — a snapshot file read
    /// back from disk, a foreign host's record. Validation happens on
    /// the next restore, not here.
    pub fn install(&mut self, function: usize, metadata: SnapshotMetadata) {
        self.records.insert(function, Record::untrusted(metadata));
    }

    /// Corrupts `function`'s recorded metadata in place (flips one page
    /// index without refreshing the tag), as a crash mid-write or a
    /// bit-flip on the snapshot medium would. Returns whether there was
    /// a record to corrupt. The corrupted record owns its pages: a
    /// record sharing its working set's page list leaves that list, and
    /// every other store reading it, untouched. Test/fault-injection
    /// hook.
    pub fn tamper(&mut self, function: usize) -> bool {
        match self.metadata(function) {
            Some(md) if !md.is_empty() => {
                let mut pages = md.pages().to_vec();
                pages[0].page ^= 1;
                let tampered = SnapshotMetadata::from_raw_parts(pages, md.tag(), md.generation());
                self.install(function, tampered);
                true
            }
            _ => false,
        }
    }

    /// Prices one restore of `function` and returns its latency in
    /// milliseconds, updating metadata and telemetry:
    ///
    /// * `Instant` — returns 0 and touches nothing (bit-transparent);
    /// * `LazyPaging` — every working-set page faults;
    /// * `ReapPrefetch` — first restore records the set at lazy-paging
    ///   cost; later restores validate the record and prefetch it, or
    ///   degrade to lazy paging (re-recording) when validation fails.
    pub fn restore_ms(&mut self, function: usize) -> f64 {
        self.restore_ms_with_resident(function, 0)
    }

    /// Like [`SnapshotStore::restore_ms`], but `resident_pages` of the
    /// working set are already resident on the host — shared runtime or
    /// library pages a co-resident same-language instance brought in
    /// (see the `luke-tenancy` crate). Resident pages are skipped:
    /// they shrink the REAP prefetch batch under `ReapPrefetch` and
    /// drop demand faults under `LazyPaging`. With `resident_pages = 0`
    /// this is exactly [`SnapshotStore::restore_ms`], bit for bit.
    pub fn restore_ms_with_resident(&mut self, function: usize, resident_pages: usize) -> f64 {
        if self.model == ColdStartModel::Instant {
            return 0.0;
        }
        let ws = &self.working_sets[function % self.working_sets.len()];
        let us = match self.model {
            ColdStartModel::Instant => unreachable!("handled above"),
            ColdStartModel::LazyPaging => {
                let faulted = ws.len().saturating_sub(resident_pages);
                self.stats.pages_faulted += faulted as u64;
                self.timings.lazy_restore_us(faulted)
            }
            ColdStartModel::ReapPrefetch => match self.records.get(&function) {
                Some(Record {
                    metadata: md,
                    distinct_pages,
                }) if md.is_consistent() && md.covered_by(ws) => {
                    // Pages the record misses still fault on demand
                    // (partial records stay valid, just less effective);
                    // already-resident shared pages leave the prefetch
                    // batch entirely.
                    let faulted = ws.len() - distinct_pages;
                    let prefetched = md.len().saturating_sub(resident_pages);
                    self.stats.pages_prefetched += prefetched as u64;
                    self.stats.pages_faulted += faulted as u64;
                    self.timings.prefetch_restore_us(prefetched, faulted)
                }
                existing => {
                    // First restore records; a failed validation
                    // degrades to the same path and re-records. The
                    // record still covers the full set — residency only
                    // spares the faults.
                    if existing.is_some() {
                        self.stats.replay_aborts += 1;
                    }
                    // A working set's pages are distinct by construction.
                    let record = Record {
                        metadata: SnapshotMetadata::record(ws, self.stats.restores),
                        distinct_pages: ws.len(),
                    };
                    self.stats.pages_recorded += ws.len() as u64;
                    let faulted = ws.len().saturating_sub(resident_pages);
                    self.stats.pages_faulted += faulted as u64;
                    let us = self.timings.lazy_restore_us(faulted);
                    self.records.insert(function, record);
                    us
                }
            },
        };
        self.stats.restores += 1;
        self.stats.restore_latency_us.record(us.round() as u64);
        us / 1000.0
    }

    /// Prices one restore of `function` *forced onto the lazy-paging
    /// path*, regardless of the configured model — the admission ladder's
    /// memory-pressure rung: a pressured host skips the prefetch burst
    /// and lets every page fault on demand. Metadata is left untouched
    /// (the REAP record stays valid for the next unpressured restore).
    /// Returns 0 and records nothing under `Instant`.
    pub fn restore_ms_degraded(&mut self, function: usize) -> f64 {
        if self.model == ColdStartModel::Instant {
            return 0.0;
        }
        let ws = &self.working_sets[function % self.working_sets.len()];
        self.stats.pages_faulted += ws.len() as u64;
        let us = self.timings.lazy_restore_us(ws.len());
        self.stats.restores += 1;
        self.stats.restore_latency_us.record(us.round() as u64);
        us / 1000.0
    }

    /// Contributes the `snapshot.*` series to `registry`.
    pub fn fill_registry(&self, registry: &mut Registry) {
        self.stats.fill_registry(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    fn store(model: ColdStartModel) -> SnapshotStore {
        SnapshotStore::for_profiles(model, SnapshotTimings::default(), &paper_suite()).unwrap()
    }

    #[test]
    fn instant_is_bit_transparent() {
        let mut s = store(ColdStartModel::Instant);
        assert_eq!(s.restore_ms(0), 0.0);
        assert_eq!(s.restore_ms(7), 0.0);
        assert_eq!(s.stats().restores, 0);
        assert_eq!(s.stats().restore_latency_us.count(), 0);
        let mut registry = Registry::new();
        s.fill_registry(&mut registry);
        assert_eq!(registry.snapshot().counter("snapshot.restores"), 0);
    }

    #[test]
    fn lazy_paging_charges_one_fault_per_page() {
        let mut s = store(ColdStartModel::LazyPaging);
        let pages = s.working_set(0).len();
        let ms = s.restore_ms(0);
        let expected = SnapshotTimings::default().lazy_restore_us(pages) / 1000.0;
        assert!((ms - expected).abs() < 1e-12);
        assert_eq!(s.stats().pages_faulted, pages as u64);
        assert_eq!(s.stats().restores, 1);
        assert!(s.metadata(0).is_none(), "lazy paging records nothing");
    }

    #[test]
    fn reap_records_then_prefetches() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        let pages = s.working_set(3).len() as u64;
        let first = s.restore_ms(3);
        let second = s.restore_ms(3);
        let third = s.restore_ms(3);
        assert!(second < first, "prefetch {second} vs record {first}");
        assert_eq!(second, third, "steady-state restores are identical");
        assert_eq!(s.stats().pages_recorded, pages);
        assert_eq!(s.stats().pages_prefetched, 2 * pages);
        assert_eq!(
            s.stats().pages_faulted,
            pages,
            "only the record pass faults"
        );
        assert_eq!(s.stats().replay_aborts, 0);
        assert_eq!(s.stats().restore_latency_us.count(), 3);
    }

    #[test]
    fn reap_recovers_most_of_the_lazy_penalty() {
        // The acceptance bar: steady-state REAP restore recovers ≥50%
        // of the lazy-paging cold-start penalty, per suite function.
        let mut lazy = store(ColdStartModel::LazyPaging);
        let mut reap = store(ColdStartModel::ReapPrefetch);
        for f in 0..20 {
            let l = lazy.restore_ms(f);
            reap.restore_ms(f); // record pass
            let r = reap.restore_ms(f);
            assert!(
                r <= 0.5 * l,
                "function {f}: reap {r}ms vs lazy {l}ms recovers <50%"
            );
        }
    }

    #[test]
    fn resident_shared_pages_shrink_the_prefetch_batch() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        s.restore_ms(6); // record pass
        let full = s.restore_ms(6);
        let zero = s.restore_ms_with_resident(6, 0);
        assert_eq!(full, zero, "resident 0 is restore_ms, bit for bit");
        let resident = 40;
        let discounted = s.restore_ms_with_resident(6, resident);
        let md_len = s.metadata(6).unwrap().len();
        let expected =
            SnapshotTimings::default().prefetch_restore_us(md_len - resident, 0) / 1000.0;
        assert!((discounted - expected).abs() < 1e-12);
        assert!(discounted < full);
        // A fully-resident working set degenerates to the batch issue
        // cost, never underflows.
        let floor = s.restore_ms_with_resident(6, md_len + 1000);
        let base = SnapshotTimings::default().prefetch_restore_us(0, 0) / 1000.0;
        assert!((floor - base).abs() < 1e-12);
    }

    #[test]
    fn resident_shared_pages_spare_lazy_faults_too() {
        let mut s = store(ColdStartModel::LazyPaging);
        let pages = s.working_set(0).len();
        let full = s.restore_ms(0);
        let discounted = s.restore_ms_with_resident(0, pages / 2);
        let expected = SnapshotTimings::default().lazy_restore_us(pages - pages / 2) / 1000.0;
        assert!((discounted - expected).abs() < 1e-12);
        assert!(discounted < full);
        // Instant stays bit-transparent through the resident path.
        let mut instant = store(ColdStartModel::Instant);
        assert_eq!(instant.restore_ms_with_resident(0, 10), 0.0);
        assert_eq!(instant.stats().restores, 0);
    }

    #[test]
    fn corrupt_metadata_degrades_to_lazy_and_re_records() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        let lazy_ms = SnapshotTimings::default().lazy_restore_us(s.working_set(5).len()) / 1000.0;
        s.restore_ms(5);
        assert!(s.tamper(5));
        let degraded = s.restore_ms(5);
        assert!(
            (degraded - lazy_ms).abs() < 1e-12,
            "degraded restore is lazy"
        );
        assert_eq!(s.stats().replay_aborts, 1);
        // The degraded pass re-recorded: the next restore prefetches.
        let recovered = s.restore_ms(5);
        assert!(recovered < degraded);
        assert_eq!(s.stats().replay_aborts, 1);
        assert!(s.metadata(5).unwrap().is_consistent());
    }

    #[test]
    fn partial_but_valid_metadata_prefetches_and_faults_the_rest() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        let ws = s.working_set(2).clone();
        let mut partial = SnapshotMetadata::new();
        for &page in &ws.pages()[..ws.len() / 2] {
            partial.push(page);
        }
        s.install(2, partial);
        let ms = s.restore_ms(2);
        let prefetched = ws.len() / 2;
        let faulted = ws.len() - prefetched;
        let expected = SnapshotTimings::default().prefetch_restore_us(prefetched, faulted) / 1000.0;
        assert!((ms - expected).abs() < 1e-12);
        assert_eq!(s.stats().replay_aborts, 0, "partial records are valid");
        assert_eq!(s.stats().pages_prefetched, prefetched as u64);
        assert_eq!(s.stats().pages_faulted, faulted as u64);
    }

    #[test]
    fn out_of_layout_metadata_aborts_even_with_a_valid_tag() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        let mut stale = SnapshotMetadata::new();
        stale.push(crate::SnapshotPage {
            page: u64::MAX / 3,
            kind: crate::PageKind::Data,
        });
        assert!(stale.is_consistent());
        s.install(4, stale);
        s.restore_ms(4);
        assert_eq!(s.stats().replay_aborts, 1);
        assert_eq!(
            s.stats().pages_prefetched,
            0,
            "never prefetch outside the layout"
        );
    }

    #[test]
    fn per_function_metadata_is_independent() {
        // Functions 1 and 21 share working set 1 (population mapping)
        // but record separately, like two containers of one image.
        let mut s = store(ColdStartModel::ReapPrefetch);
        s.restore_ms(1);
        assert!(s.metadata(1).is_some());
        assert!(s.metadata(21).is_none());
        let first_21 = s.restore_ms(21);
        let lazy = SnapshotTimings::default().lazy_restore_us(s.working_set(21).len()) / 1000.0;
        assert!((first_21 - lazy).abs() < 1e-12, "21 records its own pass");
    }

    #[test]
    fn stores_built_from_one_table_share_it() {
        let table: Arc<[PageWorkingSet]> = paper_suite()
            .iter()
            .map(PageWorkingSet::from_profile)
            .collect();
        let mut stores: Vec<SnapshotStore> = (0..4)
            .map(|_| {
                SnapshotStore::try_new(
                    ColdStartModel::ReapPrefetch,
                    SnapshotTimings::default(),
                    Arc::clone(&table),
                )
                .unwrap()
            })
            .collect();
        assert_eq!(Arc::strong_count(&table), 5, "no store copies the table");
        // Sharing the table shares nothing mutable: metadata and stats
        // stay per store, priced exactly as an owned table would.
        let mut owned = store(ColdStartModel::ReapPrefetch);
        for _ in 0..2 {
            assert_eq!(stores[0].restore_ms(3), owned.restore_ms(3));
        }
        assert!(stores[1].metadata(3).is_none());
        assert_eq!(stores[1].stats().restores, 0);
    }

    #[test]
    fn tampering_one_store_never_reaches_a_store_sharing_its_table() {
        let table: Arc<[PageWorkingSet]> = paper_suite()
            .iter()
            .map(PageWorkingSet::from_profile)
            .collect();
        let build = || {
            SnapshotStore::try_new(
                ColdStartModel::ReapPrefetch,
                SnapshotTimings::default(),
                Arc::clone(&table),
            )
            .unwrap()
        };
        let (mut victim, mut bystander) = (build(), build());
        for f in 0..20 {
            victim.restore_ms(f);
            bystander.restore_ms(f);
        }
        for f in 0..20 {
            assert!(victim.tamper(f));
        }
        let pristine = PageWorkingSet::from_profile(&paper_suite()[0]);
        assert_eq!(table[0], pristine, "the shared table is untouched");
        for f in 0..20 {
            bystander.restore_ms(f);
            victim.restore_ms(f);
            assert!(bystander.metadata(f).unwrap().is_consistent());
        }
        assert_eq!(bystander.stats().replay_aborts, 0);
        assert_eq!(victim.stats().replay_aborts, 20);
    }

    #[test]
    fn replay_counts_each_recorded_page_once() {
        // An installed record naming a page twice prefetches both
        // entries but faults only the pages it never names.
        let mut s = store(ColdStartModel::ReapPrefetch);
        let ws = s.working_set(2).clone();
        let mut doubled = SnapshotMetadata::new();
        for &page in ws.pages()[..10].iter().chain(&ws.pages()[..5]) {
            doubled.push(page);
        }
        s.install(2, doubled);
        let ms = s.restore_ms(2);
        let expected = SnapshotTimings::default().prefetch_restore_us(15, ws.len() - 10) / 1000.0;
        assert!((ms - expected).abs() < 1e-12);
        assert_eq!(s.stats().pages_faulted, (ws.len() - 10) as u64);
        assert_eq!(s.stats().replay_aborts, 0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let err = SnapshotStore::try_new(
            ColdStartModel::LazyPaging,
            SnapshotTimings::default(),
            Vec::new(),
        )
        .unwrap_err();
        assert!(format!("{err}").contains("snapshot.working_sets"));
        let bad = SnapshotTimings {
            page_fault_us: f64::NAN,
            ..SnapshotTimings::default()
        };
        assert!(bad.validate().is_err());
        let inverted = SnapshotTimings {
            prefetch_page_us: 100.0,
            page_fault_us: 1.0,
            ..SnapshotTimings::default()
        };
        let err = inverted.validate().unwrap_err();
        assert!(format!("{err}").contains("snapshot.prefetch_page_us"));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn registry_contribution_is_additive() {
        let mut s = store(ColdStartModel::ReapPrefetch);
        for f in 0..5 {
            s.restore_ms(f);
            s.restore_ms(f);
        }
        let mut registry = Registry::new();
        s.fill_registry(&mut registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("snapshot.restores"), 10);
        assert!(snap.counter("snapshot.pages_prefetched") > 0);
        assert_eq!(snap.counter("snapshot.replay_aborts"), 0);
    }
}
