//! The per-host shared-page store.
//!
//! One [`SharedPageStore`] tracks a host's resident shared pages with
//! refcounts: registering an instance whose language runtime is already
//! resident increments refcounts instead of duplicating pages (a *dedup
//! hit*), and releasing an instance decrements them, dropping a page
//! only when its last sharer leaves. Private data pages — and
//! shared-library pages the instance privatizes through copy-on-write
//! breaks — are charged to a plain byte ledger.
//!
//! A shared page's content identity is its coordinates: language slot,
//! sharing region and index within the region (what
//! [`crate::content_key`] hashes). The store addresses refcounts by
//! those coordinates directly — one `u32` column per (language slot,
//! region), indexed by page — so every operation walks the two
//! contiguous index ranges a layout covers (runtime `0..runtime_pages`,
//! library `cow..library_pages`) without hashing. A new store holds no
//! column at all: a registration that reaches past a column's end grows
//! it to exactly that extent, so a host pays only for the languages and
//! library depths it actually runs, and reads clip to what a column
//! holds.
//!
//! Registration returns the instance's *charged weight*: the fraction
//! of its footprint the host actually had to materialize. The fleet
//! feeds that weight into pool memory accounting (`pool.memory_ms`
//! charges deduped footprint) and uses the resident-page count to
//! shrink REAP prefetch batches. Everything here is a pure function of
//! host-local state, so the store never threatens thread-count
//! determinism.

use crate::hash::PageClass;
use crate::layout::FunctionLayout;
use luke_snapshot::PAGE_BYTES;

/// Shared regions per language slot: the runtime core, then libraries.
const REGIONS: usize = 2;

/// What registering one instance did to the host's resident set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Registration {
    /// Shared pages this instance brought in (first sharer).
    pub new_shared_pages: u64,
    /// Shared pages already resident that this instance now also maps.
    pub dedup_hits: u64,
    /// Pages charged privately (data + copy-on-write breaks).
    pub private_pages: u64,
    /// Fraction of the instance's footprint the host materialized:
    /// `(new shared + private) / total`. `1.0` without dedup.
    pub weight: f64,
}

/// The per-host shared-page store (see module docs).
#[derive(Clone, Debug, Default)]
pub struct SharedPageStore {
    /// Refcount per shared page: column `slot * REGIONS + region`,
    /// indexed by page index within the region.
    columns: Vec<Vec<u32>>,
    /// Distinct shared pages currently resident (non-zero refcounts).
    resident_shared: u64,
    /// Bytes of private (data + COW-broken) pages currently resident.
    private_bytes: u64,
    /// Cumulative distinct shared-page insertions.
    shared_pages: u64,
    /// Cumulative refcount increments on already-resident pages.
    dedup_hits: u64,
    /// Cumulative copy-on-write breaks.
    cow_breaks: u64,
}

/// Column position of a shared `(language, class)` pair; `None` for
/// private data, which is never shared.
fn column_of(language: u8, class: PageClass) -> Option<usize> {
    match class {
        PageClass::SharedRuntime | PageClass::SharedLibrary => {
            Some(usize::from(language) * REGIONS + class.region() as usize)
        }
        PageClass::PrivateData => None,
    }
}

impl SharedPageStore {
    /// An empty store whose columns grow on first registration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows `layout`'s two columns to cover its full index ranges.
    /// Exact growth: a column only grows to the next deepest layout, so
    /// doubling would mostly hold zeros.
    fn reserve(&mut self, layout: &FunctionLayout) {
        let [(runtime, _, runtime_end), (library, _, library_end)] = ranges(layout, 0);
        if self.columns.len() <= library {
            self.columns.resize(library + 1, Vec::new());
        }
        for (column, extent) in [(runtime, runtime_end), (library, library_end)] {
            let column = &mut self.columns[column];
            if column.len() < extent {
                column.reserve_exact(extent - column.len());
                column.resize(extent, 0);
            }
        }
    }

    /// The refcounts of `layout`'s shared pages that survive `cow`
    /// copy-on-write breaks, clipped to what the columns hold (a page
    /// past a column's end was never registered).
    fn shared_ranges(&self, layout: &FunctionLayout, cow: u64) -> [&[u32]; 2] {
        ranges(layout, cow).map(|(column, lo, hi)| {
            let column = self.columns.get(column).map_or(&[][..], Vec::as_slice);
            let hi = hi.min(column.len());
            &column[lo.min(hi)..hi]
        })
    }

    /// Mutable [`SharedPageStore::shared_ranges`], growing the columns
    /// first so every page of the layout has a slot.
    fn shared_ranges_mut(&mut self, layout: &FunctionLayout, cow: u64) -> [&mut [u32]; 2] {
        self.reserve(layout);
        let [(runtime, rt_lo, rt_hi), (_, lib_lo, lib_hi)] = ranges(layout, cow);
        let [runtime_column, library_column] = &mut self.columns[runtime..runtime + REGIONS] else {
            unreachable!("reserve grew both columns")
        };
        [
            &mut runtime_column[rt_lo..rt_hi],
            &mut library_column[lib_lo..lib_hi],
        ]
    }

    /// Registers one instance of `layout` on this host. With `dedup`
    /// off every page is charged privately (weight 1.0, bit-identical
    /// memory accounting to a store-free host); with it on, shared
    /// pages already resident become dedup hits and the returned weight
    /// shrinks accordingly.
    pub fn register(
        &mut self,
        layout: &FunctionLayout,
        dedup: bool,
        cow_dirty_fraction: f64,
    ) -> Registration {
        let total = layout.total_pages();
        if !dedup {
            self.private_bytes += total * PAGE_BYTES;
            return Registration {
                new_shared_pages: 0,
                dedup_hits: 0,
                private_pages: total,
                weight: 1.0,
            };
        }
        let cow = layout.cow_pages(cow_dirty_fraction);
        let (mut touched, mut new_shared) = (0u64, 0u64);
        for range in self.shared_ranges_mut(layout, cow) {
            touched += range.len() as u64;
            for count in range {
                new_shared += u64::from(*count == 0);
                *count += 1;
            }
        }
        let hits = touched - new_shared;
        self.resident_shared += new_shared;
        self.shared_pages += new_shared;
        self.dedup_hits += hits;
        self.cow_breaks += cow;
        let private = layout.data_pages + cow;
        self.private_bytes += private * PAGE_BYTES;
        let weight = if total == 0 {
            1.0
        } else {
            (new_shared + private) as f64 / total as f64
        };
        Registration {
            new_shared_pages: new_shared,
            dedup_hits: hits,
            private_pages: private,
            weight,
        }
    }

    /// Releases one instance of `layout`, mirroring
    /// [`SharedPageStore::register`] exactly: same page ranges, same
    /// copy-on-write split, refcounts decremented and pages dropped
    /// when their last sharer leaves.
    pub fn release(&mut self, layout: &FunctionLayout, dedup: bool, cow_dirty_fraction: f64) {
        let total = layout.total_pages();
        if !dedup {
            self.private_bytes = self.private_bytes.saturating_sub(total * PAGE_BYTES);
            return;
        }
        let cow = layout.cow_pages(cow_dirty_fraction);
        let mut dropped = 0u64;
        for range in self.shared_ranges_mut(layout, cow) {
            for count in range.iter_mut().filter(|count| **count > 0) {
                *count -= 1;
                dropped += u64::from(*count == 0);
            }
        }
        self.resident_shared -= dropped;
        let private = (layout.data_pages + cow) * PAGE_BYTES;
        self.private_bytes = self.private_bytes.saturating_sub(private);
    }

    /// How many of `layout`'s shared pages are already resident —
    /// pages a restore can skip because a co-resident sharer brought
    /// them in. Counts the full shared region (a resident page spares
    /// the read even when the instance will then privatize it).
    pub fn resident_shared(&self, layout: &FunctionLayout) -> u64 {
        self.shared_ranges(layout, 0)
            .iter()
            .map(|range| range.iter().filter(|&&count| count > 0).count() as u64)
            .sum()
    }

    /// Breaks copy-on-write on the shared page at `(language, class,
    /// index)`: the writer unmaps its shared reference (dropping the
    /// page only when it was the last sharer) and owns a private copy
    /// instead. The refcount other instances hold is never disturbed
    /// beyond the writer's own reference. Returns `false` if the page
    /// was not resident (private data is never resident as shared).
    pub fn write_shared(&mut self, language: u8, class: PageClass, index: u64) -> bool {
        let Some(count) = self
            .slot_mut(language, class, index)
            .filter(|count| **count > 0)
        else {
            return false;
        };
        *count -= 1;
        if *count == 0 {
            self.resident_shared -= 1;
        }
        self.private_bytes += PAGE_BYTES;
        self.cow_breaks += 1;
        true
    }

    /// Refcount of the shared page at `(language, class, index)`, 0 if
    /// it is not resident.
    pub fn ref_count(&self, language: u8, class: PageClass, index: u64) -> u32 {
        column_of(language, class)
            .and_then(|column| self.columns.get(column))
            .and_then(|column| column.get(usize::try_from(index).ok()?))
            .copied()
            .unwrap_or(0)
    }

    /// The refcount slot of one shared page, if its column reaches it.
    fn slot_mut(&mut self, language: u8, class: PageClass, index: u64) -> Option<&mut u32> {
        let column = self.columns.get_mut(column_of(language, class)?)?;
        column.get_mut(usize::try_from(index).ok()?)
    }

    /// Distinct shared pages currently resident.
    pub fn resident_shared_pages(&self) -> u64 {
        self.resident_shared
    }

    /// Bytes currently resident: distinct shared pages plus every
    /// private page — the working-set pressure the contention model
    /// prices.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_shared * PAGE_BYTES + self.private_bytes
    }

    /// Cumulative distinct shared-page insertions (`tenancy.shared_pages`).
    pub fn shared_pages(&self) -> u64 {
        self.shared_pages
    }

    /// Cumulative dedup hits.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Bytes a host never materialized thanks to sharing
    /// (`tenancy.dedup_bytes_saved`).
    pub fn dedup_bytes_saved(&self) -> u64 {
        self.dedup_hits * PAGE_BYTES
    }

    /// Cumulative copy-on-write breaks.
    pub fn cow_breaks(&self) -> u64 {
        self.cow_breaks
    }

    /// Share of shared-page registrations that were dedup hits, in
    /// `[0, 1]` — the shared-page hit rate headline.
    pub fn hit_rate(&self) -> f64 {
        let touched = self.shared_pages + self.dedup_hits;
        if touched == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / touched as f64
        }
    }

    /// Wipes the resident set (a host crash tears down every
    /// instance). Cumulative counters survive; residency does not, and
    /// the columns keep their allocation.
    pub fn clear_resident(&mut self) {
        for column in &mut self.columns {
            column.fill(0);
        }
        self.resident_shared = 0;
        self.private_bytes = 0;
    }
}

/// `(column, lo, hi)` of `layout`'s shared pages surviving `cow`
/// copy-on-write breaks: the runtime core `0..runtime_pages` and the
/// library pages `cow..library_pages`.
fn ranges(layout: &FunctionLayout, cow: u64) -> [(usize, usize, usize); 2] {
    let runtime = column_of(layout.language, PageClass::SharedRuntime).expect("shared class");
    let pages = |n: u64| usize::try_from(n).expect("page counts fit in memory");
    [
        (runtime, 0, pages(layout.runtime_pages)),
        (runtime + 1, pages(cow), pages(layout.library_pages)),
    ]
}

/// The hash-keyed store the coordinate columns replaced, kept as the
/// oracle they are checked against: refcounts in a `BTreeMap` keyed by
/// [`content_key`](crate::content_key), one hash and one tree operation
/// per page.
#[cfg(test)]
mod oracle {
    use super::Registration;
    use crate::hash::content_key;
    use crate::layout::FunctionLayout;
    use luke_snapshot::PAGE_BYTES;
    use std::collections::BTreeMap;

    const RUNTIME_REGION: u64 = 0;
    const LIBRARY_REGION: u64 = 1;

    #[derive(Default)]
    pub struct KeyedStore {
        refs: BTreeMap<u64, u32>,
        shared_bytes: u64,
        private_bytes: u64,
        pub shared_pages: u64,
        pub dedup_hits: u64,
        pub cow_breaks: u64,
    }

    impl KeyedStore {
        fn for_shared_keys(layout: &FunctionLayout, cow: u64, mut f: impl FnMut(u64)) {
            for index in 0..layout.runtime_pages {
                f(content_key(layout.language, RUNTIME_REGION, index));
            }
            for index in cow..layout.library_pages {
                f(content_key(layout.language, LIBRARY_REGION, index));
            }
        }

        pub fn register(
            &mut self,
            layout: &FunctionLayout,
            dedup: bool,
            cow_dirty_fraction: f64,
        ) -> Registration {
            let total = layout.total_pages();
            if !dedup {
                self.private_bytes += total * PAGE_BYTES;
                return Registration {
                    new_shared_pages: 0,
                    dedup_hits: 0,
                    private_pages: total,
                    weight: 1.0,
                };
            }
            let cow = layout.cow_pages(cow_dirty_fraction);
            let mut new_shared = 0u64;
            let mut hits = 0u64;
            Self::for_shared_keys(layout, cow, |key| {
                let count = self.refs.entry(key).or_insert(0);
                if *count == 0 {
                    new_shared += 1;
                } else {
                    hits += 1;
                }
                *count += 1;
            });
            self.shared_bytes += new_shared * PAGE_BYTES;
            self.shared_pages += new_shared;
            self.dedup_hits += hits;
            self.cow_breaks += cow;
            let private = layout.data_pages + cow;
            self.private_bytes += private * PAGE_BYTES;
            let weight = if total == 0 {
                1.0
            } else {
                (new_shared + private) as f64 / total as f64
            };
            Registration {
                new_shared_pages: new_shared,
                dedup_hits: hits,
                private_pages: private,
                weight,
            }
        }

        pub fn release(&mut self, layout: &FunctionLayout, dedup: bool, cow_dirty_fraction: f64) {
            let total = layout.total_pages();
            if !dedup {
                self.private_bytes = self.private_bytes.saturating_sub(total * PAGE_BYTES);
                return;
            }
            let cow = layout.cow_pages(cow_dirty_fraction);
            let mut dropped = 0u64;
            Self::for_shared_keys(layout, cow, |key| {
                if let Some(count) = self.refs.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        self.refs.remove(&key);
                        dropped += 1;
                    }
                }
            });
            self.shared_bytes = self.shared_bytes.saturating_sub(dropped * PAGE_BYTES);
            let private = (layout.data_pages + cow) * PAGE_BYTES;
            self.private_bytes = self.private_bytes.saturating_sub(private);
        }

        pub fn resident_shared(&self, layout: &FunctionLayout) -> u64 {
            let mut resident = 0u64;
            Self::for_shared_keys(layout, 0, |key| {
                if self.refs.contains_key(&key) {
                    resident += 1;
                }
            });
            resident
        }

        pub fn write_shared(&mut self, key: u64) -> bool {
            match self.refs.get_mut(&key) {
                Some(count) => {
                    *count -= 1;
                    if *count == 0 {
                        self.refs.remove(&key);
                        self.shared_bytes = self.shared_bytes.saturating_sub(PAGE_BYTES);
                    }
                    self.private_bytes += PAGE_BYTES;
                    self.cow_breaks += 1;
                    true
                }
                None => false,
            }
        }

        pub fn ref_count(&self, key: u64) -> u32 {
            self.refs.get(&key).copied().unwrap_or(0)
        }

        pub fn resident_shared_pages(&self) -> u64 {
            self.refs.len() as u64
        }

        pub fn resident_bytes(&self) -> u64 {
            self.shared_bytes + self.private_bytes
        }

        pub fn clear_resident(&mut self) {
            self.refs.clear();
            self.shared_bytes = 0;
            self.private_bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    fn layout() -> FunctionLayout {
        FunctionLayout {
            language: 0,
            runtime_pages: 10,
            library_pages: 40,
            data_pages: 20,
        }
    }

    #[test]
    fn first_instance_pays_full_second_dedupes_shared() {
        let mut store = SharedPageStore::new();
        let l = layout();
        let first = store.register(&l, true, 0.0);
        assert_eq!(first.new_shared_pages, 50);
        assert_eq!(first.dedup_hits, 0);
        assert_eq!(first.private_pages, 20);
        assert_eq!(first.weight, 1.0);
        let second = store.register(&l, true, 0.0);
        assert_eq!(second.new_shared_pages, 0);
        assert_eq!(second.dedup_hits, 50);
        assert_eq!(second.private_pages, 20);
        assert!((second.weight - 20.0 / 70.0).abs() < 1e-12);
        assert_eq!(store.dedup_bytes_saved(), 50 * PAGE_BYTES);
        assert_eq!(store.resident_bytes(), (50 + 40) * PAGE_BYTES);
    }

    #[test]
    fn dedup_off_charges_everything_privately() {
        let mut store = SharedPageStore::new();
        let l = layout();
        let reg = store.register(&l, false, 0.5);
        assert_eq!(reg.weight, 1.0);
        assert_eq!(reg.dedup_hits, 0);
        assert_eq!(store.resident_shared_pages(), 0);
        assert_eq!(store.resident_bytes(), l.total_bytes());
        store.release(&l, false, 0.5);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn release_mirrors_register_to_an_empty_store() {
        let mut store = SharedPageStore::new();
        let l = layout();
        store.register(&l, true, 0.1);
        store.register(&l, true, 0.1);
        store.release(&l, true, 0.1);
        assert!(store.resident_bytes() > 0, "one sharer still resident");
        store.release(&l, true, 0.1);
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.resident_shared_pages(), 0);
    }

    #[test]
    fn cow_breaks_privatize_the_dirty_library_prefix() {
        let mut store = SharedPageStore::new();
        let l = layout();
        // 10% of 40 library pages = 4 COW breaks.
        let reg = store.register(&l, true, 0.1);
        assert_eq!(reg.new_shared_pages, 10 + 36);
        assert_eq!(reg.private_pages, 20 + 4);
        assert_eq!(store.cow_breaks(), 4);
        // The privatized pages were never inserted as shared entries.
        assert_eq!(store.ref_count(0, PageClass::SharedLibrary, 0), 0);
        assert_eq!(store.ref_count(0, PageClass::SharedLibrary, 4), 1);
    }

    #[test]
    fn write_shared_never_mutates_other_sharers_entries() {
        let mut store = SharedPageStore::new();
        let l = layout();
        store.register(&l, true, 0.0);
        store.register(&l, true, 0.0);
        assert_eq!(store.ref_count(0, PageClass::SharedRuntime, 3), 2);
        let before_resident = store.resident_bytes();
        assert!(store.write_shared(0, PageClass::SharedRuntime, 3));
        // The shared entry survives for the other sharer; the writer
        // owns a private copy.
        assert_eq!(store.ref_count(0, PageClass::SharedRuntime, 3), 1);
        assert_eq!(store.resident_bytes(), before_resident + PAGE_BYTES);
        assert!(
            !store.write_shared(2, PageClass::SharedRuntime, 3),
            "absent page"
        );
        assert!(
            !store.write_shared(0, PageClass::SharedRuntime, 10),
            "past the layout"
        );
        assert!(
            !store.write_shared(0, PageClass::PrivateData, 3),
            "never shared"
        );
    }

    #[test]
    fn resident_shared_counts_skippable_restore_pages() {
        let mut store = SharedPageStore::new();
        let l = layout();
        assert_eq!(store.resident_shared(&l), 0);
        store.register(&l, true, 0.0);
        assert_eq!(store.resident_shared(&l), 50);
        let other_language = FunctionLayout {
            language: 1,
            ..layout()
        };
        assert_eq!(store.resident_shared(&other_language), 0);
    }

    #[test]
    fn same_language_suite_profiles_share_their_common_prefix() {
        let suite = paper_suite();
        let python: Vec<FunctionLayout> = suite
            .iter()
            .filter(|p| p.language == workloads::Language::Python)
            .map(FunctionLayout::for_profile)
            .collect();
        let mut store = SharedPageStore::new();
        store.register(&python[0], true, 0.0);
        let reg = store.register(&python[1], true, 0.0);
        // The whole runtime core and the common library prefix dedupe.
        let expected =
            python[0].runtime_pages + python[0].library_pages.min(python[1].library_pages);
        assert_eq!(reg.dedup_hits, expected);
        assert!(reg.weight < 1.0);
    }

    /// A store with every column allocated up front at the largest
    /// extent any of `layouts` reaches — the layout growth must match.
    fn pre_reserved(layouts: &[FunctionLayout]) -> SharedPageStore {
        let mut store = SharedPageStore::new();
        for layout in layouts {
            store.reserve(layout);
        }
        store
    }

    #[test]
    fn columns_grow_only_as_far_as_registrations_reach() {
        let layouts: Vec<FunctionLayout> = paper_suite()
            .iter()
            .map(FunctionLayout::for_profile)
            .collect();
        let mut store = SharedPageStore::new();
        assert!(store.columns.is_empty());
        let extents = |store: &SharedPageStore| {
            store
                .columns
                .iter()
                .map(|column| (column.len(), column.capacity()))
                .collect::<Vec<_>>()
        };
        store.register(&layouts[0], true, 0.0);
        let [(runtime, _, runtime_end), (library, _, library_end)] = ranges(&layouts[0], 0);
        assert_eq!(extents(&store)[runtime], (runtime_end, runtime_end));
        assert_eq!(extents(&store)[library], (library_end, library_end));
        // Dedup off registers no shared page, so it grows nothing.
        let before = extents(&store);
        for layout in &layouts {
            store.register(layout, false, 0.0);
        }
        assert_eq!(extents(&store), before);
        // With every layout registered, the columns reach exactly as far
        // as the pre-reserved store's, and a crash keeps them.
        for layout in &layouts {
            store.register(layout, true, 0.0);
        }
        store.clear_resident();
        let full = extents(&pre_reserved(&layouts));
        assert_eq!(extents(&store), full);
        assert_eq!(store.resident_shared_pages(), 0);
    }

    #[test]
    fn clear_resident_keeps_cumulative_counters() {
        let mut store = SharedPageStore::new();
        let l = layout();
        store.register(&l, true, 0.0);
        store.register(&l, true, 0.0);
        let hits = store.dedup_hits();
        store.clear_resident();
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.dedup_hits(), hits);
        assert_eq!(store.shared_pages(), 50);
        // A fresh registration starts from scratch.
        let reg = store.register(&l, true, 0.0);
        assert_eq!(reg.dedup_hits, 0);
    }

    #[test]
    fn hit_rate_is_bounded_and_monotone_in_coresidency() {
        let mut store = SharedPageStore::new();
        assert_eq!(store.hit_rate(), 0.0);
        let l = layout();
        store.register(&l, true, 0.0);
        let lone = store.hit_rate();
        store.register(&l, true, 0.0);
        store.register(&l, true, 0.0);
        let shared = store.hit_rate();
        assert!(lone < shared && shared < 1.0, "{lone} vs {shared}");
    }

    mod against_the_keyed_oracle {
        use super::super::oracle::KeyedStore;
        use super::*;
        use crate::hash::content_key;
        use proptest::prelude::*;

        /// Layouts each case's operations draw from.
        const LAYOUTS: usize = 6;
        /// Page indices the ref-count sweep and COW writes cover: past
        /// every generated layout's end.
        const INDICES: u64 = 200;
        const CLASSES: [PageClass; 3] = [
            PageClass::SharedRuntime,
            PageClass::SharedLibrary,
            PageClass::PrivateData,
        ];

        #[derive(Clone, Debug)]
        enum Op {
            Register(usize, bool, f64),
            Release(usize, bool, f64),
            Resident(usize),
            Write(u8, PageClass, u64),
            Clear,
        }

        /// Every language slot; a third of the layouts have no library.
        fn layout() -> impl Strategy<Value = FunctionLayout> {
            (0u8..3, 0u64..48, 0u64..3, 1u64..160, 1u64..64).prop_map(
                |(language, runtime_pages, with_library, library, data_pages)| FunctionLayout {
                    language,
                    runtime_pages,
                    library_pages: if with_library == 0 { 0 } else { library },
                    data_pages,
                },
            )
        }

        /// COW fractions over `[0, 1]`, with both ends drawn often.
        fn cow() -> impl Strategy<Value = f64> {
            (0u8..4, 0.0f64..1.0).prop_map(|(pick, fraction)| match pick {
                0 => 0.0,
                1 => 1.0,
                _ => fraction,
            })
        }

        fn op() -> impl Strategy<Value = Op> {
            let target = (0u8..3, 0usize..3, 0u64..INDICES);
            ((0u8..16, 0usize..LAYOUTS, any::<bool>()), cow(), target).prop_map(
                |((kind, layout, dedup), cow, (language, class, index))| match kind {
                    0..=4 => Op::Register(layout, dedup, cow),
                    5..=9 => Op::Release(layout, dedup, cow),
                    10..=11 => Op::Resident(layout),
                    12..=14 => Op::Write(language, CLASSES[class], index),
                    _ => Op::Clear,
                },
            )
        }

        /// Every ref count and resident total agrees with the oracle.
        fn same_state(store: &SharedPageStore, oracle: &KeyedStore) -> Result<(), TestCaseError> {
            prop_assert_eq!(store.resident_bytes(), oracle.resident_bytes());
            prop_assert_eq!(
                store.resident_shared_pages(),
                oracle.resident_shared_pages()
            );
            prop_assert_eq!(store.shared_pages(), oracle.shared_pages);
            prop_assert_eq!(store.dedup_hits(), oracle.dedup_hits);
            prop_assert_eq!(store.cow_breaks(), oracle.cow_breaks);
            for language in 0..3u8 {
                for class in CLASSES {
                    for index in 0..INDICES {
                        prop_assert_eq!(
                            store.ref_count(language, class, index),
                            oracle.ref_count(content_key(language, class.region(), index)),
                            "ref_count({}, {:?}, {})",
                            language,
                            class,
                            index
                        );
                    }
                }
            }
            Ok(())
        }

        /// Runs `ops` on `store` and the oracle side by side.
        fn check(
            mut store: SharedPageStore,
            layouts: &[FunctionLayout],
            ops: &[Op],
        ) -> Result<(), TestCaseError> {
            let mut oracle = KeyedStore::default();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Register(l, dedup, cow) => prop_assert_eq!(
                        store.register(&layouts[l], dedup, cow),
                        oracle.register(&layouts[l], dedup, cow)
                    ),
                    Op::Release(l, dedup, cow) => {
                        store.release(&layouts[l], dedup, cow);
                        oracle.release(&layouts[l], dedup, cow);
                    }
                    Op::Resident(l) => prop_assert_eq!(
                        store.resident_shared(&layouts[l]),
                        oracle.resident_shared(&layouts[l])
                    ),
                    Op::Write(language, class, index) => prop_assert_eq!(
                        store.write_shared(language, class, index),
                        oracle.write_shared(content_key(language, class.region(), index))
                    ),
                    Op::Clear => {
                        store.clear_resident();
                        oracle.clear_resident();
                    }
                }
                prop_assert_eq!(store.resident_bytes(), oracle.resident_bytes());
                prop_assert_eq!(
                    store.resident_shared_pages(),
                    oracle.resident_shared_pages()
                );
                if step % 16 == 15 {
                    same_state(&store, &oracle)?;
                }
            }
            same_state(&store, &oracle)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn coordinate_columns_match_the_keyed_store(
                layouts in prop::collection::vec(layout(), LAYOUTS..LAYOUTS + 1),
                ops in prop::collection::vec(op(), 1..160),
            ) {
                // Columns sized up front and columns grown by
                // registration (`new`) both match the oracle.
                check(pre_reserved(&layouts), &layouts, &ops)?;
                check(SharedPageStore::new(), &layouts, &ops)?;
            }

            #[test]
            fn grown_columns_match_the_pre_reserved_store(
                layouts in prop::collection::vec(layout(), LAYOUTS..LAYOUTS + 1),
                ops in prop::collection::vec(op(), 1..160),
            ) {
                // Any register/release order: the store that grows its
                // columns holds the same ref counts and counters as the
                // one sized up front, after every step.
                let mut grown = SharedPageStore::new();
                let mut sized = pre_reserved(&layouts);
                for op in &ops {
                    match *op {
                        Op::Register(l, dedup, cow) | Op::Release(l, dedup, cow) => {
                            let register = matches!(op, Op::Register(..));
                            for store in [&mut grown, &mut sized] {
                                if register {
                                    store.register(&layouts[l], dedup, cow);
                                } else {
                                    store.release(&layouts[l], dedup, cow);
                                }
                            }
                        }
                        _ => continue,
                    }
                    prop_assert_eq!(grown.shared_pages(), sized.shared_pages());
                    prop_assert_eq!(grown.dedup_hits(), sized.dedup_hits());
                    prop_assert_eq!(grown.resident_bytes(), sized.resident_bytes());
                    prop_assert_eq!(
                        grown.resident_shared_pages(),
                        sized.resident_shared_pages()
                    );
                    for language in 0..3u8 {
                        for class in CLASSES {
                            for index in 0..INDICES {
                                prop_assert_eq!(
                                    grown.ref_count(language, class, index),
                                    sized.ref_count(language, class, index)
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
