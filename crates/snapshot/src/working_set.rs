//! Per-function page working sets in first-touch order.
//!
//! A restored instance touches its pages in a stable order: the runtime
//! and handler code as execution re-enters it, interleaved with the heap
//! and stack pages the invocation reads. The REAP observation is that
//! this set is *almost identical across invocations* — the same
//! stability `workloads::footprint` measures for instruction lines
//! (Figure 6b's ≥0.9 Jaccard commonality) — which is what makes
//! record-and-prefetch work. This module models the set: code and data
//! pages derived from a function profile's calibrated footprints, in a
//! deterministic seed-dependent first-touch interleaving.

use crate::metadata::fold_pages;
use luke_common::rng::DetRng;
use luke_common::SimError;
use std::collections::BTreeSet;
use std::sync::Arc;
use workloads::FunctionProfile;

/// Guest page size, bytes (4KiB — what the host's fault path works in).
pub const PAGE_BYTES: u64 = 4096;

/// Page index of the code (text) region base: 4MiB, a typical static
/// text base.
const CODE_BASE_PAGE: u64 = 0x0040_0000 / PAGE_BYTES;

/// Page index of the data (heap/stack) region base, far above the text
/// region so the two kinds can never collide.
const DATA_BASE_PAGE: u64 = 0x5555_0000_0000 / PAGE_BYTES;

/// Seed-space tag for the first-touch interleaving stream.
const SNAPSHOT_STREAM: u64 = 0x736e_6170; // "snap"

/// What a page holds — code faults come from instruction fetch on the
/// re-entry path, data faults from the invocation's reads and writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PageKind {
    /// Text/code page.
    Code,
    /// Heap/stack/data page.
    Data,
}

impl PageKind {
    /// Stable index used by the metadata integrity fold.
    pub fn index(self) -> u64 {
        match self {
            PageKind::Code => 0,
            PageKind::Data => 1,
        }
    }
}

/// One page of a working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotPage {
    /// Guest page index (virtual address / [`PAGE_BYTES`]).
    pub page: u64,
    /// What the page holds.
    pub kind: PageKind,
}

/// A function's page working set in first-touch order (see module docs).
///
/// The page list is immutable once built and held behind an [`Arc`],
/// together with its REAP integrity tag folded once at construction: a
/// record of this set ([`crate::SnapshotMetadata::record`]) shares the
/// list and tag instead of copying and re-folding every page. It is an
/// `Arc<Vec<_>>` rather than an `Arc<[_]>` so a record that later grows
/// through [`crate::SnapshotMetadata::push`] copies it once
/// ([`Arc::make_mut`]) and then appends in amortized O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageWorkingSet {
    pages: Arc<Vec<SnapshotPage>>,
    index: BTreeSet<u64>,
    tag: u64,
}

impl PageWorkingSet {
    /// Seals a duplicate-free first-touch list: folds its record tag.
    fn seal(pages: Vec<SnapshotPage>, index: BTreeSet<u64>) -> Self {
        PageWorkingSet {
            tag: fold_pages(&pages),
            pages: Arc::new(pages),
            index,
        }
    }

    /// Builds a working set from explicit code and data page indices,
    /// preserving the given first-touch order and dropping duplicates.
    pub fn from_pages(
        code: impl IntoIterator<Item = u64>,
        data: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut pages = Vec::new();
        let mut index = BTreeSet::new();
        for page in code {
            if index.insert(page) {
                pages.push(SnapshotPage {
                    page,
                    kind: PageKind::Code,
                });
            }
        }
        for page in data {
            if index.insert(page) {
                pages.push(SnapshotPage {
                    page,
                    kind: PageKind::Data,
                });
            }
        }
        Self::seal(pages, index)
    }

    /// Strict constructor: builds a working set from explicit pages in
    /// first-touch order, *rejecting* duplicate page indices instead of
    /// silently dropping them. A duplicate means the caller's notion of
    /// the set and the dedup index would diverge — first-touch replay
    /// would prefetch a page the caller counted twice — so it is a
    /// configuration error, named after the offending page.
    pub fn try_new(pages: impl IntoIterator<Item = SnapshotPage>) -> Result<Self, SimError> {
        let mut ordered = Vec::new();
        let mut index = BTreeSet::new();
        for page in pages {
            if !index.insert(page.page) {
                return Err(SimError::invalid_config(
                    "snapshot.working_set",
                    format!(
                        "duplicate page index {} ({:?}) in first-touch order",
                        page.page, page.kind
                    ),
                ));
            }
            ordered.push(page);
        }
        Ok(Self::seal(ordered, index))
    }

    /// Bridges from the §2.5 footprint methodology: the unique
    /// instruction cache-line set measured by
    /// `workloads::footprint::instruction_lines` collapsed to 4KiB code
    /// pages (64 lines per page), in ascending order.
    pub fn from_line_set(lines: &BTreeSet<u64>) -> Self {
        Self::from_pages(lines.iter().map(|line| line >> 6), std::iter::empty())
    }

    /// Derives the working set from a function profile in closed form:
    /// one code page per 4KiB of calibrated instruction footprint, one
    /// data page per 4KiB of data working set, interleaved into a
    /// deterministic first-touch order split from the profile's seed.
    pub fn from_profile(profile: &FunctionProfile) -> Self {
        let code = profile.code_footprint.bytes().div_ceil(PAGE_BYTES).max(1);
        let data = profile.data_footprint.bytes().div_ceil(PAGE_BYTES).max(1);
        let mut rng = DetRng::new(profile.seed).split(SNAPSHOT_STREAM);
        let mut next_code = 0u64;
        let mut next_data = 0u64;
        let mut pages = Vec::with_capacity((code + data) as usize);
        // Re-entry touches code and data in a stable interleaving:
        // within each kind pages fault in layout order, and the draw
        // between kinds is weighted by how much of each remains.
        while next_code < code || next_data < data {
            let remaining = (code - next_code + data - next_data) as f64;
            let take_code = next_code < code && rng.chance((code - next_code) as f64 / remaining);
            if take_code {
                pages.push(SnapshotPage {
                    page: CODE_BASE_PAGE + next_code,
                    kind: PageKind::Code,
                });
                next_code += 1;
            } else {
                pages.push(SnapshotPage {
                    page: DATA_BASE_PAGE + next_data,
                    kind: PageKind::Data,
                });
                next_data += 1;
            }
        }
        let index = pages.iter().map(|p| p.page).collect();
        Self::seal(pages, index)
    }

    /// The pages in first-touch order.
    pub fn pages(&self) -> &[SnapshotPage] {
        &self.pages
    }

    /// The shared first-touch list a record of this set reuses.
    pub(crate) fn shared_pages(&self) -> &Arc<Vec<SnapshotPage>> {
        &self.pages
    }

    /// The integrity tag a record of this set carries: the metadata
    /// fold over [`PageWorkingSet::pages`], computed once at build.
    pub(crate) fn record_tag(&self) -> u64 {
        self.tag
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `page` belongs to this working set.
    pub fn contains(&self, page: u64) -> bool {
        self.index.contains(&page)
    }

    /// Number of code pages.
    pub fn code_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| p.kind == PageKind::Code)
            .count()
    }

    /// Number of data pages.
    pub fn data_pages(&self) -> usize {
        self.len() - self.code_pages()
    }

    /// Resident bytes the set pins (pages × 4KiB).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * PAGE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    #[test]
    fn profile_working_set_matches_footprints() {
        let profile = FunctionProfile::named("Auth-G").unwrap();
        let ws = PageWorkingSet::from_profile(&profile);
        let code = profile.code_footprint.bytes().div_ceil(PAGE_BYTES) as usize;
        let data = profile.data_footprint.bytes().div_ceil(PAGE_BYTES) as usize;
        assert_eq!(ws.code_pages(), code);
        assert_eq!(ws.data_pages(), data);
        assert_eq!(ws.len(), code + data);
        assert_eq!(ws.bytes(), (code + data) as u64 * PAGE_BYTES);
        for page in ws.pages() {
            assert!(ws.contains(page.page));
        }
    }

    #[test]
    fn first_touch_order_is_deterministic_and_seed_dependent() {
        let auth = FunctionProfile::named("Auth-G").unwrap();
        let a = PageWorkingSet::from_profile(&auth);
        let b = PageWorkingSet::from_profile(&auth);
        assert_eq!(a, b, "same profile, same order");
        let mut reseeded = auth.clone();
        reseeded.seed ^= 0xDEAD;
        let c = PageWorkingSet::from_profile(&reseeded);
        assert_ne!(
            a.pages(),
            c.pages(),
            "a different seed must interleave differently"
        );
        // …but the *set* of pages is seed-independent.
        assert_eq!(a.len(), c.len());
        assert_eq!(a.code_pages(), c.code_pages());
    }

    #[test]
    fn each_kind_faults_in_layout_order() {
        let ws = PageWorkingSet::from_profile(&FunctionProfile::named("Pay-N").unwrap());
        for kind in [PageKind::Code, PageKind::Data] {
            let seq: Vec<u64> = ws
                .pages()
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.page)
                .collect();
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "{kind:?} pages must first-touch in ascending layout order"
            );
        }
    }

    #[test]
    fn code_and_data_regions_never_collide() {
        for profile in paper_suite() {
            let ws = PageWorkingSet::from_profile(&profile);
            assert_eq!(
                ws.len(),
                ws.code_pages() + ws.data_pages(),
                "{}: duplicate page indices across kinds",
                profile.name
            );
            assert!(ws.len() >= 2, "{}: degenerate working set", profile.name);
        }
    }

    #[test]
    fn suite_working_sets_span_the_figure6_band() {
        // Figure 6a: per-invocation instruction footprints between 300KB
        // and just over 800KB → 75–210 code pages at paper scale.
        for profile in paper_suite() {
            let ws = PageWorkingSet::from_profile(&profile);
            assert!(
                (70..=220).contains(&ws.code_pages()),
                "{}: {} code pages",
                profile.name,
                ws.code_pages()
            );
        }
    }

    #[test]
    fn from_pages_deduplicates_preserving_first_touch() {
        let ws = PageWorkingSet::from_pages([5, 3, 5, 9], [100, 3, 100]);
        let touched: Vec<u64> = ws.pages().iter().map(|p| p.page).collect();
        assert_eq!(touched, vec![5, 3, 9, 100]);
        assert_eq!(ws.code_pages(), 3);
        assert_eq!(ws.data_pages(), 1);
        assert!(PageWorkingSet::from_pages([], []).is_empty());
    }

    #[test]
    fn try_new_rejects_duplicate_page_indices() {
        // Regression: `from_pages` silently drops duplicates (first
        // touch wins), which is right for recorded traces but wrong for
        // explicitly-specified sets — there the Vec and the BTreeSet
        // index would diverge. `try_new` names the duplicate instead.
        let dup = [
            SnapshotPage {
                page: 5,
                kind: PageKind::Code,
            },
            SnapshotPage {
                page: 9,
                kind: PageKind::Code,
            },
            SnapshotPage {
                page: 5,
                kind: PageKind::Data,
            },
        ];
        let err = PageWorkingSet::try_new(dup).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("snapshot.working_set"), "{text}");
        assert!(text.contains('5'), "{text}");
        // The happy path keeps order and stays consistent with the
        // lenient constructor.
        let unique = [
            SnapshotPage {
                page: 5,
                kind: PageKind::Code,
            },
            SnapshotPage {
                page: 9,
                kind: PageKind::Code,
            },
            SnapshotPage {
                page: 100,
                kind: PageKind::Data,
            },
        ];
        let ws = PageWorkingSet::try_new(unique).unwrap();
        assert_eq!(ws.pages(), &unique);
        assert_eq!(ws.len(), 3);
        for page in ws.pages() {
            assert!(ws.contains(page.page));
        }
        assert_eq!(ws, PageWorkingSet::from_pages([5, 9], [100]));
        assert!(PageWorkingSet::try_new([]).unwrap().is_empty());
    }

    #[test]
    fn line_set_bridge_collapses_lines_to_pages() {
        // 64 lines per 4KiB page: lines 0..64 are page 0, line 64 is page 1.
        let lines: BTreeSet<u64> = [0u64, 1, 63, 64, 130].into_iter().collect();
        let ws = PageWorkingSet::from_line_set(&lines);
        let touched: Vec<u64> = ws.pages().iter().map(|p| p.page).collect();
        assert_eq!(touched, vec![0, 1, 2]);
        assert_eq!(ws.data_pages(), 0);
    }
}
