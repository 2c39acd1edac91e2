//! Recorded working-set metadata with an order-sensitive integrity tag.
//!
//! REAP persists the recorded page set alongside the snapshot; on
//! restore, that metadata is *untrusted input* — it may have been
//! truncated on disk, bit-flipped, or produced by a different build.
//! Exactly like Jukebox's `MetadataBuffer`, every push folds the page
//! into a SplitMix64 integrity tag, and [`SnapshotMetadata::is_consistent`]
//! recomputes the fold so tampering, truncation and reordering are all
//! detected before a single page is prefetched. The restore layer
//! ([`crate::restore`]) treats an inconsistent buffer the way Jukebox's
//! replay validator does: degrade (to lazy paging) and re-record, never
//! panic.
//!
//! A record of a whole working set ([`SnapshotMetadata::record`]) shares
//! the set's immutable page list and the tag folded when the set was
//! built, so recording costs no copy and no fold. Every other way in —
//! [`SnapshotMetadata::from_raw_parts`], [`SnapshotMetadata::push`] —
//! owns its pages, so nothing done to one record reaches the shared
//! list or any other record.

use crate::working_set::{PageWorkingSet, SnapshotPage};
use std::sync::Arc;

/// Initial value of the integrity fold.
const TAG_SEED: u64 = 0x7265_6170_2173_6e70; // "reap!snp"

/// The recorded page working set of one function's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotMetadata {
    /// Shared with the recorded working set until a push copies it.
    pages: Arc<Vec<SnapshotPage>>,
    tag: u64,
    generation: u64,
}

impl Default for SnapshotMetadata {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotMetadata {
    /// An empty record.
    pub fn new() -> Self {
        SnapshotMetadata {
            pages: Arc::default(),
            tag: TAG_SEED,
            generation: 0,
        }
    }

    /// Records a working set in first-touch order, stamped with the
    /// restore generation that produced it. The record shares the
    /// set's page list and its precomputed tag — the same pages and tag
    /// pushing every page would produce.
    pub fn record(working_set: &PageWorkingSet, generation: u64) -> Self {
        SnapshotMetadata {
            pages: Arc::clone(working_set.shared_pages()),
            tag: working_set.record_tag(),
            generation,
        }
    }

    /// Appends one page, folding it into the integrity tag. A record
    /// still sharing its working set's list copies it first.
    pub fn push(&mut self, page: SnapshotPage) {
        self.tag = fold_tag(self.tag, self.pages.len(), page);
        Arc::make_mut(&mut self.pages).push(page);
    }

    /// Reassembles metadata from untrusted parts — a deserialized
    /// snapshot file, a foreign host's record. Nothing is validated
    /// here; [`SnapshotMetadata::is_consistent`] is the trust boundary.
    pub fn from_raw_parts(pages: Vec<SnapshotPage>, tag: u64, generation: u64) -> Self {
        SnapshotMetadata {
            pages: Arc::new(pages),
            tag,
            generation,
        }
    }

    /// The recorded pages in first-touch order.
    pub fn pages(&self) -> &[SnapshotPage] {
        &self.pages
    }

    /// Number of recorded pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The integrity tag (order-sensitive fold maintained by
    /// [`SnapshotMetadata::push`]).
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Which restore generation recorded this metadata.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the stored tag matches a recomputation over the pages.
    ///
    /// `false` means the record was corrupted after recording: pages
    /// mutated, reordered, appended or truncated without going through
    /// [`SnapshotMetadata::push`].
    pub fn is_consistent(&self) -> bool {
        fold_pages(&self.pages) == self.tag
    }

    /// Whether every recorded page lies inside `working_set` — the
    /// restore layer refuses to prefetch outside the function's layout
    /// even when the tag checks out (e.g. a stale record from a
    /// different build).
    pub fn covered_by(&self, working_set: &PageWorkingSet) -> bool {
        self.pages.iter().all(|p| working_set.contains(p.page))
    }
}

/// The integrity fold over `pages` in order: the tag pushing each of
/// them onto an empty record produces.
pub(crate) fn fold_pages(pages: &[SnapshotPage]) -> u64 {
    pages
        .iter()
        .enumerate()
        .fold(TAG_SEED, |tag, (i, &page)| fold_tag(tag, i, page))
}

/// One step of the order-sensitive integrity fold: mixes the running tag
/// with the page's position, index and kind.
fn fold_tag(tag: u64, index: usize, page: SnapshotPage) -> u64 {
    let mut h = tag ^ splitmix(index as u64);
    h = splitmix(h ^ page.page);
    splitmix(h ^ page.kind.index())
}

/// SplitMix64 finalizer (same permutation `luke_common::rng` uses for
/// stream splitting).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::working_set::PageKind;
    use workloads::FunctionProfile;

    fn working_set() -> PageWorkingSet {
        PageWorkingSet::from_profile(&FunctionProfile::named("Auth-G").unwrap())
    }

    #[test]
    fn recorded_metadata_is_consistent_and_ordered() {
        let ws = working_set();
        let md = SnapshotMetadata::record(&ws, 3);
        assert!(md.is_consistent());
        assert!(md.covered_by(&ws));
        assert_eq!(md.pages(), ws.pages());
        assert_eq!(md.generation(), 3);
        assert!(SnapshotMetadata::new().is_consistent(), "empty record");
    }

    #[test]
    fn shared_record_equals_a_push_built_one() {
        for profile in workloads::paper_suite() {
            let ws = PageWorkingSet::from_profile(&profile);
            let mut pushed = SnapshotMetadata::new();
            for &page in ws.pages() {
                pushed.push(page);
            }
            let shared = SnapshotMetadata::record(&ws, 9);
            assert_eq!(shared.pages(), pushed.pages(), "{}", profile.name);
            assert_eq!(shared.tag(), pushed.tag(), "{}", profile.name);
            assert_eq!(shared.generation(), 9);
            assert!(shared.is_consistent() && shared.covered_by(&ws));
            assert!(
                std::ptr::eq(shared.pages(), ws.pages()),
                "a record shares its working set's pages"
            );
        }
    }

    #[test]
    fn pushing_onto_a_shared_record_leaves_the_working_set_alone() {
        let ws = working_set();
        let mut md = SnapshotMetadata::record(&ws, 0);
        md.push(SnapshotPage {
            page: 1,
            kind: PageKind::Data,
        });
        assert!(md.is_consistent());
        assert_eq!(md.len(), ws.len() + 1);
        assert_eq!(SnapshotMetadata::record(&ws, 0).len(), ws.len());
        assert!(SnapshotMetadata::record(&ws, 0).is_consistent());
    }

    #[test]
    fn raw_parts_with_matching_tag_round_trip() {
        let md = SnapshotMetadata::record(&working_set(), 0);
        let restored =
            SnapshotMetadata::from_raw_parts(md.pages().to_vec(), md.tag(), md.generation());
        assert!(restored.is_consistent());
        assert_eq!(restored, md);
    }

    #[test]
    fn tampering_breaks_consistency() {
        let md = SnapshotMetadata::record(&working_set(), 0);
        let tag = md.tag();

        // Flipped page index.
        let mut pages = md.pages().to_vec();
        pages[7].page ^= 1;
        assert!(!SnapshotMetadata::from_raw_parts(pages, tag, 0).is_consistent());

        // Flipped kind.
        let mut pages = md.pages().to_vec();
        pages[7].kind = match pages[7].kind {
            PageKind::Code => PageKind::Data,
            PageKind::Data => PageKind::Code,
        };
        assert!(!SnapshotMetadata::from_raw_parts(pages, tag, 0).is_consistent());

        // Truncation.
        let pages = md.pages()[..10].to_vec();
        assert!(!SnapshotMetadata::from_raw_parts(pages, tag, 0).is_consistent());

        // Reordering.
        let mut pages = md.pages().to_vec();
        pages.swap(0, 1);
        assert!(!SnapshotMetadata::from_raw_parts(pages, tag, 0).is_consistent());

        // Wrong tag on intact pages.
        let pages = md.pages().to_vec();
        assert!(!SnapshotMetadata::from_raw_parts(pages, tag ^ 1, 0).is_consistent());
    }

    #[test]
    fn foreign_pages_fail_coverage_even_with_a_valid_tag() {
        let ws = working_set();
        let mut md = SnapshotMetadata::new();
        md.push(SnapshotPage {
            page: u64::MAX / 2,
            kind: PageKind::Data,
        });
        assert!(md.is_consistent(), "honestly recorded, just stale");
        assert!(!md.covered_by(&ws), "must refuse out-of-layout prefetch");
    }
}
