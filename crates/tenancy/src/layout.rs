//! Per-function page layout: how a profile's working set splits into
//! sharing regions.
//!
//! The workload generator lays code out as a language runtime core plus
//! library/handler regions (`workloads::Language`), and the snapshot
//! layer prices that footprint as 4KiB pages. This module bridges the
//! two: a [`FunctionLayout`] counts how many of a function's pages fall
//! in each [`crate::PageClass`]. Runtime-core size is a per-language
//! constant — the CPython interpreter and V8 engine dwarf Go's compiled
//! runtime — and everything else in the code footprint is library code
//! shared across same-language functions. Data pages are always
//! private.

use crate::hash::language_slot;
use luke_snapshot::PAGE_BYTES;
use workloads::{FunctionProfile, Language};

/// Pages of the language runtime core resident in every instance of the
/// language (interpreter/JIT engine text). CPython's interpreter is the
/// largest, V8's JIT engine close behind, compiled Go's runtime small.
fn runtime_core_pages(language: Language) -> u64 {
    match language {
        Language::Python => 40,
        Language::NodeJs => 56,
        Language::Go => 16,
    }
}

/// How one function's page working set splits into sharing regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FunctionLayout {
    /// Language slot ([`crate::language_slot`]) — the content-key
    /// discriminant shared pages are addressed under.
    pub language: u8,
    /// Shared runtime-core pages.
    pub runtime_pages: u64,
    /// Shared library pages (code footprint beyond the runtime core).
    pub library_pages: u64,
    /// Private heap/stack pages.
    pub data_pages: u64,
}

impl FunctionLayout {
    /// Splits a profile's calibrated footprints into sharing regions,
    /// using the same page arithmetic as
    /// `luke_snapshot::PageWorkingSet::from_profile` so layouts and
    /// working sets always agree on totals.
    pub fn for_profile(profile: &FunctionProfile) -> Self {
        let code = profile.code_footprint.bytes().div_ceil(PAGE_BYTES).max(1);
        let data = profile.data_footprint.bytes().div_ceil(PAGE_BYTES).max(1);
        let runtime = runtime_core_pages(profile.language).min(code);
        FunctionLayout {
            language: language_slot(profile.language),
            runtime_pages: runtime,
            library_pages: code - runtime,
            data_pages: data,
        }
    }

    /// Total pages across all three regions.
    pub fn total_pages(&self) -> u64 {
        self.runtime_pages + self.library_pages + self.data_pages
    }

    /// Shared (runtime + library) pages.
    pub fn shared_pages(&self) -> u64 {
        self.runtime_pages + self.library_pages
    }

    /// Total resident bytes the layout pins without sharing.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_BYTES
    }

    /// Shared-library pages this instance privatizes through
    /// copy-on-write breaks at `dirty_fraction` (relocation fixups, GOT
    /// patching, inline-cache writes): the first
    /// `⌊library × fraction⌋` library pages, a deterministic set so
    /// registration and release mirror exactly.
    pub fn cow_pages(&self, dirty_fraction: f64) -> u64 {
        ((self.library_pages as f64) * dirty_fraction.clamp(0.0, 1.0)).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_snapshot::PageWorkingSet;
    use workloads::paper_suite;

    #[test]
    fn layout_totals_match_the_snapshot_working_set() {
        for profile in paper_suite() {
            let layout = FunctionLayout::for_profile(&profile);
            let ws = PageWorkingSet::from_profile(&profile);
            assert_eq!(
                layout.total_pages() as usize,
                ws.len(),
                "{}: layout and working set disagree",
                profile.name
            );
            assert_eq!(
                (layout.runtime_pages + layout.library_pages) as usize,
                ws.code_pages(),
                "{}",
                profile.name
            );
            assert_eq!(
                layout.data_pages as usize,
                ws.data_pages(),
                "{}",
                profile.name
            );
            assert_eq!(layout.total_bytes(), ws.bytes());
        }
    }

    #[test]
    fn runtime_core_never_exceeds_the_code_footprint() {
        for profile in paper_suite() {
            let layout = FunctionLayout::for_profile(&profile);
            assert!(layout.runtime_pages > 0, "{}", profile.name);
            assert!(
                layout.library_pages > 0,
                "{}: suite footprints all exceed their runtime core",
                profile.name
            );
        }
    }

    #[test]
    fn same_language_functions_share_runtime_page_counts() {
        let suite = paper_suite();
        for a in &suite {
            for b in &suite {
                if a.language == b.language {
                    let la = FunctionLayout::for_profile(a);
                    let lb = FunctionLayout::for_profile(b);
                    assert_eq!(la.runtime_pages, lb.runtime_pages);
                    assert_eq!(la.language, lb.language);
                }
            }
        }
    }

    #[test]
    fn cow_pages_scale_with_the_dirty_fraction() {
        let layout = FunctionLayout {
            language: 0,
            runtime_pages: 10,
            library_pages: 100,
            data_pages: 20,
        };
        assert_eq!(layout.cow_pages(0.0), 0);
        assert_eq!(layout.cow_pages(0.05), 5);
        assert_eq!(layout.cow_pages(1.0), 100);
        assert_eq!(layout.cow_pages(7.0), 100, "clamped");
        assert_eq!(layout.cow_pages(-1.0), 0, "clamped");
    }
}
