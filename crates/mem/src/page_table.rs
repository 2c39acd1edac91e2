//! Per-process page tables with deterministic frame allocation.
//!
//! Each warm function instance is a separate process with its own address
//! space; on a real host their pages land in distinct physical frames, which
//! is why co-running instances thrash the physically-indexed L2/LLC. The
//! page table maps virtual page numbers to frames allocated on first touch
//! from a per-process frame arena, so two instances never share frames but a
//! single instance's mapping is stable across invocations (warm instances
//! stay memory-resident; providers disable swap, §2.2).

use crate::fast_hash::FastMap;
use luke_common::addr::{LineAddr, PhysAddr, VirtAddr, LINES_PER_PAGE, PAGE_BYTES};

/// Number of physical pages reserved per process arena. Large enough for
/// any synthetic function (code + data + metadata) while keeping arenas
/// disjoint.
const ARENA_PAGES: u64 = 1 << 20; // 4GB of address space per process

/// Entries of the direct-mapped memo of recent translations.
const MEMO_ENTRIES: usize = 64;

/// Memo key of an empty entry; never a page number (pages of a 64-bit
/// address space stay below 2^52).
const NO_PAGE: u64 = u64::MAX;

/// A demand-allocating page table for one process.
///
/// A small direct-mapped memo of `(vpage, frame)` pairs sits in front of
/// the map. A mapping never changes once made, so a memo hit is always
/// the map's answer.
///
/// # Examples
///
/// ```
/// use sim_mem::page_table::PageTable;
/// use luke_common::addr::VirtAddr;
///
/// let mut pt = PageTable::new(3);
/// let p1 = pt.translate(VirtAddr::new(0x1000));
/// let p2 = pt.translate(VirtAddr::new(0x1008));
/// assert_eq!(p1.frame_number(), p2.frame_number());
/// ```
#[derive(Clone, Debug)]
pub struct PageTable {
    process_id: u64,
    map: FastMap<u64, u64>,
    memo: [(u64, u64); MEMO_ENTRIES],
    next_frame: u64,
}

impl PageTable {
    /// Creates an empty page table for process `process_id`. Distinct
    /// process ids draw frames from disjoint arenas.
    pub fn new(process_id: u64) -> Self {
        PageTable {
            process_id,
            map: FastMap::default(),
            memo: [(NO_PAGE, 0); MEMO_ENTRIES],
            next_frame: process_id * ARENA_PAGES,
        }
    }

    /// The owning process id.
    pub fn process_id(&self) -> u64 {
        self.process_id
    }

    /// Translates a virtual address, allocating a frame on first touch.
    pub fn translate(&mut self, vaddr: VirtAddr) -> PhysAddr {
        let frame = self.frame_of(vaddr.page_number());
        PhysAddr::new(frame * PAGE_BYTES as u64 + (vaddr.as_u64() % PAGE_BYTES as u64))
    }

    /// Translates a virtual line address to a physical line number.
    pub fn translate_line(&mut self, line: LineAddr) -> u64 {
        let vpage = line.base().page_number();
        let frame = self.frame_of(vpage);
        frame * LINES_PER_PAGE as u64 + line.index() % LINES_PER_PAGE as u64
    }

    fn frame_of(&mut self, vpage: u64) -> u64 {
        let slot = vpage as usize % MEMO_ENTRIES;
        let (memo_page, memo_frame) = self.memo[slot];
        if memo_page == vpage {
            return memo_frame;
        }
        let frame = match self.map.get(&vpage) {
            Some(&frame) => frame,
            None => self.allocate(vpage),
        };
        self.memo[slot] = (vpage, frame);
        frame
    }

    fn allocate(&mut self, vpage: u64) -> u64 {
        let frame = self.next_frame;
        assert!(
            frame < (self.process_id + 1) * ARENA_PAGES,
            "process {} exhausted its frame arena",
            self.process_id
        );
        self.next_frame += 1;
        self.map.insert(vpage, frame);
        frame
    }

    /// Number of mapped pages (the resident set).
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Resident memory in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.map.len() as u64 * PAGE_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_same_frame() {
        let mut pt = PageTable::new(0);
        let a = pt.translate(VirtAddr::new(0x5000));
        let b = pt.translate(VirtAddr::new(0x5ff0));
        assert_eq!(a.frame_number(), b.frame_number());
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn different_pages_different_frames() {
        let mut pt = PageTable::new(0);
        let a = pt.translate(VirtAddr::new(0x5000));
        let b = pt.translate(VirtAddr::new(0x6000));
        assert_ne!(a.frame_number(), b.frame_number());
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(0);
        let first = pt.translate(VirtAddr::new(0x9abc));
        // Touch other pages in between.
        for p in 0..100u64 {
            pt.translate(VirtAddr::new(p * 0x1000));
        }
        assert_eq!(pt.translate(VirtAddr::new(0x9abc)), first);
    }

    #[test]
    fn page_offset_preserved() {
        let mut pt = PageTable::new(0);
        let p = pt.translate(VirtAddr::new(0x5123));
        assert_eq!(p.as_u64() % PAGE_BYTES as u64, 0x123);
    }

    #[test]
    fn processes_have_disjoint_frames() {
        let mut a = PageTable::new(1);
        let mut b = PageTable::new(2);
        let fa = a.translate(VirtAddr::new(0x1000)).frame_number();
        let fb = b.translate(VirtAddr::new(0x1000)).frame_number();
        assert_ne!(fa, fb);
    }

    #[test]
    fn line_translation_consistent_with_byte_translation() {
        let mut pt = PageTable::new(0);
        let v = VirtAddr::new(0x7654_3210);
        let pline = pt.translate_line(v.line());
        let pbyte = pt.translate(v);
        assert_eq!(pline, pbyte.line_number());
    }

    #[test]
    fn resident_bytes_tracks_pages() {
        let mut pt = PageTable::new(0);
        pt.translate(VirtAddr::new(0));
        pt.translate(VirtAddr::new(0x1000));
        assert_eq!(pt.resident_bytes(), 2 * PAGE_BYTES as u64);
    }
}
