//! Fully-associative translation lookaside buffers with LRU replacement.
//!
//! The Jukebox replay engine deliberately pushes region base addresses
//! through the I-TLB so that translations are pre-populated before demand
//! fetch needs them (§3.3, step 2). Modelling TLB contents therefore
//! matters: a lukewarm invocation starts with a cold I-TLB, and part of the
//! fetch-latency win comes from replay-initiated page walks happening off
//! the critical path.

use crate::config::TlbConfig;
use crate::fast_hash::FastMap;

/// Outcome of a TLB access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbOutcome {
    /// Whether the translation was resident.
    pub hit: bool,
    /// Latency charged for the translation (0 on a hit, the page-walk
    /// latency on a miss).
    pub latency: u64,
}

/// A fully-associative TLB of virtual page numbers.
///
/// Resident translations live in a slot map (`vpage → slot`) and on an
/// intrusive recency list threaded through the slots, most recent at the
/// head. A hit moves its slot to the head and a full TLB evicts the tail,
/// so every operation is O(1). The tail is exactly the least recently
/// touched entry a linear scan for the minimum touch sequence would pick:
/// every access or prefill touches one entry at a fresh sequence number,
/// so list order is touch order and there are no ties.
///
/// # Examples
///
/// ```
/// use sim_mem::config::TlbConfig;
/// use sim_mem::tlb::Tlb;
///
/// let mut tlb = Tlb::new(TlbConfig::new(4, 40));
/// assert!(!tlb.access(7).hit);
/// assert!(tlb.access(7).hit);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    slot_of: FastMap<u64, u32>,
    slots: Vec<Slot>,
    // Most and least recently touched slots (`NIL` when empty).
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
}

/// One resident translation and its recency-list links.
#[derive(Clone, Copy, Debug)]
struct Slot {
    vpage: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            cfg,
            slot_of: FastMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates a virtual page number, walking the page table on a miss
    /// and installing the translation.
    pub fn access(&mut self, vpage: u64) -> TlbOutcome {
        if self.touch(vpage) {
            self.hits += 1;
            return TlbOutcome {
                hit: true,
                latency: 0,
            };
        }
        self.misses += 1;
        self.insert(vpage);
        TlbOutcome {
            hit: false,
            latency: self.cfg.walk_latency,
        }
    }

    /// Installs a translation without charging the walk to the caller —
    /// used by replay-initiated translations that happen off the critical
    /// path (§3.3).
    pub fn prefill(&mut self, vpage: u64) {
        if !self.touch(vpage) {
            self.insert(vpage);
        }
    }

    /// Moves a resident translation to the head of the recency list;
    /// false if `vpage` is not resident.
    fn touch(&mut self, vpage: u64) -> bool {
        // Runs of accesses to one page are the common case, and touching
        // the head leaves the order as it is.
        if self.head != NIL && self.slots[self.head as usize].vpage == vpage {
            return true;
        }
        let Some(&slot) = self.slot_of.get(&vpage) else {
            return false;
        };
        self.unlink(slot);
        self.push_head(slot);
        true
    }

    fn insert(&mut self, vpage: u64) {
        let slot = if self.slots.len() < self.cfg.entries {
            self.slots.push(Slot {
                vpage,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.slot_of.remove(&self.slots[victim as usize].vpage);
            self.slots[victim as usize].vpage = vpage;
            victim
        };
        self.slot_of.insert(vpage, slot);
        self.push_head(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_head(&mut self, slot: u32) {
        let old_head = self.head;
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Whether a translation is resident (no state change).
    pub fn contains(&self, vpage: u64) -> bool {
        self.slot_of.contains_key(&vpage)
    }

    /// Invalidates all translations (context switch / interleaving flush).
    pub fn flush(&mut self) {
        self.slot_of.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// (hits, misses) since construction.
    pub fn counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of resident translations.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize) -> Tlb {
        Tlb::new(TlbConfig::new(entries, 40))
    }

    #[test]
    fn miss_charges_walk_latency() {
        let mut t = tlb(4);
        let out = t.access(1);
        assert!(!out.hit);
        assert_eq!(out.latency, 40);
    }

    #[test]
    fn hit_is_free() {
        let mut t = tlb(4);
        t.access(1);
        let out = t.access(1);
        assert!(out.hit);
        assert_eq!(out.latency, 0);
    }

    #[test]
    fn lru_eviction_on_overflow() {
        let mut t = tlb(2);
        t.access(1);
        t.access(2);
        t.access(1); // 2 becomes LRU
        t.access(3); // evicts 2
        assert!(t.contains(1));
        assert!(!t.contains(2));
        assert!(t.contains(3));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn prefill_avoids_later_walk() {
        let mut t = tlb(4);
        t.prefill(9);
        let out = t.access(9);
        assert!(out.hit);
    }

    #[test]
    fn prefill_of_resident_page_refreshes_recency() {
        let mut t = tlb(2);
        t.access(1);
        t.access(2);
        t.prefill(1); // 2 is now LRU
        t.access(3);
        assert!(t.contains(1));
        assert!(!t.contains(2));
    }

    #[test]
    fn flush_empties() {
        let mut t = tlb(4);
        t.access(1);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.access(1).hit);
    }

    #[test]
    fn counts_accumulate() {
        let mut t = tlb(4);
        t.access(1);
        t.access(1);
        t.access(2);
        assert_eq!(t.counts(), (1, 2));
    }

    /// The TLB as it was before the slot map: a vector of `(vpage,
    /// last touch)` pairs, scanned on every lookup and for the LRU victim.
    struct ScanTlb {
        capacity: usize,
        entries: Vec<(u64, u64)>,
        seq: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanTlb {
        fn touch(&mut self, vpage: u64) -> bool {
            self.seq += 1;
            let seq = self.seq;
            match self.entries.iter_mut().find(|(page, _)| *page == vpage) {
                Some(entry) => {
                    entry.1 = seq;
                    true
                }
                None => {
                    if self.entries.len() < self.capacity {
                        self.entries.push((vpage, seq));
                    } else {
                        let victim = self
                            .entries
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, touch))| *touch)
                            .map(|(i, _)| i)
                            .expect("TLB has at least one entry");
                        self.entries[victim] = (vpage, seq);
                    }
                    false
                }
            }
        }

        fn access(&mut self, vpage: u64) -> bool {
            let hit = self.touch(vpage);
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            hit
        }

        fn contains(&self, vpage: u64) -> bool {
            self.entries.iter().any(|(page, _)| *page == vpage)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn slot_map_tlb_matches_linear_scan(
            capacity in 1usize..1025,
            ops in proptest::collection::vec((0u8..64, 0u64..1_000_000), 1..4000),
        ) {
            let mut fast = tlb(capacity);
            let mut scan = ScanTlb {
                capacity,
                entries: Vec::new(),
                seq: 0,
                hits: 0,
                misses: 0,
            };
            // Pages from a pool a little larger than the TLB, so that hits,
            // misses and evictions all happen.
            let pool = capacity as u64 + capacity as u64 / 4 + 2;
            for (step, &(kind, pick)) in ops.iter().enumerate() {
                let vpage = pick % pool;
                match kind {
                    0..=39 => proptest::prop_assert_eq!(fast.access(vpage).hit, scan.access(vpage)),
                    40..=55 => {
                        fast.prefill(vpage);
                        scan.touch(vpage);
                    }
                    // A rare flush (about one op in a thousand), so large
                    // TLBs still fill up and evict between flushes.
                    63 if pick % 16 == 0 => {
                        fast.flush();
                        scan.entries.clear();
                    }
                    _ => proptest::prop_assert_eq!(fast.contains(vpage), scan.contains(vpage)),
                }
                proptest::prop_assert_eq!(fast.occupancy(), scan.entries.len(), "step {}", step);
                proptest::prop_assert_eq!(fast.counts(), (scan.hits, scan.misses));
            }
            for &(page, _) in &scan.entries {
                proptest::prop_assert!(fast.contains(page));
            }
        }
    }
}
