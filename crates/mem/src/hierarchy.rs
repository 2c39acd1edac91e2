//! The three-level memory hierarchy of Table 1.
//!
//! Composes L1-I, L1-D, a private unified L2, a shared LLC, I-/D-TLBs and
//! DRAM into the demand paths the core timing model uses:
//!
//! * [`MemoryHierarchy::fetch_instr`] — the in-order instruction-fetch path
//!   whose exposed latency becomes *fetch-latency* front-end stalls;
//! * [`MemoryHierarchy::read_data`] / [`MemoryHierarchy::write_data`] — the
//!   data path whose latency the out-of-order back-end can partially hide;
//! * [`MemoryHierarchy::prefetch_instr_l2`] — the L2 instruction-prefetch
//!   port used by Jukebox replay and the PIF baseline.
//!
//! A *perfect I-cache* mode implements the oracle of Figure 10: an
//! infinite L1-I that retains every line ever fetched across invocations,
//! so instruction fetch only pays compulsory (first-touch) misses.

use crate::cache::{AccessClass, Cache, Replacement};
use crate::config::HierarchyConfig;
use crate::dram::Dram;
use crate::fast_hash::FastSet;
use crate::mshr::MshrFile;
use crate::stats::{CacheStats, Traffic, TrafficBytes};
use crate::tlb::Tlb;
use luke_common::addr::{LineAddr, VirtAddr, LINES_PER_PAGE};

/// The hierarchy level that serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Serviced by the L1 (I or D).
    L1,
    /// Serviced by the private L2.
    L2,
    /// Serviced by the shared LLC.
    Llc,
    /// Serviced by DRAM.
    Memory,
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total exposed latency in cycles, including TLB walk if any.
    pub latency: u64,
    /// Deepest level reached.
    pub hit_level: Level,
    /// The access missed the L1.
    pub l1_miss: bool,
    /// The access missed the L2 (always false if `l1_miss` is false).
    pub l2_miss: bool,
    /// The access hit the L2 on a prefetched line's *first* demand use —
    /// i.e. it would have been an L2 miss without the prefetcher. A
    /// record-and-replay prefetcher must treat this as recordable,
    /// otherwise covered lines vanish from the next generation of
    /// metadata and coverage oscillates between invocations.
    pub l2_prefetch_first_use: bool,
    /// A TLB walk was required.
    pub tlb_miss: bool,
}

/// Result of an L2 prefetch request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// Cycle at which the line is usable in the L2.
    pub arrival: u64,
    /// The line was already resident in the L2 (no request issued).
    pub already_resident: bool,
    /// The line was fetched from DRAM (as opposed to the LLC).
    pub from_memory: bool,
}

/// Snapshot of all per-level statistics, for per-invocation deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// L1-I counters.
    pub l1i: CacheStats,
    /// L1-D counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// DRAM traffic counters.
    pub traffic: TrafficBytes,
}

impl HierarchySnapshot {
    /// Accumulates every level's counters and the DRAM traffic bytes into
    /// `registry` under `mem.{l1i,l1d,l2,llc}.*` and `mem.traffic.*`.
    pub fn add_to_registry(&self, registry: &mut luke_obs::Registry) {
        self.l1i.add_to_registry(registry, "mem.l1i");
        self.l1d.add_to_registry(registry, "mem.l1d");
        self.l2.add_to_registry(registry, "mem.l2");
        self.llc.add_to_registry(registry, "mem.llc");
        self.traffic.add_to_registry(registry);
    }

    /// Counter-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &HierarchySnapshot) -> HierarchySnapshot {
        HierarchySnapshot {
            l1i: self.l1i.delta(&earlier.l1i),
            l1d: self.l1d.delta(&earlier.l1d),
            l2: self.l2.delta(&earlier.l2),
            llc: self.llc.delta(&earlier.llc),
            traffic: self.traffic.delta(&earlier.traffic),
        }
    }
}

/// The full memory system (see module docs).
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    dram: Dram,
    // Bounds in-flight L2 prefetches (the L2's MSHR file): a replay burst
    // can have at most `l2.mshrs` misses outstanding.
    prefetch_mshrs: MshrFile,
    perfect_icache: bool,
    perfect_store: FastSet<u64>,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy from a configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i, Replacement::Lru),
            l1d: Cache::new(cfg.l1d, Replacement::Lru),
            l2: Cache::new(cfg.l2, Replacement::Lru),
            llc: Cache::new(cfg.llc, Replacement::Lru),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            dram: Dram::new(cfg.dram),
            prefetch_mshrs: MshrFile::new(cfg.l2.mshrs),
            perfect_icache: false,
            perfect_store: FastSet::default(),
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Enables/disables the perfect-I-cache oracle (Figure 10).
    pub fn set_perfect_icache(&mut self, enabled: bool) {
        self.perfect_icache = enabled;
    }

    /// Whether the perfect-I-cache oracle is active.
    pub fn perfect_icache(&self) -> bool {
        self.perfect_icache
    }

    /// Fetches the instruction line `vline` (translated to physical line
    /// number `pline`) at cycle `now`.
    pub fn fetch_instr(&mut self, vline: LineAddr, pline: u64, now: u64) -> AccessOutcome {
        let vpage = vline.base().page_number();
        let tlb = self.itlb.access(vpage);
        let tlb_latency = tlb.latency;

        if self.perfect_icache {
            // Infinite L1-I retaining the whole footprint across
            // invocations: compulsory misses only.
            if !self.perfect_store.insert(pline) {
                return AccessOutcome {
                    latency: self.cfg.l1i.latency + tlb_latency,
                    hit_level: Level::L1,
                    l1_miss: false,
                    l2_miss: false,
                    l2_prefetch_first_use: false,
                    tlb_miss: !tlb.hit,
                };
            }
            let available = self
                .dram
                .read_line(now + self.cfg.l1i.latency, Traffic::DemandInstr);
            return AccessOutcome {
                latency: (available - now) + tlb_latency,
                hit_level: Level::Memory,
                l1_miss: true,
                l2_miss: true,
                l2_prefetch_first_use: false,
                tlb_miss: !tlb.hit,
            };
        }

        let outcome = self.demand_access(pline, now + tlb_latency, AccessClass::Instr, true);
        AccessOutcome {
            latency: outcome.latency + tlb_latency,
            tlb_miss: !tlb.hit,
            ..outcome
        }
    }

    /// Loads data at `vaddr` (physical line `pline`) at cycle `now`.
    pub fn read_data(&mut self, vaddr: VirtAddr, pline: u64, now: u64) -> AccessOutcome {
        self.data_access(vaddr, pline, now)
    }

    /// Stores data at `vaddr` (physical line `pline`) at cycle `now`.
    ///
    /// Modelled as write-allocate with the same fill path as a load; store
    /// latency is normally hidden by the store buffer, so callers typically
    /// ignore the returned latency except for MLP accounting.
    pub fn write_data(&mut self, vaddr: VirtAddr, pline: u64, now: u64) -> AccessOutcome {
        self.data_access(vaddr, pline, now)
    }

    fn data_access(&mut self, vaddr: VirtAddr, pline: u64, now: u64) -> AccessOutcome {
        let tlb = self.dtlb.access(vaddr.page_number());
        let outcome = self.demand_access(pline, now + tlb.latency, AccessClass::Data, false);
        AccessOutcome {
            latency: outcome.latency + tlb.latency,
            tlb_miss: !tlb.hit,
            ..outcome
        }
    }

    /// The shared L1→L2→LLC→DRAM demand path. `instr_side` selects the L1
    /// and the DRAM traffic category.
    fn demand_access(
        &mut self,
        pline: u64,
        now: u64,
        class: AccessClass,
        instr_side: bool,
    ) -> AccessOutcome {
        let l1 = if instr_side {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        let l1_latency = if instr_side {
            self.cfg.l1i.latency
        } else {
            self.cfg.l1d.latency
        };

        if let Some(hit) = l1.access(pline, now, class) {
            let latency = l1_latency.max(hit.ready_at.saturating_sub(now));
            return AccessOutcome {
                latency,
                hit_level: Level::L1,
                l1_miss: false,
                l2_miss: false,
                l2_prefetch_first_use: false,
                tlb_miss: false,
            };
        }

        let l2_start = now + l1_latency;
        if let Some(hit) = self.l2.access(pline, l2_start, class) {
            let raw = l1_latency + self.cfg.l2.latency;
            let latency = raw.max(hit.ready_at.saturating_sub(now));
            let ready = now + latency;
            self.l1_fill(instr_side, pline, ready, class);
            return AccessOutcome {
                latency,
                hit_level: Level::L2,
                l1_miss: true,
                l2_miss: false,
                l2_prefetch_first_use: hit.first_use_of_prefetch,
                tlb_miss: false,
            };
        }

        let llc_start = l2_start + self.cfg.l2.latency;
        if let Some(hit) = self.llc.access(pline, llc_start, class) {
            let raw = l1_latency + self.cfg.l2.latency + self.cfg.llc.latency;
            let latency = raw.max(hit.ready_at.saturating_sub(now));
            let ready = now + latency;
            self.l2.fill(pline, ready, class, false);
            self.l1_fill(instr_side, pline, ready, class);
            return AccessOutcome {
                latency,
                hit_level: Level::Llc,
                l1_miss: true,
                l2_miss: true,
                l2_prefetch_first_use: false,
                tlb_miss: false,
            };
        }

        let category = if instr_side {
            Traffic::DemandInstr
        } else {
            Traffic::DemandData
        };
        let dram_start = llc_start + self.cfg.llc.latency;
        let available = self.dram.read_line(dram_start, category);
        self.llc.fill(pline, available, class, false);
        self.l2.fill(pline, available, class, false);
        self.l1_fill(instr_side, pline, available, class);
        AccessOutcome {
            latency: available - now,
            hit_level: Level::Memory,
            l1_miss: true,
            l2_miss: true,
            l2_prefetch_first_use: false,
            tlb_miss: false,
        }
    }

    fn l1_fill(&mut self, instr_side: bool, pline: u64, ready: u64, class: AccessClass) {
        if instr_side {
            self.l1i.fill(pline, ready, class, false);
        } else {
            self.l1d.fill(pline, ready, class, false);
        }
    }

    /// Issues an instruction prefetch into the L2 (the Jukebox replay
    /// target, §3.1). The line is looked up in the LLC first; on an LLC
    /// miss it is streamed from DRAM on the bandwidth-limited channel.
    pub fn prefetch_instr_l2(&mut self, pline: u64, now: u64) -> PrefetchOutcome {
        if self.l2.peek(pline) {
            return PrefetchOutcome {
                arrival: now,
                already_resident: true,
                from_memory: false,
            };
        }
        // LLC probe: presence check without polluting demand statistics.
        if self.llc.peek(pline) {
            let arrival = now + self.cfg.llc.latency;
            self.l2.fill(pline, arrival, AccessClass::Instr, true);
            return PrefetchOutcome {
                arrival,
                already_resident: false,
                from_memory: false,
            };
        }
        // An L2 MSHR must be free before the miss can issue.
        let issue_at = self.prefetch_mshrs.issue(pline, now, self.cfg.dram.latency);
        let arrival = self.dram.read_line(issue_at, Traffic::Prefetch);
        // The line passes through the LLC on its way in; installing it
        // there is what keeps Jukebox effective when the L2 is too small
        // to hold the whole replayed working set (§5.6: on Broadwell the
        // L2 evicts prefetches before use, but the LLC still catches the
        // misses, eliminating the expensive DRAM accesses).
        self.llc.fill(pline, arrival, AccessClass::Instr, true);
        self.l2.fill(pline, arrival, AccessClass::Instr, true);
        PrefetchOutcome {
            arrival,
            already_resident: false,
            from_memory: true,
        }
    }

    /// Pre-installs an I-TLB translation (replay step 2 in §3.3), off the
    /// critical path.
    pub fn itlb_prefill(&mut self, vpage: u64) {
        self.itlb.prefill(vpage);
    }

    /// Whether the I-TLB currently holds a translation (for tests).
    pub fn itlb_contains(&self, vpage: u64) -> bool {
        self.itlb.contains(vpage)
    }

    /// Flushes *all* microarchitectural state: every cache level and both
    /// TLBs. This is the paper's interleaved baseline between invocations
    /// (§5.2). The perfect-I-cache store is deliberately retained — that is
    /// its definition.
    pub fn flush_all(&mut self) {
        self.l1i.flush_all();
        self.l1d.flush_all();
        self.l2.flush_all();
        self.llc.flush_all();
        self.itlb.flush();
        self.dtlb.flush();
        self.prefetch_mshrs.flush();
    }

    /// Partially decays cache state: evicts the given fraction of each
    /// level (Figure 1's IAT-dependent thrashing). L1s and TLBs decay at
    /// the L2 fraction since they are strictly smaller and thrash first.
    pub fn decay(&mut self, l2_fraction: f64, llc_fraction: f64, salt: u64) {
        self.l1i.evict_fraction(l2_fraction, salt ^ 0x11);
        self.l1d.evict_fraction(l2_fraction, salt ^ 0x22);
        self.l2.evict_fraction(l2_fraction, salt ^ 0x33);
        self.llc.evict_fraction(llc_fraction, salt ^ 0x44);
        if l2_fraction >= 0.5 {
            self.itlb.flush();
            self.dtlb.flush();
        }
    }

    /// Snapshot of all statistics counters.
    pub fn snapshot(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            llc: *self.llc.stats(),
            traffic: *self.dram.traffic(),
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified private L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The shared last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// The DRAM back-end.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to DRAM, for metadata traffic issued by prefetchers.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Number of I-TLB entries covered by one code region of
    /// `region_bytes`, i.e. how many lines share one translation.
    pub fn lines_per_page() -> usize {
        LINES_PER_PAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skylake() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::skylake_like())
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_index(n)
    }

    #[test]
    fn cold_fetch_goes_to_memory() {
        let mut m = skylake();
        let out = m.fetch_instr(line(100), 100, 0);
        assert_eq!(out.hit_level, Level::Memory);
        assert!(out.l1_miss && out.l2_miss && out.tlb_miss);
        assert!(out.latency >= m.config().dram.latency);
    }

    #[test]
    fn warm_fetch_hits_l1() {
        let mut m = skylake();
        let cold = m.fetch_instr(line(100), 100, 0);
        let warm = m.fetch_instr(line(100), 100, cold.latency);
        assert_eq!(warm.hit_level, Level::L1);
        assert_eq!(warm.latency, m.config().l1i.latency);
        assert!(!warm.tlb_miss);
    }

    #[test]
    fn latency_ordering_across_levels() {
        let cfg = HierarchyConfig::skylake_like();
        let mut m = MemoryHierarchy::new(cfg);
        let t0 = 10_000;
        let mem = m.fetch_instr(line(1), 1, t0).latency;
        let l1 = m.fetch_instr(line(1), 1, t0 + mem).latency;
        assert!(mem > cfg.llc.latency);
        assert!(l1 < mem);
    }

    #[test]
    fn data_and_instr_use_separate_l1s() {
        let mut m = skylake();
        let _ = m.fetch_instr(line(5), 5, 0);
        // Same physical line via the data path: L1-D is cold, but L2 has it.
        let out = m.read_data(VirtAddr::new(5 * 64), 5, 1000);
        assert_eq!(out.hit_level, Level::L2);
    }

    #[test]
    fn prefetch_fills_l2_and_later_fetch_hits_it() {
        let mut m = skylake();
        let pf = m.prefetch_instr_l2(42, 0);
        assert!(pf.from_memory);
        // Demand access after arrival: L1 miss, L2 hit.
        let out = m.fetch_instr(line(42), 42, pf.arrival + 10);
        assert_eq!(out.hit_level, Level::L2);
        assert_eq!(m.l2().stats().prefetch_first_hits, 1);
    }

    #[test]
    fn early_demand_pays_residual_prefetch_latency() {
        let mut m = skylake();
        // Pre-populate the I-TLB, as the replay engine's issuer does, so
        // the demand fetch pays no walk on top of the residual.
        m.itlb_prefill(line(42).base().page_number());
        let pf = m.prefetch_instr_l2(42, 0);
        // Demand arrives halfway through the fill.
        let halfway = pf.arrival / 2;
        let out = m.fetch_instr(line(42), 42, halfway);
        assert_eq!(out.hit_level, Level::L2);
        assert_eq!(out.latency, pf.arrival - halfway);
        assert_eq!(m.l2().stats().prefetch_late_hits, 1);
    }

    #[test]
    fn redundant_prefetch_is_detected() {
        let mut m = skylake();
        m.prefetch_instr_l2(42, 0);
        let second = m.prefetch_instr_l2(42, 5);
        assert!(second.already_resident);
    }

    #[test]
    fn prefetch_from_llc_does_not_touch_dram() {
        let mut m = skylake();
        let mut now = m.fetch_instr(line(7), 7, 0).latency;
        // Lines 7 + 2048k share line 7's set in the 2,048-set, 8-way L2,
        // so eight of them push it out. In the 8,192-set, 16-way LLC they
        // spread over four sets, so line 7 stays there.
        for k in 1..=8u64 {
            let other = 7 + 2048 * k;
            now += m.fetch_instr(line(other), other, now).latency;
        }
        assert!(!m.l2().peek(7) && m.llc().peek(7));
        let before = m.dram().traffic().prefetch;
        let pf = m.prefetch_instr_l2(7, now);
        assert!(!pf.already_resident);
        assert!(!pf.from_memory);
        assert_eq!(pf.arrival, now + m.config().llc.latency);
        assert_eq!(m.dram().traffic().prefetch, before);
        assert!(m.l2().peek(7));
    }

    #[test]
    fn flush_all_erases_cache_and_tlb_state() {
        let mut m = skylake();
        let warm_latency = {
            let cold = m.fetch_instr(line(9), 9, 0);
            m.fetch_instr(line(9), 9, cold.latency).latency
        };
        m.flush_all();
        let after = m.fetch_instr(line(9), 9, 100_000);
        assert_eq!(after.hit_level, Level::Memory);
        assert!(after.tlb_miss);
        assert!(after.latency > warm_latency);
    }

    #[test]
    fn perfect_icache_pays_compulsory_miss_once() {
        let mut m = skylake();
        m.set_perfect_icache(true);
        let first = m.fetch_instr(line(3), 3, 0);
        assert_eq!(first.hit_level, Level::Memory);
        m.flush_all(); // must not affect the perfect store
        let second = m.fetch_instr(line(3), 3, 10_000);
        assert_eq!(second.hit_level, Level::L1);
    }

    #[test]
    fn itlb_prefill_prevents_walk() {
        let mut m = skylake();
        let vline = line(1 << 10); // page 16
        let vpage = vline.base().page_number();
        m.itlb_prefill(vpage);
        assert!(m.itlb_contains(vpage));
        let out = m.fetch_instr(vline, 99, 0);
        assert!(!out.tlb_miss);
    }

    #[test]
    fn decay_partial_keeps_some_state() {
        let mut m = skylake();
        for n in 0..1000u64 {
            m.fetch_instr(line(n), n, n * 300);
        }
        m.decay(0.3, 0.1, 7);
        let resident = m.l2().occupancy();
        assert!(resident > 0, "some lines must survive");
        assert!(resident < 1000, "some lines must be evicted");
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let mut m = skylake();
        m.fetch_instr(line(1), 1, 0);
        let snap = m.snapshot();
        m.fetch_instr(line(2), 2, 1000);
        m.fetch_instr(line(2), 2, 2000);
        let d = m.snapshot().delta(&snap);
        assert_eq!(d.l1i.instr.misses, 1);
        assert_eq!(d.l1i.instr.hits, 1);
        assert_eq!(d.traffic.demand_instr, 64);
    }

    #[test]
    fn store_allocates_like_load() {
        let mut m = skylake();
        let va = VirtAddr::new(0x8000);
        let out = m.write_data(va, 0x8000 / 64, 0);
        assert_eq!(out.hit_level, Level::Memory);
        let again = m.read_data(va, 0x8000 / 64, out.latency);
        assert_eq!(again.hit_level, Level::L1);
    }
}
