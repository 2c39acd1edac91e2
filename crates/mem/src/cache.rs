//! A set-associative cache with timestamped fills and prefetch tracking.
//!
//! The cache is keyed by *line number* (address / 64) and does not store
//! data, only presence and bookkeeping: whether the line was brought in by a
//! prefetch, whether it has been demand-referenced since its fill (for
//! coverage/overprediction accounting, Figure 11), and the cycle at which an
//! in-flight fill becomes usable (for prefetch-timeliness modelling).

use std::sync::{Mutex, PoisonError};

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// What kind of demand access is being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Instruction fetch.
    Instr,
    /// Data load or store.
    Data,
}

/// Replacement policy for a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used (the policy of every level in Table 1).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Pseudo-random (deterministic internal generator).
    Random,
}

/// Result of a successful lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HitInfo {
    /// Cycle at which the line's fill completes; a demand access earlier
    /// than this pays the residual latency.
    pub ready_at: u64,
    /// The line was originally brought in by a prefetch.
    pub prefetched: bool,
    /// This is the first demand touch of a prefetched line (a *covered*
    /// miss in prefetcher-evaluation terms).
    pub first_use_of_prefetch: bool,
}

/// A line that was evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line number of the victim.
    pub line: u64,
    /// It was prefetched and never demand-referenced (an overprediction).
    pub unused_prefetch: bool,
}

/// Tag of an empty way. Never a line number: virtual lines are below
/// 2^58, and a physical line has all ones in its low 26 bits only at the
/// last line of the last page of a process's 2^20-page frame arena (see
/// `docs/MODEL.md`, "Data layout and exactness").
const EMPTY: u64 = u64::MAX;

/// Flag bit: the line was brought in by a prefetch.
const PREFETCHED: u8 = 1;
/// Flag bit: the line has been demand-referenced since its fill.
const USED: u8 = 2;

/// Whether a way's flags mark a prefetch that was never used (an
/// overprediction if it leaves the cache).
fn unused_prefetch(flags: u8) -> bool {
    flags == PREFETCHED
}

/// A set-associative cache (see module docs).
///
/// The state is flat: way `w` of set `s` is index `s * ways + w` of each
/// column. Validated geometries have a power-of-two set count, so the set
/// of a line is `line & (sets - 1)`.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    policy: Replacement,
    ways: usize,
    set_mask: u64,
    /// Resident line per way, [`EMPTY`] if none.
    tags: Vec<u64>,
    /// Replacement rank: the sequence number of the last touch under LRU,
    /// of the fill under FIFO (unused under Random). The first way with
    /// the smallest rank is the victim.
    rank: Vec<u64>,
    /// Cycle at which each way's fill completes.
    ready_at: Vec<u64>,
    /// [`PREFETCHED`] / [`USED`] bits per way.
    flags: Vec<u8>,
    /// Resident ways whose flags are an [`unused_prefetch`], so a flush
    /// can count its overpredictions without walking the ways.
    unused_prefetches: u64,
    seq: u64,
    rand_state: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, which
    /// [`CacheConfig::try_new`] guarantees for every geometry it accepts.
    pub fn new(cfg: CacheConfig, policy: Replacement) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "cache needs a power-of-two set count, got {sets} ({cfg})"
        );
        let Columns {
            tags,
            rank,
            ready_at,
            flags,
        } = Columns::take(sets * cfg.ways);
        Cache {
            cfg,
            policy,
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            tags,
            rank,
            ready_at,
            flags,
            unused_prefetches: 0,
            seq: 0,
            rand_state: 0x9e3779b97f4a7c15,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Index of way 0 of `line`'s set.
    fn set_base(&self, line: u64) -> usize {
        debug_assert_ne!(line, EMPTY, "line number collides with the empty tag");
        (line & self.set_mask) as usize * self.ways
    }

    /// Index of the way holding `line` in the set starting at `base`.
    fn find_in(&self, base: usize, line: u64) -> Option<usize> {
        self.tags[base..base + self.ways]
            .iter()
            .position(|&tag| tag == line)
            .map(|way| base + way)
    }

    /// Performs a demand access. On a hit, recency and the used-flag are
    /// updated and [`HitInfo`] is returned; on a miss, `None` (the caller is
    /// responsible for fetching from the next level and calling [`fill`]).
    ///
    /// [`fill`]: Cache::fill
    pub fn access(&mut self, line: u64, now: u64, class: AccessClass) -> Option<HitInfo> {
        self.seq += 1;
        let base = self.set_base(line);
        let Some(i) = self.find_in(base, line) else {
            self.stats.record_miss(class);
            return None;
        };
        let flags = self.flags[i];
        let first_use = unused_prefetch(flags);
        if first_use {
            self.unused_prefetches -= 1;
        }
        self.flags[i] = flags | USED;
        if self.policy == Replacement::Lru {
            self.rank[i] = self.seq;
        }
        let info = HitInfo {
            ready_at: self.ready_at[i].max(now),
            prefetched: flags & PREFETCHED != 0,
            first_use_of_prefetch: first_use,
        };
        self.stats.record_hit(class, first_use, info.ready_at > now);
        Some(info)
    }

    /// Looks up presence without disturbing replacement state or
    /// statistics. Used by prefetchers to filter already-resident lines.
    pub fn peek(&self, line: u64) -> bool {
        self.find_in(self.set_base(line), line).is_some()
    }

    /// Inserts a line, evicting a victim if the set is full.
    ///
    /// `ready_at` is the cycle at which the fill completes; `prefetched`
    /// marks a prefetcher-initiated fill; `class` is the access class that
    /// triggered the fill. Re-filling a resident line refreshes its
    /// timestamps instead of duplicating it.
    pub fn fill(
        &mut self,
        line: u64,
        ready_at: u64,
        class: AccessClass,
        prefetched: bool,
    ) -> Option<Evicted> {
        self.seq += 1;
        let seq = self.seq;
        let base = self.set_base(line);

        // Already resident: refresh (an in-flight prefetch superseded by a
        // demand fill, or vice versa).
        if let Some(i) = self.find_in(base, line) {
            self.ready_at[i] = self.ready_at[i].min(ready_at);
            if self.policy == Replacement::Lru {
                self.rank[i] = seq;
            }
            if !prefetched {
                if unused_prefetch(self.flags[i]) {
                    self.unused_prefetches -= 1;
                }
                self.flags[i] |= USED;
            }
            return None;
        }

        if prefetched {
            self.stats.prefetch_fills += 1;
        } else {
            match class {
                AccessClass::Instr => self.stats.instr_fills += 1,
                AccessClass::Data => self.stats.data_fills += 1,
            }
        }

        // An empty way if there is one, else a victim.
        let (way, evicted) = match self.tags[base..base + self.ways]
            .iter()
            .position(|&tag| tag == EMPTY)
        {
            Some(way) => (base + way, None),
            None => {
                let victim = base + self.choose_victim(base);
                let unused = unused_prefetch(self.flags[victim]);
                if unused {
                    self.stats.prefetch_evicted_unused += 1;
                    self.unused_prefetches -= 1;
                }
                let evicted = Evicted {
                    line: self.tags[victim],
                    unused_prefetch: unused,
                };
                (victim, Some(evicted))
            }
        };
        self.tags[way] = line;
        self.rank[way] = seq;
        self.ready_at[way] = ready_at;
        self.flags[way] = if prefetched { PREFETCHED } else { 0 };
        if prefetched {
            self.unused_prefetches += 1;
        }
        evicted
    }

    /// The way (within the full set starting at `base`) to evict.
    fn choose_victim(&mut self, base: usize) -> usize {
        match self.policy {
            Replacement::Lru | Replacement::Fifo => self.rank[base..base + self.ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &rank)| rank)
                .map(|(way, _)| way)
                .expect("cache has at least one way"),
            Replacement::Random => {
                // xorshift64*: deterministic, state-local.
                self.rand_state ^= self.rand_state << 13;
                self.rand_state ^= self.rand_state >> 7;
                self.rand_state ^= self.rand_state << 17;
                (self.rand_state % self.ways as u64) as usize
            }
        }
    }

    /// Invalidates every line (the paper's interleaved baseline flushes all
    /// microarchitectural state between invocations, §5.2). Unused
    /// prefetches still resident are counted as overpredictions.
    pub fn flush_all(&mut self) {
        self.stats.prefetch_evicted_unused += self.unused_prefetches;
        self.unused_prefetches = 0;
        self.tags.fill(EMPTY);
    }

    /// Invalidates approximately `fraction` of resident lines, selected by
    /// a deterministic hash of `(line, salt)`. Models *partial* state decay
    /// for the IAT sweep of Figure 1.
    pub fn evict_fraction(&mut self, fraction: f64, salt: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * u64::MAX as f64) as u64;
        for (tag, &flags) in self.tags.iter_mut().zip(&self.flags) {
            if *tag != EMPTY && hash2(*tag, salt) <= threshold {
                *tag = EMPTY;
                if unused_prefetch(flags) {
                    self.stats.prefetch_evicted_unused += 1;
                    self.unused_prefetches -= 1;
                }
            }
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.cfg.lines()
    }

    /// Iterates over resident line numbers, set by set and way by way (for
    /// tests and invariants).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().copied().filter(|&tag| tag != EMPTY)
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        Columns {
            tags: std::mem::take(&mut self.tags),
            rank: std::mem::take(&mut self.rank),
            ready_at: std::mem::take(&mut self.ready_at),
            flags: std::mem::take(&mut self.flags),
        }
        .put_back();
    }
}

/// Column storage of dropped caches, newest last, for [`Columns::take`].
static SPARE: Mutex<Vec<Columns>> = Mutex::new(Vec::new());

/// Most bytes of columns [`SPARE`] keeps; past it the oldest are freed.
/// Two Table 1 hierarchies (one per worker of a 2-thread engine) need
/// about 7.5 MB.
const SPARE_BYTES: usize = 32 << 20;

/// The per-way columns of one cache.
///
/// Experiments build and drop a whole hierarchy per simulated cell, and a
/// Table 1 LLC alone has 3 MB of columns. Freed, blocks that size sit at
/// the top of an allocator heap often enough that glibc hands their pages
/// back to the kernel, and the next cell faults them in again page by
/// page; how often depends on how worker threads' frees interleave, so
/// identical `figure --all` runs differed by about 20% in speed. A
/// dropped cache therefore returns its columns to a small process-wide
/// pool, and [`Cache::new`] reuses a set of the same length. Only the
/// tags are reset: the other columns are read only at ways whose tag is a
/// line, and a fill writes all three (as after `flush_all`).
struct Columns {
    tags: Vec<u64>,
    rank: Vec<u64>,
    ready_at: Vec<u64>,
    flags: Vec<u8>,
}

impl Columns {
    /// Columns for `slots` empty ways: the newest spare set of that
    /// length, or new storage.
    fn take(slots: usize) -> Columns {
        let spare = {
            let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
            spare
                .iter()
                .rposition(|c| c.tags.len() == slots)
                .map(|i| spare.remove(i))
        };
        match spare {
            Some(mut columns) => {
                columns.tags.fill(EMPTY);
                columns
            }
            None => Columns {
                tags: vec![EMPTY; slots],
                rank: vec![0; slots],
                ready_at: vec![0; slots],
                flags: vec![0; slots],
            },
        }
    }

    fn bytes(&self) -> usize {
        self.tags.len() * (3 * std::mem::size_of::<u64>() + std::mem::size_of::<u8>())
    }

    /// Hands the columns to the pool, freeing the oldest spare sets once
    /// it holds more than [`SPARE_BYTES`].
    fn put_back(self) {
        if self.tags.is_empty() {
            return;
        }
        let freed: Vec<Columns> = {
            let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
            spare.push(self);
            let mut held: usize = spare.iter().map(Columns::bytes).sum();
            let mut oldest = 0;
            while held > SPARE_BYTES {
                held -= spare[oldest].bytes();
                oldest += 1;
            }
            spare.drain(..oldest).collect()
        };
        drop(freed);
    }
}

fn hash2(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use luke_common::size::ByteSize;

    fn tiny() -> Cache {
        // 4 sets x 2 ways = 8 lines of 64B = 512B.
        Cache::new(
            CacheConfig::new(ByteSize::new(512), 2, 1, 4),
            Replacement::Lru,
        )
    }

    #[test]
    fn a_cache_on_spare_columns_starts_empty() {
        // A geometry no other test uses, so the spare set is this test's.
        let cfg = CacheConfig::new(ByteSize::kib(8), 2, 1, 4);
        let mut used = Cache::new(cfg, Replacement::Fifo);
        for line in 0..200 {
            used.fill(line, line * 7, AccessClass::Data, line % 2 == 0);
        }
        assert_eq!(used.occupancy(), 128);
        drop(used);
        let mut reused = Cache::new(cfg, Replacement::Fifo);
        let mut fresh = Cache::new(cfg, Replacement::Fifo);
        assert_eq!(reused.occupancy(), 0);
        for line in (0..300).rev() {
            let prefetched = line % 3 == 0;
            assert_eq!(
                reused.fill(line, line, AccessClass::Instr, prefetched),
                fresh.fill(line, line, AccessClass::Instr, prefetched)
            );
            assert_eq!(
                reused.access(line / 2, line, AccessClass::Instr),
                fresh.access(line / 2, line, AccessClass::Instr)
            );
        }
        assert_eq!(reused.stats(), fresh.stats());
        assert!(reused.resident_lines().eq(fresh.resident_lines()));
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(c.access(100, 0, AccessClass::Instr).is_none());
        c.fill(100, 10, AccessClass::Instr, false);
        let hit = c.access(100, 20, AccessClass::Instr).expect("hit");
        assert_eq!(hit.ready_at, 20);
        assert!(!hit.prefetched);
    }

    #[test]
    fn in_flight_fill_reports_future_ready_time() {
        let mut c = tiny();
        c.fill(7, 100, AccessClass::Instr, true);
        let hit = c.access(7, 40, AccessClass::Instr).expect("hit");
        assert_eq!(hit.ready_at, 100);
        assert!(hit.prefetched);
        assert!(hit.first_use_of_prefetch);
    }

    #[test]
    fn second_touch_is_not_first_use() {
        let mut c = tiny();
        c.fill(7, 0, AccessClass::Instr, true);
        assert!(
            c.access(7, 1, AccessClass::Instr)
                .expect("hit")
                .first_use_of_prefetch
        );
        assert!(
            !c.access(7, 2, AccessClass::Instr)
                .expect("hit")
                .first_use_of_prefetch
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, 0, AccessClass::Instr, false);
        c.fill(4, 0, AccessClass::Instr, false);
        // Touch line 0 so line 4 is the LRU victim.
        c.access(0, 1, AccessClass::Instr);
        let evicted = c.fill(8, 2, AccessClass::Instr, false).expect("eviction");
        assert_eq!(evicted.line, 4);
        assert!(c.peek(0));
        assert!(!c.peek(4));
        assert!(c.peek(8));
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let cfg = CacheConfig::new(ByteSize::new(512), 2, 1, 4);
        let mut c = Cache::new(cfg, Replacement::Fifo);
        c.fill(0, 0, AccessClass::Instr, false);
        c.fill(4, 0, AccessClass::Instr, false);
        // Touch line 0; FIFO ignores recency, so 0 is still the victim.
        c.access(0, 1, AccessClass::Instr);
        let evicted = c.fill(8, 2, AccessClass::Instr, false).expect("eviction");
        assert_eq!(evicted.line, 0);
    }

    #[test]
    fn random_replacement_is_deterministic_and_bounded() {
        let cfg = CacheConfig::new(ByteSize::new(512), 2, 1, 4);
        let mut a = Cache::new(cfg, Replacement::Random);
        let mut b = Cache::new(cfg, Replacement::Random);
        for line in 0..200u64 {
            let ea = a.fill(line, 0, AccessClass::Instr, false);
            let eb = b.fill(line, 0, AccessClass::Instr, false);
            assert_eq!(ea, eb, "random policy must still be deterministic");
            assert!(a.occupancy() <= a.capacity_lines());
        }
        assert_eq!(a.occupancy(), a.capacity_lines());
    }

    #[test]
    fn refill_of_resident_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(3, 5, AccessClass::Data, false);
        assert!(c.fill(3, 9, AccessClass::Data, false).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn unused_prefetch_eviction_counts_overprediction() {
        let mut c = tiny();
        c.fill(0, 0, AccessClass::Instr, true);
        c.fill(4, 0, AccessClass::Instr, false);
        c.fill(8, 0, AccessClass::Instr, false); // evicts line 0 (prefetched, unused)
        assert_eq!(c.stats().prefetch_evicted_unused, 1);
    }

    #[test]
    fn used_prefetch_eviction_is_not_overprediction() {
        let mut c = tiny();
        c.fill(0, 0, AccessClass::Instr, true);
        c.access(0, 1, AccessClass::Instr);
        c.fill(4, 0, AccessClass::Instr, false);
        c.fill(8, 0, AccessClass::Instr, false);
        assert_eq!(c.stats().prefetch_evicted_unused, 0);
    }

    #[test]
    fn flush_all_empties_and_counts_unused_prefetches() {
        let mut c = tiny();
        c.fill(1, 0, AccessClass::Instr, true);
        c.fill(2, 0, AccessClass::Data, false);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().prefetch_evicted_unused, 1);
        assert!(c.access(1, 0, AccessClass::Instr).is_none());
    }

    #[test]
    fn evict_fraction_extremes() {
        let mut c = tiny();
        for line in 0..8u64 {
            c.fill(line, 0, AccessClass::Data, false);
        }
        let before = c.occupancy();
        c.evict_fraction(0.0, 1);
        assert_eq!(c.occupancy(), before);
        c.evict_fraction(1.0, 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn evict_fraction_partial_is_roughly_proportional() {
        let cfg = CacheConfig::new(ByteSize::kib(64), 8, 1, 4);
        let mut c = Cache::new(cfg, Replacement::Lru);
        let n = c.capacity_lines() as u64;
        for line in 0..n {
            c.fill(line, 0, AccessClass::Data, false);
        }
        c.evict_fraction(0.5, 42);
        let frac = c.occupancy() as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.1, "occupancy fraction {frac}");
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c = tiny();
        c.fill(0, 0, AccessClass::Instr, false);
        c.fill(4, 0, AccessClass::Instr, false);
        // peek(0) must not promote line 0.
        assert!(c.peek(0));
        let evicted = c.fill(8, 1, AccessClass::Instr, false).expect("eviction");
        assert_eq!(evicted.line, 0);
    }

    #[test]
    fn stats_track_hits_and_misses_by_class() {
        let mut c = tiny();
        c.access(1, 0, AccessClass::Instr);
        c.fill(1, 0, AccessClass::Instr, false);
        c.access(1, 1, AccessClass::Instr);
        c.access(2, 2, AccessClass::Data);
        let s = c.stats();
        assert_eq!(s.instr.misses, 1);
        assert_eq!(s.instr.hits, 1);
        assert_eq!(s.data.misses, 1);
        assert_eq!(s.data.hits, 0);
    }

    #[test]
    fn fills_are_counted_per_class() {
        let mut c = tiny();
        c.fill(1, 0, AccessClass::Instr, false);
        c.fill(2, 0, AccessClass::Data, false);
        c.fill(3, 0, AccessClass::Instr, true); // prefetch: not a demand fill
        let s = c.stats();
        assert_eq!(s.instr_fills, 1);
        assert_eq!(s.data_fills, 1);
        assert_eq!(s.prefetch_fills, 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for line in 0..1000u64 {
            c.fill(line, 0, AccessClass::Instr, false);
            assert!(c.occupancy() <= c.capacity_lines());
        }
        assert_eq!(c.occupancy(), c.capacity_lines());
    }

    /// The cache as it was before the flat layout: one `Vec` of optional
    /// entries per set, `%` set indexing and a walk on flush. The flat
    /// [`Cache`] must agree with it on every observable.
    mod oracle {
        use super::super::{hash2, AccessClass, Evicted, HitInfo, Replacement};
        use crate::config::CacheConfig;
        use crate::stats::CacheStats;

        #[derive(Clone, Copy, Debug)]
        struct Entry {
            line: u64,
            prefetched: bool,
            used: bool,
            ready_at: u64,
            last_touch: u64,
            filled_at_seq: u64,
        }

        pub struct VecCache {
            policy: Replacement,
            sets: Vec<Vec<Option<Entry>>>,
            seq: u64,
            rand_state: u64,
            pub stats: CacheStats,
        }

        impl VecCache {
            pub fn new(cfg: CacheConfig, policy: Replacement) -> Self {
                VecCache {
                    policy,
                    sets: vec![vec![None; cfg.ways]; cfg.sets()],
                    seq: 0,
                    rand_state: 0x9e3779b97f4a7c15,
                    stats: CacheStats::default(),
                }
            }

            fn set_index(&self, line: u64) -> usize {
                (line % self.sets.len() as u64) as usize
            }

            pub fn access(&mut self, line: u64, now: u64, class: AccessClass) -> Option<HitInfo> {
                self.seq += 1;
                let seq = self.seq;
                let set = self.set_index(line);
                for way in self.sets[set].iter_mut().flatten() {
                    if way.line == line {
                        let first_use = way.prefetched && !way.used;
                        way.used = true;
                        way.last_touch = seq;
                        let info = HitInfo {
                            ready_at: way.ready_at.max(now),
                            prefetched: way.prefetched,
                            first_use_of_prefetch: first_use,
                        };
                        self.stats.record_hit(class, first_use, info.ready_at > now);
                        return Some(info);
                    }
                }
                self.stats.record_miss(class);
                None
            }

            pub fn peek(&self, line: u64) -> bool {
                let set = self.set_index(line);
                self.sets[set].iter().flatten().any(|e| e.line == line)
            }

            pub fn fill(
                &mut self,
                line: u64,
                ready_at: u64,
                class: AccessClass,
                prefetched: bool,
            ) -> Option<Evicted> {
                self.seq += 1;
                let seq = self.seq;
                let set = self.set_index(line);
                for way in self.sets[set].iter_mut().flatten() {
                    if way.line == line {
                        way.ready_at = way.ready_at.min(ready_at);
                        way.last_touch = seq;
                        if !prefetched {
                            way.used = true;
                        }
                        return None;
                    }
                }
                if prefetched {
                    self.stats.prefetch_fills += 1;
                } else {
                    match class {
                        AccessClass::Instr => self.stats.instr_fills += 1,
                        AccessClass::Data => self.stats.data_fills += 1,
                    }
                }
                let entry = Entry {
                    line,
                    prefetched,
                    used: false,
                    ready_at,
                    last_touch: seq,
                    filled_at_seq: seq,
                };
                if let Some(slot) = self.sets[set].iter_mut().find(|w| w.is_none()) {
                    *slot = Some(entry);
                    return None;
                }
                let victim_way = self.choose_victim(set);
                let victim = self.sets[set][victim_way].replace(entry).expect("full set");
                let unused_prefetch = victim.prefetched && !victim.used;
                if unused_prefetch {
                    self.stats.prefetch_evicted_unused += 1;
                }
                Some(Evicted {
                    line: victim.line,
                    unused_prefetch,
                })
            }

            fn choose_victim(&mut self, set: usize) -> usize {
                let ways = &self.sets[set];
                let key = |w: &Option<Entry>| match self.policy {
                    Replacement::Fifo => w.as_ref().map(|e| e.filled_at_seq).unwrap_or(0),
                    _ => w.as_ref().map(|e| e.last_touch).unwrap_or(0),
                };
                match self.policy {
                    Replacement::Lru | Replacement::Fifo => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| key(w))
                        .map(|(i, _)| i)
                        .expect("at least one way"),
                    Replacement::Random => {
                        self.rand_state ^= self.rand_state << 13;
                        self.rand_state ^= self.rand_state >> 7;
                        self.rand_state ^= self.rand_state << 17;
                        (self.rand_state % ways.len() as u64) as usize
                    }
                }
            }

            pub fn flush_all(&mut self) {
                for set in &mut self.sets {
                    for way in set.iter_mut() {
                        if let Some(entry) = way.take() {
                            if entry.prefetched && !entry.used {
                                self.stats.prefetch_evicted_unused += 1;
                            }
                        }
                    }
                }
            }

            pub fn evict_fraction(&mut self, fraction: f64, salt: u64) {
                let fraction = fraction.clamp(0.0, 1.0);
                let threshold = (fraction * u64::MAX as f64) as u64;
                for set in &mut self.sets {
                    for way in set.iter_mut() {
                        let evict = way
                            .as_ref()
                            .map(|e| hash2(e.line, salt) <= threshold)
                            .unwrap_or(false);
                        if evict {
                            if let Some(entry) = way.take() {
                                if entry.prefetched && !entry.used {
                                    self.stats.prefetch_evicted_unused += 1;
                                }
                            }
                        }
                    }
                }
            }

            pub fn occupancy(&self) -> usize {
                self.sets.iter().map(|s| s.iter().flatten().count()).sum()
            }

            pub fn resident_lines(&self) -> Vec<u64> {
                self.sets
                    .iter()
                    .flat_map(|s| s.iter().flatten().map(|e| e.line))
                    .collect()
            }
        }
    }

    /// Drives the flat cache and the oracle through the same operations,
    /// comparing every return value and, after each step (`check_every`)
    /// or only at the end, the statistics, occupancy and resident lines.
    /// An op is `(kind, line, time, flag)`; lines are drawn from a few
    /// sets so that sets fill up and evict.
    fn agrees_with_oracle(
        cfg: CacheConfig,
        policy: Replacement,
        ops: &[(u8, u64, u64, bool)],
        check_every: bool,
    ) -> Result<(), String> {
        let mut flat = Cache::new(cfg, policy);
        let mut old = oracle::VecCache::new(cfg, policy);
        let sets = cfg.sets() as u64;
        for (step, &(kind, pick, time, flag)) in ops.iter().enumerate() {
            // A handful of sets, several times more lines than ways each.
            let line = (pick % 4) * (sets / 4).max(1) + (pick / 4 % (3 * cfg.ways as u64)) * sets;
            let class = if flag {
                AccessClass::Instr
            } else {
                AccessClass::Data
            };
            let same = match kind % 6 {
                0 | 1 => flat.access(line, time, class) == old.access(line, time, class),
                2 | 3 => {
                    flat.fill(line, time, class, pick % 3 == 0)
                        == old.fill(line, time, class, pick % 3 == 0)
                }
                4 => flat.peek(line) == old.peek(line),
                _ => {
                    if flag {
                        flat.flush_all();
                        old.flush_all();
                    } else {
                        let fraction = (time % 11) as f64 / 10.0;
                        flat.evict_fraction(fraction, pick);
                        old.evict_fraction(fraction, pick);
                    }
                    true
                }
            };
            if !same {
                return Err(format!("step {step}: op {kind} on line {line} diverged"));
            }
            let check = check_every || step + 1 == ops.len();
            if check
                && (flat.stats() != &old.stats
                    || flat.occupancy() != old.occupancy()
                    || flat.resident_lines().collect::<Vec<_>>() != old.resident_lines())
            {
                return Err(format!("step {step}: state diverged"));
            }
        }
        Ok(())
    }

    const POLICIES: [Replacement; 3] = [Replacement::Lru, Replacement::Fifo, Replacement::Random];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn flat_cache_matches_oracle_on_tiny_geometries(
            policy in 0usize..3,
            ways_log2 in 0u32..3,
            ops in proptest::collection::vec(
                (0u8..6, 0u64..1000, 0u64..500, proptest::prelude::any::<bool>()),
                1..300,
            ),
        ) {
            // 512B: 8 lines as 8x1, 4x2 or 2x4.
            let cfg = CacheConfig::new(ByteSize::new(512), 1 << ways_log2, 1, 4);
            let result = agrees_with_oracle(cfg, POLICIES[policy], &ops, true);
            proptest::prop_assert!(result.is_ok(), "{:?}", result);
        }

        #[test]
        fn flat_cache_matches_oracle_on_table1_geometries(
            policy in 0usize..3,
            level in 0usize..3,
            ops in proptest::collection::vec(
                (0u8..6, 0u64..5000, 0u64..500, proptest::prelude::any::<bool>()),
                1..600,
            ),
        ) {
            let table1 = crate::config::HierarchyConfig::skylake_like();
            let cfg = [table1.l1i, table1.l2, table1.llc][level];
            let result = agrees_with_oracle(cfg, POLICIES[policy], &ops, false);
            proptest::prop_assert!(result.is_ok(), "{:?}", result);
        }
    }
}
