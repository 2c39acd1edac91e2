//! Configuration of the simulated memory system.
//!
//! Two presets mirror the paper's platforms: [`HierarchyConfig::skylake_like`]
//! (Table 1: 32KB L1s, 1MB L2, 8MB LLC) used for the main evaluation, and
//! [`HierarchyConfig::broadwell_like`] (§5.6 / §4.1: 256KB L2, 25MB → scaled
//! 8MB LLC) used for the characterization and the small-L2 sensitivity study.

use luke_common::size::ByteSize;
use luke_common::SimError;
use std::fmt;

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes; must be a power of two.
    pub capacity: ByteSize,
    /// Associativity (ways per set); must divide the line count.
    pub ways: usize,
    /// Access (hit) latency in core cycles, measured from the start of the
    /// access at *this* level.
    pub latency: u64,
    /// Maximum in-flight misses (MSHR entries) at this level.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a power of two, the way count is zero,
    /// the capacity does not hold a whole number of sets, or there are no
    /// MSHRs. Use [`CacheConfig::try_new`] to get an error instead.
    pub fn new(capacity: ByteSize, ways: usize, latency: u64, mshrs: usize) -> Self {
        match Self::try_new(capacity, ways, latency, mshrs) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a configuration, returning an error on invalid geometry:
    /// non-power-of-two capacity, zero ways, a capacity that does not
    /// divide into whole sets, or zero MSHRs (a cache that can never
    /// service a miss).
    pub fn try_new(
        capacity: ByteSize,
        ways: usize,
        latency: u64,
        mshrs: usize,
    ) -> Result<Self, SimError> {
        let cfg = CacheConfig {
            capacity,
            ways,
            latency,
            mshrs,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Number of cache lines this level holds.
    pub fn lines(&self) -> usize {
        self.capacity.lines() as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }

    fn validate(&self) -> Result<(), SimError> {
        if !self.capacity.is_power_of_two() {
            return Err(SimError::invalid_config(
                "cache.capacity",
                format!(
                    "cache capacity must be a power of two, got {}",
                    self.capacity
                ),
            ));
        }
        if self.ways == 0 {
            return Err(SimError::invalid_config(
                "cache.ways",
                "cache must have at least one way",
            ));
        }
        if !self.lines().is_multiple_of(self.ways) || self.sets() == 0 {
            return Err(SimError::invalid_config(
                "cache.ways",
                format!(
                    "capacity {} not divisible into {}-way sets",
                    self.capacity, self.ways
                ),
            ));
        }
        if self.mshrs == 0 {
            return Err(SimError::invalid_config(
                "cache.mshrs",
                "cache must have at least one MSHR to admit misses",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {}-way, {} cycles, {} MSHRs",
            self.capacity, self.ways, self.latency, self.mshrs
        )
    }
}

/// TLB geometry and the cost of a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page-walk latency charged on a miss, in cycles.
    pub walk_latency: u64,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero. Use [`TlbConfig::try_new`] to get an
    /// error instead.
    pub fn new(entries: usize, walk_latency: u64) -> Self {
        match Self::try_new(entries, walk_latency) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a configuration, returning an error if `entries` is zero.
    pub fn try_new(entries: usize, walk_latency: u64) -> Result<Self, SimError> {
        if entries == 0 {
            return Err(SimError::invalid_config(
                "tlb.entries",
                "TLB must have at least one entry",
            ));
        }
        Ok(TlbConfig {
            entries,
            walk_latency,
        })
    }
}

/// DRAM timing and bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of a random line read in core cycles (row activate + CAS at
    /// DDR4-2400 timings, ≈28ns ≈ 73 cycles at 2.6GHz, plus controller
    /// overhead).
    pub latency: u64,
    /// Cycles of channel occupancy per 64B line transfer. DDR4-2400 moves
    /// 64B in ≈3.3ns ≈ 9 cycles at 2.6GHz per channel; this throttles how
    /// fast a replay-style prefetcher can stream lines in.
    pub cycles_per_line: u64,
}

impl DramConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_line` is zero. Use [`DramConfig::try_new`] to
    /// get an error instead.
    pub fn new(latency: u64, cycles_per_line: u64) -> Self {
        match Self::try_new(latency, cycles_per_line) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a configuration, returning an error if `cycles_per_line` is
    /// zero.
    pub fn try_new(latency: u64, cycles_per_line: u64) -> Result<Self, SimError> {
        if cycles_per_line == 0 {
            return Err(SimError::invalid_config(
                "dram.cycles_per_line",
                "line transfer must take time",
            ));
        }
        Ok(DramConfig {
            latency,
            cycles_per_line,
        })
    }
}

/// Complete memory-system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// DRAM back-end.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The Skylake-like configuration of Table 1: 32KB 8-way L1s, 1MB 8-way
    /// L2, 8MB 16-way shared LLC.
    pub fn skylake_like() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(ByteSize::kib(32), 8, 4, 10),
            l1d: CacheConfig::new(ByteSize::kib(32), 8, 4, 10),
            l2: CacheConfig::new(ByteSize::mib(1), 8, 14, 32),
            llc: CacheConfig::new(ByteSize::mib(8), 16, 36, 32),
            // Effective capacity of the two-level TLB (L1 ITLB/DTLB plus
            // the shared 1.5K-entry STLB), modelled as a single level.
            itlb: TlbConfig::new(1024, 40),
            dtlb: TlbConfig::new(1024, 40),
            dram: DramConfig::new(100, 9),
        }
    }

    /// The Broadwell-like configuration of §4.1/§5.6: identical L1s but a
    /// small 256KB L2. The paper's hardware has a 25MB LLC; the simulated
    /// Broadwell study (§5.6) uses an 8MB LLC, which we follow.
    pub fn broadwell_like() -> Self {
        HierarchyConfig {
            l2: CacheConfig::new(ByteSize::kib(256), 8, 12, 20),
            ..Self::skylake_like()
        }
    }

    /// Validates every level of the hierarchy, naming the offending level
    /// in the error (`"l2.cache.ways"`, …).
    pub fn validate(&self) -> Result<(), SimError> {
        let levels = [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("llc", &self.llc),
        ];
        for (name, cache) in levels {
            cache.validate().map_err(|e| prefix_field(name, e))?;
        }
        TlbConfig::try_new(self.itlb.entries, self.itlb.walk_latency)
            .map_err(|e| prefix_field("itlb", e))?;
        TlbConfig::try_new(self.dtlb.entries, self.dtlb.walk_latency)
            .map_err(|e| prefix_field("dtlb", e))?;
        DramConfig::try_new(self.dram.latency, self.dram.cycles_per_line)?;
        Ok(())
    }

    /// Worst-case demand latency (all levels miss, page walk included):
    /// useful as an upper bound in assertions.
    pub fn max_latency(&self) -> u64 {
        self.l1i.latency
            + self.l2.latency
            + self.llc.latency
            + self.dram.latency
            + self.itlb.walk_latency.max(self.dtlb.walk_latency)
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::skylake_like()
    }
}

/// Re-roots a validation error's field path under a hierarchy level name.
fn prefix_field(level: &str, e: SimError) -> SimError {
    match e {
        SimError::InvalidConfig { field, reason } => SimError::InvalidConfig {
            field: format!("{level}.{field}"),
            reason,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_geometry_matches_table1() {
        let c = HierarchyConfig::skylake_like();
        assert_eq!(c.l1i.capacity, ByteSize::kib(32));
        assert_eq!(c.l1i.sets(), 64);
        assert_eq!(c.l2.capacity, ByteSize::mib(1));
        assert_eq!(c.l2.lines(), 16384);
        assert_eq!(c.l2.sets(), 2048);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.llc.lines(), 131072);
        assert_eq!(c.itlb.entries, 1024);
    }

    #[test]
    fn broadwell_differs_only_in_l2() {
        let b = HierarchyConfig::broadwell_like();
        let s = HierarchyConfig::skylake_like();
        assert_eq!(b.l2.capacity, ByteSize::kib(256));
        assert_eq!(b.l1i, s.l1i);
        assert_eq!(b.llc, s.llc);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        CacheConfig::new(ByteSize::new(3000), 2, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        CacheConfig::new(ByteSize::kib(32), 0, 1, 1);
    }

    #[test]
    fn try_new_reports_zero_ways_without_panicking() {
        let err = CacheConfig::try_new(ByteSize::kib(32), 0, 1, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { ref field, .. } if field == "cache.ways"));
    }

    #[test]
    fn try_new_rejects_non_power_of_two_sets() {
        // 32KB, 24 ways: 512 lines do not divide into 24-way sets.
        let err = CacheConfig::try_new(ByteSize::kib(32), 24, 1, 1).unwrap_err();
        assert!(format!("{err}").contains("24-way"));
    }

    #[test]
    fn try_new_rejects_zero_mshrs() {
        let err = CacheConfig::try_new(ByteSize::kib(32), 8, 1, 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { ref field, .. } if field == "cache.mshrs"));
    }

    #[test]
    fn tlb_and_dram_try_new_validate() {
        assert!(TlbConfig::try_new(0, 40).is_err());
        assert!(TlbConfig::try_new(64, 40).is_ok());
        assert!(DramConfig::try_new(100, 0).is_err());
        assert!(DramConfig::try_new(100, 9).is_ok());
    }

    #[test]
    fn hierarchy_validate_names_the_level() {
        let mut c = HierarchyConfig::skylake_like();
        c.l2.ways = 0;
        let err = c.validate().unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { ref field, .. } if field == "l2.cache.ways")
        );
        assert!(HierarchyConfig::skylake_like().validate().is_ok());
        assert!(HierarchyConfig::broadwell_like().validate().is_ok());
    }

    #[test]
    fn display_mentions_capacity() {
        let c = CacheConfig::new(ByteSize::mib(1), 8, 14, 32);
        let s = format!("{c}");
        assert!(s.contains("1MB") && s.contains("8-way"));
    }

    #[test]
    fn max_latency_is_sum_of_worst_path() {
        let c = HierarchyConfig::skylake_like();
        assert_eq!(c.max_latency(), 4 + 14 + 36 + 100 + 40);
    }
}
