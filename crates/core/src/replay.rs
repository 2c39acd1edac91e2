//! The Jukebox replay path (§3.3).
//!
//! At invocation dispatch, the replay engine streams the metadata buffer
//! sequentially from memory: it reads one 64-byte chunk of packed entries
//! at a time (charged as metadata-replay DRAM traffic, which also paces
//! the engine), pushes each region's base address through the I-TLB, and
//! enqueues every encoded line as an L2 prefetch. The engine never
//! synchronizes with the core — it bulk-prefetches the entire recorded
//! working set in recorded (first-touch temporal) order.

use crate::config::JukeboxConfig;
use crate::metadata::{packed_bytes, MetadataBuffer, MetadataEntry, REPLAY_CHUNK_BYTES};
use luke_common::addr::VirtAddr;
use luke_common::SimError;
use sim_mem::prefetch::PrefetchIssuer;

/// Statistics of one replay pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Metadata entries replayed.
    pub entries: u64,
    /// Prefetches enqueued (lines encoded in the entries).
    pub lines: u64,
    /// Metadata bytes streamed from memory.
    pub metadata_bytes: u64,
    /// Replay passes abandoned wholesale because the buffer failed a
    /// pre-replay integrity check (tag mismatch, capacity overflow,
    /// configuration mismatch). The invocation degrades to record-only.
    pub replay_aborts: u64,
    /// Prefetches skipped because their entry failed validation
    /// (misaligned or out-of-bounds region pointer, wild access-vector
    /// bits), or that were encoded in a buffer whose replay aborted.
    pub dropped_prefetches: u64,
}

/// Replays a sealed metadata buffer through the issuer. Returns replay
/// statistics.
pub fn replay(
    buffer: &MetadataBuffer,
    config: &JukeboxConfig,
    issuer: &mut PrefetchIssuer<'_>,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    if buffer.is_empty() {
        return stats;
    }
    let entry_bytes = packed_bytes(1, config).max(1);
    let mut available_bytes = 0u64;

    for entry in buffer.entries() {
        // Fetch the next metadata chunk when the FIFO runs dry (§3.3: the
        // next set of entries is fetched with a single 64B read once 64B
        // have been consumed).
        while available_bytes < entry_bytes {
            issuer.read_metadata(REPLAY_CHUNK_BYTES);
            stats.metadata_bytes += REPLAY_CHUNK_BYTES;
            available_bytes += REPLAY_CHUNK_BYTES;
        }
        available_bytes -= entry_bytes;
        stats.entries += 1;

        // Translate once per region (pre-populating the I-TLB) and enqueue
        // each encoded line. `prefetch_line` performs the translation per
        // line internally; region locality makes it one TLB entry.
        for line in entry.lines(config) {
            issuer.prefetch_line(line);
            stats.lines += 1;
        }
    }
    stats
}

/// Checks a buffer's integrity before any of it is trusted: the stored
/// configuration must match the replayer's, the entry count must fit the
/// capacity (an oversized buffer can only come from a corrupt or foreign
/// snapshot), and the integrity tag must match the entries.
pub fn validate_buffer(buffer: &MetadataBuffer, config: &JukeboxConfig) -> Result<(), SimError> {
    if buffer.config() != config {
        return Err(SimError::corrupt_metadata(
            "metadata configuration does not match the replayer's",
        ));
    }
    if buffer.len() > config.max_entries() {
        return Err(SimError::corrupt_metadata(format!(
            "{} entries exceed the {}-entry metadata capacity",
            buffer.len(),
            config.max_entries()
        )));
    }
    if !buffer.is_consistent() {
        return Err(SimError::corrupt_metadata(
            "integrity tag does not match entries (tampered or truncated)",
        ));
    }
    Ok(())
}

/// Checks one entry against the configuration and, when known, the
/// function's code-layout bounds: the region pointer must be aligned to
/// the region size, the access vector must not set bits past the region's
/// line count, and the region must overlap `[lo, hi)` if bounds are given.
pub fn validate_entry(
    entry: &MetadataEntry,
    config: &JukeboxConfig,
    bounds: Option<(VirtAddr, VirtAddr)>,
) -> Result<(), SimError> {
    let base = entry.region_base.as_u64();
    let region = config.region_bytes as u64;
    if !base.is_multiple_of(region) {
        return Err(SimError::corrupt_metadata(format!(
            "region pointer {base:#x} not aligned to {region}B region"
        )));
    }
    if entry.access_vector >> config.lines_per_region() != 0 {
        return Err(SimError::corrupt_metadata(format!(
            "access vector sets lines past the {}-line region",
            config.lines_per_region()
        )));
    }
    if let Some((lo, hi)) = bounds {
        // The region must lie inside the function's code span; a pointer
        // outside it would prefetch wild addresses.
        if base < lo.as_u64() & !(region - 1)
            || base + region > hi.as_u64().next_multiple_of(region)
        {
            return Err(SimError::corrupt_metadata(format!(
                "region {base:#x} outside function layout [{:#x}, {:#x})",
                lo.as_u64(),
                hi.as_u64()
            )));
        }
    }
    Ok(())
}

/// Replays a buffer defensively: the buffer is validated before any
/// prefetch is issued, and each entry is bounds-checked as it streams.
///
/// On buffer-level corruption the pass aborts before touching the memory
/// system — `replay_aborts` is set and every encoded line is counted as
/// dropped; the caller should degrade to record-only for the invocation.
/// Individually invalid entries are skipped (their lines counted in
/// `dropped_prefetches`) while the rest of the buffer still replays. No
/// prefetch is ever issued outside the function's layout bounds.
pub fn replay_validated(
    buffer: &MetadataBuffer,
    config: &JukeboxConfig,
    bounds: Option<(VirtAddr, VirtAddr)>,
    issuer: &mut PrefetchIssuer<'_>,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    if buffer.is_empty() {
        return stats;
    }
    if validate_buffer(buffer, config).is_err() {
        stats.replay_aborts = 1;
        stats.dropped_prefetches = buffer.total_lines();
        return stats;
    }

    let entry_bytes = packed_bytes(1, config).max(1);
    let mut available_bytes = 0u64;
    for entry in buffer.entries() {
        // The stream is charged whether or not the entry survives
        // validation — the engine has to read it to inspect it.
        while available_bytes < entry_bytes {
            issuer.read_metadata(REPLAY_CHUNK_BYTES);
            stats.metadata_bytes += REPLAY_CHUNK_BYTES;
            available_bytes += REPLAY_CHUNK_BYTES;
        }
        available_bytes -= entry_bytes;

        if validate_entry(entry, config, bounds).is_err() {
            stats.dropped_prefetches += entry.line_count() as u64;
            continue;
        }
        stats.entries += 1;
        for line in entry.lines(config) {
            issuer.prefetch_line(line);
            stats.lines += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataEntry;
    use luke_common::addr::VirtAddr;
    use sim_mem::config::HierarchyConfig;
    use sim_mem::hierarchy::MemoryHierarchy;
    use sim_mem::page_table::PageTable;

    fn buffer_with_regions(n: u64, lines_each: usize) -> MetadataBuffer {
        let mut buf = MetadataBuffer::new(JukeboxConfig::paper_default());
        for i in 0..n {
            let mut e = MetadataEntry::with_line(VirtAddr::new(0x10_0000 + i * 1024), 0);
            for slot in 1..lines_each {
                e.set_line(slot);
            }
            buf.push(e);
        }
        buf
    }

    #[test]
    fn replay_prefetches_every_encoded_line() {
        let config = JukeboxConfig::paper_default();
        let buf = buffer_with_regions(10, 4);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let stats = {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay(&buf, &config, &mut issuer)
        };
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.lines, 40);
        assert_eq!(mem.l2().stats().prefetch_fills, 40);
        // Every replayed line is resident in the L2.
        let pline = pt.translate_line(VirtAddr::new(0x10_0000).line());
        assert!(mem.l2().peek(pline));
    }

    #[test]
    fn replay_charges_metadata_traffic() {
        let config = JukeboxConfig::paper_default();
        let buf = buffer_with_regions(100, 1);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let stats = {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay(&buf, &config, &mut issuer)
        };
        // 100 entries * 7B = 700B -> 11 chunks of 64B.
        assert_eq!(stats.metadata_bytes, 11 * 64);
        assert_eq!(mem.dram().traffic().metadata_replay, 11 * 64);
    }

    #[test]
    fn replay_populates_itlb() {
        let config = JukeboxConfig::paper_default();
        let buf = buffer_with_regions(3, 1);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay(&buf, &config, &mut issuer);
        }
        let vpage = VirtAddr::new(0x10_0000).page_number();
        assert!(mem.itlb_contains(vpage));
    }

    #[test]
    fn empty_buffer_is_free() {
        let config = JukeboxConfig::paper_default();
        let buf = MetadataBuffer::new(config);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
        let stats = replay(&buf, &config, &mut issuer);
        assert_eq!(stats, ReplayStats::default());
        assert_eq!(issuer.counters().metadata_read, 0);
    }

    fn fresh_mem() -> (MemoryHierarchy, PageTable) {
        (
            MemoryHierarchy::new(HierarchyConfig::skylake_like()),
            PageTable::new(0),
        )
    }

    #[test]
    fn validated_replay_matches_plain_replay_on_clean_metadata() {
        let config = JukeboxConfig::paper_default();
        let buf = buffer_with_regions(50, 3);

        let (mut mem_a, mut pt_a) = fresh_mem();
        let plain = {
            let mut issuer = PrefetchIssuer::new(&mut mem_a, &mut pt_a, 0);
            replay(&buf, &config, &mut issuer)
        };
        let (mut mem_b, mut pt_b) = fresh_mem();
        let validated = {
            let mut issuer = PrefetchIssuer::new(&mut mem_b, &mut pt_b, 0);
            replay_validated(&buf, &config, None, &mut issuer)
        };
        assert_eq!(validated.entries, plain.entries);
        assert_eq!(validated.lines, plain.lines);
        assert_eq!(validated.metadata_bytes, plain.metadata_bytes);
        assert_eq!(validated.replay_aborts, 0);
        assert_eq!(validated.dropped_prefetches, 0);
        assert_eq!(
            mem_a.l2().stats().prefetch_fills,
            mem_b.l2().stats().prefetch_fills
        );
    }

    #[test]
    fn tampered_buffer_aborts_without_prefetching() {
        let config = JukeboxConfig::paper_default();
        let clean = buffer_with_regions(10, 4);
        let mut entries = clean.entries().to_vec();
        entries[3].access_vector ^= 0b10;
        let corrupt = MetadataBuffer::from_raw_parts(config, entries, 0, clean.tag(), 0);
        assert!(validate_buffer(&corrupt, &config).is_err());

        let (mut mem, mut pt) = fresh_mem();
        let stats = {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay_validated(&corrupt, &config, None, &mut issuer)
        };
        assert_eq!(stats.replay_aborts, 1);
        assert_eq!(stats.lines, 0);
        assert_eq!(stats.dropped_prefetches, corrupt.total_lines());
        assert_eq!(mem.l2().stats().prefetch_fills, 0, "nothing prefetched");
        assert_eq!(mem.dram().traffic().metadata_replay, 0);
    }

    #[test]
    fn oversized_buffer_aborts() {
        let config = JukeboxConfig::paper_default();
        let n = config.max_entries() + 5;
        let entries: Vec<MetadataEntry> = (0..n as u64)
            .map(|i| MetadataEntry::with_line(VirtAddr::new(i * 1024), 0))
            .collect();
        // Recompute a matching tag by pushing through a buffer is
        // impossible past capacity, so fabricate parts directly: even a
        // correct-looking tag cannot make an oversized buffer valid.
        let oversized = MetadataBuffer::from_raw_parts(config, entries, 0, 0, 0);
        let err = validate_buffer(&oversized, &config).unwrap_err();
        assert!(format!("{err}").contains("capacity"));
    }

    #[test]
    fn out_of_bounds_entries_are_dropped_not_prefetched() {
        let config = JukeboxConfig::paper_default();
        let mut buf = MetadataBuffer::new(config);
        // In-bounds region and a wild pointer far outside the layout.
        let mut good = MetadataEntry::with_line(VirtAddr::new(0x10_0000), 0);
        good.set_line(2);
        buf.push(good);
        buf.push(MetadataEntry::with_line(VirtAddr::new(0x7000_0000_0000), 0));
        let bounds = Some((VirtAddr::new(0x10_0000), VirtAddr::new(0x20_0000)));

        let (mut mem, mut pt) = fresh_mem();
        let stats = {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay_validated(&buf, &config, bounds, &mut issuer)
        };
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.dropped_prefetches, 1);
        assert_eq!(stats.replay_aborts, 0, "entry-level drop, not an abort");
        assert_eq!(mem.l2().stats().prefetch_fills, 2);
        // The wild page never entered the TLB or the memory system.
        assert!(!mem.itlb_contains(VirtAddr::new(0x7000_0000_0000).page_number()));
    }

    #[test]
    fn misaligned_and_wild_vector_entries_rejected() {
        let config = JukeboxConfig::paper_default();
        let misaligned = MetadataEntry::with_line(VirtAddr::new(0x10_0040), 0);
        assert!(validate_entry(&misaligned, &config, None).is_err());

        let wild_vector = MetadataEntry {
            region_base: VirtAddr::new(0x10_0000),
            access_vector: 1u128 << 20, // paper config has 16 lines/region
        };
        assert!(validate_entry(&wild_vector, &config, None).is_err());

        let clean = MetadataEntry::with_line(VirtAddr::new(0x10_0000), 15);
        assert!(validate_entry(&clean, &config, None).is_ok());
    }

    #[test]
    fn config_mismatch_aborts() {
        let config = JukeboxConfig::paper_default();
        let other = config.with_region_bytes(2048);
        let buf = buffer_with_regions(5, 1);
        assert!(validate_buffer(&buf, &other).is_err());
    }

    #[test]
    fn replay_preserves_recorded_order() {
        // Arrival times of prefetches must be non-decreasing in entry
        // order (FIFO replay).
        let config = JukeboxConfig::paper_default();
        let buf = buffer_with_regions(20, 2);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
        let mut last_arrival = 0;
        for entry in buf.entries() {
            for line in entry.lines(&config) {
                let out = issuer.prefetch_line(line);
                assert!(out.arrival >= last_arrival);
                last_arrival = out.arrival;
            }
        }
    }
}
