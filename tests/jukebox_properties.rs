//! Property-based tests of the Jukebox record→replay pipeline: for
//! arbitrary miss streams, replay must deliver exactly what was recorded
//! (unlimited capacity) or a prefix-closed subset of it (capped capacity),
//! and the packed metadata must respect the configured budget.

use luke_common::addr::{LineAddr, VirtAddr};
use luke_common::size::ByteSize;
use lukewarm::jukebox::{JukeboxConfig, JukeboxPrefetcher};
use lukewarm::mem::prefetch::{FetchObservation, InstructionPrefetcher, PrefetchIssuer};
use lukewarm::mem::{HierarchyConfig, MemoryHierarchy, PageTable};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn observation(line: LineAddr) -> FetchObservation {
    FetchObservation {
        vline: line,
        l1_miss: true,
        l2_miss: true,
        l2_prefetch_first_use: false,
        now: 0,
    }
}

/// Runs one record-only invocation over `miss_lines` and returns the
/// sealed jukebox.
fn record_stream(config: JukeboxConfig, miss_lines: &[u64]) -> JukeboxPrefetcher {
    let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
    let mut pt = PageTable::new(0);
    let mut jb = JukeboxPrefetcher::new(config);
    let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
    jb.on_invocation_start(&mut issuer);
    for &addr in miss_lines {
        jb.on_fetch(&observation(VirtAddr::new(addr * 64).line()), &mut issuer);
    }
    jb.on_invocation_end(&mut issuer);
    jb
}

/// Replays the sealed metadata into a fresh hierarchy and returns the set
/// of virtual lines whose translations became L2-resident.
fn replay_lines(jb: &mut JukeboxPrefetcher, miss_lines: &[u64]) -> BTreeSet<u64> {
    let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
    let mut pt = PageTable::new(0);
    {
        let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
        jb.on_invocation_start(&mut issuer);
    }
    let unique: BTreeSet<u64> = miss_lines.iter().copied().collect();
    unique
        .into_iter()
        .filter(|&l| {
            let pline = pt.translate_line(VirtAddr::new(l * 64).line());
            mem.l2().peek(pline)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unlimited_capacity_replays_exactly_the_recorded_set(
        miss_lines in prop::collection::vec(0u64..(1 << 18), 1..400)
    ) {
        let config = JukeboxConfig::paper_default()
            .with_metadata_capacity(ByteSize::mib(16));
        let mut jb = record_stream(config, &miss_lines);
        let replayed = replay_lines(&mut jb, &miss_lines);
        let recorded: BTreeSet<u64> = miss_lines.iter().copied().collect();
        prop_assert_eq!(replayed, recorded);
    }

    #[test]
    fn capped_capacity_replays_a_subset(
        miss_lines in prop::collection::vec(0u64..(1 << 18), 1..400)
    ) {
        let config = JukeboxConfig::paper_default()
            .with_metadata_capacity(ByteSize::new(256)); // tiny: ~37 entries
        let mut jb = record_stream(config, &miss_lines);
        let buffer_bytes = jb.replay_buffer().map_or(0, |b| b.bytes_used());
        prop_assert!(buffer_bytes <= 256, "buffer {buffer_bytes}B over cap");
        let replayed = replay_lines(&mut jb, &miss_lines);
        let recorded: BTreeSet<u64> = miss_lines.iter().copied().collect();
        prop_assert!(replayed.is_subset(&recorded));
    }

    #[test]
    fn metadata_entries_are_bounded_by_touched_regions_plus_duplicates(
        miss_lines in prop::collection::vec(0u64..(1 << 14), 1..300)
    ) {
        // Entry count can exceed touched-region count only through CRRB
        // evictions, and is bounded above by the miss count.
        let config = JukeboxConfig::paper_default()
            .with_metadata_capacity(ByteSize::mib(16));
        let jb = record_stream(config, &miss_lines);
        let buffer = jb.replay_buffer().expect("recorded");
        let regions: BTreeSet<u64> = miss_lines.iter().map(|l| l / 16).collect();
        prop_assert!(buffer.len() >= regions.len());
        prop_assert!(buffer.len() <= miss_lines.len());
        // Total encoded lines never exceed the number of recorded misses
        // and never fall below the number of unique lines.
        let unique: BTreeSet<u64> = miss_lines.iter().copied().collect();
        prop_assert!(buffer.total_lines() >= unique.len() as u64);
        prop_assert!(buffer.total_lines() <= miss_lines.len() as u64 * 2);
    }

    #[test]
    fn double_buffering_replays_previous_generation(
        first in prop::collection::vec(0u64..4096, 1..100),
        second in prop::collection::vec(4096u64..8192, 1..100)
    ) {
        // Invocation 3 must replay what invocation 2 recorded, not what
        // invocation 1 recorded.
        let config = JukeboxConfig::paper_default()
            .with_metadata_capacity(ByteSize::mib(16));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let mut jb = JukeboxPrefetcher::new(config);
        for stream in [&first, &second] {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            jb.on_invocation_start(&mut issuer);
            for &addr in stream.iter() {
                jb.on_fetch(&observation(VirtAddr::new(addr * 64).line()), &mut issuer);
            }
            jb.on_invocation_end(&mut issuer);
        }
        let replayed = replay_lines(&mut jb, &second);
        let second_set: BTreeSet<u64> = second.iter().copied().collect();
        prop_assert_eq!(replayed, second_set);
    }
}
