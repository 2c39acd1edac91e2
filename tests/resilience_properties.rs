//! Robustness properties: seeded fault injection must be bit-reproducible
//! and transparent when disabled, and the Jukebox replayer must never
//! prefetch outside the function's code layout no matter how the metadata
//! is corrupted — including a full-system check that a corrupt-snapshot
//! run degrades to the no-prefetch baseline instead of panicking.

use luke_common::addr::VirtAddr;
use luke_obs::span::{SpanRing, SpanScope};
use lukewarm::jukebox::metadata::{MetadataBuffer, MetadataEntry};
use lukewarm::jukebox::{replay_validated, JukeboxConfig, JukeboxPrefetcher};
use lukewarm::mem::prefetch::{NoPrefetcher, PrefetchIssuer};
use lukewarm::mem::{HierarchyConfig, MemoryHierarchy, PageTable};
use lukewarm::prelude::*;
use lukewarm::server::{AttemptCosts, FaultPlan, FaultRates, FaultStats, RetryPolicy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Fault plan determinism ---

    #[test]
    fn fault_injection_is_bit_identical_across_reruns(
        seed in 0u64..(1u64 << 62),
        rate in 0.0f64..1.0,
        service_ms in 0.05f64..50.0,
    ) {
        let plan = FaultPlan::new(seed, FaultRates::uniform(rate)).unwrap();
        let policy = RetryPolicy::default();
        let costs = AttemptCosts {
            service_ms,
            cold_start_ms: 100.0,
            timeout_ms: 250.0,
            starts_cold: false,
        };
        let run = || {
            let mut stats = FaultStats::default();
            let results: Vec<_> = (0..200)
                .map(|n| {
                    let mut off = SpanRing::disabled();
                    let mut scope = SpanScope::new(&mut off, 0, 0);
                    plan.run_invocation(&policy, n, &costs, &mut stats, &mut scope, 0.0)
                })
                .collect();
            (results, stats)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn disabled_fault_plan_is_transparent(
        service_ms in 0.01f64..100.0,
        invocation in 0u64..(1u64 << 40),
    ) {
        // FaultPlan::none() must reproduce a fault-layer-free run exactly:
        // one attempt, latency equal to the service time, zero faults.
        let plan = FaultPlan::none();
        let mut stats = FaultStats::default();
        let costs = AttemptCosts {
            service_ms,
            cold_start_ms: 100.0,
            timeout_ms: 250.0,
            starts_cold: false,
        };
        let r = plan.run_invocation(
            &RetryPolicy::default(),
            invocation,
            &costs,
            &mut stats,
            &mut SpanScope::new(&mut SpanRing::disabled(), 0, 0),
            0.0,
        );
        prop_assert!(r.completed);
        prop_assert_eq!(r.attempts, 1);
        prop_assert_eq!(r.latency_ms, service_ms);
        prop_assert_eq!(stats.total_faults(), 0);
        prop_assert_eq!(stats.retries, 0);
    }

    // --- Replay validation under arbitrary corruption ---

    #[test]
    fn replay_never_prefetches_outside_layout(
        raw in prop::collection::vec((0u64..(1u64 << 28), 0u128..(1u128 << 20)), 0..24),
        tag in 0u64..(1u64 << 62),
        keep_tag_consistent in any::<bool>(),
    ) {
        let config = JukeboxConfig::paper_default();
        // Region-aligned layout bounds, so the allowed span is exact.
        let (lo, hi) = (VirtAddr::new(0x40_0000), VirtAddr::new(0x40_4000));
        // Bases cover aligned/misaligned and in/out of bounds; vectors can
        // set bits past the 16-line region.
        let entries: Vec<MetadataEntry> = raw
            .iter()
            .map(|&(base, vector)| MetadataEntry {
                region_base: VirtAddr::new(base * 64),
                access_vector: vector,
            })
            .collect();
        let buffer = if keep_tag_consistent {
            MetadataBuffer::from_entries(config, entries)
        } else {
            MetadataBuffer::from_raw_parts(config, entries, 0, tag, 0)
        };

        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let stats = {
            let mut issuer = PrefetchIssuer::new(&mut mem, &mut pt, 0);
            replay_validated(&buffer, &config, Some((lo, hi)), &mut issuer)
        };

        // An aborted pass must leave the memory system untouched.
        if stats.replay_aborts > 0 {
            prop_assert_eq!(mem.l2().stats().prefetch_fills, 0);
        }
        // No line outside [lo, hi) may ever become L2-resident.
        for entry in buffer.entries() {
            for line in entry.lines(&config) {
                let addr = line.base().as_u64();
                if addr < lo.as_u64() || addr >= hi.as_u64() {
                    let pline = pt.translate_line(line);
                    prop_assert!(!mem.l2().peek(pline), "wild line {:#x} prefetched", addr);
                }
            }
        }
    }
}

/// Acceptance check: a full-system run whose Jukebox snapshot is truncated
/// completes without panicking, reports a replay abort on every
/// invocation, and — because aborted replays never touch the memory
/// system — lands within 2% of the no-prefetch interleaved baseline CPI.
#[test]
fn corrupt_snapshot_run_degrades_to_no_prefetch_baseline() {
    let params = ExperimentParams::quick();
    let profile = FunctionProfile::named("Auth-G")
        .expect("suite function")
        .scaled(params.scale);
    let config = SystemConfig::skylake();

    // Record a clean snapshot from a donor instance.
    let mut donor_sim = SystemSim::new(config, &profile);
    let mut donor = JukeboxPrefetcher::new(config.jukebox);
    for _ in 0..2 {
        donor_sim.flush_microarch();
        donor_sim.run_invocation(&mut donor);
    }
    let clean = donor.snapshot().expect("donor recorded metadata");
    assert!(clean.len() > 1, "donor metadata too small to truncate");

    // Truncate the entry list but keep the original tag — a torn write.
    let truncated = MetadataBuffer::from_raw_parts(
        config.jukebox,
        clean.entries()[..clean.len() - 1].to_vec(),
        clean.dropped(),
        clean.tag(),
        clean.generation(),
    );
    assert!(!truncated.is_consistent());

    let rounds = params.warmup + params.invocations;

    // No-prefetch interleaved baseline.
    let mut base_sim = SystemSim::new(config, &profile);
    let mut nopf = NoPrefetcher;
    let (mut base_cycles, mut base_instr) = (0u64, 0u64);
    for i in 0..rounds {
        base_sim.flush_microarch();
        let m = base_sim.run_invocation(&mut nopf);
        if i >= params.warmup {
            base_cycles += m.result.cycles;
            base_instr += m.result.instructions;
        }
    }

    // Same protocol, but every invocation restores the truncated snapshot
    // (record disabled, as a replay-only snapshot deployment would run).
    let mut jb_sim = SystemSim::new(config, &profile);
    let (lo, hi) = jb_sim.function().layout().address_span();
    let (mut jb_cycles, mut jb_instr, mut aborts) = (0u64, 0u64, 0u64);
    for i in 0..rounds {
        let mut jb = JukeboxPrefetcher::from_snapshot(config.jukebox, truncated.clone());
        jb.set_record_enabled(false);
        jb.set_address_bounds(lo, hi);
        jb_sim.flush_microarch();
        let m = jb_sim.run_invocation(&mut jb);
        aborts += jb.replay_aborts();
        if i >= params.warmup {
            jb_cycles += m.result.cycles;
            jb_instr += m.result.instructions;
        }
    }

    assert_eq!(aborts, rounds, "every restore must abort its replay");
    let base_cpi = base_cycles as f64 / base_instr as f64;
    let jb_cpi = jb_cycles as f64 / jb_instr as f64;
    let drift = (jb_cpi / base_cpi - 1.0).abs();
    assert!(
        drift < 0.02,
        "degraded CPI {jb_cpi:.4} vs baseline {base_cpi:.4} (drift {:.2}%)",
        drift * 100.0
    );
}
