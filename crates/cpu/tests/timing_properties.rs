//! Property-based tests of the core timing model: for arbitrary (but
//! control-flow-consistent) traces, the cycle accounting must hold
//! together.

use luke_common::addr::VirtAddr;
use proptest::prelude::*;
use sim_cpu::instr::{BranchKind, Instr};
use sim_cpu::{Core, CoreConfig};
use sim_mem::config::HierarchyConfig;
use sim_mem::hierarchy::MemoryHierarchy;
use sim_mem::page_table::PageTable;
use sim_mem::prefetch::NoPrefetcher;

/// Parameters of a generated trace.
#[derive(Clone, Debug)]
struct TraceSpec {
    blocks: usize,
    block_instrs: usize,
    rounds: usize,
    load_every: usize,
    stride: u64,
}

fn trace_spec() -> impl Strategy<Value = TraceSpec> {
    (2usize..12, 2usize..12, 1usize..4, 2usize..8, 1u64..64).prop_map(
        |(blocks, block_instrs, rounds, load_every, stride)| TraceSpec {
            blocks,
            block_instrs,
            rounds,
            load_every,
            stride,
        },
    )
}

/// Builds a control-flow-consistent trace: `blocks` blocks laid out
/// `stride` lines apart, each `block_instrs` long and ending in a jump to
/// the next, repeated `rounds` times.
fn build_trace(spec: &TraceSpec) -> Vec<Instr> {
    let mut out = Vec::new();
    let base = 0x40_0000u64;
    let block_base = |b: usize| base + b as u64 * spec.stride * 64;
    for _ in 0..spec.rounds {
        for b in 0..spec.blocks {
            let start = block_base(b);
            let mut pc = start;
            for i in 0..spec.block_instrs {
                if i % spec.load_every == spec.load_every - 1 {
                    out.push(Instr::load(
                        VirtAddr::new(pc),
                        4,
                        VirtAddr::new(0x7000_0000 + (pc % 8192)),
                    ));
                } else {
                    out.push(Instr::alu(VirtAddr::new(pc), 4));
                }
                pc += 4;
            }
            let target = block_base((b + 1) % spec.blocks);
            out.push(Instr::branch(
                VirtAddr::new(pc),
                4,
                BranchKind::Unconditional,
                true,
                VirtAddr::new(target),
            ));
        }
    }
    out
}

fn run_trace(trace: &[Instr]) -> sim_cpu::InvocationResult {
    let mut core = Core::new(CoreConfig::skylake_like());
    let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
    let mut pt = PageTable::new(0);
    core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cycles_bounded_below_by_retirement(spec in trace_spec()) {
        let trace = build_trace(&spec);
        let r = run_trace(&trace);
        prop_assert_eq!(r.instructions, trace.len() as u64);
        prop_assert!(r.cycles as f64 >= trace.len() as f64 / 4.0);
    }

    #[test]
    fn cycles_bounded_above_by_worst_case(spec in trace_spec()) {
        // Every instruction can cost at most a full cold memory round trip
        // plus fixed penalties.
        let trace = build_trace(&spec);
        let r = run_trace(&trace);
        let worst_per_instr = HierarchyConfig::skylake_like().max_latency() + 40;
        prop_assert!(
            r.cycles <= trace.len() as u64 * worst_per_instr,
            "cycles {} for {} instrs",
            r.cycles,
            trace.len()
        );
    }

    #[test]
    fn topdown_attribution_matches_cycle_count(spec in trace_spec()) {
        let trace = build_trace(&spec);
        let r = run_trace(&trace);
        let diff = (r.topdown.total() - r.cycles as f64).abs();
        prop_assert!(diff <= 2.0, "attributed {} vs {}", r.topdown.total(), r.cycles);
    }

    #[test]
    fn timing_is_deterministic(spec in trace_spec()) {
        let trace = build_trace(&spec);
        let a = run_trace(&trace);
        let b = run_trace(&trace);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn second_round_is_never_slower_when_warm(spec in trace_spec()) {
        // Running the same trace twice back-to-back: the second run
        // benefits from warm caches and predictors.
        let trace = build_trace(&spec);
        let mut core = Core::new(CoreConfig::skylake_like());
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        let first = core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher);
        let second = core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher);
        prop_assert!(
            second.cycles <= first.cycles,
            "warm {} vs cold {}",
            second.cycles,
            first.cycles
        );
    }

    #[test]
    fn flush_never_speeds_things_up(spec in trace_spec()) {
        let trace = build_trace(&spec);
        let mut core = Core::new(CoreConfig::skylake_like());
        let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut pt = PageTable::new(0);
        core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher);
        let warm = core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher);
        core.flush_microarch();
        mem.flush_all();
        let flushed = core.run_invocation(trace.iter().copied(), &mut mem, &mut pt, &mut NoPrefetcher);
        prop_assert!(
            flushed.cycles >= warm.cycles,
            "flushed {} vs warm {}",
            flushed.cycles,
            warm.cycles
        );
    }

    #[test]
    fn branch_counts_match_trace(spec in trace_spec()) {
        let trace = build_trace(&spec);
        let r = run_trace(&trace);
        let branches = spec.blocks as u64 * spec.rounds as u64;
        prop_assert_eq!(r.stats.branches, branches);
        prop_assert_eq!(r.stats.taken_branches, branches);
        let loads = trace
            .iter()
            .filter(|i| matches!(i.kind(), sim_cpu::instr::InstrKind::Load(_)))
            .count() as u64;
        prop_assert_eq!(r.stats.loads, loads);
    }
}
