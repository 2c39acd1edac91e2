//! Property-based tests over the synthetic workload generator: the trace
//! invariants that the timing model and prefetchers rely on.

use lukewarm::cpu::instr::{BranchKind, Instr, InstrKind};
use lukewarm::workloads::footprint::{footprint_bytes, instruction_lines};
use lukewarm::workloads::stressor::stressor_trace;
use lukewarm::workloads::{paper_suite, FunctionProfile, SyntheticFunction};
use proptest::prelude::*;

fn any_suite_function() -> impl Strategy<Value = FunctionProfile> {
    (0..paper_suite().len()).prop_map(|i| paper_suite().swap_remove(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn control_flow_is_always_consistent(profile in any_suite_function(), invocation in 0u64..32) {
        // Every non-taken instruction is followed by its fall-through;
        // every taken branch by its target. This is the contract between
        // the generator and the fetch model.
        let f = SyntheticFunction::build(&profile.scaled(0.03));
        let trace = f.invocation_trace(invocation);
        prop_assert!(trace.len() > 500);
        for pair in trace.windows(2) {
            match pair[0].kind() {
                InstrKind::Branch { taken: true, target, .. } => {
                    prop_assert_eq!(pair[1].pc(), target);
                }
                _ => prop_assert_eq!(pair[1].pc(), pair[0].fallthrough()),
            }
        }
    }

    #[test]
    fn calls_and_returns_balance(profile in any_suite_function(), invocation in 0u64..16) {
        let f = SyntheticFunction::build(&profile.scaled(0.03));
        let trace = f.invocation_trace(invocation);
        let mut depth: i64 = 0;
        for i in &trace {
            match i.kind() {
                InstrKind::Branch { kind: BranchKind::Call, .. } => depth += 1,
                InstrKind::Branch { kind: BranchKind::Return, .. } => {
                    depth -= 1;
                    prop_assert!(depth >= 0, "return without a call");
                }
                _ => {}
            }
        }
        prop_assert_eq!(depth, 0, "unbalanced calls at trace end");
    }

    #[test]
    fn traces_are_deterministic(profile in any_suite_function(), invocation in 0u64..8) {
        let p = profile.scaled(0.02);
        let f1 = SyntheticFunction::build(&p);
        let f2 = SyntheticFunction::build(&p);
        prop_assert_eq!(f1.invocation_trace(invocation), f2.invocation_trace(invocation));
    }

    #[test]
    fn footprint_tracks_profile_target(profile in any_suite_function()) {
        let p = profile.scaled(0.06);
        let f = SyntheticFunction::build(&p);
        let measured = footprint_bytes(&f.invocation_trace(0)) as f64;
        let target = p.code_footprint.bytes() as f64;
        let ratio = measured / target;
        prop_assert!(
            (0.55..1.8).contains(&ratio),
            "{}: measured {measured}B vs target {target}B",
            p.name
        );
    }

    #[test]
    fn invocations_share_most_lines(profile in any_suite_function(), a in 0u64..8, b in 8u64..16) {
        let p = profile.scaled(0.04);
        let f = SyntheticFunction::build(&p);
        let la = instruction_lines(&f.invocation_trace(a));
        let lb = instruction_lines(&f.invocation_trace(b));
        let j = luke_common::stats::jaccard(&la, &lb);
        prop_assert!(j > 0.7, "{}: jaccard {j}", p.name);
    }

    #[test]
    fn pc_stream_stays_in_code_space(profile in any_suite_function()) {
        let p = profile.scaled(0.02);
        let f = SyntheticFunction::build(&p);
        for i in f.invocation_trace(0) {
            let pc = i.pc().as_u64();
            prop_assert!((0x4000_0000..0x6000_0000).contains(&pc), "pc {pc:#x} outside arenas");
            if let InstrKind::Load(addr) | InstrKind::Store(addr) = i.kind() {
                prop_assert!(addr.as_u64() >= 0x6000_0000, "data {addr} inside code space");
            }
        }
    }
}

/// Every address an `Instr` stores must lie below this: the packed record
/// keeps its pc in 48 bits.
const PACKED_PC_LIMIT: u64 = 1 << 48;

/// A pc at or above the limit cannot be read back from a packed record,
/// so the constructors' `debug_assert!` rejects it while the trace is
/// emitted (tests build with debug assertions); operands are stored
/// whole and are checked here.
fn assert_fits_packed_record(name: &str, trace: &[Instr]) {
    for i in trace {
        let operand = match i.kind() {
            InstrKind::Alu => 0,
            InstrKind::Load(addr) | InstrKind::Store(addr) => addr.as_u64(),
            InstrKind::Branch { target, .. } => target.as_u64(),
        };
        assert!(operand < PACKED_PC_LIMIT, "{name}: operand {operand:#x}");
    }
}

#[test]
fn every_emitted_address_fits_the_packed_record() {
    for profile in paper_suite() {
        for scale in [0.005, 0.02, 1.0, 2.0] {
            let f = SyntheticFunction::build(&profile.scaled(scale));
            for invocation in 0..3 {
                let name = format!("{} x{scale} inv {invocation}", profile.name);
                // Chunked emission keeps a scale-2 trace out of memory.
                let tail = f.invocation_trace_chunked(
                    invocation,
                    1 << 16,
                    Vec::new(),
                    &mut |mut chunk| {
                        assert_fits_packed_record(&name, &chunk);
                        chunk.clear();
                        Some(chunk)
                    },
                );
                assert_fits_packed_record(&name, &tail.expect("the sink never stops the walk"));
            }
        }
    }
    for seed in 0..3 {
        assert_fits_packed_record("stressor", &stressor_trace(1 << 16, 1 << 18, seed));
    }
}
