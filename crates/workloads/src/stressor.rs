//! A cache/core stressor trace, standing in for `stress-ng` (§2.3).
//!
//! The characterization runs a stressor on the function's core between
//! invocations to emulate a high degree of interleaving. The synthetic
//! stressor walks a large code range while loading from a large data
//! range, evicting the function's lines from every level it can reach.

use luke_common::addr::VirtAddr;
use luke_common::rng::DetRng;
use sim_cpu::instr::{BranchKind, Instr};

/// Base of the stressor's code range — far from any function arena.
const STRESSOR_CODE_BASE: u64 = 0x0000_2000_0000;
/// Base of the stressor's data range.
const STRESSOR_DATA_BASE: u64 = 0x0000_3000_0000;

/// Generates a stressor trace touching approximately `code_lines` distinct
/// instruction lines and `data_lines` distinct data lines.
///
/// The stream alternates short straight-line runs with jumps to distant
/// lines, so it pollutes the I-side of every cache level, and issues
/// spread-out loads to pollute the D-side.
pub fn stressor_trace(code_lines: u64, data_lines: u64, seed: u64) -> Vec<Instr> {
    let code_lines = code_lines.max(1);
    let data_lines = data_lines.max(1);
    let mut rng = DetRng::new(seed).split(0x57E5);
    let mut out = Vec::new();
    let mut line = 0u64;
    let mut touched = 0u64;
    while touched < code_lines {
        // A short run of instructions within this line.
        let base = STRESSOR_CODE_BASE + line * 64;
        let mut offset = 0u64;
        for _ in 0..6 {
            let pc = VirtAddr::new(base + offset);
            if rng.chance(0.3) {
                let data = STRESSOR_DATA_BASE + rng.below(data_lines) * 64;
                out.push(Instr::load(pc, 4, VirtAddr::new(data)));
            } else {
                out.push(Instr::alu(pc, 4));
            }
            offset += 4;
        }
        touched += 1;
        // Jump to the next (sometimes distant) line.
        let stride = if rng.chance(0.8) { 1 } else { rng.range(2, 32) };
        line += stride;
        let target = VirtAddr::new(STRESSOR_CODE_BASE + line * 64);
        out.push(Instr::branch(
            VirtAddr::new(base + offset),
            4,
            BranchKind::Unconditional,
            true,
            target,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::instruction_lines;

    #[test]
    fn stressor_touches_many_lines() {
        let t = stressor_trace(1000, 1000, 1);
        let lines = instruction_lines(&t);
        assert!(lines.len() > 500, "only {} lines", lines.len());
    }

    #[test]
    fn stressor_is_deterministic() {
        let a = stressor_trace(100, 100, 7);
        let b = stressor_trace(100, 100, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn stressor_stays_in_its_ranges() {
        for i in stressor_trace(100, 100, 3) {
            assert!(i.pc().as_u64() >= STRESSOR_CODE_BASE);
            assert!(i.pc().as_u64() < STRESSOR_DATA_BASE);
        }
    }

    #[test]
    fn degenerate_sizes_clamped() {
        let t = stressor_trace(0, 0, 1);
        assert!(!t.is_empty());
    }
}
