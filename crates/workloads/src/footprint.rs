//! Instruction-footprint measurement (the §2.5 methodology).
//!
//! The paper traces L1-I accesses at cache-block granularity over 25
//! invocations, deduplicates addresses per invocation, and reports the
//! footprint sizes (Figure 6a) and pairwise Jaccard commonality
//! (Figure 6b). These helpers implement the same measurement over
//! synthetic traces.

use luke_common::addr::LINE_BYTES;
use luke_common::stats::{mean_pairwise_jaccard, min_pairwise_jaccard};
use sim_cpu::instr::Instr;
use std::collections::BTreeSet;

/// The set of unique instruction cache-line indices touched by a trace
/// (including lines touched by straddling instructions).
pub fn instruction_lines(trace: &[Instr]) -> BTreeSet<u64> {
    let mut lines = BTreeSet::new();
    for i in trace {
        let first = i.pc().line().index();
        let last = i
            .pc()
            .offset(i.size().saturating_sub(1) as u64)
            .line()
            .index();
        lines.insert(first);
        if last != first {
            lines.insert(last);
        }
    }
    lines
}

/// Footprint size of a trace in bytes (unique lines × 64).
pub fn footprint_bytes(trace: &[Instr]) -> u64 {
    instruction_lines(trace).len() as u64 * LINE_BYTES as u64
}

/// Footprint statistics over a set of invocations of one function.
#[derive(Clone, Debug, PartialEq)]
pub struct FootprintStudy {
    /// Per-invocation footprint sizes in bytes.
    pub sizes: Vec<u64>,
    /// Mean pairwise Jaccard index across all invocation pairs.
    pub jaccard_mean: f64,
    /// Minimum pairwise Jaccard index (the outliers of Figure 6b).
    pub jaccard_min: f64,
}

impl FootprintStudy {
    /// Mean footprint in bytes.
    pub fn mean_bytes(&self) -> f64 {
        if self.sizes.is_empty() {
            0.0
        } else {
            self.sizes.iter().sum::<u64>() as f64 / self.sizes.len() as f64
        }
    }

    /// Smallest and largest per-invocation footprints (Figure 6a's error
    /// bars).
    pub fn range_bytes(&self) -> (u64, u64) {
        (
            self.sizes.iter().copied().min().unwrap_or(0),
            self.sizes.iter().copied().max().unwrap_or(0),
        )
    }
}

/// Runs the §2.5 study: `invocations` traces of `function`, footprint per
/// invocation, pairwise commonality.
pub fn study(function: &crate::SyntheticFunction, invocations: u64) -> FootprintStudy {
    let sets: Vec<BTreeSet<u64>> = (0..invocations)
        .map(|i| instruction_lines(&function.invocation_trace(i)))
        .collect();
    FootprintStudy {
        sizes: sets
            .iter()
            .map(|s| s.len() as u64 * LINE_BYTES as u64)
            .collect(),
        jaccard_mean: mean_pairwise_jaccard(&sets),
        jaccard_min: min_pairwise_jaccard(&sets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FunctionProfile;
    use crate::SyntheticFunction;
    use luke_common::addr::VirtAddr;

    #[test]
    fn lines_deduplicate() {
        let trace = vec![
            Instr::alu(VirtAddr::new(0x1000), 4),
            Instr::alu(VirtAddr::new(0x1004), 4),
            Instr::alu(VirtAddr::new(0x1040), 4),
        ];
        assert_eq!(instruction_lines(&trace).len(), 2);
        assert_eq!(footprint_bytes(&trace), 128);
    }

    #[test]
    fn straddling_instruction_counts_both_lines() {
        let trace = vec![Instr::alu(VirtAddr::new(0x103e), 4)];
        assert_eq!(instruction_lines(&trace).len(), 2);
    }

    #[test]
    fn empty_trace_empty_footprint() {
        assert_eq!(footprint_bytes(&[]), 0);
    }

    #[test]
    fn study_reports_high_commonality() {
        let p = FunctionProfile::named("Auth-G").unwrap().scaled(0.05);
        let f = SyntheticFunction::build(&p);
        let s = study(&f, 6);
        assert_eq!(s.sizes.len(), 6);
        assert!(
            s.jaccard_mean > 0.8,
            "commonality should be high, got {}",
            s.jaccard_mean
        );
        assert!(s.jaccard_min <= s.jaccard_mean);
        let (lo, hi) = s.range_bytes();
        assert!(lo > 0 && lo <= hi);
        assert!(s.mean_bytes() >= lo as f64 && s.mean_bytes() <= hi as f64);
    }

    #[test]
    fn footprint_tracks_profile_scale() {
        let small =
            SyntheticFunction::build(&FunctionProfile::named("Pay-N").unwrap().scaled(0.04));
        let large =
            SyntheticFunction::build(&FunctionProfile::named("Pay-N").unwrap().scaled(0.12));
        let fs = footprint_bytes(&small.invocation_trace(0));
        let fl = footprint_bytes(&large.invocation_trace(0));
        assert!(fl > fs, "larger profile must have larger footprint");
    }
}
