//! A complete synthetic function: profile + built layout.

use crate::layout::CodeLayout;
use crate::profile::FunctionProfile;
use crate::trace::{emit_invocation, emit_invocation_chunked};
use sim_cpu::instr::Instr;

/// A synthetic serverless function ready to generate invocation traces.
///
/// # Examples
///
/// ```
/// use workloads::{FunctionProfile, SyntheticFunction};
///
/// let profile = FunctionProfile::named("Fib-G").expect("suite").scaled(0.05);
/// let f = SyntheticFunction::build(&profile);
/// assert_eq!(f.name(), "Fib-G");
/// let t0 = f.invocation_trace(0);
/// let t1 = f.invocation_trace(1);
/// assert!(!t0.is_empty() && !t1.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticFunction {
    profile: FunctionProfile,
    layout: CodeLayout,
}

impl SyntheticFunction {
    /// Builds the function's static layout from its profile.
    pub fn build(profile: &FunctionProfile) -> Self {
        SyntheticFunction {
            profile: profile.clone(),
            layout: CodeLayout::build(profile),
        }
    }

    /// The function's abbreviation (e.g. `"Auth-G"`).
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// The profile this function was built from.
    pub fn profile(&self) -> &FunctionProfile {
        &self.profile
    }

    /// The static code layout.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Generates the dynamic instruction trace of invocation `invocation`.
    /// Deterministic: the same index always produces the same trace.
    pub fn invocation_trace(&self, invocation: u64) -> Vec<Instr> {
        emit_invocation(&self.profile, &self.layout, invocation)
    }

    /// Generates the same trace in chunks of at least `chunk`
    /// instructions, each ending on a procedure visit; see
    /// [`emit_invocation_chunked`] for how `first`, `hand_off` and the
    /// returned tail work.
    pub fn invocation_trace_chunked(
        &self,
        invocation: u64,
        chunk: usize,
        first: Vec<Instr>,
        hand_off: &mut dyn FnMut(Vec<Instr>) -> Option<Vec<Instr>>,
    ) -> Option<Vec<Instr>> {
        emit_invocation_chunked(
            &self.profile,
            &self.layout,
            invocation,
            chunk,
            first,
            hand_off,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::paper_suite;

    #[test]
    fn build_exposes_profile_and_layout() {
        let p = FunctionProfile::named("Geo-G").unwrap().scaled(0.05);
        let f = SyntheticFunction::build(&p);
        assert_eq!(f.profile().name, "Geo-G");
        assert!(!f.layout().blocks.is_empty());
    }

    #[test]
    fn whole_suite_generates_traces() {
        for p in paper_suite() {
            let f = SyntheticFunction::build(&p.scaled(0.02));
            let t = f.invocation_trace(0);
            assert!(t.len() > 1000, "{}: only {} instrs", f.name(), t.len());
        }
    }
}
