//! Per-invocation trace emission.
//!
//! Walks the canonical visit sequence of a [`CodeLayout`], materializing
//! dynamic [`Instr`]s: dispatcher head → call → procedure blocks → return →
//! dispatcher tail → loop. Per-invocation randomness (seeded by the
//! invocation index) decides optional-group inclusion, internal branch
//! outcomes and operand addresses — everything else is stable across
//! invocations, which is precisely the structure record-and-replay
//! prefetching exploits.

use crate::data_space::DataSpace;
use crate::layout::{Block, CodeLayout, TemplateOp, Visit};
use crate::profile::FunctionProfile;
use luke_common::rng::DetRng;
use sim_cpu::instr::{BranchKind, Instr};

/// Visits in the sweep are locally shuffled within windows of this many
/// entries per invocation: the request-dependent order in which a handler
/// touches its procedures. Content (and therefore the footprint) is
/// stable; fine-grained temporal order is not — which is exactly why
/// order-sensitive stream prefetchers like PIF keep diverging while
/// content-based record-and-replay (Jukebox) does not (§5.5).
pub const SWEEP_SHUFFLE_WINDOW: usize = 8;

/// Emits the dynamic instruction trace of one invocation.
///
/// Deterministic in `(profile.seed, invocation)`. This is
/// [`emit_invocation_chunked`] with one unbounded chunk.
pub fn emit_invocation(
    profile: &FunctionProfile,
    layout: &CodeLayout,
    invocation: u64,
) -> Vec<Instr> {
    let whole = Vec::with_capacity(layout.walk_instr_estimate() as usize);
    emit_invocation_chunked(profile, layout, invocation, usize::MAX, whole, &mut |_| {
        None
    })
    .expect("an unbounded chunk is never handed off")
}

/// Emits the trace of one invocation in chunks of at least `chunk`
/// instructions, filling `first` and then each buffer `hand_off` returns.
///
/// A buffer is handed off at the end of the first procedure visit that
/// brings it to `chunk` instructions, so every chunk ends on a visit
/// boundary. `hand_off` takes the filled buffer and returns the next
/// (empty) one, or `None` to stop the walk there. Returns the last,
/// partly filled buffer when the walk reaches the end, `None` when
/// `hand_off` stopped it. Concatenated, the chunks and the returned tail
/// are exactly [`emit_invocation`]'s trace: the RNG draws do not depend on
/// where the chunks break.
pub fn emit_invocation_chunked(
    profile: &FunctionProfile,
    layout: &CodeLayout,
    invocation: u64,
    chunk: usize,
    first: Vec<Instr>,
    hand_off: &mut dyn FnMut(Vec<Instr>) -> Option<Vec<Instr>>,
) -> Option<Vec<Instr>> {
    let inv_rng = DetRng::new(profile.seed).split(0xE317).split(invocation);
    let included = optional_inclusion(layout, &inv_rng);
    let mut emitter = Emitter {
        rng: inv_rng.split(0xF00D),
        data: DataSpace::new(profile.data_footprint),
        out: first,
        chunk,
        hand_off,
    };

    // Filter optional groups, then shuffle the sweep portion window-wise.
    let sweep_len = layout.sweep_len.min(layout.canonical.len());
    let mut sweep: Vec<&Visit> = layout.canonical[..sweep_len]
        .iter()
        .filter(|v| {
            v.optional_group
                .map(|g| included[g as usize])
                .unwrap_or(true)
        })
        .collect();
    let mut shuffle_rng = inv_rng.split(0x5FF1E);
    for window in sweep.chunks_mut(SWEEP_SHUFFLE_WINDOW) {
        // Fisher–Yates within the window.
        for i in (1..window.len()).rev() {
            let j = shuffle_rng.below(i as u64 + 1) as usize;
            window.swap(i, j);
        }
    }
    // Sweep visits also enter their procedure at a request-dependent
    // block (a rotated visit order): same content, different fine-grained
    // temporal order. Hot-loop visits are stable.
    let mut rotate_rng = inv_rng.split(0x2074);
    for visit in sweep {
        let proc_len = layout.procs[visit.proc].blocks.len();
        let rotation = if rotate_rng.chance(0.5) {
            rotate_rng.below(proc_len as u64) as usize
        } else {
            0
        };
        emitter.emit_visit(layout, visit, rotation);
        emitter.end_visit()?;
    }
    for visit in &layout.canonical[sweep_len..] {
        emitter.emit_visit(layout, visit, 0);
        emitter.end_visit()?;
    }
    Some(emitter.out)
}

/// Per-invocation coin flips for each optional group. Group order is
/// stable, so inclusion of group `g` depends only on `(seed, invocation,
/// g)`.
fn optional_inclusion(layout: &CodeLayout, inv_rng: &DetRng) -> Vec<bool> {
    (0..layout.optional_groups)
        .map(|g| inv_rng.split(0x0917 + g as u64).chance(0.5))
        .collect()
}

struct Emitter<'a> {
    rng: DetRng,
    data: DataSpace,
    out: Vec<Instr>,
    /// Hand `out` off once it holds at least this many instructions.
    chunk: usize,
    hand_off: &'a mut dyn FnMut(Vec<Instr>) -> Option<Vec<Instr>>,
}

/// How a block's terminal transfers control.
#[derive(Clone, Copy, Debug)]
enum Terminal {
    /// Fall through or jump to the next block.
    Jump(luke_common::addr::VirtAddr),
    /// Call into a procedure (pushes the dispatcher-tail continuation).
    Call(luke_common::addr::VirtAddr),
    /// Return to the dispatcher tail.
    Return(luke_common::addr::VirtAddr),
}

impl Emitter<'_> {
    /// Hands `out` off if it has reached a chunk. `None` when `hand_off`
    /// stopped the walk.
    fn end_visit(&mut self) -> Option<()> {
        if self.out.len() >= self.chunk {
            self.out = (self.hand_off)(std::mem::take(&mut self.out))?;
        }
        Some(())
    }

    /// Emits one procedure visit. `rotation` rotates the block visit
    /// order (entering at block `rotation` and wrapping), modelling
    /// request-dependent entry points; content is unchanged.
    fn emit_visit(&mut self, layout: &CodeLayout, visit: &Visit, rotation: usize) {
        let proc = &layout.procs[visit.proc];
        let order: Vec<usize> = (0..proc.blocks.len())
            .map(|i| proc.blocks[(i + rotation) % proc.blocks.len()])
            .collect();
        let first_block = layout.blocks[order[0]].start;
        // Dispatcher head ends in the call.
        self.emit_block(&layout.dispatcher_head, Terminal::Call(first_block));
        // Procedure body.
        for (i, &block_idx) in order.iter().enumerate() {
            let block = &layout.blocks[block_idx];
            let terminal = if i + 1 < order.len() {
                Terminal::Jump(layout.blocks[order[i + 1]].start)
            } else {
                Terminal::Return(layout.dispatcher_tail.start)
            };
            self.emit_block(block, terminal);
        }
        // Dispatcher tail loops back to the head.
        self.emit_block(
            &layout.dispatcher_tail,
            Terminal::Jump(layout.dispatcher_head.start),
        );
    }

    fn emit_block(&mut self, block: &Block, terminal: Terminal) {
        let terminal_pc = block.terminal_pc();
        for t in &block.templates {
            let pc = block.start.offset(t.offset as u64);
            match t.op {
                TemplateOp::Alu => self.out.push(Instr::alu(pc, t.size)),
                TemplateOp::Load(class) => {
                    let addr = self.data.address(class, &mut self.rng);
                    self.out.push(Instr::load(pc, t.size, addr));
                }
                TemplateOp::Store(class) => {
                    let addr = self.data.address(class, &mut self.rng);
                    self.out.push(Instr::store(pc, t.size, addr));
                }
                TemplateOp::CondBranch { taken_probability } => {
                    let taken = self.rng.chance(taken_probability);
                    self.out.push(Instr::branch(
                        pc,
                        t.size,
                        BranchKind::Conditional,
                        taken,
                        terminal_pc,
                    ));
                    if taken {
                        // Skip the rest of the straight-line body.
                        break;
                    }
                }
            }
        }
        // Terminal control transfer.
        match terminal {
            Terminal::Jump(target) => {
                if target == block.end() {
                    // Adjacent block: plain fall-through.
                    self.out.push(Instr::alu(terminal_pc, block.terminal_size));
                } else {
                    self.out.push(Instr::branch(
                        terminal_pc,
                        block.terminal_size,
                        BranchKind::Unconditional,
                        true,
                        target,
                    ));
                }
            }
            Terminal::Call(target) => self.out.push(Instr::branch(
                terminal_pc,
                block.terminal_size,
                BranchKind::Call,
                true,
                target,
            )),
            Terminal::Return(target) => self.out.push(Instr::branch(
                terminal_pc,
                block.terminal_size,
                BranchKind::Return,
                true,
                target,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CodeLayout;
    use crate::profile::FunctionProfile;
    use sim_cpu::instr::InstrKind;

    fn setup(name: &str) -> (FunctionProfile, CodeLayout) {
        let p = FunctionProfile::named(name).expect("suite").scaled(0.05);
        let layout = CodeLayout::build(&p);
        (p, layout)
    }

    #[test]
    fn emission_is_deterministic() {
        let (p, layout) = setup("Auth-G");
        let a = emit_invocation(&p, &layout, 3);
        let b = emit_invocation(&p, &layout, 3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[100], b[100]);
        assert_eq!(a.last(), b.last());
    }

    /// Emits in chunks of `chunk`, returning the chunks in order (the
    /// tail last).
    fn chunks_of(
        p: &FunctionProfile,
        layout: &CodeLayout,
        inv: u64,
        chunk: usize,
    ) -> Vec<Vec<Instr>> {
        let mut chunks = Vec::new();
        let tail = emit_invocation_chunked(p, layout, inv, chunk, Vec::new(), &mut |full| {
            chunks.push(full);
            Some(Vec::new())
        })
        .expect("a sink that never stops lets the walk finish");
        chunks.push(tail);
        chunks
    }

    #[test]
    fn chunked_emission_equals_the_whole_trace() {
        for p in crate::profile::paper_suite() {
            let p = p.scaled(0.05);
            let layout = CodeLayout::build(&p);
            let tail_pc = layout.dispatcher_tail.terminal_pc();
            for inv in 0..3 {
                let whole = emit_invocation(&p, &layout, inv);
                // Offsets just past each visit: the dispatcher tail's
                // terminal closes every visit.
                let visit_ends: std::collections::BTreeSet<usize> = whole
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.pc() == tail_pc)
                    .map(|(k, _)| k + 1)
                    .collect();
                for chunk in [1, 7, 4096, usize::MAX] {
                    let chunks = chunks_of(&p, &layout, inv, chunk);
                    let (tail, full) = chunks.split_last().unwrap();
                    let mut at = 0;
                    for c in full {
                        assert!(c.len() >= chunk, "{} chunk {chunk}: short chunk", p.name);
                        at += c.len();
                        assert!(
                            visit_ends.contains(&at),
                            "{} inv {inv} chunk {chunk}: boundary {at} inside a visit",
                            p.name
                        );
                    }
                    assert!(tail.len() < chunk);
                    let joined: Vec<Instr> = chunks.concat();
                    assert_eq!(joined, whole, "{} inv {inv} chunk {chunk}", p.name);
                }
                assert_eq!(chunks_of(&p, &layout, inv, usize::MAX).len(), 1);
                assert_eq!(
                    chunks_of(&p, &layout, inv, 1).len(),
                    visit_ends.len() + 1,
                    "one chunk per visit, then an empty tail"
                );
            }
        }
    }

    #[test]
    fn a_refusing_sink_stops_the_walk() {
        let (p, layout) = setup("Auth-G");
        let mut handed = 0;
        let tail = emit_invocation_chunked(&p, &layout, 0, 64, Vec::new(), &mut |full| {
            assert!(full.len() >= 64);
            handed += 1;
            None
        });
        assert!(tail.is_none());
        assert_eq!(handed, 1);
    }

    #[test]
    fn different_invocations_differ() {
        let (p, layout) = setup("Auth-G");
        let a = emit_invocation(&p, &layout, 0);
        let b = emit_invocation(&p, &layout, 1);
        assert_ne!(a.len(), b.len(), "optional groups should vary");
    }

    #[test]
    fn instruction_count_near_profile_target() {
        let (p, layout) = setup("Pay-N");
        let trace = emit_invocation(&p, &layout, 0);
        let ratio = trace.len() as f64 / p.instructions as f64;
        assert!(
            (0.5..2.5).contains(&ratio),
            "emitted {} vs target {}",
            trace.len(),
            p.instructions
        );
    }

    #[test]
    fn calls_and_returns_are_paired() {
        let (p, layout) = setup("Fib-G");
        let trace = emit_invocation(&p, &layout, 0);
        let calls = trace
            .iter()
            .filter(|i| {
                matches!(
                    i.kind(),
                    InstrKind::Branch {
                        kind: BranchKind::Call,
                        ..
                    }
                )
            })
            .count();
        let returns = trace
            .iter()
            .filter(|i| {
                matches!(
                    i.kind(),
                    InstrKind::Branch {
                        kind: BranchKind::Return,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(calls, returns);
        assert!(calls > 0);
    }

    #[test]
    fn returns_target_dispatcher_tail() {
        let (p, layout) = setup("Fib-G");
        let trace = emit_invocation(&p, &layout, 0);
        for i in &trace {
            if let InstrKind::Branch {
                kind: BranchKind::Return,
                target,
                ..
            } = i.kind()
            {
                assert_eq!(target, layout.dispatcher_tail.start);
            }
        }
    }

    #[test]
    fn trace_has_realistic_mix() {
        let (p, layout) = setup("Auth-N");
        let trace = emit_invocation(&p, &layout, 0);
        let n = trace.len() as f64;
        let loads = trace
            .iter()
            .filter(|i| matches!(i.kind(), InstrKind::Load(_)))
            .count() as f64;
        let branches = trace
            .iter()
            .filter(|i| matches!(i.kind(), InstrKind::Branch { .. }))
            .count() as f64;
        assert!(
            loads / n > 0.08 && loads / n < 0.35,
            "load frac {}",
            loads / n
        );
        assert!(
            branches / n > 0.05 && branches / n < 0.40,
            "branch frac {}",
            branches / n
        );
    }

    #[test]
    fn taken_cond_branch_skips_to_terminal() {
        let (p, layout) = setup("Fib-P");
        let trace = emit_invocation(&p, &layout, 0);
        // After any taken conditional, the next instruction must be at the
        // branch's target (the block terminal).
        let mut checked = 0;
        for pair in trace.windows(2) {
            if let InstrKind::Branch {
                kind: BranchKind::Conditional,
                taken: true,
                target,
            } = pair[0].kind()
            {
                assert_eq!(pair[1].pc(), target);
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one taken internal branch");
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every non-taken-branch instruction is followed by its
        // fall-through; every taken branch by its target.
        let (p, layout) = setup("User-G");
        let trace = emit_invocation(&p, &layout, 2);
        for pair in trace.windows(2) {
            let (cur, next) = (&pair[0], &pair[1]);
            match cur.kind() {
                InstrKind::Branch {
                    taken: true,
                    target,
                    ..
                } => {
                    assert_eq!(next.pc(), target, "taken branch at {}", cur.pc());
                }
                _ => {
                    assert_eq!(next.pc(), cur.fallthrough(), "fall-through at {}", cur.pc());
                }
            }
        }
    }
}
