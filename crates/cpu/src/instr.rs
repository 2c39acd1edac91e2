//! The instruction-trace representation consumed by the timing model.
//!
//! Workload generators emit a stream of [`Instr`] records: program counter,
//! encoded size (x86 instructions are variable-length) and an operation
//! class, packed into 16 bytes. The timing model only needs the classes
//! that have distinct timing behaviour: plain ALU work, loads, stores,
//! and branches with their resolved direction and target.

use luke_common::addr::{VirtAddr, VA_BITS};
use std::fmt;

/// The control-flow class of a branch instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Unconditional,
    /// Direct call (pushes a return address).
    Call,
    /// Return (pops the return-address stack).
    Return,
    /// Indirect jump or call (target known only at execute).
    Indirect,
}

/// Operation class of one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstrKind {
    /// Arithmetic/logic or other non-memory, non-branch work.
    Alu,
    /// Memory load from the given virtual address.
    Load(VirtAddr),
    /// Memory store to the given virtual address.
    Store(VirtAddr),
    /// Branch with resolved direction and target.
    Branch {
        /// The branch's control-flow class.
        kind: BranchKind,
        /// Whether the branch is taken in this dynamic instance.
        taken: bool,
        /// Resolved target (meaningful when taken).
        target: VirtAddr,
    },
}

/// One dynamic instruction, packed into two 64-bit words.
///
/// Word 0 holds the program counter in bits 0–47, the encoded size in
/// bits 48–55 and an op code in bits 56–63; word 1 holds the load/store
/// address or the branch target (0 for ALU work). Every address the
/// workloads emit lies below 2^48 ([`VA_BITS`]), so the packing loses
/// nothing, and a paper-scale trace of ~0.9 M instructions takes 16 bytes
/// per record instead of the 32 an `(pc, size, InstrKind)` struct needs.
/// [`Instr::kind`] decodes the op code back into an [`InstrKind`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    word: u64,
    operand: u64,
}

// A paper-scale trace is the largest buffer the cycle model allocates;
// growing the record would double it again.
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

const PC_MASK: u64 = (1 << VA_BITS) - 1;
const SIZE_SHIFT: u32 = VA_BITS;
const OP_SHIFT: u32 = 56;

const OP_ALU: u8 = 0;
const OP_LOAD: u8 = 1;
const OP_STORE: u8 = 2;
/// Branch op codes are `OP_BRANCH | kind << 1 | taken`.
const OP_BRANCH: u8 = 0x10;

impl BranchKind {
    /// Inverse of `kind as u8` (declaration order).
    const fn from_code(code: u8) -> Self {
        match code {
            0 => BranchKind::Conditional,
            1 => BranchKind::Unconditional,
            2 => BranchKind::Call,
            3 => BranchKind::Return,
            _ => BranchKind::Indirect,
        }
    }
}

impl Instr {
    fn pack(pc: VirtAddr, size: u8, op: u8, operand: VirtAddr) -> Self {
        debug_assert!(pc.as_u64() <= PC_MASK, "pc {pc} exceeds {VA_BITS} bits");
        Instr {
            word: pc.as_u64() | (size as u64) << SIZE_SHIFT | (op as u64) << OP_SHIFT,
            operand: operand.as_u64(),
        }
    }

    /// An ALU instruction at `pc`.
    pub fn alu(pc: VirtAddr, size: u8) -> Self {
        Self::pack(pc, size, OP_ALU, VirtAddr::new(0))
    }

    /// A load at `pc` reading `addr`.
    pub fn load(pc: VirtAddr, size: u8, addr: VirtAddr) -> Self {
        Self::pack(pc, size, OP_LOAD, addr)
    }

    /// A store at `pc` writing `addr`.
    pub fn store(pc: VirtAddr, size: u8, addr: VirtAddr) -> Self {
        Self::pack(pc, size, OP_STORE, addr)
    }

    /// A branch at `pc`.
    pub fn branch(pc: VirtAddr, size: u8, kind: BranchKind, taken: bool, target: VirtAddr) -> Self {
        let op = OP_BRANCH | (kind as u8) << 1 | taken as u8;
        Self::pack(pc, size, op, target)
    }

    /// Virtual program counter.
    #[inline]
    pub fn pc(&self) -> VirtAddr {
        VirtAddr::new(self.word & PC_MASK)
    }

    /// Encoded length in bytes (1–15 on x86).
    #[inline]
    pub fn size(&self) -> u8 {
        (self.word >> SIZE_SHIFT) as u8
    }

    #[inline]
    fn op(&self) -> u8 {
        (self.word >> OP_SHIFT) as u8
    }

    /// Operation class.
    #[inline]
    pub fn kind(&self) -> InstrKind {
        let operand = VirtAddr::new(self.operand);
        match self.op() {
            OP_ALU => InstrKind::Alu,
            OP_LOAD => InstrKind::Load(operand),
            OP_STORE => InstrKind::Store(operand),
            op => InstrKind::Branch {
                kind: BranchKind::from_code((op & !OP_BRANCH) >> 1),
                taken: op & 1 != 0,
                target: operand,
            },
        }
    }

    /// Whether this is a taken branch.
    pub fn is_taken_branch(&self) -> bool {
        let op = self.op();
        op & OP_BRANCH != 0 && op & 1 != 0
    }

    /// The address of the byte after this instruction (fall-through PC).
    pub fn fallthrough(&self) -> VirtAddr {
        self.pc().offset(self.size() as u64)
    }
}

impl fmt::Debug for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instr")
            .field("pc", &self.pc())
            .field("size", &self.size())
            .field("kind", &self.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let pc = VirtAddr::new(0x100);
        assert_eq!(Instr::alu(pc, 4).kind(), InstrKind::Alu);
        assert!(matches!(
            Instr::load(pc, 4, VirtAddr::new(8)).kind(),
            InstrKind::Load(_)
        ));
        assert!(matches!(
            Instr::store(pc, 4, VirtAddr::new(8)).kind(),
            InstrKind::Store(_)
        ));
    }

    #[test]
    fn taken_branch_detection() {
        let pc = VirtAddr::new(0x100);
        let t = VirtAddr::new(0x200);
        assert!(Instr::branch(pc, 2, BranchKind::Conditional, true, t).is_taken_branch());
        assert!(!Instr::branch(pc, 2, BranchKind::Conditional, false, t).is_taken_branch());
        assert!(!Instr::alu(pc, 4).is_taken_branch());
    }

    #[test]
    fn fallthrough_adds_size() {
        let i = Instr::alu(VirtAddr::new(0x100), 5);
        assert_eq!(i.fallthrough(), VirtAddr::new(0x105));
    }

    const BRANCH_KINDS: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::Indirect,
    ];

    #[test]
    fn packing_round_trips_every_field() {
        let pcs = [0, 1, 1 << 47, (1 << 48) - 1];
        let operands = [0, 0x7fff_f000_0040, u64::MAX];
        for pc in pcs.map(VirtAddr::new) {
            for size in 1..=15u8 {
                for addr in operands.map(VirtAddr::new) {
                    let mut kinds = vec![
                        InstrKind::Alu,
                        InstrKind::Load(addr),
                        InstrKind::Store(addr),
                    ];
                    for kind in BRANCH_KINDS {
                        for taken in [false, true] {
                            kinds.push(InstrKind::Branch {
                                kind,
                                taken,
                                target: addr,
                            });
                        }
                    }
                    for kind in kinds {
                        let i = match kind {
                            InstrKind::Alu => Instr::alu(pc, size),
                            InstrKind::Load(a) => Instr::load(pc, size, a),
                            InstrKind::Store(a) => Instr::store(pc, size, a),
                            InstrKind::Branch {
                                kind,
                                taken,
                                target,
                            } => Instr::branch(pc, size, kind, taken, target),
                        };
                        assert_eq!((i.pc(), i.size(), i.kind()), (pc, size, kind));
                        assert_eq!(
                            i.is_taken_branch(),
                            matches!(kind, InstrKind::Branch { taken: true, .. })
                        );
                        assert_eq!(i.fallthrough(), pc.offset(size as u64));
                    }
                }
            }
        }
    }

    #[test]
    fn debug_prints_the_decoded_fields() {
        let i = Instr::branch(
            VirtAddr::new(0x40),
            2,
            BranchKind::Call,
            true,
            VirtAddr::new(0x80),
        );
        assert_eq!(
            format!("{i:?}"),
            "Instr { pc: VirtAddr(0x40), size: 2, kind: Branch { kind: Call, taken: true, target: VirtAddr(0x80) } }"
        );
    }
}
