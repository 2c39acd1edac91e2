//! Branch prediction: a gshare + bimodal hybrid with a chooser, a
//! direct-mapped BTB and a return-address stack.
//!
//! This approximates Table 1's "LTAGE (16K gShare 4K bimodal) + BTB 8K
//! entries". The predictor's role in the reproduction is behavioural:
//! after an interleaving flush it is **cold**, so lukewarm invocations pay
//! extra bad-speculation cycles until it re-trains (visible in Figure 2's
//! interleaved bars), and BTB-directed prefetching (§6) would be useless —
//! one of the paper's arguments for record-and-replay.

use crate::config::CoreConfig;
use crate::instr::BranchKind;
use luke_common::addr::VirtAddr;

/// The outcome of consulting the predictor for one dynamic branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted direction matched the actual direction.
    pub direction_correct: bool,
    /// For a taken branch, the front-end could produce the target without
    /// a bubble (BTB/RAS hit with the right target).
    pub target_known: bool,
}

impl Prediction {
    /// Whether this dynamic branch mispredicted (pipeline flush).
    pub fn mispredicted(&self) -> bool {
        !self.direction_correct
    }
}

/// BTB tag of an empty entry. Never a branch pc: virtual addresses have
/// [`VA_BITS`](luke_common::addr::VA_BITS) = 48 meaningful bits.
const NO_BRANCH: u64 = u64::MAX;

/// Saturating 2-bit counter helpers.
fn counter_update(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn counter_taken(counter: u8) -> bool {
    counter >= 2
}

/// The slot of `key` in a table of `1 << bits` entries: the low bits, the
/// same as `key % table.len()` for a power-of-two length.
fn table_index<T>(key: u64, table: &[T]) -> usize {
    debug_assert!(table.len().is_power_of_two());
    (key & (table.len() as u64 - 1)) as usize
}

/// The branch-prediction unit.
#[derive(Clone, Debug)]
pub struct BranchUnit {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    /// BTB tags (the branch pc, [`NO_BRANCH`] if empty) and targets, as
    /// two columns so a flush only clears the tags.
    btb_pcs: Vec<u64>,
    btb_targets: Vec<u64>,
    ras: Vec<VirtAddr>,
    ras_depth: usize,
    history: u64,
    predicts: u64,
    mispredicts: u64,
}

impl BranchUnit {
    /// Creates a cold predictor sized from the core configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        BranchUnit {
            gshare: vec![1; 1 << cfg.gshare_bits],
            bimodal: vec![1; 1 << cfg.bimodal_bits],
            chooser: vec![2; 1 << cfg.chooser_bits],
            btb_pcs: vec![NO_BRANCH; 1 << cfg.btb_bits],
            btb_targets: vec![0; 1 << cfg.btb_bits],
            ras: Vec::with_capacity(cfg.ras_depth),
            ras_depth: cfg.ras_depth,
            history: 0,
            predicts: 0,
            mispredicts: 0,
        }
    }

    /// Predicts and trains on one dynamic branch, returning what the
    /// front-end experienced.
    pub fn predict_and_update(
        &mut self,
        pc: VirtAddr,
        kind: BranchKind,
        taken: bool,
        target: VirtAddr,
        fallthrough: VirtAddr,
    ) -> Prediction {
        self.predicts += 1;
        let prediction = match kind {
            BranchKind::Conditional => self.predict_conditional(pc, taken, target),
            BranchKind::Unconditional | BranchKind::Call => {
                // Direction always taken and known; target needs the BTB.
                let target_known = self.btb_lookup(pc) == Some(target);
                self.btb_install(pc, target);
                Prediction {
                    direction_correct: true,
                    target_known,
                }
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                Prediction {
                    direction_correct: predicted == Some(target),
                    target_known: predicted == Some(target),
                }
            }
            BranchKind::Indirect => {
                let predicted = self.btb_lookup(pc);
                self.btb_install(pc, target);
                Prediction {
                    direction_correct: predicted == Some(target),
                    target_known: predicted == Some(target),
                }
            }
        };
        if kind == BranchKind::Call {
            if self.ras.len() == self.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(fallthrough);
        }
        if prediction.mispredicted() {
            self.mispredicts += 1;
        }
        prediction
    }

    fn predict_conditional(&mut self, pc: VirtAddr, taken: bool, target: VirtAddr) -> Prediction {
        let pc_bits = pc.as_u64() >> 1;
        let g_idx = table_index(pc_bits ^ self.history, &self.gshare);
        let b_idx = table_index(pc_bits, &self.bimodal);
        let c_idx = table_index(pc_bits, &self.chooser);

        let g_pred = counter_taken(self.gshare[g_idx]);
        let b_pred = counter_taken(self.bimodal[b_idx]);
        let use_gshare = counter_taken(self.chooser[c_idx]);
        let predicted_taken = if use_gshare { g_pred } else { b_pred };

        // Train: chooser moves toward the component that was right.
        if g_pred != b_pred {
            counter_update(&mut self.chooser[c_idx], g_pred == taken);
        }
        counter_update(&mut self.gshare[g_idx], taken);
        counter_update(&mut self.bimodal[b_idx], taken);
        self.history = (self.history << 1) | taken as u64;

        let direction_correct = predicted_taken == taken;
        let target_known = if taken {
            let known = self.btb_lookup(pc) == Some(target);
            self.btb_install(pc, target);
            known
        } else {
            true // fall-through needs no target
        };
        Prediction {
            direction_correct,
            target_known,
        }
    }

    fn btb_index(&self, pc: VirtAddr) -> usize {
        table_index(pc.as_u64() >> 1, &self.btb_pcs)
    }

    fn btb_lookup(&self, pc: VirtAddr) -> Option<VirtAddr> {
        let idx = self.btb_index(pc);
        (self.btb_pcs[idx] == pc.as_u64()).then(|| VirtAddr::new(self.btb_targets[idx]))
    }

    fn btb_install(&mut self, pc: VirtAddr, target: VirtAddr) {
        debug_assert_ne!(pc.as_u64(), NO_BRANCH, "pc collides with the empty BTB tag");
        let idx = self.btb_index(pc);
        self.btb_pcs[idx] = pc.as_u64();
        self.btb_targets[idx] = target.as_u64();
    }

    /// Clears all predictor state (the interleaving flush).
    pub fn flush(&mut self) {
        self.gshare.fill(1);
        self.bimodal.fill(1);
        self.chooser.fill(2);
        self.btb_pcs.fill(NO_BRANCH);
        self.ras.clear();
        self.history = 0;
    }

    /// (predictions, mispredictions) since construction.
    pub fn counts(&self) -> (u64, u64) {
        (self.predicts, self.mispredicts)
    }

    /// Misprediction ratio over all predicted branches.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.predicts == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.predicts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchUnit {
        BranchUnit::new(&CoreConfig::skylake_like())
    }

    fn pc(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    #[test]
    fn learns_an_always_taken_branch() {
        let mut bu = unit();
        let target = pc(0x2000);
        // First encounters may mispredict; after warm-up they must not.
        for _ in 0..10 {
            bu.predict_and_update(pc(0x100), BranchKind::Conditional, true, target, pc(0x102));
        }
        let p = bu.predict_and_update(pc(0x100), BranchKind::Conditional, true, target, pc(0x102));
        assert!(p.direction_correct);
        assert!(p.target_known);
    }

    #[test]
    fn learns_a_never_taken_branch() {
        let mut bu = unit();
        for _ in 0..10 {
            bu.predict_and_update(
                pc(0x300),
                BranchKind::Conditional,
                false,
                pc(0x900),
                pc(0x302),
            );
        }
        let p = bu.predict_and_update(
            pc(0x300),
            BranchKind::Conditional,
            false,
            pc(0x900),
            pc(0x302),
        );
        assert!(p.direction_correct);
        assert!(p.target_known, "not-taken branches need no target");
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut bu = unit();
        // Period-2 pattern: taken, not-taken, ... After warm-up gshare's
        // history-based table should track it.
        let mut wrong_late = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let p = bu.predict_and_update(
                pc(0x500),
                BranchKind::Conditional,
                taken,
                pc(0x600),
                pc(0x502),
            );
            if i >= 100 && p.mispredicted() {
                wrong_late += 1;
            }
        }
        assert!(wrong_late <= 2, "late mispredicts: {wrong_late}");
    }

    #[test]
    fn unconditional_first_sight_has_unknown_target() {
        let mut bu = unit();
        let p = bu.predict_and_update(
            pc(0x700),
            BranchKind::Unconditional,
            true,
            pc(0x1700),
            pc(0x705),
        );
        assert!(p.direction_correct);
        assert!(!p.target_known);
        let p = bu.predict_and_update(
            pc(0x700),
            BranchKind::Unconditional,
            true,
            pc(0x1700),
            pc(0x705),
        );
        assert!(p.target_known);
    }

    #[test]
    fn call_return_pairs_via_ras() {
        let mut bu = unit();
        let call_pc = pc(0x100);
        let callee = pc(0x4000);
        let ret_pc = pc(0x4010);
        let ret_target = pc(0x105); // call fallthrough
        bu.predict_and_update(call_pc, BranchKind::Call, true, callee, ret_target);
        let p = bu.predict_and_update(ret_pc, BranchKind::Return, true, ret_target, pc(0x4012));
        assert!(p.direction_correct, "RAS should predict the return");
    }

    #[test]
    fn return_without_call_mispredicts() {
        let mut bu = unit();
        let p = bu.predict_and_update(pc(0x900), BranchKind::Return, true, pc(0x100), pc(0x902));
        assert!(p.mispredicted());
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let cfg = CoreConfig {
            ras_depth: 2,
            ..CoreConfig::skylake_like()
        };
        let mut bu = BranchUnit::new(&cfg);
        for i in 0..3u64 {
            bu.predict_and_update(
                pc(0x100 + i * 0x10),
                BranchKind::Call,
                true,
                pc(0x1000),
                pc(0x105 + i * 0x10),
            );
        }
        // Pop back: two most recent returns predict, the third (dropped)
        // does not.
        assert!(
            bu.predict_and_update(pc(0x2000), BranchKind::Return, true, pc(0x125), pc(0x2002))
                .direction_correct
        );
        assert!(
            bu.predict_and_update(pc(0x2010), BranchKind::Return, true, pc(0x115), pc(0x2012))
                .direction_correct
        );
        assert!(
            !bu.predict_and_update(pc(0x2020), BranchKind::Return, true, pc(0x105), pc(0x2022))
                .direction_correct
        );
    }

    #[test]
    fn indirect_learns_stable_target() {
        let mut bu = unit();
        let p1 =
            bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x3000), pc(0x802));
        assert!(p1.mispredicted());
        let p2 =
            bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x3000), pc(0x802));
        assert!(p2.direction_correct);
    }

    #[test]
    fn indirect_mispredicts_when_target_changes() {
        let mut bu = unit();
        bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x3000), pc(0x802));
        bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x3000), pc(0x802));
        // A different target (virtual dispatch to another callee) must
        // mispredict, then retrain.
        let p = bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x5000), pc(0x802));
        assert!(p.mispredicted());
        let p = bu.predict_and_update(pc(0x800), BranchKind::Indirect, true, pc(0x5000), pc(0x802));
        assert!(p.direction_correct);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut bu = unit();
        for _ in 0..10 {
            bu.predict_and_update(
                pc(0x700),
                BranchKind::Unconditional,
                true,
                pc(0x1700),
                pc(0x705),
            );
        }
        bu.flush();
        let p = bu.predict_and_update(
            pc(0x700),
            BranchKind::Unconditional,
            true,
            pc(0x1700),
            pc(0x705),
        );
        assert!(!p.target_known, "BTB must be cold after flush");
    }

    #[test]
    fn counts_and_ratio() {
        let mut bu = unit();
        for _ in 0..4 {
            bu.predict_and_update(
                pc(0x100),
                BranchKind::Conditional,
                true,
                pc(0x200),
                pc(0x102),
            );
        }
        let (predicts, mispredicts) = bu.counts();
        assert_eq!(predicts, 4);
        assert!(mispredicts <= 2);
        assert!(bu.mispredict_ratio() <= 0.5);
    }
}
