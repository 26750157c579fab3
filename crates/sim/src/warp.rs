//! Per-warp architectural state and the min-PC SIMT grouping.

use peakperf_sass::{Pred, Reg};

/// Sentinel PC for exited lanes.
pub const EXITED: u32 = u32::MAX;

/// Events produced by stepping a warp (see `exec::step_warp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// One warp instruction was executed.
    Executed {
        /// Instruction index that was executed.
        pc: u32,
        /// Lanes that truly executed (after divergence and guards).
        exec_mask: u32,
    },
    /// The warp reached a `BAR.SYNC` and is waiting for the block.
    AtBarrier {
        /// Instruction index of the barrier.
        pc: u32,
    },
    /// All lanes have exited, the last at the `EXIT` at `pc` ([`EXITED`]
    /// when the warp had exited before the step).
    Exited { pc: u32 },
}

/// The architectural state of one warp: 32 lanes × (PC, 63 registers + RZ,
/// 7 predicates + PT), stored register-major — one 32-lane row per
/// register, one lane mask per predicate — so that a warp instruction reads
/// and writes contiguous rows.
///
/// Divergence is handled with *min-PC scheduling*: at each step the warp
/// executes the group of lanes whose PC is minimal. For structured control
/// flow this reconverges exactly where the hardware's SSY/reconvergence
/// stack would, and it is robust for arbitrary (even unstructured) branch
/// patterns.
///
/// Three invariants let the hot paths skip a per-lane test: the RZ row is
/// all zeros, the PT mask is all ones, and `running`/`group` equal what a
/// scan of `pcs` finds ([`WarpState::current_group`] asserts the last in
/// debug builds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpState {
    /// Warp index within its block.
    pub warp_id: u32,
    pcs: [u32; 32],
    /// Lanes that exist (blocks whose size is not a multiple of 32 leave
    /// the tail lanes dead).
    live: u32,
    /// Lanes that have not exited.
    running: u32,
    /// The min-PC group `(pc, mask)` of the running lanes.
    group: Option<(u32, u32)>,
    regs: Box<[[u32; 32]; 64]>,
    preds: [u32; 8],
}

/// A [`WarpState`] without its register values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Control(u32, [u32; 32], u32, u32, Option<(u32, u32)>, [u32; 8]);

impl WarpState {
    /// A fresh warp with `lanes` live lanes, all registers zero, all PCs 0.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 32.
    pub fn new(warp_id: u32, lanes: u32) -> WarpState {
        assert!((1..=32).contains(&lanes), "warp must have 1..=32 lanes");
        let live = u32::MAX >> (32 - lanes);
        let mut preds = [0; 8];
        preds[usize::from(Pred::PT.index())] = u32::MAX;
        WarpState {
            warp_id,
            pcs: std::array::from_fn(|lane| if live >> lane & 1 != 0 { 0 } else { EXITED }),
            live,
            running: live,
            group: Some((0, live)),
            regs: Box::new([[0; 32]; 64]),
            preds,
        }
    }

    /// Bitmask of live (created) lanes.
    pub fn live_mask(&self) -> u32 {
        self.live
    }

    /// Bitmask of lanes that have not exited.
    pub fn running_mask(&self) -> u32 {
        self.running
    }

    /// Whether every lane has exited.
    pub fn done(&self) -> bool {
        self.running == 0
    }

    /// The current min-PC group: the smallest PC among running lanes and
    /// the mask of lanes at it. `None` when the warp is done.
    pub fn current_group(&self) -> Option<(u32, u32)> {
        debug_assert_eq!((self.running, self.group), self.scan());
        self.group
    }

    /// The running mask and min-PC group, from the lane PCs.
    fn scan(&self) -> (u32, Option<(u32, u32)>) {
        let min_pc = self.pcs.iter().copied().min().unwrap_or(EXITED);
        let lanes_at = |pc| (0..32).fold(0, |m, lane| m | u32::from(self.pcs[lane] == pc) << lane);
        let running = !lanes_at(EXITED);
        (running, (running != 0).then(|| (min_pc, lanes_at(min_pc))))
    }

    /// Everything but the register values: the warp, its lanes, PCs and
    /// predicates.
    pub(crate) fn control(&self) -> Control {
        Control(
            self.warp_id,
            self.pcs,
            self.live,
            self.running,
            self.group,
            self.preds,
        )
    }

    /// The PCs of the running lanes.
    pub(crate) fn lane_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.pcs.iter().copied().filter(|&pc| pc != EXITED)
    }

    /// Read a register in one lane (RZ reads as zero).
    pub fn reg(&self, lane: usize, r: Reg) -> u32 {
        self.row(r)[lane]
    }

    /// Write a register in one lane (writes to RZ are discarded).
    pub fn set_reg(&mut self, lane: usize, r: Reg, value: u32) {
        if !r.is_rz() {
            self.regs[usize::from(r.index())][lane] = value;
        }
    }

    /// A register in all 32 lanes (the RZ row is zeros).
    pub(crate) fn row(&self, r: Reg) -> &[u32; 32] {
        &self.regs[usize::from(r.index())]
    }

    /// Write `values` to a register in the lanes of `mask` (writes to RZ
    /// are discarded).
    pub(crate) fn set_row(&mut self, r: Reg, mask: u32, values: &[u32; 32]) {
        if r.is_rz() {
            return;
        }
        let row = &mut self.regs[usize::from(r.index())];
        if mask == u32::MAX {
            *row = *values;
        } else {
            for (lane, (old, &new)) in row.iter_mut().zip(values).enumerate() {
                if mask >> lane & 1 != 0 {
                    *old = new;
                }
            }
        }
    }

    /// Read a predicate in one lane (PT reads as true).
    pub fn pred(&self, lane: usize, p: Pred) -> bool {
        self.pred_mask(p) >> lane & 1 != 0
    }

    /// Write a predicate in one lane (writes to PT are discarded).
    pub fn set_pred(&mut self, lane: usize, p: Pred, value: bool) {
        self.set_pred_mask(p, 1 << lane, u32::from(value) << lane);
    }

    /// The lanes in which a predicate holds (PT: all of them).
    pub(crate) fn pred_mask(&self, p: Pred) -> u32 {
        self.preds[usize::from(p.index())]
    }

    /// Write `values` to a predicate in the lanes of `mask` (writes to PT
    /// are discarded).
    pub(crate) fn set_pred_mask(&mut self, p: Pred, mask: u32, values: u32) {
        if !p.is_pt() {
            let bits = &mut self.preds[usize::from(p.index())];
            *bits = *bits & !mask | values & mask;
        }
    }

    /// Advance the PC of every lane in `mask` to `pc + 1`.
    pub(crate) fn advance(&mut self, mask: u32, pc: u32) {
        self.jump(mask, pc + 1);
    }

    /// Redirect lanes in `mask` (running ones) to `target`.
    pub(crate) fn jump(&mut self, mask: u32, target: u32) {
        debug_assert_eq!(mask & !self.running, 0, "only running lanes move");
        if mask == 0 {
            return;
        }
        if mask == u32::MAX {
            self.pcs = [target; 32];
        } else {
            for (lane, pc) in self.pcs.iter_mut().enumerate() {
                if mask >> lane & 1 != 0 {
                    *pc = target;
                }
            }
        }
        if mask == self.running && target != EXITED {
            // The whole warp moved together and stays converged.
            self.group = Some((target, mask));
        } else {
            (self.running, self.group) = self.scan();
        }
    }

    /// Mark lanes in `mask` as exited.
    pub(crate) fn exit_lanes(&mut self, mask: u32) {
        self.jump(mask, EXITED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_warp_groups_all_lanes_at_zero() {
        let w = WarpState::new(0, 32);
        assert_eq!(w.current_group(), Some((0, u32::MAX)));
        assert!(!w.done());
    }

    #[test]
    fn partial_warp_masks_dead_lanes() {
        let w = WarpState::new(0, 5);
        assert_eq!(w.live_mask(), 0b11111);
        assert_eq!(w.current_group(), Some((0, 0b11111)));
    }

    #[test]
    fn min_pc_selects_laggards() {
        let mut w = WarpState::new(0, 4);
        w.jump(0b0011, 10);
        w.jump(0b1100, 3);
        assert_eq!(w.current_group(), Some((3, 0b1100)));
        w.advance(0b1100, 3);
        assert_eq!(w.current_group(), Some((4, 0b1100)));
        w.jump(0b1100, 10);
        // Reconverged.
        assert_eq!(w.current_group(), Some((10, 0b1111)));
    }

    #[test]
    fn rz_and_pt_behave() {
        let mut w = WarpState::new(0, 1);
        w.set_reg(0, Reg::RZ, 42);
        assert_eq!(w.reg(0, Reg::RZ), 0);
        w.set_row(Reg::RZ, u32::MAX, &[42; 32]);
        assert_eq!(w.row(Reg::RZ), &[0; 32]);
        assert!(w.pred(0, Pred::PT));
        w.set_pred(0, Pred::PT, false);
        assert!(w.pred(0, Pred::PT));
        w.set_pred_mask(Pred::PT, u32::MAX, 0);
        assert_eq!(w.pred_mask(Pred::PT), u32::MAX);
        w.set_pred(0, Pred::p(2), true);
        assert!(w.pred(0, Pred::p(2)));
        w.set_pred(0, Pred::p(2), false);
        assert!(!w.pred(0, Pred::p(2)));
    }

    #[test]
    fn masked_row_write_leaves_other_lanes() {
        let mut w = WarpState::new(0, 32);
        w.set_row(Reg::r(5), u32::MAX, &[7; 32]);
        w.set_row(Reg::r(5), 0b1010, &[9; 32]);
        assert_eq!(w.row(Reg::r(5))[..5], [7, 9, 7, 9, 7]);
        w.set_pred_mask(Pred::p(3), 0b0110, 0b1111);
        assert_eq!(w.pred_mask(Pred::p(3)), 0b0110);
    }

    #[test]
    fn exit_empties_warp() {
        let mut w = WarpState::new(0, 2);
        w.exit_lanes(0b11);
        assert!(w.done());
        assert_eq!(w.current_group(), None);
    }
}
