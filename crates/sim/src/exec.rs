//! Functional execution of warp instructions (shared by the functional and
//! timing engines).

use peakperf_sass::{Instruction, MemSpace, MemWidth, Op, Operand, Reg, SpecialReg};

use crate::warp::{StepEvent, WarpState, EXITED};
use crate::{Dim3, GlobalMemory, SimError};

/// Identification of a block within the grid plus launch geometry, used to
/// materialize special registers.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// Block index.
    pub ctaid: Dim3,
    /// Block dimensions.
    pub ntid: Dim3,
    /// Grid dimensions.
    pub nctaid: Dim3,
}

/// Mutable memory context for a block's warps.
pub struct MemCtx<'a> {
    /// Global memory of the GPU.
    pub global: &'a mut GlobalMemory,
    /// The block's shared memory.
    pub shared: &'a mut [u8],
    /// Per-thread local (spill) memory for the whole block:
    /// `local_bytes` bytes per thread, indexed by linear thread id.
    pub local: &'a mut [u8],
    /// Per-thread local size in bytes.
    pub local_bytes: u32,
    /// Constant bank 0 contents from [`peakperf_sass::PARAM_BASE`] onward
    /// (the kernel parameters).
    pub params: &'a [u32],
}

/// Addresses touched by one memory warp-instruction (used by the timing
/// model for coalescing and bank-conflict analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Address space.
    pub space: MemSpace,
    /// Access width.
    pub width: MemWidth,
    /// Whether this was a store.
    pub store: bool,
    addrs: [u32; 32],
    lanes: usize,
}

impl MemAccess {
    /// The access of the lanes in `mask`, whose addresses `addrs` holds.
    fn new(
        space: MemSpace,
        width: MemWidth,
        store: bool,
        mask: u32,
        addrs: &[u32; 32],
    ) -> MemAccess {
        let (mut packed, mut n) = (*addrs, 32);
        if mask != u32::MAX {
            // Branch-free packing: every lane writes at the next free slot
            // (at most its own index), and only a lane of `mask` claims it,
            // so the unclaimed tail stays zero.
            (packed, n) = ([0; 32], 0);
            for (l, &addr) in addrs.iter().enumerate() {
                let claimed = mask >> l & 1;
                packed[n & 31] = addr & claimed.wrapping_neg();
                n += claimed as usize;
            }
        }
        MemAccess {
            space,
            width,
            store,
            addrs: packed,
            lanes: n,
        }
    }

    /// Per-lane base byte addresses (active lanes only).
    pub fn addrs(&self) -> &[u32] {
        &self.addrs[..self.lanes]
    }
}

/// The outcome of executing one warp instruction.
#[derive(Debug, Default)]
pub struct ExecOutcome {
    /// Memory access record, if the instruction touched memory.
    pub mem: Option<MemAccess>,
}

fn lane_linear_tid(warp_id: u32, lane: usize) -> u32 {
    warp_id * 32 + lane as u32
}

fn special_value(ctx: &BlockCtx, warp_id: u32, lane: usize, sr: SpecialReg) -> u32 {
    let t = lane_linear_tid(warp_id, lane);
    let nx = ctx.ntid.x.max(1);
    let ny = ctx.ntid.y.max(1);
    match sr {
        SpecialReg::TidX => t % nx,
        SpecialReg::TidY => (t / nx) % ny,
        SpecialReg::TidZ => t / (nx * ny),
        SpecialReg::CtaidX => ctx.ctaid.x,
        SpecialReg::CtaidY => ctx.ctaid.y,
        SpecialReg::CtaidZ => ctx.ctaid.z,
        SpecialReg::NtidX => ctx.ntid.x,
        SpecialReg::NtidY => ctx.ntid.y,
        SpecialReg::NtidZ => ctx.ntid.z,
        SpecialReg::NctaidX => ctx.nctaid.x,
        SpecialReg::NctaidY => ctx.nctaid.y,
        SpecialReg::LaneId => lane as u32,
    }
}

fn read_const(mem: &MemCtx<'_>, block: &BlockCtx, offset: u32) -> Result<u32, SimError> {
    use peakperf_sass::PARAM_BASE;
    if offset < PARAM_BASE {
        // The sub-0x20 area mirrors launch geometry, as on Fermi.
        return Ok(match offset {
            0x0 => block.ntid.x,
            0x4 => block.ntid.y,
            0x8 => block.ntid.z,
            0xc => block.nctaid.x,
            0x10 => block.nctaid.y,
            _ => 0,
        });
    }
    let idx = ((offset - PARAM_BASE) / 4) as usize;
    mem.params.get(idx).copied().ok_or(SimError::OutOfBounds {
        space: "const",
        addr: u64::from(offset),
        size: u64::from(PARAM_BASE) + 4 * mem.params.len() as u64,
    })
}

/// An operand in all 32 lanes: a register's row, or `splat` filled with
/// the immediate or constant. A constant is read — and can fault — only
/// when some lane executes.
fn operand_row<'a>(
    warp: &'a WarpState,
    op: Operand,
    splat: &'a mut [u32; 32],
    exec_mask: u32,
    mem: &MemCtx<'_>,
    block: &BlockCtx,
) -> Result<&'a [u32; 32], SimError> {
    *splat = match op {
        Operand::Reg(r) => return Ok(warp.row(r)),
        Operand::Imm(v) => [v as u32; 32],
        Operand::Const { .. } if exec_mask == 0 => [0; 32],
        Operand::Const { offset, .. } => [read_const(mem, block, offset)?; 32],
    };
    Ok(splat)
}

/// `f` of every lane, in one straight loop. The arms that use it have no
/// side effects, and [`WarpState::set_row`] keeps only the executing lanes.
#[inline(always)]
fn map_lanes(f: impl Fn(usize) -> u32) -> [u32; 32] {
    std::array::from_fn(f)
}

/// `a[l] · b[l] + c[l]` rounded once, over 32 lanes of `f32` bits, bit
/// for bit `f32::mul_add`, without a libm `fmaf` call per lane on hosts
/// that lack an FMA instruction.
///
/// An `f32` product is exact in `f64`, so `s = a·b + c` in `f64` is
/// rounded once, and `s as f32` is the fused result unless rounding twice
/// can differ: `s` lies on an `f32` midpoint (its low 29 mantissa bits are
/// `0x1000_0000`), or `|s|` is outside `[2⁻¹²⁶, 2¹²⁸)` and not an exact
/// zero (subnormal, overflow, Inf, NaN). Only those lanes are redone with
/// `mul_add`, so it alone defines the rounding. The first loop has no
/// branch and packs into SSE2.
#[inline]
pub fn ffma_lanes(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32]) -> [u32; 32] {
    const TWO_POW_128: f64 = f64::from_bits((1023 + 128) << 52);
    let f = |x: u32| f64::from(f32::from_bits(x));
    let wide = |l: usize| f(a[l]) * f(b[l]) + f(c[l]);
    let ambiguous = |s: f64| {
        let midpoint = s.to_bits() as u32 & 0x1fff_ffff == 0x1000_0000;
        let abs = s.abs();
        // At least 2¹²⁸, or NaN, in one compare.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let huge = !(abs < TWO_POW_128);
        midpoint | (abs < f64::from(f32::MIN_POSITIVE)) & (s != 0.0) | huge
    };
    let mut out = [0; 32];
    let mut any = false;
    for (l, o) in out.iter_mut().enumerate() {
        let s = wide(l);
        *o = (s as f32).to_bits();
        any |= ambiguous(s);
    }
    if any {
        let f = f32::from_bits;
        for (l, o) in out.iter_mut().enumerate() {
            if ambiguous(wide(l)) {
                *o = f(a[l]).mul_add(f(b[l]), f(c[l])).to_bits();
            }
        }
    }
    out
}

/// The indices of the set bits of a mask (of registers, or of lanes
/// widened), ascending.
#[inline]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let idx = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            idx
        })
    })
}

/// The fault of a lane's `bytes`-wide access at `base` that does not fit
/// a space of `size` bytes, with how many of the lane's leading words move
/// before it. A window (shared, local) is checked for the whole width at
/// once, global memory word by word; global address 0 is unmapped.
fn lane_fault(space: MemSpace, base: u32, bytes: u32, size: u64) -> (u32, SimError) {
    let global = space == MemSpace::Global;
    let space = match space {
        MemSpace::Global => "global",
        MemSpace::Shared => "shared",
        MemSpace::Local => "local",
    };
    let addr = u64::from(base);
    if base & (bytes - 1) != 0 {
        let align = bytes;
        return (0, SimError::Misaligned { space, addr, align });
    }
    let words = if global && base != 0 {
        size.saturating_sub(addr) / 4
    } else {
        0
    };
    let addr = addr + 4 * words;
    (words as u32, SimError::OutOfBounds { space, addr, size })
}

/// Move the first `words` words of every lane in `mask` between `window`,
/// where lane `l`'s access starts at byte `at[l]`, and the data registers
/// from `data` on, one register row per word. Lane by lane: the aligned
/// accesses of one instruction coincide or do not overlap, so the order
/// does not show.
fn move_rows(
    warp: &mut WarpState,
    window: &mut [u8],
    at: &[usize; 32],
    data: Reg,
    store: bool,
    mask: u32,
    words: u32,
) {
    let words = words as usize;
    if words == 0 {
        return;
    }
    // `offset_checked` keeps this total on unvalidated kernels: a slot
    // at/past RZ stores zero (`ST [addr], RZ` is the store-zero idiom)
    // and discards a loaded word.
    let regs: [_; 4] = std::array::from_fn(|w| data.offset_checked(w as u8));
    let mut loaded = [[0; 32]; 4];
    for l in bits(mask.into()) {
        let (bytes, _) = window[at[l]..at[l] + 4 * words].as_chunks_mut::<4>();
        for (w, word) in bytes.iter_mut().enumerate() {
            if store {
                *word = regs[w].map_or(0, |r| warp.row(r)[l]).to_le_bytes();
            } else {
                loaded[w][l] = u32::from_le_bytes(*word);
            }
        }
    }
    if !store {
        for (&r, row) in regs[..words].iter().zip(&loaded) {
            if let Some(r) = r {
                warp.set_row(r, mask, row);
            }
        }
    }
}

/// Execute one non-control instruction for the lanes in `exec_mask`.
///
/// Control flow (`BRA`, `EXIT`, `BAR`) is handled by [`step_warp`]; passing
/// such an instruction here is a no-op.
///
/// # Errors
///
/// Propagates memory faults.
#[inline]
pub fn execute_op(
    inst: &Instruction,
    warp: &mut WarpState,
    exec_mask: u32,
    mem: &mut MemCtx<'_>,
    block: &BlockCtx,
) -> Result<ExecOutcome, SimError> {
    let f = f32::from_bits;
    let mut splat = [0; 32];
    macro_rules! operand {
        ($op:expr) => {
            operand_row(warp, $op, &mut splat, exec_mask, mem, block)?
        };
    }
    // Register-writing instructions yield their destination and its new
    // row; the write happens once, below.
    let (dst, out) = match inst.op {
        Op::Nop | Op::Exit | Op::Bra { .. } | Op::Bar => return Ok(ExecOutcome::default()),
        Op::Mov { dst, src } => (dst, *operand!(src)),
        Op::Mov32i { dst, imm } => (dst, [imm; 32]),
        Op::S2r { dst, sr } => {
            let special = |l| special_value(block, warp.warp_id, l, sr);
            (dst, map_lanes(special))
        }
        Op::Fadd { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| (f(a[l]) + f(b[l])).to_bits()))
        }
        Op::Fmul { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| (f(a[l]) * f(b[l])).to_bits()))
        }
        Op::Ffma { dst, a, b, c } => {
            let (a, b, c) = (warp.row(a), operand!(b), warp.row(c));
            let out = ffma_lanes(a, b, c);
            // Held to `f32::mul_add` in debug builds; a release loop that
            // only asserts would still walk the lanes.
            if cfg!(debug_assertions) {
                for l in bits(exec_mask.into()) {
                    let fused = f(a[l]).mul_add(f(b[l]), f(c[l]));
                    assert_eq!(out[l], fused.to_bits(), "FFMA lane {l}");
                }
            }
            (dst, out)
        }
        Op::Iadd { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| a[l].wrapping_add(b[l])))
        }
        Op::Imul { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| a[l].wrapping_mul(b[l])))
        }
        Op::Imad { dst, a, b, c } => {
            let (a, b, c) = (warp.row(a), operand!(b), warp.row(c));
            let mad = |l: usize| a[l].wrapping_mul(b[l]).wrapping_add(c[l]);
            (dst, map_lanes(mad))
        }
        Op::Iscadd { dst, a, b, shift } => {
            let (a, b) = (warp.row(a), operand!(b));
            let scadd = |l: usize| a[l].wrapping_shl(u32::from(shift)).wrapping_add(b[l]);
            (dst, map_lanes(scadd))
        }
        Op::Shl { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| a[l] << (b[l] & 31)))
        }
        Op::Shr { dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| a[l] >> (b[l] & 31)))
        }
        Op::Lop { op, dst, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            (dst, map_lanes(|l| op.eval(a[l], b[l])))
        }
        Op::Isetp { p, cmp, a, b } => {
            let (a, b) = (warp.row(a), operand!(b));
            let holds = |l: usize| u32::from(cmp.eval(a[l] as i32, b[l] as i32));
            let holds = (0..32).fold(0, |mask, l| mask | holds(l) << l);
            warp.set_pred_mask(p, exec_mask, holds);
            return Ok(ExecOutcome::default());
        }
        Op::Ldc { dst, bank, offset } => (dst, *operand!(Operand::Const { bank, offset })),
        Op::Ld {
            space,
            width,
            dst: data,
            addr,
            offset,
        }
        | Op::St {
            space,
            width,
            src: data,
            addr,
            offset,
        } => {
            let store = matches!(inst.op, Op::St { .. });
            let (bytes, global) = (width.bytes(), space == MemSpace::Global);
            // Local memory is `local_bytes` per thread, indexed by thread.
            let (window, local): (&mut [u8], _) = match space {
                MemSpace::Global => (mem.global.bytes_mut(), None),
                MemSpace::Shared => (mem.shared, None),
                MemSpace::Local => (mem.local, Some(mem.local_bytes as usize)),
            };
            let (size, stride) = local.map_or((window.len(), 0), |n| (n, n));
            // Every lane's address, its first byte in `window` and whether
            // it faults, branch-free over all 32 lanes before any data
            // moves. Copied: a load may overwrite its own address register.
            let bases = *warp.row(addr);
            let addrs = map_lanes(|l| bases[l].wrapping_add(offset as u32));
            let at = std::array::from_fn(|l| {
                lane_linear_tid(warp.warp_id, l) as usize * stride + addrs[l] as usize
            });
            let fits = |a: u32| {
                (a & (bytes - 1) == 0)
                    & (u64::from(a) + u64::from(bytes) <= size as u64)
                    & (a != 0 || !global)
            };
            let fit = (0..32).fold(0, |m, l| m | u32::from(fits(addrs[l])) << l);
            let faulting = exec_mask & !fit;
            if faulting == 0 {
                move_rows(warp, window, &at, data, store, exec_mask, width.words());
                let access = MemAccess::new(space, width, store, exec_mask, &addrs);
                return Ok(ExecOutcome { mem: Some(access) });
            }
            // What moving lane by lane leaves behind: every word of the
            // lanes below the first faulting one, and its words before the
            // fault.
            let lane = faulting.trailing_zeros() as usize;
            let (words, error) = lane_fault(space, addrs[lane], bytes, size as u64);
            let below = exec_mask & ((1 << lane) - 1);
            move_rows(warp, window, &at, data, store, below, width.words());
            move_rows(warp, window, &at, data, store, 1 << lane, words);
            return Err(error);
        }
    };
    warp.set_row(dst, exec_mask, &out);
    Ok(ExecOutcome::default())
}

/// Result of [`step_warp`]: the event plus the executed instruction's
/// outcome (memory record) when an instruction actually executed.
#[derive(Debug)]
pub struct StepResult {
    /// What happened.
    pub event: StepEvent,
    /// Memory access of the executed instruction, if any.
    pub mem: Option<MemAccess>,
}

/// Execute one min-PC group step of a warp.
///
/// Returns [`StepEvent::AtBarrier`] *without advancing* when the group
/// reaches a barrier (the caller releases it with [`release_barrier`] once
/// every warp in the block has arrived).
///
/// # Errors
///
/// Propagates memory faults; reports [`SimError::DivergentBarrier`] when a
/// barrier is reached by a diverged warp and [`SimError::RanOffEnd`] when
/// the PC leaves the instruction stream.
#[inline]
pub fn step_warp(
    code: &[Instruction],
    warp: &mut WarpState,
    mem: &mut MemCtx<'_>,
    block: &BlockCtx,
) -> Result<StepResult, SimError> {
    let Some((pc, mask)) = warp.current_group() else {
        return Ok(StepResult {
            event: StepEvent::Exited { pc: EXITED },
            mem: None,
        });
    };
    let inst = code.get(pc as usize).ok_or(SimError::RanOffEnd)?;

    // Guard evaluation: lanes in the group whose predicate holds.
    let exec_mask = match inst.pred {
        None => mask,
        Some(p) => mask & (warp.pred_mask(p) ^ if inst.pred_neg { u32::MAX } else { 0 }),
    };

    match inst.op {
        Op::Bar => {
            if exec_mask != warp.running_mask() {
                return Err(SimError::DivergentBarrier { pc });
            }
            Ok(StepResult {
                event: StepEvent::AtBarrier { pc },
                mem: None,
            })
        }
        Op::Exit => {
            warp.exit_lanes(exec_mask);
            warp.advance(mask & !exec_mask, pc);
            let event = if warp.done() {
                StepEvent::Exited { pc }
            } else {
                StepEvent::Executed { pc, exec_mask }
            };
            Ok(StepResult { event, mem: None })
        }
        Op::Bra { target } => {
            warp.jump(exec_mask, target);
            warp.advance(mask & !exec_mask, pc);
            Ok(StepResult {
                event: StepEvent::Executed { pc, exec_mask },
                mem: None,
            })
        }
        _ => {
            let outcome = execute_op(inst, warp, exec_mask, mem, block)?;
            warp.advance(mask, pc);
            Ok(StepResult {
                event: StepEvent::Executed { pc, exec_mask },
                mem: outcome.mem,
            })
        }
    }
}

/// Release a warp waiting at the barrier at `pc`: advance every running
/// lane past it.
pub fn release_barrier(warp: &mut WarpState, pc: u32) {
    let mask = warp.running_mask();
    warp.advance(mask, pc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_sass::{CmpOp, Pred, Reg};

    fn ctx_1d(threads: u32) -> BlockCtx {
        BlockCtx {
            ctaid: Dim3::new_1d(0),
            ntid: Dim3::new_1d(threads),
            nctaid: Dim3::new_1d(1),
        }
    }

    fn empty_mem(global: &mut GlobalMemory) -> MemCtx<'_> {
        MemCtx {
            global,
            shared: &mut [],
            local: &mut [],
            local_bytes: 0,
            params: &[],
        }
    }

    #[test]
    fn tid_mapping_2d() {
        let block = BlockCtx {
            ctaid: Dim3::new_2d(2, 3),
            ntid: Dim3::new_2d(16, 16),
            nctaid: Dim3::new_2d(4, 4),
        };
        // Thread 35 = warp 1, lane 3 => tid.x = 3, tid.y = 2.
        assert_eq!(special_value(&block, 1, 3, SpecialReg::TidX), 3);
        assert_eq!(special_value(&block, 1, 3, SpecialReg::TidY), 2);
        assert_eq!(special_value(&block, 1, 3, SpecialReg::CtaidY), 3);
        assert_eq!(special_value(&block, 0, 7, SpecialReg::LaneId), 7);
    }

    #[test]
    fn ffma_is_fused() {
        let mut warp = WarpState::new(0, 1);
        let mut global = GlobalMemory::new();
        let mut mem = empty_mem(&mut global);
        let block = ctx_1d(32);
        warp.set_reg(0, Reg::r(1), 3.0f32.to_bits());
        warp.set_reg(0, Reg::r(2), 4.0f32.to_bits());
        warp.set_reg(0, Reg::r(3), 5.0f32.to_bits());
        let inst = Instruction::new(Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: peakperf_sass::Operand::reg(2),
            c: Reg::r(3),
        });
        execute_op(&inst, &mut warp, 1, &mut mem, &block).unwrap();
        assert_eq!(f32::from_bits(warp.reg(0, Reg::r(0))), 17.0);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // if (tid < 2) r1 = 10 else r1 = 20; r2 = r1 + 1
        let code = vec![
            Instruction::new(Op::S2r {
                dst: Reg::r(0),
                sr: SpecialReg::TidX,
            }),
            Instruction::new(Op::Isetp {
                p: Pred::p(0),
                cmp: CmpOp::Lt,
                a: Reg::r(0),
                b: peakperf_sass::Operand::Imm(2),
            }),
            Instruction::predicated(Pred::p(0), true, Op::Bra { target: 5 }),
            Instruction::new(Op::Mov32i {
                dst: Reg::r(1),
                imm: 20,
            }),
            Instruction::new(Op::Bra { target: 6 }),
            Instruction::new(Op::Mov32i {
                dst: Reg::r(1),
                imm: 10,
            }),
            Instruction::new(Op::Iadd {
                dst: Reg::r(2),
                a: Reg::r(1),
                b: peakperf_sass::Operand::Imm(1),
            }),
            Instruction::new(Op::Exit),
        ];
        let mut warp = WarpState::new(0, 4);
        let mut global = GlobalMemory::new();
        let mut mem = empty_mem(&mut global);
        let block = ctx_1d(4);
        for _ in 0..32 {
            let r = step_warp(&code, &mut warp, &mut mem, &block).unwrap();
            if matches!(r.event, StepEvent::Exited { .. }) {
                break;
            }
        }
        assert!(warp.done());
        // The guard is `@!P0 BRA 5` with P0 = (tid < 2): lanes 2 and 3 take
        // the branch to the r1=10 path; lanes 0 and 1 fall through to r1=20.
        assert_eq!(warp.reg(0, Reg::r(2)), 21);
        assert_eq!(warp.reg(1, Reg::r(2)), 21);
        assert_eq!(warp.reg(2, Reg::r(2)), 11);
        assert_eq!(warp.reg(3, Reg::r(2)), 11);
    }

    #[test]
    fn guarded_lanes_skip_execution() {
        let mut warp = WarpState::new(0, 2);
        warp.set_pred(0, Pred::p(1), true);
        let code = vec![
            Instruction::predicated(
                Pred::p(1),
                false,
                Op::Mov32i {
                    dst: Reg::r(0),
                    imm: 7,
                },
            ),
            Instruction::new(Op::Exit),
        ];
        let mut global = GlobalMemory::new();
        let mut mem = empty_mem(&mut global);
        let block = ctx_1d(2);
        let r = step_warp(&code, &mut warp, &mut mem, &block).unwrap();
        assert_eq!(
            r.event,
            StepEvent::Executed {
                pc: 0,
                exec_mask: 0b01
            }
        );
        assert_eq!(warp.reg(0, Reg::r(0)), 7);
        assert_eq!(warp.reg(1, Reg::r(0)), 0);
    }

    #[test]
    fn shared_memory_round_trip() {
        let mut warp = WarpState::new(0, 2);
        let mut global = GlobalMemory::new();
        let mut shared = vec![0u8; 256];
        let mut mem = MemCtx {
            global: &mut global,
            shared: &mut shared,
            local: &mut [],
            local_bytes: 0,
            params: &[],
        };
        let block = ctx_1d(2);
        warp.set_reg(0, Reg::r(1), 0); // lane 0 -> addr 0
        warp.set_reg(1, Reg::r(1), 8); // lane 1 -> addr 8
        warp.set_reg(0, Reg::r(2), 111);
        warp.set_reg(1, Reg::r(2), 222);
        let st = Instruction::new(Op::St {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            src: Reg::r(2),
            addr: Reg::r(1),
            offset: 4,
        });
        let out = execute_op(&st, &mut warp, 0b11, &mut mem, &block).unwrap();
        assert_eq!(out.mem.as_ref().unwrap().addrs(), [4, 12]);
        let ld = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            dst: Reg::r(3),
            addr: Reg::r(1),
            offset: 4,
        });
        execute_op(&ld, &mut warp, 0b11, &mut mem, &block).unwrap();
        assert_eq!(warp.reg(0, Reg::r(3)), 111);
        assert_eq!(warp.reg(1, Reg::r(3)), 222);
    }

    #[test]
    fn shared_oob_faults() {
        let mut warp = WarpState::new(0, 1);
        let mut global = GlobalMemory::new();
        let mut shared = vec![0u8; 16];
        let mut mem = MemCtx {
            global: &mut global,
            shared: &mut shared,
            local: &mut [],
            local_bytes: 0,
            params: &[],
        };
        let block = ctx_1d(1);
        warp.set_reg(0, Reg::r(1), 16);
        let ld = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            dst: Reg::r(3),
            addr: Reg::r(1),
            offset: 0,
        });
        assert!(execute_op(&ld, &mut warp, 1, &mut mem, &block).is_err());
    }

    #[test]
    fn a_wide_global_fault_keeps_the_words_before_it() {
        // Memory ends mid-access: lane 2's first word is the last one in
        // bounds, its second is past the end. Lane 3 is in bounds but comes
        // after the fault.
        let bases = [112, 120, 128, 104];
        let fault = SimError::OutOfBounds {
            space: "global",
            addr: 132,
            size: 132,
        };
        let run = |op, global: &mut GlobalMemory, warp: &mut WarpState| {
            let mut mem = empty_mem(global);
            execute_op(&Instruction::new(op), warp, 0b1111, &mut mem, &ctx_1d(4))
        };
        let (space, width, addr, offset) = (MemSpace::Global, MemWidth::B64, Reg::r(1), 0);

        let mut global = GlobalMemory::with_size(132);
        for a in (4..132).step_by(4) {
            global.write_u32(a, 10 * a).unwrap();
        }
        let mut warp = WarpState::new(0, 4);
        for (l, &base) in bases.iter().enumerate() {
            warp.set_reg(l, addr, base);
            warp.set_reg(l, Reg::r(4), 7);
            warp.set_reg(l, Reg::r(5), 7);
        }
        let dst = Reg::r(4);
        let ld = Op::Ld {
            space,
            width,
            dst,
            addr,
            offset,
        };
        assert_eq!(run(ld, &mut global, &mut warp).unwrap_err(), fault);
        let loaded = |l| [warp.reg(l, Reg::r(4)), warp.reg(l, Reg::r(5))];
        assert_eq!(loaded(0), [1120, 1160]);
        assert_eq!(loaded(1), [1200, 1240]);
        assert_eq!(loaded(2), [1280, 7]);
        assert_eq!(loaded(3), [7, 7]);

        let mut global = GlobalMemory::with_size(132);
        let mut warp = WarpState::new(0, 4);
        for (l, &base) in bases.iter().enumerate() {
            warp.set_reg(l, addr, base);
            warp.set_reg(l, Reg::r(4), 100 + l as u32);
            warp.set_reg(l, Reg::r(5), 200 + l as u32);
        }
        let src = Reg::r(4);
        let st = Op::St {
            space,
            width,
            src,
            addr,
            offset,
        };
        assert_eq!(run(st, &mut global, &mut warp).unwrap_err(), fault);
        let stored = |a| global.read_u32(a).unwrap();
        assert_eq!([stored(112), stored(116)], [100, 200]);
        assert_eq!([stored(120), stored(124)], [101, 201]);
        assert_eq!(stored(128), 102);
        assert_eq!([stored(104), stored(108)], [0, 0]);
    }

    #[test]
    fn divergent_barrier_detected() {
        // Lane 0 branches PAST the barrier (to just before EXIT), so when
        // the other lane reaches BAR.SYNC the warp is genuinely diverged.
        // (A branch *to* the barrier reconverges there under min-PC
        // scheduling and is legal — covered by the func barrier tests.)
        let code = vec![
            Instruction::new(Op::S2r {
                dst: Reg::r(0),
                sr: SpecialReg::TidX,
            }),
            Instruction::new(Op::Isetp {
                p: Pred::p(0),
                cmp: CmpOp::Lt,
                a: Reg::r(0),
                b: peakperf_sass::Operand::Imm(1),
            }),
            Instruction::predicated(Pred::p(0), false, Op::Bra { target: 5 }),
            Instruction::new(Op::Nop),
            Instruction::new(Op::Bar),
            Instruction::new(Op::Nop),
            Instruction::new(Op::Exit),
        ];
        let mut warp = WarpState::new(0, 2);
        let mut global = GlobalMemory::new();
        let mut mem = empty_mem(&mut global);
        let block = ctx_1d(2);
        let err = loop {
            match step_warp(&code, &mut warp, &mut mem, &block) {
                Ok(r) if matches!(r.event, StepEvent::Exited { .. }) => {
                    panic!("should have diverged")
                }
                Ok(r) if matches!(r.event, StepEvent::AtBarrier { .. }) => {
                    panic!("barrier reached by a diverged warp without error")
                }
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SimError::DivergentBarrier { .. }));
    }

    #[test]
    fn local_memory_is_per_thread() {
        let mut warp = WarpState::new(0, 2);
        let mut global = GlobalMemory::new();
        let mut local = vec![0u8; 2 * 8];
        let mut mem = MemCtx {
            global: &mut global,
            shared: &mut [],
            local: &mut local,
            local_bytes: 8,
            params: &[],
        };
        let block = ctx_1d(2);
        warp.set_reg(0, Reg::r(2), 5);
        warp.set_reg(1, Reg::r(2), 9);
        // Both lanes store to local offset 0; values must not collide.
        let st = Instruction::new(Op::St {
            space: MemSpace::Local,
            width: MemWidth::B32,
            src: Reg::r(2),
            addr: Reg::RZ,
            offset: 0,
        });
        execute_op(&st, &mut warp, 0b11, &mut mem, &block).unwrap();
        let ld = Instruction::new(Op::Ld {
            space: MemSpace::Local,
            width: MemWidth::B32,
            dst: Reg::r(3),
            addr: Reg::RZ,
            offset: 0,
        });
        execute_op(&ld, &mut warp, 0b11, &mut mem, &block).unwrap();
        assert_eq!(warp.reg(0, Reg::r(3)), 5);
        assert_eq!(warp.reg(1, Reg::r(3)), 9);
    }

    #[test]
    fn params_visible_via_const() {
        let mut warp = WarpState::new(0, 1);
        let mut global = GlobalMemory::new();
        let params = [42u32, 77];
        let mut mem = MemCtx {
            global: &mut global,
            shared: &mut [],
            local: &mut [],
            local_bytes: 0,
            params: &params,
        };
        let block = ctx_1d(1);
        let inst = Instruction::new(Op::Ldc {
            dst: Reg::r(0),
            bank: 0,
            offset: peakperf_sass::PARAM_BASE + 4,
        });
        execute_op(&inst, &mut warp, 1, &mut mem, &block).unwrap();
        assert_eq!(warp.reg(0, Reg::r(0)), 77);
        // ntid.x readable below PARAM_BASE
        let inst = Instruction::new(Op::Ldc {
            dst: Reg::r(1),
            bank: 0,
            offset: 0,
        });
        execute_op(&inst, &mut warp, 1, &mut mem, &block).unwrap();
        assert_eq!(warp.reg(0, Reg::r(1)), 1);
    }
}
