//! Programmatic kernel construction.
//!
//! The kernel generators in `peakperf-kernels` build SGEMM and
//! microbenchmark kernels instruction by instruction; this builder provides
//! labels with back-patching, per-instruction control notation, and
//! automatic register counting.

use std::collections::HashMap;

use peakperf_arch::Generation;

use crate::ctl::CtlInfo;
use crate::op::{CmpOp, LogicOp, MemSpace, MemWidth, SpecialReg};
use crate::{Instruction, Kernel, Op, Operand, Pred, Reg, SassError};

/// Operations for code that edits a kernel after it was built.
impl Op {
    /// `BAR.SYNC`.
    pub fn bar() -> Op {
        Op::Bar
    }

    /// `BRA target`, to an absolute instruction index.
    pub fn bra(target: u32) -> Op {
        Op::Bra { target }
    }
}

/// A forward-referencable branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incremental builder for a [`Kernel`].
///
/// # Example
///
/// ```
/// use peakperf_sass::{Generation, KernelBuilder, Op, Operand, Reg, Pred, CmpOp};
///
/// let mut b = KernelBuilder::new("count", Generation::Fermi);
/// b.mov32i(Reg::r(0), 8);
/// let top = b.label_here();
/// b.iadd(Reg::r(0), Reg::r(0), Operand::Imm(-1));
/// b.isetp(Pred::p(0), CmpOp::Gt, Reg::r(0), Operand::Imm(0));
/// b.bra_if(Pred::p(0), false, top);
/// b.exit();
/// let kernel = b.finish()?;
/// assert_eq!(kernel.code.len(), 5);
/// # Ok::<(), peakperf_sass::SassError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    generation: Generation,
    kernel: Kernel,
    ctl: Vec<CtlInfo>,
    pending_pred: Option<(Pred, bool)>,
    pending_ctl: Option<CtlInfo>,
    labels: Vec<Option<u32>>,
    fixups: HashMap<usize, Label>,
}

impl KernelBuilder {
    /// Start building a kernel for the given generation.
    pub fn new(name: impl Into<String>, generation: Generation) -> KernelBuilder {
        KernelBuilder {
            generation,
            kernel: Kernel::new(name),
            ctl: Vec::new(),
            pending_pred: None,
            pending_ctl: None,
            labels: Vec::new(),
            fixups: HashMap::new(),
        }
    }

    /// Target generation of the kernel under construction.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Declare static shared memory for the block.
    pub fn shared_bytes(&mut self, bytes: u32) -> &mut Self {
        self.kernel.shared_bytes = bytes;
        self
    }

    /// Declare per-thread local (spill) memory.
    pub fn local_bytes(&mut self, bytes: u32) -> &mut Self {
        self.kernel.local_bytes = bytes;
        self
    }

    /// Declare the next kernel parameter and return its constant-bank
    /// operand.
    pub fn param(&mut self, name: impl Into<String>) -> Operand {
        let offset = self.kernel.add_param(name);
        Operand::Const { bank: 0, offset }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.kernel.code.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.kernel.code.is_empty()
    }

    /// Create an unbound label for a forward branch.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.kernel.code.len() as u32);
    }

    /// Create a label bound to the current position (loop heads).
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Predicate the *next* emitted instruction with `@pred` (or `@!pred`).
    pub fn with_pred(&mut self, pred: Pred, negated: bool) -> &mut Self {
        self.pending_pred = Some((pred, negated));
        self
    }

    /// Attach control notation to the *next* emitted instruction.
    pub fn with_ctl(&mut self, ctl: CtlInfo) -> &mut Self {
        self.pending_ctl = Some(ctl);
        self
    }

    /// Emit a raw operation.
    pub fn push(&mut self, op: Op) -> &mut Self {
        let (pred, pred_neg) = match self.pending_pred.take() {
            Some((p, n)) => (Some(p), n),
            None => (None, false),
        };
        self.kernel.code.push(Instruction { pred, pred_neg, op });
        self.ctl
            .push(self.pending_ctl.take().unwrap_or(CtlInfo::NONE));
        self
    }

    // ---- convenience emitters -------------------------------------------

    /// `NOP`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Op::Nop)
    }

    /// `EXIT`.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Op::Exit)
    }

    /// `BAR.SYNC`.
    pub fn bar(&mut self) -> &mut Self {
        self.push(Op::Bar)
    }

    /// Unconditional branch to `label`.
    pub fn bra(&mut self, label: Label) -> &mut Self {
        self.fixups.insert(self.kernel.code.len(), label);
        self.push(Op::bra(0))
    }

    /// Conditional branch: `@P BRA label` (or `@!P`).
    pub fn bra_if(&mut self, pred: Pred, negated: bool, label: Label) -> &mut Self {
        self.with_pred(pred, negated);
        self.bra(label)
    }

    /// `MOV dst, src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.push(Op::Mov {
            dst,
            src: src.into(),
        })
    }

    /// `MOV32I dst, imm`.
    pub fn mov32i(&mut self, dst: Reg, imm: u32) -> &mut Self {
        self.push(Op::Mov32i { dst, imm })
    }

    /// `MOV32I dst, float_bits(v)`.
    pub fn mov_f32(&mut self, dst: Reg, v: f32) -> &mut Self {
        self.mov32i(dst, v.to_bits())
    }

    /// `S2R dst, sr`.
    pub fn s2r(&mut self, dst: Reg, sr: SpecialReg) -> &mut Self {
        self.push(Op::S2r { dst, sr })
    }

    /// `FMUL dst, a, b`.
    pub fn fmul(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Fmul {
            dst,
            a,
            b: b.into(),
        })
    }

    /// `FFMA dst, a, b, c`.
    pub fn ffma(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>, c: Reg) -> &mut Self {
        self.push(Op::Ffma {
            dst,
            a,
            b: b.into(),
            c,
        })
    }

    /// `IADD dst, a, b`.
    pub fn iadd(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Iadd {
            dst,
            a,
            b: b.into(),
        })
    }

    /// `IMUL dst, a, b`.
    pub fn imul(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Imul {
            dst,
            a,
            b: b.into(),
        })
    }

    /// `IMAD dst, a, b, c`.
    pub fn imad(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>, c: Reg) -> &mut Self {
        self.push(Op::Imad {
            dst,
            a,
            b: b.into(),
            c,
        })
    }

    /// `ISCADD dst, a, b, shift` (`dst = (a << shift) + b`).
    pub fn iscadd(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>, shift: u8) -> &mut Self {
        self.push(Op::Iscadd {
            dst,
            a,
            b: b.into(),
            shift,
        })
    }

    /// `SHL dst, a, b`.
    pub fn shl(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Shl {
            dst,
            a,
            b: b.into(),
        })
    }

    /// `SHR dst, a, b`.
    pub fn shr(&mut self, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Shr {
            dst,
            a,
            b: b.into(),
        })
    }

    /// `LOP.op dst, a, b`.
    pub fn lop(&mut self, op: LogicOp, dst: Reg, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Lop {
            op,
            dst,
            a,
            b: b.into(),
        })
    }

    /// `ISETP.cmp p, a, b`.
    pub fn isetp(&mut self, p: Pred, cmp: CmpOp, a: Reg, b: impl Into<Operand>) -> &mut Self {
        self.push(Op::Isetp {
            p,
            cmp,
            a,
            b: b.into(),
        })
    }

    /// Load: `LD/LDS/LDL[.width] dst, [addr+offset]`.
    pub fn ld(
        &mut self,
        space: MemSpace,
        width: MemWidth,
        dst: Reg,
        addr: Reg,
        offset: i32,
    ) -> &mut Self {
        self.push(Op::Ld {
            space,
            width,
            dst,
            addr,
            offset,
        })
    }

    /// Store: `ST/STS/STL[.width] [addr+offset], src`.
    pub fn st(
        &mut self,
        space: MemSpace,
        width: MemWidth,
        src: Reg,
        addr: Reg,
        offset: i32,
    ) -> &mut Self {
        self.push(Op::St {
            space,
            width,
            src,
            addr,
            offset,
        })
    }

    /// `LDC dst, c[bank][offset]`.
    pub fn ldc(&mut self, dst: Reg, bank: u8, offset: u32) -> &mut Self {
        self.push(Op::Ldc { dst, bank, offset })
    }

    /// Replace the control field of every already-emitted instruction that
    /// still carries [`CtlInfo::NONE`] with `f(&op)`. Used by kernel
    /// generators that tag hot instructions explicitly and fill in
    /// per-class defaults afterwards.
    pub fn retag_default_ctl(&mut self, f: impl Fn(&Op) -> CtlInfo) {
        for (i, inst) in self.kernel.code.iter().enumerate() {
            if self.ctl[i] == CtlInfo::NONE {
                self.ctl[i] = f(&inst.op);
            }
        }
    }

    /// Finish the kernel: resolve labels, set the register count to the
    /// highest register used (plus one), and attach control notation for
    /// Kepler targets.
    ///
    /// # Errors
    ///
    /// Returns [`SassError::UndefinedLabel`] if a referenced label was never
    /// bound, and propagates [`crate::validate_kernel`] failures.
    pub fn finish(mut self) -> Result<Kernel, SassError> {
        for (pos, label) in &self.fixups {
            let target = self.labels[label.0].ok_or_else(|| SassError::UndefinedLabel {
                name: format!("label#{}", label.0),
            })?;
            if let Some(t) = self.kernel.code[*pos].op.target_mut() {
                *t = target;
            }
        }
        self.kernel.num_regs = self.kernel.num_regs.max(self.kernel.regs_used());
        if self.generation.uses_control_notation() {
            self.kernel.ctl = Some(self.ctl);
        }
        crate::validate_kernel(&self.kernel, self.generation)?;
        Ok(self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_labels_are_patched() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        let end = b.new_label();
        b.bra(end);
        b.nop();
        b.nop();
        b.bind(end);
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.code[0].op, Op::Bra { target: 3 });
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        let l = b.new_label();
        b.bra(l);
        b.exit();
        assert!(matches!(b.finish(), Err(SassError::UndefinedLabel { .. })));
    }

    #[test]
    fn register_count_is_inferred() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(17), 1);
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.num_regs, 18);
    }

    #[test]
    fn wide_load_counts_all_written_registers() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.ld(MemSpace::Shared, MemWidth::B128, Reg::r(8), Reg::r(0), 0);
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.num_regs, 12); // R8..R11 written
    }

    #[test]
    fn kepler_kernels_get_ctl() {
        let mut b = KernelBuilder::new("t", Generation::Kepler);
        b.with_ctl(CtlInfo::stall(3));
        b.nop();
        b.exit();
        let k = b.finish().unwrap();
        let ctl = k.ctl.as_ref().unwrap();
        assert_eq!(ctl.len(), 2);
        assert_eq!(ctl[0].stall, 3);
    }

    #[test]
    fn pred_applies_to_next_instruction_only() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.with_pred(Pred::p(1), true);
        b.nop();
        b.nop();
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.code[0].pred, Some(Pred::p(1)));
        assert!(k.code[0].pred_neg);
        assert_eq!(k.code[1].pred, None);
    }

    #[test]
    fn params_are_sequential_const_operands() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        let p0 = b.param("n");
        let p1 = b.param("ptr");
        assert_eq!(
            p0,
            Operand::Const {
                bank: 0,
                offset: crate::PARAM_BASE
            }
        );
        assert_eq!(
            p1,
            Operand::Const {
                bank: 0,
                offset: crate::PARAM_BASE + 4
            }
        );
    }

    #[test]
    fn validation_runs_on_finish() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        // Misaligned LDS.64 destination.
        b.ld(MemSpace::Shared, MemWidth::B64, Reg::r(7), Reg::r(0), 0);
        b.exit();
        assert!(b.finish().is_err());
    }
}
