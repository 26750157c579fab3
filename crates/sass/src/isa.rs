//! The instruction set as one table: [`TABLE`] holds a row per opcode,
//! and the assembler, disassembler, encoder, decoder, validator and
//! register-role queries all read it, so they accept exactly the same
//! instructions. Only this module, the builder's constructors and the
//! simulator's lane arithmetic name individual opcodes.
//!
//! A row ([`OpInfo`]) gives the mnemonic spellings (one per modifier
//! value), the opcode field, the [`OpClass`], the FP32 operations per
//! lane and the operand [`Slot`]s in assembly order. Each slot kind sits
//! at a fixed place in the 64-bit word (bit 0 = LSB):
//!
//! ```text
//! all:    [0..3] guard pred  [3] guard negate  [4] has guard  [5..13] opcode
//! ALU:    [13..19] Dst (Pred: [13..16])  [19..25] A  [25..31] C
//!         [31..36] Shift / Special / modifier (ISETP's comparison)
//!         [36..38] B's mode (0 reg, 1 imm, 2 const)
//!         reg:   [38..44] register
//!         imm:   [38..58] signed 20-bit immediate
//!         const: [38..42] bank, [42..56] word offset
//!         (A, B and C encode RZ when the row has no such operand)
//! Imm32:  [13..19] Dst  [19..51] 32-bit immediate
//! Mem:    [13..19] Load/Store data  [19..25] Addr register  [25..27] modifier
//!         (width)  [27..29] space (fixed per row)  [29..53] signed 24-bit offset
//! Const:  [13..19] Dst  [19..23] bank  [23..37] word offset
//! Branch: [13..37] signed 24-bit instruction offset relative to pc+1
//! ```
//!
//! The 6-bit register fields are what limit a Fermi/GK104 thread to 63
//! registers (Section 2). Adding an instruction is a row here (with its
//! `Op` variant and its `split` and `build` arms), one lane function in the
//! simulator's `execute_op`, and optionally a `KernelBuilder` helper.

use std::sync::LazyLock;

use crate::op::{CmpOp, LogicOp, MemSpace, MemWidth, OpClass, SpecialReg};
use crate::{Operand, Pred, Reg};

/// One operation with its operands.
///
/// The payloads mirror SASS operand shapes: three-input FP ops read two
/// registers and one flexible operand; memory ops use register + immediate
/// offset addressing (32-bit addressing, as the paper's kernels use to save
/// address registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// No operation.
    Nop,
    /// Terminate the thread.
    Exit,
    /// Branch to an absolute instruction index within the kernel
    /// (the assembler resolves labels; the encoder stores a relative
    /// offset).
    Bra {
        /// Absolute instruction index of the branch target.
        target: u32,
    },
    /// Block-wide barrier (`BAR.SYNC`).
    Bar,
    /// Copy an operand into a register.
    Mov {
        /// Destination.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Load a full 32-bit immediate.
    Mov32i {
        /// Destination.
        dst: Reg,
        /// The 32-bit immediate (raw bits; may hold a float).
        imm: u32,
    },
    /// Read a special register.
    S2r {
        /// Destination.
        dst: Reg,
        /// The special register.
        sr: SpecialReg,
    },
    /// `dst = a + b` (f32).
    Fadd {
        /// Destination.
        dst: Reg,
        /// First addend.
        a: Reg,
        /// Second addend (register or constant; no immediates for FP).
        b: Operand,
    },
    /// `dst = a * b` (f32).
    Fmul {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Reg,
        /// Multiplier (register or constant).
        b: Operand,
    },
    /// Fused multiply-add: `dst = a * b + c` (f32, single rounding).
    Ffma {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Reg,
        /// Multiplier (register or constant).
        b: Operand,
        /// Addend.
        c: Reg,
    },
    /// `dst = a + b` (i32, wrapping).
    Iadd {
        /// Destination.
        dst: Reg,
        /// First addend.
        a: Reg,
        /// Second addend.
        b: Operand,
    },
    /// `dst = a * b` (i32, wrapping, low 32 bits).
    Imul {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Reg,
        /// Multiplier.
        b: Operand,
    },
    /// `dst = a * b + c` (i32, wrapping).
    Imad {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Reg,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Reg,
    },
    /// Scaled add: `dst = (a << shift) + b` (i32, wrapping).
    Iscadd {
        /// Destination.
        dst: Reg,
        /// The operand that is shifted.
        a: Reg,
        /// The unshifted addend.
        b: Operand,
        /// Shift amount (0..=31).
        shift: u8,
    },
    /// Logical shift left: `dst = a << b`.
    Shl {
        /// Destination.
        dst: Reg,
        /// Value to shift.
        a: Reg,
        /// Shift amount (low 5 bits used).
        b: Operand,
    },
    /// Logical shift right: `dst = a >> b`.
    Shr {
        /// Destination.
        dst: Reg,
        /// Value to shift.
        a: Reg,
        /// Shift amount (low 5 bits used).
        b: Operand,
    },
    /// Bitwise logic: `dst = a <op> b`.
    Lop {
        /// The bitwise operation.
        op: LogicOp,
        /// Destination.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// Integer compare to predicate: `p = (a <cmp> b)`.
    Isetp {
        /// Destination predicate.
        p: Pred,
        /// Comparison operator.
        cmp: CmpOp,
        /// Left-hand side.
        a: Reg,
        /// Right-hand side.
        b: Operand,
    },
    /// Load from memory: `dst[..width.words()] = space[addr + offset]`.
    Ld {
        /// Address space.
        space: MemSpace,
        /// Access width.
        width: MemWidth,
        /// First destination register (width-aligned).
        dst: Reg,
        /// Base address register (byte address).
        addr: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Store to memory: `space[addr + offset] = src[..width.words()]`.
    St {
        /// Address space.
        space: MemSpace,
        /// Access width.
        width: MemWidth,
        /// First source register (width-aligned).
        src: Reg,
        /// Base address register (byte address).
        addr: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Load from a constant bank: `dst = c[bank][offset]`.
    Ldc {
        /// Destination.
        dst: Reg,
        /// Constant bank.
        bank: u8,
        /// Byte offset (4-byte aligned).
        offset: u32,
    },
}

/// An operand of an instruction: where its text goes and which field of
/// the word holds it (the module documentation gives the bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A destination register.
    Dst,
    /// A destination predicate.
    P,
    /// Source register A.
    A,
    /// The flexible operand B: a register, a constant-bank word, or a
    /// signed 20-bit immediate where `imm` admits one (FP rows take none).
    B {
        /// Whether an immediate is admitted.
        imm: bool,
    },
    /// Source register C.
    C,
    /// A shift amount, 0..=31.
    Shift,
    /// A special register (`SR_TID.X`, ...).
    Special,
    /// A 32-bit immediate.
    Imm32,
    /// A branch target: an absolute instruction index.
    Target,
    /// The first register a load writes (`.64`/`.128`: an aligned run).
    Load,
    /// The first register a store reads (aligned like [`Slot::Load`]).
    Store,
    /// `[addr+offset]`: an address register and a signed 24-bit offset.
    Addr,
    /// `c[bank][offset]`: a word of constant banks 0..=15.
    Const,
}

/// What an operation does with one of its register slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Writes it.
    Def,
    /// Reads it (source A or C).
    Use,
    /// Reads it as the flexible operand B.
    Operand,
    /// Reads it as a memory address.
    Addr,
    /// Writes `width.words()` consecutive registers starting at it.
    Load(MemWidth),
    /// Reads `width.words()` consecutive registers starting at it.
    Store(MemWidth),
}

impl Role {
    /// The consecutive registers the slot covers (several for wide data).
    pub fn words(self) -> u32 {
        match self {
            Role::Load(width) | Role::Store(width) => width.words(),
            _ => 1,
        }
    }
}

/// One row of [`TABLE`]: everything the toolchain knows about an opcode.
#[derive(Debug)]
pub struct OpInfo {
    /// Mnemonic spellings, indexed by the modifier the word encodes
    /// (`ISETP.LT` ... `ISETP.NE`; `LD`, `LD.64`, `LD.128`).
    pub names: Names,
    /// The opcode field.
    pub opcode: u8,
    /// Functional class; a memory row's class names its address space.
    pub class: OpClass,
    /// FP32 operations per lane (FFMA counts 2).
    pub flops: u64,
    /// The operands, in assembly order.
    pub syntax: Syntax,
    /// Whether the row's words are ALU words, which always carry A, C
    /// and B: it has operand B or a special register (from `syntax`).
    pub(crate) alu: bool,
    /// `syntax` in the order [`OpInfo::check`] checks it, numeric slots
    /// first (its first `syntax.len()` entries).
    checked: [Slot; 4],
}

type Names = &'static [&'static str];
type Syntax = &'static [Slot];

const fn row(names: Names, opcode: u8, class: OpClass, flops: u64, syntax: Syntax) -> OpInfo {
    let mut alu = false;
    let mut checked = [Slot::Dst; 4];
    let mut n = 0;
    let mut pass = 0;
    while pass < 2 {
        let mut i = 0;
        while i < syntax.len() {
            let slot = syntax[i];
            alu |= matches!(slot, Slot::B { .. } | Slot::Special);
            if is_numeric(slot) == (pass == 0) {
                checked[n] = slot;
                n += 1;
            }
            i += 1;
        }
        pass += 1;
    }
    OpInfo {
        names,
        opcode,
        class,
        flops,
        syntax,
        alu,
        checked,
    }
}

/// Whether [`OpInfo::check`] checks `slot` before registers and operands.
const fn is_numeric(slot: Slot) -> bool {
    matches!(slot, Shift | Special | Target | Addr)
}

use MemSpace::{Global, Local, Shared};
use OpClass::{Barrier, Ctrl, Fp32, Int, IntMul, Mem, Move};
use Slot::{Addr, Const, Dst, Imm32, Load, Shift, Special, Store, Target, A, C, P};

const B: Slot = Slot::B { imm: true };
const BF: Slot = Slot::B { imm: false };

static NOP: OpInfo = row(&["NOP"], 0, Ctrl, 0, &[]);
static EXIT: OpInfo = row(&["EXIT"], 1, Ctrl, 0, &[]);
static BRA: OpInfo = row(&["BRA"], 2, Ctrl, 0, &[Target]);
static BAR: OpInfo = row(&["BAR.SYNC"], 3, Barrier, 0, &[]);
static MOV: OpInfo = row(&["MOV"], 4, Move, 0, &[Dst, B]);
static MOV32I: OpInfo = row(&["MOV32I"], 5, Move, 0, &[Dst, Imm32]);
static S2R: OpInfo = row(&["S2R"], 6, Move, 0, &[Dst, Special]);
static FADD: OpInfo = row(&["FADD"], 7, Fp32, 1, &[Dst, A, BF]);
static FMUL: OpInfo = row(&["FMUL"], 8, Fp32, 1, &[Dst, A, BF]);
static FFMA: OpInfo = row(&["FFMA"], 9, Fp32, 2, &[Dst, A, BF, C]);
static IADD: OpInfo = row(&["IADD"], 10, Int, 0, &[Dst, A, B]);
static IMUL: OpInfo = row(&["IMUL"], 11, IntMul, 0, &[Dst, A, B]);
static IMAD: OpInfo = row(&["IMAD"], 12, IntMul, 0, &[Dst, A, B, C]);
static ISCADD: OpInfo = row(&["ISCADD"], 13, Int, 0, &[Dst, A, B, Shift]);
static SHL: OpInfo = row(&["SHL"], 14, Int, 0, &[Dst, A, B]);
static SHR: OpInfo = row(&["SHR"], 15, Int, 0, &[Dst, A, B]);
/// Indexed by [`LogicOp`].
static LOP: [OpInfo; 3] = [
    row(&["LOP.AND"], 16, Int, 0, &[Dst, A, B]),
    row(&["LOP.OR"], 17, Int, 0, &[Dst, A, B]),
    row(&["LOP.XOR"], 18, Int, 0, &[Dst, A, B]),
];
/// Names indexed by [`CmpOp`].
static ISETP: OpInfo = row(&ISETP_NAMES, 19, Int, 0, &[P, A, B]);
const ISETP_NAMES: [&str; 6] = [
    "ISETP.LT", "ISETP.LE", "ISETP.GT", "ISETP.GE", "ISETP.EQ", "ISETP.NE",
];
/// Indexed by [`MemSpace`]; names by [`MemWidth`].
static LD: [OpInfo; 3] = [
    row(&LD_NAMES[0], 20, Mem(Global), 0, &[Load, Addr]),
    row(&LD_NAMES[1], 20, Mem(Shared), 0, &[Load, Addr]),
    row(&LD_NAMES[2], 20, Mem(Local), 0, &[Load, Addr]),
];
const LD_NAMES: [[&str; 3]; 3] = [
    ["LD", "LD.64", "LD.128"],
    ["LDS", "LDS.64", "LDS.128"],
    ["LDL", "LDL.64", "LDL.128"],
];
/// Indexed by [`MemSpace`]; names by [`MemWidth`].
static ST: [OpInfo; 3] = [
    row(&ST_NAMES[0], 21, Mem(Global), 0, &[Addr, Store]),
    row(&ST_NAMES[1], 21, Mem(Shared), 0, &[Addr, Store]),
    row(&ST_NAMES[2], 21, Mem(Local), 0, &[Addr, Store]),
];
const ST_NAMES: [[&str; 3]; 3] = [
    ["ST", "ST.64", "ST.128"],
    ["STS", "STS.64", "STS.128"],
    ["STL", "STL.64", "STL.128"],
];
static LDC: OpInfo = row(&["LDC"], 22, Move, 0, &[Dst, Const]);

/// The instruction set: a row per opcode (memory opcodes, per space).
pub static TABLE: [&OpInfo; 27] = [
    &NOP, &EXIT, &BRA, &BAR, &MOV, &MOV32I, &S2R, &FADD, &FMUL, &FFMA, &IADD, &IMUL, &IMAD,
    &ISCADD, &SHL, &SHR, &LOP[0], &LOP[1], &LOP[2], &ISETP, &LD[0], &LD[1], &LD[2], &ST[0], &ST[1],
    &ST[2], &LDC,
];

/// A mnemonic spelling with its row and modifier.
type Spelling = (&'static str, &'static OpInfo, usize);

/// Every [`Spelling`], in buckets by first byte: the assembler's index
/// into [`TABLE`].
static SPELLINGS: LazyLock<Vec<Vec<Spelling>>> = LazyLock::new(|| {
    let mut index = vec![Vec::new(); 256];
    for row in TABLE {
        for (m, name) in row.names.iter().enumerate() {
            index[usize::from(name.as_bytes()[0])].push((*name, row, m));
        }
    }
    index
});

/// The row a word's opcode field (bits 5..13) and space field (bits
/// 27..29) select: the decoder's index into [`TABLE`]. A memory row
/// answers to its own space only, any other row to all four.
static BY_OPCODE: LazyLock<Vec<[Option<&OpInfo>; 4]>> = LazyLock::new(|| {
    let mut index = vec![[None; 4]; 256];
    for row in TABLE {
        for (space, entry) in index[usize::from(row.opcode)].iter_mut().enumerate() {
            if !matches!(row.class, Mem(_)) || row.space() as usize == space {
                entry.get_or_insert(row);
            }
        }
    }
    index
});

/// One operation's operands in table form: `dst` holds [`Slot::Dst`],
/// [`Slot::Load`] or [`Slot::Store`], `p` [`Slot::P`], `a` [`Slot::A`] or
/// the register of [`Slot::Addr`], `b` [`Slot::B`] or [`Slot::Const`], `c`
/// [`Slot::C`], `n` the number of [`Slot::Shift`], [`Slot::Special`],
/// [`Slot::Imm32`], [`Slot::Target`] or [`Slot::Addr`], and `m` the modifier
/// (an index into the row's names). Register fields a row leaves unused
/// hold `RZ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fields {
    pub dst: Reg,
    pub p: Pred,
    pub a: Reg,
    pub b: Operand,
    pub c: Reg,
    pub n: i64,
    pub m: usize,
}

impl Fields {
    pub(crate) const EMPTY: Fields = Fields {
        dst: Reg::RZ,
        p: Pred::PT,
        a: Reg::RZ,
        b: Operand::Reg(Reg::RZ),
        c: Reg::RZ,
        n: 0,
        m: 0,
    };

    fn n(self, n: impl Into<i64>) -> Fields {
        let n = n.into();
        Fields { n, ..self }
    }

    fn m(self, m: usize) -> Fields {
        Fields { m, ..self }
    }
}

fn fits_signed(v: i64, bits: u32) -> bool {
    (-(1i64 << (bits - 1))..1i64 << (bits - 1)).contains(&v)
}

impl OpInfo {
    /// The row and modifier `mnemonic` spells exactly.
    pub(crate) fn by_name(mnemonic: &str) -> Option<(&'static OpInfo, usize)> {
        let bucket = (mnemonic.as_bytes().first()).and_then(|&b| SPELLINGS.get(usize::from(b)));
        let found = (bucket.into_iter().flatten())
            .find(|&&(name, ..)| name == mnemonic)
            .map(|&(_, row, m)| (row, m));
        debug_assert!({
            let scan = (TABLE.iter())
                .find_map(|row| Some((*row, row.names.iter().position(|n| *n == mnemonic)?)));
            let same =
                |(r, m): (&OpInfo, usize), (s, n): (&OpInfo, usize)| std::ptr::eq(r, s) && m == n;
            match (found, scan) {
                (Some(f), Some(s)) => same(f, s),
                (f, s) => f.is_none() && s.is_none(),
            }
        });
        found
    }

    /// The row a word's opcode and space fields select.
    pub(crate) fn by_opcode(opcode: u64, space: u64) -> Option<&'static OpInfo> {
        let found = usize::try_from(opcode)
            .ok()
            .and_then(|op| BY_OPCODE.get(op)?.get(space as usize).copied().flatten());
        debug_assert!({
            let scan = TABLE.iter().find(|row| {
                u64::from(row.opcode) == opcode
                    && (!matches!(row.class, Mem(_)) || row.space() as u64 == space)
            });
            match (found, scan) {
                (Some(f), Some(s)) => std::ptr::eq(f, *s),
                (f, s) => f.is_none() && s.is_none(),
            }
        });
        found
    }

    pub(crate) fn has(&self, slot: Slot) -> bool {
        self.syntax.contains(&slot)
    }

    /// The roles of the register fields `[dst|data, a|addr, b, c]` under
    /// modifier `m` (`None` where the row has no such operand).
    fn roles(&self, m: usize) -> [Option<Role>; 4] {
        let width = MemWidth::ALL.get(m).copied().unwrap_or(MemWidth::B32);
        let mut roles = [None; 4];
        for slot in self.syntax {
            let (i, role) = match slot {
                Dst => (0, Role::Def),
                Load => (0, Role::Load(width)),
                Store => (0, Role::Store(width)),
                A => (1, Role::Use),
                Addr => (1, Role::Addr),
                Slot::B { .. } => (2, Role::Operand),
                C => (3, Role::Use),
                _ => continue,
            };
            roles[i] = Some(role);
        }
        roles
    }

    /// The address space of a memory row (`Global` for any other).
    pub(crate) fn space(&self) -> MemSpace {
        match self.class {
            Mem(space) => space,
            _ => Global,
        }
    }

    /// Check operand fields against what the row admits and the encoding
    /// can hold; `index` places a branch. Numeric fields are checked
    /// before registers and operands.
    pub(crate) fn check(&self, x: &Fields, index: usize) -> Result<(), String> {
        let Some(name) = self.names.get(x.m) else {
            return Err(format!("invalid modifier {} of {}", x.m, self.names[0]));
        };
        for slot in &self.checked[..self.syntax.len()] {
            match *slot {
                Shift if !(0..=31).contains(&x.n) => {
                    return Err(format!(
                        "{name} shift {} outside the encodable range 0..=31",
                        x.n
                    ));
                }
                Special if !(0..SpecialReg::ALL.len() as i64).contains(&x.n) => {
                    return Err(format!("invalid special register id {}", x.n));
                }
                Target
                    if u32::try_from(x.n).is_err() || !fits_signed(x.n - index as i64 - 1, 24) =>
                {
                    return Err(format!("branch target {} out of range", x.n));
                }
                Addr if !fits_signed(x.n, 24) => {
                    return Err(format!(
                        "memory offset {} outside the signed 24-bit encoding range",
                        x.n
                    ));
                }
                Load | Store => {
                    let words = MemWidth::ALL[x.m].words();
                    let (what, access) = match slot {
                        Load => ("destination", "load"),
                        _ => ("source", "store"),
                    };
                    if !x.dst.is_aligned_for(words) {
                        return Err(format!(
                            "{name} {what} {} must be {words}-register aligned",
                            x.dst
                        ));
                    }
                    // Wide accesses expand to consecutive general registers,
                    // so the range must stop at R62: index 63 is RZ, not
                    // storage. (Single-word RZ stays legal — a discard load,
                    // the store-zero idiom.)
                    if words > 1 && u32::from(x.dst.index()) + words > 63 {
                        return Err(format!(
                            "wide {access} at {} runs past R62 into the zero register",
                            x.dst
                        ));
                    }
                }
                Slot::B { imm: false } if matches!(x.b, Operand::Imm(_)) => {
                    return Err("floating-point instructions take register or constant \
                                operands (use MOV32I for literals)"
                        .to_owned());
                }
                Slot::B { .. } | Const => match x.b {
                    Operand::Imm(v) if !fits_signed(v.into(), 20) => {
                        return Err(format!("immediate {v} does not fit in 20 bits"));
                    }
                    Operand::Const { bank, offset }
                        if bank > 15 || offset > 0xFFFC || offset % 4 != 0 =>
                    {
                        return Err(format!(
                            "constant operand c[{bank:#x}][{offset:#x}] out of range"
                        ));
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        Ok(())
    }

    /// The operation this row makes of `x` (which [`OpInfo::check`]
    /// accepted).
    pub(crate) fn build(&self, x: &Fields) -> Op {
        let Fields { dst, a, b, c, .. } = *x;
        let (n, m) = (x.n, x.m);
        let (target, imm, shift, offset) = (n as u32, n as u32, n as u8, n as i32);
        match self.opcode {
            0 => Op::Nop,
            1 => Op::Exit,
            2 => Op::Bra { target },
            3 => Op::Bar,
            4 => Op::Mov { dst, src: b },
            5 => Op::Mov32i { dst, imm },
            6 => Op::S2r {
                dst,
                sr: SpecialReg::ALL[n as usize],
            },
            7 => Op::Fadd { dst, a, b },
            8 => Op::Fmul { dst, a, b },
            9 => Op::Ffma { dst, a, b, c },
            10 => Op::Iadd { dst, a, b },
            11 => Op::Imul { dst, a, b },
            12 => Op::Imad { dst, a, b, c },
            13 => Op::Iscadd { dst, a, b, shift },
            14 => Op::Shl { dst, a, b },
            15 => Op::Shr { dst, a, b },
            16..=18 => Op::Lop {
                op: LogicOp::ALL[usize::from(self.opcode - 16)],
                dst,
                a,
                b,
            },
            19 => Op::Isetp {
                p: x.p,
                cmp: CmpOp::ALL[m],
                a,
                b,
            },
            20 => Op::Ld {
                space: self.space(),
                width: MemWidth::ALL[m],
                dst,
                addr: a,
                offset,
            },
            21 => Op::St {
                space: self.space(),
                width: MemWidth::ALL[m],
                src: dst,
                addr: a,
                offset,
            },
            _ => match b {
                Operand::Const { bank, offset } => Op::Ldc { dst, bank, offset },
                _ => unreachable!("an LDC row keeps its constant in `b`"),
            },
        }
    }
}

/// A mutable view of an operation's immediate field.
#[derive(Debug)]
pub enum ImmMut<'a> {
    /// `MOV32I`'s 32-bit word.
    Word(&'a mut u32),
    /// A load's or store's byte offset.
    Offset(&'a mut i32),
    /// `LDC`'s bank and byte offset.
    Const(&'a mut u8, &'a mut u32),
    /// `ISCADD`'s shift amount.
    Shift(&'a mut u8),
}

impl Op {
    /// This operation's row and operand fields.
    pub(crate) fn split(&self) -> (&'static OpInfo, Fields) {
        let z = Fields::EMPTY;
        match *self {
            Op::Nop => (&NOP, z),
            Op::Exit => (&EXIT, z),
            Op::Bra { target } => (&BRA, z.n(target)),
            Op::Bar => (&BAR, z),
            Op::Mov { dst, src } => (&MOV, Fields { dst, b: src, ..z }),
            Op::Mov32i { dst, imm } => (&MOV32I, Fields { dst, ..z }.n(imm)),
            Op::S2r { dst, sr } => (&S2R, Fields { dst, ..z }.n(sr as u8)),
            Op::Fadd { dst, a, b } => (&FADD, Fields { dst, a, b, ..z }),
            Op::Fmul { dst, a, b } => (&FMUL, Fields { dst, a, b, ..z }),
            Op::Ffma { dst, a, b, c } => (&FFMA, Fields { dst, a, b, c, ..z }),
            Op::Iadd { dst, a, b } => (&IADD, Fields { dst, a, b, ..z }),
            Op::Imul { dst, a, b } => (&IMUL, Fields { dst, a, b, ..z }),
            Op::Imad { dst, a, b, c } => (&IMAD, Fields { dst, a, b, c, ..z }),
            Op::Iscadd { dst, a, b, shift } => (&ISCADD, Fields { dst, a, b, ..z }.n(shift)),
            Op::Shl { dst, a, b } => (&SHL, Fields { dst, a, b, ..z }),
            Op::Shr { dst, a, b } => (&SHR, Fields { dst, a, b, ..z }),
            Op::Lop { op, dst, a, b } => (&LOP[op as usize], Fields { dst, a, b, ..z }),
            Op::Isetp { p, cmp, a, b } => (&ISETP, Fields { p, a, b, ..z }.m(cmp as usize)),
            Op::Ld {
                space,
                width,
                dst,
                addr: a,
                offset,
            } => (
                &LD[space as usize],
                Fields { dst, a, ..z }.n(offset).m(width as usize),
            ),
            Op::St {
                space,
                width,
                src: dst,
                addr: a,
                offset,
            } => (
                &ST[space as usize],
                Fields { dst, a, ..z }.n(offset).m(width as usize),
            ),
            Op::Ldc { dst, bank, offset } => {
                let b = Operand::Const { bank, offset };
                (&LDC, Fields { dst, b, ..z })
            }
        }
    }

    /// This operation's row of [`TABLE`].
    pub fn info(&self) -> &'static OpInfo {
        self.split().0
    }

    /// The functional class of this operation.
    pub fn class(&self) -> OpClass {
        self.info().class
    }

    /// The mnemonic, without operands (e.g. `"LDS.64"`).
    pub fn mnemonic(&self) -> &'static str {
        let (row, x) = self.split();
        row.names[x.m]
    }

    /// The branch target, for a branch.
    pub fn target(&self) -> Option<u32> {
        { *self }.target_mut().copied()
    }

    /// The branch target, mutably, for a branch.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Bra { target } => Some(target),
            _ => None,
        }
    }

    /// The immediate of `MOV32I`, a load or store, `LDC` or `ISCADD`.
    pub fn imm_mut(&mut self) -> Option<ImmMut<'_>> {
        match self {
            Op::Mov32i { imm, .. } => Some(ImmMut::Word(imm)),
            Op::Ld { offset, .. } | Op::St { offset, .. } => Some(ImmMut::Offset(offset)),
            Op::Ldc { bank, offset, .. } => Some(ImmMut::Const(bank, offset)),
            Op::Iscadd { shift, .. } => Some(ImmMut::Shift(shift)),
            _ => None,
        }
    }

    /// The flexible operand B, if the operation has one.
    pub fn operand(&self) -> Option<Operand> {
        let (row, x) = self.split();
        (row.has(B) || row.has(BF)).then_some(x.b)
    }

    /// Replace the flexible operand B, if the operation has one.
    pub fn set_operand(&mut self, b: Operand) {
        let (row, x) = self.split();
        if self.operand().is_some() {
            *self = row.build(&Fields { b, ..x });
        }
    }

    /// Every register slot and its role, in field order: destination or
    /// memory data, source A or address, the register of operand B, source
    /// C. Total on any operation, including invalid ones.
    pub fn reg_slots(&self) -> impl Iterator<Item = (Role, Reg)> {
        let (row, x) = self.split();
        let b = match x.b {
            Operand::Reg(r) => Some(r),
            _ => None,
        };
        let regs = [Some(x.dst), Some(x.a), b, Some(x.c)];
        row.roles(x.m)
            .into_iter()
            .zip(regs)
            .filter_map(|(role, r)| role.zip(r))
    }

    /// Rewrite every register slot in place, in [`Op::reg_slots`] order.
    pub fn map_regs(&mut self, mut f: impl FnMut(Role, &mut Reg)) {
        let (row, mut x) = self.split();
        let roles = row.roles(x.m);
        let b = match &mut x.b {
            Operand::Reg(r) => Some(r),
            _ => None,
        };
        let regs = [Some(&mut x.dst), Some(&mut x.a), b, Some(&mut x.c)];
        for (role, reg) in roles.into_iter().zip(regs) {
            if let (Some(role), Some(reg)) = (role, reg) {
                f(role, reg);
            }
        }
        *self = row.build(&x);
    }

    /// The general-purpose registers the operation reads and writes, as
    /// masks `(uses, defs)` with bit `i` for `Ri`: runs of wide accesses
    /// expanded, `RZ` and registers past the file left out.
    pub fn reg_masks(&self) -> (u64, u64) {
        let (row, x) = self.split();
        // A B that is no register reads none: `RZ` stands in, masked out.
        let b = match x.b {
            Operand::Reg(r) => r,
            _ => Reg::RZ,
        };
        let (mut uses, mut defs) = (0, 0);
        for (role, r) in row.roles(x.m).into_iter().zip([x.dst, x.a, b, x.c]) {
            let Some(role) = role else { continue };
            let run = ((1u64 << role.words()) - 1) << r.index() & !(1 << Reg::RZ.index());
            match role {
                Role::Def | Role::Load(_) => defs |= run,
                _ => uses |= run,
            }
        }
        (uses, defs)
    }

    /// The predicate register written, if any.
    pub fn def_pred(&self) -> Option<Pred> {
        let (row, x) = self.split();
        (row.has(P) && !x.p.is_pt()).then_some(x.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_builds_the_operation_it_splits_back_to() {
        for row in TABLE {
            for (m, name) in row.names.iter().enumerate() {
                let b = match row.has(Const) {
                    true => Operand::Const { bank: 0, offset: 0 },
                    false => Operand::reg(1),
                };
                let x = Fields {
                    dst: Reg::r(0),
                    b,
                    ..Fields::EMPTY
                };
                let x = x.m(m);
                assert_eq!(row.check(&x, 0), Ok(()), "{name}");
                let op = row.build(&x);
                let (back, y) = op.split();
                assert!(std::ptr::eq(back, row), "{name}");
                assert_eq!(y.m, m, "{name}");
                assert_eq!(op.mnemonic(), *name);
            }
        }
    }

    /// The register mask of `Ri` for each `i` in `regs`.
    fn mask(regs: &[u8]) -> u64 {
        regs.iter().fold(0, |m, i| m | 1 << i)
    }

    #[test]
    fn ffma_def_use() {
        let op = Op::Ffma {
            dst: Reg::r(8),
            a: Reg::r(1),
            b: Operand::reg(2),
            c: Reg::r(8),
        };
        assert_eq!(op.reg_masks(), (mask(&[1, 2, 8]), mask(&[8])));
        assert_eq!(op.class(), OpClass::Fp32);
        assert_eq!(op.info().flops, 2);
    }

    #[test]
    fn wide_load_defs_expand() {
        let op = Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B128,
            dst: Reg::r(12),
            addr: Reg::r(20),
            offset: 16,
        };
        assert_eq!(op.reg_masks(), (mask(&[20]), mask(&[12, 13, 14, 15])));
        assert_eq!(op.mnemonic(), "LDS.128");
        assert_eq!(op.class(), OpClass::Mem(MemSpace::Shared));
    }

    #[test]
    fn wide_store_uses_expand() {
        let op = Op::St {
            space: MemSpace::Global,
            width: MemWidth::B64,
            src: Reg::r(4),
            addr: Reg::r(10),
            offset: 0,
        };
        assert_eq!(op.reg_masks(), (mask(&[4, 5, 10]), 0));
        assert_eq!(op.mnemonic(), "ST.64");
    }

    #[test]
    fn rz_is_filtered_from_def_use() {
        let op = Op::Iadd {
            dst: Reg::RZ,
            a: Reg::RZ,
            b: Operand::Reg(Reg::RZ),
        };
        assert_eq!(op.reg_masks(), (0, 0));
    }

    #[test]
    fn def_use_are_total_on_rz_adjacent_wide_accesses() {
        // Found by the differential fuzzer: register expansion must not
        // panic on (invalid, but representable) memory ops whose word
        // range touches or passes RZ — the validator rejects them, but
        // it does so *by calling these functions*.
        let ld = Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            dst: Reg::r(62),
            addr: Reg::r(0),
            offset: 0,
        };
        assert_eq!(ld.reg_masks(), (mask(&[0]), mask(&[62])));
        let st = Op::St {
            space: MemSpace::Global,
            width: MemWidth::B128,
            src: Reg::r(61),
            addr: Reg::r(10),
            offset: 0,
        };
        assert_eq!(st.reg_masks(), (mask(&[10, 61, 62]), 0));
        let st_rz = Op::St {
            space: MemSpace::Global,
            width: MemWidth::B32,
            src: Reg::RZ,
            addr: Reg::r(10),
            offset: 0,
        };
        assert_eq!(st_rz.reg_masks(), (mask(&[10]), 0));
    }

    #[test]
    fn slots_come_in_field_order_with_roles() {
        let mut op = Op::St {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            src: Reg::r(4),
            addr: Reg::r(10),
            offset: 8,
        };
        let slots: Vec<_> = op.reg_slots().collect();
        assert_eq!(
            slots,
            [
                (Role::Store(MemWidth::B64), Reg::r(4)),
                (Role::Addr, Reg::r(10))
            ]
        );
        op.map_regs(|_, r| *r = Reg::r(r.index() + 2));
        assert_eq!(op.reg_masks(), (mask(&[6, 7, 12]), 0));
        let mut mov = Op::Mov {
            dst: Reg::r(1),
            src: Operand::Imm(3),
        };
        assert_eq!(mov.operand(), Some(Operand::Imm(3)));
        mov.set_operand(Operand::reg(9));
        assert_eq!(mov.reg_masks(), (mask(&[9]), mask(&[1])));
        assert_eq!(Op::Nop.operand(), None);
    }

    #[test]
    fn isetp_def_pred() {
        let op = Op::Isetp {
            p: Pred::p(0),
            cmp: CmpOp::Lt,
            a: Reg::r(1),
            b: Operand::Imm(5),
        };
        assert_eq!(op.def_pred(), Some(Pred::p(0)));
        assert_eq!(op.mnemonic(), "ISETP.LT");
    }

    #[test]
    fn classes() {
        assert_eq!(Op::Bar.class(), OpClass::Barrier);
        assert_eq!(Op::Exit.class(), OpClass::Ctrl);
        assert_eq!(Op::Nop.class(), OpClass::Ctrl);
        assert_eq!(
            Op::Imul {
                dst: Reg::r(0),
                a: Reg::r(1),
                b: Operand::Imm(3)
            }
            .class(),
            OpClass::IntMul
        );
    }
}
