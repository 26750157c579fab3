//! A SASS-like GPU assembly toolchain for Fermi (GF110) and Kepler (GK104).
//!
//! The paper (Lai & Seznec, CGO 2013) programs NVIDIA GPUs in native
//! assembly through a patched version of the `asfermi` assembler. NVIDIA has
//! never documented the SASS encodings, so this crate implements a
//! *SASS-like* instruction set that preserves every property the paper's
//! analysis depends on:
//!
//! * arithmetic instructions cannot read shared memory — explicit
//!   `LDS` loads are required (the root cause of the FFMA/LDS mixing
//!   problem of Section 4);
//! * register operands are encoded in **6-bit fields**, so at most 63
//!   general registers (plus the always-zero `RZ`) can be addressed — the
//!   hard limit of Equation 2;
//! * wide shared-memory loads (`LDS.64` / `LDS.128`) exist and impose
//!   register-alignment constraints;
//! * Kepler binaries interleave a *control notation* word before each group
//!   of 7 instructions (`0xXXXXXXX7 0x2XXXXXXX`, Section 3.2) that carries
//!   scheduling hints.
//!
//! The crate provides:
//!
//! * the instruction set, one [`TABLE`] row per opcode that everything
//!   below derives from ([`Op`], [`Instruction`], [`Reg`], [`Operand`]);
//! * a text assembler ([`assemble`]) and disassembler (`Display` on
//!   [`Instruction`] / [`Module`]);
//! * a binary encoder/decoder ([`encode`], [`decode`]) and a cubin-like
//!   container format ([`Module::to_bytes`] / [`Module::from_bytes`]);
//! * the Kepler control notation ([`ctl`]);
//! * a programmatic [`KernelBuilder`] with labels, used by the kernel
//!   generators in `peakperf-kernels`;
//! * a [`validate_kernel`] pass enforcing the ISA's structural constraints.
//!
//! # Example
//!
//! ```
//! use peakperf_sass::{assemble, Generation};
//!
//! let src = r#"
//! .kernel saxpy
//! .regs 8
//! S2R R0, SR_TID.X;
//! LDC R1, c[0x0][0x20];
//! ISETP.LT P0, R0, R1;
//! @!P0 EXIT;
//! EXIT;
//! "#;
//! let module = assemble(src, Generation::Fermi)?;
//! assert_eq!(module.kernels[0].name, "saxpy");
//! assert_eq!(module.kernels[0].code.len(), 5);
//! # Ok::<(), peakperf_sass::SassError>(())
//! ```

// This crate is the entry point of the fuzzed parse → validate → encode
// pipeline (see `peakperf-bench::fault`): malformed input must surface as a
// typed `SassError`, so panicking shortcuts are rejected outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
pub mod ctl;
mod encode;
mod error;
mod inst;
mod isa;
mod module;
mod op;
mod operand;
mod parse;
mod reg;
mod text;
mod validate;

pub use builder::{KernelBuilder, Label};
pub use ctl::{CtlInfo, CtlWord};
pub use encode::{decode, decode_stream, encode, encode_stream};
pub use error::SassError;
pub use inst::Instruction;
pub use isa::{ImmMut, Op, OpInfo, Role, Slot, TABLE};
pub use module::{Kernel, Module, ParamDesc};
pub use op::{CmpOp, LogicOp, MemSpace, MemWidth, OpClass, SpecialReg};
pub use operand::Operand;
pub use parse::assemble;
pub use reg::{Pred, Reg};
pub use validate::{validate_instruction, validate_kernel};

pub use peakperf_arch::Generation;

/// Byte offset of the first kernel parameter in constant bank 0
/// (the Fermi ABI convention: `c[0x0][0x20]`).
pub const PARAM_BASE: u32 = 0x20;
