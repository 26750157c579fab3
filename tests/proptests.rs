//! Randomized property tests over the toolchain invariants.
//!
//! These were originally written with `proptest`; the repository now builds
//! offline, so they sample cases from the in-repo deterministic PRNG
//! ([`peakperf::kernels::rng::Rng`]) instead. Every test runs a fixed
//! number of cases from a fixed seed, so failures are exactly
//! reproducible; on failure the case index and value are printed.

use std::collections::HashMap;

use peakperf::arch::Generation;
use peakperf::kernels::cpu;
use peakperf::kernels::matrix::Matrix;
use peakperf::kernels::rng::Rng;
use peakperf::kernels::sgemm::{
    build_naive, build_preset, run_sgemm, Preset, SgemmProblem, Variant,
};
use peakperf::regalloc::{solve, AllocProblem, VReg};
use peakperf::sass::PARAM_BASE;
use peakperf::sass::{
    assemble, decode, encode, validate_instruction, CmpOp, CtlInfo, ImmMut, Instruction, LogicOp,
    MemSpace, MemWidth, Module, Op, Operand, Pred, Reg, Role, SassError, Slot, SpecialReg, TABLE,
};
use peakperf::sim::exec::{ffma_lanes, step_warp, BlockCtx, MemCtx};
use peakperf::sim::timing::{global_transactions, shared_conflict_factor};
use peakperf::sim::{Dim3, GlobalMemory, Gpu, Json, SimError, StepEvent, WarpState};
use peakperf_bench::fault::{FuzzCase, SeedSpec, Violation, ViolationCase, ViolationKind};
use peakperf_bench::ledger::END_TO_END;
use peakperf_bench::profiling::TARGETS;
use peakperf_bench::report::check_document;
use peakperf_bench::service::{parse_job_line, JobKind, JobSpec};

// ---------------------------------------------------------------------
// Samplers (the proptest "strategies", hand-rolled)
// ---------------------------------------------------------------------

fn reg(rng: &mut Rng) -> Reg {
    Reg::r(rng.gen_range_u32(0, 64) as u8)
}

fn pred(rng: &mut Rng) -> Pred {
    Pred::p(rng.gen_range_u32(0, 8) as u8)
}

fn const_operand(rng: &mut Rng) -> Operand {
    Operand::Const {
        bank: rng.gen_range_u32(0, 16) as u8,
        offset: rng.gen_range_u32(0, 0x4000) * 4,
    }
}

fn operand(rng: &mut Rng) -> Operand {
    match rng.gen_below(3) {
        0 => Operand::Reg(reg(rng)),
        1 => Operand::Imm(rng.gen_range_i64(-(1 << 19), 1 << 19) as i32),
        _ => const_operand(rng),
    }
}

fn reg_operand(rng: &mut Rng) -> Operand {
    if rng.gen_bool() {
        Operand::Reg(reg(rng))
    } else {
        const_operand(rng)
    }
}

fn mem_parts(rng: &mut Rng) -> (MemSpace, MemWidth, Reg, Reg, i32) {
    let space = match rng.gen_below(3) {
        0 => MemSpace::Global,
        1 => MemSpace::Shared,
        _ => MemSpace::Local,
    };
    let width = match rng.gen_below(3) {
        0 => MemWidth::B32,
        1 => MemWidth::B64,
        _ => MemWidth::B128,
    };
    // Align the data register for the width.
    let words = width.words() as u8;
    let data = rng.gen_range_u32(0, 64) as u8;
    let data = Reg::r((data / words) * words % 60);
    let addr = reg(rng);
    let offset = rng.gen_range_i64(-(1 << 23), 1 << 23) as i32;
    (space, width, data, addr, offset)
}

fn op(rng: &mut Rng) -> Op {
    match rng.gen_below(20) {
        0 => Op::Nop,
        1 => Op::Exit,
        2 => Op::Bar,
        3 => Op::Bra {
            target: rng.gen_range_u32(0, 1000),
        },
        4 => Op::Mov {
            dst: reg(rng),
            src: operand(rng),
        },
        5 => Op::Mov32i {
            dst: reg(rng),
            imm: rng.next_u32(),
        },
        6 => Op::S2r {
            dst: reg(rng),
            sr: SpecialReg::ALL[rng.gen_range_usize(0, SpecialReg::ALL.len())],
        },
        7 => Op::Fadd {
            dst: reg(rng),
            a: reg(rng),
            b: reg_operand(rng),
        },
        8 => Op::Fmul {
            dst: reg(rng),
            a: reg(rng),
            b: reg_operand(rng),
        },
        9 => Op::Ffma {
            dst: reg(rng),
            a: reg(rng),
            b: reg_operand(rng),
            c: reg(rng),
        },
        10 => Op::Iadd {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
        },
        11 => Op::Imul {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
        },
        12 => Op::Imad {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
            c: reg(rng),
        },
        13 => Op::Iscadd {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
            shift: rng.gen_range_u32(0, 32) as u8,
        },
        14 => Op::Shl {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
        },
        15 => Op::Shr {
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
        },
        16 => Op::Lop {
            op: match rng.gen_below(3) {
                0 => LogicOp::And,
                1 => LogicOp::Or,
                _ => LogicOp::Xor,
            },
            dst: reg(rng),
            a: reg(rng),
            b: operand(rng),
        },
        17 => Op::Isetp {
            p: pred(rng),
            cmp: CmpOp::ALL[rng.gen_range_usize(0, CmpOp::ALL.len())],
            a: reg(rng),
            b: operand(rng),
        },
        18 => {
            let (space, width, data, addr, offset) = mem_parts(rng);
            if rng.gen_bool() {
                Op::Ld {
                    space,
                    width,
                    dst: data,
                    addr,
                    offset,
                }
            } else {
                Op::St {
                    space,
                    width,
                    src: data,
                    addr,
                    offset,
                }
            }
        }
        _ => {
            let word = rng.gen_range_u32(0, 0x4000);
            Op::Ldc {
                dst: Reg::r((word % 63) as u8),
                bank: rng.gen_range_u32(0, 16) as u8,
                offset: word * 4,
            }
        }
    }
}

fn instruction(rng: &mut Rng) -> Instruction {
    if rng.gen_bool() {
        Instruction::predicated(pred(rng), rng.gen_bool(), op(rng))
    } else {
        Instruction::new(op(rng))
    }
}

fn instruction_vec(rng: &mut Rng, lo: usize, hi: usize) -> Vec<Instruction> {
    let n = rng.gen_range_usize(lo, hi);
    // Clamp branch targets into range so the kernel validates.
    (0..n)
        .map(|_| {
            let mut i = instruction(rng);
            if let Op::Bra { target } = &mut i.op {
                *target %= n as u32;
            }
            i
        })
        .collect()
}

// ---------------------------------------------------------------------
// Encoder / assembler round trips
// ---------------------------------------------------------------------

fn one_of<T: Clone>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.gen_range_usize(0, items.len())].clone()
}

/// [`instruction`], with half the cases pushed to or past the edge of one
/// field: immediates ±1 around 20 bits and in FP rows, constant banks and
/// offsets around their limits, shifts from 31, memory offsets around 24
/// bits, misaligned or `R60`..`RZ` wide data, `RZ` anywhere, and branches
/// out of 24-bit reach.
fn edge_instruction(rng: &mut Rng) -> Instruction {
    let mut inst = instruction(rng);
    let op = &mut inst.op;
    let (imm20, off24) = (1 << 19, 1 << 23);
    match rng.gen_below(12) {
        0..=2 if op.operand().is_some() => {
            let b = match rng.gen_below(3) {
                0 => Operand::Imm(one_of(rng, &[-imm20 - 1, -imm20, imm20 - 1, imm20, 3])),
                1 => Operand::Const {
                    bank: one_of(rng, &[0, 15, 16]),
                    offset: one_of(rng, &[0, 0x22, 0xFFFC, 0xFFFE, 0x10000]),
                },
                _ => Operand::Reg(Reg::RZ),
            };
            op.set_operand(b);
        }
        3 | 4 => match op.imm_mut() {
            Some(ImmMut::Shift(shift)) => *shift = one_of(rng, &[0, 31, 32, 255]),
            Some(ImmMut::Offset(offset)) => {
                *offset = one_of(rng, &[-off24 - 1, -off24, off24 - 1, off24]);
            }
            Some(ImmMut::Const(bank, offset)) => {
                *bank = one_of(rng, &[15, 16]);
                *offset = one_of(rng, &[0xFFFC, 0xFFFE, 0x10000]);
            }
            Some(ImmMut::Word(word)) => *word = one_of(rng, &[0, u32::MAX]),
            None => {}
        },
        5 | 6 => op.map_regs(|role, r| {
            if matches!(role, Role::Load(_) | Role::Store(_)) {
                *r = Reg::r(one_of(rng, &[1, 2, 60, 61, 62, 63]));
            }
        }),
        7 => op.map_regs(|_, r| {
            if rng.gen_bool() {
                *r = Reg::RZ;
            }
        }),
        8 => {
            if let Some(target) = op.target_mut() {
                *target = rng.next_u32();
            }
        }
        _ => {}
    }
    inst
}

/// What the validator accepts is exactly what encodes, and exactly what
/// re-assembles from its text; whatever it accepts survives both round
/// trips unchanged.
#[test]
fn validate_encode_and_assemble_accept_the_same_instructions() {
    let mut rng = Rng::seed_from_u64(0x7AB1E);
    let mut rejected = 0;
    for case in 0..6000 {
        let inst = edge_instruction(&mut rng);
        let index = rng.gen_range_u32(0, 1 << 24);
        let valid = validate_instruction(&inst, index as usize);
        match encode(&inst, index) {
            Ok(w) => {
                assert!(valid.is_ok(), "case {case}: {inst} encodes: {valid:?}");
                assert_eq!(decode(w, index).unwrap(), inst, "case {case}: {inst}");
            }
            Err(e) => assert!(valid.is_err(), "case {case}: {inst} validates: {e}"),
        }
        rejected += usize::from(valid.is_err());
        // A one-instruction kernel: branches must stay inside it.
        if inst.op.target().is_none() {
            let valid = validate_instruction(&inst, 0).is_ok();
            match assemble(&format!(".kernel prop\n{inst}\n"), Generation::Fermi) {
                Ok(module) => {
                    assert!(valid, "case {case}: {inst} assembles");
                    assert_eq!(module.kernels[0].code, [inst], "case {case}");
                }
                Err(e) => assert!(!valid, "case {case}: {inst} validates: {e}"),
            }
        }
    }
    assert!(
        rejected > 500,
        "only {rejected} edge cases were out of range"
    );
}

/// Random words never make `decode` panic, and a word that decodes
/// re-encodes to one that decodes to the same instruction.
#[test]
fn random_words_decode_totally_and_stably() {
    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    let mut decoded = 0;
    for case in 0..20000 {
        let mut w = rng.next_u64();
        if rng.gen_bool() {
            // A known opcode, so every row is reached.
            w = w & !(0xFF << 5) | (rng.gen_below(23) << 5);
        }
        let index = rng.gen_range_u32(0, 4096);
        if let Ok(inst) = decode(w, index) {
            decoded += 1;
            let again = encode(&inst, index).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(
                decode(again, index).unwrap(),
                inst,
                "case {case}: {w:#018x}"
            );
        }
    }
    assert!(decoded > 2000, "only {decoded} words decoded");
}

/// Every row of the instruction table, under every modifier and with
/// every operand at either end of its range, assembles from its canonical
/// text, validates, prints back to that text and survives encoding: a new
/// row is covered here without a new case, and a narrowed range fails it.
#[test]
fn every_table_row_round_trips() {
    for row in TABLE {
        for name in row.names {
            // The highest register a data run of this width may start at.
            let data = match name.rsplit_once('.') {
                Some((_, "128")) => "R56",
                Some((_, "64")) => "R60",
                _ => "R62",
            };
            for high in [false, true] {
                let operand = |slot: &Slot| match (slot, high) {
                    (Slot::Dst | Slot::A | Slot::C, false) => "R0",
                    (Slot::Dst | Slot::A | Slot::C, true) => "R62",
                    (Slot::Load | Slot::Store, false) => "R0",
                    (Slot::Load | Slot::Store, true) => data,
                    (Slot::P, false) => "P0",
                    (Slot::P, true) => "P6",
                    (Slot::B { imm: true }, false) => "-0x80000",
                    (Slot::B { imm: true }, true) => "0x7ffff",
                    (Slot::B { imm: false }, false) => "RZ",
                    (Slot::B { imm: false } | Slot::Const, true) => "c[0xf][0xfffc]",
                    (Slot::Const, false) => "c[0x0][0x0]",
                    (Slot::Shift, false) | (Slot::Target, _) => "0x0",
                    (Slot::Shift, true) => "0x1f",
                    (Slot::Special, false) => "SR_TID.X",
                    (Slot::Special, true) => "SR_LANEID",
                    (Slot::Imm32, false) => "0x0",
                    (Slot::Imm32, true) => "0xffffffff",
                    (Slot::Addr, false) => "[R0-0x800000]",
                    (Slot::Addr, true) => "[R62+0x7fffff]",
                };
                let operands: Vec<&str> = row.syntax.iter().map(operand).collect();
                let text = match operands.is_empty() {
                    true => format!("{name};"),
                    false => format!("{name} {};", operands.join(", ")),
                };
                let module = assemble(&format!(".kernel row\n{text}\n"), Generation::Fermi)
                    .unwrap_or_else(|e| panic!("{text}: {e}"));
                let inst = module.kernels[0].code[0];
                assert!(std::ptr::eq(inst.op.info(), row), "{text}");
                assert_eq!(inst.op.mnemonic(), *name);
                assert_eq!(inst.to_string(), text);
                validate_instruction(&inst, 0).unwrap();
                let word = encode(&inst, 0).unwrap();
                assert_eq!(decode(word, 0).unwrap(), inst, "{text}");
            }
        }
    }
}

/// Every instruction encodes to 64 bits and decodes back identically.
#[test]
fn encode_decode_round_trip() {
    let mut rng = Rng::seed_from_u64(0xE1C0DE);
    for case in 0..512 {
        let inst = instruction(&mut rng);
        let index = rng.gen_range_u32(0, 4096);
        let w = encode(&inst, index).unwrap();
        let back = decode(w, index).unwrap();
        assert_eq!(back, inst, "case {case} at index {index}: {inst:?}");
    }
}

/// The canonical text form re-assembles to the same instruction.
#[test]
fn display_assemble_round_trip() {
    let mut rng = Rng::seed_from_u64(0xA55E);
    for case in 0..512 {
        let code = instruction_vec(&mut rng, 1, 40);
        let mut text = String::from(".kernel prop\n");
        for inst in &code {
            text.push_str(&inst.to_string());
            text.push('\n');
        }
        let module = assemble(&text, Generation::Fermi).unwrap();
        assert_eq!(module.kernels[0].code, code, "case {case}:\n{text}");
    }
}

/// The binary container round-trips arbitrary kernels, including Kepler
/// control notation.
#[test]
fn module_binary_round_trip() {
    let mut rng = Rng::seed_from_u64(0xB17A);
    for case in 0..256 {
        let code = instruction_vec(&mut rng, 1, 60);
        let shared = rng.gen_range_u32(0, 49152);
        let kepler = rng.gen_bool();
        let generation = if kepler {
            Generation::Kepler
        } else {
            Generation::Fermi
        };
        let mut kernel = peakperf::sass::Kernel::new("prop");
        kernel.shared_bytes = shared;
        kernel.num_regs = 63;
        if kepler {
            kernel.ctl = Some(
                (0..code.len())
                    .map(|_| CtlInfo::from_byte((rng.next_u64() & 0x3F) as u8).unwrap())
                    .collect(),
            );
        }
        kernel.code = code;
        let mut module = Module::new(generation);
        module.kernels.push(kernel);
        let bytes = module.to_bytes().unwrap();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(back, module, "case {case}");
    }
}

/// Control fields round-trip through the packed 0x..7/0x2.. words.
#[test]
fn ctl_word_round_trip() {
    let mut rng = Rng::seed_from_u64(0xC71);
    for case in 0..512 {
        let n = rng.gen_range_usize(1, 50);
        let fields: Vec<CtlInfo> = (0..n)
            .map(|_| CtlInfo::from_byte((rng.next_u64() & 0x3F) as u8).unwrap())
            .collect();
        let words = peakperf::sass::ctl::pack_stream(&fields);
        let back = peakperf::sass::ctl::unpack_stream(&words, fields.len()).unwrap();
        assert_eq!(back, fields, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Register allocator properties
// ---------------------------------------------------------------------

/// Random triple constraints: any solution has distinct banks per group
/// and unique registers.
#[test]
fn allocator_solutions_are_valid() {
    let mut rng = Rng::seed_from_u64(0xA110C);
    for case in 0..64 {
        let n = rng.gen_range_usize(6, 24);
        let n_groups = rng.gen_range_usize(1, 10);
        let mut p = AllocProblem::new(n);
        let mut used_groups = Vec::new();
        for _ in 0..n_groups {
            let (a, b, c) = (
                rng.gen_range_usize(0, n),
                rng.gen_range_usize(0, n),
                rng.gen_range_usize(0, n),
            );
            if a == b || b == c || a == c {
                continue;
            }
            p.require_distinct_banks(&[VReg(a), VReg(b), VReg(c)]);
            used_groups.push((a, b, c));
        }
        match solve(&p) {
            Ok(assignment) => {
                let mut seen = std::collections::HashSet::new();
                for v in 0..n {
                    assert!(seen.insert(assignment[&VReg(v)]), "case {case}: dup reg");
                }
                for (a, b, c) in used_groups {
                    let banks = [
                        assignment[&VReg(a)].bank(),
                        assignment[&VReg(b)].bank(),
                        assignment[&VReg(c)].bank(),
                    ];
                    assert_ne!(banks[0], banks[1], "case {case}");
                    assert_ne!(banks[1], banks[2], "case {case}");
                    assert_ne!(banks[0], banks[2], "case {case}");
                }
            }
            Err(_) => {
                // Unsatisfiable is acceptable; malformed is not (all our
                // groups have exactly 3 distinct members).
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bank-conflict and coalescing analysis against the map-based originals
// ---------------------------------------------------------------------

/// The timing simulator's first `shared_conflict_factor`: a map from
/// bank to the distinct words it serves, built per phase.
fn conflict_factor_oracle(generation: Generation, width: MemWidth, addrs: &[u32]) -> u32 {
    if addrs.is_empty() {
        return 1;
    }
    let (bank_bytes, row_bytes) = match generation {
        Generation::Gt200 | Generation::Fermi => (4u32, 128u32),
        Generation::Kepler => (8, 256),
    };
    let lanes_per_phase = (row_bytes / width.bytes()).max(1) as usize;
    let mut total_ser = 0u32;
    let mut phases = 0u32;
    for subset in addrs.chunks(lanes_per_phase) {
        let mut banks: HashMap<u32, Vec<u32>> = HashMap::new();
        for &a in subset {
            for w in 0..width.words() {
                let word = (a + w * 4) / bank_bytes;
                let words = banks.entry(word % 32).or_default();
                if !words.contains(&word) {
                    words.push(word);
                }
            }
        }
        total_ser += banks.values().map(|w| w.len() as u32).max().unwrap_or(1);
        phases += 1;
    }
    total_ser.div_ceil(phases.max(1)).max(1)
}

/// The first `global_transactions`: collect, sort, dedup.
fn transactions_oracle(width: MemWidth, addrs: &[u32]) -> u32 {
    let mut segments: Vec<u32> = addrs
        .iter()
        .flat_map(|&a| a / 128..=(a + width.bytes() - 1) / 128)
        .collect();
    segments.sort_unstable();
    segments.dedup();
    segments.len() as u32
}

/// The allocation-free analyses agree with the originals on 0–32 lanes of
/// every width and bank geometry: scattered, strided, broadcast and
/// all-one-bank address sets, aligned or not.
#[test]
fn conflict_and_coalescing_match_their_oracles() {
    let mut rng = Rng::seed_from_u64(0xBA4C);
    for case in 0..4000 {
        let lanes = rng.gen_range_usize(0, 33);
        let base = rng.gen_range_u32(0, 1 << 16);
        let step = rng.gen_range_u32(0, 64);
        let shape = rng.gen_below(5);
        let addrs: Vec<u32> = (0..lanes as u32)
            .map(|lane| match shape {
                0 => rng.gen_range_u32(0, 1 << 30),     // scattered
                1 => base + rng.gen_range_u32(0, 1024), // a few rows, any alignment
                2 => base + lane * step * 4,            // strided words, step 0 = broadcast
                3 => base,                              // broadcast
                _ => base + lane * step * 256,          // one bank on both geometries
            })
            .collect();
        for width in MemWidth::ALL {
            for generation in [Generation::Fermi, Generation::Kepler] {
                assert_eq!(
                    shared_conflict_factor(generation, width, &addrs),
                    conflict_factor_oracle(generation, width, &addrs),
                    "case {case}: {generation:?} {width:?} {addrs:?}"
                );
            }
            assert_eq!(
                global_transactions(width, &addrs),
                transactions_oracle(width, &addrs),
                "case {case}: {width:?} {addrs:?}"
            );
        }
    }
}

/// `shared_conflict_factor` answers conflict-free accesses from a fast
/// pass over bank words and counts the rest in full; together they equal
/// the map-based count on 1–32 lanes of seeded random, strided (step 0 is
/// a broadcast), broadcast and stride-98-padded (the blocked SGEMM's shared
/// tiles) address sets, width-aligned, for Fermi and Kepler × 32-, 64- and
/// 128-bit widths. Every geometry sees both verdicts, so neither side of
/// the fast pass goes untested.
#[test]
fn conflict_fast_pass_equals_the_serializing_count() {
    let mut rng = Rng::seed_from_u64(0xFA57);
    let generations = [Generation::Fermi, Generation::Kepler];
    let mut verdicts = [[[0u32; 2]; 3]; 2];
    for case in 0..6000 {
        let lanes = rng.gen_range_u32(1, 33);
        let (w, width) = (case / 4 % 3, MemWidth::ALL[case / 4 % 3]);
        let bytes = width.bytes();
        let base = rng.gen_range_u32(0, 1 << 14) * bytes;
        let (step, per_row) = (rng.gen_range_u32(0, 66), rng.gen_range_u32(1, 33));
        let addrs: Vec<u32> = (0..lanes)
            .map(|lane| match case % 4 {
                0 => rng.gen_range_u32(0, 1 << 14) * bytes,
                1 => base + lane * step * bytes,
                2 => base,
                _ => base + lane % per_row * 98 * 4 + lane / per_row * bytes,
            })
            .collect();
        for (g, &generation) in generations.iter().enumerate() {
            let want = conflict_factor_oracle(generation, width, &addrs);
            assert_eq!(
                shared_conflict_factor(generation, width, &addrs),
                want,
                "case {case}: {generation:?} {width:?} {addrs:?}"
            );
            verdicts[g][w][usize::from(want > 1)] += 1;
        }
    }
    for (generation, by_width) in generations.iter().zip(verdicts) {
        for (width, [free, conflicting]) in MemWidth::ALL.iter().zip(by_width) {
            assert!(
                free > 0 && conflicting > 0,
                "{generation:?} {width:?}: {free} conflict-free, {conflicting} conflicting"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The shared fused multiply-add against `f32::mul_add`
// ---------------------------------------------------------------------

/// `±m · 2^e` for a random `m` of `bits` significant bits, `e` in `[lo, hi)`
/// (rounded to `f32`, so it may underflow or overflow).
fn short_float(rng: &mut Rng, bits: u32, lo: i32, hi: i32) -> f32 {
    let top = 1u64 << (bits - 1);
    let m = (top | rng.gen_below(top)) as f64;
    let e = rng.gen_range_i64(i64::from(lo), i64::from(hi)) as i32;
    let v = (m * 2f64.powi(e - bits as i32 + 1)) as f32;
    if rng.gen_bool() {
        -v
    } else {
        v
    }
}

/// A finite `f32` of the kinds that reach the fused multiply-add's
/// fallback: short mantissas, subnormals, signed zeros.
fn edge_float(rng: &mut Rng) -> f32 {
    let sign = rng.next_u32() & 0x8000_0000;
    match rng.gen_below(3) {
        0 => {
            let bits = rng.gen_range_u32(1, 13);
            short_float(rng, bits, -40, 40)
        }
        1 => f32::from_bits(sign | rng.next_u32() & 0x007f_ffff),
        _ => f32::from_bits(sign),
    }
}

/// `±2^t·(1 + 2^-p)` and `2^(e-t)·(1 ± 2^-p)`: a product a hair off `2^e`
/// (the half-ulp of some `f32` grid), by `2^(e-2p)` below or by about
/// `2^(e+1-p)` above.
fn near_power_pair(rng: &mut Rng, e: i32) -> (f32, f32) {
    let t = e / 2 + rng.gen_range_i64(-20, 21) as i32;
    let d = 2f64.powi(-(rng.gen_range_i64(10, 24) as i32));
    let d_b = if rng.gen_bool() { -d } else { d };
    let a = (2f64.powi(t) * (1.0 + d)) as f32;
    let b = (2f64.powi(e - t) * (1.0 + d_b)) as f32;
    (if rng.gen_bool() { -a } else { a }, b)
}

/// `±a` and a `b` whose product with it is about `±2^e`.
fn product_near(rng: &mut Rng, e: i32, a_lo: i32, a_hi: i32) -> (f32, f32) {
    let a = short_float(rng, 24, a_lo, a_hi);
    let e_b = e - a.abs().log2().floor() as i32;
    (a, short_float(rng, 24, e_b, e_b + 1))
}

/// One `(a, b, c)` of input class `class` (see the test).
fn fma_triple(rng: &mut Rng, class: usize) -> (f32, f32, f32) {
    let bits = |rng: &mut Rng| f32::from_bits(rng.next_u32());
    match class {
        0 => (bits(rng), bits(rng), bits(rng)),
        1 => {
            // c ≈ −a·b: the result is the product's rounding error.
            let a = short_float(rng, 24, -60, 60);
            let b = short_float(rng, 24, -60, 60);
            let ulps = rng.gen_range_u32(0, 5);
            let c = f32::from_bits((-(a * b)).to_bits().wrapping_add(ulps).wrapping_sub(2));
            (a, b, c)
        }
        2 => {
            // Short mantissas: exact sums, often exactly on a midpoint.
            let bits = [14, 14, 25].map(|hi| rng.gen_range_u32(1, hi));
            let a = short_float(rng, bits[0], -20, 20);
            let b = short_float(rng, bits[1], -20, 20);
            (a, b, short_float(rng, bits[2], -45, 45))
        }
        3 => {
            // An odd 13-bit × 13-bit product (often a midpoint) plus a
            // far smaller c, which the f64 sum rounds onto the midpoint.
            let a = short_float(rng, 13, 0, 1);
            let b = short_float(rng, 13, 0, 1);
            let odd = |v: f32| f32::from_bits(v.to_bits() | 1 << 11);
            (odd(a), odd(b), short_float(rng, 24, -80, -25))
        }
        4 => {
            // Subnormal results: a subnormal grid point plus a product a
            // hair off its half-ulp 2⁻¹⁵⁰, or plus any tiny product.
            let c = f32::from_bits(rng.next_u32() & 0x807f_ffff);
            let (a, b) = if rng.gen_bool() {
                near_power_pair(rng, -150)
            } else {
                let e = rng.gen_range_i64(-160, -115) as i32;
                product_near(rng, e, -100, -20)
            };
            (a, b, c)
        }
        5 => {
            // Across 2⁻¹²⁶: ±MIN_POSITIVE a few ulps either way, plus a
            // product of either sign.
            let bound = f32::MIN_POSITIVE.to_bits() + rng.gen_range_u32(0, 9) - 4;
            let c = f32::from_bits(bound | rng.next_u32() & 0x8000_0000);
            let e = rng.gen_range_i64(-152, -124) as i32;
            let (a, b) = product_near(rng, e, -80, -40);
            (a, b, c)
        }
        6 => {
            // MAX-sized c plus a product near its half-ulp 2¹⁰³: around
            // the overflow midpoint 2¹²⁸ − 2¹⁰³.
            let c = f32::from_bits(f32::MAX.to_bits() - rng.gen_range_u32(0, 3));
            let e = 103 + rng.gen_range_i64(0, 2) as i32;
            let (a, b) = near_power_pair(rng, e);
            let c = if rng.gen_bool() { -c } else { c };
            (a, if (a < 0.0) == (c < 0.0) { b } else { -b }, c)
        }
        7 => {
            // Signed zeros in every position, and exact cancellation to 0.
            let zero = |rng: &mut Rng| f32::from_bits(rng.next_u32() & 0x8000_0000);
            let x = short_float(rng, 12, -10, 10);
            let y = short_float(rng, 12, -10, 10);
            match rng.gen_below(3) {
                0 => (zero(rng), zero(rng), zero(rng)),
                1 => (x, y, zero(rng)),
                _ => (x, y, -(x * y)),
            }
        }
        8 => {
            // ±Inf and NaNs (quiet or signalling, any payload) among
            // finite values.
            let special = |rng: &mut Rng| match rng.gen_below(4) {
                0 => f32::from_bits(0x7f80_0000 | rng.next_u32() & 0x8000_0000),
                1 => f32::from_bits(0x7f80_0001 | rng.next_u32() & 0x807f_ffff),
                2 => edge_float(rng),
                _ => bits(rng),
            };
            (special(rng), special(rng), special(rng))
        }
        _ => (edge_float(rng), edge_float(rng), edge_float(rng)),
    }
}

/// `exec::ffma_lanes`, the fused multiply-add of the simulator's FFMA and
/// of `cpu::sgemm`, equals `f32::mul_add` bit for bit — NaN payloads
/// included — on 10⁷ seeded triples, in batches of 1–40 lanes (passed as
/// zero-padded 32-lane rows) so that lanes of every class share a batch
/// with lanes that need the fallback.
/// Every class where rounding `a·b + c` in `f64` and again to `f32` goes
/// wrong must show such lanes, so a dropped fallback condition fails here.
#[test]
fn ffma_lanes_is_bit_equal_to_mul_add() {
    const CLASSES: [&str; 10] = [
        "random bits",
        "cancellation",
        "short mantissas",
        "midpoint + tiny",
        "subnormal",
        "2^-126 boundary",
        "overflow",
        "signed zeros",
        "inf/nan",
        "edge values",
    ];
    let mut rng = Rng::seed_from_u64(0xF3A);
    let mut double_rounding_wrong = [0u32; CLASSES.len()];
    let mut triples = 0;
    while triples < 10_000_000 {
        let lanes = rng.gen_range_usize(1, 41);
        let class: Vec<usize> = (0..lanes)
            .map(|_| rng.gen_range_usize(0, CLASSES.len()))
            .collect();
        let abc: Vec<_> = class.iter().map(|&k| fma_triple(&mut rng, k)).collect();
        let a: Vec<f32> = abc.iter().map(|t| t.0).collect();
        let b: Vec<f32> = abc.iter().map(|t| t.1).collect();
        let c: Vec<f32> = abc.iter().map(|t| t.2).collect();
        let mut out = vec![0.0; lanes];
        for at in (0..lanes).step_by(32) {
            let row = |v: &[f32]| std::array::from_fn(|l| v.get(at + l).map_or(0, |x| x.to_bits()));
            let fused = ffma_lanes(&row(&a), &row(&b), &row(&c));
            for (o, bits) in out[at..].iter_mut().zip(fused) {
                *o = f32::from_bits(bits);
            }
        }
        for (l, &(a, b, c)) in abc.iter().enumerate() {
            let want = a.mul_add(b, c);
            let naive = (f64::from(a) * f64::from(b) + f64::from(c)) as f32;
            double_rounding_wrong[class[l]] += u32::from(naive.to_bits() != want.to_bits());
            assert_eq!(
                out[l].to_bits(),
                want.to_bits(),
                "{}: {:#010x} * {:#010x} + {:#010x}",
                CLASSES[class[l]],
                a.to_bits(),
                b.to_bits(),
                c.to_bits()
            );
        }
        triples += lanes;
    }
    for (name, wrong) in CLASSES.iter().zip(double_rounding_wrong) {
        let needs_fallback = ["midpoint + tiny", "subnormal", "overflow", "inf/nan"];
        assert!(
            wrong > 0 || !needs_fallback.contains(name),
            "{name}: no lane where the f64 shortcut alone is wrong"
        );
    }
}

// ---------------------------------------------------------------------
// Warp-wide execution against the per-lane interpreter it replaced
// ---------------------------------------------------------------------

/// What a memory instruction touched: space, width, store?, and the base
/// address of every executing lane (the public face of `MemAccess`).
type Access = (MemSpace, MemWidth, bool, Vec<u32>);

fn oracle_special(block: &BlockCtx, warp_id: u32, lane: usize, sr: SpecialReg) -> u32 {
    let t = warp_id * 32 + lane as u32;
    let nx = block.ntid.x.max(1);
    let ny = block.ntid.y.max(1);
    match sr {
        SpecialReg::TidX => t % nx,
        SpecialReg::TidY => (t / nx) % ny,
        SpecialReg::TidZ => t / (nx * ny),
        SpecialReg::CtaidX => block.ctaid.x,
        SpecialReg::CtaidY => block.ctaid.y,
        SpecialReg::CtaidZ => block.ctaid.z,
        SpecialReg::NtidX => block.ntid.x,
        SpecialReg::NtidY => block.ntid.y,
        SpecialReg::NtidZ => block.ntid.z,
        SpecialReg::NctaidX => block.nctaid.x,
        SpecialReg::NctaidY => block.nctaid.y,
        SpecialReg::LaneId => lane as u32,
    }
}

fn oracle_const(mem: &MemCtx<'_>, block: &BlockCtx, offset: u32) -> Result<u32, SimError> {
    if offset < PARAM_BASE {
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

fn oracle_operand(
    warp: &WarpState,
    lane: usize,
    op: Operand,
    mem: &MemCtx<'_>,
    block: &BlockCtx,
) -> Result<u32, SimError> {
    match op {
        Operand::Reg(r) => Ok(if r.is_rz() { 0 } else { warp.reg(lane, r) }),
        Operand::Imm(v) => Ok(v as u32),
        Operand::Const { offset, .. } => oracle_const(mem, block, offset),
    }
}

/// Alignment, then (for shared and local windows) bounds.
fn oracle_check(
    space: &'static str,
    size: Option<u64>,
    addr: u32,
    width: MemWidth,
) -> Result<usize, SimError> {
    if !addr.is_multiple_of(width.bytes()) {
        return Err(SimError::Misaligned {
            space,
            addr: u64::from(addr),
            align: width.bytes(),
        });
    }
    match size {
        Some(size) if u64::from(addr) + u64::from(width.bytes()) > size => {
            Err(SimError::OutOfBounds {
                space,
                addr: u64::from(addr),
                size,
            })
        }
        _ => Ok(addr as usize),
    }
}

/// Byte index of word `w` of a shared or local access (every word
/// re-checks, as the interpreter did).
fn oracle_window_index(
    mem: &MemCtx<'_>,
    space: MemSpace,
    thread: usize,
    base: u32,
    width: MemWidth,
    w: u32,
) -> Result<usize, SimError> {
    let first = match space {
        MemSpace::Shared => oracle_check("shared", Some(mem.shared.len() as u64), base, width)?,
        _ => {
            let size = u64::from(mem.local_bytes);
            thread * mem.local_bytes as usize + oracle_check("local", Some(size), base, width)?
        }
    };
    Ok(first + 4 * w as usize)
}

/// The lane-at-a-time `execute_op` the row-wise one replaced: every
/// executing lane in ascending order, every operand re-matched and every
/// access re-checked per lane and per word.
fn oracle_execute(
    inst: &Instruction,
    warp: &mut WarpState,
    exec_mask: u32,
    mem: &mut MemCtx<'_>,
    block: &BlockCtx,
) -> Result<Option<Access>, SimError> {
    let mut access = None;
    for l in (0..32usize).filter(|&l| exec_mask & (1 << l) != 0) {
        let reg = |warp: &WarpState, r: Reg| if r.is_rz() { 0 } else { warp.reg(l, r) };
        let float = |warp: &WarpState, r: Reg| f32::from_bits(reg(warp, r));
        match inst.op {
            Op::Nop | Op::Exit | Op::Bra { .. } | Op::Bar => {}
            Op::Mov { dst, src } => {
                let v = oracle_operand(warp, l, src, mem, block)?;
                warp.set_reg(l, dst, v);
            }
            Op::Mov32i { dst, imm } => warp.set_reg(l, dst, imm),
            Op::S2r { dst, sr } => {
                let v = oracle_special(block, warp.warp_id, l, sr);
                warp.set_reg(l, dst, v);
            }
            Op::Fadd { dst, a, b } => {
                let bv = f32::from_bits(oracle_operand(warp, l, b, mem, block)?);
                warp.set_reg(l, dst, (float(warp, a) + bv).to_bits());
            }
            Op::Fmul { dst, a, b } => {
                let bv = f32::from_bits(oracle_operand(warp, l, b, mem, block)?);
                warp.set_reg(l, dst, (float(warp, a) * bv).to_bits());
            }
            Op::Ffma { dst, a, b, c } => {
                let bv = f32::from_bits(oracle_operand(warp, l, b, mem, block)?);
                let v = float(warp, a).mul_add(bv, float(warp, c));
                warp.set_reg(l, dst, v.to_bits());
            }
            Op::Iadd { dst, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)?;
                warp.set_reg(l, dst, reg(warp, a).wrapping_add(bv));
            }
            Op::Imul { dst, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)?;
                warp.set_reg(l, dst, reg(warp, a).wrapping_mul(bv));
            }
            Op::Imad { dst, a, b, c } => {
                let bv = oracle_operand(warp, l, b, mem, block)?;
                let v = reg(warp, a).wrapping_mul(bv).wrapping_add(reg(warp, c));
                warp.set_reg(l, dst, v);
            }
            Op::Iscadd { dst, a, b, shift } => {
                let bv = oracle_operand(warp, l, b, mem, block)?;
                let v = reg(warp, a).wrapping_shl(u32::from(shift)).wrapping_add(bv);
                warp.set_reg(l, dst, v);
            }
            Op::Shl { dst, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)? & 31;
                warp.set_reg(l, dst, reg(warp, a) << bv);
            }
            Op::Shr { dst, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)? & 31;
                warp.set_reg(l, dst, reg(warp, a) >> bv);
            }
            Op::Lop { op, dst, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)?;
                warp.set_reg(l, dst, op.eval(reg(warp, a), bv));
            }
            Op::Isetp { p, cmp, a, b } => {
                let bv = oracle_operand(warp, l, b, mem, block)? as i32;
                warp.set_pred(l, p, cmp.eval(reg(warp, a) as i32, bv));
            }
            Op::Ldc { dst, offset, .. } => {
                let v = oracle_const(mem, block, offset)?;
                warp.set_reg(l, dst, v);
            }
            Op::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                let base = reg(warp, addr).wrapping_add(offset as u32);
                let (.., addrs) = access.get_or_insert((space, width, false, Vec::new()));
                addrs.push(base);
                let thread = warp.warp_id as usize * 32 + l;
                for w in 0..width.words() {
                    let value = if space == MemSpace::Global {
                        oracle_check("global", None, base, width)?;
                        mem.global.read_u32(base + 4 * w)?
                    } else {
                        let i = oracle_window_index(mem, space, thread, base, width, w)?;
                        let window = if space == MemSpace::Shared {
                            &*mem.shared
                        } else {
                            &*mem.local
                        };
                        u32::from_le_bytes(window[i..i + 4].try_into().unwrap())
                    };
                    if let Some(r) = dst.offset_checked(w as u8) {
                        warp.set_reg(l, r, value);
                    }
                }
            }
            Op::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                let base = reg(warp, addr).wrapping_add(offset as u32);
                let (.., addrs) = access.get_or_insert((space, width, true, Vec::new()));
                addrs.push(base);
                let thread = warp.warp_id as usize * 32 + l;
                for w in 0..width.words() {
                    let value = src.offset_checked(w as u8).map_or(0, |r| reg(warp, r));
                    if space == MemSpace::Global {
                        oracle_check("global", None, base, width)?;
                        mem.global.write_u32(base + 4 * w, value)?;
                    } else {
                        let i = oracle_window_index(mem, space, thread, base, width, w)?;
                        let window = if space == MemSpace::Shared {
                            &mut *mem.shared
                        } else {
                            &mut *mem.local
                        };
                        window[i..i + 4].copy_from_slice(&value.to_le_bytes());
                    }
                }
            }
        }
    }
    // A memory instruction records an access even when no lane executes.
    if let Op::Ld { space, width, .. } | Op::St { space, width, .. } = inst.op {
        let store = matches!(inst.op, Op::St { .. });
        access.get_or_insert((space, width, store, Vec::new()));
    }
    Ok(access)
}

/// Everything one warp instruction can read or write.
#[derive(Clone)]
struct Machine {
    warp: WarpState,
    global: GlobalMemory,
    shared: Vec<u8>,
    local: Vec<u8>,
}

const ORACLE_LOCAL_BYTES: u32 = 32;

impl Machine {
    fn mem<'a>(&'a mut self, params: &'a [u32]) -> (&'a mut WarpState, MemCtx<'a>) {
        let mem = MemCtx {
            global: &mut self.global,
            shared: &mut self.shared,
            local: &mut self.local,
            local_bytes: ORACLE_LOCAL_BYTES,
            params,
        };
        (&mut self.warp, mem)
    }

    fn assert_same(&self, other: &Machine, context: &str) {
        for r in 0..64 {
            for lane in 0..32 {
                let (got, want) = (
                    self.warp.reg(lane, Reg::r(r)),
                    other.warp.reg(lane, Reg::r(r)),
                );
                assert_eq!(got, want, "{context}: R{r} lane {lane}");
            }
        }
        for p in 0..7 {
            for lane in 0..32 {
                let (got, want) = (
                    self.warp.pred(lane, Pred::p(p)),
                    other.warp.pred(lane, Pred::p(p)),
                );
                assert_eq!(got, want, "{context}: P{p} lane {lane}");
            }
        }
        assert_eq!(self.shared, other.shared, "{context}: shared memory");
        assert_eq!(self.local, other.local, "{context}: local memory");
        assert_eq!(self.global.size(), other.global.size(), "{context}");
        for addr in (4..self.global.size()).step_by(4) {
            let (got, want) = (self.global.read_u32(addr), other.global.read_u32(addr));
            assert_eq!(got, want, "{context}: global word {addr:#x}");
        }
    }
}

/// `step_warp` on the register-major warp — guard as a lane-mask
/// operation, operands fetched as rows, one loop per instruction — leaves
/// exactly the registers, predicates, memory, access record and error of
/// the per-lane interpreter, on full, partial and empty execution masks,
/// `RZ`/`PT` in every position, immediates, in- and out-of-range constants
/// and memory instructions with a faulting lane in mid-warp.
#[test]
fn warp_wide_execution_matches_the_per_lane_interpreter() {
    let mut rng = Rng::seed_from_u64(0x10E5);
    // Large enough that about half the sampled constant offsets hit it.
    let params: Vec<u32> = (0..0x2000).map(|_| rng.next_u32()).collect();
    for case in 0..8000 {
        let mut inst = loop {
            let inst = instruction(&mut rng);
            let is_mem = matches!(inst.op, Op::Ld { .. } | Op::St { .. });
            let is_control = matches!(inst.op, Op::Exit | Op::Bra { .. } | Op::Bar);
            if !is_control && (is_mem || case % 4 != 0) {
                break inst;
            }
        };
        // `mem_parts` keeps wide data registers inside the file; the
        // simulator must also survive ones that run into or past RZ.
        if let Op::Ld { dst: data, .. } | Op::St { src: data, .. } = &mut inst.op {
            if rng.gen_below(8) == 0 {
                *data = Reg::r(rng.gen_range_u32(60, 64) as u8);
            }
        }

        let lanes = if rng.gen_bool() {
            32
        } else {
            rng.gen_range_u32(1, 33)
        };
        let warp_id = rng.gen_range_u32(0, 2);
        let mut global = GlobalMemory::new();
        let global_base = global.alloc_zeroed(256).unwrap();
        for addr in (global_base..global.size()).step_by(4) {
            global.write_u32(addr, rng.next_u32()).unwrap();
        }
        let mut machine = Machine {
            warp: WarpState::new(warp_id, lanes),
            global,
            shared: (0..256).map(|_| rng.next_u32() as u8).collect(),
            local: (0..64 * ORACLE_LOCAL_BYTES)
                .map(|_| rng.next_u32() as u8)
                .collect(),
        };
        for r in 0..63 {
            // Some rows are half short-mantissa, subnormal and ±0 values,
            // so FFMA lanes reach the fallback of `ffma_lanes`.
            let edge_row = rng.gen_below(3) == 0;
            for lane in 0..32 {
                // Any bits except NaN and infinity: which payload a NaN
                // result carries is the compiler's choice of operand order.
                let mut bits = if edge_row && rng.gen_bool() {
                    edge_float(&mut rng).to_bits()
                } else {
                    rng.next_u32()
                };
                if bits & 0x7f80_0000 == 0x7f80_0000 {
                    bits &= !0x0080_0000;
                }
                machine.warp.set_reg(lane, Reg::r(r), bits);
            }
        }
        for p in 0..7 {
            let pattern = [0, u32::MAX, rng.next_u32()][rng.gen_range_usize(0, 3)];
            for lane in 0..32 {
                machine
                    .warp
                    .set_pred(lane, Pred::p(p), pattern >> lane & 1 != 0);
            }
        }
        if let Op::Ld {
            space,
            width,
            addr,
            offset,
            ..
        }
        | Op::St {
            space,
            width,
            addr,
            offset,
            ..
        } = inst.op
        {
            // Aim every lane at a valid, aligned word of the window, then
            // break one lane somewhere in the warp in half of the cases.
            let (lo, len) = match space {
                MemSpace::Global => (global_base, 256),
                MemSpace::Shared => (0, 256),
                MemSpace::Local => (0, ORACLE_LOCAL_BYTES),
            };
            let slots = len / width.bytes();
            let mut targets: Vec<u32> = (0..32)
                .map(|_| lo + width.bytes() * rng.gen_range_u32(0, slots))
                .collect();
            if rng.gen_bool() {
                let victim = rng.gen_range_usize(0, 32);
                targets[victim] = match rng.gen_below(4) {
                    0 => targets[victim] + 1,
                    1 => targets[victim] + width.bytes() / 2,
                    2 => lo + len - width.bytes() + 4, // past the end, or misaligned
                    _ => [0, lo + len, 0xffff_fff0][rng.gen_range_usize(0, 3)],
                };
            }
            for (lane, target) in targets.into_iter().enumerate() {
                let value = target.wrapping_sub(offset as u32);
                machine.warp.set_reg(lane, addr, value);
            }
        }
        let block = BlockCtx {
            ctaid: Dim3::new_2d(rng.gen_range_u32(0, 4), rng.gen_range_u32(0, 4)),
            ntid: Dim3::new_2d(rng.gen_range_u32(1, 65), rng.gen_range_u32(1, 5)),
            nctaid: Dim3::new_2d(4, 4),
        };
        let context = format!("case {case}: {inst} on {lanes} lanes");

        let mut reference = machine.clone();
        let got = {
            let (warp, mut mem) = machine.mem(&params);
            step_warp(std::slice::from_ref(&inst), warp, &mut mem, &block).map(|step| {
                let access = step
                    .mem
                    .map(|m| (m.space, m.width, m.store, m.addrs().to_vec()));
                (step.event, access)
            })
        };
        let want = {
            let (warp, mut mem) = reference.mem(&params);
            // The guard, lane by lane over the (converged) group.
            let exec_mask = (0..32usize)
                .filter(|&l| warp.live_mask() & (1 << l) != 0)
                .filter(|&l| {
                    inst.pred
                        .is_none_or(|p| (p.is_pt() || warp.pred(l, p)) != inst.pred_neg)
                })
                .fold(0u32, |mask, l| mask | 1 << l);
            oracle_execute(&inst, warp, exec_mask, &mut mem, &block)
                .map(|access| (StepEvent::Executed { pc: 0, exec_mask }, access))
        };
        assert_eq!(got, want, "{context}");
        machine.assert_same(&reference, &context);
    }
}

// ---------------------------------------------------------------------
// SGEMM functional equivalence on random shapes
// ---------------------------------------------------------------------

/// Naive kernel == CPU reference, bit for bit, on random small shapes and
/// scalars.
#[test]
fn naive_sgemm_matches_cpu() {
    let mut rng = Rng::seed_from_u64(0x5E33);
    for case in 0..8 {
        let variant = Variant::ALL[rng.gen_range_usize(0, 4)];
        let problem = SgemmProblem {
            variant,
            m: rng.gen_range_u32(1, 4) * 16,
            n: rng.gen_range_u32(1, 4) * 16,
            k: rng.gen_range_u32(1, 40),
        };
        let alpha = rng.gen_range_f32(-2.0, 2.0);
        let beta = rng.gen_range_f32(-2.0, 2.0);
        let seed = rng.next_u64();
        let (ar, ac) = problem.a_shape();
        let (br, bc) = problem.b_shape();
        let a = Matrix::random(ar, ac, seed);
        let b = Matrix::random(br, bc, seed ^ 1);
        let c0 = Matrix::random(problem.m as usize, problem.n as usize, seed ^ 2);

        let build = build_naive(Generation::Fermi, &problem).unwrap();
        let mut gpu = Gpu::new(Generation::Fermi);
        let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, alpha, beta).unwrap();

        let mut c_ref = c0.data.clone();
        cpu::sgemm(
            variant,
            problem.m as usize,
            problem.n as usize,
            problem.k as usize,
            alpha,
            &a.data,
            problem.lda() as usize,
            &b.data,
            problem.ldb() as usize,
            beta,
            &mut c_ref,
            problem.ldc() as usize,
        );
        let reference = Matrix {
            rows: problem.m as usize,
            cols: problem.n as usize,
            ld: problem.m as usize,
            data: c_ref,
        };
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.c), bits(&reference), "case {case}: {problem:?}");
    }
}

/// Blocked kernel == CPU reference, bit for bit, on random multiples of
/// the tile.
#[test]
fn blocked_sgemm_matches_cpu() {
    let mut rng = Rng::seed_from_u64(0xB10C);
    for case in 0..8 {
        let variant = Variant::ALL[rng.gen_range_usize(0, 4)];
        let problem = SgemmProblem {
            variant,
            m: rng.gen_range_u32(1, 3) * 96,
            n: rng.gen_range_u32(1, 3) * 96,
            k: rng.gen_range_u32(1, 5) * 16,
        };
        let seed = rng.next_u64();
        let (ar, ac) = problem.a_shape();
        let (br, bc) = problem.b_shape();
        let a = Matrix::random(ar, ac, seed);
        let b = Matrix::random(br, bc, seed ^ 1);
        let c0 = Matrix::zeros(problem.m as usize, problem.n as usize);

        let build = build_preset(Generation::Fermi, &problem, Preset::AsmOpt).unwrap();
        let mut gpu = Gpu::new(Generation::Fermi);
        let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, 1.0, 0.0).unwrap();

        let mut c_ref = c0.data.clone();
        cpu::sgemm(
            variant,
            problem.m as usize,
            problem.n as usize,
            problem.k as usize,
            1.0,
            &a.data,
            problem.lda() as usize,
            &b.data,
            problem.ldb() as usize,
            0.0,
            &mut c_ref,
            problem.ldc() as usize,
        );
        let reference = Matrix {
            rows: problem.m as usize,
            cols: problem.n as usize,
            ld: problem.m as usize,
            data: c_ref,
        };
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.c), bits(&reference), "case {case}: {problem:?}");
    }
}

// ---------------------------------------------------------------------
// The fuzz case codec under seeded edits
// ---------------------------------------------------------------------

/// A well-formed corpus record.
fn violation_case(rng: &mut Rng) -> ViolationCase {
    let removed = rng.gen_below(4) as usize;
    ViolationCase {
        case: FuzzCase {
            generation: one_of(rng, &[Generation::Fermi, Generation::Kepler]),
            seed: one_of(rng, &SeedSpec::all()),
            mutation_seed: rng.next_u64(),
        },
        violation: Violation {
            kind: one_of(rng, &ViolationKind::ALL),
            detail: format!("timing=\"{}\"\ntraced=?", rng.next_u32()),
        },
        removed: (0..removed).map(|_| rng.gen_range_usize(0, 300)).collect(),
    }
}

/// One seeded edit of the object `doc`, rendered by `render`: drop one of
/// the `required` members, retype any member (or an element of an array
/// member), or truncate the rendered text. Returns the edited text and the
/// member its error must name (`None` for a truncation).
fn edit(
    rng: &mut Rng,
    doc: &Json,
    required: &[&'static str],
    render: fn(&Json) -> String,
) -> (String, Option<String>) {
    let mut members = doc.as_obj().unwrap().to_vec();
    match rng.gen_below(3) {
        0 => {
            let key = one_of(rng, required);
            members.retain(|(k, _)| k != key);
            (render(&Json::Obj(members)), Some(key.to_owned()))
        }
        1 => {
            let i = rng.gen_range_usize(0, members.len());
            let (key, value) = &mut members[i];
            match value {
                Json::Str(_) => {
                    *value = one_of(rng, &[Json::Int(580), Json::Bool(true), Json::Arr(vec![])]);
                }
                Json::Int(_) => {
                    let beyond_u64 = Json::Int(1 << 64);
                    let other = [Json::from("7"), Json::Num(1.5), Json::Int(-1), beyond_u64];
                    *value = one_of(rng, &other);
                }
                Json::Arr(items) if !items.is_empty() && rng.gen_bool() => {
                    let j = rng.gen_range_usize(0, items.len());
                    items[j] = one_of(rng, &[Json::from("x"), Json::Int(-1)]);
                }
                _ => *value = Json::from("x"),
            }
            let key = key.clone();
            (render(&Json::Obj(members)), Some(key))
        }
        _ => {
            // Any strict prefix of an object's text, short of its closing
            // brace, is not a document.
            let text = render(doc);
            let keep = rng.gen_range_usize(0, text.trim_end().len());
            (text[..keep].to_owned(), None)
        }
    }
}

#[test]
fn case_codec_ends_every_edit_in_an_error_naming_the_member() {
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    let record_members = ["gpu", "seed", "mutation_seed", "kind", "detail", "removed"];
    let job_members = ["schema", "id", "kind", "gpu", "seed", "mutation_seed"];
    let read_record = |text: &str| ViolationCase::from_json(&Json::parse(text)?);
    // The members the edits of profile, spin and panic job lines named.
    let mut named_in_other_jobs = HashMap::new();
    for case in 0..200 {
        let record = violation_case(&mut rng);
        let job = JobSpec {
            deadline_ms: rng.gen_bool().then(|| rng.gen_below(60_000)),
            ..JobSpec::new(format!("f{case}"), JobKind::Fault { case: record.case })
        };
        let (record_doc, job_doc) = (record.to_json(), job.to_json());
        assert_eq!(
            read_record(&record_doc.pretty()),
            Ok(record.clone()),
            "case {case}"
        );
        assert_eq!(
            parse_job_line(&job_doc.render()),
            Ok(job.clone()),
            "case {case}"
        );

        let (text, named) = edit(&mut rng, &record_doc, &record_members, Json::pretty);
        let err = read_record(&text).expect_err(&format!("case {case}: accepted {text}"));
        if let Some(key) = named {
            assert!(
                err.contains(&format!("`{key}`")),
                "case {case}: {text} -> {err}"
            );
        }
        let (text, named) = edit(&mut rng, &job_doc, &job_members, Json::render);
        let err = parse_job_line(&text).expect_err(&format!("case {case}: accepted {text}"));
        if let Some(key) = named {
            assert!(
                err.contains(&format!("`{key}`")),
                "case {case}: {text} -> {err}"
            );
        }

        // The other kinds' lines, with and without their optional members.
        let (kind, required) = match case % 3 {
            0 => {
                let target = one_of(&mut rng, &TARGETS).name.to_owned();
                let required = &["schema", "id", "kind", "target"][..];
                (JobKind::Profile { target }, required)
            }
            1 => (JobKind::Spin, &job_members[..3]),
            _ => (JobKind::Panic, &job_members[..3]),
        };
        let job = JobSpec {
            deadline_ms: rng.gen_bool().then(|| rng.gen_below(60_000)),
            cancel_at_cycle: rng.gen_bool().then(|| rng.gen_below(1 << 40)),
            ..JobSpec::new(format!("j{case}"), kind)
        };
        let job_doc = job.to_json();
        assert_eq!(parse_job_line(&job_doc.render()), Ok(job), "case {case}");
        let (text, named) = edit(&mut rng, &job_doc, required, Json::render);
        let err = parse_job_line(&text).expect_err(&format!("case {case}: accepted {text}"));
        if let Some(key) = named {
            assert!(
                err.contains(&format!("`{key}`")),
                "case {case}: {text} -> {err}"
            );
            *named_in_other_jobs.entry(key).or_insert(0) += 1;
        }
    }
    for key in ["target", "deadline_ms", "cancel_at_cycle"] {
        assert!(
            named_in_other_jobs.contains_key(key),
            "no edit named `{key}`: {named_in_other_jobs:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The benchmark ledger under seeded edits
// ---------------------------------------------------------------------

/// The members every ledger entry holds.
const LEDGER_MEMBERS: [&str; 7] = [
    "pr", "commit", "workload", "side", "medians", "pairs", "exact",
];

/// A value of another type than `value`, none of which its check accepts
/// in its place (an integer passes where a number is asked for).
fn retyped(rng: &mut Rng, value: &Json) -> Json {
    match value {
        Json::Str(_) => one_of(rng, &[Json::Int(37), Json::Bool(true), Json::Arr(vec![])]),
        Json::Int(_) | Json::Num(_) => {
            one_of(rng, &[Json::from("7"), Json::Bool(false), Json::Null])
        }
        _ => one_of(rng, &[Json::from("x"), Json::Int(0), Json::Arr(vec![])]),
    }
}

/// One seeded hand edit of one entry of the ledger `doc`: delete or
/// retype one of its members or one of its five medians, or turn its side
/// into the other one, which its pair already holds. Returns the edited
/// document and the text of the error that must name the member.
fn edit_ledger(rng: &mut Rng, doc: &Json) -> (Json, String) {
    let mut entries = doc.items("entries").to_vec();
    let i = rng.gen_range_usize(0, entries.len());
    let at = format!("entries[{i}]");
    let mut members = entries[i].as_obj().unwrap().to_vec();
    let member = |members: &[(String, Json)], key: &str| -> usize {
        members.iter().position(|(k, _)| k == key).unwrap()
    };
    let expected = match rng.gen_below(5) {
        0 => {
            let key = one_of(rng, &LEDGER_MEMBERS);
            members.retain(|(k, _)| k != key);
            format!("{at}: missing key `{key}`")
        }
        1 => {
            let key = one_of(rng, &LEDGER_MEMBERS);
            let slot = member(&members, key);
            members[slot].1 = retyped(rng, &members[slot].1);
            format!("{at}.{key}: expected")
        }
        edit @ (2 | 3) => {
            let slot = member(&members, "medians");
            let mut medians = members[slot].1.as_obj().unwrap().to_vec();
            let name = one_of(rng, &END_TO_END);
            let expected = if edit == 2 {
                medians.retain(|(k, _)| k != name);
                format!("{at}.medians: missing key `{name}`")
            } else {
                let m = member(&medians, name);
                medians[m].1 = retyped(rng, &medians[m].1);
                format!("{at}.medians.{name}: expected")
            };
            members[slot].1 = Json::Obj(medians);
            expected
        }
        _ => {
            let (pr, workload, side) = {
                let entry = &entries[i];
                (
                    entry.count("pr"),
                    entry.text("workload"),
                    entry.text("side"),
                )
            };
            let other = if side == "parent" { "change" } else { "parent" };
            let partner = entries
                .iter()
                .position(|e| {
                    e.count("pr") == pr && e.text("workload") == workload && e.text("side") == other
                })
                .unwrap();
            let slot = member(&members, "side");
            members[slot].1 = Json::from(other);
            format!("entries[{}].side: duplicate entry", i.max(partner))
        }
    };
    entries[i] = Json::Obj(members);
    let mut top = doc.as_obj().unwrap().to_vec();
    let slot = top.iter().position(|(k, _)| k == "entries").unwrap();
    top[slot].1 = Json::Arr(entries);
    (Json::Obj(top), expected)
}

#[test]
fn ledger_check_ends_every_edit_in_an_error_naming_the_member() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_LEDGER.json");
    let ledger = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(check_document(&ledger), Vec::<String>::new());
    let mut rng = Rng::seed_from_u64(0x1ED6E2);
    for case in 0..300 {
        let (edited, expected) = edit_ledger(&mut rng, &ledger);
        // A hand edit is made to the text of the file.
        let text = edited.pretty();
        let errors = check_document(&Json::parse(&text).unwrap());
        assert!(
            errors.iter().any(|e| e.contains(&expected)),
            "case {case}: no error says {expected:?}: {errors:?}"
        );
    }
}

/// One seeded byte edit of `bytes`: delete or duplicate a run of up to 8
/// bytes, flip one bit, or truncate.
fn edit_bytes(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.gen_range_usize(0, out.len());
    let end = (at + rng.gen_range_usize(1, 9)).min(out.len());
    match rng.gen_below(4) {
        0 => drop(out.drain(at..end)),
        1 => {
            let run = out[at..end].to_vec();
            out.splice(at..at, run);
        }
        2 => out[at] ^= 1 << rng.gen_below(8),
        _ => out.truncate(at),
    }
    out
}

#[test]
fn json_parse_survives_seeded_byte_edits_of_checked_in_documents() {
    let root = env!("CARGO_MANIFEST_DIR");
    let documents = [
        "BENCH_LEDGER.json",
        "crates/bench/tests/golden_servicetrace.json",
        "tests/golden_trace_2warp.json",
    ]
    .map(|path| std::fs::read(format!("{root}/{path}")).unwrap());
    let mut rng = Rng::seed_from_u64(0x15_0ED1);
    let within_a_second = |case: usize, what: &str, t0: std::time::Instant| {
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "case {case}: {what} took {took:?}"
        );
    };
    for case in 0..500 * documents.len() {
        let edited = edit_bytes(&mut rng, &documents[case % documents.len()]);
        let text = String::from_utf8_lossy(&edited);
        let t0 = std::time::Instant::now();
        let parsed = std::panic::catch_unwind(|| Json::parse(&text))
            .unwrap_or_else(|_| panic!("case {case}: Json::parse panicked"));
        within_a_second(case, "Json::parse", t0);
        if let Ok(value) = parsed {
            for rendered in [value.render(), value.pretty()] {
                assert_eq!(Json::parse(&rendered), Ok(value.clone()), "case {case}");
            }
            let t0 = std::time::Instant::now();
            std::panic::catch_unwind(|| check_document(&value))
                .unwrap_or_else(|_| panic!("case {case}: check_document panicked"));
            within_a_second(case, "check_document", t0);
        }
    }
}

/// One seeded edit of assembly text: delete, duplicate or truncate at a
/// run of up to 8 characters, or replace one character with an ASCII one
/// or with a multi-byte one (two Unicode spaces and a letter).
fn edit_text(rng: &mut Rng, text: &str) -> String {
    const ASCII: &[u8] = b" \t,;:[]+-.@!/*\nRPZTcx0123456789abcdef";
    const WIDE: [char; 3] = ['\u{a0}', '\u{3000}', '\u{e9}'];
    let mut chars: Vec<char> = text.chars().collect();
    let at = rng.gen_range_usize(0, chars.len());
    let end = (at + rng.gen_range_usize(1, 9)).min(chars.len());
    match rng.gen_below(5) {
        0 => drop(chars.drain(at..end)),
        1 => {
            let run = chars[at..end].to_vec();
            chars.splice(at..at, run);
        }
        2 => chars.truncate(at),
        3 => chars[at] = char::from(ASCII[rng.gen_range_usize(0, ASCII.len())]),
        _ => chars[at] = WIDE[rng.gen_range_usize(0, WIDE.len())],
    }
    chars.into_iter().collect()
}

/// The assembler ends every edit of a printed module in a module or a
/// typed error, quickly, and a parse error names a line of the text: it
/// reads user files (`sassc as`, `sassc run`).
#[test]
fn assembler_survives_seeded_edits_of_printed_modules() {
    let mut texts = Vec::new();
    for generation in [Generation::Fermi, Generation::Kepler] {
        for preset in Preset::ALL {
            for variant in Variant::ALL {
                let problem = SgemmProblem {
                    variant,
                    m: 96,
                    n: 96,
                    k: 16,
                };
                let mut module = Module::new(generation);
                module
                    .kernels
                    .push(build_preset(generation, &problem, preset).unwrap().kernel);
                texts.push((generation, module.to_string()));
            }
        }
    }
    let mut rng = Rng::seed_from_u64(0xA55E_3B1E);
    for case in 0..24 * texts.len() {
        let (generation, text) = &texts[case % texts.len()];
        let edited = edit_text(&mut rng, text);
        let t0 = std::time::Instant::now();
        let assembled = std::panic::catch_unwind(|| assemble(&edited, *generation))
            .unwrap_or_else(|_| panic!("case {case}: assemble panicked"));
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "case {case}: assemble took {took:?}"
        );
        if let Err(SassError::Parse { line, message }) = assembled {
            let lines = edited.lines().count();
            assert!(
                line <= lines,
                "case {case}: line {line} of {lines}: {message}"
            );
        }
    }
}
