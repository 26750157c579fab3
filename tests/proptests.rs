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
use peakperf::sass::{
    assemble, decode, encode, CmpOp, CtlInfo, Instruction, LogicOp, MemSpace, MemWidth, Module, Op,
    Operand, Pred, Reg, SpecialReg,
};
use peakperf::sim::timing::{global_transactions, shared_conflict_factor};
use peakperf::sim::Gpu;

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
            for generation in Generation::ALL {
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

// ---------------------------------------------------------------------
// SGEMM functional equivalence on random shapes
// ---------------------------------------------------------------------

/// Naive kernel == CPU reference on random small shapes and scalars.
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
        assert!(
            run.c.max_abs_diff(&reference) < 2e-3,
            "case {case}: {problem:?}"
        );
    }
}

/// Blocked kernel == CPU reference on random multiples of the tile.
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
        assert!(
            run.c.max_abs_diff(&reference) < 2e-3,
            "case {case}: {problem:?}"
        );
    }
}
