//! Fault injection and differential fuzzing for the SASS → simulator
//! pipeline.
//!
//! The reproduction rests on two independent executions of every kernel:
//! the functional model ([`peakperf_sim::Gpu`]) and the cycle-level timing
//! model ([`TimingSim`]). This module perturbs *known-good* kernels — the
//! Table-2 throughput microbenchmarks and the SGEMM presets — with seeded,
//! reproducible corruptions and drives every mutant through
//! parse → validate → encode → functional sim → timing sim under a
//! panic-to-error boundary and watchdog budgets.
//!
//! The oracle accepts a mutant when:
//!
//! * the validator rejects it with a structured error on both models, or
//! * both models complete and agree on the coarse outcome class
//!   (ok / reject / fault), and the traced timing run is identical to the
//!   untraced one, and
//! * a kernel the validator *accepts* encodes and decodes, and prints and
//!   re-assembles, back to itself.
//!
//! Anything else — a panic anywhere in the pipeline, a functional/timing
//! disagreement, a tracer that changes timing, a validated kernel that
//! fails to round-trip — is a violation. Violations are greedily
//! minimized by instruction removal and written to a replayable corpus
//! (`tests/fault_corpus/`), which a regression test replays on every run.
//!
//! Everything is deterministic: a campaign is fully described by one
//! `u64` seed, and each mutant by `(generation, seed kernel, mutation
//! seed)` — there is no wall-clock or global state in the mutation path.

use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use peakperf_arch::{Generation, GpuConfig};
use peakperf_kernels::microbench::math::{build_math_kernel, table2_patterns};
use peakperf_kernels::rng::Rng;
use peakperf_kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf_sass::{
    assemble, validate_kernel, CtlInfo, ImmMut, Instruction, Kernel, Module, Op, OpClass, Operand,
    Reg, Role,
};
use peakperf_sim::timing::{Hooks, TimingSim, TraceBuffer};
use peakperf_sim::{ensure, obj, CancelToken, GlobalMemory, Gpu, Json, LaunchConfig, SimError};

use crate::exec::{panic_message, run_isolated, Executor};
use crate::report::{envelope, Table};

/// Functional-model step budget per mutant. A hang whose warp state recurs
/// exactly reaches it without simulating the repeated periods (DESIGN.md
/// §5.1); the budget bounds the cost of the rest, loops whose counters or
/// pointers advance.
pub const FUZZ_STEP_LIMIT: u64 = 2_000_000;

/// Timing-model cycle budget per mutant.
pub const FUZZ_CYCLE_LIMIT: u64 = 400_000;

/// Matrix size for the SGEMM seed kernels: one 96×96 block, a grid that
/// fits one SM, so the functional model (whole grid) and the timing model
/// (the wave `TimingSim::new` derives) simulate exactly the same work.
const SGEMM_SIZE: u32 = 96;

/// Deterministic seed for the SGEMM input matrices.
const UPLOAD_SEED: u64 = 0xF00D;

/// A generation's name in corpus files, job lines and fuzz documents.
fn generation_name(g: Generation) -> String {
    g.to_string().to_ascii_lowercase()
}

/// The generation named `name` (`fermi` or `kepler`): the fuzzer drives
/// only the paper's two GPUs, since the timing model has no GT200
/// calibration.
pub fn parse_generation(name: &str) -> Option<Generation> {
    [Generation::Fermi, Generation::Kepler]
        .into_iter()
        .find(|&g| generation_name(g) == name)
}

// ---------------------------------------------------------------------------
// Seed kernels
// ---------------------------------------------------------------------------

/// A known-good kernel the fuzzer perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSpec {
    /// Table-2 throughput microbenchmark (pattern index).
    Table2(usize),
    /// SGEMM `AsmOpt` preset for one transpose variant.
    Sgemm(Variant),
}

/// A built seed: the kernel plus everything needed to launch it.
#[derive(Debug, Clone)]
pub struct SeedCase {
    /// The kernel before mutation.
    pub kernel: Kernel,
    /// Launch shape (always a single block, see `SGEMM_SIZE`).
    pub config: LaunchConfig,
    /// SGEMM problem for parameter upload; `None` for parameterless seeds.
    pub problem: Option<SgemmProblem>,
}

impl SeedSpec {
    /// Every seed kernel the fuzzer draws from.
    pub fn all() -> Vec<SeedSpec> {
        let mut v: Vec<SeedSpec> = (0..table2_patterns().len()).map(SeedSpec::Table2).collect();
        v.extend(Variant::ALL.iter().copied().map(SeedSpec::Sgemm));
        v
    }

    /// Stable identifier (`table2:07`, `sgemm:nt`) used in corpus files.
    pub fn id(self) -> String {
        match self {
            SeedSpec::Table2(i) => format!("table2:{i:02}"),
            SeedSpec::Sgemm(v) => format!("sgemm:{}", v.name().to_lowercase()),
        }
    }

    /// Inverse of [`SeedSpec::id`].
    pub fn parse(s: &str) -> Option<SeedSpec> {
        let (kind, rest) = s.split_once(':')?;
        match kind {
            "table2" => {
                let i: usize = rest.parse().ok()?;
                (i < table2_patterns().len()).then_some(SeedSpec::Table2(i))
            }
            "sgemm" => Variant::ALL
                .iter()
                .copied()
                .find(|v| v.name().to_lowercase() == rest)
                .map(SeedSpec::Sgemm),
            _ => None,
        }
    }

    /// Build the seed kernel for a generation.
    ///
    /// # Errors
    ///
    /// Seed kernels are expected to always build; an error here is a
    /// harness bug and is reported as a string.
    pub fn build(self, generation: Generation) -> Result<SeedCase, String> {
        match self {
            SeedSpec::Table2(i) => {
                let patterns = table2_patterns();
                let pattern = patterns
                    .get(i)
                    .ok_or_else(|| format!("table2 pattern {i} out of range"))?;
                let kernel = build_math_kernel(generation, pattern, 16, 4)
                    .map_err(|e| format!("table2:{i} failed to build: {e}"))?;
                Ok(SeedCase {
                    kernel,
                    config: LaunchConfig::linear(1, 256),
                    problem: None,
                })
            }
            SeedSpec::Sgemm(variant) => {
                let problem = SgemmProblem::square(variant, SGEMM_SIZE);
                let build = build_preset(generation, &problem, Preset::AsmOpt)
                    .map_err(|e| format!("sgemm {} failed to build: {e}", variant.name()))?;
                Ok(SeedCase {
                    kernel: build.kernel,
                    config: build.config,
                    problem: Some(build.problem),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation engine
// ---------------------------------------------------------------------------

/// The corruption classes the mutation engine draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Replace a flexible operand with a random register, immediate
    /// (sometimes outside the signed 20-bit encoding), or constant-bank
    /// reference (sometimes misaligned or out of range).
    OperandScramble,
    /// Overwrite one register slot with a random index (including `RZ`).
    RegScramble,
    /// Flip a bit in one Kepler control word, or desynchronize the
    /// control-word vector length from the instruction count.
    CtlBitFlip,
    /// Truncate the instruction stream at a random point.
    StreamTruncate,
    /// Retarget (or insert) a branch, sometimes past the end of the kernel.
    BranchRetarget,
    /// Insert, remove, or duplicate a `BAR.SYNC` without fixing up branch
    /// targets — exercises divergent-barrier and barrier-deadlock paths.
    BarrierMutate,
    /// Perturb the static shared-memory declaration (zero, doubled,
    /// misaligned, or past the per-block limit).
    SharedSizePerturb,
    /// Perturb an immediate field: `MOV32I` payloads, memory offsets,
    /// `LDC` bank/offset, `ISCADD` shift amounts.
    ImmPerturb,
}

impl MutationKind {
    /// All mutation classes, in drawing order.
    pub const ALL: [MutationKind; 8] = [
        MutationKind::OperandScramble,
        MutationKind::RegScramble,
        MutationKind::CtlBitFlip,
        MutationKind::StreamTruncate,
        MutationKind::BranchRetarget,
        MutationKind::BarrierMutate,
        MutationKind::SharedSizePerturb,
        MutationKind::ImmPerturb,
    ];

    /// Stable kebab-case name used in reports and corpus files.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::OperandScramble => "operand-scramble",
            MutationKind::RegScramble => "reg-scramble",
            MutationKind::CtlBitFlip => "ctl-bit-flip",
            MutationKind::StreamTruncate => "stream-truncate",
            MutationKind::BranchRetarget => "branch-retarget",
            MutationKind::BarrierMutate => "barrier-mutate",
            MutationKind::SharedSizePerturb => "shared-size-perturb",
            MutationKind::ImmPerturb => "imm-perturb",
        }
    }
}

/// Number of register slots of an operation that hold a `Reg` field
/// (registers *inside* flexible operands are the operand's).
fn reg_fields(op: &Op) -> usize {
    op.reg_slots()
        .filter(|(role, _)| *role != Role::Operand)
        .count()
}

/// Indices of instructions satisfying `pred` (operating on a scratch copy
/// of the op so the scan never borrows the kernel mutably).
fn matching_indices(kernel: &Kernel, pred: impl Fn(&mut Op) -> bool) -> Vec<usize> {
    kernel
        .code
        .iter()
        .enumerate()
        .filter(|(_, inst)| {
            let mut op = inst.op;
            pred(&mut op)
        })
        .map(|(i, _)| i)
        .collect()
}

fn pick<T: Copy>(items: &[T], rng: &mut Rng) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.gen_range_usize(0, items.len())])
    }
}

/// Insert `inst` at `index`, randomly deciding whether to keep a Kepler
/// control vector in sync (leaving it desynchronized is itself an
/// interesting mutant: the validator must reject it).
fn insert_instruction(kernel: &mut Kernel, index: usize, inst: Instruction, rng: &mut Rng) {
    kernel.code.insert(index, inst);
    if let Some(ctl) = kernel.ctl.as_mut() {
        if rng.gen_bool() && index <= ctl.len() {
            ctl.insert(index, CtlInfo::NONE);
        }
    }
}

/// Apply one mutation of class `kind`; returns `false` when the class does
/// not apply to this kernel (e.g. no control words on Fermi).
fn try_apply(kernel: &mut Kernel, kind: MutationKind, rng: &mut Rng) -> bool {
    match kind {
        MutationKind::OperandScramble => {
            let targets = matching_indices(kernel, |op| op.operand().is_some());
            let Some(i) = pick(&targets, rng) else {
                return false;
            };
            let replacement = match rng.gen_below(3) {
                0 => Operand::Reg(Reg::r(rng.gen_below(64) as u8)),
                // Sometimes outside the signed 20-bit immediate range.
                1 => Operand::Imm(rng.gen_range_i64(-(1 << 21), 1 << 21) as i32),
                // Sometimes bank > 15, misaligned, or past 0xFFFC.
                _ => Operand::Const {
                    bank: rng.gen_below(19) as u8,
                    offset: rng.gen_below(0x1_0010) as u32,
                },
            };
            kernel.code[i].op.set_operand(replacement);
            true
        }
        MutationKind::RegScramble => {
            let targets = matching_indices(kernel, |op| reg_fields(op) > 0);
            let Some(i) = pick(&targets, rng) else {
                return false;
            };
            let op = &mut kernel.code[i].op;
            let s = rng.gen_range_usize(0, reg_fields(op));
            let new = Reg::r(rng.gen_below(64) as u8);
            let mut slot = 0;
            op.map_regs(|role, r| {
                if role != Role::Operand {
                    if slot == s {
                        *r = new;
                    }
                    slot += 1;
                }
            });
            true
        }
        MutationKind::CtlBitFlip => {
            let Some(ctl) = kernel.ctl.as_mut() else {
                return false;
            };
            if ctl.is_empty() {
                return false;
            }
            match rng.gen_below(4) {
                0 | 1 => {
                    // Bits 0..=5 are all meaningful (only 0xC0 is
                    // reserved), so every single-bit flip stays decodable.
                    let i = rng.gen_range_usize(0, ctl.len());
                    let byte = ctl[i].to_byte() ^ (1 << rng.gen_below(6));
                    match CtlInfo::from_byte(byte) {
                        Ok(c) => {
                            ctl[i] = c;
                            true
                        }
                        Err(_) => false,
                    }
                }
                2 => {
                    ctl.pop();
                    true
                }
                _ => {
                    let i = rng.gen_range_usize(0, ctl.len());
                    let dup = ctl[i];
                    ctl.push(dup);
                    true
                }
            }
        }
        MutationKind::StreamTruncate => {
            if kernel.code.is_empty() {
                return false;
            }
            let keep = rng.gen_range_usize(0, kernel.code.len());
            kernel.code.truncate(keep);
            if let Some(ctl) = kernel.ctl.as_mut() {
                if rng.gen_bool() {
                    ctl.truncate(keep);
                }
            }
            true
        }
        MutationKind::BranchRetarget => {
            let target = rng.gen_below(kernel.code.len() as u64 + 4) as u32;
            let bras = matching_indices(kernel, |op| op.target().is_some());
            if let Some(i) = pick(&bras, rng) {
                kernel.code[i].op = Op::bra(target);
            } else {
                let at = rng.gen_range_usize(0, kernel.code.len() + 1);
                insert_instruction(kernel, at, Instruction::new(Op::bra(target)), rng);
            }
            true
        }
        MutationKind::BarrierMutate => {
            let bars = matching_indices(kernel, |op| op.class() == OpClass::Barrier);
            match rng.gen_below(3) {
                0 => {
                    let at = rng.gen_range_usize(0, kernel.code.len() + 1);
                    insert_instruction(kernel, at, Instruction::new(Op::bar()), rng);
                    true
                }
                1 => {
                    let Some(i) = pick(&bars, rng) else {
                        return false;
                    };
                    remove_instruction(kernel, i);
                    true
                }
                _ => {
                    let Some(i) = pick(&bars, rng) else {
                        return false;
                    };
                    insert_instruction(kernel, i, Instruction::new(Op::bar()), rng);
                    true
                }
            }
        }
        MutationKind::SharedSizePerturb => {
            let cur = kernel.shared_bytes;
            kernel.shared_bytes = match rng.gen_below(7) {
                0 => 0,
                1 => cur / 2,
                2 => cur.saturating_add(4),
                3 => cur.saturating_mul(2),
                4 => 48 * 1024,
                5 => 48 * 1024 + 4,
                _ => rng.gen_below(128 * 1024) as u32,
            };
            true
        }
        MutationKind::ImmPerturb => {
            let targets = matching_indices(kernel, |op| op.imm_mut().is_some());
            let Some(i) = pick(&targets, rng) else {
                return false;
            };
            match kernel.code[i].op.imm_mut() {
                Some(ImmMut::Word(imm)) => {
                    *imm = if rng.gen_bool() {
                        *imm ^ (1 << rng.gen_below(32))
                    } else {
                        rng.next_u32()
                    };
                }
                Some(ImmMut::Offset(offset)) => {
                    *offset = rng.gen_range_i64(-(1 << 24), 1 << 24) as i32;
                }
                Some(ImmMut::Const(bank, offset)) => {
                    if rng.gen_bool() {
                        *bank = rng.gen_below(20) as u8;
                    } else {
                        *offset = rng.gen_below(0x2_0000) as u32;
                    }
                }
                Some(ImmMut::Shift(shift)) => {
                    *shift = rng.gen_below(64) as u8;
                }
                None => return false,
            }
            true
        }
    }
}

/// Apply one random mutation, retrying inapplicable classes; falls back to
/// [`MutationKind::SharedSizePerturb`] (always applicable) so the loop
/// terminates even on a degenerate kernel.
pub fn mutate(kernel: &mut Kernel, rng: &mut Rng) -> MutationKind {
    for _ in 0..16 {
        let kind = MutationKind::ALL[rng.gen_range_usize(0, MutationKind::ALL.len())];
        if try_apply(kernel, kind, rng) {
            return kind;
        }
    }
    let fallback = MutationKind::SharedSizePerturb;
    try_apply(kernel, fallback, rng);
    fallback
}

/// Remove instruction `i`, keeping the control vector in sync and
/// decrementing branch targets past the removal point (a branch *to* the
/// removed instruction now lands on its successor).
pub fn remove_instruction(kernel: &mut Kernel, i: usize) {
    if i >= kernel.code.len() {
        return;
    }
    kernel.code.remove(i);
    if let Some(ctl) = kernel.ctl.as_mut() {
        if i < ctl.len() {
            ctl.remove(i);
        }
    }
    for target in kernel
        .code
        .iter_mut()
        .filter_map(|inst| inst.op.target_mut())
    {
        if *target > i as u32 {
            *target -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Differential pipeline
// ---------------------------------------------------------------------------

/// One fully-specified fuzz input: rebuilding the seed and replaying the
/// mutation stream from `mutation_seed` reproduces the exact mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Target generation (selects validator rules and the GPU model).
    pub generation: Generation,
    /// The seed kernel being perturbed.
    pub seed: SeedSpec,
    /// Seed for the mutation RNG.
    pub mutation_seed: u64,
}

impl FuzzCase {
    /// The members `gpu`, `seed` and `mutation_seed`: the one encoding of
    /// a case, shared by corpus files, fuzz documents and fault job lines.
    pub fn to_json(&self) -> Json {
        obj!(self; gpu = generation_name(self.generation), seed = self.seed.id(), mutation_seed)
    }

    /// Read the members [`FuzzCase::to_json`] writes; each is required.
    ///
    /// # Errors
    ///
    /// A message naming the first member that is missing, mistyped or
    /// names no GPU or seed kernel.
    pub fn from_json(doc: &Json) -> Result<FuzzCase, String> {
        let (gpu, seed) = (doc.need_str("gpu")?, doc.need_str("seed")?);
        Ok(FuzzCase {
            generation: parse_generation(gpu).ok_or_else(|| format!("unknown gpu `{gpu}`"))?,
            seed: SeedSpec::parse(seed)
                .ok_or_else(|| format!("unknown seed spec `{seed}` (e.g. table2:07)"))?,
            mutation_seed: doc.need_u64("mutation_seed")?,
        })
    }
}

/// What one engine did with a mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed (`cycles` is 0 for the functional model).
    Ok {
        /// Timing-model cycle count.
        cycles: u64,
    },
    /// Structured rejection before execution (validator or launch check).
    Reject(String),
    /// Structured runtime fault (coarse class).
    Fault(&'static str),
    /// Watchdog budget exhausted.
    Timeout,
    /// The engine panicked — always a violation.
    Panic(String),
}

/// The coarse class of an [`Outcome`], declared in severity order: a
/// mutant counts under the most severe class any engine reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// Completed.
    Ok,
    /// Rejected by validation or launch checks.
    Reject,
    /// Stopped by a structured runtime fault.
    Fault,
    /// Exhausted a watchdog budget.
    Timeout,
    /// Panicked (always a violation too).
    Panic,
}

impl OutcomeClass {
    /// Every class, least severe first.
    pub const ALL: [OutcomeClass; 5] = [
        OutcomeClass::Ok,
        OutcomeClass::Reject,
        OutcomeClass::Fault,
        OutcomeClass::Timeout,
        OutcomeClass::Panic,
    ];

    /// Stable name used in reports, fuzz documents and job details.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeClass::Ok => "ok",
            OutcomeClass::Reject => "reject",
            OutcomeClass::Fault => "fault",
            OutcomeClass::Timeout => "timeout",
            OutcomeClass::Panic => "panic",
        }
    }
}

impl Outcome {
    /// Coarse class used for cross-model agreement.
    pub fn class(&self) -> OutcomeClass {
        match self {
            Outcome::Ok { .. } => OutcomeClass::Ok,
            Outcome::Reject(_) => OutcomeClass::Reject,
            Outcome::Fault(_) => OutcomeClass::Fault,
            Outcome::Timeout => OutcomeClass::Timeout,
            Outcome::Panic(_) => OutcomeClass::Panic,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok { cycles } => write!(f, "ok(cycles={cycles})"),
            Outcome::Reject(m) => write!(f, "reject({m})"),
            Outcome::Fault(c) => write!(f, "fault({c})"),
            Outcome::Timeout => f.write_str("timeout"),
            Outcome::Panic(m) => write!(f, "panic({m})"),
        }
    }
}

/// Why a mutant violated the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Some engine panicked instead of returning a structured error.
    Panic,
    /// Functional and timing models disagree on the outcome class.
    FuncTimingDisagree,
    /// Traced and untraced timing runs differ (the tracer must be a pure
    /// observer).
    TraceDivergence,
    /// A validator-accepted kernel failed to encode/decode or print/assemble
    /// back to itself.
    RoundTrip,
}

impl ViolationKind {
    /// Every violation kind.
    pub const ALL: [ViolationKind; 4] = [
        ViolationKind::Panic,
        ViolationKind::FuncTimingDisagree,
        ViolationKind::TraceDivergence,
        ViolationKind::RoundTrip,
    ];

    /// Stable kebab-case name used in reports and corpus files.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Panic => "panic",
            ViolationKind::FuncTimingDisagree => "func-timing-disagree",
            ViolationKind::TraceDivergence => "trace-divergence",
            ViolationKind::RoundTrip => "round-trip",
        }
    }
}

/// An oracle violation with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle rule that failed.
    pub kind: ViolationKind,
    /// What the engines actually did.
    pub detail: String,
}

/// The full differential result for one mutant.
#[derive(Debug, Clone)]
pub struct MutantReport {
    /// The input that produced this mutant.
    pub case: FuzzCase,
    /// The mutation classes that were applied, in order.
    pub kinds: Vec<MutationKind>,
    /// Functional-model outcome.
    pub func: Outcome,
    /// Untraced timing-model outcome.
    pub timing: Outcome,
    /// Traced timing-model outcome (must equal `timing`).
    pub traced: Outcome,
    /// The oracle's verdict; `None` means the mutant is accepted.
    pub violation: Option<Violation>,
}

/// Map a simulation result onto the fuzzer's outcome classes.
fn classify(result: Result<u64, SimError>) -> Outcome {
    match result {
        Ok(cycles) => Outcome::Ok { cycles },
        Err(SimError::Invalid { message }) | Err(SimError::Launch { message }) => {
            Outcome::Reject(message)
        }
        Err(SimError::OutOfBounds { .. }) => Outcome::Fault("out_of_bounds"),
        Err(SimError::Misaligned { .. }) => Outcome::Fault("misaligned"),
        Err(SimError::DivergentBarrier { .. }) => Outcome::Fault("divergent_barrier"),
        Err(SimError::BarrierDeadlock { .. }) => Outcome::Fault("barrier_deadlock"),
        Err(SimError::RanOffEnd) => Outcome::Fault("ran_off_end"),
        // A token's abort (only a service `fault` job's timing runs poll
        // one) is host-imposed, as a watchdog's.
        Err(SimError::StepLimit { .. }) | Err(SimError::Cancelled { .. }) => Outcome::Timeout,
    }
}

/// Run one engine under the panic-to-error boundary.
fn engine(f: impl FnOnce() -> Result<u64, SimError>) -> Outcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => classify(result),
        Err(payload) => Outcome::Panic(panic_message(payload.as_ref())),
    }
}

fn launch_params(
    memory: &mut GlobalMemory,
    problem: Option<&SgemmProblem>,
) -> Result<Vec<u32>, SimError> {
    match problem {
        Some(p) => {
            let addrs = upload_problem(memory, p, UPLOAD_SEED)?;
            Ok(peakperf_kernels::sgemm::launch_params(addrs, 1.0, 0.0).to_vec())
        }
        None => Ok(Vec::new()),
    }
}

fn run_func(
    kernel: &Kernel,
    config: LaunchConfig,
    problem: Option<&SgemmProblem>,
    generation: Generation,
) -> Result<u64, SimError> {
    let mut gpu = Gpu::new(generation);
    gpu.set_step_limit(FUZZ_STEP_LIMIT);
    let params = launch_params(gpu.memory_mut(), problem)?;
    gpu.launch(kernel, config, &params)?;
    Ok(0)
}

fn run_timing(
    kernel: &Kernel,
    config: LaunchConfig,
    problem: Option<&SgemmProblem>,
    gpu: &GpuConfig,
    traced: bool,
    cancel: Option<&CancelToken>,
) -> Result<u64, SimError> {
    let mut memory = GlobalMemory::new();
    let params = launch_params(&mut memory, problem)?;
    let sim = TimingSim::new(gpu, kernel, config, &params)?;
    let report = if traced {
        // Keeps no events: the traced code path with bounded memory. A
        // hang skips here too, its recurring periods' events replayed.
        let hooks = Hooks::observe(TraceBuffer::with_limit(0)).cancel(cancel);
        sim.run(&mut memory, hooks.cycle_limit(FUZZ_CYCLE_LIMIT))?
    } else {
        let hooks = Hooks::default().cancel(cancel);
        sim.run(&mut memory, hooks.cycle_limit(FUZZ_CYCLE_LIMIT))?
    };
    Ok(report.cycles)
}

/// The round-trip oracle: a kernel the validator accepts must survive
/// `Module` serialization bit-exactly, and printing and re-assembling.
/// (Kernels the validator rejects are exempt — the encoder and the
/// assembler reject them too.)
fn round_trip_violation(kernel: &Kernel, generation: Generation) -> Option<String> {
    if validate_kernel(kernel, generation).is_err() {
        return None;
    }
    let module = Module {
        generation,
        kernels: vec![kernel.clone()],
    };
    match assemble(&module.to_string(), generation) {
        Ok(back) if back.kernels.len() == 1 && back.kernels[0] == *kernel => {}
        Ok(_) => return Some("assemble(print(kernel)) differs from the kernel".to_owned()),
        Err(e) => return Some(format!("validated kernel failed to re-assemble: {e}")),
    }
    let bytes = match module.to_bytes() {
        Ok(b) => b,
        Err(e) => return Some(format!("validated kernel failed to encode: {e}")),
    };
    match Module::from_bytes(&bytes) {
        Ok(back) if back.kernels.len() == 1 && back.kernels[0] == *kernel => None,
        Ok(_) => Some("decode(encode(kernel)) differs from the kernel".to_owned()),
        Err(e) => Some(format!("validated kernel failed to decode: {e}")),
    }
}

/// The three-way oracle over one mutant's engine outcomes.
fn judge(func: &Outcome, timing: &Outcome, traced: &Outcome) -> Option<Violation> {
    for (name, outcome) in [("func", func), ("timing", timing), ("traced", traced)] {
        if let Outcome::Panic(msg) = outcome {
            return Some(Violation {
                kind: ViolationKind::Panic,
                detail: format!("{name}: {msg}"),
            });
        }
    }
    // The tracer is a pure observer of a deterministic engine, so the
    // traced run must match the untraced one exactly — including cycles.
    if traced != timing {
        return Some(Violation {
            kind: ViolationKind::TraceDivergence,
            detail: format!("timing={timing} traced={traced}"),
        });
    }
    // A timeout on either side makes the comparison inconclusive: the two
    // models spend their budgets differently (steps vs cycles).
    if matches!(func, Outcome::Timeout) || matches!(timing, Outcome::Timeout) {
        return None;
    }
    // Coarse-class agreement: fault *subclasses* may differ (the models
    // schedule warps differently, so a mutant with several latent faults
    // may trip them in a different order), but ok/reject/fault must match.
    if func.class() != timing.class() {
        return Some(Violation {
            kind: ViolationKind::FuncTimingDisagree,
            detail: format!("func={func} timing={timing}"),
        });
    }
    None
}

/// Rebuild a case's mutant kernel: seed build, mutation replay, then the
/// recorded shrinker removals (applied in recording order).
///
/// # Errors
///
/// Reports seed-build failures (harness bugs) as strings.
pub fn mutant_kernel(
    case: &FuzzCase,
    removals: &[usize],
) -> Result<(SeedCase, Kernel, Vec<MutationKind>), String> {
    let seed = case.seed.build(case.generation)?;
    let mut kernel = seed.kernel.clone();
    let mut rng = Rng::seed_from_u64(case.mutation_seed);
    let count = 1 + rng.gen_below(3) as usize;
    let mut kinds = Vec::with_capacity(count);
    for _ in 0..count {
        kinds.push(mutate(&mut kernel, &mut rng));
    }
    for &i in removals {
        remove_instruction(&mut kernel, i);
    }
    Ok((seed, kernel, kinds))
}

/// Drive one mutant, with the recorded shrinker `removals` applied,
/// through every engine and the oracle. The two timing runs poll
/// `cancel`, which a service `fault` job passes; [`FUZZ_STEP_LIMIT`] alone
/// bounds the functional run.
///
/// # Errors
///
/// Reports seed-build failures (harness bugs) as strings; mutant
/// misbehavior is never an `Err` — it lands in the report.
pub fn run_case_with(
    case: &FuzzCase,
    removals: &[usize],
    cancel: Option<&CancelToken>,
) -> Result<MutantReport, String> {
    let (seed, kernel, kinds) = mutant_kernel(case, removals)?;
    let problem = seed.problem.as_ref();
    let func = engine(|| run_func(&kernel, seed.config, problem, case.generation));
    let gpu = GpuConfig::preset(case.generation);
    let timing = engine(|| run_timing(&kernel, seed.config, problem, &gpu, false, cancel));
    let traced = engine(|| run_timing(&kernel, seed.config, problem, &gpu, true, cancel));
    // The round-trip oracle calls into the validator/encoder on an
    // arbitrary mutant, so it gets the same panic boundary as the
    // engines: a panicking toolchain is itself a reportable violation,
    // not a harness crash.
    let round_trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        round_trip_violation(&kernel, case.generation)
    }));
    let mut violation = match round_trip {
        Ok(detail) => detail.map(|detail| Violation {
            kind: ViolationKind::RoundTrip,
            detail,
        }),
        Err(payload) => Some(Violation {
            kind: ViolationKind::Panic,
            detail: format!("round-trip oracle: {}", panic_message(payload.as_ref())),
        }),
    };
    if violation.is_none() {
        violation = judge(&func, &timing, &traced);
    }
    Ok(MutantReport {
        case: *case,
        kinds,
        func,
        timing,
        traced,
        violation,
    })
}

/// [`run_case_with`] without shrinker removals.
///
/// # Errors
///
/// Same as [`run_case_with`].
pub fn run_case(case: &FuzzCase, cancel: Option<&CancelToken>) -> Result<MutantReport, String> {
    run_case_with(case, &[], cancel)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Greedily minimize a violating mutant by instruction removal: a removal
/// is kept iff the *same violation kind* persists. Returns the removal
/// indices (to be replayed in order) and the final report.
///
/// The evaluation budget bounds total pipeline runs, so shrinking a large
/// SGEMM mutant stays affordable.
///
/// # Errors
///
/// Reports seed-build failures as strings.
pub fn shrink_case(case: &FuzzCase) -> Result<(Vec<usize>, MutantReport), String> {
    let baseline = run_case(case, None)?;
    let Some(kind) = baseline.violation.as_ref().map(|v| v.kind) else {
        return Ok((Vec::new(), baseline));
    };
    let mut removed: Vec<usize> = Vec::new();
    let mut best = baseline;
    let mut budget = 600usize;
    loop {
        let mut progressed = false;
        let (_, kernel, _) = mutant_kernel(case, &removed)?;
        let mut len = kernel.code.len();
        let mut i = 0;
        while i < len && budget > 0 {
            budget -= 1;
            let mut attempt = removed.clone();
            attempt.push(i);
            if let Ok(report) = run_case_with(case, &attempt, None) {
                if report.violation.as_ref().map(|v| v.kind) == Some(kind) {
                    removed = attempt;
                    best = report;
                    len -= 1;
                    progressed = true;
                    continue; // the next instruction slid into slot i
                }
            }
            i += 1;
        }
        if !progressed || budget == 0 {
            break;
        }
    }
    Ok((removed, best))
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// A minimized violation ready for the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationCase {
    /// The originating fuzz input.
    pub case: FuzzCase,
    /// The violation observed after shrinking.
    pub violation: Violation,
    /// Shrinker removals, in application order.
    pub removed: Vec<usize>,
}

impl ViolationCase {
    /// The case's members plus `kind`, `detail` and `removed`: a corpus
    /// file, and one entry of a fuzz document's `violations`.
    pub fn to_json(&self) -> Json {
        let mut doc = self.case.to_json();
        doc.extend(obj!(self; kind = self.violation.kind.name(),
            detail = self.violation.detail.as_str(),
            removed = self.removed.iter().copied().collect::<Json>()));
        doc
    }

    /// Read the members [`ViolationCase::to_json`] writes; each is
    /// required.
    ///
    /// # Errors
    ///
    /// As [`FuzzCase::from_json`], or a message naming `kind`, `detail`
    /// or `removed`.
    pub fn from_json(doc: &Json) -> Result<ViolationCase, String> {
        let index = |i: &Json| i.as_u64().and_then(|i| usize::try_from(i).ok());
        let removed = doc["removed"]
            .as_arr()
            .and_then(|items| items.iter().map(index).collect());
        Ok(ViolationCase {
            case: FuzzCase::from_json(doc)?,
            violation: Violation {
                kind: doc.need_tag("kind", &ViolationKind::ALL, ViolationKind::name)?,
                detail: doc.need_str("detail")?.to_owned(),
            },
            removed: removed.ok_or("`removed` must be an array of instruction indices")?,
        })
    }
}

/// File name for a corpus case (unique per case within a campaign).
pub fn corpus_file_name(case: &FuzzCase) -> String {
    format!(
        "{}-{}-{:016x}.case",
        generation_name(case.generation),
        case.seed.id().replace(':', "-"),
        case.mutation_seed
    )
}

/// Write one minimized case into `dir` (created if needed).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_corpus_case(dir: &Path, vc: &ViolationCase) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(corpus_file_name(&vc.case));
    std::fs::write(&path, vc.to_json().pretty())?;
    Ok(path)
}

/// Replay every `.case` file under `dir`. Returns one entry per file:
/// the path and the violation the replay produced (`None` = the pipeline
/// now handles the case cleanly, which is what the regression test wants).
///
/// # Errors
///
/// Propagates I/O and parse failures.
pub fn replay_corpus(dir: &Path) -> Result<Vec<(PathBuf, Option<Violation>)>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    let mut out = Vec::with_capacity(entries.len());
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let vc = Json::parse(&text)
            .and_then(|doc| ViolationCase::from_json(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let report = run_isolated(|| run_case_with(&vc.case, &vc.removed, None))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, report.violation));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Parameters of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Number of mutants.
    pub iters: u64,
    /// Generations to draw from (default: Fermi and Kepler).
    pub generations: Vec<Generation>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            iters: 500,
            generations: vec![Generation::Fermi, Generation::Kepler],
        }
    }
}

/// Per-class outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Mutants per class, aligned with [`OutcomeClass::ALL`]: a mutant
    /// counts under the most severe class any engine reached.
    pub classes: [u64; OutcomeClass::ALL.len()],
    /// Harness-level failures (seed build errors) — not mutant behavior.
    pub harness_errors: u64,
}

impl Tally {
    /// Mutants counted under `class`.
    pub fn of(&self, class: OutcomeClass) -> u64 {
        self.classes[class as usize]
    }

    fn count(&mut self, report: &MutantReport) {
        let class = report.func.class().max(report.timing.class());
        self.classes[class.max(report.traced.class()) as usize] += 1;
    }
}

/// The result of a fuzz campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Mutants executed.
    pub cases: u64,
    /// Per-class outcome tallies.
    pub tally: Tally,
    /// Applications per mutation class, aligned with [`MutationKind::ALL`].
    pub kind_counts: [u64; MutationKind::ALL.len()],
    /// Minimized violations, in discovery order.
    pub violations: Vec<ViolationCase>,
}

/// Derive the deterministic case list for a campaign: no cases when it
/// names no generation to draw from.
pub fn campaign_cases(cfg: &CampaignConfig) -> Vec<FuzzCase> {
    if cfg.generations.is_empty() {
        return Vec::new();
    }
    let specs = SeedSpec::all();
    let mut master = Rng::seed_from_u64(cfg.seed);
    (0..cfg.iters)
        .map(|_| {
            let mutation_seed = master.next_u64();
            let seed = specs[master.gen_range_usize(0, specs.len())];
            let generation = cfg.generations[master.gen_range_usize(0, cfg.generations.len())];
            FuzzCase {
                generation,
                seed,
                mutation_seed,
            }
        })
        .collect()
}

/// Run a campaign: generate the case list, drive every mutant through the
/// differential pipeline in parallel, and minimize every violation.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let cases = campaign_cases(cfg);
    let reports = Executor::auto().map(&cases, |case| run_isolated(|| run_case(case, None)));

    let mut result = CampaignResult {
        cases: cases.len() as u64,
        tally: Tally::default(),
        kind_counts: [0; MutationKind::ALL.len()],
        violations: Vec::new(),
    };
    let mut to_shrink: Vec<FuzzCase> = Vec::new();
    for report in reports.iter().flatten() {
        result.tally.count(report);
        for kind in &report.kinds {
            if let Some(slot) = MutationKind::ALL.iter().position(|k| k == kind) {
                result.kind_counts[slot] += 1;
            }
        }
        if report.violation.is_some() {
            to_shrink.push(report.case);
        }
    }
    result.tally.harness_errors += reports.iter().filter(|r| r.is_err()).count() as u64;

    // Minimize sequentially: violations are rare, and the shrinker itself
    // fans out full pipeline runs. Isolated like the campaign itself, so a
    // panicking mutant stays off stderr while it is re-run.
    for case in to_shrink {
        match run_isolated(|| shrink_case(&case)) {
            Ok((removed, report)) => {
                if let Some(violation) = report.violation {
                    result.violations.push(ViolationCase {
                        case,
                        violation,
                        removed,
                    });
                }
            }
            Err(_) => result.tally.harness_errors += 1,
        }
    }
    result
}

/// Render a campaign summary as a text table plus violation listing.
pub fn render_campaign(cfg: &CampaignConfig, result: &CampaignResult) -> String {
    let gens: Vec<String> = cfg
        .generations
        .iter()
        .map(|&g| generation_name(g))
        .collect();
    let mut table = Table::new(
        format!(
            "Fuzz campaign: seed {}, {} mutants on {}",
            cfg.seed,
            result.cases,
            gens.join("+")
        ),
        &["class", "mutants"],
    );
    let t = &result.tally;
    for class in OutcomeClass::ALL {
        table.row(vec![class.name().to_owned(), t.of(class).to_string()]);
    }
    table.row(vec![
        "harness-error".to_owned(),
        t.harness_errors.to_string(),
    ]);
    let mut kinds = Table::new("Mutations applied", &["class", "count"]);
    for (kind, count) in MutationKind::ALL.iter().zip(result.kind_counts) {
        kinds.row(vec![kind.name().to_owned(), count.to_string()]);
    }
    let mut out = format!("{}\n{}", table.render(), kinds.render());
    if result.violations.is_empty() {
        out.push_str("\nNo oracle violations.\n");
    } else {
        let _ = writeln!(out, "\n{} oracle violation(s):", result.violations.len());
        for vc in &result.violations {
            let _ = writeln!(
                out,
                "  {} {} seed={} kind={} removed={} detail={}",
                generation_name(vc.case.generation),
                vc.case.seed.id(),
                vc.case.mutation_seed,
                vc.violation.kind.name(),
                vc.removed.len(),
                vc.violation.detail,
            );
        }
    }
    out
}

/// The machine-readable `peakperf-fuzz-v1` campaign summary.
pub fn campaign_json(cfg: &CampaignConfig, result: &CampaignResult, wall_ms: f64) -> Json {
    let gens: Vec<String> = cfg
        .generations
        .iter()
        .map(|&g| generation_name(g))
        .collect();
    let gens: Vec<&str> = gens.iter().map(String::as_str).collect();
    let t = &result.tally;
    let mut outcomes = Json::obj(OutcomeClass::ALL.map(|class| (class.name(), t.of(class).into())));
    outcomes.push("harness_errors", t.harness_errors);
    let mutations = MutationKind::ALL.iter().zip(result.kind_counts);
    let mutations = Json::obj(mutations.map(|(kind, count)| (kind.name(), count.into())));
    let body = obj!(cfg; seed, iters, wall_ms = wall_ms,
        outcomes = outcomes,
        mutations = mutations,
        violations = result.violations.iter().map(ViolationCase::to_json).collect::<Json>());
    envelope("peakperf-fuzz-v1", &gens, body)
}

/// Check a `peakperf-fuzz-v1` document: shaped like the sample
/// [`campaign_json`] writes, one mutation count per [`MutationKind`] in
/// order, every mutant accounted for under exactly one outcome class, and
/// every violation a replayable case.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    let sample = campaign_json(&CampaignConfig::default(), &CampaignResult::default(), 0.0);
    doc.conforms(&sample, &"fuzz document", errors);
    let outcomes = &doc["outcomes"];
    let mutants: u64 = OutcomeClass::ALL
        .map(|class| outcomes.count(class.name()))
        .iter()
        .sum();
    let (iters, harness) = (doc.count("iters"), outcomes.count("harness_errors"));
    let accounted = mutants <= iters && mutants + harness >= iters;
    ensure!(
        errors,
        accounted,
        "outcomes: {mutants} classified mutants and {harness} harness errors \
         do not account for {iters} iterations"
    );
    let drifted = doc.get("mutations").map(Json::keys) != sample.get("mutations").map(Json::keys);
    ensure!(
        errors,
        !drifted,
        "mutations: keys drifted from MutationKind::ALL"
    );
    for (i, v) in doc.items("violations").iter().enumerate() {
        if let Err(e) = ViolationCase::from_json(v) {
            errors.push(format!(
                "violations[{i}]: {v} does not name a replayable case: {e}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(seed: SeedSpec, generation: Generation, mutation_seed: u64) -> FuzzCase {
        FuzzCase {
            generation,
            seed,
            mutation_seed,
        }
    }

    #[test]
    fn seed_ids_round_trip() {
        for spec in SeedSpec::all() {
            assert_eq!(SeedSpec::parse(&spec.id()), Some(spec), "{}", spec.id());
        }
        assert_eq!(SeedSpec::parse("table2:99"), None);
        assert_eq!(SeedSpec::parse("sgemm:xx"), None);
        assert_eq!(SeedSpec::parse("nonsense"), None);
    }

    #[test]
    fn mutation_is_deterministic() {
        let c = case(SeedSpec::Table2(3), Generation::Kepler, 0xDEADBEEF);
        let (_, k1, kinds1) = mutant_kernel(&c, &[]).unwrap();
        let (_, k2, kinds2) = mutant_kernel(&c, &[]).unwrap();
        assert_eq!(kinds1, kinds2);
        assert_eq!(k1, k2);
    }

    #[test]
    fn mutants_differ_from_the_seed() {
        // Across a handful of seeds at least one mutant must actually
        // change the kernel (mutation that never mutates = broken engine).
        let mut changed = 0;
        for ms in 0..8u64 {
            let c = case(SeedSpec::Table2(0), Generation::Fermi, ms);
            let seed = c.seed.build(c.generation).unwrap();
            let (_, mutant, _) = mutant_kernel(&c, &[]).unwrap();
            if mutant != seed.kernel {
                changed += 1;
            }
        }
        assert!(changed >= 6, "only {changed}/8 mutants changed the kernel");
    }

    #[test]
    fn remove_instruction_fixes_branch_targets() {
        let mut kernel = Kernel::new("t");
        kernel.code = vec![
            Instruction::new(Op::Nop),
            Instruction::new(Op::Nop),
            Instruction::new(Op::Bra { target: 1 }),
            Instruction::new(Op::Bra { target: 3 }),
            Instruction::new(Op::Exit),
        ];
        remove_instruction(&mut kernel, 1);
        assert_eq!(kernel.code.len(), 4);
        // A branch to the removed slot keeps its index (now the successor);
        // branches past it shift down by one.
        assert_eq!(kernel.code[1].op, Op::Bra { target: 1 });
        assert_eq!(kernel.code[2].op, Op::Bra { target: 2 });
    }

    #[test]
    fn corpus_records_round_trip() {
        let vc = ViolationCase {
            case: case(
                SeedSpec::Sgemm(Variant::ALL[1]),
                Generation::Fermi,
                u64::MAX,
            ),
            violation: Violation {
                kind: ViolationKind::TraceDivergence,
                detail: "timing=ok(cycles=10)\ntraced=ok(cycles=11)".to_owned(),
            },
            removed: vec![3, 0, 7],
        };
        let doc = Json::parse(&vc.to_json().pretty()).unwrap();
        assert_eq!(ViolationCase::from_json(&doc), Ok(vc.clone()));
        assert_eq!(FuzzCase::from_json(&doc), Ok(vc.case));
        let err = ViolationCase::from_json(&obj!((); gpu = "fermi")).unwrap_err();
        assert!(err.contains("`seed`"), "{err}");
    }

    #[test]
    fn classify_maps_errors_to_classes() {
        assert_eq!(classify(Ok(7)), Outcome::Ok { cycles: 7 });
        assert_eq!(
            classify(Err(SimError::RanOffEnd)),
            Outcome::Fault("ran_off_end")
        );
        assert_eq!(
            classify(Err(SimError::StepLimit {
                limit: 1,
                snapshot: None
            })),
            Outcome::Timeout
        );
        assert!(matches!(
            classify(Err(SimError::Invalid {
                message: "x".into()
            })),
            Outcome::Reject(_)
        ));
    }

    #[test]
    fn unmutated_table2_seed_runs_clean() {
        for generation in [Generation::Fermi, Generation::Kepler] {
            let seed = SeedSpec::Table2(0).build(generation).unwrap();
            let func = engine(|| run_func(&seed.kernel, seed.config, None, generation));
            let gpu = GpuConfig::preset(generation);
            let timing = engine(|| run_timing(&seed.kernel, seed.config, None, &gpu, false, None));
            let traced = engine(|| run_timing(&seed.kernel, seed.config, None, &gpu, true, None));
            assert_eq!(func, Outcome::Ok { cycles: 0 });
            assert!(matches!(timing, Outcome::Ok { .. }), "{timing}");
            assert_eq!(traced, timing);
            assert_eq!(judge(&func, &timing, &traced), None);
            assert_eq!(round_trip_violation(&seed.kernel, generation), None);
        }
    }

    #[test]
    fn judge_flags_the_three_violation_kinds() {
        let ok = Outcome::Ok { cycles: 5 };
        let fault = Outcome::Fault("out_of_bounds");
        let panic = Outcome::Panic("boom".into());
        assert_eq!(
            judge(&ok, &ok, &ok).map(|v| v.kind),
            None,
            "agreement is clean"
        );
        assert_eq!(
            judge(&panic, &ok, &ok).map(|v| v.kind),
            Some(ViolationKind::Panic)
        );
        assert_eq!(
            judge(&ok, &ok, &Outcome::Ok { cycles: 6 }).map(|v| v.kind),
            Some(ViolationKind::TraceDivergence)
        );
        assert_eq!(
            judge(&ok, &fault, &fault).map(|v| v.kind),
            Some(ViolationKind::FuncTimingDisagree)
        );
        // Timeouts are inconclusive, and fault subclasses may differ.
        assert_eq!(judge(&Outcome::Timeout, &ok, &ok), None);
        assert_eq!(
            judge(&Outcome::Fault("misaligned"), &fault, &fault),
            None,
            "coarse fault agreement is enough"
        );
    }

    #[test]
    fn campaign_is_deterministic_and_json_renders() {
        let cfg = CampaignConfig {
            seed: 7,
            iters: 6,
            generations: vec![Generation::Fermi, Generation::Kepler],
        };
        let a = campaign_cases(&cfg);
        let b = campaign_cases(&cfg);
        assert_eq!(a, b);
        let result = run_campaign(&cfg);
        assert_eq!(result.cases, 6);
        assert_eq!(
            result.tally.of(OutcomeClass::Panic),
            0,
            "mutants must never panic"
        );
        let doc = campaign_json(&cfg, &result, 12.0);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        assert_eq!(doc.get("gpu").unwrap().render(), "[\"fermi\",\"kepler\"]");
        assert_eq!(doc.count("iters"), 6);
        let text = render_campaign(&cfg, &result);
        assert!(text.contains("Fuzz campaign"));
    }

    #[test]
    fn a_campaign_without_generations_has_no_cases() {
        let cfg = CampaignConfig {
            seed: 1,
            iters: 3,
            generations: Vec::new(),
        };
        assert_eq!(campaign_cases(&cfg), Vec::new());
        let result = run_campaign(&cfg);
        assert_eq!(result.cases, 0);
        assert!(result.violations.is_empty());
    }
}
