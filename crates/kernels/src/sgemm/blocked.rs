//! The register-blocked SGEMM generator (Sections 4.5 and 5 of the paper).
//!
//! Structure (per block, 256 threads as 16×16, computing a 96×96 tile of
//! C with 6×6 register blocking):
//!
//! * shared memory holds one 96×16 tile of op(A) and one 16×96 tile of
//!   op(B), both stored k-major with a **stride of 98 words** — the even,
//!   non-multiple-of-32 padding that makes every store pattern
//!   bank-conflict-free while keeping `LDS.64` destinations 8-byte aligned
//!   (Section 5.1: "proper padding needs to be applied");
//! * the main loop runs 16 k-steps per tile; each step issues 3 `LDS.64`
//!   for the A column, and three times {1 `LDS.64` B pair + 12 FFMA} —
//!   exactly the 6:1 FFMA:LDS.64 ratio of Section 4.5;
//! * global data for the *next* tile is prefetched through 12 registers,
//!   interleaved into the FFMA stream (Section 5.3), and stored to shared
//!   memory between the two barriers (the only shared-memory stores live
//!   there, as the paper describes);
//! * matrix sizes and leading dimensions are immediates (the kernel is
//!   size-specialized), which is how the register budget closes at 63.

use peakperf_arch::Generation;
use peakperf_regalloc::SgemmPlan;
use peakperf_sass::{
    CmpOp, CtlInfo, KernelBuilder, LogicOp, MemSpace, MemWidth, OpClass, Operand, Pred, Reg,
    SpecialReg,
};
use peakperf_sim::{LaunchConfig, SimError};

use super::{SgemmBuild, SgemmProblem, Trans};

/// Block tile edge (`B_Sh = sqrt(256) * 6 = 96`).
const BM: u32 = 96;
/// k-depth of a shared tile (`L`).
const L: u32 = 16;
/// Shared tile stride in 32-bit words: even (keeps `LDS.64` aligned) and
/// not a multiple of 32 (keeps the 16-row store patterns conflict-free).
const STRIDE: u32 = 98;
/// Byte size of one shared tile.
const TILE_BYTES: u32 = STRIDE * L * 4;

/// Register-assignment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// The conflict-free assignment of Section 5.4 / Figure 9.
    BankOptimized,
    /// Sequential assignment — the paper's first Kepler version
    /// (68.8 % 2-way conflicts).
    Naive,
    /// nvcc-typical assignment: mostly reasonable but ~30 % of main-loop
    /// FFMAs carry a 2-way bank conflict (Figure 8, MAGMA bars).
    NvccLike,
}

/// Kepler control-notation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtlMode {
    /// Full static scheduling: stall fields sized from the dependency
    /// structure (what a perfect assembler would emit).
    Scheduled,
    /// One notation per instruction *type* — the paper's compromise, since
    /// NVIDIA never disclosed the encoding (Section 3.2).
    PerType,
}

/// Generator options (the presets in [`super::Preset`] map onto these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOptions {
    /// Register plan.
    pub plan: PlanKind,
    /// Interleave next-tile global loads into the FFMA stream
    /// (Section 5.3) instead of issuing them as a burst before the stores.
    pub interleave_prefetch: bool,
    /// Keep address arithmetic at the loop head instead of mixing it into
    /// the shared-memory access stream (Section 5.3 optimization 1, off
    /// for the optimized kernel).
    pub hoist_addresses: bool,
    /// Number of registers to spill through local memory per tile
    /// (MAGMA-like builds use 10 — Section 5.5).
    pub spill_registers: u32,
    /// Redundant auxiliary instructions a compiler would emit per k-step
    /// (address recomputation the hand-written kernel eliminates;
    /// Section 5.1/6: "the general guideline is to reduce the auxiliary
    /// instructions").
    pub extra_aux_per_step: u32,
    /// Kepler control-notation strategy (ignored on Fermi).
    pub ctl: CtlMode,
}

impl Default for BlockedOptions {
    fn default() -> BlockedOptions {
        super::Preset::AsmOpt.options()
    }
}

/// How one matrix operand is streamed from global memory into its shared
/// tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoaderShape {
    /// The fast dimension of the stored matrix runs along the 96-wide tile
    /// edge: each thread moves 6 consecutive floats with 3 `LD.64`/
    /// `STS.64` pairs. Cursor advances by `16 * ld * 4` bytes per tile.
    ColumnRuns,
    /// The fast dimension runs along k: each thread moves one float from
    /// each of 6 columns (6 × 32-bit `LD`/`STS`). Cursor advances 64 bytes
    /// per tile.
    RowRuns,
}

struct LoaderPlan {
    shape: LoaderShape,
    /// Leading dimension of the stored matrix (elements).
    ld: u32,
    /// Which grid coordinate selects this operand's 96-block.
    block_coord: SpecialReg,
    /// Byte base of the tile in shared memory.
    smem_base: u32,
}

impl LoaderPlan {
    /// Global loads (and shared stores) per tile.
    fn transfers(&self) -> usize {
        match self.shape {
            LoaderShape::ColumnRuns => 3,
            LoaderShape::RowRuns => 6,
        }
    }

    /// Width, first prefetch register and byte offset of transfer `j`, in
    /// global memory or (`global` false) in the shared tile.
    fn transfer(&self, j: usize, pf: &[Reg], global: bool) -> (MemWidth, Reg, i32) {
        match self.shape {
            LoaderShape::ColumnRuns => (MemWidth::B64, pf[2 * j], (j as i32) * 8),
            LoaderShape::RowRuns if global => {
                (MemWidth::B32, pf[j], (j as u32 * self.ld * 4) as i32)
            }
            LoaderShape::RowRuns => (MemWidth::B32, pf[j], (j as i32) * 4),
        }
    }

    fn cursor_step(&self) -> i32 {
        match self.shape {
            LoaderShape::ColumnRuns => (L * self.ld * 4) as i32,
            LoaderShape::RowRuns => (L * 4) as i32,
        }
    }
}

fn loader_plans(problem: &SgemmProblem) -> (LoaderPlan, LoaderPlan) {
    let (ta, tb) = problem.variant.ops();
    let a = LoaderPlan {
        shape: match ta {
            Trans::N => LoaderShape::ColumnRuns,
            Trans::T => LoaderShape::RowRuns,
        },
        ld: problem.lda(),
        block_coord: SpecialReg::CtaidX,
        smem_base: 0,
    };
    let b = LoaderPlan {
        shape: match tb {
            Trans::N => LoaderShape::RowRuns,
            Trans::T => LoaderShape::ColumnRuns,
        },
        ld: problem.ldb(),
        block_coord: SpecialReg::CtaidY,
        smem_base: TILE_BYTES,
    };
    (a, b)
}

fn make_plan(kind: PlanKind) -> Result<SgemmPlan, SimError> {
    match kind {
        PlanKind::Naive => Ok(SgemmPlan::naive(6)),
        PlanKind::BankOptimized | PlanKind::NvccLike => {
            let mut plan = SgemmPlan::bank_optimized(6).map_err(|e| SimError::Invalid {
                message: e.to_string(),
            })?;
            if kind == PlanKind::NvccLike {
                degrade_plan(&mut plan);
            }
            Ok(plan)
        }
    }
}

/// Perturb a conflict-free plan the way an unaware compiler would: rotate
/// part of the accumulator assignment so roughly a third of the main-loop
/// FFMAs pick up a 2-way bank conflict (Figure 8's MAGMA profile).
fn degrade_plan(plan: &mut SgemmPlan) {
    let br = plan.br;
    let mut flat: Vec<Reg> = plan.c.iter().flatten().copied().collect();
    // Rotate the first two rows' accumulators by one position.
    let n = 2 * br;
    flat[..n].rotate_right(1);
    for i in 0..br {
        for j in 0..br {
            plan.c[i][j] = flat[i * br + j];
        }
    }
}

/// Build a register-blocked SGEMM kernel.
///
/// # Errors
///
/// Returns [`SimError::Launch`] for unsupported sizes (m, n must be
/// multiples of 96, k a positive multiple of 16, leading dimensions at
/// most 8191) and propagates builder/allocator failures.
pub fn build_blocked(
    generation: Generation,
    problem: &SgemmProblem,
    opts: &BlockedOptions,
) -> Result<SgemmBuild, SimError> {
    if !problem.m.is_multiple_of(BM) || !problem.n.is_multiple_of(BM) {
        return Err(SimError::Launch {
            message: format!(
                "blocked sgemm requires m, n multiples of {BM}, got {}x{}",
                problem.m, problem.n
            ),
        });
    }
    if problem.k == 0 || !problem.k.is_multiple_of(L) {
        return Err(SimError::Launch {
            message: format!("blocked sgemm requires k a positive multiple of {L}"),
        });
    }
    for ld in [problem.lda(), problem.ldb(), problem.ldc()] {
        if ld > 8191 {
            return Err(SimError::Launch {
                message: format!("leading dimension {ld} exceeds the immediate budget"),
            });
        }
    }

    let plan = make_plan(opts.plan)?;
    let (a_loader, b_loader) = loader_plans(problem);
    let tiles = problem.k / L;

    let mut b = KernelBuilder::new(
        format!("sgemm_{}_blocked", problem.variant.name()),
        generation,
    );
    b.shared_bytes(2 * TILE_BYTES);
    if opts.spill_registers > 0 {
        b.local_bytes(opts.spill_registers * 4);
    }
    let [p_a, p_b, p_c, p_alpha, p_beta] = super::declare_params(&mut b);

    let gen = Emitter {
        builder: b,
        plan,
        problem: *problem,
        opts: *opts,
        p_a,
        p_b,
        p_c,
        p_alpha,
        p_beta,
    };
    let kernel = gen.emit(&a_loader, &b_loader, tiles)?;
    Ok(SgemmBuild {
        kernel,
        config: LaunchConfig {
            grid: peakperf_sim::Dim3::new_2d(problem.m / BM, problem.n / BM),
            block: peakperf_sim::Dim3::new_1d(256),
        },
        problem: *problem,
    })
}

struct Emitter {
    builder: KernelBuilder,
    plan: SgemmPlan,
    problem: SgemmProblem,
    opts: BlockedOptions,
    p_a: Operand,
    p_b: Operand,
    p_c: Operand,
    p_alpha: Operand,
    p_beta: Operand,
}

impl Emitter {
    fn c_flat(&self, idx: usize) -> Reg {
        self.plan.c[idx / 6][idx % 6]
    }

    /// Emit global load `j` of one tile into the prefetch registers.
    fn prefetch(&mut self, loader: &LoaderPlan, cursor: Reg, pf: &[Reg], j: usize) {
        let (width, dst, offset) = loader.transfer(j, pf, true);
        self.builder
            .ld(MemSpace::Global, width, dst, cursor, offset);
    }

    /// Emit the shared-memory stores of one tile from the prefetch
    /// registers, each under `pred` when given.
    fn store_tile(&mut self, loader: &LoaderPlan, store: Reg, pf: &[Reg], pred: Option<Pred>) {
        for j in 0..loader.transfers() {
            let (width, src, offset) = loader.transfer(j, pf, false);
            if let Some(p) = pred {
                self.builder.with_pred(p, false);
            }
            self.builder.st(MemSpace::Shared, width, src, store, offset);
        }
    }

    /// Emit main-loop side operation `k`: the loop counter and cursor
    /// updates, then the next tile's prefetch loads under `P1`. The
    /// k-steps interleave these with the FFMAs.
    fn side_op(&mut self, k: usize, loaders: [&LoaderPlan; 2], pf: [&[Reg]; 2]) {
        let addr = self.plan.addr;
        let b = &mut self.builder;
        match k {
            0 => {
                b.iadd(addr.loop_end, addr.loop_end, -1);
            }
            1 => {
                b.isetp(Pred::p(1), CmpOp::Gt, addr.loop_end, 0);
            }
            2 => {
                b.iadd(addr.a_global, addr.a_global, loaders[0].cursor_step());
            }
            3 => {
                b.iadd(addr.b_global, addr.b_global, loaders[1].cursor_step());
            }
            _ => {
                b.with_pred(Pred::p(1), false);
                let j = k - 4;
                let a_loads = loaders[0].transfers();
                if j < a_loads {
                    self.prefetch(loaders[0], addr.a_global, pf[0], j);
                } else {
                    self.prefetch(loaders[1], addr.b_global, pf[1], j - a_loads);
                }
            }
        }
    }

    /// Prologue cursor setup for one operand. Uses `s0..s3` scratch
    /// registers (tx, ty, and two temporaries).
    #[allow(clippy::too_many_arguments)]
    fn setup_cursors(
        &mut self,
        loader: &LoaderPlan,
        pointer: Operand,
        cursor: Reg,
        store: Reg,
        tx: Reg,
        ty: Reg,
        t0: Reg,
        t1: Reg,
    ) {
        let b = &mut self.builder;
        let ld4 = (loader.ld * 4) as i32;
        b.s2r(t0, loader.block_coord);
        match loader.shape {
            LoaderShape::ColumnRuns => {
                // cursor = p + coord*384 + ty*ld*4 + tx*24
                b.mov(cursor, pointer);
                b.imad(cursor, t0, 384, cursor);
                b.imad(cursor, ty, ld4, cursor);
                b.imad(cursor, tx, 24, cursor);
                // store = base + (ty*98 + tx*6)*4 = base + ty*392 + tx*24
                b.imul(t1, tx, 24);
                b.imad(store, ty, 392, t1);
                if loader.smem_base > 0 {
                    b.iadd(store, store, loader.smem_base as i32);
                }
            }
            LoaderShape::RowRuns => {
                // cursor = p + (tx + (coord*96 + ty*6)*ld)*4
                b.imul(t0, t0, 96);
                b.imad(t0, ty, 6, t0);
                b.mov(cursor, pointer);
                b.imad(cursor, t0, ld4, cursor);
                b.iscadd(cursor, tx, cursor, 2);
                // store = base + (tx*98 + ty*6)*4 = base + tx*392 + ty*24
                b.imul(t1, ty, 24);
                b.imad(store, tx, 392, t1);
                if loader.smem_base > 0 {
                    b.iadd(store, store, loader.smem_base as i32);
                }
            }
        }
    }

    fn emit(
        mut self,
        a_loader: &LoaderPlan,
        b_loader: &LoaderPlan,
        tiles: u32,
    ) -> Result<peakperf_sass::Kernel, SimError> {
        let addr = self.plan.addr;
        let (pf_a, pf_b): (Vec<Reg>, Vec<Reg>) = (
            self.plan.prefetch[..6].to_vec(),
            self.plan.prefetch[6..].to_vec(),
        );
        let a_col = self.plan.a_col.clone();
        let b_row = self.plan.b_row.clone();

        // --- Prologue ---------------------------------------------------
        // Scratch: accumulators are still free.
        let s_tid = self.c_flat(0);
        let tx = self.c_flat(1);
        let ty = self.c_flat(2);
        let t0 = self.c_flat(3);
        let t1 = self.c_flat(4);
        {
            let b = &mut self.builder;
            b.s2r(s_tid, SpecialReg::TidX);
            b.lop(LogicOp::And, tx, s_tid, 15);
            b.shr(ty, s_tid, 4);
        }
        let (p_a, p_b) = (self.p_a, self.p_b);
        self.setup_cursors(
            a_loader,
            p_a,
            addr.a_global,
            addr.a_smem_store,
            tx,
            ty,
            t0,
            t1,
        );
        self.setup_cursors(
            b_loader,
            p_b,
            addr.b_global,
            addr.b_smem_store,
            tx,
            ty,
            t0,
            t1,
        );
        {
            let b = &mut self.builder;
            // Main-loop shared cursors: A at tx*24, B at TILE_BYTES + ty*24.
            b.imul(addr.a_smem, tx, 24);
            b.imul(addr.b_smem, ty, 24);
            b.iadd(addr.b_smem, addr.b_smem, TILE_BYTES as i32);
            b.mov32i(addr.loop_end, tiles);
        }
        // First tile: load + store + barrier.
        for j in 0..a_loader.transfers() {
            self.prefetch(a_loader, addr.a_global, &pf_a, j);
        }
        for j in 0..b_loader.transfers() {
            self.prefetch(b_loader, addr.b_global, &pf_b, j);
        }
        // Zero the accumulators while the loads are in flight.
        for i in 0..36 {
            let c = self.c_flat(i);
            self.builder.mov(c, Reg::RZ);
        }
        self.store_tile(a_loader, addr.a_smem_store, &pf_a, None);
        self.store_tile(b_loader, addr.b_smem_store, &pf_b, None);
        self.builder.bar();

        // --- Main loop ---------------------------------------------------
        // Interleavable work: the address updates and next-tile prefetch
        // loads, spread across the k-steps when interleaving.
        let loaders = [a_loader, b_loader];
        let pf = [&pf_a[..], &pf_b[..]];
        let mut side = 0..4 + a_loader.transfers() + b_loader.transfers();

        let top = self.builder.label_here();

        // Spill traffic for MAGMA-like builds: store `spill` accumulators
        // to local memory and reload them, once per tile. The round trip
        // leaves the values unchanged (the FFMAs below keep updating the
        // live registers); the traffic, latency, and LD/ST pipe pressure
        // are the real cost being modeled (Section 5.5).
        let spill = self.opts.spill_registers.min(36) as usize;
        for sidx in 0..spill {
            let c = self.c_flat(sidx);
            self.builder.st(
                MemSpace::Local,
                MemWidth::B32,
                c,
                Reg::RZ,
                (sidx as i32) * 4,
            );
        }
        for sidx in 0..spill {
            let c = self.c_flat(sidx);
            self.builder.ld(
                MemSpace::Local,
                MemWidth::B32,
                c,
                Reg::RZ,
                (sidx as i32) * 4,
            );
        }

        if self.opts.hoist_addresses {
            // Compiler-style: everything at the loop head.
            for k in side.by_ref() {
                self.side_op(k, loaders, pf);
            }
        }

        for kk in 0..L {
            let koff = (kk * STRIDE * 4) as i32;
            // Compiler-typical redundant address recomputation.
            for x in 0..self.opts.extra_aux_per_step {
                let victim = match x % 4 {
                    0 => addr.a_smem,
                    1 => addr.b_smem,
                    2 => addr.a_smem_store,
                    _ => addr.b_smem_store,
                };
                self.builder.iadd(victim, victim, 0);
            }
            // A column: 3 x LDS.64.
            for p in 0..3 {
                self.lds64(a_col[2 * p], addr.a_smem, koff + (p as i32) * 8);
            }
            // Mix one side op (address update / prefetch load) per k-step.
            if !self.opts.hoist_addresses {
                if let Some(k) = side.next() {
                    self.side_op(k, loaders, pf);
                }
                if !self.opts.interleave_prefetch {
                    // Drain everything immediately after the first k-step's
                    // loads: a burst, not an interleave.
                    for k in side.by_ref() {
                        self.side_op(k, loaders, pf);
                    }
                }
            }
            // Three B pairs, each feeding 12 FFMAs.
            for chunk in 0..3 {
                self.lds64(b_row[0], addr.b_smem, koff + chunk * 8);
                for (i, &a) in a_col.iter().enumerate().take(6) {
                    for jj in 0..2 {
                        let j = (chunk * 2 + jj) as usize;
                        let c = self.plan.c[i][j];
                        let ctl = self.ffma_ctl();
                        self.builder.with_ctl(ctl);
                        self.builder.ffma(c, a, Operand::Reg(b_row[jj as usize]), c);
                    }
                }
            }
        }
        // Any side ops not yet drained (e.g. very short loops).
        for k in side {
            self.side_op(k, loaders, pf);
        }
        self.builder.bar();
        self.store_tile(a_loader, addr.a_smem_store, &pf_a, Some(Pred::p(1)));
        self.store_tile(b_loader, addr.b_smem_store, &pf_b, Some(Pred::p(1)));
        self.builder.bar();
        self.builder.bra_if(Pred::p(1), false, top);

        // --- Epilogue -----------------------------------------------------
        // c_addr (reusing the dead A cursor):
        //   c + (ctaid.x*96 + tx*6 + (ctaid.y*96 + ty*6)*ldc)*4
        let ldc4 = (self.problem.ldc() * 4) as i32;
        let c_addr = addr.a_global;
        let (e0, e1, e2) = (pf_a[0], pf_a[1], pf_a[2]);
        {
            let p_c = self.p_c;
            let b = &mut self.builder;
            b.s2r(e0, SpecialReg::TidX);
            b.lop(LogicOp::And, e1, e0, 15);
            b.shr(e0, e0, 4);
            b.s2r(e2, SpecialReg::CtaidY);
            b.imul(e2, e2, 96);
            b.imad(e2, e0, 6, e2);
            b.mov(c_addr, p_c);
            b.imad(c_addr, e2, ldc4, c_addr);
            b.s2r(e2, SpecialReg::CtaidX);
            b.imad(c_addr, e2, 384, c_addr);
            b.imad(c_addr, e1, 24, c_addr);
        }
        for j in 0..6usize {
            let coff = (j as i32) * ldc4;
            for p in 0..3 {
                self.builder.ld(
                    MemSpace::Global,
                    MemWidth::B64,
                    pf_a[2 * p],
                    c_addr,
                    coff + (p as i32) * 8,
                );
            }
            let p_beta = self.p_beta;
            let p_alpha = self.p_alpha;
            for &r in pf_a.iter().take(6) {
                self.builder.fmul(r, r, p_beta);
            }
            for (w, &r) in pf_a.iter().enumerate().take(6) {
                let acc = self.plan.c[w][j];
                self.builder.ffma(r, acc, p_alpha, r);
            }
            for p in 0..3 {
                self.builder.st(
                    MemSpace::Global,
                    MemWidth::B64,
                    pf_a[2 * p],
                    c_addr,
                    coff + (p as i32) * 8,
                );
            }
        }
        self.builder.exit();

        if self.builder.generation().uses_control_notation() {
            self.apply_ctl_defaults();
        }
        // Latency-exact stall fields would not pay: on a scoreboarded
        // simulator a long warp-level stall only idles the warp, so the
        // lightweight per-class notation measures faster and the Scheduled
        // mode keeps it.
        self.builder.finish().map_err(SimError::from)
    }

    fn lds64(&mut self, dst: Reg, addr: Reg, offset: i32) {
        self.builder
            .ld(MemSpace::Shared, MemWidth::B64, dst, addr, offset);
    }

    fn ffma_ctl(&self) -> CtlInfo {
        match self.opts.ctl {
            CtlMode::Scheduled => CtlInfo::stall(1),
            CtlMode::PerType => CtlInfo::stall(2),
        }
    }

    /// Give every instruction that still has the default (empty) notation a
    /// per-class stall field. FFMAs were tagged at emission; this covers
    /// the rest.
    fn apply_ctl_defaults(&mut self) {
        // The builder attaches ctl at push time; everything without an
        // explicit tag got CtlInfo::NONE and is patched here with a
        // per-class default.
        let mode = self.opts.ctl;
        let stall_for = move |class: OpClass| -> u8 {
            match class {
                OpClass::Fp32 | OpClass::Int | OpClass::Move => match mode {
                    CtlMode::Scheduled => 1,
                    CtlMode::PerType => 2,
                },
                OpClass::IntMul => 4,
                OpClass::Mem(_) => 1,
                OpClass::Ctrl | OpClass::Barrier => 0,
            }
        };
        self.builder
            .retag_default_ctl(|op| CtlInfo::stall(stall_for(op.class())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use crate::matrix::Matrix;
    use crate::sgemm::{run_sgemm, Preset, Variant};
    use peakperf_sim::Gpu;

    #[allow(clippy::too_many_arguments)]
    fn verify(
        generation: Generation,
        variant: Variant,
        m: u32,
        n: u32,
        k: u32,
        preset: Preset,
        alpha: f32,
        beta: f32,
    ) {
        let problem = SgemmProblem { variant, m, n, k };
        let build = super::super::build_preset(generation, &problem, preset).unwrap();
        assert!(
            build.kernel.num_regs <= 63,
            "uses {}",
            build.kernel.num_regs
        );
        let (ar, ac) = problem.a_shape();
        let (br, bc) = problem.b_shape();
        let a = Matrix::random(ar, ac, 11);
        let b = Matrix::random(br, bc, 22);
        let c0 = Matrix::random(m as usize, n as usize, 33);

        let mut gpu = Gpu::new(generation);
        let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, alpha, beta).unwrap();

        let mut c_ref = c0.data.clone();
        cpu::sgemm(
            variant,
            m as usize,
            n as usize,
            k as usize,
            alpha,
            &a.data,
            problem.lda() as usize,
            &b.data,
            problem.ldb() as usize,
            beta,
            &mut c_ref,
            problem.ldc() as usize,
        );
        let c_ref = Matrix {
            rows: m as usize,
            cols: n as usize,
            ld: m as usize,
            data: c_ref,
        };
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&run.c),
            bits(&c_ref),
            "{generation:?} {} {m}x{n}x{k} {}",
            variant.name(),
            preset.name()
        );
    }

    #[test]
    fn nn_matches_cpu_on_fermi() {
        verify(
            Generation::Fermi,
            Variant::NN,
            96,
            96,
            32,
            Preset::AsmOpt,
            1.0,
            0.0,
        );
    }

    #[test]
    fn all_variants_match_cpu_on_fermi() {
        for variant in Variant::ALL {
            verify(
                Generation::Fermi,
                variant,
                96,
                96,
                16,
                Preset::AsmOpt,
                1.0,
                0.0,
            );
        }
    }

    #[test]
    fn multi_block_grid_and_alpha_beta() {
        verify(
            Generation::Fermi,
            Variant::NN,
            192,
            96,
            48,
            Preset::AsmOpt,
            0.5,
            -1.5,
        );
    }

    #[test]
    fn kepler_kernel_is_also_correct() {
        verify(
            Generation::Kepler,
            Variant::NN,
            96,
            96,
            32,
            Preset::AsmOpt,
            1.0,
            2.0,
        );
    }

    #[test]
    fn degraded_presets_stay_correct() {
        for preset in [Preset::AsmNaiveRegs, Preset::CublasLike, Preset::MagmaLike] {
            verify(Generation::Fermi, Variant::NN, 96, 96, 16, preset, 1.0, 0.0);
        }
    }

    #[test]
    fn magma_like_spills_through_local_memory() {
        let problem = SgemmProblem::square(Variant::NN, 96);
        let build =
            super::super::build_preset(Generation::Fermi, &problem, Preset::MagmaLike).unwrap();
        assert_eq!(build.kernel.local_bytes, 40);
        assert!(build.kernel.count_mnemonic("STL") > 0);
        assert!(build.kernel.count_mnemonic("LDL") > 0);
    }

    #[test]
    fn instruction_mix_matches_section_4() {
        // With 1024^3 the paper reports 80.5% FFMA and 13.4% LDS.64; the
        // static main-loop mix must show the 6:1 ratio.
        let problem = SgemmProblem::square(Variant::NN, 96);
        let build =
            super::super::build_preset(Generation::Fermi, &problem, Preset::AsmOpt).unwrap();
        let ffma = build.kernel.count_mnemonic("FFMA");
        let lds = build.kernel.count_mnemonic("LDS");
        // Main loop has 16*36 = 576 FFMAs and 16*6 = 96 LDS.64 per tile.
        assert!(ffma >= 576);
        assert!(lds >= 96);
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        for (m, n, k) in [(95, 96, 16), (96, 100, 16), (96, 96, 15), (96, 96, 0)] {
            let problem = SgemmProblem {
                variant: Variant::NN,
                m,
                n,
                k,
            };
            assert!(
                build_blocked(Generation::Fermi, &problem, &BlockedOptions::default()).is_err(),
                "{m}x{n}x{k} should be rejected"
            );
        }
    }

    #[test]
    fn plans_differ_in_conflicts() {
        let naive = make_plan(PlanKind::Naive).unwrap();
        let opt = make_plan(PlanKind::BankOptimized).unwrap();
        let nvcc = make_plan(PlanKind::NvccLike).unwrap();
        let (_, n2, n3) = naive.conflict_census();
        let (o1, o2, o3) = opt.conflict_census();
        let (_, v2, v3) = nvcc.conflict_census();
        assert_eq!((o1, o2, o3), (36, 0, 0));
        assert!(
            n2 + n3 > v2 + v3,
            "naive should conflict more than nvcc-like"
        );
        let nvcc_frac = (v2 + v3) as f64 / 36.0;
        assert!(
            (0.15..=0.5).contains(&nvcc_frac),
            "nvcc-like conflict fraction {nvcc_frac}"
        );
    }
}
