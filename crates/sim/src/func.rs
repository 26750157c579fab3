//! Functional (untimed) whole-grid execution.

use peakperf_arch::{Generation, GpuConfig, WARP_SIZE};
use peakperf_sass::Kernel;

use crate::exec::{release_barrier, step_warp, BlockCtx, MemCtx};
use crate::launch::check_launch;
use crate::recur::Brent;
use crate::warp::{StepEvent, WarpState};
use crate::{Dim3, FuncStats, GlobalMemory, HangSnapshot, LaunchConfig, SimError, WarpHang};

/// Default per-block safety valve: maximum warp-instruction steps.
const STEP_LIMIT: u64 = 1 << 34;

/// A functional GPU: global memory plus a target generation.
///
/// `Gpu::launch` runs a kernel over a whole grid, block by block, and is
/// the oracle the test suite uses to verify generated kernels (the timing
/// engine in [`crate::timing`] shares the same functional core, so a kernel
/// that is functionally correct here computes the same values there).
#[derive(Debug, Clone)]
pub struct Gpu {
    generation: Generation,
    memory: GlobalMemory,
    step_limit: u64,
}

impl Gpu {
    /// A GPU of the given generation with empty memory.
    pub fn new(generation: Generation) -> Gpu {
        Gpu {
            generation,
            memory: GlobalMemory::new(),
            step_limit: STEP_LIMIT,
        }
    }

    /// Lower (or raise) the per-block step watchdog (default 2^34 steps).
    /// A warp whose state recurs exactly at a back-edge, with no store in
    /// between, reaches the watchdog without simulating the repeated
    /// periods, so the budget bounds only hangs that never recur, such as
    /// loops whose pointers or counters advance.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit.max(1);
    }

    /// The GPU built from a card configuration.
    pub fn from_config(config: &GpuConfig) -> Gpu {
        Gpu::new(config.generation)
    }

    /// The target generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Global memory (read access).
    pub fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    /// Global memory (mutable access, e.g. for allocation).
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.memory
    }

    /// Run `kernel` functionally over the whole grid.
    ///
    /// `params` are the kernel parameters in declaration order (scalars or
    /// buffer addresses from [`GlobalMemory::alloc_zeroed`]).
    ///
    /// Returns aggregate execution statistics.
    ///
    /// # Errors
    ///
    /// Fails on validation errors, launch mismatches (parameter count,
    /// block size), memory faults, divergent barriers, or suspected
    /// infinite loops.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        config: LaunchConfig,
        params: &[u32],
    ) -> Result<FuncStats, SimError> {
        check_launch(&GpuConfig::preset(self.generation), kernel, config, params)?;
        let mut stats = FuncStats::default();
        for bz in 0..config.grid.z {
            for by in 0..config.grid.y {
                for bx in 0..config.grid.x {
                    let ctaid = Dim3 {
                        x: bx,
                        y: by,
                        z: bz,
                    };
                    let block_stats = self.run_block(kernel, config, ctaid, params)?;
                    stats.merge(&block_stats);
                }
            }
        }
        Ok(stats)
    }

    fn run_block(
        &mut self,
        kernel: &Kernel,
        config: LaunchConfig,
        ctaid: Dim3,
        params: &[u32],
    ) -> Result<FuncStats, SimError> {
        let threads = config.threads_per_block();
        let n_warps = config.warps_per_block();
        let block = BlockCtx {
            ctaid,
            ntid: config.block,
            nctaid: config.grid,
        };
        let mut warps: Vec<WarpState> = (0..n_warps)
            .map(|w| {
                let lanes = (threads - w * WARP_SIZE).min(WARP_SIZE);
                WarpState::new(w, lanes)
            })
            .collect();
        let mut shared = vec![0u8; kernel.shared_bytes as usize];
        let mut local = vec![0u8; kernel.local_bytes as usize * threads as usize];
        // Executions and active lanes per instruction, folded into the
        // mnemonic-keyed `FuncStats` once the block completes.
        let mut executed = vec![(0u64, 0u64); kernel.code.len()];

        // Warp status: None = runnable, Some(pc) = waiting at barrier.
        let mut at_barrier: Vec<Option<u32>> = vec![None; n_warps as usize];
        let mut steps: u64 = 0;
        let (mut stores, mut skipped) = (0u64, false);

        loop {
            for w in 0..n_warps as usize {
                if at_barrier[w].is_some() || warps[w].done() {
                    continue;
                }
                // Run this warp until it blocks or exits. It runs alone, so
                // its state and the stores are the whole state (DESIGN.md §5.1).
                let mut recur = Brent::default();
                loop {
                    steps += 1;
                    if steps > self.step_limit {
                        return Err(SimError::StepLimit {
                            limit: self.step_limit,
                            snapshot: Some(hang_snapshot(steps, &warps, &at_barrier)),
                        });
                    }
                    let mut mem = MemCtx {
                        global: &mut self.memory,
                        shared: &mut shared,
                        local: &mut local,
                        local_bytes: kernel.local_bytes,
                        params,
                    };
                    let result = step_warp(&kernel.code, &mut warps[w], &mut mem, &block)?;
                    stores += u64::from(result.mem.as_ref().is_some_and(|m| m.store));
                    let (pc, lanes, parked) = match result.event {
                        StepEvent::Executed { pc, exec_mask } => {
                            (pc, exec_mask.count_ones(), false)
                        }
                        StepEvent::AtBarrier { pc } => {
                            (pc, warps[w].running_mask().count_ones(), true)
                        }
                        StepEvent::Exited => break,
                    };
                    let count = &mut executed[pc as usize];
                    count.0 += 1;
                    count.1 += u64::from(lanes);
                    if parked {
                        at_barrier[w] = Some(pc);
                        break;
                    }
                    let warp = &warps[w];
                    if warp.current_group().is_some_and(|(next, _)| next <= pc) {
                        let same = |saved: &WarpState| saved == warp;
                        if let Some(period) = recur.check(steps, stores, same, || warp.clone()) {
                            steps += (self.step_limit - steps) / period * period;
                            skipped = true;
                        }
                    }
                }
            }

            // After the stepping pass every non-exited warp is parked at a
            // barrier. The barrier is satisfiable only if *all* member warps
            // of the block reached it; if some already exited, the waiters
            // can never be released — a deadlock on real hardware.
            let running = warps.iter().filter(|warp| !warp.done()).count();
            if running == 0 {
                debug_assert!(!skipped, "a recurring run completed");
                let mut stats = FuncStats::default();
                for (inst, &(warps, lanes)) in kernel.code.iter().zip(&executed) {
                    stats.record(inst, warps, lanes);
                }
                return Ok(stats);
            }
            if running < n_warps as usize {
                let waiter = warps.iter().position(|warp| !warp.done());
                return Err(SimError::BarrierDeadlock {
                    pc: waiter.and_then(|w| at_barrier[w]).unwrap_or(0),
                    waiting: running as u32,
                    exited: n_warps - running as u32,
                });
            }
            for (warp, parked) in warps.iter_mut().zip(&mut at_barrier) {
                if let Some(pc) = parked.take() {
                    release_barrier(warp, pc);
                }
            }
        }
    }
}

/// Capture the scheduling state of every warp of the current block for
/// step-limit diagnostics.
fn hang_snapshot(at: u64, warps: &[WarpState], at_barrier: &[Option<u32>]) -> HangSnapshot {
    let warps = warps
        .iter()
        .enumerate()
        .map(|(w, warp)| {
            if warp.done() {
                WarpHang {
                    warp: w as u32,
                    pc: None,
                    state: "done",
                }
            } else if let Some(pc) = at_barrier[w] {
                WarpHang {
                    warp: w as u32,
                    pc: Some(pc),
                    state: "barrier",
                }
            } else {
                WarpHang {
                    warp: w as u32,
                    pc: warp.current_group().map(|(pc, _)| pc),
                    state: "runnable",
                }
            }
        })
        .collect();
    HangSnapshot { at, warps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Hooks, TimingSim};
    use peakperf_sass::{CmpOp, KernelBuilder, MemSpace, MemWidth, Pred, Reg, SpecialReg};

    /// out[global_tid] = a[global_tid] * alpha + out[global_tid]
    fn saxpy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("saxpy", Generation::Fermi);
        let p_a = b.param("a");
        let p_out = b.param("out");
        let p_alpha = b.param("alpha");
        let r_tid = Reg::r(0);
        let r_cta = Reg::r(1);
        let r_gid = Reg::r(2);
        let r_a = Reg::r(3);
        let r_o = Reg::r(4);
        let r_av = Reg::r(5);
        let r_ov = Reg::r(6);
        let r_alpha = Reg::r(7);
        b.s2r(r_tid, SpecialReg::TidX);
        b.s2r(r_cta, SpecialReg::CtaidX);
        b.imad(r_gid, r_cta, 64, r_tid); // 64 threads/block
        b.mov(r_a, p_a);
        b.iscadd(r_a, r_gid, r_a, 2);
        b.mov(r_o, p_out);
        b.iscadd(r_o, r_gid, r_o, 2);
        b.ld(MemSpace::Global, MemWidth::B32, r_av, r_a, 0);
        b.ld(MemSpace::Global, MemWidth::B32, r_ov, r_o, 0);
        b.mov(r_alpha, p_alpha);
        b.ffma(r_ov, r_av, r_alpha, r_ov);
        b.st(MemSpace::Global, MemWidth::B32, r_ov, r_o, 0);
        b.exit();
        b.finish().unwrap()
    }

    #[test]
    fn saxpy_multi_block() {
        let mut gpu = Gpu::new(Generation::Fermi);
        let n = 256usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let out: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let a_buf = gpu.memory_mut().alloc_f32(&a).unwrap();
        let out_buf = gpu.memory_mut().alloc_f32(&out).unwrap();
        let stats = gpu
            .launch(
                &saxpy_kernel(),
                LaunchConfig::linear(4, 64),
                &[a_buf, out_buf, 0.5f32.to_bits()],
            )
            .unwrap();
        let result = gpu.memory().read_f32_slice(out_buf, n).unwrap();
        for (i, &v) in result.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f32 + 0.5 * i as f32, "element {i}");
        }
        assert_eq!(stats.mix.count("FFMA"), 4 * 2); // 4 blocks x 2 warps
        assert!(stats.flops == 4 * 64 * 2);
    }

    #[test]
    fn barrier_synchronizes_shared_memory() {
        // Warp 0 writes shared[tid], all warps read shared[tid^32] after a
        // barrier: warp 1 must see warp 0's writes and vice versa.
        let mut b = KernelBuilder::new("barrier", Generation::Fermi);
        let p_out = b.param("out");
        b.shared_bytes(64 * 4);
        let r_tid = Reg::r(0);
        let r_sh = Reg::r(1);
        let r_v = Reg::r(2);
        let r_other = Reg::r(3);
        let r_o = Reg::r(4);
        b.s2r(r_tid, SpecialReg::TidX);
        b.shl(r_sh, r_tid, 2);
        b.st(MemSpace::Shared, MemWidth::B32, r_tid, r_sh, 0);
        b.bar();
        // other = tid ^ 32
        b.push(peakperf_sass::Op::Lop {
            op: peakperf_sass::LogicOp::Xor,
            dst: r_other,
            a: r_tid,
            b: peakperf_sass::Operand::Imm(32),
        });
        b.shl(r_other, r_other, 2);
        b.ld(MemSpace::Shared, MemWidth::B32, r_v, r_other, 0);
        b.mov(r_o, p_out);
        b.iscadd(r_o, r_tid, r_o, 2);
        b.st(MemSpace::Global, MemWidth::B32, r_v, r_o, 0);
        b.exit();
        let kernel = b.finish().unwrap();

        let mut gpu = Gpu::new(Generation::Fermi);
        let out = gpu.memory_mut().alloc_zeroed(64 * 4).unwrap();
        gpu.launch(&kernel, LaunchConfig::linear(1, 64), &[out])
            .unwrap();
        for i in 0..64u32 {
            assert_eq!(gpu.memory().read_u32(out + i * 4).unwrap(), i ^ 32);
        }
    }

    #[test]
    fn barrier_counts_the_running_lanes_of_a_partial_warp() {
        // 48 threads: a full warp and a 16-lane one.
        let mut b = KernelBuilder::new("partial_bar", Generation::Fermi);
        b.s2r(Reg::r(0), SpecialReg::TidX);
        b.bar();
        b.exit();
        let kernel = b.finish().unwrap();
        let config = LaunchConfig::linear(1, 48);
        let stats = Gpu::new(Generation::Fermi)
            .launch(&kernel, config, &[])
            .unwrap();
        // S2R and BAR on 32 + 16 lanes each (a warp's final EXIT is not
        // counted here; see DESIGN.md §7).
        assert_eq!(stats.thread_instructions, 96);
        assert_eq!(stats.warp_instructions, 4);

        let sim = TimingSim::new(&GpuConfig::gtx580(), &kernel, config, &[]).unwrap();
        let timed = sim.run(&mut GlobalMemory::new(), Hooks::default()).unwrap();
        assert_eq!(timed.thread_instructions, stats.thread_instructions);
        assert_eq!(timed.warp_instructions, 6);
    }

    #[test]
    fn loop_kernel_terminates_with_counted_iterations() {
        let mut b = KernelBuilder::new("looper", Generation::Fermi);
        let p_out = b.param("out");
        let r_i = Reg::r(0);
        let r_acc = Reg::r(1);
        let r_o = Reg::r(2);
        b.mov32i(r_i, 10);
        b.mov32i(r_acc, 0);
        let top = b.label_here();
        b.iadd(r_acc, r_acc, Reg::r(0));
        b.iadd(r_i, r_i, -1);
        b.isetp(Pred::p(0), CmpOp::Gt, r_i, 0);
        b.bra_if(Pred::p(0), false, top);
        b.mov(r_o, p_out);
        b.st(MemSpace::Global, MemWidth::B32, r_acc, r_o, 0);
        b.exit();
        let kernel = b.finish().unwrap();
        let mut gpu = Gpu::new(Generation::Fermi);
        let out = gpu.memory_mut().alloc_zeroed(4).unwrap();
        gpu.launch(&kernel, LaunchConfig::linear(1, 1), &[out])
            .unwrap();
        // sum of 10+9+...+1 = 55
        assert_eq!(gpu.memory().read_u32(out).unwrap(), 55);
    }

    #[test]
    fn param_count_mismatch_is_launch_error() {
        let kernel = saxpy_kernel();
        let mut gpu = Gpu::new(Generation::Fermi);
        let e = gpu
            .launch(&kernel, LaunchConfig::linear(1, 64), &[1])
            .unwrap_err();
        assert!(matches!(e, SimError::Launch { .. }));
    }

    #[test]
    fn infinite_loop_hits_step_limit_with_snapshot() {
        let mut b = KernelBuilder::new("spin", Generation::Fermi);
        let top = b.label_here();
        b.bra(top);
        b.exit();
        let kernel = b.finish().unwrap();
        let mut gpu = Gpu::new(Generation::Fermi);
        gpu.set_step_limit(1_000);
        let e = gpu
            .launch(&kernel, LaunchConfig::linear(1, 32), &[])
            .unwrap_err();
        match e {
            SimError::StepLimit { limit, snapshot } => {
                assert_eq!(limit, 1_000);
                let snap = snapshot.expect("step limit carries a snapshot");
                assert_eq!(snap.warps.len(), 1);
                assert_eq!(snap.warps[0].state, "runnable");
                assert_eq!(snap.warps[0].pc, Some(0));
            }
            other => panic!("expected StepLimit, got {other:?}"),
        }
    }

    #[test]
    fn exited_sibling_makes_barrier_deadlock() {
        // Warp 0 (tid < 32) exits before the barrier; warp 1 waits forever.
        let mut b = KernelBuilder::new("deadlock", Generation::Fermi);
        b.s2r(Reg::r(0), SpecialReg::TidX);
        b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(0), 32);
        b.with_pred(Pred::p(0), false).exit();
        b.bar();
        b.exit();
        let kernel = b.finish().unwrap();
        let mut gpu = Gpu::new(Generation::Fermi);
        let e = gpu
            .launch(&kernel, LaunchConfig::linear(1, 64), &[])
            .unwrap_err();
        assert_eq!(
            e,
            SimError::BarrierDeadlock {
                pc: 3,
                waiting: 1,
                exited: 1,
            }
        );
    }
}
