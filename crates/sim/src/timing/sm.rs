//! The cycle-level single-SM simulator.

use std::collections::BTreeMap;

use peakperf_arch::{register_bank, GpuConfig, WARP_SIZE};
use peakperf_sass::{validate_kernel, CtlInfo, Kernel, MemSpace, OpClass, Pred, Reg};

use crate::cancel::{CancelCause, CHECK_INTERVAL_CYCLES};
use crate::exec::{release_barrier, step_warp, BlockCtx, MemCtx};
use crate::perfmon::{Phase, Stopwatch};
use crate::timing::conflict::{global_transactions, shared_conflict_factor, SEGMENT_BYTES};
use crate::timing::trace::{Hooks, Observer, TraceEvent, TraceEventKind, NO_PC};
use crate::timing::Calibration;
use crate::warp::{StepEvent, WarpState};
use crate::{Dim3, GlobalMemory, HangSnapshot, InstMix, LaunchConfig, SimError, WarpHang};

/// L1 cache per SM available for local-memory (spill) data when shared
/// memory takes 48 KB of the 64 KB unified array (Section 5.5).
const L1_BYTES: u32 = 16 * 1024;

/// Why a warp could not issue on a given attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallKind {
    /// Operand not ready (scoreboard).
    Scoreboard,
    /// LD/ST or SP pipe busy.
    Pipe,
    /// Kepler issue-token bucket exhausted.
    IssueTokens,
    /// Waiting at a barrier.
    Barrier,
    /// Control-notation stall field (Kepler) or post-issue spacing.
    CtlStall,
    /// Kepler replay penalty for an uncovered ALU hazard.
    HazardReplay,
}

impl StallKind {
    /// Number of stall kinds (the length of [`StallKind::ALL`]).
    pub const COUNT: usize = 6;

    /// Every stall kind, in declaration (= serialization) order:
    /// `ALL[k.index()] == k` for every kind, which the property tests
    /// assert so a new kind cannot silently desync the three views
    /// (enum declaration, `ALL`, `as_str`/`parse`).
    pub const ALL: [StallKind; StallKind::COUNT] = [
        StallKind::Scoreboard,
        StallKind::Pipe,
        StallKind::IssueTokens,
        StallKind::Barrier,
        StallKind::CtlStall,
        StallKind::HazardReplay,
    ];

    /// This kind's position in [`StallKind::ALL`] — the canonical index
    /// used by dense per-kind counter arrays (e.g.
    /// [`crate::Counters::stall_cycles`]).
    pub const fn index(self) -> usize {
        match self {
            StallKind::Scoreboard => 0,
            StallKind::Pipe => 1,
            StallKind::IssueTokens => 2,
            StallKind::Barrier => 3,
            StallKind::CtlStall => 4,
            StallKind::HazardReplay => 5,
        }
    }

    /// Stable identifier used in reports and the on-disk timing cache.
    pub fn as_str(self) -> &'static str {
        match self {
            StallKind::Scoreboard => "scoreboard",
            StallKind::Pipe => "pipe",
            StallKind::IssueTokens => "issue_tokens",
            StallKind::Barrier => "barrier",
            StallKind::CtlStall => "ctl_stall",
            StallKind::HazardReplay => "hazard_replay",
        }
    }

    /// Inverse of [`StallKind::as_str`].
    pub fn parse(s: &str) -> Option<StallKind> {
        StallKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Aggregate results of one timing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingReport {
    /// Total shader cycles until all resident warps exited.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread instructions issued (warp instructions × active lanes).
    pub thread_instructions: u64,
    /// FP32 operations executed (FFMA counts 2 per lane).
    pub flops: u64,
    /// Instruction mix.
    pub mix: InstMix,
    /// Stall cycles by cause (each cycle a runnable-but-blocked warp
    /// contributes to its blocking cause, at most one count per warp-cycle).
    pub stalls: BTreeMap<StallKind, u64>,
    /// Cycles of LD/ST pipe occupancy beyond the conflict-free cost.
    pub lds_conflict_cycles: u64,
    /// Global-memory transactions issued.
    pub global_transactions: u64,
    /// Global-memory bytes moved.
    pub global_bytes: u64,
    /// Kepler hazard replays charged.
    pub hazard_replays: u64,
}

impl TimingReport {
    /// Thread instructions per cycle (the unit of Figures 2 and 4).
    pub fn thread_ipc(&self) -> f64 {
        self.thread_instructions as f64 / self.cycles.max(1) as f64
    }

    /// FP32 operations per cycle on this SM.
    pub fn flops_per_cycle(&self) -> f64 {
        self.flops as f64 / self.cycles.max(1) as f64
    }
}

struct WarpSlot {
    state: WarpState,
    block: usize,
    /// Ready cycle per architectural register.
    sb_reg: [u64; 64],
    /// Ready cycle per predicate.
    sb_pred: [u64; 8],
    /// Kepler: the producer of this register did not carry a covering
    /// control-notation stall (replay hazard).
    hazard: u64, // bitmask over 64 registers
}

/// Everything the scheduler scan reads to classify a warp, kept apart
/// from the ~750-byte [`WarpSlot`] so that a pass over blocked warps reads
/// one small contiguous array.
#[derive(Default)]
struct IssueState {
    next_issue: u64,
    at_barrier: bool,
    done: bool,
    gate: Gate,
}

/// A warp's cached *issue gate*: what it issues next and how long its own
/// scoreboard holds that back. Every input is the warp's own state, so
/// the gate changes only where [`TimingSim::gate`] is called again — the
/// warp's own issue, its hazard replay (which clears the flags behind
/// `hazard_until`) and its barrier release. Pipes and tokens are shared
/// with warps that issue earlier in the same cycle and stay uncached.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Gate {
    /// Min-PC of the warp's running lanes.
    pc: u32,
    /// Cycle the last register or predicate the instruction touches is
    /// ready.
    sb_ready: u64,
    /// Same, over the touched registers flagged as Kepler replay hazards.
    hazard_until: u64,
    /// The instruction's [`InstMeta`] pipe bits and token cost.
    is_mem: bool,
    is_math: bool,
    token_cost: f64,
}

struct BlockRes {
    ctx: BlockCtx,
    shared: Vec<u8>,
    local: Vec<u8>,
    /// Member warps that have not exited, and how many of them wait at
    /// the barrier.
    running: u32,
    arrived: u32,
}

/// Global-memory interface of one SM: fixed latency plus bandwidth
/// queueing.
struct MemIf {
    bytes_per_cycle: f64,
    latency: u32,
    next_free: f64,
}

impl MemIf {
    /// Service `bytes` starting no earlier than `now`; returns the cycle
    /// the data is available.
    fn access(&mut self, now: u64, bytes: u64) -> u64 {
        let start = self.next_free.max(now as f64);
        self.next_free = start + bytes as f64 / self.bytes_per_cycle;
        (start + f64::from(self.latency)) as u64
    }
}

/// The mutable state of one run, threaded through `classify` and `issue`.
struct RunState {
    slots: Vec<WarpSlot>,
    /// Per warp, beside `slots`.
    issue: Vec<IssueState>,
    blocks: Vec<BlockRes>,
    memif: MemIf,
    ldst_free: f64,
    sp_free: f64,
    tokens: f64,
    /// Local-memory spill traffic: fraction of accesses missing L1.
    local_miss_fraction: f64,
    /// Warps that have not exited.
    live: usize,
    /// Issues per instruction and stall cycles per kind, folded into the
    /// report's mnemonic- and kind-keyed maps when the run completes.
    issued: Vec<u64>,
    stalls: [u64; StallKind::COUNT],
    report: TimingReport,
}

/// Deliver one scheduler event (compiled out unless `O::EVENTS`).
#[inline]
fn emit<O: Observer>(
    observer: &mut O,
    (cycle, sched, w): (u64, usize, usize),
    pc: u32,
    kind: TraceEventKind,
) {
    if O::EVENTS {
        observer.event(TraceEvent {
            cycle,
            scheduler: sched as u8,
            warp: w as u16,
            pc,
            kind,
        });
    }
}

/// Deliver an `Issue` event, plus the `WarpExit` it caused if the warp
/// is now `done`.
#[inline]
fn trace_issue<O: Observer>(
    observer: &mut O,
    at: (u64, usize, usize),
    pc: u32,
    lanes: u32,
    dual: bool,
    done: bool,
) {
    let lanes = lanes as u8;
    emit(observer, at, pc, TraceEventKind::Issue { lanes, dual });
    if done {
        emit(observer, at, pc, TraceEventKind::WarpExit);
    }
}

/// A timing simulation of `resident_blocks` blocks of a kernel on one SM.
pub struct TimingSim {
    calib: Calibration,
    kernel: Kernel,
    config: LaunchConfig,
    params: Vec<u32>,
    resident_blocks: u32,
    /// Pre-extracted per-instruction metadata.
    meta: Vec<InstMeta>,
    /// SP-pipe cycles per math warp instruction (`32 / sps_per_sm`).
    sp_cycles: f64,
    /// The simulated card: its Table 1 facts drive the scheduler, the SP
    /// pipe and the memory interface, and [`TimingSim::cache_key`] hashes
    /// it.
    gpu: GpuConfig,
}

/// Everything the issue path needs about one instruction that does not
/// change during a run.
struct InstMeta {
    /// Bitmasks over the 64 registers: read or written, and written.
    touched: u64,
    defs: u64,
    guard: Option<Pred>,
    def_pred: Option<Pred>,
    ctl: CtlInfo,
    /// Issues to the SP pipe / the LD/ST pipe.
    is_math: bool,
    is_mem: bool,
    /// Kepler issue-token cost (0 off the bucket).
    token_cost: f64,
    flops_per_lane: u64,
    latency: u32,
}

impl TimingSim {
    /// Prepare a timing run.
    ///
    /// # Errors
    ///
    /// Fails if the kernel does not validate for the GPU's generation or
    /// the launch parameters are inconsistent.
    pub fn new(
        gpu: &GpuConfig,
        kernel: &Kernel,
        config: LaunchConfig,
        params: &[u32],
        resident_blocks: u32,
    ) -> Result<TimingSim, SimError> {
        validate_kernel(kernel, gpu.generation)?;
        if params.len() != kernel.params.len() {
            return Err(SimError::Launch {
                message: format!(
                    "kernel `{}` expects {} parameters, got {}",
                    kernel.name,
                    kernel.params.len(),
                    params.len()
                ),
            });
        }
        if resident_blocks == 0 {
            return Err(SimError::Launch {
                message: "resident block count must be positive".to_owned(),
            });
        }
        let calib = Calibration::for_generation(gpu.generation);
        let meta = kernel
            .code
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let ctl = kernel.ctl_for(i);
                let mask = |regs: Vec<Reg>| regs.iter().fold(0, |m, r| m | 1u64 << r.index());
                let (uses, defs) = (mask(inst.op.use_regs()), mask(inst.op.def_regs()));
                // Register-bank conflict degree over distinct sources.
                let mut per_bank = [0u32; 4];
                for i in (0..63).filter(|i| uses >> i & 1 != 0) {
                    per_bank[register_bank(i).index()] += 1;
                }
                let token_ways = per_bank.iter().copied().max().unwrap_or(1).max(1);
                let class = inst.op.class();
                let is_mem = matches!(class, OpClass::Mem(_));
                let is_math = matches!(
                    class,
                    OpClass::Fp32 | OpClass::Int | OpClass::IntMul | OpClass::Move
                );
                let token_cost = if calib.tokens_per_cycle.is_some() && (is_math || is_mem) {
                    let distinct = uses.count_ones() as usize;
                    calib.token_cost(&inst.op, token_ways, ctl.dual, distinct) as f64
                } else {
                    0.0
                };
                InstMeta {
                    touched: uses | defs,
                    defs,
                    guard: inst.pred,
                    def_pred: inst.op.def_pred(),
                    ctl,
                    is_math,
                    is_mem,
                    token_cost,
                    flops_per_lane: inst.op.info().flops,
                    latency: calib.latency(&inst.op),
                }
            })
            .collect();
        Ok(TimingSim {
            calib,
            kernel: kernel.clone(),
            config,
            params: params.to_vec(),
            resident_blocks,
            meta,
            sp_cycles: 32.0 / f64::from(gpu.sps_per_sm),
            gpu: gpu.clone(),
        })
    }

    /// Run to completion and report, under `hooks` (`Hooks::default()`
    /// for none): scheduler events and host wall time per loop phase
    /// stream into its observer, its token is polled every
    /// [`CHECK_INTERVAL_CYCLES`], and its cycle limit bounds the run.
    /// Hooks only observe, so the report is identical under any of them.
    ///
    /// # Errors
    ///
    /// Propagates memory faults; reports [`SimError::StepLimit`] past the
    /// cycle limit and [`SimError::Cancelled`] /
    /// [`SimError::DeadlineExceeded`] when the token fires.
    pub fn run<O: Observer>(
        &self,
        memory: &mut GlobalMemory,
        hooks: Hooks<'_, O>,
    ) -> Result<TimingReport, SimError> {
        let Hooks {
            observer: mut obs,
            cancel,
            cycle_limit,
        } = hooks;
        let obs = &mut obs;
        let run_t0 = O::HOST_TIMING.then(std::time::Instant::now);
        let threads = self.config.threads_per_block();
        let warps_per_block = self.config.warps_per_block();
        let n_warps = (warps_per_block * self.resident_blocks) as usize;

        let blocks: Vec<BlockRes> = (0..self.resident_blocks)
            .map(|b| BlockRes {
                ctx: BlockCtx {
                    // Resident blocks take the first grid slots along x.
                    ctaid: Dim3 {
                        x: b % self.config.grid.x.max(1),
                        y: (b / self.config.grid.x.max(1)) % self.config.grid.y.max(1),
                        z: 0,
                    },
                    ntid: self.config.block,
                    nctaid: self.config.grid,
                },
                shared: vec![0u8; self.kernel.shared_bytes as usize],
                local: vec![0u8; self.kernel.local_bytes as usize * threads as usize],
                running: warps_per_block,
                arrived: 0,
            })
            .collect();

        let slots: Vec<WarpSlot> = (0..n_warps)
            .map(|i| {
                let w_in_block = (i as u32) % warps_per_block;
                let lanes = (threads - w_in_block * WARP_SIZE).min(WARP_SIZE);
                WarpSlot {
                    state: WarpState::new(w_in_block, lanes),
                    block: i / warps_per_block as usize,
                    sb_reg: [0; 64],
                    sb_pred: [0; 8],
                    hazard: 0,
                }
            })
            .collect();
        let issue = slots
            .iter()
            .map(|slot| IssueState {
                gate: self.gate(slot),
                ..IssueState::default()
            })
            .collect();

        let spill_footprint =
            self.kernel.local_bytes as u64 * u64::from(threads) * u64::from(self.resident_blocks);
        let local_miss_fraction = if spill_footprint > u64::from(L1_BYTES) {
            1.0 - L1_BYTES as f64 / spill_footprint as f64
        } else {
            0.0
        };

        let token_cap = self.calib.tokens_per_cycle.unwrap_or(0) as f64 * 2.0;
        let mut st = RunState {
            slots,
            issue,
            blocks,
            memif: MemIf {
                bytes_per_cycle: self.gpu.mem_bytes_per_cycle_per_sm(),
                latency: self.calib.global_latency,
                next_free: 0.0,
            },
            ldst_free: 0.0,
            sp_free: 0.0,
            tokens: 0.0,
            local_miss_fraction,
            live: n_warps,
            issued: vec![0; self.kernel.code.len()],
            stalls: [0; StallKind::COUNT],
            report: TimingReport::default(),
        };

        let schedulers = self.gpu.warp_schedulers_per_sm as usize;
        // Kepler's second dispatch unit per scheduler.
        let dual_dispatch = self.gpu.dispatch_units_per_sm > self.gpu.warp_schedulers_per_sm;
        // Round-robin pointers per scheduler.
        let mut rr: Vec<usize> = vec![0; schedulers];
        // Warps owned by each scheduler.
        let owned: Vec<Vec<usize>> = (0..schedulers)
            .map(|sched| (0..n_warps).filter(|&w| w % schedulers == sched).collect())
            .collect();
        let wpb = warps_per_block as usize;

        let mut cycle: u64 = 0;
        loop {
            if st.live == 0 {
                break;
            }
            if cycle > cycle_limit {
                return Err(SimError::StepLimit {
                    limit: cycle_limit,
                    snapshot: Some(timing_hang_snapshot(cycle, &st)),
                });
            }
            if cycle.is_multiple_of(CHECK_INTERVAL_CYCLES) {
                if let Some(token) = cancel {
                    if let Some(cause) = token.fire_state(cycle) {
                        let snapshot = Some(timing_hang_snapshot(cycle, &st));
                        return Err(match cause {
                            CancelCause::Cancelled => SimError::Cancelled {
                                at_cycle: cycle,
                                snapshot,
                            },
                            CancelCause::DeadlineExceeded => SimError::DeadlineExceeded {
                                deadline_ms: token.deadline_ms(),
                                at_cycle: cycle,
                                snapshot,
                            },
                        });
                    }
                }
            }
            if let Some(refill) = self.calib.tokens_per_cycle {
                st.tokens = (st.tokens + refill as f64).min(token_cap.max(refill as f64));
            }

            for s in 0..schedulers {
                // Rotate which scheduler gets first claim on shared issue
                // resources (the Kepler token bucket): with a fixed priority
                // order, schedulers 0 and 1 would consume the whole refill
                // every cycle once dual issue lets a scheduler spend two
                // instructions' worth, and the warps of schedulers 2 and 3
                // would starve until the end of the kernel.
                let sched = (s + cycle as usize) % schedulers;
                if self.calib.scheduler_half_rate && !(cycle as usize + sched).is_multiple_of(2) {
                    continue;
                }
                let owned = &owned[sched];
                if owned.is_empty() {
                    continue;
                }
                let start = rr[sched] % owned.len();
                let (before, from_start) = owned.split_at(start);
                for (k, &w) in from_start.iter().chain(before).enumerate() {
                    let at = (cycle, sched, w);
                    match self.classify(w, cycle, &mut st) {
                        Visit::Done => {}
                        Visit::Blocked(kind, pc) => {
                            st.stalls[kind.index()] += 1;
                            emit(obs, at, pc, TraceEventKind::Stall(kind));
                        }
                        Visit::Ready => {
                            let (pc, lanes) = self.issue(w, cycle, &mut st, memory, obs)?;
                            trace_issue(obs, at, pc, lanes, false, st.issue[w].done);
                            rr[sched] = (start + k) % owned.len() + 1;
                            // Dual dispatch: try one more instruction from
                            // the same warp (Kepler's second dispatch unit);
                            // a block here is not a stall of this cycle.
                            if dual_dispatch
                                && matches!(self.classify(w, cycle, &mut st), Visit::Ready)
                            {
                                let (pc, lanes) = self.issue(w, cycle, &mut st, memory, obs)?;
                                trace_issue(obs, at, pc, lanes, true, st.issue[w].done);
                            }
                            break;
                        }
                    }
                }
            }

            // Barrier release: per block, when every non-done warp waits.
            let mut barrier_sw = Stopwatch::start::<O>();
            for (b, block) in st.blocks.iter_mut().enumerate() {
                if block.arrived == 0 || block.arrived != block.running {
                    continue;
                }
                // A block's warps occupy consecutive slots.
                let members = b * wpb..(b + 1) * wpb;
                // Matching the functional model (`func::run_block`): if
                // any member warp of the block already exited, the
                // barrier can never be satisfied — report the deadlock
                // instead of silently releasing the waiters.
                if block.running as usize != wpb {
                    let pc = members
                        .clone()
                        .find(|&w| !st.issue[w].done)
                        .and_then(|w| st.slots[w].state.current_group())
                        .map(|(pc, _)| pc)
                        .unwrap_or(0);
                    return Err(SimError::BarrierDeadlock {
                        pc,
                        waiting: block.running,
                        exited: wpb as u32 - block.running,
                    });
                }
                block.arrived = 0;
                for w in members {
                    let slot = &mut st.slots[w];
                    let mut bar_pc = NO_PC;
                    if let Some((pc, _)) = slot.state.current_group() {
                        release_barrier(&mut slot.state, pc);
                        bar_pc = pc;
                    }
                    let rec = &mut st.issue[w];
                    rec.at_barrier = false;
                    rec.gate = self.gate(slot);
                    rec.next_issue = cycle + u64::from(self.calib.barrier_latency);
                    if O::EVENTS {
                        // Event delivery is its own phase, not barrier time.
                        barrier_sw.stop(obs, Phase::BarrierRelease);
                        let at = (cycle, w % schedulers, w);
                        emit(obs, at, bar_pc, TraceEventKind::BarrierRelease);
                        barrier_sw = Stopwatch::start::<O>();
                    }
                }
            }
            barrier_sw.stop(obs, Phase::BarrierRelease);

            if O::HOST_TIMING {
                obs.cycle_end(cycle);
            }
            cycle += 1;
        }
        let mut report = st.report;
        report.cycles = cycle.max(1);
        for (inst, &n) in self.kernel.code.iter().zip(&st.issued) {
            report.mix.record(inst, n);
        }
        for kind in StallKind::ALL {
            if st.stalls[kind.index()] > 0 {
                report.stalls.insert(kind, st.stalls[kind.index()]);
            }
        }
        crate::stats::record_timing_run(&report);
        if let Some(t0) = run_t0 {
            obs.finish(report.cycles, t0.elapsed().as_nanos() as u64);
        }
        Ok(report)
    }

    /// The key under which this run is cached: a 128-bit hash over the GPU
    /// configuration, the kernel (code, control notation, metadata), the
    /// launch configuration, the parameter values, and the resident-block
    /// count — everything [`TimingSim::run`]'s result depends on.
    pub fn cache_key(&self) -> u128 {
        crate::timing::cache::run_key(
            &self.gpu,
            &self.kernel,
            self.config,
            &self.params,
            self.resident_blocks,
        )
    }

    /// Whether warp `w` can issue at `cycle`, from its [`IssueState`]
    /// alone, checked in the hardware's order. A hazard replay is charged
    /// to the warp here.
    #[inline]
    fn classify(&self, w: usize, cycle: u64, st: &mut RunState) -> Visit {
        let rec = &mut st.issue[w];
        if rec.done {
            return Visit::Done;
        }
        if rec.at_barrier {
            return Visit::Blocked(StallKind::Barrier, NO_PC);
        }
        if rec.next_issue > cycle {
            return Visit::Blocked(StallKind::CtlStall, NO_PC);
        }
        debug_assert_eq!(
            (rec.done, rec.gate),
            (st.slots[w].state.done(), self.gate(&st.slots[w])),
            "stale issue state, warp {w}"
        );
        let gate = &mut rec.gate;

        // Scoreboard.
        if gate.sb_ready > cycle {
            if gate.hazard_until > cycle && self.calib.hazard_penalty > 0 {
                // Kepler replay: the scheduler trusted the (insufficient)
                // control notation and must replay the instruction.
                rec.next_issue = gate.sb_ready + u64::from(self.calib.hazard_penalty);
                // Clear hazard flags we just paid for.
                st.slots[w].hazard &= !self.meta[gate.pc as usize].touched;
                gate.hazard_until = 0;
                st.report.hazard_replays += 1;
                return Visit::Blocked(StallKind::HazardReplay, gate.pc);
            }
            return Visit::Blocked(StallKind::Scoreboard, gate.pc);
        }

        // Structural pipes.
        if (gate.is_mem && st.ldst_free >= (cycle + 1) as f64)
            || (gate.is_math && st.sp_free >= (cycle + 1) as f64)
        {
            return Visit::Blocked(StallKind::Pipe, gate.pc);
        }

        // Kepler issue tokens.
        if st.tokens < gate.token_cost {
            return Visit::Blocked(StallKind::IssueTokens, gate.pc);
        }
        Visit::Ready
    }

    /// Issue warp `w`, which [`TimingSim::classify`] found ready at
    /// `cycle`: execute its next instruction and charge its costs.
    /// Returns the instruction's PC and executed lane count.
    fn issue<O: Observer>(
        &self,
        w: usize,
        cycle: u64,
        st: &mut RunState,
        memory: &mut GlobalMemory,
        obs: &mut O,
    ) -> Result<(u32, u32), SimError> {
        let (slot, rec) = (&mut st.slots[w], &mut st.issue[w]);
        let pc = rec.gate.pc;
        let meta = self.meta.get(pc as usize).ok_or(SimError::RanOffEnd)?;

        // Execute functionally.
        let block = &mut st.blocks[slot.block];
        let mut mem_ctx = MemCtx {
            global: memory,
            shared: &mut block.shared,
            local: &mut block.local,
            local_bytes: self.kernel.local_bytes,
            params: &self.params,
        };
        let fx_sw = Stopwatch::start::<O>();
        let result = step_warp(&self.kernel.code, &mut slot.state, &mut mem_ctx, &block.ctx)?;
        fx_sw.stop(obs, Phase::FuncExec);

        st.tokens -= meta.token_cost;

        st.report.warp_instructions += 1;
        st.issued[pc as usize] += 1;
        let lanes = match result.event {
            StepEvent::AtBarrier { .. } => {
                rec.at_barrier = true;
                block.arrived += 1;
                let lanes = slot.state.running_mask().count_ones();
                st.report.thread_instructions += u64::from(lanes);
                return Ok((pc, lanes));
            }
            StepEvent::Exited => {
                rec.done = true;
                block.running -= 1;
                st.live -= 1;
                return Ok((pc, 0));
            }
            StepEvent::Executed { exec_mask, .. } => exec_mask.count_ones(),
        };
        st.report.thread_instructions += u64::from(lanes);
        st.report.flops += u64::from(lanes) * meta.flops_per_lane;

        // Post-issue costs. A Kepler dual-issue hint keeps the warp
        // eligible for the scheduler's second dispatch slot this same
        // cycle (the pair partner's own stall field then paces the warp);
        // without it, issue is capped at one warp instruction per
        // scheduler per cycle — 128 thread-insts/cycle on 4 schedulers —
        // and the 33/8-token ceiling of 132 is unreachable.
        let ctl_stall = u64::from(meta.ctl.stall);
        let kepler_ctl = self.calib.generation.uses_control_notation();
        rec.next_issue = if kepler_ctl && meta.ctl.dual {
            cycle
        } else {
            cycle + 1 + if kepler_ctl { ctl_stall } else { 0 }
        };

        if meta.is_math {
            st.sp_free = st.sp_free.max(cycle as f64) + self.sp_cycles;
        }

        let mut result_ready = cycle + u64::from(meta.latency);
        if let Some(access) = &result.mem {
            let mem_sw = Stopwatch::start::<O>();
            match access.space {
                MemSpace::Shared => {
                    let factor =
                        shared_conflict_factor(self.calib.generation, access.width, access.addrs());
                    let occ = self.calib.lds_pipe_cycles(access.width, factor);
                    let base = self.calib.lds_pipe_cycles(access.width, 1);
                    st.report.lds_conflict_cycles += u64::from(occ - base);
                    st.ldst_free = st.ldst_free.max(cycle as f64) + f64::from(occ);
                    result_ready = cycle + u64::from(meta.latency) + u64::from(occ - base);
                    mem_sw.stop(obs, Phase::BankConflict);
                }
                MemSpace::Global => {
                    let txns = global_transactions(access.width, access.addrs());
                    let bytes = u64::from(txns) * u64::from(SEGMENT_BYTES);
                    st.report.global_transactions += u64::from(txns);
                    st.report.global_bytes += bytes;
                    st.ldst_free = st.ldst_free.max(cycle as f64) + f64::from(txns.max(1));
                    let data_at = st.memif.access(cycle, bytes);
                    if !access.store {
                        result_ready = data_at;
                    }
                    mem_sw.stop(obs, Phase::MemModel);
                }
                MemSpace::Local => {
                    // Spill traffic: occupies the LD/ST pipe like shared
                    // memory; the L1-miss fraction also pays global
                    // bandwidth and latency (Section 5.5).
                    let occ = self.calib.lds_pipe_cycles(access.width, 1);
                    st.ldst_free = st.ldst_free.max(cycle as f64) + f64::from(occ);
                    if st.local_miss_fraction > 0.0 {
                        let bytes = (access.addrs().len() as f64
                            * f64::from(access.width.bytes())
                            * st.local_miss_fraction) as u64;
                        let data_at = st.memif.access(cycle, bytes);
                        if !access.store {
                            result_ready = result_ready
                                .max(cycle + u64::from(self.calib.global_latency / 2))
                                .max(data_at);
                        }
                    }
                    mem_sw.stop(obs, Phase::MemModel);
                }
            }
        }

        // Scoreboard updates. A producer counts as "covered" when it
        // carries any scheduling stall at all: raw unannotated Kepler code
        // (stall 0 everywhere) replays on ALU hazards and runs very poorly,
        // exactly as the paper observed before decoding the notation
        // (Section 3.2).
        let covered = ctl_stall >= 1;
        let sbu_sw = Stopwatch::start::<O>();
        for idx in bits(meta.defs) {
            slot.sb_reg[idx] = result_ready;
        }
        if kepler_ctl && meta.is_math && !covered && self.calib.hazard_penalty > 0 {
            slot.hazard |= meta.defs;
        } else {
            slot.hazard &= !meta.defs;
        }
        if let Some(p) = meta.def_pred {
            slot.sb_pred[p.index() as usize] = result_ready;
        }
        rec.gate = self.gate(slot);
        sbu_sw.stop(obs, Phase::Scoreboard);

        Ok((pc, lanes))
    }

    /// A warp's issue gate, from scratch.
    fn gate(&self, slot: &WarpSlot) -> Gate {
        // A warp without running lanes was marked done by its `EXIT` and
        // is not visited again; were it, `NO_PC` runs off the end.
        let pc = slot.state.current_group().map_or(NO_PC, |(pc, _)| pc);
        let mut gate = Gate {
            pc,
            ..Gate::default()
        };
        // Past the end the gate blocks nothing: the warp reaches `issue`,
        // which reports `RanOffEnd`.
        let Some(meta) = self.meta.get(pc as usize) else {
            return gate;
        };
        (gate.is_mem, gate.is_math) = (meta.is_mem, meta.is_math);
        gate.token_cost = meta.token_cost;
        for idx in bits(meta.touched) {
            gate.sb_ready = gate.sb_ready.max(slot.sb_reg[idx]);
            if slot.hazard & (1 << idx) != 0 {
                gate.hazard_until = gate.hazard_until.max(slot.sb_reg[idx]);
            }
        }
        for p in [meta.guard, meta.def_pred].into_iter().flatten() {
            gate.sb_ready = gate.sb_ready.max(slot.sb_pred[p.index() as usize]);
        }
        gate
    }
}

/// The indices of the set bits of a register mask, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let idx = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            idx
        })
    })
}

/// What the scheduler scan finds for one warp.
enum Visit {
    Done,
    Blocked(StallKind, u32),
    Ready,
}

/// Capture the scheduling state of every warp slot for cycle-limit
/// diagnostics.
fn timing_hang_snapshot(cycle: u64, st: &RunState) -> HangSnapshot {
    let warps = st
        .slots
        .iter()
        .zip(&st.issue)
        .enumerate()
        .map(|(w, (slot, rec))| {
            let pc = slot.state.current_group().map(|(pc, _)| pc);
            let (pc, state) = if rec.done {
                (None, "done")
            } else if rec.at_barrier {
                (pc, "barrier")
            } else if rec.next_issue > cycle {
                (pc, "ctl_stall")
            } else {
                (pc, "runnable")
            };
            WarpHang {
                warp: w as u32,
                pc,
                state,
            }
        })
        .collect();
    HangSnapshot { at: cycle, warps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use peakperf_sass::{Generation, KernelBuilder, Operand, Reg};

    /// A kernel of `n` independent FFMAs per thread in a tight loop.
    fn ffma_kernel(gen: Generation, unroll: usize, iters: u32) -> Kernel {
        let mut b = KernelBuilder::new("ffma_tp", gen);
        let r_i = Reg::r(16);
        b.mov32i(r_i, iters);
        // Initialize operand registers on distinct banks: R1, R4, R2, ...
        for r in 0..8u8 {
            b.mov_f32(Reg::r(r), 1.0 + f32::from(r));
        }
        let top = b.label_here();
        // Accumulators on even0/odd1 so they never share a bank with the
        // sources R1 (odd0) / R4 (even1) — the Section 3.3 discipline.
        const ACCS: [u8; 4] = [8, 13, 10, 15];
        for k in 0..unroll {
            let dst = Reg::r(ACCS[k % 4]);
            if gen.uses_control_notation() {
                // Annotated code, as nvcc would emit (a zero stall field
                // marks unscheduled code and replays on ALU hazards).
                // Independent FFMAs pair up for the second dispatch slot:
                // dual flag on the leader, the trailer's stall paces the
                // pair.
                if k % 2 == 0 {
                    b.with_ctl(CtlInfo::dual_stall(1));
                } else {
                    b.with_ctl(CtlInfo::stall(1));
                }
            }
            b.ffma(dst, Reg::r(1), Operand::reg(4), dst);
        }
        b.iadd(r_i, r_i, -1);
        b.isetp(peakperf_sass::Pred::p(0), peakperf_sass::CmpOp::Gt, r_i, 0);
        b.bra_if(peakperf_sass::Pred::p(0), false, top);
        b.exit();
        b.finish().unwrap()
    }

    fn run_sm(gen: Generation, kernel: &Kernel, threads: u32, blocks: u32) -> TimingReport {
        let gpu = GpuConfig::preset(gen);
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(
            &gpu,
            kernel,
            LaunchConfig::linear(blocks, threads),
            &[],
            blocks,
        )
        .unwrap();
        sim.run(&mut mem, Hooks::default()).unwrap()
    }

    #[test]
    fn fermi_ffma_throughput_saturates_at_32() {
        let kernel = ffma_kernel(Generation::Fermi, 32, 64);
        let report = run_sm(Generation::Fermi, &kernel, 512, 1);
        let ipc = report.thread_ipc();
        assert!(
            (25.0..=32.5).contains(&ipc),
            "Fermi FFMA thread IPC {ipc} outside expected band"
        );
    }

    #[test]
    fn sp_count_comes_from_the_given_gpu() {
        // A GTX580 with half its SPs: the SP pipe, not issue, caps FFMA.
        let gpu = GpuConfig {
            sps_per_sm: 16,
            ..GpuConfig::gtx580()
        };
        let kernel = ffma_kernel(Generation::Fermi, 32, 64);
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 512), &[], 1).unwrap();
        let ipc = sim.run(&mut mem, Hooks::default()).unwrap().thread_ipc();
        // BRA skips the SP pipe, so a 35-instruction loop body can reach
        // 16 * 35/34 = 16.5.
        assert!(
            (15.0..=16.5).contains(&ipc),
            "16-SP Fermi FFMA thread IPC {ipc} should sit near 16"
        );
    }

    #[test]
    fn kepler_ffma_throughput_saturates_near_132() {
        let kernel = ffma_kernel(Generation::Kepler, 32, 64);
        let report = run_sm(Generation::Kepler, &kernel, 1024, 2);
        let ipc = report.thread_ipc();
        // The token bucket sustains 33/8 warp-issues/cycle = 132
        // thread-insts/cycle for the charged instructions; BRA issues
        // outside the bucket, so a 35-instruction loop body can reach
        // 132 * 35/34 = 135.9. Measured: 134.6.
        assert!(
            (128.0..=136.5).contains(&ipc),
            "Kepler FFMA thread IPC {ipc} outside expected band"
        );
    }

    #[test]
    fn few_threads_cannot_hide_latency() {
        let kernel = ffma_kernel(Generation::Fermi, 32, 16);
        let low = run_sm(Generation::Fermi, &kernel, 32, 1).thread_ipc();
        let high = run_sm(Generation::Fermi, &kernel, 512, 1).thread_ipc();
        assert!(
            low < high,
            "32 threads ({low}) should be slower than 512 ({high})"
        );
    }

    #[test]
    fn cycle_limit_catches_runaway() {
        let mut b = KernelBuilder::new("spin", Generation::Fermi);
        let top = b.label_here();
        b.bra(top);
        b.exit();
        let kernel = b.finish().unwrap();
        let gpu = GpuConfig::gtx580();
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 32), &[], 1).unwrap();
        match sim.run(&mut mem, Hooks::default().cycle_limit(10_000)) {
            Err(SimError::StepLimit { limit, snapshot }) => {
                assert_eq!(limit, 10_000);
                let snap = snapshot.expect("cycle limit carries a snapshot");
                assert_eq!(snap.warps.len(), 1);
                assert_ne!(snap.warps[0].state, "done");
            }
            other => panic!("expected StepLimit, got {other:?}"),
        }
    }

    #[test]
    fn barrier_deadlock_matches_functional_model() {
        // Warp 0 (tid < 32) exits before the barrier; warp 1 waits forever.
        // Both engines must report the same typed deadlock.
        let mut b = KernelBuilder::new("deadlock", Generation::Fermi);
        b.s2r(Reg::r(0), peakperf_sass::SpecialReg::TidX);
        b.isetp(
            peakperf_sass::Pred::p(0),
            peakperf_sass::CmpOp::Lt,
            Reg::r(0),
            32,
        );
        b.with_pred(peakperf_sass::Pred::p(0), false).exit();
        b.bar();
        b.exit();
        let kernel = b.finish().unwrap();

        let mut gpu = crate::Gpu::new(Generation::Fermi);
        let func_err = gpu
            .launch(&kernel, LaunchConfig::linear(1, 64), &[])
            .unwrap_err();

        let config = GpuConfig::gtx580();
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&config, &kernel, LaunchConfig::linear(1, 64), &[], 1).unwrap();
        let timing_err = sim
            .run(&mut mem, Hooks::default().cycle_limit(100_000))
            .unwrap_err();

        assert_eq!(
            func_err,
            SimError::BarrierDeadlock {
                pc: 3,
                waiting: 1,
                exited: 1,
            }
        );
        assert_eq!(func_err, timing_err);
    }

    #[test]
    fn cancel_at_cycle_is_deterministic_and_snapshotted() {
        // A spin kernel runs forever; a cycle-armed token must abort it at
        // the first poll boundary >= the armed cycle, identically on every
        // run, with a coherent per-warp snapshot.
        let mut b = KernelBuilder::new("spin", Generation::Fermi);
        let top = b.label_here();
        b.bra(top);
        b.exit();
        let kernel = b.finish().unwrap();
        let gpu = GpuConfig::gtx580();

        let run_cancelled = |at: u64| -> SimError {
            let mut mem = GlobalMemory::new();
            let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[], 1).unwrap();
            let token = CancelToken::new();
            token.cancel_at_cycle(at);
            sim.run(&mut mem, Hooks::default().cancel(Some(&token)))
                .unwrap_err()
        };

        let first = run_cancelled(5000);
        let second = run_cancelled(5000);
        assert_eq!(first, second, "cancelled runs must be deterministic");
        match first {
            SimError::Cancelled { at_cycle, snapshot } => {
                // First poll boundary at or after the armed cycle.
                assert_eq!(at_cycle, 5000_u64.next_multiple_of(CHECK_INTERVAL_CYCLES));
                let snap = snapshot.expect("cancellation carries a snapshot");
                assert_eq!(snap.at, at_cycle);
                assert_eq!(snap.warps.len(), 2); // 64 threads = 2 warps
                assert!(snap.warps.iter().all(|w| w.state != "done"));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // A different armed cycle lands on a different boundary.
        match run_cancelled(0) {
            SimError::Cancelled { at_cycle, .. } => assert_eq!(at_cycle, 0),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let kernel = ffma_kernel(Generation::Fermi, 16, 1 << 20);
        let gpu = GpuConfig::gtx580();
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[], 1).unwrap();
        let token = CancelToken::new();
        token.cancel();
        match sim.run(&mut mem, Hooks::default().cancel(Some(&token))) {
            Err(SimError::Cancelled { at_cycle, .. }) => assert_eq!(at_cycle, 0),
            other => panic!("expected immediate Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_deadline_aborts_with_budget_in_error() {
        let kernel = ffma_kernel(Generation::Fermi, 16, 1 << 20);
        let gpu = GpuConfig::gtx580();
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[], 1).unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        match sim.run(&mut mem, Hooks::default().cancel(Some(&token))) {
            Err(SimError::DeadlineExceeded {
                deadline_ms,
                snapshot,
                ..
            }) => {
                assert_eq!(deadline_ms, 0);
                assert!(snapshot.is_some());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn barrier_round_trips_in_timing() {
        let mut b = KernelBuilder::new("bar", Generation::Fermi);
        b.shared_bytes(256);
        b.nop();
        b.bar();
        b.nop();
        b.exit();
        let kernel = b.finish().unwrap();
        let report = run_sm(Generation::Fermi, &kernel, 128, 1);
        assert_eq!(report.mix.count("BAR.SYNC"), 4); // 4 warps
        assert!(
            report.cycles
                > u64::from(Calibration::for_generation(Generation::Fermi).barrier_latency)
        );
    }
}
