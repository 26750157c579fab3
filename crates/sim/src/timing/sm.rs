//! The cycle-level single-SM simulator.

use std::collections::BTreeMap;

use peakperf_arch::{register_bank, GpuConfig, WARP_SIZE};
use peakperf_sass::{CtlInfo, Kernel, MemSpace, Op, OpClass, Operand, Pred, Reg};

use crate::cancel::{CancelCause, CHECK_INTERVAL_CYCLES};
use crate::exec::{bits, release_barrier, step_warp, BlockCtx, MemAccess, MemCtx};
use crate::launch::check_launch;
use crate::recur::Brent;
use crate::stats::Tally;
use crate::timing::conflict::SEGMENT_BYTES;
use crate::timing::conflict::{bank_geometry, global_transactions, shared_conflict_factor};
use crate::timing::trace::{Hooks, Observer, TraceEvent, TraceEventKind, NO_PC};
use crate::timing::Calibration;
use crate::warp::{Control, StepEvent, WarpState};
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

    /// Stable identifier used in reports and profile documents.
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
    token_cost: u64,
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

/// A pipe the SM's warps share (the LD/ST pipe, the SP pipe, the
/// global-memory interface): the tick it is next free, in ticks of
/// 1/`per_cycle` cycle, a unit in which every occupation is a whole
/// number, so time stays exact (DESIGN.md §5.1).
struct Pipe {
    free: u64,
    per_cycle: u64,
}

impl Pipe {
    fn new(per_cycle: u64) -> Pipe {
        Pipe { free: 0, per_cycle }
    }

    /// Whether the pipe is busy into the cycle after `cycle`.
    fn busy(&self, cycle: u64) -> bool {
        self.free >= (cycle + 1) * self.per_cycle
    }

    /// Occupy the pipe for `ticks` from `cycle`, or from when it frees;
    /// returns the cycle the occupation starts.
    fn take(&mut self, cycle: u64, ticks: u64) -> u64 {
        let start = self.free.max(cycle * self.per_cycle);
        self.free = start + ticks;
        start / self.per_cycle
    }

    /// The ticks the pipe stays busy past the start of cycle `next`.
    fn ahead(&self, next: u64) -> u64 {
        self.free.saturating_sub(next * self.per_cycle)
    }
}

/// The mutable state of one run, threaded through `classify` and `issue`.
struct RunState {
    slots: Vec<WarpSlot>,
    /// Per warp, beside `slots`.
    issue: Vec<IssueState>,
    blocks: Vec<BlockRes>,
    /// The LD/ST pipe in cycles, the SP pipe in SP-lane slots and the
    /// global-memory interface in 1/(MB/s) of a cycle.
    ldst: Pipe,
    sp: Pipe,
    memif: Pipe,
    /// Kepler issue tokens in the bucket.
    tokens: u64,
    /// Warps that have not exited.
    live: usize,
    /// The run's tally and stall cycles per kind, folded into the report
    /// when the run completes.
    tally: Tally,
    stalls: [u64; StallKind::COUNT],
    report: TimingReport,
    /// Round-robin pointers per scheduler.
    rr: Vec<usize>,
    /// Stores to any memory space so far.
    stores: u64,
    /// The reference period of an affine recurrence, while it runs.
    track: Option<Track>,
}

/// The length of a full tape (DESIGN.md §5.1): a period that delivers as
/// many events is not skipped in a run that takes events, so a tape never
/// holds more than 1.5 MB.
const TAPE_CAP: usize = 1 << 16;

/// The run's observer, and while a recurrence awaits confirmation the
/// tape of the events it was given since the match (a full one marks a
/// period too long to replay).
struct Taped<O> {
    inner: O,
    tape: Option<Vec<TraceEvent>>,
}

impl<O: Observer> Observer for Taped<O> {
    const EVENTS: bool = O::EVENTS;

    fn event(&mut self, event: TraceEvent) {
        if let Some(tape) = self.tape.as_mut().filter(|t| t.len() < TAPE_CAP) {
            tape.push(event);
        }
        self.inner.event(event);
    }
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

/// A timing simulation of one SM running the first resident wave of a
/// launch: as many of the grid's blocks as fit on the SM at once.
pub struct TimingSim {
    calib: Calibration,
    kernel: Kernel,
    config: LaunchConfig,
    params: Vec<u32>,
    /// [`TimingSim::occupancy`].
    occupancy: (u32, u32),
    /// Pre-extracted per-instruction metadata.
    meta: Vec<InstMeta>,
    /// The memory interface's ticks per cycle (its bandwidth in MB/s) and
    /// per byte (shader MHz × SMs): one SM's share of the bandwidth.
    memif_ticks: (u64, u64),
    /// Local-memory spill traffic: fraction of accesses missing L1.
    local_miss_fraction: f64,
    /// The simulated card: its Table 1 facts drive the scheduler, the SP
    /// pipe and the memory interface, and [`TimingSim::cache_key`] hashes
    /// it.
    gpu: GpuConfig,
    /// The control slice (DESIGN.md §5.1): per instruction, the registers
    /// whose value on entry may reach a compare or an address; and all of
    /// them.
    live: Vec<u64>,
    slice: u64,
    /// Whether no load writes a register the slice needs after it: only
    /// then may a timing-only run, which leaves the stores of the periods
    /// it skips undone, skip periods whose slice moves.
    affine: bool,
}

/// Everything the issue path needs about one instruction that does not
/// change during a run.
struct InstMeta {
    /// Bitmasks over the 64 registers: read or written, and written.
    touched: u64,
    uses: u64,
    defs: u64,
    guard: Option<Pred>,
    def_pred: Option<Pred>,
    ctl: CtlInfo,
    /// Issues to the SP pipe / the LD/ST pipe.
    is_math: bool,
    is_mem: bool,
    /// Kepler issue-token cost (0 off the bucket).
    token_cost: u64,
    latency: u32,
}

impl TimingSim {
    /// Prepare a timing run of `config`'s launch. The simulated wave is
    /// derived, not chosen: the first `min(blocks that fit, grid blocks)`
    /// blocks of the grid, where the blocks that fit are the occupancy
    /// limit of the kernel's registers, shared memory and block size.
    ///
    /// # Errors
    ///
    /// Fails if the kernel does not validate for the GPU's generation, the
    /// launch parameters are inconsistent, not even one block fits on an
    /// SM ([`SimError::Launch`]), or the generation has no timing
    /// calibration (GT200).
    pub fn new(
        gpu: &GpuConfig,
        kernel: &Kernel,
        config: LaunchConfig,
        params: &[u32],
    ) -> Result<TimingSim, SimError> {
        check_launch(gpu, kernel, config, params)?;
        let occupancy = super::resident_blocks(gpu, kernel, config)?;
        let calib = Calibration::for_generation(gpu.generation)?;
        let regs: Vec<(u64, u64)> = kernel.code.iter().map(|inst| inst.op.reg_masks()).collect();
        // Per instruction, the registers whose value on entry may still
        // reach a compare or an address, to a fixed point over the
        // control flow (a guarded write kills nothing).
        let (mut live, mut changed) = (vec![0u64; kernel.code.len()], true);
        while std::mem::take(&mut changed) {
            for (pc, inst) in kernel.code.iter().enumerate().rev() {
                let at = |i: usize| live.get(i).copied().unwrap_or(0);
                let guarded = if inst.pred.is_some() { at(pc + 1) } else { 0 };
                let out = match inst.op {
                    Op::Bra { target } => at(target as usize) | guarded,
                    Op::Exit => guarded,
                    _ => at(pc + 1),
                };
                let (uses, defs) = regs[pc];
                let direct = match inst.op {
                    Op::Isetp { .. } => uses,
                    Op::Ld { addr, .. } | Op::St { addr, .. } if !addr.is_rz() => 1 << addr.index(),
                    _ => 0,
                };
                let feeds = if defs & out != 0 { uses } else { 0 };
                let kept = out & if inst.pred.is_some() { !0 } else { !defs };
                let new = direct | feeds | kept;
                changed |= std::mem::replace(&mut live[pc], new) != new;
            }
        }
        let slice = live.iter().fold(0, |m, l| m | l);
        let after = |pc: usize| live.get(pc + 1).copied().unwrap_or(0);
        let affine = (kernel.code.iter().enumerate())
            .all(|(pc, inst)| !matches!(inst.op, Op::Ld { .. }) || regs[pc].1 & after(pc) == 0);
        let meta = kernel
            .code
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let ctl = kernel.ctl_for(i);
                let (uses, defs) = regs[i];
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
                    calib.token_cost(&inst.op, token_ways, ctl.dual, distinct)
                } else {
                    0
                };
                InstMeta {
                    touched: uses | defs,
                    uses,
                    defs,
                    guard: inst.pred,
                    def_pred: inst.op.def_pred(),
                    ctl,
                    is_math,
                    is_mem,
                    token_cost,
                    latency: calib.latency(&inst.op),
                }
            })
            .collect();
        let threads = u64::from(config.threads_per_block());
        let spill_footprint = u64::from(kernel.local_bytes) * threads * u64::from(occupancy.1);
        let local_miss_fraction = if spill_footprint > u64::from(L1_BYTES) {
            1.0 - L1_BYTES as f64 / spill_footprint as f64
        } else {
            0.0
        };
        let mb_per_s = (gpu.mem_bandwidth_gbps * 1e3).round() as u64;
        let mhz_sms = gpu.shader_clock_mhz.round() as u64 * u64::from(gpu.num_sms);
        Ok(TimingSim {
            calib,
            kernel: kernel.clone(),
            config,
            params: params.to_vec(),
            occupancy,
            meta,
            memif_ticks: (mb_per_s.max(1), mhz_sms),
            local_miss_fraction,
            gpu: gpu.clone(),
            live,
            slice,
            affine,
        })
    }

    /// Run to completion and report, under `hooks` (`Hooks::default()`
    /// for none): scheduler events stream into its observer, its token
    /// is polled every [`CHECK_INTERVAL_CYCLES`], and its cycle limit
    /// bounds the run.
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
            observer: obs,
            cancel,
            cycle_limit,
            timing_only,
        } = hooks;
        // Every tick count stays below half of `u64::MAX`, leaving a
        // pipe's lead over the cycle as much room again.
        let ticks = self.memif_ticks.0.max(self.gpu.sps_per_sm.into());
        let cycle_limit = cycle_limit.min(u64::MAX / ticks / 2);
        let obs = &mut Taped {
            inner: obs,
            tape: None,
        };
        let threads = self.config.threads_per_block();
        let warps_per_block = self.config.warps_per_block();
        let n_warps = (warps_per_block * self.occupancy.1) as usize;

        let blocks: Vec<BlockRes> = (0..self.occupancy.1)
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

        let mut st = RunState {
            slots,
            issue,
            blocks,
            ldst: Pipe::new(1),
            sp: Pipe::new(self.gpu.sps_per_sm.into()),
            memif: Pipe::new(self.memif_ticks.0),
            tokens: 0,
            live: n_warps,
            tally: Tally::new(self.kernel.code.len()),
            stalls: [0; StallKind::COUNT],
            report: TimingReport::default(),
            rr: vec![0; self.gpu.warp_schedulers_per_sm as usize],
            stores: 0,
            track: None,
        };

        let schedulers = self.gpu.warp_schedulers_per_sm as usize;
        // Kepler's second dispatch unit per scheduler.
        let dual_dispatch = self.gpu.dispatch_units_per_sm > self.gpu.warp_schedulers_per_sm;
        // Warps owned by each scheduler.
        let owned: Vec<Vec<usize>> = (0..schedulers)
            .map(|sched| (0..n_warps).filter(|&w| w % schedulers == sched).collect())
            .collect();
        let wpb = warps_per_block as usize;
        // A run that no token polls skips the periods of an exact
        // recurrence, replaying one period's events to an observer that
        // takes them; a timing-only run also skips those of a recurrence
        // modulo affine slice deltas (DESIGN.md §5.1).
        let detect = cancel.is_none();
        let affine = detect && timing_only && self.affine;
        let mut recur = Recurrence {
            affine,
            regs: if affine {
                bits(self.slice).map(|r| r as u8).collect()
            } else {
                (0..63).collect()
            },
            ..Recurrence::default()
        };
        let mut back_edge = false;

        let mut cycle: u64 = 0;
        loop {
            if st.live == 0 {
                break;
            }
            if cycle > cycle_limit {
                crate::stats::record_skipped_cycles(recur.skipped);
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
                st.tokens = (st.tokens + refill).min(2 * refill);
            }

            // Rotate which scheduler gets first claim on shared issue
            // resources (the Kepler token bucket): with a fixed priority
            // order, schedulers 0 and 1 would consume the whole refill every
            // cycle once dual issue lets a scheduler spend two instructions'
            // worth, and the warps of schedulers 2 and 3 would starve until
            // the end of the kernel. One division per cycle; the scan below
            // wraps its indices by compare.
            let first = (cycle % schedulers as u64) as usize;
            for s in 0..schedulers {
                let sched = wrap(first + s, schedulers);
                if self.calib.scheduler_half_rate && !(cycle as usize + sched).is_multiple_of(2) {
                    continue;
                }
                let owned = &owned[sched];
                if owned.is_empty() {
                    continue;
                }
                // `rr` is in `0..=owned.len()`.
                let start = wrap(st.rr[sched], owned.len());
                for k in 0..owned.len() {
                    let i = wrap(start + k, owned.len());
                    let w = owned[i];
                    let at = (cycle, sched, w);
                    match self.classify(w, cycle, &mut st) {
                        Visit::Done => {}
                        Visit::Blocked(kind, pc) => {
                            st.stalls[kind.index()] += 1;
                            emit(obs, at, pc, TraceEventKind::Stall(kind));
                        }
                        Visit::Ready => {
                            let (pc, lanes) = self.issue(w, cycle, &mut st, memory)?;
                            back_edge |= detect && st.back_edge(w, pc);
                            trace_issue(obs, at, pc, lanes, false, st.issue[w].done);
                            st.rr[sched] = i + 1;
                            // Dual dispatch: try one more instruction from
                            // the same warp (Kepler's second dispatch unit);
                            // a block here is not a stall of this cycle.
                            if dual_dispatch
                                && matches!(self.classify(w, cycle, &mut st), Visit::Ready)
                            {
                                let (pc, lanes) = self.issue(w, cycle, &mut st, memory)?;
                                back_edge |= detect && st.back_edge(w, pc);
                                trace_issue(obs, at, pc, lanes, true, st.issue[w].done);
                            }
                            break;
                        }
                    }
                }
            }

            // Barrier release: per block, when every non-done warp waits.
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
                    let at = (cycle, w % schedulers, w);
                    emit(obs, at, bar_pc, TraceEventKind::BarrierRelease);
                }
            }

            if std::mem::take(&mut back_edge) {
                recur.checkpoint(self, &mut st, &mut cycle, cycle_limit, obs);
            }
            cycle += 1;
        }
        debug_assert!(
            recur.skipped == 0 || affine,
            "only a timing-only run may complete after skipping"
        );
        let stats = st.tally.fold(&self.kernel.code);
        let mut report = TimingReport {
            cycles: cycle.max(1),
            warp_instructions: stats.warp_instructions,
            thread_instructions: stats.thread_instructions,
            flops: stats.flops,
            mix: stats.mix,
            ..st.report
        };
        for kind in StallKind::ALL {
            if st.stalls[kind.index()] > 0 {
                report.stalls.insert(kind, st.stalls[kind.index()]);
            }
        }
        crate::stats::record_timing_run(&report);
        crate::stats::record_skipped_cycles(recur.skipped);
        Ok(report)
    }

    /// The wave, as `(blocks_per_sm, resident)`: the blocks of this
    /// kernel one SM holds, and the blocks the simulated wave holds (the
    /// grid's first ones, as many as fit).
    pub fn occupancy(&self) -> (u32, u32) {
        self.occupancy
    }

    /// The key under which this run is cached: a 128-bit hash over the GPU
    /// configuration, the kernel (code, control notation, metadata), the
    /// launch configuration and the parameter values — everything
    /// [`TimingSim::run`]'s result depends on (the resident wave follows
    /// from the first three).
    pub fn cache_key(&self) -> u128 {
        crate::timing::cache::run_key(&self.gpu, &self.kernel, self.config, &self.params)
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
        if (gate.is_mem && st.ldst.busy(cycle)) || (gate.is_math && st.sp.busy(cycle)) {
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
    fn issue(
        &self,
        w: usize,
        cycle: u64,
        st: &mut RunState,
        memory: &mut GlobalMemory,
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
        let result = step_warp(&self.kernel.code, &mut slot.state, &mut mem_ctx, &block.ctx)?;
        if let (Some(track), StepEvent::Executed { exec_mask, .. }) = (&mut st.track, result.event)
        {
            let access = result.mem.as_ref().map(|m| match m.space {
                MemSpace::Global => (m, u64::from(memory.size())),
                MemSpace::Shared => (m, block.shared.len() as u64),
                MemSpace::Local => (m, u64::from(self.kernel.local_bytes)),
            });
            self.follow(track, (w, pc as usize, exec_mask), &slot.state, access);
        }

        st.tokens -= meta.token_cost;
        st.stores += u64::from(result.mem.as_ref().is_some_and(|m| m.store));

        let lanes = st.tally.record(result.event, slot.state.running_mask());
        match result.event {
            StepEvent::AtBarrier { .. } => {
                rec.at_barrier = true;
                block.arrived += 1;
                return Ok((pc, lanes));
            }
            StepEvent::Exited { .. } => {
                rec.done = true;
                block.running -= 1;
                st.live -= 1;
                return Ok((pc, lanes));
            }
            StepEvent::Executed { .. } => {}
        }

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
            st.sp.take(cycle, WARP_SIZE.into());
        }

        let mut result_ready = cycle + u64::from(meta.latency);
        if let Some(access) = &result.mem {
            match access.space {
                MemSpace::Shared => {
                    let factor =
                        shared_conflict_factor(self.calib.generation, access.width, access.addrs());
                    let occ = self.calib.lds_pipe_cycles(access.width, factor);
                    let base = self.calib.lds_pipe_cycles(access.width, 1);
                    st.report.lds_conflict_cycles += u64::from(occ - base);
                    st.ldst.take(cycle, occ.into());
                    result_ready = cycle + u64::from(meta.latency) + u64::from(occ - base);
                }
                MemSpace::Global => {
                    let txns = global_transactions(access.width, access.addrs());
                    let bytes = u64::from(txns) * u64::from(SEGMENT_BYTES);
                    st.report.global_transactions += u64::from(txns);
                    st.report.global_bytes += bytes;
                    st.ldst.take(cycle, txns.max(1).into());
                    let start = st.memif.take(cycle, bytes * self.memif_ticks.1);
                    if !access.store {
                        result_ready = start + u64::from(self.calib.global_latency);
                    }
                }
                MemSpace::Local => {
                    // Spill traffic: occupies the LD/ST pipe like shared
                    // memory; the L1-miss fraction also pays global
                    // bandwidth and latency (Section 5.5).
                    let occ = self.calib.lds_pipe_cycles(access.width, 1);
                    st.ldst.take(cycle, occ.into());
                    if self.local_miss_fraction > 0.0 {
                        let bytes = (access.addrs().len() as f64
                            * f64::from(access.width.bytes())
                            * self.local_miss_fraction) as u64;
                        let start = st.memif.take(cycle, bytes * self.memif_ticks.1);
                        if !access.store {
                            result_ready = result_ready
                                .max(cycle + u64::from(self.calib.global_latency / 2))
                                .max(start + u64::from(self.calib.global_latency));
                        }
                    }
                }
            }
        }

        // Scoreboard updates. A producer counts as "covered" when it
        // carries any scheduling stall at all: raw unannotated Kepler code
        // (stall 0 everywhere) replays on ALU hazards and runs very poorly,
        // exactly as the paper observed before decoding the notation
        // (Section 3.2).
        let covered = ctl_stall >= 1;
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

        Ok((pc, lanes))
    }

    /// Feed the state at the end of `cycle` to `out` word by word, every
    /// time stamp relative to the next cycle and clamped at 0 (a stamp at
    /// or before it holds nothing back): all of it but the warps'
    /// [`WarpState`]s, the scoreboards only if `full`.
    fn relative(&self, st: &RunState, cycle: u64, full: bool, out: &mut impl FnMut(u64)) {
        let next = cycle + 1;
        for pipe in [&st.ldst, &st.sp, &st.memif] {
            out(pipe.ahead(next));
        }
        out(st.tokens);
        // The scheduler order repeats every `schedulers` cycles, Fermi's
        // half rate every two.
        let schedulers = u64::from(self.gpu.warp_schedulers_per_sm);
        let half_rate = self.calib.scheduler_half_rate && schedulers % 2 == 1;
        out(cycle % (schedulers << u32::from(half_rate)).max(1));
        st.rr.iter().for_each(|&p| out(p as u64));
        for block in &st.blocks {
            out(u64::from(block.running) << 32 | u64::from(block.arrived));
        }
        for (slot, rec) in st.slots.iter().zip(&st.issue) {
            let (gate, sb) = (&rec.gate, if full { &slot.sb_reg[..] } else { &[] });
            out(u64::from(gate.pc) << 2 | u64::from(rec.at_barrier) << 1 | u64::from(rec.done));
            out(slot.hazard);
            let stamps = [rec.next_issue, gate.sb_ready, gate.hazard_until];
            let preds = if full { &slot.sb_pred[..] } else { &[] };
            for &t in stamps.iter().chain(sb).chain(preds) {
                out(t.saturating_sub(next));
            }
        }
    }

    /// The whole state at the end of `cycle` with the rows of registers
    /// `regs`.
    fn canon(&self, st: &RunState, cycle: u64, regs: &[u8]) -> Canon {
        let mut words = Vec::new();
        self.relative(st, cycle, true, &mut |v| words.push(v));
        let control = st.slots.iter().map(|s| s.state.control()).collect();
        (words, control, rows(st, regs).copied().collect())
    }

    /// Whether the whole state at the end of `cycle` but its register
    /// rows equals `canon`, compared in place.
    fn is_canon(&self, st: &RunState, cycle: u64, (words, control, _): &Canon) -> bool {
        let (mut words, mut same) = (words.iter(), true);
        self.relative(st, cycle, true, &mut |v| same &= words.next() == Some(&v));
        let control = (st.slots.iter().zip(control)).all(|(s, c)| s.state.control() == *c);
        same && words.next().is_none() && control
    }

    /// The registers whose value may still reach a compare or an address
    /// from where the warp's running lanes stand.
    fn live_regs(&self, state: &WarpState) -> u64 {
        let live = |pc: u32| self.live.get(pc as usize).copied().unwrap_or(0);
        state.lane_pcs().fold(0, |m, pc| m | live(pc))
    }

    /// Follow one issue of warp `w`, on lanes `exec`, in the reference
    /// period of an affine recurrence (DESIGN.md §5.1): bound the periods
    /// after this one by its compares and by its memory access within a
    /// space of `size` bytes, and carry the per-lane deltas through its
    /// write.
    fn follow(
        &self,
        t: &mut Track,
        (w, pc, exec): (usize, usize, u32),
        state: &WarpState,
        access: Option<(&MemAccess, u64)>,
    ) {
        let (op, meta, slice) = (self.kernel.code[pc].op, &self.meta[pc], self.slice);
        // A slice register's place in `t.delta`.
        let n = slice.count_ones() as usize;
        let at = |r: usize| {
            (slice >> r & 1 != 0).then(|| w * n + (slice & !(!0 << r)).count_ones() as usize)
        };
        // An operand's deltas, if known (immediates and constants move by 0).
        let of = |t: &Track, b: Operand| match b {
            Operand::Reg(r) if !r.is_rz() => at(r.index().into()).and_then(|i| t.delta[i]),
            _ => Some([0; 32]),
        };
        let (reg, lanes) = (Operand::Reg, || bits(u64::from(exec)));
        let int = |x: u32| i128::from(x as i32);
        match op {
            Op::Isetp { a, b, .. } => {
                let values = match b {
                    Operand::Reg(r) => *state.row(r),
                    Operand::Imm(v) => [v as u32; 32],
                    Operand::Const { .. } => return t.room = 0,
                };
                let (Some(da), Some(db)) = (of(t, reg(a)), of(t, b)) else {
                    return t.room = 0;
                };
                let (lo, hi) = (i32::MIN.into(), i32::MAX.into());
                for l in lanes() {
                    let (va, vb, sa, sb) =
                        (int(state.row(a)[l]), int(values[l]), int(da[l]), int(db[l]));
                    // Both sides stay off the 32-bit wrap, and the sign of
                    // their gap, which decides every (signed) compare, holds.
                    let gap = match (va - vb).signum() {
                        1 => (1, i128::MAX),
                        -1 => (i128::MIN, -1),
                        _ => (0, 0),
                    };
                    let k = within(va, sa, lo, hi).min(within(vb, sb, lo, hi));
                    t.room = t.room.min(k).min(within(va - vb, sa - sb, gap.0, gap.1));
                }
            }
            Op::Ld {
                space, width, addr, ..
            }
            | Op::St {
                space, width, addr, ..
            } => {
                let Some(step) = of(t, reg(addr)) else {
                    return t.room = 0;
                };
                let first = lanes().next().map_or(0, |l| step[l]);
                if lanes().any(|l| step[l] != first) {
                    return t.room = 0;
                }
                if let (Some((access, size)), true) = (access, first != 0) {
                    // Shifted by whole segments or bank rows, an access
                    // costs what it costs here; so it must at every
                    // remainder the step leaves.
                    let cost = |shift: u32| {
                        let mut addrs = [0; 32];
                        let addrs = &mut addrs[..access.addrs().len()];
                        (addrs.iter_mut().zip(access.addrs()))
                            .for_each(|(a, x)| *a = x.wrapping_add(shift));
                        match space {
                            MemSpace::Global => global_transactions(width, addrs),
                            MemSpace::Shared => {
                                shared_conflict_factor(self.calib.generation, width, addrs)
                            }
                            MemSpace::Local => 0,
                        }
                    };
                    let grain = match space {
                        MemSpace::Global => SEGMENT_BYTES,
                        _ => bank_geometry(self.calib.generation).1,
                    };
                    let unit = 1 << first.trailing_zeros().min(grain.trailing_zeros());
                    let here = cost(0);
                    if (unit..grain)
                        .step_by(unit as usize)
                        .any(|r| cost(r) != here)
                    {
                        return t.room = 0;
                    }
                    let lo = i128::from(space == MemSpace::Global);
                    let hi = i128::from(size) - i128::from(width.bytes());
                    for &x in access.addrs() {
                        t.room = t.room.min(within(x.into(), int(first), lo, hi));
                    }
                }
            }
            _ => {}
        }
        if meta.defs & slice == 0 {
            return;
        }
        // A write carries the deltas of an affine form, or of a constant;
        // any other write, a load's included, leaves its value unknown.
        let moved = match op {
            Op::Iadd { a, b, .. } => (of(t, reg(a)).zip(of(t, b)))
                .map(|(da, db)| std::array::from_fn(|l| da[l].wrapping_add(db[l]))),
            Op::Iscadd { a, b, shift, .. } => (of(t, reg(a)).zip(of(t, b))).map(|(da, db)| {
                std::array::from_fn(|l| da[l].wrapping_shl(u32::from(shift)).wrapping_add(db[l]))
            }),
            Op::Shl {
                a,
                b: Operand::Imm(n),
                ..
            } => of(t, reg(a)).map(|da| da.map(|d| d.wrapping_shl(n as u32))),
            Op::Mov { src, .. } => of(t, src),
            Op::Ld { .. } => None,
            _ => (bits(meta.uses))
                .all(|r| {
                    (at(r).and_then(|i| t.delta[i])).is_some_and(|d| lanes().all(|l| d[l] == 0))
                })
                .then_some([0; 32]),
        };
        // Lanes the write skips keep their deltas.
        for i in bits(meta.defs).filter_map(at) {
            t.delta[i] = match (moved, t.delta[i]) {
                (Some(moved), Some(mut d)) => {
                    lanes().for_each(|l| d[l] = moved[l]);
                    Some(d)
                }
                (moved, None) if exec == state.running_mask() => moved,
                _ => None,
            };
        }
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
        }
        for idx in bits(meta.touched & slot.hazard) {
            gate.hazard_until = gate.hazard_until.max(slot.sb_reg[idx]);
        }
        for p in [meta.guard, meta.def_pred].into_iter().flatten() {
            gate.sb_ready = gate.sb_ready.max(slot.sb_pred[p.index() as usize]);
        }
        gate
    }
}

/// Warp by warp, the rows of registers `regs`.
fn rows<'a>(st: &'a RunState, regs: &'a [u8]) -> impl Iterator<Item = &'a [u32; 32]> {
    (st.slots.iter()).flat_map(move |s| regs.iter().map(move |&r| s.state.row(Reg::r(r))))
}

/// `i % n` for `i < 2n`, without a division.
#[inline]
fn wrap(i: usize, n: usize) -> usize {
    i - if i >= n { n } else { 0 }
}

impl RunState {
    /// Every counter a period adds to: the report's, the tally, the
    /// stalls per kind and the stores.
    fn counts(&mut self) -> impl Iterator<Item = &mut u64> {
        let r = &mut self.report;
        [
            &mut r.lds_conflict_cycles,
            &mut r.global_transactions,
            &mut r.global_bytes,
            &mut r.hazard_replays,
            &mut self.stores,
        ]
        .into_iter()
        .chain(self.tally.counts())
        .chain(&mut self.stalls)
    }

    /// Whether warp `w`, having issued `pc`, took a back-edge (its next PC
    /// is at or below `pc`) as the lowest-numbered live warp.
    fn back_edge(&self, w: usize, pc: u32) -> bool {
        let rec = &self.issue[w];
        !rec.done && !rec.at_barrier && rec.gate.pc <= pc && self.issue[..w].iter().all(|r| r.done)
    }
}

/// A run's whole state: [`TimingSim::relative`] in full, every warp's
/// [`Control`] and, warp by warp, the rows of the registers compared (all
/// of them, or the slice's in an affine run).
type Canon = (Vec<u64>, Vec<Control>, Vec<[u32; 32]>);

/// The most periods `k` for which `v + k·slope` stays within `lo..=hi`.
fn within(v: i128, slope: i128, lo: i128, hi: i128) -> u64 {
    let k = match slope.signum() {
        1 => (hi - v) / slope,
        -1 => (v - lo) / -slope,
        _ => return u64::MAX,
    };
    k.clamp(0, u64::MAX.into()) as u64
}

/// The reference period of an affine recurrence, followed issue by issue.
struct Track {
    /// Per warp and slice register, per lane: how far the value at this
    /// point of the period moves from one period to the next, if known.
    delta: Vec<Option<[u32; 32]>>,
    /// How many periods after this one compare and address as it does
    /// (0 once an instruction leaves the affine form).
    room: u64,
}

/// The timing engine's recurrence detector (DESIGN.md §5.1). A
/// checkpoint is the end of a cycle in which the lowest-numbered live warp
/// took a back-edge.
#[derive(Default)]
struct Recurrence {
    /// Brent's search over a cheap key: a fingerprint of the relative
    /// state (in an exact run with the registers of the lowest live warp),
    /// that warp and its [`Control`].
    brent: Brent<(u64, usize, Control)>,
    /// The recurrence being confirmed.
    candidate: Option<Candidate>,
    /// A timing-only run of an eligible kernel (`TimingSim::affine`):
    /// register values off the slice and stores are left out, and the
    /// slice may move by constant per-lane deltas.
    affine: bool,
    /// The registers whose rows the whole state holds: all of them, or the
    /// slice's in an affine run.
    regs: Vec<u8>,
    /// Cycles skipped so far.
    skipped: u64,
}

/// A recurrence under confirmation: what happens at checkpoint `due`.
struct Candidate {
    due: u64,
    period: u64,
    stage: Stage,
    /// The whole state one period before `due` with its register rows
    /// moved on by `delta`, and the store count and counters then.
    canon: Canon,
    stores: u64,
    counts: Vec<u64>,
    /// Affine runs: per warp and slice register, each lane's change over
    /// one period, once measured.
    delta: Vec<[u32; 32]>,
}

#[derive(Clone, Copy, PartialEq)]
enum Stage {
    /// Affine runs: measure the deltas since one period ago, then take
    /// the state again.
    Delta,
    /// Skip whole periods if the state recurred.
    Check,
}

impl Recurrence {
    /// Feed the checkpoint at the end of `*cycle`. Once the state has
    /// recurred, skip whole periods towards `limit`: move every stamp
    /// still ahead of the next cycle along, add the period's deltas to the
    /// slice and its counts to the counters, and replay the period's taped
    /// events to `obs` once per period.
    fn checkpoint<O: Observer>(
        &mut self,
        sim: &TimingSim,
        st: &mut RunState,
        cycle: &mut u64,
        limit: u64,
        obs: &mut Taped<O>,
    ) {
        let now = *cycle;
        let Some(cand) = self.candidate.take() else {
            return self.search(sim, st, now, obs);
        };
        if now < cand.due {
            self.candidate = Some(cand);
            return;
        }
        let (tape, track) = (obs.tape.take().unwrap_or_default(), st.track.take());
        if now != cand.due
            || !(self.affine || cand.stores == st.stores)
            || !sim.is_canon(st, now, &cand.canon)
        {
            return;
        }
        let then = &cand.canon.2;
        if cand.stage == Stage::Check {
            let room = track.as_ref().map_or(u64::MAX, |t| t.room);
            let n = ((limit - now) / cand.period).min(room);
            if n > 0
                && tape.len() < TAPE_CAP
                && self.holds(sim, st, then, &cand.delta, track.as_ref())
            {
                self.skip(st, cycle, obs, &cand, &tape, n);
            }
            return;
        }
        let moved = rows(st, &self.regs).zip(then);
        let delta = moved.map(|(a, b)| std::array::from_fn(|l| a[l].wrapping_sub(b[l])));
        let measured = (cand.period, delta.collect());
        self.begin(sim, st, now, measured, Stage::Check, obs);
    }

    /// Whether every register row the state holds is `want` again (in an
    /// affine run, where live), and the reference period `track` carried
    /// every live register to the deltas `delta`.
    fn holds(
        &self,
        sim: &TimingSim,
        st: &RunState,
        want: &[[u32; 32]],
        delta: &[[u32; 32]],
        track: Option<&Track>,
    ) -> bool {
        let n = self.regs.len();
        st.slots.iter().enumerate().all(|(w, slot)| {
            let live = if self.affine {
                sim.live_regs(&slot.state)
            } else {
                u64::MAX
            };
            let same = |(k, &r): (usize, &u8)| {
                let i = w * n + k;
                let carried = track.is_none_or(|t| t.delta[i] == Some(delta[i]));
                live >> r & 1 == 0 || slot.state.row(Reg::r(r)) == &want[i] && carried
            };
            self.regs.iter().enumerate().all(same)
        })
    }

    /// Search for a recurrence with Brent's method, and begin confirming
    /// a match.
    fn search<O: Observer>(
        &mut self,
        sim: &TimingSim,
        st: &mut RunState,
        now: u64,
        obs: &mut Taped<O>,
    ) {
        let Some(w) = st.issue.iter().position(|rec| !rec.done) else {
            return;
        };
        let mut fp = 0u64;
        let mix = &mut |v: u64| fp = (fp.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        sim.relative(st, now, false, mix);
        let state = &st.slots[w].state;
        if !self.affine {
            let regs = self.regs.iter().flat_map(|&r| state.row(Reg::r(r)));
            regs.for_each(|&v| mix(v.into()));
        }
        let key = (fp, w, state.control());
        let stores = if self.affine { 0 } else { st.stores };
        if let Some(period) = self.brent.check(now, stores, |k| *k == key, || key.clone()) {
            let next = if self.affine {
                Stage::Delta
            } else {
                Stage::Check
            };
            self.begin(sim, st, now, (period, Vec::new()), next, obs);
        }
    }

    /// Take the state at `now`, its rows moved on by the deltas `delta`,
    /// and wait one period for `stage`, following the period if it is an
    /// affine reference period.
    fn begin<O: Observer>(
        &mut self,
        sim: &TimingSim,
        st: &mut RunState,
        now: u64,
        (period, delta): (u64, Vec<[u32; 32]>),
        stage: Stage,
        obs: &mut Taped<O>,
    ) {
        let mut canon = sim.canon(st, now, &self.regs);
        for (row, d) in canon.2.iter_mut().zip(&delta) {
            *row = std::array::from_fn(|l| row[l].wrapping_add(d[l]));
        }
        if self.affine && stage == Stage::Check {
            st.track = Some(Track {
                delta: delta.iter().copied().map(Some).collect(),
                room: u64::MAX,
            });
        }
        if O::EVENTS {
            obs.tape = Some(Vec::new());
        }
        self.candidate = Some(Candidate {
            due: now + period,
            period,
            stage,
            canon,
            stores: st.stores,
            counts: st.counts().map(|c| *c).collect(),
            delta,
        });
    }

    /// Skip `n` confirmed periods of `cand` from `*cycle`.
    fn skip<O: Observer>(
        &mut self,
        st: &mut RunState,
        cycle: &mut u64,
        obs: &mut Taped<O>,
        cand: &Candidate,
        tape: &[TraceEvent],
        n: u64,
    ) {
        let (now, period) = (*cycle, cand.period);
        let skip = n * period;
        // The state at `due` is the state a period before, so each skipped
        // period delivers the taped one's events, shifted.
        if O::EVENTS {
            obs.inner.replay(tape, period, n);
        }
        for (slot, rec) in st.slots.iter_mut().zip(&mut st.issue) {
            let g = &mut rec.gate;
            let stamps = [&mut rec.next_issue, &mut g.sb_ready, &mut g.hazard_until];
            let sb = slot.sb_reg.iter_mut().chain(&mut slot.sb_pred);
            for t in sb.chain(stamps).filter(|t| **t > now + 1) {
                *t += skip;
            }
        }
        for p in [&mut st.ldst, &mut st.sp, &mut st.memif] {
            if p.ahead(now + 1) > 0 {
                p.free += skip * p.per_cycle;
            }
        }
        let regs = &self.regs;
        for (slot, delta) in st
            .slots
            .iter_mut()
            .zip(cand.delta.chunks(regs.len().max(1)))
        {
            for (&r, d) in regs.iter().zip(delta) {
                let row = slot.state.row(Reg::r(r));
                let moved =
                    std::array::from_fn(|l| row[l].wrapping_add(d[l].wrapping_mul(n as u32)));
                slot.state.set_row(Reg::r(r), u32::MAX, &moved);
            }
        }
        for (c, then) in st.counts().zip(&cand.counts) {
            *c += n * (*c - then);
        }
        *cycle += skip;
        self.skipped += skip;
        self.brent = Brent::default();
    }
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
        let config = LaunchConfig::linear(blocks, threads);
        let sim = TimingSim::new(&gpu, kernel, config, &[]).unwrap();
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
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 512), &[]).unwrap();
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
    fn memory_interface_ticks_are_one_sms_share_of_the_bandwidth() {
        let ticks = |gpu: &GpuConfig| {
            let kernel = ffma_kernel(gpu.generation, 1, 1);
            let sim = TimingSim::new(gpu, &kernel, LaunchConfig::linear(1, 32), &[]);
            sim.unwrap().memif_ticks
        };
        let (per_cycle, per_byte) = ticks(&GpuConfig::gtx580());
        assert_eq!((per_cycle, per_byte), (192_400, 1544 * 16));
        // 192.4 GB/s at 1544 MHz = ~124.6 B/cycle for the GPU.
        assert_eq!(per_cycle * 10 / (per_byte / 16), 1246);
        assert_eq!(ticks(&GpuConfig::gtx680()), (192_260, 1006 * 8));
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
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 32), &[]).unwrap();
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
        let sim = TimingSim::new(&config, &kernel, LaunchConfig::linear(1, 64), &[]).unwrap();
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
            let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[]).unwrap();
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
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[]).unwrap();
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
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[]).unwrap();
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
                > u64::from(
                    Calibration::for_generation(Generation::Fermi)
                        .unwrap()
                        .barrier_latency
                )
        );
    }
}
