//! Simulator error type.

use std::fmt;

/// The scheduling state of one warp at the moment a watchdog tripped.
///
/// `pc` is `None` once the warp has exited; `state` is a short tag such as
/// `"done"`, `"barrier"`, `"ctl_stall"` or `"runnable"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpHang {
    /// Warp index within the snapshot (block-local for the functional
    /// simulator, SM-slot index for the timing simulator).
    pub warp: u32,
    /// Instruction index the warp is parked at, if it has not exited.
    pub pc: Option<u32>,
    /// Short scheduling-state tag.
    pub state: &'static str,
}

/// A per-warp scheduling snapshot attached to hang/deadlock errors so a
/// tripped watchdog is debuggable rather than opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangSnapshot {
    /// Step count (functional sim) or cycle (timing sim) at capture time.
    pub at: u64,
    /// One entry per warp still tracked by the engine.
    pub warps: Vec<WarpHang>,
}

impl fmt::Display for HangSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}:", self.at)?;
        for w in &self.warps {
            match w.pc {
                Some(pc) => write!(f, " w{}@{:#x}[{}]", w.warp, pc, w.state)?,
                None => write!(f, " w{}[{}]", w.warp, w.state)?,
            }
        }
        Ok(())
    }
}

/// Errors raised while simulating a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A memory access fell outside the allocated space.
    OutOfBounds {
        /// Which address space was accessed.
        space: &'static str,
        /// The faulting byte address.
        addr: u64,
        /// Size of that space in bytes.
        size: u64,
    },
    /// A memory access was not aligned to its width.
    Misaligned {
        /// Which address space was accessed.
        space: &'static str,
        /// The faulting byte address.
        addr: u64,
        /// Required alignment in bytes.
        align: u32,
    },
    /// A `BAR.SYNC` executed while the warp was diverged, or with some
    /// threads already exited — undefined behaviour on real hardware,
    /// reported as an error here.
    DivergentBarrier {
        /// Instruction index of the barrier.
        pc: u32,
    },
    /// The kernel ran past its instruction stream without `EXIT`.
    RanOffEnd,
    /// Some warps of a block wait at a `BAR.SYNC` that can never be
    /// satisfied because other member warps have already exited.
    BarrierDeadlock {
        /// Instruction index of a barrier being waited on.
        pc: u32,
        /// Number of member warps parked at the barrier.
        waiting: u32,
        /// Number of member warps that already exited.
        exited: u32,
    },
    /// Kernel/launch mismatch (parameter count, block size, resources).
    Launch {
        /// Description of the problem.
        message: String,
    },
    /// The kernel exceeded the simulator's safety step limit
    /// (almost certainly an unintended infinite loop).
    StepLimit {
        /// The limit that was hit.
        limit: u64,
        /// Per-warp scheduling state at the moment the limit tripped.
        snapshot: Option<HangSnapshot>,
    },
    /// Structural validation failed before execution.
    Invalid {
        /// Description from the validator.
        message: String,
    },
    /// The run was stopped through a
    /// [`CancelToken`](crate::CancelToken) (a host-side abort: an
    /// explicit cancel, a wall-clock deadline, or shutdown).
    Cancelled {
        /// The trigger path that fired the token first.
        source: crate::CancelSource,
        /// Simulated cycle at which the cancellation was observed.
        at_cycle: u64,
        /// Per-warp scheduling state at the abort point.
        snapshot: Option<HangSnapshot>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { space, addr, size } => {
                write!(
                    f,
                    "{space} access at {addr:#x} outside {size:#x}-byte space"
                )
            }
            SimError::Misaligned { space, addr, align } => {
                write!(f, "{space} access at {addr:#x} not {align}-byte aligned")
            }
            SimError::DivergentBarrier { pc } => {
                write!(f, "BAR.SYNC at pc {pc:#x} executed by a diverged warp")
            }
            SimError::RanOffEnd => f.write_str("execution ran past the end of the kernel"),
            SimError::BarrierDeadlock {
                pc,
                waiting,
                exited,
            } => {
                write!(
                    f,
                    "barrier deadlock at pc {pc:#x}: {waiting} warp(s) waiting, \
                     {exited} member warp(s) already exited"
                )
            }
            SimError::Launch { message } => write!(f, "launch error: {message}"),
            SimError::StepLimit { limit, snapshot } => {
                write!(f, "step limit of {limit} exceeded (infinite loop?)")?;
                if let Some(snap) = snapshot {
                    write!(f, "; {snap}")?;
                }
                Ok(())
            }
            SimError::Invalid { message } => write!(f, "invalid kernel: {message}"),
            SimError::Cancelled {
                source,
                at_cycle,
                snapshot,
            } => {
                let source = source.as_str();
                write!(f, "run cancelled ({source}) at cycle {at_cycle}")?;
                if let Some(snap) = snapshot {
                    write!(f, "; {snap}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<peakperf_sass::SassError> for SimError {
    fn from(e: peakperf_sass::SassError) -> SimError {
        SimError::Invalid {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = SimError::OutOfBounds {
            space: "global",
            addr: 0x100,
            size: 0x80,
        };
        assert!(e.to_string().contains("global"));
        assert!(e.to_string().contains("0x100"));
        let e = SimError::StepLimit {
            limit: 10,
            snapshot: None,
        };
        assert!(e.to_string().contains("10"));
        let e = SimError::StepLimit {
            limit: 10,
            snapshot: Some(HangSnapshot {
                at: 11,
                warps: vec![
                    WarpHang {
                        warp: 0,
                        pc: Some(4),
                        state: "barrier",
                    },
                    WarpHang {
                        warp: 1,
                        pc: None,
                        state: "done",
                    },
                ],
            }),
        };
        let text = e.to_string();
        assert!(text.contains("w0@0x4[barrier]"), "{text}");
        assert!(text.contains("w1[done]"), "{text}");
        let e = SimError::BarrierDeadlock {
            pc: 3,
            waiting: 7,
            exited: 1,
        };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::Cancelled {
            source: crate::CancelSource::Deadline,
            at_cycle: 2048,
            snapshot: Some(HangSnapshot {
                at: 2048,
                warps: vec![WarpHang {
                    warp: 0,
                    pc: Some(2),
                    state: "runnable",
                }],
            }),
        };
        let text = e.to_string();
        assert!(
            text.contains("cancelled (deadline) at cycle 2048"),
            "{text}"
        );
        assert!(text.contains("w0@0x2[runnable]"), "{text}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<SimError>();
    }
}
