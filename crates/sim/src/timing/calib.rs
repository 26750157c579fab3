//! Calibration constants of the timing model.
//!
//! Every number here is either taken directly from the paper's published
//! measurements (Table 2, Section 4.1, Figures 2 and 4) or tuned so that
//! the microbenchmarks of `peakperf-kernels` reproduce those measurements
//! on the simulator. `DESIGN.md` (Section 5) documents the mapping.

use peakperf_arch::Generation;
use peakperf_sass::{MemWidth, Op, OpClass};

/// Issue-token arithmetic scale: on Kepler the bucket gains
/// [`Calibration::tokens_per_cycle`] tokens per cycle and a conflict-free
/// single-issue instruction costs [`TOKEN_UNIT`], giving the measured
/// 33/8 warp instructions per cycle (= 132 thread instructions).
pub const TOKEN_UNIT: u64 = 8;

/// Per-generation microarchitectural constants that Table 1 does not
/// state. The Table 1 facts the timing model needs (schedulers, dispatch
/// units, SPs, memory bandwidth) come from the simulated
/// [`peakperf_arch::GpuConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Target generation.
    pub generation: Generation,
    /// On hot-clock generations (GT200/Fermi) each scheduler runs at the
    /// core clock and may only issue on alternate shader cycles.
    pub scheduler_half_rate: bool,
    /// Kepler issue-token refill per cycle (`None` disables the bucket).
    pub tokens_per_cycle: Option<u64>,
    /// Result latency of SP-pipe ALU instructions (FFMA/FADD/IADD/...).
    pub alu_latency: u32,
    /// Result latency of the integer-multiply path.
    pub imul_latency: u32,
    /// Extra issue cost multiplier of the integer-multiply path
    /// (Kepler IMUL/IMAD run at 33/cycle = 4x the FFMA token cost).
    pub imul_token_factor: u64,
    /// Shared-memory load-to-use latency.
    pub lds_latency: u32,
    /// Global-memory latency (from transaction service start to data).
    pub global_latency: u32,
    /// Cycles per 32-bit shared-memory *phase* on the LD/ST pipe
    /// (Fermi: 2 → LDS at 16 thread-insts/cycle; Kepler uses 64-bit banks).
    pub lds_phase_cycles: u32,
    /// Barrier release overhead in cycles.
    pub barrier_latency: u32,
    /// Replay penalty (cycles) when a Kepler ALU read-after-write hazard is
    /// not covered by the producer's control-notation stall field.
    pub hazard_penalty: u32,
}

impl Calibration {
    /// The calibration for a generation.
    pub fn for_generation(generation: Generation) -> Calibration {
        match generation {
            Generation::Gt200 => Calibration {
                generation,
                scheduler_half_rate: false,
                tokens_per_cycle: None,
                alu_latency: 24,
                imul_latency: 32,
                imul_token_factor: 4,
                lds_latency: 36,
                global_latency: 500,
                lds_phase_cycles: 4,
                barrier_latency: 12,
                hazard_penalty: 0,
            },
            Generation::Fermi => Calibration {
                generation,
                scheduler_half_rate: true,
                tokens_per_cycle: None,
                alu_latency: 18,
                imul_latency: 24,
                imul_token_factor: 2,
                lds_latency: 30,
                global_latency: 450,
                lds_phase_cycles: 2,
                barrier_latency: 10,
                hazard_penalty: 0,
            },
            Generation::Kepler => Calibration {
                generation,
                scheduler_half_rate: false,
                tokens_per_cycle: Some(33),
                alu_latency: 9,
                imul_latency: 18,
                imul_token_factor: 4,
                lds_latency: 24,
                global_latency: 350,
                lds_phase_cycles: 1,
                barrier_latency: 6,
                hazard_penalty: 10,
            },
        }
    }

    /// Issue-token cost of an instruction, given the register-bank conflict
    /// degree (`ways` = the maximum number of *distinct* source registers
    /// sharing one bank; 1 when conflict-free) and whether the dual-issue
    /// control hint is set.
    ///
    /// Reproduces Table 2:
    /// * conflict-free FFMA/FADD/IADD: 1 unit → 132/cycle;
    /// * 2-way conflict: ×2 → 66; 3-way: ×3 → 44;
    /// * IMUL/IMAD: ×4 → 33 (3-way conflicted IMAD: ×5 → 26.5);
    /// * operand-reuse with dual-issue arranged: ×0.75 → ~176
    ///   (the "carefully designed code structures" of Section 3.3).
    pub fn token_cost(&self, op: &Op, ways: u32, dual_hint: bool, distinct_srcs: usize) -> u64 {
        let base = match op.class() {
            OpClass::IntMul => self.imul_token_factor * TOKEN_UNIT,
            _ => TOKEN_UNIT,
        };
        let conflict = match op.class() {
            // The multiply path's 4x cost already covers 2-way operand
            // fetch; only a 3-way conflict adds a unit (Table 2: 26.5).
            OpClass::IntMul => {
                if ways >= 3 {
                    base + TOKEN_UNIT
                } else {
                    base
                }
            }
            _ => base * u64::from(ways.max(1)),
        };
        if dual_hint && distinct_srcs <= 2 && ways <= 1 {
            // Reuse fast path: 6 tokens → 33/6*8 = 5.5 warps = 176/cycle.
            conflict.min(6)
        } else {
            conflict
        }
    }

    /// LD/ST pipe occupancy (cycles) of a shared-memory access with the
    /// given width and bank-conflict serialization factor (from
    /// [`super::shared_conflict_factor`]).
    pub fn lds_pipe_cycles(&self, width: MemWidth, serialization: u32) -> u32 {
        match self.generation {
            // Fermi: 2 cycles per 32-bit phase; LDS.128 phases have an
            // intrinsic minimum serialization of 2 (Section 4.1).
            Generation::Gt200 | Generation::Fermi => {
                let phases = width.words();
                let ser = if width == MemWidth::B128 {
                    serialization.max(2)
                } else {
                    serialization
                };
                self.lds_phase_cycles * phases * ser
            }
            // Kepler: 64-bit banks; LDS and LDS.64 both take 1 cycle
            // conflict-free, LDS.128 takes 2.
            Generation::Kepler => {
                let phases = width.words().div_ceil(2);
                self.lds_phase_cycles * phases * serialization
            }
        }
    }

    /// Result latency by instruction class.
    pub fn latency(&self, op: &Op) -> u32 {
        match op.class() {
            OpClass::Fp32 | OpClass::Int | OpClass::Move => self.alu_latency,
            OpClass::IntMul => self.imul_latency,
            OpClass::Mem(peakperf_sass::MemSpace::Shared) => self.lds_latency,
            OpClass::Mem(peakperf_sass::MemSpace::Local) => self.lds_latency + 12,
            OpClass::Mem(peakperf_sass::MemSpace::Global) => self.global_latency,
            OpClass::Ctrl | OpClass::Barrier => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_sass::{Operand, Reg};

    fn ffma() -> Op {
        Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::reg(4),
            c: Reg::r(5),
        }
    }

    fn imad() -> Op {
        Op::Imad {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::reg(4),
            c: Reg::r(5),
        }
    }

    #[test]
    fn kepler_token_costs_reproduce_table2() {
        let c = Calibration::for_generation(Generation::Kepler);
        let tokens = c.tokens_per_cycle.unwrap() as f64;
        // thread-insts/cycle = tokens/cost * 32
        let tp = |cost: u64| tokens / cost as f64 * 32.0;
        assert!((tp(c.token_cost(&ffma(), 1, false, 3)) - 132.0).abs() < 1.0);
        assert!((tp(c.token_cost(&ffma(), 2, false, 3)) - 66.0).abs() < 0.5);
        assert!((tp(c.token_cost(&ffma(), 3, false, 3)) - 44.0).abs() < 0.5);
        assert!((tp(c.token_cost(&imad(), 1, false, 3)) - 33.0).abs() < 0.5);
        assert!((tp(c.token_cost(&imad(), 2, false, 3)) - 33.0).abs() < 0.5);
        assert!((tp(c.token_cost(&imad(), 3, false, 3)) - 26.4).abs() < 0.5);
        // Reuse fast path approaches 178.
        let reuse = tp(c.token_cost(&ffma(), 1, true, 2));
        assert!((reuse - 176.0).abs() < 4.0);
    }

    #[test]
    fn fermi_lds_pipe_matches_section_4_1() {
        let c = Calibration::for_generation(Generation::Fermi);
        // thread-insts/cycle = 32 / II
        assert_eq!(c.lds_pipe_cycles(MemWidth::B32, 1), 2); // 16/cycle
        assert_eq!(c.lds_pipe_cycles(MemWidth::B64, 1), 4); // 8/cycle
        assert_eq!(c.lds_pipe_cycles(MemWidth::B128, 1), 16); // 2/cycle
                                                              // A 2-way conflict doubles the occupancy.
        assert_eq!(c.lds_pipe_cycles(MemWidth::B32, 2), 4);
    }

    #[test]
    fn kepler_lds_pipe_matches_section_4_1() {
        let c = Calibration::for_generation(Generation::Kepler);
        assert_eq!(c.lds_pipe_cycles(MemWidth::B32, 1), 1); // ~33/cycle
        assert_eq!(c.lds_pipe_cycles(MemWidth::B64, 1), 1); // ~33/cycle
        assert_eq!(c.lds_pipe_cycles(MemWidth::B128, 1), 2); // ~16.5/cycle
    }

    #[test]
    fn fermi_has_no_token_bucket() {
        let c = Calibration::for_generation(Generation::Fermi);
        assert!(c.tokens_per_cycle.is_none());
        assert!(c.scheduler_half_rate);
    }

    #[test]
    fn latencies_are_ordered() {
        for gen in Generation::ALL {
            let c = Calibration::for_generation(gen);
            let lds = Op::Ld {
                space: peakperf_sass::MemSpace::Shared,
                width: MemWidth::B64,
                dst: Reg::r(0),
                addr: Reg::r(2),
                offset: 0,
            };
            let ldg = Op::Ld {
                space: peakperf_sass::MemSpace::Global,
                width: MemWidth::B32,
                dst: Reg::r(0),
                addr: Reg::r(2),
                offset: 0,
            };
            assert!(c.latency(&ffma()) <= c.latency(&lds));
            assert!(c.latency(&lds) < c.latency(&ldg));
        }
    }
}
