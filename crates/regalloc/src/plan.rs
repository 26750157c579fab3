//! The SGEMM register plan (Section 5.2 register budget, Section 5.4 /
//! Figure 9 bank assignment).

use peakperf_sass::Reg;

use crate::{ffma_conflict_ways, solve, AllocProblem, RegAllocError, VReg};

/// Address/bookkeeping registers of the SGEMM kernel (Section 5.2 items
/// 4-7: global A/B cursors, the loop-end condition — held in R1's slot
/// since no stack is needed — and the shared-memory cursors for the
/// prefetch and main loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRegs {
    /// Cursor of A in global memory.
    pub a_global: Reg,
    /// Cursor of B in global memory.
    pub b_global: Reg,
    /// Loop end condition.
    pub loop_end: Reg,
    /// Cursor of A in shared memory during the prefetch store.
    pub a_smem_store: Reg,
    /// Cursor of B in shared memory during the prefetch store.
    pub b_smem_store: Reg,
    /// Cursor of A in shared memory in the main loop.
    pub a_smem: Reg,
    /// Cursor of B in shared memory in the main loop.
    pub b_smem: Reg,
}

/// The complete register assignment of the register-blocked SGEMM main
/// loop: `BR*BR` accumulators, a column of A, a 2-register B pair (loaded
/// three times per stage with `LDS.64`), 12 global-prefetch registers, and
/// 7 address registers — 63 registers in total for `BR = 6`, exactly the
/// Fermi/GK104 budget (Section 5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgemmPlan {
    /// Register blocking factor.
    pub br: usize,
    /// Accumulators, row-major: `c[i][j]` holds C(i, j).
    pub c: Vec<Vec<Reg>>,
    /// The A column (`br` registers, loaded with `LDS.64` pairs).
    pub a_col: Vec<Reg>,
    /// The B pair (2 registers, an aligned `LDS.64` destination).
    pub b_row: Vec<Reg>,
    /// Global-memory prefetch staging (12 registers in 6 aligned pairs).
    pub prefetch: Vec<Reg>,
    /// Address/bookkeeping registers.
    pub addr: AddrRegs,
}

impl SgemmPlan {
    /// The naive sequential assignment: registers are handed out in
    /// declaration order, as a compiler without bank awareness would.
    ///
    /// On Fermi this is perfectly fine (no register banks); on Kepler it
    /// produces heavy FFMA bank conflicts — the paper's first
    /// implementation measured 68.8 % 2-way and 10.6 % 3-way (Section 5.4).
    ///
    /// # Panics
    ///
    /// Panics if the register budget (`br² + br + 2 + 12 + 7`) exceeds 63.
    pub fn naive(br: usize) -> SgemmPlan {
        let needed = br * br + br + 2 + 12 + 7;
        assert!(
            needed <= 63,
            "blocking factor {br} needs {needed} > 63 registers"
        );
        let mut next = 0u8;
        let mut take = |n: usize| -> Vec<Reg> {
            let v: Vec<Reg> = (0..n).map(|i| Reg::r(next + i as u8)).collect();
            next += n as u8;
            v
        };
        // Keep LDS.64 alignment even in the naive plan (it is required for
        // the code to be encodable at all): allocate pairs from the start.
        let a_col = take(br + (br & 1));
        let b_row = take(2);
        let prefetch = take(12);
        let addr_regs = take(7);
        let c = (0..br).map(|_| take(br)).collect();
        SgemmPlan {
            br,
            c,
            a_col: a_col.into_iter().take(br).collect(),
            b_row,
            prefetch,
            addr: AddrRegs {
                a_global: addr_regs[0],
                b_global: addr_regs[1],
                loop_end: addr_regs[2],
                a_smem_store: addr_regs[3],
                b_smem_store: addr_regs[4],
                a_smem: addr_regs[5],
                b_smem: addr_regs[6],
            },
        }
    }

    /// The bank-optimized assignment of Section 5.4: solved so that every
    /// main-loop FFMA `C[i][j] += A[i] * B[j%2]` reads its three distinct
    /// sources from three different banks, while preserving the `LDS.64`
    /// pair alignment of the A column, the B pair, and the prefetch
    /// staging.
    ///
    /// # Errors
    ///
    /// Propagates [`RegAllocError`] (e.g. for blocking factors whose budget
    /// does not fit).
    pub fn bank_optimized(br: usize) -> Result<SgemmPlan, RegAllocError> {
        let needed = br * br + br + 2 + 12 + 7;
        if needed > 63 {
            return Err(RegAllocError::Malformed {
                message: format!("blocking factor {br} needs {needed} > 63 registers"),
            });
        }
        // Virtual register layout:
        //   0..br*br            C accumulators (row-major)
        //   br*br..+br          A column
        //   +br..+2             B pair
        //   +2..+12             prefetch
        //   +12..+7             address registers
        let n_c = br * br;
        let v_c = |i: usize, j: usize| VReg(i * br + j);
        let v_a = |i: usize| VReg(n_c + i);
        let v_b = |j: usize| VReg(n_c + br + j);
        let v_pf = |k: usize| VReg(n_c + br + 2 + k);
        let v_addr = |k: usize| VReg(n_c + br + 14 + k);
        let total = n_c + br + 2 + 12 + 7;

        let mut p = AllocProblem::new(total);
        // LDS.64 pair alignment.
        for pair in 0..br / 2 {
            p.require_wide(&[v_a(2 * pair), v_a(2 * pair + 1)]);
        }
        p.require_wide(&[v_b(0), v_b(1)]);
        for pair in 0..6 {
            p.require_wide(&[v_pf(2 * pair), v_pf(2 * pair + 1)]);
        }
        // FFMA bank distinctness: C[i][j] += A[i] * B[j % 2].
        for i in 0..br {
            for j in 0..br {
                p.require_distinct_banks(&[v_a(i), v_b(j % 2), v_c(i, j)]);
            }
        }
        let assignment = solve(&p)?;
        let reg = |v: VReg| assignment[&v];
        Ok(SgemmPlan {
            br,
            c: (0..br)
                .map(|i| (0..br).map(|j| reg(v_c(i, j))).collect())
                .collect(),
            a_col: (0..br).map(|i| reg(v_a(i))).collect(),
            b_row: (0..2).map(|j| reg(v_b(j))).collect(),
            prefetch: (0..12).map(|k| reg(v_pf(k))).collect(),
            addr: AddrRegs {
                a_global: reg(v_addr(0)),
                b_global: reg(v_addr(1)),
                loop_end: reg(v_addr(2)),
                a_smem_store: reg(v_addr(3)),
                b_smem_store: reg(v_addr(4)),
                a_smem: reg(v_addr(5)),
                b_smem: reg(v_addr(6)),
            },
        })
    }

    /// Total registers used by the plan.
    pub fn register_count(&self) -> usize {
        self.br * self.br + self.br + 2 + 12 + 7
    }

    /// Count the main-loop FFMAs that would suffer a bank conflict under
    /// this plan: returns `(free, two_way, three_way)` over the
    /// `br * br` FFMAs of one stage.
    pub fn conflict_census(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut two = 0;
        let mut three = 0;
        for i in 0..self.br {
            for j in 0..self.br {
                let ways = ffma_conflict_ways([self.a_col[i], self.b_row[j % 2], self.c[i][j]]);
                match ways {
                    1 => free += 1,
                    2 => two += 1,
                    _ => three += 1,
                }
            }
        }
        (free, two, three)
    }

    /// All registers of the plan (for uniqueness checks).
    pub fn all_registers(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        for row in &self.c {
            v.extend_from_slice(row);
        }
        v.extend_from_slice(&self.a_col);
        v.extend_from_slice(&self.b_row);
        v.extend_from_slice(&self.prefetch);
        v.extend_from_slice(&[
            self.addr.a_global,
            self.addr.b_global,
            self.addr.loop_end,
            self.addr.a_smem_store,
            self.addr.b_smem_store,
            self.addr.a_smem,
            self.addr.b_smem,
        ]);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_plan_uses_63_registers_for_br6() {
        let p = SgemmPlan::naive(6);
        assert_eq!(p.register_count(), 63);
        let mut regs: Vec<u8> = p.all_registers().iter().map(|r| r.index()).collect();
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 63);
    }

    #[test]
    fn naive_plan_has_kepler_conflicts() {
        let p = SgemmPlan::naive(6);
        let (_, two, three) = p.conflict_census();
        // The paper's first (unoptimized) Kepler version had 68.8% 2-way
        // and 10.6% 3-way; the naive sequential plan must conflict heavily.
        assert!(
            two + three > 10,
            "expected heavy conflicts, got {two}+{three}"
        );
    }

    #[test]
    fn optimized_plan_is_conflict_free() {
        let p = SgemmPlan::bank_optimized(6).unwrap();
        assert_eq!(p.conflict_census(), (36, 0, 0));
    }

    #[test]
    fn optimized_plan_respects_alignment_and_uniqueness() {
        let p = SgemmPlan::bank_optimized(6).unwrap();
        for pair in p.a_col.chunks(2) {
            assert_eq!(pair[0].index() % 2, 0);
            assert_eq!(pair[1].index(), pair[0].index() + 1);
        }
        assert_eq!(p.b_row[0].index() % 2, 0);
        assert_eq!(p.b_row[1].index(), p.b_row[0].index() + 1);
        for pair in p.prefetch.chunks(2) {
            assert_eq!(pair[0].index() % 2, 0);
        }
        let mut regs: Vec<u8> = p.all_registers().iter().map(|r| r.index()).collect();
        let before = regs.len();
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), before);
        assert!(regs.iter().all(|&r| r <= 62));
    }

    #[test]
    fn smaller_blocking_factors_solve_too() {
        for br in [2usize, 4] {
            let p = SgemmPlan::bank_optimized(br).unwrap();
            let (free, two, three) = p.conflict_census();
            assert_eq!(free, br * br);
            assert_eq!(two + three, 0);
        }
    }

    #[test]
    fn oversized_blocking_factor_fails_cleanly() {
        assert!(SgemmPlan::bank_optimized(7).is_err());
    }

    #[test]
    #[should_panic(expected = "registers")]
    fn naive_oversized_panics() {
        let _ = SgemmPlan::naive(7);
    }
}
