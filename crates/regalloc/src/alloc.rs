//! A backtracking register allocator with bank constraints.

use std::collections::HashMap;
use std::fmt;

use peakperf_sass::Reg;

/// A virtual register: an index into the allocation problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub usize);

/// Errors from the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegAllocError {
    /// No assignment satisfies the constraints within the register budget.
    Unsatisfiable,
    /// The problem is malformed (unknown virtual register, duplicate pin,
    /// overlapping wide groups, ...).
    Malformed {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegAllocError::Unsatisfiable => {
                f.write_str("no register assignment satisfies the constraints")
            }
            RegAllocError::Malformed { message } => write!(f, "malformed problem: {message}"),
        }
    }
}

impl std::error::Error for RegAllocError {}

/// A bank-aware allocation problem.
///
/// Virtual registers `VReg(0..n)` are mapped to distinct physical registers
/// `R0..=R62` such that:
///
/// * every *distinct-bank group* (typically the three sources of an FFMA)
///   has its members on pairwise different banks;
/// * every *wide group* occupies consecutive physical registers starting at
///   a multiple of the group length (the `LDS.64`/`LDS.128` alignment
///   rule);
/// * *pins* are honored exactly;
/// * only registers in `pool` are used.
#[derive(Debug, Clone, Default)]
pub struct AllocProblem {
    n: usize,
    distinct_groups: Vec<Vec<VReg>>,
    wide_groups: Vec<Vec<VReg>>,
    pins: Vec<(VReg, Reg)>,
    pool: Vec<Reg>,
}

impl AllocProblem {
    /// A problem over `n` virtual registers with the default pool
    /// (`R0..=R62`).
    pub fn new(n: usize) -> AllocProblem {
        AllocProblem {
            n,
            distinct_groups: Vec::new(),
            wide_groups: Vec::new(),
            pins: Vec::new(),
            pool: (0..=Reg::MAX_INDEX).map(Reg::r).collect(),
        }
    }

    /// Number of virtual registers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the problem has no virtual registers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Restrict the physical pool.
    pub fn set_pool(&mut self, pool: Vec<Reg>) -> &mut Self {
        self.pool = pool;
        self
    }

    /// Require the members of `group` to sit on pairwise distinct banks
    /// (e.g. the three source registers of an FFMA).
    pub fn require_distinct_banks(&mut self, group: &[VReg]) -> &mut Self {
        self.distinct_groups.push(group.to_vec());
        self
    }

    /// Require `group` to occupy consecutive physical registers aligned to
    /// the group length (2 for `LDS.64`, 4 for `LDS.128`).
    pub fn require_wide(&mut self, group: &[VReg]) -> &mut Self {
        self.wide_groups.push(group.to_vec());
        self
    }

    /// Pin a virtual register to a physical register.
    pub fn pin(&mut self, v: VReg, r: Reg) -> &mut Self {
        self.pins.push((v, r));
        self
    }

    fn check(&self) -> Result<(), RegAllocError> {
        let mut seen_pin = HashMap::new();
        for (v, r) in &self.pins {
            if v.0 >= self.n {
                return Err(RegAllocError::Malformed {
                    message: format!("pin references unknown v{}", v.0),
                });
            }
            if r.is_rz() {
                return Err(RegAllocError::Malformed {
                    message: "cannot pin to RZ".to_owned(),
                });
            }
            if let Some(prev) = seen_pin.insert(*v, *r) {
                if prev != *r {
                    return Err(RegAllocError::Malformed {
                        message: format!("v{} pinned twice", v.0),
                    });
                }
            }
        }
        for g in self.distinct_groups.iter().chain(self.wide_groups.iter()) {
            for v in g {
                if v.0 >= self.n {
                    return Err(RegAllocError::Malformed {
                        message: format!("group references unknown v{}", v.0),
                    });
                }
            }
        }
        for g in &self.distinct_groups {
            if g.len() > 4 {
                return Err(RegAllocError::Malformed {
                    message: "distinct-bank group larger than the 4 banks".to_owned(),
                });
            }
        }
        for g in &self.wide_groups {
            if !matches!(g.len(), 2 | 4) {
                return Err(RegAllocError::Malformed {
                    message: "wide group must have 2 or 4 members".to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// Solve an allocation problem by backtracking with most-constrained-first
/// ordering.
///
/// # Errors
///
/// [`RegAllocError::Malformed`] for inconsistent problems,
/// [`RegAllocError::Unsatisfiable`] when no assignment exists.
pub fn solve(problem: &AllocProblem) -> Result<HashMap<VReg, Reg>, RegAllocError> {
    problem.check()?;
    let n = problem.n;

    // Wide groups assign several vregs at once: treat each wide group as a
    // unit, remaining vregs individually.
    let mut in_wide = vec![false; n];
    for g in &problem.wide_groups {
        for v in g {
            if in_wide[v.0] {
                return Err(RegAllocError::Malformed {
                    message: format!("v{} in two wide groups", v.0),
                });
            }
            in_wide[v.0] = true;
        }
    }

    // Constraint index: for each vreg, the distinct-bank groups it is in.
    let mut groups_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, g) in problem.distinct_groups.iter().enumerate() {
        for v in g {
            groups_of[v.0].push(gi);
        }
    }

    // The search state (each vreg's register, a bit per register taken)
    // and the pool as a bit set.
    let mut assignment: Vec<Option<Reg>> = vec![None; n];
    let mut used = 0u64;
    let bit = |r: Reg| 1u64 << r.index();
    let in_pool = problem.pool.iter().fold(0, |set, &r| set | bit(r));

    // Apply pins.
    for (v, r) in &problem.pins {
        if used & bit(*r) != 0 {
            return Err(RegAllocError::Malformed {
                message: format!("register {r} pinned twice"),
            });
        }
        assignment[v.0] = Some(*r);
        used |= bit(*r);
    }

    // Units to assign: wide groups first (most constrained), then single
    // vregs ordered by how many distinct-bank groups they participate in.
    enum Unit {
        Wide(usize),
        Single(VReg),
    }
    let mut units: Vec<Unit> = Vec::new();
    for gi in 0..problem.wide_groups.len() {
        units.push(Unit::Wide(gi));
    }
    let mut singles: Vec<VReg> = (0..n)
        .map(VReg)
        .filter(|v| !in_wide[v.0] && assignment[v.0].is_none())
        .collect();
    singles.sort_by_key(|v| std::cmp::Reverse(groups_of[v.0].len()));
    units.extend(singles.into_iter().map(Unit::Single));

    struct Search<'a> {
        problem: &'a AllocProblem,
        groups_of: &'a [Vec<usize>],
        pool: &'a [Reg],
        in_pool: u64,
        units: &'a [Unit],
        assignment: Vec<Option<Reg>>,
        used: u64,
    }

    impl Search<'_> {
        /// Whether `v` may take `r`: no member of its distinct-bank
        /// groups already sits on `r`'s bank.
        fn banks_ok(&self, v: VReg, r: Reg) -> bool {
            let groups = self.groups_of[v.0].iter();
            groups
                .flat_map(|&gi| &self.problem.distinct_groups[gi])
                .all(|other| {
                    *other == v || self.assignment[other.0].is_none_or(|o| o.bank() != r.bank())
                })
        }

        fn take(&mut self, v: VReg, r: Reg) {
            self.assignment[v.0] = Some(r);
            self.used |= 1 << r.index();
        }

        fn free(&mut self, v: VReg, r: Reg) {
            self.assignment[v.0] = None;
            self.used &= !(1 << r.index());
        }

        fn backtrack(&mut self, idx: usize) -> bool {
            let Some(unit) = self.units.get(idx) else {
                return true;
            };
            match *unit {
                Unit::Single(v) => {
                    if self.assignment[v.0].is_some() {
                        return self.backtrack(idx + 1);
                    }
                    for &r in self.pool {
                        if self.used & 1 << r.index() != 0 || r.is_rz() || !self.banks_ok(v, r) {
                            continue;
                        }
                        self.take(v, r);
                        if self.backtrack(idx + 1) {
                            return true;
                        }
                        self.free(v, r);
                    }
                    false
                }
                Unit::Wide(gi) => {
                    let group = &self.problem.wide_groups[gi];
                    let len = group.len() as u8;
                    // If any member is pinned, the whole placement is forced.
                    let forced_base = group.iter().enumerate().find_map(|(i, v)| {
                        let r = self.assignment[v.0]?;
                        Some(r.index().wrapping_sub(i as u8))
                    });
                    let bases = match forced_base {
                        Some(b) => b..=b,
                        None => 0..=Reg::MAX_INDEX,
                    };
                    'base: for base in bases {
                        if base % len != 0
                            || u16::from(base) + u16::from(len) - 1 > u16::from(Reg::MAX_INDEX)
                        {
                            continue;
                        }
                        // All members must be in the pool and free (unless
                        // already assigned to exactly this slot).
                        for (i, v) in (0u8..).zip(group) {
                            let r = Reg::r(base + i);
                            match self.assignment[v.0] {
                                Some(cur) if cur == r => {}
                                Some(_) => continue 'base,
                                None => {
                                    let bit = 1u64 << r.index();
                                    if self.used & bit != 0
                                        || self.in_pool & bit == 0
                                        || !self.banks_ok(*v, r)
                                    {
                                        continue 'base;
                                    }
                                }
                            }
                        }
                        // Members this placement assigns, a bit each.
                        let mut placed = 0u8;
                        for (i, v) in (0u8..).zip(group) {
                            if self.assignment[v.0].is_none() {
                                self.take(*v, Reg::r(base + i));
                                placed |= 1 << i;
                            }
                        }
                        if self.backtrack(idx + 1) {
                            return true;
                        }
                        for (i, v) in (0u8..).zip(group) {
                            if placed & 1 << i != 0 {
                                self.free(*v, Reg::r(base + i));
                            }
                        }
                    }
                    false
                }
            }
        }
    }

    let mut search = Search {
        problem,
        groups_of: &groups_of,
        pool: &problem.pool,
        in_pool,
        units: &units,
        assignment,
        used,
    };
    if search.backtrack(0) {
        let assigned = search.assignment.into_iter().enumerate();
        Ok(assigned.filter_map(|(i, r)| Some((VReg(i), r?))).collect())
    } else {
        Err(RegAllocError::Unsatisfiable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_arch::RegisterBank;

    #[test]
    fn simple_distinct_banks() {
        let mut p = AllocProblem::new(3);
        p.require_distinct_banks(&[VReg(0), VReg(1), VReg(2)]);
        let a = solve(&p).unwrap();
        let banks: Vec<RegisterBank> = (0..3).map(|i| a[&VReg(i)].bank()).collect();
        assert_ne!(banks[0], banks[1]);
        assert_ne!(banks[0], banks[2]);
        assert_ne!(banks[1], banks[2]);
    }

    #[test]
    fn wide_groups_are_aligned() {
        let mut p = AllocProblem::new(6);
        p.require_wide(&[VReg(0), VReg(1)]);
        p.require_wide(&[VReg(2), VReg(3), VReg(4), VReg(5)]);
        let a = solve(&p).unwrap();
        assert_eq!(a[&VReg(0)].index() % 2, 0);
        assert_eq!(a[&VReg(1)].index(), a[&VReg(0)].index() + 1);
        assert_eq!(a[&VReg(2)].index() % 4, 0);
        for i in 0..4u8 {
            assert_eq!(a[&VReg(2 + i as usize)].index(), a[&VReg(2)].index() + i);
        }
    }

    #[test]
    fn pins_are_honored() {
        let mut p = AllocProblem::new(2);
        p.pin(VReg(0), Reg::r(6));
        p.require_distinct_banks(&[VReg(0), VReg(1)]);
        let a = solve(&p).unwrap();
        assert_eq!(a[&VReg(0)], Reg::r(6));
        assert_ne!(a[&VReg(1)].bank(), Reg::r(6).bank());
    }

    #[test]
    fn infeasible_group_is_detected() {
        // Five registers cannot sit on 4 distinct banks.
        let mut p = AllocProblem::new(5);
        let group: Vec<VReg> = (0..5).map(VReg).collect();
        assert!(matches!(
            {
                p.require_distinct_banks(&group);
                p.check()
            },
            Err(RegAllocError::Malformed { .. })
        ));
    }

    #[test]
    fn pool_restriction_can_make_unsatisfiable() {
        let mut p = AllocProblem::new(2);
        // Pool of two same-bank registers cannot satisfy distinctness.
        p.set_pool(vec![Reg::r(0), Reg::r(8)]);
        p.require_distinct_banks(&[VReg(0), VReg(1)]);
        assert_eq!(solve(&p), Err(RegAllocError::Unsatisfiable));
    }

    #[test]
    fn assignment_registers_are_unique() {
        let mut p = AllocProblem::new(20);
        for i in (0..18).step_by(3) {
            p.require_distinct_banks(&[VReg(i), VReg(i + 1), VReg(i + 2)]);
        }
        let a = solve(&p).unwrap();
        let mut regs: Vec<u8> = a.values().map(|r| r.index()).collect();
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 20);
    }

    #[test]
    fn pin_to_rz_rejected() {
        let mut p = AllocProblem::new(1);
        p.pin(VReg(0), Reg::RZ);
        assert!(matches!(solve(&p), Err(RegAllocError::Malformed { .. })));
    }
}
