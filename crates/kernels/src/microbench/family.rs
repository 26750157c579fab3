//! A systematic microbenchmark family (the Section 5.5 proposal).
//!
//! The paper closes by proposing "systematic and automatic development of a
//! set of microbenchmarks ... a small database of performance references
//! that could be used by the auto-tuning tool". This module implements that
//! proposal: a declarative [`MixSpec`] describes an instruction mix
//! (components, dependence structure), [`generate`] turns it into a kernel,
//! [`measure_spec`] measures it, and [`ThroughputDb`] holds the measured
//! family.

use std::collections::BTreeMap;
use std::fmt;

use peakperf_arch::{Generation, GpuConfig, LdsWidth};
use peakperf_sass::{
    CmpOp, CtlInfo, Kernel, KernelBuilder, MemSpace, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use peakperf_sim::SimError;

use super::{run_on_sm, saturating_launch};

/// One component of an instruction mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// FFMA with conflict-free operands.
    Ffma,
    /// FFMA whose distinct sources share a bank `ways` deep (2 or 3).
    FfmaConflicted(u8),
    /// Integer add.
    Iadd,
    /// Integer multiply-add (the quarter-rate path on Kepler).
    Imad,
    /// Shared-memory load of the given width, conflict-free addresses.
    Lds(LdsWidth),
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Ffma => f.write_str("FFMA"),
            Component::FfmaConflicted(w) => write!(f, "FFMA(x{w})"),
            Component::Iadd => f.write_str("IADD"),
            Component::Imad => f.write_str("IMAD"),
            Component::Lds(w) => write!(f, "LDS{}", w.suffix()),
        }
    }
}

impl Component {
    /// The mnemonic, or for loads the mnemonic prefix, it executes as.
    fn mnemonic(self) -> &'static str {
        match self {
            Component::Ffma | Component::FfmaConflicted(_) => "FFMA",
            Component::Iadd => "IADD",
            Component::Imad => "IMAD",
            Component::Lds(_) => "LDS",
        }
    }
}

/// A declarative mix: `count` copies of each component per group, with the
/// math instructions either independent or consuming the load results.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MixSpec {
    /// Components with repeat counts, executed in order within a group.
    pub parts: Vec<(Component, u32)>,
    /// Whether math components read the most recent load destination.
    pub dependent: bool,
}

impl MixSpec {
    /// The classic `ratio` FFMA : 1 LDS.X mix of Figures 2 and 4.
    pub fn ffma_lds(ratio: u32, width: LdsWidth, dependent: bool) -> MixSpec {
        MixSpec {
            parts: vec![(Component::Lds(width), 1), (Component::Ffma, ratio)],
            dependent,
        }
    }

    /// A pure stream of one component.
    pub fn pure(component: Component) -> MixSpec {
        MixSpec {
            parts: vec![(component, 1)],
            dependent: false,
        }
    }

    /// Total instructions per group.
    pub fn group_len(&self) -> u32 {
        self.parts.iter().map(|(_, n)| *n).sum()
    }

    /// Groups per loop iteration of the measured kernel: enough that the
    /// loop overhead (3 instructions) is noise.
    pub fn groups(&self) -> u32 {
        (120 / self.group_len().max(1)).max(4)
    }

    /// A stable label for reports (`LDS.64:1+FFMA:6 dep`).
    pub fn label(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(|(c, n)| format!("{c}:{n}")).collect();
        format!(
            "{}{}",
            parts.join("+"),
            if self.dependent { " dep" } else { " ind" }
        )
    }
}

/// Generate the benchmark kernel for a spec.
///
/// Register discipline mirrors the hand-written microbenchmarks: FFMA
/// sources R1 (odd0) / R4 (even1), accumulators on even0/odd1, loads into
/// the R20 quad, conflicted variants use the Table 2 register patterns.
///
/// # Errors
///
/// Propagates builder failures.
pub fn generate(
    generation: Generation,
    spec: &MixSpec,
    groups: u32,
    iters: u32,
) -> Result<Kernel, SimError> {
    const ACCS: [u8; 8] = [8, 13, 10, 15, 24, 29, 26, 31];
    let mut b = KernelBuilder::new(format!("family_{}", spec.group_len()), generation);
    let max_width = spec
        .parts
        .iter()
        .filter_map(|(c, _)| match c {
            Component::Lds(w) => Some(MemWidth::from(*w).bytes()),
            _ => None,
        })
        .max()
        .unwrap_or(4);
    b.shared_bytes(1024 * max_width);

    for i in 0..8u8 {
        b.mov_f32(Reg::r(i), 0.5 + f32::from(i));
    }
    for (k, &acc) in ACCS.iter().enumerate() {
        b.mov_f32(Reg::r(acc), 0.25 * (k as f32 + 1.0));
    }
    let addr = Reg::r(16);
    b.s2r(addr, SpecialReg::TidX);
    b.imul(addr, addr, max_width as i32);
    let counter = Reg::r(17);
    b.mov32i(counter, iters);
    let lds_dst = Reg::r(20);

    let top = b.label_here();
    let mut acc_idx = 0usize;
    for _ in 0..groups {
        for &(component, count) in &spec.parts {
            for _ in 0..count {
                if generation.uses_control_notation() {
                    b.with_ctl(CtlInfo::stall(1));
                }
                match component {
                    Component::Ffma => {
                        // Dependent mode reads the loaded pair R20/R21
                        // (even1/odd1), so the accumulator moves to
                        // even0/odd0.
                        if spec.dependent {
                            const DEP_ACCS: [u8; 6] = [8, 9, 10, 11, 24, 25];
                            let dst = Reg::r(DEP_ACCS[acc_idx % DEP_ACCS.len()]);
                            b.ffma(dst, lds_dst, Operand::reg(21), dst);
                        } else {
                            let dst = Reg::r(ACCS[acc_idx % ACCS.len()]);
                            b.ffma(dst, Reg::r(1), Operand::reg(4), dst);
                        }
                        acc_idx += 1;
                    }
                    Component::FfmaConflicted(ways) => {
                        // Table 2 patterns: R1,R3 share odd0 (2-way);
                        // R1,R3,R9 all odd0 (3-way).
                        let c = if ways >= 3 { Reg::r(9) } else { Reg::r(5) };
                        let dst = Reg::r(ACCS[acc_idx % ACCS.len()]);
                        acc_idx += 1;
                        b.ffma(dst, Reg::r(1), Operand::reg(3), c);
                    }
                    Component::Iadd => {
                        let dst = Reg::r(ACCS[acc_idx % ACCS.len()]);
                        acc_idx += 1;
                        b.iadd(dst, Reg::r(1), Operand::reg(4));
                    }
                    Component::Imad => {
                        let dst = Reg::r(ACCS[acc_idx % ACCS.len()]);
                        acc_idx += 1;
                        b.imad(dst, Reg::r(1), Operand::reg(4), dst);
                    }
                    Component::Lds(width) => {
                        b.ld(MemSpace::Shared, MemWidth::from(width), lds_dst, addr, 0);
                    }
                }
            }
        }
    }
    b.iadd(counter, counter, -1);
    b.isetp(Pred::p(0), CmpOp::Gt, counter, 0);
    b.bra_if(Pred::p(0), false, top);
    b.exit();
    b.finish().map_err(SimError::from)
}

/// A measured reference point.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Overall thread-instruction throughput of the mix (loop overhead
    /// excluded), per shader cycle per SM.
    pub throughput: f64,
    /// Active threads used for the measurement.
    pub threads: u32,
    /// Warp instructions of the spec's stream the run executed: the
    /// throughput's numerator.
    pub warp_insts: u64,
}

/// Loop iterations of every measured kernel.
const ITERS: u32 = 12;

/// Measure a spec on a GPU under the saturating launch. Only the spec's
/// own stream counts: its components' instructions, without the loop
/// counter's `IADD`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_spec(gpu: &GpuConfig, spec: &MixSpec) -> Result<Reference, SimError> {
    let kernel = generate(gpu.generation, spec, spec.groups(), ITERS)?;
    let (threads, blocks) = saturating_launch(gpu);
    let report = run_on_sm(gpu, &kernel, threads, blocks)?;
    let mut mnemonics: Vec<&str> = spec.parts.iter().map(|(c, _)| c.mnemonic()).collect();
    mnemonics.sort_unstable();
    mnemonics.dedup();
    let executed: u64 = mnemonics.iter().map(|m| report.mix.count_prefix(m)).sum();
    // Every warp's loop counter executes one IADD per iteration.
    let warps = u64::from(threads * blocks / 32);
    let loop_iadds = if mnemonics.contains(&"IADD") {
        warps * u64::from(ITERS)
    } else {
        0
    };
    let warp_insts = executed - loop_iadds;
    Ok(Reference {
        throughput: warp_insts as f64 * 32.0 / report.cycles.max(1) as f64,
        threads: threads * blocks,
        warp_insts,
    })
}

/// The standard family: pure streams of every component plus the FFMA/LDS
/// mixes the SGEMM analysis needs. Callers fan the measurements out in
/// parallel and [`ThroughputDb::insert`] the results.
pub fn standard_specs() -> Vec<MixSpec> {
    let mut specs: Vec<MixSpec> = [
        Component::Ffma,
        Component::FfmaConflicted(2),
        Component::FfmaConflicted(3),
        Component::Iadd,
        Component::Imad,
        Component::Lds(LdsWidth::B32),
        Component::Lds(LdsWidth::B64),
        Component::Lds(LdsWidth::B128),
    ]
    .into_iter()
    .map(MixSpec::pure)
    .collect();
    for width in LdsWidth::ALL {
        for ratio in [3u32, 6, 12] {
            specs.push(MixSpec::ffma_lds(ratio, width, true));
        }
    }
    specs
}

/// The database of performance references the Section 5.5 auto-tuner would
/// consult, keyed `gpu/spec` and iterated in key order. It holds what it is
/// given: [`measure_spec`] measures, and the timing cache memoizes.
#[derive(Debug, Clone, Default)]
pub struct ThroughputDb {
    entries: BTreeMap<String, Reference>,
}

impl ThroughputDb {
    /// An empty database.
    pub fn new() -> ThroughputDb {
        ThroughputDb::default()
    }

    /// Insert a reference under the `gpu/spec` key.
    pub fn insert(&mut self, gpu: &GpuConfig, spec: &MixSpec, reference: Reference) {
        self.entries
            .insert(format!("{}/{}", gpu.name, spec.label()), reference);
    }

    /// Iterate over `(key, reference)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Reference)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        let spec = MixSpec::ffma_lds(6, LdsWidth::B64, true);
        assert_eq!(spec.label(), "LDS.64:1+FFMA:6 dep");
        assert_eq!(spec.group_len(), 7);
        assert_eq!(MixSpec::pure(Component::Imad).label(), "IMAD:1 ind");
    }

    #[test]
    fn pure_ffma_matches_direct_microbenchmark() {
        let gpu = GpuConfig::gtx580();
        let r = measure_spec(&gpu, &MixSpec::pure(Component::Ffma)).unwrap();
        assert!(
            (26.0..=32.5).contains(&r.throughput),
            "Fermi pure FFMA: {}",
            r.throughput
        );
    }

    #[test]
    fn conflicted_ffma_is_slower_on_kepler() {
        let gpu = GpuConfig::gtx680();
        let measure = |c| measure_spec(&gpu, &MixSpec::pure(c)).unwrap();
        let free = measure(Component::Ffma);
        let two = measure(Component::FfmaConflicted(2));
        let three = measure(Component::FfmaConflicted(3));
        assert!(free.throughput > 1.7 * two.throughput);
        assert!(two.throughput > 1.2 * three.throughput);
    }
}
