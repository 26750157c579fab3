//! The four workloads. Each owns its item list and sizes (nothing is read
//! from the program's own benchmark settings), runs one *round* — a full
//! pass over its items — at a time, and checks what comes back.
//!
//! Every item list does the same total work whatever the seed: the seed
//! permutes the order and generates the data, so a metric's spread across
//! seeds is machine noise, not a different mix.

pub mod service_mix;
pub mod sweep;
pub mod toolchain;

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::trace::Tracer;

/// An error of the measured program, as the text a failed operation is
/// reported with.
fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What a workload is built from.
#[derive(Debug, Clone)]
pub struct Setup {
    pub seed: u64,
    /// Threads allowed to do work at once.
    pub workers: usize,
    /// Smoke mode: every 4th item only.
    pub check: bool,
    /// Scratch space inside the checkout (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// The simulated (exactly repeating) results of one operation; any two
/// rounds of one run must agree on them.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// GFLOPS, thread instructions per cycle, or a static size.
    pub value: f64,
    pub cycles: u64,
    pub warp_insts: u64,
}

/// Simulator counters summed over a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    pub cycles: u64,
    pub warp_insts: u64,
    pub stalls: [u64; 6],
}

impl SimTotals {
    pub fn add(&mut self, c: &crate::api::Counters) {
        self.cycles += c.sim_cycles;
        self.warp_insts += c.warp_instructions;
        for (slot, n) in self.stalls.iter_mut().zip(c.stall_cycles) {
            *slot += n;
        }
    }

    /// Stall warp-cycles of all causes.
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Workload-specific measurements: named sample streams (one value per
/// job, say) and named counts.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Extras {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Pool another round's samples; counts keep the latest value (they
    /// repeat from round to round).
    pub fn merge(&mut self, other: &Extras) {
        for (name, values) in &other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        self.counts.extend(&other.counts);
    }
}

/// One pass over a workload's items.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host wall time of the pass.
    pub wall_s: f64,
    /// Host wall time of each operation, by item index.
    pub item_wall_s: Vec<f64>,
    /// Simulated results by item index, or why the operation failed.
    pub outcomes: Vec<Result<Outcome, String>>,
    /// Warp instructions simulated (timing or functional) in the pass.
    pub warp_insts: u64,
    /// Timing-simulator counters of the pass.
    pub sim: SimTotals,
    /// Failed checks that belong to the round, not to one operation.
    pub round_failures: Vec<String>,
    pub extras: Extras,
}

pub trait Workload {
    /// Operations in one round.
    fn ops(&self) -> usize;

    /// Run one round; with the tracer on, single-threaded with a span
    /// around every public call.
    fn round(&mut self, tracer: &mut Tracer) -> Round;

    /// Mean absolute error against the paper over the reference rows, in
    /// percent, for workloads that have reference rows.
    fn mean_abs_pct_error(&self, _outcomes: &[Result<Outcome, String>]) -> Option<f64> {
        None
    }

    /// Extra passes after the traced rounds (per-layer only). `reference`
    /// is a round the passes must reproduce; `uncached_wall_s` the median
    /// wall of the timed rounds.
    fn after_traced(&mut self, _reference: &Round, _uncached_wall_s: f64) -> (Extras, Vec<String>) {
        (Extras::default(), Vec::new())
    }
}

/// Build a workload, including its warm-up. This is the set-up that
/// `setup_s` times.
pub fn build(name: &str, setup: &Setup) -> Result<Box<dyn Workload>, String> {
    crate::api::disable_global();
    match name {
        "sgemm_sweep" => Ok(Box::new(sweep::Sweep::sgemm(setup)?)),
        "micro_sweep" => Ok(Box::new(sweep::Sweep::micro(setup)?)),
        "toolchain" => Ok(Box::new(toolchain::Toolchain::new(setup)?)),
        "service_mix" => Ok(Box::new(service_mix::ServiceMix::new(setup)?)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// SplitMix64: the benchmark's own generator, so item order and data
/// depend on `--seed` alone and not on any code of the measured program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0); the modulo bias is irrelevant
    /// for shuffling a few hundred items.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seeded order, then every 4th item in smoke mode.
pub fn arrange<T>(mut items: Vec<T>, setup: &Setup) -> Vec<T> {
    Rng::new(setup.seed).shuffle(&mut items);
    if setup.check {
        items.into_iter().step_by(4).collect()
    } else {
        items
    }
}

#[cfg(test)]
pub(crate) fn test_setup(seed: u64) -> Setup {
    Setup {
        seed,
        workers: 1,
        check: false,
        out_dir: std::env::temp_dir(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let order = |seed| arrange((0..100).collect::<Vec<u32>>(), &test_setup(seed));
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>(), "a permutation");
    }

    #[test]
    fn smoke_mode_keeps_every_fourth_item() {
        let mut setup = test_setup(3);
        let full = arrange((0..18).collect::<Vec<u32>>(), &setup);
        setup.check = true;
        let smoke = arrange((0..18).collect::<Vec<u32>>(), &setup);
        assert_eq!(smoke, full.iter().copied().step_by(4).collect::<Vec<u32>>());
        assert_eq!(smoke.len(), 5);
    }
}
