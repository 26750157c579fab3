//! The simulators' results, frozen, for every fault-corpus case, 200
//! seed-1 campaign mutants per GPU and the two `observer_identity` waves
//! (408 cases, simulated once and shared by both tests).
//!
//! `tests/timing_golden.txt` holds an FNV-64 digest of the `Debug`
//! rendering of the whole `Result<TimingReport, SimError>` — every
//! counter, the instruction mix, per-kind stalls, and on failure the typed
//! error with its per-warp snapshot. A scheduler change that is meant to
//! preserve behaviour must leave it untouched.
//!
//! `tests/arch_golden.txt` holds what the kernels *compute*, three
//! digests per case: global memory after `TimingSim::run`, the `Debug`
//! rendering of `Result<FuncStats, SimError>` from `Gpu::launch` under the
//! fuzzer's step limit, and global memory after that launch. Memory and
//! counts sit in columns of their own, so a moved column says which of
//! them changed. A change to the functional core that is meant to preserve
//! architectural state must leave it untouched.
//!
//! Both engines count a run's work through one tally, so every case that
//! both complete must also report the same instruction mix, warp and
//! thread instructions and flops.
//!
//! An intended change re-blesses both with
//! `UPDATE_GOLDEN=1 cargo test --test timing_golden`.
//!
//! The corpus is also replayed through the whole differential pipeline:
//! every pinned case must stay free of oracle violations.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::sgemm::{
    build_preset, launch_params, upload_problem, Preset, SgemmProblem, Variant,
};
use peakperf::sass::Kernel;
use peakperf::sim::timing::{Hooks, TimingReport, TimingSim};
use peakperf::sim::{FuncStats, GlobalMemory, Gpu, Json, LaunchConfig, SimError};
use peakperf_bench::fault::{
    campaign_cases, mutant_kernel, replay_corpus, CampaignConfig, FuzzCase, ViolationCase,
    FUZZ_CYCLE_LIMIT, FUZZ_STEP_LIMIT,
};

mod common;
use common::{assert_matches_golden, fnv64, FNV_OFFSET};

const MUTANTS_PER_GPU: u64 = 200;

/// The fault corpus: one `ViolationCase` JSON record per `.case` file.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fault_corpus");

/// Continue `seed` over every mapped word of `memory` (address 0 is the
/// unmapped null word).
fn fnv64_memory(seed: u64, memory: &GlobalMemory) -> u64 {
    (4..memory.size()).step_by(4).fold(seed, |h, addr| {
        fnv64(h, &memory.read_u32(addr).unwrap().to_le_bytes())
    })
}

/// What one kernel launch needs: the SGEMM operands are uploaded when the
/// kernel takes them.
struct Launch<'a> {
    gpu: &'a GpuConfig,
    kernel: &'a Kernel,
    config: LaunchConfig,
    problem: Option<&'a SgemmProblem>,
    cycle_limit: u64,
}

impl Launch<'_> {
    fn params(&self, memory: &mut GlobalMemory) -> Result<Vec<u32>, SimError> {
        match self.problem {
            Some(p) => {
                let addrs = upload_problem(memory, p, 99)?;
                Ok(launch_params(addrs, 1.0, 0.0).to_vec())
            }
            None => Ok(Vec::new()),
        }
    }

    /// The resident wave through the timing simulator.
    fn timed(&self, memory: &mut GlobalMemory) -> Result<TimingReport, SimError> {
        let params = self.params(memory)?;
        let sim = TimingSim::new(self.gpu, self.kernel, self.config, &params)?;
        sim.run(memory, Hooks::default().cycle_limit(self.cycle_limit))
    }

    /// The whole grid through the functional simulator.
    fn functional(&self, gpu: &mut Gpu) -> Result<FuncStats, SimError> {
        gpu.set_step_limit(FUZZ_STEP_LIMIT);
        let params = self.params(gpu.memory_mut())?;
        gpu.launch(self.kernel, self.config, &params)
    }
}

/// The lines of the two golden files, how many cases both engines
/// complete, and those whose counts differ.
#[derive(Default)]
struct Digests {
    timing: String,
    arch: String,
    completed: usize,
    miscounted: Vec<String>,
}

impl Digests {
    fn record(&mut self, name: &str, launch: &Launch<'_>) -> Result<TimingReport, SimError> {
        let mut memory = GlobalMemory::new();
        let timed = launch.timed(&mut memory);
        let report = fnv64(FNV_OFFSET, format!("{timed:?}").as_bytes());
        writeln!(self.timing, "{name} {report:016x}").unwrap();

        let mut gpu = Gpu::new(launch.gpu.generation);
        let stats = launch.functional(&mut gpu);
        writeln!(
            self.arch,
            "{name} {:016x} {:016x} {:016x}",
            fnv64_memory(FNV_OFFSET, &memory),
            fnv64(FNV_OFFSET, format!("{stats:?}").as_bytes()),
            fnv64_memory(FNV_OFFSET, gpu.memory()),
        )
        .unwrap();
        if let (Ok(t), Ok(f)) = (&timed, &stats) {
            self.completed += 1;
            let counts = (&t.mix, t.warp_instructions, t.thread_instructions, t.flops);
            if counts != (&f.mix, f.warp_instructions, f.thread_instructions, f.flops) {
                self.miscounted.push(name.to_owned());
            }
        }
        timed
    }

    fn record_mutant(&mut self, name: &str, case: &FuzzCase, removals: &[usize]) {
        let (seed, kernel, _) = mutant_kernel(case, removals).expect("seed kernels build");
        let launch = Launch {
            gpu: &GpuConfig::preset(case.generation),
            kernel: &kernel,
            config: seed.config,
            problem: seed.problem.as_ref(),
            cycle_limit: FUZZ_CYCLE_LIMIT,
        };
        let _ = self.record(name, &launch);
    }
}

fn digests() -> &'static Digests {
    static DIGESTS: OnceLock<Digests> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        let mut digests = Digests::default();

        let mut corpus: Vec<_> = std::fs::read_dir(CORPUS_DIR)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
            .collect();
        corpus.sort();
        assert!(!corpus.is_empty(), "no corpus cases under {CORPUS_DIR}");
        for path in corpus {
            let text = std::fs::read_to_string(&path).unwrap();
            let vc = ViolationCase::from_json(&Json::parse(&text).unwrap()).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            digests.record_mutant(&format!("corpus/{name}"), &vc.case, &vc.removed);
        }

        for generation in [Generation::Fermi, Generation::Kepler] {
            let cfg = CampaignConfig {
                seed: 1,
                iters: MUTANTS_PER_GPU,
                generations: vec![generation],
            };
            for (i, case) in campaign_cases(&cfg).iter().enumerate() {
                let name = format!("mutant/{generation:?}/{i:03}/{}", case.seed.id());
                digests.record_mutant(&name, case, &[]);
            }
        }

        // The waves of `tests/observer_identity.rs`.
        for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
            let problem = SgemmProblem {
                variant: Variant::NN,
                m: 192,
                n: 96,
                k: 64,
            };
            let build = build_preset(gpu.generation, &problem, Preset::AsmOpt).unwrap();
            let launch = Launch {
                gpu: &gpu,
                kernel: &build.kernel,
                config: build.config,
                problem: Some(&problem),
                cycle_limit: u64::MAX,
            };
            let result = digests.record(&format!("wave/{}", gpu.name), &launch);
            assert!(result.is_ok(), "{} wave: {result:?}", gpu.name);
        }
        digests
    })
}

#[test]
fn timing_results_match_the_golden_digests() {
    assert_matches_golden(&digests().timing, "timing_golden.txt");
}

#[test]
fn architectural_state_matches_the_golden_digests() {
    let digests = digests();
    assert!(digests.completed > 0, "no case completes on both engines");
    assert!(
        digests.miscounted.is_empty(),
        "{} of {} cases both engines complete count differently: {:?}",
        digests.miscounted.len(),
        digests.completed,
        digests.miscounted
    );
    assert_matches_golden(&digests.arch, "arch_golden.txt");
}

#[test]
fn fault_corpus_replays_without_violations() {
    let entries = replay_corpus(Path::new(CORPUS_DIR)).expect("corpus must parse and replay");
    assert!(
        !entries.is_empty(),
        "tests/fault_corpus exists but holds no .case files"
    );
    for (path, violation) in entries {
        assert!(
            violation.is_none(),
            "{} violates the oracle again: {violation:?}",
            path.display()
        );
    }
}
