//! The timing simulator's results, frozen: an FNV-64 digest of the `Debug`
//! rendering of the whole `Result<TimingReport, SimError>` — every
//! counter, the instruction mix, per-kind stalls, and on failure the
//! typed error with its per-warp snapshot — for every fault-corpus case,
//! 200 seed-1 campaign mutants per GPU and the two `observer_identity`
//! waves. A scheduler change that is meant to preserve behaviour must
//! leave `tests/timing_golden.txt` untouched; one that is meant to change
//! it re-blesses with `UPDATE_GOLDEN=1 cargo test --test timing_golden`.

use std::fmt::Write as _;

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf::sass::Kernel;
use peakperf::sim::timing::{Hooks, TimingReport, TimingSim};
use peakperf::sim::{GlobalMemory, LaunchConfig, SimError};
use peakperf_bench::fault::{
    campaign_cases, gpu_config_for, mutant_kernel, parse_corpus_case, CampaignConfig, FuzzCase,
    FUZZ_CYCLE_LIMIT,
};

const MUTANTS_PER_GPU: u64 = 200;

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One resident block of `kernel`, SGEMM operands uploaded when the
/// kernel takes them.
fn run(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
    problem: Option<&SgemmProblem>,
    cycle_limit: u64,
) -> Result<TimingReport, SimError> {
    let mut memory = GlobalMemory::new();
    let params = match problem {
        Some(p) => {
            let (a, b, c) = upload_problem(&mut memory, p, 99)?;
            vec![a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()]
        }
        None => Vec::new(),
    };
    let sim = TimingSim::new(gpu, kernel, config, &params, 1)?;
    sim.run(&mut memory, Hooks::default().cycle_limit(cycle_limit))
}

fn run_mutant(case: &FuzzCase, removals: &[usize]) -> Result<TimingReport, SimError> {
    let (seed, kernel, _) = mutant_kernel(case, removals).expect("seed kernels build");
    let gpu = gpu_config_for(case.generation);
    run(
        &gpu,
        &kernel,
        seed.config,
        seed.problem.as_ref(),
        FUZZ_CYCLE_LIMIT,
    )
}

#[test]
fn timing_results_match_the_golden_digests() {
    let mut lines = String::new();
    let mut digest = |name: &str, result: Result<TimingReport, SimError>| {
        writeln!(lines, "{name} {:016x}", fnv64(&format!("{result:?}"))).unwrap();
    };

    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fault_corpus");
    let mut corpus: Vec<_> = std::fs::read_dir(corpus_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    corpus.sort();
    assert!(!corpus.is_empty(), "no corpus cases under {corpus_dir}");
    for path in corpus {
        let text = std::fs::read_to_string(&path).unwrap();
        let (case, removals, _) = parse_corpus_case(&text).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        digest(&format!("corpus/{name}"), run_mutant(&case, &removals));
    }

    for generation in [Generation::Fermi, Generation::Kepler] {
        let cfg = CampaignConfig {
            seed: 1,
            iters: MUTANTS_PER_GPU,
            generations: vec![generation],
        };
        for (i, case) in campaign_cases(&cfg).iter().enumerate() {
            let name = format!("mutant/{generation:?}/{i:03}/{}", case.seed.id());
            digest(&name, run_mutant(case, &[]));
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
        let result = run(&gpu, &build.kernel, build.config, Some(&problem), u64::MAX);
        assert!(result.is_ok(), "{} wave: {result:?}", gpu.name);
        digest(&format!("wave/{}", gpu.name), result);
    }

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/timing_golden.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &lines).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "timing result drifted from tests/timing_golden.txt; \
             if intentional, regenerate with UPDATE_GOLDEN=1 cargo test"
        );
    }
    assert_eq!(lines.lines().count(), golden.lines().count());
}
