//! Property tests for the fault-injection harness: every seed kernel runs
//! clean unmutated, random mutants never panic and always terminate
//! within the watchdog budgets on both GPU models (traced and untraced).
//! The corpus under `tests/fault_corpus/` is replayed by the root
//! package's `tests/timing_golden.rs`.

use peakperf_arch::Generation;
use peakperf_bench::fault::{
    run_campaign, run_case, CampaignConfig, FuzzCase, Outcome, OutcomeClass, SeedSpec,
};

const GENERATIONS: [Generation; 2] = [Generation::Fermi, Generation::Kepler];

#[test]
fn every_seed_kernel_runs_clean_unmutated() {
    // A seed that misbehaves before mutation would poison every verdict
    // drawn from it. `mutation_seed` is irrelevant here: we check the
    // built seeds directly.
    for generation in GENERATIONS {
        for spec in SeedSpec::all() {
            let seed = spec.build(generation).unwrap_or_else(|e| {
                panic!("seed {} failed to build on {generation:?}: {e}", spec.id())
            });
            assert!(
                !seed.kernel.code.is_empty(),
                "{} produced an empty kernel",
                spec.id()
            );
        }
    }
}

#[test]
fn random_mutants_never_panic_and_always_terminate() {
    // Every Table-2 pattern and SGEMM variant, both generations, a few
    // mutation seeds each: the full differential pipeline (functional,
    // timing untraced, timing traced) must return a structured outcome —
    // never a panic — and the watchdogs bound every run.
    let specs = SeedSpec::all();
    let mut mutants = 0u32;
    for generation in GENERATIONS {
        for (i, &spec) in specs.iter().enumerate() {
            for k in 0..2u64 {
                let case = FuzzCase {
                    generation,
                    seed: spec,
                    mutation_seed: 0x5EED_0000 + (i as u64) * 16 + k,
                };
                let report = run_case(&case).expect("seed build must succeed");
                for (name, outcome) in [
                    ("func", &report.func),
                    ("timing", &report.timing),
                    ("traced", &report.traced),
                ] {
                    assert!(
                        !matches!(outcome, Outcome::Panic(_)),
                        "{name} panicked on {} {generation:?} seed {}: {outcome}",
                        spec.id(),
                        case.mutation_seed
                    );
                }
                assert!(
                    report.violation.is_none(),
                    "oracle violation on {} {generation:?} seed {}: {:?}",
                    spec.id(),
                    case.mutation_seed,
                    report.violation
                );
                mutants += 1;
            }
        }
    }
    assert_eq!(mutants, 2 * 2 * specs.len() as u32);
}

#[test]
fn small_campaign_is_deterministic_and_panic_free() {
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        iters: 24,
        generations: GENERATIONS.to_vec(),
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.cases, 24);
    assert_eq!(a.tally, b.tally, "campaigns must be reproducible");
    assert_eq!(a.tally.of(OutcomeClass::Panic), 0);
    assert_eq!(a.tally.harness_errors, 0);
    assert_eq!(a.violations.len(), b.violations.len());
}
