//! `sgemm_sweep` and `micro_sweep`: independent timing simulations, the
//! shape of every `reproduce` experiment.
//!
//! Untimed by tracing, an item is one fused call (`sgemm_gflops`,
//! `measure_math`, ...) fanned out through `Executor`. Traced, the same
//! item is replayed single-threaded as the staged calls the fused one is
//! made of, and must return the same simulated value and counters.

use std::time::Instant;

use crate::api::{
    build_math_kernel, build_mix_kernel, build_preset, build_threads_kernel, disable_global,
    enable_global, measure_math, measure_mix, measure_threads, paper_reference, run_on_sm,
    sgemm_gflops, table2_patterns, throughput_of, time_kernel, upload_problem, validate_kernel,
    with_counter_scope, Counters, Dependence, Executor, GlobalMemory, GpuConfig, LdsWidth,
    MathPattern, Preset, SgemmProblem, Speed, TimingReport, Variant, TABLE2_PAPER,
};
use crate::trace::Tracer;
use crate::workloads::{arrange, err, Extras, Outcome, Round, Setup, Workload};

/// Size of the SGEMM reference rows: the largest that keeps a round near
/// 2.5 s on one core. The paper's values are for much larger matrices, so
/// the error against them carries a size offset (see README).
const REFERENCE_SIZE: u32 = 576;

#[derive(Debug, Clone)]
enum Kind {
    Sgemm {
        variant: Variant,
        preset: Preset,
        size: u32,
    },
    Math(MathPattern),
    Mix {
        ratio: u32,
    },
    Threads {
        dep: Dependence,
        threads: u32,
    },
}

#[derive(Debug, Clone)]
struct Item {
    gpu: GpuConfig,
    kind: Kind,
    /// The paper's value for a reference row.
    paper: Option<f64>,
}

impl Item {
    fn fused(&self) -> Result<f64, String> {
        match &self.kind {
            Kind::Sgemm {
                variant,
                preset,
                size,
            } => sgemm_gflops(&self.gpu, *variant, *preset, *size, Speed::Full).map_err(err),
            Kind::Math(pattern) => measure_math(&self.gpu, pattern)
                .map(|row| row.throughput)
                .map_err(err),
            Kind::Mix { ratio } => measure_mix(&self.gpu, *ratio, LdsWidth::B64)
                .map(|point| point.throughput)
                .map_err(err),
            Kind::Threads { dep, threads } => measure_threads(&self.gpu, *dep, *threads)
                .map(|point| point.throughput)
                .map_err(err),
        }
    }

    /// The fused call taken apart at its public seams. The constants are
    /// the fused functions' own; `round` fails the item if the two ever
    /// stop agreeing.
    fn staged(&self, tracer: &mut Tracer) -> Result<f64, String> {
        let gpu = &self.gpu;
        let generation = gpu.generation;
        let saturating = || {
            let threads = 1024.min(gpu.max_threads_per_block);
            (threads, (gpu.max_threads_per_sm / threads).clamp(1, 2))
        };
        let useful_per_cycle = |report: &TimingReport| {
            let useful = report.mix.count("FFMA") + report.mix.count_prefix("LDS");
            useful as f64 * 32.0 / report.cycles.max(1) as f64
        };
        match &self.kind {
            Kind::Sgemm {
                variant,
                preset,
                size,
            } => {
                let problem = SgemmProblem::square(*variant, *size);
                let build = tracer
                    .stage("kernels.sgemm.build", || {
                        build_preset(generation, &problem, *preset)
                    })
                    .map_err(err)?;
                tracer
                    .stage("sass.validate", || {
                        validate_kernel(&build.kernel, generation)
                    })
                    .map_err(err)?;
                let mut memory = GlobalMemory::new();
                let (a, b, c) = tracer
                    .stage("sim.mem.upload", || {
                        upload_problem(&mut memory, &problem, 0xC0FFEE)
                    })
                    .map_err(err)?;
                let params = [a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()];
                tracer
                    .stage("sim.timing.time_kernel", || {
                        time_kernel(
                            gpu,
                            &build.kernel,
                            build.config,
                            &params,
                            &mut memory,
                            Some(problem.flops()),
                        )
                    })
                    .map(|timing| timing.gflops)
                    .map_err(err)
            }
            Kind::Math(pattern) => {
                let kernel = tracer
                    .stage("kernels.microbench.build", || {
                        build_math_kernel(generation, pattern, 256, 12)
                    })
                    .map_err(err)?;
                let (threads, blocks) = saturating();
                let report = tracer
                    .stage("sim.timing.run_on_sm", || {
                        run_on_sm(gpu, &kernel, threads, blocks)
                    })
                    .map_err(err)?;
                Ok(throughput_of(&report, pattern.op.mnemonic()))
            }
            Kind::Mix { ratio } => {
                let kernel = tracer
                    .stage("kernels.microbench.build", || {
                        build_mix_kernel(generation, *ratio, LdsWidth::B64, 12, 16)
                    })
                    .map_err(err)?;
                let (threads, blocks) = saturating();
                let report = tracer
                    .stage("sim.timing.run_on_sm", || {
                        run_on_sm(gpu, &kernel, threads, blocks)
                    })
                    .map_err(err)?;
                Ok(useful_per_cycle(&report))
            }
            Kind::Threads { dep, threads } => {
                let kernel = tracer
                    .stage("kernels.microbench.build", || {
                        build_threads_kernel(generation, *dep, 12, 16)
                    })
                    .map_err(err)?;
                let report = tracer
                    .stage("sim.timing.run_on_sm", || {
                        run_on_sm(gpu, &kernel, *threads, 1)
                    })
                    .map_err(err)?;
                Ok(useful_per_cycle(&report))
            }
        }
    }
}

fn outcome(value: Result<f64, String>, counters: &Counters) -> Result<Outcome, String> {
    let value = value?;
    if !(value.is_finite() && value > 0.0) {
        return Err(format!(
            "simulated value {value} is not finite and positive"
        ));
    }
    if counters.sim_cycles == 0 || counters.warp_instructions == 0 {
        return Err("the timing simulator reported no work".to_owned());
    }
    Ok(Outcome {
        value,
        cycles: counters.sim_cycles,
        warp_insts: counters.warp_instructions,
    })
}

pub struct Sweep {
    items: Vec<Item>,
    workers: usize,
    /// `micro_sweep` only: where the cache fill and warm passes put the
    /// disk tier.
    cache_dir: Option<std::path::PathBuf>,
}

impl Sweep {
    /// 18 simulations, ~2.6 s on one core: the two reference rows at
    /// 576³, then every variant and every preset at 96³ (a short k loop:
    /// prologue and epilogue weigh most) and the optimized kernel at 192³.
    pub fn sgemm(setup: &Setup) -> Result<Sweep, String> {
        let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
        let mut items = Vec::new();
        for gpu in &gpus {
            let mut push = |variant, preset, size, paper| {
                items.push(Item {
                    gpu: gpu.clone(),
                    kind: Kind::Sgemm {
                        variant,
                        preset,
                        size,
                    },
                    paper,
                });
            };
            let paper = paper_reference(gpu.generation).achieved_gflops();
            push(Variant::NN, Preset::AsmOpt, REFERENCE_SIZE, Some(paper));
            push(Variant::NN, Preset::AsmOpt, 192, None);
            for variant in Variant::ALL {
                push(variant, Preset::AsmOpt, 96, None);
            }
            for preset in [Preset::AsmNaiveRegs, Preset::CublasLike, Preset::MagmaLike] {
                push(Variant::NN, preset, 96, None);
            }
        }
        // Warm-up: GTX580, optimized kernel, NN, 96³.
        Sweep::finish_setup(items, 2, setup, None)
    }

    /// 20 microbenchmarks, ~3.2 s on one core: six Table 2 rows on the
    /// GTX680 (the reference rows: no conflict, 2-way and 3-way, float
    /// and integer add — the 1 s integer-multiply rows are left out to
    /// keep rounds short), FFMA:LDS.64 mixes on both GPUs, and the
    /// low-occupancy active-thread points on the GTX580.
    pub fn micro(setup: &Setup) -> Result<Sweep, String> {
        const TABLE2_ROWS: [usize; 6] = [0, 7, 8, 9, 11, 12];
        let (fermi, kepler) = (GpuConfig::gtx580(), GpuConfig::gtx680());
        let patterns = table2_patterns();
        let mut items = Vec::new();
        for row in TABLE2_ROWS {
            let pattern = patterns
                .get(row)
                .ok_or_else(|| format!("table2_patterns() has no row {row}"))?;
            items.push(Item {
                gpu: kepler.clone(),
                kind: Kind::Math(*pattern),
                paper: Some(TABLE2_PAPER[row]),
            });
        }
        for gpu in [&fermi, &kepler] {
            for ratio in [0, 4, 16] {
                items.push(Item {
                    gpu: gpu.clone(),
                    kind: Kind::Mix { ratio },
                    paper: None,
                });
            }
        }
        for dep in [Dependence::Dependent, Dependence::Independent] {
            for threads in [32, 128, 512, 1024] {
                items.push(Item {
                    gpu: fermi.clone(),
                    kind: Kind::Threads { dep, threads },
                    paper: None,
                });
            }
        }
        let cache_dir = setup.out_dir.join(format!("cache-{}", std::process::id()));
        // Warm-up: the 4:1 mix on the GTX580.
        Sweep::finish_setup(items, TABLE2_ROWS.len() + 1, setup, Some(cache_dir))
    }

    /// Warm up, then put the items in seeded order. The warm-up is the
    /// same item whatever the seed (set-up time must not depend on it):
    /// once through both paths, so lazy set-up in the program is paid
    /// before the first timed round.
    fn finish_setup(
        items: Vec<Item>,
        warm: usize,
        setup: &Setup,
        cache_dir: Option<std::path::PathBuf>,
    ) -> Result<Sweep, String> {
        let fused = items[warm].fused()?;
        let staged = items[warm].staged(&mut Tracer::new(false))?;
        if fused.to_bits() != staged.to_bits() {
            return Err(format!("warm-up: fused {fused} != staged {staged}"));
        }
        Ok(Sweep {
            items: arrange(items, setup),
            workers: setup.workers,
            cache_dir,
        })
    }

    /// One cache-enabled pass over the items, single-threaded.
    fn cached_pass(&self) -> (f64, Vec<Result<f64, String>>, Counters) {
        let t0 = Instant::now();
        let (values, counters) =
            with_counter_scope(|| self.items.iter().map(Item::fused).collect::<Vec<_>>());
        (t0.elapsed().as_secs_f64(), values, counters)
    }
}

impl Workload for Sweep {
    fn ops(&self) -> usize {
        self.items.len()
    }

    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let t0 = Instant::now();
        let results: Vec<(Result<f64, String>, Counters, f64)> = if tracer.enabled() {
            self.items
                .iter()
                .enumerate()
                .map(|(id, item)| {
                    let t = Instant::now();
                    let (value, counters) = tracer.item(id as u64, |tracer| {
                        with_counter_scope(|| item.staged(tracer))
                    });
                    (value, counters, t.elapsed().as_secs_f64())
                })
                .collect()
        } else {
            Executor::new(self.workers).map(&self.items, |item| {
                let t = Instant::now();
                let (value, counters) = with_counter_scope(|| item.fused());
                (value, counters, t.elapsed().as_secs_f64())
            })
        };
        let wall_s = t0.elapsed().as_secs_f64();

        let mut round = Round {
            wall_s,
            ..Round::default()
        };
        for (value, counters, item_wall_s) in results {
            round.sim.add(&counters);
            round.item_wall_s.push(item_wall_s);
            round.outcomes.push(outcome(value, &counters));
        }
        round.warp_insts = round.sim.warp_insts;
        round
    }

    fn mean_abs_pct_error(&self, outcomes: &[Result<Outcome, String>]) -> Option<f64> {
        let errors: Vec<f64> = self
            .items
            .iter()
            .zip(outcomes)
            .filter_map(|(item, outcome)| {
                let paper = item.paper?;
                let simulated = outcome.as_ref().ok()?.value;
                Some((simulated - paper).abs() / paper * 100.0)
            })
            .collect();
        (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
    }

    /// `micro_sweep`: a cache-enabled fill pass, then a warm pass, on the
    /// `reproduce --cache-dir` rerun path. Both must return the uncached
    /// rounds' throughputs bit for bit, the warm pass from hits alone.
    fn after_traced(&mut self, reference: &Round, uncached_wall_s: f64) -> (Extras, Vec<String>) {
        let mut extras = Extras::default();
        let mut failures = Vec::new();
        let Some(dir) = self.cache_dir.clone() else {
            return (extras, failures);
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return (extras, vec![format!("cache dir {}: {e}", dir.display())]);
        }
        enable_global(Some(dir.clone()));
        let (fill_s, fill_values, _) = self.cached_pass();
        let (warm_s, warm_values, warm) = self.cached_pass();
        disable_global();

        for (pass, values) in [("fill", &fill_values), ("warm", &warm_values)] {
            for (id, (value, uncached)) in values.iter().zip(&reference.outcomes).enumerate() {
                let same = match (value, uncached) {
                    (Ok(v), Ok(u)) => v.to_bits() == u.value.to_bits(),
                    _ => false,
                };
                if !same {
                    failures.push(format!(
                        "cache {pass} pass, item {id}: {value:?} differs from the uncached round"
                    ));
                }
            }
        }
        let lookups = warm.cache_hits + warm.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            warm.cache_hits as f64 / lookups as f64
        };
        if hit_rate != 1.0 || warm.timing_runs != 0 {
            failures.push(format!(
                "cache warm pass: {} hits, {} misses, {} simulations — expected hits only",
                warm.cache_hits, warm.cache_misses, warm.timing_runs
            ));
        }
        let (mut entries, mut bytes) = (0u64, 0u64);
        if let Ok(dir_entries) = std::fs::read_dir(&dir) {
            for entry in dir_entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    entries += 1;
                    bytes += meta.len();
                }
            }
        }
        // Best effort: the directory is scratch under `benchmark/out`.
        let _ = std::fs::remove_dir_all(&dir);

        extras.count(
            "cache.fill_overhead_pct",
            (fill_s - uncached_wall_s) / uncached_wall_s * 100.0,
        );
        extras.count("cache.warm_pass_ms", warm_s * 1e3);
        extras.count("cache.warm_hit_rate", hit_rate);
        extras.count("cache.disk_entries", entries as f64);
        extras.count("cache.disk_bytes", bytes as f64);
        (extras, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::test_setup;

    #[test]
    fn item_lists_have_the_documented_shape() {
        let sgemm = Sweep::sgemm(&test_setup(1)).unwrap();
        assert_eq!(sgemm.ops(), 18);
        assert_eq!(sgemm.items.iter().filter(|i| i.paper.is_some()).count(), 2);
        let micro = Sweep::micro(&test_setup(1)).unwrap();
        assert_eq!(micro.ops(), 20);
        assert_eq!(micro.items.iter().filter(|i| i.paper.is_some()).count(), 6);
    }

    #[test]
    fn reference_error_is_the_mean_over_reference_rows_only() {
        let micro = Sweep::micro(&test_setup(2)).unwrap();
        // Every reference row 10 % above the paper, everything else absurd.
        let outcomes: Vec<_> = micro
            .items
            .iter()
            .map(|item| {
                Ok(Outcome {
                    value: item.paper.map_or(1e9, |p| p * 1.1),
                    cycles: 1,
                    warp_insts: 1,
                })
            })
            .collect();
        let error = micro.mean_abs_pct_error(&outcomes).unwrap();
        assert!((error - 10.0).abs() < 1e-9, "{error}");
    }
}
