//! `toolchain`: the `sassc as` / `sassc run` user path. Small SGEMM
//! kernels go generator → text → assembler → validator → encoder →
//! decoder → container → bank optimizer → functional simulator, and the
//! result is compared with the CPU GEMM. The timing scheduler never runs.

use std::time::Instant;

use crate::api::{
    assemble, bound_sweep, build_preset, cpu_sgemm, decode_stream, encode_stream, optimize_banks,
    run_sgemm, validate_kernel, Generation, Gpu, GpuConfig, Matrix, Module, Preset, SgemmPlan,
    SgemmProblem, UpperBoundModel, Variant,
};
use crate::trace::Tracer;
use crate::workloads::{arrange, err, Outcome, Rng, Round, Setup, Workload};

/// Rows and columns of C: one 96×96 tile on Fermi, 1.5×1.5 on Kepler.
const EDGE: u32 = 96;

/// Inner dimensions each (generation, preset, variant) combination is
/// built for — a fixed multiset, so every seed does the same work.
const K_VALUES: [u32; 10] = [16, 16, 32, 32, 32, 48, 48, 48, 64, 64];

/// How often the register-plan solver and the bound model's design-space
/// sweep run: once per this many kernels, as a tuner driving the
/// toolchain would.
const MODEL_EVERY: usize = 32;

/// Kernels taken through the whole toolchain once before timing starts.
const WARM_UP_KERNELS: usize = 4;

/// Relative tolerance of the functional result against the CPU GEMM.
const TOLERANCE: f32 = 1e-3;

struct Item {
    generation: Generation,
    preset: Preset,
    problem: SgemmProblem,
    a: Matrix,
    b: Matrix,
    c: Matrix,
    alpha: f32,
    beta: f32,
}

pub struct Toolchain {
    items: Vec<Item>,
}

impl Toolchain {
    /// 320 kernels, ~2.3 s: {Fermi, Kepler} × every preset × every
    /// variant × ten inner dimensions, on seeded matrices and scalars.
    pub fn new(setup: &Setup) -> Result<Toolchain, String> {
        let mut shapes = Vec::new();
        for generation in [Generation::Fermi, Generation::Kepler] {
            for preset in Preset::ALL {
                for variant in Variant::ALL {
                    for k in K_VALUES {
                        let problem = SgemmProblem {
                            variant,
                            m: EDGE,
                            n: EDGE,
                            k,
                        };
                        shapes.push((generation, preset, problem));
                    }
                }
            }
        }
        let mut data = Rng::new(setup.seed ^ 0x7001_C4A1);
        let items: Vec<Item> = arrange(shapes, setup)
            .into_iter()
            .map(|(generation, preset, problem)| {
                let (a_rows, a_cols) = problem.a_shape();
                let (b_rows, b_cols) = problem.b_shape();
                let edge = EDGE as usize;
                Item {
                    generation,
                    preset,
                    problem,
                    a: Matrix::random(a_rows, a_cols, data.next_u64()),
                    b: Matrix::random(b_rows, b_cols, data.next_u64()),
                    c: Matrix::random(edge, edge, data.next_u64()),
                    alpha: 0.5 + data.below(4) as f32 * 0.5,
                    beta: data.below(3) as f32 * 0.5,
                }
            })
            .collect();
        for warm in items.iter().take(WARM_UP_KERNELS) {
            run_item(&mut Tracer::new(false), warm)?;
        }
        run_models(&mut Tracer::new(false))?;
        Ok(Toolchain { items })
    }
}

/// Sizes and counts of one kernel's trip through the toolchain.
struct Trip {
    insts: u64,
    text_bytes: u64,
    func_warp_insts: u64,
}

fn run_item(tracer: &mut Tracer, item: &Item) -> Result<Trip, String> {
    let generation = item.generation;
    let problem = &item.problem;
    let build = tracer
        .stage("kernels.sgemm.build", || {
            build_preset(generation, problem, item.preset)
        })
        .map_err(err)?;
    let kernel = &build.kernel;

    let mut module = Module::new(generation);
    module.kernels.push(kernel.clone());
    let text = tracer.stage("sass.print", || module.to_string());
    let reparsed = tracer
        .stage("sass.assemble", || assemble(&text, generation))
        .map_err(err)?;
    if reparsed != module {
        return Err(format!(
            "`{}`: print → assemble changed the kernel",
            kernel.name
        ));
    }
    tracer
        .stage("sass.validate", || {
            validate_kernel(&reparsed.kernels[0], generation)
        })
        .map_err(err)?;
    let words = tracer
        .stage("sass.encode", || encode_stream(&kernel.code))
        .map_err(err)?;
    let decoded = tracer
        .stage("sass.decode", || decode_stream(&words))
        .map_err(err)?;
    if decoded != kernel.code {
        return Err(format!(
            "`{}`: encode → decode changed the code",
            kernel.name
        ));
    }
    let container = tracer
        .stage("sass.module_roundtrip", || {
            module
                .to_bytes()
                .and_then(|bytes| Module::from_bytes(&bytes))
        })
        .map_err(err)?;
    if container != module {
        return Err(format!(
            "`{}`: container round trip changed the module",
            kernel.name
        ));
    }
    // A kernel the optimizer cannot improve (`Unsatisfiable`) is a
    // documented outcome, not a failure; its cost is what is measured.
    if let Ok(optimized) = tracer.stage("regalloc.optimize_banks", || optimize_banks(kernel)) {
        if optimized.kernel.code.len() != kernel.code.len() {
            return Err(format!(
                "`{}`: bank optimizer changed the code length",
                kernel.name
            ));
        }
    }

    // Run what the assembler produced, not what the generator handed over.
    let mut assembled = build.clone();
    assembled.kernel = reparsed.kernels.into_iter().next().ok_or("no kernel")?;
    let run = tracer
        .stage("sim.func.launch", || {
            let mut gpu = Gpu::new(generation);
            run_sgemm(
                &mut gpu, &assembled, &item.a, &item.b, &item.c, item.alpha, item.beta,
            )
        })
        .map_err(err)?;
    let mut expect = item.c.data.clone();
    tracer.stage("kernels.cpu.sgemm", || {
        cpu_sgemm(
            problem.variant,
            problem.m as usize,
            problem.n as usize,
            problem.k as usize,
            item.alpha,
            &item.a.data,
            problem.lda() as usize,
            &item.b.data,
            problem.ldb() as usize,
            item.beta,
            &mut expect,
            problem.ldc() as usize,
        );
    });
    // Counted element by element: a NaN is within no tolerance, where a
    // running `f32::max` of the differences would drop it.
    let within = run
        .c
        .data
        .iter()
        .zip(&expect)
        .filter(|(got, want)| (*got - *want).abs() <= TOLERANCE * want.abs().max(1.0))
        .count();
    if run.c.data.len() != expect.len() || within != expect.len() {
        return Err(format!(
            "`{}`: {} element(s) of the functional C differ from the CPU GEMM by more than {TOLERANCE} (relative)",
            kernel.name,
            expect.len() - within
        ));
    }
    Ok(Trip {
        insts: kernel.code.len() as u64,
        text_bytes: text.len() as u64,
        func_warp_insts: run.stats.warp_instructions,
    })
}

fn run_models(tracer: &mut Tracer) -> Result<(), String> {
    let plan = tracer
        .stage("regalloc.plan", || SgemmPlan::bank_optimized(6))
        .map_err(err)?;
    if plan.register_count() == 0 {
        return Err("register plan uses no registers".to_owned());
    }
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let (entries, best) = tracer.stage("bound.sweep", || {
            let model = UpperBoundModel::new(&gpu);
            (bound_sweep(&model), model.best_sgemm_bound())
        });
        if entries.is_empty() || !(best.gflops.is_finite() && best.gflops > 0.0) {
            return Err(format!(
                "{}: bound model returned no usable bound",
                gpu.name
            ));
        }
    }
    Ok(())
}

impl Workload for Toolchain {
    fn ops(&self) -> usize {
        self.items.len()
    }

    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let (mut insts, mut text_bytes) = (0u64, 0u64);
        let t0 = Instant::now();
        for (id, item) in self.items.iter().enumerate() {
            let t = Instant::now();
            let trip = tracer.item(id as u64, |tracer| {
                let trip = run_item(tracer, item)?;
                if id % MODEL_EVERY == 0 {
                    run_models(tracer)?;
                }
                Ok::<Trip, String>(trip)
            });
            round.item_wall_s.push(t.elapsed().as_secs_f64());
            round.outcomes.push(trip.map(|trip| {
                insts += trip.insts;
                text_bytes += trip.text_bytes;
                round.warp_insts += trip.func_warp_insts;
                Outcome {
                    value: trip.insts as f64,
                    cycles: 0,
                    warp_insts: trip.func_warp_insts,
                }
            }));
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        round.extras.count("sass.insts", insts as f64);
        round.extras.count("sass.text_bytes", text_bytes as f64);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::test_setup;

    #[test]
    fn every_seed_builds_the_same_multiset_of_shapes() {
        let shapes = |seed| {
            let mut v: Vec<String> = Toolchain::new(&test_setup(seed))
                .unwrap()
                .items
                .iter()
                .map(|i| format!("{:?} {:?} {:?}", i.generation, i.preset, i.problem))
                .collect();
            let order = v.clone();
            v.sort();
            (order, v)
        };
        let (order_1, sorted_1) = shapes(1);
        let (order_2, sorted_2) = shapes(2);
        assert_eq!(sorted_1.len(), 320);
        assert_eq!(sorted_1, sorted_2, "same work");
        assert_ne!(order_1, order_2, "different order");
    }
}
