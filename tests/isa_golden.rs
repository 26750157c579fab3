//! The text and binary formats of every generated kernel, frozen.
//!
//! `tests/isa_golden.txt` holds, per kernel, an FNV-64 digest of the
//! module's `Display` text and one of `Module::to_bytes()`: every SGEMM
//! preset and the naive kernel × variant × GPU, the bank-optimized rewrite
//! (`optimize_banks`) of each of those, and every Table-2, mix and threads
//! microbenchmark kernel. A toolchain change that is meant to keep the
//! assembly dialect and the encoding must leave it untouched.
//!
//! An intended change re-blesses it with
//! `UPDATE_GOLDEN=1 cargo test --test isa_golden`.

use std::fmt::Write as _;

use peakperf::arch::{GpuConfig, LdsWidth};
use peakperf::kernels::microbench::math::{build_math_kernel, table2_patterns};
use peakperf::kernels::microbench::mix::build_mix_kernel;
use peakperf::kernels::microbench::threads::{build_threads_kernel, Dependence};
use peakperf::kernels::sgemm::{build_naive, build_preset, Preset, SgemmProblem, Variant};
use peakperf::regalloc::optimize_banks;
use peakperf::sass::{Kernel, Module};

mod common;
use common::{assert_matches_golden, fnv64, FNV_OFFSET};

fn record(lines: &mut String, name: &str, gpu: &GpuConfig, kernel: Kernel) {
    let module = Module {
        generation: gpu.generation,
        kernels: vec![kernel],
    };
    let text = fnv64(FNV_OFFSET, module.to_string().as_bytes());
    let bytes = fnv64(FNV_OFFSET, &module.to_bytes().unwrap());
    writeln!(lines, "{name}/{} {text:016x} {bytes:016x}", gpu.name).unwrap();
}

fn golden_lines() -> String {
    let mut lines = String::new();
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let g = gpu.generation;
        for variant in Variant::ALL {
            let problem = SgemmProblem {
                variant,
                m: 192,
                n: 96,
                k: 64,
            };
            let mut kernels = Vec::new();
            for preset in Preset::ALL {
                let build = build_preset(g, &problem, preset).unwrap();
                let name = format!("sgemm/{}/{}", preset.name(), variant.name());
                record(&mut lines, &name, &gpu, build.kernel.clone());
                kernels.push((preset.name(), build.kernel));
            }
            let naive = build_naive(g, &problem).unwrap();
            record(
                &mut lines,
                &format!("naive/{}", variant.name()),
                &gpu,
                naive.kernel.clone(),
            );
            kernels.push(("naive", naive.kernel));
            // The naive-register preset keeps its original, shorter name.
            for (name, kernel) in kernels {
                let rewritten = optimize_banks(&kernel).unwrap().kernel;
                let name = match name {
                    "asm_naive_regs" => format!("regalloc/{}", variant.name()),
                    _ => format!("regalloc/{name}/{}", variant.name()),
                };
                record(&mut lines, &name, &gpu, rewritten);
            }
        }
        for (i, pattern) in table2_patterns().iter().enumerate() {
            let kernel = build_math_kernel(g, pattern, 256, 12).unwrap();
            record(&mut lines, &format!("table2/{i:02}"), &gpu, kernel);
        }
        for width in LdsWidth::ALL {
            for ratio in 0..=32 {
                let kernel = build_mix_kernel(g, ratio, width, 12, 16).unwrap();
                record(
                    &mut lines,
                    &format!("mix/{ratio}{}", width.suffix()),
                    &gpu,
                    kernel,
                );
            }
        }
        for dep in [Dependence::Independent, Dependence::Dependent] {
            let kernel = build_threads_kernel(g, dep, 12, 16).unwrap();
            record(&mut lines, &format!("threads/{}", dep.name()), &gpu, kernel);
        }
    }
    lines
}

#[test]
fn text_and_binary_formats_match_the_golden_digests() {
    assert_matches_golden(&golden_lines(), "isa_golden.txt");
}
