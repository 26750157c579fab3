//! Names, units and kinds of everything the benchmark reports. The lists
//! here and the ones in `BENCHMARK.json` must be the same; a test holds
//! them together.

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sgemm_sweep",
        "SGEMM presets, variants and sizes through the timing simulator in its stall-bound regime: sim::timing does ~all the work",
    ),
    (
        "micro_sweep",
        "Table-2/Fig-2/Fig-4 microbenchmarks: the same timing simulator issue-bound, no global memory, almost no idle cycles",
    ),
    (
        "toolchain",
        "generate, print, assemble, validate, encode, decode, re-register and functionally run small SGEMMs: no timing scheduler at all",
    ),
    (
        "service_mix",
        "closed-loop fault and profile jobs through bench::service: the median job is a sub-millisecond reject, the tail is simulator time",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

/// End-to-end metrics: measured with tracing off, defined (and never 0)
/// on every workload. Their regression bounds live in `BENCHMARK.json`
/// alone, where `agree` reads them.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("setup_s", "s", "lower"),
    end_to_end("wall_s", "s", "lower"),
    end_to_end("ops_per_s", "1/s", "higher"),
    end_to_end("warp_insts_per_s", "1/s", "higher"),
    end_to_end("peak_rss_mb", "MiB", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Simulated-time or size counts that repeat exactly on one commit;
    /// `agree` requires them to be identical. Everything else is host
    /// time, reported without a bound.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Stall causes in the index order of `Counters::stall_cycles`.
pub const STALLS: [&str; 6] = [
    "scoreboard",
    "pipe",
    "issue_tokens",
    "barrier",
    "ctl_stall",
    "hazard_replay",
];

/// Per-layer metrics, from the traced run. Every one is printed for every
/// workload; a layer a workload never enters reads 0.
pub const PER_LAYER: [PerLayer; 65] = [
    host("sim.timing.share", "ratio", "lower"),
    host("sim.timing.run_ms", "ms", "lower"),
    host("sim.timing.ns_per_cycle", "ns", "lower"),
    host("sim.timing.ns_per_warp_inst", "ns", "lower"),
    host("sim.timing.cycles_per_s", "1/s", "higher"),
    exact("sim.timing.cycles", "count", "lower"),
    exact("sim.timing.warp_insts", "count", "lower"),
    exact("sim.timing.ipc", "ratio", "higher"),
    exact("sim.timing.stall.scoreboard_share", "ratio", "lower"),
    exact("sim.timing.stall.pipe_share", "ratio", "lower"),
    exact("sim.timing.stall.issue_tokens_share", "ratio", "lower"),
    exact("sim.timing.stall.barrier_share", "ratio", "lower"),
    exact("sim.timing.stall.ctl_stall_share", "ratio", "lower"),
    exact("sim.timing.stall.hazard_replay_share", "ratio", "lower"),
    exact("sim.timing.mean_abs_pct_error", "%", "lower"),
    host("kernels.share", "ratio", "lower"),
    host("kernels.sgemm.build_us", "us", "lower"),
    host("kernels.microbench.build_us", "us", "lower"),
    host("kernels.cpu.sgemm_us", "us", "lower"),
    host("sass.share", "ratio", "lower"),
    host("sass.print_us", "us", "lower"),
    host("sass.assemble_us", "us", "lower"),
    host("sass.validate_us", "us", "lower"),
    host("sass.encode_us", "us", "lower"),
    host("sass.decode_us", "us", "lower"),
    host("sass.module_roundtrip_us", "us", "lower"),
    host("sass.insts_per_s", "1/s", "higher"),
    exact("sass.insts", "count", "lower"),
    exact("sass.text_bytes", "count", "lower"),
    host("regalloc.share", "ratio", "lower"),
    host("regalloc.optimize_banks_us", "us", "lower"),
    host("regalloc.plan_us", "us", "lower"),
    host("bound.share", "ratio", "lower"),
    host("bound.sweep_us", "us", "lower"),
    host("sim.func.share", "ratio", "lower"),
    host("sim.func.launch_us", "us", "lower"),
    host("sim.func.warp_insts_per_s", "1/s", "higher"),
    host("sim.mem.share", "ratio", "lower"),
    host("sim.mem.upload_ms", "ms", "lower"),
    host("exec.utilization", "ratio", "higher"),
    host("exec.imbalance_s", "s", "lower"),
    host("cache.fill_overhead_pct", "%", "lower"),
    host("cache.warm_pass_ms", "ms", "lower"),
    exact("cache.warm_hit_rate", "ratio", "higher"),
    exact("cache.disk_entries", "count", "lower"),
    host("cache.disk_bytes", "count", "lower"),
    host("service.share", "ratio", "lower"),
    host("service.exec.share", "ratio", "lower"),
    host("service.job_latency_p50_ms", "ms", "lower"),
    host("service.job_latency_p95_ms", "ms", "lower"),
    host("service.queue_wait_ms_p50", "ms", "lower"),
    host("service.queue_wait_ms_p95", "ms", "lower"),
    host("service.attempt_ms_p50", "ms", "lower"),
    host("service.attempt_ms_p95", "ms", "lower"),
    host("service.overhead_us_p50", "us", "lower"),
    host("service.overhead_us_p95", "us", "lower"),
    host("service.submit_us_p50", "us", "lower"),
    exact("service.retried", "count", "lower"),
    exact("service.rejected", "count", "lower"),
    host("service.peak_queue_depth", "count", "lower"),
    host("service.fast_job_share", "ratio", "higher"),
    host("service.journal_events", "count", "lower"),
    host("harness.other.share", "ratio", "lower"),
    host("trace.overhead_pct", "%", "lower"),
    host("host.cal_loop_ms", "ms", "lower"),
];

pub fn workload_known(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads and these tables are what
    /// the binary prints; they may not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).unwrap();
        let field = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_owned();

        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(name, _)| name.to_owned()));

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better);
            let bound = entry.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", spec.name);
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, spec) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|(w, _)| *w))
            .collect();
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
