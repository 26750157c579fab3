//! The `reproduce hostprof` subcommand: profile the *simulator itself*.
//!
//! Where `reproduce profile` decomposes the simulated GPU's bound-vs-
//! achieved gap, this module runs the same named targets under a
//! [`HostProf`] observer (see `peakperf_sim::perfmon`) and reports where
//! the *host* wall time goes and how much of the simulated cycle stream
//! an optimized engine could skip:
//!
//! * per-[`Phase`] wall-time shares of the scheduler loop;
//! * idle-cycle run-length histograms by dominant [`StallKind`] — the
//!   event-driven fast-forward headroom;
//! * the projected idle-skip speedup, which is what ROADMAP Open item 1's
//!   ≥10× target is measured against.
//!
//! Profiled runs always simulate (a cache hit has nothing to observe),
//! and they run without a trace consumer beside the profiler, so the
//! `trace_emit` share is zero here by construction.

use std::fmt::Write as _;

use peakperf_sim::perfmon::{HostProf, Opportunity, Phase};
use peakperf_sim::timing::{Hooks, StallKind, TimingSim};
use peakperf_sim::SimError;

use crate::profiling::{self, PreparedTarget};
use crate::report::{envelope_json, json_f64};

/// The result of host-profiling one target.
#[derive(Debug, Clone)]
pub struct HostProfOutcome {
    /// The GPU the target ran on (for the document envelope).
    pub gpu: &'static str,
    /// Human-readable summary.
    pub text: String,
    /// `peakperf-hostprof-v1` JSON object for this target.
    pub json: String,
}

/// Every target `reproduce hostprof` accepts — the same named set as
/// `reproduce profile`, so the two reports line up target for target.
pub fn targets() -> &'static [profiling::ProfileTarget] {
    &profiling::TARGETS
}

/// Run one named target under the host profiler.
///
/// # Errors
///
/// Unknown target names and simulation failures.
pub fn run_target(name: &str) -> Result<HostProfOutcome, SimError> {
    let mut prepared: PreparedTarget = profiling::prepare(name)?;
    let sim = TimingSim::new(
        &prepared.gpu,
        &prepared.kernel,
        prepared.config,
        &prepared.params,
        prepared.resident,
    )?;
    let mut probe = HostProf::new();
    let report = sim.run(&mut prepared.memory, Hooks::observe(&mut probe))?;
    if peakperf_sim::perfmon::enabled() {
        peakperf_sim::perfmon::counter_add("hostprof.targets", 1);
        peakperf_sim::perfmon::counter_add("hostprof.simulated_cycles", report.cycles);
        peakperf_sim::perfmon::counter_add("hostprof.probe_wall_ns", probe.total_nanos());
    }
    let opp = probe.analyze();
    let text = render_text(name, prepared.gpu.name, &probe, &opp, &report);
    let json = render_json(name, prepared.gpu.name, &probe, &opp, &report);
    Ok(HostProfOutcome {
        gpu: prepared.gpu.name,
        text,
        json,
    })
}

/// Phases sorted by recorded wall time, largest first.
fn phases_by_weight(probe: &HostProf) -> Vec<(Phase, u64)> {
    let mut phases: Vec<(Phase, u64)> = Phase::ALL
        .into_iter()
        .map(|p| (p, probe.phase_nanos(p)))
        .collect();
    phases.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
    phases
}

fn render_text(
    name: &str,
    gpu: &str,
    probe: &HostProf,
    opp: &Opportunity,
    report: &peakperf_sim::timing::TimingReport,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== hostprof: {name} ({gpu}) ==");
    let total_ms = probe.total_nanos() as f64 / 1e6;
    let _ = writeln!(
        out,
        "simulated {} cycles ({} warp insts) in {total_ms:.1} ms host wall \
         ({:.0} cycles/sec)",
        report.cycles,
        report.warp_instructions,
        report.cycles as f64 / (probe.total_nanos().max(1) as f64 / 1e9),
    );
    let _ = writeln!(out, "wall-time attribution:");
    for (phase, nanos) in phases_by_weight(probe) {
        if nanos == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>9.1} ms  ({:.1}%)",
            phase.as_str(),
            nanos as f64 / 1e6,
            100.0 * nanos as f64 / probe.total_nanos().max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "idle cycles: {} of {} ({:.1}%) in {} runs; event-skippable: {}",
        opp.idle_cycles,
        opp.cycles,
        100.0 * opp.idle_cycles as f64 / opp.cycles.max(1) as f64,
        opp.idle_runs,
        opp.idle_skippable,
    );
    let mut kinds: Vec<String> = Vec::new();
    for kind in StallKind::ALL {
        let h = probe.idle_histogram(Some(kind));
        if !h.is_empty() {
            kinds.push(format!(
                "{} {} runs/{} cycles",
                kind.as_str(),
                h.count(),
                h.sum()
            ));
        }
    }
    let unattr = probe.idle_histogram(None);
    if !unattr.is_empty() {
        kinds.push(format!(
            "unattributed {} runs/{} cycles",
            unattr.count(),
            unattr.sum()
        ));
    }
    if !kinds.is_empty() {
        let _ = writeln!(out, "idle runs by dominant cause: {}", kinds.join(", "));
    }
    let _ = writeln!(
        out,
        "projected speedup: idle-skip {:.2}x",
        opp.idle_skip_speedup()
    );
    out
}

fn histogram_json(h: &peakperf_sim::perfmon::Histogram) -> String {
    let mut out = String::from("[");
    for (i, (lo, hi, count)) in h.iter_nonzero().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {count}}}");
    }
    out.push(']');
    out
}

fn render_json(
    name: &str,
    gpu: &str,
    probe: &HostProf,
    opp: &Opportunity,
    report: &peakperf_sim::timing::TimingReport,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"target\": \"{name}\",");
    let _ = writeln!(out, "  \"gpu\": \"{gpu}\",");
    let _ = writeln!(out, "  \"cycles\": {},", report.cycles);
    let _ = writeln!(
        out,
        "  \"warp_instructions\": {},",
        report.warp_instructions
    );
    // Wall-clock values are volatile run to run; each lives on a line
    // containing `wall_ms` so report diffing can strip them wholesale
    // (the same convention as every other document in this crate). The
    // per-phase entries carry their (equally volatile) shares on the same
    // line for that reason.
    let _ = writeln!(
        out,
        "  \"wall_ms\": {},",
        json_f64(probe.total_nanos() as f64 / 1e6)
    );
    out.push_str("  \"phases\": [\n");
    let total = probe.total_nanos().max(1) as f64;
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        let nanos = probe.phase_nanos(phase);
        let _ = write!(
            out,
            "    {{\"phase\": \"{}\", \"wall_ms\": {}, \"share\": {}}}",
            phase.as_str(),
            json_f64(nanos as f64 / 1e6),
            json_f64(nanos as f64 / total),
        );
        out.push_str(if i + 1 < Phase::COUNT { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"idle\": {\n");
    let _ = writeln!(out, "    \"idle_cycles\": {},", opp.idle_cycles);
    let _ = writeln!(out, "    \"idle_runs\": {},", opp.idle_runs);
    let _ = writeln!(out, "    \"skippable_cycles\": {},", opp.idle_skippable);
    out.push_str("    \"run_length_histograms\": {\n");
    for kind in StallKind::ALL {
        let _ = writeln!(
            out,
            "      \"{}\": {},",
            kind.as_str(),
            histogram_json(probe.idle_histogram(Some(kind)))
        );
    }
    let _ = writeln!(
        out,
        "      \"unattributed\": {}",
        histogram_json(probe.idle_histogram(None))
    );
    out.push_str("    }\n  },\n");
    out.push_str("  \"projection\": {\n");
    let _ = writeln!(
        out,
        "    \"idle_skip_speedup\": {}",
        json_f64(opp.idle_skip_speedup())
    );
    out.push_str("  }\n}");
    out
}

/// Wrap rendered target objects into the `peakperf-hostprof-v1` document
/// written by `reproduce hostprof --json` (validated in CI against
/// `scripts/hostprof_schema.json`). `gpus` lists the GPUs the profiled
/// targets ran on, for the shared document envelope.
pub fn hostprof_document(targets: &[String], gpus: &[&str]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&envelope_json("peakperf-hostprof-v1", gpus));
    out.push_str("  \"phases\": [");
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", phase.as_str());
    }
    out.push_str("],\n  \"targets\": [");
    for (i, t) in targets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        // Indent the nested target object under the array.
        for (j, line) in t.trim_end().lines().enumerate() {
            if j > 0 {
                out.push('\n');
            }
            out.push_str("    ");
            out.push_str(line);
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Render the current perfmon registry as a `peakperf-metrics-v1`
/// document (written by `reproduce ... --metrics-out`). Counter names
/// ending in `_ns` are wall-time totals and therefore volatile run to
/// run; everything else is deterministic for a fixed invocation.
pub fn metrics_document(gpus: &[&str]) -> String {
    let snap = peakperf_sim::perfmon::snapshot();
    let mut out = String::from("{\n");
    out.push_str(&envelope_json("peakperf-metrics-v1", gpus));
    out.push_str("  \"counters\": ");
    out.push_str(&snap.to_json_object("  "));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_document_is_balanced() {
        let doc = metrics_document(&["GTX580"]);
        assert!(doc.contains("peakperf-metrics-v1"));
        assert!(doc.contains("\"counters\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn unknown_target_is_rejected() {
        let err = run_target("nonesuch").unwrap_err();
        assert!(err.to_string().contains("unknown profile target"));
    }

    #[test]
    fn fermi_ffma_hostprof_is_coherent() {
        let outcome = run_target("fermi_ffma").unwrap();
        assert_eq!(outcome.gpu, "GTX580");
        assert!(outcome.text.contains("== hostprof: fermi_ffma (GTX580) =="));
        assert!(outcome.text.contains("projected speedup"));
        assert_eq!(
            outcome.json.matches('{').count(),
            outcome.json.matches('}').count()
        );
        for phase in Phase::ALL {
            assert!(
                outcome
                    .json
                    .contains(&format!("\"phase\": \"{}\"", phase.as_str())),
                "missing phase {}",
                phase.as_str()
            );
        }
        // No trace consumer attached, so trace emission cost nothing.
        assert!(outcome
            .json
            .contains("{\"phase\": \"trace_emit\", \"wall_ms\": 0.000, \"share\": 0.000}"));
        assert!(outcome.json.contains("\"idle_skip_speedup\""));
    }

    #[test]
    fn hostprof_document_is_balanced() {
        let doc = hostprof_document(&["{\"target\": \"t\"}".to_owned()], &["GTX680"]);
        assert!(doc.contains("peakperf-hostprof-v1"));
        assert!(doc.contains("\"generated_by\": \"peakperf-bench"));
        assert!(doc.contains("\"issue_select\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
