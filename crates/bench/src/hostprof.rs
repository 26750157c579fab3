//! The `reproduce hostprof` subcommand: profile the *simulator itself*.
//!
//! Where `reproduce profile` decomposes the simulated GPU's bound-vs-
//! achieved gap, this module runs the same named targets under a
//! [`HostProf`] observer (see `peakperf_sim::perfmon`) and reports where
//! the *host* wall time goes: per-[`Phase`] wall-time shares of the
//! scheduler loop, plus how many simulated cycles issued nothing.
//!
//! Profiled runs always simulate (a cache hit has nothing to observe),
//! and they run without a trace consumer beside the profiler, so the
//! `trace_emit` share is zero here by construction.
//!
//! Each target becomes one entry of a `peakperf-hostprof-v1` document
//! ([`hostprof_document`]); [`check`] states what a valid one promises,
//! and is what `reproduce check` runs on it.

use std::fmt::Write as _;

use peakperf_sim::perfmon::{HostProf, Phase};
use peakperf_sim::timing::Hooks;
use peakperf_sim::{ensure, obj, Json, SimError};

use crate::profiling;
use crate::report::envelope;

/// The result of host-profiling one target.
#[derive(Debug, Clone)]
pub struct HostProfOutcome {
    /// The GPU the target ran on (for the document envelope).
    pub gpu: &'static str,
    /// Human-readable summary.
    pub text: String,
    /// This target's entry of a `peakperf-hostprof-v1` document.
    pub json: Json,
}

/// Run one named target under the host profiler.
///
/// # Errors
///
/// Unknown target names and simulation failures.
pub fn run_target(name: &str) -> Result<HostProfOutcome, SimError> {
    let mut prepared = profiling::prepare(name)?;
    let mut probe = HostProf::new();
    let report = prepared
        .sim
        .run(&mut prepared.memory, Hooks::observe(&mut probe))?;
    let text = render_text(name, prepared.gpu.name, &probe, &report);
    let json = render_json(name, prepared.gpu.name, &probe, &report);
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
        "idle cycles: {} of {} ({:.1}%)",
        probe.idle_cycles(),
        report.cycles,
        100.0 * probe.idle_cycles() as f64 / report.cycles.max(1) as f64,
    );
    out
}

fn render_json(
    name: &str,
    gpu: &str,
    probe: &HostProf,
    report: &peakperf_sim::timing::TimingReport,
) -> Json {
    let total = probe.total_nanos().max(1) as f64;
    let phases = Phase::ALL.map(|phase| {
        let nanos = probe.phase_nanos(phase) as f64;
        obj!((); phase = phase.as_str(), wall_ms = nanos / 1e6, share = nanos / total)
    });
    obj!(report; target = name, gpu = gpu, cycles, warp_instructions,
        wall_ms = probe.total_nanos() as f64 / 1e6,
        phases = phases.into_iter().collect::<Json>(),
        idle = obj!((); idle_cycles = probe.idle_cycles()))
}

/// Wrap per-target entries into the `peakperf-hostprof-v1` document
/// written by `reproduce hostprof --json`. `gpus` lists the GPUs the
/// profiled targets ran on, for the shared document envelope.
pub fn hostprof_document(targets: Vec<Json>, gpus: &[&str]) -> Json {
    let phases: Json = Phase::ALL.map(Phase::as_str).into_iter().collect();
    let body = obj!((); phases = phases, targets = Json::Arr(targets));
    envelope("peakperf-hostprof-v1", gpus, body)
}

/// Check a `peakperf-hostprof-v1` document: shaped like a sample this
/// module writes; the phase list (the document's and every target's) is
/// [`Phase::ALL`], in order; and per target the phase shares partition
/// the wall time (sum ≈ 1) and `idle_cycles <= cycles`.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    let entry = render_json("", "", &HostProf::new(), &Default::default());
    let sample = hostprof_document(vec![entry], &[]);
    doc.conforms(&sample, &"hostprof document", errors);
    let phases = sample.get("phases");
    let drifted = doc.get("phases") != phases;
    ensure!(
        errors,
        !drifted,
        "hostprof document: phases drifted from Phase::ALL"
    );
    let targets = doc.items("targets");
    ensure!(
        errors,
        !targets.is_empty(),
        "hostprof document: targets is empty"
    );
    for (i, target) in targets.iter().enumerate() {
        let at = format!("targets[{i}]");
        let entries = target.items("phases").iter();
        let names: Json = entries.clone().map(|e| e.get("phase").cloned()).collect();
        ensure!(
            errors,
            Some(&names) == phases,
            "{at}.phases: names drifted from Phase::ALL"
        );
        let shares = entries.filter_map(|e| e["share"].as_f64());
        let share_sum: f64 = shares.sum();
        let partitioned = (share_sum - 1.0).abs() <= 0.01;
        ensure!(
            errors,
            partitioned,
            "{at}: phase shares sum to {share_sum:.4}, expected ~1.0"
        );

        let (cycles, idle_cycles) = (target.count("cycles"), target["idle"].count("idle_cycles"));
        ensure!(
            errors,
            idle_cycles <= cycles,
            "{at}: idle_cycles exceed cycles"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(outcome.text.contains("idle cycles: "));
        let doc = hostprof_document(vec![outcome.json], &[outcome.gpu]);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        // No trace consumer attached, so trace emission cost nothing.
        let last = doc.items("targets")[0].items("phases").last().unwrap();
        assert_eq!(
            last.render(),
            "{\"phase\":\"trace_emit\",\"wall_ms\":0.0,\"share\":0.0}"
        );
    }
}
