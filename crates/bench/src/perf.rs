//! Structured run reports for the `reproduce` binary.
//!
//! Each experiment contributes wall time, executor job statistics, and the
//! simulator's process-wide counter deltas ([`peakperf_sim::Counters`]);
//! the whole run is rendered either as a human-readable footer or as a
//! `peakperf-perf-v1` JSON document (`reproduce --json <path>`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use peakperf_sim::{obj, Counters, Json};

use crate::exec::JobStats;
use crate::report::{envelope, PAPER_GPUS};

/// Performance record of one experiment.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPerf {
    /// Experiment name (the `reproduce` subcommand).
    pub name: String,
    /// Whether the experiment completed without error.
    pub ok: bool,
    /// The error message, when `ok` is false.
    pub error: Option<String>,
    /// Wall time of the experiment.
    pub wall: Duration,
    /// Executor jobs completed and their summed busy time.
    pub jobs: JobStats,
    /// Simulator counter growth during the experiment.
    pub counters: Counters,
}

/// A stopwatch pairing wall time with the process-wide counter snapshots.
pub struct PerfSpan {
    started: Instant,
    counters: Counters,
    jobs: JobStats,
}

impl PerfSpan {
    /// Start measuring.
    pub fn begin() -> PerfSpan {
        PerfSpan {
            started: Instant::now(),
            counters: Counters::snapshot(),
            jobs: JobStats::snapshot(),
        }
    }

    /// Finish, producing the record for `name`.
    pub fn finish(self, name: &str, result: Result<(), String>) -> ExperimentPerf {
        ExperimentPerf {
            name: name.to_owned(),
            ok: result.is_ok(),
            error: result.err(),
            wall: self.started.elapsed(),
            jobs: JobStats::snapshot().delta_since(&self.jobs),
            counters: Counters::snapshot().delta_since(&self.counters),
        }
    }
}

/// The whole-run report.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Worker threads the executor was configured with.
    pub workers: usize,
    /// Whether the timing cache was enabled.
    pub cache_enabled: bool,
    /// On-disk cache directory, when one was used.
    pub cache_dir: Option<String>,
    /// Per-experiment records, in execution order.
    pub experiments: Vec<ExperimentPerf>,
    /// Kernel profiles collected during the run (`reproduce profile`),
    /// each an entry of a `peakperf-profile-v1` document.
    pub profiles: Vec<Json>,
}

impl RunReport {
    /// Total wall time across experiments.
    pub fn total_wall(&self) -> Duration {
        self.experiments.iter().map(|e| e.wall).sum()
    }

    /// Summed simulator counters across experiments.
    pub fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for e in &self.experiments {
            t.accumulate(&e.counters);
        }
        t
    }

    /// A human-readable footer for the text output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Run performance ({} workers)", self.workers);
        for e in &self.experiments {
            let status = if e.ok { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "{:<14} {:>9.1} ms  {status:<6} {} sim runs, {} cache hits, \
                 {} jobs ({:.1} ms busy)",
                e.name,
                e.wall.as_secs_f64() * 1e3,
                e.counters.timing_runs,
                e.counters.cache_hits,
                e.jobs.jobs,
                e.jobs.busy_ms(),
            );
        }
        let totals = self.totals();
        let _ = writeln!(
            out,
            "total          {:>9.1} ms         {} sim runs, {} cache hits, \
             {} simulated cycles",
            self.total_wall().as_secs_f64() * 1e3,
            totals.timing_runs,
            totals.cache_hits,
            totals.sim_cycles,
        );
        out
    }

    /// The `peakperf-perf-v1` document.
    pub fn to_json(&self) -> Json {
        let experiments = self.experiments.iter().map(|e| {
            obj!(e; name, ok, error, wall_ms = e.wall.as_secs_f64() * 1e3, jobs = e.jobs.jobs,
                jobs_busy_ms = e.jobs.busy_ms(), counters = e.counters.to_json())
        });
        let body = obj!(self; workers, cache_enabled, cache_dir,
            total_wall_ms = self.total_wall().as_secs_f64() * 1e3,
            totals = self.totals().to_json(),
            experiments = experiments.collect::<Json>(),
            profiles = Json::Arr(self.profiles.clone()));
        envelope("peakperf-perf-v1", &PAPER_GPUS, body)
    }
}

/// Check a `peakperf-perf-v1` document: shaped like the sample
/// [`RunReport::to_json`] writes for one experiment.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    let sample = RunReport {
        experiments: vec![ExperimentPerf::default()],
        ..RunReport::default()
    };
    doc.conforms(&sample.to_json(), &"perf document", errors);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            workers: 4,
            cache_enabled: true,
            cache_dir: None,
            experiments: vec![
                ExperimentPerf {
                    name: "table1".into(),
                    ok: true,
                    error: None,
                    wall: Duration::from_millis(12),
                    jobs: JobStats {
                        jobs: 3,
                        busy_nanos: 9_000_000,
                    },
                    counters: Counters {
                        timing_runs: 3,
                        sim_cycles: 1000,
                        warp_instructions: 500,
                        cache_hits: 1,
                        cache_misses: 2,
                        ..Counters::default()
                    },
                },
                ExperimentPerf {
                    name: "fig2".into(),
                    ok: false,
                    error: Some("bad \"quote\"\nline".into()),
                    wall: Duration::from_millis(5),
                    jobs: JobStats::default(),
                    counters: Counters::default(),
                },
            ],
            profiles: vec![obj!((); kernel = "demo")],
        }
    }

    #[test]
    fn json_round_trips_and_passes_its_check() {
        let doc = sample().to_json();
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        assert_eq!(doc.count("workers"), 4);
        let experiments = doc.items("experiments");
        assert_eq!(experiments[0].text("name"), "table1");
        assert_eq!(experiments[0].get("error"), Some(&Json::Null));
        assert_eq!(experiments[1].text("error"), "bad \"quote\"\nline");
        assert!(doc.pretty().contains("bad \\\"quote\\\"\\nline"));
        assert_eq!(
            experiments[0].get("counters").unwrap().count("timing_runs"),
            3
        );
    }

    #[test]
    fn totals_sum_experiments() {
        let report = sample();
        let totals = report.totals();
        assert_eq!(totals.timing_runs, 3);
        assert_eq!(totals.cache_hits, 1);
        assert_eq!(report.total_wall(), Duration::from_millis(17));
    }

    #[test]
    fn text_footer_mentions_failures() {
        let text = sample().render_text();
        assert!(text.contains("FAILED"));
        assert!(text.contains("table1"));
    }

    #[test]
    fn span_measures_monotonically() {
        let span = PerfSpan::begin();
        let perf = span.finish("t", Ok(()));
        assert!(perf.ok);
        assert!(perf.error.is_none());
    }
}
