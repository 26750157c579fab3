//! `service_mix`: production job kinds through `bench::service`, closed
//! loop. One harness thread keeps `workers` jobs outstanding and submits
//! the next when a result arrives, so queue wait is ~0 by construction
//! and a job's latency is the service's own overhead plus its run time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    campaign_cases, CampaignConfig, Counters, Generation, JobKind, JobResult, JobSpec, JobStatus,
    Journal, Service, ServiceConfig, SubmitOutcome,
};
use crate::trace::Tracer;
use crate::workloads::{arrange, Outcome, Round, Setup, Workload};

/// The fault jobs are the first `FAULT_JOBS` mutants of the campaign with
/// this seed — a fixed pool, because mutants differ a thousandfold in
/// cost (a validator reject takes 20 µs, a hang runs 1.5 s to the
/// watchdog) and a pool drawn from `--seed` would make every seed a
/// different amount of work. `--seed` orders the pool.
const POOL_SEED: u64 = 1;
const FAULT_JOBS: u64 = 36;

/// Profile jobs per round, the two cheapest targets; the 0.6–1.2 s ones
/// would be most of a round.
const PROFILE_TARGETS: [&str; 2] = ["fermi_ffma", "table2_ffma"];

/// A job slower than this counts as simulator-dominated.
const FAST_JOB_MS: f64 = 10.0;

/// No job of this mix runs longer than ~2 s; a minute means a hang.
const DEADLINE_MS: u64 = 60_000;

pub struct ServiceMix {
    kinds: Vec<JobKind>,
    workers: usize,
    rounds: u64,
}

impl ServiceMix {
    pub fn new(setup: &Setup) -> Result<ServiceMix, String> {
        let mut kinds: Vec<JobKind> = campaign_cases(&CampaignConfig {
            seed: POOL_SEED,
            iters: FAULT_JOBS,
            generations: vec![Generation::Fermi, Generation::Kepler],
        })
        .into_iter()
        .map(|case| JobKind::Fault { case })
        .collect();
        kinds.extend(PROFILE_TARGETS.map(|target| JobKind::Profile {
            target: target.to_owned(),
        }));
        // Warm-up: one job of each kind through a service of its own —
        // the same two jobs whatever the seed.
        let mut warm = ServiceMix {
            kinds: vec![
                kinds[0].clone(),
                kinds[kinds.len() - PROFILE_TARGETS.len()].clone(),
            ],
            workers: setup.workers,
            rounds: 0,
        };
        let warmed = warm.round(&mut Tracer::new(false));
        if let Some(failure) = warmed.outcomes.into_iter().find_map(Result::err) {
            return Err(format!("warm-up: {failure}"));
        }
        Ok(ServiceMix {
            kinds: arrange(kinds, setup),
            workers: setup.workers,
            rounds: 0,
        })
    }
}

struct Pending {
    index: usize,
    submit_start: Instant,
    submit_ns: (u64, u64),
}

impl Workload for ServiceMix {
    fn ops(&self) -> usize {
        self.kinds.len()
    }

    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let n = self.kinds.len();
        let round_no = self.rounds;
        self.rounds += 1;
        let mut round = Round {
            item_wall_s: vec![0.0; n],
            outcomes: (0..n).map(|_| Err("no result".to_owned())).collect(),
            ..Round::default()
        };
        let journal = tracer.enabled().then(|| Arc::new(Journal::full(None)));
        let config = ServiceConfig {
            workers: self.workers,
            queue_capacity: 64,
            ..ServiceConfig::default()
        };
        let (service, results) = Service::start_with_journal(config, journal.clone());
        let counters_before = Counters::snapshot();

        let mut pending: HashMap<String, Pending> = HashMap::new();
        let mut seen = vec![0u32; n];
        let (mut next, mut received) = (0, 0);
        let t0 = Instant::now();
        while received < n {
            while pending.len() < self.workers && next < n {
                let id = format!("r{round_no}-j{next}");
                let mut spec = JobSpec::new(id.clone(), self.kinds[next].clone());
                spec.deadline_ms = Some(DEADLINE_MS);
                let start_ns = tracer.now_ns();
                let submit_start = Instant::now();
                let accepted = service.submit(spec);
                let submit_s = submit_start.elapsed().as_secs_f64();
                round.extras.sample("service.submit_us", submit_s * 1e6);
                if accepted != SubmitOutcome::Accepted {
                    round.round_failures.push(format!("{id}: {accepted:?}"));
                }
                // A shed job still gets its `rejected` result on the channel.
                pending.insert(
                    id,
                    Pending {
                        index: next,
                        submit_start,
                        submit_ns: (start_ns, tracer.now_ns()),
                    },
                );
                next += 1;
            }
            let Ok(result) = results.recv_timeout(Duration::from_millis(2 * DEADLINE_MS)) else {
                round.round_failures.push(format!(
                    "no result for {} outstanding job(s) within {} s",
                    pending.len(),
                    2 * DEADLINE_MS / 1000
                ));
                break;
            };
            received += 1;
            let Some(job) = pending.remove(&result.id) else {
                round
                    .round_failures
                    .push(format!("result for unknown or finished id `{}`", result.id));
                continue;
            };
            let latency_s = job.submit_start.elapsed().as_secs_f64();
            seen[job.index] += 1;
            round.item_wall_s[job.index] = latency_s;
            record_job(&mut round, tracer, &job, &result, latency_s);
            round.outcomes[job.index] = judge(&result);
        }
        round.wall_s = t0.elapsed().as_secs_f64();

        let health = service.drain();
        // The process-wide counters: job bodies run on the service's
        // worker threads, out of reach of a thread-scoped counter.
        let counters = Counters::snapshot().delta_since(&counters_before);
        round.sim.add(&counters);
        round.warp_insts = counters.warp_instructions;

        if results.try_recv().is_ok() {
            round
                .round_failures
                .push("more results than submissions".to_owned());
        }
        if seen.iter().any(|&count| count != 1) {
            round
                .round_failures
                .push("a job did not get exactly one terminal result".to_owned());
        }
        if !health.accounted() || health.submitted != n as u64 || health.terminal() != n as u64 {
            round.round_failures.push(format!(
                "accounting identity broken: {}",
                health.render_line()
            ));
        }
        round.extras.count("service.retried", health.retried as f64);
        round
            .extras
            .count("service.rejected", health.rejected as f64);
        round
            .extras
            .count("service.peak_queue_depth", health.queue_depth_max as f64);
        if let Some(journal) = journal {
            round
                .extras
                .count("service.journal_events", journal.len() as f64);
            let complaints = journal.check_invariants(Some(&health));
            round.round_failures.extend(complaints);
        }
        round
    }
}

/// Only `completed` is a success: a failed, cancelled, timed-out or shed
/// job is a failed operation whatever its reason.
fn judge(result: &JobResult) -> Result<Outcome, String> {
    if result.status != JobStatus::Completed {
        return Err(format!(
            "{} ended `{}`: {}",
            result.id,
            result.status.as_str(),
            result.detail.lines().next().unwrap_or("")
        ));
    }
    Ok(Outcome {
        value: f64::from(result.attempts),
        cycles: result.cycles.unwrap_or(0),
        warp_insts: 0,
    })
}

fn record_job(
    round: &mut Round,
    tracer: &mut Tracer,
    job: &Pending,
    result: &JobResult,
    latency_s: f64,
) {
    let queue_us = result.queue_wait_us.unwrap_or(0) as f64;
    let attempts_us = result.attempts_wall_us.unwrap_or(0) as f64;
    let latency_us = latency_s * 1e6;
    let extras = &mut round.extras;
    extras.sample("service.job_latency_ms", latency_us / 1e3);
    extras.sample("service.queue_wait_ms", queue_us / 1e3);
    extras.sample("service.attempt_ms", attempts_us / 1e3);
    extras.sample(
        "service.overhead_us",
        (latency_us - queue_us - attempts_us).max(0.0),
    );
    extras.sample(
        "service.fast_job",
        if latency_us / 1e3 < FAST_JOB_MS {
            1.0
        } else {
            0.0
        },
    );

    if tracer.enabled() {
        // The service reports how long the job queued and ran, not when;
        // lay the two intervals out from the end of `submit`. What is
        // left of the item span is dispatch, result delivery and the
        // harness's own receive: `service.overhead`.
        let (submit_start, submit_end) = job.submit_ns;
        let end_ns = tracer.now_ns();
        let queue_end = (submit_end + (queue_us * 1e3) as u64).min(end_ns);
        let attempts_end = (queue_end + (attempts_us * 1e3) as u64).min(end_ns);
        tracer.record_item(
            job.index as u64,
            submit_start,
            end_ns,
            &[
                ("service.submit", submit_start, submit_end),
                ("service.queue", submit_end, queue_end),
                ("service.exec.attempts", queue_end, attempts_end),
                ("service.overhead", attempts_end, end_ns),
            ],
        );
    }
}
