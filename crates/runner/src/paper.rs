//! The paper campaign, sharded: parallel drivers for Figures 1–7 and for
//! multi-repetition seed sweeps.
//!
//! Jobs and seeds come from [`umtslab::paper::paper_jobs`] /
//! [`umtslab::paper::campaign_seeds`] — the exact units and seed schemes
//! the serial [`umtslab::run_paper`] path uses — so a campaign's results
//! do not depend on the worker count, only on the base seed.

// lint:allow(D2) wall-clock feeds only the registry's host-time column, never simulation state
use std::time::Instant as WallInstant;

use umtslab::paper::{assemble_paper_run, campaign_seeds, paper_jobs};
use umtslab::prelude::Duration;
use umtslab::{ExperimentError, ExperimentResult, PaperJob, PaperRun};

use crate::metrics::MetricsRegistry;
use crate::pool::run_jobs;

/// Runs an arbitrary list of [`PaperJob`]s across `workers` threads,
/// publishing each finished job into `registry`. Results come back in
/// input order.
pub fn run_campaign_parallel(
    jobs: Vec<PaperJob>,
    workers: usize,
    registry: &MetricsRegistry,
) -> Vec<Result<ExperimentResult, ExperimentError>> {
    run_jobs(jobs, workers, |idx, job| {
        // lint:allow(D2) measuring host wall time per job for the summary table only
        let started = WallInstant::now();
        let outcome = job.run();
        if let Ok(result) = &outcome {
            registry.record(idx, job.label(), job.seed, result.metrics, started.elapsed());
        }
        outcome
    })
}

/// The parallel equivalent of [`umtslab::run_paper`]: the four
/// workload × path jobs of one campaign, sharded across `workers`
/// threads and reassembled in canonical order.
///
/// For equal seeds this produces byte-identical results to the serial
/// path for any worker count ≥ 1.
pub fn run_paper_parallel(
    seed: u64,
    duration: Option<Duration>,
    workers: usize,
    registry: &MetricsRegistry,
) -> Result<PaperRun, ExperimentError> {
    let mut runs = run_reps_parallel(seed, 1, duration, workers, registry)?;
    Ok(runs.remove(0))
}

/// Runs `reps` full paper campaigns (the figures binary's seed scheme:
/// repetition `r` uses `base_seed + r * 7919`) with all `4 * reps` jobs
/// sharded across one pool, so repetitions overlap instead of running
/// one after another.
pub fn run_reps_parallel(
    base_seed: u64,
    reps: usize,
    duration: Option<Duration>,
    workers: usize,
    registry: &MetricsRegistry,
) -> Result<Vec<PaperRun>, ExperimentError> {
    let mut jobs = Vec::with_capacity(reps * 4);
    for seed in campaign_seeds(base_seed, reps) {
        jobs.extend(paper_jobs(seed, duration));
    }
    let results: Vec<ExperimentResult> =
        run_campaign_parallel(jobs, workers, registry).into_iter().collect::<Result<_, _>>()?;
    let mut results = results.into_iter();
    let mut next = || results.next().expect("4 results per rep");
    Ok((0..reps).map(|_| assemble_paper_run(std::array::from_fn(|_| next()))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab::paper::{render_series, run_paper, summary_row, Metric};
    use umtslab::PathKind;

    const SHORT: Option<Duration> = Some(Duration::from_secs(2));

    /// Renders every figure-relevant byte of a run: all four summaries
    /// plus all 4 × 4 metric series, with connect times and drop
    /// counters. Two runs with equal renderings are the same campaign.
    fn render_full(run: &PaperRun) -> String {
        let mut out = String::new();
        for r in [&run.voip.umts, &run.voip.ethernet, &run.cbr.umts, &run.cbr.ethernet] {
            out.push_str(&summary_row(r));
            out.push('\n');
            out.push_str(&format!(
                "connect={:?} drops={:?} events={}\n",
                r.connect_time, r.drops, r.events
            ));
            for m in [Metric::Bitrate, Metric::Jitter, Metric::Loss, Metric::Rtt] {
                out.push_str(&render_series(r, m));
            }
        }
        out
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let serial = run_paper(77, SHORT).unwrap();
        let registry = MetricsRegistry::new();
        let parallel = run_paper_parallel(77, SHORT, 4, &registry).unwrap();
        assert_eq!(render_full(&serial), render_full(&parallel));
        assert_eq!(registry.jobs_completed(), 4);
        // The registry saw exactly the events the four results report.
        let expected: u64 = [
            &parallel.voip.umts,
            &parallel.voip.ethernet,
            &parallel.cbr.umts,
            &parallel.cbr.ethernet,
        ]
        .iter()
        .map(|r| r.events)
        .sum();
        assert_eq!(registry.totals().events, expected);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let registry1 = MetricsRegistry::new();
        let one = run_paper_parallel(5, SHORT, 1, &registry1).unwrap();
        let registry3 = MetricsRegistry::new();
        let three = run_paper_parallel(5, SHORT, 3, &registry3).unwrap();
        assert_eq!(render_full(&one), render_full(&three));
        // Deterministic (simulation-side) totals agree too; wall time may
        // differ, so compare with it zeroed.
        let mut t1 = registry1.totals();
        let mut t3 = registry3.totals();
        t1.wall_micros = 0;
        t3.wall_micros = 0;
        assert_eq!(t1, t3);
    }

    #[test]
    fn reps_shard_flat_and_match_serial_reps() {
        let registry = MetricsRegistry::new();
        let runs = run_reps_parallel(2008, 2, SHORT, 4, &registry).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(registry.jobs_completed(), 8);
        let serial_rep1 = run_paper(2008 + 7919, SHORT).unwrap();
        assert_eq!(render_full(&runs[1]), render_full(&serial_rep1));
    }

    #[test]
    fn campaign_surface_errors_per_job() {
        // An impossible UMTS config: zero-duration dial timeout cannot
        // happen through PaperJob, so instead check the error plumbing by
        // running a normal job list and asserting all succeed.
        let jobs = vec![PaperJob {
            workload: umtslab::Workload::VoipG711,
            path: PathKind::EthernetToEthernet,
            seed: 9,
            duration: SHORT,
        }];
        let registry = MetricsRegistry::new();
        let outcomes = run_campaign_parallel(jobs, 2, &registry);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_ok());
        assert_eq!(registry.jobs_completed(), 1);
    }
}
