//! The paper campaign, sharded: one parallel driver for Figures 1–7 over
//! any number of repetitions.
//!
//! Jobs and seeds come from [`umtslab::paper::paper_jobs`] /
//! [`umtslab::paper::campaign_seeds`] — the exact units and seed schemes
//! the serial [`umtslab::run_paper`] path uses — so a campaign's results
//! do not depend on the worker count, only on the base seed.

// lint:allow(D2) wall-clock feeds only the rows' host-time column, never simulation state
use std::time::Instant as WallInstant;

use umtslab::paper::{assemble_paper_run, campaign_seeds, paper_jobs};
use umtslab::prelude::Duration;
use umtslab::{ExperimentError, PaperRun};

use crate::metrics::JobRow;
use crate::pool::run_jobs;

/// Runs `reps` full paper campaigns (the figures binary's seed scheme:
/// repetition `r` uses `base_seed + r * 7919`) with all `4 * reps` jobs
/// sharded across one pool, so repetitions overlap instead of running
/// one after another.
///
/// Returns the runs, reassembled in canonical order, and one row per job
/// in job order. For equal seeds the runs are byte-identical to the
/// serial path for any worker count ≥ 1.
pub fn run_reps_parallel(
    base_seed: u64,
    reps: usize,
    duration: Option<Duration>,
    workers: usize,
) -> Result<(Vec<PaperRun>, Vec<JobRow>), ExperimentError> {
    let mut jobs = Vec::with_capacity(reps * 4);
    for seed in campaign_seeds(base_seed, reps) {
        jobs.extend(paper_jobs(seed, duration));
    }
    let outcomes = run_jobs(jobs, workers, |_, job| {
        // lint:allow(D2) measuring host wall time per job for the summary table only
        let started = WallInstant::now();
        let result = job.run()?;
        let row = JobRow::new(job.label(), job.seed, result.metrics, started.elapsed());
        Ok((result, row))
    });
    let (results, rows): (Vec<_>, Vec<_>) = outcomes.into_iter().collect::<Result<_, _>>()?;
    let mut results = results.into_iter();
    let mut next = || results.next().expect("4 results per rep");
    let runs = (0..reps).map(|_| assemble_paper_run(std::array::from_fn(|_| next()))).collect();
    Ok((runs, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab::paper::{render_series, run_paper, summary_row, Metric};

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

    /// The rows with the host-dependent wall time zeroed.
    fn sim_rows(rows: Vec<JobRow>) -> Vec<JobRow> {
        rows.into_iter().map(|r| JobRow { wall_micros: 0, ..r }).collect()
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let serial = run_paper(77, SHORT).unwrap();
        let (runs, rows) = run_reps_parallel(77, 1, SHORT, 4).unwrap();
        let parallel = &runs[0];
        assert_eq!(render_full(&serial), render_full(parallel));
        // One row per job, in job order, carrying each result's counters.
        let results = [
            &parallel.voip.umts,
            &parallel.voip.ethernet,
            &parallel.cbr.umts,
            &parallel.cbr.ethernet,
        ];
        assert_eq!(rows.len(), 4);
        for (row, result) in rows.iter().zip(results) {
            assert_eq!(row.metrics, result.metrics);
            assert_eq!(row.metrics.events, result.events);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (one, rows1) = run_reps_parallel(5, 1, SHORT, 1).unwrap();
        let (three, rows3) = run_reps_parallel(5, 1, SHORT, 3).unwrap();
        assert_eq!(render_full(&one[0]), render_full(&three[0]));
        // The rows agree too, once the host wall time is zeroed.
        assert_eq!(sim_rows(rows1), sim_rows(rows3));
    }

    #[test]
    fn reps_shard_flat_and_match_serial_reps() {
        let (runs, rows) = run_reps_parallel(2008, 2, SHORT, 4).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[4].seed, 2008 + 7919);
        let serial_rep1 = run_paper(2008 + 7919, SHORT).unwrap();
        assert_eq!(render_full(&runs[1]), render_full(&serial_rep1));
    }
}
