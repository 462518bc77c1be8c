//! # umtslab-runner — the parallel experiment engine
//!
//! Every experiment in this workspace is an *independent* simulation: it
//! builds a private [`umtslab::Testbed`] from its own master seed and
//! never shares state with any other run. That makes the paper campaign
//! (Figures 1–7), multi-repetition seed sweeps and ablation grids
//! embarrassingly parallel — and this crate is the engine that shards
//! them across a pool of worker threads while keeping the output
//! **byte-identical** to the serial path:
//!
//! * [`pool`] — a scoped worker pool ([`run_jobs`]) that executes jobs in
//!   any order but collects results *by job index*, so the caller sees
//!   the same ordering regardless of thread scheduling;
//! * [`metrics`] — per-job results as plain [`JobRow`] values in job
//!   order, rendered with cross-job totals by [`summary_table`] or into
//!   a JSON document by [`write_json`];
//! * [`paper`] — the paper campaign over any number of repetitions as
//!   shardable jobs ([`run_reps_parallel`]), reassembled in the exact
//!   order of [`umtslab::paper::paper_jobs`];
//! * [`traffic`] — the INRIA switching-policy grid as shardable jobs
//!   ([`run_traffic_grid`]);
//! * [`fleet`] — the other axis of parallelism: one *coupled* topology
//!   partitioned across shards ([`umtslab::Testbed::sharded`]), each
//!   window fanned across the pool via [`run_jobs_mut`];
//! * [`witnesses`] — the `WITNESSES` manifest: every pinned output of
//!   the workspace, computed by one function each.
//!
//! Determinism is seed-based, not scheduling-based: each job's seed is
//! fixed *before* the pool starts (the campaign helpers reuse the serial
//! seed schemes; free-form sweeps can derive seeds with
//! [`umtslab_sim::rng::job_seed`]), so a campaign run with 1 worker and
//! with 16 workers produces identical bytes.
//!
//! ## Quickstart
//!
//! ```
//! use umtslab_runner::{run_reps_parallel, summary_table};
//! use umtslab_sim::time::Duration;
//!
//! // One shortened campaign (2 s flows) across 2 workers.
//! let (runs, rows) = run_reps_parallel(42, 1, Some(Duration::from_secs(2)), 2).unwrap();
//! assert_eq!(runs[0].voip.umts.label, "voip-g711-72kbps");
//! // One row per job, in job order, and a table with their totals:
//! assert_eq!(rows.len(), 4);
//! assert!(rows.iter().all(|r| r.metrics.access.delivered > 0));
//! assert!(summary_table(&rows).contains("totals: 4 job(s)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod paper;
pub mod pool;
pub mod traffic;
pub mod witnesses;

pub use fleet::run_fleet_parallel;
pub use metrics::{summary_table, write_json, JobRow};
pub use paper::run_reps_parallel;
pub use pool::{default_workers, run_jobs, run_jobs_mut};
pub use traffic::run_traffic_grid;
