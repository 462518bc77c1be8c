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
//! * [`metrics`] — a registry ([`MetricsRegistry`]) workers publish into:
//!   one row per job under a mutex, with cross-job totals folded from
//!   the rows, rendered as a summary table or machine-readable JSON;
//! * [`paper`] — the paper campaign expressed as shardable jobs
//!   ([`run_paper_parallel`], [`run_campaign_parallel`]) reassembled in
//!   the exact order of [`umtslab::paper::paper_jobs`];
//! * [`traffic`] — the INRIA switching-policy grid as shardable jobs
//!   ([`run_traffic_grid`]);
//! * [`fleet`] — the other axis of parallelism: one *coupled* topology
//!   partitioned across shards ([`umtslab::Testbed::sharded`]), each
//!   window fanned across the pool via [`run_jobs_mut`].
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
//! use umtslab_runner::{run_paper_parallel, MetricsRegistry};
//! use umtslab_sim::time::Duration;
//!
//! let registry = MetricsRegistry::new();
//! // A shortened campaign (2 s flows) across 2 workers.
//! let run = run_paper_parallel(42, Some(Duration::from_secs(2)), 2, &registry).unwrap();
//! assert_eq!(run.voip.umts.label, "voip-g711-72kbps");
//! assert_eq!(registry.jobs_completed(), 4);
//! // Totals aggregated across all four jobs:
//! assert!(registry.totals().packets_delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod paper;
pub mod pool;
pub mod traffic;

pub use fleet::run_fleet_parallel;
pub use metrics::{Availability, JobRow, MetricsRegistry, MetricsTotals};
pub use paper::{run_campaign_parallel, run_paper_parallel, run_reps_parallel};
pub use pool::{default_workers, run_jobs, run_jobs_mut};
pub use traffic::run_traffic_grid;
