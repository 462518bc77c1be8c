//! The INRIA switching-policy grid as shardable jobs.
//!
//! Every policy × campaign-seed cell is an independent seeded
//! experiment, so fanning the grid across the pool and collecting by job
//! index reproduces the serial bytes exactly: the
//! [`report_hash`](umtslab::umtslab_traffic::report_hash) of the result
//! is invariant under the worker count.

use umtslab::paper::campaign_seeds;
use umtslab::umtslab_traffic::{PolicyReport, SwitchingPolicy, Trace};
use umtslab::{run_switching_policy, CrosslayerConfig, ExperimentError};
use umtslab_sim::time::Duration;

use crate::pool::run_jobs;

/// Runs a `seconds`-long TCP upload under every switching policy at every
/// campaign seed of `seed` (policy-major, seed-minor), optionally over a
/// recorded access-link `trace`, on `workers` threads.
pub fn run_traffic_grid(
    seed: u64,
    reps: usize,
    seconds: u64,
    trace: Option<&Trace>,
    workers: usize,
) -> Result<Vec<PolicyReport>, ExperimentError> {
    let mut jobs = Vec::new();
    for policy in SwitchingPolicy::ALL {
        for s in campaign_seeds(seed, reps) {
            let mut cfg = CrosslayerConfig::new(policy, s);
            cfg.tcp.duration = Duration::from_secs(seconds);
            cfg.access_trace = trace.cloned();
            jobs.push(cfg);
        }
    }
    run_jobs(jobs, workers, |_, cfg| run_switching_policy(cfg).map(|(report, _)| report))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab::umtslab_traffic::report_hash;

    // The absolute hashes are the `traffic.*` witnesses.
    #[test]
    fn grid_hash_is_worker_invariant() {
        let serial = run_traffic_grid(2008, 3, 10, None, 1).unwrap();
        let parallel = run_traffic_grid(2008, 3, 10, None, 4).unwrap();
        assert_eq!(report_hash(&serial), report_hash(&parallel));
    }

    // `runner traffic --seconds 10 --trace traces/umts_drive.csv`
    #[test]
    fn traced_grid_hash_is_pinned() {
        let committed = include_str!("../../../WITNESSES");
        crate::witnesses::check(committed, "traffic.traced").unwrap();
    }
}
