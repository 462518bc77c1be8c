//! Parallel driving of the sharded fleet topology.
//!
//! A sharded [`umtslab::Testbed`] advances in conservative windows: every
//! shard runs its own scheduler up to the window boundary, then the
//! shards exchange cross-shard handoffs. *Within* a window the shards
//! are fully independent, so this module fans each window out across the
//! worker pool — and because the merge order at barriers is canonical
//! (`(at, origin, seq)`), the parallel run is byte-identical to the
//! serial one. [`fleet_parallel_matches_serial`] in the tests pins that
//! down on hashes.
//!
//! [`fleet_parallel_matches_serial`]: self#tests

use umtslab::fleet::{run_fleet_with, FleetConfig, FleetReport};
use umtslab_sim::ShardScheduler;

use crate::pool::run_jobs_mut;

/// Runs the fleet scenario, driving each window's shards on a pool of
/// `workers` threads.
///
/// Produces a report byte-identical to [`umtslab::fleet::run_fleet`] for
/// any worker count: parallelism only changes wall time, never results.
pub fn run_fleet_parallel(cfg: &FleetConfig, workers: usize) -> FleetReport {
    run_fleet_with(cfg, |shards, horizon| {
        run_jobs_mut(shards, workers, |_, shard| shard.run_window(horizon));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab::fleet::run_fleet;

    #[test]
    fn fleet_parallel_matches_serial() {
        let mut cfg = FleetConfig::small();
        cfg.shards = 4;
        let serial = run_fleet(&cfg);
        for workers in [1, 2, 4] {
            let parallel = run_fleet_parallel(&cfg, workers);
            assert_eq!(parallel.trace_hash, serial.trace_hash, "workers={workers}");
            assert_eq!(parallel.metrics, serial.metrics, "workers={workers}");
            assert_eq!(parallel.sent, serial.sent);
            assert_eq!(parallel.received, serial.received);
        }
    }
}
