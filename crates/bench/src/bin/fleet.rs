//! Sharded-fleet scaling benchmark: aggregate throughput per shard count.
//!
//! Builds the same coupled fleet topology (UMTS member nodes running
//! concurrent probe sessions into wired sinks) at shard counts 1, 2, 4
//! and 8, drives each partitioning on a worker pool, and reports
//!
//! * **aggregate simulated packets per wall-clock second** — access-link
//!   deliveries plus radio (uplink + downlink) serves, the whole
//!   fleet's forwarding work over the run's wall time; and
//! * the run's **trace hash**, which must be identical across every
//!   shard count (the invariance gate — partitioning must never change
//!   results, only wall time).
//!
//! Results are a **trajectory**: each run appends an entry (git
//! revision, mode, one row per shard count) to the `history` array of
//! `BENCH_fleet.json` in the shared [`umtslab_bench`] schema, so the
//! committed file records how sharded throughput evolved. Per shard
//! count, pkts/s must stay within 10% of the previous same-mode entry
//! (skip with `--no-gate` on machines unrelated to the recorded history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin fleet [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shrinks the fleet and only runs shard counts 1 and 2 for CI
//! smoke use; quick entries are only compared against other quick
//! entries.

use umtslab::fleet::FleetConfig;
use umtslab_bench::{median_run, Entry, Row, FLEET};
use umtslab_runner::{default_workers, run_fleet_parallel};

/// Repetitions per shard count; the median wall time wins.
const REPS: usize = 3;

struct ShardReport {
    shards: usize,
    packets: u64,
    wall_seconds: f64,
    packets_per_sec: f64,
    trace_hash: u64,
}

/// The fleet the bench drives: small enough to finish in seconds per
/// repetition, large enough that every shard count {1, 2, 4, 8} gets a
/// meaningful partition.
fn bench_config(quick: bool) -> FleetConfig {
    let mut cfg = FleetConfig::demo();
    cfg.seed = FLEET.seed;
    if quick {
        cfg.nodes = 48;
        cfg.flows_per_node = 4;
        cfg.sinks = 6;
        cfg.seconds = 2;
    } else {
        cfg.nodes = 240;
        cfg.flows_per_node = 8;
        cfg.sinks = 12;
        cfg.seconds = 5;
    }
    cfg
}

fn run_once(cfg: &FleetConfig) -> ShardReport {
    let wall0 = std::time::Instant::now();
    let report = run_fleet_parallel(cfg, default_workers(cfg.shards));
    let wall = wall0.elapsed().as_secs_f64();
    let m = &report.metrics;
    let packets = m.access.delivered + m.uplink.served + m.downlink.served;
    ShardReport {
        shards: cfg.shards,
        packets,
        wall_seconds: wall,
        packets_per_sec: packets as f64 / wall.max(1e-9),
        trace_hash: report.trace_hash,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");

    let base = bench_config(quick);
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    println!(
        "fleet bench: {} nodes x {} sessions, {} s window, seed {}, {} mode",
        base.nodes,
        base.flows_per_node,
        base.seconds,
        base.seed,
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>20}",
        "shards", "packets", "wall [s]", "pkts/s", "trace_hash"
    );

    let mut reports = Vec::new();
    for &shards in shard_counts {
        let mut cfg = base.clone();
        cfg.shards = shards;
        let r = median_run(REPS, || run_once(&cfg), |r| r.wall_seconds);
        println!(
            "{:<8} {:>12} {:>10.3} {:>14.1}   0x{:016x}",
            r.shards, r.packets, r.wall_seconds, r.packets_per_sec, r.trace_hash
        );
        reports.push(r);
    }

    let rows = reports
        .iter()
        .map(|r| {
            Row::new(format!("{}-shard", r.shards), r.packets_per_sec).with(|o| {
                o.value("packets", r.packets)
                    .value("wall_seconds", format_args!("{:.6}", r.wall_seconds))
                    .str("trace_hash", &format!("0x{:016x}", r.trace_hash));
            })
        })
        .collect();
    let entry = Entry::new(quick, rows);
    let prior = FLEET.append(&entry);

    // Gate 1: shard-count invariance — the whole point of the sharded
    // core. Any hash mismatch means partitioning leaked into results.
    let first = reports.first().expect("at least one shard count ran");
    assert!(first.packets > 0, "fleet forwarded no packets");
    for r in &reports[1..] {
        if r.trace_hash != first.trace_hash {
            eprintln!(
                "FAIL: trace hash diverged — {} shard(s) 0x{:016x} vs 1 shard 0x{:016x}",
                r.shards, r.trace_hash, first.trace_hash
            );
            std::process::exit(1);
        }
    }
    println!("invariance gate holds: identical trace hash at every shard count");

    // Gate 2: throughput must not regress more than 10% against the last
    // same-mode trajectory entry, per shard count.
    if gate {
        FLEET.gate(&prior, &entry);
    }
}
