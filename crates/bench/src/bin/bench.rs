//! The trajectory benches: one harness over three measurement functions.
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin bench -- <dataplane|fleet|traffic> [--quick] [--no-gate]
//! ```
//!
//! Like the paper's figures, a bench comes from repeated, seeded runs.
//! Each configuration runs a fixed number of times at the bench's seed.
//! The simulated work is the same each time, so the repetitions differ
//! only in host noise, and the one with the median wall time is kept: it
//! strips slow outliers (preemption) and fast ones (turbo bursts) alike.
//! The run appends one entry, one row per configuration, to
//! `BENCH_<name>.json` in the [`umtslab_bench`] schema. The file is the
//! one in the current directory, which must be the repository root: a
//! run started anywhere else exits 2 before it measures. `--quick`
//! shrinks the sizes for CI smoke use.
//!
//! Two gates fail a run. The **invariant gate**: every repetition must do
//! some work and give the bench's witness, a value its design promises
//! is independent of host and partitioning; a run that breaks it is not
//! recorded. The **regression gate** ([`umtslab_bench::Bench::gate`])
//! compares the run with the last entry of the same mode; `--no-gate`
//! skips it on hardware unrelated to the recorded history.
//!
//! * `dataplane` times the steady state of the paper's two flows on the
//!   wired two-node testbed, after a warm-up that fills the pipeline and
//!   the buffer pool: VoIP G.711 (small packets at a high rate) and
//!   1 Mbps CBR (the saturation flow). It records packets forwarded per
//!   wall second and the payload bytes deep-copied per packet, from the
//!   global [`copy counters`](umtslab::umtslab_net::copy_counters) that
//!   every `Bytes::copy_from_slice`/`to_vec` increments. The witness is
//!   the copy count, and it must be zero: once a packet is emitted, the
//!   wired path never copies its payload.
//! * `fleet` drives one coupled fleet (UMTS members running probe
//!   sessions into wired sinks) at 1, 2, 4 and 8 shards on a worker pool,
//!   and records access-link deliveries plus radio serves per wall
//!   second. The witness is the trace hash, the same at every shard
//!   count: partitioning may change wall time, never results.
//! * `traffic` sweeps the INRIA switching-policy experiment, one TCP flow
//!   on the UMTS uplink per FACH/DCH preset, and records delivered
//!   segments per wall second. The witness is the report hash over the
//!   per-policy rows, which must repeat: the flow library is
//!   deterministic.

use std::time::Instant as WallClock;

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed};
use umtslab::fleet::FleetConfig;
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;
use umtslab::umtslab_traffic::report_hash;
use umtslab_bench::{Bench, Entry, Row, DATAPLANE, FLEET, TRAFFIC};
use umtslab_runner::{default_workers, run_fleet_parallel, run_traffic_grid};

/// One repetition of one configuration: its history row, the wall
/// seconds of its measured work and its witness.
type Rep = (Row, f64, u64);

/// A measurement function: one repetition, given `--quick` and the
/// configuration's index.
type Measure = fn(bool, usize) -> Rep;

/// Each bench: its trajectory, repetitions per configuration, how many
/// configurations it has in full and in quick mode, what its witness is
/// and the value every repetition must give (`None`: the first one's),
/// and its measurement function.
const BENCHES: [(Bench, usize, [usize; 2], &str, Option<u64>, Measure); 3] = [
    (DATAPLANE, 5, [2, 2], "payload copies", Some(0), dataplane),
    (FLEET, 3, [4, 2], "trace hash", None, fleet),
    (TRAFFIC, 3, [1, 1], "report hash", None, traffic),
];

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let known = flags.iter().all(|f| f == "--quick" || f == "--no-gate");
    let Some(&(bench, reps, configs, what, mut want, measure)) =
        BENCHES.iter().find(|b| known && names.len() == 1 && b.0.name == names[0])
    else {
        eprintln!("usage: bench <dataplane|fleet|traffic> [--quick] [--no-gate]");
        std::process::exit(2);
    };
    if !bench.path().is_file() {
        eprintln!(
            "error: no {} in the current directory; run bench from the repository root",
            bench.path().display()
        );
        std::process::exit(2);
    }
    let quick = flags.iter().any(|f| f == "--quick");
    let mode = if quick { "quick" } else { "full" };
    let count = want.is_some();
    let show = |w: u64| if count { w.to_string() } else { format!("0x{w:016x}") };
    let fail = |why: String| -> ! {
        eprintln!("FAIL: {why}");
        std::process::exit(1)
    };

    println!(
        "{} bench: seed {}, {mode} mode, median of {reps} repetitions",
        bench.name, bench.seed
    );
    let mut rows = Vec::new();
    for config in 0..configs[usize::from(quick)] {
        let mut runs: Vec<Rep> = (0..reps).map(|_| measure(quick, config)).collect();
        for (row, _, witness) in &runs {
            let expected = *want.get_or_insert(*witness);
            if *witness != expected {
                let (got, expected) = (show(*witness), show(expected));
                fail(format!(
                    "{}: {what} {got} where every repetition must give {expected}",
                    row.key
                ));
            }
            if row.throughput <= 0.0 {
                fail(format!("{}: a repetition did no work", row.key));
            }
        }
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let row = runs.swap_remove(reps / 2).0;
        println!("{:<16} {:>12.1} {}  {}", row.key, row.throughput, bench.unit, row.extra);
        rows.push(row);
    }
    println!("invariant gate holds: {what} {} in every repetition", show(want.unwrap_or_default()));

    let entry = Entry::new(quick, rows);
    let prior = bench.append(&entry);
    if !flags.iter().any(|f| f == "--no-gate") {
        bench.gate(&prior, &entry);
    }
}

/// `work` per wall second.
fn per_sec(work: u64, wall: f64) -> f64 {
    work as f64 / wall.max(1e-9)
}

/// One paper flow on the wired two-node testbed, `voip-g711` then
/// `cbr-1mbps`, timed for 30 s (4 s quick) after 2 s of warm-up.
fn dataplane(quick: bool, config: usize) -> Rep {
    let warmup = Duration::from_secs(2);
    let measure = Duration::from_secs(if quick { 4 } else { 30 });
    let mut spec = [FlowSpec::voip_g711, FlowSpec::cbr_1mbps][config]();
    spec.duration = warmup + measure;
    let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, DATAPLANE.seed);
    let mut env = TwoNodeTestbed::build(&cfg);
    let flow_start = env.tb.now() + cfg.settle;
    let (tx, duration, dport) = env.add_measurement_flow(&cfg, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    env.tb.run_until(flow_start + warmup);
    let (copies0, recv0) = (copy_counters(), env.tb.receiver_records(rx).len());
    let wall0 = WallClock::now();
    env.tb.run_until(flow_start + duration + cfg.drain);
    let wall = wall0.elapsed().as_secs_f64();
    let copies1 = copy_counters();
    let packets = (env.tb.receiver_records(rx).len() - recv0) as u64;

    let (copies, bytes) = (copies1.copies - copies0.copies, copies1.bytes - copies0.bytes);
    let row = Row::new(cfg.spec.label.as_str(), per_sec(packets, wall)).with(|o| {
        o.value("sim_seconds", format_args!("{:.3}", measure.total_micros() as f64 / 1e6))
            .value("packets_forwarded", packets)
            .value("wall_seconds", format_args!("{wall:.6}"))
            .value("deep_copies", copies)
            .value("deep_copy_bytes", bytes)
            .value(
                "bytes_cloned_per_packet",
                format_args!("{:.3}", bytes as f64 / packets.max(1) as f64),
            );
    });
    (row, wall, copies)
}

/// The coupled fleet at `[1, 2, 4, 8][config]` shards: small enough to
/// finish in seconds, large enough to give every shard count a
/// meaningful partition.
fn fleet(quick: bool, config: usize) -> Rep {
    let mut cfg = FleetConfig::demo();
    cfg.seed = FLEET.seed;
    (cfg.nodes, cfg.flows_per_node, cfg.sinks, cfg.seconds) =
        if quick { (48, 4, 6, 2) } else { (240, 8, 12, 5) };
    cfg.shards = [1, 2, 4, 8][config];
    let wall0 = WallClock::now();
    let report = run_fleet_parallel(&cfg, default_workers(cfg.shards));
    let wall = wall0.elapsed().as_secs_f64();
    let m = &report.metrics;
    let packets = m.access.delivered + m.uplink.served + m.downlink.served;
    let row = Row::new(format!("{}-shard", cfg.shards), per_sec(packets, wall)).with(|o| {
        o.value("packets", packets)
            .value("wall_seconds", format_args!("{wall:.6}"))
            .str("trace_hash", &format!("0x{:016x}", report.trace_hash));
    });
    (row, wall, report.trace_hash)
}

/// One serial sweep of the four policy cells: the paper's 30 s bulk
/// upload per policy, 10 s in quick mode.
fn traffic(quick: bool, _config: usize) -> Rep {
    let wall0 = WallClock::now();
    let sweep = run_traffic_grid(TRAFFIC.seed, 1, if quick { 10 } else { 30 }, None, 1)
        .unwrap_or_else(|e| panic!("traffic cell failed: {e}"));
    let wall = wall0.elapsed().as_secs_f64();
    let segments: u64 = sweep.iter().map(|r| r.delivered_segments).sum();
    let hash = report_hash(&sweep);
    let row = Row::new("sweep", per_sec(segments, wall)).with(|o| {
        o.value("segments", segments)
            .value("wall_seconds", format_args!("{wall:.6}"))
            .str("report_hash", &format!("0x{hash:016x}"))
            .array("policies", &sweep, |o, r| {
                o.str("policy", r.policy.name())
                    .value("goodput_bps", r.goodput_bps)
                    .value("delivered_segments", r.delivered_segments)
                    .value("retransmits", r.retransmits)
                    .value("timeouts", r.timeouts)
                    .value("rrc_transitions", r.rrc_transitions);
            });
    });
    (row, wall, hash)
}
