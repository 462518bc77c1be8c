//! Steady-state data-plane throughput and copy-count benchmark.
//!
//! Measures the zero-copy data plane on the wired (Ethernet↔Ethernet)
//! two-node testbed, for the paper's two measurement flows:
//!
//! * `voip-g711` — small packets at a high rate (80 B @ 100 pps);
//! * `cbr-1mbps` — the saturation flow (1000 B @ 125 pps).
//!
//! For each flow the bench warms the testbed up, then times a steady-state
//! window and reports
//!
//! * **simulated packets forwarded per wall-clock second** (the headline
//!   throughput of the simulator's forwarding path), and
//! * **payload bytes deep-copied per forwarded packet**, from the global
//!   [`copy counters`](umtslab::umtslab_net::copy_counters) that every
//!   `Bytes::copy_from_slice`/`to_vec` increments.
//!
//! Results are a **trajectory**: each run appends an entry (git revision,
//! mode, one row per flow) to the `history` array of
//! `BENCH_dataplane.json` in the shared [`umtslab_bench`] schema, so the
//! committed file records how throughput evolved. Two gates make the
//! bench fail loudly:
//!
//! * the wired fast path must perform **zero** payload-byte copies in the
//!   1 Mbps flow's steady state, and
//! * each flow's pkts/s must stay within 10% of the previous same-mode
//!   history entry (the regression gate; skip with `--no-gate` when
//!   measuring on a machine unrelated to the recorded history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin dataplane [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shrinks the flow durations for CI smoke use; quick entries
//! are only ever compared against other quick entries.

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed, INRIA_ADDR};
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;
use umtslab_bench::{median_run, Entry, Row, DATAPLANE};

struct FlowReport {
    label: String,
    sim_seconds: f64,
    packets_forwarded: u64,
    wall_seconds: f64,
    packets_per_sec: f64,
    deep_copies: u64,
    deep_copy_bytes: u64,
    bytes_cloned_per_packet: f64,
}

/// Repetitions per flow; the median wall time wins.
const REPS: usize = 5;

/// One measured repetition of a flow's steady-state window.
fn run_flow_once(spec: FlowSpec, measure: Duration) -> FlowReport {
    let label = spec.label.clone();
    let mut spec = spec;
    // Warmup fills the pipeline and the buffer pool; only the second
    // half of the flow is measured.
    let warmup = Duration::from_secs(2);
    spec.duration = warmup + measure;

    let cfg = ExperimentConfig::paper(spec.clone(), PathKind::EthernetToEthernet, DATAPLANE.seed);
    let mut env = TwoNodeTestbed::build(&cfg);
    let flow_start = env.tb.now() + cfg.settle;
    let dport = spec.dport;
    let tx = env.tb.add_sender(env.napoli, env.umts_slice, spec, INRIA_ADDR, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    // Warm up to steady state, then measure the remaining window.
    env.tb.run_until(flow_start + warmup);
    let copies0 = copy_counters();
    let recv0 = env.tb.receiver_records(rx).len() as u64;
    let wall0 = std::time::Instant::now();

    env.tb.run_until(flow_start + warmup + measure + cfg.drain);

    let wall = wall0.elapsed().as_secs_f64();
    let copies1 = copy_counters();
    let recv1 = env.tb.receiver_records(rx).len() as u64;

    let packets = recv1 - recv0;
    let deep_copies = copies1.copies - copies0.copies;
    let deep_copy_bytes = copies1.bytes - copies0.bytes;
    FlowReport {
        label,
        sim_seconds: measure.total_micros() as f64 / 1e6,
        packets_forwarded: packets,
        wall_seconds: wall,
        packets_per_sec: packets as f64 / wall.max(1e-9),
        deep_copies,
        deep_copy_bytes,
        bytes_cloned_per_packet: deep_copy_bytes as f64 / (packets.max(1)) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let measure = if quick { Duration::from_secs(4) } else { Duration::from_secs(30) };

    println!(
        "dataplane bench: wired two-node path, seed {}, {} mode",
        DATAPLANE.seed,
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>12} {:>10}",
        "flow", "packets", "wall [s]", "pkts/s", "copies", "B/pkt"
    );

    let flows = [FlowSpec::voip_g711(), FlowSpec::cbr_1mbps()];
    let mut reports = Vec::new();
    for spec in flows {
        let r = median_run(REPS, || run_flow_once(spec.clone(), measure), |r| r.wall_seconds);
        println!(
            "{:<12} {:>10} {:>10.3} {:>14.1} {:>12} {:>10.3}",
            r.label,
            r.packets_forwarded,
            r.wall_seconds,
            r.packets_per_sec,
            r.deep_copies,
            r.bytes_cloned_per_packet
        );
        reports.push(r);
    }

    let rows = reports
        .iter()
        .map(|r| {
            Row::new(r.label.as_str(), r.packets_per_sec).with(|o| {
                o.value("sim_seconds", format_args!("{:.3}", r.sim_seconds))
                    .value("packets_forwarded", r.packets_forwarded)
                    .value("wall_seconds", format_args!("{:.6}", r.wall_seconds))
                    .value("deep_copies", r.deep_copies)
                    .value("deep_copy_bytes", r.deep_copy_bytes)
                    .value(
                        "bytes_cloned_per_packet",
                        format_args!("{:.3}", r.bytes_cloned_per_packet),
                    );
            })
        })
        .collect();
    let entry = Entry::new(quick, rows);
    let prior = DATAPLANE.append(&entry);

    // Gate 1: the contract the zero-copy refactor guarantees — once a
    // packet is emitted, the wired forwarding path never copies its
    // payload bytes.
    let cbr = reports.iter().find(|r| r.label == "cbr-1mbps").expect("cbr flow ran");
    assert!(cbr.packets_forwarded > 0, "cbr flow forwarded no packets");
    if cbr.deep_copies != 0 {
        eprintln!(
            "FAIL: wired cbr-1mbps steady state performed {} payload copies ({} B)",
            cbr.deep_copies, cbr.deep_copy_bytes
        );
        std::process::exit(1);
    }
    println!("zero-copy invariant holds: 0 payload byte copies in steady state");

    // Gate 2: throughput must not regress more than 10% against the last
    // same-mode trajectory entry.
    if gate {
        DATAPLANE.gate(&prior, &entry);
    }
}
