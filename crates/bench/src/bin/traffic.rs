//! Traffic-library benchmark: TCP cells per wall-clock second.
//!
//! Drives the INRIA switching-policy experiment (one congestion-
//! controlled `umtslab_traffic::TcpFlow` on the UMTS uplink per
//! FACH/DCH policy preset) as a fixed four-cell sweep and reports
//!
//! * **delivered TCP segments per wall-clock second** — the traffic
//!   stack's end-to-end cost per acknowledged segment, summed over the
//!   whole policy sweep; and
//! * the sweep's **report hash** (FNV-1a over the canonical per-policy
//!   rows), which must be identical across every repetition — the
//!   determinism gate for the flow library.
//!
//! Results are a **trajectory**: each run appends an entry (git
//! revision, mode, one `sweep` row carrying the per-policy results) to
//! the `history` array of `BENCH_traffic.json` in the shared
//! [`umtslab_bench`] schema, so the committed file records how the
//! traffic stack's throughput evolved. Segments per second must stay
//! within 10% of the previous same-mode entry (skip with `--no-gate` on
//! machines unrelated to the recorded history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin traffic [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shortens the per-cell horizon for CI smoke use; quick
//! entries are only compared against other quick entries.

use umtslab::umtslab_traffic::{report_hash, PolicyReport, SwitchingPolicy};
use umtslab_bench::{median_run, Entry, Row, TRAFFIC};
use umtslab_runner::run_traffic_grid;

/// Repetitions of the sweep; the median wall time wins.
const REPS: usize = 3;

struct SweepReport {
    segments: u64,
    wall_seconds: f64,
    segments_per_sec: f64,
    report_hash: u64,
    rows: Vec<PolicyReport>,
}

/// One serial sweep: the paper's 30 s bulk upload per policy at the
/// bench seed, shortened to 10 s in quick mode.
fn run_once(quick: bool) -> SweepReport {
    let wall0 = std::time::Instant::now();
    let rows = run_traffic_grid(TRAFFIC.seed, 1, if quick { 10 } else { 30 }, None, 1)
        .unwrap_or_else(|e| panic!("traffic cell failed: {e}"));
    let wall = wall0.elapsed().as_secs_f64();
    let segments: u64 = rows.iter().map(|r| r.delivered_segments).sum();
    SweepReport {
        segments,
        wall_seconds: wall,
        segments_per_sec: segments as f64 / wall.max(1e-9),
        report_hash: report_hash(&rows),
        rows,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");

    let horizon = if quick { 10 } else { 30 };
    println!(
        "traffic bench: {} policy cells x {horizon} s TCP horizon, seed {}, {} mode",
        SwitchingPolicy::ALL.len(),
        TRAFFIC.seed,
        if quick { "quick" } else { "full" }
    );

    // The determinism gate: every repetition must hash identically.
    let mut first_hash = None;
    let sweep = median_run(
        REPS,
        || {
            let s = run_once(quick);
            let first = *first_hash.get_or_insert(s.report_hash);
            if s.report_hash != first {
                eprintln!(
                    "FAIL: report hash diverged — 0x{:016x} vs rep 0 0x{first:016x}",
                    s.report_hash
                );
                std::process::exit(1);
            }
            s
        },
        |s| s.wall_seconds,
    );
    for r in &sweep.rows {
        println!("{}", r.row());
    }
    println!(
        "sweep: {} segments in {:.3} s = {:.1} segments/s, report_hash 0x{:016x}",
        sweep.segments, sweep.wall_seconds, sweep.segments_per_sec, sweep.report_hash
    );
    println!("determinism gate holds: identical report hash across {REPS} repetitions");

    assert!(sweep.segments > 0, "traffic sweep delivered no segments");

    let row = Row::new("sweep", sweep.segments_per_sec).with(|o| {
        o.value("segments", sweep.segments)
            .value("wall_seconds", format_args!("{:.6}", sweep.wall_seconds))
            .str("report_hash", &format!("0x{:016x}", sweep.report_hash))
            .array("policies", &sweep.rows, |o, r| {
                o.str("policy", r.policy.name())
                    .value("goodput_bps", r.goodput_bps)
                    .value("delivered_segments", r.delivered_segments)
                    .value("retransmits", r.retransmits)
                    .value("timeouts", r.timeouts)
                    .value("rrc_transitions", r.rrc_transitions);
            });
    });
    let entry = Entry::new(quick, vec![row]);
    let prior = TRAFFIC.append(&entry);

    // Gate: segments/s must not regress more than 10% against the last
    // same-mode trajectory entry.
    if gate {
        TRAFFIC.gate(&prior, &entry);
    }
}
