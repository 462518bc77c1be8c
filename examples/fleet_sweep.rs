//! A seed sweep over the fleet scenario, sharded by `umtslab-runner`.
//!
//! `runner run` drives one large multi-operator fleet; this example
//! repeats a compact two-node fleet (one commercial-UMTS node, one GPRS
//! node, one wired sink) across many seeds in parallel, then prints every
//! run's testbed metrics, one [`umtslab_runner::JobRow`] per seed.
//! Because every job owns its seed and its private [`umtslab::Testbed`],
//! the table is identical for any worker count.
//!
//! After each run the static slice-isolation verifier (`umtslab-verify`)
//! sweeps every node of the job's testbed; the summary table's `verified`
//! column reports the per-job verdict.
//!
//! ```sh
//! cargo run --release -p umtslab-runner --example fleet_sweep [reps] [seconds] [workers]
//! ```

use umtslab::prelude::*;
use umtslab::Testbed;
use umtslab_runner::{default_workers, run_jobs, summary_table, JobRow};

/// Per-run outcome: flow stats, the metrics snapshot and the static
/// isolation verdict over every node in the testbed.
struct RunOutcome {
    loss: f64,
    mean_rtt_ms: f64,
    metrics: umtslab::TestbedMetrics,
    violations: usize,
}

/// One fleet run: dial both 3G nodes, probe the sink, return the flow
/// outcome plus the testbed-wide metrics snapshot.
fn fleet_run(seed: u64, secs: u64) -> RunOutcome {
    let mut tb = Testbed::new(seed);
    let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));

    let sink = tb.add_node(
        "sink.inria.fr",
        Ipv4Address::new(138, 96, 20, 10),
        "138.96.20.0/24".parse().unwrap(),
        Ipv4Address::new(138, 96, 20, 1),
        access.clone(),
    );
    let sink_slice = tb.node_mut(sink).slices.create("sink");

    let fleet: Vec<(&str, OperatorProfile, Credentials)> = vec![
        ("unina", OperatorProfile::commercial_italy(), Credentials::new("web", "web")),
        ("legacy", OperatorProfile::gprs_fallback(), Credentials::new("web", "web")),
    ];

    let mut flows = Vec::new();
    let mut members = Vec::new();
    for (i, (name, operator, creds)) in fleet.into_iter().enumerate() {
        let addr = Ipv4Address::new(10, 10 + i as u8, 0, 2);
        let node = tb.add_node(
            format!("{name}.onelab.eu"),
            addr,
            Ipv4Cidr::new(addr, 24),
            Ipv4Address::new(10, 10 + i as u8, 0, 1),
            access.clone(),
        );
        tb.attach_umts(node, operator, DeviceProfile::option_globetrotter(), Some(creds));
        let slice = tb.node_mut(node).slices.create("umts_exp");
        tb.node_mut(node).grant_umts_access(slice);
        tb.node_mut(node).vsys_submit(slice, UmtsRequest::Start).expect("granted");
        members.push((node, slice));
    }

    tb.run_until(Instant::from_secs(30));

    for (i, (node, slice)) in members.iter().enumerate() {
        tb.node_mut(*node)
            .vsys_submit(
                *slice,
                UmtsRequest::AddDestination(Ipv4Cidr::host(Ipv4Address::new(138, 96, 20, 10))),
            )
            .expect("granted");
        let mut spec = FlowSpec::cbr(64_000, 200, Duration::from_secs(secs));
        spec.sport = 9_000 + (i as u16) * 10;
        spec.dport = 9_001 + (i as u16) * 10;
        let dport = spec.dport;
        let start = tb.now() + Duration::from_millis(500);
        let tx = tb.add_sender(*node, *slice, spec, Ipv4Address::new(138, 96, 20, 10), start);
        let rx = tb.add_receiver(sink, sink_slice, dport, tx, true);
        flows.push((tx, rx));
    }

    tb.run_for(Duration::from_secs(secs + 15));

    let mut sent_total = 0usize;
    let mut recv_total = 0usize;
    let mut rtt_sum = 0.0f64;
    let mut rtt_n = 0usize;
    for (tx, rx) in &flows {
        let (sent, rtts) = tb.sender_logs(*tx);
        sent_total += sent.len();
        recv_total += tb.receiver_records(*rx).len();
        rtt_sum += rtts.iter().map(|r| r.rtt.as_secs_f64()).sum::<f64>();
        rtt_n += rtts.len();
    }
    let loss = (sent_total - recv_total) as f64 / sent_total.max(1) as f64 * 100.0;
    let mean_rtt_ms = if rtt_n == 0 { 0.0 } else { rtt_sum / rtt_n as f64 * 1000.0 };

    // Static isolation sweep over every node of this run's testbed.
    let violations: usize =
        tb.nodes().map(|node| umtslab_verify::verify_node(node).violations.len()).sum();

    RunOutcome { loss, mean_rtt_ms, metrics: tb.metrics(), violations }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| default_workers(reps));

    println!("fleet seed sweep — {reps} run(s) of {secs} s, {workers} worker(s)\n");

    let seeds = umtslab::campaign_seeds(2008, reps);
    let started = std::time::Instant::now();
    let outcomes = run_jobs(seeds.clone(), workers, |_, seed| {
        let job_started = std::time::Instant::now();
        let run = fleet_run(*seed, secs);
        let label = format!("fleet/seed-{seed}");
        let verified = match run.violations {
            0 => "yes".to_string(),
            n => format!("no ({n} violations)"),
        };
        let row = JobRow {
            verified: Some(verified),
            ..JobRow::new(label, *seed, run.metrics, job_started.elapsed())
        };
        (run.loss, run.mean_rtt_ms, run.violations == 0, row)
    });

    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>10}",
        "run", "seed", "loss %", "mean rtt ms", "verified"
    );
    for (i, (seed, (loss, rtt, ok, _))) in seeds.iter().zip(&outcomes).enumerate() {
        println!(
            "{:<8} {:>12} {:>9.1}% {:>14.1} {:>10}",
            i,
            seed,
            loss,
            rtt,
            if *ok { "yes" } else { "no" }
        );
    }

    println!("\n== metrics registry ==");
    let rows: Vec<JobRow> = outcomes.into_iter().map(|(.., row)| row).collect();
    print!("{}", summary_table(&rows));
    println!(
        "\nsharded wall time: {:.2} s (results independent of worker count)",
        started.elapsed().as_secs_f64()
    );
}
