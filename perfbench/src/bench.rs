//! Orchestration: repetitions, metric assembly and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use umtslab::umtslab_traffic::Trace;

use crate::fleet::{self, FleetSize};
use crate::micro::{self, NodeState};
use crate::paper::{self, PaperSize};
use crate::rep::Rep;
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::tcp::{self, TcpSize};

/// The least number of repetitions in a run, so that every floor (see
/// [`floor_ms`]) is taken over several and the witness hash is compared
/// across repetitions.
const MIN_REPS: usize = 4;

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("pkts_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("sim_speedup", "ratio"),
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, with units, in report order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.build_s", "s"),
    ("core.dial_s", "s"),
    ("core.install_s", "s"),
    ("core.steady_s", "s"),
    ("core.drain_s", "s"),
    ("core.windows", "count"),
    ("core.window_busy_s.shard0", "s"),
    ("core.window_busy_s.shard1", "s"),
    ("core.barrier_s", "s"),
    ("core.shard_imbalance", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_pkt", "ratio"),
    ("sim.queue_op_ns", "ns"),
    ("net.access_pushed", "count"),
    ("net.access_dropped", "count"),
    ("net.copies_per_pkt", "ratio"),
    ("net.copy_bytes_per_pkt", "B"),
    ("net.link_push_ns", "ns"),
    ("net.route_resolve_ns", "ns"),
    ("net.filter_eval_ns", "ns"),
    ("net.mailbox_ns", "ns"),
    ("umts.uplink_served", "count"),
    ("umts.uplink_overflow", "count"),
    ("umts.rlc_retx", "count"),
    ("umts.downlink_served", "count"),
    ("umts.rrc_transitions", "count"),
    ("umts.ppp_transitions", "count"),
    ("umts.idle_promotions", "count"),
    ("umts.promotion_ms", "ms"),
    ("umts.dial_ms_per_node", "ms"),
    ("umts.ppp_codec_ns_180", "ns"),
    ("umts.ppp_codec_ns_1024", "ns"),
    ("umts.bearer_service_ns_shallow", "ns"),
    ("umts.bearer_service_ns_full", "ns"),
    ("planetlab.vsys_s", "s"),
    ("ditg.sent", "count"),
    ("ditg.received", "count"),
    ("ditg.rtt_samples", "count"),
    ("traffic.segments", "count"),
    ("traffic.retransmits", "count"),
    ("traffic.timeouts", "count"),
    ("traffic.stranded", "count"),
    ("traffic.schedule_lookup_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, many nodes, sharded core on two threads.
    FleetVoip,
    /// Open loop, the paper's four jobs on the serial core.
    PaperCampaign,
    /// Closed loop, TCP transfers across RRC state changes.
    TcpRrc,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::FleetVoip, Workload::PaperCampaign, Workload::TcpRrc];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetVoip => "fleet_voip",
            Workload::PaperCampaign => "paper_campaign",
            Workload::TcpRrc => "tcp_rrc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How many consecutive repetitions one floor spans. The paper's and
    /// the TCP repetitions are single-threaded and short beside the
    /// host's slow phases, which last seconds, so their floors span the
    /// whole run. A fleet step runs on two threads, whose fastest
    /// repetitions are outliers of thread placement, so its floors span
    /// four repetitions and the metrics take the median over groups.
    pub fn floor_group(self) -> usize {
        match self {
            Workload::FleetVoip => 4,
            Workload::PaperCampaign | Workload::TcpRrc => usize::MAX,
        }
    }

    /// Runs one repetition at the benchmark's size.
    pub fn rep(self, seed: u64, tr: &mut Tracer) -> Rep {
        match self {
            Workload::FleetVoip => fleet::rep(&FleetSize::bench(), seed, tr),
            Workload::PaperCampaign => paper::rep(&PaperSize::bench(), seed, tr),
            Workload::TcpRrc => tcp::rep(&TcpSize::bench(), seed, tr),
        }
    }
}

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// What one run printed as its result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted across all repetitions.
    pub attempted: u64,
    /// Operations that failed across all repetitions.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Checks every repetition's outputs; prints the verdicts. Returns
/// `(correct, attempted, failed)`.
fn verify(reps: &[&Rep]) -> (bool, u64, u64) {
    let first = reps.first().map_or(0, |r| r.hash);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (i, r) in reps.iter().enumerate() {
        attempted += r.attempted;
        // A repetition whose outputs differ from the first one's fails
        // every operation it attempted: equal seeds must agree.
        if r.hash == first {
            failed += r.failed;
        } else {
            failed += r.attempted;
            correct = false;
        }
        correct &= r.verdicts.iter().all(|v| v.pass);
        if i == 0 {
            for v in &r.verdicts {
                println!("  [{}] {}", if v.pass { "pass" } else { "FAIL" }, v.name);
            }
        }
    }
    // Equal outputs imply equal step sequences; `floor_ms` relies on it.
    let steps = reps.first().map(|r| r.steps_ms.len());
    let same = reps.iter().all(|r| r.hash == first && Some(r.steps_ms.len()) == steps);
    correct &= same;
    println!(
        "  [{}] witness hash 0x{first:016x} repeats across {} repetitions",
        if same { "pass" } else { "FAIL" },
        reps.len()
    );
    (correct && failed == 0, attempted, failed)
}

/// The host time of each element of `times` at its floor: the fastest
/// time of element `j` across the repetitions. Repetitions replay
/// identical inputs, so step `j` does the same simulated work in each;
/// interference from other tenants of the host only ever adds time, and
/// the floor strips it. It also strips the program's own variable cost
/// within a step, so steps span several scheduler calls (the fleet's
/// two windows, with their barriers and thread spawns) and that cost
/// stays in the figure as an average.
fn floor_ms(reps: &[Rep], times: fn(&Rep) -> &[f64]) -> Vec<f64> {
    let n = reps.iter().map(|r| times(r).len()).min().unwrap_or(0);
    (0..n).map(|j| reps.iter().map(|r| times(r)[j]).fold(f64::INFINITY, f64::min)).collect()
}

/// One group of consecutive repetitions at its floor.
struct Group {
    /// Set-up at its floor.
    setup_s: f64,
    /// Each fixed step's floor, in order.
    steps_ms: Vec<f64>,
    /// The measured phase at its floor: every step's and every gap's.
    phase_s: f64,
}

/// The floors of each group of `size` consecutive repetitions (one group
/// of all of them if there are fewer). The metrics take the median over
/// groups.
fn groups(reps: &[Rep], size: usize) -> Vec<Group> {
    reps.chunks_exact(size.min(reps.len()).max(1))
        .map(|g| {
            let steps_ms = floor_ms(g, |r| &r.steps_ms);
            let gaps_ms = floor_ms(g, |r| &r.gaps_ms);
            let phase_s = (steps_ms.iter().sum::<f64>() + gaps_ms.iter().sum::<f64>()) / 1e3;
            let setup_s = g.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min);
            Group { setup_s, steps_ms, phase_s }
        })
        .collect()
}

/// The median over `groups` of one of their figures.
fn median_of(groups: &[Group], figure: impl Fn(&Group) -> f64) -> f64 {
    median(&groups.iter().map(figure).collect::<Vec<_>>())
}

/// Runs the workload of `args` and prints its report; the caller prints
/// the returned outcome's JSON as the last line.
pub fn run(args: &Args) -> Outcome {
    println!(
        "perfbench {} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut tr = Tracer::new(false);
    let mut reps = vec![args.workload.rep(args.seed, &mut tr)];
    // The first repetition's peak: later ones add only allocator
    // fragmentation, which varies with how worker threads meet arenas.
    let peak_rss = peak_rss_mb();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(args.workload.rep(args.seed, &mut tr));
    }
    let all: Vec<&Rep> = reps.iter().collect();
    let (correct, attempted, failed) = verify(&all);

    let groups = groups(&reps, args.workload.floor_group());
    let measured = median_of(&groups, |g| g.phase_s);
    let p50 = median_of(&groups, |g| percentile(&g.steps_ms, 50.0).0);
    let p99 = median_of(&groups, |g| percentile(&g.steps_ms, 99.0).0);
    let beyond = groups.iter().map(|g| percentile(&g.steps_ms, 99.0).1).min().unwrap_or(0);
    let whole = median(&reps.iter().map(|r| r.measured_s).collect::<Vec<_>>());
    let r = &reps[0];
    let values = [
        r.pkts as f64 / measured,
        r.events as f64 / measured,
        r.sim_s / measured,
        median_of(&groups, |g| g.setup_s),
        p50,
        p99,
        peak_rss,
    ];
    let metrics: Vec<_> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect();
    println!(
        "  {} repetitions of {} pkts, {} events and {} steps ({beyond} beyond p99) in {} groups; \
         measured phase {measured:.6} s at its floor, {whole:.6} s whole (medians)",
        reps.len(),
        r.pkts,
        r.events,
        r.steps_ms.len(),
        groups.len(),
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<14} {value:>16.6} {unit}");
    }
    let ratio = if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 };
    println!("  {:<14} {ratio:>16.6} ratio ({failed} of {attempted} operations)", "failed_ratio");
    if args.workload == Workload::TcpRrc {
        let stranded: f64 = reps.iter().map(|r| r.counter("traffic.stranded")).sum();
        println!(
            "  {:<14} {:>16.6} ratio ({stranded} of {attempted} transfers)",
            "stranded_ratio",
            stranded / attempted.max(1) as f64
        );
    }
    Outcome { correct, attempted, failed, metrics }
}

fn traced(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut tr = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Alternate untraced and traced repetitions so both see the same host
    // conditions; their difference is the tracing overhead.
    while traced.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        tr.set_enabled(false);
        plain.push(args.workload.rep(args.seed, &mut tr));
        tr.set_enabled(true);
        tr.set_run(traced.len() as u32);
        traced.push(args.workload.rep(args.seed, &mut tr));
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let (correct, attempted, failed) = verify(&all);

    let n = traced.len() as f64;
    let rep = &traced[0];
    let mut v = std::collections::BTreeMap::<&str, f64>::new();
    for (metric, span) in [
        ("core.build_s", "core.build"),
        ("core.dial_s", "core.dial"),
        ("core.install_s", "core.install"),
        ("core.steady_s", "core.steady"),
        ("core.drain_s", "core.drain"),
        ("planetlab.vsys_s", "planetlab.vsys"),
    ] {
        v.insert(metric, tr.total_s(span) / n);
    }
    let windows = tr.sum("core.windows");
    v.insert("core.windows", windows / n);
    v.insert("core.window_busy_s.shard0", tr.sum("core.window_busy_s.shard0") / n);
    v.insert("core.window_busy_s.shard1", tr.sum("core.window_busy_s.shard1") / n);
    if windows > 0.0 {
        v.insert(
            "core.barrier_s",
            (tr.total_s("core.steady") - tr.sum("core.window_max_busy_s")) / n,
        );
        v.insert(
            "core.shard_imbalance",
            tr.sum("core.window_max_busy_s") / tr.sum("core.window_mean_busy_s"),
        );
    }
    let pkts = rep.pkts.max(1) as f64;
    v.insert("sim.events", rep.events as f64);
    v.insert("sim.events_per_pkt", rep.events as f64 / pkts);
    v.insert("net.copies_per_pkt", rep.counter("net.copies") / pkts);
    v.insert("net.copy_bytes_per_pkt", rep.counter("net.copy_bytes") / pkts);
    for name in [
        "net.access_pushed",
        "net.access_dropped",
        "umts.uplink_served",
        "umts.uplink_overflow",
        "umts.rlc_retx",
        "umts.downlink_served",
        "umts.rrc_transitions",
        "umts.ppp_transitions",
        "umts.idle_promotions",
        "ditg.sent",
        "ditg.received",
        "ditg.rtt_samples",
        "traffic.segments",
        "traffic.retransmits",
        "traffic.timeouts",
        "traffic.stranded",
    ] {
        v.insert(name, rep.counter(name));
    }
    let promotions = rep.counter("umts.idle_promotions");
    if promotions > 0.0 {
        v.insert("umts.promotion_ms", rep.counter("umts.promotion_us") / promotions / 1e3);
    }
    let dials = rep.counter("umts.dials") + rep.counter("fleet.members");
    if dials > 0.0 {
        v.insert("umts.dial_ms_per_node", tr.total_s("core.dial") / n * 1e3 / dials);
    }

    let measured_s =
        |reps: &[Rep]| median_of(&groups(reps, args.workload.floor_group()), |g| g.phase_s);
    let steady = measured_s(&traced);
    let micro = microbenches(args, rep, windows / n);
    for &(name, ns, ops) in &micro {
        v.insert(name, ns);
        println!(
            "  {name:<32} {ns:>10.1} ns/op x {ops:>10} ops ~ {:>5.1}% of the measured phase",
            ns * ops / 1e9 / steady * 100.0
        );
    }
    v.insert("trace.overhead_pct", (steady / measured_s(&plain) - 1.0) * 100.0);
    v.insert("trace.spans", tr.len() as f64 / n);

    println!("  self time per span name, per traced repetition:");
    for (name, s) in tr.self_times() {
        println!("    {name:<24} {:>12.6} s", s / n);
    }
    let path = format!("perfbench/out/spans-{}-{}.jsonl", args.workload.name(), args.seed);
    match tr.write_jsonl(Path::new(&path)) {
        Ok(()) => println!("  wrote {} spans to {path}", tr.len()),
        Err(e) => println!("  could not write {path}: {e}"),
    }

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    Outcome { correct, attempted, failed, metrics }
}

/// The layer microbenches that apply to the workload, each sized from
/// its counters: `(metric, ns per op, the workload's op count)`.
fn microbenches(args: &Args, rep: &Rep, windows: f64) -> Vec<(&'static str, f64, f64)> {
    let c = |name: &str| rep.counter(name);
    let (payload, live_agents) = match args.workload {
        Workload::FleetVoip => (180, c("fleet.agents") / FleetSize::bench().shards as f64),
        Workload::PaperCampaign | Workload::TcpRrc => (1024, 2.0),
    };
    let sent = c("ditg.sent") + c("traffic.segments");
    let mut out = Vec::new();
    let mut bench = |name, ops: f64, f: &mut dyn FnMut(u64) -> f64| {
        if ops > 0.0 {
            out.push((name, f(ops as u64), ops));
        }
    };
    bench("sim.queue_op_ns", rep.events as f64, &mut |ops| {
        micro::queue_op_ns(live_agents as u64, ops)
    });
    bench("net.link_push_ns", c("net.access_pushed"), &mut |ops| micro::link_push_ns(payload, ops));
    if let Some(node) = NodeState::umts_node(args.seed) {
        bench("net.route_resolve_ns", sent, &mut |ops| micro::route_resolve_ns(&node, ops));
        bench("net.filter_eval_ns", sent, &mut |ops| micro::filter_eval_ns(&node, ops));
    }
    if args.workload == Workload::FleetVoip && windows > 0.0 {
        let handoffs = c("ditg.sent") + c("ditg.received");
        let batch = handoffs / windows / FleetSize::bench().shards as f64;
        bench("net.mailbox_ns", handoffs, &mut |ops| micro::mailbox_ns(batch as u64, ops));
    }
    bench("umts.ppp_codec_ns_180", c("umts.frames_180"), &mut |ops| micro::ppp_codec_ns(180, ops));
    bench("umts.ppp_codec_ns_1024", c("umts.frames_1024"), &mut |ops| {
        micro::ppp_codec_ns(1024, ops)
    });
    let served = c("umts.uplink_served");
    bench("umts.bearer_service_ns_shallow", served, &mut |ops| {
        micro::bearer_service_ns(payload, false, ops)
    });
    if c("umts.uplink_overflow") > 0.0 {
        bench("umts.bearer_service_ns_full", served, &mut |ops| {
            micro::bearer_service_ns(payload, true, ops)
        });
    }
    if args.workload == Workload::TcpRrc {
        let trace = Trace::parse(tcp::DRIVE_TRACE).expect("the committed drive trace parses");
        let schedule = trace.to_schedule();
        bench("traffic.schedule_lookup_ns", c("net.access_pushed"), &mut |ops| {
            micro::schedule_lookup_ns(&schedule, ops)
        });
    }
    out
}
