//! `fleet_voip`: the paper's "every node" aim as an open-loop fleet.
//!
//! Hundreds of UMTS member nodes, each dialed up through the paper's
//! vsys recipe, each sending one G.711 VoIP flow (50 pps × 180 B) to a
//! wired sink that echoes it. The topology is built through the public
//! [`ShardedTestbed`] API, mirroring the scenario of `umtslab::fleet`,
//! split across two shards and driven window by window on a two-thread
//! `run_jobs_mut` pool. This is the only workload that exercises
//! `core::shard`, `net::mailbox`, the window barriers and `runner::pool`,
//! and its set-up is dominated by the members' AT/PPP dial-ups.

use std::sync::atomic::{AtomicU64, Ordering};

use umtslab::fleet::render_metrics_json;
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;
use umtslab::umtslab_sim::ShardScheduler;
use umtslab::{GlobalAgentId, GlobalNodeId, ShardedTestbed};
use umtslab_runner::run_jobs_mut;

use crate::rep::Rep;
use crate::span::Tracer;
use crate::stats::Fnv;

/// The size of one fleet repetition.
#[derive(Debug, Clone)]
pub struct FleetSize {
    /// UMTS member nodes, one VoIP flow each.
    pub members: usize,
    /// Wired sink nodes echoing the flows.
    pub sinks: usize,
    /// Simulated seconds each flow sends for.
    pub seconds: u64,
    /// Topology partitions, each run by a worker thread of its own.
    pub shards: usize,
}

impl FleetSize {
    /// The benchmark's size: 256 members for 12 s on 2 shards, so 2
    /// threads.
    pub fn bench() -> FleetSize {
        FleetSize { members: 256, sinks: 8, seconds: 12, shards: 2 }
    }
}

/// When the dial-ups have settled and the policy routes go in.
const SETTLE: Instant = Instant::from_secs(25);
/// The first flow starts here; flow starts are staggered over one second.
const MEASURE_START: Instant = Instant::from_secs(27);
const STAGGER: Duration = Duration::from_secs(1);
const DRAIN: Duration = Duration::from_secs(3);
/// One timed step of the measured phase: two 6 ms windows, so a step's
/// time keeps the barrier and thread spawns of its windows, and the 13 s
/// measured phase has 1 084 steps per repetition, enough for a p99 with
/// 10 steps beyond it.
const STEP: Duration = Duration::from_millis(12);
/// Packets per second of `FlowSpec::voip_g711`.
const VOIP_PPS: f64 = 50.0;
/// The least share of sent probes that must reach the sinks, and of echoes
/// that must come back. The GPRS-fallback third of the fleet overflows its
/// bearer, so about 18% of probes are lost at every seed; run seeds 0–39
/// gave 0.811–0.824 for both shares.
const MIN_DELIVERED: f64 = 0.80;
const MEMBER_PORT: u16 = 10_000;
const SINK_PORT_BASE: u16 = 1_024;
/// Span names of the per-shard busy intervals, by shard index.
const SHARD_BUSY: [&str; 2] = ["core.window_busy_s.shard0", "core.window_busy_s.shard1"];

struct Fleet {
    tb: ShardedTestbed,
    members: Vec<GlobalNodeId>,
    member_slices: Vec<SliceId>,
    sinks: Vec<GlobalNodeId>,
    sink_slices: Vec<SliceId>,
    senders: Vec<GlobalAgentId>,
    receivers: Vec<GlobalAgentId>,
}

/// The three fleet operators, with fleet-sized disjoint address pools.
fn operator(k: usize) -> OperatorProfile {
    let (mut op, second_octet) = match k % 3 {
        0 => (OperatorProfile::commercial_italy(), 128),
        1 => (OperatorProfile::private_microcell(), 144),
        _ => (OperatorProfile::gprs_fallback(), 160),
    };
    op.pool = Ipv4Cidr::new(Ipv4Address::new(10, second_octet, 0, 0), 12);
    op
}

fn credentials(k: usize) -> Option<Credentials> {
    match k % 3 {
        1 => Some(Credentials::new("onelab", "onelab")),
        _ => Some(Credentials::new("web", "web")),
    }
}

fn build(size: &FleetSize, seed: u64) -> Fleet {
    let mut tb = ShardedTestbed::new(size.shards, seed);
    let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));
    let mut members = Vec::with_capacity(size.members);
    let mut member_slices = Vec::with_capacity(size.members);
    for m in 0..size.members {
        let (hi, lo) = ((m >> 8) as u8, (m & 0xff) as u8);
        let id = tb.add_node(
            format!("member-{m}"),
            Ipv4Address::new(11, hi, lo, 2),
            Ipv4Cidr::new(Ipv4Address::new(11, hi, lo, 0), 24),
            Ipv4Address::new(11, hi, lo, 1),
            access.clone(),
        );
        tb.attach_umts(id, operator(m), DeviceProfile::huawei_e620(), credentials(m));
        let slice = tb.node_mut(id).slices.create("fleet");
        tb.node_mut(id).grant_umts_access(slice);
        members.push(id);
        member_slices.push(slice);
    }
    let mut sinks = Vec::with_capacity(size.sinks);
    let mut sink_slices = Vec::with_capacity(size.sinks);
    for s in 0..size.sinks {
        let host = (s + 1) as u16;
        let id = tb.add_node(
            format!("sink-{s}"),
            Ipv4Address::new(12, 0, (host >> 8) as u8, (host & 0xff) as u8),
            Ipv4Cidr::new(Ipv4Address::new(12, 0, 0, 0), 16),
            Ipv4Address::new(12, 0, 255, 254),
            access.clone(),
        );
        sink_slices.push(tb.node_mut(id).slices.create("sink"));
        sinks.push(id);
    }
    Fleet {
        tb,
        members,
        member_slices,
        sinks,
        sink_slices,
        senders: Vec::new(),
        receivers: Vec::new(),
    }
}

/// Advances the fleet to `horizon` on the worker pool, one worker per
/// shard. With `instrument` and an enabled tracer, every window records
/// its span, each shard's busy interval, and the window accumulators.
fn advance(tb: &mut ShardedTestbed, horizon: Instant, instrument: bool, tr: &mut Tracer) {
    if !(instrument && tr.enabled()) {
        tb.run_until_with(horizon, |shards, end| {
            let workers = shards.len();
            run_jobs_mut(shards, workers, |_, s| s.run_window(end));
        });
        return;
    }
    let origin = tr.origin();
    tb.run_until_with(horizon, |shards, end| {
        let busy: Vec<[AtomicU64; 2]> = shards.iter().map(|_| Default::default()).collect();
        let w0 = tr.now_ns();
        let workers = shards.len();
        run_jobs_mut(shards, workers, |i, s| {
            let a = origin.elapsed().as_nanos() as u64;
            s.run_window(end);
            let b = origin.elapsed().as_nanos() as u64;
            // The scope join orders these stores before the reads below.
            busy[i][0].store(a, Ordering::Relaxed);
            busy[i][1].store(b, Ordering::Relaxed);
        });
        let w1 = tr.now_ns();
        let window = tr.record("core.window", w0, w1);
        let (mut max, mut total) = (0.0f64, 0.0f64);
        for (i, slot) in busy.iter().enumerate() {
            let (a, b) = (slot[0].load(Ordering::Relaxed), slot[1].load(Ordering::Relaxed));
            tr.record_under(window, "core.shard_busy", a, b);
            let s = (b - a) as f64 / 1e9;
            if let Some(name) = SHARD_BUSY.get(i) {
                tr.add(name, s);
            }
            max = max.max(s);
            total += s;
        }
        tr.add("core.windows", 1.0);
        tr.add("core.window_max_busy_s", max);
        tr.add("core.window_mean_busy_s", total / busy.len() as f64);
    });
}

/// Runs one repetition of `fleet_voip`.
pub fn rep(size: &FleetSize, seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let t0 = std::time::Instant::now();
    let mut f = tr.span("core.build", |_| build(size, seed));

    tr.span("core.dial", |tr| {
        tr.span("planetlab.vsys", |_| {
            for (&id, &slice) in f.members.iter().zip(&f.member_slices) {
                f.tb.node_mut(id).vsys_submit(slice, UmtsRequest::Start).expect("vsys start");
            }
        });
        advance(&mut f.tb, SETTLE, false, tr);
    });
    let ppp_up = f.members.iter().filter(|&&id| f.tb.node(id).ppp_addr().is_some()).count();

    tr.span("core.install", |tr| {
        let sink_block = Ipv4Cidr::new(Ipv4Address::new(12, 0, 0, 0), 16);
        tr.span("planetlab.vsys", |_| {
            for (&id, &slice) in f.members.iter().zip(&f.member_slices) {
                f.tb.node_mut(id)
                    .vsys_submit(slice, UmtsRequest::AddDestination(sink_block))
                    .expect("vsys add-destination");
            }
        });
        advance(&mut f.tb, SETTLE + Duration::from_millis(500), false, tr);
        for m in 0..size.members {
            let sink_idx = m % size.sinks;
            let mut spec = FlowSpec::voip_g711();
            spec.duration = Duration::from_secs(size.seconds);
            spec.label = format!("voip-{m}");
            spec.sport = MEMBER_PORT;
            spec.dport = SINK_PORT_BASE + (m / size.sinks) as u16;
            let dport = spec.dport;
            let start = MEASURE_START + Duration::from_micros((m as u64 * 9_973) % 1_000_000);
            let dst = f.tb.node(f.sinks[sink_idx]).eth_addr();
            let tx = f.tb.add_sender(f.members[m], f.member_slices[m], spec, dst, start);
            let rx = f.tb.add_receiver(f.sinks[sink_idx], f.sink_slices[sink_idx], dport, tx, true);
            f.senders.push(tx);
            f.receivers.push(rx);
        }
        advance(&mut f.tb, MEASURE_START, false, tr);
    });
    rep.setup_s = t0.elapsed().as_secs_f64();

    let end = MEASURE_START + Duration::from_secs(size.seconds) + STAGGER;
    let events0 = f.tb.events_processed();
    let copies0 = copy_counters();
    let t1 = std::time::Instant::now();
    tr.span("core.steady", |tr| {
        while f.tb.now() < end {
            let h = (f.tb.now() + STEP).min(end);
            let t = std::time::Instant::now();
            advance(&mut f.tb, h, true, tr);
            rep.steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    });
    rep.measured_s = t1.elapsed().as_secs_f64();
    rep.events = f.tb.events_processed() - events0;
    rep.count_copies(copies0);
    rep.sim_s = end.duration_since(MEASURE_START).as_secs_f64();
    rep.pkts = f.receivers.iter().map(|&rx| f.tb.receiver_records(rx).len() as u64).sum();
    tr.span("core.drain", |tr| advance(&mut f.tb, end + DRAIN, false, tr));

    check(&f, size, ppp_up, &mut rep);
    rep
}

/// Output checks, counters and the witness hash of a finished fleet.
fn check(f: &Fleet, size: &FleetSize, ppp_up: usize, rep: &mut Rep) {
    let mut hash = Fnv::default();
    let (mut sent, mut rtts, mut received) = (0usize, 0usize, 0usize);
    let mut short_flows = 0usize;
    let expected = VOIP_PPS * size.seconds as f64;
    for &tx in &f.senders {
        let (s, r) = f.tb.sender_logs(tx);
        sent += s.len();
        rtts += r.len();
        if (s.len() as f64 - expected).abs() > 1.0 {
            short_flows += 1;
        }
        for rec in s {
            hash.u64(u64::from(rec.seq));
            hash.u64(rec.tx.total_micros());
        }
        for rec in r {
            hash.u64(u64::from(rec.seq));
            hash.u64(rec.rtt.total_micros());
        }
    }
    for &rx in &f.receivers {
        let records = f.tb.receiver_records(rx);
        received += records.len();
        for rec in records {
            hash.u64(u64::from(rec.seq));
            hash.u64(rec.rx.total_micros());
        }
    }
    let metrics = f.tb.metrics();
    hash.bytes(render_metrics_json(&metrics).as_bytes());
    rep.hash = hash.finish();

    rep.attempted = size.members as u64;
    rep.failed = (size.members - ppp_up) as u64;
    rep.check(
        format!("{ppp_up}/{} members dialed up by settle", size.members),
        ppp_up == size.members,
    );
    rep.check(
        format!("every flow sent {expected} packets ({short_flows} did not)"),
        short_flows == 0,
    );
    let delivered = received as f64 / sent.max(1) as f64;
    rep.check(
        format!("sinks received {received} of {sent} probes ({delivered:.4} >= {MIN_DELIVERED})"),
        delivered >= MIN_DELIVERED,
    );
    let echoed = rtts as f64 / sent.max(1) as f64;
    rep.check(
        format!("{rtts} echoes came back over the downlink ({echoed:.4} >= {MIN_DELIVERED})"),
        echoed >= MIN_DELIVERED,
    );
    rep.count_testbed(&metrics);
    rep.count("umts.frames_180", metrics.uplink.offered as f64);
    rep.count_flow(sent, received, rtts);
    rep.count("fleet.members", size.members as f64);
    rep.count("fleet.agents", (f.senders.len() + f.receivers.len()) as f64);
}
