//! Determinism integration tests: given the same master seed, the whole
//! stack — dial-up, PPP negotiation, radio bearers, traffic generation —
//! must produce bit-identical results; different seeds must diverge.

use std::sync::Arc;

use umtslab::experiment::{run_experiment, ExperimentConfig, PathKind};
use umtslab::prelude::*;
use umtslab::umtslab_traffic::{TcpConfig, TcpStats, Trace};
use umtslab::{render_metrics_json, Testbed};

fn fingerprint(cfg: ExperimentConfig) -> Vec<(u64, u64)> {
    let r = run_experiment(cfg).unwrap();
    r.series
        .points
        .iter()
        .map(|p| {
            (
                p.bitrate_bps.to_bits(),
                p.rtt.map_or(u64::MAX, |d| d.total_micros()) ^ (p.lost << 32) ^ p.received,
            )
        })
        .collect()
}

fn short_cfg(path: PathKind, seed: u64) -> ExperimentConfig {
    let mut spec = FlowSpec::cbr_1mbps();
    spec.duration = Duration::from_secs(8);
    ExperimentConfig::paper(spec, path, seed)
}

#[test]
fn same_seed_reproduces_umts_run_exactly() {
    let a = fingerprint(short_cfg(PathKind::UmtsToEthernet, 42));
    let b = fingerprint(short_cfg(PathKind::UmtsToEthernet, 42));
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn same_seed_reproduces_wired_run_exactly() {
    let a = fingerprint(short_cfg(PathKind::EthernetToEthernet, 42));
    let b = fingerprint(short_cfg(PathKind::EthernetToEthernet, 42));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge_on_the_radio_path() {
    // The UMTS path is stochastic (jitter, BLER): different seeds must
    // yield different series.
    let a = fingerprint(short_cfg(PathKind::UmtsToEthernet, 1));
    let b = fingerprint(short_cfg(PathKind::UmtsToEthernet, 2));
    assert_ne!(a, b, "distinct seeds should not collide");
}

#[test]
fn supervised_chaos_lifecycle_is_deterministic() {
    use umtslab::chaos::{run_chaos_campaign, ChaosConfig};

    // The full supervised chaos campaign: session faults, redials,
    // backoff jitter, availability accounting. Two runs from the same
    // seed must agree on every lifecycle marker (kind *and* timestamp)
    // and on the availability counters, bit for bit.
    let run = |seed| {
        let r = run_chaos_campaign(&ChaosConfig::paper(seed), |_, _, _| {});
        (r.lifecycle, r.availability, r.summary.received)
    };
    let (lifecycle_a, avail_a, recv_a) = run(2022);
    let (lifecycle_b, avail_b, recv_b) = run(2022);
    assert_eq!(lifecycle_a, lifecycle_b, "lifecycle marker trails diverged");
    assert_eq!(avail_a, avail_b, "availability metrics diverged");
    assert_eq!(recv_a, recv_b);

    // The trail must exercise all three session-lifecycle trace kinds.
    let kinds: Vec<&str> = lifecycle_a.iter().map(|(_, k)| k.as_str()).collect();
    for want in ["session-up", "session-down", "redial-scheduled"] {
        assert!(kinds.contains(&want), "campaign never emitted {want}: {kinds:?}");
    }

    // And a different seed draws a different fault schedule, so the
    // marker trail must diverge.
    let (lifecycle_c, _, _) = run(2023);
    assert_ne!(lifecycle_a, lifecycle_c, "distinct seeds should not collide");
}

#[test]
fn trace_dumps_are_byte_identical_across_same_seed_runs() {
    use umtslab::experiment::TwoNodeTestbed;
    use umtslab::umtslab_sim::Fnv1a;
    use umtslab::INRIA_ADDR;

    // Stronger than fingerprint equality: the rendered packet traces of
    // both nodes must be *byte-identical* between two same-seed runs.
    // This guards the label interning introduced by the zero-copy data
    // plane — interning must never reorder, rename, or reformat trace
    // events (e.g. by depending on intern order or map iteration).
    fn traced_run(seed: u64) -> u64 {
        let cfg = short_cfg(PathKind::EthernetToEthernet, seed);
        let mut env = TwoNodeTestbed::build(&cfg);
        env.tb.node_mut(env.napoli).trace.set_enabled(true);
        env.tb.node_mut(env.inria).trace.set_enabled(true);

        let flow_start = env.tb.now() + cfg.settle;
        let spec = cfg.spec.clone();
        let duration = spec.duration;
        let dport = spec.dport;
        let tx = env.tb.add_sender(env.napoli, env.umts_slice, spec, INRIA_ADDR, flow_start);
        let _rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);
        env.tb.run_until(flow_start + duration + cfg.drain);

        let mut dump = env.tb.node(env.napoli).trace.dump();
        dump.push_str(&env.tb.node(env.inria).trace.dump());
        assert!(!dump.is_empty(), "trace must record events");

        let mut h = Fnv1a::new();
        h.update(dump.as_bytes());
        h.digest()
    }

    let a = traced_run(7);
    let b = traced_run(7);
    assert_eq!(a, b, "trace dumps diverged between same-seed runs");
}

#[test]
fn bound_ports_iterate_in_numeric_port_order() {
    use umtslab::experiment::TwoNodeTestbed;

    // The socket table used to be hash-ordered; after the ordered-map
    // migration, bound_ports must list ports numerically no matter the
    // bind order, and stay ordered through unbind/rebind churn.
    let cfg = short_cfg(PathKind::EthernetToEthernet, 3);
    let mut env = TwoNodeTestbed::build(&cfg);
    let slice = env.umts_slice;
    let node = env.tb.node_mut(env.napoli);
    for port in [9200u16, 53, 8080, 443, 7001] {
        node.bind(slice, port).unwrap();
    }
    node.unbind(8080);
    node.bind(slice, 61).unwrap();

    let ports: Vec<u16> = node.bound_ports().iter().map(|&(p, _)| p).collect();
    assert_eq!(ports, vec![53, 61, 443, 7001, 9200]);
}

#[test]
fn same_operator_subscribers_dial_deterministically() {
    // Two nodes attached to the *same* operator exercise the per-operator
    // subscriber table (also previously hash-ordered): each subscriber
    // must get a disjoint pool slice, and the whole double-dial must be
    // bit-reproducible across same-seed builds.
    fn double_dial(seed: u64) -> Vec<Option<Ipv4Address>> {
        let cfg = short_cfg(PathKind::UmtsToEthernet, seed);
        let mut tb = Testbed::new(seed);
        let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));
        let mut nodes = Vec::new();
        for (name, last) in [("planetlab1.unina.it", 5u8), ("planetlab2.unina.it", 6u8)] {
            let addr = Ipv4Address([143, 225, 229, last]);
            let id = tb.add_node(
                name,
                addr,
                Ipv4Cidr::new(addr, 24),
                Ipv4Address([143, 225, 229, 1]),
                access.clone(),
            );
            tb.attach_umts(id, cfg.operator.clone(), cfg.device.clone(), cfg.credentials.clone());
            let slice = tb.node_mut(id).slices.create("unina_umts");
            tb.node_mut(id).grant_umts_access(slice);
            tb.node_mut(id).vsys_submit(slice, UmtsRequest::Start).unwrap();
            nodes.push(id);
        }
        tb.run_for(Duration::from_secs(120));
        nodes.iter().map(|&id| tb.node(id).ppp_addr()).collect()
    }

    let a = double_dial(11);
    let b = double_dial(11);
    assert_eq!(a, b, "same-seed double dial diverged");
    assert!(a[0].is_some() && a[1].is_some(), "both subscribers must come up: {a:?}");
    assert_ne!(a[0], a[1], "same-operator subscribers must get disjoint addresses");
}

#[test]
fn fleet_topology_is_shard_count_invariant() {
    use umtslab::fleet::{run_fleet, FleetConfig};

    // The sharded-core contract: partitioning one coupled topology
    // across N deterministic schedulers must never change results. The
    // trace hash folds every sender log, RTT sample, receiver record,
    // rendered metrics document and per-node packet trace — all of it
    // must be byte-identical at shard counts 1, 2, 4 and 8.
    let reference = run_fleet(&FleetConfig::small());
    assert!(reference.sent > 0, "fleet must carry traffic");
    for shards in [2usize, 4, 8] {
        let mut cfg = FleetConfig::small();
        cfg.shards = shards;
        let r = run_fleet(&cfg);
        assert_eq!(r.trace_hash, reference.trace_hash, "trace hash diverged at {shards} shard(s)");
        assert_eq!(
            r.metrics_json, reference.metrics_json,
            "metrics document diverged at {shards} shard(s)"
        );
    }

    // And a different seed must actually move the hash — otherwise the
    // invariance above would be vacuous.
    let mut other = FleetConfig::small();
    other.seed ^= 0xdead_beef;
    assert_ne!(run_fleet(&other).trace_hash, reference.trace_hash);
}

#[test]
fn connect_time_is_deterministic() {
    let t1 = run_experiment(short_cfg(PathKind::UmtsToEthernet, 9)).unwrap().connect_time;
    let t2 = run_experiment(short_cfg(PathKind::UmtsToEthernet, 9)).unwrap().connect_time;
    assert_eq!(t1, t2);
    assert!(t1.is_some());
}

// --- pinned absolute digests ------------------------------------------
//
// Run-twice and shard-count comparisons cannot see a change that moves
// both sides alike (a reordered event, an extra RNG draw); an absolute
// digest does. The pins are entries of the committed `WITNESSES` file.

const WITNESSES: &str = include_str!("../WITNESSES");

#[test]
fn serial_paper_campaign_digest_is_pinned() {
    umtslab_runner::witnesses::check(WITNESSES, "paper.digest").unwrap();
}

#[test]
fn supervised_chaos_campaign_digest_is_pinned() {
    umtslab_runner::witnesses::check(WITNESSES, "chaos.digest").unwrap();
}

// --- one engine, any partition ------------------------------------------
//
// The serial testbed and every shard run the same engine, so closed-loop
// flows, trace replay and supervised fault campaigns must come out of the
// sharded core byte-identical at any shard count.

/// Everything a run of [`supervised_tcp_topology`] observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Debug rendering of every sender and receiver log, in agent order.
    logs: Vec<String>,
    tcp: TcpStats,
    availability: Vec<AvailabilityMetrics>,
    metrics_json: String,
}

/// Three supervised UMTS members dialing through a seeded fault
/// campaign (on members 1 and 2), one TCP flow from member 0 and
/// echoed CBR probes from members 1 and 2, all toward one wired sink
/// whose access link replays the drive trace.
fn supervised_tcp_topology(nshards: usize) -> Observed {
    let mut tb = Testbed::sharded(nshards, 41);
    let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));
    let sink_addr = umtslab::INRIA_ADDR;
    let mut members = Vec::new();
    for m in 0..3u8 {
        let id = tb.add_node(
            format!("member-{m}"),
            Ipv4Address::new(11, 0, m, 2),
            Ipv4Cidr::new(Ipv4Address::new(11, 0, m, 0), 24),
            Ipv4Address::new(11, 0, m, 1),
            access.clone(),
        );
        tb.attach_umts(
            id,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        members.push(id);
    }
    let sink = tb.add_node(
        "inria",
        sink_addr,
        Ipv4Cidr::new(Ipv4Address::new(138, 96, 20, 0), 24),
        Ipv4Address::new(138, 96, 20, 1),
        access,
    );
    let trace =
        Trace::parse(include_str!("../traces/umts_drive.csv")).expect("committed trace parses");
    tb.set_access_schedule(sink, Arc::new(trace.to_schedule()));
    let sink_slice = tb.node_mut(sink).slices.create("sink");

    let supervisor = SupervisorConfig {
        destinations: vec![Ipv4Cidr::host(sink_addr)],
        ..SupervisorConfig::default()
    };
    let campaign = CampaignConfig {
        start: Instant::from_secs(20),
        horizon: Instant::from_secs(40),
        mean_gap: Duration::from_secs(8),
        mix: vec![SessionFault::PppTerminate, SessionFault::ModemHang, SessionFault::RrcRelease],
    };
    let mut slices = Vec::new();
    for (m, &id) in members.iter().enumerate() {
        let slice = tb.node_mut(id).slices.create("umts");
        tb.node_mut(id).grant_umts_access(slice);
        tb.attach_supervisor(id, slice, supervisor.clone());
        if m > 0 {
            tb.schedule_faults(id, FaultPlan::seeded(m as u64, &campaign));
        }
        tb.start_supervisor(id);
        slices.push(slice);
    }

    let tcp_config = TcpConfig { duration: Duration::from_secs(10), ..TcpConfig::default() };
    let dport = tcp_config.dport;
    let tcp =
        tb.add_tcp_sender(members[0], slices[0], tcp_config, sink_addr, Instant::from_secs(15));
    let mut agents = vec![tcp, tb.add_receiver(sink, sink_slice, dport, tcp, true)];
    for m in 1..3 {
        let mut spec = FlowSpec::cbr(8_000, 20, Duration::from_secs(90));
        spec.sport = 10_000 + m as u16;
        spec.dport = 11_000 + m as u16;
        let dport = spec.dport;
        let tx = tb.add_sender(members[m], slices[m], spec, sink_addr, Instant::from_secs(15));
        agents.push(tx);
        agents.push(tb.add_receiver(sink, sink_slice, dport, tx, true));
    }
    tb.run_until(Instant::from_secs(120));

    let logs = agents
        .iter()
        .map(|&id| {
            let (sent, rtts) = tb.sender_logs(id);
            format!("{sent:?}{rtts:?}{:?}", tb.receiver_records(id))
        })
        .collect();
    Observed {
        logs,
        tcp: tb.tcp_stats(tcp).expect("agent 0 is the TCP flow"),
        availability: members.iter().map(|&m| tb.availability(m).unwrap()).collect(),
        metrics_json: render_metrics_json(&tb.metrics()),
    }
}

#[test]
fn supervised_tcp_trace_topology_is_shard_count_invariant() {
    let reference = supervised_tcp_topology(1);
    assert!(reference.tcp.delivered_segments > 0, "TCP delivered nothing: {:?}", reference.tcp);
    for m in &reference.availability[1..] {
        assert!(m.faults_injected > 0, "a faulted member saw no fault: {m:?}");
        assert!(m.sessions_established >= 2, "the supervisor never recovered: {m:?}");
    }
    for n in [2, 3] {
        let observed = supervised_tcp_topology(n);
        assert_eq!(observed.logs, reference.logs, "{n} shard(s): logs");
        assert_eq!(observed.tcp, reference.tcp, "{n} shard(s): TcpStats");
        assert_eq!(observed.availability, reference.availability, "{n} shard(s)");
        assert_eq!(observed.metrics_json, reference.metrics_json, "{n} shard(s)");
    }
}
