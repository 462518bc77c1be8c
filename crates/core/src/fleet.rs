//! The PlanetLab-scale fleet topology: thousands of UMTS nodes, a
//! hundred thousand concurrent probe sessions, one coupled core.
//!
//! This is the scenario the paper's stated aim points at — *every*
//! PlanetLab node with a UMTS interface — built on the sharded model
//! ([`crate::Testbed::sharded`]):
//!
//! * `nodes` member nodes, each with a wired access link **and** a UMTS
//!   attachment (operators cycle over three profiles with fleet-sized
//!   address pools), dialed up through the paper's vsys recipe;
//! * `sinks` wired measurement sinks, the targets of every probe flow;
//! * `flows_per_node` low-rate CBR probe flows per member, all routed
//!   over the UMTS path by an `AddDestination` policy route covering the
//!   sink block, echoed by the sinks for RTT measurement.
//!
//! Every flow is concurrently active for the whole measurement span, so a
//! fleet of 1 024 nodes × 100 flows holds ~102 k concurrent sessions
//! (plus one PPP session per member) in bounded memory: payload buffers
//! recycle through per-shard [`umtslab_net::bytes::BufferPool`]s and each
//! probe log entry is a few plain words.
//!
//! [`run_fleet`] returns a [`FleetReport`] whose `trace_hash` folds every
//! per-flow log, the drop counters and the metrics JSON (written by the
//! shared [`umtslab_sim::json`] writer) into one FNV-1a value: two runs
//! agree on the hash iff they agree on every observable.
//! The determinism suite compares it across shard counts {1, 2, 4, 8};
//! the `fleet.small` and `run.small` witnesses pin it.

use umtslab_ditg::FlowSpec;
use umtslab_net::link::LinkConfig;
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::umtscmd::UmtsRequest;
use umtslab_sim::time::{Duration, Instant};
use umtslab_sim::{json, run_serial, Fnv1a};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::bearer::BearerStats;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::shard::Shard;
use crate::testbed::{AgentId, NodeId, Testbed, TestbedMetrics};

/// Scale knobs of the fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// UMTS member nodes (each dials one PPP session).
    pub nodes: usize,
    /// Probe flows per member, all concurrently active.
    pub flows_per_node: usize,
    /// Wired sink nodes receiving (and echoing) the probes.
    pub sinks: usize,
    /// Shards the topology is partitioned across.
    pub shards: usize,
    /// Measurement span in simulated seconds.
    pub seconds: u64,
    /// Master seed; every entity stream derives from it by global index.
    pub seed: u64,
}

impl FleetConfig {
    /// The demo scale: 1 024 UMTS nodes × 100 flows ≈ 102 k concurrent
    /// probe sessions plus 1 024 PPP sessions.
    pub fn demo() -> FleetConfig {
        FleetConfig {
            nodes: 1_024,
            flows_per_node: 100,
            sinks: 16,
            shards: 1,
            seconds: 10,
            seed: 2_008,
        }
    }

    /// A small instance for tests and CI gates: quick, but still crossing
    /// every path (three operators, echoes, cross-shard handoffs).
    pub fn small() -> FleetConfig {
        FleetConfig { nodes: 12, flows_per_node: 2, sinks: 3, shards: 1, seconds: 2, seed: 7 }
    }

    /// Total probe flows (`nodes * flows_per_node`).
    pub fn flows(&self) -> usize {
        self.nodes * self.flows_per_node
    }

    /// Checks the knobs against what one fleet can address: member
    /// addresses, sink addresses, the per-member and per-sink UDP port
    /// ranges, and at least one node per shard.
    pub fn check(&self) -> Result<(), String> {
        let (nodes, sinks, per) = (self.nodes, self.sinks, self.flows_per_node);
        if !(1..=12_000).contains(&nodes) {
            return Err(format!("nodes must be 1..=12000, got {nodes}"));
        }
        if !(1..60_000).contains(&sinks) {
            return Err(format!("sinks must be 1..=59999, got {sinks}"));
        }
        if !(1..=50_000).contains(&per) {
            return Err(format!("flows per node must be 1..=50000 (member port range), got {per}"));
        }
        if self.flows() / sinks + usize::from(SINK_PORT_BASE) >= 65_535 {
            return Err(format!(
                "{} flows over {sinks} sink(s) exhaust the sink port range; add sinks",
                self.flows()
            ));
        }
        if !(1..=nodes + sinks).contains(&self.shards) {
            return Err(format!("shards must be 1..={}, got {}", nodes + sinks, self.shards));
        }
        Ok(())
    }
}

/// What one fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Member (UMTS) nodes simulated.
    pub nodes: usize,
    /// Wired sink nodes.
    pub sinks: usize,
    /// Concurrent probe sessions (flows).
    pub flows: usize,
    /// Members whose PPP session was up at the end of the settle phase.
    pub ppp_up: usize,
    /// Probe packets sent across all flows.
    pub sent: u64,
    /// Probe packets received at the sinks.
    pub received: u64,
    /// Round trips measured (echo replies that made it back).
    pub rtt_count: u64,
    /// Full cross-layer counter snapshot.
    pub metrics: TestbedMetrics,
    /// FNV-1a over every per-flow log, the drop counters, the
    /// [`render_metrics_json`] rendering of `metrics` and the traced
    /// nodes' dumps: the shard-invariance witness.
    pub trace_hash: u64,
}

/// The three fleet operators: the paper's profiles widened to
/// fleet-sized, mutually disjoint address pools (each `/12` carves 4 096
/// subscriber `/24`s; the stock pools cap out at 128).
fn fleet_operator(k: usize) -> OperatorProfile {
    let (mut op, second_octet) = match k % 3 {
        0 => (OperatorProfile::commercial_italy(), 128),
        1 => (OperatorProfile::private_microcell(), 144),
        _ => (OperatorProfile::gprs_fallback(), 160),
    };
    op.pool = Ipv4Cidr::new(Ipv4Address::new(10, second_octet, 0, 0), 12);
    op
}

/// How many member nodes record full packet traces (hashed into the
/// report; kept small because traces grow with traffic).
const TRACE_NODES: usize = 2;
const SETTLE: Instant = Instant::from_secs(25);
const MEASURE_START: Instant = Instant::from_secs(27);
const DRAIN: Duration = Duration::from_secs(3);
/// First UDP port of the per-member probe source-port range.
const MEMBER_PORT_BASE: u16 = 10_000;
/// First UDP port of the per-sink listen range.
const SINK_PORT_BASE: u16 = 1_024;

struct Fleet {
    tb: Testbed,
    members: Vec<NodeId>,
    senders: Vec<AgentId>,
    receivers: Vec<AgentId>,
}

/// Builds the topology and dials every member (no traffic yet).
fn build(cfg: &FleetConfig) -> Fleet {
    if let Err(e) = cfg.check() {
        panic!("invalid fleet: {e}");
    }
    let mut tb = Testbed::sharded(cfg.shards, cfg.seed);
    let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));

    // Sinks first is tempting but member global indices are the paper's
    // "node i" identity; keep members first so index == member number.
    let mut members = Vec::with_capacity(cfg.nodes);
    for m in 0..cfg.nodes {
        let hi = (m >> 8) as u8;
        let lo = (m & 0xff) as u8;
        let id = tb.add_node(
            format!("member-{m}"),
            Ipv4Address::new(11, hi, lo, 2),
            Ipv4Cidr::new(Ipv4Address::new(11, hi, lo, 0), 24),
            Ipv4Address::new(11, hi, lo, 1),
            access.clone(),
        );
        tb.attach_umts(id, fleet_operator(m), DeviceProfile::huawei_e620(), fleet_credentials(m));
        if m < TRACE_NODES {
            tb.node_mut(id).trace.set_enabled(true);
        }
        members.push(id);
    }
    let mut sinks = Vec::with_capacity(cfg.sinks);
    for s in 0..cfg.sinks {
        let host = (s + 1) as u16;
        let id = tb.add_node(
            format!("sink-{s}"),
            Ipv4Address::new(12, 0, (host >> 8) as u8, (host & 0xff) as u8),
            Ipv4Cidr::new(Ipv4Address::new(12, 0, 0, 0), 16),
            Ipv4Address::new(12, 0, 255, 254),
            access.clone(),
        );
        sinks.push(id);
    }

    // Slices + the paper's vsys recipe: grant, dial, and (after the
    // session is up) one policy route covering the whole sink block.
    let mut member_slices = Vec::with_capacity(cfg.nodes);
    for &id in &members {
        let slice = tb.node_mut(id).slices.create("fleet");
        tb.node_mut(id).grant_umts_access(slice);
        tb.node_mut(id).vsys_submit(slice, UmtsRequest::Start).expect("vsys start");
        member_slices.push(slice);
    }
    let mut sink_slices = Vec::with_capacity(cfg.sinks);
    for &id in &sinks {
        sink_slices.push(tb.node_mut(id).slices.create("sink"));
    }

    tb.run_until(SETTLE);

    let sink_block = Ipv4Cidr::new(Ipv4Address::new(12, 0, 0, 0), 16);
    for (&id, &slice) in members.iter().zip(&member_slices) {
        tb.node_mut(id)
            .vsys_submit(slice, UmtsRequest::AddDestination(sink_block))
            .expect("vsys add-destination");
    }
    tb.run_until(SETTLE + Duration::from_millis(500));

    // Flows: member m, local flow j → global flow f = m * per + j, sink
    // f % sinks, staggered deterministic starts inside one second.
    let per = cfg.flows_per_node;
    let span = Duration::from_secs(cfg.seconds);
    let mut senders = Vec::with_capacity(cfg.flows());
    let mut receivers = Vec::with_capacity(cfg.flows());
    for (m, (&member, &mslice)) in members.iter().zip(&member_slices).enumerate() {
        for j in 0..per {
            let f = m * per + j;
            let sink_idx = f % cfg.sinks;
            let sink = sinks[sink_idx];
            let sport = MEMBER_PORT_BASE + j as u16;
            let dport = SINK_PORT_BASE + (f / cfg.sinks) as u16;
            let mut spec = FlowSpec::cbr(64, 40, span);
            spec.label = format!("probe-{f}");
            spec.sport = sport;
            spec.dport = dport;
            let start =
                MEASURE_START + Duration::from_micros((f as u64).wrapping_mul(9_973) % 1_000_000);
            let dst = tb.node(sink).eth_addr();
            let tx = tb.add_sender(member, mslice, spec, dst, start);
            let rx = tb.add_receiver(sink, sink_slices[sink_idx], dport, tx, true);
            senders.push(tx);
            receivers.push(rx);
        }
    }
    Fleet { tb, members, senders, receivers }
}

/// PAP credentials matching each operator's expectations.
fn fleet_credentials(m: usize) -> Option<Credentials> {
    match m % 3 {
        1 => Some(Credentials::new("onelab", "onelab")),
        _ => Some(Credentials::new("web", "web")),
    }
}

/// Runs the fleet scenario serially (shards advance one after another).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with(cfg, run_serial)
}

/// Runs the fleet scenario with a caller-supplied window runner (e.g. a
/// worker pool fanning the shards out per window). Must produce bytes
/// identical to [`run_fleet`] — parallelism only changes wall time.
pub fn run_fleet_with(
    cfg: &FleetConfig,
    mut run: impl FnMut(&mut [Shard], Instant),
) -> FleetReport {
    let mut fleet = build(cfg);
    let end = MEASURE_START + Duration::from_secs(cfg.seconds) + Duration::from_secs(1) + DRAIN;
    fleet.tb.run_until_with(end, &mut run);
    report(cfg, &mut fleet)
}

fn report(cfg: &FleetConfig, fleet: &mut Fleet) -> FleetReport {
    let tb = &fleet.tb;
    let ppp_up = fleet.members.iter().filter(|&&id| tb.node(id).ppp_addr().is_some()).count();
    let mut hash = Fnv1a::new();
    let mut sent = 0u64;
    let mut rtt_count = 0u64;
    for &tx in &fleet.senders {
        let (s, rtts) = tb.sender_logs(tx);
        sent += s.len() as u64;
        rtt_count += rtts.len() as u64;
        for r in s {
            hash.update_u64(u64::from(r.seq));
            hash.update_u64(r.tx.total_micros());
            hash.update_u64(r.payload as u64);
        }
        for r in rtts {
            hash.update_u64(u64::from(r.seq));
            hash.update_u64(r.rtt.total_micros());
        }
    }
    let mut received = 0u64;
    for &rx in &fleet.receivers {
        let records = tb.receiver_records(rx);
        received += records.len() as u64;
        for r in records {
            hash.update_u64(u64::from(r.seq));
            hash.update_u64(r.tx.total_micros());
            hash.update_u64(r.rx.total_micros());
        }
    }
    let metrics = tb.metrics();
    hash.update(render_metrics_json(&metrics).as_bytes());
    for &id in fleet.members.iter().take(TRACE_NODES) {
        hash.update(tb.node(id).trace.dump().as_bytes());
    }
    FleetReport {
        nodes: cfg.nodes,
        sinks: cfg.sinks,
        flows: cfg.flows(),
        ppp_up,
        sent,
        received,
        rtt_count,
        metrics,
        trace_hash: hash.digest(),
    }
}

/// Renders a [`TestbedMetrics`] snapshot as one deterministic JSON line.
///
/// Field-complete: two snapshots render equal bytes iff they are equal,
/// which is what the shard-invariance gates compare.
pub fn render_metrics_json(m: &TestbedMetrics) -> String {
    json::object(|o| {
        metrics_members(o, m);
        o.value("events", m.events);
    })
}

/// Writes the members of [`render_metrics_json`]'s object except `events`
/// into `o`, for documents that embed the counters in an object of their
/// own (the runner's per-job rows, which place `events` first).
pub fn metrics_members(o: &mut json::Object<'_>, m: &TestbedMetrics) {
    let bearer = |o: &mut json::Object<'_>, b: &BearerStats| {
        o.value("offered", b.offered)
            .value("served", b.served)
            .value("dropped_overflow", b.dropped_overflow)
            .value("dropped_rlc", b.dropped_rlc)
            .value("retransmissions", b.retransmissions)
            .value("outages", b.outages);
    };
    let (a, d) = (&m.access, &m.drops);
    o.object("access", |o| {
        o.value("pushed", a.pushed)
            .value("delivered", a.delivered)
            .value("dropped_queue", a.dropped_queue)
            .value("dropped_loss", a.dropped_loss);
    })
    .object("uplink", |o| bearer(o, &m.uplink))
    .object("downlink", |o| bearer(o, &m.downlink))
    .value("rrc_transitions", m.rrc_transitions)
    .value("ppp_transitions", m.ppp_transitions)
    .object("drops", |o| {
        o.value("core_unroutable", d.core_unroutable)
            .value("operator_firewall", d.operator_firewall)
            .value("node_egress", d.node_egress)
            .value("umts_downlink", d.umts_downlink);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_snapshot_pins_every_byte() {
        let bearer = |k: u64| BearerStats {
            offered: k + 1,
            served: k + 2,
            dropped_overflow: k + 3,
            dropped_rlc: k + 4,
            retransmissions: k + 5,
            outages: k + 6,
        };
        let mut m =
            TestbedMetrics { uplink: bearer(10), downlink: bearer(20), ..Default::default() };
        (m.access.pushed, m.access.delivered, m.access.dropped_queue, m.access.dropped_loss) =
            (1, 2, 3, 4);
        (m.rrc_transitions, m.ppp_transitions, m.events) = (5, 6, 7);
        let d = &mut m.drops;
        (d.core_unroutable, d.operator_firewall, d.node_egress, d.umts_downlink) = (8, 9, 10, 11);
        assert_eq!(
            render_metrics_json(&m),
            r#"{"access": {"pushed": 1, "delivered": 2, "dropped_queue": 3, "dropped_loss": 4}, "uplink": {"offered": 11, "served": 12, "dropped_overflow": 13, "dropped_rlc": 14, "retransmissions": 15, "outages": 16}, "downlink": {"offered": 21, "served": 22, "dropped_overflow": 23, "dropped_rlc": 24, "retransmissions": 25, "outages": 26}, "rrc_transitions": 5, "ppp_transitions": 6, "drops": {"core_unroutable": 8, "operator_firewall": 9, "node_egress": 10, "umts_downlink": 11}, "events": 7}"#
        );
    }

    #[test]
    fn small_fleet_carries_probes_end_to_end() {
        let cfg = FleetConfig::small();
        let report = run_fleet(&cfg);
        assert_eq!(report.nodes, 12);
        assert_eq!(report.flows, 24);
        assert_eq!(report.ppp_up, 12, "every member dialed up");
        assert!(report.sent > 0, "probes were emitted");
        assert!(report.received > 0, "probes reached the sinks");
        assert!(report.rtt_count > 0, "echoes came back over the downlink");
        assert!(report.metrics.uplink.served > 0, "probes rode the radio uplink");
    }

    #[test]
    fn fleet_hash_is_reproducible() {
        let cfg = FleetConfig::small();
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.metrics, b.metrics);
        // A shard count outside {1, 2, 4, 8} regroups the nodes; same
        // hash. Its absolute value is the `fleet.small` witness.
        let three = run_fleet(&FleetConfig { shards: 3, ..cfg });
        assert_eq!(three.trace_hash, a.trace_hash);
    }

    #[test]
    fn fleet_hash_varies_with_seed() {
        let mut cfg = FleetConfig::small();
        let a = run_fleet(&cfg);
        cfg.seed ^= 0xdead_beef;
        let b = run_fleet(&cfg);
        assert_ne!(a.trace_hash, b.trace_hash, "the hash must actually see the traffic");
    }
}
