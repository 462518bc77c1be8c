//! The serial testbed: nodes, access links and the internet core.
//!
//! [`Testbed`] wires [`umtslab_planetlab::Node`]s to a simple internet
//! core through per-node access links and hosts the D-ITG traffic agents.
//! It is the layer that corresponds to "Private OneLab": a small set of
//! PlanetLab nodes, one of which carries a 3G card.
//!
//! Topology model: every node's `eth0` connects to the core over a
//! [`DuplexLink`](umtslab_net::link::DuplexLink) (the access +
//! research-network path); the core forwards by destination address to
//! the owning node's access link, or — for addresses assigned by an
//! operator — into that node's UMTS downlink.
//!
//! The event loop itself is the shared [`crate::engine`]; the serial
//! testbed runs it over a local core link and one master random stream
//! that also seeds every attachment, sender and supervisor in creation
//! order.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use umtslab_ditg::{FlowSpec, TrafficSender};
use umtslab_net::label::Label;
use umtslab_net::link::{LinkConfig, LinkStats};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::supervisor::{SessionSupervisor, SupervisorConfig};
use umtslab_traffic::{AdaptiveConfig, AdaptiveSender, TcpConfig, TcpFlow};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::UmtsAttachment;
use umtslab_umts::bearer::BearerStats;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::engine::{CoreLink, Engine, SenderAgent, Streams};

/// Handle to a node of an [`Engine`] (a testbed, or one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Handle to a traffic agent of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub usize);

/// Counters of packets the testbed had to discard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestbedDrops {
    /// No node owns the destination address.
    pub core_unroutable: u64,
    /// The operator firewall refused an inbound packet.
    pub operator_firewall: u64,
    /// The node stack dropped on egress (no route / filter / queue).
    pub node_egress: u64,
    /// The UMTS downlink bearer was not connected / overflowed.
    pub umts_downlink: u64,
}

impl TestbedDrops {
    /// Adds `other`'s counters into these.
    pub(crate) fn absorb(&mut self, other: TestbedDrops) {
        self.core_unroutable += other.core_unroutable;
        self.operator_firewall += other.operator_firewall;
        self.node_egress += other.node_egress;
        self.umts_downlink += other.umts_downlink;
    }
}

/// A point-in-time snapshot of every counter the testbed's layers expose.
///
/// This is what one experiment publishes into the runner's metrics
/// registry; see `docs/METRICS.md` for the meaning, unit and emitting
/// layer of every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestbedMetrics {
    /// Access-link counters, summed over the forward and reverse pipes of
    /// every node's wired access link.
    pub access: LinkStats,
    /// Radio uplink bearer counters, summed over every UMTS attachment.
    pub uplink: BearerStats,
    /// Radio downlink bearer counters, summed over every UMTS attachment.
    pub downlink: BearerStats,
    /// RRC state transitions (Idle/FACH/DCH moves and grant upgrades).
    pub rrc_transitions: u64,
    /// PPP phase transitions (LCP/PAP/IPCP progress and teardowns).
    pub ppp_transitions: u64,
    /// Packets the testbed core had to discard, by cause.
    pub drops: TestbedDrops,
    /// Scheduler events processed (the simulation's cost metric).
    pub events: u64,
}

impl TestbedMetrics {
    /// Adds `other`'s counters into these: the one fold that sums shards
    /// into a topology total and jobs into a registry total.
    pub fn absorb(&mut self, other: &TestbedMetrics) {
        self.access.absorb(other.access);
        self.uplink.absorb(other.uplink);
        self.downlink.absorb(other.downlink);
        self.rrc_transitions += other.rrc_transitions;
        self.ppp_transitions += other.ppp_transitions;
        self.drops.absorb(other.drops);
        self.events += other.events;
    }
}

/// Narrows `operator`'s pool to the next subscriber's disjoint `/24`, as
/// a real GGSN's per-session allocation guarantees: without this, two
/// nodes on one operator would be assigned the same address and the core
/// could not route to either. `subscribers` counts attachments per
/// operator name, keyed by interned label so attaching allocates no
/// lookup string.
pub(crate) fn carve_subscriber(
    subscribers: &mut BTreeMap<Label, u32>,
    operator: &mut OperatorProfile,
) {
    let index = subscribers.entry(Label::intern(&operator.name)).or_insert(0);
    if let Some(slice) = operator.pool.subnet(24, *index) {
        operator.pool = slice;
    }
    *index += 1;
}

/// The simulated testbed: the serial front end of one [`Engine`].
///
/// The testbed works out flow ids and draws every attachment, sender
/// and supervisor seed from its master stream, in creation order; the
/// per-node API (`node`, `metrics`, `sender_logs`, ...) is the engine's,
/// reached through `Deref`.
pub struct Testbed {
    engine: Engine,
    /// Subscribers already attached per operator name.
    operator_subscribers: BTreeMap<Label, u32>,
}

impl Deref for Testbed {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl DerefMut for Testbed {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl Testbed {
    /// Creates an empty testbed with a master seed.
    pub fn new(seed: u64) -> Testbed {
        Testbed {
            engine: Engine::new(CoreLink::Local, Streams::master(seed)),
            operator_subscribers: BTreeMap::new(),
        }
    }

    /// Adds a node with a configured `eth0` and an access link to the
    /// internet core. The access link models the whole node↔core path
    /// (campus network + research backbone share).
    pub fn add_node(
        &mut self,
        name: impl Into<Label>,
        eth_addr: Ipv4Address,
        subnet: Ipv4Cidr,
        gateway: Ipv4Address,
        access: LinkConfig,
    ) -> NodeId {
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        self.engine.add_node(node, access)
    }

    /// Installs a 3G card + operator attachment on a node.
    pub fn attach_umts(
        &mut self,
        node: NodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        carve_subscriber(&mut self.operator_subscribers, &mut operator);
        let seed = self.engine.streams.draw_seed();
        let att = UmtsAttachment::new(operator, device, credentials, seed, self.now());
        self.node_mut(node).attach_umts(att);
    }

    /// Installs a session supervisor (the pppd watchdog daemon) for
    /// `slice` on `node`, replacing any previous one. The supervisor's
    /// backoff jitter is seeded from the testbed's master seed.
    pub fn attach_supervisor(&mut self, node: NodeId, slice: SliceId, config: SupervisorConfig) {
        let rng = SimRng::seed_from_u64(self.engine.streams.draw_seed());
        self.engine.attach_supervisor(node, SessionSupervisor::new(slice, config, rng));
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`. The
    /// first departure is scheduled at `start`.
    ///
    /// The sender's source address is left unspecified so the node's
    /// routing fills it (this is how the UMTS path acquires the `ppp0`
    /// source address).
    pub fn add_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.engine.next_flow_id();
        let seed = self.engine.streams.draw_seed();
        let sport = spec.sport;
        let agent =
            TrafficSender::new(spec, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start, seed);
        self.engine.add_sender(node, slice, sport, SenderAgent::OpenLoop(agent), start)
    }

    /// Adds a closed-loop congestion-controlled (TCP-ish) sender on
    /// `node`/`slice` toward `dst_addr`. Echo replies arriving on the
    /// bound source port act as acknowledgements and reopen the window.
    pub fn add_tcp_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: TcpConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.engine.next_flow_id();
        // Keep the per-sender RNG draw even though the flow itself is
        // RNG-free, so adding a TCP flow does not shift the seeds handed
        // to any open-loop senders created after it.
        let _ = self.engine.streams.draw_seed();
        let sport = config.sport;
        let agent = TcpFlow::new(config, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start);
        self.engine.add_sender(node, slice, sport, SenderAgent::Tcp(agent), start)
    }

    /// Adds a deterministic rate-adaptive (video-like) sender on
    /// `node`/`slice` toward `dst_addr`.
    pub fn add_adaptive_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: AdaptiveConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.engine.next_flow_id();
        let _ = self.engine.streams.draw_seed(); // see add_tcp_sender
        let sport = config.sport;
        let agent = AdaptiveSender::new(config, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start);
        self.engine.add_sender(node, slice, sport, SenderAgent::Adaptive(agent), start)
    }

    /// Adds a traffic receiver on `node`/`slice` listening on `port` for
    /// flow `of_sender`.
    pub fn add_receiver(
        &mut self,
        node: NodeId,
        slice: SliceId,
        port: u16,
        of_sender: AgentId,
        echo: bool,
    ) -> AgentId {
        self.engine.add_receiver(node, slice, port, of_sender.0 as u32 + 1, echo)
    }

    /// Runs the simulation until `horizon` (exclusive of later events).
    /// Every call first arms each node with internal work, so node state
    /// changed between runs (a vsys request, say) is picked up.
    pub fn run_until(&mut self, horizon: Instant) {
        self.engine.prime();
        self.engine.dispatch_until(horizon);
    }

    /// Runs for a relative span.
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn wired_pair(seed: u64) -> (Testbed, NodeId, NodeId) {
        let mut tb = Testbed::new(seed);
        let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));
        let n1 = tb.add_node(
            "napoli",
            a("143.225.229.5"),
            "143.225.229.0/24".parse().unwrap(),
            a("143.225.229.1"),
            access.clone(),
        );
        let n2 = tb.add_node(
            "inria",
            a("138.96.20.10"),
            "138.96.20.0/24".parse().unwrap(),
            a("138.96.20.1"),
            access,
        );
        (tb, n1, n2)
    }

    #[test]
    fn wired_flow_end_to_end() {
        let (mut tb, n1, n2) = wired_pair(1);
        let s_tx = tb.node_mut(n1).slices.create("tx");
        let s_rx = tb.node_mut(n2).slices.create("rx");
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::from_millis(100));
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_until(Instant::from_secs(5));

        let (sent, rtts) = tb.sender_logs(tx);
        assert_eq!(sent.len(), 200); // 100 pps * 2 s
        let recv = tb.receiver_records(rx);
        assert_eq!(recv.len(), 200, "wired path loses nothing");
        // RTT ≈ 2 × (6 ms + 6 ms) plus serialization: between 24 and 30 ms.
        assert_eq!(rtts.len(), 200);
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!((24_000..=32_000).contains(&mean_rtt), "mean rtt {mean_rtt}us");
        assert_eq!(tb.drops(), TestbedDrops::default());
    }

    #[test]
    fn umts_flow_end_to_end() {
        let (mut tb, n1, n2) = wired_pair(2);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("unina_umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");

        // Bring the connection up.
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

        // Register the receiver as a UMTS destination.
        tb.node_mut(n1)
            .vsys_submit(s_umts, UmtsRequest::AddDestination(Ipv4Cidr::host(a("138.96.20.10"))))
            .unwrap();
        tb.run_for(Duration::from_millis(100));

        let start = tb.now() + Duration::from_millis(500);
        let spec = FlowSpec::cbr(64_000, 100, Duration::from_secs(3));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_umts, spec, a("138.96.20.10"), start);
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_for(Duration::from_secs(10));

        let (sent, rtts) = tb.sender_logs(tx);
        let recv = tb.receiver_records(rx);
        assert_eq!(sent.len(), 240); // 80 pps * 3 s
        assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
        // Every received packet came with the ppp0 source address.
        let ppp = tb.node(n1).ppp_addr().unwrap();
        // RTT includes both radio legs: must be well above the wired 24 ms.
        assert!(!rtts.is_empty());
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
        let _ = ppp;
    }

    #[test]
    fn deterministic_given_seed() {
        let runs: Vec<Vec<(u32, u64)>> = (0..2)
            .map(|_| {
                let (mut tb, n1, n2) = wired_pair(7);
                let s_tx = tb.node_mut(n1).slices.create("tx");
                let s_rx = tb.node_mut(n2).slices.create("rx");
                let spec = FlowSpec::poisson(200.0, 300, Duration::from_secs(2));
                let dport = spec.dport;
                let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
                let rx = tb.add_receiver(n2, s_rx, dport, tx, false);
                tb.run_until(Instant::from_secs(4));
                let _ = tx;
                tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx.total_micros())).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed must reproduce identical traces");
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn two_umts_nodes_on_one_operator_get_disjoint_addresses() {
        let (mut tb, n1, n2) = wired_pair(9);
        for n in [n1, n2] {
            tb.attach_umts(
                n,
                OperatorProfile::commercial_italy(),
                DeviceProfile::huawei_e620(),
                Some(Credentials::new("web", "web")),
            );
            let s = tb.node_mut(n).slices.create("umts");
            tb.node_mut(n).grant_umts_access(s);
            tb.node_mut(n).vsys_submit(s, UmtsRequest::Start).unwrap();
        }
        tb.run_until(Instant::from_secs(20));
        let a1 = tb.node(n1).ppp_addr().expect("node 1 connected");
        let a2 = tb.node(n2).ppp_addr().expect("node 2 connected");
        assert_ne!(a1, a2, "same-operator subscribers must get distinct addresses");
    }

    #[test]
    fn metrics_snapshot_aggregates_all_layers() {
        let (mut tb, n1, n2) = wired_pair(4);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        tb.node_mut(n1)
            .vsys_submit(s_umts, UmtsRequest::AddDestination(Ipv4Cidr::host(a("138.96.20.10"))))
            .unwrap();
        let spec = FlowSpec::cbr(64_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let start = tb.now() + Duration::from_millis(200);
        let tx = tb.add_sender(n1, s_umts, spec, a("138.96.20.10"), start);
        let _rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_for(Duration::from_secs(6));

        let m = tb.metrics();
        assert!(m.access.pushed > 0, "wired legs carried traffic");
        assert!(m.uplink.offered > 0, "radio uplink saw the flow");
        assert!(m.uplink.served > 0);
        assert!(m.ppp_transitions >= 4, "LCP/PAP/IPCP walked the phases");
        assert!(m.rrc_transitions >= 1, "the dial promoted out of Idle");
        assert_eq!(m.events, tb.events_processed());
        assert_eq!(m.drops, tb.drops());
        // A snapshot is stable when the simulation has not advanced.
        assert_eq!(m, tb.metrics());
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (mut tb, n1, _n2) = wired_pair(3);
        let s = tb.node_mut(n1).slices.create("tx");
        let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
        let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
        tb.run_until(Instant::from_secs(1));
        assert!(tb.drops().core_unroutable > 0);
    }
}
