//! The testbed: nodes, access links and the internet core.
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
//! There is one front end and two models. [`Testbed::new`] is the serial
//! model: one engine over a local core link and one master random stream
//! that seeds every attachment, sender and supervisor in creation order.
//! [`Testbed::sharded`] partitions the nodes across N engines that
//! exchange packets through mailboxes ([`crate::shard`]), with every seed
//! derived from the entity's global index. Both run the same per-node
//! event loop, and [`NodeId`]/[`AgentId`] hold global indices in both.

use std::collections::BTreeMap;
use std::sync::Arc;

use umtslab_ditg::{FlowSpec, RecvRecord, RttRecord, SentRecord, TrafficSender};
use umtslab_net::label::Label;
use umtslab_net::link::{LinkConfig, LinkSchedule, LinkStats};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::rng::SimRng;
use umtslab_sim::shard::{drive, run_serial};
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::{SessionSupervisor, SupervisorConfig};
use umtslab_traffic::{AdaptiveConfig, AdaptiveSender, TcpConfig, TcpFlow, TcpStats};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::UmtsAttachment;
use umtslab_umts::bearer::BearerStats;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;
use umtslab_umts::RrcDwell;

use crate::engine::{CoreLink, Engine, SenderAgent, DOMAIN_ATTACH, DOMAIN_FLOW, DOMAIN_SUPERVISOR};
use crate::shard::{exchange, publish_routes, RouteTables, Shard};

/// Handle to a node of a [`Testbed`] (its global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Handle to a traffic agent of a [`Testbed`] (its global index).
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
/// This is what one experiment reports in its runner `JobRow`; see
/// `docs/METRICS.md` for the meaning, unit and emitting
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
    /// into a topology total and jobs into a campaign total.
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
fn carve_subscriber(subscribers: &mut BTreeMap<Label, u32>, operator: &mut OperatorProfile) {
    let index = subscribers.entry(Label::intern(&operator.name)).or_insert(0);
    if let Some(slice) = operator.pool.subnet(24, *index) {
        operator.pool = slice;
    }
    *index += 1;
}

/// The simulated testbed: one front end over the engines of either model.
///
/// The testbed hands out global node and agent handles, works out flow
/// ids, and asks the engine owning an entity for its seed; the engine's
/// random-stream policy decides what that seed is.
pub struct Testbed {
    shards: Vec<Shard>,
    /// (shard, local index) of every agent, in creation order.
    agents: Vec<(usize, usize)>,
    /// Nodes added so far (the next node's global index).
    nodes: usize,
    routes: RouteTables,
    routes_dirty: bool,
    /// Subscribers attached per operator name (global carve order).
    operator_subscribers: BTreeMap<Label, u32>,
    /// Minimum access-link delay seen so far; part of the lookahead.
    min_access_delay: Option<Duration>,
}

impl Testbed {
    /// One-way latency of the operator-edge→core hop taken by UMTS uplink
    /// traffic in the sharded model. Explicit (the serial model uses
    /// zero) so the conservative lookahead stays positive.
    pub const CORE_HOP: Duration = Duration::from_millis(6);

    /// Creates an empty serial testbed with a master seed.
    pub fn new(seed: u64) -> Testbed {
        Testbed::over(vec![Shard::serial(seed)])
    }

    /// Creates an empty testbed partitioned across `nshards` engines.
    pub fn sharded(nshards: usize, seed: u64) -> Testbed {
        assert!(nshards >= 1, "at least one shard");
        Testbed::over((0..nshards).map(|s| Shard::partition(s, nshards, seed)).collect())
    }

    fn over(shards: Vec<Shard>) -> Testbed {
        Testbed {
            shards,
            agents: Vec::new(),
            nodes: 0,
            routes: RouteTables::default(),
            routes_dirty: true,
            operator_subscribers: BTreeMap::new(),
            min_access_delay: None,
        }
    }

    /// Current simulated time (all engines agree between runs).
    pub fn now(&self) -> Instant {
        self.shards[0].engine.now()
    }

    /// The conservative window width. A local core link never stages a
    /// handoff, so the serial model's lookahead is unbounded and every
    /// run is one window; the sharded model's is `min(access delay, core
    /// hop)`, since every cross-node path crosses at least one of the two.
    pub fn lookahead(&self) -> Duration {
        match self.shards[0].engine.core {
            CoreLink::Local => Duration::MAX,
            CoreLink::Mailbox(_) => {
                self.min_access_delay.map_or(Self::CORE_HOP, |d| d.min(Self::CORE_HOP))
            }
        }
    }

    /// The engine owning `node`, and the node's index there.
    fn engine(&self, node: NodeId) -> (&Engine, usize) {
        let n = self.shards.len();
        (&self.shards[node.0 % n].engine, node.0 / n)
    }

    /// The engine owning `node` for mutation, and the node's index there.
    /// The node counts as touched: the next run re-arms it.
    fn engine_mut(&mut self, node: NodeId) -> (&mut Engine, usize) {
        let n = self.shards.len();
        let (engine, local) = (&mut self.shards[node.0 % n].engine, node.0 / n);
        engine.touch(local);
        (engine, local)
    }

    /// The engine holding agent `id`, and the agent's index there.
    fn agent(&self, id: AgentId) -> (&Engine, usize) {
        let (shard, local) = self.agents[id.0];
        (&self.shards[shard].engine, local)
    }

    /// Adds a node with a configured `eth0` and an access link to the
    /// internet core. The access link models the whole node↔core path
    /// (campus network + research backbone share). Nodes are assigned to
    /// shards round-robin by global index.
    pub fn add_node(
        &mut self,
        name: impl Into<Label>,
        eth_addr: Ipv4Address,
        subnet: Ipv4Cidr,
        gateway: Ipv4Address,
        access: LinkConfig,
    ) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        self.min_access_delay =
            Some(self.min_access_delay.map_or(access.delay, |d| d.min(access.delay)));
        assert!(self.lookahead() > Duration::ZERO, "sharded access links need positive delay");
        self.routes.eth.insert(u32::from_be_bytes(eth_addr.0), id.0 as u32);
        self.routes_dirty = true;
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        let (engine, _) = self.engine_mut(id);
        engine.add_node(node, access, id.0);
        id
    }

    /// Installs a 3G card + operator attachment on a node, carving the
    /// subscriber's `/24` by global attach order.
    pub fn attach_umts(
        &mut self,
        node: NodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        carve_subscriber(&mut self.operator_subscribers, &mut operator);
        let raw24 = u32::from_be_bytes(operator.pool.address().0) >> 8;
        self.routes.umts24.insert(raw24, node.0 as u32);
        self.routes_dirty = true;
        let now = self.now();
        let (engine, local) = self.engine_mut(node);
        let seed = engine.streams.entity_seed(DOMAIN_ATTACH, node.0);
        let att = UmtsAttachment::new(operator, device, credentials, seed, now);
        engine.node_mut(local).attach_umts(att);
    }

    /// Installs a session supervisor (the pppd watchdog daemon) for
    /// `slice` on `node`, replacing any previous one.
    pub fn attach_supervisor(&mut self, node: NodeId, slice: SliceId, config: SupervisorConfig) {
        let (engine, local) = self.engine_mut(node);
        let rng = SimRng::seed_from_u64(engine.streams.entity_seed(DOMAIN_SUPERVISOR, node.0));
        engine.attach_supervisor(local, SessionSupervisor::new(slice, config, rng));
    }

    /// Tells the supervisor on `node` to dial; it redials on its own from
    /// here on. Panics if no supervisor is attached.
    pub fn start_supervisor(&mut self, node: NodeId) {
        let (engine, local) = self.engine_mut(node);
        engine.start_supervisor(local);
    }

    /// Schedules a fault campaign against `node`'s UMTS stack; due faults
    /// are injected as the simulation crosses their instants.
    pub fn schedule_faults(&mut self, node: NodeId, plan: FaultPlan) {
        let (engine, local) = self.engine_mut(node);
        engine.schedule_faults(local, plan);
    }

    /// The supervisor attached to `node`, if any.
    pub fn supervisor(&self, node: NodeId) -> Option<&SessionSupervisor> {
        let (engine, local) = self.engine(node);
        engine.supervisor(local)
    }

    /// Folds the tail interval into `node`'s supervisor metrics and
    /// returns the availability snapshot.
    pub fn availability(&mut self, node: NodeId) -> Option<AvailabilityMetrics> {
        let (engine, local) = self.engine_mut(node);
        engine.availability(local)
    }

    /// Installs a trace-replay [`LinkSchedule`] on both directions of
    /// `node`'s wired access link, anchored at the current sim time.
    /// Capacity and loss then follow the schedule instead of the static
    /// [`LinkConfig`].
    pub fn set_access_schedule(&mut self, node: NodeId, schedule: Arc<LinkSchedule>) {
        let (engine, local) = self.engine_mut(node);
        engine.set_access_schedule(local, schedule);
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        let (engine, local) = self.engine(id);
        engine.node(local)
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let (engine, local) = self.engine_mut(id);
        engine.node_mut(local)
    }

    /// All nodes in id order (read-only; used by analyzers and reports).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        (0..self.nodes).map(|g| self.node(NodeId(g)))
    }

    /// Installs the sender `make(flow_id, seed)` on `node`/`slice` with
    /// source port `sport`, first departing at `start`.
    fn add_agent(
        &mut self,
        node: NodeId,
        slice: SliceId,
        sport: u16,
        start: Instant,
        make: impl FnOnce(u32, u64) -> SenderAgent,
    ) -> AgentId {
        let id = AgentId(self.agents.len());
        let shard = node.0 % self.shards.len();
        let (engine, local) = self.engine_mut(node);
        // Flow ids count agents from 1.
        let agent = make(id.0 as u32 + 1, engine.streams.entity_seed(DOMAIN_FLOW, id.0));
        let idx = engine.add_sender(local, slice, sport, agent, start);
        self.agents.push((shard, idx));
        id
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`. The
    /// first departure is scheduled at `start`.
    pub fn add_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        self.add_agent(node, slice, spec.sport, start, |flow_id, seed| {
            SenderAgent::OpenLoop(TrafficSender::new(spec, flow_id, dst_addr, start, seed))
        })
    }

    /// Adds a closed-loop congestion-controlled (TCP-ish) sender on
    /// `node`/`slice` toward `dst_addr`. Echo replies arriving on the
    /// bound source port act as acknowledgements and reopen the window.
    ///
    /// The flow is RNG-free, but its seed is still drawn, so adding a TCP
    /// flow does not shift the seeds handed to senders created after it.
    pub fn add_tcp_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: TcpConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        self.add_agent(node, slice, config.sport, start, |flow_id, _| {
            SenderAgent::Tcp(TcpFlow::new(config, flow_id, dst_addr, start))
        })
    }

    /// Adds a deterministic rate-adaptive (video-like) sender on
    /// `node`/`slice` toward `dst_addr`. Like a TCP flow, it draws a seed
    /// it does not use.
    pub fn add_adaptive_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: AdaptiveConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        self.add_agent(node, slice, config.sport, start, |flow_id, _| {
            SenderAgent::Adaptive(AdaptiveSender::new(config, flow_id, dst_addr, start))
        })
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
        let id = AgentId(self.agents.len());
        let shard = node.0 % self.shards.len();
        let (engine, local) = self.engine_mut(node);
        let idx = engine.add_receiver(local, slice, port, of_sender.0 as u32 + 1, echo);
        self.agents.push((shard, idx));
        id
    }

    /// The sender-side logs of an agent (empty for a receiver).
    pub fn sender_logs(&self, id: AgentId) -> (&[SentRecord], &[RttRecord]) {
        let (engine, local) = self.agent(id);
        engine.probe(local).map_or((&[], &[]), |p| (p.sent(), p.rtts()))
    }

    /// The congestion-control counters of a TCP sender, if `id` is one.
    pub fn tcp_stats(&self, id: AgentId) -> Option<TcpStats> {
        let (engine, local) = self.agent(id);
        engine.tcp_stats(local)
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: AgentId) -> &[RecvRecord] {
        let (engine, local) = self.agent(id);
        engine.receiver_records(local)
    }

    /// Drop counters, summed across engines.
    pub fn drops(&self) -> TestbedDrops {
        self.metrics().drops
    }

    /// Total events processed by every engine's scheduler.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_processed()).sum()
    }

    /// Snapshots every layer's counters into one [`TestbedMetrics`],
    /// summed across engines.
    ///
    /// Cheap (a walk over nodes and links copying plain counters), so it
    /// can be taken at any point of a run, not just at the end.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for s in &self.shards {
            m.absorb(&s.engine.metrics());
        }
        m
    }

    /// Summed RRC dwell times over every UMTS attachment (the two-node
    /// experiment has at most one).
    pub fn rrc_dwell_total(&self) -> Option<RrcDwell> {
        let now = self.now();
        let mut total: Option<RrcDwell> = None;
        for att in self.nodes().filter_map(Node::umts_attachment) {
            let d = att.rrc_dwell(now);
            let t = total.get_or_insert_with(Default::default);
            t.idle += d.idle;
            t.fach += d.fach;
            t.dch += d.dch;
            t.dch_upgraded += d.dch_upgraded;
            t.idle_promotions += d.idle_promotions;
            t.idle_promotion_latency += d.idle_promotion_latency;
        }
        total
    }

    /// Runs the simulation until `horizon` (exclusive of later events),
    /// advancing the engines one after another.
    pub fn run_until(&mut self, horizon: Instant) {
        self.run_until_with(horizon, run_serial);
    }

    /// Runs for a relative span.
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }

    /// Runs until `horizon`, letting the caller fan each window out over
    /// the shards (`run(shards, end)` must advance every shard to `end`;
    /// order and parallelism are free). Message exchange happens here, on
    /// the caller's thread, at every boundary. `run` is only called for
    /// windows in which some shard has work; an idle window just moves
    /// the clocks. Every call first arms each node handed out for
    /// mutation since the last run, so node state changed between runs
    /// (a vsys request, say) is picked up.
    pub fn run_until_with(&mut self, horizon: Instant, run: impl FnMut(&mut [Shard], Instant)) {
        for s in &mut self.shards {
            s.engine.prime();
        }
        let from = self.now();
        if horizon <= from {
            return;
        }
        if self.routes_dirty {
            self.routes_dirty = false;
            publish_routes(&mut self.shards, &self.routes);
        }
        let lookahead = self.lookahead();
        drive(&mut self.shards, from, horizon, lookahead, run, |shards, _| exchange(shards));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};
    use umtslab_supervisor::supervisor::SupervisorState;

    /// The shard counts a sharded test runs at; 3 partitions the nodes
    /// unevenly.
    pub(crate) const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

    pub(crate) fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    /// Two wired nodes, napoli and inria, on the serial model (`None`) or
    /// on `Some(n)` shards.
    pub(crate) fn wired_pair(model: Option<usize>, seed: u64) -> (Testbed, NodeId, NodeId) {
        let mut tb = model.map_or_else(|| Testbed::new(seed), |n| Testbed::sharded(n, seed));
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

    /// Gives `node` a commercial 3G attachment and a granted slice.
    fn umts_slice(tb: &mut Testbed, node: NodeId) -> SliceId {
        tb.attach_umts(
            node,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let slice = tb.node_mut(node).slices.create("unina_umts");
        tb.node_mut(node).grant_umts_access(slice);
        slice
    }

    /// Past warm-up, every payload a steady echoed flow emits, probe or
    /// echo, reuses a pooled allocation, refcount included; and a payload
    /// that is still shared is never pooled.
    #[test]
    fn steady_emission_reuses_pooled_payloads() {
        use crate::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed};
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(8);
        let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, 1);
        let mut env = TwoNodeTestbed::build(&cfg);
        let flow_start = env.tb.now() + cfg.settle;
        let (tx, _, dport) = env.add_measurement_flow(&cfg, flow_start);
        let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);
        let inria = env.inria;
        let pool_stats = |tb: &mut Testbed| tb.engine_mut(inria).0.pool().stats();

        env.tb.run_until(flow_start + Duration::from_secs(1));
        let ((hits0, misses0), received0) =
            (pool_stats(&mut env.tb), env.tb.receiver_records(rx).len());
        env.tb.run_until(flow_start + Duration::from_secs(6));
        let ((hits1, misses1), received1) =
            (pool_stats(&mut env.tb), env.tb.receiver_records(rx).len());
        let received = (received1 - received0) as u64;
        assert!(received > 200, "only {received} packets in the window");
        assert_eq!(misses1, misses0, "a steady emission allocated a payload");
        // Each received probe is echoed, and the probes were emitted too.
        assert!(hits1 - hits0 >= received, "{} reuses for {received} packets", hits1 - hits0);

        let pool = env.tb.engine_mut(inria).0.pool();
        let payload = pool.filled(180, |b| b[0] = 1);
        let pooled = pool.pooled();
        let shared = payload.clone();
        pool.reclaim(payload);
        assert_eq!(pool.pooled(), pooled, "a shared payload was pooled");
        assert_eq!((shared.len(), shared[0]), (180, 1));
    }

    /// Asserts every sharded run observed the same value.
    pub(crate) fn assert_shard_count_invariant<T: PartialEq + std::fmt::Debug>(runs: &[T]) {
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "shard count changed the result");
    }

    fn mean_rtt_micros(rtts: &[RttRecord]) -> u64 {
        assert!(!rtts.is_empty());
        rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64
    }

    /// Runs a 100 pps wired flow from napoli to inria on the serial model
    /// (`None`) or on `Some(n)` shards, checks it end to end and returns
    /// the receiver's trace.
    pub(crate) fn wired_flow(model: Option<usize>) -> Vec<(u32, Instant)> {
        let (mut tb, n1, n2) = wired_pair(model, 1);
        let s_tx = tb.node_mut(n1).slices.create("tx");
        let s_rx = tb.node_mut(n2).slices.create("rx");
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::from_millis(100));
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_until(Instant::from_secs(5));

        let (sent, rtts) = tb.sender_logs(tx);
        assert_eq!(sent.len(), 200, "100 pps * 2 s on {model:?}");
        let recv = tb.receiver_records(rx);
        assert_eq!(recv.len(), 200, "wired path loses nothing");
        assert_eq!(rtts.len(), 200, "every probe echoed");
        // RTT ≈ 2 × (6 ms + 6 ms) plus serialization.
        let mean_rtt = mean_rtt_micros(rtts);
        assert!((24_000..=32_000).contains(&mean_rtt), "mean rtt {mean_rtt}us");
        assert_eq!(tb.drops(), TestbedDrops::default());
        recv.iter().map(|r| (r.seq, r.rx)).collect()
    }

    /// Dials napoli over 3G on `model`, runs an 80 pps flow to inria over
    /// the UMTS destination route, checks it and returns the sender's and
    /// the receiver's logs.
    pub(crate) fn umts_flow(
        model: Option<usize>,
    ) -> (Vec<SentRecord>, Vec<RttRecord>, Vec<RecvRecord>) {
        let (mut tb, n1, n2) = wired_pair(model, 2);
        let s_umts = umts_slice(&mut tb, n1);
        let s_rx = tb.node_mut(n2).slices.create("rx");

        // Bring the connection up.
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

        // Register the receiver as a UMTS destination.
        let dst = Ipv4Cidr::host(a("138.96.20.10"));
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::AddDestination(dst)).unwrap();
        tb.run_for(Duration::from_millis(100));

        let start = tb.now() + Duration::from_millis(500);
        let spec = FlowSpec::cbr(64_000, 100, Duration::from_secs(3));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_umts, spec, a("138.96.20.10"), start);
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_for(Duration::from_secs(10));

        let (sent, rtts) = tb.sender_logs(tx);
        let recv = tb.receiver_records(rx);
        assert_eq!(sent.len(), 240, "80 pps * 3 s on {model:?}");
        assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
        // RTT includes both radio legs: well above the wired 24 ms.
        let mean_rtt = mean_rtt_micros(rtts);
        assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
        (sent.to_vec(), rtts.to_vec(), recv.to_vec())
    }

    /// Sends a 10 pps flow for 0.2 s to an address no node owns on
    /// `model` and checks that the core counts both packets as drops.
    pub(crate) fn unroutable_flow(model: Option<usize>) {
        let (mut tb, n1, _n2) = wired_pair(model, 3);
        let s = tb.node_mut(n1).slices.create("tx");
        let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
        let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
        tb.run_until(Instant::from_secs(1));
        assert_eq!(tb.drops().core_unroutable, 2, "10 pps * 0.2 s on {model:?}");
    }

    #[test]
    fn wired_flow_end_to_end() {
        wired_flow(None);
    }

    #[test]
    fn umts_flow_end_to_end() {
        umts_flow(None);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        unroutable_flow(None);
    }

    #[test]
    fn every_accessor_works_at_any_shard_count() {
        // A supervised UMTS node streaming adaptive video to a wired sink:
        // the builders and accessors only the serial front end used to
        // have must work, and agree, at every shard count.
        let run = |nshards: usize| {
            let (mut tb, n1, n2) = wired_pair(Some(nshards), 6);
            let s_umts = umts_slice(&mut tb, n1);
            let s_rx = tb.node_mut(n2).slices.create("rx");
            let dst = a("138.96.20.10");
            let config =
                SupervisorConfig { destinations: vec![Ipv4Cidr::host(dst)], ..Default::default() };
            tb.attach_supervisor(n1, s_umts, config);
            tb.start_supervisor(n1);
            tb.run_until(Instant::from_secs(15));

            let video = AdaptiveConfig { duration: Duration::from_secs(6), ..Default::default() };
            let dport = video.dport;
            let start = tb.now() + Duration::from_millis(500);
            let tx = tb.add_adaptive_sender(n1, s_umts, video, dst, start);
            let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
            tb.run_for(Duration::from_secs(10));

            let names: Vec<String> = tb.nodes().map(|n| n.name.to_string()).collect();
            assert_eq!(names, ["napoli", "inria"], "nodes() in id order");
            let state = tb.supervisor(n1).map(SessionSupervisor::state);
            assert_eq!(state, Some(SupervisorState::Up));
            assert!(tb.supervisor(n2).is_none());
            let dwell = tb.rrc_dwell_total().expect("one UMTS attachment");
            assert!(dwell.dch > Duration::ZERO, "the video held a dedicated channel");
            let (sent, _) = tb.sender_logs(tx);
            let recv = tb.receiver_records(rx);
            assert!(!sent.is_empty() && !recv.is_empty(), "the video reached the sink");
            (sent.to_vec(), recv.to_vec(), dwell, tb.metrics())
        };
        let runs: Vec<_> = SHARD_COUNTS.into_iter().map(run).collect();
        assert_shard_count_invariant(&runs);
    }

    #[test]
    fn deterministic_given_seed() {
        let runs: Vec<Vec<(u32, u64)>> = (0..2)
            .map(|_| {
                let (mut tb, n1, n2) = wired_pair(None, 7);
                let s_tx = tb.node_mut(n1).slices.create("tx");
                let s_rx = tb.node_mut(n2).slices.create("rx");
                let spec = FlowSpec::poisson(200.0, 300, Duration::from_secs(2));
                let dport = spec.dport;
                let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
                let rx = tb.add_receiver(n2, s_rx, dport, tx, false);
                tb.run_until(Instant::from_secs(4));
                tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx.total_micros())).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed must reproduce identical traces");
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn two_umts_nodes_on_one_operator_get_disjoint_addresses() {
        let (mut tb, n1, n2) = wired_pair(None, 9);
        for n in [n1, n2] {
            let s = umts_slice(&mut tb, n);
            tb.node_mut(n).vsys_submit(s, UmtsRequest::Start).unwrap();
        }
        tb.run_until(Instant::from_secs(20));
        let a1 = tb.node(n1).ppp_addr().expect("node 1 connected");
        let a2 = tb.node(n2).ppp_addr().expect("node 2 connected");
        assert_ne!(a1, a2, "same-operator subscribers must get distinct addresses");
    }

    #[test]
    fn metrics_snapshot_aggregates_all_layers() {
        let (mut tb, n1, n2) = wired_pair(None, 4);
        let s_umts = umts_slice(&mut tb, n1);
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
}
