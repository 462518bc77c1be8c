//! The sharded testbed core: one coupled topology across N schedulers.
//!
//! [`ShardedTestbed`] partitions the nodes of one topology across N
//! [`Shard`]s. Each shard owns an independent [`Scheduler`] plus the full
//! state of its nodes (access links, traffic agents, payload pool);
//! packets that cross the internet core between two nodes — even two
//! nodes of the *same* shard — travel as [`Handoff`]s through per-shard
//! mailboxes, exchanged at conservative window boundaries
//! ([`umtslab_sim::shard::drive`]).
//!
//! ## Shard-count invariance
//!
//! Results are byte-identical for any shard count because nothing a shard
//! computes depends on what the partition looks like:
//!
//! * **randomness** is per entity, never per shard: each node's link
//!   jitter/fault draws come from a private stream seeded by the node's
//!   *global* index, and each UMTS attachment and traffic sender is
//!   seeded the same way ([`umtslab_sim::rng::job_seed`]);
//! * **packet ids** are allocated per node, so an echo reply's id is a
//!   function of the allocating node's history, not of shard layout;
//! * **cross-node traffic** always goes through the mailbox with the
//!   canonical `(at, origin, seq)` merge order — the origin *node* is the
//!   tie-break lane precisely because a node's shard assignment is not
//!   layout-invariant but its global index is;
//! * **window boundaries** sit on fixed multiples of the lookahead
//!   ([`umtslab_sim::shard::window_ends`]), so injection instants do not
//!   move when the shard count or run phasing changes.
//!
//! The conservative lookahead is `min(access link delay, core hop)`: every
//! cross-node path takes at least one access-link traversal (or the
//! operator-edge→core hop for UMTS uplinks), so a handoff produced in
//! window `k` is never due before window `k+1`.
//!
//! Relative to [`crate::testbed::Testbed`], the sharded core models one
//! extra explicit latency: the operator-edge→core hop
//! ([`ShardedTestbed::CORE_HOP`]). The single-testbed path schedules UMTS
//! uplink packets at the core with zero delay, which would make the safe
//! lookahead zero; a real GGSN's internet edge is not co-located with the
//! research backbone either.

use std::collections::BTreeMap;
use std::sync::Arc;

use umtslab_ditg::{FlowSpec, TrafficReceiver, TrafficSender};
use umtslab_net::bytes::BufferPool;
use umtslab_net::label::Label;
use umtslab_net::link::{DuplexLink, LinkConfig, PushOutcome};
use umtslab_net::mailbox::{Handoff, HandoffKind, Inbox, Outbox};
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::{EgressAction, Node, ETH0};
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::event::EventHandle;
use umtslab_sim::rng::{job_seed, SimRng};
use umtslab_sim::sched::Scheduler;
use umtslab_sim::shard::{drive, run_serial, ShardScheduler};
use umtslab_sim::time::{Duration, Instant};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::{DownlinkOutcome, UmtsAttachment};
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::testbed::{TestbedDrops, TestbedMetrics};

/// Handle to a node of a [`ShardedTestbed`] (its global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalNodeId(pub usize);

/// Handle to a traffic agent of a [`ShardedTestbed`] (its global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAgentId(pub usize);

/// Seed-domain tags separating the per-entity randomness streams. Mixed
/// into the master seed before [`job_seed`] folds in the entity index.
const DOMAIN_NODE: u64 = 0x6e6f_6465; // "node"
const DOMAIN_ATTACH: u64 = 0x6174_7463; // "attc"
const DOMAIN_FLOW: u64 = 0x666c_6f77; // "flow"

/// Static routing state shared (read-only) by every shard: which global
/// node owns an address.
#[derive(Debug, Default, Clone)]
struct RouteTables {
    /// Exact `eth0` address → global node.
    eth: BTreeMap<u32, u32>,
    /// Carved per-subscriber `/24` (address bits `>> 8`) → global node.
    umts24: BTreeMap<u32, u32>,
}

impl RouteTables {
    fn lookup(&self, dst: Ipv4Address) -> Option<(u32, HandoffKind)> {
        let raw = u32::from_be_bytes(dst.0);
        if let Some(&g) = self.eth.get(&raw) {
            return Some((g, HandoffKind::Wire));
        }
        if let Some(&g) = self.umts24.get(&(raw >> 8)) {
            return Some((g, HandoffKind::Umts));
        }
        None
    }
}

enum Ev {
    /// Re-poll a node's internal machinery.
    NodeWake(usize),
    /// A packet reached a node's `eth0` over its access link.
    NodeArrive { node: usize, packet: Packet },
    /// A handed-off packet is at the core, taking its destination leg.
    CoreDeliver { node: usize, kind: HandoffKind, packet: Packet },
    /// A traffic sender's next departure.
    AgentSend(usize),
}

enum AgentSlot {
    Sender { node: usize, slice: SliceId, agent: TrafficSender },
    Receiver { agent: TrafficReceiver },
}

/// One partition of a [`ShardedTestbed`]: a scheduler plus the complete
/// state of the nodes it owns.
pub struct Shard {
    /// This shard's index and the total shard count (the partition is
    /// `global % nshards == shard`, so `local = global / nshards`).
    shard: usize,
    nshards: usize,
    core_hop: Duration,
    sched: Scheduler<Ev>,
    nodes: Vec<Node>,
    access: Vec<DuplexLink>,
    /// Per-node RNG driving that node's access-link jitter/fault draws.
    /// Seeded from the node's global index: shard-layout invariant.
    link_rng: Vec<SimRng>,
    /// Per-node packet-id allocator (ids appear in traces; a shared
    /// allocator would leak shard layout into them).
    ids: Vec<PacketIdAllocator>,
    wake_armed: Vec<Option<(Instant, EventHandle)>>,
    agents: Vec<AgentSlot>,
    /// Receiver lookup: (local node, port) → local agent index.
    rx_ports: BTreeMap<(usize, u16), usize>,
    /// Sender lookup for echo replies: (local node, port) → local agent.
    tx_ports: BTreeMap<(usize, u16), usize>,
    routes: Arc<RouteTables>,
    outbox: Outbox,
    inbox: Inbox,
    drops: TestbedDrops,
    pool: BufferPool,
    started: bool,
}

impl Shard {
    fn new(shard: usize, nshards: usize, core_hop: Duration) -> Shard {
        Shard {
            shard,
            nshards,
            core_hop,
            sched: Scheduler::new(),
            nodes: Vec::new(),
            access: Vec::new(),
            link_rng: Vec::new(),
            ids: Vec::new(),
            wake_armed: Vec::new(),
            agents: Vec::new(),
            rx_ports: BTreeMap::new(),
            tx_ports: BTreeMap::new(),
            routes: Arc::new(RouteTables::default()),
            outbox: Outbox::new(),
            inbox: Inbox::new(),
            drops: TestbedDrops::default(),
            pool: BufferPool::new(),
            started: false,
        }
    }

    /// The global index of local node `local`.
    fn global_of(&self, local: usize) -> u32 {
        (local * self.nshards + self.shard) as u32
    }

    fn add_node(&mut self, node: Node, access: LinkConfig, seed: u64) {
        self.nodes.push(node);
        self.access.push(DuplexLink::symmetric(access));
        self.link_rng.push(SimRng::seed_from_u64(seed));
        self.ids.push(PacketIdAllocator::new());
        self.wake_armed.push(None);
    }

    fn add_sender(
        &mut self,
        local: usize,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
        flow_id: u32,
        seed: u64,
    ) {
        let sport = spec.sport;
        let agent =
            TrafficSender::new(spec, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start, seed);
        let _ = self.nodes[local].bind(slice, sport);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Sender { node: local, slice, agent });
        self.tx_ports.insert((local, sport), idx);
        self.sched.at(start.max(self.sched.now()), Ev::AgentSend(idx));
    }

    fn add_receiver(&mut self, local: usize, slice: SliceId, port: u16, flow_id: u32, echo: bool) {
        let agent = TrafficReceiver::new(flow_id, echo);
        let _ = self.nodes[local].bind(slice, port);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Receiver { agent });
        self.rx_ports.insert((local, port), idx);
    }

    // --- event loop -----------------------------------------------------

    /// Schedules every staged handoff due before `horizon`, in canonical
    /// merge order (the scheduler's FIFO tie-break preserves it).
    fn inject_due(&mut self, horizon: Instant) {
        for h in self.inbox.due_before(horizon) {
            debug_assert_eq!(h.dst as usize % self.nshards, self.shard, "misrouted handoff");
            debug_assert!(h.at >= self.sched.now(), "handoff due before the window it reached");
            let local = h.dst as usize / self.nshards;
            self.sched.at(
                h.at.max(self.sched.now()),
                Ev::CoreDeliver { node: local, kind: h.kind, packet: h.packet },
            );
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        let now = self.sched.now();
        match ev {
            Ev::NodeWake(i) => {
                self.wake_armed[i] = None;
                self.poll_node(now, i);
            }
            Ev::NodeArrive { node, packet } => {
                let delivery = self.nodes[node].ingress(now, ETH0, packet);
                if delivery.is_some() {
                    self.flush_deliveries(now, node);
                }
                self.arm_node(node);
            }
            Ev::CoreDeliver { node, kind, packet } => self.core_deliver(now, node, kind, packet),
            Ev::AgentSend(idx) => self.agent_send(now, idx),
        }
    }

    fn agent_send(&mut self, now: Instant, idx: usize) {
        let AgentSlot::Sender { node, slice, agent } = &mut self.agents[idx] else {
            return;
        };
        let node_idx = *node;
        let slice = *slice;
        let Some(packet) = agent.emit(now, &mut self.ids[node_idx], &mut self.pool) else {
            if let Some(next) = agent.next_departure() {
                self.sched.at(next, Ev::AgentSend(idx));
            }
            return;
        };
        if let Some(next) = agent.next_departure() {
            self.sched.at(next, Ev::AgentSend(idx));
        }
        self.egress(now, node_idx, slice, packet);
    }

    fn egress(&mut self, now: Instant, node_idx: usize, slice: SliceId, packet: Packet) {
        match self.nodes[node_idx].send_from_slice(now, slice, packet) {
            EgressAction::Wire { iface: _, packet } => self.push_forward(now, node_idx, packet),
            EgressAction::Umts => self.arm_node(node_idx),
            EgressAction::Local => self.flush_deliveries(now, node_idx),
            EgressAction::Dropped(_) => self.drops.node_egress += 1,
        }
    }

    /// Sends `packet` up `node_idx`'s access link toward the core; each
    /// delivery becomes a handoff routed at the core's side of the link.
    fn push_forward(&mut self, now: Instant, node_idx: usize, packet: Packet) {
        let pipe = &mut self.access[node_idx].forward;
        match pipe.push(now, packet, &mut self.link_rng[node_idx]) {
            PushOutcome::Scheduled(deliveries) => {
                for (at, p) in deliveries {
                    self.stage_at_core(at, node_idx, p);
                }
            }
            PushOutcome::Dropped { .. } => self.drops.node_egress += 1,
        }
    }

    /// Routes a packet that reaches the core at `at` (originated by local
    /// node `origin`) and stages the handoff toward its destination.
    fn stage_at_core(&mut self, at: Instant, origin: usize, packet: Packet) {
        let Some((dst, kind)) = self.routes.lookup(packet.dst.addr) else {
            self.drops.core_unroutable += 1;
            return;
        };
        let origin = self.global_of(origin);
        self.outbox.push(at, origin, dst, kind, packet);
    }

    /// Delivers a handed-off packet arriving at the core into its
    /// destination node (which lives on this shard).
    fn core_deliver(&mut self, now: Instant, node: usize, kind: HandoffKind, packet: Packet) {
        match kind {
            HandoffKind::Wire => {
                let pipe = &mut self.access[node].reverse;
                match pipe.push(now, packet, &mut self.link_rng[node]) {
                    PushOutcome::Scheduled(deliveries) => {
                        for (at, p) in deliveries {
                            self.sched.at(at, Ev::NodeArrive { node, packet: p });
                        }
                    }
                    PushOutcome::Dropped { .. } => self.drops.core_unroutable += 1,
                }
            }
            HandoffKind::Umts => match self.nodes[node].deliver_umts_downlink(now, packet) {
                DownlinkOutcome::Queued => self.arm_node(node),
                DownlinkOutcome::BlockedByFirewall => self.drops.operator_firewall += 1,
                DownlinkOutcome::DroppedOverflow | DownlinkOutcome::NotConnected => {
                    self.drops.umts_downlink += 1;
                }
            },
        }
    }

    fn poll_node(&mut self, now: Instant, i: usize) {
        let out = self.nodes[i].poll(now);
        for p in out.to_internet {
            // Operator edge → core: the explicit hop whose latency is
            // part of the conservative lookahead.
            self.stage_at_core(now + self.core_hop, i, p);
        }
        for p in out.wire_tx {
            self.push_forward(now, i, p);
        }
        self.flush_deliveries(now, i);
        self.arm_node(i);
    }

    fn flush_deliveries(&mut self, now: Instant, node_idx: usize) {
        let deliveries = self.nodes[node_idx].take_delivered();
        for d in deliveries {
            let port = d.packet.dst.port;
            if let Some(&aidx) = self.rx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Receiver { agent, .. } = &mut self.agents[aidx] {
                    let echo =
                        agent.on_receive(d.at, &d.packet, &mut self.ids[node_idx], &mut self.pool);
                    self.pool.reclaim(d.packet.payload);
                    if let Some(echo) = echo {
                        let slice = d.slice;
                        self.egress(now, node_idx, slice, echo);
                    }
                    continue;
                }
            }
            if let Some(&aidx) = self.tx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Sender { agent, .. } = &mut self.agents[aidx] {
                    agent.on_receive(d.at, &d.packet);
                }
            }
            self.pool.reclaim(d.packet.payload);
        }
    }

    fn arm_node(&mut self, i: usize) {
        let Some(wake) = self.nodes[i].next_wakeup() else {
            return;
        };
        let wake = wake.max(self.sched.now());
        if let Some((armed, handle)) = self.wake_armed[i] {
            if armed <= wake {
                return;
            }
            self.sched.cancel(handle);
        }
        let handle = self.sched.at(wake, Ev::NodeWake(i));
        self.wake_armed[i] = Some((wake, handle));
    }
}

impl ShardScheduler for Shard {
    fn now(&self) -> Instant {
        self.sched.now()
    }

    fn run_window(&mut self, horizon: Instant) {
        if !self.started {
            self.started = true;
            #[cfg(debug_assertions)]
            {
                let findings: Vec<String> =
                    self.nodes.iter().flat_map(umtslab_planetlab::Node::audit).collect();
                debug_assert!(findings.is_empty(), "shard audit failed: {findings:?}");
            }
            for i in 0..self.nodes.len() {
                self.arm_node(i);
            }
        }
        self.inject_due(horizon);
        while let Some(ev) = self.sched.next_before(horizon) {
            self.dispatch(ev);
        }
    }
}

/// One coupled topology partitioned across N deterministic schedulers.
///
/// The public surface mirrors [`crate::testbed::Testbed`] with global
/// node/agent handles; [`ShardedTestbed::run_until`] drives the shards
/// serially, [`ShardedTestbed::run_until_with`] hands the per-window
/// fan-out to the caller (e.g. a worker pool) — both produce identical
/// bytes for any shard count.
pub struct ShardedTestbed {
    seed: u64,
    shards: Vec<Shard>,
    /// (shard, local index) of every global agent, in creation order.
    agent_dir: Vec<(usize, usize)>,
    nodes_total: usize,
    routes: RouteTables,
    routes_dirty: bool,
    /// Subscribers attached per operator name (global carve order).
    operator_subscribers: BTreeMap<Label, u32>,
    /// Minimum access-link delay seen so far; part of the lookahead.
    min_access_delay: Option<Duration>,
    clock: Instant,
}

impl ShardedTestbed {
    /// One-way latency of the operator-edge→core hop taken by UMTS uplink
    /// traffic. Explicit (unlike the single-testbed core, which uses
    /// zero) so the conservative lookahead stays positive.
    pub const CORE_HOP: Duration = Duration::from_millis(6);

    /// Creates an empty sharded testbed with `nshards` partitions.
    pub fn new(nshards: usize, seed: u64) -> ShardedTestbed {
        assert!(nshards >= 1, "at least one shard");
        ShardedTestbed {
            seed,
            shards: (0..nshards).map(|s| Shard::new(s, nshards, Self::CORE_HOP)).collect(),
            agent_dir: Vec::new(),
            nodes_total: 0,
            routes: RouteTables::default(),
            routes_dirty: true,
            operator_subscribers: BTreeMap::new(),
            min_access_delay: None,
            clock: Instant::ZERO,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes across all shards.
    pub fn node_count(&self) -> usize {
        self.nodes_total
    }

    /// Current simulated time (all shards agree at window boundaries).
    pub fn now(&self) -> Instant {
        self.clock
    }

    /// The conservative lookahead: `min(access delay, core hop)`. Every
    /// cross-node path crosses at least one of the two.
    pub fn lookahead(&self) -> Duration {
        let la = self.min_access_delay.map_or(Self::CORE_HOP, |d| d.min(Self::CORE_HOP));
        assert!(la > Duration::ZERO, "zero-latency access link breaks the lookahead");
        la
    }

    fn shard_of(&self, global: usize) -> (usize, usize) {
        (global % self.shards.len(), global / self.shards.len())
    }

    /// Adds a node (global round-robin assignment to shards). Mirrors
    /// [`crate::testbed::Testbed::add_node`].
    pub fn add_node(
        &mut self,
        name: impl Into<Label>,
        eth_addr: Ipv4Address,
        subnet: Ipv4Cidr,
        gateway: Ipv4Address,
        access: LinkConfig,
    ) -> GlobalNodeId {
        assert!(access.delay > Duration::ZERO, "sharded access links need positive delay");
        let global = self.nodes_total;
        self.nodes_total += 1;
        let (shard, _) = self.shard_of(global);
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        self.min_access_delay =
            Some(self.min_access_delay.map_or(access.delay, |d| d.min(access.delay)));
        let seed = job_seed(self.seed ^ DOMAIN_NODE, global as u64);
        self.shards[shard].add_node(node, access, seed);
        self.routes.eth.insert(u32::from_be_bytes(eth_addr.0), global as u32);
        self.routes_dirty = true;
        GlobalNodeId(global)
    }

    /// Installs a 3G card + operator attachment on a node, carving the
    /// subscriber's `/24` by global attach order (layout-invariant) and
    /// routing it to the node.
    pub fn attach_umts(
        &mut self,
        node: GlobalNodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        let index = self.operator_subscribers.entry(Label::intern(&operator.name)).or_insert(0);
        if let Some(slice) = operator.pool.subnet(24, *index) {
            operator.pool = slice;
        }
        *index += 1;
        let raw24 = u32::from_be_bytes(operator.pool.address().0) >> 8;
        self.routes.umts24.insert(raw24, node.0 as u32);
        self.routes_dirty = true;
        let seed = job_seed(self.seed ^ DOMAIN_ATTACH, node.0 as u64);
        let (shard, local) = self.shard_of(node.0);
        let now = self.clock;
        let att = UmtsAttachment::new(operator, device, credentials, seed, now);
        self.shards[shard].nodes[local].attach_umts(att);
    }

    /// Shared access to a node.
    pub fn node(&self, id: GlobalNodeId) -> &Node {
        let (shard, local) = self.shard_of(id.0);
        &self.shards[shard].nodes[local]
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: GlobalNodeId) -> &mut Node {
        let (shard, local) = self.shard_of(id.0);
        &mut self.shards[shard].nodes[local]
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`; the
    /// flow's RNG is seeded by its global agent index.
    pub fn add_sender(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> GlobalAgentId {
        let global_agent = self.agent_dir.len();
        let flow_id = global_agent as u32 + 1;
        let seed = job_seed(self.seed ^ DOMAIN_FLOW, global_agent as u64);
        let (shard, local) = self.shard_of(node.0);
        self.agent_dir.push((shard, self.shards[shard].agents.len()));
        self.shards[shard].add_sender(local, slice, spec, dst_addr, start, flow_id, seed);
        GlobalAgentId(global_agent)
    }

    /// Adds a traffic receiver on `node`/`slice` listening on `port` for
    /// flow `of_sender`.
    pub fn add_receiver(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        port: u16,
        of_sender: GlobalAgentId,
        echo: bool,
    ) -> GlobalAgentId {
        let flow_id = of_sender.0 as u32 + 1;
        let (shard, local) = self.shard_of(node.0);
        let global_agent = self.agent_dir.len();
        self.agent_dir.push((shard, self.shards[shard].agents.len()));
        self.shards[shard].add_receiver(local, slice, port, flow_id, echo);
        GlobalAgentId(global_agent)
    }

    /// The sender-side logs of an agent.
    pub fn sender_logs(
        &self,
        id: GlobalAgentId,
    ) -> (&[umtslab_ditg::SentRecord], &[umtslab_ditg::RttRecord]) {
        let (shard, local) = self.agent_dir[id.0];
        match &self.shards[shard].agents[local] {
            AgentSlot::Sender { agent, .. } => (agent.sent(), agent.rtts()),
            AgentSlot::Receiver { .. } => (&[], &[]),
        }
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: GlobalAgentId) -> &[umtslab_ditg::RecvRecord] {
        let (shard, local) = self.agent_dir[id.0];
        match &self.shards[shard].agents[local] {
            AgentSlot::Receiver { agent } => agent.records(),
            AgentSlot::Sender { .. } => &[],
        }
    }

    /// Drop counters summed across shards (order-independent).
    pub fn drops(&self) -> TestbedDrops {
        let mut d = TestbedDrops::default();
        for s in &self.shards {
            d.core_unroutable += s.drops.core_unroutable;
            d.operator_firewall += s.drops.operator_firewall;
            d.node_egress += s.drops.node_egress;
            d.umts_downlink += s.drops.umts_downlink;
        }
        d
    }

    /// Total events processed across all shards' schedulers.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.sched.events_processed()).sum()
    }

    /// Snapshots every layer's counters, summed across shards.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for s in &self.shards {
            for link in &s.access {
                m.access.absorb(link.forward.stats());
                m.access.absorb(link.reverse.stats());
            }
            for node in &s.nodes {
                if let Some(att) = node.umts_attachment() {
                    m.uplink.absorb(att.uplink_stats());
                    m.downlink.absorb(att.downlink_stats());
                    m.rrc_transitions += att.rrc_transitions();
                    m.ppp_transitions += att.ppp_transitions();
                }
            }
        }
        m.drops = self.drops();
        m.events = self.events_processed();
        m
    }

    /// Runs until `horizon`, advancing the shards serially.
    pub fn run_until(&mut self, horizon: Instant) {
        self.run_until_with(horizon, run_serial);
    }

    /// Runs for a relative span (serially).
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.clock + span;
        self.run_until(horizon);
    }

    /// Runs until `horizon`, letting the caller fan each window out over
    /// the shards (`run(shards, end)` must advance every shard to `end`;
    /// order and parallelism are free). Message exchange happens here, on
    /// the caller's thread, at every boundary.
    pub fn run_until_with(&mut self, horizon: Instant, run: impl FnMut(&mut [Shard], Instant)) {
        if horizon <= self.clock {
            return;
        }
        if self.routes_dirty {
            self.routes_dirty = false;
            let arc = Arc::new(self.routes.clone());
            for s in &mut self.shards {
                s.routes = Arc::clone(&arc);
            }
        }
        let lookahead = self.lookahead();
        let nshards = self.shards.len();
        drive(&mut self.shards, self.clock, horizon, lookahead, run, |shards, _end| {
            // Exchange: route every staged handoff to its owning shard's
            // inbox. Collection order is irrelevant — each inbox re-sorts
            // into canonical order before injecting.
            let mut batches: Vec<Vec<Handoff>> = (0..nshards).map(|_| Vec::new()).collect();
            for s in shards.iter_mut() {
                for h in s.outbox.take() {
                    batches[h.dst as usize % nshards].push(h);
                }
            }
            for (s, batch) in shards.iter_mut().zip(batches) {
                if !batch.is_empty() {
                    s.inbox.accept(batch);
                }
            }
        });
        self.clock = horizon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn wired_pair(nshards: usize, seed: u64) -> (ShardedTestbed, GlobalNodeId, GlobalNodeId) {
        let mut tb = ShardedTestbed::new(nshards, seed);
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

    fn wired_flow_trace(nshards: usize) -> Vec<(u32, u64)> {
        let (mut tb, n1, n2) = wired_pair(nshards, 1);
        let s_tx = tb.node_mut(n1).slices.create("tx");
        let s_rx = tb.node_mut(n2).slices.create("rx");
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::from_millis(100));
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_until(Instant::from_secs(5));
        let (sent, rtts) = tb.sender_logs(tx);
        assert_eq!(sent.len(), 200, "100 pps * 2 s");
        assert_eq!(rtts.len(), 200, "every probe echoed");
        tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx.total_micros())).collect()
    }

    #[test]
    fn wired_flow_end_to_end_across_shards() {
        let t1 = wired_flow_trace(1);
        assert_eq!(t1.len(), 200, "wired path loses nothing");
        for n in [2, 3] {
            assert_eq!(wired_flow_trace(n), t1, "shard count {n} must not change the trace");
        }
    }

    #[test]
    fn umts_flow_end_to_end_sharded() {
        let (mut tb, n1, n2) = wired_pair(2, 2);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("unina_umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");

        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

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
        assert_eq!(sent.len(), 240, "80 pps * 3 s");
        assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
        assert!(!rtts.is_empty());
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
    }

    #[test]
    fn phased_runs_match_unphased_runs() {
        // Stopping and restarting mid-simulation must not change results:
        // the window boundaries are absolute, not phase-relative.
        let run = |phased: bool| {
            let (mut tb, n1, n2) = wired_pair(2, 11);
            let s_tx = tb.node_mut(n1).slices.create("tx");
            let s_rx = tb.node_mut(n2).slices.create("rx");
            let spec = FlowSpec::poisson(150.0, 200, Duration::from_secs(2));
            let dport = spec.dport;
            let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
            let rx = tb.add_receiver(n2, s_rx, dport, tx, false);
            if phased {
                tb.run_until(Instant::from_millis(333));
                tb.run_until(Instant::from_millis(1_234));
                tb.run_until(Instant::from_secs(4));
            } else {
                tb.run_until(Instant::from_secs(4));
            }
            let _ = tx;
            tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx)).collect::<Vec<_>>()
        };
        let a = run(false);
        assert!(!a.is_empty());
        assert_eq!(a, run(true));
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (mut tb, n1, _n2) = wired_pair(2, 3);
        let s = tb.node_mut(n1).slices.create("tx");
        let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
        let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
        tb.run_until(Instant::from_secs(1));
        assert!(tb.drops().core_unroutable > 0);
    }

    #[test]
    fn metrics_are_shard_count_invariant() {
        let snapshot = |nshards: usize| {
            let (mut tb, n1, n2) = wired_pair(nshards, 5);
            let s_tx = tb.node_mut(n1).slices.create("tx");
            let s_rx = tb.node_mut(n2).slices.create("rx");
            let spec = FlowSpec::cbr(64_000, 120, Duration::from_secs(1));
            let dport = spec.dport;
            let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
            let _rx = tb.add_receiver(n2, s_rx, dport, tx, true);
            tb.run_until(Instant::from_secs(3));
            tb.metrics()
        };
        let m1 = snapshot(1);
        assert!(m1.access.pushed > 0);
        assert_eq!(m1, snapshot(2), "metrics must not depend on the partition");
    }
}
