//! The forwarding engine: the per-node event loop behind every testbed.
//!
//! A [`crate::Testbed`] is a front end over one or more `Engine`s, each
//! wrapped in a [`crate::Shard`]. An engine holds the nodes it owns with
//! their access links, wake handles, supervisors and fault plans, the
//! traffic agents and their port maps, the payload pool and the drop
//! counters. It also runs the event loop: agent sends, node egress, node
//! polls (fault injection and supervisor included), delivery flushes
//! with closed-loop re-arming, wake arming, and delivery into a node
//! from the core side. Node and agent indices here are local to the
//! engine; only the testbed knows the global ones.
//!
//! The serial and sharded models differ in two pieces of data, each
//! consulted with one `match` where it is used:
//!
//! * `CoreLink`: how a packet crosses the internet core. `Local`
//!   schedules a core arrival and resolves the route when it fires, and
//!   the operator-edge→core hop is zero. `Mailbox` resolves the route
//!   when the packet is staged, hands it to the shard's outbox, and
//!   charges [`crate::Testbed::CORE_HOP`] to UMTS egress so the
//!   conservative lookahead stays positive.
//! * `Streams`: where link randomness, packet ids and entity seeds come
//!   from. `Master` draws every seed from one stream in creation order
//!   and shares one stream and one id allocator between all nodes.
//!   `PerNode` derives every seed from the entity's global index and
//!   gives each node its own stream and allocator, so nothing depends on
//!   the partition.

use std::collections::BTreeMap;
use std::sync::Arc;

use umtslab_ditg::{Probe, RecvRecord, TrafficReceiver, TrafficSender};
use umtslab_net::bytes::BufferPool;
use umtslab_net::link::{DuplexLink, LinkConfig, LinkSchedule, PushOutcome};
use umtslab_net::mailbox::HandoffKind;
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_planetlab::node::{Delivery, EgressAction, Node, ETH0};
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::event::EventHandle;
use umtslab_sim::rng::{job_seed, SimRng};
use umtslab_sim::sched::Scheduler;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::SessionSupervisor;
use umtslab_traffic::{AdaptiveSender, TcpFlow, TcpStats};
use umtslab_umts::attachment::DownlinkOutcome;

use crate::shard::Mailbox;
use crate::testbed::{Testbed, TestbedDrops, TestbedMetrics};

enum Ev {
    /// Re-poll a node's internal machinery.
    NodeWake(usize),
    /// A packet reached the core over a local core link: route it now.
    CoreArrive(Packet),
    /// A routed packet is at the core, taking its destination leg.
    CoreDeliver { node: usize, kind: HandoffKind, packet: Packet },
    /// A packet reached a node's `eth0`.
    NodeArrive { node: usize, packet: Packet },
    /// A traffic sender's next departure.
    AgentSend(usize),
}

/// How packets cross the internet core.
pub(crate) enum CoreLink {
    /// Every node of the topology lives in this engine: a packet at the
    /// core is routed when its arrival fires, by the destination node's
    /// current `eth0` or `ppp0` address.
    Local,
    /// The engine is one shard: packets are routed when staged and
    /// handed to the other shards through the mailbox.
    Mailbox(Mailbox),
}

/// Seed-domain tags separating the per-entity randomness streams of
/// [`Streams::PerNode`]. Mixed into the master seed before [`job_seed`]
/// folds in the entity index.
const DOMAIN_NODE: u64 = 0x6e6f_6465; // "node"
pub(crate) const DOMAIN_ATTACH: u64 = 0x6174_7463; // "attc"
pub(crate) const DOMAIN_FLOW: u64 = 0x666c_6f77; // "flow"
pub(crate) const DOMAIN_SUPERVISOR: u64 = 0x7375_7076; // "supv"

/// Where link randomness, packet ids and entity seeds come from.
pub(crate) enum Streams {
    /// One stream and one allocator shared by every node; entity seeds
    /// are drawn from the stream in creation order.
    Master { rng: SimRng, ids: PacketIdAllocator },
    /// One stream and one allocator per node; entity seeds are a function
    /// of `seed`, the entity's domain and its global index.
    PerNode { seed: u64, rngs: Vec<SimRng>, ids: Vec<PacketIdAllocator> },
}

impl Streams {
    /// The master policy over a stream seeded with `seed`.
    pub(crate) fn master(seed: u64) -> Streams {
        Streams::Master { rng: SimRng::seed_from_u64(seed), ids: PacketIdAllocator::new() }
    }

    /// The per-node policy under master seed `seed`.
    pub(crate) fn per_node(seed: u64) -> Streams {
        Streams::PerNode { seed, rngs: Vec::new(), ids: Vec::new() }
    }

    /// The seed of the entity with global index `index` in `domain`.
    pub(crate) fn entity_seed(&mut self, domain: u64, index: usize) -> u64 {
        match self {
            Streams::Master { rng, .. } => rng.next_u64(),
            Streams::PerNode { seed, .. } => job_seed(*seed ^ domain, index as u64),
        }
    }

    /// Gives the node with global index `global` its own stream, if
    /// nodes have their own.
    fn push_node(&mut self, global: usize) {
        if let Streams::PerNode { seed, rngs, ids } = self {
            rngs.push(SimRng::seed_from_u64(job_seed(*seed ^ DOMAIN_NODE, global as u64)));
            ids.push(PacketIdAllocator::new());
        }
    }

    fn rng(&mut self, node: usize) -> &mut SimRng {
        match self {
            Streams::Master { rng, .. } => rng,
            Streams::PerNode { rngs, .. } => &mut rngs[node],
        }
    }

    fn ids(&mut self, node: usize) -> &mut PacketIdAllocator {
        match self {
            Streams::Master { ids, .. } => ids,
            Streams::PerNode { ids, .. } => &mut ids[node],
        }
    }
}

/// A traffic source of any flow model, behind one dispatch surface so
/// the event loop treats open-loop probes, closed-loop TCP flows and
/// rate-adaptive streams identically.
pub(crate) enum SenderAgent {
    /// Open-loop D-ITG probe sender (the original workload).
    OpenLoop(TrafficSender),
    /// Closed-loop congestion-controlled flow.
    Tcp(TcpFlow),
    /// Delivered-rate adaptive (video-like) sender.
    Adaptive(AdaptiveSender),
}

/// Evaluates `$body` with `$a` bound to whichever sender `$agent` holds.
macro_rules! each_sender {
    ($agent:expr, $a:ident => $body:expr) => {
        match $agent {
            SenderAgent::OpenLoop($a) => $body,
            SenderAgent::Tcp($a) => $body,
            SenderAgent::Adaptive($a) => $body,
        }
    };
}

impl SenderAgent {
    fn emit(
        &mut self,
        now: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        each_sender!(self, a => a.emit(now, ids, pool))
    }

    fn next_departure(&self, now: Instant) -> Option<Instant> {
        match self {
            SenderAgent::OpenLoop(a) => a.next_departure(),
            SenderAgent::Tcp(a) => a.next_departure(now),
            SenderAgent::Adaptive(a) => a.next_departure(),
        }
    }

    fn on_receive(&mut self, now: Instant, packet: &Packet) {
        each_sender!(self, a => a.on_receive(now, packet));
    }

    fn probe(&self) -> &Probe {
        each_sender!(self, a => a.probe())
    }

    /// Whether acknowledgements can reopen this sender's transmission
    /// window (closed-loop flows need an `AgentSend` re-arm on receive).
    fn closed_loop(&self) -> bool {
        matches!(self, SenderAgent::Tcp(_))
    }
}

enum AgentSlot {
    // The sender is boxed: closed-loop flow state dwarfs a receiver slot.
    Sender { node: usize, slice: SliceId, agent: Box<SenderAgent> },
    Receiver { agent: TrafficReceiver },
}

/// The forwarding engine: the nodes of one core (or of one shard of it)
/// and their event loop. Node and agent indices are local to the engine.
pub(crate) struct Engine {
    sched: Scheduler<Ev>,
    nodes: Vec<Node>,
    access: Vec<DuplexLink>,
    wake_armed: Vec<Option<(Instant, EventHandle)>>,
    /// Per-node session supervisor (the watchdog daemon), if attached.
    supervisors: Vec<Option<SessionSupervisor>>,
    /// Per-node scheduled fault campaign, if any.
    fault_plans: Vec<Option<FaultPlan>>,
    /// Nodes handed out for mutation since the last [`Engine::prime`].
    touched: Vec<usize>,
    agents: Vec<AgentSlot>,
    /// Receiver lookup: (node, port) → agent index. Ordered map so that
    /// any future iteration (diagnostics, sharding) is deterministic.
    rx_ports: BTreeMap<(usize, u16), usize>,
    /// Sender lookup for echo replies: (node, port) → agent index.
    tx_ports: BTreeMap<(usize, u16), usize>,
    pub(crate) streams: Streams,
    pub(crate) core: CoreLink,
    drops: TestbedDrops,
    /// Recycles retired payload allocations back to the traffic senders,
    /// so steady-state emission allocates nothing.
    pool: BufferPool,
    /// Swapped with a node's delivered list at each flush, so neither
    /// list gives up its capacity.
    deliveries: Vec<Delivery>,
}

impl Engine {
    pub(crate) fn new(core: CoreLink, streams: Streams) -> Engine {
        Engine {
            sched: Scheduler::new(),
            nodes: Vec::new(),
            access: Vec::new(),
            wake_armed: Vec::new(),
            supervisors: Vec::new(),
            fault_plans: Vec::new(),
            touched: Vec::new(),
            agents: Vec::new(),
            rx_ports: BTreeMap::new(),
            tx_ports: BTreeMap::new(),
            streams,
            core,
            drops: TestbedDrops::default(),
            pool: BufferPool::new(),
            deliveries: Vec::new(),
        }
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> Instant {
        self.sched.now()
    }

    /// The instant of the next scheduled event, if any.
    pub(crate) fn next_event(&mut self) -> Option<Instant> {
        self.sched.peek_time()
    }

    /// Total events processed by the scheduler.
    pub(crate) fn events_processed(&self) -> u64 {
        self.sched.events_processed()
    }

    /// Snapshots every layer's counters into one [`TestbedMetrics`].
    pub(crate) fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for link in &self.access {
            m.access.absorb(link.forward.stats());
            m.access.absorb(link.reverse.stats());
        }
        for node in &self.nodes {
            if let Some(att) = node.umts_attachment() {
                m.uplink.absorb(att.uplink_stats());
                m.downlink.absorb(att.downlink_stats());
                m.rrc_transitions += att.rrc_transitions();
                m.ppp_transitions += att.ppp_transitions();
            }
        }
        m.drops = self.drops;
        m.events = self.sched.events_processed();
        m
    }

    /// The payload pool the engine's senders emit from.
    #[cfg(test)]
    pub(crate) fn pool(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    pub(crate) fn node(&self, node: usize) -> &Node {
        &self.nodes[node]
    }

    /// Notes that `node` may change outside the event loop, so the next
    /// [`Engine::prime`] re-arms it.
    pub(crate) fn touch(&mut self, node: usize) {
        self.touched.push(node);
    }

    pub(crate) fn node_mut(&mut self, node: usize) -> &mut Node {
        &mut self.nodes[node]
    }

    /// Adds the node with global index `global` and its access link to
    /// the internet core; returns its local index.
    pub(crate) fn add_node(&mut self, node: Node, access: LinkConfig, global: usize) -> usize {
        self.nodes.push(node);
        self.access.push(DuplexLink::symmetric(access));
        self.wake_armed.push(None);
        self.supervisors.push(None);
        self.fault_plans.push(None);
        self.streams.push_node(global);
        self.nodes.len() - 1
    }

    pub(crate) fn attach_supervisor(&mut self, node: usize, sup: SessionSupervisor) {
        self.supervisors[node] = Some(sup);
    }

    pub(crate) fn start_supervisor(&mut self, node: usize) {
        let now = self.now();
        let sup = self.supervisors[node].as_mut().expect("supervisor attached");
        sup.start(now, &mut self.nodes[node]);
        self.arm_node(node);
    }

    pub(crate) fn schedule_faults(&mut self, node: usize, plan: FaultPlan) {
        self.fault_plans[node] = Some(plan);
        self.arm_node(node);
    }

    pub(crate) fn supervisor(&self, node: usize) -> Option<&SessionSupervisor> {
        self.supervisors[node].as_ref()
    }

    pub(crate) fn availability(&mut self, node: usize) -> Option<AvailabilityMetrics> {
        let now = self.now();
        self.supervisors[node].as_mut().map(|s| s.finish(now))
    }

    pub(crate) fn set_access_schedule(&mut self, node: usize, schedule: Arc<LinkSchedule>) {
        let start = self.now();
        let link = &mut self.access[node];
        link.forward.set_schedule(schedule.clone(), start);
        link.reverse.set_schedule(schedule, start);
    }

    /// Installs a sender on `node`/`slice`, binds its source port so echo
    /// replies reach it, and schedules its first departure at `start`;
    /// returns its local index.
    pub(crate) fn add_sender(
        &mut self,
        node: usize,
        slice: SliceId,
        sport: u16,
        agent: SenderAgent,
        start: Instant,
    ) -> usize {
        let _ = self.nodes[node].bind(slice, sport);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Sender { node, slice, agent: Box::new(agent) });
        self.tx_ports.insert((node, sport), idx);
        self.sched.at(start.max(self.now()), Ev::AgentSend(idx));
        idx
    }

    /// Installs a receiver of flow `flow_id` on `node`/`slice`, listening
    /// on `port`; returns its local index.
    pub(crate) fn add_receiver(
        &mut self,
        node: usize,
        slice: SliceId,
        port: u16,
        flow_id: u32,
        echo: bool,
    ) -> usize {
        let agent = TrafficReceiver::new(flow_id, echo);
        let _ = self.nodes[node].bind(slice, port);
        self.agents.push(AgentSlot::Receiver { agent });
        self.rx_ports.insert((node, port), self.agents.len() - 1);
        self.agents.len() - 1
    }

    fn sender(&self, agent: usize) -> Option<&SenderAgent> {
        match &self.agents[agent] {
            AgentSlot::Sender { agent, .. } => Some(&**agent),
            AgentSlot::Receiver { .. } => None,
        }
    }

    pub(crate) fn probe(&self, agent: usize) -> Option<&Probe> {
        self.sender(agent).map(SenderAgent::probe)
    }

    pub(crate) fn tcp_stats(&self, agent: usize) -> Option<TcpStats> {
        match self.sender(agent)? {
            SenderAgent::Tcp(f) => Some(f.stats()),
            _ => None,
        }
    }

    pub(crate) fn receiver_records(&self, agent: usize) -> &[RecvRecord] {
        match &self.agents[agent] {
            AgentSlot::Receiver { agent } => agent.records(),
            AgentSlot::Sender { .. } => &[],
        }
    }

    /// Arms every touched node with internal work, after auditing the
    /// nodes in debug builds: a structurally broken configuration (mark
    /// collisions, stale UMTS policy state) would silently violate the
    /// isolation the paper's rule set promises. Nodes are armed in index
    /// order, so wakes due at one instant keep their FIFO order.
    ///
    /// An untouched node needs no arming: every event that changes a
    /// node's wake state re-arms that node, so arming it again would find
    /// an earlier-or-equal wake already scheduled. Debug builds check
    /// exactly that for every untouched node.
    pub(crate) fn prime(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        #[cfg(debug_assertions)]
        for (i, node) in self.nodes.iter().enumerate() {
            let findings = node.audit();
            debug_assert!(findings.is_empty(), "{} audit failed: {findings:?}", node.name);
            if touched.binary_search(&i).is_err() {
                let due = self.wake_due(i).map(|wake| wake.max(self.now()));
                let armed = self.wake_armed[i].map(|(at, _)| at);
                let ok = match due {
                    None => true,
                    Some(due) => armed.is_some_and(|armed| armed <= due),
                };
                debug_assert!(ok, "untouched {} due at {due:?} but armed at {armed:?}", node.name);
            }
        }
        for i in touched {
            self.arm_node(i);
        }
    }

    /// Dispatches every event strictly before `horizon`.
    pub(crate) fn dispatch_until(&mut self, horizon: Instant) {
        while let Some(ev) = self.sched.next_before(horizon) {
            self.dispatch(ev);
        }
    }

    /// Schedules a routed packet's arrival at the core at `at`, on its
    /// way into local node `node` by `kind`.
    pub(crate) fn deliver_from_core(
        &mut self,
        at: Instant,
        node: usize,
        kind: HandoffKind,
        packet: Packet,
    ) {
        self.sched.at(at.max(self.now()), Ev::CoreDeliver { node, kind, packet });
    }

    // --- event loop -----------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        let now = self.sched.now();
        match ev {
            Ev::NodeWake(i) => {
                self.wake_armed[i] = None;
                self.poll_node(now, i);
            }
            Ev::CoreArrive(packet) => self.route_from_core(now, packet),
            Ev::CoreDeliver { node, kind, packet } => self.core_deliver(now, node, kind, packet),
            Ev::NodeArrive { node, packet } => {
                if self.nodes[node].ingress(now, ETH0, packet) {
                    self.flush_deliveries(now, node);
                }
                // Ingress may have queued kernel work (ICMP replies).
                self.arm_node(node);
            }
            Ev::AgentSend(idx) => self.agent_send(now, idx),
        }
    }

    fn agent_send(&mut self, now: Instant, idx: usize) {
        let AgentSlot::Sender { node, slice, agent } = &mut self.agents[idx] else {
            return;
        };
        let node_idx = *node;
        let slice = *slice;
        let packet = agent.emit(now, self.streams.ids(node_idx), &mut self.pool);
        // Re-arm if the flow continues (a `None` emit is a spurious wake).
        if let Some(next) = agent.next_departure(now) {
            self.sched.at(next.max(now), Ev::AgentSend(idx));
        }
        if let Some(packet) = packet {
            self.egress(now, node_idx, slice, packet);
        }
    }

    fn egress(&mut self, now: Instant, node_idx: usize, slice: SliceId, packet: Packet) {
        match self.nodes[node_idx].send_from_slice(now, slice, packet) {
            EgressAction::Wire { iface: _, packet } => self.push_forward(now, node_idx, packet),
            EgressAction::Umts => self.arm_node(node_idx),
            EgressAction::Local => self.flush_deliveries(now, node_idx),
            EgressAction::Dropped(_) => self.drops.node_egress += 1,
        }
    }

    /// Sends `packet` up `node`'s access link toward the core.
    fn push_forward(&mut self, now: Instant, node: usize, packet: Packet) {
        match self.access[node].forward.push(now, packet, self.streams.rng(node)) {
            PushOutcome::Scheduled(deliveries) => {
                for (at, p) in deliveries {
                    self.reach_core(at, node, p);
                }
            }
            PushOutcome::Dropped { .. } => self.drops.node_egress += 1,
        }
    }

    /// A packet from local node `origin` reaches the core at `at`.
    fn reach_core(&mut self, at: Instant, origin: usize, packet: Packet) {
        match &mut self.core {
            CoreLink::Local => {
                self.sched.at(at, Ev::CoreArrive(packet));
            }
            CoreLink::Mailbox(mailbox) => {
                if !mailbox.stage(at, origin, packet) {
                    self.drops.core_unroutable += 1;
                }
            }
        }
    }

    /// Routes a packet at the core of a local core link: wired delivery
    /// to the node owning the address, else to the UMTS subscriber
    /// holding it.
    fn route_from_core(&mut self, now: Instant, packet: Packet) {
        let dst = packet.dst.addr;
        let route = match self.nodes.iter().position(|n| n.eth_addr() == dst) {
            Some(i) => Some((i, HandoffKind::Wire)),
            None => self
                .nodes
                .iter()
                .position(|n| n.ppp_addr() == Some(dst))
                .map(|i| (i, HandoffKind::Umts)),
        };
        match route {
            Some((node, kind)) => self.core_deliver(now, node, kind, packet),
            None => self.drops.core_unroutable += 1,
        }
    }

    /// Takes a packet at the core into local node `node`: down its access
    /// link, or into its UMTS downlink.
    fn core_deliver(&mut self, now: Instant, node: usize, kind: HandoffKind, packet: Packet) {
        match kind {
            HandoffKind::Wire => {
                match self.access[node].reverse.push(now, packet, self.streams.rng(node)) {
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
        // Fire any campaign faults that are due before the node runs, so
        // the fault lands in the same step its instant names.
        if let Some(plan) = self.fault_plans[i].as_mut() {
            for fault in plan.pop_due(now) {
                self.nodes[i].inject_umts_fault(now, fault);
                if let Some(sup) = self.supervisors[i].as_mut() {
                    sup.note_fault();
                }
            }
        }
        let out = self.nodes[i].poll(now);
        if let Some(sup) = self.supervisors[i].as_mut() {
            sup.on_events(now, &out.umts_events, &mut self.nodes[i]);
            sup.poll(now, &mut self.nodes[i]);
        }
        // The packets are at the operator's internet edge now.
        let edge_hop = match self.core {
            CoreLink::Local => Duration::ZERO,
            CoreLink::Mailbox(_) => Testbed::CORE_HOP,
        };
        for p in out.to_internet {
            self.reach_core(now + edge_hop, i, p);
        }
        // Kernel-originated packets (ICMP replies) take the access link.
        for p in out.wire_tx {
            self.push_forward(now, i, p);
        }
        self.flush_deliveries(now, i);
        self.arm_node(i);
    }

    fn flush_deliveries(&mut self, now: Instant, node_idx: usize) {
        // An echo to a local slice flushes again from inside the loop, so
        // the reused list is held locally until the loop ends.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        self.nodes[node_idx].swap_delivered(&mut deliveries);
        for d in deliveries.drain(..) {
            let port = d.packet.dst.port;
            if let Some(&aidx) = self.rx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Receiver { agent } = &mut self.agents[aidx] {
                    let ids = self.streams.ids(node_idx);
                    let echo = agent.on_receive(d.at, &d.packet, ids, &mut self.pool);
                    // The packet dies here: hand its payload allocation
                    // back to the emitters (no-op if still shared).
                    self.pool.reclaim(d.packet.payload);
                    if let Some(echo) = echo {
                        // The echo is emitted by the receiving slice.
                        self.egress(now, node_idx, d.slice, echo);
                    }
                    continue;
                }
            }
            if let Some(&aidx) = self.tx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Sender { agent, .. } = &mut self.agents[aidx] {
                    agent.on_receive(d.at, &d.packet);
                    // A closed-loop sender's window may have just
                    // reopened: re-arm its send event (spurious wakes
                    // are tolerated by agent_send).
                    if agent.closed_loop() {
                        if let Some(next) = agent.next_departure(now) {
                            self.sched.at(next.max(now), Ev::AgentSend(aidx));
                        }
                    }
                }
            }
            self.pool.reclaim(d.packet.payload);
        }
        self.deliveries = deliveries;
    }

    /// The earliest instant node `i`, its supervisor or its fault plan
    /// wants to run.
    fn wake_due(&self, i: usize) -> Option<Instant> {
        let sup = self.supervisors[i].as_ref().and_then(SessionSupervisor::next_wakeup);
        let fault = self.fault_plans[i].as_ref().and_then(FaultPlan::next_due);
        [self.nodes[i].next_wakeup(), sup, fault].into_iter().flatten().min()
    }

    fn arm_node(&mut self, i: usize) {
        let Some(wake) = self.wake_due(i) else {
            return;
        };
        let wake = wake.max(self.sched.now());
        if let Some((armed, handle)) = self.wake_armed[i] {
            if armed <= wake {
                return; // an earlier-or-equal wake is already scheduled
            }
            // Re-arming earlier: cancel the stale wake so duplicates never
            // accumulate (a leaked duplicate re-arms itself on every poll
            // and the population persists for the rest of the run).
            self.sched.cancel(handle);
        }
        let handle = self.sched.at(wake, Ev::NodeWake(i));
        self.wake_armed[i] = Some((wake, handle));
    }
}
