//! The sharded testbed core: one coupled topology across N schedulers.
//!
//! [`ShardedTestbed`] partitions the nodes of one topology across N
//! [`Shard`]s. Each shard is the forwarding [`crate::engine`] over the
//! nodes it owns plus a mailbox; packets that cross the internet core
//! between two nodes — even two nodes of the *same* shard — travel as
//! [`Handoff`]s through per-shard mailboxes, exchanged at conservative
//! window boundaries ([`umtslab_sim::shard::drive`]).
//!
//! ## Shard-count invariance
//!
//! Results are byte-identical for any shard count because nothing a shard
//! computes depends on what the partition looks like:
//!
//! * **randomness** is per entity, never per shard: each node's link
//!   jitter/fault draws come from a private stream seeded by the node's
//!   *global* index, and each UMTS attachment, traffic sender and session
//!   supervisor is seeded the same way ([`umtslab_sim::rng::job_seed`]);
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
//! ([`ShardedTestbed::CORE_HOP`]). The serial testbed schedules UMTS
//! uplink packets at the core with zero delay, which would make the safe
//! lookahead zero; a real GGSN's internet edge is not co-located with the
//! research backbone either.

use std::collections::BTreeMap;
use std::sync::Arc;

use umtslab_ditg::{FlowSpec, TrafficSender};
use umtslab_net::label::Label;
use umtslab_net::link::{LinkConfig, LinkSchedule};
use umtslab_net::mailbox::{Handoff, HandoffKind, Inbox, Outbox};
use umtslab_net::packet::Packet;
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::rng::{job_seed, SimRng};
use umtslab_sim::shard::{drive, run_serial, ShardScheduler};
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::{SessionSupervisor, SupervisorConfig};
use umtslab_traffic::{TcpConfig, TcpFlow, TcpStats};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::UmtsAttachment;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::engine::{CoreLink, Engine, SenderAgent, Streams};
use crate::testbed::{carve_subscriber, AgentId, NodeId, TestbedDrops, TestbedMetrics};

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
const DOMAIN_SUPERVISOR: u64 = 0x7375_7076; // "supv"

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

/// A shard's side of the core: the route tables and the outbox of
/// handoffs staged during the current window.
pub(crate) struct Mailbox {
    /// This shard's index and the total shard count (the partition is
    /// `global % nshards == shard`, so `local = global / nshards`).
    shard: usize,
    nshards: usize,
    routes: Arc<RouteTables>,
    outbox: Outbox,
}

impl Mailbox {
    /// Routes a packet from local node `origin` that reaches the core at
    /// `at` and stages its handoff; `false` if no node owns the
    /// destination.
    pub(crate) fn stage(&mut self, at: Instant, origin: usize, packet: Packet) -> bool {
        let Some((dst, kind)) = self.routes.lookup(packet.dst.addr) else {
            return false;
        };
        let origin = (origin * self.nshards + self.shard) as u32;
        self.outbox.push(at, origin, dst, kind, packet);
        true
    }
}

/// One partition of a [`ShardedTestbed`]: the engine over the nodes it
/// owns plus its mailbox.
pub struct Shard {
    engine: Engine,
    inbox: Inbox,
    started: bool,
}

impl Shard {
    fn new(shard: usize, nshards: usize) -> Shard {
        let mailbox = Mailbox { shard, nshards, routes: Arc::default(), outbox: Outbox::new() };
        let streams = Streams::PerNode { rngs: Vec::new(), ids: Vec::new() };
        Shard {
            engine: Engine::new(CoreLink::Mailbox(mailbox), streams),
            inbox: Inbox::new(),
            started: false,
        }
    }

    fn mailbox(&mut self) -> &mut Mailbox {
        match &mut self.engine.core {
            CoreLink::Mailbox(mailbox) => mailbox,
            CoreLink::Local => unreachable!("a shard's core link is its mailbox"),
        }
    }
}

impl ShardScheduler for Shard {
    fn now(&self) -> Instant {
        self.engine.now()
    }

    fn run_window(&mut self, horizon: Instant) {
        if !self.started {
            self.started = true;
            self.engine.prime();
        }
        // Schedule every staged handoff due before `horizon`, in canonical
        // merge order (the scheduler's FIFO tie-break preserves it).
        let (shard, nshards) = (self.mailbox().shard, self.mailbox().nshards);
        for h in self.inbox.due_before(horizon) {
            debug_assert_eq!(h.dst as usize % nshards, shard, "misrouted handoff");
            debug_assert!(h.at >= self.engine.now(), "handoff due before the window it reached");
            let node = NodeId(h.dst as usize / nshards);
            self.engine.deliver_from_core(h.at, node, h.kind, h.packet);
        }
        self.engine.dispatch_until(horizon);
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
    agent_dir: Vec<(usize, AgentId)>,
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
    /// traffic. Explicit (unlike the serial core, which uses zero) so the
    /// conservative lookahead stays positive.
    pub const CORE_HOP: Duration = Duration::from_millis(6);

    /// Creates an empty sharded testbed with `nshards` partitions.
    pub fn new(nshards: usize, seed: u64) -> ShardedTestbed {
        assert!(nshards >= 1, "at least one shard");
        ShardedTestbed {
            seed,
            shards: (0..nshards).map(|s| Shard::new(s, nshards)).collect(),
            agent_dir: Vec::new(),
            nodes_total: 0,
            routes: RouteTables::default(),
            routes_dirty: true,
            operator_subscribers: BTreeMap::new(),
            min_access_delay: None,
            clock: Instant::ZERO,
        }
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

    /// The engine owning global node `global`, and the node's local index.
    fn engine_of(&mut self, global: usize) -> (&mut Engine, NodeId) {
        let n = self.shards.len();
        (&mut self.shards[global % n].engine, NodeId(global / n))
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
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        self.min_access_delay =
            Some(self.min_access_delay.map_or(access.delay, |d| d.min(access.delay)));
        let seed = job_seed(self.seed ^ DOMAIN_NODE, global as u64);
        let (engine, _) = self.engine_of(global);
        engine.add_node(node, access);
        engine.streams.push_node(seed);
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
        carve_subscriber(&mut self.operator_subscribers, &mut operator);
        let raw24 = u32::from_be_bytes(operator.pool.address().0) >> 8;
        self.routes.umts24.insert(raw24, node.0 as u32);
        self.routes_dirty = true;
        let seed = job_seed(self.seed ^ DOMAIN_ATTACH, node.0 as u64);
        let att = UmtsAttachment::new(operator, device, credentials, seed, self.clock);
        self.node_mut(node).attach_umts(att);
    }

    /// Installs a session supervisor for `slice` on `node`, its backoff
    /// jitter seeded by the node's global index.
    pub fn attach_supervisor(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        config: SupervisorConfig,
    ) {
        let rng = SimRng::seed_from_u64(job_seed(self.seed ^ DOMAIN_SUPERVISOR, node.0 as u64));
        let (engine, local) = self.engine_of(node.0);
        engine.attach_supervisor(local, SessionSupervisor::new(slice, config, rng));
    }

    /// Tells the supervisor on `node` to dial. Panics if none is attached.
    pub fn start_supervisor(&mut self, node: GlobalNodeId) {
        let (engine, local) = self.engine_of(node.0);
        engine.start_supervisor(local);
    }

    /// Schedules a fault campaign against `node`'s UMTS stack.
    pub fn schedule_faults(&mut self, node: GlobalNodeId, plan: FaultPlan) {
        let (engine, local) = self.engine_of(node.0);
        engine.schedule_faults(local, plan);
    }

    /// Folds the tail interval into `node`'s supervisor metrics and
    /// returns the availability snapshot.
    pub fn availability(&mut self, node: GlobalNodeId) -> Option<AvailabilityMetrics> {
        let (engine, local) = self.engine_of(node.0);
        engine.availability(local)
    }

    /// Replays `schedule` on both directions of `node`'s access link from
    /// the current sim time on (see [`Engine::set_access_schedule`]).
    pub fn set_access_schedule(&mut self, node: GlobalNodeId, schedule: Arc<LinkSchedule>) {
        let (engine, local) = self.engine_of(node.0);
        engine.set_access_schedule(local, schedule);
    }

    /// Shared access to a node.
    pub fn node(&self, id: GlobalNodeId) -> &Node {
        let n = self.shards.len();
        self.shards[id.0 % n].engine.node(NodeId(id.0 / n))
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: GlobalNodeId) -> &mut Node {
        let (engine, local) = self.engine_of(id.0);
        engine.node_mut(local)
    }

    /// Installs an agent on `node` with `add` and hands it the next
    /// global agent index.
    fn register(
        &mut self,
        node: GlobalNodeId,
        add: impl FnOnce(&mut Engine, NodeId) -> AgentId,
    ) -> GlobalAgentId {
        let shard = node.0 % self.shards.len();
        let (engine, local) = self.engine_of(node.0);
        let idx = add(engine, local);
        self.agent_dir.push((shard, idx));
        GlobalAgentId(self.agent_dir.len() - 1)
    }

    /// The flow id of the next agent (ids count global agents from 1).
    fn next_flow_id(&self) -> u32 {
        self.agent_dir.len() as u32 + 1
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
        let seed = job_seed(self.seed ^ DOMAIN_FLOW, self.agent_dir.len() as u64);
        let (flow_id, sport) = (self.next_flow_id(), spec.sport);
        let agent =
            TrafficSender::new(spec, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start, seed);
        let agent = SenderAgent::OpenLoop(agent);
        self.register(node, |engine, local| engine.add_sender(local, slice, sport, agent, start))
    }

    /// Adds a closed-loop congestion-controlled sender on `node`/`slice`
    /// toward `dst_addr` (see [`crate::Testbed::add_tcp_sender`]).
    pub fn add_tcp_sender(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        config: TcpConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> GlobalAgentId {
        let (flow_id, sport) = (self.next_flow_id(), config.sport);
        let agent = TcpFlow::new(config, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start);
        let agent = SenderAgent::Tcp(agent);
        self.register(node, |engine, local| engine.add_sender(local, slice, sport, agent, start))
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
        self.register(node, |engine, local| engine.add_receiver(local, slice, port, flow_id, echo))
    }

    /// The engine holding agent `id`, and the agent's local index.
    fn agent(&self, id: GlobalAgentId) -> (&Engine, AgentId) {
        let (shard, local) = self.agent_dir[id.0];
        (&self.shards[shard].engine, local)
    }

    /// The sender-side logs of an agent.
    pub fn sender_logs(
        &self,
        id: GlobalAgentId,
    ) -> (&[umtslab_ditg::SentRecord], &[umtslab_ditg::RttRecord]) {
        let (engine, local) = self.agent(id);
        engine.sender_logs(local)
    }

    /// The congestion-control counters of a TCP sender, if `id` is one.
    pub fn tcp_stats(&self, id: GlobalAgentId) -> Option<TcpStats> {
        let (engine, local) = self.agent(id);
        engine.tcp_stats(local)
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: GlobalAgentId) -> &[umtslab_ditg::RecvRecord] {
        let (engine, local) = self.agent(id);
        engine.receiver_records(local)
    }

    /// Drop counters summed across shards (order-independent).
    pub fn drops(&self) -> TestbedDrops {
        self.metrics().drops
    }

    /// Total events processed across all shards' schedulers.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_processed()).sum()
    }

    /// Snapshots every layer's counters, summed across shards.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for s in &self.shards {
            m.absorb(&s.engine.metrics());
        }
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
                s.mailbox().routes = Arc::clone(&arc);
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
                for h in s.mailbox().outbox.take() {
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

    /// Every test topology runs at these shard counts; 3 partitions the
    /// nodes unevenly.
    const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

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
        for n in SHARD_COUNTS {
            assert_eq!(wired_flow_trace(n), t1, "shard count {n} must not change the trace");
        }
    }

    #[test]
    fn umts_flow_end_to_end_sharded() {
        let run = |nshards: usize| {
            let (mut tb, n1, n2) = wired_pair(nshards, 2);
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
            assert_eq!(sent.len(), 240, "80 pps * 3 s");
            assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
            assert!(!rtts.is_empty());
            let mean_rtt: u64 =
                rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
            assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
            (sent.to_vec(), rtts.to_vec(), recv.to_vec())
        };
        let reference = run(1);
        for n in SHARD_COUNTS {
            assert_eq!(run(n), reference, "shard count {n} must not change the logs");
        }
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
        for n in SHARD_COUNTS {
            let (mut tb, n1, _n2) = wired_pair(n, 3);
            let s = tb.node_mut(n1).slices.create("tx");
            let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
            let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
            tb.run_until(Instant::from_secs(1));
            assert_eq!(tb.drops().core_unroutable, 2, "10 pps * 0.2 s at {n} shard(s)");
        }
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
