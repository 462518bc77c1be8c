//! The sharded model: one coupled topology across N engines.
//!
//! [`Testbed::sharded`] partitions the nodes of one topology across N
//! [`Shard`]s, round-robin by global index. Each shard is a forwarding
//! engine over the nodes it owns plus a mailbox; packets that cross the
//! internet core between two nodes — even two nodes of the *same* shard —
//! travel as [`Handoff`]s through per-shard mailboxes, exchanged at
//! conservative window boundaries ([`umtslab_sim::shard::drive`]). The
//! serial model ([`Testbed::new`]) is one [`Shard`] whose engine has a
//! local core link and never stages a handoff.
//!
//! [`Handoff`]: umtslab_net::mailbox::Handoff
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
//! Relative to the serial model, the sharded one models one extra
//! explicit latency, the operator-edge→core hop ([`Testbed::CORE_HOP`]),
//! and draws its randomness per entity instead of from one master stream
//! in creation order. The serial model schedules UMTS uplink packets at
//! the core with zero delay, which would make the safe lookahead zero; a
//! real GGSN's internet edge is not co-located with the research
//! backbone either.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use umtslab_net::mailbox::{HandoffKind, Inbox, Outbox};
use umtslab_net::packet::Packet;
use umtslab_net::wire::Ipv4Address;
use umtslab_sim::shard::ShardScheduler;
use umtslab_sim::time::Instant;

use crate::engine::{CoreLink, Engine, Streams};
use crate::testbed::{AgentId, NodeId, Testbed};

/// Static routing state shared (read-only) by every shard: which global
/// node owns an address.
#[derive(Debug, Default, Clone)]
pub(crate) struct RouteTables {
    /// Exact `eth0` address → global node.
    pub(crate) eth: BTreeMap<u32, u32>,
    /// Carved per-subscriber `/24` (address bits `>> 8`) → global node.
    pub(crate) umts24: BTreeMap<u32, u32>,
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

/// One engine of a [`Testbed`]: the nodes it owns, plus its inbox of
/// handoffs from the other shards.
pub struct Shard {
    pub(crate) engine: Engine,
    inbox: Inbox,
}

impl Shard {
    /// The one engine of the serial model, over master seed `seed`.
    pub(crate) fn serial(seed: u64) -> Shard {
        Shard::over(Engine::new(CoreLink::Local, Streams::master(seed)))
    }

    /// Shard `shard` of `nshards` of the sharded model.
    pub(crate) fn partition(shard: usize, nshards: usize, seed: u64) -> Shard {
        let mailbox = Mailbox { shard, nshards, routes: Arc::default(), outbox: Outbox::new() };
        Shard::over(Engine::new(CoreLink::Mailbox(mailbox), Streams::per_node(seed)))
    }

    fn over(engine: Engine) -> Shard {
        Shard { engine, inbox: Inbox::new() }
    }

    /// The shard's mailbox; `None` on a local core link.
    fn mailbox(&mut self) -> Option<&mut Mailbox> {
        match &mut self.engine.core {
            CoreLink::Mailbox(mailbox) => Some(mailbox),
            CoreLink::Local => None,
        }
    }
}

impl ShardScheduler for Shard {
    fn now(&self) -> Instant {
        self.engine.now()
    }

    fn next_work(&mut self) -> Option<Instant> {
        [self.engine.next_event(), self.inbox.next_due()].into_iter().flatten().min()
    }

    fn run_window(&mut self, horizon: Instant) {
        // Schedule every staged handoff due before `horizon`, in canonical
        // merge order (the scheduler's FIFO tie-break preserves it).
        if let Some(&mut Mailbox { shard, nshards, .. }) = self.mailbox() {
            for h in self.inbox.due_before(horizon) {
                debug_assert_eq!(h.dst as usize % nshards, shard, "misrouted handoff");
                debug_assert!(h.at >= self.engine.now(), "handoff due before its window");
                self.engine.deliver_from_core(h.at, h.dst as usize / nshards, h.kind, h.packet);
            }
        }
        self.engine.dispatch_until(horizon);
    }
}

/// Hands every mailbox the current route tables.
pub(crate) fn publish_routes(shards: &mut [Shard], routes: &RouteTables) {
    let routes = Arc::new(routes.clone());
    for mailbox in shards.iter_mut().filter_map(Shard::mailbox) {
        mailbox.routes = Arc::clone(&routes);
    }
}

/// Moves every staged handoff to its owning shard's inbox. Collection
/// order is irrelevant: each inbox re-sorts into canonical order before
/// injecting. Nothing is allocated: a serial testbed has no outbox, an
/// empty outbox is skipped, and each drained one gets its vector back.
pub(crate) fn exchange(shards: &mut [Shard]) {
    let nshards = shards.len();
    for s in 0..nshards {
        let Some(mailbox) = shards[s].mailbox() else { continue };
        if mailbox.outbox.is_empty() {
            continue;
        }
        let mut staged = mailbox.outbox.take();
        for h in staged.drain(..) {
            shards[h.dst as usize % nshards].inbox.push(h);
        }
        if let Some(mailbox) = shards[s].mailbox() {
            mailbox.outbox.recycle(staged);
        }
    }
}

/// The sharded front end's former name: a [`Testbed`] built by
/// [`Testbed::sharded`].
pub struct ShardedTestbed(Testbed);

/// The former name of a sharded testbed's [`NodeId`].
pub type GlobalNodeId = NodeId;

/// The former name of a sharded testbed's [`AgentId`].
pub type GlobalAgentId = AgentId;

impl ShardedTestbed {
    /// Creates an empty testbed of `nshards` partitions
    /// ([`Testbed::sharded`]).
    pub fn new(nshards: usize, seed: u64) -> ShardedTestbed {
        ShardedTestbed(Testbed::sharded(nshards, seed))
    }
}

impl Deref for ShardedTestbed {
    type Target = Testbed;

    fn deref(&self) -> &Testbed {
        &self.0
    }
}

impl DerefMut for ShardedTestbed {
    fn deref_mut(&mut self) -> &mut Testbed {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::tests::{
        a, assert_shard_count_invariant, umts_flow, unroutable_flow, wired_flow, wired_pair,
        SHARD_COUNTS,
    };
    use umtslab_ditg::FlowSpec;
    use umtslab_net::wire::Ipv4Cidr;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};
    use umtslab_sim::shard::{run_serial, window_ends};
    use umtslab_sim::time::Duration;
    use umtslab_umts::at::DeviceProfile;
    use umtslab_umts::operator::OperatorProfile;
    use umtslab_umts::ppp::Credentials;

    #[test]
    fn wired_flow_end_to_end_across_shards() {
        let runs: Vec<_> = SHARD_COUNTS.into_iter().map(|n| wired_flow(Some(n))).collect();
        assert_shard_count_invariant(&runs);
    }

    #[test]
    fn umts_flow_end_to_end_sharded() {
        let runs: Vec<_> = SHARD_COUNTS.into_iter().map(|n| umts_flow(Some(n))).collect();
        assert_shard_count_invariant(&runs);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        for n in SHARD_COUNTS {
            unroutable_flow(Some(n));
        }
    }

    #[test]
    fn requests_between_runs_take_effect_at_once() {
        // A vsys request submitted between two runs must be served by the
        // next run, not whenever the node next happens to wake.
        for n in [1, 2] {
            let (mut tb, n1, _n2) = wired_pair(Some(n), 2);
            tb.attach_umts(
                n1,
                OperatorProfile::commercial_italy(),
                DeviceProfile::huawei_e620(),
                Some(Credentials::new("web", "web")),
            );
            let s = tb.node_mut(n1).slices.create("umts");
            tb.node_mut(n1).grant_umts_access(s);
            tb.node_mut(n1).vsys_submit(s, UmtsRequest::Start).unwrap();
            tb.run_until(Instant::from_secs(15));
            assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

            let dst = Ipv4Cidr::host(a("138.96.20.10"));
            tb.node_mut(n1).vsys_submit(s, UmtsRequest::AddDestination(dst)).unwrap();
            tb.run_for(Duration::from_millis(1));
            let installed = tb.node(n1).umts_status().destinations;
            assert_eq!(installed, vec![dst], "route late at {n} shard(s)");
        }
    }

    #[test]
    fn idle_windows_skip_the_window_runner() {
        // A dialed-up node with no flow only wakes for keepalives and
        // timers: `run` sees those windows alone.
        let (mut tb, n1, _n2) = wired_pair(Some(2), 12);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s = tb.node_mut(n1).slices.create("umts");
        tb.node_mut(n1).grant_umts_access(s);
        tb.node_mut(n1).vsys_submit(s, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

        let (from, horizon) = (tb.now(), tb.now() + Duration::from_secs(5));
        let windows = window_ends(from, horizon, tb.lookahead()).count();
        let mut calls = 0;
        tb.run_until_with(horizon, |shards, end| {
            assert!(
                shards.iter_mut().any(|s| s.next_work().is_some_and(|at| at < end)),
                "idle window fanned out"
            );
            calls += 1;
            run_serial(shards, end);
        });
        assert!(0 < calls && calls < windows, "{calls} of {windows} windows fanned out");
        assert_eq!(tb.now(), horizon);
    }

    #[test]
    fn phased_runs_match_unphased_runs() {
        // Stopping and restarting mid-simulation must not change results:
        // the window boundaries are absolute, not phase-relative.
        let run = |phased: bool| {
            let (mut tb, n1, n2) = wired_pair(Some(2), 11);
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
            tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx)).collect::<Vec<_>>()
        };
        let a = run(false);
        assert!(!a.is_empty());
        assert_eq!(a, run(true));
    }

    #[test]
    fn metrics_are_shard_count_invariant() {
        let snapshot = |nshards: usize| {
            let (mut tb, n1, n2) = wired_pair(Some(nshards), 5);
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
