//! Layer microbenches for the traced run.
//!
//! Each bench times one layer operation in isolation, at the input size
//! the workload reaches (queue depth, packet size, rule set, backlog),
//! and is reported as ns per operation. Each runs as many operations as
//! the workload's own counters report (capped at [`MAX_OPS`]), so ns/op
//! × that count estimates the layer's share of the measured phase. No
//! bench runs at an input size the workload did not reach, and a layer
//! the workload does not use reads 0.

use std::hint::black_box;

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed, INRIA_ADDR};
use umtslab::prelude::*;
use umtslab::umtslab_net::filter::{Chain, HookContext};
use umtslab::umtslab_net::link::{LinkSchedule, Pipe};
use umtslab::umtslab_net::mailbox::{HandoffKind, Inbox, Outbox};
use umtslab::umtslab_net::packet::PacketId;
use umtslab::umtslab_net::route::{FlowKey, Rib};
use umtslab::umtslab_sim::{EventQueue, SimRng};
use umtslab::umtslab_umts::bearer::{BearerConfig, UmtsBearer};
use umtslab::umtslab_umts::ppp::frame::{encode_frame, protocol, Deframer};

/// The most operations one microbench runs, a guard on its run time.
const MAX_OPS: u64 = 5_000_000;

/// Header bytes the wire adds to a UDP payload (IPv4 + UDP).
const IP_UDP_HEADER: usize = 28;

fn pkt(payload: usize) -> Packet {
    Packet::udp(
        PacketId(1),
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 9_000),
        Endpoint::new(INRIA_ADDR, 9_001),
        vec![0u8; payload],
        Instant::ZERO,
    )
}

/// Runs `op(i)` for `i in 0..ops` and returns ns per call (0 for no ops).
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let ops = ops.min(MAX_OPS);
    if ops == 0 {
        return 0.0;
    }
    let t = std::time::Instant::now();
    for i in 0..ops {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// `EventQueue` hold model at `depth` pending events: each op pops the
/// earliest event and schedules its successor; every eighth op also
/// schedules and cancels a timer, as node re-arming does.
pub fn queue_op_ns(depth: u64, ops: u64) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(Instant::from_micros((i * 997) % 20_000), i);
    }
    ns_per_op(ops, |i| {
        let (at, v) = q.pop().expect("the hold model keeps the depth constant");
        q.schedule(at + Duration::from_micros(1_000 + (v * 7_919) % 20_000), v);
        if i % 8 == 0 {
            let h = q.schedule(at + Duration::from_millis(50), v);
            black_box(q.cancel(h));
        }
    })
}

/// `Pipe::push` on the paper's wired access link at `payload` bytes, one
/// packet per millisecond.
pub fn link_push_ns(payload: usize, ops: u64) -> f64 {
    let mut link = LinkConfig::wired(100_000_000, Duration::from_millis(6));
    link.jitter = JitterModel::Uniform { max: Duration::from_micros(400) };
    let mut pipe = Pipe::new(link);
    let mut rng = SimRng::seed_from_u64(1);
    let p = pkt(payload);
    ns_per_op(ops, |i| {
        black_box(pipe.push(Instant::from_millis(i), p.clone(), &mut rng));
    })
}

/// A UMTS node's routing and filtering state once the paper's recipe is
/// installed: dialed up, one destination registered.
pub struct NodeState {
    rib: Rib,
    egress: Chain,
    mark: Mark,
    ppp_addr: Ipv4Address,
}

impl NodeState {
    /// Dials a reference two-node testbed and snapshots the UMTS node.
    pub fn umts_node(seed: u64) -> Option<NodeState> {
        let cfg = ExperimentConfig::paper(FlowSpec::voip_g711(), PathKind::UmtsToEthernet, seed);
        let mut env = TwoNodeTestbed::build(&cfg);
        env.umts_up(Duration::from_secs(120)).ok()?;
        env.register_destination();
        let node = env.tb.node(env.napoli);
        Some(NodeState {
            rib: node.rib.clone(),
            egress: node.firewall.egress.clone(),
            mark: node.slices.mark_of(env.umts_slice)?,
            ppp_addr: node.ppp_addr()?,
        })
    }
}

/// `Rib::resolve` on the node's policy rules: the owner slice's marked
/// flow to the registered destination, alternating with unmarked traffic.
pub fn route_resolve_ns(node: &NodeState, ops: u64) -> f64 {
    let keys = [
        FlowKey { src: Ipv4Address::UNSPECIFIED, dst: INRIA_ADDR, mark: node.mark },
        FlowKey { src: Ipv4Address::UNSPECIFIED, dst: INRIA_ADDR, mark: Mark(0) },
    ];
    ns_per_op(ops, |i| {
        black_box(node.rib.resolve(black_box(&keys[(i % 2) as usize])));
    })
}

/// `Chain::evaluate` of the egress chain (the isolation rule) on the
/// owner's packets leaving `ppp0`.
pub fn filter_eval_ns(node: &NodeState, ops: u64) -> f64 {
    let mut chain = node.egress.clone();
    let mut p = pkt(180);
    p.src = Endpoint::new(node.ppp_addr, 9_000);
    p.mark = node.mark;
    let ctx = HookContext { in_dev: None, out_dev: Some(PPP0) };
    ns_per_op(ops, |_| {
        black_box(chain.evaluate(&mut p, &ctx));
    })
}

/// `Outbox::push` + `take` + `Inbox::accept` + `due_before` per handoff,
/// exchanged in batches of `batch` as at a window barrier.
pub fn mailbox_ns(batch: u64, ops: u64) -> f64 {
    let batch = batch.max(1);
    let mut out = Outbox::new();
    let mut inbox = Inbox::new();
    let p = pkt(180);
    let mut window = 0u64;
    ns_per_op(ops, |i| {
        out.push(
            Instant::from_micros(window * 6_000 + i % 6_000),
            (i % 509) as u32,
            (i % 7) as u32,
            HandoffKind::Wire,
            p.clone(),
        );
        if (i + 1) % batch == 0 {
            window += 1;
            inbox.accept(out.take());
            black_box(inbox.due_before(Instant::from_micros(window * 6_000 + 6_000)));
        }
    })
}

/// `encode_frame` + `Deframer::feed` of one IPv4 datagram carrying a
/// `payload`-byte UDP payload.
pub fn ppp_codec_ns(payload: usize, ops: u64) -> f64 {
    let datagram: Vec<u8> = (0..payload + IP_UDP_HEADER).map(|i| (i % 251) as u8).collect();
    let mut deframer = Deframer::new();
    ns_per_op(ops, |_| {
        let framed = encode_frame(protocol::IPV4, black_box(&datagram));
        black_box(deframer.feed(&framed));
    })
}

/// `UmtsBearer::service` once per 10 ms TTI at the upgraded 416 kbps
/// grant. With `full`, the buffer starts at capacity and one
/// `payload`-byte arrival per TTI keeps it there; otherwise a packet
/// arrives only when the buffer is empty.
pub fn bearer_service_ns(payload: usize, full: bool, ops: u64) -> f64 {
    let mut bearer = UmtsBearer::new(BearerConfig::typical());
    bearer.set_rate(Instant::ZERO, 416_000);
    let mut rng = SimRng::seed_from_u64(3);
    let p = pkt(payload);
    if full {
        while bearer.enqueue(Instant::ZERO, p.clone()).is_ok() {}
    }
    ns_per_op(ops, |i| {
        let now = Instant::from_millis(10 * (i + 1));
        if full || bearer.backlog_packets() == 0 {
            let _ = bearer.enqueue(now, p.clone());
        }
        black_box(bearer.service(now, &mut rng));
    })
}

/// `LinkSchedule::rate_at` over the drive trace's span.
pub fn schedule_lookup_ns(schedule: &LinkSchedule, ops: u64) -> f64 {
    ns_per_op(ops, |i| {
        black_box(schedule.rate_at(Duration::from_millis((i * 37) % 70_000)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenches_measure_something() {
        assert!(queue_op_ns(64, 1_000) > 0.0);
        assert!(link_push_ns(180, 1_000) > 0.0);
        assert!(mailbox_ns(32, 1_000) > 0.0);
        assert!(ppp_codec_ns(1024, 1_000) > 0.0);
        assert!(bearer_service_ns(1024, true, 1_000) > 0.0);
        assert_eq!(queue_op_ns(64, 0), 0.0, "no operations, no figure");
        let node = NodeState::umts_node(7).expect("reference node dials");
        assert!(route_resolve_ns(&node, 1_000) > 0.0);
        assert!(filter_eval_ns(&node, 1_000) > 0.0);
    }
}
