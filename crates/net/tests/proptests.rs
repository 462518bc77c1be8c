//! Property-style tests for the network substrate, driven by the
//! workspace's deterministic [`SimRng`] generator (the build environment
//! is offline, so no external property-testing crate is used).

use umtslab_net::link::{JitterModel, LinkConfig, Pipe, PushOutcome};
use umtslab_net::packet::{Mark, Packet, PacketId};
use umtslab_net::queue::PacketQueue;
use umtslab_net::route::{FlowKey, PolicyRule, Rib, Route, RoutingTable, RuleSelector, TableId};
use umtslab_net::wire::{Endpoint, Ipv4Address, Ipv4Cidr, IPV4_HEADER_LEN, UDP_HEADER_LEN};
use umtslab_net::IfaceId;
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

/// Randomized cases per property.
const CASES: u64 = 96;

fn rand_addr(rng: &mut SimRng) -> Ipv4Address {
    Ipv4Address::from_u32(rng.next_u64() as u32)
}

fn rand_cidr(rng: &mut SimRng) -> Ipv4Cidr {
    let len = rng.uniform_u64(0, 32) as u8;
    Ipv4Cidr::new(rand_addr(rng), len)
}

fn rand_bytes(rng: &mut SimRng, min: usize, max: usize) -> Vec<u8> {
    let len = rng.uniform_u64(min as u64, max as u64) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn packet(id: u64, payload: Vec<u8>) -> Packet {
    Packet::udp(
        PacketId(id),
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 1000),
        Endpoint::new(Ipv4Address::new(192, 0, 2, 7), 2000),
        payload,
        Instant::ZERO,
    )
}

/// Address textual round trip is lossless.
#[test]
fn addr_display_parse_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x0101);
    for _ in 0..CASES {
        let a = rand_addr(&mut rng);
        let text = a.to_string();
        let parsed: Ipv4Address = text.parse().unwrap();
        assert_eq!(parsed, a);
    }
}

/// CIDR containment agrees with the mask arithmetic definition, and the
/// canonical network base is always inside its own prefix.
#[test]
fn cidr_contains_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0x0102);
    for _ in 0..CASES {
        let c = rand_cidr(&mut rng);
        let a = rand_addr(&mut rng);
        let reference = if c.prefix_len() == 0 {
            true
        } else {
            let shift = 32 - c.prefix_len() as u32;
            (a.to_u32() >> shift) == (c.address().to_u32() >> shift)
        };
        assert_eq!(c.contains(a), reference);
        assert!(c.contains(c.address()), "base must be a member of {c}");
    }
}

/// Wire serialization round-trips arbitrary payloads and preserves every
/// header field.
#[test]
fn wire_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x0103);
    for _ in 0..CASES {
        let payload = rand_bytes(&mut rng, 0, 1399);
        let mut p = packet(1, payload.clone());
        p.src = Endpoint::new(rand_addr(&mut rng), rng.next_u64() as u16);
        p.dst = Endpoint::new(rand_addr(&mut rng), rng.next_u64() as u16);
        p.tos = rng.next_u64() as u8;
        p.ttl = rng.uniform_u64(1, 255) as u8;
        let bytes = p.to_wire().unwrap();
        assert_eq!(bytes.len(), IPV4_HEADER_LEN + UDP_HEADER_LEN + payload.len());
        let q = Packet::from_wire(&bytes, p.id, p.created).unwrap();
        assert_eq!(q.src, p.src);
        assert_eq!(q.dst, p.dst);
        assert_eq!(q.tos, p.tos);
        assert_eq!(q.ttl, p.ttl);
        assert_eq!(q.payload, payload);
    }
}

/// Any single-bit flip anywhere in the wire image is detected by one of
/// the two checksums (as long as the structural fields still parse, the
/// packet must not round-trip silently).
#[test]
fn wire_single_bit_flip_never_silent() {
    let mut rng = SimRng::seed_from_u64(0x0104);
    for _ in 0..CASES {
        let payload = rand_bytes(&mut rng, 1, 255);
        let p = packet(1, payload);
        let mut bytes = p.to_wire().unwrap();
        let pos = rng.uniform_u64(0, bytes.len() as u64 - 1) as usize;
        let bit = rng.uniform_u64(0, 7);
        bytes[pos] ^= 1 << bit;
        if let Ok(q) = Packet::from_wire(&bytes, p.id, p.created) {
            // A flip that survives both checksums must be... impossible
            // for a single bit: internet checksums detect all 1-bit
            // errors.
            panic!("silent corruption accepted: {q:?} vs {p:?}");
        }
    }
}

/// Queue conservation: enqueued == dequeued + dropped + still-queued,
/// and the byte gauge matches the queued packets exactly.
#[test]
fn queue_conserves_packets() {
    let mut rng = SimRng::seed_from_u64(0x0105);
    for _ in 0..CASES {
        let max_packets = rng.uniform_u64(0, 15) as usize;
        let max_bytes = rng.uniform_u64(0, 3999) as usize;
        let mut q = PacketQueue::new(max_packets, max_bytes);
        let mut id = 0u64;
        let ops = rng.uniform_u64(1, 199);
        for _ in 0..ops {
            if rng.chance(0.5) {
                let size = rng.uniform_u64(0, 199) as usize;
                let _ = q.enqueue(packet(id, vec![0; size]));
                id += 1;
            } else {
                let _ = q.dequeue();
            }
            // Invariants hold at every step.
            let s = q.stats();
            assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
            if max_packets != 0 {
                assert!(q.len() <= max_packets);
            }
            if max_bytes != 0 {
                assert!(q.bytes() <= max_bytes);
            }
        }
        // Byte gauge agrees with a full drain.
        while q.dequeue().is_some() {}
        assert_eq!(q.bytes(), 0);
    }
}

/// Longest-prefix match agrees with a naive reference implementation.
#[test]
fn lpm_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0x0106);
    for _ in 0..CASES {
        let n_routes = rng.uniform_u64(1, 23) as usize;
        let routes: Vec<(Ipv4Cidr, u32)> =
            (0..n_routes).map(|_| (rand_cidr(&mut rng), rng.uniform_u64(0, 3) as u32)).collect();
        let mut table = RoutingTable::new();
        for (i, (dest, metric)) in routes.iter().enumerate() {
            table.add(Route {
                dest: *dest,
                via: None,
                dev: IfaceId(i as u32),
                metric: *metric,
                prefsrc: None,
            });
        }
        let inserted = table.routes().to_vec();
        let n_probes = rng.uniform_u64(1, 31) as usize;
        for _ in 0..n_probes {
            let probe = rand_addr(&mut rng);
            let got = table.lookup(probe);
            // Reference: max prefix_len among containing routes, then min
            // metric, then earliest insertion.
            let best = inserted.iter().filter(|r| r.dest.contains(probe)).max_by(|a, b| {
                a.dest.prefix_len().cmp(&b.dest.prefix_len()).then_with(|| b.metric.cmp(&a.metric))
            });
            match (got, best) {
                (None, None) => {}
                (Some(g), Some(b)) => {
                    assert_eq!(g.dest.prefix_len(), b.dest.prefix_len());
                    assert_eq!(g.metric, b.metric);
                }
                (g, b) => panic!("lookup {:?} vs reference {:?}", g.is_some(), b.is_some()),
            }
        }
    }
}

/// Policy routing always returns the lowest-priority matching rule whose
/// table resolves, regardless of insertion order.
#[test]
fn policy_rules_scan_by_priority() {
    let mut rng = SimRng::seed_from_u64(0x0107);
    for _ in 0..CASES {
        let n_rules = rng.uniform_u64(1, 11) as usize;
        let priorities: Vec<u32> = (0..n_rules).map(|_| rng.uniform_u64(1, 999) as u32).collect();
        let mark = rng.uniform_u64(1, 4) as u32;
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_dev(IfaceId(0)));
        for (i, prio) in priorities.iter().enumerate() {
            let t = TableId(300 + i as u32);
            rib.table_mut(t).add(Route::default_dev(IfaceId(100 + i as u32)));
            rib.add_rule(PolicyRule {
                priority: *prio,
                selector: RuleSelector::fwmark(Mark(mark)),
                table: t,
            });
        }
        let key = FlowKey {
            src: Ipv4Address::new(1, 1, 1, 1),
            dst: Ipv4Address::new(2, 2, 2, 2),
            mark: Mark(mark),
        };
        let decision = rib.resolve(&key).unwrap();
        let min_prio = *priorities.iter().min().unwrap();
        assert_eq!(rib.rules()[decision.rule].priority, min_prio);
        // Unmarked traffic always falls through to main.
        let unmarked = FlowKey { mark: Mark(0), ..key };
        let fallback = rib.resolve(&unmarked).unwrap();
        assert_eq!(rib.rules()[fallback.rule].table, TableId::MAIN);
    }
}

/// Pipe delivery times are non-decreasing (jitter never reorders) and
/// every pushed packet is either scheduled or reported dropped.
#[test]
fn pipe_is_fifo_and_total() {
    let mut rng = SimRng::seed_from_u64(0x0108);
    for _ in 0..CASES {
        let n = rng.uniform_u64(1, 99) as usize;
        let mut cfg = LinkConfig::wired(2_000_000, Duration::from_millis(10));
        cfg.queue_packets = 16;
        cfg.jitter = JitterModel::Uniform { max: Duration::from_millis(5) };
        let mut pipe = Pipe::new(cfg);
        let mut pipe_rng = SimRng::seed_from_u64(rng.next_u64());
        let mut now = Instant::ZERO;
        let mut last_delivery = Instant::ZERO;
        let mut scheduled = 0u64;
        let mut dropped = 0u64;
        for i in 0..n {
            now += Duration::from_micros(rng.uniform_u64(0, 19_999));
            let size = rng.uniform_u64(1, 1199) as usize;
            match pipe.push(now, packet(i as u64, vec![0; size]), &mut pipe_rng) {
                PushOutcome::Scheduled(v) => {
                    for (at, _) in v {
                        assert!(at >= last_delivery, "reordered delivery");
                        assert!(at >= now, "delivery in the past");
                        last_delivery = at;
                        scheduled += 1;
                    }
                }
                PushOutcome::Dropped { .. } => dropped += 1,
            }
        }
        assert_eq!(scheduled + dropped, n as u64);
        let stats = pipe.stats();
        assert_eq!(stats.pushed, n as u64);
        assert_eq!(stats.delivered + stats.dropped_queue + stats.dropped_loss, n as u64);
    }
}

/// `LinkStats::absorb` is an exact field-wise sum.
#[test]
fn link_stats_absorb_is_fieldwise_sum() {
    let mut rng = SimRng::seed_from_u64(0x0109);
    for _ in 0..CASES {
        let mut sample = || {
            let mut pipe = Pipe::new(LinkConfig::wired(1_000_000, Duration::from_millis(1)));
            let mut prng = SimRng::seed_from_u64(rng.next_u64());
            let n = rng.uniform_u64(1, 40);
            for i in 0..n {
                let _ = pipe.push(Instant::from_micros(i * 50), packet(i, vec![0; 400]), &mut prng);
            }
            pipe.stats()
        };
        let a = sample();
        let b = sample();
        let mut total = a;
        total.absorb(b);
        assert_eq!(total.pushed, a.pushed + b.pushed);
        assert_eq!(total.delivered, a.delivered + b.delivered);
        assert_eq!(total.dropped_queue, a.dropped_queue + b.dropped_queue);
        assert_eq!(total.dropped_loss, a.dropped_loss + b.dropped_loss);
    }
}
