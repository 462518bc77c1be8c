//! Hostile-input tests for the probe wire format, on the workspace's
//! seeded [`SimRng`] harness.
//!
//! The corpus is valid probes from [`Probe::send`] and their `to_wire`
//! images. Truncated, spliced and bit-flipped copies go through
//! [`parse_header`] and [`Packet::from_wire`]. Neither may panic:
//! `parse_header` answers `None` exactly when the payload is shorter than
//! the header, and `from_wire` answers a packet or a typed [`WireError`].
//! Every unmutated corpus packet round-trips through `to_wire` and
//! `from_wire`.

use umtslab_ditg::agent::{parse_header, Probe, HEADER_LEN};
use umtslab_net::bytes::BufferPool;
use umtslab_net::packet::{Packet, PacketId, PacketIdAllocator};
use umtslab_net::wire::{Ipv4Address, WireError};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::Instant;

/// Probes in the corpus.
const PROBES: u64 = 200;
/// Mutated copies per probe, per mutation kind.
const MUTANTS: u64 = 20;

/// A valid probe with its header fields: `(packet, seq, flow, tx)`.
fn corpus(rng: &mut SimRng) -> Vec<(Packet, u32, u32, Instant)> {
    let mut ids = PacketIdAllocator::new();
    let mut pool = BufferPool::new();
    (0..PROBES)
        .map(|_| {
            let flow = rng.next_u64() as u32;
            let dst = Ipv4Address::from_u32(rng.next_u64() as u32);
            let mut probe = Probe::new(flow, rng.next_u64() as u16, dst, rng.next_u64() as u16);
            let seq = rng.next_u64() as u32;
            let tx = Instant::from_micros(rng.uniform_u64(0, u64::from(u32::MAX)));
            let size = match rng.uniform_u64(0, 3) {
                0 => HEADER_LEN,
                1 => rng.uniform_u64(HEADER_LEN as u64, 64) as usize,
                _ => rng.uniform_u64(HEADER_LEN as u64, 1_472) as usize,
            };
            let mut packet = probe.send(seq, size, tx, &mut ids, &mut pool);
            packet.src.addr = Ipv4Address::from_u32(rng.next_u64() as u32);
            packet.tos = rng.next_u64() as u8;
            packet.ttl = rng.uniform_u64(1, 255) as u8;
            (packet, seq, flow, tx)
        })
        .collect()
}

/// Truncated, spliced and bit-flipped copies of `bytes`; `other` is the
/// splice partner.
fn mutants(rng: &mut SimRng, bytes: &[u8], other: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..MUTANTS {
        out.push(bytes[..rng.uniform_u64(0, bytes.len() as u64) as usize].to_vec());
        let head = rng.uniform_u64(0, bytes.len() as u64) as usize;
        let tail = rng.uniform_u64(0, other.len() as u64) as usize;
        out.push([&bytes[..head], &other[tail..]].concat());
        let mut flipped = bytes.to_vec();
        if !flipped.is_empty() {
            for _ in 0..rng.uniform_u64(1, 8) {
                let pos = rng.uniform_u64(0, flipped.len() as u64 - 1) as usize;
                flipped[pos] ^= 1 << rng.uniform_u64(0, 7);
            }
        }
        out.push(flipped);
    }
    out
}

#[test]
fn parse_header_answers_none_exactly_below_the_header_length() {
    let mut rng = SimRng::seed_from_u64(0x0901);
    let corpus = corpus(&mut rng);
    for (i, (packet, seq, flow, tx)) in corpus.iter().enumerate() {
        let payload = &packet.payload[..];
        assert_eq!(parse_header(payload), Some((*seq, *flow, *tx)), "probe {i}");
        let other = &corpus[(i + 1) % corpus.len()].0.payload[..];
        for m in mutants(&mut rng, payload, other) {
            let parsed = parse_header(&m);
            assert_eq!(parsed.is_some(), m.len() >= HEADER_LEN, "probe {i}, {} bytes", m.len());
            if m.len() >= HEADER_LEN && m[..HEADER_LEN] == payload[..HEADER_LEN] {
                assert_eq!(parsed, Some((*seq, *flow, *tx)), "probe {i}: header bytes intact");
            }
        }
    }
}

#[test]
fn from_wire_answers_a_packet_or_a_typed_error_and_round_trips_the_corpus() {
    let mut rng = SimRng::seed_from_u64(0x0902);
    let corpus = corpus(&mut rng);
    let wires: Vec<Vec<u8>> =
        corpus.iter().map(|(p, ..)| p.to_wire().expect("a probe serializes")).collect();
    let mut errors = [0u64; 3];
    for (i, ((packet, seq, flow, tx), wire)) in corpus.iter().zip(&wires).enumerate() {
        let back = Packet::from_wire(wire, packet.id, packet.created).expect("valid wire image");
        assert_eq!((back.src, back.dst), (packet.src, packet.dst), "probe {i}");
        assert_eq!((back.tos, back.ttl), (packet.tos, packet.ttl), "probe {i}");
        assert_eq!(back.payload, packet.payload, "probe {i}");
        assert_eq!(parse_header(&back.payload), Some((*seq, *flow, *tx)), "probe {i}");

        let other = &wires[(i + 1) % wires.len()];
        for m in mutants(&mut rng, wire, other) {
            match Packet::from_wire(&m, PacketId(0), Instant::ZERO) {
                Ok(q) => assert!(q.payload.len() + 28 <= m.len(), "probe {i}: payload overruns"),
                Err(WireError::Truncated) => errors[0] += 1,
                Err(WireError::Malformed) => errors[1] += 1,
                Err(WireError::BadChecksum) => errors[2] += 1,
            }
        }
    }
    // The mutations reach every rejection the parser has.
    assert!(
        errors.iter().all(|&n| n > 0),
        "rejections (truncated, malformed, checksum): {errors:?}"
    );
}
