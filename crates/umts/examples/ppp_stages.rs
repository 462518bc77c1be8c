//! Times each stage of the UMTS uplink byte path on its own: the
//! datagram's serialization (`Packet::to_wire_into`), its PPP framing
//! (`encode_frame_into`), the GGSN's deframing (`Deframer::feed_with`)
//! and the re-validating parse (`Packet::from_wire`).
//!
//! The payload shapes are the ones the workloads send — a 16-byte D-ITG
//! header followed by zeros, at 180 B (the VoIP job) and 1,024 B (the
//! CBR job) — plus the `i % 251` fill of the codec probe. A zero-filled
//! payload is the codec's worst case: every octet is escaped into a
//! `7D 20` pair. Before timing, every shape is checked: its frame equals
//! `encode_frame`'s output and deframes and parses back to the packet.
//!
//! ```text
//! cargo run --release -p umtslab-umts --example ppp_stages [-- --iters N]
//! ```
//!
//! Each cell is the best of five rounds of `N / 5` operations (default
//! `N` = 100 000), in nanoseconds per datagram. There is no timing gate:
//! compare two builds by running them alternately on one host.

use std::hint::black_box;
use std::time::Instant as WallClock;

use umtslab_net::packet::{Packet, PacketId};
use umtslab_net::wire::{Endpoint, Ipv4Address};
use umtslab_sim::time::Instant;
use umtslab_umts::ppp::frame::{encode_frame, encode_frame_into, protocol, Deframer};

const ROUNDS: u64 = 5;

/// A UDP packet whose payload is `len` bytes: a D-ITG header (sequence
/// number, flow id, send time) then zeros, or the `i % 251` fill.
fn packet(len: usize, ditg: bool) -> Packet {
    let payload: Vec<u8> = if ditg {
        let mut p = vec![0u8; len];
        p[0..4].copy_from_slice(&4_711u32.to_be_bytes());
        p[4..8].copy_from_slice(&1u32.to_be_bytes());
        p[8..16].copy_from_slice(&12_345_678u64.to_be_bytes());
        p
    } else {
        (0..len).map(|i| (i % 251) as u8).collect()
    };
    Packet::udp(
        PacketId(7),
        Endpoint::new(Ipv4Address::new(10, 64, 128, 2), 9_000),
        Endpoint::new(Ipv4Address::new(138, 96, 20, 10), 9_001),
        payload,
        Instant::ZERO,
    )
}

/// The best of [`ROUNDS`] rounds of `ops` calls to `f`, in ns per call.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let start = WallClock::now();
            for _ in 0..ops {
                f();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Checks that `p` survives the byte path unchanged, then times each
/// stage; returns `[to_wire, encode, deframe, from_wire]` in ns.
fn stages(p: &Packet, ops: u64) -> [f64; 4] {
    let mut wire = Vec::new();
    p.to_wire_into(&mut wire).expect("a UDP packet serializes");
    let mut frame = Vec::new();
    encode_frame_into(protocol::IPV4, &wire, &mut frame);
    assert_eq!(frame, encode_frame(protocol::IPV4, &wire), "encode_frame_into differs");
    let mut deframer = Deframer::new();
    let mut frames = 0;
    deframer.feed_with(&frame, |proto, body| {
        assert_eq!((proto, body), (protocol::IPV4, &wire[..]), "the frame does not round-trip");
        let back = Packet::from_wire(body, p.id, p.created).expect("the datagram re-validates");
        assert_eq!(back.payload, p.payload, "the payload does not round-trip");
        assert_eq!((back.src, back.dst), (p.src, p.dst), "the addresses do not round-trip");
        frames += 1;
    });
    assert_eq!((frames, deframer.errors), (1, 0), "one good frame");

    let per_round = (ops / ROUNDS).max(1);
    let to_wire = ns_per_op(per_round, || {
        black_box(p).to_wire_into(&mut wire).expect("serializes");
    });
    let encode = ns_per_op(per_round, || {
        encode_frame_into(protocol::IPV4, black_box(&wire), &mut frame);
    });
    let deframe = ns_per_op(per_round, || {
        deframer.feed_with(black_box(&frame), |_, body| {
            black_box(body);
        });
    });
    let from_wire = ns_per_op(per_round, || {
        black_box(Packet::from_wire(black_box(&wire), p.id, p.created).expect("valid"));
    });
    [to_wire, encode, deframe, from_wire]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ops = match args.as_slice() {
        [] => 100_000,
        [flag, n] if flag == "--iters" => match n.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => usage(),
        },
        _ => usage(),
    };
    println!("ns per datagram, best of {ROUNDS} rounds of {} ops", (ops / ROUNDS).max(1));
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "payload", "bytes", "to_wire", "encode", "deframe", "from_wire"
    );
    for (name, ditg) in [("ditg+zeros", true), ("i%251", false)] {
        for len in [180, 1024] {
            let [to_wire, encode, deframe, from_wire] = stages(&packet(len, ditg), ops);
            println!(
                "{name:<12} {len:>7} {to_wire:>9.1} {encode:>9.1} {deframe:>9.1} {from_wire:>9.1}"
            );
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: ppp_stages [--iters N]   (N > 0 operations per cell, default 100000)");
    std::process::exit(2);
}
