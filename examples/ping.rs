//! A `ping` clone over the simulated network — and a demonstration that
//! the library layers compose outside the [`umtslab::Testbed`]: this
//! example wires two nodes with a raw duplex link and runs its own event
//! loop on the `umtslab-sim` scheduler. Every packet is also captured to a
//! Wireshark-readable `ping.pcap`.
//!
//! ```sh
//! cargo run --example ping -- [count]
//! ```

use umtslab::prelude::*;
use umtslab::umtslab_net::icmp;
use umtslab::umtslab_net::link::{DuplexLink, PushOutcome};
use umtslab::umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab::umtslab_net::pcap::PcapWriter;
use umtslab::umtslab_planetlab::node::ETH0;
use umtslab::umtslab_sim::{Scheduler, SimRng};

enum Ev {
    /// Send the next echo request.
    Tick(u16),
    /// A packet arrives at a node (0 = pinger, 1 = target).
    Arrive(usize, Packet),
}

fn main() {
    let count: u16 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);

    // Two hosts on a 100 Mbps link with 9 ms one-way delay and a little
    // jitter — a plausible wide-area path.
    let mut pinger = Node::new("pinger");
    pinger.configure_eth(
        Ipv4Address::new(10, 0, 0, 1),
        "10.0.0.0/24".parse().unwrap(),
        Ipv4Address::new(10, 0, 0, 254),
    );
    let mut target = Node::new("target");
    target.configure_eth(
        Ipv4Address::new(10, 0, 0, 2),
        "10.0.0.0/24".parse().unwrap(),
        Ipv4Address::new(10, 0, 0, 254),
    );
    let mut nodes = [pinger, target];
    let mut link = DuplexLink::symmetric({
        let mut cfg = LinkConfig::wired(100_000_000, Duration::from_millis(9));
        cfg.jitter = umtslab::prelude::JitterModel::Uniform { max: Duration::from_millis(2) };
        cfg
    });

    let mut sched: Scheduler<Ev> = Scheduler::new();
    let mut rng = SimRng::seed_from_u64(4);
    let mut ids = PacketIdAllocator::new();
    let mut pcap = PcapWriter::new(std::fs::File::create("ping.pcap").expect("create pcap"))
        .expect("pcap header");
    let ident = std::process::id() as u16;
    let target_addr = Ipv4Address::new(10, 0, 0, 2);

    println!("PING {target_addr} ({target_addr}) {} bytes of data.", 56);
    sched.at(Instant::ZERO, Ev::Tick(0));
    let mut received = 0u32;

    while let Some(ev) = sched.next_before(Instant::from_secs(u64::from(count) + 5)) {
        let now = sched.now();
        match ev {
            Ev::Tick(seq) => {
                // Encode the transmit time in the echo data, like real ping.
                let data = now.total_micros().to_be_bytes();
                let mut payload = vec![0u8; 56];
                payload[..8].copy_from_slice(&data);
                let req = icmp::echo_request(
                    ids.allocate(),
                    Ipv4Address::new(10, 0, 0, 1),
                    target_addr,
                    ident,
                    seq,
                    &payload,
                    now,
                );
                let _ = pcap.record_raw(now, &icmp_wire(&req));
                match link.forward.push(now, req, &mut rng) {
                    PushOutcome::Scheduled(v) => {
                        for (at, p) in v {
                            sched.at(at, Ev::Arrive(1, p));
                        }
                    }
                    PushOutcome::Dropped { .. } => println!("request {seq} lost"),
                }
                if seq + 1 < count {
                    sched.after(Duration::from_secs(1), Ev::Tick(seq + 1));
                }
            }
            Ev::Arrive(node_idx, packet) => {
                nodes[node_idx].ingress(now, ETH0, packet);
                // Drain kernel replies (the target answering) and inbox
                // (the pinger receiving).
                let out = nodes[node_idx].poll(now);
                for reply in out.wire_tx {
                    let _ = pcap.record_raw(now, &icmp_wire(&reply));
                    let pipe = if node_idx == 1 { &mut link.reverse } else { &mut link.forward };
                    if let PushOutcome::Scheduled(v) = pipe.push(now, reply, &mut rng) {
                        for (at, p) in v {
                            sched.at(at, Ev::Arrive(1 - node_idx, p));
                        }
                    }
                }
                for (at, reply) in nodes[node_idx].take_icmp() {
                    if let Some(echo) = icmp::parse_echo(&reply) {
                        let tx = u64::from_be_bytes(echo.data[..8].try_into().unwrap());
                        let rtt_us = at.total_micros() - tx;
                        received += 1;
                        println!(
                            "64 bytes from {}: icmp_seq={} ttl=64 time={:.1} ms",
                            reply.src.addr,
                            echo.seq,
                            rtt_us as f64 / 1000.0
                        );
                    }
                }
            }
        }
    }

    println!("\n--- {target_addr} ping statistics ---");
    println!(
        "{count} packets transmitted, {received} received, {:.0}% packet loss",
        (f64::from(count) - f64::from(received)) / f64::from(count) * 100.0
    );
    let file = pcap.finish().expect("flush pcap");
    drop(file);
    println!("packet capture written to ping.pcap ({} records)", count * 2);
}

/// Serializes an ICMP packet to raw IP bytes for the capture (the UDP
/// serializer does not apply; build an IPv4 header around the ICMP body).
fn icmp_wire(p: &Packet) -> Vec<u8> {
    use umtslab::umtslab_net::wire::{Ipv4PacketView, Protocol, IPV4_HEADER_LEN};
    let mut buf = vec![0u8; IPV4_HEADER_LEN + p.payload.len()];
    buf[IPV4_HEADER_LEN..].copy_from_slice(&p.payload);
    let mut v = Ipv4PacketView::new_unchecked(&mut buf[..]);
    v.init_defaults();
    v.set_protocol(Protocol::Icmp);
    v.set_src_addr(p.src.addr);
    v.set_dst_addr(p.dst.addr);
    v.fill_checksum();
    buf
}
