//! The probe endpoint and the traffic sender and receiver agents.
//!
//! Like D-ITG, every sender stamps a small header — sequence number, flow
//! id and transmit timestamp — into every UDP payload, and both sides log
//! per-packet records ([`SentRecord`] / [`RecvRecord`]). When RTT
//! measurement is enabled the receiver answers every probe with a minimal
//! echo carrying the original header, from which the sender computes
//! [`RttRecord`]s. The logs are decoded offline by [`crate::decode`],
//! mirroring the ITGSend / ITGRecv / ITGDec workflow.
//!
//! [`Probe`] is the one place that wire format and the sender logs live:
//! the open-loop [`TrafficSender`] here and the closed-loop senders of
//! `umtslab-traffic` each embed one and decide only *when* and *what
//! size* to send, while [`TrafficReceiver`] builds its echoes through
//! the same stamping code.

use umtslab_net::bytes::BufferPool;
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::{Endpoint, Ipv4Address};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

use crate::flow::FlowSpec;

/// Size of the in-payload header.
pub const HEADER_LEN: usize = 16;

/// Writes the D-ITG header into the first bytes of `payload`.
pub fn encode_header(payload: &mut [u8], seq: u32, flow_id: u32, tx: Instant) {
    payload[0..4].copy_from_slice(&seq.to_be_bytes());
    payload[4..8].copy_from_slice(&flow_id.to_be_bytes());
    payload[8..16].copy_from_slice(&tx.total_micros().to_be_bytes());
}

/// Parses the D-ITG header: `(seq, flow_id, tx_time)`.
pub fn parse_header(payload: &[u8]) -> Option<(u32, u32, Instant)> {
    if payload.len() < HEADER_LEN {
        return None;
    }
    let seq = u32::from_be_bytes(payload[0..4].try_into().ok()?);
    let flow = u32::from_be_bytes(payload[4..8].try_into().ok()?);
    let tx = u64::from_be_bytes(payload[8..16].try_into().ok()?);
    Some((seq, flow, Instant::from_micros(tx)))
}

/// Sender-side log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentRecord {
    /// Sequence number.
    pub seq: u32,
    /// Transmit time.
    pub tx: Instant,
    /// UDP payload size.
    pub payload: usize,
}

/// Receiver-side log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRecord {
    /// Sequence number.
    pub seq: u32,
    /// Transmit time (from the header).
    pub tx: Instant,
    /// Receive time.
    pub rx: Instant,
    /// UDP payload size.
    pub payload: usize,
}

impl RecvRecord {
    /// One-way delay of this packet.
    pub fn owd(&self) -> Duration {
        self.rx.saturating_duration_since(self.tx)
    }
}

/// Sender-side RTT sample from an answered probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttRecord {
    /// Sequence number of the probe.
    pub seq: u32,
    /// Probe transmit time.
    pub tx: Instant,
    /// Measured round-trip time.
    pub rtt: Duration,
}

/// One probe flow's endpoint: its flow id, its two endpoints, and its
/// send and RTT logs.
///
/// It is the only sender code that writes or parses the probe header.
/// The source address is left unspecified so the node's routing fills
/// it (this is how the UMTS path acquires the `ppp0` source address).
#[derive(Debug)]
pub struct Probe {
    flow_id: u32,
    src: Endpoint,
    dst: Endpoint,
    sent: Vec<SentRecord>,
    rtts: Vec<RttRecord>,
}

impl Probe {
    /// A probe of flow `flow_id` from local port `sport` to
    /// `dst_addr:dport`.
    pub fn new(flow_id: u32, sport: u16, dst_addr: Ipv4Address, dport: u16) -> Probe {
        Probe {
            flow_id,
            src: Endpoint::new(Ipv4Address::UNSPECIFIED, sport),
            dst: Endpoint::new(dst_addr, dport),
            sent: Vec::new(),
            rtts: Vec::new(),
        }
    }

    /// Sends probe `seq` at `at`: a `size`-byte payload from `pool`
    /// stamped with the header, logged as a [`SentRecord`].
    pub fn send(
        &mut self,
        seq: u32,
        size: usize,
        at: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Packet {
        let packet = stamped((seq, self.flow_id, at), size, (self.src, self.dst), at, ids, pool);
        self.sent.push(SentRecord { seq, tx: at, payload: size });
        packet
    }

    /// The `(seq, tx)` of `packet` if it is an echo of this flow.
    pub fn echo(&self, packet: &Packet) -> Option<(u32, Instant)> {
        header_of(packet, self.flow_id)
    }

    /// Logs an RTT sample of `rtt` for probe `seq` sent at `tx`.
    pub fn record_rtt(&mut self, seq: u32, tx: Instant, rtt: Duration) {
        self.rtts.push(RttRecord { seq, tx, rtt });
    }

    /// The send log (one record per transmission).
    pub fn sent(&self) -> &[SentRecord] {
        &self.sent
    }

    /// The RTT log.
    pub fn rtts(&self) -> &[RttRecord] {
        &self.rtts
    }
}

/// The `(seq, tx)` of `packet` if its header names flow `flow_id`.
fn header_of(packet: &Packet, flow_id: u32) -> Option<(u32, Instant)> {
    let (seq, flow, tx) = parse_header(&packet.payload)?;
    (flow == flow_id).then_some((seq, tx))
}

/// A UDP packet created at `at` whose `size`-byte payload, taken from
/// `pool`, carries `header` (`(seq, flow_id, tx)`).
fn stamped(
    header: (u32, u32, Instant),
    size: usize,
    (src, dst): (Endpoint, Endpoint),
    at: Instant,
    ids: &mut PacketIdAllocator,
    pool: &mut BufferPool,
) -> Packet {
    let (seq, flow_id, tx) = header;
    let payload = pool.filled(size, |buf| encode_header(buf, seq, flow_id, tx));
    Packet::udp(ids.allocate(), src, dst, payload, at)
}

/// The ITGSend equivalent.
#[derive(Debug)]
pub struct TrafficSender {
    spec: FlowSpec,
    probe: Probe,
    next_seq: u32,
    ends: Instant,
    next_departure: Option<Instant>,
    rng: SimRng,
}

impl TrafficSender {
    /// Creates a sender of flow `flow_id` for `spec` toward `dst_addr`,
    /// starting at `start`.
    pub fn new(
        spec: FlowSpec,
        flow_id: u32,
        dst_addr: Ipv4Address,
        start: Instant,
        seed: u64,
    ) -> TrafficSender {
        TrafficSender {
            probe: Probe::new(flow_id, spec.sport, dst_addr, spec.dport),
            ends: start + spec.duration,
            spec,
            next_seq: 0,
            next_departure: Some(start),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// When the next packet departs; `None` once the flow has ended.
    pub fn next_departure(&self) -> Option<Instant> {
        self.next_departure
    }

    /// True once all packets have been emitted.
    pub fn finished(&self) -> bool {
        self.next_departure.is_none()
    }

    /// Emits the packet due at `now` (a no-op if none is due).
    ///
    /// The payload is written once into a buffer from `pool` and handed to
    /// the packet without copying; reclaim retired payloads into the same
    /// pool to make steady-state emission allocation-free.
    pub fn emit(
        &mut self,
        now: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        let due = self.next_departure?;
        if now < due {
            return None;
        }
        let size = self.spec.ps.sample(&mut self.rng);
        let seq = self.next_seq;
        self.next_seq += 1;
        let packet = self.probe.send(seq, size, due, ids, pool);

        let next = due + self.spec.idt.sample(&mut self.rng);
        self.next_departure = if next < self.ends { Some(next) } else { None };
        Some(packet)
    }

    /// Handles a packet arriving at the sender's port (an echo reply).
    pub fn on_receive(&mut self, now: Instant, packet: &Packet) {
        if let Some((seq, tx)) = self.probe.echo(packet) {
            self.probe.record_rtt(seq, tx, now.saturating_duration_since(tx));
        }
    }

    /// The probe endpoint with the send and RTT logs.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }
}

/// The ITGRecv equivalent.
#[derive(Debug)]
pub struct TrafficReceiver {
    flow_id: u32,
    echo: bool,
    records: Vec<RecvRecord>,
    // lint:allow(D1) per-packet duplicate filter; membership probes only, never iterated
    seen: std::collections::HashSet<u32>,
    duplicates: u64,
}

impl TrafficReceiver {
    /// Creates a receiver for flow `flow_id`; `echo` enables RTT probes.
    pub fn new(flow_id: u32, echo: bool) -> TrafficReceiver {
        TrafficReceiver {
            flow_id,
            echo,
            records: Vec::new(),
            // lint:allow(D1) constructing the membership-only dup filter justified above
            seen: std::collections::HashSet::new(),
            duplicates: 0,
        }
    }

    /// Handles an arriving packet; returns the echo reply to send, if
    /// RTT measurement is on. The echo is a bare header.
    pub fn on_receive(
        &mut self,
        now: Instant,
        packet: &Packet,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        let (seq, tx) = header_of(packet, self.flow_id)?;
        if !self.seen.insert(seq) {
            self.duplicates += 1;
            return None;
        }
        self.records.push(RecvRecord { seq, tx, rx: now, payload: packet.payload.len() });
        if !self.echo {
            return None;
        }
        // Reply from our endpoint back to the prober.
        let route = (packet.dst, packet.src);
        Some(stamped((seq, self.flow_id, tx), HEADER_LEN, route, now, ids, pool))
    }

    /// The receive log.
    pub fn records(&self) -> &[RecvRecord] {
        &self.records
    }

    /// Duplicate packets observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_net::packet::PacketId;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn voip_sender() -> TrafficSender {
        TrafficSender::new(FlowSpec::voip_g711(), 1, a("10.0.0.2"), Instant::from_secs(1), 99)
    }

    #[test]
    fn header_roundtrip() {
        let mut buf = vec![0u8; 32];
        encode_header(&mut buf, 42, 7, Instant::from_micros(123_456));
        assert_eq!(parse_header(&buf), Some((42, 7, Instant::from_micros(123_456))));
        assert_eq!(parse_header(&buf[..8]), None);
    }

    #[test]
    fn header_bytes_are_pinned() {
        let mut buf = [0u8; HEADER_LEN];
        encode_header(&mut buf, 0x0102_0304, 0x0a0b_0c0d, Instant::from_micros(0x1122_3344_5566));
        assert_eq!(
            buf,
            [
                0x01, 0x02, 0x03, 0x04, // seq
                0x0a, 0x0b, 0x0c, 0x0d, // flow id
                0x00, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, // tx, microseconds
            ]
        );
    }

    #[test]
    fn sender_emits_on_schedule() {
        let mut s = voip_sender();
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        assert_eq!(s.next_departure(), Some(Instant::from_secs(1)));
        // Too early: nothing.
        assert!(s.emit(Instant::from_millis(500), &mut ids, &mut pool).is_none());
        let p = s.emit(Instant::from_secs(1), &mut ids, &mut pool).unwrap();
        assert_eq!(p.payload.len(), 180);
        assert_eq!(p.src.port, 9_000);
        assert_eq!(p.dst.port, 9_001);
        // 50 pps → next at +20 ms.
        assert_eq!(s.next_departure(), Some(Instant::from_secs(1) + Duration::from_millis(20)));
    }

    #[test]
    fn sender_stops_at_duration() {
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(1));
        let mut s = TrafficSender::new(spec, 1, a("2.2.2.2"), Instant::ZERO, 5);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let mut count = 0;
        while let Some(t) = s.next_departure() {
            let _ = s.emit(t, &mut ids, &mut pool).unwrap();
            count += 1;
        }
        // 80 kbps / 800 bits = 100 pps for 1 s.
        assert_eq!(count, 100);
        assert!(s.finished());
        assert_eq!(s.probe().sent().len(), 100);
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut s = voip_sender();
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        for expect in 0..10u32 {
            let t = s.next_departure().unwrap();
            let p = s.emit(t, &mut ids, &mut pool).unwrap();
            let (seq, flow, tx) = parse_header(&p.payload).unwrap();
            assert_eq!(seq, expect);
            assert_eq!(flow, 1);
            assert_eq!(tx, t);
        }
    }

    #[test]
    fn receiver_logs_and_echoes() {
        let mut s = voip_sender();
        let mut r = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let t = s.next_departure().unwrap();
        let p = s.emit(t, &mut ids, &mut pool).unwrap();
        let rx_at = t + Duration::from_millis(30);
        let echo = r.on_receive(rx_at, &p, &mut ids, &mut pool).expect("echo expected");
        assert_eq!(echo.dst, p.src);
        assert_eq!(echo.src, p.dst);
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].owd(), Duration::from_millis(30));

        // The echo closes the RTT loop at the sender.
        s.on_receive(t + Duration::from_millis(55), &echo);
        assert_eq!(s.probe().rtts().len(), 1);
        assert_eq!(s.probe().rtts()[0].rtt, Duration::from_millis(55));
    }

    #[test]
    fn receiver_detects_duplicates() {
        let mut s = voip_sender();
        let mut r = TrafficReceiver::new(1, false);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let t = s.next_departure().unwrap();
        let p = s.emit(t, &mut ids, &mut pool).unwrap();
        assert!(r.on_receive(t, &p, &mut ids, &mut pool).is_none()); // echo off
        assert!(r.on_receive(t, &p, &mut ids, &mut pool).is_none()); // duplicate
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.duplicates(), 1);
    }

    #[test]
    fn receiver_ignores_foreign_flows() {
        let mut s = voip_sender(); // flow 1
        let mut r = TrafficReceiver::new(2, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let t = s.next_departure().unwrap();
        let p = s.emit(t, &mut ids, &mut pool).unwrap();
        assert!(r.on_receive(t, &p, &mut ids, &mut pool).is_none());
        assert!(r.records().is_empty());
    }

    #[test]
    fn sender_ignores_foreign_echoes() {
        let mut s = voip_sender();
        let mut other =
            TrafficSender::new(FlowSpec::voip_g711(), 9, a("4.4.4.4"), Instant::ZERO, 1);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let t = other.next_departure().unwrap();
        let foreign = other.emit(t, &mut ids, &mut pool).unwrap();
        s.on_receive(t, &foreign);
        assert!(s.probe().rtts().is_empty());
    }

    #[test]
    fn malformed_payload_is_ignored() {
        let mut r = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let junk = Packet::udp(
            PacketId(0),
            Endpoint::new(a("1.1.1.1"), 1),
            Endpoint::new(a("2.2.2.2"), 2),
            vec![1, 2, 3],
            Instant::ZERO,
        );
        assert!(r.on_receive(Instant::ZERO, &junk, &mut ids, &mut pool).is_none());
    }
}
