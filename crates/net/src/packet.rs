//! The structured packet representation carried through the simulator.
//!
//! Inside the simulator a packet is a plain struct ([`Packet`]) rather than
//! a byte buffer: links, queues and routing only need the header fields, and
//! keeping them typed makes the policy logic (marks, rules) explicit. The
//! packet can be serialized to real IPv4+UDP wire bytes with
//! [`Packet::to_wire`] — used at the PPP boundary and for traces — and
//! parsed back with [`Packet::from_wire`], which re-validates checksums and
//! therefore catches injected corruption like a real stack would.

use umtslab_sim::time::Instant;

use crate::bytes::Bytes;
use crate::wire::{
    Endpoint, Ipv4PacketView, Protocol, UdpDatagramView, WireError, IPV4_HEADER_LEN, UDP_HEADER_LEN,
};

/// Globally unique packet identifier (within one simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl core::fmt::Display for PacketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A firewall mark, as applied by the node's packet classifier.
///
/// Mark `0` conventionally means "unmarked", mirroring Linux `fwmark`
/// semantics where rules match against a non-zero mark value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mark(pub u32);

impl Mark {
    /// The unmarked state.
    pub const NONE: Mark = Mark(0);

    /// True if the packet carries no mark.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Issues sequential [`PacketId`]s.
#[derive(Debug, Default)]
pub struct PacketIdAllocator {
    next: u64,
}

impl PacketIdAllocator {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh id.
    pub fn allocate(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }
}

/// A packet in flight through the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id for tracing.
    pub id: PacketId,
    /// Source endpoint (address and UDP/TCP port, or 0 for ICMP).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Type-of-service byte.
    pub tos: u8,
    /// Remaining time-to-live.
    pub ttl: u8,
    /// Firewall mark stamped by the emitting node (VNET+ substitute).
    pub mark: Mark,
    /// Application payload bytes (refcounted: cloning the packet shares
    /// the payload allocation instead of copying it).
    pub payload: Bytes,
    /// Simulated time at which the application emitted the packet.
    pub created: Instant,
    /// Set by fault injection when the packet was damaged in flight; a
    /// receiving stack treats this as a checksum failure and drops it.
    pub corrupted: bool,
}

impl Packet {
    /// Default TTL for freshly created packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Creates a UDP packet with the given payload.
    ///
    /// Accepts anything convertible into [`Bytes`]; passing an owned
    /// `Vec<u8>` is an ownership transfer, not a copy.
    pub fn udp(
        id: PacketId,
        src: Endpoint,
        dst: Endpoint,
        payload: impl Into<Bytes>,
        created: Instant,
    ) -> Packet {
        Packet {
            id,
            src,
            dst,
            protocol: Protocol::Udp,
            tos: 0,
            ttl: Self::DEFAULT_TTL,
            mark: Mark::NONE,
            payload: payload.into(),
            created,
            corrupted: false,
        }
    }

    /// Total bytes this packet occupies on an IP link (IPv4 + UDP headers
    /// plus payload). Non-UDP packets are accounted with the IPv4 header
    /// only.
    pub fn wire_len(&self) -> usize {
        match self.protocol {
            Protocol::Udp => IPV4_HEADER_LEN + UDP_HEADER_LEN + self.payload.len(),
            _ => IPV4_HEADER_LEN + self.payload.len(),
        }
    }

    /// True if [`Packet::to_wire`] can serialize this packet: it is UDP
    /// and its datagram fits the IPv4 total-length field.
    pub fn serializes(&self) -> bool {
        self.protocol == Protocol::Udp && self.wire_len() <= usize::from(u16::MAX)
    }

    /// Serializes to real IPv4+UDP wire bytes with valid checksums.
    ///
    /// Only UDP packets can be serialized; the simulator's measurement
    /// traffic is UDP, matching the paper's methodology.
    pub fn to_wire(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.to_wire_into(&mut buf)?;
        Ok(buf)
    }

    /// [`Packet::to_wire`] into `buf`, replacing its contents and reusing
    /// its capacity. On error `buf` is left as it was.
    pub fn to_wire_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        if !self.serializes() {
            return Err(WireError::Malformed);
        }
        let total = self.wire_len();
        buf.clear();
        buf.resize(total, 0);
        {
            let mut udp = UdpDatagramView::new_unchecked(&mut buf[IPV4_HEADER_LEN..]);
            udp.set_src_port(self.src.port);
            udp.set_dst_port(self.dst.port);
            udp.set_len((UDP_HEADER_LEN + self.payload.len()) as u16);
        }
        buf[IPV4_HEADER_LEN + UDP_HEADER_LEN..].copy_from_slice(&self.payload);
        {
            let mut udp = UdpDatagramView::new_unchecked(&mut buf[IPV4_HEADER_LEN..]);
            udp.fill_checksum(self.src.addr, self.dst.addr);
        }
        {
            let mut ip = Ipv4PacketView::new_unchecked(&mut buf[..]);
            ip.init_defaults();
            ip.set_tos(self.tos);
            ip.set_ttl(self.ttl);
            ip.set_ident((self.id.0 & 0xFFFF) as u16);
            ip.set_protocol(Protocol::Udp);
            ip.set_src_addr(self.src.addr);
            ip.set_dst_addr(self.dst.addr);
            ip.fill_checksum();
        }
        Ok(())
    }

    /// Parses wire bytes back into a packet, validating both checksums.
    ///
    /// `id` and `created` are simulation-side metadata not present on the
    /// wire, so the caller supplies them.
    pub fn from_wire(bytes: &[u8], id: PacketId, created: Instant) -> Result<Packet, WireError> {
        let fields = WireFields::parse(bytes)?;
        Ok(Packet {
            id,
            src: fields.src,
            dst: fields.dst,
            protocol: Protocol::Udp,
            tos: fields.tos,
            ttl: fields.ttl,
            mark: Mark::NONE,
            payload: Bytes::copy_from_slice(fields.payload),
            created,
            corrupted: false,
        })
    }

    /// [`Packet::from_wire`] into `packet`: every field the wire carries
    /// is replaced, the simulation-side ones (id, creation time, mark,
    /// corruption flag) are kept. The payload is copied into `packet`'s
    /// own allocation where [`Bytes::overwrite`] can, so re-validating a
    /// packet's own wire image allocates nothing; the copy is counted
    /// either way. On an error `packet` is left as it was.
    pub fn from_wire_into(bytes: &[u8], packet: &mut Packet) -> Result<(), WireError> {
        let fields = WireFields::parse(bytes)?;
        packet.src = fields.src;
        packet.dst = fields.dst;
        packet.protocol = Protocol::Udp;
        packet.tos = fields.tos;
        packet.ttl = fields.ttl;
        packet.payload.overwrite(fields.payload);
        Ok(())
    }
}

/// The fields of a validated IPv4+UDP wire image, the payload borrowed.
struct WireFields<'a> {
    src: Endpoint,
    dst: Endpoint,
    tos: u8,
    ttl: u8,
    payload: &'a [u8],
}

impl<'a> WireFields<'a> {
    /// Parses `bytes`, validating both checksums.
    fn parse(bytes: &'a [u8]) -> Result<WireFields<'a>, WireError> {
        let ip = Ipv4PacketView::new_checked(bytes)?;
        if !ip.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        if ip.protocol() != Protocol::Udp {
            return Err(WireError::Malformed);
        }
        let src_addr = ip.src_addr();
        let dst_addr = ip.dst_addr();
        let udp = UdpDatagramView::new_checked(ip.payload())?;
        if !udp.verify_checksum(src_addr, dst_addr) {
            return Err(WireError::BadChecksum);
        }
        // The views borrow themselves; re-slice `bytes` to outlive them.
        let payload = &bytes[IPV4_HEADER_LEN + UDP_HEADER_LEN..][..udp.payload().len()];
        Ok(WireFields {
            src: Endpoint::new(src_addr, udp.src_port()),
            dst: Endpoint::new(dst_addr, udp.dst_port()),
            tos: ip.tos(),
            ttl: ip.ttl(),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Ipv4Address;

    fn sample_packet() -> Packet {
        Packet::udp(
            PacketId(7),
            Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 9000),
            Endpoint::new(Ipv4Address::new(192, 0, 2, 5), 9001),
            vec![1, 2, 3, 4, 5],
            Instant::from_millis(100),
        )
    }

    #[test]
    fn id_allocator_is_sequential() {
        let mut alloc = PacketIdAllocator::new();
        assert_eq!(alloc.allocate(), PacketId(0));
        assert_eq!(alloc.allocate(), PacketId(1));
        assert_eq!(alloc.allocate(), PacketId(2));
    }

    #[test]
    fn mark_none_semantics() {
        assert!(Mark::NONE.is_none());
        assert!(Mark(0).is_none());
        assert!(!Mark(5).is_none());
    }

    #[test]
    fn wire_len_accounts_headers() {
        let p = sample_packet();
        assert_eq!(p.wire_len(), 20 + 8 + 5);
    }

    #[test]
    fn wire_roundtrip_preserves_fields() {
        let mut p = sample_packet();
        p.tos = 0x2E;
        p.ttl = 17;
        let bytes = p.to_wire().unwrap();
        assert_eq!(bytes.len(), p.wire_len());
        let q = Packet::from_wire(&bytes, PacketId(7), Instant::from_millis(100)).unwrap();
        assert_eq!(q.src, p.src);
        assert_eq!(q.dst, p.dst);
        assert_eq!(q.tos, p.tos);
        assert_eq!(q.ttl, p.ttl);
        assert_eq!(q.payload, p.payload);
        // The mark is node-local state and never crosses the wire.
        assert!(q.mark.is_none());
    }

    #[test]
    fn from_wire_into_rereads_the_wire_fields_and_keeps_the_rest() {
        let mut p = sample_packet();
        p.mark = Mark(9);
        let mut wire = p.to_wire().unwrap();
        let last = wire.len() - 1;
        // Damaged bytes leave the packet as it was.
        wire[last] ^= 0x80;
        let before = p.clone();
        assert_eq!(Packet::from_wire_into(&wire, &mut p), Err(WireError::BadChecksum));
        assert_eq!(p, before);
        drop(before);
        // Good bytes land in the packet's own payload allocation.
        wire[last] ^= 0x80;
        let mut q = sample_packet();
        q.ttl = 3;
        q.id = PacketId(8);
        q.mark = Mark(9);
        let addr = q.payload.as_ptr();
        Packet::from_wire_into(&wire, &mut q).unwrap();
        assert_eq!(q.payload.as_ptr(), addr);
        assert_eq!((q.ttl, q.id, q.mark), (p.ttl, PacketId(8), Mark(9)));
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn wire_corruption_is_detected() {
        let p = sample_packet();
        let mut bytes = p.to_wire().unwrap();
        // Corrupt a payload byte: UDP checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert_eq!(
            Packet::from_wire(&bytes, PacketId(0), Instant::ZERO).unwrap_err(),
            WireError::BadChecksum
        );
        // Corrupt an IP header byte: IP checksum must catch it.
        let mut bytes = p.to_wire().unwrap();
        bytes[8] ^= 0x01;
        assert_eq!(
            Packet::from_wire(&bytes, PacketId(0), Instant::ZERO).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn non_udp_cannot_serialize() {
        let mut p = sample_packet();
        p.protocol = Protocol::Icmp;
        assert_eq!(p.to_wire().unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn clone_shares_the_payload_allocation() {
        let p = sample_packet();
        let q = p.clone();
        assert_eq!(p.payload.ref_count(), 2, "clone must not copy payload bytes");
        assert_eq!(q, p);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut p = sample_packet();
        p.payload = Bytes::new();
        let bytes = p.to_wire().unwrap();
        assert_eq!(bytes.len(), 28);
        let q = Packet::from_wire(&bytes, p.id, p.created).unwrap();
        assert!(q.payload.is_empty());
    }
}
