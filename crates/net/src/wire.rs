//! Wire-format types: addresses, prefixes and packet views.
//!
//! Follows the smoltcp idiom: a *view* type (e.g. [`Ipv4PacketView`]) wraps a
//! byte buffer and exposes checked, typed accessors over the raw octets.
//! Construction validates length and version invariants so that the getters
//! cannot panic on a checked view. The simulator mostly carries packets in
//! the structured [`crate::packet::Packet`] form, but serializes through
//! these views at stack boundaries (PPP framing, traces) and in tests, which
//! keeps the formats honest.

use core::fmt;
use core::str::FromStr;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Address = Ipv4Address([255; 4]);

    /// Creates an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address([a, b, c, d])
    }

    /// The address as a big-endian `u32`.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Builds an address from a big-endian `u32`.
    pub const fn from_u32(v: u32) -> Ipv4Address {
        Ipv4Address(v.to_be_bytes())
    }

    /// True if this is `0.0.0.0`.
    pub const fn is_unspecified(self) -> bool {
        self.to_u32() == 0
    }

    /// True for `127.0.0.0/8`.
    pub const fn is_loopback(self) -> bool {
        self.0[0] == 127
    }

    /// True for RFC 1918 private ranges.
    pub const fn is_private(self) -> bool {
        self.0[0] == 10
            || (self.0[0] == 172 && self.0[1] >= 16 && self.0[1] <= 31)
            || (self.0[0] == 192 && self.0[1] == 168)
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Error parsing an address or prefix from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrParseError;

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address or prefix")
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Ipv4Address {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in &mut octets {
            let part = parts.next().ok_or(AddrParseError)?;
            if part.is_empty() || part.len() > 3 || (part.len() > 1 && part.starts_with('0')) {
                return Err(AddrParseError);
            }
            *octet = part.parse().map_err(|_| AddrParseError)?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError);
        }
        Ok(Ipv4Address(octets))
    }
}

/// An IPv4 CIDR prefix, e.g. `10.0.0.0/8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Cidr {
    address: Ipv4Address,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// The whole address space, `0.0.0.0/0`.
    pub const ANY: Ipv4Cidr = Ipv4Cidr { address: Ipv4Address::UNSPECIFIED, prefix_len: 0 };

    /// Creates a prefix; the address is canonicalized to its network base.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(address: Ipv4Address, prefix_len: u8) -> Ipv4Cidr {
        assert!(prefix_len <= 32, "prefix length {prefix_len} out of range");
        let mask = Self::mask_of(prefix_len);
        Ipv4Cidr { address: Ipv4Address::from_u32(address.to_u32() & mask), prefix_len }
    }

    /// A /32 prefix covering exactly `address`.
    pub fn host(address: Ipv4Address) -> Ipv4Cidr {
        Ipv4Cidr::new(address, 32)
    }

    /// The canonical network address.
    pub fn address(&self) -> Ipv4Address {
        self.address
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The netmask as an address.
    pub fn netmask(&self) -> Ipv4Address {
        Ipv4Address::from_u32(Self::mask_of(self.prefix_len))
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        let mask = Self::mask_of(self.prefix_len);
        addr.to_u32() & mask == self.address.to_u32()
    }

    /// True if `other` is entirely inside this prefix.
    pub fn contains_prefix(&self, other: &Ipv4Cidr) -> bool {
        other.prefix_len >= self.prefix_len && self.contains(other.address)
    }

    /// The `index`-th subnet of this prefix at `new_prefix_len`, or `None`
    /// if the length does not subdivide this prefix or the index is out of
    /// range. Used to hand disjoint address slices to multiple subscribers
    /// of one operator pool.
    pub fn subnet(&self, new_prefix_len: u8, index: u32) -> Option<Ipv4Cidr> {
        if new_prefix_len <= self.prefix_len || new_prefix_len > 32 {
            return None;
        }
        let bits = new_prefix_len - self.prefix_len;
        if bits < 32 && u64::from(index) >= (1u64 << bits) {
            return None;
        }
        let shift = 32 - new_prefix_len as u32;
        let base = self.address.to_u32() | (index << shift);
        Some(Ipv4Cidr::new(Ipv4Address::from_u32(base), new_prefix_len))
    }

    fn mask_of(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(AddrParseError)?;
        let address: Ipv4Address = addr.parse()?;
        let prefix_len: u8 = len.parse().map_err(|_| AddrParseError)?;
        if prefix_len > 32 {
            return Err(AddrParseError);
        }
        Ok(Ipv4Cidr::new(address, prefix_len))
    }
}

/// A transport endpoint: address plus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Endpoint {
    /// The IPv4 address.
    pub addr: Ipv4Address,
    /// The transport-layer port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(addr: Ipv4Address, port: u16) -> Endpoint {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Transport-layer protocol carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (protocol number 1).
    Icmp,
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Anything else, carried verbatim.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Builds from an IANA protocol number.
    pub const fn from_number(n: u8) -> Protocol {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// Errors produced when parsing a wire buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A version/length field is inconsistent with the buffer.
    Malformed,
    /// The header checksum does not verify.
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::Malformed => write!(f, "malformed header"),
            WireError::BadChecksum => write!(f, "bad checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// The Internet checksum (RFC 1071) over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_fold(checksum_add(0, data))
}

/// Adds `data` to a ones'-complement accumulator. The sum is taken over
/// big-endian 32-bit words: 2^16 is 1 modulo `0xFFFF`, so after
/// [`checksum_fold`] it equals the RFC 1071 sum of 16-bit words. Only the
/// last slice added may have odd length; its final octet is padded with
/// a zero.
fn checksum_add(mut acc: u64, data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        acc += u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]]));
    }
    for pair in words.remainder().chunks(2) {
        acc += u64::from(u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]));
    }
    acc
}

/// Folds the accumulator's carries back in and complements the result.
fn checksum_fold(mut acc: u64) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Length of the (option-less) IPv4 header emitted by this stack.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A checked view over an IPv4 packet (20-byte header, no options).
///
/// ```
/// use umtslab_net::wire::{Ipv4PacketView, Ipv4Address, Protocol};
///
/// let mut buf = vec![0u8; 28];
/// let mut view = Ipv4PacketView::new_unchecked(&mut buf);
/// view.init_defaults();
/// view.set_src_addr(Ipv4Address::new(10, 0, 0, 1));
/// view.set_dst_addr(Ipv4Address::new(10, 0, 0, 2));
/// view.set_protocol(Protocol::Udp);
/// view.fill_checksum();
///
/// let parsed = Ipv4PacketView::new_checked(&buf[..]).unwrap();
/// assert_eq!(parsed.src_addr(), Ipv4Address::new(10, 0, 0, 1));
/// assert!(parsed.verify_checksum());
/// ```
#[derive(Debug)]
pub struct Ipv4PacketView<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4PacketView<T> {
    /// Wraps a buffer without validation. Accessors may panic on short
    /// buffers; prefer [`Ipv4PacketView::new_checked`] for untrusted input.
    pub fn new_unchecked(buffer: T) -> Ipv4PacketView<T> {
        Ipv4PacketView { buffer }
    }

    /// Wraps and validates a buffer: length, version, IHL and total length
    /// must all be consistent.
    pub fn new_checked(buffer: T) -> Result<Ipv4PacketView<T>, WireError> {
        let len = buffer.as_ref().len();
        if len < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let view = Ipv4PacketView { buffer };
        let data = view.buffer.as_ref();
        if data[0] >> 4 != 4 {
            return Err(WireError::Malformed);
        }
        if (data[0] & 0x0F) as usize * 4 != IPV4_HEADER_LEN {
            // Options are never emitted by this stack.
            return Err(WireError::Malformed);
        }
        let total = view.total_len() as usize;
        if total < IPV4_HEADER_LEN || total > len {
            return Err(WireError::Malformed);
        }
        Ok(view)
    }

    /// IP version field (always 4 for checked views).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Differentiated-services / TOS byte.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Total length field (header plus payload).
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Transport protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from_number(self.buffer.as_ref()[9])
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[10], d[11]])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        let d = self.buffer.as_ref();
        Ipv4Address([d[12], d[13], d[14], d[15]])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        let d = self.buffer.as_ref();
        Ipv4Address([d[16], d[17], d[18], d[19]])
    }

    /// The payload bytes (after the header, up to total length).
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[IPV4_HEADER_LEN..total]
    }

    /// Recomputes the header checksum and compares it with the stored one.
    pub fn verify_checksum(&self) -> bool {
        internet_checksum(&self.buffer.as_ref()[..IPV4_HEADER_LEN]) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4PacketView<T> {
    /// Writes version/IHL, clears flags and sets a default TTL of 64;
    /// total length is set to the buffer length.
    pub fn init_defaults(&mut self) {
        let len = self.buffer.as_ref().len() as u16;
        let d = self.buffer.as_mut();
        d[0] = 0x45;
        d[1] = 0;
        d[2..4].copy_from_slice(&len.to_be_bytes());
        d[4..8].fill(0);
        d[8] = 64;
        d[9] = 0;
        d[10..12].fill(0);
    }

    /// Sets the TOS byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[1] = tos;
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Sets the transport protocol.
    pub fn set_protocol(&mut self, p: Protocol) {
        self.buffer.as_mut()[9] = p.number();
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[12..16].copy_from_slice(&a.0);
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[16..20].copy_from_slice(&a.0);
    }

    /// Mutable access to the payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[IPV4_HEADER_LEN..]
    }

    /// Computes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[10..12].fill(0);
        let sum = internet_checksum(&self.buffer.as_ref()[..IPV4_HEADER_LEN]);
        self.buffer.as_mut()[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// A checked view over a UDP datagram.
#[derive(Debug)]
pub struct UdpDatagramView<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagramView<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> UdpDatagramView<T> {
        UdpDatagramView { buffer }
    }

    /// Wraps and validates: the buffer must hold the 8-byte header and the
    /// length field must cover at least the header and fit the buffer.
    pub fn new_checked(buffer: T) -> Result<UdpDatagramView<T>, WireError> {
        if buffer.as_ref().len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let view = UdpDatagramView { buffer };
        let len = view.len() as usize;
        if len < UDP_HEADER_LEN || len > view.buffer.as_ref().len() {
            return Err(WireError::Malformed);
        }
        Ok(view)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Length field (header plus payload).
    pub fn len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// True if the datagram carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() as usize <= UDP_HEADER_LEN
    }

    /// Checksum field (0 means "not computed", as UDP-over-IPv4 allows).
    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[UDP_HEADER_LEN..self.len() as usize]
    }

    /// Verifies the checksum (a zero field means "unchecked": accepted).
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        self.pseudo_checksum(src, dst) == 0
    }

    /// The checksum over the pseudo-header and the datagram, summed in
    /// place.
    fn pseudo_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> u16 {
        let len = self.len();
        let [len_hi, len_lo] = len.to_be_bytes();
        let pseudo = [0, Protocol::Udp.number(), len_hi, len_lo];
        let mut acc = checksum_add(0, &src.0);
        acc = checksum_add(acc, &dst.0);
        acc = checksum_add(acc, &pseudo);
        checksum_fold(checksum_add(acc, &self.buffer.as_ref()[..len as usize]))
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagramView<T> {
    /// Sets the source port.
    pub fn set_src_port(&mut self, p: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the length field.
    pub fn set_len(&mut self, len: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&len.to_be_bytes());
    }

    /// Computes and stores the checksum over the pseudo-header and payload.
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        self.buffer.as_mut()[6..8].fill(0);
        let sum = self.pseudo_checksum(src, dst);
        // Per RFC 768, a computed zero checksum is transmitted as 0xFFFF.
        let sum = if sum == 0 { 0xFFFF } else { sum };
        self.buffer.as_mut()[6..8].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_display_and_parse_roundtrip() {
        let a = Ipv4Address::new(192, 168, 1, 42);
        assert_eq!(a.to_string(), "192.168.1.42");
        assert_eq!("192.168.1.42".parse::<Ipv4Address>().unwrap(), a);
    }

    #[test]
    fn address_parse_rejects_garbage() {
        for bad in ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "1..2.3"] {
            assert!(bad.parse::<Ipv4Address>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn address_u32_roundtrip() {
        let a = Ipv4Address::new(10, 20, 30, 40);
        assert_eq!(Ipv4Address::from_u32(a.to_u32()), a);
    }

    #[test]
    fn address_classification() {
        assert!(Ipv4Address::UNSPECIFIED.is_unspecified());
        assert!(Ipv4Address::new(127, 0, 0, 1).is_loopback());
        assert!(Ipv4Address::new(10, 1, 2, 3).is_private());
        assert!(Ipv4Address::new(172, 16, 0, 1).is_private());
        assert!(!Ipv4Address::new(172, 32, 0, 1).is_private());
        assert!(Ipv4Address::new(192, 168, 0, 1).is_private());
        assert!(!Ipv4Address::new(8, 8, 8, 8).is_private());
    }

    #[test]
    fn cidr_canonicalizes_base_address() {
        let c = Ipv4Cidr::new(Ipv4Address::new(10, 1, 2, 3), 8);
        assert_eq!(c.address(), Ipv4Address::new(10, 0, 0, 0));
        assert_eq!(c.netmask(), Ipv4Address::new(255, 0, 0, 0));
    }

    #[test]
    fn cidr_contains() {
        let c: Ipv4Cidr = "192.168.0.0/24".parse().unwrap();
        assert!(c.contains(Ipv4Address::new(192, 168, 0, 200)));
        assert!(!c.contains(Ipv4Address::new(192, 168, 1, 1)));
        assert!(Ipv4Cidr::ANY.contains(Ipv4Address::new(8, 8, 8, 8)));
        let host = Ipv4Cidr::host(Ipv4Address::new(1, 2, 3, 4));
        assert!(host.contains(Ipv4Address::new(1, 2, 3, 4)));
        assert!(!host.contains(Ipv4Address::new(1, 2, 3, 5)));
    }

    #[test]
    fn cidr_contains_prefix() {
        let big: Ipv4Cidr = "10.0.0.0/8".parse().unwrap();
        let small: Ipv4Cidr = "10.9.0.0/16".parse().unwrap();
        assert!(big.contains_prefix(&small));
        assert!(!small.contains_prefix(&big));
        assert!(big.contains_prefix(&big));
    }

    #[test]
    fn cidr_subnet_subdivides() {
        let pool: Ipv4Cidr = "10.64.128.0/17".parse().unwrap();
        let s0 = pool.subnet(24, 0).unwrap();
        let s1 = pool.subnet(24, 1).unwrap();
        assert_eq!(s0.to_string(), "10.64.128.0/24");
        assert_eq!(s1.to_string(), "10.64.129.0/24");
        assert!(pool.contains_prefix(&s0));
        assert!(pool.contains_prefix(&s1));
        // Disjoint.
        assert!(!s0.contains_prefix(&s1) && !s1.contains_prefix(&s0));
        // 2^(24-17) = 128 subnets.
        assert!(pool.subnet(24, 127).is_some());
        assert!(pool.subnet(24, 128).is_none());
        // Degenerate requests.
        assert!(pool.subnet(17, 0).is_none());
        assert!(pool.subnet(16, 0).is_none());
        assert!(pool.subnet(33, 0).is_none());
        assert_eq!(pool.subnet(32, 5).unwrap().to_string(), "10.64.128.5/32");
    }

    #[test]
    fn cidr_parse_rejects_garbage() {
        for bad in ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8"] {
            assert!(bad.parse::<Ipv4Cidr>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn cidr_rejects_long_prefix() {
        Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 33);
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for p in [Protocol::Icmp, Protocol::Tcp, Protocol::Udp, Protocol::Other(99)] {
            assert_eq!(Protocol::from_number(p.number()), p);
        }
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 discussions.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = internet_checksum(&data);
        assert_eq!(sum, !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        let even = internet_checksum(&[0x12, 0x34]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_ne!(even, odd);
        // Verifying a buffer with its checksum appended yields zero.
        let mut buf = vec![0xAA, 0xBB, 0xCC];
        buf.push(0);
        let with_pad_sum = internet_checksum(&buf);
        let _ = with_pad_sum;
    }

    /// RFC 1071 as written: 16-bit words, odd octet padded with zero.
    fn word_sum_checksum(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for pair in data.chunks(2) {
            sum += u32::from(u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn checksum_matches_the_sixteen_bit_word_sum() {
        let mut x: u32 = 0x1234_5678;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        for len in 0..data.len() {
            assert_eq!(internet_checksum(&data[..len]), word_sum_checksum(&data[..len]));
        }
        assert_eq!(internet_checksum(&[0xFF; 64]), word_sum_checksum(&[0xFF; 64]));
    }

    /// A UDP datagram (header and `payload`) with a filled checksum.
    fn udp_datagram(src: Ipv4Address, dst: Ipv4Address, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; UDP_HEADER_LEN + payload.len()];
        buf[UDP_HEADER_LEN..].copy_from_slice(payload);
        let mut v = UdpDatagramView::new_unchecked(&mut buf);
        v.set_src_port(5000);
        v.set_dst_port(9000);
        v.set_len((UDP_HEADER_LEN + payload.len()) as u16);
        v.fill_checksum(src, dst);
        buf
    }

    #[test]
    fn udp_checksum_covers_an_odd_length_payload() {
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        let mut buf = udp_datagram(src, dst, &[1, 2, 3, 4, 5]);
        let mut pseudo = Vec::new();
        pseudo.extend_from_slice(&src.0);
        pseudo.extend_from_slice(&dst.0);
        pseudo.extend_from_slice(&[0, 17, 0, 13]);
        pseudo.extend_from_slice(&buf);
        assert_eq!(word_sum_checksum(&pseudo), 0);
        assert!(UdpDatagramView::new_checked(&buf[..]).unwrap().verify_checksum(src, dst));
        // The odd last octet counts as the high half of a padded word.
        buf[12] ^= 0x01;
        assert!(!UdpDatagramView::new_checked(&buf[..]).unwrap().verify_checksum(src, dst));
    }

    #[test]
    fn udp_computed_zero_checksum_is_sent_as_ffff() {
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        // Make the last payload word the complement of everything else, so
        // the computed checksum is zero.
        let first = udp_datagram(src, dst, &[7, 7, 0, 0]);
        let sum = UdpDatagramView::new_checked(&first[..]).unwrap().checksum();
        let mut payload = [7, 7, 0, 0];
        payload[2..].copy_from_slice(&sum.to_be_bytes());
        let buf = udp_datagram(src, dst, &payload);
        let v = UdpDatagramView::new_checked(&buf[..]).unwrap();
        assert_eq!(v.checksum(), 0xFFFF);
        assert!(v.verify_checksum(src, dst));
    }

    #[test]
    fn udp_corrupted_datagram_fails_verification() {
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        let good = udp_datagram(src, dst, &[0u8; 172]);
        assert!(UdpDatagramView::new_checked(&good[..]).unwrap().verify_checksum(src, dst));
        for pos in [0, 7, 8, 100, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            let v = UdpDatagramView::new_checked(&bad[..]).unwrap();
            assert!(!v.verify_checksum(src, dst), "flip at {pos} accepted");
        }
    }

    #[test]
    fn ipv4_view_roundtrip() {
        let mut buf = vec![0u8; 40];
        let mut v = Ipv4PacketView::new_unchecked(&mut buf);
        v.init_defaults();
        v.set_tos(0x2E);
        v.set_ident(0xBEEF);
        v.set_ttl(63);
        v.set_protocol(Protocol::Udp);
        v.set_src_addr(Ipv4Address::new(1, 2, 3, 4));
        v.set_dst_addr(Ipv4Address::new(5, 6, 7, 8));
        v.payload_mut().fill(0x5A);
        v.fill_checksum();

        let v = Ipv4PacketView::new_checked(&buf[..]).unwrap();
        assert_eq!(v.version(), 4);
        assert_eq!(v.tos(), 0x2E);
        assert_eq!(v.ident(), 0xBEEF);
        assert_eq!(v.ttl(), 63);
        assert_eq!(v.protocol(), Protocol::Udp);
        assert_eq!(v.src_addr(), Ipv4Address::new(1, 2, 3, 4));
        assert_eq!(v.dst_addr(), Ipv4Address::new(5, 6, 7, 8));
        assert_eq!(v.total_len(), 40);
        assert_eq!(v.payload().len(), 20);
        assert!(v.payload().iter().all(|&b| b == 0x5A));
        assert!(v.verify_checksum());
    }

    #[test]
    fn ipv4_view_detects_corruption() {
        let mut buf = vec![0u8; 20];
        let mut v = Ipv4PacketView::new_unchecked(&mut buf);
        v.init_defaults();
        v.fill_checksum();
        buf[8] ^= 0xFF; // flip the TTL
        let v = Ipv4PacketView::new_checked(&buf[..]).unwrap();
        assert!(!v.verify_checksum());
    }

    #[test]
    fn ipv4_view_rejects_bad_buffers() {
        assert_eq!(Ipv4PacketView::new_checked(&[0u8; 10][..]).unwrap_err(), WireError::Truncated);
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // version 6
        buf[2..4].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(Ipv4PacketView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
        buf[0] = 0x46; // IHL 24 (options) unsupported
        assert_eq!(Ipv4PacketView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&200u16.to_be_bytes()); // longer than buffer
        assert_eq!(Ipv4PacketView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn udp_view_roundtrip_and_checksum() {
        let src = Ipv4Address::new(10, 0, 0, 1);
        let dst = Ipv4Address::new(10, 0, 0, 2);
        let mut buf = vec![0u8; 16];
        let mut v = UdpDatagramView::new_unchecked(&mut buf);
        v.set_src_port(5000);
        v.set_dst_port(9000);
        v.set_len(16);
        for (i, b) in AsMut::<[u8]>::as_mut(&mut v.buffer)[8..].iter_mut().enumerate() {
            *b = i as u8;
        }
        v.fill_checksum(src, dst);

        let v = UdpDatagramView::new_checked(&buf[..]).unwrap();
        assert_eq!(v.src_port(), 5000);
        assert_eq!(v.dst_port(), 9000);
        assert_eq!(v.len(), 16);
        assert!(!v.is_empty());
        assert_eq!(v.payload(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(v.verify_checksum(src, dst));
        // The Internet checksum is commutative, so swapping src/dst does not
        // change it — use a genuinely different address to provoke failure.
        assert!(!v.verify_checksum(src, Ipv4Address::new(10, 0, 0, 3)));
    }

    #[test]
    fn udp_view_zero_checksum_accepted() {
        let mut buf = vec![0u8; 8];
        let mut v = UdpDatagramView::new_unchecked(&mut buf);
        v.set_len(8);
        let v = UdpDatagramView::new_checked(&buf[..]).unwrap();
        assert!(v.verify_checksum(Ipv4Address::UNSPECIFIED, Ipv4Address::UNSPECIFIED));
        assert!(v.is_empty());
    }

    #[test]
    fn udp_view_rejects_bad_buffers() {
        assert_eq!(UdpDatagramView::new_checked(&[0u8; 4][..]).unwrap_err(), WireError::Truncated);
        let mut buf = [0u8; 8];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // len < header
        assert_eq!(UdpDatagramView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
        buf[4..6].copy_from_slice(&64u16.to_be_bytes()); // len > buffer
        assert_eq!(UdpDatagramView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }
}
