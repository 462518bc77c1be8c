//! PPP framing: HDLC-like encapsulation (RFC 1662) and the control-protocol
//! packet codec shared by LCP, PAP and IPCP.
//!
//! Frames are delimited by the `0x7E` flag, byte-stuffed with the `0x7D`
//! escape, and protected by the 16-bit FCS (CRC-16/X.25). The default
//! async-control-character-map is used: every octet below `0x20`, plus the
//! flag and escape octets themselves, is escaped on transmit.

/// Standard PPP protocol numbers used by this stack.
pub mod protocol {
    /// IPv4 datagrams.
    pub const IPV4: u16 = 0x0021;
    /// Link Control Protocol.
    pub const LCP: u16 = 0xC021;
    /// Password Authentication Protocol.
    pub const PAP: u16 = 0xC023;
    /// IP Control Protocol.
    pub const IPCP: u16 = 0x8021;
}

const FLAG: u8 = 0x7E;
const ESCAPE: u8 = 0x7D;
const XOR: u8 = 0x20;
const ADDRESS: u8 = 0xFF;
const CONTROL: u8 = 0x03;

/// Largest unstuffed frame the deframer buffers: the largest IPv4
/// datagram (65 535 B) plus address, control, protocol and FCS.
pub const MAX_FRAME_LEN: usize = 65_535 + 6;

/// Initial FCS register value (RFC 1662 §C.2).
const FCS_INIT: u16 = 0xFFFF;

/// Slicing-by-8 tables for CRC-16/X.25: `FCS_TABLES[0]` is the classic
/// byte-at-a-time table, and `FCS_TABLES[k][b]` advances the register
/// over `b` followed by `k` zero octets.
static FCS_TABLES: [[u16; 256]; 8] = fcs_tables();

const fn fcs_tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut fcs = b as u16;
        let mut bit = 0;
        while bit < 8 {
            fcs = if fcs & 1 != 0 { (fcs >> 1) ^ 0x8408 } else { fcs >> 1 };
            bit += 1;
        }
        t[0][b] = fcs;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Advances the (uncomplemented) FCS register over `data`, eight octets
/// per table step and the remainder one octet at a time.
fn fcs_update(mut fcs: u16, data: &[u8]) -> u16 {
    let mut words = data.chunks_exact(8);
    for octets in &mut words {
        fcs = fcs_step8(fcs, octets);
    }
    words.remainder().iter().fold(fcs, |fcs, &b| fcs_octet(fcs, b))
}

/// One table step over the first eight octets of `o`.
fn fcs_step8(fcs: u16, o: &[u8]) -> u16 {
    let t = &FCS_TABLES;
    let [lo, hi] = fcs.to_le_bytes();
    t[7][usize::from(o[0] ^ lo)]
        ^ t[6][usize::from(o[1] ^ hi)]
        ^ t[5][usize::from(o[2])]
        ^ t[4][usize::from(o[3])]
        ^ t[3][usize::from(o[4])]
        ^ t[2][usize::from(o[5])]
        ^ t[1][usize::from(o[6])]
        ^ t[0][usize::from(o[7])]
}

/// One table step over four octets.
fn fcs_step4(fcs: u16, o: [u8; 4]) -> u16 {
    let t = &FCS_TABLES;
    let [lo, hi] = fcs.to_le_bytes();
    t[3][usize::from(o[0] ^ lo)]
        ^ t[2][usize::from(o[1] ^ hi)]
        ^ t[1][usize::from(o[2])]
        ^ t[0][usize::from(o[3])]
}

/// The byte-at-a-time step.
fn fcs_octet(fcs: u16, b: u8) -> u16 {
    (fcs >> 8) ^ FCS_TABLES[0][usize::from(fcs.to_le_bytes()[0] ^ b)]
}

/// Computes the PPP FCS-16 (CRC-16/X.25, reflected polynomial `0x8408`)
/// over `data`, returning the final complemented value.
pub fn fcs16(data: &[u8]) -> u16 {
    !fcs_update(FCS_INIT, data)
}

// Eight octets at a time: a little-endian `u64` word whose octet `i` is
// input octet `i`, tested with carry-free bit tricks.
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;
/// `zero_octets` of a word whose octets 0, 2, 4 and 6 matched: the
/// `7D xx 7D xx ...` run that a stuffed control-octet payload is made of.
const EVEN_OCTETS: u64 = 0x0080_0080_0080_0080;

/// The first eight octets of `octets` as a word.
fn word(octets: &[u8]) -> u64 {
    u64::from_le_bytes([
        octets[0], octets[1], octets[2], octets[3], octets[4], octets[5], octets[6], octets[7],
    ])
}

/// The high bit of exactly those octets of `w` that are zero.
const fn zero_octets(w: u64) -> u64 {
    // `(o & 0x7F) + 0x7F` sets the high bit iff the low seven bits are
    // non-zero and never carries into the next octet.
    !(((w & !HIGHS) + !HIGHS) | w) & HIGHS
}

/// The high bit of exactly those octets of `w` that the default ACCM
/// escapes: every octet below `0x20`, plus the flag and escape octets.
const fn escaped_in_word(w: u64) -> u64 {
    zero_octets(w & (0xE0 * ONES))
        | zero_octets(w ^ (FLAG as u64 * ONES))
        | zero_octets(w ^ (ESCAPE as u64 * ONES))
}

/// Octets the default async-control-character-map escapes on transmit,
/// by value.
static ESCAPED: [bool; 256] = escape_table();

const fn escape_table() -> [bool; 256] {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = escaped_in_word(b as u64) & 0x80 != 0;
        b += 1;
    }
    t
}

/// Stuffs four octets (the low half of `w`, already XORed with `0x20`)
/// as four `7D xx` pairs, in wire order.
const fn escape_pairs(w: u64) -> [u8; 8] {
    let mut s = w & 0xFFFF_FFFF;
    s = (s | (s << 16)) & 0x0000_FFFF_0000_FFFF;
    s = (s | (s << 8)) & 0x00FF_00FF_00FF_00FF;
    ((s << 8) | (ESCAPE as u64 * 0x0001_0001_0001_0001)).to_le_bytes()
}

/// Byte-stuffs `data` into `out` from index `n` and advances the FCS
/// register over it, returning the index after the last octet written.
/// `out` must have room for `2 * data.len() + 1` octets past `n`. Words
/// with nothing to escape are copied whole and words that are all
/// escapes are stuffed whole; the rest go through [`stuff_octets`].
fn stuff(out: &mut [u8], mut n: usize, data: &[u8], fcs: &mut u16) -> usize {
    let mut words = data.chunks_exact(8);
    for octets in &mut words {
        *fcs = fcs_step8(*fcs, octets);
        let w = word(octets);
        match escaped_in_word(w) {
            0 => {
                out[n..n + 8].copy_from_slice(octets);
                n += 8;
            }
            HIGHS => {
                let x = w ^ (u64::from(XOR) * ONES);
                out[n..n + 8].copy_from_slice(&escape_pairs(x));
                out[n + 8..n + 16].copy_from_slice(&escape_pairs(x >> 32));
                n += 16;
            }
            _ => n = stuff_octets(out, n, octets),
        }
    }
    *fcs = fcs_update(*fcs, words.remainder());
    stuff_octets(out, n, words.remainder())
}

/// [`stuff`] one octet at a time, without the FCS: each octet writes its
/// escaped pair unconditionally and only advances past the second byte
/// when it really was escaped.
fn stuff_octets(out: &mut [u8], mut n: usize, data: &[u8]) -> usize {
    for &b in data {
        let escaped = ESCAPED[usize::from(b)];
        out[n] = if escaped { ESCAPE } else { b };
        out[n + 1] = b ^ XOR;
        n += 1 + usize::from(escaped);
    }
    n
}

/// Encodes one PPP frame: flag, stuffed address/control/protocol/payload/
/// FCS, flag.
pub fn encode_frame(protocol: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(protocol, payload, &mut out);
    out
}

/// [`encode_frame`] into `out`, replacing its contents and reusing its
/// capacity.
pub fn encode_frame_into(protocol: u16, payload: &[u8], out: &mut Vec<u8>) {
    let [proto_hi, proto_lo] = protocol.to_be_bytes();
    // Worst case: every octet escaped, plus the two flags.
    out.clear();
    out.resize(2 * (4 + payload.len() + 2) + 2, 0);
    out[0] = FLAG;
    let mut fcs = FCS_INIT;
    let mut n = stuff(out, 1, &[ADDRESS, CONTROL, proto_hi, proto_lo], &mut fcs);
    n = stuff(out, n, payload, &mut fcs);
    // FCS is transmitted least-significant byte first.
    n = stuff_octets(out, n, &(!fcs).to_le_bytes());
    out[n] = FLAG;
    out.truncate(n + 1);
}

/// A decoded PPP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PppFrame {
    /// The PPP protocol field.
    pub protocol: u16,
    /// The information field.
    pub payload: Vec<u8>,
}

/// Errors detected while deframing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// FCS mismatch: the frame was damaged.
    BadFcs,
    /// Frame too short to hold address/control/protocol/FCS.
    Runt,
    /// Address/control bytes were not `FF 03`.
    BadHeader,
    /// The partial frame grew past [`MAX_FRAME_LEN`] without a closing
    /// flag; everything up to the next flag is dropped.
    TooLong,
}

/// FCS register value after a good frame's body and its own FCS
/// (RFC 1662 §C.2).
const FCS_GOOD: u16 = 0xF0B8;

/// Incremental deframer: feed arbitrary byte chunks, collect whole frames.
#[derive(Debug)]
pub struct Deframer {
    /// Unstuffed octets of the partial frame are `buf[..len]`. The buffer
    /// is grown ahead of each chunk so unstuffing writes by index; it never
    /// exceeds `MAX_FRAME_LEN + 1` octets.
    buf: Vec<u8>,
    len: usize,
    /// FCS register over `buf[..len]`, advanced as octets are unstuffed.
    fcs: u16,
    escaped: bool,
    /// The partial frame overflowed: drop octets up to the next flag.
    discarding: bool,
    last_error: Option<FrameError>,
    /// Frames that failed validation (for diagnostics).
    pub errors: u64,
}

impl Default for Deframer {
    fn default() -> Deframer {
        Deframer {
            buf: Vec::new(),
            len: 0,
            fcs: FCS_INIT,
            escaped: false,
            discarding: false,
            last_error: None,
            errors: 0,
        }
    }
}

impl Deframer {
    /// Creates an empty deframer.
    pub fn new() -> Deframer {
        Deframer::default()
    }

    /// Why the most recent frame counted in [`Deframer::errors`] failed.
    pub fn last_error(&self) -> Option<FrameError> {
        self.last_error
    }

    /// Feeds bytes; returns each complete, valid frame.
    pub fn feed(&mut self, data: &[u8]) -> Vec<PppFrame> {
        let mut frames = Vec::new();
        self.feed_with(data, |protocol, body| {
            frames.push(PppFrame { protocol, payload: body.to_vec() });
        });
        frames
    }

    /// Feeds bytes and calls `frame(protocol, information field)` for each
    /// complete, valid frame, in order. The information field is borrowed
    /// from the deframer's buffer, so nothing is allocated per frame.
    pub fn feed_with(&mut self, data: &[u8], mut frame: impl FnMut(u16, &[u8])) {
        let mut rest = data;
        while !rest.is_empty() {
            if self.discarding {
                let Some(flag) = rest.iter().position(|&b| b == FLAG) else { break };
                self.discarding = false;
                self.escaped = false;
                rest = &rest[flag + 1..];
                continue;
            }
            // Unstuff at most one octet past the cap, so the buffer stays
            // bounded whatever the input.
            let (chunk, tail) = rest.split_at(rest.len().min(MAX_FRAME_LEN + 1 - self.len));
            self.unstuff(chunk, &mut frame);
            if self.len > MAX_FRAME_LEN {
                self.reject(FrameError::TooLong);
                self.len = 0;
                self.fcs = FCS_INIT;
                self.discarding = true;
            }
            rest = tail;
        }
    }

    /// Unstuffs `chunk` onto the partial frame and advances the FCS over
    /// it, finishing a frame at every flag. Outside an escape, a word
    /// without flag or escape octets is copied whole and a word of four
    /// `7D xx` pairs yields its four data octets. Otherwise octets go one
    /// at a time: an escape octet is written like data and then
    /// overwritten, since only data octets advance the length and the
    /// FCS, and the octet after it is XORed with `0x20`.
    fn unstuff(&mut self, chunk: &[u8], frame: &mut impl FnMut(u16, &[u8])) {
        // Work on a local buffer so that its writes cannot alias `self`.
        let mut buf = std::mem::take(&mut self.buf);
        let end = self.len + chunk.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        let (mut len, mut fcs) = (self.len, self.fcs);
        let mut mask = if self.escaped { XOR } else { 0 };
        // After a word that fits neither fast path, go octet by octet to
        // its end rather than retesting at every offset.
        let mut octets_until = 0;
        let mut i = 0;
        while i < chunk.len() {
            if mask == 0 && i >= octets_until {
                if let Some(octets) = chunk.get(i..i + 8) {
                    let w = word(octets);
                    let flags = zero_octets(w ^ (u64::from(FLAG) * ONES));
                    let escapes = zero_octets(w ^ (u64::from(ESCAPE) * ONES));
                    if flags | escapes == 0 {
                        buf[len..len + 8].copy_from_slice(octets);
                        fcs = fcs_step8(fcs, octets);
                        len += 8;
                        i += 8;
                        continue;
                    }
                    if flags == 0 && escapes == EVEN_OCTETS {
                        let data =
                            [octets[1] ^ XOR, octets[3] ^ XOR, octets[5] ^ XOR, octets[7] ^ XOR];
                        buf[len..len + 4].copy_from_slice(&data);
                        fcs = fcs_step4(fcs, data);
                        len += 4;
                        i += 8;
                        continue;
                    }
                    octets_until = i + 8;
                }
            }
            let b = chunk[i];
            i += 1;
            if b == FLAG {
                if len > 0 {
                    match Self::finish(&buf[..len], fcs) {
                        Ok((protocol, body)) => frame(protocol, body),
                        Err(e) => self.reject(e),
                    }
                    len = 0;
                    fcs = FCS_INIT;
                }
                mask = 0;
                continue;
            }
            let data = b ^ mask;
            let escape = b == ESCAPE;
            buf[len] = data;
            let next = fcs_octet(fcs, data);
            fcs = if escape { fcs } else { next };
            len += usize::from(!escape);
            mask = if escape { XOR } else { 0 };
        }
        self.buf = buf;
        (self.len, self.fcs) = (len, fcs);
        self.escaped = mask != 0;
    }

    fn reject(&mut self, error: FrameError) {
        self.errors += 1;
        self.last_error = Some(error);
    }

    /// Validates one unstuffed frame, given the FCS register over all of
    /// it, and returns its protocol and information field. Over a good
    /// body followed by its own FCS the register reads [`FCS_GOOD`], which
    /// holds exactly when `fcs16(body)` equals the stored value.
    fn finish(raw: &[u8], fcs: u16) -> Result<(u16, &[u8]), FrameError> {
        if raw.len() < 6 {
            return Err(FrameError::Runt);
        }
        if fcs != FCS_GOOD {
            return Err(FrameError::BadFcs);
        }
        if raw[0] != ADDRESS || raw[1] != CONTROL {
            return Err(FrameError::BadHeader);
        }
        let protocol = u16::from_be_bytes([raw[2], raw[3]]);
        Ok((protocol, &raw[4..raw.len() - 2]))
    }
}

/// Control-protocol packet codes (RFC 1661 §5, plus PAP's codes which share
/// the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpCode {
    /// Configure-Request.
    ConfigureRequest,
    /// Configure-Ack.
    ConfigureAck,
    /// Configure-Nak.
    ConfigureNak,
    /// Configure-Reject.
    ConfigureReject,
    /// Terminate-Request.
    TerminateRequest,
    /// Terminate-Ack.
    TerminateAck,
    /// Code-Reject.
    CodeReject,
    /// Echo-Request (LCP only).
    EchoRequest,
    /// Echo-Reply (LCP only).
    EchoReply,
    /// A code this stack does not interpret.
    Other(u8),
}

impl CpCode {
    /// The on-wire code number.
    pub fn number(self) -> u8 {
        match self {
            CpCode::ConfigureRequest => 1,
            CpCode::ConfigureAck => 2,
            CpCode::ConfigureNak => 3,
            CpCode::ConfigureReject => 4,
            CpCode::TerminateRequest => 5,
            CpCode::TerminateAck => 6,
            CpCode::CodeReject => 7,
            CpCode::EchoRequest => 9,
            CpCode::EchoReply => 10,
            CpCode::Other(n) => n,
        }
    }

    /// Decodes a code number.
    pub fn from_number(n: u8) -> CpCode {
        match n {
            1 => CpCode::ConfigureRequest,
            2 => CpCode::ConfigureAck,
            3 => CpCode::ConfigureNak,
            4 => CpCode::ConfigureReject,
            5 => CpCode::TerminateRequest,
            6 => CpCode::TerminateAck,
            7 => CpCode::CodeReject,
            9 => CpCode::EchoRequest,
            10 => CpCode::EchoReply,
            other => CpCode::Other(other),
        }
    }
}

/// A control-protocol packet: `code | identifier | length | data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpPacket {
    /// Packet code.
    pub code: CpCode,
    /// Transaction identifier.
    pub id: u8,
    /// Data: options for Configure-*, magic+data for Echo-*, etc.
    pub data: Vec<u8>,
}

impl CpPacket {
    /// Creates a packet.
    pub fn new(code: CpCode, id: u8, data: Vec<u8>) -> CpPacket {
        CpPacket { code, id, data }
    }

    /// Serializes to the CP wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let len = (4 + self.data.len()) as u16;
        let mut out = Vec::with_capacity(len as usize);
        out.push(self.code.number());
        out.push(self.id);
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses the CP wire layout.
    pub fn decode(bytes: &[u8]) -> Option<CpPacket> {
        if bytes.len() < 4 {
            return None;
        }
        let len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if len < 4 || len > bytes.len() {
            return None;
        }
        Some(CpPacket {
            code: CpCode::from_number(bytes[0]),
            id: bytes[1],
            data: bytes[4..len].to_vec(),
        })
    }
}

/// A configuration option: `type | length | data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpOption {
    /// Option type.
    pub kind: u8,
    /// Option payload (excludes the type/length bytes).
    pub data: Vec<u8>,
}

impl CpOption {
    /// Creates an option.
    pub fn new(kind: u8, data: Vec<u8>) -> CpOption {
        CpOption { kind, data }
    }

    /// Option carrying a big-endian `u16` (e.g. MRU).
    pub fn u16(kind: u8, v: u16) -> CpOption {
        CpOption::new(kind, v.to_be_bytes().to_vec())
    }

    /// Option carrying a big-endian `u32` (e.g. magic number, IP address).
    pub fn u32(kind: u8, v: u32) -> CpOption {
        CpOption::new(kind, v.to_be_bytes().to_vec())
    }

    /// Reads the payload as a `u16`, if it is exactly two bytes.
    pub fn as_u16(&self) -> Option<u16> {
        <[u8; 2]>::try_from(self.data.as_slice()).ok().map(u16::from_be_bytes)
    }

    /// Reads the payload as a `u32`, if it is exactly four bytes.
    pub fn as_u32(&self) -> Option<u32> {
        <[u8; 4]>::try_from(self.data.as_slice()).ok().map(u32::from_be_bytes)
    }
}

/// Serializes an option list.
pub fn encode_options(options: &[CpOption]) -> Vec<u8> {
    let mut out = Vec::new();
    for o in options {
        out.push(o.kind);
        out.push((o.data.len() + 2) as u8);
        out.extend_from_slice(&o.data);
    }
    out
}

/// Parses an option list; `None` on structural damage.
pub fn decode_options(mut bytes: &[u8]) -> Option<Vec<CpOption>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 2 {
            return None;
        }
        let kind = bytes[0];
        let len = bytes[1] as usize;
        if len < 2 || len > bytes.len() {
            return None;
        }
        out.push(CpOption::new(kind, bytes[2..len].to_vec()));
        bytes = &bytes[len..];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcs16_known_value() {
        // RFC 1662 property: FCS over (data ++ fcs_lo ++ fcs_hi) == 0xF0B8
        // pre-complement; equivalently our complemented fcs16 over the body
        // equals the stored value. Check via a round trip.
        let data = b"\xFF\x03\xC0\x21\x01\x01\x00\x04";
        let fcs = fcs16(data);
        let mut full = data.to_vec();
        full.push((fcs & 0xFF) as u8);
        full.push((fcs >> 8) as u8);
        // CRC over data+fcs gives the magic residue 0xF0B8 before final
        // complement, i.e. !0xF0B8 after it.
        assert_eq!(fcs16(&full), !0xF0B8u16);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = vec![1, 2, 3, 0x7E, 0x7D, 0x11, 200];
        let encoded = encode_frame(protocol::LCP, &payload);
        let mut d = Deframer::new();
        let frames = d.feed(&encoded);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].protocol, protocol::LCP);
        assert_eq!(frames[0].payload, payload);
        assert_eq!(d.errors, 0);
    }

    #[test]
    fn reserved_bytes_are_escaped_on_the_wire() {
        let encoded = encode_frame(protocol::IPV4, &[0x7E, 0x7D, 0x03]);
        // Strip the outer flags; no unescaped flag/escape may remain.
        let inner = &encoded[1..encoded.len() - 1];
        let mut i = 0;
        while i < inner.len() {
            assert_ne!(inner[i], FLAG, "unescaped flag inside frame");
            if inner[i] == ESCAPE {
                i += 1; // the next byte is data
            }
            i += 1;
        }
    }

    #[test]
    fn deframer_handles_split_chunks() {
        let encoded = encode_frame(protocol::IPCP, b"hello world");
        let mut d = Deframer::new();
        let mut frames = Vec::new();
        for chunk in encoded.chunks(3) {
            frames.extend(d.feed(chunk));
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"hello world");
    }

    #[test]
    fn deframer_handles_back_to_back_frames() {
        let mut stream = encode_frame(protocol::LCP, b"a");
        stream.extend(encode_frame(protocol::IPV4, b"b"));
        let mut d = Deframer::new();
        let frames = d.feed(&stream);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].protocol, protocol::LCP);
        assert_eq!(frames[1].protocol, protocol::IPV4);
    }

    #[test]
    fn corrupted_frame_is_counted_not_delivered() {
        let mut encoded = encode_frame(protocol::LCP, b"payload");
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x55;
        // Ensure we didn't corrupt a flag into existence.
        if encoded[mid] == FLAG || encoded[mid] == ESCAPE {
            encoded[mid] ^= 0x0F;
        }
        let mut d = Deframer::new();
        let frames = d.feed(&encoded);
        assert!(frames.is_empty());
        assert_eq!(d.errors, 1);
        assert_eq!(d.last_error(), Some(FrameError::BadFcs));
    }

    #[test]
    fn bad_header_is_counted_not_delivered() {
        let raw = [0xFF, 0x05, 0xC0, 0x21];
        let fcs = fcs16(&raw).to_le_bytes();
        let mut d = Deframer::new();
        assert!(d.feed(&[FLAG, 0xFF, 0x05, 0xC0, 0x21, fcs[0], fcs[1], FLAG]).is_empty());
        assert_eq!(d.last_error(), Some(FrameError::BadHeader));
    }

    #[test]
    fn flagless_input_keeps_the_buffer_bounded() {
        let mut d = Deframer::new();
        let junk = vec![0x41u8; 10_000];
        for _ in 0..20 {
            assert!(d.feed(&junk).is_empty());
            assert!(d.buf.len() <= MAX_FRAME_LEN + 1);
        }
        assert_eq!(d.errors, 1);
        assert!(d.discarding);
    }

    #[test]
    fn runt_frames_rejected() {
        let mut d = Deframer::new();
        // flag, 3 bytes, flag: too short for addr+ctl+proto+fcs.
        let frames = d.feed(&[FLAG, 0xFF, 0x03, 0xC0, FLAG]);
        assert!(frames.is_empty());
        assert_eq!(d.errors, 1);
        assert_eq!(d.last_error(), Some(FrameError::Runt));
    }

    #[test]
    fn repeated_flags_are_idle() {
        let mut d = Deframer::new();
        assert!(d.feed(&[FLAG, FLAG, FLAG]).is_empty());
        assert_eq!(d.errors, 0);
    }

    #[test]
    fn cp_packet_roundtrip() {
        let p = CpPacket::new(CpCode::ConfigureRequest, 7, vec![1, 4, 0x05, 0xDC]);
        let bytes = p.encode();
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[1], 7);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 8);
        let q = CpPacket::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn cp_packet_decode_rejects_bad_lengths() {
        assert!(CpPacket::decode(&[1, 0]).is_none());
        assert!(CpPacket::decode(&[1, 0, 0, 2]).is_none()); // len < 4
        assert!(CpPacket::decode(&[1, 0, 0, 99, 0]).is_none()); // len > buf
    }

    #[test]
    fn cp_packet_decode_ignores_trailing_garbage() {
        let mut bytes = CpPacket::new(CpCode::ConfigureAck, 1, vec![]).encode();
        bytes.extend_from_slice(&[0xAA, 0xBB]); // padding after length
        let p = CpPacket::decode(&bytes).unwrap();
        assert_eq!(p.code, CpCode::ConfigureAck);
        assert!(p.data.is_empty());
    }

    #[test]
    fn cp_code_roundtrip() {
        for n in 1..=10u8 {
            assert_eq!(CpCode::from_number(n).number(), n);
        }
        assert_eq!(CpCode::from_number(200), CpCode::Other(200));
    }

    #[test]
    fn options_roundtrip() {
        let opts =
            vec![CpOption::u16(1, 1500), CpOption::u32(5, 0xDEADBEEF), CpOption::new(9, vec![])];
        let bytes = encode_options(&opts);
        let parsed = decode_options(&bytes).unwrap();
        assert_eq!(parsed, opts);
        assert_eq!(parsed[0].as_u16(), Some(1500));
        assert_eq!(parsed[1].as_u32(), Some(0xDEADBEEF));
        assert_eq!(parsed[2].as_u16(), None);
    }

    #[test]
    fn options_decode_rejects_damage() {
        assert!(decode_options(&[1]).is_none()); // truncated header
        assert!(decode_options(&[1, 1]).is_none()); // length < 2
        assert!(decode_options(&[1, 6, 0, 0]).is_none()); // length > buffer
        assert_eq!(decode_options(&[]).unwrap().len(), 0);
    }

    #[test]
    fn ip_payload_frame_roundtrip() {
        // A realistic-size IP packet survives framing.
        let payload: Vec<u8> = (0..1052u32).map(|i| (i % 251) as u8).collect();
        let encoded = encode_frame(protocol::IPV4, &payload);
        let mut d = Deframer::new();
        let frames = d.feed(&encoded);
        assert_eq!(frames[0].payload, payload);
    }
}
