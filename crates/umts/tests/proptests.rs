//! Property-style tests for the UMTS stack: framing robustness, FCS error
//! detection, the table-driven codec against bitwise oracles, negotiation
//! convergence and bearer conservation. Inputs are generated with the
//! workspace's deterministic [`SimRng`] (the build environment is
//! offline, so no external property-testing crate is used).

use umtslab_net::link::JitterModel;
use umtslab_net::packet::{Packet, PacketId};
use umtslab_net::wire::{Endpoint, Ipv4Address};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};
use umtslab_umts::bearer::{BearerConfig, BearerStats, UmtsBearer};
use umtslab_umts::ppp::frame::{
    encode_frame, fcs16, protocol, Deframer, FrameError, PppFrame, MAX_FRAME_LEN,
};
use umtslab_umts::ppp::{Credentials, PppEndpoint, PppServerConfig};

/// Randomized cases per property.
const CASES: u64 = 64;

fn addr(s: &str) -> Ipv4Address {
    s.parse().unwrap()
}

fn rand_bytes(rng: &mut SimRng, min: usize, max: usize) -> Vec<u8> {
    let len = rng.uniform_u64(min as u64, max as u64) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn rand_word(rng: &mut SimRng, alphabet: &[u8], max_len: u64) -> String {
    let len = rng.uniform_u64(1, max_len) as usize;
    (0..len)
        .map(|_| alphabet[rng.uniform_u64(0, alphabet.len() as u64 - 1) as usize] as char)
        .collect()
}

fn server_config() -> PppServerConfig {
    PppServerConfig {
        own_addr: addr("10.64.0.1"),
        assign_peer: addr("10.64.3.7"),
        dns: [addr("10.64.0.53"), addr("10.64.0.54")],
        require_pap: true,
        expected_credentials: None,
    }
}

/// Frames round-trip arbitrary payloads and protocols.
#[test]
fn frame_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x0201);
    for _ in 0..CASES {
        let payload = rand_bytes(&mut rng, 0, 1999);
        let proto = rng.next_u64() as u16;
        let encoded = encode_frame(proto, &payload);
        let mut d = Deframer::new();
        let frames = d.feed(&encoded);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].protocol, proto);
        assert_eq!(&frames[0].payload, &payload);
        assert_eq!(d.errors, 0);
    }
}

/// Frames survive arbitrary chunking of the byte stream.
#[test]
fn frame_chunking_is_transparent() {
    let mut rng = SimRng::seed_from_u64(0x0202);
    for _ in 0..CASES {
        let n_payloads = rng.uniform_u64(1, 7) as usize;
        let payloads: Vec<Vec<u8>> =
            (0..n_payloads).map(|_| rand_bytes(&mut rng, 0, 199)).collect();
        let chunk = rng.uniform_u64(1, 63) as usize;
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend(encode_frame(protocol::IPV4, p));
        }
        let mut d = Deframer::new();
        let mut frames = Vec::new();
        for c in stream.chunks(chunk) {
            frames.extend(d.feed(c));
        }
        assert_eq!(frames.len(), payloads.len());
        for (f, p) in frames.iter().zip(&payloads) {
            assert_eq!(&f.payload, p);
        }
    }
}

/// Any single-bit error inside a frame is either caught by the FCS or
/// breaks framing — never silently delivered as valid different data.
#[test]
fn fcs_catches_single_bit_errors() {
    let mut rng = SimRng::seed_from_u64(0x0203);
    for _ in 0..CASES {
        let payload = rand_bytes(&mut rng, 1, 299);
        let encoded = encode_frame(protocol::IPV4, &payload);
        // Avoid flipping the outer flags: that only truncates framing,
        // which is legitimate loss, not corruption acceptance.
        if encoded.len() <= 2 {
            continue;
        }
        let pos = 1 + rng.uniform_u64(0, encoded.len() as u64 - 3) as usize;
        let bit = rng.uniform_u64(0, 7);
        let mut damaged = encoded.clone();
        damaged[pos] ^= 1 << bit;
        let mut d = Deframer::new();
        let frames = d.feed(&damaged);
        for f in frames {
            // If a frame did come out whole, it must be byte-identical to
            // the original (the flip created an escape that decoded back).
            assert_eq!(f.payload, payload);
        }
    }
}

/// Bitwise FCS-16 oracle: eight conditional shifts per octet, the
/// textbook form of CRC-16/X.25.
fn oracle_fcs16(data: &[u8]) -> u16 {
    let mut fcs: u16 = 0xFFFF;
    for &b in data {
        fcs ^= u16::from(b);
        for _ in 0..8 {
            if fcs & 1 != 0 {
                fcs = (fcs >> 1) ^ 0x8408;
            } else {
                fcs >>= 1;
            }
        }
    }
    !fcs
}

/// Encoder oracle: build the raw frame, append the FCS, then escape one
/// octet at a time under the default ACCM.
fn oracle_encode(proto: u16, payload: &[u8]) -> Vec<u8> {
    let mut raw = vec![0xFF, 0x03];
    raw.extend_from_slice(&proto.to_be_bytes());
    raw.extend_from_slice(payload);
    let fcs = oracle_fcs16(&raw);
    raw.extend_from_slice(&fcs.to_le_bytes());
    oracle_stuff(&raw)
}

/// Escapes `raw` one octet at a time under the default ACCM, between two
/// flags.
fn oracle_stuff(raw: &[u8]) -> Vec<u8> {
    let mut out = vec![0x7E];
    for &b in raw {
        if b == 0x7E || b == 0x7D || b < 0x20 {
            out.extend_from_slice(&[0x7D, b ^ 0x20]);
        } else {
            out.push(b);
        }
    }
    out.push(0x7E);
    out
}

/// Deframer oracle: one octet at a time into a growing buffer, each
/// frame checked with [`oracle_fcs16`]. Returns the frames and the error
/// count.
fn oracle_deframe(stream: &[u8]) -> (Vec<PppFrame>, u64) {
    let (mut frames, mut errors) = (Vec::new(), 0);
    let (mut buf, mut escaped) = (Vec::new(), false);
    for &b in stream {
        match b {
            0x7E => {
                if !buf.is_empty() {
                    let n = buf.len();
                    let good = n >= 6
                        && oracle_fcs16(&buf[..n - 2])
                            == u16::from_le_bytes([buf[n - 2], buf[n - 1]])
                        && buf[..2] == [0xFF, 0x03];
                    if good {
                        let protocol = u16::from_be_bytes([buf[2], buf[3]]);
                        frames.push(PppFrame { protocol, payload: buf[4..n - 2].to_vec() });
                    } else {
                        errors += 1;
                    }
                    buf.clear();
                }
                escaped = false;
            }
            0x7D => escaped = true,
            _ => {
                buf.push(if escaped { b ^ 0x20 } else { b });
                escaped = false;
            }
        }
    }
    (frames, errors)
}

/// Octets that the codec treats specially: flag, escape and controls.
fn rand_escape_heavy(rng: &mut SimRng, len: usize) -> Vec<u8> {
    const SPECIAL: [u8; 5] = [0x7E, 0x7D, 0x00, 0x11, 0x1F];
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                SPECIAL[rng.uniform_u64(0, SPECIAL.len() as u64 - 1) as usize]
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

/// The slicing-by-8 FCS equals the bitwise oracle at every length from 0
/// to 4096, so every remainder after the eight-octet steps is covered.
#[test]
fn fcs16_matches_bitwise_oracle_at_every_length() {
    let mut rng = SimRng::seed_from_u64(0x0206);
    let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(fcs16(&data[..len]), oracle_fcs16(&data[..len]), "length {len}");
    }
    // The standard CRC-16/X.25 check value.
    assert_eq!(fcs16(b"123456789"), 0x906E);
}

/// `encode_frame` is byte-identical to the oracle encoder on random,
/// all-zero, all-escape and escape-heavy payloads of every alignment.
#[test]
fn encode_frame_matches_oracle_encoder() {
    let mut rng = SimRng::seed_from_u64(0x0207);
    for len in 0..=64 {
        for payload in [vec![0u8; len], vec![0x7D; len], vec![0x7E; len], vec![0x1F; len]] {
            assert_eq!(
                encode_frame(protocol::IPV4, &payload),
                oracle_encode(protocol::IPV4, &payload)
            );
        }
    }
    for _ in 0..CASES {
        let proto = rng.next_u64() as u16;
        let len = rng.uniform_u64(0, 1999) as usize;
        let random = rand_bytes(&mut rng, len, len);
        let heavy = rand_escape_heavy(&mut rng, len);
        for payload in [random, heavy, vec![0; len]] {
            assert_eq!(encode_frame(proto, &payload), oracle_encode(proto, &payload));
        }
    }
}

/// A two-frame stream split at every offset, including between an escape
/// and its data octet, deframes to the same two frames.
#[test]
fn two_frame_stream_splits_at_every_offset() {
    let mut rng = SimRng::seed_from_u64(0x0208);
    let first = rand_escape_heavy(&mut rng, 40);
    let second: Vec<u8> = (0..48u8).collect();
    let mut stream = encode_frame(protocol::IPV4, &first);
    stream.extend(encode_frame(protocol::LCP, &second));
    assert!(stream.windows(2).any(|w| w[0] == 0x7D && w[1] != 0x7E), "needs a split escape");
    for cut in 0..=stream.len() {
        let mut d = Deframer::new();
        let mut frames = d.feed(&stream[..cut]);
        frames.extend(d.feed(&stream[cut..]));
        assert_eq!(frames.len(), 2, "cut at {cut}");
        assert_eq!((frames[0].protocol, &frames[0].payload), (protocol::IPV4, &first));
        assert_eq!((frames[1].protocol, &frames[1].payload), (protocol::LCP, &second));
        assert_eq!(d.errors, 0);
    }
}

/// Arbitrary input biased towards flags, escapes, valid frames and
/// damaged frames never panics the deframer, whatever the chunking. It
/// emits exactly the oracle's frames, so each one verifies under the
/// bitwise FCS, and every other candidate frame is counted in `errors`.
#[test]
fn deframer_agrees_with_oracle_on_hostile_input() {
    let mut rng = SimRng::seed_from_u64(0x0209);
    let (mut delivered, mut rejected) = (0, 0);
    for _ in 0..CASES {
        let mut stream = Vec::new();
        for _ in 0..rng.uniform_u64(1, 12) {
            match rng.uniform_u64(0, 3) {
                0 => {
                    let len = rng.uniform_u64(0, 300) as usize;
                    stream.extend(encode_frame(protocol::IPV4, &rand_escape_heavy(&mut rng, len)));
                }
                1 => {
                    let len = rng.uniform_u64(0, 300) as usize;
                    let mut f = encode_frame(protocol::LCP, &rand_bytes(&mut rng, len, len));
                    let pos = rng.uniform_u64(0, f.len() as u64 - 1) as usize;
                    f[pos] ^= 1 << rng.uniform_u64(0, 7);
                    stream.extend(f);
                }
                2 => {
                    let len = rng.uniform_u64(0, 64) as usize;
                    stream.extend(rand_escape_heavy(&mut rng, len));
                }
                _ => {
                    let len = rng.uniform_u64(0, 64) as usize;
                    stream.extend(rand_bytes(&mut rng, len, len));
                }
            }
        }
        let (expected, expected_errors) = oracle_deframe(&stream);
        let mut d = Deframer::new();
        let mut frames = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rest.len().min(rng.uniform_u64(1, 96) as usize));
            frames.extend(d.feed(chunk));
            rest = tail;
        }
        assert_eq!(frames, expected);
        assert_eq!(d.errors, expected_errors);
        delivered += frames.len();
        rejected += d.errors;
    }
    assert!(delivered > 0 && rejected > 0, "{delivered} delivered, {rejected} rejected");
}

/// `feed_with` and its collecting wrapper `feed` yield the same frames,
/// `errors` and `last_error` on seeded random chunkings of valid streams,
/// streams cut inside a `7D` escape, frames with a corrupted FCS, and
/// runt or over-long frames; neither panics.
#[test]
fn feed_with_and_feed_agree_on_every_stream_kind() {
    let mut rng = SimRng::seed_from_u64(0x020A);
    let mut seen = [0u64; 4];
    for case in 0..4 * CASES {
        let kind = case % 4;
        let mut stream = Vec::new();
        // Offsets just past a `7D`, where kind 1 must cut the stream.
        let mut escapes = Vec::new();
        for _ in 0..rng.uniform_u64(1, 6) {
            match kind {
                0 => {
                    let len = rng.uniform_u64(0, 400) as usize;
                    let proto = [protocol::IPV4, protocol::LCP][rng.uniform_u64(0, 1) as usize];
                    stream.extend(encode_frame(proto, &rand_bytes(&mut rng, len, len)));
                }
                1 => {
                    let len = rng.uniform_u64(1, 200) as usize;
                    let frame = encode_frame(protocol::IPV4, &rand_escape_heavy(&mut rng, len));
                    escapes.extend(
                        (0..frame.len())
                            .filter(|&i| frame[i] == 0x7D)
                            .map(|i| stream.len() + i + 1),
                    );
                    stream.extend(frame);
                }
                2 => {
                    let len = rng.uniform_u64(0, 300) as usize;
                    let mut raw = vec![0xFF, 0x03, 0x00, 0x21];
                    raw.extend(rand_bytes(&mut rng, len, len));
                    let fcs = oracle_fcs16(&raw) ^ (1 << rng.uniform_u64(0, 15));
                    raw.extend_from_slice(&fcs.to_le_bytes());
                    stream.extend(oracle_stuff(&raw));
                }
                _ => {
                    let len = if rng.chance(0.5) {
                        rng.uniform_u64(1, 5)
                    } else {
                        MAX_FRAME_LEN as u64 + rng.uniform_u64(1, 3_000)
                    } as usize;
                    stream.push(0x7E);
                    stream.extend(rand_bytes(&mut rng, len, len).iter().map(|b| b | 0x80));
                    stream.push(0x7E);
                }
            }
            if rng.chance(0.5) {
                let len = rng.uniform_u64(0, 16) as usize;
                stream.extend(encode_frame(protocol::IPCP, &rand_bytes(&mut rng, len, len)));
            }
        }
        // Seeded chunk boundaries; kind 1 also cuts after every third escape.
        let mut cuts: Vec<usize> = (0..rng.uniform_u64(0, 24))
            .map(|_| rng.uniform_u64(0, stream.len() as u64) as usize)
            .collect();
        cuts.extend(escapes.iter().step_by(3));
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();
        let (mut by_feed, mut by_feed_with) = (Deframer::new(), Deframer::new());
        let (mut fed, mut called) = (Vec::new(), Vec::new());
        for w in cuts.windows(2) {
            let chunk = &stream[w[0]..w[1]];
            fed.extend(by_feed.feed(chunk));
            by_feed_with.feed_with(chunk, |protocol, body| {
                called.push(PppFrame { protocol, payload: body.to_vec() });
            });
        }
        assert_eq!(fed, called, "case {case}");
        assert_eq!(by_feed.errors, by_feed_with.errors, "case {case}");
        assert_eq!(by_feed.last_error(), by_feed_with.last_error(), "case {case}");
        if kind == 1 {
            assert!(!escapes.is_empty(), "the stuffed `FF 03` header escapes its `03`");
        }
        seen[kind as usize] += by_feed.errors;
    }
    // Valid and split-escape streams carry no error; the damaged kinds do.
    assert_eq!(seen[..2], [0, 0]);
    assert!(seen[2] > 0 && seen[3] > 0, "{seen:?}");
}

/// A stream with no flag cannot grow the deframer without bound: the
/// partial frame is dropped as one `TooLong` error once it passes the
/// largest IPv4 datagram plus header and FCS, and the deframer recovers
/// at the next flag. A frame of exactly that size still gets through.
#[test]
fn flagless_stream_is_bounded_and_recovers() {
    let mut d = Deframer::new();
    let junk = vec![0x41u8; 4096];
    for _ in 0..64 {
        assert!(d.feed(&junk).is_empty());
    }
    assert_eq!(d.errors, 1);
    assert_eq!(d.last_error(), Some(FrameError::TooLong));
    let frames = d.feed(&encode_frame(protocol::IPV4, b"after"));
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].payload, b"after");
    assert_eq!(d.errors, 1);

    let largest = vec![0u8; MAX_FRAME_LEN - 6];
    let frames = d.feed(&encode_frame(protocol::IPV4, &largest));
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].payload, largest);
    let too_long = vec![0u8; MAX_FRAME_LEN - 5];
    assert!(d.feed(&encode_frame(protocol::IPV4, &too_long)).is_empty());
    assert_eq!(d.errors, 2);
    assert_eq!(d.last_error(), Some(FrameError::TooLong));
}

/// PPP sessions converge for any credentials accepted by the server and
/// any magic numbers, and both ends agree on the address pair. The phase
/// transition counter advances on both sides.
#[test]
fn ppp_negotiation_converges() {
    let mut rng = SimRng::seed_from_u64(0x0204);
    for _ in 0..CASES {
        let client_magic = rng.uniform_u64(1, u32::MAX as u64) as u32;
        let mut server_magic = rng.uniform_u64(1, u32::MAX as u64) as u32;
        if server_magic == client_magic {
            server_magic = server_magic.wrapping_add(1).max(1);
        }
        let user = rand_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 12);
        let pass = rand_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz0123456789", 12);
        let mut client =
            PppEndpoint::client(client_magic, Some(Credentials::new(user, pass)), false);
        let mut server = PppEndpoint::server(server_magic, server_config());
        let now = Instant::ZERO;
        let mut to_server = client.start(now).tx;
        let mut to_client = server.start(now).tx;
        for _ in 0..64 {
            if client.is_open() && server.is_open() {
                break;
            }
            let out = server.input_bytes(now, &std::mem::take(&mut to_server));
            to_client.extend(out.tx);
            let out = client.input_bytes(now, &std::mem::take(&mut to_client));
            to_server.extend(out.tx);
        }
        assert!(client.is_open(), "client stuck in {:?}", client.phase());
        assert!(server.is_open(), "server stuck in {:?}", server.phase());
        assert_eq!(client.local_addr(), Some(addr("10.64.3.7")));
        assert_eq!(client.peer_addr(), server.local_addr());
        assert_eq!(server.peer_addr(), client.local_addr());
        // Dead → Establish → Authenticate → Network → Open is at least
        // four observable phase changes on each side.
        assert!(client.phase_transitions() >= 4, "client {:?}", client.phase_transitions());
        assert!(server.phase_transitions() >= 3, "server {:?}", server.phase_transitions());
    }
}

/// The bearer conserves packets: offered = served + overflow-dropped +
/// RLC-dropped + still queued. Holds for every rate/size pattern.
#[test]
fn bearer_conserves_packets() {
    let mut rng = SimRng::seed_from_u64(0x0205);
    for _ in 0..48 {
        let n = rng.uniform_u64(1, 149) as usize;
        let sizes: Vec<usize> = (0..n).map(|_| rng.uniform_u64(16, 1199) as usize).collect();
        let rate = rng.uniform_u64(10_000, 1_999_999);
        let bler = rng.uniform(0.0, 0.5);
        let cfg = BearerConfig {
            tti: Duration::from_millis(10),
            queue_packets: 0,
            queue_bytes: 20_000,
            base_delay: Duration::from_millis(50),
            jitter: JitterModel::Uniform { max: Duration::from_millis(10) },
            bler,
            retx_delay: Duration::from_millis(40),
            max_attempts: 4,
            outage_rate_per_sec: 0.0,
            outage_min: Duration::ZERO,
            outage_max: Duration::ZERO,
        };
        let mut bearer = UmtsBearer::new(cfg);
        bearer.set_rate(Instant::ZERO, rate);
        let mut brng = SimRng::seed_from_u64(rng.next_u64());
        let mut served = 0u64;
        let mut last_delivery = Instant::ZERO;
        for (i, size) in sizes.iter().enumerate() {
            let now = Instant::from_millis(10 * (i as u64 + 1));
            let p = Packet::udp(
                PacketId(i as u64),
                Endpoint::new(addr("10.64.3.7"), 1),
                Endpoint::new(addr("192.0.2.1"), 2),
                vec![0; *size],
                now,
            );
            let _ = bearer.enqueue(now, p);
            for (at, _) in bearer.service(now, &mut brng) {
                assert!(at >= now, "delivery in the past");
                assert!(at >= last_delivery, "reordered delivery");
                last_delivery = at;
                served += 1;
            }
        }
        // Drain the rest.
        let mut t = Instant::from_millis(10 * (sizes.len() as u64 + 1));
        for _ in 0..10_000 {
            if bearer.backlog_packets() == 0 {
                break;
            }
            for (at, _) in bearer.service(t, &mut brng) {
                assert!(at >= last_delivery);
                last_delivery = at;
                served += 1;
            }
            t += Duration::from_millis(10);
        }
        let st = bearer.stats();
        assert_eq!(st.offered, sizes.len() as u64);
        assert_eq!(
            st.offered,
            served + st.dropped_overflow + st.dropped_rlc + bearer.backlog_packets() as u64
        );
        assert_eq!(st.served, served);
    }
}

/// `BearerStats::absorb` is an exact field-wise sum.
#[test]
fn bearer_stats_absorb_is_fieldwise_sum() {
    let a = BearerStats {
        offered: 10,
        served: 7,
        dropped_overflow: 2,
        dropped_rlc: 1,
        retransmissions: 5,
        outages: 3,
    };
    let b = BearerStats {
        offered: 4,
        served: 4,
        dropped_overflow: 0,
        dropped_rlc: 0,
        retransmissions: 1,
        outages: 0,
    };
    let mut total = a;
    total.absorb(b);
    assert_eq!(
        total,
        BearerStats {
            offered: 14,
            served: 11,
            dropped_overflow: 2,
            dropped_rlc: 1,
            retransmissions: 6,
            outages: 3,
        }
    );
}
