//! LCP: the Link Control Protocol option policy.
//!
//! Negotiates the Maximum-Receive-Unit, a magic number (used for loopback
//! detection and echo keepalives), and optionally an authentication
//! protocol (PAP) demanded by the network side — the shape of a real
//! operator's GGSN configuration, which `wvdial` answers with the
//! subscriber credentials.

use super::frame::CpOption;
use super::fsm::{OptionHandler, PeerJudgement};

/// LCP option types.
pub mod opt {
    /// Maximum-Receive-Unit.
    pub const MRU: u8 = 1;
    /// Authentication-Protocol.
    pub const AUTH_PROTOCOL: u8 = 3;
    /// Magic-Number.
    pub const MAGIC: u8 = 5;
}

/// The PAP protocol number carried inside the Authentication-Protocol
/// option.
pub const AUTH_PAP: u16 = 0xC023;

/// Values agreed by a completed LCP negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LcpNegotiated {
    /// The MRU the *peer* can receive (governs our transmit size).
    pub peer_mru: u16,
    /// The peer's magic number.
    pub peer_magic: u32,
    /// The peer requires us to authenticate with PAP.
    pub must_authenticate: bool,
}

/// LCP option handler for one side of the link.
#[derive(Debug)]
pub struct LcpHandler {
    /// MRU we advertise.
    own_mru: u16,
    /// Our magic number.
    own_magic: u32,
    /// As the network side: require the peer to authenticate with PAP.
    require_pap: bool,
    /// Dropped options (after Configure-Reject).
    offer_magic: bool,
    negotiated: LcpNegotiated,
    /// Count of loopback suspicions (peer echoed our magic).
    pub loopback_suspicions: u32,
}

impl LcpHandler {
    /// Smallest MRU this implementation accepts (RFC 791 minimum reassembly).
    pub const MIN_MRU: u16 = 576;
    /// Default MRU.
    pub const DEFAULT_MRU: u16 = 1500;

    /// Creates a handler. `require_pap` is set on the network (server)
    /// side when the operator demands authentication.
    pub fn new(own_magic: u32, require_pap: bool) -> LcpHandler {
        LcpHandler {
            own_mru: Self::DEFAULT_MRU,
            own_magic,
            require_pap,
            offer_magic: true,
            negotiated: LcpNegotiated {
                peer_mru: Self::DEFAULT_MRU,
                peer_magic: 0,
                must_authenticate: false,
            },
            loopback_suspicions: 0,
        }
    }

    /// Our magic number (used in echo requests).
    pub fn own_magic(&self) -> u32 {
        self.own_magic
    }

    /// The negotiated values.
    pub fn negotiated(&self) -> LcpNegotiated {
        self.negotiated
    }
}

impl OptionHandler for LcpHandler {
    fn request_options(&mut self) -> Vec<CpOption> {
        let mut opts = vec![CpOption::u16(opt::MRU, self.own_mru)];
        if self.offer_magic {
            opts.push(CpOption::u32(opt::MAGIC, self.own_magic));
        }
        if self.require_pap {
            opts.push(CpOption::u16(opt::AUTH_PROTOCOL, AUTH_PAP));
        }
        opts
    }

    fn judge(&mut self, options: &[CpOption]) -> PeerJudgement {
        let mut naks = Vec::new();
        let mut rejs = Vec::new();
        for o in options {
            match o.kind {
                opt::MRU => match o.as_u16() {
                    Some(v) if v >= Self::MIN_MRU => {}
                    _ => naks.push(CpOption::u16(opt::MRU, Self::DEFAULT_MRU)),
                },
                opt::MAGIC => match o.as_u32() {
                    Some(v) if v != self.own_magic && v != 0 => {}
                    _ => {
                        // Same magic (or zero): suspected loopback; suggest
                        // a different value derived from ours.
                        self.loopback_suspicions += 1;
                        naks.push(CpOption::u32(
                            opt::MAGIC,
                            self.own_magic.rotate_left(13) ^ 0xA5A5_5A5A,
                        ));
                    }
                },
                opt::AUTH_PROTOCOL => {
                    match o.as_u16() {
                        // We can do PAP as the authenticatee.
                        Some(AUTH_PAP) => {}
                        // Anything else (e.g. CHAP): counter-propose PAP.
                        _ => naks.push(CpOption::u16(opt::AUTH_PROTOCOL, AUTH_PAP)),
                    }
                }
                _ => rejs.push(o.clone()),
            }
        }
        if !rejs.is_empty() {
            PeerJudgement::Rej(rejs)
        } else if !naks.is_empty() {
            PeerJudgement::Nak(naks)
        } else {
            PeerJudgement::Ack
        }
    }

    fn peer_options_applied(&mut self, options: &[CpOption]) {
        for o in options {
            match o.kind {
                opt::MRU => {
                    if let Some(v) = o.as_u16() {
                        self.negotiated.peer_mru = v;
                    }
                }
                opt::MAGIC => {
                    if let Some(v) = o.as_u32() {
                        self.negotiated.peer_magic = v;
                    }
                }
                opt::AUTH_PROTOCOL if o.as_u16() == Some(AUTH_PAP) => {
                    self.negotiated.must_authenticate = true;
                }
                _ => {}
            }
        }
    }

    fn own_options_acked(&mut self, _options: &[CpOption]) {}

    fn own_options_naked(&mut self, options: &[CpOption]) {
        for o in options {
            match o.kind {
                opt::MRU => {
                    if let Some(v) = o.as_u16() {
                        self.own_mru = v.clamp(Self::MIN_MRU, Self::DEFAULT_MRU);
                    }
                }
                opt::MAGIC => {
                    if let Some(v) = o.as_u32() {
                        self.own_magic = v;
                    }
                }
                _ => {}
            }
        }
    }

    fn own_options_rejected(&mut self, options: &[CpOption]) {
        for o in options {
            if o.kind == opt::MAGIC {
                self.offer_magic = false;
            }
            if o.kind == opt::AUTH_PROTOCOL {
                self.require_pap = false;
            }
        }
    }
}

/// Helper: the LCP Echo-Request payload is the sender's magic number; this
/// builds one (used for keepalive probing of the PPP session).
pub fn echo_payload(magic: u32) -> Vec<u8> {
    magic.to_be_bytes().to_vec()
}

/// Extracts the magic from an echo payload.
pub fn echo_magic(data: &[u8]) -> Option<u32> {
    data.get(..4).and_then(|b| <[u8; 4]>::try_from(b).ok()).map(u32::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppp::fsm::{CpFsm, FsmConfig};
    use umtslab_sim::time::Instant;

    fn converge(a: &mut CpFsm<LcpHandler>, b: &mut CpFsm<LcpHandler>) {
        let mut to_b = a.open(Instant::ZERO).packets;
        let mut to_a = b.open(Instant::ZERO).packets;
        for _ in 0..20 {
            let mut nb = Vec::new();
            let mut na = Vec::new();
            for p in to_b.drain(..) {
                na.extend(b.input(Instant::ZERO, &p).packets);
            }
            for p in to_a.drain(..) {
                nb.extend(a.input(Instant::ZERO, &p).packets);
            }
            to_b = nb;
            to_a = na;
            if a.is_open() && b.is_open() {
                break;
            }
        }
    }

    #[test]
    fn plain_negotiation_opens() {
        let mut a = CpFsm::new(LcpHandler::new(0x1111_1111, false), FsmConfig::default());
        let mut b = CpFsm::new(LcpHandler::new(0x2222_2222, false), FsmConfig::default());
        converge(&mut a, &mut b);
        assert!(a.is_open() && b.is_open());
        assert_eq!(a.handler().negotiated().peer_magic, 0x2222_2222);
        assert_eq!(b.handler().negotiated().peer_magic, 0x1111_1111);
        assert_eq!(a.handler().negotiated().peer_mru, 1500);
        assert!(!a.handler().negotiated().must_authenticate);
    }

    #[test]
    fn server_demands_pap_and_client_accepts() {
        let mut client = CpFsm::new(LcpHandler::new(1, false), FsmConfig::default());
        let mut server = CpFsm::new(LcpHandler::new(2, true), FsmConfig::default());
        converge(&mut client, &mut server);
        assert!(client.is_open() && server.is_open());
        // The client learned it must authenticate.
        assert!(client.handler().negotiated().must_authenticate);
        // The server does not have to authenticate.
        assert!(!server.handler().negotiated().must_authenticate);
    }

    #[test]
    fn identical_magic_is_detected_as_loopback() {
        // Two endpoints with the same magic are indistinguishable from a
        // looped-back line: every Configure-Request is Naked, negotiation
        // never completes, and the suspicion counter climbs. (With
        // per-endpoint random magics this cannot happen in practice.)
        let mut a = CpFsm::new(LcpHandler::new(0xCAFE, false), FsmConfig::default());
        let mut b = CpFsm::new(LcpHandler::new(0xCAFE, false), FsmConfig::default());
        converge(&mut a, &mut b);
        assert!(!a.is_open() && !b.is_open());
        assert!(a.handler().loopback_suspicions > 0);
        assert!(b.handler().loopback_suspicions > 0);
    }

    #[test]
    fn tiny_mru_is_naked_up() {
        let mut h = LcpHandler::new(1, false);
        let judgement = h.judge(&[CpOption::u16(opt::MRU, 100)]);
        match judgement {
            PeerJudgement::Nak(opts) => {
                assert_eq!(opts[0].as_u16(), Some(1500));
            }
            other => panic!("expected nak, got {other:?}"),
        }
    }

    #[test]
    fn unknown_option_is_rejected() {
        let mut h = LcpHandler::new(1, false);
        let judgement = h.judge(&[CpOption::new(42, vec![1, 2, 3])]);
        match judgement {
            PeerJudgement::Rej(opts) => assert_eq!(opts[0].kind, 42),
            other => panic!("expected rej, got {other:?}"),
        }
    }

    #[test]
    fn chap_is_countered_with_pap() {
        let mut h = LcpHandler::new(1, false);
        // 0xC223 is CHAP.
        let judgement = h.judge(&[CpOption::u16(opt::AUTH_PROTOCOL, 0xC223)]);
        match judgement {
            PeerJudgement::Nak(opts) => assert_eq!(opts[0].as_u16(), Some(AUTH_PAP)),
            other => panic!("expected nak, got {other:?}"),
        }
    }

    #[test]
    fn rejected_magic_stops_being_offered() {
        let mut h = LcpHandler::new(7, false);
        assert!(h.request_options().iter().any(|o| o.kind == opt::MAGIC));
        h.own_options_rejected(&[CpOption::u32(opt::MAGIC, 7)]);
        assert!(!h.request_options().iter().any(|o| o.kind == opt::MAGIC));
    }

    #[test]
    fn echo_payload_roundtrip() {
        let p = echo_payload(0xDEAD_BEEF);
        assert_eq!(echo_magic(&p), Some(0xDEAD_BEEF));
        assert_eq!(echo_magic(&[1, 2]), None);
    }
}
