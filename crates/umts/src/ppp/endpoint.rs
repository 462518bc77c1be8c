//! The complete PPP session endpoint: phases, framing, keepalive.
//!
//! Combines the sub-protocols into the RFC 1661 phase diagram:
//!
//! ```text
//! Dead -> Establish (LCP) -> Authenticate (PAP, if demanded)
//!      -> Network (IPCP)  -> Open -> Terminating -> Dead
//! ```
//!
//! One [`PppEndpoint`] instance is the host side (the PlanetLab node, via
//! the modem's data mode); a second instance created with
//! [`PppEndpoint::server`] is
//! the network side terminated at the operator's GGSN. The endpoint speaks
//! raw framed bytes on the wire side and IPv4 packets on the network side.

use umtslab_net::wire::Ipv4Address;
use umtslab_sim::time::{Duration, Instant};

use super::frame::{self, encode_frame, encode_frame_into, CpCode, CpPacket, Deframer};
use super::fsm::{CpFsm, FsmConfig, FsmSignal};
use super::ipcp::IpcpHandler;
use super::lcp::{echo_payload, LcpHandler};
use super::pap::{Credentials, PapMachine, PapState};

/// Session phase (RFC 1661 §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PppPhase {
    /// No session.
    Dead,
    /// LCP negotiating.
    Establish,
    /// PAP in progress.
    Authenticate,
    /// IPCP negotiating.
    Network,
    /// IP traffic may flow.
    Open,
    /// Terminate handshake in progress.
    Terminating,
}

/// Events surfaced to the owner of the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PppEvent {
    /// The session is fully open with the negotiated addresses.
    Up {
        /// Our address.
        local: Ipv4Address,
        /// The peer's address.
        peer: Ipv4Address,
    },
    /// The session went down.
    Down,
    /// Authentication was refused.
    AuthFailed,
}

/// Bytes to transmit plus events and received IP packets from one step.
#[derive(Debug, Default)]
pub struct PppOutput {
    /// Framed bytes to write to the serial line / radio bearer.
    pub tx: Vec<u8>,
    /// Session events.
    pub events: Vec<PppEvent>,
    /// IPv4 packets received from the peer (only once Open).
    pub rx_ipv4: Vec<Vec<u8>>,
}

impl PppOutput {
    fn merge(&mut self, other: PppOutput) {
        self.tx.extend(other.tx);
        self.events.extend(other.events);
        self.rx_ipv4.extend(other.rx_ipv4);
    }
}

/// Network-side session parameters.
#[derive(Debug, Clone)]
pub struct PppServerConfig {
    /// The GGSN-side address.
    pub own_addr: Ipv4Address,
    /// Address to assign to the dialing host.
    pub assign_peer: Ipv4Address,
    /// DNS servers offered.
    pub dns: [Ipv4Address; 2],
    /// Demand PAP authentication.
    pub require_pap: bool,
    /// Expected credentials (`None` = accept anything).
    pub expected_credentials: Option<Credentials>,
}

enum Side {
    Client { credentials: Option<Credentials> },
    Server,
}

/// Interval between LCP Echo-Requests when the session is open.
const KEEPALIVE_INTERVAL: Duration = Duration::from_secs(10);
/// Unanswered echoes before the link is declared dead.
const KEEPALIVE_MAX_MISSED: u32 = 3;

/// One end of a PPP session.
pub struct PppEndpoint {
    side: Side,
    phase: PppPhase,
    lcp: CpFsm<LcpHandler>,
    pap: Option<PapMachine>,
    ipcp: CpFsm<IpcpHandler>,
    deframer: Deframer,
    next_echo: Option<Instant>,
    missed_echoes: u32,
    was_open: bool,
    transitions: u64,
}

impl PppEndpoint {
    /// Creates the dialing-host side. `credentials` are presented if the
    /// network demands PAP; `request_dns` adds DNS negotiation to IPCP.
    pub fn client(magic: u32, credentials: Option<Credentials>, request_dns: bool) -> PppEndpoint {
        PppEndpoint {
            side: Side::Client { credentials },
            phase: PppPhase::Dead,
            lcp: CpFsm::new(LcpHandler::new(magic, false), FsmConfig::default()),
            pap: None,
            ipcp: CpFsm::new(IpcpHandler::client(request_dns), FsmConfig::default()),
            deframer: Deframer::new(),
            next_echo: None,
            missed_echoes: 0,
            was_open: false,
            transitions: 0,
        }
    }

    /// Creates the network (GGSN) side.
    pub fn server(magic: u32, config: PppServerConfig) -> PppEndpoint {
        let pap = if config.require_pap {
            Some(PapMachine::server(config.expected_credentials.clone()))
        } else {
            None
        };
        PppEndpoint {
            side: Side::Server,
            phase: PppPhase::Dead,
            lcp: CpFsm::new(LcpHandler::new(magic, config.require_pap), FsmConfig::default()),
            pap,
            ipcp: CpFsm::new(
                IpcpHandler::server(config.own_addr, config.assign_peer, config.dns),
                FsmConfig::default(),
            ),
            deframer: Deframer::new(),
            next_echo: None,
            missed_echoes: 0,
            was_open: false,
            transitions: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> PppPhase {
        self.phase
    }

    /// Lifetime count of phase transitions (Dead → Establish → … → Open →
    /// …). A clean dial is a handful; churn here flags link flapping.
    pub fn phase_transitions(&self) -> u64 {
        self.transitions
    }

    /// Moves to `next`, counting the transition if the phase changed.
    fn enter_phase(&mut self, next: PppPhase) {
        if self.phase != next {
            self.phase = next;
            self.transitions += 1;
        }
    }

    /// True when IP traffic may flow.
    pub fn is_open(&self) -> bool {
        self.phase == PppPhase::Open
    }

    /// Our negotiated address (once open).
    pub fn local_addr(&self) -> Option<Ipv4Address> {
        if self.ipcp.handler().local_addr_acked() {
            Some(self.ipcp.handler().local_addr())
        } else {
            None
        }
    }

    /// The peer's negotiated address (once open).
    pub fn peer_addr(&self) -> Option<Ipv4Address> {
        self.ipcp.handler().peer_addr()
    }

    /// DNS servers learned during IPCP (client side).
    pub fn dns_servers(&self) -> [Option<Ipv4Address>; 2] {
        self.ipcp.handler().dns_servers()
    }

    /// The lower layer (modem data mode) came up: start negotiating.
    pub fn start(&mut self, now: Instant) -> PppOutput {
        self.enter_phase(PppPhase::Establish);
        self.was_open = false;
        self.missed_echoes = 0;
        let out = self.lcp.open(now);
        let mut r = PppOutput::default();
        self.absorb_lcp(now, out, &mut r);
        r
    }

    /// Administrative teardown (the `umts stop` path).
    pub fn close(&mut self, now: Instant) -> PppOutput {
        let mut r = PppOutput::default();
        if self.phase == PppPhase::Dead {
            return r;
        }
        self.enter_phase(PppPhase::Terminating);
        self.next_echo = None;
        let out = self.lcp.close(now);
        self.absorb_lcp(now, out, &mut r);
        r
    }

    /// The lower layer vanished (carrier loss): hard reset.
    pub fn carrier_lost(&mut self, _now: Instant) -> PppOutput {
        let mut r = PppOutput::default();
        let _ = self.lcp.lower_down();
        let _ = self.ipcp.lower_down();
        if self.was_open {
            r.events.push(PppEvent::Down);
        }
        self.enter_phase(PppPhase::Dead);
        self.next_echo = None;
        self.was_open = false;
        r
    }

    /// Sends an IPv4 packet: frames it into `out`, replacing its contents
    /// and reusing its capacity, and returns `true`.
    ///
    /// Returns `false`, leaving `out` as it was, when the session is not
    /// open (callers should treat that as "interface down").
    pub fn send_ipv4_into(&mut self, wire_bytes: &[u8], out: &mut Vec<u8>) -> bool {
        if self.phase != PppPhase::Open {
            return false;
        }
        encode_frame_into(frame::protocol::IPV4, wire_bytes, out);
        true
    }

    /// Feeds received serial/bearer bytes.
    pub fn input_bytes(&mut self, now: Instant, bytes: &[u8]) -> PppOutput {
        let frames = self.deframer.feed(bytes);
        let mut r = PppOutput::default();
        for f in frames {
            match f.protocol {
                frame::protocol::LCP => {
                    if let Some(pkt) = CpPacket::decode(&f.payload) {
                        if pkt.code == CpCode::EchoReply {
                            self.missed_echoes = 0;
                        }
                        let out = self.lcp.input(now, &pkt);
                        self.absorb_lcp(now, out, &mut r);
                    }
                }
                frame::protocol::PAP
                    if (self.phase == PppPhase::Authenticate
                        || self.phase == PppPhase::Establish) =>
                {
                    if let (Some(pap), Some(pkt)) =
                        (self.pap.as_mut(), CpPacket::decode(&f.payload))
                    {
                        let replies = pap.input(now, &pkt);
                        for p in replies {
                            r.tx.extend(encode_frame(frame::protocol::PAP, &p.encode()));
                        }
                        self.after_pap(now, &mut r);
                    }
                }
                frame::protocol::IPCP => {
                    if matches!(self.phase, PppPhase::Network | PppPhase::Open) {
                        if let Some(pkt) = CpPacket::decode(&f.payload) {
                            let out = self.ipcp.input(now, &pkt);
                            self.absorb_ipcp(now, out, &mut r);
                        }
                    }
                }
                frame::protocol::IPV4 if self.phase == PppPhase::Open => {
                    r.rx_ipv4.push(f.payload);
                }
                _ => {
                    // Unknown protocol: LCP Protocol-Reject would go here;
                    // we silently discard, which is adequate for the
                    // protocols this testbed exercises.
                }
            }
        }
        r
    }

    /// The earliest pending timer.
    pub fn next_timeout(&self) -> Option<Instant> {
        let mut t = self.lcp.next_timeout();
        for cand in [
            self.ipcp.next_timeout(),
            self.pap.as_ref().and_then(super::pap::PapMachine::next_timeout),
            self.next_echo,
        ] {
            t = match (t, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        }
        t
    }

    /// Drives every timer whose deadline has passed.
    pub fn on_timeout(&mut self, now: Instant) -> PppOutput {
        let mut r = PppOutput::default();
        let out = self.lcp.on_timeout(now);
        self.absorb_lcp(now, out, &mut r);
        let out = self.ipcp.on_timeout(now);
        self.absorb_ipcp(now, out, &mut r);
        if let Some(pap) = self.pap.as_mut() {
            let pkts = pap.on_timeout(now);
            for p in pkts {
                r.tx.extend(encode_frame(frame::protocol::PAP, &p.encode()));
            }
            self.after_pap(now, &mut r);
        }
        if let Some(echo_at) = self.next_echo {
            if now >= echo_at && self.phase == PppPhase::Open {
                if self.missed_echoes >= KEEPALIVE_MAX_MISSED {
                    // Link is dead: behave like carrier loss.
                    let down = self.carrier_lost(now);
                    r.merge(down);
                } else {
                    self.missed_echoes += 1;
                    let magic = self.lcp.handler().own_magic();
                    let echo = CpPacket::new(CpCode::EchoRequest, 0, echo_payload(magic));
                    r.tx.extend(encode_frame(frame::protocol::LCP, &echo.encode()));
                    self.next_echo = Some(now + KEEPALIVE_INTERVAL);
                }
            }
        }
        r
    }

    /// Count of damaged frames seen on this session.
    pub fn frame_errors(&self) -> u64 {
        self.deframer.errors
    }

    fn absorb_lcp(&mut self, now: Instant, out: super::fsm::FsmOutput, r: &mut PppOutput) {
        for p in out.packets {
            r.tx.extend(encode_frame(frame::protocol::LCP, &p.encode()));
        }
        for s in out.signals {
            match s {
                FsmSignal::ThisLayerUp => self.lcp_up(now, r),
                FsmSignal::ThisLayerDown | FsmSignal::ThisLayerFinished => {
                    if self.was_open {
                        r.events.push(PppEvent::Down);
                        self.was_open = false;
                    }
                    let _ = self.ipcp.lower_down();
                    self.next_echo = None;
                    let next = if self.lcp.state() == super::fsm::FsmState::Closed
                        || self.lcp.state() == super::fsm::FsmState::Stopped
                    {
                        PppPhase::Dead
                    } else {
                        PppPhase::Terminating
                    };
                    self.enter_phase(next);
                }
            }
        }
    }

    fn lcp_up(&mut self, now: Instant, r: &mut PppOutput) {
        let must_auth = self.lcp.handler().negotiated().must_authenticate;
        let client_creds = match &self.side {
            Side::Client { credentials } => Some(credentials.clone()),
            Side::Server => None,
        };
        match client_creds {
            Some(credentials) => {
                if must_auth {
                    self.enter_phase(PppPhase::Authenticate);
                    let creds = credentials.unwrap_or_else(|| Credentials::new("", ""));
                    let mut pap = PapMachine::client(creds);
                    for p in pap.start(now) {
                        r.tx.extend(encode_frame(frame::protocol::PAP, &p.encode()));
                    }
                    self.pap = Some(pap);
                } else {
                    self.enter_network(now, r);
                }
            }
            None => {
                if self.pap.is_some() {
                    self.enter_phase(PppPhase::Authenticate);
                    if let Some(p) = self.pap.as_mut() {
                        let _ = p.start(now);
                    }
                } else {
                    self.enter_network(now, r);
                }
            }
        }
    }

    fn after_pap(&mut self, now: Instant, r: &mut PppOutput) {
        let Some(pap) = self.pap.as_ref() else { return };
        match pap.state() {
            PapState::Acked if self.phase == PppPhase::Authenticate => {
                self.enter_network(now, r);
            }
            PapState::Failed if self.phase == PppPhase::Authenticate => {
                r.events.push(PppEvent::AuthFailed);
                let out = self.lcp.close(now);
                self.absorb_lcp(now, out, r);
                self.enter_phase(PppPhase::Terminating);
            }
            _ => {}
        }
    }

    fn enter_network(&mut self, now: Instant, r: &mut PppOutput) {
        self.enter_phase(PppPhase::Network);
        let out = self.ipcp.open(now);
        self.absorb_ipcp(now, out, r);
    }

    fn absorb_ipcp(&mut self, now: Instant, out: super::fsm::FsmOutput, r: &mut PppOutput) {
        for p in out.packets {
            r.tx.extend(encode_frame(frame::protocol::IPCP, &p.encode()));
        }
        for s in out.signals {
            match s {
                FsmSignal::ThisLayerUp => {
                    self.enter_phase(PppPhase::Open);
                    self.was_open = true;
                    self.missed_echoes = 0;
                    self.next_echo = Some(now + KEEPALIVE_INTERVAL);
                    let local = self.ipcp.handler().local_addr();
                    let peer = self.ipcp.handler().peer_addr().unwrap_or(Ipv4Address::UNSPECIFIED);
                    r.events.push(PppEvent::Up { local, peer });
                }
                FsmSignal::ThisLayerDown | FsmSignal::ThisLayerFinished => {
                    if self.phase == PppPhase::Open {
                        self.enter_phase(PppPhase::Network);
                        if self.was_open {
                            r.events.push(PppEvent::Down);
                            self.was_open = false;
                        }
                        self.next_echo = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn server_config(require_pap: bool) -> PppServerConfig {
        PppServerConfig {
            own_addr: a("10.64.0.1"),
            assign_peer: a("10.64.3.7"),
            dns: [a("10.64.0.53"), a("10.64.0.54")],
            require_pap,
            expected_credentials: if require_pap {
                Some(Credentials::new("web", "web"))
            } else {
                None
            },
        }
    }

    /// Shuttles bytes between the two endpoints until quiescent.
    fn pump(
        client: &mut PppEndpoint,
        server: &mut PppEndpoint,
        now: Instant,
    ) -> (PppOutput, PppOutput) {
        let mut client_acc = PppOutput::default();
        let mut server_acc = PppOutput::default();
        let mut to_server: Vec<u8> = Vec::new();
        let mut to_client: Vec<u8> = Vec::new();
        for _ in 0..50 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            let bytes = std::mem::take(&mut to_server);
            if !bytes.is_empty() {
                let out = server.input_bytes(now, &bytes);
                to_client.extend(out.tx.iter());
                server_acc.events.extend(out.events.clone());
                server_acc.rx_ipv4.extend(out.rx_ipv4.clone());
            }
            let bytes = std::mem::take(&mut to_client);
            if !bytes.is_empty() {
                let out = client.input_bytes(now, &bytes);
                to_server.extend(out.tx.iter());
                client_acc.events.extend(out.events.clone());
                client_acc.rx_ipv4.extend(out.rx_ipv4.clone());
            }
        }
        (client_acc, server_acc)
    }

    fn bring_up(require_pap: bool) -> (PppEndpoint, PppEndpoint, PppOutput, PppOutput) {
        let mut client =
            PppEndpoint::client(0x1234_5678, Some(Credentials::new("web", "web")), true);
        let mut server = PppEndpoint::server(0x8765_4321, server_config(require_pap));
        let now = Instant::ZERO;
        let c0 = client.start(now);
        let s0 = server.start(now);
        // Exchange initial volleys.
        let mut to_server = c0.tx;
        let mut to_client = s0.tx;
        let mut client_acc = PppOutput::default();
        let mut server_acc = PppOutput::default();
        for _ in 0..50 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            let out = server.input_bytes(now, &std::mem::take(&mut to_server));
            to_client.extend(out.tx);
            server_acc.events.extend(out.events);
            let out = client.input_bytes(now, &std::mem::take(&mut to_client));
            to_server.extend(out.tx);
            client_acc.events.extend(out.events);
        }
        (client, server, client_acc, server_acc)
    }

    #[test]
    fn session_opens_without_auth() {
        let (client, server, c_ev, s_ev) = bring_up(false);
        assert!(client.is_open(), "client phase: {:?}", client.phase());
        assert!(server.is_open(), "server phase: {:?}", server.phase());
        assert!(c_ev.events.iter().any(|e| matches!(
            e,
            PppEvent::Up { local, peer }
                if *local == a("10.64.3.7") && *peer == a("10.64.0.1")
        )));
        assert!(s_ev.events.iter().any(|e| matches!(e, PppEvent::Up { .. })));
        assert_eq!(client.local_addr(), Some(a("10.64.3.7")));
        assert_eq!(client.peer_addr(), Some(a("10.64.0.1")));
    }

    #[test]
    fn session_opens_with_pap() {
        let (client, server, c_ev, _s_ev) = bring_up(true);
        assert!(client.is_open());
        assert!(server.is_open());
        assert!(c_ev.events.iter().any(|e| matches!(e, PppEvent::Up { .. })));
        assert_eq!(client.dns_servers(), [Some(a("10.64.0.53")), Some(a("10.64.0.54"))]);
    }

    #[test]
    fn bad_credentials_fail_auth() {
        let mut client = PppEndpoint::client(1, Some(Credentials::new("bad", "creds")), false);
        let mut server = PppEndpoint::server(2, server_config(true));
        let now = Instant::ZERO;
        let c0 = client.start(now);
        let s0 = server.start(now);
        let mut to_server = c0.tx;
        let mut to_client = s0.tx;
        let mut client_events = Vec::new();
        for _ in 0..50 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            let out = server.input_bytes(now, &std::mem::take(&mut to_server));
            to_client.extend(out.tx);
            let out = client.input_bytes(now, &std::mem::take(&mut to_client));
            to_server.extend(out.tx);
            client_events.extend(out.events);
        }
        assert!(client_events.contains(&PppEvent::AuthFailed));
        assert!(!client.is_open());
    }

    #[test]
    fn ip_flows_end_to_end_when_open() {
        let (mut client, mut server, _, _) = bring_up(false);
        let ip_packet = vec![0x45, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        let mut framed = Vec::new();
        assert!(client.send_ipv4_into(&ip_packet, &mut framed), "session open");
        let out = server.input_bytes(Instant::from_secs(1), &framed);
        assert_eq!(out.rx_ipv4, vec![ip_packet.clone()]);
        // And the reverse direction, into the same buffer.
        assert!(server.send_ipv4_into(&ip_packet, &mut framed));
        let out = client.input_bytes(Instant::from_secs(1), &framed);
        assert_eq!(out.rx_ipv4.len(), 1);
    }

    #[test]
    fn ip_rejected_when_not_open() {
        let mut client = PppEndpoint::client(1, None, false);
        let mut framed = vec![1, 2, 3];
        assert!(!client.send_ipv4_into(&[0u8; 20], &mut framed));
        assert_eq!(framed, [1, 2, 3], "nothing is framed");
        // Bytes arriving before open are not delivered as IP.
        let framed = encode_frame(frame::protocol::IPV4, &[0u8; 20]);
        let out = client.input_bytes(Instant::ZERO, &framed);
        assert!(out.rx_ipv4.is_empty());
    }

    #[test]
    fn administrative_close_brings_both_down() {
        let (mut client, mut server, _, _) = bring_up(false);
        let now = Instant::from_secs(5);
        let out = client.close(now);
        assert!(out.events.contains(&PppEvent::Down));
        let out_s = server.input_bytes(now, &out.tx);
        assert!(out_s.events.contains(&PppEvent::Down));
        assert!(!server.is_open());
        // Terminate-Ack flows back and the client reaches Dead.
        let out_c = client.input_bytes(now, &out_s.tx);
        let _ = out_c;
        assert_eq!(client.phase(), PppPhase::Dead);
    }

    #[test]
    fn carrier_loss_resets_immediately() {
        let (mut client, _server, _, _) = bring_up(false);
        let out = client.carrier_lost(Instant::from_secs(9));
        assert!(out.events.contains(&PppEvent::Down));
        assert_eq!(client.phase(), PppPhase::Dead);
        assert!(client.next_timeout().is_none());
    }

    #[test]
    fn keepalive_echoes_flow_and_reset_miss_counter() {
        let (mut client, mut server, _, _) = bring_up(false);
        let t = client.next_timeout().expect("echo timer armed");
        let out = client.on_timeout(t);
        assert!(!out.tx.is_empty(), "echo request sent");
        // Server replies to the echo.
        let reply = server.input_bytes(t, &out.tx);
        assert!(!reply.tx.is_empty(), "echo reply sent");
        let _ = client.input_bytes(t, &reply.tx);
        assert_eq!(client.missed_echoes, 0);
        assert!(client.is_open());
    }

    #[test]
    fn missed_keepalives_kill_the_session() {
        let (mut client, _server, _, _) = bring_up(false);
        let mut events = Vec::new();
        let mut guard = 0;
        while client.is_open() && guard < 20 {
            guard += 1;
            let Some(t) = client.next_timeout() else { break };
            let out = client.on_timeout(t);
            events.extend(out.events);
        }
        assert!(events.contains(&PppEvent::Down));
        assert_eq!(client.phase(), PppPhase::Dead);
    }

    #[test]
    fn corrupted_bytes_are_counted_and_ignored() {
        let (mut client, mut server, _, _) = bring_up(false);
        let mut framed = Vec::new();
        assert!(client.send_ipv4_into(&[0x45u8; 24], &mut framed));
        let mid = framed.len() / 2;
        framed[mid] ^= 0x44;
        if framed[mid] == 0x7E || framed[mid] == 0x7D {
            framed[mid] ^= 0x0F;
        }
        let out = server.input_bytes(Instant::from_secs(1), &framed);
        assert!(out.rx_ipv4.is_empty());
        assert_eq!(server.frame_errors(), 1);
        assert!(server.is_open(), "a damaged frame must not kill the session");
    }

    #[test]
    fn pump_helper_is_quiescent_after_open() {
        let (mut client, mut server, _, _) = bring_up(false);
        let (c, s) = pump(&mut client, &mut server, Instant::from_secs(2));
        assert!(c.events.is_empty());
        assert!(s.events.is_empty());
    }
}
