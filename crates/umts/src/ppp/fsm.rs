//! The control-protocol option-negotiation automaton (RFC 1661 §4).
//!
//! One [`CpFsm`] instance drives one control protocol (LCP or IPCP) on one
//! end of the link. Protocol-specific behaviour — which options to request,
//! how to judge the peer's — is delegated to an [`OptionHandler`]. The
//! automaton implements the common negotiation core: Configure-Request /
//! Ack / Nak / Reject exchange, the restart timer with Max-Configure
//! give-up, Terminate handshake, and the this-layer-up/down signalling the
//! upper phase machine consumes.
//!
//! The state set is the RFC's, minus the passive-open states this stack
//! never enters (both ends actively open): `Closed`, `ReqSent`, `AckRcvd`,
//! `AckSent`, `Opened`, `Closing`, `Stopped`.

use umtslab_sim::time::{Duration, Instant};

use super::frame::{decode_options, encode_options, CpCode, CpOption, CpPacket};

/// Negotiation states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmState {
    /// Lower layer down or administratively closed.
    Closed,
    /// Our Configure-Request is out; nothing heard yet.
    ReqSent,
    /// Peer acked our request; waiting to ack theirs.
    AckRcvd,
    /// We acked the peer's request; ours not acked yet.
    AckSent,
    /// Both directions agreed: the layer is up.
    Opened,
    /// Terminate-Request sent, waiting for the Ack.
    Closing,
    /// Negotiation failed (Max-Configure exceeded or terminated by peer).
    Stopped,
}

/// How the handler judges a peer's Configure-Request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerJudgement {
    /// All options acceptable as-is.
    Ack,
    /// Recognized options with unacceptable values; the payload carries
    /// the values we would accept.
    Nak(Vec<CpOption>),
    /// Options we refuse to negotiate at all.
    Rej(Vec<CpOption>),
}

/// Protocol-specific policy plugged into the FSM.
pub trait OptionHandler {
    /// The options to put in our next Configure-Request.
    fn request_options(&mut self) -> Vec<CpOption>;

    /// Judges the peer's Configure-Request options.
    fn judge(&mut self, options: &[CpOption]) -> PeerJudgement;

    /// Called when we Configure-Ack the peer's options (they are now in
    /// force for the peer→us direction).
    fn peer_options_applied(&mut self, options: &[CpOption]);

    /// Called when the peer acks our options.
    fn own_options_acked(&mut self, options: &[CpOption]);

    /// Called when the peer naks some of our options with suggested
    /// values; the handler should adjust its next request.
    fn own_options_naked(&mut self, options: &[CpOption]);

    /// Called when the peer rejects some of our options outright; the
    /// handler must stop requesting them.
    fn own_options_rejected(&mut self, options: &[CpOption]);
}

/// Layer signals emitted toward the phase machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmSignal {
    /// Negotiation completed: the layer is operational.
    ThisLayerUp,
    /// The layer left Opened.
    ThisLayerDown,
    /// Negotiation gave up or the terminate handshake finished.
    ThisLayerFinished,
}

/// Packets to transmit plus signals raised by one FSM step.
#[derive(Debug, Default)]
pub struct FsmOutput {
    /// Control packets to send to the peer.
    pub packets: Vec<CpPacket>,
    /// Layer signals.
    pub signals: Vec<FsmSignal>,
}

impl FsmOutput {
    fn none() -> FsmOutput {
        FsmOutput::default()
    }
}

/// Timing/retry parameters (RFC 1661 defaults).
#[derive(Debug, Clone)]
pub struct FsmConfig {
    /// Restart-timer interval.
    pub restart_interval: Duration,
    /// Max-Configure: Configure-Request transmissions before giving up.
    pub max_configure: u32,
    /// Max-Terminate: Terminate-Request transmissions before giving up.
    pub max_terminate: u32,
}

impl Default for FsmConfig {
    fn default() -> Self {
        FsmConfig { restart_interval: Duration::from_secs(3), max_configure: 10, max_terminate: 2 }
    }
}

/// The negotiation automaton.
#[derive(Debug)]
pub struct CpFsm<H: OptionHandler> {
    handler: H,
    state: FsmState,
    config: FsmConfig,
    next_id: u8,
    /// Id of our outstanding Configure-Request.
    req_id: u8,
    restart_deadline: Option<Instant>,
    restart_count: u32,
}

impl<H: OptionHandler> CpFsm<H> {
    /// Creates a closed FSM around a handler.
    pub fn new(handler: H, config: FsmConfig) -> CpFsm<H> {
        CpFsm {
            handler,
            state: FsmState::Closed,
            config,
            next_id: 1,
            req_id: 0,
            restart_deadline: None,
            restart_count: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// True once negotiation has completed.
    pub fn is_open(&self) -> bool {
        self.state == FsmState::Opened
    }

    /// Access to the protocol handler (to read negotiated values).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// The next restart-timer expiry, if one is armed.
    pub fn next_timeout(&self) -> Option<Instant> {
        self.restart_deadline
    }

    /// Administratively opens the layer (lower layer assumed up): sends
    /// the first Configure-Request.
    pub fn open(&mut self, now: Instant) -> FsmOutput {
        match self.state {
            FsmState::Closed | FsmState::Stopped => {
                self.restart_count = 0;
                let req = self.build_request();
                self.state = FsmState::ReqSent;
                self.arm_timer(now);
                FsmOutput { packets: vec![req], signals: vec![] }
            }
            _ => FsmOutput::none(),
        }
    }

    /// Administratively closes the layer: starts the terminate handshake.
    pub fn close(&mut self, now: Instant) -> FsmOutput {
        match self.state {
            FsmState::Opened | FsmState::ReqSent | FsmState::AckRcvd | FsmState::AckSent => {
                let was_open = self.state == FsmState::Opened;
                self.state = FsmState::Closing;
                self.restart_count = 0;
                self.arm_timer(now);
                let term = CpPacket::new(CpCode::TerminateRequest, self.allocate_id(), vec![]);
                let mut signals = vec![];
                if was_open {
                    signals.push(FsmSignal::ThisLayerDown);
                }
                FsmOutput { packets: vec![term], signals }
            }
            _ => FsmOutput::none(),
        }
    }

    /// The lower layer dropped (carrier loss): hard reset.
    pub fn lower_down(&mut self) -> FsmOutput {
        let was_open = self.state == FsmState::Opened;
        self.state = FsmState::Closed;
        self.restart_deadline = None;
        let mut signals = vec![];
        if was_open {
            signals.push(FsmSignal::ThisLayerDown);
        }
        FsmOutput { packets: vec![], signals }
    }

    /// Handles the restart timer.
    pub fn on_timeout(&mut self, now: Instant) -> FsmOutput {
        let Some(deadline) = self.restart_deadline else {
            return FsmOutput::none();
        };
        if now < deadline {
            return FsmOutput::none();
        }
        match self.state {
            FsmState::ReqSent | FsmState::AckRcvd | FsmState::AckSent => {
                if self.restart_count >= self.config.max_configure {
                    self.state = FsmState::Stopped;
                    self.restart_deadline = None;
                    return FsmOutput {
                        packets: vec![],
                        signals: vec![FsmSignal::ThisLayerFinished],
                    };
                }
                // TO+: retransmit Configure-Request.
                let req = self.build_request();
                if self.state == FsmState::AckRcvd {
                    // Per RFC, AckRcvd falls back to ReqSent on timeout.
                    self.state = FsmState::ReqSent;
                }
                self.arm_timer(now);
                FsmOutput { packets: vec![req], signals: vec![] }
            }
            FsmState::Closing => {
                if self.restart_count >= self.config.max_terminate {
                    self.state = FsmState::Stopped;
                    self.restart_deadline = None;
                    return FsmOutput {
                        packets: vec![],
                        signals: vec![FsmSignal::ThisLayerFinished],
                    };
                }
                self.restart_count += 1;
                self.restart_deadline = Some(now + self.config.restart_interval);
                let term = CpPacket::new(CpCode::TerminateRequest, self.allocate_id(), vec![]);
                FsmOutput { packets: vec![term], signals: vec![] }
            }
            _ => {
                self.restart_deadline = None;
                FsmOutput::none()
            }
        }
    }

    /// Processes a received control packet.
    pub fn input(&mut self, now: Instant, packet: &CpPacket) -> FsmOutput {
        match packet.code {
            CpCode::ConfigureRequest => self.rcv_configure_request(now, packet),
            CpCode::ConfigureAck => self.rcv_configure_ack(now, packet),
            CpCode::ConfigureNak | CpCode::ConfigureReject => {
                self.rcv_configure_nak_rej(now, packet)
            }
            CpCode::TerminateRequest => self.rcv_terminate_request(packet),
            CpCode::TerminateAck => self.rcv_terminate_ack(),
            CpCode::EchoRequest => {
                // Reply only when open, per RFC 1661 §5.8.
                if self.state == FsmState::Opened {
                    FsmOutput {
                        packets: vec![CpPacket::new(
                            CpCode::EchoReply,
                            packet.id,
                            packet.data.clone(),
                        )],
                        signals: vec![],
                    }
                } else {
                    FsmOutput::none()
                }
            }
            CpCode::EchoReply | CpCode::CodeReject => FsmOutput::none(),
            CpCode::Other(_) => FsmOutput {
                packets: vec![CpPacket::new(
                    CpCode::CodeReject,
                    self.allocate_id(),
                    packet.encode(),
                )],
                signals: vec![],
            },
        }
    }

    fn rcv_configure_request(&mut self, now: Instant, packet: &CpPacket) -> FsmOutput {
        let Some(options) = decode_options(&packet.data) else {
            return FsmOutput::none(); // structurally damaged: silently discard
        };
        if matches!(self.state, FsmState::Closed | FsmState::Stopped | FsmState::Closing) {
            if self.state == FsmState::Closed {
                // RFC: send Terminate-Ack in Closed.
                return FsmOutput {
                    packets: vec![CpPacket::new(CpCode::TerminateAck, packet.id, vec![])],
                    signals: vec![],
                };
            }
            return FsmOutput::none();
        }
        let mut out = FsmOutput::none();
        match self.handler.judge(&options) {
            PeerJudgement::Ack => {
                self.handler.peer_options_applied(&options);
                out.packets.push(CpPacket::new(
                    CpCode::ConfigureAck,
                    packet.id,
                    packet.data.clone(),
                ));
                match self.state {
                    FsmState::ReqSent => self.state = FsmState::AckSent,
                    FsmState::AckRcvd => {
                        self.state = FsmState::Opened;
                        self.restart_deadline = None;
                        out.signals.push(FsmSignal::ThisLayerUp);
                    }
                    FsmState::AckSent => {}
                    FsmState::Opened => {
                        // Renegotiation: go down, ack theirs, resend ours.
                        out.signals.push(FsmSignal::ThisLayerDown);
                        let req = self.build_request();
                        out.packets.push(req);
                        self.state = FsmState::AckSent;
                        self.arm_timer(now);
                    }
                    _ => {}
                }
            }
            PeerJudgement::Nak(suggested) => {
                out.packets.push(CpPacket::new(
                    CpCode::ConfigureNak,
                    packet.id,
                    encode_options(&suggested),
                ));
                if self.state == FsmState::AckSent {
                    self.state = FsmState::ReqSent;
                }
            }
            PeerJudgement::Rej(bad) => {
                out.packets.push(CpPacket::new(
                    CpCode::ConfigureReject,
                    packet.id,
                    encode_options(&bad),
                ));
                if self.state == FsmState::AckSent {
                    self.state = FsmState::ReqSent;
                }
            }
        }
        out
    }

    fn rcv_configure_ack(&mut self, now: Instant, packet: &CpPacket) -> FsmOutput {
        if packet.id != self.req_id {
            return FsmOutput::none(); // stale ack
        }
        let options = decode_options(&packet.data).unwrap_or_default();
        self.handler.own_options_acked(&options);
        let mut out = FsmOutput::none();
        match self.state {
            FsmState::ReqSent => {
                self.state = FsmState::AckRcvd;
                self.restart_count = 0;
                self.arm_timer(now);
            }
            FsmState::AckSent => {
                self.state = FsmState::Opened;
                self.restart_deadline = None;
                out.signals.push(FsmSignal::ThisLayerUp);
            }
            FsmState::AckRcvd | FsmState::Opened => { /* duplicate: ignore */ }
            _ => {}
        }
        out
    }

    fn rcv_configure_nak_rej(&mut self, now: Instant, packet: &CpPacket) -> FsmOutput {
        if packet.id != self.req_id {
            return FsmOutput::none();
        }
        let options = decode_options(&packet.data).unwrap_or_default();
        match packet.code {
            CpCode::ConfigureNak => self.handler.own_options_naked(&options),
            _ => self.handler.own_options_rejected(&options),
        }
        match self.state {
            FsmState::ReqSent | FsmState::AckRcvd | FsmState::AckSent => {
                let req = self.build_request();
                if self.state == FsmState::AckRcvd {
                    self.state = FsmState::ReqSent;
                }
                self.arm_timer(now);
                FsmOutput { packets: vec![req], signals: vec![] }
            }
            _ => FsmOutput::none(),
        }
    }

    fn rcv_terminate_request(&mut self, packet: &CpPacket) -> FsmOutput {
        let mut out = FsmOutput {
            packets: vec![CpPacket::new(CpCode::TerminateAck, packet.id, vec![])],
            signals: vec![],
        };
        if self.state == FsmState::Opened {
            out.signals.push(FsmSignal::ThisLayerDown);
        }
        if self.state != FsmState::Closed && self.state != FsmState::Closing {
            self.state = FsmState::Stopped;
            self.restart_deadline = None;
            out.signals.push(FsmSignal::ThisLayerFinished);
        }
        out
    }

    fn rcv_terminate_ack(&mut self) -> FsmOutput {
        match self.state {
            FsmState::Closing => {
                self.state = FsmState::Closed;
                self.restart_deadline = None;
                FsmOutput { packets: vec![], signals: vec![FsmSignal::ThisLayerFinished] }
            }
            FsmState::Opened => {
                // Peer unilaterally tore down.
                self.state = FsmState::Stopped;
                self.restart_deadline = None;
                FsmOutput {
                    packets: vec![],
                    signals: vec![FsmSignal::ThisLayerDown, FsmSignal::ThisLayerFinished],
                }
            }
            _ => FsmOutput::none(),
        }
    }

    fn build_request(&mut self) -> CpPacket {
        self.restart_count += 1;
        let id = self.allocate_id();
        self.req_id = id;
        let options = self.handler.request_options();
        CpPacket::new(CpCode::ConfigureRequest, id, encode_options(&options))
    }

    fn allocate_id(&mut self) -> u8 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if self.next_id == 0 {
            self.next_id = 1;
        }
        id
    }

    fn arm_timer(&mut self, now: Instant) {
        self.restart_deadline = Some(now + self.config.restart_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler that requests a fixed option and accepts anything.
    #[derive(Debug, Default)]
    struct Accepting {
        acked: bool,
        peer_applied: bool,
    }

    impl OptionHandler for Accepting {
        fn request_options(&mut self) -> Vec<CpOption> {
            vec![CpOption::u16(1, 1500)]
        }
        fn judge(&mut self, _: &[CpOption]) -> PeerJudgement {
            PeerJudgement::Ack
        }
        fn peer_options_applied(&mut self, _: &[CpOption]) {
            self.peer_applied = true;
        }
        fn own_options_acked(&mut self, _: &[CpOption]) {
            self.acked = true;
        }
        fn own_options_naked(&mut self, _: &[CpOption]) {}
        fn own_options_rejected(&mut self, _: &[CpOption]) {}
    }

    /// A handler that naks the first request, then accepts.
    #[derive(Debug, Default)]
    struct NakOnce {
        naks_sent: u32,
        got_nak_value: Option<u16>,
        mru: u16,
    }

    impl OptionHandler for NakOnce {
        fn request_options(&mut self) -> Vec<CpOption> {
            vec![CpOption::u16(1, if self.mru == 0 { 9999 } else { self.mru })]
        }
        fn judge(&mut self, opts: &[CpOption]) -> PeerJudgement {
            let mru =
                opts.iter().find(|o| o.kind == 1).and_then(super::super::frame::CpOption::as_u16);
            if mru == Some(9999) {
                self.naks_sent += 1;
                PeerJudgement::Nak(vec![CpOption::u16(1, 1500)])
            } else {
                PeerJudgement::Ack
            }
        }
        fn peer_options_applied(&mut self, _: &[CpOption]) {}
        fn own_options_acked(&mut self, _: &[CpOption]) {}
        fn own_options_naked(&mut self, opts: &[CpOption]) {
            if let Some(v) =
                opts.iter().find(|o| o.kind == 1).and_then(super::super::frame::CpOption::as_u16)
            {
                self.got_nak_value = Some(v);
                self.mru = v;
            }
        }
        fn own_options_rejected(&mut self, _: &[CpOption]) {}
    }

    /// Runs both FSMs to quiescence over a lossless in-order channel with
    /// `loss` applied to every packet index in `drop_set` (for loss tests).
    fn converge<HA: OptionHandler, HB: OptionHandler>(
        a: &mut CpFsm<HA>,
        b: &mut CpFsm<HB>,
        horizon_secs: u64,
    ) -> (Vec<FsmSignal>, Vec<FsmSignal>) {
        let mut sig_a = Vec::new();
        let mut sig_b = Vec::new();
        let mut to_b: Vec<CpPacket> = Vec::new();
        let mut to_a: Vec<CpPacket> = Vec::new();

        let out = a.open(Instant::ZERO);
        to_b.extend(out.packets);
        sig_a.extend(out.signals);
        let out = b.open(Instant::ZERO);
        to_a.extend(out.packets);
        sig_b.extend(out.signals);

        let mut now = Instant::ZERO;
        let horizon = Instant::from_secs(horizon_secs);
        while now < horizon {
            let mut progressed = false;
            for p in std::mem::take(&mut to_b) {
                let out = b.input(now, &p);
                to_a.extend(out.packets);
                sig_b.extend(out.signals);
                progressed = true;
            }
            for p in std::mem::take(&mut to_a) {
                let out = a.input(now, &p);
                to_b.extend(out.packets);
                sig_a.extend(out.signals);
                progressed = true;
            }
            if !progressed {
                // Advance to the next timer.
                let next = [a.next_timeout(), b.next_timeout()].into_iter().flatten().min();
                match next {
                    Some(t) if t < horizon => {
                        now = t;
                        let out = a.on_timeout(now);
                        to_b.extend(out.packets);
                        sig_a.extend(out.signals);
                        let out = b.on_timeout(now);
                        to_a.extend(out.packets);
                        sig_b.extend(out.signals);
                    }
                    _ => break,
                }
            }
        }
        (sig_a, sig_b)
    }

    #[test]
    fn two_accepting_peers_open() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        let (sa, sb) = converge(&mut a, &mut b, 30);
        assert!(a.is_open());
        assert!(b.is_open());
        assert!(sa.contains(&FsmSignal::ThisLayerUp));
        assert!(sb.contains(&FsmSignal::ThisLayerUp));
        assert!(a.handler().acked);
        assert!(a.handler().peer_applied);
    }

    #[test]
    fn nak_flow_converges_with_suggested_value() {
        let mut a = CpFsm::new(NakOnce::default(), FsmConfig::default());
        let mut b = CpFsm::new(NakOnce::default(), FsmConfig::default());
        let (_, _) = converge(&mut a, &mut b, 30);
        assert!(a.is_open() && b.is_open());
        assert_eq!(a.handler().got_nak_value, Some(1500));
        assert_eq!(b.handler().got_nak_value, Some(1500));
    }

    #[test]
    fn lost_request_is_retransmitted() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        // Drop A's first request on the floor; B never opens it.
        let _lost = a.open(Instant::ZERO);
        let out_b = b.open(Instant::ZERO);
        // B's request reaches A fine.
        let mut to_b = Vec::new();
        let mut now = Instant::ZERO;
        for p in out_b.packets {
            to_b.extend(a.input(now, &p).packets);
        }
        // Deliver A's ack to B; B is AckSent... wait for A's retransmit.
        for p in std::mem::take(&mut to_b) {
            let _ = b.input(now, &p);
        }
        assert!(!b.is_open());
        // Fire A's restart timer: it resends the request.
        now = a.next_timeout().unwrap();
        let retx = a.on_timeout(now);
        assert_eq!(retx.packets.len(), 1);
        let ack = b.input(now, &retx.packets[0]);
        assert!(b.is_open(), "B opens on acking A's retransmitted request");
        // And A opens when the ack arrives.
        let out = a.input(now, &ack.packets[0]);
        assert!(a.is_open());
        assert!(out.signals.contains(&FsmSignal::ThisLayerUp));
    }

    #[test]
    fn gives_up_after_max_configure() {
        let cfg = FsmConfig { max_configure: 3, ..FsmConfig::default() };
        let mut a = CpFsm::new(Accepting::default(), cfg);
        let _ = a.open(Instant::ZERO);
        #[allow(unused_assignments)]
        let mut now = Instant::ZERO;
        let mut finished = false;
        for _ in 0..10 {
            let Some(t) = a.next_timeout() else { break };
            now = t;
            let out = a.on_timeout(now);
            if out.signals.contains(&FsmSignal::ThisLayerFinished) {
                finished = true;
                break;
            }
        }
        assert!(finished);
        assert_eq!(a.state(), FsmState::Stopped);
    }

    #[test]
    fn terminate_handshake() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        converge(&mut a, &mut b, 30);
        assert!(a.is_open() && b.is_open());

        let now = Instant::from_secs(40);
        let out = a.close(now);
        assert!(out.signals.contains(&FsmSignal::ThisLayerDown));
        assert_eq!(a.state(), FsmState::Closing);
        let term_req = &out.packets[0];
        let out_b = b.input(now, term_req);
        assert!(out_b.signals.contains(&FsmSignal::ThisLayerDown));
        assert_eq!(b.state(), FsmState::Stopped);
        let out_a = a.input(now, &out_b.packets[0]);
        assert_eq!(a.state(), FsmState::Closed);
        assert!(out_a.signals.contains(&FsmSignal::ThisLayerFinished));
    }

    #[test]
    fn terminate_request_retransmits_then_gives_up() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        converge(&mut a, &mut b, 30);
        let mut now = Instant::from_secs(40);
        let _ = a.close(now); // term-req lost
        let mut finishes = 0;
        for _ in 0..5 {
            let Some(t) = a.next_timeout() else { break };
            now = t;
            let out = a.on_timeout(now);
            if out.signals.contains(&FsmSignal::ThisLayerFinished) {
                finishes += 1;
            }
        }
        assert_eq!(finishes, 1);
        assert_eq!(a.state(), FsmState::Stopped);
    }

    #[test]
    fn echo_request_answered_only_when_open() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let echo = CpPacket::new(CpCode::EchoRequest, 5, vec![0, 0, 0, 0]);
        // Closed: no reply.
        assert!(a.input(Instant::ZERO, &echo).packets.is_empty());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        converge(&mut a, &mut b, 30);
        let out = a.input(Instant::from_secs(31), &echo);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].code, CpCode::EchoReply);
        assert_eq!(out.packets[0].id, 5);
    }

    #[test]
    fn unknown_code_is_code_rejected() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let weird = CpPacket::new(CpCode::Other(42), 1, vec![]);
        let out = a.input(Instant::ZERO, &weird);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].code, CpCode::CodeReject);
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let out = a.open(Instant::ZERO);
        let req_id = out.packets[0].id;
        let stale = CpPacket::new(CpCode::ConfigureAck, req_id.wrapping_add(7), vec![]);
        let out = a.input(Instant::ZERO, &stale);
        assert!(out.packets.is_empty() && out.signals.is_empty());
        assert_eq!(a.state(), FsmState::ReqSent);
    }

    #[test]
    fn lower_down_resets_to_closed() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let mut b = CpFsm::new(Accepting::default(), FsmConfig::default());
        converge(&mut a, &mut b, 30);
        let out = a.lower_down();
        assert!(out.signals.contains(&FsmSignal::ThisLayerDown));
        assert_eq!(a.state(), FsmState::Closed);
        assert!(a.next_timeout().is_none());
    }

    #[test]
    fn configure_request_in_closed_gets_terminate_ack() {
        let mut a = CpFsm::new(Accepting::default(), FsmConfig::default());
        let req = CpPacket::new(CpCode::ConfigureRequest, 9, vec![]);
        let out = a.input(Instant::ZERO, &req);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].code, CpCode::TerminateAck);
    }
}
