//! The complete UMTS attachment: card, dialer, PPP session and radio path.
//!
//! [`UmtsAttachment`] packages everything between the PlanetLab node's
//! `ppp0` interface and the operator's internet edge:
//!
//! ```text
//!  node          serial        modem        radio          operator core
//!  dialer  <---- tty ---->  AT machine  ~~ signaling ~~>  GGSN PPP server
//!  pppd    <---- tty ---->  data mode   ~~ bearers   ~~>  conntrack -> internet
//! ```
//!
//! The *dialer* replays the `comgt` + `wvdial` workflow over the serial
//! line: probe the card, wait for registration, set the APN, dial, and on
//! `CONNECT` hand the line to the PPP client. PPP negotiation bytes travel
//! over a fixed-latency signaling channel to the GGSN-side PPP server.
//! Once IPCP completes, the data plane flows through the RRC-granted
//! bearers with their queueing, jitter and loss — and every data packet
//! the uplink buffer admits really is serialized to IPv4+UDP bytes,
//! PPP-framed, deframed and checksum-validated on the far side. A packet
//! the full buffer drops is refused before any of that byte work.

use std::collections::VecDeque;

use umtslab_net::packet::Packet;
use umtslab_net::wire::Ipv4Address;
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

use crate::at::{DeviceProfile, Modem, ModemMode, ModemOutput};
use crate::bearer::{BearerStats, UmtsBearer};
use crate::operator::{AddressPool, Conntrack, OperatorProfile};
use crate::ppp::{Credentials, Deframer, PppEndpoint, PppEvent, PppPhase, PppServerConfig};
use crate::rrc::{RrcController, RrcState};
use crate::serial::{LineAssembler, SerialLine};

/// Why a connection attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DialError {
    /// The SIM demands a PIN.
    SimLocked,
    /// Registration was denied by the network.
    RegistrationDenied,
    /// Registration did not complete in time.
    RegistrationTimeout,
    /// The data call was refused (`NO CARRIER`).
    NoCarrier,
    /// PAP authentication failed.
    AuthFailed,
    /// PPP negotiation did not complete in time.
    PppTimeout,
}

/// Connection lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UmtsEvent {
    /// The session is up with the negotiated addresses.
    Connected {
        /// Address assigned to the node (`ppp0` local).
        local: Ipv4Address,
        /// The GGSN-side peer address.
        peer: Ipv4Address,
    },
    /// The connection attempt failed.
    Failed(DialError),
    /// An established session went down.
    Disconnected,
}

/// A session-level fault injected against the live UMTS stack.
///
/// These are the failure modes the paper's management scripts
/// (`umts start`/`umts stop`, pppd supervision, AT watchdogs) exist to
/// survive. They attack the *session* — modem firmware, AT dialogue,
/// authentication, PPP, radio resource control — and are orthogonal to
/// the packet-level faults (`umtslab-net`'s loss/corruption models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFault {
    /// The modem firmware hard-hangs: it eats every byte and emits
    /// nothing until power-cycled with [`UmtsAttachment::reset_modem`].
    ModemHang,
    /// The next AT command is silently lost on the serial bus; the
    /// dialer's stage deadline is its only recourse.
    AtTimeout,
    /// The GGSN rejects PAP authentication on the *next* dial attempt
    /// (transient RADIUS failure); the attempt after that succeeds.
    PapReject,
    /// The network terminates the PPP session with a real LCP
    /// Terminate-Request (the classic `pppd` "Modem hangup" log line).
    PppTerminate,
    /// The RNC releases the RRC connection to Idle; traffic must pay a
    /// full promotion before anything flows again.
    RrcRelease,
    /// A higher-priority user preempts the dedicated bearer: queued
    /// packets are lost and the grant steps down one level.
    BearerPreemption,
    /// The operator detaches the subscriber (coverage loss): the data
    /// call drops and registration starts over.
    OperatorDetach,
}

impl SessionFault {
    /// Every fault kind, in declaration order.
    pub const ALL: [SessionFault; 7] = [
        SessionFault::ModemHang,
        SessionFault::AtTimeout,
        SessionFault::PapReject,
        SessionFault::PppTerminate,
        SessionFault::RrcRelease,
        SessionFault::BearerPreemption,
        SessionFault::OperatorDetach,
    ];

    /// Stable snake_case registry key, as used by declarative experiment
    /// packs (`umtslab-pack`) to name faults in a campaign mix.
    pub fn key(self) -> &'static str {
        match self {
            SessionFault::ModemHang => "modem_hang",
            SessionFault::AtTimeout => "at_timeout",
            SessionFault::PapReject => "pap_reject",
            SessionFault::PppTerminate => "ppp_terminate",
            SessionFault::RrcRelease => "rrc_release",
            SessionFault::BearerPreemption => "bearer_preemption",
            SessionFault::OperatorDetach => "operator_detach",
        }
    }

    /// Inverse of [`SessionFault::key`].
    pub fn from_key(key: &str) -> Option<SessionFault> {
        SessionFault::ALL.into_iter().find(|f| f.key() == key)
    }
}

/// Data-plane outputs from a poll.
#[derive(Debug)]
pub enum UmtsData {
    /// A subscriber packet leaving the operator toward the internet.
    ToInternet(Packet),
    /// A packet arriving at the node on `ppp0`.
    ToHost(Packet),
}

/// Result of one [`UmtsAttachment::poll`].
#[derive(Debug, Default)]
pub struct UmtsPollOutput {
    /// Lifecycle events.
    pub events: Vec<UmtsEvent>,
    /// Packets due now.
    pub data: Vec<UmtsData>,
}

/// Outcome of offering an uplink packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkOutcome {
    /// Queued on the bearer.
    Queued,
    /// Dropped: bearer buffer overflow.
    DroppedOverflow,
    /// Rejected: the session is not connected.
    NotConnected,
}

/// Outcome of delivering a downlink packet from the internet side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownlinkOutcome {
    /// Queued on the bearer.
    Queued,
    /// Dropped by the operator firewall (no matching outbound flow).
    BlockedByFirewall,
    /// Dropped: bearer buffer overflow.
    DroppedOverflow,
    /// Rejected: the session is not connected / address mismatch.
    NotConnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DialerState {
    Idle,
    Probe,
    CheckPin,
    WaitRegistration,
    SetApn,
    Dial,
    PppNegotiating,
    Connected,
    Terminating,
    Failed,
}

/// Fixed-latency byte channel between the modem and the GGSN (the
/// signaling radio bearer carrying PPP negotiation).
#[derive(Debug)]
struct SignalingChannel {
    delay: Duration,
    to_ggsn: VecDeque<(Instant, Vec<u8>)>,
    to_host: VecDeque<(Instant, Vec<u8>)>,
}

impl SignalingChannel {
    fn new(delay: Duration) -> SignalingChannel {
        SignalingChannel { delay, to_ggsn: VecDeque::new(), to_host: VecDeque::new() }
    }

    fn push_to_ggsn(&mut self, now: Instant, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.to_ggsn.push_back((now + self.delay, bytes));
        }
    }

    fn push_to_host(&mut self, now: Instant, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.to_host.push_back((now + self.delay, bytes));
        }
    }

    fn pop_due_ggsn(&mut self, now: Instant) -> Vec<u8> {
        Self::pop_due(&mut self.to_ggsn, now)
    }

    fn pop_due_host(&mut self, now: Instant) -> Vec<u8> {
        Self::pop_due(&mut self.to_host, now)
    }

    fn pop_due(q: &mut VecDeque<(Instant, Vec<u8>)>, now: Instant) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(&(at, _)) = q.front() {
            if at <= now {
                out.extend(q.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
        out
    }

    fn next_activity(&self) -> Option<Instant> {
        let a = self.to_ggsn.front().map(|&(t, _)| t);
        let b = self.to_host.front().map(|&(t, _)| t);
        min_opt(a, b)
    }

    fn clear(&mut self) {
        self.to_ggsn.clear();
        self.to_host.clear();
    }
}

fn min_opt(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The full UMTS attachment of one node to one operator.
pub struct UmtsAttachment {
    profile: OperatorProfile,
    credentials: Option<Credentials>,
    serial: SerialLine,
    modem: Modem,
    modem_lines: LineAssembler,
    host_lines: LineAssembler,
    dialer: DialerState,
    /// Deadline for the current dialer stage.
    dialer_deadline: Option<Instant>,
    /// Next registration poll.
    reg_poll_at: Option<Instant>,
    reg_polls: u32,
    ppp_client: Option<PppEndpoint>,
    ppp_server: Option<PppEndpoint>,
    /// The GGSN's deframer for uplink data frames, reused across packets.
    ggsn_deframer: Deframer,
    /// The uplink datagram's wire bytes and its PPP frame, reused across
    /// packets so the byte path allocates only the re-validated payload.
    wire_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    signaling: SignalingChannel,
    rrc: RrcController,
    uplink: UmtsBearer,
    downlink: UmtsBearer,
    conntrack: Conntrack,
    pool: AddressPool,
    local_addr: Option<Ipv4Address>,
    peer_addr: Option<Ipv4Address>,
    pending: VecDeque<(Instant, UmtsData)>,
    rng: SimRng,
    /// One-shot: the next dial's PAP exchange is forced to fail.
    force_auth_reject: bool,
    /// Lifecycle events produced outside `poll` (fault injection),
    /// surfaced at the head of the next poll's event list.
    queued_events: Vec<UmtsEvent>,
}

/// Maximum `AT+CREG?` polls before declaring registration timeout
/// (matching `comgt`'s bounded wait).
const MAX_REG_POLLS: u32 = 40;
/// Interval between registration polls.
const REG_POLL_INTERVAL: Duration = Duration::from_millis(500);
/// Budget for PPP negotiation after `CONNECT`.
const PPP_TIMEOUT: Duration = Duration::from_secs(30);

impl UmtsAttachment {
    /// Creates a powered-on attachment at `now` (modem begins registering
    /// in the background; no connection is attempted until
    /// [`UmtsAttachment::start`]).
    pub fn new(
        profile: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
        seed: u64,
        now: Instant,
    ) -> UmtsAttachment {
        let mut rng = SimRng::seed_from_u64(seed);
        let modem = Modem::power_on(device, profile.network_signal(), now);
        let rrc = RrcController::new(profile.rrc.clone(), now);
        let uplink = UmtsBearer::new(profile.uplink.clone());
        let downlink = UmtsBearer::new(profile.downlink.clone());
        let signaling = SignalingChannel::new(profile.signaling_delay);
        let pool = AddressPool::new(profile.pool);
        let conntrack = Conntrack::new(Duration::from_secs(60));
        let _ = rng.next_u64();
        UmtsAttachment {
            profile,
            credentials,
            serial: SerialLine::new(460_800),
            modem,
            modem_lines: LineAssembler::new(),
            host_lines: LineAssembler::new(),
            dialer: DialerState::Idle,
            dialer_deadline: None,
            reg_poll_at: None,
            reg_polls: 0,
            ppp_client: None,
            ppp_server: None,
            ggsn_deframer: Deframer::new(),
            wire_buf: Vec::new(),
            frame_buf: Vec::new(),
            signaling,
            rrc,
            uplink,
            downlink,
            conntrack,
            pool,
            local_addr: None,
            peer_addr: None,
            pending: VecDeque::new(),
            rng,
            force_auth_reject: false,
            queued_events: Vec::new(),
        }
    }

    /// True once the data plane is usable.
    pub fn is_connected(&self) -> bool {
        self.dialer == DialerState::Connected
    }

    /// The address assigned to the node, once connected.
    pub fn local_addr(&self) -> Option<Ipv4Address> {
        self.local_addr
    }

    /// The GGSN peer address, once connected.
    pub fn peer_addr(&self) -> Option<Ipv4Address> {
        self.peer_addr
    }

    /// The operator profile in use.
    pub fn profile(&self) -> &OperatorProfile {
        &self.profile
    }

    /// Current RRC state (for `umts status` style introspection).
    pub fn rrc_state(&self) -> RrcState {
        self.rrc.state()
    }

    /// Lifetime count of RRC state transitions (promotions, grant
    /// upgrades, demotions).
    pub fn rrc_transitions(&self) -> u64 {
        self.rrc.transitions()
    }

    /// Cumulative per-state RRC residence times up to `now`, plus
    /// Idle→DCH promotion latency totals.
    pub fn rrc_dwell(&self, now: umtslab_sim::time::Instant) -> crate::rrc::RrcDwell {
        self.rrc.dwell(now)
    }

    /// Lifetime count of PPP phase transitions on the host (client) side
    /// of the session. Zero until a dial has begun.
    pub fn ppp_transitions(&self) -> u64 {
        self.ppp_client.as_ref().map_or(0, super::ppp::endpoint::PppEndpoint::phase_transitions)
    }

    /// Uplink bearer counters.
    pub fn uplink_stats(&self) -> BearerStats {
        self.uplink.stats()
    }

    /// Downlink bearer counters.
    pub fn downlink_stats(&self) -> BearerStats {
        self.downlink.stats()
    }

    /// Uplink backlog in bytes (drives the RRC upgrade heuristic).
    pub fn uplink_backlog(&self) -> usize {
        self.uplink.backlog_bytes()
    }

    /// Begins the connection workflow (the `umts start` back-end action).
    pub fn start(&mut self, now: Instant) {
        if self.dialer != DialerState::Idle && self.dialer != DialerState::Failed {
            return;
        }
        self.dialer = DialerState::Probe;
        self.dialer_deadline = Some(now + Duration::from_secs(10));
        self.serial.host_write(now, b"AT\r");
    }

    /// Begins an orderly teardown (the `umts stop` back-end action).
    pub fn stop(&mut self, now: Instant) {
        match self.dialer {
            DialerState::Connected | DialerState::PppNegotiating => {
                self.dialer = DialerState::Terminating;
                self.dialer_deadline = Some(now + Duration::from_secs(10));
                if let Some(ppp) = self.ppp_client.as_mut() {
                    let out = ppp.close(now);
                    self.route_client_bytes(now, out.tx);
                }
            }
            DialerState::Idle | DialerState::Failed => {}
            _ => {
                // Mid-dial: abort.
                self.finish_teardown(now);
            }
        }
    }

    /// True if the modem firmware is hung and needs a power cycle
    /// ([`UmtsAttachment::reset_modem`]) before any dial can succeed.
    pub fn modem_is_hung(&self) -> bool {
        self.modem.is_hung()
    }

    /// Injects a session-level fault against the live stack. Effects
    /// surface through the normal event flow: faults that kill an
    /// established session eventually produce [`UmtsEvent::Disconnected`]
    /// (or [`UmtsEvent::Failed`] mid-dial), exactly as a real failure
    /// would.
    pub fn inject_fault(&mut self, now: Instant, fault: SessionFault) {
        match fault {
            SessionFault::ModemHang => self.modem.hang(),
            SessionFault::AtTimeout => self.modem.swallow_next_command(),
            SessionFault::PapReject => self.force_auth_reject = true,
            SessionFault::PppTerminate => {
                if self.dialer == DialerState::Connected {
                    if let Some(server) = self.ppp_server.as_mut() {
                        let r = server.close(now);
                        self.signaling.push_to_host(now, r.tx);
                    }
                }
            }
            SessionFault::RrcRelease => {
                self.rrc.release(now);
                self.apply_rrc(now);
            }
            SessionFault::BearerPreemption => {
                self.uplink.flush();
                self.downlink.flush();
                self.rrc.preempt(now);
                self.apply_rrc(now);
            }
            SessionFault::OperatorDetach => {
                self.modem.detach(now);
                if matches!(
                    self.dialer,
                    DialerState::Connected | DialerState::PppNegotiating | DialerState::Terminating
                ) {
                    self.finish_teardown(now);
                    self.queued_events.push(UmtsEvent::Disconnected);
                }
            }
        }
    }

    /// Power-cycles the modem — the watchdog reset the paper's management
    /// scripts issue when the card stops answering. Only possible while no
    /// connection attempt is in flight (Idle/Failed); the card re-registers
    /// from scratch afterwards. This is the sole cure for
    /// [`SessionFault::ModemHang`].
    pub fn reset_modem(&mut self, now: Instant) {
        if self.dialer != DialerState::Idle && self.dialer != DialerState::Failed {
            return;
        }
        self.modem =
            Modem::power_on(self.modem.profile().clone(), self.profile.network_signal(), now);
        self.modem_lines = LineAssembler::new();
        self.host_lines = LineAssembler::new();
        self.serial = SerialLine::new(460_800);
        self.signaling.clear();
    }

    /// Offers a node-originated packet to the uplink (`ppp0` egress).
    ///
    /// The bearer's drop-tail test runs before any byte work: a packet
    /// the full buffer refuses is counted as an overflow drop and never
    /// serialized. An admitted packet crosses the honest byte path
    /// (serialize, PPP-frame, deframe, re-validate), and the re-validated
    /// packet is what the bearer queues. A packet that is not queued is
    /// handed back with the reason, for the caller's drop trace.
    pub fn send_uplink(
        &mut self,
        now: Instant,
        packet: Packet,
    ) -> Result<(), (UplinkOutcome, Packet)> {
        // Exactly the ways the byte path can fail: a frame the client
        // encodes itself always deframes and re-validates.
        let open = self.ppp_client.as_ref().is_some_and(|p| p.phase() == PppPhase::Open);
        if self.dialer != DialerState::Connected || !open || !packet.serializes() {
            return Err((UplinkOutcome::NotConnected, packet));
        }
        let size = packet.wire_len();
        self.rrc.on_traffic(now, self.uplink.backlog_bytes() + size);
        self.apply_rrc(now);
        if !self.uplink.admits(size) {
            self.uplink.refuse(now);
            return Err((UplinkOutcome::DroppedOverflow, packet));
        }
        let validated = self.through_ppp_data_path(packet);
        debug_assert!(validated.is_ok(), "an open session's own frame re-validates");
        let validated = validated.map_err(|p| (UplinkOutcome::NotConnected, p))?;
        self.uplink.enqueue(now, validated).map_err(|p| (UplinkOutcome::DroppedOverflow, p))
    }

    /// Delivers an internet-side packet destined to the subscriber.
    pub fn deliver_downlink(&mut self, now: Instant, packet: Packet) -> DownlinkOutcome {
        if self.dialer != DialerState::Connected {
            return DownlinkOutcome::NotConnected;
        }
        if Some(packet.dst.addr) != self.local_addr {
            return DownlinkOutcome::NotConnected;
        }
        if self.profile.inbound_firewall && !self.conntrack.allow_inbound(&packet, now) {
            return DownlinkOutcome::BlockedByFirewall;
        }
        self.rrc.on_traffic(now, self.uplink.backlog_bytes());
        self.apply_rrc(now);
        match self.downlink.enqueue(now, packet) {
            Ok(()) => DownlinkOutcome::Queued,
            Err(_) => DownlinkOutcome::DroppedOverflow,
        }
    }

    /// The earliest instant at which [`UmtsAttachment::poll`] has work.
    pub fn next_wakeup(&self) -> Option<Instant> {
        let mut t = self.serial.next_activity();
        t = min_opt(t, self.modem.next_wakeup());
        t = min_opt(t, self.signaling.next_activity());
        t = min_opt(t, self.reg_poll_at);
        t = min_opt(t, self.dialer_deadline);
        t = min_opt(
            t,
            self.ppp_client.as_ref().and_then(super::ppp::endpoint::PppEndpoint::next_timeout),
        );
        t = min_opt(
            t,
            self.ppp_server.as_ref().and_then(super::ppp::endpoint::PppEndpoint::next_timeout),
        );
        t = min_opt(t, self.rrc.next_wakeup());
        t = min_opt(t, self.uplink.next_service());
        t = min_opt(t, self.downlink.next_service());
        t = min_opt(t, self.pending.front().map(|&(at, _)| at));
        t
    }

    /// Advances every sub-machine to `now` and collects outputs.
    pub fn poll(&mut self, now: Instant) -> UmtsPollOutput {
        let mut out = UmtsPollOutput::default();
        out.events.append(&mut self.queued_events);
        // Iterate until quiescent at `now`: serial and signaling hops can
        // enable each other within the same instant.
        if self.pumps_due(now) {
            for _ in 0..64 {
                let mut progressed = false;
                progressed |= self.pump_modem(now);
                progressed |= self.pump_host(now, &mut out);
                progressed |= self.pump_signaling(now);
                if !progressed {
                    break;
                }
            }
        }
        self.pump_timers(now, &mut out);
        self.pump_radio(now);
        self.drain_pending(now, &mut out);
        out
    }

    // --- internals ------------------------------------------------------

    /// True if the serial line, the modem or the signaling channel has
    /// work at `now`. Otherwise a round of their pumps changes nothing:
    /// no byte is readable, no modem output is due, and the one thing a
    /// modem poll can still change, a denied registration, is already
    /// what [`Modem::registration`] reports.
    fn pumps_due(&self, now: Instant) -> bool {
        let due = min_opt(self.serial.next_activity(), self.modem.next_wakeup());
        min_opt(due, self.signaling.next_activity()).is_some_and(|t| t <= now)
    }

    /// Runs one data packet through real serialization + PPP framing +
    /// deframing + checksum validation, re-reading it in place from the
    /// first frame's information field so that the simulation metadata
    /// and its payload allocation carry over. A packet the path refuses
    /// comes back unchanged as the error.
    fn through_ppp_data_path(&mut self, mut packet: Packet) -> Result<Packet, Packet> {
        let Some(ppp) = self.ppp_client.as_mut() else {
            return Err(packet);
        };
        if packet.to_wire_into(&mut self.wire_buf).is_err()
            || !ppp.send_ipv4_into(&self.wire_buf, &mut self.frame_buf)
        {
            return Err(packet);
        }
        // Deframe on the far side (shared codec; the GGSN would do this)
        // and parse the first frame's information field where it lies.
        let mut parsed = None;
        self.ggsn_deframer.feed_with(&self.frame_buf, |_, body| {
            if parsed.is_none() {
                parsed = Some(Packet::from_wire_into(body, &mut packet).is_ok());
            }
        });
        if parsed == Some(true) {
            Ok(packet)
        } else {
            Err(packet)
        }
    }

    fn pump_modem(&mut self, now: Instant) -> bool {
        let mut progressed = false;
        // Host → modem bytes.
        let bytes = self.serial.modem_read(now);
        if !bytes.is_empty() {
            progressed = true;
            if self.modem.is_hung() {
                // A hung modem eats bytes without acting on them.
            } else if self.modem.mode() == ModemMode::Data {
                self.signaling.push_to_ggsn(now, bytes);
            } else {
                for line in self.modem_lines.feed(&bytes) {
                    self.modem.input_line(now, &line);
                }
            }
        }
        // Modem outputs → host.
        for o in self.modem.poll(now) {
            progressed = true;
            match o {
                ModemOutput::Line(l) => {
                    let mut data = l.into_bytes();
                    data.extend_from_slice(b"\r\n");
                    self.serial.modem_write(now, &data);
                }
                ModemOutput::EnterDataMode | ModemOutput::ExitDataMode => {}
            }
        }
        progressed
    }

    fn pump_host(&mut self, now: Instant, out: &mut UmtsPollOutput) -> bool {
        let bytes = self.serial.host_read(now);
        if bytes.is_empty() {
            return false;
        }
        if self.dialer == DialerState::PppNegotiating
            || self.dialer == DialerState::Connected
            || self.dialer == DialerState::Terminating
        {
            // The line carries PPP: feed the client endpoint.
            if let Some(ppp) = self.ppp_client.as_mut() {
                let r = ppp.input_bytes(now, &bytes);
                let tx = r.tx;
                let events = r.events;
                self.route_client_bytes(now, tx);
                self.handle_client_events(now, events, out);
            }
            return true;
        }
        // The line carries AT responses: feed the dialer.
        for line in self.host_lines.feed(&bytes) {
            self.dialer_response(now, &line, out);
        }
        true
    }

    fn pump_signaling(&mut self, now: Instant) -> bool {
        let mut progressed = false;
        let ggsn_bytes = self.signaling.pop_due_ggsn(now);
        if !ggsn_bytes.is_empty() {
            progressed = true;
            if let Some(server) = self.ppp_server.as_mut() {
                let r = server.input_bytes(now, &ggsn_bytes);
                self.signaling.push_to_host(now, r.tx);
                // Server-side events need no routing; the client side
                // drives the lifecycle.
            }
        }
        let host_bytes = self.signaling.pop_due_host(now);
        if !host_bytes.is_empty() {
            progressed = true;
            // Radio → modem → serial → host.
            if self.modem.mode() == ModemMode::Data && !self.modem.is_hung() {
                self.serial.modem_write(now, &host_bytes);
            }
        }
        progressed
    }

    fn pump_timers(&mut self, now: Instant, out: &mut UmtsPollOutput) {
        // Registration poll loop.
        if let Some(at) = self.reg_poll_at {
            if now >= at && self.dialer == DialerState::WaitRegistration {
                self.reg_poll_at = None;
                if self.reg_polls >= MAX_REG_POLLS {
                    self.fail(now, DialError::RegistrationTimeout, out);
                } else {
                    self.reg_polls += 1;
                    self.serial.host_write(now, b"AT+CREG?\r");
                }
            }
        }
        // Stage deadline.
        if let Some(at) = self.dialer_deadline {
            if now >= at {
                self.dialer_deadline = None;
                match self.dialer {
                    DialerState::PppNegotiating => self.fail(now, DialError::PppTimeout, out),
                    DialerState::Terminating => {
                        self.finish_teardown(now);
                        out.events.push(UmtsEvent::Disconnected);
                    }
                    DialerState::Probe
                    | DialerState::CheckPin
                    | DialerState::SetApn
                    | DialerState::Dial => {
                        self.fail(now, DialError::NoCarrier, out);
                    }
                    _ => {}
                }
            }
        }
        // PPP timers.
        if let Some(ppp) = self.ppp_client.as_mut() {
            if ppp.next_timeout().is_some_and(|t| t <= now) {
                let r = ppp.on_timeout(now);
                let tx = r.tx;
                let events = r.events;
                self.route_client_bytes(now, tx);
                self.handle_client_events(now, events, out);
            }
        }
        if let Some(server) = self.ppp_server.as_mut() {
            if server.next_timeout().is_some_and(|t| t <= now) {
                let r = server.on_timeout(now);
                self.signaling.push_to_host(now, r.tx);
            }
        }
    }

    fn pump_radio(&mut self, now: Instant) {
        self.apply_rrc(now);
        if self.uplink.next_service().is_some_and(|t| t <= now) {
            let served = self.uplink.service(now, &mut self.rng);
            for (at, pkt) in served {
                self.conntrack.note_outbound(&pkt, at);
                let exit = at + self.profile.core_delay;
                self.push_pending(exit, UmtsData::ToInternet(pkt));
            }
        }
        if self.downlink.next_service().is_some_and(|t| t <= now) {
            let served = self.downlink.service(now, &mut self.rng);
            for (at, pkt) in served {
                self.push_pending(at, UmtsData::ToHost(pkt));
            }
        }
    }

    fn apply_rrc(&mut self, now: Instant) {
        // Fire due RRC timers; the new grant below is all that matters here.
        let _ = self.rrc.poll(now);
        let (up, down) = match self.rrc.grant() {
            Some(g) => (g.uplink_bps, g.downlink_bps),
            None => (0, 0),
        };
        if self.uplink.rate_bps() != up {
            self.uplink.set_rate(now, up);
        }
        if self.downlink.rate_bps() != down {
            self.downlink.set_rate(now, down);
        }
    }

    fn push_pending(&mut self, at: Instant, data: UmtsData) {
        // Deliveries from one bearer are generated in order; merge the two
        // streams by insertion.
        let pos = self.pending.iter().position(|&(t, _)| t > at).unwrap_or(self.pending.len());
        self.pending.insert(pos, (at, data));
    }

    fn drain_pending(&mut self, now: Instant, out: &mut UmtsPollOutput) {
        while let Some(&(at, _)) = self.pending.front() {
            if at > now {
                break;
            }
            let (_, data) = self.pending.pop_front().expect("front exists");
            out.data.push(data);
        }
    }

    fn route_client_bytes(&mut self, now: Instant, tx: Vec<u8>) {
        if !tx.is_empty() {
            self.serial.host_write(now, &tx);
        }
    }

    fn handle_client_events(
        &mut self,
        now: Instant,
        events: Vec<PppEvent>,
        out: &mut UmtsPollOutput,
    ) {
        for ev in events {
            match ev {
                PppEvent::Up { local, peer } => {
                    if self.dialer == DialerState::PppNegotiating {
                        self.dialer = DialerState::Connected;
                        self.dialer_deadline = None;
                        self.local_addr = Some(local);
                        self.peer_addr = Some(peer);
                        // Dialing already put the radio in DCH-bound state.
                        self.rrc.on_traffic(now, 0);
                        self.apply_rrc(now);
                        out.events.push(UmtsEvent::Connected { local, peer });
                    }
                }
                PppEvent::Down => {
                    if self.dialer == DialerState::Connected
                        || self.dialer == DialerState::Terminating
                    {
                        self.finish_teardown(now);
                        out.events.push(UmtsEvent::Disconnected);
                    }
                }
                PppEvent::AuthFailed => {
                    self.fail(now, DialError::AuthFailed, out);
                }
            }
        }
    }

    fn dialer_response(&mut self, now: Instant, line: &str, out: &mut UmtsPollOutput) {
        match self.dialer {
            DialerState::Probe => {
                if line == "OK" {
                    self.dialer = DialerState::CheckPin;
                    self.serial.host_write(now, b"AT+CPIN?\r");
                } else if line == "ERROR" {
                    self.fail(now, DialError::NoCarrier, out);
                }
            }
            DialerState::CheckPin if line.starts_with("+CPIN:") => {
                if line.contains("READY") {
                    self.dialer = DialerState::WaitRegistration;
                    self.reg_polls = 0;
                    self.dialer_deadline = Some(
                        now + REG_POLL_INTERVAL * u64::from(MAX_REG_POLLS) + Duration::from_secs(5),
                    );
                    self.serial.host_write(now, b"AT+CREG?\r");
                    self.reg_polls = 1;
                } else {
                    self.fail(now, DialError::SimLocked, out);
                }
            }
            DialerState::WaitRegistration => {
                if let Some(code) = line.strip_prefix("+CREG: 0,") {
                    match code.trim() {
                        "1" | "5" => {
                            self.dialer = DialerState::SetApn;
                            self.reg_poll_at = None;
                            let cmd = format!("AT+CGDCONT=1,\"IP\",\"{}\"\r", self.profile.apn);
                            self.serial.host_write(now, cmd.as_bytes());
                        }
                        "3" => self.fail(now, DialError::RegistrationDenied, out),
                        _ => {
                            self.reg_poll_at = Some(now + REG_POLL_INTERVAL);
                        }
                    }
                }
            }
            DialerState::SetApn => {
                if line == "OK" {
                    self.dialer = DialerState::Dial;
                    self.dialer_deadline = Some(now + Duration::from_secs(30));
                    self.serial.host_write(now, b"ATD*99***1#\r");
                } else if line == "ERROR" {
                    self.fail(now, DialError::NoCarrier, out);
                }
            }
            DialerState::Dial => {
                if line == "CONNECT" {
                    self.begin_ppp(now);
                } else if line == "NO CARRIER" || line == "BUSY" || line == "ERROR" {
                    self.fail(now, DialError::NoCarrier, out);
                }
            }
            _ => {}
        }
    }

    fn begin_ppp(&mut self, now: Instant) {
        self.dialer = DialerState::PppNegotiating;
        self.dialer_deadline = Some(now + PPP_TIMEOUT);

        let assigned = self.pool.allocate().expect("operator pool exhausted");
        let client_magic = (self.rng.next_u64() >> 32) as u32 | 1;
        let server_magic = (self.rng.next_u64() >> 32) as u32 | 2;
        let mut client = PppEndpoint::client(client_magic, self.credentials.clone(), true);
        // A one-shot injected PAP reject makes the GGSN demand credentials
        // nothing can satisfy for exactly this attempt.
        let (require_pap, expected_credentials) = if self.force_auth_reject {
            self.force_auth_reject = false;
            (true, Some(Credentials::new("!radius-fault!", "!radius-fault!")))
        } else {
            (self.profile.require_pap, self.profile.expected_credentials.clone())
        };
        let server = PppEndpoint::server(
            server_magic,
            PppServerConfig {
                own_addr: self.profile.ggsn_addr,
                assign_peer: assigned,
                dns: self.profile.dns,
                require_pap,
                expected_credentials,
            },
        );
        self.ppp_server = Some(server);
        // Dialing counts as radio activity: the RRC connection that carried
        // the call setup is live.
        self.rrc.on_traffic(now, 0);

        let r = client.start(now);
        self.route_client_bytes(now, r.tx);
        self.ppp_client = Some(client);
        if let Some(server) = self.ppp_server.as_mut() {
            let r = server.start(now);
            self.signaling.push_to_host(now, r.tx);
        }
    }

    fn fail(&mut self, now: Instant, error: DialError, out: &mut UmtsPollOutput) {
        self.finish_teardown(now);
        self.dialer = DialerState::Failed;
        out.events.push(UmtsEvent::Failed(error));
    }

    fn finish_teardown(&mut self, now: Instant) {
        if let Some(addr) = self.local_addr.take() {
            self.pool.release(addr);
        }
        self.peer_addr = None;
        if let Some(mut ppp) = self.ppp_client.take() {
            let _ = ppp.carrier_lost(now);
        }
        self.ppp_server = None;
        self.modem.drop_carrier(now);
        // pppd releases the tty on hangup: in-flight serial bytes (e.g. a
        // Terminate-Ack still crossing the line) must not reach the modem
        // as garbage AT input and desync the next dial.
        self.serial = SerialLine::new(460_800);
        self.modem_lines = LineAssembler::new();
        self.host_lines = LineAssembler::new();
        self.uplink.flush();
        self.downlink.flush();
        self.conntrack.clear();
        self.signaling.clear();
        self.pending.clear();
        self.dialer = DialerState::Idle;
        self.dialer_deadline = None;
        self.reg_poll_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::at::RegStatus;
    use crate::hostile::hostile_stream;
    use crate::serial::MAX_LINE_LEN;
    use umtslab_net::packet::{Mark, PacketId};
    use umtslab_net::wire::{Endpoint, Protocol};

    fn attachment() -> UmtsAttachment {
        UmtsAttachment::new(
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
            42,
            Instant::ZERO,
        )
    }

    /// Drives the attachment until `pred` or the horizon, collecting
    /// events and data.
    fn run_until(
        att: &mut UmtsAttachment,
        mut now: Instant,
        horizon: Instant,
        mut stop: impl FnMut(&UmtsAttachment, &[UmtsEvent]) -> bool,
    ) -> (Instant, Vec<UmtsEvent>, Vec<UmtsData>) {
        let mut events = Vec::new();
        let mut data = Vec::new();
        loop {
            let out = att.poll(now);
            events.extend(out.events);
            data.extend(out.data);
            if stop(att, &events) || now >= horizon {
                return (now, events, data);
            }
            match att.next_wakeup() {
                Some(t) if t > now => now = t.min(horizon),
                Some(_) => now += Duration::from_micros(100),
                None => return (now, events, data),
            }
        }
    }

    /// Offers a copy of `p` to the uplink and returns what became of it.
    fn offer_uplink(att: &mut UmtsAttachment, now: Instant, p: &Packet) -> UplinkOutcome {
        match att.send_uplink(now, p.clone()) {
            Ok(()) => UplinkOutcome::Queued,
            Err((outcome, refused)) => {
                assert_eq!(&refused, p, "a refused packet comes back unchanged");
                outcome
            }
        }
    }

    fn connect(att: &mut UmtsAttachment) -> Instant {
        att.start(Instant::ZERO);
        let (t, events, _) =
            run_until(att, Instant::ZERO, Instant::from_secs(60), |a, _| a.is_connected());
        assert!(att.is_connected(), "attachment failed to connect; events: {events:?}");
        t
    }

    fn data_pkt(att: &UmtsAttachment, id: u64, payload: usize) -> Packet {
        let mut p = Packet::udp(
            PacketId(id),
            Endpoint::new(att.local_addr().unwrap(), 9000),
            Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 9001),
            vec![0xAB; payload],
            Instant::ZERO,
        );
        p.mark = Mark(7);
        p
    }

    #[test]
    fn full_dialup_connects() {
        let mut att = attachment();
        let t = connect(&mut att);
        // Registration (~2.5 s) + dial (~3.2 s) + PPP over a ~90 ms
        // signaling path: the whole workflow lands in a plausible window.
        assert!(t >= Instant::from_secs(5), "connected suspiciously fast: {t}");
        assert!(t <= Instant::from_secs(20), "connection took too long: {t}");
        let local = att.local_addr().unwrap();
        assert!(att.profile().pool.contains(local));
        assert_eq!(att.peer_addr(), Some(att.profile().ggsn_addr));
    }

    #[test]
    fn uplink_packet_reaches_internet_side() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let pkt = data_pkt(&att, 1, 100);
        assert_eq!(offer_uplink(&mut att, t0, &pkt), UplinkOutcome::Queued);
        let (_, _, data) = run_until(&mut att, t0, t0 + Duration::from_secs(10), |_, _| false);
        let to_internet: Vec<_> =
            data.iter().filter(|d| matches!(d, UmtsData::ToInternet(_))).collect();
        assert_eq!(to_internet.len(), 1);
        if let UmtsData::ToInternet(p) = to_internet[0] {
            assert_eq!(p.id, PacketId(1));
            assert_eq!(p.mark, Mark(7), "mark survives the PPP data path");
            assert_eq!(p.payload, vec![0xAB; 100]);
        }
    }

    #[test]
    fn downlink_reply_reaches_host_but_unsolicited_is_blocked() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let local = att.local_addr().unwrap();
        let remote = Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 9001);

        // Unsolicited inbound (the paper's ssh case): blocked.
        let unsolicited = Packet::udp(PacketId(5), remote, Endpoint::new(local, 22), vec![1], t0);
        assert_eq!(att.deliver_downlink(t0, unsolicited), DownlinkOutcome::BlockedByFirewall);

        // Send outbound first, let it traverse the radio, then reply.
        let pkt = data_pkt(&att, 1, 50);
        offer_uplink(&mut att, t0, &pkt);
        let (t1, _, _) = run_until(&mut att, t0, t0 + Duration::from_secs(5), |a, _| {
            a.uplink_stats().served > 0
        });
        let reply = Packet::udp(PacketId(6), remote, Endpoint::new(local, 9000), vec![2], t1);
        assert_eq!(
            att.deliver_downlink(t1 + Duration::from_secs(1), reply),
            DownlinkOutcome::Queued
        );
        let (_, _, data) = run_until(
            &mut att,
            t1 + Duration::from_secs(1),
            t1 + Duration::from_secs(8),
            |_, _| false,
        );
        assert!(data.iter().any(|d| matches!(d, UmtsData::ToHost(p) if p.id == PacketId(6))));
    }

    #[test]
    fn send_before_connect_is_rejected() {
        let mut att = attachment();
        let p = Packet::udp(
            PacketId(0),
            Endpoint::new(Ipv4Address::new(10, 64, 128, 2), 9000),
            Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 9001),
            vec![],
            Instant::ZERO,
        );
        assert_eq!(offer_uplink(&mut att, Instant::ZERO, &p), UplinkOutcome::NotConnected);
    }

    #[test]
    fn stop_disconnects_and_releases_address() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let addr = att.local_addr().unwrap();
        att.stop(t0);
        let (_, events, _) = run_until(&mut att, t0, t0 + Duration::from_secs(30), |a, _| {
            !a.is_connected() && a.local_addr().is_none()
        });
        assert!(events.contains(&UmtsEvent::Disconnected), "events: {events:?}");
        assert_eq!(att.local_addr(), None);
        // Reconnecting reuses the released address.
        att.start(Instant::from_secs(60));
        let (_, _, _) =
            run_until(&mut att, Instant::from_secs(60), Instant::from_secs(120), |a, _| {
                a.is_connected()
            });
        assert_eq!(att.local_addr(), Some(addr));
    }

    #[test]
    fn wrong_credentials_fail_auth_on_microcell() {
        let mut att = UmtsAttachment::new(
            OperatorProfile::private_microcell(),
            DeviceProfile::option_globetrotter(),
            Some(Credentials::new("wrong", "wrong")),
            42,
            Instant::ZERO,
        );
        att.start(Instant::ZERO);
        let (_, events, _) =
            run_until(&mut att, Instant::ZERO, Instant::from_secs(60), |_, evs| {
                evs.iter().any(|e| matches!(e, UmtsEvent::Failed(_)))
            });
        assert!(events.contains(&UmtsEvent::Failed(DialError::AuthFailed)), "events: {events:?}");
        assert!(!att.is_connected());
    }

    #[test]
    fn microcell_allows_unsolicited_inbound() {
        let mut att = UmtsAttachment::new(
            OperatorProfile::private_microcell(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("onelab", "onelab")),
            42,
            Instant::ZERO,
        );
        att.start(Instant::ZERO);
        let (t, _, _) =
            run_until(&mut att, Instant::ZERO, Instant::from_secs(60), |a, _| a.is_connected());
        assert!(att.is_connected());
        let local = att.local_addr().unwrap();
        let unsolicited = Packet::udp(
            PacketId(9),
            Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 2222),
            Endpoint::new(local, 22),
            vec![1],
            t,
        );
        assert_eq!(att.deliver_downlink(t, unsolicited), DownlinkOutcome::Queued);
    }

    #[test]
    fn saturating_uplink_overflows_buffer() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let mut overflowed = 0;
        // Offer far more than the bearer buffer can hold at once.
        for i in 0..400 {
            let p = data_pkt(&att, i, 1000);
            if offer_uplink(&mut att, t0, &p) == UplinkOutcome::DroppedOverflow {
                overflowed += 1;
            }
        }
        assert!(overflowed > 0, "deep but finite buffer must eventually drop");
        assert!(att.uplink_backlog() <= att.profile().uplink.queue_bytes);
    }

    /// The order the uplink used before admission moved ahead of the byte
    /// path: every offer is serialized, framed, deframed and re-validated,
    /// and only then does the RRC see it and the bearer decide.
    fn send_uplink_codec_first(
        att: &mut UmtsAttachment,
        now: Instant,
        packet: &Packet,
    ) -> UplinkOutcome {
        if att.dialer != DialerState::Connected {
            return UplinkOutcome::NotConnected;
        }
        let Ok(validated) = att.through_ppp_data_path(packet.clone()) else {
            return UplinkOutcome::NotConnected;
        };
        att.rrc.on_traffic(now, att.uplink.backlog_bytes() + validated.wire_len());
        att.apply_rrc(now);
        match att.uplink.enqueue(now, validated) {
            Ok(()) => UplinkOutcome::Queued,
            Err(_) => UplinkOutcome::DroppedOverflow,
        }
    }

    /// What an uplink offer can change, as a caller sees it.
    type UplinkView = (BearerStats, usize, Option<Instant>, RrcState, u64);

    fn uplink_view(att: &UmtsAttachment) -> UplinkView {
        let stats = att.uplink_stats();
        (stats, att.uplink_backlog(), att.next_wakeup(), att.rrc_state(), att.rrc_transitions())
    }

    /// A UDP packet from `src` whose datagram is `payload` + 28 bytes.
    fn offer_pkt(src: Ipv4Address, id: u64, payload: usize) -> Packet {
        let to = Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 9001);
        Packet::udp(PacketId(id), Endpoint::new(src, 9000), to, vec![0; payload], Instant::ZERO)
    }

    /// Offers `p` to both attachments, the second through the codec-first
    /// order, and checks they agree on the outcome and on every counter.
    fn offer_both(
        att: &mut UmtsAttachment,
        oracle: &mut UmtsAttachment,
        now: Instant,
        p: &Packet,
    ) -> UplinkOutcome {
        let got = offer_uplink(att, now, p);
        assert_eq!(got, send_uplink_codec_first(oracle, now, p), "packet {:?} at {now}", p.id);
        assert_eq!(uplink_view(att), uplink_view(oracle), "packet {:?} at {now}", p.id);
        got
    }

    /// Polls both attachments at `now`; they must emit the same packets.
    fn poll_both(att: &mut UmtsAttachment, oracle: &mut UmtsAttachment, now: Instant) {
        let view = |out: UmtsPollOutput| -> Vec<(bool, Packet)> {
            let data = out.data.into_iter();
            data.map(|d| match d {
                UmtsData::ToInternet(p) => (true, p),
                UmtsData::ToHost(p) => (false, p),
            })
            .collect()
        };
        let (a, b) = (att.poll(now), oracle.poll(now));
        assert_eq!(a.events, b.events, "events at {now}");
        assert_eq!(view(a), view(b), "data at {now}");
        assert_eq!(uplink_view(att), uplink_view(oracle), "after polling at {now}");
    }

    #[test]
    fn admitting_before_the_byte_path_matches_the_codec_first_order() {
        let mut seen = [0usize; 3];
        for seed in 0..3 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (mut att, mut oracle) = (attachment(), attachment());
            let early = offer_pkt(Ipv4Address::new(10, 64, 128, 2), 0, 100);
            let before = offer_both(&mut att, &mut oracle, Instant::ZERO, &early);
            assert_eq!(before, UplinkOutcome::NotConnected);
            let t0 = connect(&mut att);
            assert_eq!(connect(&mut oracle), t0);
            let local = att.local_addr().unwrap();
            let queue_bytes = att.profile().uplink.queue_bytes;

            let mut now = t0;
            let mut id = 1;
            let mut offer = |att: &mut UmtsAttachment,
                             oracle: &mut UmtsAttachment,
                             now: Instant,
                             packet: Packet| {
                let outcome = offer_both(att, oracle, now, &packet);
                seen[outcome as usize] += 1;
                outcome
            };
            for step in 0..400 {
                if step == 200 {
                    // Let the bearer drain and go idle, then offer one
                    // datagram larger than the whole buffer.
                    while att.uplink_backlog() > 0 {
                        now += Duration::from_millis(10);
                        poll_both(&mut att, &mut oracle, now);
                    }
                    now += Duration::from_millis(100);
                    poll_both(&mut att, &mut oracle, now);
                    let whole = offer_pkt(local, id, queue_bytes - 27);
                    let outcome = offer(&mut att, &mut oracle, now, whole);
                    assert_eq!(outcome, UplinkOutcome::DroppedOverflow);
                    id += 1;
                }
                let burst = if rng.chance(0.1) { 30 } else { 1 };
                for _ in 0..burst {
                    let mut p = offer_pkt(local, id, rng.uniform_u64(0, 1_400) as usize);
                    id += 1;
                    if rng.chance(0.05) {
                        p.protocol = Protocol::Icmp;
                    } else if rng.chance(0.03) {
                        p = offer_pkt(local, id, 65_535 - 27);
                    }
                    offer(&mut att, &mut oracle, now, p);
                }
                now += Duration::from_millis(rng.uniform_u64(0, 40));
                poll_both(&mut att, &mut oracle, now);
            }

            // Offers while the session terminates and after it is down.
            att.stop(now);
            oracle.stop(now);
            for _ in 0..2 {
                let late = offer(&mut att, &mut oracle, now, offer_pkt(local, id, 100));
                assert_eq!(late, UplinkOutcome::NotConnected);
                id += 1;
                while att.local_addr().is_some() {
                    now += Duration::from_millis(50);
                    poll_both(&mut att, &mut oracle, now);
                }
            }
        }
        let [queued, dropped, refused] = seen;
        assert!(queued > 0 && dropped > 0 && refused > 0, "{seen:?}");
    }

    /// `poll` without the pump gate, the reference the gate is checked
    /// against: the serial, modem and signaling pumps run at every poll,
    /// due or not.
    fn poll_always_pumping(att: &mut UmtsAttachment, now: Instant) -> UmtsPollOutput {
        let mut out = UmtsPollOutput::default();
        out.events.append(&mut att.queued_events);
        for _ in 0..64 {
            let mut progressed = false;
            progressed |= att.pump_modem(now);
            progressed |= att.pump_host(now, &mut out);
            progressed |= att.pump_signaling(now);
            if !progressed {
                break;
            }
        }
        att.pump_timers(now, &mut out);
        att.pump_radio(now);
        att.drain_pending(now, &mut out);
        out
    }

    /// What a poll hands out and leaves behind, as a caller sees it.
    type PollView = (Vec<UmtsEvent>, Vec<(bool, Packet)>, Option<Instant>, RrcState, RegStatus);

    fn poll_view(att: &UmtsAttachment, out: UmtsPollOutput) -> PollView {
        let data = out.data.into_iter().map(|d| match d {
            UmtsData::ToInternet(p) => (true, p),
            UmtsData::ToHost(p) => (false, p),
        });
        let (wake, rrc, reg) = (att.next_wakeup(), att.rrc_state(), att.modem.registration());
        (out.events, data.collect(), wake, rrc, reg)
    }

    /// Polls the gated and the always-pumping attachment side by side
    /// until `until` (or `stop`), now at the next wakeup and now a random
    /// step off it, and checks after every poll that they agree. Returns
    /// the last instant and how many polls the gate skipped the pumps at.
    fn poll_side_by_side(
        (gated, pumping): (&mut UmtsAttachment, &mut UmtsAttachment),
        rng: &mut SimRng,
        mut now: Instant,
        until: Instant,
        stop: impl Fn(&UmtsAttachment) -> bool,
    ) -> (Instant, u64) {
        let mut skipped = 0;
        while now < until && !stop(gated) {
            skipped += u64::from(!gated.pumps_due(now));
            let a = gated.poll(now);
            let b = poll_always_pumping(pumping, now);
            assert_eq!(poll_view(gated, a), poll_view(pumping, b), "polled at {now}");
            now = match gated.next_wakeup() {
                Some(t) if t > now && rng.chance(0.5) => t,
                _ => now + Duration::from_millis(rng.uniform_u64(1, 700)),
            };
        }
        (now, skipped)
    }

    #[test]
    fn gating_the_pumps_matches_pumping_at_every_poll() {
        let mut skipped = 0;
        for seed in 0..3 {
            let mut rng = SimRng::seed_from_u64(seed);

            // Registration denied: the dial fails at `AT+CREG?`.
            let denied = || {
                let mut att = attachment();
                let mut signal = att.profile().network_signal();
                signal.registration_denied = true;
                att.modem = Modem::power_on(DeviceProfile::huawei_e620(), signal, Instant::ZERO);
                att
            };
            let (mut gated, mut pumping) = (denied(), denied());
            assert_eq!(gated.modem.registration(), RegStatus::Denied, "before any poll");
            gated.start(Instant::ZERO);
            pumping.start(Instant::ZERO);
            let pair = (&mut gated, &mut pumping);
            let (_, n) =
                poll_side_by_side(pair, &mut rng, Instant::ZERO, Instant::from_secs(20), |a| {
                    a.dialer == DialerState::Failed
                });
            assert_eq!(gated.dialer, DialerState::Failed, "seed {seed}");
            skipped += n;

            // Dial-up, a few datagrams, idle LCP keepalives, teardown.
            let (mut gated, mut pumping) = (attachment(), attachment());
            gated.start(Instant::ZERO);
            pumping.start(Instant::ZERO);
            let pair = (&mut gated, &mut pumping);
            let (mut now, n) =
                poll_side_by_side(pair, &mut rng, Instant::ZERO, Instant::from_secs(60), |a| {
                    a.is_connected()
                });
            assert!(gated.is_connected(), "seed {seed}");
            skipped += n;
            let local = gated.local_addr().unwrap();
            for id in 0..5 {
                let p = offer_pkt(local, id, rng.uniform_u64(0, 1_400) as usize);
                assert_eq!(offer_uplink(&mut gated, now, &p), offer_uplink(&mut pumping, now, &p));
            }
            let idle = now + Duration::from_secs(35);
            let (t, n) =
                poll_side_by_side((&mut gated, &mut pumping), &mut rng, now, idle, |_| false);
            skipped += n;
            now = t;
            assert!(gated.is_connected(), "keepalives hold the idle session, seed {seed}");
            gated.stop(now);
            pumping.stop(now);
            let end = now + Duration::from_secs(30);
            let (_, n) = poll_side_by_side((&mut gated, &mut pumping), &mut rng, now, end, |a| {
                a.local_addr().is_none()
            });
            assert_eq!(gated.local_addr(), None, "seed {seed}");
            skipped += n;
        }
        assert!(skipped > 100, "the gate skipped the pumps at only {skipped} polls");
    }

    #[test]
    fn an_admitted_packet_is_revalidated_into_its_own_payload() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let own = data_pkt(&att, 1, 1_000);
        let own_addr = own.payload.as_ptr();
        let shared = data_pkt(&att, 2, 1_000);
        let sharer = shared.payload.clone();
        assert_eq!(att.send_uplink(t0, own), Ok(()));
        assert_eq!(att.send_uplink(t0, shared), Ok(()));
        let (_, _, data) = run_until(&mut att, t0, t0 + Duration::from_secs(10), |_, _| false);
        let served: Vec<_> = data
            .into_iter()
            .filter_map(|d| match d {
                UmtsData::ToInternet(p) => Some(p),
                UmtsData::ToHost(_) => None,
            })
            .collect();
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].payload.as_ptr(), own_addr, "a unique payload is reused");
        assert_ne!(served[1].payload.as_ptr(), sharer.as_ptr(), "a shared one is not");
        assert!(served.iter().all(|p| p.payload == vec![0xAB; 1_000]));
        assert_eq!(sharer, vec![0xAB; 1_000]);
    }

    #[test]
    fn refused_non_udp_offer_leaves_the_rrc_untouched() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let local = att.local_addr().unwrap();
        // Silence demotes the connection all the way to Idle.
        let later = t0 + Duration::from_secs(45);
        let (now, _, _) = run_until(&mut att, t0, later, |_, _| false);
        assert_eq!(att.rrc_state(), RrcState::Idle);
        let idle = uplink_view(&att);

        let mut icmp = offer_pkt(local, 1, 100);
        icmp.protocol = Protocol::Icmp;
        assert_eq!(offer_uplink(&mut att, now, &icmp), UplinkOutcome::NotConnected);
        assert_eq!(uplink_view(&att), idle, "a refused offer must not poke the RRC");

        // The same offer as UDP does poke it: the view above can tell.
        assert_eq!(offer_uplink(&mut att, now, &offer_pkt(local, 2, 100)), UplinkOutcome::Queued);
        assert_ne!(uplink_view(&att), idle);
    }

    #[test]
    fn registration_denied_fails_cleanly() {
        let mut profile = OperatorProfile::commercial_italy();
        let mut att = UmtsAttachment::new(
            profile.clone(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
            42,
            Instant::ZERO,
        );
        // Rebuild with a denying modem signal: craft via a custom modem is
        // not exposed, so emulate a hostile network by zeroing the
        // registration path: use a profile whose APN the dialer sets but
        // whose network denies registration.
        profile.name = "denied".into();
        let mut signal = profile.network_signal();
        signal.registration_denied = true;
        att.modem = Modem::power_on(DeviceProfile::huawei_e620(), signal, Instant::ZERO);
        att.start(Instant::ZERO);
        let (_, events, _) =
            run_until(&mut att, Instant::ZERO, Instant::from_secs(40), |_, evs| {
                evs.iter().any(|e| matches!(e, UmtsEvent::Failed(_)))
            });
        assert!(
            events.contains(&UmtsEvent::Failed(DialError::RegistrationDenied)),
            "events: {events:?}"
        );
        // A later start() can retry from Failed.
        att.start(Instant::from_secs(50));
        assert_ne!(att.dialer, DialerState::Idle);
    }

    #[test]
    fn stop_mid_dial_aborts_cleanly() {
        let mut att = attachment();
        att.start(Instant::ZERO);
        // Let it get into the registration wait, then abort.
        let (t, _, _) = run_until(&mut att, Instant::ZERO, Instant::from_secs(2), |_, _| false);
        att.stop(t);
        assert!(!att.is_connected());
        assert_eq!(att.local_addr(), None);
        // And it can start again afterwards.
        att.start(t + Duration::from_secs(1));
        let (_, _, _) =
            run_until(&mut att, t + Duration::from_secs(1), t + Duration::from_secs(60), |a, _| {
                a.is_connected()
            });
        assert!(att.is_connected());
    }

    #[test]
    fn rrc_demotes_on_idle_session_and_recovers() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        // Drive a packet so the RRC is in DCH.
        let p = data_pkt(&att, 1, 100);
        offer_uplink(&mut att, t0, &p);
        let (t1, _, _) = run_until(&mut att, t0, t0 + Duration::from_secs(2), |a, _| {
            a.uplink_stats().served > 0
        });
        assert!(matches!(att.rrc_state(), RrcState::CellDch { .. }));
        // 40+ seconds of silence demote to FACH and then Idle.
        let (_, _, _) = run_until(&mut att, t1, t1 + Duration::from_secs(45), |_, _| false);
        assert_eq!(att.rrc_state(), RrcState::Idle);
        // New traffic brings the channel back (promotion delay applies).
        let t2 = t1 + Duration::from_secs(45);
        let p = data_pkt(&att, 2, 100);
        assert_eq!(offer_uplink(&mut att, t2, &p), UplinkOutcome::Queued);
        let (_, _, data) = run_until(&mut att, t2, t2 + Duration::from_secs(10), |_, _| false);
        assert!(
            data.iter().any(|d| matches!(d, UmtsData::ToInternet(_))),
            "packet must eventually be served after re-promotion"
        );
        // By the end of the window the channel has been re-promoted and —
        // after a few more seconds of silence — possibly demoted back to
        // FACH, but never all the way to Idle yet.
        assert_ne!(att.rrc_state(), RrcState::Idle);
    }

    #[test]
    fn downlink_overflow_is_reported() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let local = att.local_addr().unwrap();
        let remote = Endpoint::new(Ipv4Address::new(192, 0, 2, 50), 9001);
        // Open the conntrack pinhole.
        let p = data_pkt(&att, 1, 50);
        offer_uplink(&mut att, t0, &p);
        let (t1, _, _) = run_until(&mut att, t0, t0 + Duration::from_secs(5), |a, _| {
            a.uplink_stats().served > 0
        });
        // Flood the downlink far beyond its buffer.
        let mut overflowed = false;
        for i in 0..600 {
            let reply = Packet::udp(
                PacketId(100 + i),
                remote,
                Endpoint::new(local, 9000),
                vec![0; 1000],
                t1,
            );
            if att.deliver_downlink(t1, reply) == DownlinkOutcome::DroppedOverflow {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "downlink buffer must be finite");
    }

    #[test]
    fn sustained_saturation_upgrades_uplink_rate() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let mut now = t0;
        let mut served_before_knee = 0u64;
        let mut id = 0u64;
        let knee = t0 + Duration::from_secs(55);
        let end = t0 + Duration::from_secs(70);
        let mut served_after_knee = 0u64;
        // Offer 1 Mbps (125 kB/s) continuously.
        while now < end {
            for _ in 0..2 {
                let p = data_pkt(&att, id, 996);
                id += 1;
                let _ = offer_uplink(&mut att, now, &p);
            }
            let out = att.poll(now);
            for d in out.data {
                if matches!(d, UmtsData::ToInternet(_)) {
                    if now < knee {
                        served_before_knee += 1;
                    } else {
                        served_after_knee += 1;
                    }
                }
            }
            now += Duration::from_millis(16); // ~2 pkts / 16 ms ≈ 1 Mbps
        }
        // Before the knee: initial DCH ≈ 160 kbps ≈ 19.5 pkt/s of 1024 B.
        let before_rate = served_before_knee as f64 / 55.0;
        let after_rate = served_after_knee as f64 / 15.0;
        assert!(
            after_rate > before_rate * 1.8,
            "post-upgrade rate {after_rate:.1} pkt/s should be ~2.6x the pre-upgrade {before_rate:.1} pkt/s"
        );
        assert_eq!(att.rrc_state(), RrcState::CellDch { upgraded: true });
    }

    #[test]
    fn ppp_terminate_fault_drops_the_session() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        att.inject_fault(t0, SessionFault::PppTerminate);
        let (t1, events, _) = run_until(&mut att, t0, t0 + Duration::from_secs(30), |a, _| {
            !a.is_connected() && a.local_addr().is_none()
        });
        assert!(events.contains(&UmtsEvent::Disconnected), "events: {events:?}");
        // The LCP exchange is fast: well under the keepalive horizon.
        assert!(t1 < t0 + Duration::from_secs(5), "terminate took too long: {t1}");
        // A redial succeeds.
        att.start(t1 + Duration::from_secs(1));
        let (_, _, _) =
            run_until(&mut att, t1, t1 + Duration::from_secs(60), |a, _| a.is_connected());
        assert!(att.is_connected());
    }

    #[test]
    fn modem_hang_starves_keepalives_until_reset() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        att.inject_fault(t0, SessionFault::ModemHang);
        assert!(att.modem_is_hung());
        // The PPP keepalive (10 s interval, 3 misses) detects the dead
        // line within ~40 s.
        let (t1, events, _) =
            run_until(&mut att, t0, t0 + Duration::from_secs(60), |a, _| !a.is_connected());
        assert!(events.contains(&UmtsEvent::Disconnected), "events: {events:?}");
        // Without a reset, redialing fails: the hung modem eats "AT".
        att.start(t1 + Duration::from_secs(1));
        let (t2, events, _) = run_until(
            &mut att,
            t1 + Duration::from_secs(1),
            t1 + Duration::from_secs(60),
            |_, evs| evs.iter().any(|e| matches!(e, UmtsEvent::Failed(_))),
        );
        assert!(events.contains(&UmtsEvent::Failed(DialError::NoCarrier)), "events: {events:?}");
        // After a power cycle the same attachment reconnects.
        att.reset_modem(t2 + Duration::from_secs(1));
        assert!(!att.modem_is_hung());
        att.start(t2 + Duration::from_secs(1));
        let (_, _, _) = run_until(
            &mut att,
            t2 + Duration::from_secs(1),
            t2 + Duration::from_secs(60),
            |a, _| a.is_connected(),
        );
        assert!(att.is_connected());
    }

    #[test]
    fn pap_reject_fault_fails_exactly_one_attempt() {
        let mut att = attachment();
        att.inject_fault(Instant::ZERO, SessionFault::PapReject);
        att.start(Instant::ZERO);
        let (t1, events, _) =
            run_until(&mut att, Instant::ZERO, Instant::from_secs(60), |_, evs| {
                evs.iter().any(|e| matches!(e, UmtsEvent::Failed(_)))
            });
        assert!(events.contains(&UmtsEvent::Failed(DialError::AuthFailed)), "events: {events:?}");
        // The reject was one-shot: the next attempt authenticates fine.
        att.start(t1 + Duration::from_secs(1));
        let (_, _, _) =
            run_until(&mut att, t1, t1 + Duration::from_secs(60), |a, _| a.is_connected());
        assert!(att.is_connected());
    }

    #[test]
    fn at_timeout_fault_stalls_one_dial_stage() {
        let mut att = attachment();
        att.inject_fault(Instant::ZERO, SessionFault::AtTimeout);
        att.start(Instant::ZERO); // the probe "AT" is swallowed
        let (_, events, _) =
            run_until(&mut att, Instant::ZERO, Instant::from_secs(30), |_, evs| {
                evs.iter().any(|e| matches!(e, UmtsEvent::Failed(_)))
            });
        // The probe stage deadline (10 s) is the only recourse.
        assert!(events.contains(&UmtsEvent::Failed(DialError::NoCarrier)), "events: {events:?}");
    }

    #[test]
    fn operator_detach_drops_session_and_reregisters() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        att.inject_fault(t0, SessionFault::OperatorDetach);
        let out = att.poll(t0);
        assert!(out.events.contains(&UmtsEvent::Disconnected), "events: {:?}", out.events);
        assert!(!att.is_connected());
        // After re-registration a redial succeeds.
        att.start(t0 + Duration::from_secs(1));
        let (_, _, _) =
            run_until(&mut att, t0, t0 + Duration::from_secs(60), |a, _| a.is_connected());
        assert!(att.is_connected());
    }

    #[test]
    fn rrc_release_fault_forces_repromotion() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        let p = data_pkt(&att, 1, 100);
        offer_uplink(&mut att, t0, &p);
        let (t1, _, _) = run_until(&mut att, t0, t0 + Duration::from_secs(2), |a, _| {
            a.uplink_stats().served > 0
        });
        assert!(matches!(att.rrc_state(), RrcState::CellDch { .. }));
        att.inject_fault(t1, SessionFault::RrcRelease);
        assert_eq!(att.rrc_state(), RrcState::Idle);
        assert!(att.is_connected(), "RRC release does not kill the PPP session");
        // New traffic re-promotes and is eventually served.
        let p = data_pkt(&att, 2, 100);
        assert_eq!(offer_uplink(&mut att, t1, &p), UplinkOutcome::Queued);
        let (_, _, data) = run_until(&mut att, t1, t1 + Duration::from_secs(10), |_, _| false);
        assert!(data.iter().any(|d| matches!(d, UmtsData::ToInternet(_))));
    }

    #[test]
    fn bearer_preemption_drops_backlog_and_grant() {
        let mut att = attachment();
        let t0 = connect(&mut att);
        for i in 0..20 {
            let p = data_pkt(&att, i, 500);
            let _ = offer_uplink(&mut att, t0, &p);
        }
        assert!(att.uplink_backlog() > 0);
        att.inject_fault(t0, SessionFault::BearerPreemption);
        assert_eq!(att.uplink_backlog(), 0, "preemption flushes the bearer queue");
        assert!(att.is_connected());
    }

    #[test]
    fn hostile_at_lines_in_every_dialer_state_leave_a_resettable_attachment() {
        use DialerState::*;
        let states = [
            Idle,
            Probe,
            CheckPin,
            WaitRegistration,
            SetApn,
            Dial,
            PppNegotiating,
            Connected,
            Terminating,
            Failed,
        ];
        for (seed, state) in states.into_iter().enumerate() {
            let mut att = attachment();
            let mut rng = SimRng::seed_from_u64(seed as u64);
            let stream = hostile_stream(&mut rng, 400);
            let mut now = Instant::ZERO;
            let mut out = UmtsPollOutput::default();
            att.dialer = state;
            for chunk in stream.chunks(rng.uniform_u64(1, 64) as usize) {
                for line in att.host_lines.feed(chunk) {
                    att.dialer_response(now, &line, &mut out);
                }
                for line in att.modem_lines.feed(chunk) {
                    att.modem.input_line(now, &line);
                }
                assert!(att.host_lines.pending() <= MAX_LINE_LEN, "{state:?}");
                assert!(att.modem_lines.pending() <= MAX_LINE_LEN, "{state:?}");
                now += Duration::from_millis(rng.uniform_u64(0, 50));
            }
            // Abort whatever the noise left in flight, power-cycle, redial.
            att.stop(now);
            let (t, _, _) = run_until(&mut att, now, now + Duration::from_secs(30), |a, _| {
                matches!(a.dialer, Idle | Failed)
            });
            att.reset_modem(t);
            att.start(t);
            let (_, events, _) =
                run_until(&mut att, t, t + Duration::from_secs(60), |a, _| a.is_connected());
            assert!(att.is_connected(), "{state:?}: events {events:?}");
        }
    }
}
