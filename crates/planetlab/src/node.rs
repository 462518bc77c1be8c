//! The PlanetLab node: interfaces, routing, filtering, slices and the
//! UMTS back-end.
//!
//! A [`Node`] assembles the pieces the paper modifies on a real PlanetLab
//! machine: the network stack (policy routing + netfilter), the slice
//! table with VNET+-style packet marking, the vsys `umts` script, and the
//! optional 3G attachment. Its data-plane entry points are
//! [`Node::send_from_slice`] (a slice emits a packet) and
//! [`Node::ingress`] (a packet arrives on an interface); the control-plane
//! entry point is [`Node::vsys_submit`] processed by [`Node::poll`].

use umtslab_net::filter::{ChainId, FilterKey, FilterVerdict, Firewall};
use umtslab_net::icmp;
use umtslab_net::iface::{Iface, IfaceId};
use umtslab_net::label::Label;
use umtslab_net::packet::{Mark, Packet};
use umtslab_net::route::{FlowKey, Rib, Route, TableId};
use umtslab_net::trace::{TraceKind, TraceLog};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_sim::time::Instant;
use umtslab_umts::attachment::{
    DialError, DownlinkOutcome, SessionFault, UmtsAttachment, UmtsData, UmtsEvent, UplinkOutcome,
};

use crate::slice::{Slice, SliceId, SliceTable};
use crate::umtscmd::{
    destination_rule, isolation_rule, source_rule, UmtsCmdError, UmtsPhase, UmtsRequest,
    UmtsResponse, UmtsStatus, ISOLATION_COMMENT, RULE_PRIO_DEST, RULE_PRIO_SRC, UMTS_TABLE,
};
use crate::vsys::{VsysChannel, VsysError};

/// The loopback interface id.
pub const LO: IfaceId = IfaceId(0);
/// The wired interface id.
pub const ETH0: IfaceId = IfaceId(1);
/// The PPP (UMTS) interface id.
pub const PPP0: IfaceId = IfaceId(2);

/// Where a slice-emitted packet ended up.
#[derive(Debug)]
pub enum EgressAction {
    /// Transmit on the wired interface (the caller owns the wire).
    Wire {
        /// Egress interface (always [`ETH0`] today).
        iface: IfaceId,
        /// The packet, marked and source-filled.
        packet: Packet,
    },
    /// Consumed by the UMTS attachment (queued on the uplink bearer).
    Umts,
    /// Delivered locally (destination was one of our own addresses).
    Local,
    /// Dropped; the reason was recorded in the trace log.
    Dropped(TraceKind),
}

/// Where a node's egress policy sends one marked, locally originated
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressFate {
    /// The destination is one of the node's addresses: delivered to the
    /// slice bound on the destination port, or dropped when none is.
    Local(Option<SliceId>),
    /// No policy rule yielded a route.
    NoRoute,
    /// The route's interface is down.
    IfaceDown(IfaceId),
    /// The mangle or the egress chain dropped the packet.
    Filtered,
    /// Transmitted on a wired interface.
    Wire(IfaceId),
    /// Routed to `ppp0` on a node without a 3G card.
    NoUmts,
    /// Routed to `ppp0` while the attachment's data call is down.
    BearerDown,
    /// Handed to the UMTS uplink bearer.
    Uplink,
}

/// The egress decision for one packet: its fate, and the source address
/// and mark the output path leaves on it (source selection and the
/// mangle chain rewrite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressVerdict {
    /// Where the packet goes; carries the routed interface where one
    /// decided the fate.
    pub fate: EgressFate,
    /// Source address, after source selection once routing found a route.
    pub src: Ipv4Address,
    /// Mark, after whatever part of the mangle and egress chains ran.
    pub mark: Mark,
}

/// One policy entry that fired while [`Node::egress_decision`] decided a
/// packet, reported in firing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressStep {
    /// Policy rule `rule` (an index into `Rib::rules`) selected route
    /// `route` (an index into its table's `routes`).
    Route {
        /// Index of the selecting rule.
        rule: usize,
        /// Index of the route in the rule's table.
        route: usize,
    },
    /// Rule `rule` of firewall chain `chain` matched.
    Filter {
        /// The chain.
        chain: ChainId,
        /// Index of the rule in the chain.
        rule: usize,
    },
}

/// A packet delivered to a bound socket.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// When it was delivered.
    pub at: Instant,
    /// The slice owning the bound socket.
    pub slice: SliceId,
    /// Interface it arrived on.
    pub iface: IfaceId,
    /// The packet.
    pub packet: Packet,
}

/// Output of [`Node::poll`].
#[derive(Debug, Default)]
pub struct NodePoll {
    /// UMTS lifecycle events that fired.
    pub umts_events: Vec<UmtsEvent>,
    /// Packets that left the operator network toward the internet (the
    /// caller routes them onward).
    pub to_internet: Vec<Packet>,
    /// Kernel-originated packets (ICMP echo replies) leaving on the wired
    /// interface; the caller owns the wire.
    pub wire_tx: Vec<Packet>,
}

/// One broken structural invariant, as found by [`Node::audit`].
#[derive(Debug, Clone)]
pub enum AuditFinding {
    /// A slice carries the reserved zero mark.
    ZeroMark(Slice),
    /// Two slices share one mark.
    SharedMark(Slice, Slice),
    /// The egress chain holds this many (more than one) isolation rules.
    DuplicateIsolationRules(usize),
    /// The bearer is down but the UMTS routing table still has routes.
    StaleUmtsTable,
    /// The bearer is down but UMTS policy rules remain.
    StaleUmtsRules,
    /// The bearer is down but the isolation rule remains on egress.
    StaleIsolationRule,
}

/// Interned trace places of one node, precomputed at construction so the
/// per-packet paths never call `format!`.
#[derive(Debug, Clone, Copy)]
struct Places {
    /// `<name>` — the bare node.
    node: Label,
    /// `<name>/no-slice`.
    no_slice: Label,
    /// `<name>/iface-down`.
    iface_down: Label,
    /// `<name>/no-umts`.
    no_umts: Label,
    /// `<name>/ppp0` (uplink queue drops).
    ppp0: Label,
    /// `<name>/ppp0-down`.
    ppp0_down: Label,
    /// `<name>/icmp`.
    icmp: Label,
    /// `<name>/operator`.
    operator: Label,
    /// `<name>/<iface>` per interface id.
    ifaces: [Label; 3],
}

impl Places {
    fn new(name: Label) -> Places {
        let p = |suffix: &str| Label::intern(&format!("{name}/{suffix}"));
        Places {
            node: name,
            no_slice: p("no-slice"),
            iface_down: p("iface-down"),
            no_umts: p("no-umts"),
            ppp0: p("ppp0"),
            ppp0_down: p("ppp0-down"),
            icmp: p("icmp"),
            operator: p("operator"),
            ifaces: [p("lo"), p("eth0"), p("ppp0")],
        }
    }
}

/// A PlanetLab node.
pub struct Node {
    /// Node name (e.g. `planetlab1.unina.it`), interned.
    pub name: Label,
    /// Precomputed trace places (no per-packet formatting).
    places: Places,
    /// Lazily interned `<name>/<slice>` places. Ordered map: slice id
    /// order, never hash order, even if diagnostics iterate it.
    slice_places: std::collections::BTreeMap<SliceId, Label>,
    ifaces: Vec<Iface>,
    /// Routing state (tables + policy rules).
    pub rib: Rib,
    /// Netfilter state.
    pub firewall: Firewall,
    /// Slice table.
    pub slices: SliceTable,
    /// Packet trace (enable for tests/diagnostics).
    pub trace: TraceLog,
    umts: Option<UmtsAttachment>,
    umts_vsys: VsysChannel<UmtsRequest, UmtsResponse>,
    umts_owner: Option<SliceId>,
    umts_phase: UmtsPhase,
    umts_destinations: Vec<Ipv4Cidr>,
    last_dial_error: Option<DialError>,
    /// Bound UDP ports → owning slice. Ordered map: [`Node::bound_ports`]
    /// iterates it, so its order must be the ports' numeric order.
    sockets: std::collections::BTreeMap<u16, SliceId>,
    delivered: Vec<Delivery>,
    /// Kernel-originated packets awaiting egress (ICMP echo replies).
    kernel_tx: Vec<Packet>,
    /// Echo replies addressed to this node, for ping-style tools.
    icmp_inbox: Vec<(Instant, Packet)>,
    /// Id space for kernel-originated packets, disjoint from traffic ids.
    next_kernel_id: u64,
}

impl Node {
    /// Creates a node with loopback up and `eth0`/`ppp0` down.
    pub fn new(name: impl Into<Label>) -> Node {
        let mut lo = Iface::ethernet(LO, "lo");
        lo.kind = umtslab_net::iface::IfaceKind::Loopback;
        lo.configure(Ipv4Address::new(127, 0, 0, 1), None);
        let eth0 = Iface::ethernet(ETH0, "eth0");
        let ppp0 = Iface::point_to_point(PPP0, "ppp0");
        let name = name.into();
        Node {
            name,
            places: Places::new(name),
            slice_places: std::collections::BTreeMap::new(),
            ifaces: vec![lo, eth0, ppp0],
            rib: Rib::new(),
            firewall: Firewall::new(),
            slices: SliceTable::new(),
            trace: TraceLog::new(),
            umts: None,
            umts_vsys: VsysChannel::new("umts"),
            umts_owner: None,
            umts_phase: UmtsPhase::Down,
            umts_destinations: Vec::new(),
            last_dial_error: None,
            sockets: std::collections::BTreeMap::new(),
            delivered: Vec::new(),
            kernel_tx: Vec::new(),
            icmp_inbox: Vec::new(),
            next_kernel_id: 1 << 48,
        }
    }

    /// Configures the wired interface and the main-table routes
    /// (on-link subnet + default via `gateway`).
    pub fn configure_eth(&mut self, addr: Ipv4Address, subnet: Ipv4Cidr, gateway: Ipv4Address) {
        self.iface_mut(ETH0).configure(addr, None);
        let main = self.rib.table_mut(TableId::MAIN);
        main.add(Route { prefsrc: Some(addr), ..Route::onlink(subnet, ETH0) });
        main.add(Route { prefsrc: Some(addr), ..Route::default_via(gateway, ETH0) });
    }

    /// Installs the 3G card and its operator attachment.
    pub fn attach_umts(&mut self, attachment: UmtsAttachment) {
        self.umts = Some(attachment);
    }

    /// Read access to an interface.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.0 as usize]
    }

    /// All interfaces, in id order (read-only; used by static analyzers).
    pub fn ifaces(&self) -> impl Iterator<Item = &Iface> {
        self.ifaces.iter()
    }

    /// The currently bound UDP ports and their owning slices, in port
    /// order (deterministic for analyzers and diagnostics).
    pub fn bound_ports(&self) -> Vec<(u16, SliceId)> {
        // The socket table is ordered, so iteration *is* port order — no
        // hash-order leak to sort away.
        self.sockets.iter().map(|(&p, &s)| (p, s)).collect()
    }

    fn iface_mut(&mut self, id: IfaceId) -> &mut Iface {
        &mut self.ifaces[id.0 as usize]
    }

    /// The interned `<name>/<slice>` trace place, formatted at most once
    /// per slice.
    fn slice_place(&mut self, slice: SliceId) -> Label {
        let name = self.name;
        *self.slice_places.entry(slice).or_insert_with(|| Label::intern(&format!("{name}/{slice}")))
    }

    /// The wired address.
    pub fn eth_addr(&self) -> Ipv4Address {
        self.iface(ETH0).addr
    }

    /// The UMTS address, if connected.
    pub fn ppp_addr(&self) -> Option<Ipv4Address> {
        let i = self.iface(PPP0);
        if i.up {
            Some(i.addr)
        } else {
            None
        }
    }

    /// Grants a slice access to the `umts` vsys script (done by the node
    /// administrator through the PlanetLab Central API in reality).
    pub fn grant_umts_access(&mut self, slice: SliceId) {
        self.umts_vsys.grant(slice);
    }

    /// Binds a UDP port to a slice's socket. The only failure is "port
    /// already bound", so the error carries no payload.
    #[allow(clippy::result_unit_err)]
    pub fn bind(&mut self, slice: SliceId, port: u16) -> Result<(), ()> {
        if self.sockets.contains_key(&port) {
            return Err(());
        }
        self.sockets.insert(port, slice);
        Ok(())
    }

    /// Releases a bound port.
    pub fn unbind(&mut self, port: u16) {
        self.sockets.remove(&port);
    }

    /// Drains packets delivered to local sockets.
    pub fn take_delivered(&mut self) -> Vec<Delivery> {
        let mut delivered = Vec::new();
        self.swap_delivered(&mut delivered);
        delivered
    }

    /// Drains packets delivered to local sockets into `buf`, which must be
    /// empty, and keeps `buf`'s capacity for the next deliveries. A caller
    /// that swaps one buffer back and forth allocates nothing.
    pub fn swap_delivered(&mut self, buf: &mut Vec<Delivery>) {
        debug_assert!(buf.is_empty(), "swapping would lose {} deliveries", buf.len());
        std::mem::swap(&mut self.delivered, buf);
    }

    /// Drains ICMP echo replies addressed to this node.
    pub fn take_icmp(&mut self) -> Vec<(Instant, Packet)> {
        std::mem::take(&mut self.icmp_inbox)
    }

    /// A slice emits a packet. Applies VNET+ marking, policy routing,
    /// source-address selection and the egress firewall.
    pub fn send_from_slice(
        &mut self,
        now: Instant,
        slice: SliceId,
        mut packet: Packet,
    ) -> EgressAction {
        // VNET+: stamp the emitting slice's mark.
        let Some(mark) = self.slices.mark_of(slice) else {
            self.trace.record(now, TraceKind::DropFilter, &packet, self.places.no_slice);
            return EgressAction::Dropped(TraceKind::DropFilter);
        };
        packet.mark = mark;
        let sent_place = self.slice_place(slice);
        self.trace.record(now, TraceKind::Sent, &packet, sent_place);

        self.egress(now, packet)
    }

    /// The output path every locally originated packet takes once it is
    /// marked: [`Node::egress_decision`] decides, and this executes the
    /// verdict — it writes the source and mark onto the packet, leaves a
    /// trace record for every drop and for every packet that reaches its
    /// interface, and hands the packet to the wire, a local socket or the
    /// UMTS uplink.
    fn egress(&mut self, now: Instant, mut packet: Packet) -> EgressAction {
        let verdict = self.egress_decision(&packet, |_| {});
        packet.src.addr = verdict.src;
        packet.mark = verdict.mark;
        let out = |dev: IfaceId| self.places.ifaces[dev.0 as usize];
        let (kind, place) = match verdict.fate {
            EgressFate::Local(owner) => return self.deliver_local(now, LO, owner, packet),
            EgressFate::NoRoute => (TraceKind::DropNoRoute, self.places.node),
            EgressFate::IfaceDown(_) => (TraceKind::DropNoRoute, self.places.iface_down),
            EgressFate::Filtered => (TraceKind::DropFilter, self.places.node),
            EgressFate::Wire(iface) => {
                self.trace.record(now, TraceKind::Egress, &packet, out(iface));
                return EgressAction::Wire { iface, packet };
            }
            EgressFate::NoUmts => {
                self.trace.record(now, TraceKind::Egress, &packet, out(PPP0));
                (TraceKind::DropNoRoute, self.places.no_umts)
            }
            EgressFate::BearerDown => {
                self.trace.record(now, TraceKind::Egress, &packet, out(PPP0));
                (TraceKind::DropNoRoute, self.places.ppp0_down)
            }
            EgressFate::Uplink => {
                self.trace.record(now, TraceKind::Egress, &packet, out(PPP0));
                match self.umts.as_mut().map(|att| att.send_uplink(now, &packet)) {
                    Some(UplinkOutcome::Queued) => return EgressAction::Umts,
                    Some(UplinkOutcome::DroppedOverflow) => {
                        (TraceKind::DropQueue, self.places.ppp0)
                    }
                    Some(UplinkOutcome::NotConnected) | None => {
                        (TraceKind::DropNoRoute, self.places.ppp0_down)
                    }
                }
            }
        };
        self.trace.record(now, kind, &packet, place);
        EgressAction::Dropped(kind)
    }

    /// The egress decision for a marked, locally originated packet over
    /// the node's current policy: local delivery, the policy-rule scan and
    /// table lookup, source-address selection for unbound sockets, the
    /// interface check, the mangle and egress chains, and the `ppp0`
    /// hand-off. `observe` sees the selecting rule and route and every
    /// chain rule that matched, in order. [`Node::send_from_slice`]
    /// executes the verdict, and the `umtslab-verify` analyzer calls this
    /// same function for every packet class it sweeps.
    pub fn egress_decision(
        &self,
        packet: &Packet,
        mut observe: impl FnMut(EgressStep),
    ) -> EgressVerdict {
        let mut verdict =
            EgressVerdict { fate: EgressFate::NoRoute, src: packet.src.addr, mark: packet.mark };
        // Local destination? Deliver without touching the wire.
        if self.is_local_addr(packet.dst.addr) {
            verdict.fate = EgressFate::Local(self.sockets.get(&packet.dst.port).copied());
            return verdict;
        }
        // Policy routing.
        let key = FlowKey { src: packet.src.addr, dst: packet.dst.addr, mark: packet.mark };
        let Some(route) = self.rib.resolve(&key) else {
            return verdict;
        };
        observe(EgressStep::Route { rule: route.rule, route: route.route });
        // A route may name an interface the node does not have: it has no
        // address and is never up.
        let iface = self.ifaces.get(route.dev.0 as usize);
        // Source-address selection, as the kernel does for unbound sockets.
        if verdict.src.is_unspecified() {
            verdict.src =
                route.prefsrc.or(iface.map(|i| i.addr)).unwrap_or(Ipv4Address::UNSPECIFIED);
        }
        // Egress interface must be up.
        if !iface.is_some_and(|i| i.up) {
            verdict.fate = EgressFate::IfaceDown(route.dev);
            return verdict;
        }
        // Netfilter output path (mangle + the isolation drop rule).
        let mut filter_key = FilterKey {
            src: verdict.src,
            dst: packet.dst.addr,
            protocol: packet.protocol,
            mark: packet.mark,
        };
        let filtered = self.firewall.process_output(&mut filter_key, route.dev, |chain, rule| {
            observe(EgressStep::Filter { chain, rule });
        });
        verdict.mark = filter_key.mark;
        verdict.fate = match (filtered, route.dev, &self.umts) {
            (FilterVerdict::Drop, _, _) => EgressFate::Filtered,
            (FilterVerdict::Accept, PPP0, None) => EgressFate::NoUmts,
            (FilterVerdict::Accept, PPP0, Some(att)) if att.is_connected() => EgressFate::Uplink,
            (FilterVerdict::Accept, PPP0, Some(_)) => EgressFate::BearerDown,
            (FilterVerdict::Accept, dev, _) => EgressFate::Wire(dev),
        };
        verdict
    }

    /// A packet arrives on an interface.
    pub fn ingress(&mut self, now: Instant, iface: IfaceId, packet: Packet) -> Option<Delivery> {
        self.trace.record(now, TraceKind::Ingress, &packet, self.places.ifaces[iface.0 as usize]);
        if packet.corrupted {
            self.trace.record(now, TraceKind::DropCorrupt, &packet, self.places.node);
            return None;
        }
        if !self.is_local_addr(packet.dst.addr) {
            // PlanetLab nodes do not forward.
            self.trace.record(now, TraceKind::DropNoRoute, &packet, self.places.node);
            return None;
        }
        // Kernel ICMP handling: answer echo requests, collect replies.
        if packet.protocol == umtslab_net::wire::Protocol::Icmp {
            if let Some(echo) = icmp::parse_echo(&packet) {
                if echo.ty == icmp::ECHO_REQUEST {
                    let id = umtslab_net::packet::PacketId(self.next_kernel_id);
                    self.next_kernel_id += 1;
                    if let Some(reply) = icmp::echo_reply_for(&packet, id, now) {
                        self.trace.record(now, TraceKind::Delivered, &packet, self.places.icmp);
                        self.kernel_tx.push(reply);
                    }
                } else {
                    self.trace.record(now, TraceKind::Delivered, &packet, self.places.icmp);
                    self.icmp_inbox.push((now, packet));
                }
                return None;
            }
            self.trace.record(now, TraceKind::DropCorrupt, &packet, self.places.node);
            return None;
        }
        let owner = self.sockets.get(&packet.dst.port).copied();
        match self.deliver_local(now, iface, owner, packet) {
            EgressAction::Local => self.delivered.last().cloned(),
            _ => None,
        }
    }

    /// Hands a packet to the slice owning its destination port, or drops
    /// it when no slice does.
    fn deliver_local(
        &mut self,
        now: Instant,
        iface: IfaceId,
        owner: Option<SliceId>,
        packet: Packet,
    ) -> EgressAction {
        let Some(slice) = owner else {
            self.trace.record(now, TraceKind::DropNoSocket, &packet, self.places.node);
            return EgressAction::Dropped(TraceKind::DropNoSocket);
        };
        let place = self.slice_place(slice);
        self.trace.record(now, TraceKind::Delivered, &packet, place);
        self.delivered.push(Delivery { at: now, slice, iface, packet });
        EgressAction::Local
    }

    fn is_local_addr(&self, addr: Ipv4Address) -> bool {
        self.ifaces.iter().any(|i| i.up && i.addr == addr)
    }

    // --- UMTS control plane ---------------------------------------------

    /// Front-end: a slice submits a `umts` command.
    pub fn vsys_submit(&mut self, slice: SliceId, request: UmtsRequest) -> Result<(), VsysError> {
        self.umts_vsys.submit(slice, request)
    }

    /// Front-end: a slice collects its responses.
    pub fn vsys_collect(&mut self, slice: SliceId) -> Vec<UmtsResponse> {
        self.umts_vsys.collect(slice)
    }

    /// The current UMTS status (as the back-end would report it).
    pub fn umts_status(&self) -> UmtsStatus {
        UmtsStatus {
            phase: self.umts_phase,
            owner: self.umts_owner,
            local_addr: self.ppp_addr(),
            operator: self.umts.as_ref().map(|a| a.profile().name.clone()).unwrap_or_default(),
            rrc: self.umts.as_ref().map(umtslab_umts::UmtsAttachment::rrc_state),
            destinations: self.umts_destinations.clone(),
        }
    }

    /// The attachment (for instrumentation).
    pub fn umts_attachment(&self) -> Option<&UmtsAttachment> {
        self.umts.as_ref()
    }

    /// Injects a session-level fault into the attached UMTS stack (the
    /// supervisor's chaos campaigns drive this). No-op without a card.
    pub fn inject_umts_fault(&mut self, now: Instant, fault: SessionFault) {
        if let Some(att) = self.umts.as_mut() {
            att.inject_fault(now, fault);
        }
    }

    /// Power-cycles the 3G card (watchdog reset; see
    /// [`UmtsAttachment::reset_modem`]). No-op without a card.
    pub fn reset_umts_modem(&mut self, now: Instant) {
        if let Some(att) = self.umts.as_mut() {
            att.reset_modem(now);
        }
    }

    /// Why the last connection attempt failed, if it did.
    pub fn last_dial_error(&self) -> Option<DialError> {
        self.last_dial_error
    }

    /// The earliest instant at which the node has internal work.
    pub fn next_wakeup(&self) -> Option<Instant> {
        let mut t = self.umts.as_ref().and_then(umtslab_umts::UmtsAttachment::next_wakeup);
        if self.umts_vsys.pending() > 0 || !self.kernel_tx.is_empty() {
            t = Some(t.map_or(Instant::ZERO, |x| x.min(Instant::ZERO)));
        }
        t
    }

    /// Advances the vsys back-end and the UMTS attachment.
    pub fn poll(&mut self, now: Instant) -> NodePoll {
        let mut out = NodePoll::default();
        // Kernel-originated egress (ICMP echo replies).
        for packet in std::mem::take(&mut self.kernel_tx) {
            if let EgressAction::Wire { packet, .. } = self.egress(now, packet) {
                out.wire_tx.push(packet);
            }
        }
        // Back-end: process queued commands.
        while let Some((slice, req)) = self.umts_vsys.backend_next() {
            let resp = self.umts_backend(now, slice, req);
            self.umts_vsys.backend_reply(slice, resp);
        }
        // Attachment.
        if let Some(att) = self.umts.as_mut() {
            let r = att.poll(now);
            for ev in &r.events {
                self.umts_lifecycle(now, *ev);
            }
            out.umts_events.extend(r.events);
            for d in r.data {
                match d {
                    UmtsData::ToInternet(p) => out.to_internet.push(p),
                    UmtsData::ToHost(p) => {
                        let _ = self.ingress(now, PPP0, p);
                    }
                }
            }
        }
        out
    }

    /// Delivers an internet-side packet to this node's UMTS address.
    pub fn deliver_umts_downlink(&mut self, now: Instant, packet: Packet) -> DownlinkOutcome {
        let Some(att) = self.umts.as_mut() else {
            return DownlinkOutcome::NotConnected;
        };
        // Header-struct copy; the payload allocation is shared.
        let outcome = att.deliver_downlink(now, packet.clone());
        if outcome == DownlinkOutcome::BlockedByFirewall {
            self.trace.record(now, TraceKind::DropOperatorFirewall, &packet, self.places.operator);
        }
        outcome
    }

    fn umts_backend(&mut self, now: Instant, slice: SliceId, req: UmtsRequest) -> UmtsResponse {
        if self.umts.is_none() {
            return UmtsResponse::Error(UmtsCmdError::NoDevice);
        }
        match req {
            UmtsRequest::Status => UmtsResponse::Status(self.umts_status()),
            UmtsRequest::Start => {
                match self.umts_owner {
                    Some(owner) if owner != slice => {
                        return UmtsResponse::Error(UmtsCmdError::LockedByOtherSlice(owner));
                    }
                    Some(_) => return UmtsResponse::Error(UmtsCmdError::AlreadyStarted),
                    None => {}
                }
                self.umts_owner = Some(slice);
                self.umts_phase = UmtsPhase::Starting;
                self.last_dial_error = None;
                self.umts.as_mut().expect("checked above").start(now);
                UmtsResponse::Accepted
            }
            UmtsRequest::Stop => {
                if self.umts_owner != Some(slice) {
                    return UmtsResponse::Error(self.not_owner_error());
                }
                self.umts_phase = UmtsPhase::Stopping;
                self.umts.as_mut().expect("checked above").stop(now);
                UmtsResponse::Accepted
            }
            UmtsRequest::AddDestination(dest) => {
                if self.umts_owner != Some(slice) {
                    return UmtsResponse::Error(self.not_owner_error());
                }
                if self.umts_destinations.contains(&dest) {
                    return UmtsResponse::Error(UmtsCmdError::DuplicateDestination);
                }
                self.umts_destinations.push(dest);
                if self.umts_phase == UmtsPhase::Up {
                    let mark = self.slices.mark_of(slice).expect("owner slice exists");
                    self.rib.add_rule(destination_rule(mark, dest));
                }
                UmtsResponse::Accepted
            }
            UmtsRequest::DelDestination(dest) => {
                if self.umts_owner != Some(slice) {
                    return UmtsResponse::Error(self.not_owner_error());
                }
                let Some(pos) = self.umts_destinations.iter().position(|d| *d == dest) else {
                    return UmtsResponse::Error(UmtsCmdError::UnknownDestination);
                };
                self.umts_destinations.remove(pos);
                self.rib.remove_rules_where(|r| {
                    r.priority == RULE_PRIO_DEST && r.selector.dst == Some(dest)
                });
                UmtsResponse::Accepted
            }
        }
    }

    fn not_owner_error(&self) -> UmtsCmdError {
        match self.umts_owner {
            Some(owner) => UmtsCmdError::LockedByOtherSlice(owner),
            None => UmtsCmdError::NotStarted,
        }
    }

    fn umts_lifecycle(&mut self, _now: Instant, event: UmtsEvent) {
        match event {
            UmtsEvent::Connected { local, peer } => {
                self.iface_mut(PPP0).configure(local, Some(peer));
                let Some(owner) = self.umts_owner else { return };
                let Some(mark) = self.slices.mark_of(owner) else { return };
                self.umts_phase = UmtsPhase::Up;
                // The dedicated table with its single default route.
                self.rib
                    .table_mut(UMTS_TABLE)
                    .add(Route { prefsrc: Some(local), ..Route::default_dev(PPP0) });
                // Rule (i) per registered destination.
                for dest in self.umts_destinations.clone() {
                    self.rib.add_rule(destination_rule(mark, dest));
                }
                // Rule (ii): packets sourced from the ppp0 address.
                self.rib.add_rule(source_rule(local));
                // The isolation drop rule.
                self.firewall.egress.insert(isolation_rule(PPP0, mark));
            }
            UmtsEvent::Failed(err) => {
                self.last_dial_error = Some(err);
                self.teardown_umts_state();
            }
            UmtsEvent::Disconnected => {
                self.teardown_umts_state();
            }
        }
    }

    /// Cheap structural audit of the node's isolation state.
    ///
    /// Returns one finding per broken basic invariant: duplicate or zero
    /// slice marks (VNET+ classification must be injective), duplicated
    /// isolation rules, and stale UMTS policy state left behind while the
    /// bearer is down. This is the `debug_assert!` hook the testbed runs;
    /// `umtslab-verify` reports the same findings beside its packet-space
    /// analysis.
    pub fn audit(&self) -> Vec<AuditFinding> {
        let mut findings = Vec::new();
        let slices: Vec<_> = self.slices.iter().collect();
        for (i, a) in slices.iter().enumerate() {
            if a.mark.is_none() {
                findings.push(AuditFinding::ZeroMark((*a).clone()));
            }
            for b in &slices[i + 1..] {
                if a.mark == b.mark {
                    findings.push(AuditFinding::SharedMark((*a).clone(), (*b).clone()));
                }
            }
        }
        let isolation_rules =
            self.firewall.egress.rules().iter().filter(|r| r.comment == ISOLATION_COMMENT).count();
        if isolation_rules > 1 {
            findings.push(AuditFinding::DuplicateIsolationRules(isolation_rules));
        }
        // While `Stopping` the connection is still up and its state is
        // legitimately installed; only a fully `Down` node must be clean.
        if self.umts_phase == UmtsPhase::Down {
            if self.rib.table(UMTS_TABLE).is_some_and(|t| !t.is_empty()) {
                findings.push(AuditFinding::StaleUmtsTable);
            }
            if self
                .rib
                .rules()
                .iter()
                .any(|r| r.priority == RULE_PRIO_DEST || r.priority == RULE_PRIO_SRC)
            {
                findings.push(AuditFinding::StaleUmtsRules);
            }
            if isolation_rules > 0 {
                findings.push(AuditFinding::StaleIsolationRule);
            }
        }
        findings
    }

    fn teardown_umts_state(&mut self) {
        self.iface_mut(PPP0).deconfigure();
        self.rib.drop_table(UMTS_TABLE);
        self.rib
            .remove_rules_where(|r| r.priority == RULE_PRIO_DEST || r.priority == RULE_PRIO_SRC);
        self.firewall.egress.remove_by_comment(ISOLATION_COMMENT);
        self.umts_owner = None;
        self.umts_phase = UmtsPhase::Down;
        self.umts_destinations.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_net::packet::{PacketId, PacketIdAllocator};
    use umtslab_net::wire::Endpoint;
    use umtslab_sim::time::Duration;
    use umtslab_umts::at::DeviceProfile;
    use umtslab_umts::operator::OperatorProfile;
    use umtslab_umts::ppp::Credentials;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn test_node() -> Node {
        let mut n = Node::new("planetlab1.unina.it");
        n.configure_eth(
            a("143.225.229.5"),
            "143.225.229.0/24".parse().unwrap(),
            a("143.225.229.1"),
        );
        n
    }

    fn node_with_umts() -> (Node, SliceId) {
        let mut n = test_node();
        let att = UmtsAttachment::new(
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
            7,
            Instant::ZERO,
        );
        n.attach_umts(att);
        let s = n.slices.create("unina_umts");
        n.grant_umts_access(s);
        (n, s)
    }

    /// Polls the node forward until `pred` or the horizon.
    fn run_node(
        n: &mut Node,
        from: Instant,
        horizon: Instant,
        mut pred: impl FnMut(&Node) -> bool,
    ) -> Instant {
        let mut now = from;
        loop {
            let _ = n.poll(now);
            if pred(n) || now >= horizon {
                return now;
            }
            now = match n.next_wakeup() {
                Some(t) if t > now => t.min(horizon),
                _ => now + Duration::from_millis(1),
            };
        }
    }

    fn connect(n: &mut Node, s: SliceId) -> Instant {
        n.vsys_submit(s, UmtsRequest::Start).unwrap();
        let t = run_node(n, Instant::ZERO, Instant::from_secs(60), |n| {
            n.umts_status().phase == UmtsPhase::Up
        });
        assert_eq!(n.umts_status().phase, UmtsPhase::Up, "responses: {:?}", n.umts_status());
        t
    }

    fn udp(alloc: &mut PacketIdAllocator, dst: Ipv4Address, dport: u16, now: Instant) -> Packet {
        Packet::udp(
            alloc.allocate(),
            Endpoint::new(Ipv4Address::UNSPECIFIED, 9000),
            Endpoint::new(dst, dport),
            vec![0; 32],
            now,
        )
    }

    #[test]
    fn wired_egress_uses_main_table_and_fills_source() {
        let mut n = test_node();
        let s = n.slices.create("probe");
        let mut alloc = PacketIdAllocator::new();
        let p = udp(&mut alloc, a("138.96.20.1"), 9001, Instant::ZERO);
        match n.send_from_slice(Instant::ZERO, s, p) {
            EgressAction::Wire { iface, packet } => {
                assert_eq!(iface, ETH0);
                assert_eq!(packet.src.addr, a("143.225.229.5"));
                assert_eq!(packet.mark, n.slices.mark_of(s).unwrap());
            }
            other => panic!("expected wired egress, got {other:?}"),
        }
    }

    #[test]
    fn unknown_slice_is_dropped() {
        let mut n = test_node();
        let mut alloc = PacketIdAllocator::new();
        let p = udp(&mut alloc, a("138.96.20.1"), 9001, Instant::ZERO);
        assert!(matches!(
            n.send_from_slice(Instant::ZERO, SliceId(9999), p),
            EgressAction::Dropped(TraceKind::DropFilter)
        ));
    }

    #[test]
    fn no_route_is_dropped() {
        let mut n = Node::new("bare");
        let s = n.slices.create("x");
        let mut alloc = PacketIdAllocator::new();
        let p = udp(&mut alloc, a("8.8.8.8"), 1, Instant::ZERO);
        assert!(matches!(
            n.send_from_slice(Instant::ZERO, s, p),
            EgressAction::Dropped(TraceKind::DropNoRoute)
        ));
    }

    #[test]
    fn route_to_an_unknown_interface_drops_as_interface_down() {
        // Regression: the route's device indexed the interface table and
        // panicked ("index out of bounds: the len is 3 but the index is 7").
        let mut n = Node::new("bare");
        let s = n.slices.create("x");
        n.rib
            .table_mut(TableId::MAIN)
            .add(Route::onlink("10.0.0.0/8".parse().unwrap(), IfaceId(7)));
        let mut alloc = PacketIdAllocator::new();
        let p = udp(&mut alloc, a("10.0.0.1"), 1, Instant::ZERO);
        let verdict = n.egress_decision(&p, |_| {});
        assert_eq!(verdict.fate, EgressFate::IfaceDown(IfaceId(7)));
        assert_eq!(verdict.src, Ipv4Address::UNSPECIFIED);
        assert!(matches!(
            n.send_from_slice(Instant::ZERO, s, p),
            EgressAction::Dropped(TraceKind::DropNoRoute)
        ));
    }

    #[test]
    fn ingress_delivers_to_bound_socket() {
        let mut n = test_node();
        let s = n.slices.create("recv");
        n.bind(s, 9001).unwrap();
        let mut alloc = PacketIdAllocator::new();
        let mut p = udp(&mut alloc, a("143.225.229.5"), 9001, Instant::ZERO);
        p.src = Endpoint::new(a("138.96.20.1"), 9000);
        let d = n.ingress(Instant::from_millis(5), ETH0, p).expect("delivered");
        assert_eq!(d.slice, s);
        assert_eq!(d.iface, ETH0);
        assert_eq!(n.take_delivered().len(), 1);
        assert!(n.take_delivered().is_empty());
    }

    #[test]
    fn ingress_drops_unbound_port_and_corruption_and_foreign() {
        let mut n = test_node();
        n.trace.set_enabled(true);
        let mut alloc = PacketIdAllocator::new();
        // Unbound port.
        let p = udp(&mut alloc, a("143.225.229.5"), 4444, Instant::ZERO);
        assert!(n.ingress(Instant::ZERO, ETH0, p).is_none());
        // Corrupted packet.
        let mut p = udp(&mut alloc, a("143.225.229.5"), 4444, Instant::ZERO);
        p.corrupted = true;
        assert!(n.ingress(Instant::ZERO, ETH0, p).is_none());
        // Not addressed to us: nodes do not forward.
        let p = udp(&mut alloc, a("1.2.3.4"), 4444, Instant::ZERO);
        assert!(n.ingress(Instant::ZERO, ETH0, p).is_none());
        assert_eq!(n.trace.of_kind(TraceKind::DropNoSocket).count(), 1);
        assert_eq!(n.trace.of_kind(TraceKind::DropCorrupt).count(), 1);
        assert_eq!(n.trace.of_kind(TraceKind::DropNoRoute).count(), 1);
    }

    #[test]
    fn double_bind_fails() {
        let mut n = test_node();
        let s1 = n.slices.create("a");
        let s2 = n.slices.create("b");
        n.bind(s1, 9001).unwrap();
        assert!(n.bind(s2, 9001).is_err());
        n.unbind(9001);
        assert!(n.bind(s2, 9001).is_ok());
    }

    #[test]
    fn vsys_acl_gates_umts_commands() {
        let (mut n, _s) = node_with_umts();
        let outsider = n.slices.create("outsider");
        assert_eq!(n.vsys_submit(outsider, UmtsRequest::Start), Err(VsysError::NotAuthorized));
    }

    #[test]
    fn start_locks_and_connects_and_installs_state() {
        let (mut n, s) = node_with_umts();
        connect(&mut n, s);
        let responses = n.vsys_collect(s);
        assert_eq!(responses, vec![UmtsResponse::Accepted]);
        let status = n.umts_status();
        assert_eq!(status.owner, Some(s));
        assert!(status.local_addr.is_some());
        // Routing state: the UMTS table and the source rule exist.
        assert!(!n.rib.table(UMTS_TABLE).unwrap().is_empty());
        assert_eq!(n.rib.rules().iter().filter(|r| r.priority == RULE_PRIO_SRC).count(), 1);
        // The isolation rule is installed.
        assert_eq!(
            n.firewall.egress.rules().iter().filter(|r| r.comment == ISOLATION_COMMENT).count(),
            1
        );
    }

    #[test]
    fn second_slice_cannot_start_while_locked() {
        let (mut n, s) = node_with_umts();
        let other = n.slices.create("other");
        n.grant_umts_access(other);
        connect(&mut n, s);
        n.vsys_submit(other, UmtsRequest::Start).unwrap();
        let _ = n.poll(Instant::from_secs(61));
        assert_eq!(
            n.vsys_collect(other),
            vec![UmtsResponse::Error(UmtsCmdError::LockedByOtherSlice(s))]
        );
    }

    #[test]
    fn registered_destination_routes_over_umts_others_over_eth() {
        let (mut n, s) = node_with_umts();
        let dest: Ipv4Cidr = "138.96.0.0/16".parse().unwrap();
        // Before `start`, adding a destination is refused by the back-end.
        n.vsys_submit(s, UmtsRequest::AddDestination(dest)).unwrap();
        let _ = n.poll(Instant::ZERO);
        assert_eq!(n.vsys_collect(s), vec![UmtsResponse::Error(UmtsCmdError::NotStarted)]);
        let t = connect(&mut n, s);
        n.vsys_submit(s, UmtsRequest::AddDestination(dest)).unwrap();
        let _ = n.poll(t);
        let mut alloc = PacketIdAllocator::new();
        // To the registered destination: consumed by the attachment.
        let p = udp(&mut alloc, a("138.96.20.1"), 9001, t);
        assert!(matches!(n.send_from_slice(t, s, p), EgressAction::Umts));
        // Elsewhere: the wired path.
        let p = udp(&mut alloc, a("8.8.8.8"), 9001, t);
        assert!(matches!(n.send_from_slice(t, s, p), EgressAction::Wire { iface: ETH0, .. }));
        // Another slice to the registered destination: the wired path.
        let other = n.slices.create("other");
        let p = udp(&mut alloc, a("138.96.20.1"), 9001, t);
        assert!(matches!(n.send_from_slice(t, other, p), EgressAction::Wire { iface: ETH0, .. }));
    }

    #[test]
    fn foreign_slice_binding_to_umts_address_is_dropped() {
        let (mut n, s) = node_with_umts();
        let t = connect(&mut n, s);
        let ppp = n.ppp_addr().unwrap();
        let other = n.slices.create("other");
        n.trace.set_enabled(true);
        let mut alloc = PacketIdAllocator::new();
        // The paper's special case: a foreign slice binds to the UMTS
        // address. The source rule steers everything sourced from the ppp0
        // address into the UMTS table, and the egress isolation rule then
        // drops the foreign mark — the packet never leaks out eth0 with
        // the UMTS source address.
        let mut p = udp(&mut alloc, a("8.8.8.8"), 9001, t);
        p.src.addr = ppp;
        assert!(matches!(
            n.send_from_slice(t, other, p),
            EgressAction::Dropped(TraceKind::DropFilter)
        ));
        // Packets from the foreign slice to the PPP peer address: these
        // resolve via main table to eth0 in our topology, so to exercise
        // the drop rule directly, install a bogus route and check the
        // firewall stops it.
        let peer = n.iface(PPP0).peer.unwrap();
        n.rib.table_mut(TableId::MAIN).add(Route::onlink(Ipv4Cidr::host(peer), PPP0));
        let p = udp(&mut alloc, peer, 9001, t);
        assert!(matches!(
            n.send_from_slice(t, other, p),
            EgressAction::Dropped(TraceKind::DropFilter)
        ));
        // While the owner to the same address passes the filter.
        let p = udp(&mut alloc, peer, 9001, t);
        assert!(matches!(n.send_from_slice(t, s, p), EgressAction::Umts));
    }

    #[test]
    fn stop_unlocks_and_removes_state() {
        let (mut n, s) = node_with_umts();
        let t = connect(&mut n, s);
        let _ = n.vsys_collect(s);
        n.vsys_submit(s, UmtsRequest::Stop).unwrap();
        let end = run_node(&mut n, t, t + Duration::from_secs(30), |n| {
            n.umts_status().phase == UmtsPhase::Down
        });
        let status = n.umts_status();
        assert_eq!(status.phase, UmtsPhase::Down);
        assert_eq!(status.owner, None);
        assert!(n.ppp_addr().is_none());
        assert!(n.rib.table(UMTS_TABLE).is_none());
        assert!(n.rib.rules().iter().all(|r| r.priority == 32_766));
        assert!(n.firewall.egress.rules().is_empty());
        let _ = end;
    }

    #[test]
    fn injected_ppp_drop_tears_down_cleanly_and_node_can_redial() {
        let (mut n, s) = node_with_umts();
        let t = connect(&mut n, s);
        let _ = n.vsys_collect(s);

        n.inject_umts_fault(t, SessionFault::PppTerminate);
        let down = run_node(&mut n, t, t + Duration::from_secs(30), |n| {
            n.umts_status().phase == UmtsPhase::Down
        });
        assert_eq!(n.umts_status().phase, UmtsPhase::Down);
        assert!(n.audit().is_empty(), "stale UMTS state after drop: {:?}", n.audit());

        // A watchdog reset followed by a fresh Start must bring it back.
        n.reset_umts_modem(down);
        n.vsys_submit(s, UmtsRequest::Start).unwrap();
        let up = run_node(&mut n, down, down + Duration::from_secs(60), |n| {
            n.umts_status().phase == UmtsPhase::Up
        });
        assert_eq!(n.umts_status().phase, UmtsPhase::Up);
        let _ = up;
    }

    #[test]
    fn fault_passthroughs_without_a_card_are_noops() {
        let mut n = test_node();
        n.inject_umts_fault(Instant::ZERO, SessionFault::ModemHang);
        n.reset_umts_modem(Instant::ZERO);
        assert_eq!(n.umts_status().phase, UmtsPhase::Down);
    }

    #[test]
    fn add_del_destination_bookkeeping() {
        let (mut n, s) = node_with_umts();
        let t = connect(&mut n, s);
        let _ = n.vsys_collect(s);
        let dest: Ipv4Cidr = "138.96.0.0/16".parse().unwrap();
        n.vsys_submit(s, UmtsRequest::AddDestination(dest)).unwrap();
        n.vsys_submit(s, UmtsRequest::AddDestination(dest)).unwrap();
        n.vsys_submit(s, UmtsRequest::DelDestination(dest)).unwrap();
        n.vsys_submit(s, UmtsRequest::DelDestination(dest)).unwrap();
        let _ = n.poll(t);
        let responses = n.vsys_collect(s);
        assert_eq!(
            responses,
            vec![
                UmtsResponse::Accepted,
                UmtsResponse::Error(UmtsCmdError::DuplicateDestination),
                UmtsResponse::Accepted,
                UmtsResponse::Error(UmtsCmdError::UnknownDestination),
            ]
        );
        assert!(n.umts_status().destinations.is_empty());
        assert!(n.rib.rules().iter().all(|r| r.priority != RULE_PRIO_DEST));
    }

    #[test]
    fn status_without_device_errors() {
        let mut n = test_node();
        let s = n.slices.create("x");
        n.grant_umts_access(s);
        n.vsys_submit(s, UmtsRequest::Start).unwrap();
        let _ = n.poll(Instant::ZERO);
        assert_eq!(n.vsys_collect(s), vec![UmtsResponse::Error(UmtsCmdError::NoDevice)]);
    }

    #[test]
    fn icmp_echo_request_is_answered_by_the_kernel() {
        let mut n = test_node();
        let req = umtslab_net::icmp::echo_request(
            PacketId(50),
            a("138.96.20.10"),
            a("143.225.229.5"),
            0x1234,
            1,
            b"timestamp",
            Instant::ZERO,
        );
        assert!(n.ingress(Instant::from_millis(1), ETH0, req).is_none());
        let out = n.poll(Instant::from_millis(1));
        assert_eq!(out.wire_tx.len(), 1);
        let reply = &out.wire_tx[0];
        assert_eq!(reply.dst.addr, a("138.96.20.10"));
        assert_eq!(reply.src.addr, a("143.225.229.5"));
        let echo = umtslab_net::icmp::parse_echo(reply).unwrap();
        assert_eq!(echo.ty, umtslab_net::icmp::ECHO_REPLY);
        assert_eq!(echo.ident, 0x1234);
        assert_eq!(echo.data, b"timestamp");
        // Nothing left queued.
        assert!(n.poll(Instant::from_millis(2)).wire_tx.is_empty());
    }

    #[test]
    fn icmp_echo_reply_lands_in_the_inbox() {
        let mut n = test_node();
        let req = umtslab_net::icmp::echo_request(
            PacketId(51),
            a("143.225.229.5"),
            a("138.96.20.10"),
            9,
            2,
            b"",
            Instant::ZERO,
        );
        let reply =
            umtslab_net::icmp::echo_reply_for(&req, PacketId(52), Instant::from_millis(3)).unwrap();
        assert!(n.ingress(Instant::from_millis(3), ETH0, reply).is_none());
        let inbox = n.take_icmp();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0, Instant::from_millis(3));
        assert!(n.take_icmp().is_empty());
    }

    #[test]
    fn malformed_icmp_is_dropped() {
        let mut n = test_node();
        n.trace.set_enabled(true);
        let mut req = umtslab_net::icmp::echo_request(
            PacketId(53),
            a("138.96.20.10"),
            a("143.225.229.5"),
            1,
            1,
            b"x",
            Instant::ZERO,
        );
        let mut damaged = req.payload.to_vec();
        damaged[2] ^= 0xFF; // break the checksum
        req.payload = damaged.into();
        assert!(n.ingress(Instant::ZERO, ETH0, req).is_none());
        assert_eq!(n.poll(Instant::ZERO).wire_tx.len(), 0);
        assert_eq!(n.trace.of_kind(TraceKind::DropCorrupt).count(), 1);
    }

    #[test]
    fn kernel_reply_the_uplink_refuses_leaves_a_drop_record() {
        let (mut n, s) = node_with_umts();
        n.trace.set_enabled(true);
        let t = connect(&mut n, s);
        let ppp = n.ppp_addr().expect("connected");
        // Let kernel traffic out of ppp0, so the reply reaches the uplink.
        n.firewall.egress.remove_by_comment(ISOLATION_COMMENT);
        let req =
            umtslab_net::icmp::echo_request(PacketId(55), a("138.96.20.10"), ppp, 1, 1, b"", t);
        assert!(n.ingress(t, PPP0, req).is_none());
        // The detach refuses the uplink before the node sees the teardown.
        n.inject_umts_fault(t, SessionFault::OperatorDetach);
        let counts = |n: &Node| {
            let dropped = n.trace.of_kind(TraceKind::DropQueue).count()
                + n.trace.of_kind(TraceKind::DropNoRoute).count();
            (n.trace.of_kind(TraceKind::Egress).count(), dropped)
        };
        let (egress, dropped) = counts(&n);
        assert!(n.poll(t).wire_tx.is_empty());
        assert_eq!(
            counts(&n),
            (egress + 1, dropped + 1),
            "the refused reply must leave a drop record after its egress"
        );
    }

    #[test]
    fn kernel_reply_pends_a_wakeup() {
        let mut n = test_node();
        assert_eq!(n.next_wakeup(), None);
        let req = umtslab_net::icmp::echo_request(
            PacketId(54),
            a("138.96.20.10"),
            a("143.225.229.5"),
            1,
            1,
            b"",
            Instant::ZERO,
        );
        let _ = n.ingress(Instant::ZERO, ETH0, req);
        assert!(n.next_wakeup().is_some(), "kernel egress must request a poll");
    }

    #[test]
    fn local_delivery_between_slices() {
        let mut n = test_node();
        let sender = n.slices.create("tx");
        let receiver = n.slices.create("rx");
        n.bind(receiver, 5000).unwrap();
        let mut alloc = PacketIdAllocator::new();
        let p = udp(&mut alloc, a("143.225.229.5"), 5000, Instant::ZERO);
        assert!(matches!(n.send_from_slice(Instant::ZERO, sender, p), EgressAction::Local));
        let d = n.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].slice, receiver);
        assert_eq!(d[0].packet.id, PacketId(0));
    }
}
