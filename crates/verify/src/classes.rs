//! Symbolic packet-class enumeration.
//!
//! The fate of a locally emitted packet depends only on a handful of
//! header fields — emitting slice (hence mark), source address,
//! destination address and destination port — and every rule, route and
//! filter in the node partitions that space along CIDR boundaries. Two
//! packets whose fields fall on the same side of *every* boundary are
//! routed and filtered identically, so it suffices to evaluate one
//! concrete representative per equivalence class.
//!
//! [`enumerate`] collects every prefix mentioned anywhere in the node's
//! policy (rule selectors, route destinations, filter matchers, interface
//! addresses and peers), derives boundary representatives from each
//! (network base, an interior address, the last covered address), adds a
//! canonical far-outside destination, and takes the cross product with
//! the senders (every slice plus the unmarked kernel path) and the
//! bound/unbound destination ports.

use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;

/// The sender side of a packet class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// A slice emits through `send_from_slice` (mark stamped by VNET+).
    Slice(SliceId),
    /// The kernel emits (ICMP replies): no slice, mark zero. Not
    /// replayable through the slice API; used for static invariants only.
    Kernel,
}

/// One packet equivalence class, identified by a concrete representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketClass {
    /// Who emits the packet.
    pub sender: Sender,
    /// Source address (unspecified models an unbound socket).
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Destination UDP port.
    pub dport: u16,
}

/// A destination far from any prefix a testbed node ever configures; it
/// exercises the default-route fallback path.
pub const FAR_DESTINATION: Ipv4Address = Ipv4Address::new(192, 0, 2, 123);

fn push_unique(out: &mut Vec<Ipv4Address>, addr: Ipv4Address) {
    if !out.contains(&addr) {
        out.push(addr);
    }
}

/// Boundary representatives of one prefix: the network base, one interior
/// address and the last covered address.
fn representatives(out: &mut Vec<Ipv4Address>, cidr: Ipv4Cidr) {
    let base = cidr.address().to_u32();
    let span = match cidr.prefix_len() {
        0 => u32::MAX,
        len if len >= 32 => 0,
        len => !0u32 >> len,
    };
    push_unique(out, Ipv4Address::from_u32(base));
    push_unique(out, Ipv4Address::from_u32(base | (span >> 1)));
    push_unique(out, Ipv4Address::from_u32(base | span));
}

/// Every prefix the node's policy mentions anywhere.
fn policy_prefixes(node: &Node) -> Vec<Ipv4Cidr> {
    let mut prefixes = Vec::new();
    let mut add = |c: Option<Ipv4Cidr>| {
        if let Some(c) = c {
            if !prefixes.contains(&c) {
                prefixes.push(c);
            }
        }
    };
    for rule in node.rib.rules() {
        add(rule.selector.src);
        add(rule.selector.dst);
    }
    for (_, table) in node.rib.tables() {
        for route in table.routes() {
            add(Some(route.dest));
        }
    }
    for chain in [&node.firewall.mangle_output, &node.firewall.egress] {
        for rule in chain.rules() {
            add(rule.matcher.src);
            add(rule.matcher.dst);
        }
    }
    for dest in node.umts_status().destinations {
        add(Some(dest));
    }
    prefixes
}

/// The candidate destination addresses for a node: boundary
/// representatives of every policy prefix, every interface address and
/// peer, and the canonical far-outside destination. Sorted numerically so
/// the sweep order — and therefore every report — is deterministic.
pub fn destination_candidates(node: &Node) -> Vec<Ipv4Address> {
    let mut out = Vec::new();
    for cidr in policy_prefixes(node) {
        representatives(&mut out, cidr);
    }
    for iface in node.ifaces() {
        if !iface.addr.is_unspecified() {
            push_unique(&mut out, iface.addr);
        }
        if let Some(peer) = iface.peer {
            push_unique(&mut out, peer);
        }
    }
    push_unique(&mut out, FAR_DESTINATION);
    out.sort_by_key(|a| a.to_u32());
    out
}

/// The candidate source addresses: the unspecified address (an unbound
/// socket, the common case) plus every configured interface address — the
/// latter models a slice explicitly binding an address, including the
/// paper's special case of a foreign slice binding the UMTS address.
pub fn source_candidates(node: &Node) -> Vec<Ipv4Address> {
    let mut out = vec![Ipv4Address::UNSPECIFIED];
    for iface in node.ifaces() {
        if iface.up && !iface.addr.is_unspecified() {
            push_unique(&mut out, iface.addr);
        }
    }
    out
}

/// The destination ports worth distinguishing: one bound port per owning
/// slice (local delivery succeeds) and one guaranteed-unbound port (local
/// delivery fails with no-socket).
pub fn port_candidates(node: &Node) -> Vec<u16> {
    let bound = node.bound_ports();
    let mut out: Vec<u16> = bound.iter().map(|(p, _)| *p).collect();
    let mut unbound = 40_000u16;
    while bound.iter().any(|(p, _)| *p == unbound) {
        unbound += 1;
    }
    out.push(unbound);
    out
}

/// Enumerates the full packet-class sweep for a node.
pub fn enumerate(node: &Node) -> Vec<PacketClass> {
    let dsts = destination_candidates(node);
    let srcs = source_candidates(node);
    let ports = port_candidates(node);
    let mut senders: Vec<Sender> = node.slices.iter().map(|s| Sender::Slice(s.id)).collect();
    senders.push(Sender::Kernel);

    let mut classes = Vec::with_capacity(senders.len() * srcs.len() * dsts.len() * ports.len());
    for &sender in &senders {
        for &src in &srcs {
            for &dst in &dsts {
                for &dport in &ports {
                    classes.push(PacketClass { sender, src, dst, dport });
                }
            }
        }
    }
    classes
}
