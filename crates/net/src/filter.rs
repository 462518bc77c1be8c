//! A minimal netfilter: match/target rule chains with packet marking.
//!
//! Reimplements the `iptables` functionality the paper relies on:
//!
//! * a *mangle*-style chain that stamps firewall marks on packets (the
//!   VNET+ mark identifying the emitting slice);
//! * a *filter*-style egress chain holding the isolation rule — "drop every
//!   packet about to leave the UMTS interface that was **not** generated by
//!   the UMTS slice" — which covers the special cases the paper lists
//!   (another slice binding to the UMTS interface, or addressing the PPP
//!   peer directly).
//!
//! Rules are evaluated first-match-wins against the chain's rule list; a
//! [`Target::SetMark`] rule mutates the packet and continues traversal, as
//! the real MARK target does.

use crate::iface::IfaceId;
use crate::packet::{Mark, Packet};
use crate::wire::{Ipv4Address, Ipv4Cidr, Protocol};

/// Rule action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Accept the packet; stop traversing this chain.
    Accept,
    /// Drop the packet; stop traversing this chain.
    Drop,
    /// Stamp the mark and continue with the next rule.
    SetMark(Mark),
}

/// Final fate of a packet after chain traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// The packet proceeds.
    Accept,
    /// The packet is discarded.
    Drop,
}

/// Match conditions; all present fields must hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterMatch {
    /// Egress interface (`-o`).
    pub out_dev: Option<IfaceId>,
    /// Ingress interface (`-i`).
    pub in_dev: Option<IfaceId>,
    /// Mark equals (`-m mark --mark X`).
    pub mark: Option<Mark>,
    /// Mark differs (`-m mark ! --mark X`).
    pub not_mark: Option<Mark>,
    /// Source prefix (`-s`).
    pub src: Option<Ipv4Cidr>,
    /// Destination prefix (`-d`).
    pub dst: Option<Ipv4Cidr>,
    /// Transport protocol (`-p`).
    pub proto: Option<Protocol>,
}

impl FilterMatch {
    /// A match-everything condition.
    pub fn any() -> FilterMatch {
        FilterMatch::default()
    }

    /// True if every present condition holds for `key` at hook `ctx`.
    pub fn matches(&self, key: &FilterKey, ctx: &HookContext) -> bool {
        if let Some(dev) = self.out_dev {
            if ctx.out_dev != Some(dev) {
                return false;
            }
        }
        if let Some(dev) = self.in_dev {
            if ctx.in_dev != Some(dev) {
                return false;
            }
        }
        if let Some(m) = self.mark {
            if key.mark != m {
                return false;
            }
        }
        if let Some(m) = self.not_mark {
            if key.mark == m {
                return false;
            }
        }
        if let Some(src) = self.src {
            if !src.contains(key.src) {
                return false;
            }
        }
        if let Some(dst) = self.dst {
            if !dst.contains(key.dst) {
                return false;
            }
        }
        if let Some(p) = self.proto {
            if key.protocol != p {
                return false;
            }
        }
        true
    }
}

/// The header fields filter rules match on, and the mark a
/// [`Target::SetMark`] rule rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterKey {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Firewall mark.
    pub mark: Mark,
}

impl FilterKey {
    /// The key of a packet as it stands.
    pub fn of(packet: &Packet) -> FilterKey {
        FilterKey {
            src: packet.src.addr,
            dst: packet.dst.addr,
            protocol: packet.protocol,
            mark: packet.mark,
        }
    }
}

/// Where the packet is in the stack when a chain runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookContext {
    /// Interface the packet arrived on, if forwarded/input.
    pub in_dev: Option<IfaceId>,
    /// Interface the packet is about to leave on, if output/egress.
    pub out_dev: Option<IfaceId>,
}

/// One rule: a match plus a target, with a comment for introspection
/// (mirroring `iptables -m comment`).
#[derive(Debug, Clone)]
pub struct FilterRule {
    /// Match condition.
    pub matcher: FilterMatch,
    /// Action on match.
    pub target: Target,
    /// Free-form annotation (shown by `status`-style introspection).
    pub comment: String,
}

impl FilterRule {
    /// Creates a rule.
    pub fn new(matcher: FilterMatch, target: Target, comment: impl Into<String>) -> FilterRule {
        FilterRule { matcher, target, comment: comment.into() }
    }
}

/// An ordered rule chain with a default policy.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Chain name, for diagnostics.
    pub name: String,
    rules: Vec<FilterRule>,
    /// Fate of packets no rule decides.
    pub policy: FilterVerdict,
}

impl Chain {
    /// Creates an empty chain with an ACCEPT policy.
    pub fn new(name: impl Into<String>) -> Chain {
        Chain { name: name.into(), rules: Vec::new(), policy: FilterVerdict::Accept }
    }

    /// Appends a rule (like `iptables -A`).
    pub fn append(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// Inserts a rule at the head (like `iptables -I`).
    pub fn insert(&mut self, rule: FilterRule) {
        self.rules.insert(0, rule);
    }

    /// Removes all rules whose comment equals `comment`; returns the count.
    pub fn remove_by_comment(&mut self, comment: &str) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.comment != comment);
        before - self.rules.len()
    }

    /// The rules in evaluation order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.rules
    }

    /// Empties the chain (like `iptables -F`).
    pub fn flush(&mut self) {
        self.rules.clear();
    }

    /// Runs the packet through the chain, possibly restamping its mark.
    pub fn evaluate(&self, packet: &mut Packet, ctx: &HookContext) -> FilterVerdict {
        let mut key = FilterKey::of(packet);
        let verdict = self.evaluate_with(&mut key, ctx, |_| {});
        packet.mark = key.mark;
        verdict
    }

    /// Runs a key through the chain, possibly restamping its mark, and
    /// reports the index of every rule that matched, in order.
    pub fn evaluate_with(
        &self,
        key: &mut FilterKey,
        ctx: &HookContext,
        mut fired: impl FnMut(usize),
    ) -> FilterVerdict {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.matcher.matches(key, ctx) {
                continue;
            }
            fired(i);
            match rule.target {
                Target::Accept => return FilterVerdict::Accept,
                Target::Drop => return FilterVerdict::Drop,
                Target::SetMark(m) => {
                    key.mark = m;
                    // MARK continues traversal.
                }
            }
        }
        self.policy
    }
}

/// Names one of the two chains of a [`Firewall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainId {
    /// [`Firewall::mangle_output`].
    MangleOutput,
    /// [`Firewall::egress`].
    Egress,
}

/// The standard pair of chains a node carries: mark stamping at OUTPUT
/// (mangle) and the isolation filter at POSTROUTING (egress).
#[derive(Debug, Clone)]
pub struct Firewall {
    /// Mangle chain run first on locally generated packets.
    pub mangle_output: Chain,
    /// Filter chain run just before a packet leaves an interface.
    pub egress: Chain,
}

impl Default for Firewall {
    fn default() -> Self {
        Self::new()
    }
}

impl Firewall {
    /// Creates a firewall with empty ACCEPT chains.
    pub fn new() -> Firewall {
        Firewall {
            mangle_output: Chain::new("mangle/OUTPUT"),
            egress: Chain::new("filter/POSTROUTING"),
        }
    }

    /// The chain `id` names.
    pub fn chain(&self, id: ChainId) -> &Chain {
        match id {
            ChainId::MangleOutput => &self.mangle_output,
            ChainId::Egress => &self.egress,
        }
    }

    /// Runs the full local-output path, mangle then egress filter, and
    /// reports every rule that matched, in order.
    pub fn process_output(
        &self,
        key: &mut FilterKey,
        out_dev: IfaceId,
        mut fired: impl FnMut(ChainId, usize),
    ) -> FilterVerdict {
        let ctx = HookContext { in_dev: None, out_dev: Some(out_dev) };
        let mangle =
            self.mangle_output.evaluate_with(key, &ctx, |i| fired(ChainId::MangleOutput, i));
        if mangle == FilterVerdict::Drop {
            return FilterVerdict::Drop;
        }
        self.egress.evaluate_with(key, &ctx, |i| fired(ChainId::Egress, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use crate::wire::Endpoint;
    use umtslab_sim::time::Instant;

    const ETH0: IfaceId = IfaceId(0);
    const PPP0: IfaceId = IfaceId(1);

    fn pkt(mark: u32) -> Packet {
        let mut p = Packet::udp(
            PacketId(0),
            Endpoint::new(Ipv4Address::new(192, 168, 0, 2), 5000),
            Endpoint::new(Ipv4Address::new(8, 8, 8, 8), 53),
            vec![0; 8],
            Instant::ZERO,
        );
        p.mark = Mark(mark);
        p
    }

    fn out_ctx(dev: IfaceId) -> HookContext {
        HookContext { in_dev: None, out_dev: Some(dev) }
    }

    #[test]
    fn empty_chain_applies_policy() {
        let mut c = Chain::new("t");
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Accept);
        c.policy = FilterVerdict::Drop;
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Drop);
    }

    #[test]
    fn first_match_wins() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(FilterMatch::any(), Target::Accept, "first"));
        c.append(FilterRule::new(FilterMatch::any(), Target::Drop, "second"));
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Accept);
        let mut fired = Vec::new();
        let mut key = FilterKey::of(&pkt(0));
        assert_eq!(
            c.evaluate_with(&mut key, &out_ctx(ETH0), |i| fired.push(i)),
            FilterVerdict::Accept
        );
        assert_eq!(fired, [0]);
    }

    #[test]
    fn insert_puts_rule_first() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(FilterMatch::any(), Target::Accept, "old"));
        c.insert(FilterRule::new(FilterMatch::any(), Target::Drop, "new"));
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Drop);
    }

    #[test]
    fn setmark_mutates_and_continues() {
        let mut c = Chain::new("mangle");
        c.append(FilterRule::new(FilterMatch::any(), Target::SetMark(Mark(9)), "stamp"));
        c.append(FilterRule::new(
            FilterMatch { mark: Some(Mark(9)), ..FilterMatch::any() },
            Target::Drop,
            "catch",
        ));
        let mut p = pkt(0);
        assert_eq!(c.evaluate(&mut p, &out_ctx(ETH0)), FilterVerdict::Drop);
        assert_eq!(p.mark, Mark(9));
    }

    #[test]
    fn paper_isolation_rule() {
        // "Drop all packets not generated by the UMTS slice that are about
        // to go out using the UMTS interface."
        let umts_mark = Mark(7);
        let mut c = Chain::new("egress");
        c.append(FilterRule::new(
            FilterMatch { out_dev: Some(PPP0), not_mark: Some(umts_mark), ..FilterMatch::any() },
            Target::Drop,
            "umts-isolation",
        ));

        // Foreign slice (different mark) out ppp0: dropped.
        assert_eq!(c.evaluate(&mut pkt(3), &out_ctx(PPP0)), FilterVerdict::Drop);
        // Unmarked root traffic out ppp0: dropped too.
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(PPP0)), FilterVerdict::Drop);
        // UMTS slice out ppp0: accepted.
        assert_eq!(c.evaluate(&mut pkt(7), &out_ctx(PPP0)), FilterVerdict::Accept);
        // Foreign slice out eth0: unaffected.
        assert_eq!(c.evaluate(&mut pkt(3), &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn match_on_dst_and_proto() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(
            FilterMatch {
                dst: Some("8.8.8.0/24".parse().unwrap()),
                proto: Some(Protocol::Udp),
                ..FilterMatch::any()
            },
            Target::Drop,
            "dns-block",
        ));
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Drop);
        let mut p = pkt(0);
        p.dst.addr = Ipv4Address::new(9, 9, 9, 9);
        assert_eq!(c.evaluate(&mut p, &out_ctx(ETH0)), FilterVerdict::Accept);
        let mut p = pkt(0);
        p.protocol = Protocol::Icmp;
        assert_eq!(c.evaluate(&mut p, &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn match_on_src_prefix() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(
            FilterMatch { src: Some("192.168.0.0/24".parse().unwrap()), ..FilterMatch::any() },
            Target::Drop,
            "src",
        ));
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Drop);
        let mut p = pkt(0);
        p.src.addr = Ipv4Address::new(10, 0, 0, 1);
        assert_eq!(c.evaluate(&mut p, &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn in_dev_match() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(
            FilterMatch { in_dev: Some(ETH0), ..FilterMatch::any() },
            Target::Drop,
            "ingress",
        ));
        let ctx = HookContext { in_dev: Some(ETH0), out_dev: None };
        assert_eq!(c.evaluate(&mut pkt(0), &ctx), FilterVerdict::Drop);
        let ctx = HookContext { in_dev: Some(PPP0), out_dev: None };
        assert_eq!(c.evaluate(&mut pkt(0), &ctx), FilterVerdict::Accept);
        // Output path (no in_dev) does not match an in_dev rule.
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn remove_by_comment() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(FilterMatch::any(), Target::Drop, "umts-isolation"));
        c.append(FilterRule::new(FilterMatch::any(), Target::Accept, "keep"));
        assert_eq!(c.remove_by_comment("umts-isolation"), 1);
        assert_eq!(c.rules().len(), 1);
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn flush_empties_chain() {
        let mut c = Chain::new("t");
        c.append(FilterRule::new(FilterMatch::any(), Target::Drop, "x"));
        c.flush();
        assert!(c.rules().is_empty());
        assert_eq!(c.evaluate(&mut pkt(0), &out_ctx(ETH0)), FilterVerdict::Accept);
    }

    #[test]
    fn firewall_output_path_runs_mangle_then_filter() {
        let mut fw = Firewall::new();
        let umts_mark = Mark(7);
        // Mangle stamps mark 7 on packets to 8.8.8.8.
        fw.mangle_output.append(FilterRule::new(
            FilterMatch {
                dst: Some(Ipv4Cidr::host(Ipv4Address::new(8, 8, 8, 8))),
                ..FilterMatch::any()
            },
            Target::SetMark(umts_mark),
            "stamp",
        ));
        // Egress only lets mark 7 out of ppp0.
        fw.egress.append(FilterRule::new(
            FilterMatch { out_dev: Some(PPP0), not_mark: Some(umts_mark), ..FilterMatch::any() },
            Target::Drop,
            "umts-isolation",
        ));
        let mut key = FilterKey::of(&pkt(0));
        let mut fired = Vec::new();
        assert_eq!(
            fw.process_output(&mut key, PPP0, |chain, i| fired.push((chain, i))),
            FilterVerdict::Accept
        );
        assert_eq!(key.mark, umts_mark);
        assert_eq!(fired, [(ChainId::MangleOutput, 0)]);

        let mut key = FilterKey::of(&pkt(0));
        key.dst = Ipv4Address::new(9, 9, 9, 9); // not stamped
        fired.clear();
        assert_eq!(
            fw.process_output(&mut key, PPP0, |chain, i| fired.push((chain, i))),
            FilterVerdict::Drop
        );
        assert_eq!(fired, [(ChainId::Egress, 0)]);
    }
}
