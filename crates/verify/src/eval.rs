//! The packet-class evaluator.
//!
//! [`evaluate`] pushes one [`PacketClass`] through the node's own egress
//! decision, [`Node::egress_decision`] — the function
//! `Node::send_from_slice` executes for every live packet — without
//! simulating any traffic. It renders what the decision observed as the
//! *admitting chain*: every rule and route that decided the packet's
//! fate, in the order they fired.
//!
//! The evaluator also feeds [`SweepCounters`]: for every policy rule,
//! route and filter rule it tracks how often the entity actually decided
//! a packet versus how often it *would have matched* had an earlier entry
//! not captured the packet first. An entity with would-match hits but no
//! real hits across a whole sweep is shadowed — dead policy the operator
//! probably believes is active. The would-match scans ask the net crate's
//! own `RuleSelector::matches`, `RoutingTable::lookup_index` and
//! `FilterMatch::matches`.

use umtslab_net::filter::{Chain, ChainId, FilterKey, HookContext, Target};
use umtslab_net::iface::IfaceId;
use umtslab_net::packet::{Mark, Packet, PacketId};
use umtslab_net::route::{FlowKey, PolicyRule, Route, TableId};
use umtslab_net::trace::TraceKind;
use umtslab_net::wire::{Endpoint, Ipv4Address, Protocol};
use umtslab_planetlab::node::{EgressFate, EgressStep, Node};
use umtslab_sim::time::Instant;

use crate::classes::{PacketClass, Sender};

/// The predicted fate of a packet class. Mirrors `EgressAction` so the
/// differential harness can compare verdicts one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Transmitted on a wired interface.
    Wire(IfaceId),
    /// Handed to the UMTS attachment (uplink bearer).
    Umts,
    /// Delivered to a local socket.
    Local,
    /// Dropped, with the trace kind the live node would record.
    Drop(TraceKind),
}

impl StaticVerdict {
    /// Compact label used in reports and hashes.
    pub fn label(self) -> String {
        match self {
            StaticVerdict::Wire(dev) => format!("wire({dev})"),
            StaticVerdict::Umts => "umts".to_string(),
            StaticVerdict::Local => "local".to_string(),
            StaticVerdict::Drop(kind) => format!("{kind}"),
        }
    }
}

/// The full outcome of evaluating one class.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Predicted fate.
    pub verdict: StaticVerdict,
    /// Source address after kernel source selection.
    pub src: Ipv4Address,
    /// Mark after stamping and mangle.
    pub mark: Mark,
    /// The admitting chain: each rule/route/filter that decided the fate.
    pub chain: Vec<String>,
}

/// Per-entity hit/shadow counters accumulated over a sweep.
#[derive(Debug, Clone, Default)]
pub struct HitCounter {
    /// Times the entity actually decided a packet.
    pub hits: u64,
    /// Times it would have matched but an earlier entity had already
    /// captured the packet.
    pub shadowed: u64,
    /// A witness class for the first shadowed match.
    pub shadow_witness: Option<PacketClass>,
    /// What captured the shadowed packet first.
    pub shadowed_by: Option<String>,
}

impl HitCounter {
    fn record_shadow(&mut self, class: &PacketClass, by: &str) {
        self.shadowed += 1;
        if self.shadow_witness.is_none() {
            self.shadow_witness = Some(*class);
            self.shadowed_by = Some(by.to_string());
        }
    }
}

/// Counters for every rule, route and filter entry of a node. The vectors
/// are parallel to the node's own ordering.
#[derive(Debug, Clone, Default)]
pub struct SweepCounters {
    /// One counter per policy rule, in scan order.
    pub rules: Vec<HitCounter>,
    /// One counter per `(table, route index)`, flattened in table order.
    pub routes: Vec<(TableId, usize, HitCounter)>,
    /// One counter per mangle rule, in chain order.
    pub mangle: Vec<HitCounter>,
    /// One counter per egress rule, in chain order.
    pub egress: Vec<HitCounter>,
}

impl SweepCounters {
    /// Creates counters shaped after a node's policy.
    pub fn for_node(node: &Node) -> SweepCounters {
        SweepCounters {
            rules: vec![HitCounter::default(); node.rib.rules().len()],
            routes: node
                .rib
                .tables()
                .flat_map(|(id, t)| {
                    (0..t.routes().len()).map(move |i| (id, i, HitCounter::default()))
                })
                .collect(),
            mangle: vec![HitCounter::default(); node.firewall.mangle_output.rules().len()],
            egress: vec![HitCounter::default(); node.firewall.egress.rules().len()],
        }
    }

    fn route_counter(&mut self, table: TableId, index: usize) -> &mut HitCounter {
        let entry = self
            .routes
            .iter_mut()
            .find(|(t, i, _)| *t == table && *i == index)
            .expect("counter exists for every route");
        &mut entry.2
    }

    fn filter_counters(&mut self, chain: ChainId) -> &mut [HitCounter] {
        match chain {
            ChainId::MangleOutput => &mut self.mangle,
            ChainId::Egress => &mut self.egress,
        }
    }
}

fn rule_desc(rule: &PolicyRule) -> String {
    let mut parts = Vec::new();
    if let Some(m) = rule.selector.fwmark {
        parts.push(format!("fwmark {}", m.0));
    }
    if let Some(src) = rule.selector.src {
        parts.push(format!("from {src}"));
    }
    if let Some(dst) = rule.selector.dst {
        parts.push(format!("to {dst}"));
    }
    if parts.is_empty() {
        parts.push("from all".to_string());
    }
    format!("ip rule pref {} {} lookup table {}", rule.priority, parts.join(" "), rule.table.0)
}

fn filter_desc(chain: &Chain, index: usize) -> String {
    let rule = &chain.rules()[index];
    let comment = if rule.comment.is_empty() { "uncommented" } else { &rule.comment };
    format!("{} #{} {:?} ({comment})", chain.name, index + 1, rule.target)
}

/// Records the selecting rule and route as hits, and every later rule
/// whose table would also have yielded a route as shadowed by it. Returns
/// the selecting rule's text and its route.
fn count_route<'n>(
    node: &'n Node,
    counters: &mut SweepCounters,
    class: &PacketClass,
    key: &FlowKey,
    selected: usize,
    route: usize,
) -> (String, &'n Route) {
    let rules = node.rib.rules();
    let table = rules[selected].table;
    let chosen = &node.rib.table(table).expect("the selecting table exists").routes()[route];
    let by = rule_desc(&rules[selected]);
    counters.rules[selected].hits += 1;
    counters.route_counter(table, route).hits += 1;
    for (i, rule) in rules.iter().enumerate().skip(selected + 1) {
        if !rule.selector.matches(key) {
            continue;
        }
        let Some(index) = node.rib.table(rule.table).and_then(|t| t.lookup_index(key.dst)) else {
            continue;
        };
        counters.rules[i].record_shadow(class, &by);
        counters.route_counter(rule.table, index).record_shadow(class, &by);
    }
    (by, chosen)
}

/// Records every rule after a chain's terminal rule that would have
/// matched as shadowed by it. `SetMark` rules in the shadowed region keep
/// rewriting the virtual mark, as they would were the terminal rule
/// removed.
fn count_chain_shadow(
    chain: &Chain,
    counters: &mut [HitCounter],
    class: &PacketClass,
    terminal: usize,
    mut key: FilterKey,
    ctx: &HookContext,
) {
    let by = filter_desc(chain, terminal);
    for (i, rule) in chain.rules().iter().enumerate().skip(terminal + 1) {
        if !rule.matcher.matches(&key, ctx) {
            continue;
        }
        counters[i].record_shadow(class, &by);
        if let Target::SetMark(m) = rule.target {
            key.mark = m;
        }
    }
}

/// Evaluates one packet class with the node's egress decision, updating
/// sweep counters.
pub fn evaluate(node: &Node, counters: &mut SweepCounters, class: &PacketClass) -> Evaluation {
    // VNET+ mark stamping (or the kernel's unmarked path).
    let mark = match class.sender {
        Sender::Slice(slice) => match node.slices.mark_of(slice) {
            Some(m) => m,
            None => {
                return Evaluation {
                    verdict: StaticVerdict::Drop(TraceKind::DropFilter),
                    src: class.src,
                    mark: Mark::NONE,
                    chain: vec!["no such slice".to_string()],
                };
            }
        },
        Sender::Kernel => Mark::NONE,
    };
    let mut packet = Packet::udp(
        PacketId(0),
        Endpoint::new(class.src, 9_000),
        Endpoint::new(class.dst, class.dport),
        Vec::new(),
        Instant::ZERO,
    );
    packet.mark = mark;
    let mut steps = Vec::new();
    let decided = node.egress_decision(&packet, |step| steps.push(step));

    let mut chain = vec![format!("vnet+ stamps mark {}", mark.0)];
    let mut key = FilterKey { src: decided.src, dst: class.dst, protocol: Protocol::Udp, mark };
    let mut ctx = HookContext::default();
    for step in steps {
        match step {
            EgressStep::Route { rule, route } => {
                let flow = FlowKey { src: class.src, dst: class.dst, mark };
                let (rule_text, chosen) = count_route(node, counters, class, &flow, rule, route);
                let table = node.rib.rules()[rule].table.0;
                chain.push(rule_text);
                chain.push(format!("table {table}: {} dev {}", chosen.dest, chosen.dev));
                if class.src.is_unspecified() {
                    chain.push(format!("src selected: {}", decided.src));
                }
                ctx.out_dev = Some(chosen.dev);
            }
            EgressStep::Filter { chain: id, rule } => {
                let filter = node.firewall.chain(id);
                chain.push(filter_desc(filter, rule));
                let filter_counters = counters.filter_counters(id);
                filter_counters[rule].hits += 1;
                match filter.rules()[rule].target {
                    Target::SetMark(m) => key.mark = m,
                    Target::Accept | Target::Drop => {
                        count_chain_shadow(filter, filter_counters, class, rule, key, &ctx);
                    }
                }
            }
        }
    }

    let (verdict, last) = match decided.fate {
        EgressFate::Local(Some(_)) => {
            (StaticVerdict::Local, Some(format!("local delivery to bound port {}", class.dport)))
        }
        EgressFate::Local(None) => (
            StaticVerdict::Drop(TraceKind::DropNoSocket),
            Some(format!("local destination, port {} unbound", class.dport)),
        ),
        EgressFate::NoRoute => (
            StaticVerdict::Drop(TraceKind::DropNoRoute),
            Some("no rule yielded a route".to_string()),
        ),
        EgressFate::IfaceDown(dev) => {
            (StaticVerdict::Drop(TraceKind::DropNoRoute), Some(format!("egress {dev} is down")))
        }
        EgressFate::Filtered => (StaticVerdict::Drop(TraceKind::DropFilter), None),
        EgressFate::NoUmts => {
            (StaticVerdict::Drop(TraceKind::DropNoRoute), Some("no 3G card installed".to_string()))
        }
        EgressFate::BearerDown => (
            StaticVerdict::Drop(TraceKind::DropNoRoute),
            Some("ppp0 chosen but the bearer is not up".to_string()),
        ),
        EgressFate::Uplink => {
            (StaticVerdict::Umts, Some("queued on the UMTS uplink bearer".to_string()))
        }
        EgressFate::Wire(dev) => (StaticVerdict::Wire(dev), Some(format!("transmitted on {dev}"))),
    };
    chain.extend(last);
    Evaluation { verdict, src: decided.src, mark: decided.mark, chain }
}
