//! Generated differential: the verifier against the live node over a
//! seeded space of node configurations.
//!
//! [`random_node`] builds an arbitrary node from a [`SimRng`], in the
//! style of `umtslab_pack::gen::random_pack`: slices with derived,
//! colliding and zero marks; policy rules with fwmark, source and
//! destination selectors, some pointing at empty or missing tables;
//! overlapping routes with metrics and preferred sources; mangle `SetMark`
//! rules and egress `Accept`/`Drop` rules matching on `mark` and `!mark`;
//! bound ports, vsys grants, and a UMTS bearer that is absent, down, up,
//! or detached by the operator since the last poll. For every generated
//! node, `replay_sweep` evaluates each slice class with the verifier and
//! pushes the same packet through `Node::send_from_slice`; the two must
//! agree on every class.
//!
//! The verifier and the live node run one decision,
//! `Node::egress_decision`, so their agreement checks the executor and the
//! verifier's reading of the verdict, not the decision itself.
//! [`decision_fault`] checks the decision on every class, kernel classes
//! included: its verdict must follow from the steps it reports, read with
//! the net crate's own `RuleSelector::matches`,
//! `RoutingTable::lookup_index` and `FilterMatch::matches`.

use umtslab_net::filter::{FilterKey, FilterMatch, FilterRule, FilterVerdict, HookContext, Target};
use umtslab_net::iface::IfaceId;
use umtslab_net::packet::{Mark, Packet, PacketId};
use umtslab_net::route::{FlowKey, PolicyRule, Route, RuleSelector, TableId};
use umtslab_net::trace::TraceKind;
use umtslab_net::wire::{Endpoint, Ipv4Address, Ipv4Cidr, Protocol};
use umtslab_planetlab::node::{EgressFate, EgressStep, Node, ETH0, LO, PPP0};
use umtslab_planetlab::slice::SliceId;
use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest, UMTS_TABLE};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::{SessionFault, UmtsAttachment};
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;
use umtslab_verify::classes::{enumerate, PacketClass, Sender};
use umtslab_verify::differential::{replay_sweep, DifferentialResult};
use umtslab_verify::eval::StaticVerdict;

/// Generated nodes per run.
const NODES: u64 = 500;

/// The state the generator leaves the UMTS attachment in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bearer {
    /// No 3G card installed.
    Absent,
    /// A card, never dialed.
    Down,
    /// Dialed; the bearer is up.
    Up,
    /// Dialed, then detached by the operator: the attachment is gone but
    /// the node has not polled the `Disconnected` event yet, so its UMTS
    /// routes, rules and isolation filter are still installed.
    Detached,
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.uniform_u64(0, items.len() as u64 - 1) as usize]
}

fn addr(s: &str) -> Ipv4Address {
    s.parse().expect("literal address")
}

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().expect("literal prefix")
}

/// Prefixes the generator draws from: nested, overlapping and disjoint,
/// plus host routes for the node's own addresses once it has them.
fn prefix_pool(node: &Node) -> Vec<Ipv4Cidr> {
    let mut pool: Vec<Ipv4Cidr> = [
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "10.1.2.3/32",
        "138.96.0.0/16",
        "138.96.20.0/24",
        "143.225.229.0/24",
        "143.225.229.5/32",
    ]
    .iter()
    .map(|s| cidr(s))
    .collect();
    if let Some(ppp) = node.ppp_addr() {
        pool.push(Ipv4Cidr::host(ppp));
    }
    if let Some(peer) = node.iface(PPP0).peer {
        pool.push(Ipv4Cidr::host(peer));
    }
    pool
}

/// Marks worth matching or stamping: every slice's, the reserved zero
/// mark and one no slice carries.
fn mark_pool(node: &Node) -> Vec<Mark> {
    let mut marks: Vec<Mark> = node.slices.iter().map(|s| s.mark).collect();
    marks.push(Mark::NONE);
    marks.push(Mark(77));
    marks
}

fn maybe<T>(rng: &mut SimRng, p: f64, value: impl FnOnce(&mut SimRng) -> T) -> Option<T> {
    if rng.chance(p) {
        Some(value(rng))
    } else {
        None
    }
}

fn random_slices(rng: &mut SimRng, node: &mut Node) {
    for i in 0..rng.uniform_u64(1, 4) {
        let name = format!("slice{i}");
        let existing: Vec<Mark> = node.slices.iter().map(|s| s.mark).collect();
        match rng.uniform_u64(0, 5) {
            0 if !existing.is_empty() => {
                let mark = pick(rng, &existing);
                node.slices.create_with_mark(name, mark);
            }
            1 => {
                node.slices.create_with_mark(name, Mark::NONE);
            }
            _ => {
                node.slices.create(name);
            }
        }
    }
}

/// Policy rules and routes, some into the UMTS table, some into a table
/// that stays empty and some into one that never exists.
fn random_routing(rng: &mut SimRng, node: &mut Node) {
    let prefixes = prefix_pool(node);
    let marks = mark_pool(node);
    let sources = [addr("143.225.229.5"), addr("10.1.2.3"), addr("127.0.0.1")];
    let tables = [TableId::MAIN, UMTS_TABLE, TableId(200), TableId(201)];
    // Table 200 exists but holds no route; table 201 is never created.
    let _ = node.rib.table_mut(TableId(200));
    for _ in 0..rng.uniform_u64(0, 4) {
        let selector = RuleSelector {
            fwmark: maybe(rng, 0.5, |r| pick(r, &marks)),
            src: maybe(rng, 0.3, |r| pick(r, &prefixes)),
            dst: maybe(rng, 0.4, |r| pick(r, &prefixes)),
        };
        let priority = pick(rng, &[0, 500, 1_000, 1_001, 32_766, 32_767]);
        node.rib.add_rule(PolicyRule { priority, selector, table: pick(rng, &tables) });
    }
    for _ in 0..rng.uniform_u64(0, 5) {
        let table = pick(rng, &[TableId::MAIN, TableId::MAIN, UMTS_TABLE]);
        let route = Route {
            dest: pick(rng, &prefixes),
            via: maybe(rng, 0.3, |_| addr("143.225.229.1")),
            // `IfaceId(3)` is an interface the node does not have.
            dev: pick(rng, &[LO, ETH0, ETH0, PPP0, IfaceId(3)]),
            metric: rng.uniform_u64(0, 2) as u32,
            prefsrc: maybe(rng, 0.4, |r| pick(r, &sources)),
        };
        node.rib.table_mut(table).add(route);
    }
}

fn random_match(rng: &mut SimRng, node: &Node) -> FilterMatch {
    let prefixes = prefix_pool(node);
    let marks = mark_pool(node);
    FilterMatch {
        out_dev: maybe(rng, 0.5, |r| pick(r, &[ETH0, PPP0, LO])),
        in_dev: maybe(rng, 0.05, |r| pick(r, &[ETH0, PPP0])),
        mark: maybe(rng, 0.3, |r| pick(r, &marks)),
        not_mark: maybe(rng, 0.3, |r| pick(r, &marks)),
        src: maybe(rng, 0.2, |r| pick(r, &prefixes)),
        dst: maybe(rng, 0.3, |r| pick(r, &prefixes)),
        proto: maybe(rng, 0.15, |r| pick(r, &[Protocol::Udp, Protocol::Icmp])),
    }
}

/// Mangle rules (mostly `SetMark`) and egress rules (mostly `Accept` and
/// `Drop`), appended or inserted, with an occasional DROP policy.
fn random_filters(rng: &mut SimRng, node: &mut Node) {
    for egress in [false, true] {
        for i in 0..rng.uniform_u64(0, 3) {
            let matcher = random_match(rng, node);
            let set_mark = rng.chance(if egress { 0.2 } else { 0.7 });
            let target = if set_mark {
                Target::SetMark(pick(rng, &mark_pool(node)))
            } else if rng.chance(0.5) {
                Target::Accept
            } else {
                Target::Drop
            };
            let comment = if rng.chance(0.3) { String::new() } else { format!("gen-{i}") };
            let rule = FilterRule::new(matcher, target, comment);
            let chain =
                if egress { &mut node.firewall.egress } else { &mut node.firewall.mangle_output };
            if rng.chance(0.3) {
                chain.insert(rule);
            } else {
                chain.append(rule);
            }
        }
    }
    if rng.chance(0.05) {
        node.firewall.egress.policy = FilterVerdict::Drop;
    }
    if rng.chance(0.03) {
        node.firewall.mangle_output.policy = FilterVerdict::Drop;
    }
}

fn random_sockets(rng: &mut SimRng, node: &mut Node, slices: &[SliceId]) {
    for _ in 0..rng.uniform_u64(0, 3) {
        let port = pick(rng, &[9_000, 9_001, 40_000, 5_060]);
        let _ = node.bind(pick(rng, slices), port);
    }
}

/// Polls the node's control plane until the bearer is up or the horizon
/// passes (a random attachment may fail to dial; the node is then tested
/// as it stands).
fn dial(node: &mut Node, owner: SliceId) -> Instant {
    let _ = node.vsys_submit(owner, UmtsRequest::Start);
    let horizon = Instant::from_secs(60);
    let mut now = Instant::ZERO;
    loop {
        let _ = node.poll(now);
        if node.umts_status().phase == UmtsPhase::Up || now >= horizon {
            return now;
        }
        now = match node.next_wakeup() {
            Some(t) if t > now => t.min(horizon),
            _ => now + Duration::from_millis(1),
        };
    }
}

/// One arbitrary node, and the instant its configuration finished.
fn random_node(rng: &mut SimRng, index: u64) -> (Node, Instant, Bearer) {
    let mut node = Node::new(format!("gen{index}.planetlab"));
    if rng.chance(0.9) {
        node.configure_eth(addr("143.225.229.5"), cidr("143.225.229.0/24"), addr("143.225.229.1"));
    }
    random_slices(rng, &mut node);
    let slices: Vec<SliceId> = node.slices.iter().map(|s| s.id).collect();
    for &slice in &slices {
        if rng.chance(0.5) {
            node.grant_umts_access(slice);
        }
    }
    let bearer =
        pick(rng, &[Bearer::Absent, Bearer::Down, Bearer::Up, Bearer::Up, Bearer::Detached]);
    if bearer != Bearer::Absent {
        node.attach_umts(UmtsAttachment::new(
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
            rng.next_u64(),
            Instant::ZERO,
        ));
    }
    // Half of the policy goes in before the bearer comes up, half after,
    // so generated entries interleave with the ones the bearer installs.
    random_routing(rng, &mut node);
    random_filters(rng, &mut node);
    let mut now = Instant::ZERO;
    if matches!(bearer, Bearer::Up | Bearer::Detached) {
        let owner = pick(rng, &slices);
        node.grant_umts_access(owner);
        for _ in 0..rng.uniform_u64(0, 2) {
            let dest = pick(rng, &[cidr("138.96.0.0/16"), cidr("10.1.0.0/16"), cidr("0.0.0.0/0")]);
            let _ = node.vsys_submit(owner, UmtsRequest::AddDestination(dest));
        }
        now = dial(&mut node, owner);
        let _ = node.vsys_collect(owner);
        if bearer == Bearer::Detached {
            node.inject_umts_fault(now, SessionFault::OperatorDetach);
        }
    }
    random_routing(rng, &mut node);
    random_filters(rng, &mut node);
    random_sockets(rng, &mut node, &slices);
    (node, now, bearer)
}

/// The first rule whose selector matches `key` and whose table yields a
/// route, with that route's index.
fn first_route(node: &Node, key: &FlowKey) -> Option<(usize, usize)> {
    node.rib.rules().iter().enumerate().find_map(|(i, rule)| {
        let table = node.rib.table(rule.table).filter(|_| rule.selector.matches(key))?;
        table.lookup_index(key.dst).map(|route| (i, route))
    })
}

/// Checks the egress decision for one class against the steps it
/// reports: the selecting rule is the first that yields a route, the
/// source is the selected one, a packet handed to an interface leaves an
/// up one, every reported chain rule matches, and the final mark is the
/// last one a `SetMark` rule wrote. Returns the first fault found.
fn decision_fault(node: &Node, class: &PacketClass) -> Option<String> {
    let mark = match class.sender {
        Sender::Slice(slice) => node.slices.mark_of(slice)?,
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
    let verdict = node.egress_decision(&packet, |step| steps.push(step));
    let fault = |what: &str| Some(format!("{what}: {verdict:?} after {steps:?}"));

    let local = node.ifaces().any(|i| i.up && i.addr == class.dst);
    if let EgressFate::Local(owner) = verdict.fate {
        let bound = node.bound_ports().into_iter().find(|&(p, _)| p == class.dport);
        let consistent = local && owner == bound.map(|(_, s)| s) && steps.is_empty();
        return if consistent { None } else { fault("local delivery") };
    }
    if local {
        return fault("a packet to a local address left the node");
    }
    let key = FlowKey { src: class.src, dst: class.dst, mark };
    let Some(&EgressStep::Route { rule, route }) = steps.first() else {
        let consistent = verdict.fate == EgressFate::NoRoute && first_route(node, &key).is_none();
        return if consistent { None } else { fault("no route step") };
    };
    if first_route(node, &key) != Some((rule, route)) {
        return fault("the selecting rule is not the first that yields a route");
    }
    let chosen = &node.rib.table(node.rib.rules()[rule].table)?.routes()[route];
    let dev = chosen.dev;
    let iface = node.ifaces().find(|i| i.id == dev);
    let src = if class.src.is_unspecified() {
        chosen.prefsrc.or(iface.map(|i| i.addr)).unwrap_or(Ipv4Address::UNSPECIFIED)
    } else {
        class.src
    };
    if verdict.src != src {
        return fault("source selection");
    }
    let up = iface.is_some_and(|i| i.up);
    let connected = node.umts_attachment().map(umtslab_umts::UmtsAttachment::is_connected);
    let handed_to = match verdict.fate {
        EgressFate::IfaceDown(d) => {
            let consistent = d == dev && !up && steps.len() == 1 && verdict.mark == mark;
            return if consistent { None } else { fault("interface down") };
        }
        EgressFate::Wire(d) => d == dev && dev != PPP0,
        EgressFate::Uplink => dev == PPP0 && connected == Some(true),
        EgressFate::BearerDown => dev == PPP0 && connected == Some(false),
        EgressFate::NoUmts => dev == PPP0 && connected.is_none(),
        EgressFate::Filtered => true,
        EgressFate::Local(_) | EgressFate::NoRoute => false,
    };
    if !handed_to || !up {
        return fault("handed to the wrong interface or a down one");
    }
    let mut filter_key = FilterKey { src, dst: class.dst, protocol: Protocol::Udp, mark };
    let ctx = HookContext { in_dev: None, out_dev: Some(dev) };
    for step in &steps[1..] {
        let &EgressStep::Filter { chain, rule } = step else {
            return fault("a second route step");
        };
        let fired = &node.firewall.chain(chain).rules()[rule];
        if !fired.matcher.matches(&filter_key, &ctx) {
            return fault("a reported chain rule does not match");
        }
        if let Target::SetMark(m) = fired.target {
            filter_key.mark = m;
        }
    }
    if verdict.mark != filter_key.mark {
        return fault("the final mark is not the last one SetMark wrote");
    }
    None
}

fn disagreements(result: &DifferentialResult) -> String {
    result
        .replays
        .iter()
        .filter(|r| !r.agrees)
        .map(|r| {
            format!(
                "  {:?} src={} dst={}:{} verifier={} live={}",
                r.witness.class.sender,
                r.witness.class.src,
                r.witness.class.dst,
                r.witness.class.dport,
                r.witness.verdict.label(),
                r.live.label()
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn generated_nodes_agree_with_the_live_node_on_every_slice_class() {
    let mut meta = SimRng::seed_from_u64(0x0822);
    let mut bearers = [0u64; 4];
    let mut verdicts: Vec<String> = Vec::new();
    let mut replays = 0usize;
    for index in 0..NODES {
        let mut rng = SimRng::seed_from_u64(meta.next_u64());
        let (mut node, now, bearer) = random_node(&mut rng, index);
        bearers[bearer as usize] += 1;
        for class in enumerate(&node) {
            if let Some(fault) = decision_fault(&node, &class) {
                panic!("node {index} ({bearer:?}), {class:?}: {fault}");
            }
        }
        let result = replay_sweep(&mut node, now);
        assert!(
            result.all_agree(),
            "node {index} ({bearer:?}): verifier and live node disagree:\n{}",
            disagreements(&result)
        );
        replays += result.replays.len();
        for r in &result.replays {
            let label = r.witness.verdict.label();
            if !verdicts.contains(&label) {
                verdicts.push(label);
            }
        }
    }
    // The generated space must reach every bearer state and every fate a
    // slice packet can meet, or agreement proves little.
    assert!(bearers.iter().all(|&n| n > 0), "bearer states per node: {bearers:?}");
    let expected = [
        StaticVerdict::Wire(ETH0),
        StaticVerdict::Wire(LO),
        StaticVerdict::Umts,
        StaticVerdict::Local,
        StaticVerdict::Drop(TraceKind::DropNoRoute),
        StaticVerdict::Drop(TraceKind::DropFilter),
        StaticVerdict::Drop(TraceKind::DropNoSocket),
    ];
    for verdict in expected {
        assert!(
            verdicts.contains(&verdict.label()),
            "no generated class was {}; seen: {verdicts:?}",
            verdict.label()
        );
    }
    assert!(replays > 100_000, "only {replays} slice classes replayed");
}
