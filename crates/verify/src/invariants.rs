//! The isolation invariants and the sweep that checks them.
//!
//! The paper's integration rests on one promise (§3 of the paper): the
//! UMTS bearer is a *private* resource of the slice that started it, and
//! granting that slice a second interface must not perturb any other
//! slice. [`analyze`] enumerates the node's packet equivalence classes,
//! evaluates each one statically, and checks:
//!
//! * **cross-slice-egress** — no packet of a non-owner slice is ever
//!   admitted onto the UMTS bearer;
//! * **unmarked-leak** — no unmarked (kernel/zero-mark) packet reaches the
//!   UMTS path: everything on the bearer is attributable to the owner;
//! * **martian-wired-egress** — no packet leaves a wired interface
//!   carrying the UMTS source address (the leak the pre-fix `source_rule`
//!   allowed);
//! * **mark-collision** — VNET+ classification is injective: no two
//!   slices share a mark, no slice has the reserved zero mark;
//! * **shadowed-rule** — every policy rule, route and filter rule is
//!   reachable: an entry that would match some class but is always
//!   captured by an earlier entry is dead policy;
//! * **stale-umts-state** — a node whose bearer is down carries no
//!   leftover UMTS table, rules or isolation filter;
//! * **default-fallback** — with the bearer down (or for unregistered
//!   destinations) every slice still reaches the internet over the wired
//!   default route.

use umtslab_net::trace::TraceKind;
use umtslab_planetlab::node::{AuditFinding, Node};

use crate::classes::{enumerate, PacketClass, Sender, FAR_DESTINATION};
use crate::eval::{evaluate, HitCounter, StaticVerdict, SweepCounters};

/// The invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A non-owner slice's packet is admitted onto the UMTS bearer.
    CrossSliceEgress,
    /// An unmarked packet reaches the UMTS bearer.
    UnmarkedLeak,
    /// A packet leaves a wired interface with the UMTS source address.
    MartianWiredEgress,
    /// Two slices share a mark, or a slice has the reserved zero mark.
    MarkCollision,
    /// A rule, route or filter entry is unreachable (always shadowed).
    ShadowedRule,
    /// UMTS policy state survives while the bearer is down.
    StaleUmtsState,
    /// A slice lost wired default-route connectivity.
    DefaultFallback,
}

impl InvariantKind {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::CrossSliceEgress => "cross-slice-egress",
            InvariantKind::UnmarkedLeak => "unmarked-leak",
            InvariantKind::MartianWiredEgress => "martian-wired-egress",
            InvariantKind::MarkCollision => "mark-collision",
            InvariantKind::ShadowedRule => "shadowed-rule",
            InvariantKind::StaleUmtsState => "stale-umts-state",
            InvariantKind::DefaultFallback => "default-fallback",
        }
    }
}

/// A concrete packet demonstrating a violation.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The packet class (sender, addresses, port).
    pub class: PacketClass,
    /// The statically predicted fate.
    pub verdict: StaticVerdict,
    /// Whether the class can be replayed through `send_from_slice` (the
    /// kernel pseudo-sender cannot).
    pub replayable: bool,
}

/// One broken invariant, with evidence.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable one-liner.
    pub summary: String,
    /// The witness packet, for class-level violations.
    pub witness: Option<Witness>,
    /// The admitting rule chain that produced the witness verdict.
    pub chain: Vec<String>,
}

/// The result of analyzing one node.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Node name.
    pub node: String,
    /// Packet classes enumerated.
    pub classes: usize,
    /// Violations found, in deterministic order.
    pub violations: Vec<Violation>,
}

impl Analysis {
    /// True if every invariant holds.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct invariant kinds violated.
    pub fn kinds(&self) -> Vec<InvariantKind> {
        let mut kinds = Vec::new();
        for v in &self.violations {
            if !kinds.contains(&v.kind) {
                kinds.push(v.kind);
            }
        }
        kinds
    }
}

/// Analyzes a node: sweep every packet class through its egress decision
/// and check the invariants. Reads the node's policy only.
pub fn analyze(node: &Node) -> Analysis {
    let classes = enumerate(node);
    let mut counters = SweepCounters::for_node(node);
    let mut violations = Vec::new();
    let owner = node.umts_status().owner;

    check_audit(node, &mut violations);

    for class in &classes {
        let eval = evaluate(node, &mut counters, class);
        let witness = |verdict| Witness {
            class: *class,
            verdict,
            replayable: matches!(class.sender, Sender::Slice(_)),
        };

        match eval.verdict {
            StaticVerdict::Umts => {
                let owner_sends = match class.sender {
                    Sender::Slice(s) => Some(s) == owner,
                    Sender::Kernel => false,
                };
                if !owner_sends && !eval.mark.is_none() {
                    violations.push(Violation {
                        kind: InvariantKind::CrossSliceEgress,
                        summary: format!(
                            "{:?} (mark {}) reaches the UMTS bearer owned by {:?}",
                            class.sender, eval.mark.0, owner
                        ),
                        witness: Some(witness(eval.verdict)),
                        chain: eval.chain.clone(),
                    });
                }
                if eval.mark.is_none() {
                    violations.push(Violation {
                        kind: InvariantKind::UnmarkedLeak,
                        summary: format!(
                            "unmarked packet ({:?}) is admitted onto the UMTS bearer",
                            class.sender
                        ),
                        witness: Some(witness(eval.verdict)),
                        chain: eval.chain.clone(),
                    });
                }
            }
            StaticVerdict::Wire(dev) => {
                if let Some(ppp) = node.ppp_addr() {
                    if eval.src == ppp {
                        violations.push(Violation {
                            kind: InvariantKind::MartianWiredEgress,
                            summary: format!(
                                "packet leaves {dev} ({}) carrying the UMTS source address {ppp}",
                                node.iface(dev).name,
                            ),
                            witness: Some(witness(eval.verdict)),
                            chain: eval.chain.clone(),
                        });
                    }
                }
            }
            StaticVerdict::Local | StaticVerdict::Drop(_) => {}
        }

        // Default-route fallback: any slice sending from an unbound socket
        // to the far-outside destination must reach the wire or (for the
        // owner with a registered covering prefix) the bearer — never a
        // routing black hole.
        if class.dst == FAR_DESTINATION
            && class.src.is_unspecified()
            && matches!(class.sender, Sender::Slice(_))
            && matches!(eval.verdict, StaticVerdict::Drop(TraceKind::DropNoRoute))
        {
            violations.push(Violation {
                kind: InvariantKind::DefaultFallback,
                summary: format!(
                    "{:?} has no wired fallback route to {FAR_DESTINATION}",
                    class.sender
                ),
                witness: Some(witness(eval.verdict)),
                chain: eval.chain.clone(),
            });
        }
    }

    check_shadowing(node, &counters, &mut violations);

    Analysis { node: node.name.to_string(), classes: classes.len(), violations }
}

/// The node's structural audit as violations: VNET+ classification must
/// be injective and never zero, and a bearer that is down must leave no
/// policy residue behind. A duplicated isolation rule is left to
/// `shadowed-rule`, which reports it with a witness.
fn check_audit(node: &Node, violations: &mut Vec<Violation>) {
    for finding in node.audit() {
        let (kind, summary) = match finding {
            AuditFinding::ZeroMark(a) => (
                InvariantKind::MarkCollision,
                format!("slice {} ({}) has the reserved zero mark", a.id, a.name),
            ),
            AuditFinding::SharedMark(a, b) => (
                InvariantKind::MarkCollision,
                format!(
                    "slices {} ({}) and {} ({}) share mark {}",
                    a.id, a.name, b.id, b.name, a.mark.0
                ),
            ),
            AuditFinding::DuplicateIsolationRules(_) => continue,
            AuditFinding::StaleUmtsTable => (
                InvariantKind::StaleUmtsState,
                "UMTS routing table present while the bearer is down".to_string(),
            ),
            AuditFinding::StaleUmtsRules => (
                InvariantKind::StaleUmtsState,
                "UMTS policy rules present while the bearer is down".to_string(),
            ),
            AuditFinding::StaleIsolationRule => (
                InvariantKind::StaleUmtsState,
                "isolation filter rule present while the bearer is down".to_string(),
            ),
        };
        violations.push(Violation { kind, summary, witness: None, chain: Vec::new() });
    }
}

/// Entries that would match some class but never actually fire are dead
/// policy: either a misordering bug or residue the operator forgot.
fn check_shadowing(node: &Node, counters: &SweepCounters, violations: &mut Vec<Violation>) {
    for (i, counter) in counters.rules.iter().enumerate() {
        if counter.hits == 0 && counter.shadowed > 0 {
            let rule = &node.rib.rules()[i];
            push_shadow(
                node,
                violations,
                counter,
                format!("policy rule pref {} (table {}) is shadowed", rule.priority, rule.table.0),
            );
        }
    }
    for (table, idx, counter) in &counters.routes {
        if counter.hits == 0 && counter.shadowed > 0 {
            let dest = node
                .rib
                .table(*table)
                .and_then(|t| t.routes().get(*idx))
                .map(|r| r.dest.to_string());
            push_shadow(
                node,
                violations,
                counter,
                format!(
                    "route {} in table {} is shadowed",
                    dest.unwrap_or_else(|| "?".to_string()),
                    table.0
                ),
            );
        }
    }
    for (chain, chain_counters) in [
        (&node.firewall.mangle_output, &counters.mangle),
        (&node.firewall.egress, &counters.egress),
    ] {
        for (i, counter) in chain_counters.iter().enumerate() {
            if counter.hits == 0 && counter.shadowed > 0 {
                let rule = &chain.rules()[i];
                push_shadow(
                    node,
                    violations,
                    counter,
                    format!(
                        "{} rule #{} ({}) is shadowed",
                        chain.name,
                        i + 1,
                        if rule.comment.is_empty() { "uncommented" } else { &rule.comment }
                    ),
                );
            }
        }
    }
}

fn push_shadow(
    node: &Node,
    violations: &mut Vec<Violation>,
    counter: &HitCounter,
    summary: String,
) {
    let chain = counter
        .shadowed_by
        .as_ref()
        .map(|by| vec![format!("captured first by: {by}")])
        .unwrap_or_default();
    // Re-evaluate the witness class with scratch counters to report the
    // fate the shadowed packet actually meets.
    let witness = counter.shadow_witness.map(|class| {
        let mut scratch = SweepCounters::for_node(node);
        let eval = evaluate(node, &mut scratch, &class);
        Witness {
            class,
            verdict: eval.verdict,
            replayable: matches!(class.sender, Sender::Slice(_)),
        }
    });
    violations.push(Violation { kind: InvariantKind::ShadowedRule, summary, witness, chain });
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_net::packet::Mark;
    use umtslab_net::route::Route;
    use umtslab_planetlab::node::PPP0;
    use umtslab_planetlab::umtscmd::{isolation_rule, source_rule, UMTS_TABLE};

    #[test]
    fn audit_findings_map_onto_mark_and_stale_violations() {
        let mut node = crate::scenarios::bearer_down_correct().node;
        let owner_mark = node.slices.iter().next().expect("owner slice").mark;
        node.slices.create_with_mark("mark_thief", owner_mark);
        node.slices.create_with_mark("unmarked", Mark::NONE);
        // UMTS residue on a node whose bearer is down, with the isolation
        // rule installed twice.
        node.rib.table_mut(UMTS_TABLE).add(Route::default_dev(PPP0));
        node.rib.add_rule(source_rule("10.0.0.1".parse().expect("address")));
        node.firewall.egress.append(isolation_rule(PPP0, owner_mark));
        node.firewall.egress.append(isolation_rule(PPP0, owner_mark));
        let found: Vec<(&str, String)> = analyze(&node)
            .violations
            .into_iter()
            .filter(|v| {
                matches!(v.kind, InvariantKind::MarkCollision | InvariantKind::StaleUmtsState)
            })
            .map(|v| (v.kind.name(), v.summary))
            .collect();
        let expected = [
            (
                "mark-collision",
                "slices slice1000 (unina_umts) and slice1002 (mark_thief) share mark 1000",
            ),
            ("mark-collision", "slice slice1003 (unmarked) has the reserved zero mark"),
            ("stale-umts-state", "UMTS routing table present while the bearer is down"),
            ("stale-umts-state", "UMTS policy rules present while the bearer is down"),
            ("stale-umts-state", "isolation filter rule present while the bearer is down"),
        ];
        let expected: Vec<(&str, String)> =
            expected.iter().map(|&(kind, summary)| (kind, summary.to_string())).collect();
        assert_eq!(found, expected);
    }
}
