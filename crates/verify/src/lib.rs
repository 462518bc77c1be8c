//! `umtslab-verify` — static slice-isolation verifier for UMTS testbed
//! nodes.
//!
//! The paper's central operational claim (§2–§3) is that a PlanetLab node
//! can hand one slice a UMTS bearer *without* perturbing every other
//! slice: VNET+ marks classify traffic per slice, `ip rule` entries steer
//! only the owner's marked flows into the UMTS routing table, and an
//! iptables isolation rule keeps everything else off `ppp0`. That promise
//! lives entirely in configuration — marks, rules, routes and filters —
//! so it can be checked *statically*, before any packet flows.
//!
//! This crate reads a configured [`Node`](umtslab_planetlab::node::Node)'s
//! policy, symbolically enumerates the packet equivalence classes it
//! distinguishes ([`classes`]), decides each class with the node's own
//! egress decision, `Node::egress_decision`, without sending a packet
//! ([`eval`]), and checks the isolation invariants over the sweep
//! ([`invariants`]). Violations come with a concrete witness packet and
//! the admitting rule chain, and a differential harness ([`differential`])
//! replays witnesses through `Node::send_from_slice`, the executor of that
//! same decision, to confirm the verdict. A run-twice
//! determinism gate ([`determinism`]) hashes the full campaign event
//! stream. [`report`] renders everything as a human table or JSON.
//!
//! The `verify` binary wires the canned [`scenarios`] into CI.

pub mod chaos;
pub mod classes;
pub mod determinism;
pub mod differential;
pub mod eval;
pub mod invariants;
pub mod report;
pub mod scenarios;

pub use invariants::{analyze as verify_node, Analysis, InvariantKind, Violation, Witness};

#[cfg(test)]
mod tests {
    use crate::eval::{evaluate, SweepCounters};
    use crate::invariants::{analyze, InvariantKind};
    use crate::report::{render_json, render_table};
    use crate::scenarios;

    #[test]
    fn correct_scenarios_are_clean() {
        for name in ["two-slice-correct", "bearer-down-correct"] {
            let scenario = scenarios::build(name).expect("known scenario");
            let analysis = analyze(&scenario.node);
            assert!(
                analysis.is_clean(),
                "{name} should verify clean, got:\n{}",
                render_table(&analysis)
            );
        }
    }

    #[test]
    fn seeded_bugs_are_detected_with_witnesses() {
        for name in ["mark-collision", "shadowed-filter"] {
            let scenario = scenarios::build(name).expect("known scenario");
            let analysis = analyze(&scenario.node);
            let kinds = analysis.kinds();
            for expected in &scenario.expected {
                assert!(
                    kinds.contains(expected),
                    "{name} should report {}, got:\n{}",
                    expected.name(),
                    render_table(&analysis)
                );
            }
            for kind in &kinds {
                assert!(
                    scenario.expected.contains(kind),
                    "{name} reported unexpected {}:\n{}",
                    kind.name(),
                    render_table(&analysis)
                );
            }
            assert!(
                analysis.violations.iter().any(|v| v.witness.is_some()),
                "{name} should carry at least one witness packet"
            );
        }
    }

    #[test]
    fn cross_slice_witnesses_are_replayable() {
        let scenario = scenarios::mark_collision();
        let analysis = analyze(&scenario.node);
        let witness = analysis
            .violations
            .iter()
            .filter(|v| v.kind == InvariantKind::CrossSliceEgress)
            .filter_map(|v| v.witness.as_ref())
            .next()
            .expect("cross-slice violation carries a witness");
        assert!(witness.replayable, "slice-sent witnesses must be replayable");
        assert!(!witness.verdict.label().is_empty());
    }

    #[test]
    fn evaluation_records_an_admitting_chain() {
        let scenario = scenarios::two_slice_correct();
        let classes = crate::classes::enumerate(&scenario.node);
        let mut counters = SweepCounters::for_node(&scenario.node);
        let class = classes.first().expect("enumeration is non-empty");
        let eval = evaluate(&scenario.node, &mut counters, class);
        assert!(!eval.chain.is_empty(), "every evaluation explains itself");
    }

    #[test]
    fn json_report_round_trips_the_verdict() {
        let scenario = scenarios::shadowed_filter();
        let analysis = analyze(&scenario.node);
        let json = render_json(&[analysis]);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("shadowed-rule"));
        assert!(json.contains("\"witness\""));
    }
}
