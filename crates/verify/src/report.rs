//! Rendering analyses as a human table or machine-readable JSON.
//!
//! JSON is written by the workspace's shared [`umtslab_sim::json`]
//! writer.

use std::fmt::Write;

use umtslab_sim::json;

use crate::classes::Sender;
use crate::invariants::{Analysis, Violation};

/// Renders one analysis as a human-readable block: a verdict line, then
/// one indented entry per violation with its witness packet and the
/// admitting rule chain.
pub fn render_table(analysis: &Analysis) -> String {
    let mut out = String::new();
    let verdict = if analysis.is_clean() { "OK" } else { "VIOLATIONS" };
    let _ = writeln!(
        out,
        "{}: {} — {} packet class(es), {} violation(s)",
        analysis.node,
        verdict,
        analysis.classes,
        analysis.violations.len()
    );
    for v in &analysis.violations {
        let _ = writeln!(out, "  [{}] {}", v.kind.name(), v.summary);
        if let Some(w) = &v.witness {
            let _ = writeln!(
                out,
                "    witness: {} src={} dst={}:{} -> {}",
                sender_label(&w.class.sender),
                w.class.src,
                w.class.dst,
                w.class.dport,
                w.verdict.label()
            );
        }
        for step in &v.chain {
            let _ = writeln!(out, "      | {step}");
        }
    }
    out
}

/// Renders a list of analyses as one JSON document:
/// `{"nodes": [{"node": ..., "classes": N, "violations": [...]}]}`, one
/// node per line.
pub fn render_json(analyses: &[Analysis]) -> String {
    json::document(|o| {
        o.array("nodes", analyses, |o, a| {
            o.str("node", &a.node).value("classes", a.classes).value("clean", a.is_clean());
            o.array("violations", &a.violations, violation_json);
        });
    })
}

fn violation_json(o: &mut json::Object<'_>, v: &Violation) {
    o.str("invariant", v.kind.name()).str("summary", &v.summary);
    if let Some(w) = &v.witness {
        o.object("witness", |o| {
            o.str("sender", &sender_label(&w.class.sender))
                .str("src", &w.class.src.to_string())
                .str("dst", &w.class.dst.to_string())
                .value("dport", w.class.dport)
                .str("verdict", &w.verdict.label())
                .value("replayable", w.replayable);
        });
    }
    o.strings("chain", v.chain.iter().map(String::as_str));
}

fn sender_label(sender: &Sender) -> String {
    match sender {
        Sender::Slice(id) => id.to_string(),
        Sender::Kernel => "kernel".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use umtslab_net::wire::Ipv4Address;
    use umtslab_planetlab::slice::SliceId;

    use super::*;
    use crate::classes::PacketClass;
    use crate::eval::StaticVerdict;
    use crate::invariants::{InvariantKind, Witness};

    #[test]
    fn json_snapshot_pins_every_byte() {
        let clean = Analysis { node: "clean-node".into(), classes: 4, violations: Vec::new() };
        let witness = Witness {
            class: PacketClass {
                sender: Sender::Slice(SliceId(7)),
                src: Ipv4Address::new(10, 0, 0, 2),
                dst: Ipv4Address::new(192, 0, 2, 123),
                dport: 5000,
            },
            verdict: StaticVerdict::Umts,
            replayable: true,
        };
        let violations = vec![
            Violation {
                kind: InvariantKind::CrossSliceEgress,
                summary: "slice7 reaches \"ppp0\"".into(),
                witness: Some(witness),
                chain: vec!["mangle: mark 7".into(), "rule 100 -> table umts".into()],
            },
            Violation {
                kind: InvariantKind::MarkCollision,
                summary: "mark 3 shared".into(),
                witness: None,
                chain: Vec::new(),
            },
        ];
        let dirty = Analysis { node: "dirty-node".into(), classes: 9, violations };
        assert_eq!(
            render_json(&[clean, dirty]),
            r#"{
  "nodes": [
    {"node": "clean-node", "classes": 4, "clean": true, "violations": []},
    {"node": "dirty-node", "classes": 9, "clean": false, "violations": [{"invariant": "cross-slice-egress", "summary": "slice7 reaches \"ppp0\"", "witness": {"sender": "slice7", "src": "10.0.0.2", "dst": "192.0.2.123", "dport": 5000, "verdict": "umts", "replayable": true}, "chain": ["mangle: mark 7", "rule 100 -> table umts"]}, {"invariant": "mark-collision", "summary": "mark 3 shared", "chain": []}]}
  ]
}
"#
        );
        assert_eq!(
            render_json(&[]),
            r#"{
  "nodes": [
  ]
}
"#
        );
    }
}
