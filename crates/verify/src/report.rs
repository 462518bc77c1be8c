//! Rendering analyses as a human table or machine-readable JSON.
//!
//! JSON is hand-rolled (the workspace deliberately carries no
//! serialization dependency) around the shared [`escape_json`].

use std::fmt::Write;

use umtslab_sim::escape_json;

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
/// `{"nodes": [{"node": ..., "classes": N, "violations": [...]}]}`.
pub fn render_json(analyses: &[Analysis]) -> String {
    let mut out = String::from("{\n  \"nodes\": [");
    for (i, a) in analyses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"node\": \"{}\", \"classes\": {}, \"clean\": {}, \"violations\": [",
            escape_json(&a.node),
            a.classes,
            a.is_clean()
        );
        for (j, v) in a.violations.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&violation_json(v));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn violation_json(v: &Violation) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "\n      {{\"invariant\": \"{}\", \"summary\": \"{}\"",
        v.kind.name(),
        escape_json(&v.summary)
    );
    if let Some(w) = &v.witness {
        let _ = write!(
            out,
            ", \"witness\": {{\"sender\": \"{}\", \"src\": \"{}\", \"dst\": \"{}\", \
             \"dport\": {}, \"verdict\": \"{}\", \"replayable\": {}}}",
            sender_label(&w.class.sender),
            w.class.src,
            w.class.dst,
            w.class.dport,
            escape_json(&w.verdict.label()),
            w.replayable
        );
    }
    out.push_str(", \"chain\": [");
    for (i, step) in v.chain.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape_json(step));
    }
    out.push_str("]}");
    out
}

fn sender_label(sender: &Sender) -> String {
    match sender {
        Sender::Slice(id) => id.to_string(),
        Sender::Kernel => "kernel".to_string(),
    }
}
