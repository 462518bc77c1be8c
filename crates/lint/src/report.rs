//! Rendering a lint [`Report`] as a human table or deterministic JSON.
//!
//! JSON is hand-rolled around the workspace's shared [`escape_json`]
//! (there is no serialization dependency), with all arrays pre-sorted,
//! so two scans of the same tree render byte-identical documents — a
//! property the fixture suite asserts.

use std::fmt::Write;

use umtslab_sim::escape_json;

use crate::{Report, Rule};

/// Renders the report as a human-readable table with excerpts and hints.
pub fn render_table(report: &Report) -> String {
    let mut out = String::new();
    let verdict = if report.is_clean() { "CLEAN" } else { "DIRTY" };
    let _ = writeln!(
        out,
        "umtslab-lint: {} file(s) scanned — {} finding(s), {} suppression(s): {}",
        report.files_scanned,
        report.findings.len(),
        report.suppressions.len(),
        verdict
    );
    for f in &report.findings {
        let _ = writeln!(out, "  [{}] {}:{} — {}", f.rule, f.file, f.line, f.message);
        let _ = writeln!(out, "        | {}", f.excerpt);
        let _ = writeln!(out, "        hint: {}", f.rule.hint());
    }
    if !report.suppressions.is_empty() {
        out.push_str("  suppressed (pragma-justified):\n");
        for s in &report.suppressions {
            let _ = writeln!(out, "    [{}] {}:{} — {}", s.rule, s.file, s.line, s.justification);
        }
    }
    out
}

/// Renders the report as one JSON document (schema in `docs/LINT.md`).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"tool\": \"umtslab-lint\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"clean\": {},", report.is_clean());
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\", \"excerpt\": \"{}\", \"hint\": \"{}\"}}",
            f.rule,
            f.rule.name(),
            escape_json(&f.file),
            f.line,
            escape_json(&f.message),
            escape_json(&f.excerpt),
            escape_json(f.rule.hint())
        );
    }
    out.push_str("\n  ],\n  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"justification\": \"{}\"}}",
            s.rule,
            escape_json(&s.file),
            s.line,
            escape_json(&s.justification)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Lists the rule catalog (`--list-rules`).
pub fn render_rules() -> String {
    let mut out = String::new();
    for rule in Rule::ALL {
        let _ = writeln!(out, "{}  {:<22} {}", rule.id(), rule.name(), rule.summary());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Suppression};

    fn sample() -> Report {
        Report {
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/core/src/x.rs".into(),
                line: 3,
                rule: Rule::D1,
                message: "HashMap in determinism-scoped crate `core`".into(),
                excerpt: "m: HashMap<u8, \"q\">".into(),
            }],
            suppressions: vec![Suppression {
                file: "crates/net/src/label.rs".into(),
                line: 22,
                rule: Rule::D1,
                justification: "lookup-only".into(),
            }],
        }
    }

    #[test]
    fn table_carries_witness_and_hint() {
        let t = render_table(&sample());
        assert!(t.contains("crates/core/src/x.rs:3"));
        assert!(t.contains("hint:"));
        assert!(t.contains("DIRTY"));
        assert!(t.contains("lookup-only"));
    }

    #[test]
    fn json_escapes_and_round_trips_shape() {
        let j = render_json(&sample());
        assert!(j.contains("\\\"q\\\""), "quotes in excerpts are escaped");
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"suppressions\": ["));
    }
}
