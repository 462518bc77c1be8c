//! Rendering a lint [`Report`] as a human table or deterministic JSON.
//!
//! JSON is written by the workspace's shared [`umtslab_sim::json`]
//! writer, with all arrays pre-sorted, so two scans of the same tree
//! render byte-identical documents — a property the fixture suite
//! asserts.

use std::fmt::Write;

use umtslab_sim::json;

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
    json::document(|o| {
        o.str("tool", "umtslab-lint")
            .value("files_scanned", report.files_scanned)
            .value("clean", report.is_clean());
        o.array("findings", &report.findings, |o, f| {
            o.str("rule", f.rule.id())
                .str("name", f.rule.name())
                .str("file", &f.file)
                .value("line", f.line)
                .str("message", &f.message)
                .str("excerpt", &f.excerpt)
                .str("hint", f.rule.hint());
        });
        o.array("suppressions", &report.suppressions, |o, s| {
            o.str("rule", s.rule.id())
                .str("file", &s.file)
                .value("line", s.line)
                .str("justification", &s.justification);
        });
    })
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
    fn json_snapshot_pins_every_byte() {
        assert_eq!(
            render_json(&sample()),
            r#"{
  "tool": "umtslab-lint",
  "files_scanned": 2,
  "clean": false,
  "findings": [
    {"rule": "D1", "name": "hash-collection", "file": "crates/core/src/x.rs", "line": 3, "message": "HashMap in determinism-scoped crate `core`", "excerpt": "m: HashMap<u8, \"q\">", "hint": "use BTreeMap/BTreeSet, or justify a provably lookup-only table with `// lint:allow(D1) <why>`"}
  ],
  "suppressions": [
    {"rule": "D1", "file": "crates/net/src/label.rs", "line": 22, "justification": "lookup-only"}
  ]
}
"#
        );
        assert_eq!(
            render_json(&Report { files_scanned: 1, ..Report::default() }),
            r#"{
  "tool": "umtslab-lint",
  "files_scanned": 1,
  "clean": true,
  "findings": [
  ],
  "suppressions": [
  ]
}
"#
        );
    }

    #[test]
    fn json_escapes_and_round_trips_shape() {
        let j = render_json(&sample());
        assert!(j.contains("\\\"q\\\""), "quotes in excerpts are escaped");
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"suppressions\": ["));
    }
}
