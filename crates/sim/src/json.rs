//! The one JSON string escaper behind the workspace's hand-rolled JSON
//! documents (the workspace deliberately carries no serialization
//! dependency).

/// Escapes a string for embedding between JSON double quotes: quote,
/// backslash and the control characters (`\n`, `\r`, `\t` by name, the
/// rest as `\u00XX`). Everything else passes through unchanged.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
