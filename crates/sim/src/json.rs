//! The workspace's one JSON writer (the workspace deliberately carries no
//! serialization dependency).
//!
//! A container is either **block** — one member or element per line,
//! two-space indent, the closing bracket on its own line at the parent's
//! indent — or **inline**: `{"a": 1, "b": [1, 2]}`. The structure picks
//! the layout: a [`document`] is block, an array of objects takes its
//! parent's layout, the objects of [`Object::block_objects`] take the
//! array's, and every other container is inline. Keys and strings are
//! escaped by the writer; numbers, booleans and other pre-formatted
//! values are written verbatim through [`Display`].

use std::fmt::{Display, Write as _};

const BRACES: [&str; 2] = ["{", "}"];

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

/// Renders a top-level block object and a newline: the shape of every
/// JSON document the workspace prints or records.
pub fn document(f: impl FnOnce(&mut Object)) -> String {
    render(Some(0), BRACES, f) + "\n"
}

/// Renders one inline object.
pub fn object(f: impl FnOnce(&mut Object)) -> String {
    render(None, BRACES, f)
}

/// Renders the members of an inline object without its braces, for
/// [`Object::raw`] to splice into an object later.
pub fn members(f: impl FnOnce(&mut Object)) -> String {
    render(None, ["", ""], f)
}

/// Renders one container between `brackets`, its members or elements
/// written by `f`.
fn render(depth: Option<usize>, brackets: [&str; 2], f: impl FnOnce(&mut Object)) -> String {
    let mut out = String::from(brackets[0]);
    let mut container = Object { out: &mut out, depth, empty: true };
    f(&mut container);
    container.close(brackets[1]);
    out
}

/// Renders an array, each element rendered by `f`.
fn list<I: IntoIterator>(depth: Option<usize>, items: I, f: impl Fn(I::Item) -> String) -> String {
    render(depth, ["[", "]"], |array| items.into_iter().for_each(|i| array.next().push_str(&f(i))))
}

/// An open JSON object; members render in call order.
pub struct Object<'a> {
    out: &'a mut String,
    /// Nesting level of a block container; `None` for an inline one.
    depth: Option<usize>,
    empty: bool,
}

impl Object<'_> {
    /// Writes the separator before the next member (or array element):
    /// a comma after the previous one, then a line break and indent in a
    /// block or a space inline.
    fn next(&mut self) -> &mut String {
        let comma = if self.empty { "" } else { "," };
        match self.depth {
            Some(depth) => _ = write!(self.out, "{comma}\n{:1$}", "", 2 * depth + 2),
            None if !self.empty => self.out.push_str(", "),
            None => {}
        }
        self.empty = false;
        self.out
    }

    fn close(self, bracket: &str) {
        if let Some(depth) = self.depth {
            _ = write!(self.out, "\n{:1$}", "", 2 * depth);
        }
        self.out.push_str(bracket);
    }

    /// Adds a member whose value is written verbatim: a number, a boolean,
    /// or a value pre-formatted as JSON (`format_args!("{:.3}", x)`).
    pub fn value(&mut self, key: &str, value: impl Display) -> &mut Self {
        _ = write!(self.next(), "\"{}\": {value}", escape_json(key));
        self
    }

    /// Adds a string member, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.value(key, format_args!("\"{}\"", escape_json(value)))
    }

    /// Adds a `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.value(key, "null")
    }

    /// Adds an inline object member.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object)) -> &mut Self {
        self.value(key, render(None, BRACES, f))
    }

    /// Splices `members`, text already rendered as JSON object members
    /// (see [`members`]); an empty string adds nothing.
    pub fn raw(&mut self, members: &str) -> &mut Self {
        if !members.is_empty() {
            self.next().push_str(members);
        }
        self
    }

    /// Adds an inline array of strings, escaped.
    pub fn strings<'s>(&mut self, key: &str, strs: impl IntoIterator<Item = &'s str>) -> &mut Self {
        self.value(key, list(None, strs, |s| format!("\"{}\"", escape_json(s))))
    }

    /// Adds an array of inline objects, one per item, written by `f`: a
    /// block array inside a block object, inline inside an inline one.
    pub fn array<T>(&mut self, key: &str, items: &[T], f: impl Fn(&mut Object, &T)) -> &mut Self {
        let depth = self.depth.map(|d| d + 1);
        self.value(key, list(depth, items, |item| render(None, BRACES, |o| f(o, item))))
    }

    /// Adds an array like [`Object::array`] whose objects are block inside
    /// a block array.
    pub fn block_objects<T>(
        &mut self,
        key: &str,
        items: &[T],
        f: impl Fn(&mut Object, &T),
    ) -> &mut Self {
        let depth = self.depth.map(|d| d + 1);
        let item_depth = depth.map(|d| d + 1);
        self.value(key, list(depth, items, |item| render(item_depth, BRACES, |o| f(o, item))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_containers_keep_their_layout() {
        let doc = document(|o| {
            o.array("rows", &[(); 0], |_, ()| {})
                .block_objects("packs", &[(); 0], |_, ()| {})
                .strings("tags", [])
                .object("o", |o| {
                    o.array("cells", &[(); 0], |_, ()| {});
                });
        });
        let expected = "{\n  \"rows\": [\n  ],\n  \"packs\": [\n  ],\n  \"tags\": [],\n  \
                        \"o\": {\"cells\": []}\n}\n";
        assert_eq!(doc, expected);
        assert_eq!(document(|_| {}), "{\n}\n");
    }

    #[test]
    fn arrays_take_the_parents_layout_and_block_objects_nest_deeper() {
        let doc = document(|o| {
            o.block_objects("packs", &["q", "r"], |p, name| {
                p.str("name", name).array("rows", &[1, 2], |r, n| {
                    r.value("n", n).array("deep", &[()], |_, ()| {});
                });
            });
        });
        let rows =
            "[\n        {\"n\": 1, \"deep\": [{}]},\n        {\"n\": 2, \"deep\": [{}]}\n      ]";
        let pack =
            |name| format!("    {{\n      \"name\": \"{name}\",\n      \"rows\": {rows}\n    }}");
        assert_eq!(doc, format!("{{\n  \"packs\": [\n{},\n{}\n  ]\n}}\n", pack("q"), pack("r")));
    }

    #[test]
    fn members_splice_back_through_raw() {
        let extra = members(|o| {
            o.value("n", 1).str("s", "a, b").null("x");
        });
        assert_eq!(extra, "\"n\": 1, \"s\": \"a, b\", \"x\": null");
        let spliced = object(|o| {
            o.value("k", 0).raw(&extra).raw("");
        });
        assert_eq!(spliced, format!("{{\"k\": 0, {extra}}}"));
        assert_eq!(object(|o| _ = o.raw(&extra)), format!("{{{extra}}}"));
    }

    #[test]
    fn keys_and_strings_are_escaped() {
        let out = object(|o| _ = o.str("k\"", "\u{1}\n").strings("a", ["\\", "b"]));
        assert_eq!(out, "{\"k\\\"\": \"\\u0001\\n\", \"a\": [\"\\\\\", \"b\"]}");
    }
}
