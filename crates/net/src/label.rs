//! Interned string labels for hot-path identifiers.
//!
//! Trace records, metrics keys and node/slice names all repeat a small,
//! bounded set of strings ("planetlab1.unina.it/ppp0", "unina_umts", …).
//! A [`Label`] replaces those owned `String`s with a `Copy` 4-byte handle
//! into a process-wide symbol table, so recording a trace event or keying
//! a metrics map never allocates. Interning a given string is O(1)
//! amortized and happens once; every later lookup of the same text yields
//! the same handle.
//!
//! The table stores each unique string by leaking a boxed `str` (safe, no
//! `unsafe` involved). The set of labels in a simulation is bounded by the
//! topology — node names, interfaces, slices — so the leak is a one-time,
//! bounded cost, the classic trade for `&'static str` interning.

use core::fmt;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The process-wide symbol table.
struct Interner {
    // lint:allow(D1) lookup-only interner table; ids come from `names` insertion order, never from iterating the map
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static TABLE: OnceLock<Mutex<Interner>> = OnceLock::new();
    // lint:allow(D1) constructing the lookup-only interner table justified above
    TABLE.get_or_init(|| Mutex::new(Interner { map: HashMap::new(), names: Vec::new() }))
}

/// An interned string: a `Copy` handle that resolves back to its text.
///
/// ```
/// use umtslab_net::label::Label;
///
/// let a = Label::intern("ppp0");
/// let b = Label::intern("ppp0");
/// assert_eq!(a, b); // same text, same handle
/// assert_eq!(a.as_str(), "ppp0");
/// assert_eq!(a, "ppp0"); // compares by text
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

impl Label {
    /// Interns `text`, returning its stable handle.
    pub fn intern(text: &str) -> Label {
        let mut table = interner().lock().expect("label interner poisoned");
        if let Some(&id) = table.map.get(text) {
            return Label(id);
        }
        let id = u32::try_from(table.names.len()).expect("label table overflow");
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        table.map.insert(leaked, id);
        table.names.push(leaked);
        Label(id)
    }

    /// How many distinct labels the process has interned so far.
    pub fn interned() -> usize {
        interner().lock().expect("label interner poisoned").names.len()
    }

    /// Resolves the label back to its text.
    pub fn as_str(self) -> &'static str {
        let table = interner().lock().expect("label interner poisoned");
        table.names[self.0 as usize]
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Label {
        Label::intern(text)
    }
}

impl From<&String> for Label {
    fn from(text: &String) -> Label {
        Label::intern(text)
    }
}

impl From<String> for Label {
    fn from(text: String) -> Label {
        Label::intern(&text)
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_handle() {
        let a = Label::intern("eth0");
        let b = Label::intern("eth0");
        assert_eq!(a, b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn distinct_text_distinct_handles() {
        let a = Label::intern("label-test-a");
        let b = Label::intern("label-test-b");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "label-test-a");
        assert_eq!(b.as_str(), "label-test-b");
    }

    #[test]
    fn compares_against_strings() {
        let a = Label::intern("napoli");
        assert_eq!(a, "napoli");
        assert_eq!(a, String::from("napoli"));
        assert!(a != "inria");
    }

    #[test]
    fn conversions_and_display() {
        let a: Label = "lo".into();
        let b: Label = String::from("lo").into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "lo");
        assert_eq!(format!("{a:?}"), "Label(\"lo\")");
    }

    #[test]
    fn labels_key_hash_maps() {
        use std::collections::HashMap;
        let mut m: HashMap<Label, u32> = HashMap::new();
        m.insert(Label::intern("op"), 1);
        *m.entry(Label::intern("op")).or_insert(0) += 1;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&Label::intern("op")], 2);
    }
}
