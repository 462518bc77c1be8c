//! Hostile input for the two text parsers a pack run reads: seeded
//! truncations, deletions, token insertions and byte swaps of the
//! shipped packs and of the committed drive trace.
//!
//! `Pack::parse` must return a pack or a [`ParseError`] whose span lies
//! inside the document, and a pack it accepts must reach its canonical
//! form after one reparse. `Trace::parse` must return a trace or a
//! `TraceError` inside the document. Neither may panic. `random_pack`
//! only builds valid packs, so this is the only coverage of broken ones.

use std::path::Path;

use umtslab::umtslab_traffic::Trace;
use umtslab_pack::{serialize, Pack, ParseError};
use umtslab_sim::rng::SimRng;

/// Mutated documents per shipped pack, and for the trace.
const PACK_MUTATIONS: u64 = 120;
const TRACE_MUTATIONS: u64 = 400;

/// Fragments the grammar gives meaning to, plus numbers and bytes at its
/// edges.
#[rustfmt::skip]
const TOKENS: [&str; 28] = [
    "=", " = ", "[", "]", "[[", "]]", "\"", "\\", "#", ",", ".", "-", "\n", "\r", "\t", "é",
    "[pack]", "[[flow]]", "[fault_plan]", "= [", "1e309", "-0", "nan", "inf", "0x10",
    "99999999999999999999", "true", ",,",
];

/// `text` after one to three seeded edits.
fn mutate(rng: &mut SimRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.uniform_u64(1, 3) {
        let at = rng.uniform_u64(0, bytes.len() as u64) as usize;
        match rng.uniform_u64(0, 3) {
            0 => bytes.truncate(at),
            1 => {
                let end = (at + rng.uniform_u64(1, 16) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let token = TOKENS[rng.uniform_u64(0, TOKENS.len() as u64 - 1) as usize];
                bytes.splice(at..at, token.bytes());
            }
            _ if !bytes.is_empty() => {
                let last = bytes.len() - 1;
                bytes.swap(at.min(last), rng.uniform_u64(0, last as u64) as usize);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// True when a 1-based `(line, col)` can point into `text`.
fn inside(text: &str, line: usize, col: usize) -> bool {
    line >= 1 && line <= text.lines().count() + 1 && col >= 1
}

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn mutated_packs_parse_or_fail_with_a_span() {
    let mut names: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../packs"))
            .expect("packs/ catalog exists")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".toml"))
            .collect();
    names.sort();
    assert_eq!(names.len(), 9, "the shipped catalog: {names:?}");
    for (k, name) in names.iter().enumerate() {
        let original = read(&format!("packs/{name}"));
        let mut rng = SimRng::seed_from_u64(0x4057_11e0 + k as u64);
        for i in 0..PACK_MUTATIONS {
            let text = mutate(&mut rng, &original);
            match Pack::parse(&text) {
                Ok(pack) => {
                    let once = serialize(&pack);
                    let reparsed = Pack::parse(&once).unwrap_or_else(|e| {
                        panic!("{name} #{i}: canonical form fails to parse: {e}\n{once}")
                    });
                    assert_eq!(serialize(&reparsed), once, "{name} #{i}: no fixpoint\n{text}");
                }
                Err(ParseError { span, message }) => assert!(
                    inside(&text, span.line, span.col),
                    "{name} #{i}: span {span} outside the document ({message})\n{text}"
                ),
            }
        }
    }
}

#[test]
fn mutated_traces_parse_or_fail_with_a_position() {
    let original = read("traces/umts_drive.csv");
    let mut rng = SimRng::seed_from_u64(0x7ace);
    for i in 0..TRACE_MUTATIONS {
        let text = mutate(&mut rng, &original);
        if let Err(e) = Trace::parse(&text) {
            assert!(inside(&text, e.line, e.col), "#{i}: {e} outside the document\n{text}");
        }
    }
}
