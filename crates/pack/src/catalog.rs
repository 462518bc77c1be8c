//! The pack catalog: loading every pack under a directory and rendering
//! the listing as a table or deterministic JSON.
//!
//! Files are read in sorted filename order, so both renderings are
//! byte-stable for a given catalog regardless of filesystem enumeration
//! order. The JSON is written by the shared [`umtslab_sim::json`] writer.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use umtslab_sim::json;

use crate::schema::Pack;

/// One catalog row: a pack file plus its decoded headline facts.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The pack file, relative to the catalog directory.
    pub file: String,
    /// The decoded pack.
    pub pack: Pack,
}

/// Loads every `*.toml` pack under `dir`, sorted by filename. A file
/// that fails to parse fails the whole catalog — a broken shipped pack
/// is a bug, not a row to skip.
pub fn load_catalog(dir: &Path) -> Result<Vec<CatalogEntry>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read catalog directory {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let mut entries = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let pack = Pack::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
        entries.push(CatalogEntry { file, pack });
    }
    Ok(entries)
}

/// Renders the catalog as a human-readable table.
pub fn render_table(entries: &[CatalogEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:<20} {:>5} {:>7} {:>8}  description",
        "file", "name", "flows", "seeds", "goldens"
    );
    for e in entries {
        let _ = writeln!(
            out,
            "{:<26} {:<20} {:>5} {:>7} {:>8}  {}",
            e.file,
            e.pack.meta.name,
            e.pack.flows.len(),
            e.pack.seeds.reps,
            e.pack.goldens.len(),
            e.pack.meta.description
        );
    }
    let _ = writeln!(out, "{} pack(s)", entries.len());
    out
}

/// Renders the catalog as a deterministic JSON document (same catalog,
/// same bytes).
pub fn render_json(entries: &[CatalogEntry]) -> String {
    json::document(|o| {
        o.block_objects("packs", entries, |o, e| {
            o.str("file", &e.file)
                .str("name", &e.pack.meta.name)
                .str("description", &e.pack.meta.description)
                .strings("flows", e.pack.flows.iter().map(|f| f.label.as_str()))
                .value("seed_base", e.pack.seeds.base)
                .value("seed_reps", e.pack.seeds.reps)
                .value("goldens", e.pack.goldens.len());
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Pack;

    fn entry(name: &str) -> CatalogEntry {
        let text = crate::schema::tests::minimal().replace("\"mini\"", &format!("\"{name}\""));
        CatalogEntry { file: format!("{name}.toml"), pack: Pack::parse(&text).unwrap() }
    }

    #[test]
    fn table_and_json_render_every_entry() {
        let entries = vec![entry("alpha"), entry("beta")];
        let table = render_table(&entries);
        assert!(table.contains("alpha"));
        assert!(table.contains("2 pack(s)"));
        let json = render_json(&entries);
        assert!(json.contains("\"name\": \"beta\""));
        assert!(json.contains("\"flows\": [\"voip\"]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_specials() {
        let json = render_json(&[entry("a\\\"b")]);
        assert!(json.contains("\"name\": \"a\\\"b\""), "{json}");
    }

    #[test]
    fn json_snapshot_pins_every_byte() {
        assert_eq!(
            render_json(&[entry("alpha"), entry("a\\\"b")]),
            r#"{
  "packs": [
    {
      "file": "alpha.toml",
      "name": "alpha",
      "description": "smallest valid pack",
      "flows": ["voip"],
      "seed_base": 1,
      "seed_reps": 1,
      "goldens": 0
    },
    {
      "file": "a\\\"b.toml",
      "name": "a\"b",
      "description": "smallest valid pack",
      "flows": ["voip"],
      "seed_base": 1,
      "seed_reps": 1,
      "goldens": 0
    }
  ]
}
"#
        );
        assert_eq!(
            render_json(&[]),
            r#"{
  "packs": [
  ]
}
"#
        );
    }
}
