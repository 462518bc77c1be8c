//! The shared bench history: one append-only trajectory schema and one
//! same-mode regression gate for the `dataplane`, `fleet` and `traffic`
//! benches of the `bench` binary.
//!
//! Each run appends one [`Entry`] to its bench's `BENCH_<name>.json`:
//! the git revision, the mode (`--quick` or full), and one [`Row`] per
//! measured configuration — a key, the throughput the gate watches, and
//! the extra fields the bench records beside it as raw JSON values. The
//! gate fails a run whose throughput for any key falls below
//! [`GATE_FRACTION`] of the last entry of the same mode, or that lacks a
//! key that entry had; quick and full entries are never compared with
//! each other.
//!
//! ```
//! use umtslab_bench::{load, Entry, Row, DATAPLANE};
//!
//! let entry = Entry {
//!     git_rev: "abc1234".to_string(),
//!     quick: true,
//!     rows: vec![Row::new("cbr-1mbps", 500_000.0).with(|o| {
//!         o.value("deep_copies", 0);
//!     })],
//! };
//! let text = DATAPLANE.render(std::slice::from_ref(&entry));
//! assert_eq!(load(&text), vec![entry.clone()]);
//!
//! let slower = Entry { rows: vec![Row::new("cbr-1mbps", 400_000.0)], ..entry.clone() };
//! assert_eq!(DATAPLANE.regressions(&[entry], &slower).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use umtslab::umtslab_sim::json;

/// A run whose throughput for some key falls below this fraction of the
/// last same-mode entry fails the gate.
pub const GATE_FRACTION: f64 = 0.9;

/// The wired two-node data-plane bench.
pub const DATAPLANE: Bench = Bench { name: "dataplane", seed: 42, unit: "packets_per_sec" };
/// The sharded-fleet scaling bench.
pub const FLEET: Bench = Bench { name: "fleet", seed: 2008, unit: "packets_per_sec" };
/// The switching-policy TCP sweep bench.
pub const TRAFFIC: Bench = Bench { name: "traffic", seed: 2008, unit: "segments_per_sec" };

/// One bench's trajectory file: its name, master seed and throughput unit.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Bench name; the history lives in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Master seed of every run.
    pub seed: u64,
    /// What each row's `throughput` counts.
    pub unit: &'static str,
}

/// One measured configuration of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What was measured (a flow, a shard count, a sweep).
    pub key: String,
    /// The gated figure, in the bench's [`Bench::unit`].
    pub throughput: f64,
    /// Further fields, as the raw JSON object members rendered after
    /// `throughput` (`"name": value, ...`).
    pub extra: String,
}

impl Row {
    /// A row without extra fields.
    pub fn new(key: impl Into<String>, throughput: f64) -> Row {
        Row { key: key.into(), throughput, extra: String::new() }
    }

    /// Sets the extra fields, written by `f` after `key` and `throughput`.
    #[must_use]
    pub fn with(mut self, f: impl FnOnce(&mut json::Object<'_>)) -> Row {
        self.extra = json::members(f);
        self
    }
}

/// One run of a bench: one element of the `history` array.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Short git revision the run was built from.
    pub git_rev: String,
    /// Whether the run used `--quick` sizes.
    pub quick: bool,
    /// One row per measured configuration.
    pub rows: Vec<Row>,
}

impl Entry {
    /// An entry stamped with the current git revision.
    pub fn new(quick: bool, rows: Vec<Row>) -> Entry {
        Entry { git_rev: git_rev(), quick, rows }
    }
}

impl Bench {
    /// The trajectory file, relative to the current directory: benches
    /// run from the repository root, as `runner witnesses` does, so a run
    /// in a copied tree writes the copy's file.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.name))
    }

    /// Renders the whole trajectory document.
    pub fn render(&self, entries: &[Entry]) -> String {
        json::document(|o| {
            o.str("bench", self.name).value("seed", self.seed).str("unit", self.unit);
            o.block_objects("history", entries, |o, e| {
                o.str("git_rev", &e.git_rev).value("quick", e.quick);
                o.array("rows", &e.rows, |o, r| {
                    o.str("key", &r.key)
                        .value("throughput", format_args!("{:.1}", r.throughput))
                        .raw(&r.extra);
                });
            });
        })
    }

    /// Appends `entry` to the trajectory file and returns the entries
    /// that were there before it.
    pub fn append(&self, entry: &Entry) -> Vec<Entry> {
        let path = self.path();
        let prior = std::fs::read_to_string(&path).map(|t| load(&t)).unwrap_or_default();
        let mut entries = prior.clone();
        entries.push(entry.clone());
        std::fs::write(&path, self.render(&entries))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("appended history entry {} to {}", entries.len(), path.display());
        prior
    }

    /// Compares `now` with the last `prior` entry of the same mode and
    /// returns one message per key of it that `now` lacks or whose
    /// throughput fell below [`GATE_FRACTION`] of it (empty: the gate
    /// holds, or there is no such entry).
    pub fn regressions(&self, prior: &[Entry], now: &Entry) -> Vec<String> {
        let Some(prev) = baseline(prior, now) else { return Vec::new() };
        let mut failures = Vec::new();
        for p in &prev.rows {
            let Some(n) = now.rows.iter().find(|r| r.key == p.key) else {
                failures.push(format!("{}: missing from this run", p.key));
                continue;
            };
            if n.throughput < p.throughput * GATE_FRACTION {
                failures.push(format!(
                    "{}: {:.1} {} is {:.1}% of the previous entry's {:.1}",
                    p.key,
                    n.throughput,
                    self.unit,
                    n.throughput / p.throughput * 100.0,
                    p.throughput
                ));
            }
        }
        failures
    }

    /// Runs the gate, printing its verdict: skipped without a same-mode
    /// entry in `prior`, and exits 1 on a regression.
    pub fn gate(&self, prior: &[Entry], now: &Entry) {
        if baseline(prior, now).is_none() {
            println!("no same-mode baseline, gate skipped");
            return;
        }
        let failures = self.regressions(prior, now);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: regression gate — {f}");
            }
            std::process::exit(1);
        }
        let margin = (1.0 - GATE_FRACTION) * 100.0;
        println!("throughput gate holds: within {margin:.0}% of the previous same-mode entry");
    }
}

/// The last `prior` entry of the same mode as `now`, which the gate
/// compares against.
fn baseline<'a>(prior: &'a [Entry], now: &Entry) -> Option<&'a Entry> {
    prior.iter().rev().find(|e| e.quick == now.quick)
}

/// Parses a trajectory document written by [`Bench::render`] back into
/// its entries. A missing or foreign document yields no entries.
pub fn load(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for line in text.lines().map(|l| l.trim().trim_end_matches(',')) {
        let field = |name: &str| line.strip_prefix(&format!("\"{name}\": "));
        if let Some(rev) = field("git_rev") {
            let git_rev = rev.trim_matches('"').to_string();
            entries.push(Entry { git_rev, quick: false, rows: Vec::new() });
        }
        let Some(entry) = entries.last_mut() else { continue };
        if let Some(quick) = field("quick") {
            entry.quick = quick == "true";
        } else if let Some(row) = parse_row(line) {
            entry.rows.push(row);
        }
    }
    entries
}

/// Parses one rendered row line (trailing comma already stripped).
fn parse_row(line: &str) -> Option<Row> {
    let body = line.strip_prefix("{\"key\": \"")?.strip_suffix('}')?;
    let (key, rest) = body.split_once("\", \"throughput\": ")?;
    let (throughput, extra) = rest.split_once(", ").unwrap_or((rest, ""));
    Some(Row {
        key: key.to_string(),
        throughput: throughput.parse().ok()?,
        extra: extra.to_string(),
    })
}

/// The current git revision (short), or `unknown` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(quick: bool, rows: &[(&str, f64)]) -> Entry {
        let rows = rows.iter().map(|&(k, t)| Row::new(k, t)).collect();
        Entry { git_rev: "abc1234".to_string(), quick, rows }
    }

    #[test]
    fn load_inverts_render() {
        let sweep = Row::new("sweep", 10_282.3).with(|o| {
            o.value("segments", 2028).str("report_hash", "0x7abbd41b51059133").array(
                "policies",
                &["a, b", "}"],
                |o, policy| {
                    o.str("policy", policy).strings("n", ["1, 2"]);
                },
            );
        });
        let entries = vec![
            Entry { git_rev: "7f3c2ac".to_string(), quick: false, rows: vec![sweep] },
            run(true, &[("1-shard", 10_748.3), ("2-shard", 12_688.5)]),
            run(true, &[]),
        ];
        let text = TRAFFIC.render(&entries);
        assert_eq!(load(&text), entries);
    }

    #[test]
    fn gate_fails_below_ninety_percent_of_the_last_same_mode_entry() {
        let prior = [run(true, &[("a", 100.0), ("b", 100.0)]), run(true, &[("a", 200.0)])];
        assert!(FLEET.regressions(&prior, &run(true, &[("a", 181.0), ("b", 1.0)])).is_empty());
        let failures = FLEET.regressions(&prior, &run(true, &[("a", 179.0)]));
        assert_eq!(failures, ["a: 179.0 packets_per_sec is 89.5% of the previous entry's 200.0"]);
        let failures = FLEET.regressions(&prior[..1], &run(true, &[("a", 100.0)]));
        assert_eq!(failures, ["b: missing from this run"]);
    }

    #[test]
    fn gate_ignores_entries_of_the_other_mode() {
        let prior = [run(true, &[("a", 100.0)]), run(false, &[("a", 1_000.0)])];
        assert!(FLEET.regressions(&prior, &run(true, &[("a", 95.0)])).is_empty());
        assert!(FLEET.regressions(&prior[1..], &run(true, &[("a", 1.0)])).is_empty());
        assert_eq!(FLEET.regressions(&prior, &run(false, &[("a", 95.0)])).len(), 1);
    }

    /// Tests run in the package directory, two levels below the root.
    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    #[test]
    fn committed_trajectories_use_the_shared_schema() {
        for bench in [DATAPLANE, FLEET, TRAFFIC] {
            let path = root().join(bench.path());
            let text = std::fs::read_to_string(&path).expect("committed trajectory");
            let entries = load(&text);
            let path = path.display();
            assert!(entries.iter().any(|e| !e.quick), "{path} keeps a full-mode baseline");
            assert_eq!(bench.render(&entries), text, "{path} is in canonical form");
        }
    }

    #[test]
    fn trajectory_paths_follow_the_working_directory() {
        for bench in [DATAPLANE, FLEET, TRAFFIC] {
            let path = bench.path();
            assert!(path.is_relative(), "{}", path.display());
            assert!(root().join(&path).is_file(), "{} is committed at the root", path.display());
            assert!(!path.is_file(), "{} resolved outside the current directory", path.display());
        }
    }
}
