//! The witness manifest: every pinned output of the workspace, as data.
//!
//! `WITNESSES` at the repository root holds one `name = 0x<16 hex>` line
//! per pinned output, sorted by name. Each in-workspace entry is computed
//! by one function of [`WITNESSES`]; a witness defined over several runs
//! (shard counts, run-twice) fails when they disagree. The `perfbench.*`
//! entries belong to the benchmark package, its own workspace: they are
//! kept, never computed here.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use umtslab::chaos::{run_chaos_campaign, ChaosConfig};
use umtslab::fleet::{run_fleet, FleetConfig};
use umtslab::umtslab_traffic::{report_hash, Trace};
use umtslab::{run_paper, summary_row};
use umtslab_pack::{diff, execute, render_diff_json, Pack};
use umtslab_sim::time::Duration;
use umtslab_sim::Fnv1a;
use umtslab_verify::chaos;
use umtslab_verify::determinism::{self, DeterminismCheck};

use crate::pool::{default_workers, run_jobs};
use crate::traffic::run_traffic_grid;

/// The manifest file, relative to the repository root.
pub const FILE: &str = "WITNESSES";

/// Every in-workspace witness by name, in manifest order.
pub const WITNESSES: [(&str, fn() -> Result<u64, String>); 10] = [
    ("chaos.digest", chaos_digest),
    ("fleet.small", || fleet_across(FleetConfig::small(), &[1, 3])),
    ("pack.fault_injection", pack_fault_injection),
    ("paper.digest", paper_digest),
    // `runner run --nodes 24 --flows-per-node 4 --sinks 4 --seconds 2`;
    // three shards split its 28 nodes unevenly (10/9/9), four do not.
    ("run.small", || {
        let mut cfg = FleetConfig::demo();
        (cfg.nodes, cfg.flows_per_node, cfg.sinks, cfg.seconds) = (24, 4, 4, 2);
        fleet_across(cfg, &[1, 3, 4])
    }),
    // `runner traffic --seconds 10`, then `--reps 1` (the traffic bench's
    // sweep), then `--trace traces/umts_drive.csv`
    ("traffic.grid", || traffic(3, None)),
    ("traffic.quick", || traffic(1, None)),
    ("traffic.traced", || {
        let trace = Trace::parse(include_str!("../../../traces/umts_drive.csv"));
        traffic(3, Some(&trace.map_err(|e| e.to_string())?))
    }),
    ("verify.chaos", || twice(chaos::check(chaos::DEFAULT_SEED))),
    ("verify.determinism", || twice(determinism::check())),
];

/// Pinned values by name.
pub type Manifest = BTreeMap<String, u64>;

/// Parses manifest text; an error names the offending line.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let mut manifest = Manifest::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{FILE}:{}", i + 1);
        let (name, value) = line
            .split_once(" = ")
            .filter(|(n, _)| !n.is_empty() && !n.contains(char::is_whitespace))
            .ok_or_else(|| format!("{at}: expected `name = 0x<16 hex digits>`, got `{line}`"))?;
        let hex = value
            .strip_prefix("0x")
            .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .ok_or_else(|| {
                format!("{at}: `{name}` = `{value}` is not 0x and 16 lowercase hex digits")
            })?;
        match manifest.keys().next_back() {
            Some(prev) if name == prev => return Err(format!("{at}: duplicate entry `{name}`")),
            Some(prev) if name < prev.as_str() => {
                return Err(format!("{at}: entry `{name}` is out of order (after `{prev}`)"));
            }
            _ => {}
        }
        manifest.insert(name.to_string(), u64::from_str_radix(hex, 16).expect("16 hex digits"));
    }
    Ok(manifest)
}

/// Renders a manifest canonically: one line per entry, sorted by name.
pub fn render(manifest: &Manifest) -> String {
    manifest.iter().map(|(name, value)| format!("{name} = 0x{value:016x}\n")).collect()
}

/// Computes every in-workspace witness, one job each on the worker pool:
/// the values, or the first failed computation in manifest order.
pub fn compute_all() -> Result<Manifest, String> {
    let jobs = WITNESSES.to_vec();
    let results = run_jobs(jobs, default_workers(WITNESSES.len()), |_, &(name, f)| {
        f().map(|v| (name.to_string(), v)).map_err(|e| format!("{name}: {e}"))
    });
    results.into_iter().collect()
}

/// The manifest `--record` writes: `computed` plus the kept
/// `perfbench.*` entries of `pinned`.
pub fn expected(pinned: &Manifest, mut computed: Manifest) -> Manifest {
    let kept = pinned.iter().filter(|(n, _)| n.starts_with("perfbench."));
    computed.extend(kept.map(|(n, &v)| (n.clone(), v)));
    computed
}

/// Every mismatched, missing or unknown entry of `pinned`, by name.
pub fn differences(pinned: &Manifest, expected: &Manifest) -> Vec<String> {
    let names: BTreeSet<&String> = pinned.keys().chain(expected.keys()).collect();
    let entry = |name: &String| match (pinned.get(name), expected.get(name)) {
        (Some(p), Some(e)) if p != e => {
            Some(format!("{name}: pinned 0x{p:016x}, computed 0x{e:016x}"))
        }
        (Some(_), None) => Some(format!("{name}: unknown entry")),
        (None, Some(e)) => Some(format!("{name}: missing entry (computed 0x{e:016x})")),
        _ => None,
    };
    names.into_iter().filter_map(entry).collect()
}

/// Computes the in-workspace witness `name` and compares it with its
/// entry of the manifest text `text`: `Ok`, or what [`differences`] says.
pub fn check(text: &str, name: &str) -> Result<(), String> {
    let (_, witness) = WITNESSES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("{name}: not an in-workspace witness"))?;
    let pinned: Manifest = parse(text)?.into_iter().filter(|(n, _)| n == name).collect();
    let computed = witness().map_err(|e| format!("{name}: {e}"))?;
    match differences(&pinned, &Manifest::from([(name.to_string(), computed)]))[..] {
        [] => Ok(()),
        ref found => Err(found.join("\n")),
    }
}

/// The one value several runs agree on, or the first disagreement.
fn agreed(runs: &[(impl std::fmt::Display, u64)]) -> Result<u64, String> {
    let (k0, h0) = &runs[0];
    match runs.iter().find(|(_, h)| h != h0) {
        None => Ok(*h0),
        Some((k, h)) => Err(format!("{k0} gave 0x{h0:016x} but {k} gave 0x{h:016x}")),
    }
}

/// A verifier campaign's hash, which must repeat on a second run.
fn twice(c: DeterminismCheck) -> Result<u64, String> {
    agreed(&[("run 1", c.first), ("run 2", c.second)])
}

/// A fleet's trace hash, which must not depend on the shard count.
fn fleet_across(cfg: FleetConfig, shards: &[usize]) -> Result<u64, String> {
    let run = |n| run_fleet(&FleetConfig { shards: n, ..cfg.clone() }).trace_hash;
    agreed(&shards.iter().map(|&n| (format!("{n} shard(s)"), run(n))).collect::<Vec<_>>())
}

/// The switching-policy grid's report hash at seed 2008, 10 s per cell.
fn traffic(reps: usize, trace: Option<&Trace>) -> Result<u64, String> {
    let reports = run_traffic_grid(2008, reps, 10, trace, 1).map_err(|e| e.to_string())?;
    Ok(report_hash(&reports))
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.digest()
}

/// The bytes `runner pack packs/fault_injection.toml --quick --json`
/// prints: the one supervised pack, whose goldens alone would let drift
/// inside their tolerances pass.
fn pack_fault_injection() -> Result<u64, String> {
    let pack = Pack::parse(include_str!("../../../packs/fault_injection.toml"))
        .map_err(|e| e.to_string())?;
    let executed = execute(&pack, true, None, |_| {});
    let file = Path::new("packs/fault_injection.toml");
    Ok(fnv(render_diff_json(&pack, file, true, &executed, &diff(&pack, &executed)).as_bytes()))
}

/// The summary rows of the paper campaign at seed 21 with 8 s flows.
fn paper_digest() -> Result<u64, String> {
    let run = run_paper(21, Some(Duration::from_secs(8))).map_err(|e| e.to_string())?;
    let rows = [&run.voip.ethernet, &run.voip.umts, &run.cbr.ethernet, &run.cbr.umts];
    Ok(fnv(rows.map(|r| summary_row(r) + "\n").concat().as_bytes()))
}

/// The lifecycle trail and availability of the supervised chaos campaign
/// at seed 7.
fn chaos_digest() -> Result<u64, String> {
    let report = run_chaos_campaign(&ChaosConfig::paper(7), |_, _, _| {});
    let mut h = Fnv1a::new();
    for (at, kind) in &report.lifecycle {
        h.update_u64(*at);
        h.update(kind.as_bytes());
    }
    h.update(format!("{:?}", report.availability).as_bytes());
    Ok(h.digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../WITNESSES");

    #[test]
    fn committed_manifest_matches_every_witness() {
        let pinned = parse(COMMITTED).expect("the committed manifest parses");
        let expected = expected(&pinned, compute_all().expect("every witness computes"));
        let differences = differences(&pinned, &expected);
        assert!(differences.is_empty(), "{FILE} disagrees:\n{}", differences.join("\n"));
    }

    #[test]
    fn recording_the_committed_values_rewrites_the_committed_bytes() {
        assert!(WITNESSES.windows(2).all(|w| w[0].0 < w[1].0), "WITNESSES is in manifest order");
        let pinned = parse(COMMITTED).unwrap();
        let computed: Manifest =
            WITNESSES.iter().map(|&(n, _)| (n.to_string(), pinned[n])).collect();
        assert_eq!(render(&expected(&pinned, computed)), COMMITTED, "perfbench.* entries are kept");
    }

    #[test]
    fn malformed_manifests_name_the_line() {
        let value = "0x0123456789abcdef";
        assert!(parse(&format!("a = {value}\nb = {value}\n")).is_ok());
        for (text, error) in [
            (format!("a {value}\n"), "WITNESSES:1: expected `name = 0x<16 hex digits>`"),
            (format!(" = {value}\n"), "WITNESSES:1: expected"),
            ("\n".to_string(), "WITNESSES:1: expected"),
            (format!("a = {value}\nb = 0x0123\n"), "WITNESSES:2: `b` = `0x0123` is not"),
            ("a = 0x0123456789ABCDEF\n".to_string(), "WITNESSES:1: `a`"),
            ("a = 0x0123456789abcdeg\n".to_string(), "WITNESSES:1: `a`"),
            ("a = 0123456789abcdef00\n".to_string(), "WITNESSES:1: `a`"),
            (format!("b = {value}\nb = {value}\n"), "WITNESSES:2: duplicate entry `b`"),
            (format!("b = {value}\na = {value}\n"), "WITNESSES:2: entry `a` is out of order"),
        ] {
            let e = parse(&text).expect_err(&text);
            assert!(e.starts_with(error), "{text:?}: {e}");
        }
    }

    #[test]
    fn unknown_missing_and_changed_entries_are_named() {
        let pinned = parse(COMMITTED).unwrap();
        assert!(differences(&pinned, &pinned).is_empty());
        let mut unknown = pinned.clone();
        unknown.insert("traffic.bogus".to_string(), 1);
        assert_eq!(differences(&unknown, &pinned), ["traffic.bogus: unknown entry"]);
        let mut missing = pinned.clone();
        let run_small = missing.remove("run.small").unwrap();
        let computed = format!("run.small: missing entry (computed 0x{run_small:016x})");
        assert_eq!(differences(&missing, &pinned), [computed]);
        // One changed digit of any in-workspace line is a mismatch naming
        // that entry, with both values.
        for (name, _) in WITNESSES {
            let line = COMMITTED.lines().find(|l| l.starts_with(&format!("{name} = "))).unwrap();
            let digit = if line.ends_with('0') { "1" } else { "0" };
            let edited = COMMITTED.replace(line, &(line[..line.len() - 1].to_string() + digit));
            let changed = parse(&edited).unwrap();
            let mismatch = format!(
                "{name}: pinned 0x{:016x}, computed 0x{:016x}",
                changed[name], pinned[name]
            );
            assert_eq!(differences(&changed, &pinned), [mismatch]);
        }
    }
}
