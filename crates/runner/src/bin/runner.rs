//! The `runner` CLI: executes declarative experiment packs, lists the
//! shipped catalog, and drives the sharded fleet scenario.
//!
//! ```text
//! runner run [--nodes N] [--flows-per-node N] [--sinks N] [--shards N]
//!            [--seconds N] [--seed N] [--workers N] [--json]
//! runner pack <file> [--quick] [--json] [--record] [--check] [--workers N]
//! runner packs --list [--dir DIR] [--json]
//! runner traffic [--seed N] [--reps N] [--seconds N] [--trace FILE]
//!                [--workers N] [--json]
//! runner witnesses [--record]
//! ```
//!
//! `run` builds one coupled fleet topology partitioned across `--shards`
//! deterministic schedulers, drives it on a worker pool, and prints the
//! metrics summary plus a `trace_hash=` line (in `--json` mode the hash
//! is a field of the JSON object instead); the hash is invariant under
//! the shard and worker counts. Knobs one fleet cannot address, and a
//! `--seconds` past one day (here and for `traffic`), exit 2 with an
//! error. `pack` parses a pack document, runs every flow at every
//! campaign seed (`--quick`: first seed only; `--workers N`: N runs in
//! flight at once), diffs the measured metrics against the pack's
//! stored goldens and exits nonzero on drift. `--record` re-runs everything and rewrites the file
//! canonically with freshly measured goldens; `--check` only verifies
//! the round-trip byte-identity guarantee without running anything.
//! `traffic` runs the INRIA cross-layer scenario: a congestion-controlled
//! TCP flow on the UMTS uplink under every FACH/DCH switching policy,
//! each policy × seed cell an independent seeded experiment fanned
//! across the worker pool and reassembled in plan order — the output is
//! byte-identical for any `--workers` count, and ends with a
//! `report_hash=` line (a `"report_hash"` field with `--json`): the
//! FNV-1a over the canonical report rows. `witnesses` checks (`--record`:
//! rewrites) the repository's `WITNESSES` manifest. All simulation output
//! is deterministic: no wall clock, no host entropy.

use std::path::PathBuf;
use std::process::ExitCode;

use umtslab::fleet::FleetConfig;
use umtslab::umtslab_traffic::{fmt_secs, report_hash, Trace};
use umtslab_pack::schema::{MAX_REPS, MAX_SECONDS};
use umtslab_pack::{
    diff, load_catalog, load_trace, plan, record, render_diff_json, render_diff_table, render_json,
    render_table, run_one, serialize, ExecutedPack, Pack,
};
use umtslab_runner::{
    run_fleet_parallel, run_jobs, run_traffic_grid, summary_table, witnesses, write_json, JobRow,
};
use umtslab_sim::json;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  runner run [--nodes N] [--flows-per-node N] [--sinks N] [--shards N]\n    \
         [--seconds N] [--seed N] [--workers N] [--json]\n  \
         runner pack <file> [--quick] [--json] [--record] [--check] [--workers N]\n  \
         runner packs --list [--dir DIR] [--json]\n  \
         runner traffic [--seed N] [--reps N] [--seconds N] [--trace FILE]\n    \
         [--workers N] [--json]\n  \
         runner witnesses [--record]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        Some("packs") => cmd_packs(&args[1..]),
        Some("traffic") => cmd_traffic(&args[1..]),
        Some("witnesses") => cmd_witnesses(&args[1..]),
        _ => usage(),
    }
}

type Args<'a> = std::slice::Iter<'a, String>;

/// Feeds each argument (with the iterator, for flag values) to `apply`;
/// false as soon as `apply` rejects one.
fn parse_args<'a>(
    args: &'a [String],
    mut apply: impl FnMut(&'a str, &mut Args<'a>) -> Option<()>,
) -> bool {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if apply(a, &mut it).is_none() {
            return false;
        }
    }
    true
}

/// The value of a `--flag N` pair.
fn number<T: std::str::FromStr>(it: &mut Args<'_>) -> Option<T> {
    it.next()?.parse().ok()
}

/// The value of a `--flag N` pair that must be at least 1.
fn positive(it: &mut Args<'_>) -> Option<usize> {
    number(it).filter(|&n| n >= 1)
}

/// `--seconds` is bounded like a pack's `*_s` keys, to one day.
fn within_a_day(seconds: u64) -> Result<(), String> {
    if seconds as f64 <= MAX_SECONDS {
        Ok(())
    } else {
        Err(format!("--seconds must be at most {MAX_SECONDS} (one day), got {seconds}"))
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut cfg = FleetConfig::demo();
    let mut json = false;
    let mut workers: Option<usize> = None;
    let parsed = parse_args(args, |a, it| {
        match a {
            "--json" => json = true,
            "--nodes" => cfg.nodes = positive(it)?,
            "--flows-per-node" => cfg.flows_per_node = positive(it)?,
            "--sinks" => cfg.sinks = positive(it)?,
            "--shards" => cfg.shards = positive(it)?,
            "--seconds" => cfg.seconds = positive(it)? as u64,
            "--seed" => cfg.seed = number(it)?,
            "--workers" => workers = Some(positive(it)?),
            _ => return None,
        }
        Some(())
    });
    if !parsed {
        return usage();
    }
    if let Err(e) = within_a_day(cfg.seconds).and_then(|()| cfg.check()) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let workers = workers.unwrap_or_else(|| umtslab_runner::default_workers(cfg.shards));
    // lint:allow(D2) measuring host wall time for the summary table only
    let wall_start = std::time::Instant::now();
    let report = run_fleet_parallel(&cfg, workers);
    let wall = wall_start.elapsed();
    let label = format!("fleet/{}n-{}f", cfg.nodes, cfg.flows());
    let rows = [JobRow {
        shards: cfg.shards as u32,
        ..JobRow::new(label, cfg.seed, report.metrics, wall)
    }];
    if json {
        // The trace hash rides inside the JSON object (a bare stdout
        // line would corrupt piped-to-parser output); table mode keeps
        // the greppable trailing line.
        let trace_hash = format!("0x{:016x}", report.trace_hash);
        print!("{}", json::document(|o| write_json(o.str("trace_hash", &trace_hash), &rows)));
    } else {
        print!("{}", summary_table(&rows));
        println!(
            "fleet: {} nodes, {} sinks, {} flows, {} ppp up, sent {} received {} rtts {}",
            report.nodes,
            report.sinks,
            report.flows,
            report.ppp_up,
            report.sent,
            report.received,
            report.rtt_count
        );
        println!("trace_hash=0x{:016x}", report.trace_hash);
    }
    ExitCode::SUCCESS
}

fn cmd_pack(args: &[String]) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut quick = false;
    let mut json = false;
    let mut do_record = false;
    let mut check_only = false;
    let mut workers = 1usize;
    let parsed = parse_args(args, |a, it| {
        match a {
            "--quick" => quick = true,
            "--json" => json = true,
            "--record" => do_record = true,
            "--check" => check_only = true,
            "--workers" => workers = positive(it)?,
            _ if !a.starts_with('-') && file.is_none() => file = Some(PathBuf::from(a)),
            _ => return None,
        }
        Some(())
    });
    let (true, Some(file)) = (parsed, file) else { return usage() };

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let pack = match Pack::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {}:{e}", file.display());
            return ExitCode::from(2);
        }
    };

    // The round-trip guarantee is checked on every invocation — a pack
    // whose canonical form does not re-parse to itself is a bug
    // regardless of what was asked for.
    let canonical = serialize(&pack);
    match Pack::parse(&canonical) {
        Ok(reparsed) if reparsed == pack && serialize(&reparsed) == canonical => {}
        Ok(_) => {
            eprintln!("error: {} violates the round-trip guarantee", file.display());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: canonical form of {} fails to re-parse: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }
    if check_only {
        let verdict = if text == canonical { "canonical" } else { "non-canonical formatting" };
        println!(
            "{}: round-trip ok ({verdict}, {} flows, {} seeds, {} goldens)",
            file.display(),
            pack.flows.len(),
            pack.seeds.reps,
            pack.goldens.len()
        );
        return ExitCode::SUCCESS;
    }

    // A pack that references a [trace] needs the trace file itself
    // before anything can run.
    let trace = match load_trace(&pack, Some(&file)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Execute. `--record` always runs the full seed matrix: goldens
    // recorded from a partial run would silently drop coverage. Every
    // (flow, seed) run is independent, so `--workers N` fans them across
    // the worker pool; outcomes reassemble in plan order, which keeps
    // the output byte-identical to the serial path.
    let run_quick = quick && !do_record;
    let (planned, seeds_run) = plan(&pack, run_quick, trace.as_ref());
    let outcomes = run_jobs(planned, workers, |_, cfg| run_one(cfg));
    for outcome in &outcomes {
        if !json {
            match &outcome.outcome {
                Ok(m) => println!(
                    "ran {}@{}: sent {} received {} loss {:.4}",
                    outcome.flow,
                    outcome.seed,
                    m.summary.sent,
                    m.summary.received,
                    m.summary.loss_rate
                ),
                Err(e) => println!("ran {}@{}: FAILED ({e})", outcome.flow, outcome.seed),
            }
        }
    }
    let executed = ExecutedPack { runs: outcomes, seeds_run };

    if do_record {
        let failed = executed.failures().count();
        if failed > 0 {
            for (flow, seed, err) in executed.failures() {
                eprintln!("error: {flow}@{seed} failed: {err}");
            }
            eprintln!("error: refusing to record goldens from a failing run");
            return ExitCode::FAILURE;
        }
        let recorded = record(&pack, &executed);
        let out = serialize(&recorded);
        if let Err(e) = std::fs::write(&file, &out) {
            eprintln!("error: cannot write {}: {e}", file.display());
            return ExitCode::from(2);
        }
        println!(
            "recorded {} golden(s) into {} (canonical form)",
            recorded.goldens.len(),
            file.display()
        );
        return ExitCode::SUCCESS;
    }

    let d = diff(&pack, &executed);
    let run_failures = executed.failures().count();
    let pass = d.pass() && run_failures == 0;
    if json {
        print!("{}", render_diff_json(&pack, &file, run_quick, &executed, &d));
    } else {
        print!("{}", render_diff_table(&d));
        for (flow, seed, err) in executed.failures() {
            println!("run {flow}@{seed} failed: {err}");
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_traffic(args: &[String]) -> ExitCode {
    let mut seed = 2008u64;
    let mut reps = 3usize;
    let mut seconds = 30u64;
    let mut trace_file: Option<PathBuf> = None;
    let mut workers = 1usize;
    let mut json = false;
    let parsed = parse_args(args, |a, it| {
        match a {
            "--json" => json = true,
            "--seed" => seed = number(it)?,
            "--reps" => reps = positive(it)?,
            "--seconds" => seconds = positive(it)? as u64,
            "--trace" => trace_file = Some(PathBuf::from(it.next()?)),
            "--workers" => workers = positive(it)?,
            _ => return None,
        }
        Some(())
    });
    if !parsed {
        return usage();
    }
    if let Err(e) = within_a_day(seconds) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if reps > MAX_REPS as usize {
        eprintln!("error: --reps must be at most {MAX_REPS}, got {reps}");
        return ExitCode::from(2);
    }
    let trace = match &trace_file {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Trace::parse(&text).map_err(|e| e.to_string()))
        {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("error: cannot load trace {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };

    let reports = match run_traffic_grid(seed, reps, seconds, trace.as_ref(), workers) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: traffic cell failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hash = report_hash(&reports);

    if json {
        print!(
            "{}",
            json::document(|o| {
                o.str("scenario", "rrc-tcp")
                    .value("seed", seed)
                    .value("reps", reps)
                    .value("seconds", seconds);
                match &trace {
                    Some(t) => o.str("trace", &t.name),
                    None => o.null("trace"),
                };
                o.array("cells", &reports, |o, r| {
                    let d = &r.dwell;
                    o.str("policy", r.policy.name())
                        .value("seed", r.seed)
                        .value("goodput_bps", r.goodput_bps)
                        .value("delivered_segments", r.delivered_segments)
                        .value("retransmits", r.retransmits)
                        .value("timeouts", r.timeouts)
                        .value("max_cwnd_bytes", r.max_cwnd_bytes)
                        .value("rrc_transitions", r.rrc_transitions)
                        .value("dwell_idle_s", fmt_secs(d.idle))
                        .value("dwell_fach_s", fmt_secs(d.fach))
                        .value("dwell_dch_s", fmt_secs(d.dch))
                        .value("dwell_dch_upgraded_s", fmt_secs(d.dch_upgraded))
                        .value("idle_promotions", d.idle_promotions)
                        .value("idle_promotion_latency_s", fmt_secs(d.idle_promotion_latency));
                });
                o.str("report_hash", &format!("0x{hash:016x}"));
            })
        );
    } else {
        println!(
            "{:<12} {:>10} {:>12} {:>9} {:>6} {:>9} {:>10} {:>5} {:>10} {:>10} {:>10}",
            "policy",
            "seed",
            "goodput_bps",
            "segments",
            "retx",
            "timeouts",
            "max_cwnd",
            "rrc",
            "idle_s",
            "fach_s",
            "dch_s"
        );
        for r in &reports {
            let d = &r.dwell;
            println!(
                "{:<12} {:>10} {:>12} {:>9} {:>6} {:>9} {:>10} {:>5} {:>10} {:>10} {:>10}",
                r.policy.name(),
                r.seed,
                r.goodput_bps,
                r.delivered_segments,
                r.retransmits,
                r.timeouts,
                r.max_cwnd_bytes,
                r.rrc_transitions,
                fmt_secs(d.idle),
                fmt_secs(d.fach),
                fmt_secs(d.dch + d.dch_upgraded),
            );
        }
        println!("report_hash=0x{hash:016x}");
    }
    ExitCode::SUCCESS
}

fn cmd_packs(args: &[String]) -> ExitCode {
    let mut list = false;
    let mut json = false;
    let mut dir = PathBuf::from("packs");
    let parsed = parse_args(args, |a, it| {
        match a {
            "--list" => list = true,
            "--json" => json = true,
            "--dir" => dir = PathBuf::from(it.next()?),
            _ => return None,
        }
        Some(())
    });
    if !parsed || !list {
        return usage();
    }
    match load_catalog(&dir) {
        Ok(entries) => {
            if json {
                print!("{}", render_json(&entries));
            } else {
                print!("{}", render_table(&entries));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_witnesses(args: &[String]) -> ExitCode {
    let mut do_record = false;
    if !parse_args(args, |a, _| (a == "--record").then(|| do_record = true)) {
        return usage();
    }
    let file = witnesses::FILE;
    let pinned = match std::fs::read_to_string(file) {
        Ok(text) => witnesses::parse(&text),
        Err(e) => Err(format!("cannot read {file}: {e}")),
    };
    // Every failed computation, or (checking) every differing entry.
    let problems = pinned.map_err(|e| vec![e]).and_then(|pinned| {
        let expected = witnesses::expected(&pinned, witnesses::compute_all().map_err(|e| vec![e])?);
        let text = witnesses::render(&expected);
        print!("{text}");
        if do_record {
            std::fs::write(file, text).map_err(|e| vec![format!("cannot write {file}: {e}")])?;
            println!("recorded {} witness(es) into {file}", expected.len());
            return Ok(Vec::new());
        }
        Ok(witnesses::differences(&pinned, &expected))
    });
    let problems = problems.unwrap_or_else(|errors| errors);
    for p in &problems {
        eprintln!("error: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
