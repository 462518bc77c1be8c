//! Executing a compiled pack and mapping measurements onto golden
//! metrics.
//!
//! Execution is strictly sequential in (flow, seed) order: every run
//! owns its own seeded testbed, so the outcome is a pure function of
//! the pack — the property the golden diff relies on.

use std::path::{Path, PathBuf};

use umtslab::umtslab_traffic::Trace;
use umtslab::{run_experiment, ExperimentConfig, ExperimentResult};
use umtslab_sim::json;
use umtslab_supervisor::metrics::AvailabilityMetrics;

use crate::canon::fmt_float;
use crate::compile::compile;
use crate::golden::{diff_goldens, Golden, GoldenDiff, Metric};
use crate::schema::Pack;

/// One run's outcome: measurements, or the failure that prevented them.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The pack flow label.
    pub flow: String,
    /// The run's seed.
    pub seed: u64,
    /// The measurement, or the experiment error rendered as text.
    pub outcome: Result<ExperimentResult, String>,
}

/// A pack after execution: every outcome plus which seeds actually ran.
#[derive(Debug, Clone)]
pub struct ExecutedPack {
    /// One outcome per executed run, flow-major then seed order.
    pub runs: Vec<RunOutcome>,
    /// The seeds that were executed (all of them, or just the first in
    /// quick mode).
    pub seeds_run: Vec<u64>,
}

impl ExecutedPack {
    /// Finds a run's measurement.
    pub fn measured(&self, flow: &str, seed: u64) -> Option<&ExperimentResult> {
        self.runs
            .iter()
            .find(|r| r.flow == flow && r.seed == seed)
            .and_then(|r| r.outcome.as_ref().ok())
    }

    /// Runs that failed outright.
    pub fn failures(&self) -> impl Iterator<Item = (&str, u64, &str)> {
        self.runs.iter().filter_map(|r| match &r.outcome {
            Ok(_) => None,
            Err(e) => Some((r.flow.as_str(), r.seed, e.as_str())),
        })
    }
}

/// Loads the trace a pack's `[trace]` section references.
///
/// Returns `Ok(None)` when the pack has no `[trace]`. The path is tried
/// relative to the working directory first, then relative to the pack
/// file's directory and its parent (so catalog packs under `packs/`
/// find `traces/` at the repository root). Parsing is strict — a trace
/// that fails [`Trace::parse`] is an error, never silently ignored.
pub fn load_trace(pack: &Pack, pack_path: Option<&Path>) -> Result<Option<Trace>, String> {
    let Some(trace_ref) = &pack.trace else { return Ok(None) };
    let mut candidates: Vec<PathBuf> = vec![PathBuf::from(&trace_ref.file)];
    if let Some(dir) = pack_path.and_then(Path::parent) {
        candidates.push(dir.join(&trace_ref.file));
        if let Some(parent) = dir.parent() {
            candidates.push(parent.join(&trace_ref.file));
        }
    }
    for candidate in &candidates {
        match std::fs::read_to_string(candidate) {
            Ok(text) => {
                let trace =
                    Trace::parse(&text).map_err(|e| format!("{}: {e}", candidate.display()))?;
                return Ok(Some(trace));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", candidate.display())),
        }
    }
    Err(format!(
        "trace file `{}` not found (tried {})",
        trace_ref.file,
        candidates.iter().map(|c| c.display().to_string()).collect::<Vec<_>>().join(", ")
    ))
}

/// Executes one planned run, keyed by its flow label and seed.
pub fn run_one(cfg: &ExperimentConfig) -> RunOutcome {
    RunOutcome {
        flow: cfg.spec.label.clone(),
        seed: cfg.seed,
        outcome: run_experiment(cfg.clone()).map_err(|e| e.to_string()),
    }
}

/// Plans a pack execution: the compiled runs in canonical (flow-major,
/// then seed) order plus the seeds that will run (all of them, or only
/// the first in `quick` mode). A pack that declares a `[trace]` needs
/// the trace obtained from [`load_trace`].
///
/// Every planned run is independent — it builds its own testbed from its
/// own seed — so a caller may execute them in any order (e.g. across a
/// worker pool) and collect the outcomes back in plan order into an
/// [`ExecutedPack`] byte-identical to what [`execute`] produces.
pub fn plan(pack: &Pack, quick: bool, trace: Option<&Trace>) -> (Vec<ExperimentConfig>, Vec<u64>) {
    let mut seeds_run = pack.seeds.expand();
    if quick {
        seeds_run.truncate(1);
    }
    let runs = compile(pack, trace).into_iter().filter(|r| seeds_run.contains(&r.seed)).collect();
    (runs, seeds_run)
}

/// Executes a pack: every flow, every seed (or only the first seed in
/// `quick` mode), strictly sequentially, over the `trace` a `[trace]`
/// pack needs. `progress` is called after each run completes.
pub fn execute(
    pack: &Pack,
    quick: bool,
    trace: Option<&Trace>,
    mut progress: impl FnMut(&RunOutcome),
) -> ExecutedPack {
    let (planned, seeds_run) = plan(pack, quick, trace);
    let runs = planned
        .into_iter()
        .map(|cfg| {
            let outcome = run_one(&cfg);
            progress(&outcome);
            outcome
        })
        .collect();
    ExecutedPack { runs, seeds_run }
}

/// Extracts one golden metric from a measurement. `None` means the run
/// did not produce it (e.g. RTT when no probe was answered, or
/// availability metrics on an unsupervised run).
pub fn metric_value(m: &ExperimentResult, metric: Metric) -> Option<f64> {
    let s = &m.summary;
    match metric {
        Metric::Sent => Some(s.sent as f64),
        Metric::Received => Some(s.received as f64),
        Metric::Lost => Some(s.lost as f64),
        Metric::LossRate => Some(s.loss_rate),
        Metric::MeanBitrateBps => Some(s.mean_bitrate_bps),
        Metric::MeanOwdS => s.mean_owd.map(|d| d.as_secs_f64()),
        Metric::MaxOwdS => s.max_owd.map(|d| d.as_secs_f64()),
        Metric::MeanJitterS => s.mean_jitter.map(|d| d.as_secs_f64()),
        Metric::MeanRttS => s.mean_rtt.map(|d| d.as_secs_f64()),
        Metric::MaxRttS => s.max_rtt.map(|d| d.as_secs_f64()),
        Metric::ConnectTimeS => m.connect_time.map(|d| d.as_secs_f64()),
        Metric::Events => Some(m.events as f64),
        Metric::UptimeFraction => {
            m.availability.as_ref().and_then(AvailabilityMetrics::uptime_fraction)
        }
        Metric::SessionDrops => m.availability.as_ref().map(|a| a.session_drops as f64),
        Metric::Redials => m.availability.as_ref().map(|a| a.redials as f64),
    }
}

/// Diffs the pack's stored goldens against an execution.
pub fn diff(pack: &Pack, executed: &ExecutedPack) -> GoldenDiff {
    diff_goldens(
        &pack.goldens,
        |_, seed| executed.seeds_run.contains(&seed),
        |flow, seed, metric| executed.measured(flow, seed).and_then(|m| metric_value(m, metric)),
    )
}

/// Renders a golden diff as the deterministic JSON document `runner pack
/// --json` prints: the pack, every run's status, every checked golden
/// and the verdict (`pass` also requires that no run failed outright).
pub fn render_diff_json(
    pack: &Pack,
    file: &Path,
    quick: bool,
    executed: &ExecutedPack,
    d: &GoldenDiff,
) -> String {
    json::document(|o| {
        o.str("pack", &pack.meta.name)
            .str("file", &file.display().to_string())
            .value("quick", quick);
        o.array("runs", &executed.runs, |o, r| {
            o.str("flow", &r.flow).value("seed", r.seed);
            match &r.outcome {
                Ok(_) => o.str("status", "ok"),
                Err(e) => o.str("status", &format!("failed: {e}")),
            };
        });
        o.array("goldens", &d.rows, |o, row| {
            let g = &row.golden;
            o.str("flow", &g.flow)
                .value("seed", g.seed)
                .str("metric", &g.metric.to_string())
                .value("expected", fmt_float(g.value));
            match row.actual {
                Some(v) => o.value("actual", fmt_float(v)),
                None => o.null("actual"),
            };
            o.value("tolerance", fmt_float(g.tolerance)).value("pass", row.pass);
        });
        o.value("skipped", d.skipped)
            .value("pass", d.pass() && executed.failures().next().is_none());
    })
}

/// The metrics `--record` pins for each run: the stable whole-flow
/// measurements. Deliberately excluded: `events` (moves with every
/// scheduler refactor) and the `max_*` tails (single-packet noise).
pub const RECORD_METRICS: [Metric; 12] = [
    Metric::Sent,
    Metric::Received,
    Metric::Lost,
    Metric::LossRate,
    Metric::MeanBitrateBps,
    Metric::MeanOwdS,
    Metric::MeanJitterS,
    Metric::MeanRttS,
    Metric::ConnectTimeS,
    Metric::UptimeFraction,
    Metric::SessionDrops,
    Metric::Redials,
];

/// Replaces the pack's goldens with freshly measured ones (every
/// [`RECORD_METRICS`] entry each executed run produced, at default
/// tolerances), returning the updated pack ready for canonical
/// serialization.
pub fn record(pack: &Pack, executed: &ExecutedPack) -> Pack {
    let mut out = pack.clone();
    out.goldens.clear();
    for run in &executed.runs {
        let Ok(m) = &run.outcome else { continue };
        for metric in RECORD_METRICS {
            if let Some(value) = metric_value(m, metric) {
                out.goldens.push(Golden {
                    flow: run.flow.clone(),
                    seed: run.seed,
                    metric,
                    value,
                    tolerance: metric.default_tolerance(value),
                });
            }
        }
    }
    out.goldens.sort_by(|a, b| (&a.flow, a.seed, a.metric).cmp(&(&b.flow, b.seed, b.metric)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::serialize;
    use crate::schema::Pack;

    #[test]
    fn minimal_pack_executes_and_records_goldens() {
        let pack = Pack::parse(&crate::schema::tests::minimal()).unwrap();
        let executed = execute(&pack, false, None, |_| {});
        assert_eq!(executed.runs.len(), 1);
        assert_eq!(executed.failures().count(), 0);
        let m = executed.measured("voip", 1).expect("run succeeded");
        assert!(metric_value(m, Metric::Sent).unwrap() > 50.0);
        assert!(metric_value(m, Metric::UptimeFraction).is_none(), "unsupervised");

        // Record, then diff the recorded pack against the same execution:
        // everything must pass by construction.
        let recorded = record(&pack, &executed);
        assert!(!recorded.goldens.is_empty());
        let d = diff(&recorded, &executed);
        assert!(d.pass(), "freshly recorded goldens must pass their own run");

        // And the recorded pack still round-trips canonically.
        let text = serialize(&recorded);
        let reparsed = Pack::parse(&text).unwrap();
        assert_eq!(reparsed, recorded);
        assert_eq!(serialize(&reparsed), text);
    }

    #[test]
    fn uptime_is_measured_exactly_on_supervised_runs() {
        let text = crate::schema::tests::minimal()
            + "[[flow]]\nlabel = \"voip_3g\"\nkind = \"voip_g711\"\npath = \"umts\"\n\
               duration_s = 2.0\n\
               [fault_plan]\nstart_s = 5.0\nhorizon_s = 30.0\nmean_gap_s = 5.0\n\
               mix = [\"ppp_terminate\"]\n";
        let pack = Pack::parse(&text).unwrap();
        let executed = execute(&pack, false, None, |_| {});
        assert_eq!(executed.failures().count(), 0, "{:?}", executed.failures().next());
        let uptime =
            |flow| executed.measured(flow, 1).and_then(|m| metric_value(m, Metric::UptimeFraction));
        assert!(uptime("voip").is_none(), "the ethernet flow is unsupervised");
        assert!(uptime("voip_3g").is_some(), "the umts flow is supervised");
    }

    #[test]
    fn perturbed_golden_fails_the_diff() {
        let pack = Pack::parse(&crate::schema::tests::minimal()).unwrap();
        let executed = execute(&pack, false, None, |_| {});
        let mut recorded = record(&pack, &executed);
        // Push one golden far outside its tolerance.
        let g = &mut recorded.goldens[0];
        g.value += g.tolerance * 10.0 + 1.0;
        let d = diff(&recorded, &executed);
        assert!(!d.pass(), "a perturbed golden must fail");
        assert_eq!(d.failures().count(), 1);
    }

    #[test]
    fn plan_and_assemble_match_execute_even_out_of_order() {
        let text = crate::schema::tests::minimal().replace("reps = 1", "reps = 2");
        let pack = Pack::parse(&text).unwrap();
        let serial = execute(&pack, false, None, |_| {});
        let (planned, seeds_run) = plan(&pack, false, None);
        assert_eq!(planned.len(), serial.runs.len());
        assert_eq!(seeds_run, serial.seeds_run);
        // Run the planned runs in reverse order, then put the outcomes
        // back into plan order — the worker-pool shape.
        let mut outcomes: Vec<(usize, RunOutcome)> =
            planned.iter().enumerate().rev().map(|(i, cfg)| (i, run_one(cfg))).collect();
        outcomes.sort_by_key(|&(i, _)| i);
        let assembled =
            ExecutedPack { runs: outcomes.into_iter().map(|(_, o)| o).collect(), seeds_run };
        // Byte-identical goldens prove the executions are equivalent.
        assert_eq!(
            serialize(&record(&pack, &assembled)),
            serialize(&record(&pack, &serial)),
            "out-of-order execution must reassemble to the serial result"
        );
    }

    #[test]
    fn traced_closed_loop_pack_executes_deterministically() {
        let text = crate::schema::tests::minimal()
            + "[trace]\nfile = \"traces/drive.csv\"\n\
               [[flow]]\nlabel = \"bulk\"\nkind = \"tcp_bulk\"\npath = \"umts\"\n\
               duration_s = 8.0\n";
        let pack = Pack::parse(&text).unwrap();
        let trace = Trace::parse(
            "# umtslab-trace v1 name=drive\n0.0,2000000,0\n3.0,300000,20000\n6.0,1000000,0\n",
        )
        .unwrap();
        let run = || {
            let executed = execute(&pack, false, Some(&trace), |_| {});
            assert_eq!(executed.failures().count(), 0, "{:?}", executed.failures().next());
            serialize(&record(&pack, &executed))
        };
        let once = run();
        assert_eq!(once, run(), "traced pack must be deterministic");
        let m = Pack::parse(&once).unwrap();
        let bulk_sent = m
            .goldens
            .iter()
            .find(|g| g.flow == "bulk" && g.metric == Metric::Sent)
            .expect("bulk flow recorded");
        assert!(bulk_sent.value > 10.0, "TCP flow moved data: {}", bulk_sent.value);
    }

    #[test]
    fn load_trace_reports_missing_files() {
        let text = crate::schema::tests::minimal() + "[trace]\nfile = \"traces/nope.csv\"\n";
        let pack = Pack::parse(&text).unwrap();
        let err = load_trace(&pack, Some(Path::new("packs/x.pack"))).unwrap_err();
        assert!(err.contains("not found"), "{err}");
        assert!(err.contains("packs/traces/nope.csv"), "tries pack-relative: {err}");
        let plain = Pack::parse(&crate::schema::tests::minimal()).unwrap();
        assert_eq!(load_trace(&plain, None).unwrap(), None);
    }

    #[test]
    fn quick_mode_skips_other_seeds() {
        let text = crate::schema::tests::minimal().replace("reps = 1", "reps = 3");
        let pack = Pack::parse(&text).unwrap();
        let executed = execute(&pack, true, None, |_| {});
        assert_eq!(executed.runs.len(), 1, "quick mode runs the first seed only");
        let recorded = {
            let full = execute(&pack, false, None, |_| {});
            record(&pack, &full)
        };
        let d = diff(&recorded, &executed);
        assert!(d.pass());
        assert!(d.skipped > 0, "goldens for unexecuted seeds are skipped");
    }
}
