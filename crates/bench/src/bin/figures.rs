//! Regenerates every figure of the paper's evaluation.
//!
//! Runs the full 120 s campaign (both workloads × both paths), sharded
//! across a worker pool by `umtslab-runner` — results are byte-identical
//! for any worker count, because every job owns a pre-assigned seed and a
//! private testbed. Then runs the ablations of the first repetition's
//! CBR/UMTS job on the same pool. Prints the windowed series each figure
//! plots (200 ms windows, exactly the paper's methodology), the summary
//! rows, the shape-check table comparing this reproduction's qualitative
//! results against the paper's claims, the ablation tables and their
//! checks, and the per-job counter table of the campaign. Exits 2 if a
//! shape or ablation check fails, and 1 on bad arguments.
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin figures -- \
//!     [reps] [seed] [--series] [--workers N] [--json PATH] [--bursty]
//! ```
//!
//! * `reps`  — repetitions with distinct seeds (the paper used 20), 1 to
//!   1000; default 1.
//! * `seed`  — base seed; default 2008.
//! * `--series` — also dump the full per-window series for every figure.
//! * `--workers N` — worker threads; default: available parallelism.
//! * `--json PATH` — write the per-job counters and totals as JSON to `PATH`.
//! * `--bursty` — instead of the paper figures, run the bursty-UMTS
//!   campaign: the VoIP flow over a path degraded by the Gilbert–Elliott
//!   `FaultConfig::bursty_umts()` preset, against a Bernoulli process
//!   matched to the same marginal loss rate, aggregated over `reps`.

use umtslab::experiment::{run_experiment, ExperimentConfig, PathKind};
use umtslab::paper::ablation::{ablation_checks, ablation_configs};
use umtslab::paper::{
    metric_points, shape_checks, summary_row, Figure, Metric, PaperRun, PathPair, ShapeCheck,
    Workload, FIGURES,
};
use umtslab::prelude::*;
use umtslab::umtslab_net::fault::{FaultConfig, LossModel};
use umtslab::umtslab_sim::json;
use umtslab::ExperimentResult;
use umtslab_pack::schema::MAX_REPS;
use umtslab_runner::{default_workers, run_jobs, run_reps_parallel, summary_table, write_json};

const USAGE: &str =
    "usage: figures [reps] [seed] [--series] [--workers N] [--json PATH] [--bursty]";

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The two paths of the workload `fig` plots.
fn pair_for<'a>(run: &'a PaperRun, fig: &Figure) -> &'a PathPair {
    match fig.workload {
        Workload::VoipG711 => &run.voip,
        Workload::Cbr1Mbps => &run.cbr,
    }
}

/// Prints `why` and the usage line to stderr, and exits 1.
fn usage(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(1);
}

/// Prints one line per check, with its expectation under `source`, and
/// returns how many failed.
fn report(checks: &[ShapeCheck], source: &str) -> usize {
    for c in checks {
        let status = if c.pass { "PASS" } else { "FAIL" };
        println!(
            "[{status}] {:<22} {source}: {:<62} measured: {}",
            c.name, c.expectation, c.measured
        );
    }
    checks.iter().filter(|c| !c.pass).count()
}

struct Cli {
    reps: usize,
    seed: u64,
    dump_series: bool,
    workers: Option<usize>,
    json_path: Option<String>,
    bursty: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        reps: 1,
        seed: 2008,
        dump_series: false,
        workers: None,
        json_path: None,
        bursty: false,
    };
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--series" => cli.dump_series = true,
            "--bursty" => cli.bursty = true,
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => cli.workers = Some(n),
                _ => usage("--workers needs a positive integer"),
            },
            "--json" => match args.next() {
                Some(path) => cli.json_path = Some(path),
                None => usage("--json needs a file path"),
            },
            other if !other.starts_with("--") => {
                match positional {
                    0 => match other.parse() {
                        Ok(n) if (1..=MAX_REPS as usize).contains(&n) => cli.reps = n,
                        _ => usage(&format!("reps must be in 1..={MAX_REPS}, got {other}")),
                    },
                    1 => match other.parse() {
                        Ok(seed) => cli.seed = seed,
                        Err(_) => usage(&format!("seed must be an unsigned integer, got {other}")),
                    },
                    _ => usage(&format!("unexpected argument: {other}")),
                }
                positional += 1;
            }
            other => usage(&format!("unknown flag: {other}")),
        }
    }
    cli
}

/// Stationary marginal loss probability of a loss process.
fn marginal_loss(model: &LossModel) -> f64 {
    match *model {
        LossModel::None => 0.0,
        LossModel::Bernoulli { p } => p,
        LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad } => {
            let pi_bad = p_gb / (p_gb + p_bg);
            pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
        }
    }
}

/// The bursty-UMTS campaign: the VoIP workload over a wired path degraded
/// by the Gilbert–Elliott preset vs a marginally-matched Bernoulli
/// process, `reps` repetitions each, sharded across the worker pool.
fn run_bursty_campaign(cli: &Cli) {
    let bursty = FaultConfig::bursty_umts();
    let p = marginal_loss(&bursty.loss);
    let variants: Vec<(&str, FaultConfig)> = vec![
        ("clean", FaultConfig::none()),
        ("bursty-UMTS (GE)", bursty),
        (
            "Bernoulli (matched)",
            FaultConfig { loss: LossModel::Bernoulli { p }, ..Default::default() },
        ),
    ];

    let mut jobs = Vec::new();
    for (label, fault) in &variants {
        for rep in 0..cli.reps {
            jobs.push((*label, fault.clone(), cli.seed.wrapping_add(rep as u64)));
        }
    }
    let workers = cli.workers.unwrap_or_else(|| default_workers(jobs.len()));
    println!(
        "bursty-UMTS campaign — {} repetition(s), base seed {}, {workers} worker(s)",
        cli.reps, cli.seed
    );
    println!("(Gilbert–Elliott preset, stationary marginal loss {:.2}% per link)\n", p * 100.0);

    let results = run_jobs(jobs, workers, |_, (_, fault, seed)| {
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(60);
        let mut cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, *seed);
        cfg.access_fault = fault.clone();
        run_experiment(cfg).expect("wired path always comes up")
    });

    println!(
        "{:<22} {:>10} {:>16} {:>16} {:>12}",
        "variant", "loss [%]", "lossy windows", "worst window", "jitter [ms]"
    );
    for (v, (label, _)) in variants.iter().enumerate() {
        let runs = &results[v * cli.reps..(v + 1) * cli.reps];
        let mut loss = Vec::new();
        let mut lossy = Vec::new();
        let mut worst = Vec::new();
        let mut jitter = Vec::new();
        for r in runs {
            loss.push(r.summary.loss_rate * 100.0);
            let mut windows = 0usize;
            let mut hit = 0usize;
            let mut w = 0.0f64;
            for pt in &r.series.points {
                let offered = pt.received + pt.lost;
                if offered == 0 {
                    continue;
                }
                windows += 1;
                if pt.lost > 0 {
                    hit += 1;
                }
                w = w.max(pt.lost as f64 / offered as f64);
            }
            lossy.push(if windows == 0 { 0.0 } else { 100.0 * hit as f64 / windows as f64 });
            worst.push(w * 100.0);
            jitter.push(r.summary.mean_jitter.map_or(0.0, |d| d.as_secs_f64() * 1000.0));
        }
        let (lm, ls) = mean_std(&loss);
        let (wm, _) = mean_std(&lossy);
        let (xm, _) = mean_std(&worst);
        let (jm, _) = mean_std(&jitter);
        println!("{label:<22} {lm:>5.2}±{ls:<4.2} {wm:>13.1}% {xm:>15.1}% {jm:>12.3}");
        if cli.dump_series {
            println!("--- per-window loss series, first repetition ({label}) ---");
            for (t, v) in metric_points(&runs[0], Metric::Loss) {
                println!("{t:.1}\t{v:.6}");
            }
        }
    }
    println!("\nSame marginal rate, different burst structure: the GE channel");
    println!("concentrates loss in few ruined windows, Bernoulli smears it.");
}

fn main() {
    let cli = parse_cli();
    if cli.bursty {
        run_bursty_campaign(&cli);
        return;
    }
    let jobs = cli.reps * 4;
    let workers = cli.workers.unwrap_or_else(|| default_workers(jobs));

    println!(
        "umtslab figure regeneration — {} repetition(s), base seed {}, {workers} worker(s)",
        cli.reps, cli.seed
    );
    println!("(the paper executed each measurement 20 times; pass `20` to match)\n");

    eprintln!("running {jobs} job(s), then the ablations, on {workers} worker(s) ...");
    let campaign = run_reps_parallel(cli.seed, cli.reps, None, workers).and_then(|done| {
        let configs = ablation_configs(cli.seed);
        let ablations = run_jobs(configs, workers, |_, cfg| run_experiment(cfg.clone()));
        Ok((done, ablations.into_iter().collect::<Result<Vec<_>, _>>()?))
    });
    let ((runs, rows), ablations) = campaign.unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });

    // Summary rows (the numbers behind all seven figures).
    println!("== summaries (first repetition) ==");
    let first = &runs[0];
    for r in [&first.voip.umts, &first.voip.ethernet, &first.cbr.umts, &first.cbr.ethernet] {
        println!("{}", summary_row(r));
    }

    // Per-figure headline numbers aggregated over repetitions.
    println!("\n== per-figure headline values over {} repetition(s) ==", cli.reps);
    for fig in FIGURES {
        let headline = |r: &ExperimentResult| match fig.metric {
            Metric::Bitrate => r.summary.mean_bitrate_bps / 1000.0,
            Metric::Jitter => r.summary.mean_jitter.map_or(0.0, |d| d.as_secs_f64() * 1000.0),
            Metric::Loss => r.summary.loss_rate * 100.0,
            Metric::Rtt => r.summary.mean_rtt.map_or(0.0, |d| d.as_secs_f64() * 1000.0),
        };
        let (umts_vals, eth_vals): (Vec<f64>, Vec<f64>) = runs
            .iter()
            .map(|run| pair_for(run, &fig))
            .map(|pair| (headline(&pair.umts), headline(&pair.ethernet)))
            .unzip();
        let unit = match fig.metric {
            Metric::Bitrate => "kbps",
            Metric::Jitter | Metric::Rtt => "ms",
            Metric::Loss => "%",
        };
        let (um, us) = mean_std(&umts_vals);
        let (em, es) = mean_std(&eth_vals);
        println!(
            "{}  {:<34} umts {um:>9.2}±{us:<7.2} eth {em:>9.2}±{es:<7.2} [{unit}]",
            fig.id, fig.title
        );
    }

    // Shape checks (paper claims vs this run).
    println!("\n== shape checks vs the paper (first repetition) ==");
    let mut failed = report(&shape_checks(first), "paper");

    // One design choice changed per run, judged like the figures.
    println!("\n== ablations of the CBR/UMTS job (first repetition) ==\n");
    let (tables, checks) = ablation_checks(cli.seed, &ablations);
    println!("{tables}");
    failed += report(&checks, "claim");

    // The per-job counters and their campaign totals.
    println!("\n== metrics registry ==");
    print!("{}", summary_table(&rows));
    if let Some(path) = &cli.json_path {
        if let Err(e) = std::fs::write(path, json::document(|o| write_json(o, &rows))) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics JSON written to {path}");
    }

    if cli.dump_series {
        println!("\n== full series (first repetition) ==");
        for fig in FIGURES {
            let pair = pair_for(first, &fig);
            for r in [&pair.umts, &pair.ethernet] {
                println!("\n--- {} ({}) — {} ---", fig.id, fig.title, r.path);
                for (t, v) in metric_points(r, fig.metric) {
                    println!("{t:.1}\t{v:.6}");
                }
            }
        }
    }

    if failed > 0 {
        eprintln!("\n{failed} shape or ablation check(s) failed");
        std::process::exit(2);
    }
    println!("\nall shape and ablation checks passed");
}
