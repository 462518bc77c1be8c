//! Paper experiment presets: Figures 1–7 and their shape criteria.
//!
//! The paper's evaluation consists of seven figures, all derived from two
//! workloads crossed with two paths:
//!
//! | Figure | Workload | Metric  |
//! |--------|----------|---------|
//! | 1      | VoIP     | bitrate |
//! | 2      | VoIP     | jitter  |
//! | 3      | VoIP     | RTT     |
//! | 4      | 1 Mbps   | bitrate |
//! | 5      | 1 Mbps   | jitter  |
//! | 6      | 1 Mbps   | loss    |
//! | 7      | 1 Mbps   | RTT     |
//!
//! (VoIP loss is reported in text as identically zero.) This module runs
//! those four path×workload combinations and checks the *shape* criteria a
//! reproduction must satisfy — who wins, by roughly what factor, and where
//! the Figure-4 knee falls — without pinning absolute numbers that depend
//! on the authors' operator.

pub mod ablation;

use umtslab_ditg::FlowSpec;
use umtslab_sim::time::Duration;

use crate::experiment::{
    run_experiment, ExperimentConfig, ExperimentError, ExperimentResult, PathKind,
};

/// The QoS metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Received bitrate (kbps in the paper's plots).
    Bitrate,
    /// Delay jitter (seconds).
    Jitter,
    /// Packets lost per window.
    Loss,
    /// Round-trip time (seconds).
    Rtt,
}

impl core::fmt::Display for Metric {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Metric::Bitrate => write!(f, "bitrate"),
            Metric::Jitter => write!(f, "jitter"),
            Metric::Loss => write!(f, "loss"),
            Metric::Rtt => write!(f, "rtt"),
        }
    }
}

/// The paper's two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 72 kbps G.711-like VoIP CBR.
    VoipG711,
    /// 1 Mbps saturating CBR.
    Cbr1Mbps,
}

impl Workload {
    /// The flow spec, optionally shortened (tests use short runs; the
    /// figures use the paper's 120 s).
    pub fn spec(self, duration: Option<Duration>) -> FlowSpec {
        let mut spec = match self {
            Workload::VoipG711 => FlowSpec::voip_g711(),
            Workload::Cbr1Mbps => FlowSpec::cbr_1mbps(),
        };
        if let Some(d) = duration {
            spec.duration = d;
        }
        spec
    }

    /// The flow model animating this workload: both paper workloads are
    /// open-loop D-ITG probes. Closed-loop flows come from packs
    /// (`FlowKind`) instead.
    pub fn flow_model(self, _duration: Option<Duration>) -> crate::experiment::FlowModel {
        crate::experiment::FlowModel::OpenLoop
    }
}

/// One of the paper's figures.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Identifier, `fig1` … `fig7`.
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub title: &'static str,
    /// Workload driving it.
    pub workload: Workload,
    /// Metric plotted.
    pub metric: Metric,
}

/// All seven figures.
pub const FIGURES: [Figure; 7] = [
    Figure {
        id: "fig1",
        title: "Bitrate of the VoIP-like flow",
        workload: Workload::VoipG711,
        metric: Metric::Bitrate,
    },
    Figure {
        id: "fig2",
        title: "Jitter of the VoIP-like flow",
        workload: Workload::VoipG711,
        metric: Metric::Jitter,
    },
    Figure {
        id: "fig3",
        title: "RTT of the VoIP-like flow",
        workload: Workload::VoipG711,
        metric: Metric::Rtt,
    },
    Figure {
        id: "fig4",
        title: "Bitrate of the 1-Mbps flow",
        workload: Workload::Cbr1Mbps,
        metric: Metric::Bitrate,
    },
    Figure {
        id: "fig5",
        title: "Jitter of the 1-Mbps flow",
        workload: Workload::Cbr1Mbps,
        metric: Metric::Jitter,
    },
    Figure {
        id: "fig6",
        title: "Loss of the 1-Mbps flow",
        workload: Workload::Cbr1Mbps,
        metric: Metric::Loss,
    },
    Figure {
        id: "fig7",
        title: "RTT of the 1-Mbps flow",
        workload: Workload::Cbr1Mbps,
        metric: Metric::Rtt,
    },
];

/// Both paths of one workload.
#[derive(Debug, Clone)]
pub struct PathPair {
    /// The UMTS-to-Ethernet run.
    pub umts: ExperimentResult,
    /// The Ethernet-to-Ethernet run.
    pub ethernet: ExperimentResult,
}

/// All the data behind Figures 1–7.
#[derive(Debug, Clone)]
pub struct PaperRun {
    /// VoIP workload (Figures 1–3).
    pub voip: PathPair,
    /// 1 Mbps workload (Figures 4–7).
    pub cbr: PathPair,
}

/// One independent unit of the paper campaign: a workload on a path under
/// a fixed seed.
///
/// A full [`run_paper`] campaign is exactly the four jobs of
/// [`paper_jobs`] run in any order (each builds its own [`crate::Testbed`]
/// from its own seed, so jobs share no state) and reassembled with
/// [`assemble_paper_run`]. This is the unit the parallel runner shards
/// across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperJob {
    /// The traffic workload.
    pub workload: Workload,
    /// The measured path.
    pub path: PathKind,
    /// The master seed of the job's private testbed.
    pub seed: u64,
    /// Flow duration override (`None` = the paper's 120 s).
    pub duration: Option<Duration>,
}

impl PaperJob {
    /// The job's experiment: the workload on the path under the paper's
    /// operator, from the job's seed.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig::paper(self.workload.spec(self.duration), self.path, self.seed);
        cfg.flow_model = self.workload.flow_model(self.duration);
        cfg
    }

    /// Executes the job to completion on the calling thread.
    pub fn run(&self) -> Result<ExperimentResult, ExperimentError> {
        run_experiment(self.config())
    }

    /// A short human-readable identifier, e.g. `voip/UMTS-to-Ethernet`.
    pub fn label(&self) -> String {
        let workload = match self.workload {
            Workload::VoipG711 => "voip",
            Workload::Cbr1Mbps => "cbr-1mbps",
        };
        format!("{workload}/{}", self.path)
    }
}

/// The four jobs behind one paper campaign, in [`assemble_paper_run`]
/// order: VoIP/UMTS, VoIP/Ethernet, CBR/UMTS, CBR/Ethernet.
///
/// The per-job seeds reproduce [`run_paper`]'s historical scheme exactly
/// (both paths of one workload share a seed; the CBR workload perturbs it
/// with `^ 0x5555`), so results stay byte-identical with older revisions.
pub fn paper_jobs(seed: u64, duration: Option<Duration>) -> [PaperJob; 4] {
    let cbr_seed = seed ^ 0x5555;
    let job = |workload, path, seed| PaperJob { workload, path, seed, duration };
    [
        job(Workload::VoipG711, PathKind::UmtsToEthernet, seed),
        job(Workload::VoipG711, PathKind::EthernetToEthernet, seed),
        job(Workload::Cbr1Mbps, PathKind::UmtsToEthernet, cbr_seed),
        job(Workload::Cbr1Mbps, PathKind::EthernetToEthernet, cbr_seed),
    ]
}

/// Reassembles the results of [`paper_jobs`] (same order) into a
/// [`PaperRun`].
pub fn assemble_paper_run(results: [ExperimentResult; 4]) -> PaperRun {
    let [voip_umts, voip_eth, cbr_umts, cbr_eth] = results;
    PaperRun {
        voip: PathPair { umts: voip_umts, ethernet: voip_eth },
        cbr: PathPair { umts: cbr_umts, ethernet: cbr_eth },
    }
}

/// The base seed of each repetition of a multi-repetition campaign.
///
/// Repetition `r` uses `base + r * 7919` (wrapping), the scheme the
/// `figures` binary has always used; exposing it lets the parallel runner
/// shard repetitions while reproducing the serial binary bit for bit.
pub fn campaign_seeds(base: u64, reps: usize) -> Vec<u64> {
    (0..reps).map(|r| base.wrapping_add(r as u64 * 7919)).collect()
}

/// Runs the full paper evaluation (both workloads, both paths) serially.
pub fn run_paper(seed: u64, duration: Option<Duration>) -> Result<PaperRun, ExperimentError> {
    let [a, b, c, d] = paper_jobs(seed, duration);
    Ok(assemble_paper_run([a.run()?, b.run()?, c.run()?, d.run()?]))
}

/// Extracts a figure's series as `(seconds since flow start, value)` points.
///
/// Units match the paper's axes: kbps for bitrate, seconds for jitter/RTT,
/// packets per window for loss. Windows with no defined value (e.g. RTT
/// with no answered probe) are skipped.
pub fn metric_points(result: &ExperimentResult, metric: Metric) -> Vec<(f64, f64)> {
    let origin = result.flow_start;
    result
        .series
        .points
        .iter()
        .filter_map(|p| {
            let t = p.start.duration_since(origin).as_secs_f64();
            let v = match metric {
                Metric::Bitrate => Some(p.bitrate_bps / 1_000.0),
                Metric::Jitter => p.jitter.map(|j| j.as_secs_f64()),
                Metric::Loss => Some(p.lost as f64),
                Metric::Rtt => p.rtt.map(|r| r.as_secs_f64()),
            }?;
            Some((t, v))
        })
        .collect()
}

/// One verified shape criterion.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Which figure/claim it validates.
    pub name: &'static str,
    /// What the paper reports.
    pub expectation: &'static str,
    /// What this run measured.
    pub measured: String,
    /// Whether the expectation held.
    pub pass: bool,
}

/// The p-th percentile of a figure metric's window values.
fn percentile(result: &ExperimentResult, metric: Metric, p: f64) -> Option<f64> {
    let mut vals: Vec<f64> = metric_points(result, metric).into_iter().map(|(_, v)| v).collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let idx = ((vals.len() as f64 - 1.0) * p).round() as usize;
    Some(vals[idx])
}

/// The mean of a figure metric over the windows starting in `[from_s, to_s)`.
fn mean_over(result: &ExperimentResult, metric: Metric, from_s: f64, to_s: f64) -> Option<f64> {
    let pts = metric_points(result, metric);
    let vals: Vec<f64> =
        pts.iter().filter(|(t, _)| *t >= from_s && *t < to_s).map(|(_, v)| *v).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// The Figure-4 knee: the start of the first window whose 10 s trailing
/// mean bitrate exceeds 250 kbps, in seconds since flow start.
fn knee(result: &ExperimentResult) -> Option<f64> {
    metric_points(result, Metric::Bitrate)
        .into_iter()
        .map(|(t, _)| t)
        .find(|&t| mean_over(result, Metric::Bitrate, t, t + 10.0).is_some_and(|m| m > 250.0))
}

/// Evaluates every shape criterion against a full-length (120 s) run.
pub fn shape_checks(run: &PaperRun) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();
    let push = |checks: &mut Vec<ShapeCheck>,
                name: &'static str,
                expectation: &'static str,
                measured: String,
                pass: bool| {
        checks.push(ShapeCheck { name, expectation, measured, pass });
    };

    // Fig. 1: both paths deliver ~72 kbps on average; UMTS fluctuates more.
    let u = &run.voip.umts;
    let e = &run.voip.ethernet;
    let u_rate = u.summary.mean_bitrate_bps / 1000.0;
    let e_rate = e.summary.mean_bitrate_bps / 1000.0;
    push(
        &mut checks,
        "fig1.mean-bitrate",
        "both paths average ≈72 kbps",
        format!("umts {u_rate:.1} kbps, eth {e_rate:.1} kbps"),
        (u_rate - 72.0).abs() < 6.0 && (e_rate - 72.0).abs() < 3.0,
    );
    let u_std = u.series.bitrate_std();
    let e_std = e.series.bitrate_std();
    push(
        &mut checks,
        "fig1.fluctuation",
        "UMTS bitrate fluctuates more than Ethernet",
        format!("std umts {:.1} kbps vs eth {:.1} kbps", u_std / 1000.0, e_std / 1000.0),
        u_std > e_std * 2.0,
    );

    // Text: VoIP loss is zero on both paths (allow a stray packet from BLER).
    push(
        &mut checks,
        "voip.loss-zero",
        "packet loss ≈ 0 on both paths",
        format!("umts {} lost, eth {} lost", u.summary.lost, e.summary.lost),
        u.summary.loss_rate < 0.01 && e.summary.lost == 0,
    );

    // Fig. 2: UMTS jitter higher, peaks in the tens of milliseconds; still
    // VoIP-usable (well under 100 ms).
    let uj = u.summary.mean_jitter.unwrap_or(Duration::ZERO);
    let ej = e.summary.mean_jitter.unwrap_or(Duration::ZERO);
    let uj_max = u.series.max_jitter().unwrap_or(Duration::ZERO);
    // A lone window straddling a radio stall can spike arbitrarily; the
    // *typical* envelope (p95) is what the paper's plot shows.
    let uj_p95 = percentile(u, Metric::Jitter, 0.95).unwrap_or(0.0);
    push(
        &mut checks,
        "fig2.jitter-ordering",
        "UMTS jitter well above Ethernet jitter",
        format!("mean umts {uj} vs eth {ej}"),
        uj > ej * 5 && !ej.is_zero(),
    );
    push(
        &mut checks,
        "fig2.jitter-magnitude",
        "UMTS jitter envelope at tens of ms, staying VoIP-usable",
        format!("max window jitter {uj_max}, p95 {:.1} ms", uj_p95 * 1000.0),
        uj_max >= Duration::from_millis(8) && uj_p95 <= 0.120,
    );

    // Fig. 3: UMTS RTT well above Ethernet; peaks several hundred ms.
    let ur = u.summary.mean_rtt.unwrap_or(Duration::ZERO);
    let er = e.summary.mean_rtt.unwrap_or(Duration::ZERO);
    let ur_max = u.series.max_rtt().unwrap_or(Duration::ZERO);
    let ur_p95 = percentile(u, Metric::Rtt, 0.95).unwrap_or(0.0);
    push(
        &mut checks,
        "fig3.rtt-ordering",
        "UMTS RTT mean far above Ethernet's",
        format!("mean umts {ur} vs eth {er}"),
        ur > er * 5 && er >= Duration::from_millis(20) && er <= Duration::from_millis(40),
    );
    push(
        &mut checks,
        "fig3.rtt-peaks",
        "UMTS RTT fluctuates up to several hundred ms",
        format!("max window rtt {ur_max}, p95 {:.0} ms", ur_p95 * 1000.0),
        ur_max >= Duration::from_millis(350) && ur_p95 <= 1.0,
    );

    // Fig. 4: Ethernet delivers the full 1 Mbps; UMTS saturates around
    // 400 kbps, with a lower (~150 kbps) first regime whose knee sits near
    // 50 s.
    let cu = &run.cbr.umts;
    let ce = &run.cbr.ethernet;
    let ce_rate = ce.summary.mean_bitrate_bps / 1000.0;
    push(
        &mut checks,
        "fig4.ethernet-full-rate",
        "Ethernet carries the offered ~1 Mbps",
        format!("eth {ce_rate:.0} kbps"),
        (ce_rate - 999.0).abs() < 30.0,
    );
    let early = mean_over(cu, Metric::Bitrate, 5.0, 45.0).unwrap_or(0.0);
    let late = mean_over(cu, Metric::Bitrate, 60.0, 115.0).unwrap_or(0.0);
    push(
        &mut checks,
        "fig4.two-regimes",
        "≈150 kbps for the first ~50 s, then more than doubled (≈400 kbps)",
        format!("early {early:.0} kbps, late {late:.0} kbps"),
        (100.0..=220.0).contains(&early) && (300.0..=520.0).contains(&late) && late > early * 1.8,
    );
    let knee = knee(cu);
    push(
        &mut checks,
        "fig4.knee-position",
        "the regime change falls around t ≈ 50 s",
        format!("knee at {knee:?} s"),
        matches!(knee, Some(t) if (40.0..=60.0).contains(&t)),
    );

    // Fig. 5: saturated UMTS jitter exceeds 200 ms peaks; Ethernet tiny.
    let cuj_max = cu.series.max_jitter().unwrap_or(Duration::ZERO);
    let cej_max = ce.series.max_jitter().unwrap_or(Duration::ZERO);
    push(
        &mut checks,
        "fig5.saturated-jitter",
        "UMTS jitter reaches values > 200 ms; Ethernet stays tiny",
        format!("max umts {cuj_max} vs eth {cej_max}"),
        cuj_max > Duration::from_millis(200) && cej_max < Duration::from_millis(10),
    );

    // Fig. 6: heavy loss on UMTS (offered ≫ capacity), ≈0 on Ethernet.
    push(
        &mut checks,
        "fig6.loss",
        "UMTS loses most of the offered load; Ethernet ≈ none",
        format!(
            "umts loss {:.0}%, eth loss {:.2}%",
            cu.summary.loss_rate * 100.0,
            ce.summary.loss_rate * 100.0
        ),
        cu.summary.loss_rate > 0.4 && ce.summary.loss_rate < 0.005,
    );

    // Fig. 7: UMTS RTT inflates to seconds (up to ~3 s); Ethernet low.
    let cur_max = cu.summary.max_rtt.unwrap_or(Duration::ZERO);
    let cer = ce.summary.mean_rtt.unwrap_or(Duration::ZERO);
    push(
        &mut checks,
        "fig7.bufferbloat",
        "saturated UMTS RTT reaches seconds (≈3 s); Ethernet stays ~25 ms",
        format!("max umts rtt {cur_max}, mean eth rtt {cer}"),
        cur_max >= Duration::from_millis(1_500)
            && cur_max <= Duration::from_millis(7_000)
            && cer < Duration::from_millis(40),
    );

    checks
}

/// Formats a series as the rows the paper's figures plot.
pub fn render_series(result: &ExperimentResult, metric: Metric) -> String {
    use core::fmt::Write;
    let mut out = String::new();
    let unit = match metric {
        Metric::Bitrate => "kbps",
        Metric::Jitter | Metric::Rtt => "s",
        Metric::Loss => "pkt/window",
    };
    let _ = writeln!(out, "# {} — {} [{unit}] vs time [s]", result.label, metric);
    for (t, v) in metric_points(result, metric) {
        let _ = writeln!(out, "{t:.1}\t{v:.6}");
    }
    out
}

/// A one-line summary row (used by the figures binary and EXPERIMENTS.md).
pub fn summary_row(result: &ExperimentResult) -> String {
    let s = &result.summary;
    format!(
        "{:<22} {:<22} rate={:>8.1} kbps loss={:>6.2}% jitter(mean)={:>9} rtt(mean)={:>9} rtt(max)={:>9}",
        result.label,
        result.path.to_string(),
        s.mean_bitrate_bps / 1000.0,
        s.loss_rate * 100.0,
        s.mean_jitter.map_or_else(|| "-".into(), |d| d.to_string()),
        s.mean_rtt.map_or_else(|| "-".into(), |d| d.to_string()),
        s.max_rtt.map_or_else(|| "-".into(), |d| d.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_table_is_complete() {
        assert_eq!(FIGURES.len(), 7);
        assert_eq!(FIGURES.iter().filter(|f| f.workload == Workload::VoipG711).count(), 3);
        assert_eq!(FIGURES.iter().filter(|f| f.workload == Workload::Cbr1Mbps).count(), 4);
        // Exactly one loss figure, as in the paper.
        assert_eq!(FIGURES.iter().filter(|f| f.metric == Metric::Loss).count(), 1);
    }

    #[test]
    fn paper_jobs_reproduce_run_paper_seed_scheme() {
        let jobs = paper_jobs(2008, None);
        assert_eq!(jobs[0].seed, 2008);
        assert_eq!(jobs[1].seed, 2008);
        assert_eq!(jobs[2].seed, 2008 ^ 0x5555);
        assert_eq!(jobs[3].seed, 2008 ^ 0x5555);
        assert_eq!(jobs[0].label(), "voip/UMTS-to-Ethernet");
        assert_eq!(jobs[3].label(), "cbr-1mbps/Ethernet-to-Ethernet");
        let seeds = campaign_seeds(2008, 3);
        assert_eq!(seeds, vec![2008, 2008 + 7919, 2008 + 2 * 7919]);
    }

    #[test]
    fn assemble_matches_serial_run_paper() {
        let short = Some(Duration::from_secs(2));
        // Only the wired jobs, to keep the test fast: a degenerate
        // campaign where both workloads run the Ethernet path.
        let mut jobs = paper_jobs(21, short);
        jobs[0].path = PathKind::EthernetToEthernet;
        jobs[2].path = PathKind::EthernetToEthernet;
        let results = jobs.map(|j| j.run().unwrap());
        let run = assemble_paper_run(results);
        let direct = PaperJob {
            workload: Workload::VoipG711,
            path: PathKind::EthernetToEthernet,
            seed: 21,
            duration: short,
        }
        .run()
        .unwrap();
        assert_eq!(
            render_series(&run.voip.umts, Metric::Bitrate),
            render_series(&direct, Metric::Bitrate)
        );
        assert_eq!(run.cbr.ethernet.label, "cbr-1mbps");
    }

    #[test]
    fn metric_points_units() {
        let r = PaperJob {
            workload: Workload::VoipG711,
            path: PathKind::EthernetToEthernet,
            seed: 3,
            duration: Some(Duration::from_secs(4)),
        }
        .run()
        .unwrap();
        let pts = metric_points(&r, Metric::Bitrate);
        assert!(!pts.is_empty());
        // kbps near 72.
        let mean: f64 = pts.iter().map(|(_, v)| v).sum::<f64>() / pts.len() as f64;
        assert!((mean - 72.0).abs() < 8.0, "mean {mean}");
        // Time axis is flow-relative.
        assert!(pts[0].0 < 0.5);
        let rtt = metric_points(&r, Metric::Rtt);
        assert!(rtt.iter().all(|(_, v)| *v > 0.02 && *v < 0.04));
    }

    #[test]
    fn render_series_shape() {
        let r = PaperJob {
            workload: Workload::VoipG711,
            path: PathKind::EthernetToEthernet,
            seed: 4,
            duration: Some(Duration::from_secs(2)),
        }
        .run()
        .unwrap();
        let text = render_series(&r, Metric::Bitrate);
        assert!(text.starts_with("# voip-g711-72kbps — bitrate [kbps]"));
        assert!(text.lines().count() >= 10);
        let row = summary_row(&r);
        assert!(row.contains("Ethernet-to-Ethernet"));
    }
}
