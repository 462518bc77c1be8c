//! Ablations of the saturation results (Figures 4–7): the campaign's
//! CBR/UMTS job with one design choice changed — the operator's uplink
//! buffer, the RRC upgrade sustain or the R99-era grant
//! ([`ablation_configs`]) — plus the isolation drop rule probed installed
//! and removed. [`ablation_checks`] renders each table and turns the
//! direction each ablation must show into a [`ShapeCheck`].

use core::fmt::Write;

use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::route::{Route, TableId};
use umtslab_net::trace::TraceKind;
use umtslab_net::wire::{Endpoint, Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::{EgressAction, PPP0};
use umtslab_planetlab::umtscmd::ISOLATION_COMMENT;
use umtslab_sim::time::Duration;

use super::{knee, mean_over, paper_jobs, Metric, ShapeCheck};
use crate::experiment::{ExperimentConfig, ExperimentError, ExperimentResult, TwoNodeTestbed};

/// Operator uplink buffer depths, in kB.
const BUFFER_KB: [usize; 5] = [20, 40, 80, 160, 320];
/// RRC upgrade sustain times, in seconds.
const SUSTAIN_S: [u64; 4] = [15, 30, 45, 90];
/// Uplink grants: label, and the rate before and after the RRC upgrade
/// in bit/s.
const GRANTS: [(&str, u64, u64); 3] = [
    ("R99 64k (no upgrade)", 64_000, 64_000),
    ("R99 160k->416k (paper)", 160_000, 416_000),
    ("HSUPA 1.4M (modern)", 1_400_000, 1_400_000),
];

/// The ablation runs of the campaign at base `seed`, in table order: each
/// buffer depth, each upgrade sustain, then each grant. Every run is the
/// campaign's CBR/UMTS job with that one choice changed.
pub fn ablation_configs(seed: u64) -> Vec<ExperimentConfig> {
    let base = paper_jobs(seed, None)[2].config();
    let with = |change: &dyn Fn(&mut ExperimentConfig)| {
        let mut cfg = base.clone();
        change(&mut cfg);
        cfg
    };
    let buffers = BUFFER_KB.map(|kb| with(&|c| c.operator.uplink.queue_bytes = kb * 1000));
    let sustains =
        SUSTAIN_S.map(|s| with(&|c| c.operator.rrc.upgrade_sustain = Duration::from_secs(s)));
    let grants = GRANTS.map(|(_, initial, upgraded)| {
        with(&|c| {
            c.operator.rrc.initial_dch.uplink_bps = initial;
            c.operator.rrc.upgraded_dch.uplink_bps = upgraded;
        })
    });
    buffers.into_iter().chain(sustains).chain(grants).collect()
}

/// Where a foreign slice's packet to the PPP peer, sent over a forced
/// on-link route (the paper's "special case"), goes with the isolation
/// rule installed and then removed, on the connected testbed of the
/// CBR/UMTS job at base `seed`.
fn isolation_probe(seed: u64) -> Result<[EgressAction; 2], ExperimentError> {
    let mut env = TwoNodeTestbed::build(&paper_jobs(seed, None)[2].config());
    env.umts_up(Duration::from_secs(60))?;
    env.register_destination();
    let now = env.tb.now();
    let node = env.tb.node_mut(env.napoli);
    let intruder = node.slices.create("intruder");
    let peer = node.iface(PPP0).peer.expect("a connected PPP link has a peer");
    node.rib.table_mut(TableId::MAIN).add(Route::onlink(Ipv4Cidr::host(peer), PPP0));
    let packet = Packet::udp(
        PacketIdAllocator::new().allocate(),
        Endpoint::new(Ipv4Address::UNSPECIFIED, 7000),
        Endpoint::new(peer, 7001),
        vec![0; 64],
        now,
    );
    let installed = node.send_from_slice(now, intruder, packet.clone());
    node.firewall.egress.remove_by_comment(ISOLATION_COMMENT);
    Ok([installed, node.send_from_slice(now, intruder, packet)])
}

/// Renders the four ablation tables and judges one claim per ablation.
///
/// `results` are the runs of [`ablation_configs`]`(seed)`, in its order;
/// the isolation probe runs here, from the same `seed`.
pub fn ablation_checks(seed: u64, results: &[ExperimentResult]) -> (String, Vec<ShapeCheck>) {
    assert_eq!(results.len(), BUFFER_KB.len() + SUSTAIN_S.len() + GRANTS.len());
    let (buffer, rest) = results.split_at(BUFFER_KB.len());
    let (sustain, grant) = rest.split_at(SUSTAIN_S.len());
    let shown = |d: Option<Duration>| d.map_or_else(|| "-".into(), |d| d.to_string());
    let max_rtt = |r: &ExperimentResult| r.summary.max_rtt.map_or(0.0, |d| d.as_secs_f64());
    let loss = |r: &ExperimentResult| r.summary.loss_rate * 100.0;
    let mut out = String::new();
    let mut checks = Vec::new();

    out.push_str("== ablation 1: operator uplink buffer depth (saturated 1 Mbps flow) ==\n");
    out.push_str("buffer              max RTT     mean RTT     loss %\n");
    for (kb, r) in BUFFER_KB.iter().zip(buffer) {
        let (max, mean) = (shown(r.summary.max_rtt), shown(r.summary.mean_rtt));
        let _ = writeln!(out, "{:<14} {max:>12} {mean:>12} {:>9.1}%", format!("{kb} kB"), loss(r));
    }
    let (rtts, losses): (Vec<f64>, Vec<f64>) = buffer.iter().map(|r| (max_rtt(r), loss(r))).unzip();
    checks.push(ShapeCheck {
        name: "ablation.buffer",
        expectation: "deeper buffer: max RTT strictly rises, loss never rises",
        measured: format!("max rtt {} s, loss {} %", slashed(&rtts), slashed(&losses)),
        pass: rtts.windows(2).all(|w| w[0] < w[1]) && losses.windows(2).all(|w| w[1] <= w[0]),
    });

    out.push_str("\n== ablation 2: RRC upgrade sustain time (knee position in Figure 4) ==\n");
    out.push_str("sustain              knee [s]     early kbps      late kbps\n");
    // A missing knee is NaN, which fails every comparison below.
    let knees: Vec<f64> = sustain.iter().map(|r| knee(r).unwrap_or(f64::NAN)).collect();
    for ((s, r), k) in SUSTAIN_S.iter().zip(sustain).zip(&knees) {
        let secs = *s as f64;
        let early = mean_over(r, Metric::Bitrate, 5.0, (secs - 5.0).max(6.0)).unwrap_or(0.0);
        let late = mean_over(r, Metric::Bitrate, secs + 15.0, 115.0).unwrap_or(0.0);
        let _ = writeln!(out, "{:<16} {k:>12.0} {early:>14.0} {late:>14.0}", format!("{s} s"));
    }
    checks.push(ShapeCheck {
        name: "ablation.sustain",
        expectation: "the knee strictly rises, within 5 s of the sustain",
        measured: format!("knee at {} s", slashed(&knees)),
        pass: knees.windows(2).all(|w| w[0] < w[1])
            && knees.iter().zip(SUSTAIN_S).all(|(k, s)| (k - s as f64).abs() <= 5.0),
    });

    out.push_str("\n== ablation 3: bearer generation (uplink grant) ==\n");
    out.push_str("grant                         rate kbps     loss %      max RTT\n");
    for ((label, _, _), r) in GRANTS.iter().zip(grant) {
        let rate = r.summary.mean_bitrate_bps / 1000.0;
        let max = shown(r.summary.max_rtt);
        let _ = writeln!(out, "{label:<26} {rate:>12.0} {:>9.1}% {max:>12}", loss(r));
    }
    let losses: Vec<f64> = grant.iter().map(loss).collect();
    checks.push(ShapeCheck {
        name: "ablation.grant",
        expectation: "larger grants strictly cut loss; HSUPA's is under fig6's 40%",
        measured: format!("loss {} %", slashed(&losses)),
        pass: losses.windows(2).all(|w| w[1] < w[0]) && losses.last().is_some_and(|l| *l < 40.0),
    });

    out.push_str("\n== ablation 4: the iptables isolation rule ==\n");
    let probe = isolation_probe(seed);
    let pass =
        matches!(probe, Ok([EgressAction::Dropped(TraceKind::DropFilter), EgressAction::Umts]));
    let outcomes = match probe {
        Ok(actions) => actions.map(|action| match action {
            EgressAction::Dropped(k) => format!("dropped ({k})"),
            EgressAction::Umts => "LEAKED onto the UMTS uplink".to_string(),
            other => format!("{other:?}"),
        }),
        Err(e) => [e.to_string(), e.to_string()],
    };
    for (state, outcome) in ["installed", "removed"].iter().zip(&outcomes) {
        let _ = writeln!(
            out,
            "isolation rule {state:<9} -> foreign-slice packet to the PPP peer: {outcome}"
        );
    }
    checks.push(ShapeCheck {
        name: "ablation.isolation",
        expectation: "foreign packet to PPP peer: the rule drops it, removal leaks it",
        measured: format!("installed: {}, removed: {}", outcomes[0], outcomes[1]),
        pass,
    });
    (out, checks)
}

fn slashed(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>().join("/")
}
