//! `tcp_rrc`: closed-loop TCP transfers across RRC state changes.
//!
//! For each `SwitchingPolicy`, one UMTS→Ethernet testbed whose wired
//! access links replay `traces/umts_drive.csv` runs successive TCP
//! transfers, each a fresh `add_tcp_sender` on its own ports. A transfer
//! starts only once the previous one has completed and a think time has
//! passed, so this is a closed loop of one client. The think times
//! straddle every policy's DCH→FACH and FACH→Idle inactivity timers, so
//! transfers begin on DCH, on FACH and from Idle. Here ACKs re-arm the
//! sender, RTO timers fire and are cancelled, and RRC promotes and
//! demotes — none of which the open-loop workloads do.
//!
//! How often a transfer meets a loss, an RTO or the known TCP wedge
//! depends strongly on the seed, so one repetition runs the policy grid
//! at several seeds derived from the run's seed: the repetition's cost
//! is then an average over seeds, not the luck of one.

use umtslab::campaign_seeds;
use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed, INRIA_ADDR};
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;
use umtslab::umtslab_traffic::{SwitchingPolicy, TcpConfig, TcpStats, Trace};

use crate::rep::Rep;
use crate::span::Tracer;
use crate::stats::Fnv;

/// The recorded drive trace replayed on the wired access links.
pub const DRIVE_TRACE: &str = include_str!("../../traces/umts_drive.csv");

/// One timed step of the closed loop: long enough that a step waiting
/// on an RTO still times some work, not an idle scheduler call.
const STEP: Duration = Duration::from_secs(2);

/// Think times before each transfer after the first, in ms, cycled.
/// Against the policies' (DCH, FACH) inactivity timers — aggressive
/// (1 s, 5 s), operator (5 s, 30 s), conservative (15 s, 60 s), always-on
/// (never) — they land on DCH, FACH and Idle for each demoting policy.
pub const THINK_MS: [u64; 6] = [500, 3_000, 8_000, 20_000, 40_000, 70_000];

/// A transfer still unacknowledged this long after it stopped offering
/// new data is given up on and the next one starts; a healthy transfer
/// completes within a few round trips. Giving up early keeps the steps
/// of the measured phase mostly steps that carry a transfer.
const GIVE_UP: Duration = Duration::from_secs(4);

/// The least share of transfers that must complete, and the least mean
/// number of segments a completed transfer gets acknowledged. At 16 seeds
/// a repetition, run seeds 0–119 completed 0.62–0.79 of their transfers
/// at 48–58 segments each; at 32, seeds 21–25 gave 0.66–0.76 at 53.
const MIN_COMPLETE: f64 = 0.5;
const MIN_ACKED: f64 = 45.0;

/// Transfers per policy and seed: one before each think time and one
/// after the last.
pub const TRANSFERS: usize = THINK_MS.len() + 1;

/// How long each transfer offers new data.
const TRANSFER: Duration = Duration::from_secs(3);

/// The size of one repetition.
#[derive(Debug, Clone)]
pub struct TcpSize {
    /// Seeds per repetition (`umtslab::campaign_seeds` of the run seed).
    pub seeds: usize,
}

impl TcpSize {
    /// The benchmark's size: every policy's transfers at 32 seeds.
    pub fn bench() -> TcpSize {
        TcpSize { seeds: 32 }
    }
}

/// A transfer strands data when, after its drain, fewer segments are
/// cumulatively acknowledged than distinct segments were sent.
pub fn stranded(s: &TcpStats) -> bool {
    s.delivered_segments < s.transmissions - s.retransmits
}

/// Whether a transfer has nothing left in flight once it stopped sending.
fn complete(s: &TcpStats) -> bool {
    s.transmissions > 0 && !stranded(s)
}

/// The experiment configuration of one policy cell.
fn policy_config(policy: SwitchingPolicy, seed: u64) -> ExperimentConfig {
    let spec = FlowSpec { label: format!("tcp-{}", policy.name()), ..FlowSpec::cbr_1mbps() };
    let mut cfg = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, seed);
    cfg.operator.rrc = policy.rrc_config();
    cfg.access_trace = Some(Trace::parse(DRIVE_TRACE).expect("the committed drive trace parses"));
    cfg
}

/// Runs one repetition of `tcp_rrc`.
pub fn rep(size: &TcpSize, seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut hash = Fnv::default();
    for cell_seed in campaign_seeds(seed, size.seeds) {
        for policy in SwitchingPolicy::ALL {
            tr.span("job", |tr| run_policy(policy, cell_seed, &mut rep, &mut hash, tr));
        }
    }
    rep.hash = hash.finish();
    rep.check(format!("{} transfers ran", rep.attempted), rep.attempted > 0 && rep.failed == 0);
    let stranded = rep.counter("traffic.stranded");
    let complete = rep.attempted as f64 - stranded;
    rep.check(
        format!(
            "{complete} of {} transfers completed (>= {MIN_COMPLETE} of them; the rest are the \
             known TCP wedge, traffic.stranded)",
            rep.attempted
        ),
        complete >= MIN_COMPLETE * rep.attempted as f64,
    );
    let acked = rep.counter("traffic.complete_acked") / complete.max(1.0);
    rep.check(
        format!("{acked:.2} segments acknowledged per completed transfer (>= {MIN_ACKED})"),
        acked >= MIN_ACKED,
    );
    rep
}

fn run_policy(policy: SwitchingPolicy, seed: u64, rep: &mut Rep, hash: &mut Fnv, tr: &mut Tracer) {
    let cfg = policy_config(policy, seed);
    let t0 = std::time::Instant::now();
    let mut env = tr.span("core.build", |_| TwoNodeTestbed::build(&cfg));
    if let Err(e) = tr.span("core.dial", |_| env.umts_up(Duration::from_secs(120))) {
        rep.attempted += TRANSFERS as u64;
        rep.failed += TRANSFERS as u64;
        rep.check(format!("{} connects: {e}", policy.name()), false);
        return;
    }
    let mut port = 9_000u16;
    let mut add_transfer = |env: &mut TwoNodeTestbed, start: Instant| {
        let config =
            TcpConfig { duration: TRANSFER, sport: port, dport: port + 1, ..TcpConfig::default() };
        port += 2;
        let dport = config.dport;
        let tx = env.tb.add_tcp_sender(env.napoli, env.umts_slice, config, INRIA_ADDR, start);
        env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);
        tx
    };
    let first = tr.span("core.install", |tr| {
        tr.span("planetlab.vsys", |_| env.register_destination());
        let start = env.tb.now() + cfg.settle;
        let tx = add_transfer(&mut env, start);
        env.tb.run_until(start);
        (tx, start)
    });
    rep.setup_s += t0.elapsed().as_secs_f64();

    let sim0 = env.tb.now();
    let events0 = env.tb.events_processed();
    let copies0 = copy_counters();
    let t1 = std::time::Instant::now();
    let mut transfers = Vec::with_capacity(TRANSFERS);
    tr.span("core.steady", |_| {
        let (mut tx, mut start) = first;
        for k in 0..TRANSFERS {
            let stop = start + TRANSFER;
            loop {
                let now = env.tb.now();
                let s = env.tb.tcp_stats(tx).expect("a TCP sender");
                if (now >= stop && complete(&s)) || now >= stop + GIVE_UP {
                    break;
                }
                let t = std::time::Instant::now();
                env.tb.run_until(now + STEP);
                rep.steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            transfers.push(tx);
            if k + 1 < TRANSFERS {
                // The think time is one jump, not a fixed step: stepping
                // through it would time an idle scheduler.
                let t = std::time::Instant::now();
                start = env.tb.now() + Duration::from_millis(THINK_MS[k % THINK_MS.len()]);
                tx = add_transfer(&mut env, start);
                env.tb.run_until(start);
                rep.gaps_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    });
    rep.measured_s += t1.elapsed().as_secs_f64();
    rep.events += env.tb.events_processed() - events0;
    rep.sim_s += env.tb.now().duration_since(sim0).as_secs_f64();
    rep.count_copies(copies0);

    for &tx in &transfers {
        let s = env.tb.tcp_stats(tx).expect("a TCP sender");
        rep.pkts += s.delivered_segments;
        rep.attempted += 1;
        rep.count("traffic.segments", s.transmissions as f64);
        rep.count("traffic.retransmits", s.retransmits as f64);
        rep.count("traffic.timeouts", s.timeouts as f64);
        rep.count("traffic.stranded", u8::from(stranded(&s)) as f64);
        if !stranded(&s) {
            rep.count("traffic.complete_acked", s.delivered_segments as f64);
        }
        for v in [s.transmissions, s.retransmits, s.timeouts, s.delivered_segments] {
            hash.u64(v);
        }
    }
    let m = env.tb.metrics();
    rep.count_testbed(&m);
    rep.count("umts.frames_1024", m.uplink.offered as f64);
    rep.count("umts.dials", 1.0);
    if let Some(dwell) = env.tb.rrc_dwell_total() {
        rep.count("umts.idle_promotions", dwell.idle_promotions as f64);
        rep.count("umts.promotion_us", dwell.idle_promotion_latency.total_micros() as f64);
        hash.u64(dwell.idle_promotions);
    }
    hash.u64(m.rrc_transitions);
}
