//! Chaos campaigns: the paper's VoIP flow under a storm of session faults.
//!
//! The headline scenario of the supervisor subsystem: the Section 3
//! two-node testbed runs the 72 kbps G.711 VoIP workload over the UMTS
//! path while a seeded [`FaultPlan`](umtslab_supervisor::faults::FaultPlan)
//! attacks the session (LCP terminates, modem hangs, operator detaches,
//! ...). A [`SessionSupervisor`](umtslab_supervisor::supervisor::SessionSupervisor)
//! keeps re-establishing the session; the campaign reports how well it
//! did (availability metrics, lifecycle marker trail) and gives the caller
//! a checkpoint hook after every drop and recovery — `umtslab-verify` uses
//! it to prove that no recovery ever leaves stale routing state or a
//! cross-slice leak behind.

use umtslab_ditg::{Decoder, FlowSpec, FlowSummary};
use umtslab_net::trace::TraceKind;
use umtslab_planetlab::node::Node;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::{CampaignConfig, FaultEvent};
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::SupervisorState;
use umtslab_umts::attachment::SessionFault;

use crate::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed};

/// Configuration of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed (drives the testbed, the fault schedule and the
    /// backoff jitter).
    pub seed: u64,
    /// Total simulated time.
    pub horizon: Duration,
    /// Fault-campaign parameters (window, mean gap, fault mix).
    pub campaign: CampaignConfig,
}

impl ChaosConfig {
    /// The default campaign: six minutes of VoIP with a fault on average
    /// every 45 s, drawn from a mix that includes the two hardest cases
    /// (LCP terminate and modem hard-hang).
    pub fn paper(seed: u64) -> ChaosConfig {
        let horizon = Duration::from_secs(360);
        let campaign = CampaignConfig {
            start: Instant::from_secs(20),
            horizon: Instant::ZERO + horizon - Duration::from_secs(60),
            mean_gap: Duration::from_secs(45),
            mix: vec![
                SessionFault::PppTerminate,
                SessionFault::ModemHang,
                SessionFault::OperatorDetach,
                SessionFault::RrcRelease,
                SessionFault::BearerPreemption,
            ],
        };
        ChaosConfig { seed, horizon, campaign }
    }
}

/// What one campaign produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Availability accounting from the supervisor.
    pub availability: AvailabilityMetrics,
    /// The faults that were scheduled (all fired before the horizon).
    pub faults: Vec<FaultEvent>,
    /// The session lifecycle trail: `(micros, kind)` per marker event, in
    /// order. This is what the determinism gate hashes.
    pub lifecycle: Vec<(u64, String)>,
    /// Whether the session was up when the campaign ended.
    pub ended_up: bool,
    /// Whole-flow summary of the VoIP probe.
    pub summary: FlowSummary,
}

impl ChaosReport {
    /// Session recoveries (establishments after the first).
    pub fn recoveries(&self) -> u64 {
        self.availability.sessions_established.saturating_sub(1)
    }
}

/// Runs one chaos campaign. `checkpoint` fires on every session drop and
/// every recovery with the Napoli node, the current instant and a label
/// (`"drop-N"` / `"recovery-N"`), so callers can audit the node state at
/// exactly the moments the supervisor claims to have cleaned up.
pub fn run_chaos_campaign(
    cfg: &ChaosConfig,
    mut checkpoint: impl FnMut(&Node, Instant, &str),
) -> ChaosReport {
    let mut spec = FlowSpec::voip_g711();
    // The probe runs almost wall to wall; what is lost while the session
    // recovers shows up in the summary, not as a truncated flow.
    spec.duration = cfg.horizon - Duration::from_secs(30);
    let experiment = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, cfg.seed);
    let mut env = TwoNodeTestbed::build(&experiment);
    env.tb.node_mut(env.napoli).trace.set_enabled(true);
    let faults = env.supervise(cfg.seed, &cfg.campaign);

    // The flow starts at a fixed instant, whether or not the first dial
    // has landed by then.
    let flow_start = Instant::from_secs(15);
    let (tx, _, dport) = env.add_measurement_flow(&experiment, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    let horizon = Instant::ZERO + cfg.horizon;
    let mut seen_ups = 0u64;
    let mut seen_downs = 0u64;
    while env.tb.now() < horizon {
        env.tb.run_for(Duration::from_millis(100));
        let now = env.tb.now();
        let node = env.tb.node(env.napoli);
        let ups = node.trace.of_kind(TraceKind::SessionUp).count() as u64;
        let downs = node.trace.of_kind(TraceKind::SessionDown).count() as u64;
        while seen_downs < downs {
            seen_downs += 1;
            checkpoint(env.tb.node(env.napoli), now, &format!("drop-{seen_downs}"));
        }
        while seen_ups < ups {
            seen_ups += 1;
            checkpoint(env.tb.node(env.napoli), now, &format!("recovery-{seen_ups}"));
        }
    }

    let availability = env.tb.availability(env.napoli).expect("supervisor attached");
    let ended_up = env.tb.supervisor(env.napoli).is_some_and(|s| s.state() == SupervisorState::Up);
    let lifecycle = env
        .tb
        .node(env.napoli)
        .trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::SessionUp | TraceKind::SessionDown | TraceKind::RedialScheduled
            )
        })
        .map(|e| (e.time.total_micros(), e.kind.to_string()))
        .collect();

    let (sent, rtts) = env.tb.sender_logs(tx);
    let recv = env.tb.receiver_records(rx);
    let summary = Decoder::paper().summary(sent, recv, rtts);

    ChaosReport { availability, faults, lifecycle, ended_up, summary }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_recovers_every_drop() {
        let cfg = ChaosConfig::paper(2026);
        let mut labels = Vec::new();
        let report = run_chaos_campaign(&cfg, |node, _now, label| {
            labels.push(label.to_string());
            assert!(node.audit().is_empty(), "stale state at {label}: {:?}", node.audit());
        });
        // The scheduled mix actually exercised several fault types,
        // including the two the acceptance criteria name.
        assert!(report.faults.len() >= 3, "campaign too small: {:?}", report.faults);
        assert!(report.availability.faults_injected >= 3);
        // Every drop was answered by a recovery and the run ends healthy.
        assert!(report.availability.session_drops >= 1, "no drop ever happened");
        assert!(report.ended_up, "campaign must end with the session up");
        assert_eq!(
            report.availability.sessions_established,
            report.availability.session_drops + 1,
            "every drop must be re-established exactly once: {:?}",
            report.availability
        );
        assert!(report.availability.redials >= report.availability.session_drops);
        // The probe still delivered the bulk of the VoIP flow (wired
        // fallback plus recovery keep the blackouts short).
        assert!(report.summary.loss_rate < 0.5, "loss {}", report.summary.loss_rate);
        assert!(!labels.is_empty());
        let m = report.availability;
        assert!(m.uptime_fraction().unwrap() > 0.5, "uptime {:?}", m.uptime_fraction());
        assert!(m.mttr().is_some() && m.mtbf().is_some());
    }

    #[test]
    fn same_seed_campaigns_are_bit_identical() {
        let cfg = ChaosConfig::paper(7);
        let a = run_chaos_campaign(&cfg, |_, _, _| {});
        let b = run_chaos_campaign(&cfg, |_, _, _| {});
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.lifecycle, b.lifecycle);
        assert_eq!(a.faults, b.faults);
    }
}
