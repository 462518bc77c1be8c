//! The experiment runner: the paper's two-path measurement methodology.
//!
//! Section 3 of the paper compares a *UMTS-to-Ethernet* path (a 3G-equipped
//! node in Napoli probing a wired node at INRIA) against the
//! *Ethernet-to-Ethernet* path between the same two nodes. This module
//! builds that two-node testbed, brings the UMTS connection up through the
//! `umts` vsys command exactly as a slice user would, runs a D-ITG flow,
//! and decodes the logs into the paper's windowed QoS series.

use umtslab_ditg::{Decoder, FlowSpec, FlowSummary, TimeSeries};
use umtslab_net::fault::FaultConfig;
use umtslab_net::link::{JitterModel, LinkConfig};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::slice::SliceId;
use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::{CampaignConfig, FaultEvent, FaultPlan};
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::SupervisorConfig;
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::testbed::{AgentId, NodeId, Testbed, TestbedDrops, TestbedMetrics};

/// Which end-to-end path carries the measurement flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Sender on the 3G uplink, receiver on the wired network.
    UmtsToEthernet,
    /// Both ends on the wired network.
    EthernetToEthernet,
}

impl core::fmt::Display for PathKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PathKind::UmtsToEthernet => write!(f, "UMTS-to-Ethernet"),
            PathKind::EthernetToEthernet => write!(f, "Ethernet-to-Ethernet"),
        }
    }
}

/// Which of the two testbed nodes a pack-declared slice lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// The UNINA node (3G-capable sender side).
    Napoli,
    /// The INRIA node (wired receiver side).
    Inria,
}

impl core::fmt::Display for NodeRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeRole::Napoli => write!(f, "napoli"),
            NodeRole::Inria => write!(f, "inria"),
        }
    }
}

/// The access-link half of the topology: each node's share of the wired
/// research path (GÉANT in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessLink {
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay per side.
    pub delay: Duration,
    /// Upper bound of the uniform per-packet jitter.
    pub jitter: Duration,
}

impl AccessLink {
    /// The paper's GÉANT share: 100 Mbps, ~6 ms one way,
    /// sub-millisecond jitter.
    pub fn paper() -> AccessLink {
        AccessLink {
            rate_bps: 100_000_000,
            delay: Duration::from_millis(6),
            jitter: Duration::from_micros(400),
        }
    }
}

/// A slice that exists on the testbed beyond the two the measurement
/// needs — declarative packs use these to express ACL scenarios. A pack
/// decodes each of its `[[slice]]`s, the sender and probe included, into
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtraSlice {
    /// Slice name.
    pub name: String,
    /// Which node hosts it.
    pub node: NodeRole,
    /// Whether it is admitted to the `umts` vsys ACL.
    pub umts_access: bool,
}

/// The slices of a run and their `umts` vsys ACL grants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicePlan {
    /// The Napoli-side slice that owns the measurement flow.
    pub sender: String,
    /// Whether the sender slice is granted `umts` vsys access.
    pub sender_umts_access: bool,
    /// The INRIA-side slice running the receiver.
    pub probe: String,
    /// Any further slices to create (ACL scenarios).
    pub extra: Vec<ExtraSlice>,
}

impl SlicePlan {
    /// The paper's slices: `unina_umts` (granted) and `unina_probe`.
    pub fn paper() -> SlicePlan {
        SlicePlan {
            sender: "unina_umts".to_string(),
            sender_umts_access: true,
            probe: "unina_probe".to_string(),
            extra: Vec::new(),
        }
    }
}

/// Which flow model generates the measurement traffic.
#[derive(Debug, Clone, Default)]
pub enum FlowModel {
    /// Open-loop D-ITG probe flow described by [`ExperimentConfig::spec`]
    /// (the original workload; ignores congestion entirely).
    #[default]
    OpenLoop,
    /// Closed-loop TCP-ish congestion-controlled flow
    /// ([`umtslab_traffic::TcpFlow`]). The spec's label still names the
    /// flow; its IDT/PS processes are unused.
    Tcp(umtslab_traffic::TcpConfig),
    /// Deterministic rate-adaptive video-like sender
    /// ([`umtslab_traffic::AdaptiveSender`]).
    Adaptive(umtslab_traffic::AdaptiveConfig),
}

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The traffic workload.
    pub spec: FlowSpec,
    /// The flow model animating the workload (open-loop by default).
    pub flow_model: FlowModel,
    /// A recorded capacity/loss trace replayed onto both nodes' wired
    /// access links for the duration of the run, if any.
    pub access_trace: Option<umtslab_traffic::Trace>,
    /// Which path to measure.
    pub path: PathKind,
    /// Master seed (each repetition should use a distinct seed).
    pub seed: u64,
    /// Operator serving the 3G card.
    pub operator: OperatorProfile,
    /// The 3G card model.
    pub device: DeviceProfile,
    /// Subscriber credentials.
    pub credentials: Option<Credentials>,
    /// Pause between connection establishment and the first packet.
    pub settle: Duration,
    /// Extra time after the flow ends to let stragglers drain.
    pub drain: Duration,
    /// Fault process applied to both access links (loss, corruption,
    /// reordering). The paper's GÉANT path is clean, so this defaults to
    /// [`FaultConfig::none`]; the bursty-UMTS campaign swaps in
    /// [`FaultConfig::bursty_umts`] to make the path fade like a 3G radio.
    pub access_fault: FaultConfig,
    /// Wired access-link parameters (rate, delay, jitter) of both nodes.
    pub access: AccessLink,
    /// The slices to create and their `umts` ACL grants.
    pub slices: SlicePlan,
    /// A seeded session-fault campaign against the UMTS session. When set,
    /// a [`SessionSupervisor`] keeps the session alive and the run reports
    /// [`ExperimentResult::availability`]; only the UMTS path has a session
    /// to attack.
    ///
    /// [`SessionSupervisor`]: umtslab_supervisor::supervisor::SessionSupervisor
    pub fault_plan: Option<CampaignConfig>,
}

impl ExperimentConfig {
    /// A config matching the paper's setup for the given workload/path.
    pub fn paper(spec: FlowSpec, path: PathKind, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            spec,
            flow_model: FlowModel::OpenLoop,
            access_trace: None,
            path,
            seed,
            operator: OperatorProfile::commercial_italy(),
            device: DeviceProfile::option_globetrotter(),
            credentials: Some(Credentials::new("web", "web")),
            settle: Duration::from_secs(1),
            drain: Duration::from_secs(20),
            access_fault: FaultConfig::none(),
            access: AccessLink::paper(),
            slices: SlicePlan::paper(),
            fault_plan: None,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The measured path.
    pub path: PathKind,
    /// Workload label.
    pub label: String,
    /// When the flow started (series origin).
    pub flow_start: Instant,
    /// The windowed QoS series.
    pub series: TimeSeries,
    /// Whole-flow summary.
    pub summary: FlowSummary,
    /// Time from `umts start` to connected (UMTS path only).
    pub connect_time: Option<Duration>,
    /// Testbed-level drop counters.
    pub drops: TestbedDrops,
    /// Scheduler events processed (a cost metric).
    pub events: u64,
    /// Full cross-layer counter snapshot taken at the end of the run.
    pub metrics: TestbedMetrics,
    /// Congestion-control counters, when the flow model was
    /// [`FlowModel::Tcp`].
    pub tcp: Option<umtslab_traffic::TcpStats>,
    /// RRC per-state dwell times of the UMTS attachment, when one exists.
    pub rrc_dwell: Option<umtslab_umts::RrcDwell>,
    /// Session availability (uptime, drops, redials, MTBF/MTTR), when the
    /// run was supervised ([`ExperimentConfig::fault_plan`]).
    pub availability: Option<AvailabilityMetrics>,
}

/// Failure modes of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The UMTS connection did not come up.
    UmtsConnectFailed(String),
    /// The configuration asks for something the testbed cannot express.
    Unsupported(String),
}

impl core::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExperimentError::UmtsConnectFailed(why) => {
                write!(f, "UMTS connection failed: {why}")
            }
            ExperimentError::Unsupported(why) => write!(f, "unsupported configuration: {why}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The two-node testbed of the paper's Section 3, before any flow runs.
pub struct TwoNodeTestbed {
    /// The underlying testbed.
    pub tb: Testbed,
    /// The UNINA node (3G-capable).
    pub napoli: NodeId,
    /// The INRIA node (wired only).
    pub inria: NodeId,
    /// The experiment slice on the Napoli node.
    pub umts_slice: SliceId,
    /// The receiving slice on the INRIA node.
    pub probe_slice: SliceId,
}

/// The INRIA node's wired address.
pub const INRIA_ADDR: Ipv4Address = Ipv4Address([138, 96, 20, 10]);
/// The Napoli node's wired address.
pub const NAPOLI_ADDR: Ipv4Address = Ipv4Address([143, 225, 229, 5]);

impl TwoNodeTestbed {
    /// Builds the Napoli + INRIA pair. The access links model each node's
    /// share of the wired research path — by default the paper's GÉANT
    /// share ([`AccessLink::paper`]) — and the slices follow the config's
    /// [`SlicePlan`].
    pub fn build(cfg: &ExperimentConfig) -> TwoNodeTestbed {
        let mut tb = Testbed::new(cfg.seed);
        let mut access = LinkConfig::wired(cfg.access.rate_bps, cfg.access.delay);
        if !cfg.access.jitter.is_zero() {
            access.jitter = JitterModel::Uniform { max: cfg.access.jitter };
        }
        access.fault = cfg.access_fault.clone();
        let napoli = tb.add_node(
            "planetlab1.unina.it",
            NAPOLI_ADDR,
            Ipv4Cidr::new(NAPOLI_ADDR, 24),
            Ipv4Address([143, 225, 229, 1]),
            access.clone(),
        );
        let inria = tb.add_node(
            "planetlab1.inria.fr",
            INRIA_ADDR,
            Ipv4Cidr::new(INRIA_ADDR, 24),
            Ipv4Address([138, 96, 20, 1]),
            access,
        );
        if cfg.path == PathKind::UmtsToEthernet {
            tb.attach_umts(
                napoli,
                cfg.operator.clone(),
                cfg.device.clone(),
                cfg.credentials.clone(),
            );
        }
        let umts_slice = tb.node_mut(napoli).slices.create(&cfg.slices.sender);
        if cfg.slices.sender_umts_access {
            tb.node_mut(napoli).grant_umts_access(umts_slice);
        }
        let probe_slice = tb.node_mut(inria).slices.create(&cfg.slices.probe);
        for extra in &cfg.slices.extra {
            let node = match extra.node {
                NodeRole::Napoli => napoli,
                NodeRole::Inria => inria,
            };
            let id = tb.node_mut(node).slices.create(&extra.name);
            if extra.umts_access {
                tb.node_mut(node).grant_umts_access(id);
            }
        }
        if let Some(trace) = &cfg.access_trace {
            let schedule = std::sync::Arc::new(trace.to_schedule());
            tb.set_access_schedule(napoli, schedule.clone());
            tb.set_access_schedule(inria, schedule);
        }
        TwoNodeTestbed { tb, napoli, inria, umts_slice, probe_slice }
    }

    /// Adds the measurement flow of `cfg` (whatever its
    /// [`FlowModel`]) from Napoli toward INRIA, returning the sender,
    /// the flow duration and the destination port to listen on.
    pub fn add_measurement_flow(
        &mut self,
        cfg: &ExperimentConfig,
        flow_start: Instant,
    ) -> (AgentId, Duration, u16) {
        match &cfg.flow_model {
            FlowModel::OpenLoop => {
                let spec = cfg.spec.clone();
                let (duration, dport) = (spec.duration, spec.dport);
                let tx =
                    self.tb.add_sender(self.napoli, self.umts_slice, spec, INRIA_ADDR, flow_start);
                (tx, duration, dport)
            }
            FlowModel::Tcp(tcp) => {
                let (duration, dport) = (tcp.duration, tcp.dport);
                let tx = self.tb.add_tcp_sender(
                    self.napoli,
                    self.umts_slice,
                    tcp.clone(),
                    INRIA_ADDR,
                    flow_start,
                );
                (tx, duration, dport)
            }
            FlowModel::Adaptive(video) => {
                let (duration, dport) = (video.duration, video.dport);
                let tx = self.tb.add_adaptive_sender(
                    self.napoli,
                    self.umts_slice,
                    video.clone(),
                    INRIA_ADDR,
                    flow_start,
                );
                (tx, duration, dport)
            }
        }
    }

    /// Issues `umts start` and runs until connected (or failure).
    pub fn umts_up(&mut self, horizon: Duration) -> Result<Duration, ExperimentError> {
        self.tb
            .node_mut(self.napoli)
            .vsys_submit(self.umts_slice, UmtsRequest::Start)
            .map_err(|e| ExperimentError::UmtsConnectFailed(format!("vsys: {e:?}")))?;
        self.wait_up(horizon)
    }

    /// Runs in 100 ms steps until the Napoli session is up, returning how
    /// long that took. An unsupervised dial error fails at once; under a
    /// supervisor, which redials on its own, only `horizon` ends the wait.
    fn wait_up(&mut self, horizon: Duration) -> Result<Duration, ExperimentError> {
        let started = self.tb.now();
        let supervised = self.tb.supervisor(self.napoli).is_some();
        loop {
            self.tb.run_for(Duration::from_millis(100));
            let node = self.tb.node(self.napoli);
            match node.umts_status().phase {
                UmtsPhase::Up => return Ok(self.tb.now().duration_since(started)),
                UmtsPhase::Down if !supervised => {
                    if let Some(err) = node.last_dial_error() {
                        return Err(ExperimentError::UmtsConnectFailed(format!("{err:?}")));
                    }
                }
                _ => {}
            }
            if self.tb.now() >= started + horizon {
                let why = if supervised { "timeout under supervision" } else { "timeout" };
                return Err(ExperimentError::UmtsConnectFailed(why.to_string()));
            }
        }
    }

    /// Puts the Napoli session under a [`SessionSupervisor`] that keeps
    /// the INRIA destination routed, schedules the campaign's
    /// [`FaultPlan::seeded`] from `seed` and starts the supervisor (which
    /// dials). Returns the scheduled faults.
    ///
    /// [`SessionSupervisor`]: umtslab_supervisor::supervisor::SessionSupervisor
    pub(crate) fn supervise(&mut self, seed: u64, campaign: &CampaignConfig) -> Vec<FaultEvent> {
        let supervisor = SupervisorConfig {
            destinations: vec![Ipv4Cidr::host(INRIA_ADDR)],
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::seeded(seed, campaign);
        let faults = plan.events().to_vec();
        self.tb.attach_supervisor(self.napoli, self.umts_slice, supervisor);
        self.tb.schedule_faults(self.napoli, plan);
        self.tb.start_supervisor(self.napoli);
        faults
    }

    /// Registers the INRIA node as a UMTS destination.
    pub fn register_destination(&mut self) {
        self.tb
            .node_mut(self.napoli)
            .vsys_submit(self.umts_slice, UmtsRequest::AddDestination(Ipv4Cidr::host(INRIA_ADDR)))
            .expect("granted slice");
        self.tb.run_for(Duration::from_millis(10));
    }
}

/// Runs one complete experiment: the plain paper method, or, when
/// [`ExperimentConfig::fault_plan`] is set, a supervised run whose seeded
/// fault campaign attacks the session while the flow is measured.
pub fn run_experiment(cfg: ExperimentConfig) -> Result<ExperimentResult, ExperimentError> {
    if cfg.fault_plan.is_some() && cfg.path != PathKind::UmtsToEthernet {
        return Err(ExperimentError::Unsupported(
            "a fault campaign needs a session to attack: supervised runs require the UMTS path"
                .to_string(),
        ));
    }
    let mut env = TwoNodeTestbed::build(&cfg);
    let mut connect_time = None;

    if cfg.path == PathKind::UmtsToEthernet {
        connect_time = Some(match &cfg.fault_plan {
            None => {
                let dialed = env.umts_up(Duration::from_secs(120))?;
                env.register_destination();
                dialed
            }
            // The supervisor dials and installs the destination route.
            Some(campaign) => {
                env.supervise(cfg.seed, campaign);
                env.wait_up(Duration::from_secs(120))?
            }
        });
    }

    let flow_start = env.tb.now() + cfg.settle;
    let (tx, duration, dport) = env.add_measurement_flow(&cfg, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    env.tb.run_until(flow_start + duration + cfg.drain);

    // Folding the supervisor's tail interval comes first, as it always has.
    let availability = env.tb.availability(env.napoli);
    let result = collect_result(&env.tb, &cfg, tx, rx, flow_start, duration, connect_time);
    Ok(ExperimentResult { availability, ..result })
}

/// Decodes logs into a result (shared with perfbench's paper campaign,
/// which drives the testbed directly).
pub fn collect_result(
    tb: &Testbed,
    cfg: &ExperimentConfig,
    tx: AgentId,
    rx: AgentId,
    flow_start: Instant,
    duration: Duration,
    connect_time: Option<Duration>,
) -> ExperimentResult {
    let (sent, rtts) = tb.sender_logs(tx);
    let recv = tb.receiver_records(rx);
    let decoder = Decoder::paper();
    let series = decoder.series(flow_start, duration, sent, recv, rtts);
    let summary = decoder.summary(sent, recv, rtts);
    ExperimentResult {
        path: cfg.path,
        label: cfg.spec.label.clone(),
        flow_start,
        series,
        summary,
        connect_time,
        drops: tb.drops(),
        events: tb.events_processed(),
        metrics: tb.metrics(),
        tcp: tb.tcp_stats(tx),
        rrc_dwell: tb.rrc_dwell_total(),
        availability: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_path_voip_is_clean() {
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(10); // keep the test quick
        let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, 11);
        let r = run_experiment(cfg).unwrap();
        assert_eq!(r.summary.lost, 0);
        assert!((r.summary.mean_bitrate_bps - 72_000.0).abs() < 2_000.0);
        let rtt = r.summary.mean_rtt.unwrap();
        assert!(rtt >= Duration::from_millis(23) && rtt <= Duration::from_millis(32), "rtt {rtt}");
        assert!(r.connect_time.is_none());
        assert!(r.availability.is_none());
    }

    #[test]
    fn a_fault_plan_needs_the_umts_path() {
        let mut cfg =
            ExperimentConfig::paper(FlowSpec::voip_g711(), PathKind::EthernetToEthernet, 15);
        cfg.fault_plan = Some(CampaignConfig::default());
        assert!(matches!(run_experiment(cfg), Err(ExperimentError::Unsupported(_))));
    }

    #[test]
    fn availability_is_reported_exactly_for_supervised_runs() {
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(10);
        let plain = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, 16);
        let mut supervised = plain.clone();
        supervised.fault_plan = Some(CampaignConfig {
            start: Instant::from_secs(8),
            horizon: Instant::from_secs(20),
            mean_gap: Duration::from_secs(4),
            mix: vec![umtslab_umts::attachment::SessionFault::PppTerminate],
        });
        let r = run_experiment(plain).unwrap();
        assert!(r.availability.is_none());
        let r = run_experiment(supervised).unwrap();
        assert!(r.connect_time.is_some(), "the supervisor dials");
        let a = r.availability.expect("a supervised run reports availability");
        assert!(a.sessions_established >= 1, "{a:?}");
    }

    #[test]
    fn umts_path_voip_connects_and_flows() {
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(10);
        let cfg = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, 12);
        let r = run_experiment(cfg).unwrap();
        let connect = r.connect_time.expect("umts path dials");
        assert!(
            connect >= Duration::from_secs(4) && connect <= Duration::from_secs(30),
            "connect {connect}"
        );
        // VoIP fits comfortably in the initial DCH grant: (almost) no loss.
        assert!(r.summary.loss_rate < 0.02, "loss {}", r.summary.loss_rate);
        assert!(
            (r.summary.mean_bitrate_bps - 72_000.0).abs() < 4_000.0,
            "bitrate {}",
            r.summary.mean_bitrate_bps
        );
        // RTT well above the wired path.
        assert!(r.summary.mean_rtt.unwrap() > Duration::from_millis(150));
    }

    #[test]
    fn umts_saturation_caps_throughput() {
        let mut spec = FlowSpec::cbr_1mbps();
        spec.duration = Duration::from_secs(20);
        let cfg = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, 13);
        let r = run_experiment(cfg).unwrap();
        // Offered ~1 Mbps, initial grant ~160 kbps: heavy loss, capped rate.
        assert!(r.summary.loss_rate > 0.5, "loss {}", r.summary.loss_rate);
        assert!(r.summary.mean_bitrate_bps < 300_000.0, "bitrate {}", r.summary.mean_bitrate_bps);
        // Bufferbloat: max RTT beyond a second.
        assert!(r.summary.max_rtt.unwrap() > Duration::from_secs(1));
    }

    #[test]
    fn series_has_expected_window_count() {
        let mut spec = FlowSpec::voip_g711();
        spec.duration = Duration::from_secs(4);
        let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, 14);
        let r = run_experiment(cfg).unwrap();
        // 4 s / 200 ms = 20 windows (may extend by one for stragglers).
        assert!(r.series.points.len() >= 20 && r.series.points.len() <= 22);
    }
}
