//! # umtslab — a simulated reproduction of *"Providing UMTS connectivity
//! to PlanetLab nodes"* (Botta et al., ROADS/CoNEXT 2008)
//!
//! The paper integrates 3G (UMTS) uplinks into PlanetLab: slices dial a
//! PPP session over a cellular modem, steer selected traffic over it via
//! policy routing and packet marks, and stay isolated from each other
//! through an egress firewall rule — all controlled by a `umts` vsys
//! command. The original work is tied to physical hardware (3G cards, a
//! commercial operator, PlanetLab machines); this workspace rebuilds every
//! layer as a deterministic discrete-event simulation and reproduces the
//! paper's complete evaluation (Figures 1–7).
//!
//! ## Layers (one crate each)
//!
//! * [`umtslab_sim`] — event kernel: virtual time, deterministic queue,
//!   seeded RNG;
//! * [`umtslab_net`] — packets with real wire formats, links, queues,
//!   fault injection, policy routing, netfilter;
//! * [`umtslab_umts`] — the access network: AT-command modem, full PPP
//!   (LCP/PAP/IPCP over HDLC framing), RRC state machine with on-demand
//!   grant upgrades, radio bearers, operator profiles and GGSN firewall;
//! * [`umtslab_planetlab`] — nodes, slices, vsys, and the `umts` command
//!   back-end installing the paper's exact routing recipe;
//! * [`umtslab_ditg`] — the D-ITG-style traffic generator and ITGDec-style
//!   windowed decoder;
//! * this crate — the testbed assembly ([`testbed`]: one front end over
//!   a serial engine or over N sharded ones, see [`shard`]), the
//!   experiment runner and paper presets, and the [`fleet`] scale demo
//!   built on the sharded model.
//!
//! ## Quickstart
//!
//! ```
//! use umtslab::experiment::{run_experiment, ExperimentConfig, PathKind};
//! use umtslab::prelude::*;
//!
//! // Run a short VoIP-like flow over the wired path.
//! let mut spec = FlowSpec::voip_g711();
//! spec.duration = Duration::from_secs(2);
//! let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, 42);
//! let result = run_experiment(cfg).unwrap();
//! assert_eq!(result.summary.lost, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod crosslayer;
mod engine;
pub mod experiment;
pub mod fleet;
pub mod paper;
pub mod shard;
pub mod testbed;

pub use chaos::{run_chaos_campaign, ChaosConfig, ChaosReport};
pub use crosslayer::{run_switching_policy, CrosslayerConfig};
pub use experiment::{
    run_experiment, AccessLink, ExperimentConfig, ExperimentError, ExperimentResult, ExtraSlice,
    FlowModel, NodeRole, PathKind, SlicePlan, TwoNodeTestbed, INRIA_ADDR, NAPOLI_ADDR,
};
pub use fleet::{
    metrics_members, render_metrics_json, run_fleet, run_fleet_with, FleetConfig, FleetReport,
};
pub use paper::{
    assemble_paper_run, campaign_seeds, metric_points, paper_jobs, render_series, run_paper,
    shape_checks, summary_row, Figure, Metric, PaperJob, PaperRun, PathPair, ShapeCheck, Workload,
    FIGURES,
};
pub use shard::{GlobalAgentId, GlobalNodeId, Shard, ShardedTestbed};
pub use testbed::{AgentId, NodeId, Testbed, TestbedDrops, TestbedMetrics};

/// Common imports for examples and benches.
///
/// ```
/// use umtslab::prelude::*;
///
/// // Everything a measurement script needs is one import away.
/// let mut spec = FlowSpec::cbr_1mbps();
/// spec.duration = Duration::from_secs(1);
/// assert_eq!(spec.label, "cbr-1mbps");
/// assert!(spec.nominal_bps().unwrap() > 0.9e6);
/// ```
pub mod prelude {
    pub use umtslab_ditg::{Decoder, FlowSpec, TrafficReceiver, TrafficSender};
    pub use umtslab_net::link::{JitterModel, LinkConfig};
    pub use umtslab_net::packet::{Mark, Packet};
    pub use umtslab_net::wire::{Endpoint, Ipv4Address, Ipv4Cidr};
    pub use umtslab_planetlab::node::{Node, ETH0, PPP0};
    pub use umtslab_planetlab::slice::SliceId;
    pub use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest, UmtsResponse};
    pub use umtslab_sim::time::{Duration, Instant};
    pub use umtslab_supervisor::backoff::BackoffConfig;
    pub use umtslab_supervisor::faults::{CampaignConfig, FaultPlan};
    pub use umtslab_supervisor::metrics::AvailabilityMetrics;
    pub use umtslab_supervisor::supervisor::{
        SessionSupervisor, SupervisorConfig, SupervisorState,
    };
    pub use umtslab_umts::at::DeviceProfile;
    pub use umtslab_umts::attachment::SessionFault;
    pub use umtslab_umts::operator::OperatorProfile;
    pub use umtslab_umts::ppp::Credentials;
}

// Re-export the sub-crates for doc links and advanced use.
pub use umtslab_ditg;
pub use umtslab_net;
pub use umtslab_planetlab;
pub use umtslab_sim;
pub use umtslab_supervisor;
pub use umtslab_traffic;
pub use umtslab_umts;
