//! Compiling a typed [`Pack`] onto the existing experiment machinery:
//! every `[[flow]]` × every campaign seed becomes one
//! [`ExperimentConfig`], supervised under the pack's `[fault_plan]` when
//! the flow rides the UMTS path.

use umtslab::umtslab_traffic::{AdaptiveConfig, TcpConfig, Trace};
use umtslab::{ExperimentConfig, FlowModel, NodeRole, PathKind, SlicePlan};
use umtslab_ditg::FlowSpec;
use umtslab_net::fault::FaultConfig;
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::schema::{FaultSpec, FlowDef, FlowKind, Pack};

/// Builds the [`FlowSpec`] for one pack flow (label overridden to the
/// pack's flow label so goldens and reports key consistently).
fn flow_spec(flow: &FlowDef) -> FlowSpec {
    let mut spec = match &flow.kind {
        FlowKind::VoipG711 => FlowSpec::voip_g711(),
        FlowKind::Cbr1Mbps => FlowSpec::cbr_1mbps(),
        FlowKind::VoipCodec { codec } => FlowSpec::voip_codec(*codec, flow.duration),
        FlowKind::Cbr { rate_bps, payload_bytes } => {
            FlowSpec::cbr(*rate_bps, *payload_bytes as usize, flow.duration)
        }
        FlowKind::Poisson { mean_pps, payload_bytes } => {
            FlowSpec::poisson(*mean_pps, *payload_bytes as usize, flow.duration)
        }
        // Closed-loop kinds: the spec only carries label/duration/path;
        // the sender itself comes from `flow_model`.
        FlowKind::TcpBulk { .. } | FlowKind::AdaptiveVideo { .. } => FlowSpec::cbr_1mbps(),
        FlowKind::TraceReplay { rate_bps, payload_bytes } => {
            FlowSpec::cbr(*rate_bps, *payload_bytes as usize, flow.duration)
        }
    };
    spec.duration = flow.duration;
    spec.label = flow.label.clone();
    spec
}

/// Builds the closed-loop sender model for one pack flow.
fn flow_model(flow: &FlowDef) -> FlowModel {
    match &flow.kind {
        FlowKind::TcpBulk { mss_bytes } => FlowModel::Tcp(TcpConfig {
            mss: *mss_bytes as usize,
            duration: flow.duration,
            ..TcpConfig::default()
        }),
        FlowKind::AdaptiveVideo { frame_bytes } => FlowModel::Adaptive(AdaptiveConfig {
            frame_bytes: *frame_bytes as usize,
            duration: flow.duration,
            ..AdaptiveConfig::default()
        }),
        _ => FlowModel::OpenLoop,
    }
}

/// Lowers the pack's fault spec onto the link fault injector.
fn fault_config(spec: &FaultSpec) -> FaultConfig {
    match spec {
        FaultSpec::None => FaultConfig::none(),
        FaultSpec::BurstyUmts => FaultConfig::bursty_umts(),
        FaultSpec::Custom(c) => c.clone(),
    }
}

/// Derives the [`SlicePlan`] from the pack's `[[slice]]` list: the first
/// Napoli slice owns the sender, the first INRIA slice the receiver, and
/// everything else rides along for ACL scenarios.
fn slice_plan(pack: &Pack) -> SlicePlan {
    let sender = pack
        .slices
        .iter()
        .find(|s| s.node == NodeRole::Napoli)
        .expect("schema guarantees a napoli slice");
    let probe = pack
        .slices
        .iter()
        .find(|s| s.node == NodeRole::Inria)
        .expect("schema guarantees an inria slice");
    let extra = pack
        .slices
        .iter()
        .filter(|s| s.name != sender.name && s.name != probe.name)
        .cloned()
        .collect();
    SlicePlan {
        sender: sender.name.clone(),
        sender_umts_access: sender.umts_access,
        probe: probe.name.clone(),
        extra,
    }
}

/// Compiles the full run matrix: flows × seeds, in declaration order
/// (flow-major, seed-minor), with the pack's `[trace]` resolved to a
/// loaded [`Trace`] replayed on both access links of every run.
///
/// A pack that declares a `[trace]` section panics without its trace
/// (from [`crate::load_trace`]), because silently dropping the schedule
/// would change every golden.
pub fn compile(pack: &Pack, trace: Option<&Trace>) -> Vec<ExperimentConfig> {
    assert!(
        pack.trace.is_none() || trace.is_some(),
        "pack `{}` declares [trace]; pass the schedule from load_trace",
        pack.meta.name
    );
    let seeds = pack.seeds.expand();
    let slices = slice_plan(pack);
    let access_fault = fault_config(&pack.topology.fault);
    let mut runs = Vec::with_capacity(pack.flows.len() * seeds.len());
    for flow in &pack.flows {
        for &seed in &seeds {
            let mut cfg = ExperimentConfig::paper(flow_spec(flow), flow.path, seed);
            let operator_key = flow.operator.as_deref().unwrap_or(&pack.umts.operator);
            cfg.operator =
                OperatorProfile::by_preset(operator_key).expect("schema validated the preset");
            cfg.device =
                DeviceProfile::by_preset(&pack.umts.device).expect("schema validated the preset");
            cfg.credentials = match (&pack.umts.username, &pack.umts.password) {
                (Some(user), Some(pass)) => Some(Credentials::new(user, pass)),
                _ => None,
            };
            cfg.access.rate_bps = pack.topology.access_rate_bps;
            cfg.access.delay = pack.topology.access_delay;
            cfg.access.jitter = pack.topology.access_jitter;
            cfg.access_fault = access_fault.clone();
            cfg.slices = slices.clone();
            cfg.flow_model = flow_model(flow);
            cfg.access_trace = trace.cloned();
            if flow.path == PathKind::UmtsToEthernet {
                cfg.fault_plan = pack.fault_plan.clone();
            }
            runs.push(cfg);
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Pack;
    use umtslab_sim::time::Duration;

    #[test]
    fn minimal_pack_compiles_to_one_run() {
        let pack = Pack::parse(&crate::schema::tests::minimal()).unwrap();
        let runs = compile(&pack, None);
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.spec.label, "voip");
        assert_eq!(run.seed, 1);
        assert_eq!(run.spec.duration, Duration::from_secs(2));
        assert_eq!(run.path, PathKind::EthernetToEthernet);
        assert_eq!(run.slices.sender, "unina_umts");
        assert_eq!(run.slices.probe, "unina_probe");
        assert!(run.fault_plan.is_none());
    }

    #[test]
    fn fault_plan_applies_only_to_umts_flows() {
        let text = crate::schema::tests::minimal()
            + "[[flow]]\nlabel = \"voip_3g\"\nkind = \"voip_g711\"\npath = \"umts\"\n\
               duration_s = 2.0\n\
               [fault_plan]\nstart_s = 5.0\nhorizon_s = 60.0\nmean_gap_s = 10.0\n\
               mix = [\"ppp_terminate\", \"modem_hang\"]\n";
        let pack = Pack::parse(&text).unwrap();
        let runs = compile(&pack, None);
        assert_eq!(runs.len(), 2);
        assert!(runs[0].fault_plan.is_none(), "ethernet flow is unsupervised");
        let campaign = runs[1].fault_plan.as_ref().expect("umts flow is supervised");
        assert_eq!(campaign.mean_gap, Duration::from_secs(10));
        assert_eq!(campaign.mix.len(), 2);
    }

    #[test]
    fn closed_loop_kinds_set_the_flow_model_and_trace() {
        let text = crate::schema::tests::minimal()
            + "[trace]\nfile = \"traces/drive.csv\"\n\
               [[flow]]\nlabel = \"bulk\"\nkind = \"tcp_bulk\"\nmss_bytes = 512\n\
               path = \"umts\"\nduration_s = 3.0\n\
               [[flow]]\nlabel = \"video\"\nkind = \"adaptive_video\"\npath = \"umts\"\n\
               duration_s = 4.0\n\
               [[flow]]\nlabel = \"replay\"\nkind = \"trace_replay\"\nrate_bps = 96000\n\
               payload_bytes = 400\npath = \"ethernet\"\nduration_s = 5.0\n";
        let pack = Pack::parse(&text).unwrap();
        let trace = umtslab::umtslab_traffic::Trace::parse(
            "# umtslab-trace v1 name=drive\n0.0,1000000,0\n2.0,250000,10000\n",
        )
        .unwrap();
        let runs = compile(&pack, Some(&trace));
        assert_eq!(runs.len(), 4);
        match &runs[1].flow_model {
            FlowModel::Tcp(tcp) => {
                assert_eq!(tcp.mss, 512);
                assert_eq!(tcp.duration, Duration::from_secs(3));
            }
            other => panic!("expected Tcp model, got {other:?}"),
        }
        match &runs[2].flow_model {
            FlowModel::Adaptive(a) => assert_eq!(a.duration, Duration::from_secs(4)),
            other => panic!("expected Adaptive model, got {other:?}"),
        }
        assert!(matches!(runs[3].flow_model, FlowModel::OpenLoop));
        for run in &runs {
            assert_eq!(run.access_trace.as_ref(), Some(&trace));
        }
    }

    #[test]
    #[should_panic(expected = "load_trace")]
    fn compile_refuses_a_traced_pack_without_the_trace() {
        let text = crate::schema::tests::minimal() + "[trace]\nfile = \"traces/drive.csv\"\n";
        let pack = Pack::parse(&text).unwrap();
        let _ = compile(&pack, None);
    }

    #[test]
    fn extra_slices_ride_along() {
        let text = crate::schema::tests::minimal()
            + "[[slice]]\nname = \"rival\"\nnode = \"napoli\"\numts_access = false\n";
        let pack = Pack::parse(&text).unwrap();
        let runs = compile(&pack, None);
        let slices = &runs[0].slices;
        assert_eq!(slices.extra.len(), 1);
        assert_eq!(slices.extra[0].name, "rival");
        assert!(!slices.extra[0].umts_access);
    }
}
