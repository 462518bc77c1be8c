//! The copy invariant of the UMTS uplink, alone in its test binary
//! because the copy counters are process-wide: a test running beside it
//! would add its own copies to the window.
//!
//! The one counted deep copy an uplink packet makes is `Packet::from_wire`
//! rebuilding the re-validated payload on the GGSN side of the PPP byte
//! path. The bearer's drop-tail test runs before that path, so a packet
//! the full buffer refuses is never serialized and costs no copy.

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed};
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;

#[test]
fn saturated_uplink_copies_admitted_packets_once_and_refused_ones_never() {
    let mut spec = FlowSpec::cbr_1mbps();
    spec.duration = Duration::from_secs(40);
    let cfg = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, 1);
    let mut env = TwoNodeTestbed::build(&cfg);
    env.umts_up(Duration::from_secs(120)).expect("the session dials up");
    env.register_destination();
    let flow_start = env.tb.now() + cfg.settle;
    let (tx, _, dport) = env.add_measurement_flow(&cfg, flow_start);
    env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    // Ten seconds fill the 44 kB buffer; the next twenty are steady.
    env.tb.run_until(flow_start + Duration::from_secs(10));
    let (uplink0, copies0) = (env.tb.metrics().uplink, copy_counters());
    env.tb.run_until(flow_start + Duration::from_secs(30));
    let (uplink1, copies1) = (env.tb.metrics().uplink, copy_counters());

    let offered = uplink1.offered - uplink0.offered;
    let refused = uplink1.dropped_overflow - uplink0.dropped_overflow;
    assert!(refused > offered / 4, "the window must saturate: {refused} of {offered} refused");
    assert_eq!(
        copies1.copies - copies0.copies,
        offered - refused,
        "one copy per admitted uplink packet ({offered} offered, {refused} refused)"
    );
}
