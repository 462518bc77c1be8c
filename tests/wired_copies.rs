//! The copy invariant of the wired path, alone in its test binary because
//! the copy counters are process-wide: a test running beside it would add
//! its own copies to the window.
//!
//! Once a traffic agent has emitted a packet, forwarding it over Ethernet
//! to Ethernet (links, routing, filtering, delivery and the echo back)
//! never copies its payload. The `dataplane` bench checks the same
//! invariant on every repetition; this test keeps it in Tier-1.

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed};
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;

#[test]
fn steady_echoed_wired_flows_make_no_copies() {
    for spec in [FlowSpec::voip_g711, FlowSpec::cbr_1mbps] {
        let mut spec = spec();
        spec.duration = Duration::from_secs(12);
        let cfg = ExperimentConfig::paper(spec, PathKind::EthernetToEthernet, 1);
        let mut env = TwoNodeTestbed::build(&cfg);
        let flow_start = env.tb.now() + cfg.settle;
        let (tx, _, dport) = env.add_measurement_flow(&cfg, flow_start);
        let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

        // Two seconds fill the pipeline; the next eight are steady.
        env.tb.run_until(flow_start + Duration::from_secs(2));
        let (received0, copies0) = (env.tb.receiver_records(rx).len(), copy_counters());
        env.tb.run_until(flow_start + Duration::from_secs(10));
        let (received1, copies1) = (env.tb.receiver_records(rx).len(), copy_counters());

        let received = received1 - received0;
        assert!(received > 100, "{}: only {received} packets in the window", cfg.spec.label);
        assert_eq!(
            (copies1.copies - copies0.copies, copies1.bytes - copies0.bytes),
            (0, 0),
            "{}: the wired path copied a payload ({received} packets)",
            cfg.spec.label
        );
    }
}
