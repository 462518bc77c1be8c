//! The label interner is bounded by the topology, not by the traffic:
//! once a testbed has been built and run, building and running it again
//! interns nothing new. Alone in its test binary because the interner is
//! process-wide.

use umtslab::experiment::{run_experiment, ExperimentConfig, PathKind};
use umtslab::prelude::*;
use umtslab::umtslab_net::Label;

fn paper_umts_run(seed: u64) {
    let mut spec = FlowSpec::cbr_1mbps();
    spec.duration = Duration::from_secs(10);
    let cfg = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, seed);
    let run = run_experiment(cfg).expect("the paper testbed runs");
    assert!(run.summary.received > 0, "the flow carries packets");
}

#[test]
fn a_second_paper_testbed_run_interns_no_new_label() {
    paper_umts_run(1);
    let after_first = Label::interned();
    assert!(after_first > 0, "a testbed interns its names");
    paper_umts_run(2);
    assert_eq!(Label::interned(), after_first, "labels interned per packet or per run");
}
