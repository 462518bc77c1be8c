//! The known TCP wedge, pinned so that a fix shows up as a count change.
//!
//! Under the operator switching policy at seed 2008 the bulk upload of
//! the cross-layer experiment stops making progress: from about 80 s on,
//! its newest segments stay unacknowledged while RTOs keep firing. The
//! benchmark counts such a transfer as stranded (`tcp_rrc` reports it as
//! `traffic.stranded`); this test asserts that a single transfer of at
//! least 120 s at that seed is one.

use umtslab::umtslab_sim::time::Duration;
use umtslab::umtslab_traffic::SwitchingPolicy;
use umtslab::{run_switching_policy, CrosslayerConfig};
use umtslab_perfbench::tcp::stranded;

#[test]
fn operator_bulk_transfer_at_seed_2008_strands_data() {
    let mut cfg = CrosslayerConfig::new(SwitchingPolicy::Operator, 2008);
    cfg.tcp.duration = Duration::from_secs(120);
    let (report, result) = run_switching_policy(&cfg).expect("the cell connects");
    let tcp = result.tcp.expect("the flow model is TCP");
    assert!(tcp.timeouts > 0, "RTOs keep firing: {tcp:?}");
    assert!(
        stranded(&tcp),
        "delivered {} of {} distinct segments: the wedge is gone, lower the \
         expected traffic.stranded counts",
        tcp.delivered_segments,
        tcp.transmissions - tcp.retransmits
    );
    assert_eq!(report.delivered_segments, 1_398, "the flow stops at 1,398 segments");
}
