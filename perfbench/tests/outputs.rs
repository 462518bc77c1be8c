//! The benchmark's workloads compute what the library computes.
//!
//! The timed runs only compare witness hashes across repetitions of one
//! seed. These tests tie those hashes to independent computations: the
//! sharded fleet against a one-shard serial run, a traced run against an
//! untraced one, and the stepped paper campaign against the library's
//! own `run_paper`.

use umtslab::prelude::Duration;
use umtslab::{run_paper, shape_checks};
use umtslab_perfbench::fleet::{self, FleetSize};
use umtslab_perfbench::paper::{self, PaperSize};
use umtslab_perfbench::span::Tracer;
use umtslab_perfbench::tcp::{self, TcpSize};

fn small_fleet(shards: usize) -> FleetSize {
    FleetSize { members: 24, sinks: 3, seconds: 2, shards }
}

#[test]
fn two_shards_on_two_threads_match_one_serial_shard() {
    let mut tr = Tracer::new(false);
    let sharded = fleet::rep(&small_fleet(2), 7, &mut tr);
    let serial = fleet::rep(&small_fleet(1), 7, &mut tr);
    assert!(sharded.pkts > 0);
    assert_eq!(sharded.failed, 0, "every member dials up");
    assert_eq!(sharded.hash, serial.hash, "partitioning changed the fleet's outputs");
    assert_eq!(sharded.pkts, serial.pkts);
    assert_eq!(sharded.events, serial.events);
}

#[test]
fn tracing_does_not_change_outputs() {
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let a = fleet::rep(&small_fleet(2), 11, &mut plain);
    let b = fleet::rep(&small_fleet(2), 11, &mut traced);
    assert_eq!(a.hash, b.hash);
    assert!(traced.sum("core.windows") > 0.0, "the window closure was instrumented");
    assert!(traced.total_s("core.dial") > 0.0);

    let size = TcpSize { seeds: 1 };
    let a = tcp::rep(&size, 3, &mut plain);
    let b = tcp::rep(&size, 3, &mut traced);
    assert_eq!(a.hash, b.hash);
    assert_eq!(a.attempted, 4 * tcp::TRANSFERS as u64);
}

#[test]
fn stepped_campaign_matches_the_library_run() {
    let flow = Some(Duration::from_secs(8));
    let mut tr = Tracer::new(false);
    let rep = paper::rep(&PaperSize { flow }, 21, &mut tr);
    let run = run_paper(21, flow).expect("the campaign connects");
    assert_eq!(rep.hash, paper::witness(&run));
    assert_eq!(rep.attempted, 4);
}

#[test]
fn campaign_seeds_avoid_the_off_shape_seeds() {
    for seed in 0..3 * paper::SEEDS {
        let s = paper::campaign_seed(seed);
        assert!(s < paper::SEEDS && !paper::OFF_SHAPE.contains(&s), "{seed} -> {s}");
    }
}

/// Recomputes `paper::OFF_SHAPE`; takes about two minutes.
#[test]
#[ignore]
fn paper_seeds() {
    let off: Vec<u64> = (0..paper::SEEDS)
        .filter(|&seed| {
            let run = run_paper(seed, None).expect("the campaign connects");
            shape_checks(&run).iter().any(|c| !c.pass)
        })
        .collect();
    assert_eq!(off, paper::OFF_SHAPE);
}
