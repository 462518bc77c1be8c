//! Property-style tests for the traffic generator and decoder, driven by
//! the workspace's deterministic [`SimRng`] generator (the build
//! environment is offline, so no external property-testing crate is used).

use umtslab_ditg::agent::{RecvRecord, RttRecord, SentRecord};
use umtslab_ditg::{
    Decoder, Distribution, FlowSpec, IdtProcess, PsProcess, TrafficReceiver, TrafficSender,
};
use umtslab_net::packet::PacketIdAllocator;
use umtslab_net::wire::Ipv4Address;
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

/// Randomized cases per property.
const CASES: u64 = 64;

fn a(s: &str) -> Ipv4Address {
    s.parse().unwrap()
}

/// IDT samples are strictly positive for every distribution family.
#[test]
fn idt_always_positive() {
    let mut meta = SimRng::seed_from_u64(0x0401);
    for _ in 0..CASES {
        let mean = meta.uniform(0.000_001, 1.0);
        let which = meta.uniform_u64(0, 5);
        let dist = match which {
            0 => Distribution::Constant { value: mean },
            1 => Distribution::Uniform { lo: 0.0, hi: mean * 2.0 },
            2 => Distribution::Exponential { mean },
            3 => Distribution::Normal { mean, std: mean },
            4 => Distribution::Pareto { scale: mean, shape: 1.5 },
            _ => Distribution::Cauchy { location: mean, scale: mean },
        };
        let idt = IdtProcess::new(dist);
        let mut rng = SimRng::seed_from_u64(meta.next_u64());
        for _ in 0..200 {
            assert!(idt.sample(&mut rng) >= IdtProcess::MIN_IDT);
        }
    }
}

/// PS samples always respect the clamp bounds and the header minimum.
#[test]
fn ps_always_in_bounds() {
    let mut meta = SimRng::seed_from_u64(0x0402);
    for _ in 0..CASES {
        let lo = meta.uniform_u64(0, 1999) as usize;
        let hi = lo + meta.uniform_u64(0, 1999) as usize;
        let mean = meta.uniform(0.0, 4000.0);
        let ps = PsProcess::new(Distribution::Normal { mean, std: mean / 2.0 + 1.0 }, lo, hi);
        let mut rng = SimRng::seed_from_u64(meta.next_u64());
        for _ in 0..200 {
            let v = ps.sample(&mut rng);
            assert!(v >= lo.max(PsProcess::MIN_PAYLOAD));
            assert!(v <= hi.max(PsProcess::MIN_PAYLOAD));
        }
    }
}

/// A sender emits exactly the packets its schedule dictates: strictly
/// increasing departures, consecutive sequence numbers, all within the
/// flow duration.
#[test]
fn sender_schedule_is_consistent() {
    let mut meta = SimRng::seed_from_u64(0x0403);
    for _ in 0..CASES {
        let pps = meta.uniform(1.0, 2000.0);
        let payload = meta.uniform_u64(16, 1399) as usize;
        let dur_ms = meta.uniform_u64(10, 1999);
        let seed = meta.next_u64();
        let mut spec = FlowSpec::cbr(
            (pps * payload as f64 * 8.0) as u64,
            payload,
            Duration::from_millis(dur_ms),
        );
        spec.idt = IdtProcess::new(Distribution::Exponential { mean: 1.0 / pps });
        let start = Instant::from_secs(1);
        let mut s = TrafficSender::new(spec, 1, a("2.2.2.2"), start, seed);
        let mut ids = PacketIdAllocator::new();
        let mut pool = umtslab_net::bytes::BufferPool::new();
        let mut last = None;
        let mut expected_seq = 0u32;
        while let Some(t) = s.next_departure() {
            assert!(t >= start);
            assert!(t < start + Duration::from_millis(dur_ms));
            if let Some(prev) = last {
                assert!(t > prev, "departures must strictly increase");
            }
            last = Some(t);
            let p = s.emit(t, &mut ids, &mut pool).unwrap();
            let (seq, _, tx) = umtslab_ditg::agent::parse_header(&p.payload).unwrap();
            assert_eq!(seq, expected_seq);
            assert_eq!(tx, t);
            expected_seq += 1;
        }
        assert_eq!(s.probe().sent().len(), expected_seq as usize);
    }
}

/// Receiver + decoder bookkeeping: received + lost == sent, duplicates
/// never inflate the records, and the decoder's per-window loss totals
/// match the summary.
#[test]
fn decode_conservation() {
    let mut meta = SimRng::seed_from_u64(0x0404);
    for _ in 0..CASES {
        let n = meta.uniform_u64(1, 299) as usize;
        let delay_ms = meta.uniform_u64(1, 499);
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(30));
        let mut s = TrafficSender::new(spec, 1, a("2.2.2.2"), Instant::ZERO, 1);
        let mut r = TrafficReceiver::new(1, false);
        let mut ids = PacketIdAllocator::new();
        let mut pool = umtslab_net::bytes::BufferPool::new();
        let mut emitted = Vec::new();
        for _ in 0..n {
            let Some(t) = s.next_departure() else { break };
            emitted.push((t, s.emit(t, &mut ids, &mut pool).unwrap()));
        }
        let mut delivered = 0u64;
        for (t, p) in &emitted {
            if meta.chance(0.4) {
                continue; // dropped in transit
            }
            let rx_at = *t + Duration::from_millis(delay_ms);
            let _ = r.on_receive(rx_at, p, &mut ids, &mut pool);
            delivered += 1;
            if meta.chance(0.3) {
                // A duplicate delivery must not inflate the records.
                let _ = r.on_receive(rx_at + Duration::from_millis(1), p, &mut ids, &mut pool);
            }
        }
        assert_eq!(r.records().len() as u64, delivered);
        let decoder = Decoder::paper();
        let sent = s.probe().sent();
        let summary = decoder.summary(sent, r.records(), &[]);
        assert_eq!(summary.sent, emitted.len() as u64);
        assert_eq!(summary.received, delivered);
        assert_eq!(summary.lost, emitted.len() as u64 - delivered);

        let series = decoder.series(Instant::ZERO, Duration::from_secs(30), sent, r.records(), &[]);
        let windowed_lost: u64 = series.points.iter().map(|p| p.lost).sum();
        let windowed_recv: u64 = series.points.iter().map(|p| p.received).sum();
        assert_eq!(windowed_lost, summary.lost);
        assert_eq!(windowed_recv, summary.received);
    }
}

/// Window partition covers every record exactly once: total bytes in
/// windows equals total received bytes.
#[test]
fn window_partition_is_exact() {
    let mut meta = SimRng::seed_from_u64(0x0405);
    for _ in 0..CASES {
        let n = meta.uniform_u64(1, 199) as usize;
        let mut sorted: Vec<(u64, usize)> = (0..n)
            .map(|_| (meta.uniform_u64(0, 59_999), meta.uniform_u64(16, 1399) as usize))
            .collect();
        sorted.sort_unstable();
        let recv: Vec<RecvRecord> = sorted
            .iter()
            .enumerate()
            .map(|(i, (rx_ms, size))| RecvRecord {
                seq: i as u32,
                tx: Instant::from_millis(rx_ms.saturating_sub(5)),
                rx: Instant::from_millis(*rx_ms),
                payload: *size,
            })
            .collect();
        let decoder = Decoder::with_window(Duration::from_millis(200));
        let series = decoder.series(Instant::ZERO, Duration::from_secs(60), &[], &recv, &[]);
        let total_rate: f64 = series.points.iter().map(|p| p.bitrate_bps).sum::<f64>() * 0.2;
        let total_bytes: usize = recv.iter().map(|r| r.payload).sum();
        assert!(
            (total_rate - total_bytes as f64 * 8.0).abs() < 1.0,
            "windowed bits {} vs actual {}",
            total_rate,
            total_bytes * 8
        );
        let count: u64 = series.points.iter().map(|p| p.received).sum();
        assert_eq!(count, recv.len() as u64);
    }
}

/// RTT assignment: every probe lands in exactly one window and window
/// means stay within [min, max] of the samples in that window.
#[test]
fn rtt_window_means_are_bounded() {
    let mut meta = SimRng::seed_from_u64(0x0406);
    for _ in 0..CASES {
        let n = meta.uniform_u64(1, 99) as usize;
        let rtts: Vec<RttRecord> = (0..n)
            .map(|i| RttRecord {
                seq: i as u32,
                tx: Instant::from_millis(meta.uniform_u64(0, 9_999)),
                rtt: Duration::from_millis(meta.uniform_u64(1, 4_999)),
            })
            .collect();
        let decoder = Decoder::paper();
        let series = decoder.series(Instant::ZERO, Duration::from_secs(10), &[], &[], &rtts);
        let windows_with_rtt = series.points.iter().filter(|p| p.rtt.is_some()).count();
        assert!(windows_with_rtt >= 1);
        let lo = rtts.iter().map(|r| r.rtt).min().unwrap();
        let hi = rtts.iter().map(|r| r.rtt).max().unwrap();
        for p in &series.points {
            if let Some(rtt) = p.rtt {
                assert!(rtt >= lo && rtt <= hi);
            }
        }
    }
}

/// Sent records have monotonically increasing tx and match emissions
/// (sanity for the SentRecord log used in loss attribution).
#[test]
fn sent_log_matches_emissions() {
    let mut meta = SimRng::seed_from_u64(0x0407);
    for _ in 0..CASES {
        let spec = FlowSpec::poisson(500.0, 64, Duration::from_millis(200));
        let mut s = TrafficSender::new(spec, 3, a("2.2.2.2"), Instant::ZERO, meta.next_u64());
        let mut ids = PacketIdAllocator::new();
        let mut pool = umtslab_net::bytes::BufferPool::new();
        while let Some(t) = s.next_departure() {
            let _ = s.emit(t, &mut ids, &mut pool);
        }
        let sent: &[SentRecord] = s.probe().sent();
        for w in sent.windows(2) {
            assert!(w[1].tx > w[0].tx);
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }
}
