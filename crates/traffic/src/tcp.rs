//! A TCP-ish congestion-controlled bulk flow.
//!
//! [`TcpFlow`] is a closed-loop sender speaking the D-ITG probe wire
//! format: every segment carries the 16-byte header (seq, flow id, tx
//! time) and the standard echoing [`umtslab_ditg::TrafficReceiver`] acts
//! as the ACK generator — an echo of segment `s` acknowledges `s`. On
//! top of that acknowledgement stream the flow runs the classic loss
//! recovery ladder:
//!
//! * **slow start** — the congestion window grows one MSS per newly
//!   acknowledged segment until it reaches `ssthresh`;
//! * **congestion avoidance** — above `ssthresh` it grows
//!   `MSS × MSS / cwnd` per ACK (about one MSS per RTT);
//! * **fast retransmit** — the third duplicate ACK retransmits the
//!   oldest hole and halves the window;
//! * **retransmission timeout** — an RTO collapses the window to one
//!   MSS and doubles the timer (Karn's rule: retransmitted segments
//!   never produce RTT samples, and the backoff persists until an
//!   un-retransmitted segment is acknowledged).
//!
//! All state is integer: byte counts, segment numbers and
//! [`Duration`]/[`Instant`] newtypes. The RTT estimator is the standard
//! Jacobson/Karels arithmetic (`srtt ← 7/8·srtt + 1/8·sample`,
//! `rttvar ← 3/4·rttvar + 1/4·|srtt − sample|`) computed with the
//! newtypes' integer division — no float ever enters the flow state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use umtslab_ditg::agent::{Probe, HEADER_LEN};
use umtslab_net::bytes::BufferPool;
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::Ipv4Address;
use umtslab_sim::time::{Duration, Instant};

/// Tuning knobs of a [`TcpFlow`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Segment payload size in bytes (including the probe header).
    pub mss: usize,
    /// Initial congestion window, in segments.
    pub initial_window: u64,
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: u64,
    /// How long the sender keeps offering new data.
    pub duration: Duration,
    /// Lower clamp of the retransmission timeout.
    pub min_rto: Duration,
    /// Upper clamp of the retransmission timeout.
    pub max_rto: Duration,
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1_024,
            initial_window: 2,
            initial_ssthresh: 64,
            duration: Duration::from_secs(60),
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            sport: 9_000,
            dport: 9_001,
        }
    }
}

/// Aggregate counters of one finished (or running) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Segments transmitted, including retransmissions.
    pub transmissions: u64,
    /// Retransmitted segments (fast retransmit + RTO).
    pub retransmits: u64,
    /// Fast-retransmit events (triple duplicate ACK).
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Highest congestion window reached, in bytes.
    pub max_cwnd_bytes: u64,
    /// Cumulatively acknowledged segments.
    pub delivered_segments: u64,
}

/// The closed-loop congestion-controlled sender.
#[derive(Debug)]
pub struct TcpFlow {
    config: TcpConfig,
    probe: Probe,
    start: Instant,
    ends: Instant,
    /// Congestion window in bytes.
    cwnd: u64,
    /// Slow-start threshold in bytes.
    ssthresh: u64,
    /// Next new segment number to transmit.
    next_seq: u32,
    /// All segments below this are cumulatively acknowledged.
    cum_ack: u32,
    /// Acknowledged segments above `cum_ack` (selective knowledge from
    /// out-of-order echoes). A `BTreeSet`, not a hash set: its iteration
    /// order feeds hole detection and must be deterministic.
    sacked: BTreeSet<u32>,
    /// Duplicate-ACK counter for the current hole.
    dup_acks: u32,
    /// Fast-recovery high-water mark: holes below it retransmit at most
    /// once per recovery episode.
    recover: u32,
    /// Transmit time and retransmission flag per in-flight segment
    /// (Karn: retransmitted segments yield no RTT sample).
    sent_at: BTreeMap<u32, (Instant, bool)>,
    /// Segments queued for retransmission ahead of new data.
    rtx_queue: VecDeque<u32>,
    /// Smoothed RTT, once a sample exists.
    srtt: Option<Duration>,
    /// RTT variance estimate.
    rttvar: Duration,
    /// Current retransmission timeout (with backoff applied).
    rto: Duration,
    /// Exponential RTO backoff multiplier (1 = no backoff).
    backoff: u32,
    /// When the pending RTO fires (armed while data is in flight).
    timer: Option<Instant>,
    stats: TcpStats,
}

impl TcpFlow {
    /// Creates flow `flow_id` toward `dst_addr` starting at `start`.
    pub fn new(config: TcpConfig, flow_id: u32, dst_addr: Ipv4Address, start: Instant) -> TcpFlow {
        let mss = config.mss as u64;
        let cwnd = config.initial_window * mss;
        let ssthresh = config.initial_ssthresh * mss;
        let ends = start + config.duration;
        TcpFlow {
            probe: Probe::new(flow_id, config.sport, dst_addr, config.dport),
            config,
            start,
            ends,
            cwnd,
            ssthresh,
            next_seq: 0,
            cum_ack: 0,
            sacked: BTreeSet::new(),
            dup_acks: 0,
            recover: 0,
            sent_at: BTreeMap::new(),
            rtx_queue: VecDeque::new(),
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_secs(1),
            backoff: 1,
            timer: None,
            stats: TcpStats { max_cwnd_bytes: cwnd, ..TcpStats::default() },
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.config
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }

    /// Current smoothed RTT estimate, once one exists.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// The probe endpoint: one send record per transmission,
    /// retransmits included, and Karn-filtered RTT samples.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Bytes currently in flight (transmitted, not yet acknowledged).
    pub fn flight_bytes(&self) -> u64 {
        self.sent_at.len() as u64 * self.config.mss as u64
    }

    /// True once the sending window has closed for good.
    pub fn finished(&self, now: Instant) -> bool {
        now >= self.ends && self.sent_at.is_empty()
    }

    fn mss(&self) -> u64 {
        self.config.mss as u64
    }

    /// True while the congestion window admits another segment.
    fn window_open(&self) -> bool {
        self.flight_bytes() + self.mss() <= self.cwnd.max(self.mss())
    }

    /// True if the flow has anything it could transmit right now.
    fn has_work(&self, now: Instant) -> bool {
        if !self.rtx_queue.is_empty() {
            return true;
        }
        now < self.ends && self.window_open()
    }

    /// When the next transmission (or timer action) is due; `None` once
    /// the flow is over and everything is acknowledged.
    pub fn next_departure(&self, now: Instant) -> Option<Instant> {
        if self.has_work(now) {
            return Some(now.max(self.start));
        }
        if now < self.start {
            return Some(self.start);
        }
        if !self.sent_at.is_empty() {
            return self.timer;
        }
        // Window closed, nothing in flight, new data still allowed: the
        // next ACK will reopen the window (closed-loop re-arm).
        None
    }

    /// Emits the segment due at `now`, if any. RTO expiry is handled
    /// here too: an expired timer collapses the window and queues the
    /// oldest hole before anything is sent.
    pub fn emit(
        &mut self,
        now: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        if now < self.start {
            return None;
        }
        self.check_timer(now);
        let (seq, is_rtx) = if let Some(seq) = self.rtx_queue.pop_front() {
            (seq, true)
        } else if now < self.ends && self.window_open() {
            let seq = self.next_seq;
            self.next_seq += 1;
            (seq, false)
        } else {
            return None;
        };

        let packet = self.probe.send(seq, self.config.mss.max(HEADER_LEN), now, ids, pool);
        self.stats.transmissions += 1;
        if is_rtx {
            self.stats.retransmits += 1;
        }
        let retransmitted = is_rtx || self.sent_at.get(&seq).is_some_and(|&(_, r)| r);
        self.sent_at.insert(seq, (now, retransmitted));
        if self.timer.is_none() {
            self.timer = Some(now + self.effective_rto());
        }
        Some(packet)
    }

    /// Handles an echo (ACK) arriving at the sender.
    pub fn on_receive(&mut self, now: Instant, packet: &Packet) {
        let Some((seq, tx)) = self.probe.echo(packet) else {
            return;
        };
        if seq < self.cum_ack || self.sacked.contains(&seq) {
            return; // stale or already-counted acknowledgement
        }

        // Karn's rule: only never-retransmitted segments produce samples.
        if let Some(&(sent, retransmitted)) = self.sent_at.get(&seq) {
            if !retransmitted {
                let sample = now.saturating_duration_since(sent);
                self.update_rtt(sample);
                self.backoff = 1;
                self.probe.record_rtt(seq, tx, sample);
            }
        }

        if seq == self.cum_ack {
            self.advance_cum_ack(now, seq);
        } else {
            // An out-of-order echo: selective knowledge plus a duplicate
            // acknowledgement for the hole at `cum_ack`.
            self.sacked.insert(seq);
            self.sent_at.remove(&seq);
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.cum_ack < self.recover {
                // Already retransmitted this hole in the current episode.
            } else if self.dup_acks == 3 {
                self.fast_retransmit();
            }
        }
        self.rearm_timer(now);
    }

    fn advance_cum_ack(&mut self, now: Instant, seq: u32) {
        self.sent_at.remove(&seq);
        self.stats.delivered_segments += 1;
        let mut newly_acked = 1u64;
        self.cum_ack = seq + 1;
        while self.sacked.remove(&self.cum_ack) {
            self.stats.delivered_segments += 1;
            newly_acked += 1;
            self.cum_ack += 1;
        }
        self.dup_acks = 0;
        if self.cum_ack >= self.recover {
            self.recover = self.cum_ack;
        } else if let Some(entry) = self.sent_at.get_mut(&self.cum_ack) {
            // NewReno partial ACK: we are still inside a recovery
            // episode and the cumulative ACK stopped at the next hole,
            // whose successors were all selectively acknowledged — the
            // segment is known lost. Retransmit it immediately instead
            // of waiting out one (backed-off) RTO per hole, which would
            // wedge the flow for the rest of the run after a burst loss.
            if !entry.1 && !self.rtx_queue.contains(&self.cum_ack) {
                entry.1 = true;
                self.rtx_queue.push_back(self.cum_ack);
            }
        }
        for _ in 0..newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += self.mss(); // slow start
            } else {
                // Congestion avoidance: ~one MSS per RTT.
                self.cwnd += (self.mss() * self.mss() / self.cwnd).max(1);
            }
        }
        self.stats.max_cwnd_bytes = self.stats.max_cwnd_bytes.max(self.cwnd);
        let _ = now;
    }

    fn fast_retransmit(&mut self) {
        self.stats.fast_retransmits += 1;
        self.ssthresh = (self.flight_bytes() / 2).max(2 * self.mss());
        self.cwnd = self.ssthresh;
        self.recover = self.next_seq;
        if let Some(entry) = self.sent_at.get_mut(&self.cum_ack) {
            entry.1 = true;
        }
        self.rtx_queue.push_back(self.cum_ack);
    }

    fn check_timer(&mut self, now: Instant) {
        let Some(at) = self.timer else {
            return;
        };
        if now < at || self.sent_at.is_empty() {
            return;
        }
        // RTO: collapse to one MSS, double the timer, retransmit the
        // oldest outstanding segment.
        self.stats.timeouts += 1;
        self.ssthresh = (self.flight_bytes() / 2).max(2 * self.mss());
        self.cwnd = self.mss();
        self.backoff = (self.backoff * 2).min(64);
        self.dup_acks = 0;
        self.recover = self.next_seq;
        let oldest = *self.sent_at.keys().next().expect("in-flight data exists");
        if let Some(entry) = self.sent_at.get_mut(&oldest) {
            entry.1 = true;
        }
        if !self.rtx_queue.contains(&oldest) {
            self.rtx_queue.push_back(oldest);
        }
        self.timer = Some(now + self.effective_rto());
    }

    fn rearm_timer(&mut self, now: Instant) {
        self.timer = if self.sent_at.is_empty() { None } else { Some(now + self.effective_rto()) };
    }

    fn effective_rto(&self) -> Duration {
        let base = match self.srtt {
            Some(srtt) => srtt + (self.rttvar * 4).max(Duration::from_millis(10)),
            None => self.rto,
        };
        let backed = base * u64::from(self.backoff);
        backed.clamp(self.config.min_rto, self.config.max_rto)
    }

    fn update_rtt(&mut self, sample: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = if sample > srtt { sample - srtt } else { srtt - sample };
                self.rttvar = self.rttvar.mul_frac(3, 4) + err / 4;
                self.srtt = Some(srtt.mul_frac(7, 8) + sample / 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_ditg::agent::parse_header;
    use umtslab_ditg::TrafficReceiver;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn flow(duration: Duration) -> TcpFlow {
        let config = TcpConfig { duration, ..TcpConfig::default() };
        TcpFlow::new(config, 1, a("10.0.0.2"), Instant::ZERO)
    }

    /// Runs the flow against a perfect fixed-RTT echo path.
    fn run_lossless(mut f: TcpFlow, rtt: Duration, horizon: Instant) -> TcpFlow {
        let mut rx = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let mut echoes: VecDeque<(Instant, Packet)> = VecDeque::new();
        let mut now = Instant::ZERO;
        while now <= horizon {
            while let Some(&(at, _)) = echoes.front() {
                if at > now {
                    break;
                }
                let (at, e) = echoes.pop_front().unwrap();
                f.on_receive(at, &e);
            }
            while let Some(p) = f.emit(now, &mut ids, &mut pool) {
                if let Some(echo) = rx.on_receive(now + rtt / 2, &p, &mut ids, &mut pool) {
                    echoes.push_back((now + rtt, echo));
                }
            }
            let next =
                f.next_departure(now).into_iter().chain(echoes.front().map(|&(at, _)| at)).min();
            match next {
                Some(t) if t > now => now = t,
                Some(_) => now += Duration::from_micros(100),
                None => break,
            }
        }
        f
    }

    #[test]
    fn slow_start_doubles_the_window_per_rtt() {
        let f = flow(Duration::from_secs(2));
        let f = run_lossless(f, Duration::from_millis(100), Instant::from_secs(3));
        // Growth must be superlinear early on: well over 20 segments in
        // 2 s at 100 ms RTT despite starting from a 2-segment window.
        assert!(f.stats().delivered_segments > 50, "stats: {:?}", f.stats());
        assert_eq!(f.stats().retransmits, 0);
        assert!(f.stats().max_cwnd_bytes > 16 * 1_024);
        assert!(f.finished(Instant::from_secs(5)));
    }

    #[test]
    fn rtt_estimator_converges_to_the_path_rtt() {
        let f = flow(Duration::from_secs(2));
        let f = run_lossless(f, Duration::from_millis(120), Instant::from_secs(3));
        let srtt = f.srtt().expect("samples were taken");
        let lo = Duration::from_millis(110);
        let hi = Duration::from_millis(130);
        assert!(srtt >= lo && srtt <= hi, "srtt drifted: {srtt}");
        assert!(!f.probe().rtts().is_empty());
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let mut f = flow(Duration::from_secs(10));
        let mut rx = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        // Open the window enough to have 5 segments outstanding.
        f.cwnd = 8 * 1_024;
        let mut packets = Vec::new();
        let mut now = Instant::ZERO;
        for _ in 0..5 {
            packets.push(f.emit(now, &mut ids, &mut pool).expect("window open"));
            now += Duration::from_millis(1);
        }
        // Segment 0 is lost; 1–4 arrive and echo.
        let before = f.stats();
        assert_eq!(before.fast_retransmits, 0);
        for p in &packets[1..] {
            let echo = rx.on_receive(now, p, &mut ids, &mut pool).unwrap();
            f.on_receive(now + Duration::from_millis(1), &echo);
            now += Duration::from_millis(1);
        }
        assert_eq!(f.stats().fast_retransmits, 1, "third dup ACK fires recovery");
        // The retransmission goes out ahead of new data and re-echoes.
        let rtx = f.emit(now, &mut ids, &mut pool).expect("retransmit queued");
        let (seq, _, _) = parse_header(&rtx.payload).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(f.stats().retransmits, 1);
        let echo = rx.on_receive(now, &rtx, &mut ids, &mut pool).unwrap();
        f.on_receive(now + Duration::from_millis(1), &echo);
        assert_eq!(f.stats().delivered_segments, 5, "cumulative ACK jumps the hole");
    }

    #[test]
    fn burst_loss_recovers_one_hole_per_partial_ack_without_timeouts() {
        let mut f = flow(Duration::from_secs(10));
        let mut rx = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        // 10 segments outstanding; segments 1..=4 are lost in one burst.
        f.cwnd = 16 * 1_024;
        let mut now = Instant::ZERO;
        let mut packets = Vec::new();
        for _ in 0..10 {
            packets.push(f.emit(now, &mut ids, &mut pool).expect("window open"));
            now += Duration::from_millis(1);
        }
        let mut arrived: Vec<Packet> = vec![packets[0].clone()];
        arrived.extend(packets[5..].iter().cloned());
        for p in arrived {
            now += Duration::from_millis(1);
            if let Some(echo) = rx.on_receive(now, &p, &mut ids, &mut pool) {
                f.on_receive(now + Duration::from_millis(1), &echo);
            }
        }
        assert_eq!(f.stats().fast_retransmits, 1, "third dup ACK opened recovery");
        // Every subsequent hole must come back via a partial-ACK-driven
        // retransmission, never an RTO.
        let mut guard = 0;
        while f.stats().delivered_segments < 10 {
            now += Duration::from_millis(1);
            let p = f.emit(now, &mut ids, &mut pool).expect("recovery keeps transmitting");
            if let Some(echo) = rx.on_receive(now, &p, &mut ids, &mut pool) {
                f.on_receive(now + Duration::from_millis(1), &echo);
            }
            guard += 1;
            assert!(guard < 32, "recovery did not converge");
        }
        assert_eq!(f.stats().timeouts, 0, "no RTO during partial-ACK recovery");
        assert_eq!(f.stats().retransmits, 4, "each lost segment retransmitted once");
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let mut f = flow(Duration::from_secs(10));
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let p = f.emit(Instant::ZERO, &mut ids, &mut pool).expect("first segment");
        let (seq, _, _) = parse_header(&p.payload).unwrap();
        assert_eq!(seq, 0);
        let _second = f.emit(Instant::ZERO, &mut ids, &mut pool).expect("initial window is 2");
        assert!(f.emit(Instant::ZERO, &mut ids, &mut pool).is_none(), "window closed");
        // Nothing comes back: the RTO fires on the next emit call.
        let wake = f.next_departure(Instant::from_millis(1)).expect("timer armed");
        let rtx = f.emit(wake, &mut ids, &mut pool).expect("RTO retransmission");
        let (seq, _, _) = parse_header(&rtx.payload).unwrap();
        assert_eq!(seq, 0, "oldest segment retransmits first");
        assert_eq!(f.stats().timeouts, 1);
        assert_eq!(f.cwnd_bytes(), 1_024, "window collapses to one MSS");
        // Karn: no RTT samples were ever taken from the retransmission.
        assert!(f.probe().rtts().is_empty());
    }

    #[test]
    fn stale_and_duplicate_echoes_are_ignored() {
        let mut f = flow(Duration::from_secs(10));
        let mut rx = TrafficReceiver::new(1, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let p = f.emit(Instant::ZERO, &mut ids, &mut pool).unwrap();
        let echo = rx.on_receive(Instant::from_millis(10), &p, &mut ids, &mut pool).unwrap();
        f.on_receive(Instant::from_millis(20), &echo);
        let delivered = f.stats().delivered_segments;
        // Replaying the same echo changes nothing.
        f.on_receive(Instant::from_millis(30), &echo);
        assert_eq!(f.stats().delivered_segments, delivered);
    }

    #[test]
    fn flow_stops_offering_new_data_at_duration() {
        let f = flow(Duration::from_millis(500));
        let f = run_lossless(f, Duration::from_millis(50), Instant::from_secs(2));
        assert!(f.finished(Instant::from_secs(2)));
        assert!(f.next_departure(Instant::from_secs(2)).is_none());
        assert!(f.stats().delivered_segments > 0);
    }

    #[test]
    fn determinism_same_inputs_same_log() {
        let run = || {
            let f = flow(Duration::from_secs(1));
            let f = run_lossless(f, Duration::from_millis(80), Instant::from_secs(2));
            (f.probe().sent().to_vec(), f.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
