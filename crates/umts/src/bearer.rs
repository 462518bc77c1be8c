//! The radio bearer: TTI-paced packet service over the air interface.
//!
//! One [`UmtsBearer`] models one direction (uplink or downlink) of the
//! radio access network between the terminal and the GGSN. Packets enter a
//! deep drop-tail buffer (the operator-side queue whose depth produces the
//! multi-second RTTs the paper measures under saturation) and are served in
//! TTI-sized installments at the rate granted by RRC. Each served packet
//! pays the base radio latency, a jitter draw, and — with probability equal
//! to the block error rate — one or more RLC retransmission penalties,
//! which is what makes the UMTS QoS time series visibly noisier than the
//! wired path even when unsaturated (Figures 1–3).

use umtslab_net::link::JitterModel;
use umtslab_net::packet::Packet;
use umtslab_net::queue::PacketQueue;
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

/// Static parameters of one bearer direction.
#[derive(Debug, Clone)]
pub struct BearerConfig {
    /// Transmission time interval: the scheduling granularity.
    pub tti: Duration,
    /// Buffer limit in packets (`0` = unlimited).
    pub queue_packets: usize,
    /// Buffer limit in bytes (`0` = unlimited).
    pub queue_bytes: usize,
    /// Fixed radio latency (interleaving, RLC, Iub backhaul).
    pub base_delay: Duration,
    /// Per-packet jitter on top of the base delay.
    pub jitter: JitterModel,
    /// Block error rate: probability a transmission attempt fails and is
    /// retransmitted by RLC.
    pub bler: f64,
    /// Extra delay contributed by each retransmission attempt.
    pub retx_delay: Duration,
    /// Attempts before RLC gives up and the packet is lost.
    pub max_attempts: u32,
    /// Mean rate of radio outages (deep fades / cell reselections) while
    /// the bearer is active, per second of service time. Zero disables.
    pub outage_rate_per_sec: f64,
    /// Minimum outage duration.
    pub outage_min: Duration,
    /// Maximum outage duration.
    pub outage_max: Duration,
}

impl BearerConfig {
    /// A plausible R99/HSDPA-era configuration used by the operator
    /// presets.
    pub fn typical() -> BearerConfig {
        BearerConfig {
            tti: Duration::from_millis(10),
            queue_packets: 0,
            queue_bytes: 160_000,
            base_delay: Duration::from_millis(70),
            jitter: JitterModel::Normal {
                mean: Duration::from_millis(4),
                std: Duration::from_millis(7),
            },
            bler: 0.08,
            retx_delay: Duration::from_millis(50),
            max_attempts: 5,
            outage_rate_per_sec: 0.33,
            outage_min: Duration::from_millis(150),
            outage_max: Duration::from_millis(900),
        }
    }
}

/// Lifetime counters of a bearer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BearerStats {
    /// Packets offered to the bearer.
    pub offered: u64,
    /// Packets served over the air.
    pub served: u64,
    /// Drops from buffer overflow.
    pub dropped_overflow: u64,
    /// Drops after exhausting RLC retransmissions.
    pub dropped_rlc: u64,
    /// Total retransmission attempts.
    pub retransmissions: u64,
    /// Radio outages experienced.
    pub outages: u64,
}

impl BearerStats {
    /// Folds another counter set into this one, field by field.
    ///
    /// Used by the testbed metrics to aggregate the uplink and downlink
    /// bearers of every attachment into a per-experiment total.
    pub fn absorb(&mut self, other: BearerStats) {
        self.offered += other.offered;
        self.served += other.served;
        self.dropped_overflow += other.dropped_overflow;
        self.dropped_rlc += other.dropped_rlc;
        self.retransmissions += other.retransmissions;
        self.outages += other.outages;
    }
}

/// One direction of the radio access network.
#[derive(Debug)]
pub struct UmtsBearer {
    config: BearerConfig,
    queue: PacketQueue,
    /// Current service rate (bits per second); `0` = no grant, nothing is
    /// served (Idle / promotion in progress).
    rate_bps: u64,
    /// Accumulated service credit in bytes (at most one TTI's worth is
    /// banked, like a real scheduler).
    credit_bytes: u64,
    /// Last instant credit was accrued.
    last_service: Instant,
    /// FIFO clamp so jitter/retransmissions never reorder.
    last_delivery: Instant,
    /// The radio is in a deep fade until this instant.
    outage_until: Option<Instant>,
    stats: BearerStats,
}

impl UmtsBearer {
    /// Creates a bearer with no grant.
    pub fn new(config: BearerConfig) -> UmtsBearer {
        let queue = PacketQueue::new(config.queue_packets, config.queue_bytes);
        UmtsBearer {
            config,
            queue,
            rate_bps: 0,
            credit_bytes: 0,
            last_service: Instant::ZERO,
            last_delivery: Instant::ZERO,
            outage_until: None,
            stats: BearerStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &BearerConfig {
        &self.config
    }

    /// Current grant.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Applies a new RRC grant, effective from the next service instant.
    pub fn set_rate(&mut self, now: Instant, rate_bps: u64) {
        // Settle credit at the old rate first.
        self.accrue(now);
        self.rate_bps = rate_bps;
    }

    /// Bytes waiting in the buffer.
    pub fn backlog_bytes(&self) -> usize {
        self.queue.bytes()
    }

    /// Packets waiting in the buffer.
    pub fn backlog_packets(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BearerStats {
        self.stats
    }

    /// Offers a packet at `now`. On buffer overflow the packet is
    /// returned.
    pub fn enqueue(&mut self, now: Instant, packet: Packet) -> Result<(), Packet> {
        self.note_offer(now);
        self.queue.enqueue(packet).map_err(|p| {
            self.stats.dropped_overflow += 1;
            p
        })
    }

    /// True if [`UmtsBearer::enqueue`] would accept a packet of `size`
    /// wire bytes now: the buffer's drop-tail test.
    pub(crate) fn admits(&self, size: usize) -> bool {
        self.queue.admits(size)
    }

    /// Counts an offer at `now` that [`UmtsBearer::admits`] refused,
    /// exactly as [`UmtsBearer::enqueue`] counts an overflowing packet,
    /// for a packet the caller never built.
    pub(crate) fn refuse(&mut self, now: Instant) {
        self.note_offer(now);
        self.queue.refuse();
        self.stats.dropped_overflow += 1;
    }

    fn note_offer(&mut self, now: Instant) {
        self.stats.offered += 1;
        if self.queue.is_empty() && now > self.last_service {
            // The bearer was idle: service resumes from now — idle time
            // must not be converted into retroactive credit.
            self.last_service = now;
        }
    }

    /// Drops everything queued (session teardown).
    pub fn flush(&mut self) {
        self.queue.clear();
        self.credit_bytes = 0;
    }

    /// When the bearer next wants servicing: one TTI after the last
    /// service while a backlog exists.
    pub fn next_service(&self) -> Option<Instant> {
        if self.queue.is_empty() || self.rate_bps == 0 {
            None
        } else {
            let next = self.last_service + self.config.tti;
            Some(match self.outage_until {
                Some(until) => next.max(until),
                None => next,
            })
        }
    }

    /// Serves up to one accrual of credit at `now`, returning the packets
    /// that complete the air interface and their delivery instants (at the
    /// far end of the radio leg).
    pub fn service(&mut self, now: Instant, rng: &mut SimRng) -> Vec<(Instant, Packet)> {
        // A fade in progress blocks all service; time spent in the fade
        // earns no credit.
        if let Some(until) = self.outage_until {
            if now < until {
                self.last_service = now;
                self.credit_bytes = 0;
                return Vec::new();
            }
            self.outage_until = None;
            self.last_service = now;
            self.credit_bytes = 0;
        }
        let elapsed_secs = now.saturating_duration_since(self.last_service).as_secs_f64().min(0.5);
        self.accrue(now);
        // Draw a new fade covering this service interval.
        if self.config.outage_rate_per_sec > 0.0
            && !self.queue.is_empty()
            && rng.chance(self.config.outage_rate_per_sec * elapsed_secs)
        {
            let span = self.config.outage_max.saturating_sub(self.config.outage_min).total_micros();
            let dur =
                self.config.outage_min + Duration::from_micros(rng.uniform_u64(0, span.max(1)));
            self.outage_until = Some(now + dur);
            self.stats.outages += 1;
            self.credit_bytes = 0;
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(front) = self.queue.peek() {
            let len = front.wire_len() as u64;
            if len > self.credit_bytes {
                break;
            }
            self.credit_bytes -= len;
            let packet = self.queue.dequeue().expect("peeked packet dequeues");

            // RLC: geometric number of failed attempts, capped.
            let mut attempts = 1u32;
            while attempts < self.config.max_attempts && rng.chance(self.config.bler) {
                attempts += 1;
            }
            if attempts >= self.config.max_attempts && rng.chance(self.config.bler) {
                // Final attempt also failed: RLC gives up.
                self.stats.dropped_rlc += 1;
                self.stats.retransmissions += u64::from(attempts - 1);
                continue;
            }
            self.stats.retransmissions += u64::from(attempts - 1);
            let retx_penalty = self.config.retx_delay * u64::from(attempts - 1);
            let jitter = self.config.jitter.sample(rng);
            let mut deliver = now + self.config.base_delay + jitter + retx_penalty;
            // In-order delivery: RLC re-sequences before handing up.
            if deliver < self.last_delivery {
                deliver = self.last_delivery;
            }
            self.last_delivery = deliver;
            self.stats.served += 1;
            out.push((deliver, packet));
        }
        if self.queue.is_empty() {
            // Only idle leftovers are clamped: discarding credit while a
            // backlog stands would under-serve the grant.
            self.clamp_idle_credit();
        }
        out
    }

    fn accrue(&mut self, now: Instant) {
        if now <= self.last_service {
            return;
        }
        let elapsed = now.duration_since(self.last_service);
        self.last_service = now;
        if self.rate_bps == 0 {
            self.credit_bytes = 0;
            return;
        }
        // Guard against pathological call patterns (service invoked long
        // after the last accrual with a standing backlog): never convert
        // more than two TTIs of wall time into credit at once. On the
        // normal TTI cadence `elapsed == tti`, so this is inert.
        let elapsed = elapsed.min(self.config.tti * 2);
        let add = (self.rate_bps as u128 * elapsed.total_micros() as u128 / 8_000_000) as u64;
        // While backlogged, credit accumulates unclamped: it will be spent
        // by the serve loop that follows, and clamping it would silently
        // discard capacity whenever the head-of-line packet spans multiple
        // TTIs. Idle credit is clamped at the end of `service` instead
        // (and `enqueue` resets the clock after idle gaps).
        self.credit_bytes += add;
    }

    /// Caps banked credit so an idle bearer cannot burst later: at most
    /// ~two TTIs worth, but never less than one head-of-line packet.
    fn clamp_idle_credit(&mut self) {
        let tti_cap =
            (self.rate_bps as u128 * self.config.tti.total_micros() as u128 * 2 / 8_000_000) as u64;
        let head = self.queue.peek().map_or(0, |p| p.wire_len() as u64);
        let cap = tti_cap.max(head);
        self.credit_bytes = self.credit_bytes.min(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_net::packet::PacketId;
    use umtslab_net::wire::{Endpoint, Ipv4Address};

    fn pkt(id: u64, payload: usize) -> Packet {
        Packet::udp(
            PacketId(id),
            Endpoint::new(Ipv4Address::new(10, 64, 3, 7), 9000),
            Endpoint::new(Ipv4Address::new(192, 0, 2, 1), 9001),
            vec![0; payload],
            Instant::ZERO,
        )
    }

    fn clean_config() -> BearerConfig {
        BearerConfig {
            tti: Duration::from_millis(10),
            queue_packets: 0,
            queue_bytes: 160_000,
            base_delay: Duration::from_millis(70),
            jitter: JitterModel::None,
            bler: 0.0,
            retx_delay: Duration::from_millis(50),
            max_attempts: 5,
            outage_rate_per_sec: 0.0,
            outage_min: Duration::ZERO,
            outage_max: Duration::ZERO,
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    #[test]
    fn no_grant_means_no_service() {
        let mut b = UmtsBearer::new(clean_config());
        b.enqueue(Instant::ZERO, pkt(0, 100)).unwrap();
        assert_eq!(b.next_service(), None);
        assert!(b.service(Instant::from_secs(1), &mut rng()).is_empty());
        assert_eq!(b.backlog_packets(), 1, "packet waits for a grant");
    }

    #[test]
    fn granted_bearer_serves_at_rate() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 160_000); // 20 kB/s = 200 B per 10 ms TTI
                                            // A 128-wire-byte packet fits in one TTI's credit.
        b.enqueue(Instant::ZERO, pkt(0, 100)).unwrap();
        let served = b.service(Instant::from_millis(10), &mut rng());
        assert_eq!(served.len(), 1);
        // Delivery = service time + base delay.
        assert_eq!(served[0].0, Instant::from_millis(80));
    }

    #[test]
    fn credit_limits_per_tti_throughput() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 160_000); // 200 B per TTI
        for i in 0..10 {
            b.enqueue(Instant::ZERO, pkt(i, 100)).unwrap(); // 128 B wire each
        }
        // One TTI of credit serves one packet (200 B credit, 128 B used,
        // 72 left < 128).
        let served = b.service(Instant::from_millis(10), &mut rng());
        assert_eq!(served.len(), 1);
        // Next TTI: 72 + 200 = 272 → serves two.
        let served = b.service(Instant::from_millis(20), &mut rng());
        assert_eq!(served.len(), 2);
    }

    #[test]
    fn long_idle_does_not_bank_unbounded_credit() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 160_000);
        // 10 s idle, then a burst arrives: at most ~2 TTIs of credit.
        for i in 0..20 {
            b.enqueue(Instant::ZERO, pkt(i, 100)).unwrap();
        }
        let served = b.service(Instant::from_secs(10), &mut rng());
        assert!(served.len() <= 3, "served {} packets from banked credit", served.len());
    }

    #[test]
    fn sustained_throughput_matches_grant() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 400_000); // 50 kB/s
        let mut r = rng();
        let mut served_bytes = 0usize;
        // Offer 100 kB/s for 10 s; count what comes out.
        for (next_id, ms) in (0..10_000u64).step_by(10).enumerate() {
            let now = Instant::from_millis(ms);
            // 1 kB per 10 ms = 100 kB/s offered.
            let _ = b.enqueue(now, pkt(next_id as u64, 1000 - 28));
            for (_, p) in b.service(now, &mut r) {
                served_bytes += p.wire_len();
            }
        }
        let rate = served_bytes as f64 * 8.0 / 10.0; // bits per second
        assert!(
            (rate - 400_000.0).abs() < 20_000.0,
            "served rate {rate} should be close to the 400 kbps grant"
        );
    }

    #[test]
    fn refuse_counts_and_clocks_like_an_overflowing_enqueue() {
        let mut cfg = clean_config();
        cfg.queue_bytes = 1_000;
        let (mut b, mut twin) = (UmtsBearer::new(cfg.clone()), UmtsBearer::new(cfg));
        // An idle bearer offered more than its whole buffer, then a full one.
        for (at, payload) in [(3, 2_000), (3, 500), (4, 500), (5, 500)] {
            let (now, p) = (Instant::from_secs(at), pkt(at, payload));
            let admitted = twin.admits(p.wire_len());
            if admitted {
                twin.enqueue(now, p.clone()).unwrap();
            } else {
                twin.refuse(now);
            }
            assert_eq!(b.enqueue(now, p).is_ok(), admitted);
            assert_eq!(twin.stats(), b.stats());
            assert_eq!(twin.queue.stats(), b.queue.stats());
            assert_eq!(twin.last_service, b.last_service);
        }
        assert_eq!(b.stats().dropped_overflow, 3);
        assert_eq!(b.last_service, Instant::from_secs(3), "the refused idle offer reset the clock");
    }

    #[test]
    fn overflow_drops_are_counted() {
        let mut cfg = clean_config();
        cfg.queue_bytes = 1_000;
        let mut b = UmtsBearer::new(cfg);
        let mut rejected = 0;
        for i in 0..20 {
            if b.enqueue(Instant::ZERO, pkt(i, 100)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
        assert_eq!(b.stats().dropped_overflow, rejected);
        assert!(b.backlog_bytes() <= 1_000);
    }

    #[test]
    fn bler_adds_retransmission_delay() {
        let mut cfg = clean_config();
        cfg.bler = 0.5;
        let mut b = UmtsBearer::new(cfg);
        b.set_rate(Instant::ZERO, 1_000_000);
        let mut r = rng();
        let mut penalized = 0;
        for i in 0..200 {
            b.enqueue(Instant::ZERO, pkt(i, 50)).unwrap();
            let now = Instant::from_millis(10 * (i + 1));
            for (at, _) in b.service(now, &mut r) {
                let delay = at.duration_since(now);
                if delay > Duration::from_millis(70) {
                    penalized += 1;
                }
            }
        }
        assert!(penalized > 40, "with 50% BLER many packets must pay retx delay, got {penalized}");
        assert!(b.stats().retransmissions > 0);
    }

    #[test]
    fn rlc_gives_up_eventually() {
        let mut cfg = clean_config();
        cfg.bler = 0.9;
        cfg.max_attempts = 2;
        let mut b = UmtsBearer::new(cfg);
        b.set_rate(Instant::ZERO, 10_000_000);
        let mut r = rng();
        for i in 0..200 {
            b.enqueue(Instant::ZERO, pkt(i, 50)).unwrap();
        }
        let served = b.service(Instant::from_millis(100), &mut r);
        let lost = b.stats().dropped_rlc;
        assert!(lost > 0, "90% BLER with 2 attempts must lose packets");
        assert_eq!(served.len() as u64 + lost, 200);
    }

    #[test]
    fn deliveries_are_in_order() {
        let mut cfg = clean_config();
        cfg.bler = 0.3;
        cfg.jitter = JitterModel::Uniform { max: Duration::from_millis(40) };
        let mut b = UmtsBearer::new(cfg);
        b.set_rate(Instant::ZERO, 1_000_000);
        let mut r = rng();
        let mut last = Instant::ZERO;
        for i in 0..300 {
            b.enqueue(Instant::ZERO, pkt(i, 50)).unwrap();
            let now = Instant::from_millis(10 * (i + 1));
            for (at, _) in b.service(now, &mut r) {
                assert!(at >= last, "reordered delivery at packet {i}");
                last = at;
            }
        }
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 160_000);
        for i in 0..100 {
            b.enqueue(Instant::ZERO, pkt(i, 100)).unwrap();
        }
        let before = b.service(Instant::from_millis(10), &mut rng()).len();
        b.set_rate(Instant::from_millis(10), 480_000); // triple the grant
        let after = b.service(Instant::from_millis(20), &mut rng()).len();
        assert!(after > before, "after upgrade ({after}) must exceed before ({before})");
    }

    #[test]
    fn flush_empties_queue() {
        let mut b = UmtsBearer::new(clean_config());
        b.enqueue(Instant::ZERO, pkt(0, 100)).unwrap();
        b.enqueue(Instant::ZERO, pkt(1, 100)).unwrap();
        b.flush();
        assert_eq!(b.backlog_packets(), 0);
        assert_eq!(b.backlog_bytes(), 0);
    }

    #[test]
    fn next_service_only_when_backlogged_and_granted() {
        let mut b = UmtsBearer::new(clean_config());
        assert_eq!(b.next_service(), None);
        b.enqueue(Instant::ZERO, pkt(0, 100)).unwrap();
        assert_eq!(b.next_service(), None); // no grant yet
        b.set_rate(Instant::from_millis(5), 160_000);
        assert_eq!(b.next_service(), Some(Instant::from_millis(15)));
    }

    #[test]
    fn zeroing_rate_stops_service() {
        let mut b = UmtsBearer::new(clean_config());
        b.set_rate(Instant::ZERO, 160_000);
        b.enqueue(Instant::ZERO, pkt(0, 100)).unwrap();
        b.set_rate(Instant::from_millis(5), 0);
        assert!(b.service(Instant::from_millis(20), &mut rng()).is_empty());
        assert_eq!(b.next_service(), None);
    }
}
