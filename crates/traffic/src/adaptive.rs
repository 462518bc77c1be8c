//! Adaptive-rate (video-like) sender.
//!
//! [`AdaptiveSender`] models a streaming source that probes the path by
//! watching its own delivered rate: it transmits fixed-size frames at
//! the current ladder level's bitrate, measures how many bytes were
//! echoed back per epoch, and walks a deterministic quality ladder —
//! one step up when the epoch delivered at least [`AdaptiveConfig::up_ppm`]
//! of the offered rate, a multiplicative step down when it fell below
//! [`AdaptiveConfig::down_ppm`]. There is no randomness anywhere in the
//! sender: given the same echo arrival times it reproduces the same
//! level trajectory bit for bit.

use umtslab_ditg::agent::{Probe, HEADER_LEN};
use umtslab_net::bytes::BufferPool;
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::Ipv4Address;
use umtslab_sim::time::{serialization_time, Duration, Instant};

/// A single recorded ladder move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelChange {
    /// When the sender switched.
    pub at: Instant,
    /// Index into the ladder it switched to.
    pub level: usize,
    /// Delivered rate measured over the epoch that triggered the move.
    pub delivered_bps: u64,
}

/// Tuning knobs of an [`AdaptiveSender`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The quality ladder, in bits per second, lowest first. Must be
    /// non-empty and strictly increasing.
    pub ladder_bps: Vec<u64>,
    /// Frame payload size in bytes (including the probe header).
    pub frame_bytes: usize,
    /// Feedback epoch: the delivered rate is evaluated once per epoch.
    pub epoch: Duration,
    /// Step up when delivered/offered ≥ this, in parts per million.
    pub up_ppm: u64,
    /// Step down when delivered/offered < this, in parts per million.
    pub down_ppm: u64,
    /// How long the sender keeps transmitting.
    pub duration: Duration,
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            // A DASH-like ladder spanning GPRS to HSDPA-era rates.
            ladder_bps: vec![64_000, 128_000, 256_000, 384_000, 768_000, 1_500_000],
            frame_bytes: 1_000,
            epoch: Duration::from_secs(2),
            up_ppm: 900_000,
            down_ppm: 600_000,
            duration: Duration::from_secs(60),
            sport: 9_000,
            dport: 9_001,
        }
    }
}

/// The deterministic rate-adaptive sender.
#[derive(Debug)]
pub struct AdaptiveSender {
    config: AdaptiveConfig,
    probe: Probe,
    ends: Instant,
    level: usize,
    next_seq: u32,
    next_frame: Instant,
    epoch_start: Instant,
    epoch_delivered_bytes: u64,
    changes: Vec<LevelChange>,
}

impl AdaptiveSender {
    /// Creates sender `flow_id` toward `dst_addr`, starting at `start` on
    /// the lowest ladder level.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty or not strictly increasing.
    pub fn new(
        config: AdaptiveConfig,
        flow_id: u32,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AdaptiveSender {
        assert!(!config.ladder_bps.is_empty(), "ladder must be non-empty");
        assert!(
            config.ladder_bps.windows(2).all(|w| w[0] < w[1]),
            "ladder must be strictly increasing"
        );
        AdaptiveSender {
            probe: Probe::new(flow_id, config.sport, dst_addr, config.dport),
            ends: start + config.duration,
            config,
            level: 0,
            next_seq: 0,
            next_frame: start,
            epoch_start: start,
            epoch_delivered_bytes: 0,
            changes: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Current ladder level index.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current offered bitrate.
    pub fn current_level_bps(&self) -> u64 {
        self.config.ladder_bps[self.level]
    }

    /// Every ladder move made so far.
    pub fn level_changes(&self) -> &[LevelChange] {
        &self.changes
    }

    /// The probe endpoint with the send log and the RTT samples from
    /// echoed frames.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Inter-frame gap at the current level: the time the current level
    /// takes to "play out" one frame.
    fn frame_gap(&self) -> Duration {
        serialization_time(self.config.frame_bytes, self.current_level_bps())
    }

    /// When the next frame is due; `None` once the stream has ended.
    pub fn next_departure(&self) -> Option<Instant> {
        (self.next_frame < self.ends).then_some(self.next_frame)
    }

    /// Emits the frame due at `now`, if any.
    pub fn emit(
        &mut self,
        now: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        if now < self.next_frame || self.next_frame >= self.ends {
            return None;
        }
        self.maybe_adapt(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let packet = self.probe.send(seq, self.config.frame_bytes.max(HEADER_LEN), now, ids, pool);
        self.next_frame = self.next_frame.max(now) + self.frame_gap();
        Some(packet)
    }

    /// Handles an echoed frame: credits the epoch's delivered byte count
    /// and records the RTT sample.
    pub fn on_receive(&mut self, now: Instant, packet: &Packet) {
        let Some((seq, tx)) = self.probe.echo(packet) else {
            return;
        };
        self.epoch_delivered_bytes += self.config.frame_bytes as u64;
        self.probe.record_rtt(seq, tx, now.saturating_duration_since(tx));
        self.maybe_adapt(now);
    }

    /// Closes out any elapsed epochs and walks the ladder.
    fn maybe_adapt(&mut self, now: Instant) {
        while now.saturating_duration_since(self.epoch_start) >= self.config.epoch {
            let offered_bps = self.current_level_bps();
            let secs = self.config.epoch;
            // delivered_bps = bytes * 8 / epoch_seconds, all integer.
            let delivered_bps =
                (self.epoch_delivered_bytes * 8 * 1_000_000) / secs.total_micros().max(1);
            let level_before = self.level;
            let threshold_up = offered_bps.mul_ppm_floor(self.config.up_ppm);
            let threshold_down = offered_bps.mul_ppm_floor(self.config.down_ppm);
            if delivered_bps >= threshold_up && self.level + 1 < self.config.ladder_bps.len() {
                self.level += 1;
            } else if delivered_bps < threshold_down {
                // Multiplicative decrease: fall to the highest level at
                // or below half the current offered rate.
                let target = offered_bps / 2;
                self.level =
                    self.config.ladder_bps.iter().rposition(|&bps| bps <= target).unwrap_or(0);
            }
            if self.level != level_before {
                self.changes.push(LevelChange {
                    at: self.epoch_start + self.config.epoch,
                    level: self.level,
                    delivered_bps,
                });
            }
            self.epoch_start += self.config.epoch;
            self.epoch_delivered_bytes = 0;
        }
    }
}

/// Integer parts-per-million scaling without intermediate overflow for
/// the bitrates this crate deals in (≤ tens of Gbps).
trait MulPpm {
    fn mul_ppm_floor(self, ppm: u64) -> u64;
}

impl MulPpm for u64 {
    fn mul_ppm_floor(self, ppm: u64) -> u64 {
        self / 1_000_000 * ppm + self % 1_000_000 * ppm / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_ditg::TrafficReceiver;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn sender(duration: Duration) -> AdaptiveSender {
        let config = AdaptiveConfig { duration, ..AdaptiveConfig::default() };
        AdaptiveSender::new(config, 7, a("10.0.0.2"), Instant::ZERO)
    }

    /// Drives the sender against an echo path that delivers every frame
    /// up to `cap_bps` worth of traffic per epoch and drops the rest.
    fn run_capped(mut s: AdaptiveSender, cap_bps: u64, horizon: Instant) -> AdaptiveSender {
        let mut rx = TrafficReceiver::new(7, true);
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let rtt = Duration::from_millis(60);
        let mut now = Instant::ZERO;
        let mut window_start = Instant::ZERO;
        let mut window_bits: u64 = 0;
        while now <= horizon {
            if let Some(p) = s.emit(now, &mut ids, &mut pool) {
                if now.saturating_duration_since(window_start) >= Duration::from_secs(1) {
                    window_start = now;
                    window_bits = 0;
                }
                let bits = (p.payload.len() as u64) * 8;
                if window_bits + bits <= cap_bps {
                    window_bits += bits;
                    if let Some(echo) = rx.on_receive(now + rtt / 2, &p, &mut ids, &mut pool) {
                        s.on_receive(now + rtt, &echo);
                    }
                }
                continue;
            }
            match s.next_departure() {
                Some(t) if t > now => now = t,
                Some(_) => now += Duration::from_micros(100),
                None => break,
            }
        }
        s
    }

    #[test]
    fn clean_path_climbs_the_ladder() {
        let s = sender(Duration::from_secs(30));
        let s = run_capped(s, u64::MAX, Instant::from_secs(31));
        assert_eq!(s.level(), s.config().ladder_bps.len() - 1, "reaches the top level");
        assert!(!s.level_changes().is_empty());
        // Every change on a clean path is a single step up.
        let mut prev = 0usize;
        for c in s.level_changes() {
            assert_eq!(c.level, prev + 1);
            prev = c.level;
        }
    }

    #[test]
    fn constrained_path_caps_the_level() {
        let s = sender(Duration::from_secs(30));
        let s = run_capped(s, 150_000, Instant::from_secs(31));
        // At 256 kbps the path delivers 150k < the 60% down threshold
        // (153.6k), so every visit to 256k steps back down; the sender
        // can never hold a level above 256 kbps.
        assert!(s.current_level_bps() <= 256_000, "settled at {}", s.current_level_bps());
        assert!(!s.level_changes().is_empty());
    }

    #[test]
    fn starvation_steps_down_multiplicatively() {
        let mut s = sender(Duration::from_secs(30));
        s.level = 5; // start at 1.5 Mbps
        let s = run_capped(s, 100_000, Instant::from_secs(10));
        let first_drop = s.level_changes().first().expect("a downward move happened");
        // 1.5 Mbps halves to 750 kbps: the highest rung ≤ 750k is 384k
        // (index 3) — a multi-rung fall, not a single step.
        assert!(first_drop.level <= 3, "fell to {}", first_drop.level);
        // 100 kbps delivered at the 128k rung is 78% — above the down
        // threshold, below the up threshold — so the sender parks there.
        assert!(s.level() <= 1, "settled at rung {}", s.level());
    }

    #[test]
    fn no_rng_identical_runs_are_identical() {
        let run = || {
            let s = sender(Duration::from_secs(10));
            let s = run_capped(s, 300_000, Instant::from_secs(11));
            (s.level_changes().to_vec(), s.probe().sent().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn frame_pacing_matches_the_level_bitrate() {
        let mut s = sender(Duration::from_secs(10));
        let mut ids = PacketIdAllocator::new();
        let mut pool = BufferPool::new();
        let first = s.next_departure().unwrap();
        s.emit(first, &mut ids, &mut pool).unwrap();
        let second = s.next_departure().unwrap();
        // 1000 bytes at 64 kbps = 125 ms between frames.
        assert_eq!(second.saturating_duration_since(first), Duration::from_millis(125));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn ladder_must_increase() {
        let config = AdaptiveConfig { ladder_bps: vec![100, 100], ..AdaptiveConfig::default() };
        AdaptiveSender::new(config, 1, a("10.0.0.2"), Instant::ZERO);
    }
}
