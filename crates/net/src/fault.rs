//! Fault injection for links.
//!
//! Modeled after the fault-injection options of smoltcp's example suite:
//! random loss, corruption, duplication and reordering, each independently
//! configurable. Loss supports both a memoryless Bernoulli model and a
//! two-state Gilbert–Elliott model, which reproduces the bursty loss typical
//! of radio links.

use umtslab_sim::rng::SimRng;
use umtslab_sim::time::Duration;

/// Packet-loss process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss.
    #[default]
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) loss: the channel alternates
    /// between a good and a bad state with the given transition
    /// probabilities (evaluated per packet), and drops packets with a
    /// state-dependent probability.
    GilbertElliott {
        /// P(good -> bad) per packet.
        p_gb: f64,
        /// P(bad -> good) per packet.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

/// Full fault-injection configuration for one link direction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Loss process.
    pub loss: LossModel,
    /// Probability a surviving packet is corrupted in flight (the receiving
    /// stack will discard it on checksum failure).
    pub corrupt_prob: f64,
    /// Probability a surviving packet is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a surviving packet is delayed past its successors.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_delay: Duration,
}

impl FaultConfig {
    /// A configuration that never interferes.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// A bursty-UMTS channel: the Gilbert–Elliott parameters reproduce the
    /// clustered losses the paper measures on the commercial 3G uplink
    /// (long clean stretches punctuated by fade bursts that eat most
    /// packets for a few hundred milliseconds). Used by the bursty-UMTS
    /// campaign preset and the bench figures binary.
    pub fn bursty_umts() -> FaultConfig {
        FaultConfig {
            loss: LossModel::GilbertElliott {
                p_gb: 0.004,
                p_bg: 0.25,
                loss_good: 0.001,
                loss_bad: 0.45,
            },
            ..FaultConfig::default()
        }
    }

    /// True if no fault can ever fire (fast path for clean links).
    pub fn is_none(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.corrupt_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
    }
}

/// The fate decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Packet is lost entirely.
    pub drop: bool,
    /// Packet is damaged (delivered, but fails receiver checksum).
    pub corrupt: bool,
    /// Packet is delivered twice.
    pub duplicate: bool,
    /// Extra delay (packet exempt from FIFO ordering), if reordered.
    pub reorder_delay: Option<Duration>,
}

impl Verdict {
    /// A clean pass-through verdict.
    pub const PASS: Verdict =
        Verdict { drop: false, corrupt: false, duplicate: false, reorder_delay: None };
}

/// Stateful fault injector for one link direction.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Gilbert–Elliott channel state: `true` when in the bad state.
    in_bad_state: bool,
}

impl FaultInjector {
    /// Creates an injector; the Gilbert–Elliott channel starts good.
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector { config, in_bad_state: false }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decides the fate of the next packet.
    pub fn judge(&mut self, rng: &mut SimRng) -> Verdict {
        if self.config.is_none() {
            return Verdict::PASS;
        }
        let lost = match self.config.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(p),
            LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad } => {
                // Transition first, then sample loss in the new state.
                if self.in_bad_state {
                    if rng.chance(p_bg) {
                        self.in_bad_state = false;
                    }
                } else if rng.chance(p_gb) {
                    self.in_bad_state = true;
                }
                rng.chance(if self.in_bad_state { loss_bad } else { loss_good })
            }
        };
        if lost {
            return Verdict { drop: true, ..Verdict::PASS };
        }
        let corrupt = rng.chance(self.config.corrupt_prob);
        let duplicate = rng.chance(self.config.duplicate_prob);
        let reorder_delay = if rng.chance(self.config.reorder_prob) {
            Some(self.config.reorder_delay)
        } else {
            None
        };
        Verdict { drop: false, corrupt, duplicate, reorder_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1234)
    }

    #[test]
    fn none_config_always_passes() {
        let mut inj = FaultInjector::new(FaultConfig::none());
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(inj.judge(&mut r), Verdict::PASS);
        }
    }

    #[test]
    fn bernoulli_loss_rate_is_plausible() {
        let mut inj = FaultInjector::new(FaultConfig {
            loss: LossModel::Bernoulli { p: 0.2 },
            ..FaultConfig::none()
        });
        let mut r = rng();
        let n = 50_000;
        let drops = (0..n).filter(|_| inj.judge(&mut r).drop).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Strongly bursty channel: rare transitions, lossless good state,
        // very lossy bad state.
        let cfg = FaultConfig {
            loss: LossModel::GilbertElliott {
                p_gb: 0.01,
                p_bg: 0.2,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg);
        let mut r = rng();
        let n = 200_000;
        let fates: Vec<bool> = (0..n).map(|_| inj.judge(&mut r).drop).collect();
        let total = fates.iter().filter(|&&d| d).count();
        assert!(total > 0, "bursty channel should lose something");

        // Burstiness check: the probability that the packet after a loss is
        // also lost must be much higher than the marginal loss rate.
        let mut after_loss = 0usize;
        let mut after_loss_lost = 0usize;
        for w in fates.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let marginal = total as f64 / n as f64;
        let conditional = after_loss_lost as f64 / after_loss as f64;
        assert!(
            conditional > 3.0 * marginal,
            "loss not bursty: marginal {marginal:.4}, conditional {conditional:.4}"
        );
    }

    #[test]
    fn corruption_and_duplication_fire() {
        let cfg = FaultConfig { corrupt_prob: 0.5, duplicate_prob: 0.5, ..FaultConfig::none() };
        let mut inj = FaultInjector::new(cfg);
        let mut r = rng();
        let n = 10_000;
        let mut corrupt = 0;
        let mut dup = 0;
        for _ in 0..n {
            let v = inj.judge(&mut r);
            assert!(!v.drop);
            if v.corrupt {
                corrupt += 1;
            }
            if v.duplicate {
                dup += 1;
            }
        }
        assert!((corrupt as f64 / n as f64 - 0.5).abs() < 0.03);
        assert!((dup as f64 / n as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn reorder_carries_configured_delay() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            reorder_delay: Duration::from_millis(30),
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg);
        let mut r = rng();
        let v = inj.judge(&mut r);
        assert_eq!(v.reorder_delay, Some(Duration::from_millis(30)));
    }

    #[test]
    fn bursty_umts_preset_is_gilbert_elliott_and_active() {
        let cfg = FaultConfig::bursty_umts();
        assert!(!cfg.is_none());
        assert!(matches!(cfg.loss, LossModel::GilbertElliott { .. }));
        // The preset must actually lose packets, in bursts.
        let mut inj = FaultInjector::new(cfg);
        let mut r = rng();
        let n = 100_000;
        let fates: Vec<bool> = (0..n).map(|_| inj.judge(&mut r).drop).collect();
        let total = fates.iter().filter(|&&d| d).count();
        let marginal = total as f64 / n as f64;
        assert!(marginal > 0.001 && marginal < 0.1, "marginal loss {marginal}");
        let mut after_loss = 0usize;
        let mut after_loss_lost = 0usize;
        for w in fates.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let conditional = after_loss_lost as f64 / after_loss.max(1) as f64;
        assert!(conditional > 3.0 * marginal, "preset not bursty: {marginal} vs {conditional}");
    }

    #[test]
    fn is_none_detects_active_faults() {
        assert!(FaultConfig::none().is_none());
        assert!(!FaultConfig { corrupt_prob: 0.1, ..FaultConfig::none() }.is_none());
        assert!(!FaultConfig { loss: LossModel::Bernoulli { p: 0.01 }, ..FaultConfig::none() }
            .is_none());
    }
}
