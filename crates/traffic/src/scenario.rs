//! The INRIA switching-policy experiment: RRC timers versus TCP.
//!
//! The paper's INRIA testbed measured how the operator's FACH/DCH
//! switching policy interacts with TCP throughput: an aggressive
//! demotion policy releases the dedicated channel during TCP's own idle
//! gaps (RTO backoff, window exhaustion), so every recovery pays the
//! multi-second promotion again; a conservative policy keeps the channel
//! up and lets the congestion window do its job. This module packages
//! the policy presets and the per-policy report row the runner prints —
//! the orchestration itself lives in `umtslab::crosslayer`, which wires
//! a [`crate::TcpFlow`] through a `UmtsAttachment` whose uplink backlog
//! feeds the RRC controller.

use umtslab_sim::time::Duration;
use umtslab_sim::Fnv1a;
use umtslab_umts::rrc::{RrcConfig, RrcDwell};

use crate::trace::fmt_secs;

/// A named FACH/DCH switching policy: an [`RrcConfig`] preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchingPolicy {
    /// Demote fast (1 s DCH, 5 s FACH): radio-efficient, TCP-hostile.
    Aggressive,
    /// The timers the paper's operator traces suggest (5 s / 30 s).
    Operator,
    /// Demote late (15 s DCH, 60 s FACH): TCP-friendly, radio-hungry.
    Conservative,
    /// Never demote within an experiment (timers beyond the horizon).
    AlwaysOn,
}

impl SwitchingPolicy {
    /// Every policy, in the order reports are printed.
    pub const ALL: [SwitchingPolicy; 4] = [
        SwitchingPolicy::Aggressive,
        SwitchingPolicy::Operator,
        SwitchingPolicy::Conservative,
        SwitchingPolicy::AlwaysOn,
    ];

    /// The stable name used in CLI arguments and report rows.
    pub fn name(self) -> &'static str {
        match self {
            SwitchingPolicy::Aggressive => "aggressive",
            SwitchingPolicy::Operator => "operator",
            SwitchingPolicy::Conservative => "conservative",
            SwitchingPolicy::AlwaysOn => "always-on",
        }
    }

    /// Parses a CLI name back to the policy.
    pub fn parse(s: &str) -> Option<SwitchingPolicy> {
        SwitchingPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The RRC timer preset implementing this policy. Everything except
    /// the inactivity timers matches [`RrcConfig::default`], so the
    /// experiment isolates the switching policy as the one variable.
    pub fn rrc_config(self) -> RrcConfig {
        let base = RrcConfig::default();
        match self {
            SwitchingPolicy::Aggressive => RrcConfig {
                dch_inactivity: Duration::from_secs(1),
                fach_inactivity: Duration::from_secs(5),
                ..base
            },
            SwitchingPolicy::Operator => base,
            SwitchingPolicy::Conservative => RrcConfig {
                dch_inactivity: Duration::from_secs(15),
                fach_inactivity: Duration::from_secs(60),
                ..base
            },
            SwitchingPolicy::AlwaysOn => RrcConfig {
                dch_inactivity: Duration::from_secs(86_400),
                fach_inactivity: Duration::from_secs(86_400),
                ..base
            },
        }
    }
}

/// One report row of the switching-policy experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyReport {
    /// Which policy produced the row.
    pub policy: SwitchingPolicy,
    /// RNG seed of the run.
    pub seed: u64,
    /// Goodput: cumulatively acknowledged payload over the experiment
    /// horizon, in bits per second.
    pub goodput_bps: u64,
    /// Segments cumulatively acknowledged.
    pub delivered_segments: u64,
    /// Segments retransmitted (fast retransmit + RTO).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Highest congestion window reached, in bytes.
    pub max_cwnd_bytes: u64,
    /// RRC transitions over the run.
    pub rrc_transitions: u64,
    /// Per-state dwell times and promotion latency totals.
    pub dwell: RrcDwell,
}

impl PolicyReport {
    /// The row in its canonical hashable spelling (see [`report_hash`]).
    pub fn row(&self) -> String {
        let d = &self.dwell;
        format!(
            "{} seed={} goodput_bps={} segments={} retx={} timeouts={} max_cwnd={} \
             rrc_transitions={} dwell_idle={} dwell_fach={} dwell_dch={} dwell_dch_up={} \
             idle_promotions={} promotion_latency={}",
            self.policy.name(),
            self.seed,
            self.goodput_bps,
            self.delivered_segments,
            self.retransmits,
            self.timeouts,
            self.max_cwnd_bytes,
            self.rrc_transitions,
            fmt_secs(d.idle),
            fmt_secs(d.fach),
            fmt_secs(d.dch),
            fmt_secs(d.dch_upgraded),
            d.idle_promotions,
            fmt_secs(d.idle_promotion_latency),
        )
    }
}

/// FNV-1a over the canonical [`PolicyReport::row`]s, one `\n` after
/// each: the report hash `runner traffic` prints and the traffic bench
/// gates on.
pub fn report_hash(reports: &[PolicyReport]) -> u64 {
    let mut hash = Fnv1a::new();
    for r in reports {
        hash.update(r.row().as_bytes());
        hash.update(b"\n");
    }
    hash.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in SwitchingPolicy::ALL {
            assert_eq!(SwitchingPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(SwitchingPolicy::parse("bogus"), None);
    }

    #[test]
    fn presets_only_vary_the_inactivity_timers() {
        let base = RrcConfig::default();
        for p in SwitchingPolicy::ALL {
            let c = p.rrc_config();
            assert_eq!(c.promotion_delay, base.promotion_delay, "{}", p.name());
            assert_eq!(c.upgrade_delay, base.upgrade_delay);
            assert_eq!(c.upgrade_backlog_threshold, base.upgrade_backlog_threshold);
            assert_eq!(c.upgrade_sustain, base.upgrade_sustain);
        }
    }

    #[test]
    fn aggressive_demotes_sooner_than_conservative() {
        let a = SwitchingPolicy::Aggressive.rrc_config();
        let c = SwitchingPolicy::Conservative.rrc_config();
        assert!(a.dch_inactivity < c.dch_inactivity);
        assert!(a.fach_inactivity < c.fach_inactivity);
    }
}
