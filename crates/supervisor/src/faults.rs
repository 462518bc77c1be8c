//! Fault campaigns: scripted and seeded schedules of session faults.
//!
//! A [`FaultPlan`] is an ordered list of `(instant, fault)` pairs fired
//! against a node's UMTS stack as the simulation crosses each instant.
//! Plans are either scripted (exact times, for unit tests and targeted
//! repros) or seeded (a Poisson process over a configurable fault mix,
//! for chaos campaigns). Seeded plans are pure functions of the seed, so
//! a chaos run is as replayable as any other experiment.

use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};
use umtslab_umts::attachment::SessionFault;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When to inject.
    pub at: Instant,
    /// What to inject.
    pub fault: SessionFault,
}

/// Parameters of a seeded (randomised) campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// No faults before this instant (lets the first dial settle).
    pub start: Instant,
    /// No faults at or after this instant (lets the last recovery land).
    pub horizon: Instant,
    /// Mean gap between consecutive faults (exponentially distributed).
    pub mean_gap: Duration,
    /// The fault mix to draw from, uniformly.
    pub mix: Vec<SessionFault>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            start: Instant::from_secs(20),
            horizon: Instant::from_secs(320),
            mean_gap: Duration::from_secs(45),
            mix: vec![
                SessionFault::PppTerminate,
                SessionFault::ModemHang,
                SessionFault::RrcRelease,
                SessionFault::OperatorDetach,
                SessionFault::BearerPreemption,
            ],
        }
    }
}

/// An ordered, consumable schedule of session faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> FaultPlan {
        FaultPlan { events: Vec::new(), cursor: 0 }
    }

    /// A scripted plan; entries are sorted by time (stable, so same-time
    /// faults fire in the order given).
    pub fn scripted(entries: Vec<(Instant, SessionFault)>) -> FaultPlan {
        let mut events: Vec<FaultEvent> =
            entries.into_iter().map(|(at, fault)| FaultEvent { at, fault }).collect();
        events.sort_by_key(|e| e.at);
        FaultPlan { events, cursor: 0 }
    }

    /// A seeded plan: fault times form a Poisson process with the
    /// configured mean gap, each fault drawn uniformly from the mix.
    /// Deterministic in `seed`.
    pub fn seeded(seed: u64, config: &CampaignConfig) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut events = Vec::new();
        if config.mix.is_empty() || config.horizon <= config.start {
            return FaultPlan { events, cursor: 0 };
        }
        let mut t = config.start;
        loop {
            let gap = rng.exponential(config.mean_gap.as_secs_f64());
            t = t.saturating_add(Duration::from_secs_f64(gap));
            if t >= config.horizon {
                break;
            }
            let idx = rng.uniform_u64(0, config.mix.len() as u64 - 1) as usize;
            events.push(FaultEvent { at: t, fault: config.mix[idx] });
        }
        FaultPlan { events, cursor: 0 }
    }

    /// The full schedule (including already-fired entries).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// When the next unfired fault is due, if any.
    pub fn next_due(&self) -> Option<Instant> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Pops every fault due at or before `now`, in schedule order.
    pub fn pop_due(&mut self, now: Instant) -> Vec<SessionFault> {
        let mut due = Vec::new();
        while let Some(e) = self.events.get(self.cursor) {
            if e.at > now {
                break;
            }
            due.push(e.fault);
            self.cursor += 1;
        }
        due
    }

    /// True once every scheduled fault has fired.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_fires_in_time_order() {
        let mut plan = FaultPlan::scripted(vec![
            (Instant::from_secs(30), SessionFault::ModemHang),
            (Instant::from_secs(10), SessionFault::PppTerminate),
            (Instant::from_secs(10), SessionFault::RrcRelease),
        ]);
        assert_eq!(plan.next_due(), Some(Instant::from_secs(10)));
        assert_eq!(
            plan.pop_due(Instant::from_secs(10)),
            vec![SessionFault::PppTerminate, SessionFault::RrcRelease]
        );
        assert_eq!(plan.pop_due(Instant::from_secs(29)), vec![]);
        assert_eq!(plan.pop_due(Instant::from_secs(31)), vec![SessionFault::ModemHang]);
        assert!(plan.exhausted());
    }

    #[test]
    fn seeded_plan_is_deterministic_and_windowed() {
        let cfg = CampaignConfig::default();
        let a = FaultPlan::seeded(42, &cfg);
        let b = FaultPlan::seeded(42, &cfg);
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty(), "default campaign should schedule faults");
        for e in a.events() {
            assert!(e.at >= cfg.start && e.at < cfg.horizon, "{:?} outside window", e.at);
        }
        let c = FaultPlan::seeded(43, &cfg);
        assert_ne!(a.events(), c.events(), "different seeds should differ");
    }

    #[test]
    fn empty_mix_yields_empty_plan() {
        let cfg = CampaignConfig { mix: Vec::new(), ..CampaignConfig::default() };
        let plan = FaultPlan::seeded(7, &cfg);
        assert!(plan.events().is_empty());
        assert!(plan.exhausted());
        assert_eq!(plan.next_due(), None);
    }
}
