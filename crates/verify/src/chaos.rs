//! Chaos gate: isolation must survive every supervised recovery.
//!
//! The static analyzer proves a *configured* node clean; this gate proves
//! the property is *maintained* while the configuration churns. It runs
//! the core chaos campaign (the paper's VoIP flow under a seeded storm of
//! session faults, with the supervisor redialing) and re-analyzes the
//! Napoli node at every drop and every recovery checkpoint: any stale
//! route, rule or filter left behind by a teardown/redial cycle shows up
//! as a violation tagged with the checkpoint that exposed it. A run-twice
//! hash over the availability metrics and the lifecycle marker trail
//! doubles as the chaos determinism gate.

use umtslab::chaos::{run_chaos_campaign, ChaosConfig, ChaosReport};
use umtslab::umtslab_umts::attachment::SessionFault;
use umtslab_sim::Fnv1a;

use crate::determinism::DeterminismCheck;
use crate::invariants::analyze;

/// The seed the CI gate runs with. Chosen so the drawn schedule covers
/// all five fault types of the default mix (in particular the LCP
/// terminate and modem hard-hang the acceptance bar names).
pub const DEFAULT_SEED: u64 = 2022;

/// Outcome of one chaos-campaign verification run.
#[derive(Debug)]
pub struct ChaosCheck {
    /// The campaign report (availability, faults, lifecycle trail).
    pub report: ChaosReport,
    /// Isolation violations found at checkpoints, as
    /// `"<checkpoint>: <invariant>: <summary>"` lines. Empty means every
    /// recovery left the node clean.
    pub violations: Vec<String>,
    /// How many checkpoints (drops + recoveries) were audited.
    pub checkpoints: usize,
}

impl ChaosCheck {
    /// True if the campaign meets the acceptance bar: enough faults
    /// fired, every drop was re-established, the run ended with the
    /// session up, and no checkpoint found stale state or a leak.
    pub fn passed(&self) -> bool {
        let a = &self.report.availability;
        self.violations.is_empty()
            && self.report.ended_up
            && a.faults_injected >= 3
            && a.session_drops >= 1
            && a.sessions_established == a.session_drops + 1
            && self.fault_coverage_met()
    }

    /// The acceptance bar names the hardest two faults explicitly: the
    /// campaign must have fired at least three distinct fault types,
    /// among them an LCP terminate (PPP drop) and a modem hard-hang.
    pub fn fault_coverage_met(&self) -> bool {
        let mut kinds: Vec<SessionFault> = self.report.faults.iter().map(|f| f.fault).collect();
        kinds.sort_by_key(|k| format!("{k:?}"));
        kinds.dedup();
        kinds.len() >= 3
            && kinds.contains(&SessionFault::PppTerminate)
            && kinds.contains(&SessionFault::ModemHang)
    }
}

/// Runs the seeded campaign once, auditing the node at every checkpoint.
pub fn run(seed: u64) -> ChaosCheck {
    let cfg = ChaosConfig::paper(seed);
    let mut violations = Vec::new();
    let mut checkpoints = 0usize;
    let report = run_chaos_campaign(&cfg, |node, _now, label| {
        checkpoints += 1;
        let analysis = analyze(node);
        for v in &analysis.violations {
            violations.push(format!("{label}: {}: {}", v.kind.name(), v.summary));
        }
    });
    ChaosCheck { report, violations, checkpoints }
}

/// Hashes everything a chaos campaign is required to reproduce
/// bit-identically: the availability counters, the scheduled faults and
/// the full lifecycle marker trail.
pub fn chaos_hash(seed: u64) -> u64 {
    let cfg = ChaosConfig::paper(seed);
    let report = run_chaos_campaign(&cfg, |_, _, _| {});
    let mut h = Fnv1a::new();
    let a = report.availability;
    for v in [
        a.time_up.total_micros(),
        a.time_down.total_micros(),
        a.time_degraded.total_micros(),
        a.sessions_established,
        a.session_drops,
        a.redials,
        a.faults_injected,
    ] {
        h.update(&v.to_le_bytes());
    }
    for f in &report.faults {
        h.update(&f.at.total_micros().to_le_bytes());
        h.update(format!("{:?}", f.fault).as_bytes());
    }
    for (at, kind) in &report.lifecycle {
        h.update(&at.to_le_bytes());
        h.update(kind.as_bytes());
    }
    h.update(&report.summary.received.to_le_bytes());
    h.digest()
}

/// Runs the campaign twice from scratch and compares the hashes.
pub fn check(seed: u64) -> DeterminismCheck {
    DeterminismCheck { first: chaos_hash(seed), second: chaos_hash(seed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_gate_passes_on_the_default_seed() {
        let check = run(DEFAULT_SEED);
        assert!(check.checkpoints >= 2, "campaign produced no checkpoints");
        assert!(
            check.passed(),
            "chaos gate failed: violations={:?} availability={:?} ended_up={}",
            check.violations,
            check.report.availability,
            check.report.ended_up
        );
    }
}
