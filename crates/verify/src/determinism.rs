//! Run-twice determinism gate.
//!
//! The simulator promises that identical inputs produce identical event
//! streams, and the analyzer promises that identical nodes produce
//! identical reports. [`campaign_hash`] runs the full scenario campaign —
//! build every scenario, analyze it, replay every witness differentially,
//! and collect each node's packet trace — and folds the entire event
//! stream into one FNV-1a hash. [`check`] runs the campaign twice from
//! scratch and compares the hashes; any divergence (iteration over an
//! unordered map, hidden wall-clock dependence, leftover global state)
//! flips bits somewhere in the stream and fails the gate.

use umtslab_sim::Fnv1a;

use crate::differential::replay_witnesses;
use crate::invariants::analyze;
use crate::report::render_json;
use crate::scenarios::all;

/// Runs the whole scenario campaign once and hashes its event stream:
/// the analyzer reports, every differential replay outcome, and every
/// node's full packet trace.
pub fn campaign_hash() -> u64 {
    let mut hasher = Fnv1a::new();
    for mut scenario in all() {
        scenario.node.trace.set_enabled(true);
        let analysis = analyze(&scenario.node);
        hasher.update(render_json(std::slice::from_ref(&analysis)).as_bytes());
        let diff = replay_witnesses(&mut scenario.node, scenario.now, &analysis);
        for replay in &diff.replays {
            hasher.update(replay.witness.verdict.label().as_bytes());
            hasher.update(replay.live.label().as_bytes());
            hasher.update(&[u8::from(replay.agrees)]);
        }
        hasher.update(scenario.node.trace.dump().as_bytes());
    }
    hasher.digest()
}

/// The outcome of the run-twice gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterminismCheck {
    /// Hash of the first campaign run.
    pub first: u64,
    /// Hash of the second campaign run.
    pub second: u64,
}

impl DeterminismCheck {
    /// True if both runs produced the identical event stream.
    pub fn deterministic(&self) -> bool {
        self.first == self.second
    }
}

/// Runs the campaign twice from scratch and compares the hashes.
pub fn check() -> DeterminismCheck {
    DeterminismCheck { first: campaign_hash(), second: campaign_hash() }
}
