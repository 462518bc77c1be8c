//! What one repetition of a workload measured.

use std::collections::BTreeMap;

use umtslab::umtslab_net::{copy_counters, CopyCounters};
use umtslab::TestbedMetrics;

/// One named output check and whether it held.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
}

/// The measurements of one repetition: set-up, the measured phase, the
/// output checks and the layers' deterministic counters.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds from the empty testbed to the first measured packet.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub measured_s: f64,
    /// Simulated seconds the measured phase advanced.
    pub sim_s: f64,
    /// Packets delivered to receivers in the measured phase.
    pub pkts: u64,
    /// Scheduler events in the measured phase.
    pub events: u64,
    /// Host milliseconds of every fixed simulated step, in order.
    pub steps_ms: Vec<f64>,
    /// Host milliseconds of the measured phase's stretches that are not
    /// fixed steps (the TCP think times), in order.
    pub gaps_ms: Vec<f64>,
    /// Operations attempted (members, jobs or transfers).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Witness over every observable output; equal seeds must agree.
    pub hash: u64,
    /// Output checks beyond the per-operation ones.
    pub verdicts: Vec<Verdict>,
    /// Deterministic per-layer counters, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, pass: bool) {
        self.verdicts.push(Verdict { name: name.into(), pass });
    }

    /// Adds to a per-layer counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// A per-layer counter (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the cross-layer snapshot of a finished testbed to the `net`
    /// and `umts` counters.
    pub fn count_testbed(&mut self, m: &TestbedMetrics) {
        self.count("net.access_pushed", m.access.pushed as f64);
        self.count("net.access_dropped", (m.access.dropped_queue + m.access.dropped_loss) as f64);
        self.count("umts.uplink_served", m.uplink.served as f64);
        self.count("umts.uplink_overflow", m.uplink.dropped_overflow as f64);
        self.count("umts.rlc_retx", (m.uplink.retransmissions + m.downlink.retransmissions) as f64);
        self.count("umts.downlink_served", m.downlink.served as f64);
        self.count("umts.rrc_transitions", m.rrc_transitions as f64);
        self.count("umts.ppp_transitions", m.ppp_transitions as f64);
    }

    /// Adds a D-ITG flow's logs to the `ditg` counters.
    pub fn count_flow(&mut self, sent: usize, received: usize, rtts: usize) {
        self.count("ditg.sent", sent as f64);
        self.count("ditg.received", received as f64);
        self.count("ditg.rtt_samples", rtts as f64);
    }

    /// Adds the payload deep copies made since `before` to the `net`
    /// counters.
    pub fn count_copies(&mut self, before: CopyCounters) {
        let now = copy_counters();
        self.count("net.copies", (now.copies - before.copies) as f64);
        self.count("net.copy_bytes", (now.bytes - before.bytes) as f64);
    }
}
