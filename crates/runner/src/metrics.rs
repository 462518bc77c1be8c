//! The metrics registry experiment workers publish into.
//!
//! Workers publish one row per job into a mutex-guarded table keyed by
//! job index, so rendering order is deterministic no matter which worker
//! finished first; cross-job totals are folded from the rows on demand.
//! The registry renders as a human summary table
//! ([`MetricsRegistry::summary_table`]) or machine-readable JSON
//! ([`MetricsRegistry::to_json`]), written by the shared
//! [`umtslab_sim::json`] writer.
//!
//! Every counter's name, unit, emitting layer and paper figure is
//! documented in `docs/METRICS.md`.

use std::sync::Mutex;

use umtslab::umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab::{metrics_members, TestbedMetrics};
use umtslab_sim::json;

/// Per-job session-availability gauges, as published by a supervised
/// (chaos) job. Plain numbers so the registry renders without reaching
/// back into the supervisor crate's types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Availability {
    /// Percentage of observed time the session was up, `0.0..=100.0`.
    pub uptime_pct: f64,
    /// Redial attempts the supervisor launched.
    pub redials: u64,
    /// Mean time to repair in microseconds, if any repair happened.
    // lint:allow(D4) JSON wire field; the registry export schema is raw integers
    pub mttr_micros: Option<u64>,
}

impl Availability {
    /// Projects a supervisor availability snapshot onto the registry's
    /// summary columns.
    pub fn from_metrics(m: &AvailabilityMetrics) -> Availability {
        Availability {
            uptime_pct: m.uptime_fraction().unwrap_or(0.0) * 100.0,
            redials: m.redials,
            mttr_micros: m.mttr().map(|d| d.total_micros()),
        }
    }
}

/// Per-job gauges: one row per completed experiment.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// Position of the job in its campaign (rendering sort key).
    pub index: usize,
    /// Human-readable job identifier, e.g. `voip/UMTS-to-Ethernet`.
    pub label: String,
    /// The master seed the job's testbed was built from.
    pub seed: u64,
    /// How many shards the job's topology was partitioned across
    /// (`1` = a plain unsharded testbed).
    pub shards: u32,
    /// The job's full cross-layer counter snapshot.
    pub metrics: TestbedMetrics,
    /// Host wall-clock time the job took, in microseconds.
    // lint:allow(D4) JSON wire field; host time is reporting-only, never fed back into the sim
    pub wall_micros: u64,
    /// Static isolation-verification verdict for the job's testbed, when
    /// a verifier ran: `"yes"` or `"no (N violations)"`. `None` when the
    /// job was not verified.
    pub verified: Option<String>,
    /// Session-availability gauges, when the job ran under a supervisor.
    pub availability: Option<Availability>,
}

/// A plain snapshot of the registry's cross-job totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsTotals {
    /// Jobs that published results.
    pub jobs: u64,
    /// Packets offered to wired access links (both directions).
    pub packets_pushed: u64,
    /// Packets the access links scheduled for delivery.
    pub packets_delivered: u64,
    /// Access-link drops: buffer overflow.
    pub drops_access_queue: u64,
    /// Access-link drops: loss process.
    pub drops_access_loss: u64,
    /// Radio (uplink + downlink) drops: bearer buffer overflow.
    pub drops_radio_overflow: u64,
    /// Radio (uplink + downlink) drops: RLC retransmissions exhausted.
    pub drops_radio_rlc: u64,
    /// Testbed-core drops: unroutable destination.
    pub drops_core_unroutable: u64,
    /// Testbed-core drops: operator firewall.
    pub drops_operator_firewall: u64,
    /// Testbed-core drops: node egress (route/filter/queue).
    pub drops_node_egress: u64,
    /// Testbed-core drops: UMTS downlink not connected / overflowed.
    pub drops_umts_downlink: u64,
    /// RRC state transitions across all attachments.
    pub rrc_transitions: u64,
    /// PPP phase transitions across all attachments.
    pub ppp_transitions: u64,
    /// Scheduler events processed across all jobs.
    pub events: u64,
    /// Summed host wall-clock time of all jobs, in microseconds.
    // lint:allow(D4) JSON wire field; aggregate host time for the export schema
    pub wall_micros: u64,
}

/// Shared, thread-safe metrics sink for a campaign of experiment jobs.
///
/// Workers call [`MetricsRegistry::record`] once per finished job; the
/// owner renders or inspects the registry after the pool joins. All
/// methods take `&self`, so one registry can be shared by reference
/// across a thread scope.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    rows: Mutex<Vec<JobRow>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Publishes one finished job into the registry.
    pub fn record(
        &self,
        index: usize,
        label: impl Into<String>,
        seed: u64,
        metrics: TestbedMetrics,
        wall: std::time::Duration,
    ) {
        // lint:allow(D4) flattening host wall time into the JSON wire field
        let wall_micros = wall.as_micros() as u64;
        self.rows.lock().expect("rows poisoned").push(JobRow {
            index,
            label: label.into(),
            seed,
            shards: 1,
            metrics,
            wall_micros,
            verified: None,
            availability: None,
        });
    }

    /// Records how many shards a job's topology was partitioned across.
    /// Jobs default to `1` (unsharded). No-op if the job index was never
    /// recorded.
    pub fn set_shards(&self, index: usize, shards: u32) {
        self.update_row(index, |row| row.shards = shards);
    }

    /// Attaches a static isolation-verification verdict to a recorded job.
    ///
    /// `ok` is the verifier's verdict and `violations` the number of
    /// invariant violations it reported. No-op if the job index was never
    /// recorded.
    pub fn set_verified(&self, index: usize, ok: bool, violations: usize) {
        let label = if ok { "yes".to_string() } else { format!("no ({violations} violations)") };
        self.update_row(index, |row| row.verified = Some(label));
    }

    /// Attaches session-availability gauges to a recorded job. No-op if
    /// the job index was never recorded.
    pub fn set_availability(&self, index: usize, availability: Availability) {
        self.update_row(index, |row| row.availability = Some(availability));
    }

    fn update_row(&self, index: usize, update: impl FnOnce(&mut JobRow)) {
        let mut rows = self.rows.lock().expect("rows poisoned");
        if let Some(row) = rows.iter_mut().find(|r| r.index == index) {
            update(row);
        }
    }

    /// Number of jobs recorded so far.
    pub fn jobs_completed(&self) -> u64 {
        self.rows.lock().expect("rows poisoned").len() as u64
    }

    /// Snapshot of the cross-job totals, summed over the rows.
    pub fn totals(&self) -> MetricsTotals {
        let rows = self.rows.lock().expect("rows poisoned");
        let mut m = TestbedMetrics::default();
        for r in rows.iter() {
            m.absorb(&r.metrics);
        }
        MetricsTotals {
            jobs: rows.len() as u64,
            packets_pushed: m.access.pushed,
            packets_delivered: m.access.delivered,
            drops_access_queue: m.access.dropped_queue,
            drops_access_loss: m.access.dropped_loss,
            drops_radio_overflow: m.uplink.dropped_overflow + m.downlink.dropped_overflow,
            drops_radio_rlc: m.uplink.dropped_rlc + m.downlink.dropped_rlc,
            drops_core_unroutable: m.drops.core_unroutable,
            drops_operator_firewall: m.drops.operator_firewall,
            drops_node_egress: m.drops.node_egress,
            drops_umts_downlink: m.drops.umts_downlink,
            rrc_transitions: m.rrc_transitions,
            ppp_transitions: m.ppp_transitions,
            events: m.events,
            wall_micros: rows.iter().map(|r| r.wall_micros).sum(),
        }
    }

    /// Per-job rows, sorted by job index (stable across worker counts).
    pub fn rows(&self) -> Vec<JobRow> {
        let mut rows = self.rows.lock().expect("rows poisoned").clone();
        rows.sort_by_key(|r| r.index);
        rows
    }

    /// Renders the per-job gauge table plus the totals line.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>12} {:>6} {:>10} {:>9} {:>7} {:>6} {:>6} {:>9} {:>10} {:>8} {:>7} {:>8}",
            "job",
            "seed",
            "shards",
            "events",
            "fwd pkts",
            "radio",
            "rrc",
            "ppp",
            "wall [s]",
            "verified",
            "uptime",
            "redials",
            "mttr [s]"
        );
        for r in self.rows() {
            let m = &r.metrics;
            let (uptime, redials, mttr) = match &r.availability {
                Some(a) => (
                    format!("{:.1}%", a.uptime_pct),
                    a.redials.to_string(),
                    a.mttr_micros
                        .map_or_else(|| "-".to_string(), |us| format!("{:.2}", us as f64 / 1e6)),
                ),
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<36} {:>12} {:>6} {:>10} {:>9} {:>7} {:>6} {:>6} {:>9.3} {:>10} {:>8} {:>7} {:>8}",
                r.label,
                r.seed,
                r.shards,
                m.events,
                m.access.pushed,
                m.uplink.served + m.downlink.served,
                m.rrc_transitions,
                m.ppp_transitions,
                r.wall_micros as f64 / 1e6,
                r.verified.as_deref().unwrap_or("-"),
                uptime,
                redials,
                mttr,
            );
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "totals: {} job(s), {} events, {} pkts pushed / {} delivered, \
             drops[q={} loss={} radio={} core={}], rrc={} ppp={}, wall {:.3} s",
            t.jobs,
            t.events,
            t.packets_pushed,
            t.packets_delivered,
            t.drops_access_queue,
            t.drops_access_loss,
            t.drops_radio_overflow + t.drops_radio_rlc,
            t.drops_core_unroutable
                + t.drops_operator_firewall
                + t.drops_node_egress
                + t.drops_umts_downlink,
            t.rrc_transitions,
            t.ppp_transitions,
            t.wall_micros as f64 / 1e6,
        );
        out
    }

    /// Renders the whole registry as a JSON document.
    ///
    /// Shape: `{"totals": {...}, "jobs": [{...}, ...]}` with jobs sorted
    /// by index. Counter names match `docs/METRICS.md`.
    pub fn to_json(&self) -> String {
        json::document(|o| self.write_json(o))
    }

    /// Writes [`MetricsRegistry::to_json`]'s members (`totals`, `jobs`)
    /// into `o`, after any members the caller wrote first.
    pub fn write_json(&self, o: &mut json::Object<'_>) {
        let t = self.totals();
        o.object("totals", |o| {
            o.value("jobs", t.jobs)
                .value("packets_pushed", t.packets_pushed)
                .value("packets_delivered", t.packets_delivered)
                .value("drops_access_queue", t.drops_access_queue)
                .value("drops_access_loss", t.drops_access_loss)
                .value("drops_radio_overflow", t.drops_radio_overflow)
                .value("drops_radio_rlc", t.drops_radio_rlc)
                .value("drops_core_unroutable", t.drops_core_unroutable)
                .value("drops_operator_firewall", t.drops_operator_firewall)
                .value("drops_node_egress", t.drops_node_egress)
                .value("drops_umts_downlink", t.drops_umts_downlink)
                .value("rrc_transitions", t.rrc_transitions)
                .value("ppp_transitions", t.ppp_transitions)
                .value("events", t.events)
                .value("wall_micros", t.wall_micros);
        });
        o.array("jobs", &self.rows(), |o, r| {
            o.value("index", r.index)
                .str("label", &r.label)
                .value("seed", r.seed)
                .value("shards", r.shards)
                .value("wall_micros", r.wall_micros);
            match &r.verified {
                Some(v) => o.str("verified", v),
                None => o.null("verified"),
            };
            match &r.availability {
                Some(a) => o.object("availability", |o| {
                    o.value("uptime_pct", format_args!("{:.3}", a.uptime_pct))
                        .value("redials", a.redials);
                    match a.mttr_micros {
                        Some(v) => o.value("mttr_micros", v),
                        None => o.null("mttr_micros"),
                    };
                }),
                None => o.null("availability"),
            };
            o.value("events", r.metrics.events);
            metrics_members(o, &r.metrics);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(events: u64) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        m.access.pushed = 10;
        m.access.delivered = 9;
        m.access.dropped_queue = 1;
        m.uplink.offered = 5;
        m.uplink.served = 4;
        m.uplink.dropped_rlc = 1;
        m.rrc_transitions = 3;
        m.ppp_transitions = 8;
        m.events = events;
        m
    }

    #[test]
    fn totals_accumulate_across_records() {
        let reg = MetricsRegistry::new();
        reg.record(0, "a", 1, sample_metrics(100), std::time::Duration::from_millis(2));
        reg.record(1, "b", 2, sample_metrics(50), std::time::Duration::from_millis(3));
        let t = reg.totals();
        assert_eq!(t.jobs, 2);
        assert_eq!(t.packets_pushed, 20);
        assert_eq!(t.packets_delivered, 18);
        assert_eq!(t.drops_access_queue, 2);
        assert_eq!(t.drops_radio_rlc, 2);
        assert_eq!(t.rrc_transitions, 6);
        assert_eq!(t.ppp_transitions, 16);
        assert_eq!(t.events, 150);
        assert_eq!(t.wall_micros, 5_000);
        assert_eq!(reg.jobs_completed(), 2);
    }

    #[test]
    fn rows_sort_by_index_not_arrival() {
        let reg = MetricsRegistry::new();
        reg.record(2, "late", 3, sample_metrics(1), std::time::Duration::ZERO);
        reg.record(0, "early", 1, sample_metrics(1), std::time::Duration::ZERO);
        reg.record(1, "mid", 2, sample_metrics(1), std::time::Duration::ZERO);
        let labels: Vec<String> = reg.rows().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["early", "mid", "late"]);
    }

    #[test]
    fn json_is_wellformed_enough_to_round_trip_counters() {
        let reg = MetricsRegistry::new();
        reg.record(0, "voip/UMTS-to-Ethernet", 2008, sample_metrics(42), std::time::Duration::ZERO);
        let json = reg.to_json();
        assert!(json.contains("\"jobs\": 1"));
        assert!(json.contains("\"label\": \"voip/UMTS-to-Ethernet\""));
        assert!(json.contains("\"events\": 42"));
        // Balanced braces/brackets (a cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn summary_table_lists_every_job_and_totals() {
        let reg = MetricsRegistry::new();
        reg.record(0, "a", 1, sample_metrics(7), std::time::Duration::ZERO);
        let table = reg.summary_table();
        assert!(table.contains("a"));
        assert!(table.starts_with("job") || table.contains("job"));
        assert!(table.contains("totals: 1 job(s)"));
    }

    #[test]
    fn verified_verdict_renders_in_table_and_json() {
        let reg = MetricsRegistry::new();
        reg.record(0, "ok-job", 1, sample_metrics(1), std::time::Duration::ZERO);
        reg.record(1, "bad-job", 2, sample_metrics(1), std::time::Duration::ZERO);
        reg.set_verified(0, true, 0);
        reg.set_verified(1, false, 3);
        // Unknown index is a no-op, not a panic.
        reg.set_verified(99, true, 0);
        let rows = reg.rows();
        assert_eq!(rows[0].verified.as_deref(), Some("yes"));
        assert_eq!(rows[1].verified.as_deref(), Some("no (3 violations)"));
        let table = reg.summary_table();
        assert!(table.contains("verified"));
        assert!(table.contains("yes"));
        assert!(table.contains("no (3 violations)"));
        let json = reg.to_json();
        assert!(json.contains("\"verified\": \"yes\""));
        assert!(json.contains("\"verified\": \"no (3 violations)\""));
    }

    #[test]
    fn unverified_jobs_render_dash_and_null() {
        let reg = MetricsRegistry::new();
        reg.record(0, "plain", 1, sample_metrics(1), std::time::Duration::ZERO);
        assert!(reg.summary_table().lines().nth(1).is_some_and(|l| l.trim_end().ends_with('-')));
        assert!(reg.to_json().contains("\"verified\": null"));
    }

    #[test]
    fn availability_renders_in_table_and_json() {
        let reg = MetricsRegistry::new();
        reg.record(0, "chaos-voip", 2022, sample_metrics(1), std::time::Duration::ZERO);
        reg.record(1, "plain", 1, sample_metrics(1), std::time::Duration::ZERO);
        reg.set_availability(
            0,
            Availability { uptime_pct: 82.25, redials: 8, mttr_micros: Some(7_450_000) },
        );
        // Unknown index is a no-op, not a panic.
        reg.set_availability(99, Availability { uptime_pct: 0.0, redials: 0, mttr_micros: None });
        let rows = reg.rows();
        assert!(rows[0].availability.is_some());
        assert!(rows[1].availability.is_none());
        let table = reg.summary_table();
        assert!(table.contains("uptime"));
        assert!(table.contains("82.2%"));
        assert!(table.contains("7.45"));
        let json = reg.to_json();
        assert!(json.contains("\"uptime_pct\": 82.250"));
        assert!(json.contains("\"redials\": 8"));
        assert!(json.contains("\"mttr_micros\": 7450000"));
        assert!(json.contains("\"availability\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn shards_default_to_one_and_render_when_set() {
        let reg = MetricsRegistry::new();
        reg.record(0, "fleet", 2008, sample_metrics(1), std::time::Duration::ZERO);
        assert_eq!(reg.rows()[0].shards, 1);
        assert!(reg.to_json().contains("\"shards\": 1"));
        reg.set_shards(0, 8);
        // Unknown index is a no-op, not a panic.
        reg.set_shards(99, 4);
        assert_eq!(reg.rows()[0].shards, 8);
        let table = reg.summary_table();
        assert!(table.contains("shards"));
        assert!(reg.to_json().contains("\"shards\": 8"));
    }

    #[test]
    fn availability_projects_from_supervisor_metrics() {
        use umtslab_sim::time::Duration;
        let m = AvailabilityMetrics {
            time_up: Duration::from_secs(90),
            time_down: Duration::from_secs(10),
            time_degraded: Duration::ZERO,
            sessions_established: 3,
            session_drops: 2,
            redials: 4,
            faults_injected: 5,
        };
        let a = Availability::from_metrics(&m);
        assert!((a.uptime_pct - 90.0).abs() < 1e-9);
        assert_eq!(a.redials, 4);
        assert_eq!(a.mttr_micros, Some(5_000_000));
        let empty = Availability::from_metrics(&AvailabilityMetrics::default());
        assert_eq!(empty.uptime_pct, 0.0);
        assert_eq!(empty.mttr_micros, None);
    }

    #[test]
    fn escape_json_handles_specials() {
        let reg = MetricsRegistry::new();
        reg.record(0, "a\"b\\c\nd", 1, sample_metrics(1), std::time::Duration::ZERO);
        assert!(reg.to_json().contains("\"label\": \"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn json_snapshot_pins_every_byte() {
        use std::time::Duration;
        let reg = MetricsRegistry::new();
        reg.record(0, "chaos \"voip\"", 2022, sample_metrics(7), Duration::from_micros(1500));
        reg.record(1, "plain", 1, sample_metrics(1), Duration::ZERO);
        reg.record(2, "flaky", 3, sample_metrics(2), Duration::from_micros(9));
        reg.set_shards(0, 3);
        reg.set_verified(0, false, 2);
        reg.set_verified(2, true, 0);
        reg.set_availability(
            0,
            Availability { uptime_pct: 82.25, redials: 8, mttr_micros: Some(7_450_000) },
        );
        reg.set_availability(2, Availability { uptime_pct: 100.0, redials: 0, mttr_micros: None });
        assert_eq!(
            reg.to_json(),
            r#"{
  "totals": {"jobs": 3, "packets_pushed": 30, "packets_delivered": 27, "drops_access_queue": 3, "drops_access_loss": 0, "drops_radio_overflow": 0, "drops_radio_rlc": 3, "drops_core_unroutable": 0, "drops_operator_firewall": 0, "drops_node_egress": 0, "drops_umts_downlink": 0, "rrc_transitions": 9, "ppp_transitions": 24, "events": 10, "wall_micros": 1509},
  "jobs": [
    {"index": 0, "label": "chaos \"voip\"", "seed": 2022, "shards": 3, "wall_micros": 1500, "verified": "no (2 violations)", "availability": {"uptime_pct": 82.250, "redials": 8, "mttr_micros": 7450000}, "events": 7, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}},
    {"index": 1, "label": "plain", "seed": 1, "shards": 1, "wall_micros": 0, "verified": null, "availability": null, "events": 1, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}},
    {"index": 2, "label": "flaky", "seed": 3, "shards": 1, "wall_micros": 9, "verified": "yes", "availability": {"uptime_pct": 100.000, "redials": 0, "mttr_micros": null}, "events": 2, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}}
  ]
}
"#
        );
        assert_eq!(
            MetricsRegistry::new().to_json(),
            r#"{
  "totals": {"jobs": 0, "packets_pushed": 0, "packets_delivered": 0, "drops_access_queue": 0, "drops_access_loss": 0, "drops_radio_overflow": 0, "drops_radio_rlc": 0, "drops_core_unroutable": 0, "drops_operator_firewall": 0, "drops_node_egress": 0, "drops_umts_downlink": 0, "rrc_transitions": 0, "ppp_transitions": 0, "events": 0, "wall_micros": 0},
  "jobs": [
  ]
}
"#
        );
    }
}
