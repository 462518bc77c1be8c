//! Per-job result rows and their two renderings.
//!
//! A campaign's results are plain values: one [`JobRow`] per job, in
//! job order (the order [`crate::run_jobs`] returns results in, whatever
//! the worker count). [`summary_table`] renders rows for humans and
//! [`write_json`] writes them into a JSON document built with the shared
//! [`umtslab_sim::json`] writer. Cross-job totals are folded inside each
//! renderer with [`TestbedMetrics::absorb`].
//!
//! Every counter's name, unit, emitting layer and paper figure is
//! documented in `docs/METRICS.md`.

use umtslab::{metrics_members, TestbedMetrics};
use umtslab_sim::json;

/// One finished job: its identity, counters and host wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Human-readable job identifier, e.g. `voip/UMTS-to-Ethernet`.
    pub label: String,
    /// The master seed the job's testbed was built from.
    pub seed: u64,
    /// The shard count the job's testbed was built with. `1` covers both
    /// the serial `Testbed::new` and `Testbed::sharded(1, ..)` (as in
    /// `runner run --shards 1`), which are different models.
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
}

impl JobRow {
    /// A row for a job on one shard, not verified.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        metrics: TestbedMetrics,
        wall: std::time::Duration,
    ) -> JobRow {
        JobRow {
            label: label.into(),
            seed,
            shards: 1,
            metrics,
            wall_micros: wall.as_micros() as u64,
            verified: None,
        }
    }
}

/// Every row's counters summed, and the summed wall time.
fn totals(rows: &[JobRow]) -> (TestbedMetrics, u64) {
    let mut total = TestbedMetrics::default();
    for r in rows {
        total.absorb(&r.metrics);
    }
    (total, rows.iter().map(|r| r.wall_micros).sum())
}

/// Renders the per-job table plus the totals line.
///
/// The totals line counts `drops.node_egress` as its own `egress=`
/// figure: the layer that refused a node's send counts it too (a ppp0
/// uplink overflow in `radio=`, an outbound access-pipe drop in `q=` or
/// `loss=`), so adding it to `core=` would count one lost packet twice.
pub fn summary_table(rows: &[JobRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>6} {:>10} {:>9} {:>7} {:>6} {:>6} {:>9} {:>10}",
        "job",
        "seed",
        "shards",
        "events",
        "fwd pkts",
        "radio",
        "rrc",
        "ppp",
        "wall [s]",
        "verified"
    );
    for r in rows {
        let m = &r.metrics;
        let _ = writeln!(
            out,
            "{:<36} {:>12} {:>6} {:>10} {:>9} {:>7} {:>6} {:>6} {:>9.3} {:>10}",
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
        );
    }
    let (t, wall_micros) = totals(rows);
    let (d, up, down) = (&t.drops, &t.uplink, &t.downlink);
    let _ = writeln!(
        out,
        "totals: {} job(s), {} events, {} pkts pushed / {} delivered, \
         drops[q={} loss={} radio={} core={} egress={}], rrc={} ppp={}, wall {:.3} s",
        rows.len(),
        t.events,
        t.access.pushed,
        t.access.delivered,
        t.access.dropped_queue,
        t.access.dropped_loss,
        up.dropped_overflow + up.dropped_rlc + down.dropped_overflow + down.dropped_rlc,
        d.core_unroutable + d.operator_firewall + d.umts_downlink,
        d.node_egress,
        t.rrc_transitions,
        t.ppp_transitions,
        wall_micros as f64 / 1e6,
    );
    out
}

/// Writes the rows as a `totals` object and a `jobs` array into `o`,
/// after any members the caller wrote first; each job's `index` is its
/// position in `rows`. Counter names match `docs/METRICS.md`.
pub fn write_json(o: &mut json::Object<'_>, rows: &[JobRow]) {
    let (t, wall_micros) = totals(rows);
    let (d, up, down) = (&t.drops, &t.uplink, &t.downlink);
    o.object("totals", |o| {
        o.value("jobs", rows.len())
            .value("packets_pushed", t.access.pushed)
            .value("packets_delivered", t.access.delivered)
            .value("drops_access_queue", t.access.dropped_queue)
            .value("drops_access_loss", t.access.dropped_loss)
            .value("drops_radio_overflow", up.dropped_overflow + down.dropped_overflow)
            .value("drops_radio_rlc", up.dropped_rlc + down.dropped_rlc)
            .value("drops_core_unroutable", d.core_unroutable)
            .value("drops_operator_firewall", d.operator_firewall)
            .value("drops_node_egress", d.node_egress)
            .value("drops_umts_downlink", d.umts_downlink)
            .value("rrc_transitions", t.rrc_transitions)
            .value("ppp_transitions", t.ppp_transitions)
            .value("events", t.events)
            .value("wall_micros", wall_micros);
    });
    let indexed: Vec<(usize, &JobRow)> = rows.iter().enumerate().collect();
    o.array("jobs", &indexed, |o, &(index, r)| {
        o.value("index", index)
            .str("label", &r.label)
            .value("seed", r.seed)
            .value("shards", r.shards)
            .value("wall_micros", r.wall_micros);
        match &r.verified {
            Some(v) => o.str("verified", v),
            None => o.null("verified"),
        };
        o.value("events", r.metrics.events);
        metrics_members(o, &r.metrics);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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

    fn row(label: &str, seed: u64, events: u64, wall: Duration) -> JobRow {
        JobRow::new(label, seed, sample_metrics(events), wall)
    }

    fn to_json(rows: &[JobRow]) -> String {
        json::document(|o| write_json(o, rows))
    }

    /// The last line of [`summary_table`].
    fn totals_line(rows: &[JobRow]) -> String {
        summary_table(rows).lines().last().unwrap_or_default().to_string()
    }

    #[test]
    fn totals_accumulate_across_records() {
        let rows =
            [row("a", 1, 100, Duration::from_millis(2)), row("b", 2, 50, Duration::from_millis(3))];
        assert_eq!(
            totals_line(&rows),
            "totals: 2 job(s), 150 events, 20 pkts pushed / 18 delivered, \
             drops[q=2 loss=0 radio=2 core=0 egress=0], rrc=6 ppp=16, wall 0.005 s"
        );
        let json = to_json(&rows);
        assert!(json.contains("\"jobs\": 2, \"packets_pushed\": 20, \"packets_delivered\": 18"));
        assert!(json.contains("\"drops_radio_rlc\": 2"));
        assert!(json.contains("\"events\": 150, \"wall_micros\": 5000}"));
    }

    #[test]
    fn totals_count_egress_apart_from_core() {
        // One ppp0 uplink overflow is counted by the bearer and again as
        // a node egress drop: five lost packets, not ten.
        let mut m = TestbedMetrics::default();
        m.uplink.dropped_overflow = 5;
        m.drops.node_egress = 5;
        let rows = [JobRow::new("overflow", 1, m, Duration::ZERO)];
        assert!(
            totals_line(&rows).contains("drops[q=0 loss=0 radio=5 core=0 egress=5]"),
            "{}",
            totals_line(&rows)
        );
    }

    #[test]
    fn json_index_is_row_position() {
        let rows = [row("first", 3, 1, Duration::ZERO), row("second", 1, 1, Duration::ZERO)];
        let json = to_json(&rows);
        assert!(json.contains("{\"index\": 0, \"label\": \"first\""));
        assert!(json.contains("{\"index\": 1, \"label\": \"second\""));
    }

    #[test]
    fn json_is_wellformed_enough_to_round_trip_counters() {
        let json = to_json(&[row("voip/UMTS-to-Ethernet", 2008, 42, Duration::ZERO)]);
        assert!(json.contains("\"jobs\": 1"));
        assert!(json.contains("\"label\": \"voip/UMTS-to-Ethernet\""));
        assert!(json.contains("\"events\": 42"));
        // Balanced braces/brackets (a cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn summary_table_lists_every_job_and_totals() {
        let table = summary_table(&[row("a", 1, 7, Duration::ZERO)]);
        assert!(table.starts_with("job "));
        assert!(table.lines().nth(1).is_some_and(|l| l.starts_with("a ")));
        assert!(table.contains("totals: 1 job(s)"));
    }

    #[test]
    fn verified_verdict_renders_in_table_and_json() {
        let rows = [
            JobRow { verified: Some("yes".into()), ..row("ok-job", 1, 1, Duration::ZERO) },
            JobRow {
                verified: Some("no (3 violations)".into()),
                ..row("bad-job", 2, 1, Duration::ZERO)
            },
        ];
        let table = summary_table(&rows);
        assert!(table.contains("verified"));
        assert!(table.contains("yes"));
        assert!(table.contains("no (3 violations)"));
        let json = to_json(&rows);
        assert!(json.contains("\"verified\": \"yes\""));
        assert!(json.contains("\"verified\": \"no (3 violations)\""));
    }

    #[test]
    fn unverified_jobs_render_dash_and_null() {
        let rows = [row("plain", 1, 1, Duration::ZERO)];
        assert!(summary_table(&rows).lines().nth(1).is_some_and(|l| l.trim_end().ends_with('-')));
        assert!(to_json(&rows).contains("\"verified\": null"));
    }

    #[test]
    fn shards_default_to_one_and_render_when_set() {
        let one = row("fleet", 2008, 1, Duration::ZERO);
        assert_eq!(one.shards, 1);
        assert!(to_json(std::slice::from_ref(&one)).contains("\"shards\": 1"));
        let eight = [JobRow { shards: 8, ..one }];
        assert!(summary_table(&eight).contains("shards"));
        assert!(to_json(&eight).contains("\"shards\": 8"));
    }

    #[test]
    fn escape_json_handles_specials() {
        let json = to_json(&[row("a\"b\\c\nd", 1, 1, Duration::ZERO)]);
        assert!(json.contains("\"label\": \"a\\\"b\\\\c\\nd\""));
    }

    /// Three rows covering every table and JSON cell shape: 3 shards,
    /// a failed verdict, an unverified job and a passed verdict.
    fn snapshot_rows() -> [JobRow; 3] {
        [
            JobRow {
                shards: 3,
                verified: Some("no (2 violations)".into()),
                ..row("chaos \"voip\"", 2022, 7, Duration::from_micros(1500))
            },
            row("plain", 1, 1, Duration::ZERO),
            JobRow { verified: Some("yes".into()), ..row("flaky", 3, 2, Duration::from_micros(9)) },
        ]
    }

    #[test]
    fn table_snapshot_pins_every_byte() {
        assert_eq!(
            summary_table(&snapshot_rows()),
            "\
job                                          seed shards     events  fwd pkts   radio    rrc    ppp  wall [s]   verified
chaos \"voip\"                                 2022      3          7        10       4      3      8     0.002 no (2 violations)
plain                                           1      1          1        10       4      3      8     0.000          -
flaky                                           3      1          2        10       4      3      8     0.000        yes
totals: 3 job(s), 10 events, 30 pkts pushed / 27 delivered, drops[q=3 loss=0 radio=3 core=0 egress=0], rrc=9 ppp=24, wall 0.002 s
"
        );
    }

    #[test]
    fn json_snapshot_pins_every_byte() {
        assert_eq!(
            to_json(&snapshot_rows()),
            r#"{
  "totals": {"jobs": 3, "packets_pushed": 30, "packets_delivered": 27, "drops_access_queue": 3, "drops_access_loss": 0, "drops_radio_overflow": 0, "drops_radio_rlc": 3, "drops_core_unroutable": 0, "drops_operator_firewall": 0, "drops_node_egress": 0, "drops_umts_downlink": 0, "rrc_transitions": 9, "ppp_transitions": 24, "events": 10, "wall_micros": 1509},
  "jobs": [
    {"index": 0, "label": "chaos \"voip\"", "seed": 2022, "shards": 3, "wall_micros": 1500, "verified": "no (2 violations)", "events": 7, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}},
    {"index": 1, "label": "plain", "seed": 1, "shards": 1, "wall_micros": 0, "verified": null, "events": 1, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}},
    {"index": 2, "label": "flaky", "seed": 3, "shards": 1, "wall_micros": 9, "verified": "yes", "events": 2, "access": {"pushed": 10, "delivered": 9, "dropped_queue": 1, "dropped_loss": 0}, "uplink": {"offered": 5, "served": 4, "dropped_overflow": 0, "dropped_rlc": 1, "retransmissions": 0, "outages": 0}, "downlink": {"offered": 0, "served": 0, "dropped_overflow": 0, "dropped_rlc": 0, "retransmissions": 0, "outages": 0}, "rrc_transitions": 3, "ppp_transitions": 8, "drops": {"core_unroutable": 0, "operator_firewall": 0, "node_egress": 0, "umts_downlink": 0}}
  ]
}
"#
        );
        assert_eq!(
            to_json(&[]),
            r#"{
  "totals": {"jobs": 0, "packets_pushed": 0, "packets_delivered": 0, "drops_access_queue": 0, "drops_access_loss": 0, "drops_radio_overflow": 0, "drops_radio_rlc": 0, "drops_core_unroutable": 0, "drops_operator_firewall": 0, "drops_node_egress": 0, "drops_umts_downlink": 0, "rrc_transitions": 0, "ppp_transitions": 0, "events": 0, "wall_micros": 0},
  "jobs": [
  ]
}
"#
        );
    }
}
