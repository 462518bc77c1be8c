//! The canonical serializer: the one true spelling of a [`Pack`].
//!
//! `serialize` is a pure function of the typed pack — fixed section
//! order, fixed key order, one float formatter — so for any document
//! `d`, `serialize(parse(d))` is byte-identical no matter how `d` was
//! formatted. That gives the round-trip guarantee
//! `serialize(parse(d)) == serialize(parse(serialize(parse(d))))`
//! structurally rather than by case analysis, and the property tests in
//! `tests/roundtrip.rs` hammer it with random packs.

use std::fmt::Write;

use umtslab_net::fault::LossModel;
use umtslab_sim::time::{Duration, Instant};

use crate::schema::{FaultSpec, FlowKind, Pack};

/// Formats a float so that it re-parses as a float (never an int) and
/// recovers the exact same `f64`.
///
/// Integer-valued floats are written with a trailing `.0`; everything
/// else uses Rust's shortest round-trip representation, which the pack
/// number scanner reads back exactly.
pub fn fmt_float(v: f64) -> String {
    if v == v.trunc() {
        // `{}` would print e.g. 1e19 as a bare (overflowing) integer
        // literal; `{:.1}` keeps the decimal point and is still exact,
        // because every integer-valued f64 has an exact decimal form.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Formats a duration as float seconds.
///
/// Microsecond-granular durations below ~3 × 10⁴ years survive the trip
/// through [`Duration::as_secs_f64`] / [`Duration::from_secs_f64`]
/// exactly, because `from_secs_f64` rounds to the nearest microsecond.
pub fn fmt_secs(d: Duration) -> String {
    fmt_float(d.as_secs_f64())
}

/// Escapes a string for a basic `"..."` literal. TOML basic strings
/// take exactly JSON's escapes, so this is the shared
/// [`escape_json`](umtslab_sim::json::escape_json) in quotes.
pub fn escape_str(s: &str) -> String {
    format!("\"{}\"", umtslab_sim::json::escape_json(s))
}

/// Serializes a pack into its canonical byte-deterministic form.
pub fn serialize(pack: &Pack) -> String {
    let mut out = String::new();
    let o = &mut out;

    let _ = writeln!(o, "[pack]");
    let _ = writeln!(o, "name = {}", escape_str(&pack.meta.name));
    let _ = writeln!(o, "description = {}", escape_str(&pack.meta.description));
    let _ = writeln!(o, "version = {}", pack.meta.version);

    let _ = writeln!(o, "\n[topology]");
    let _ = writeln!(o, "access_rate_bps = {}", pack.topology.access_rate_bps);
    let _ = writeln!(o, "access_delay_s = {}", fmt_secs(pack.topology.access_delay));
    let _ = writeln!(o, "access_jitter_s = {}", fmt_secs(pack.topology.access_jitter));

    match &pack.topology.fault {
        FaultSpec::None => {}
        FaultSpec::BurstyUmts => {
            let _ = writeln!(o, "\n[topology.fault]");
            let _ = writeln!(o, "preset = \"bursty_umts\"");
        }
        FaultSpec::Custom(c) => {
            let _ = writeln!(o, "\n[topology.fault]");
            let _ = writeln!(o, "preset = \"custom\"");
            match c.loss {
                LossModel::None => {
                    let _ = writeln!(o, "loss = \"none\"");
                }
                LossModel::Bernoulli { p } => {
                    let _ = writeln!(o, "loss = \"bernoulli\"");
                    let _ = writeln!(o, "p = {}", fmt_float(p));
                }
                LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad } => {
                    let _ = writeln!(o, "loss = \"gilbert_elliott\"");
                    let _ = writeln!(o, "p_gb = {}", fmt_float(p_gb));
                    let _ = writeln!(o, "p_bg = {}", fmt_float(p_bg));
                    let _ = writeln!(o, "loss_good = {}", fmt_float(loss_good));
                    let _ = writeln!(o, "loss_bad = {}", fmt_float(loss_bad));
                }
            }
            if c.corrupt_prob != 0.0 {
                let _ = writeln!(o, "corrupt_prob = {}", fmt_float(c.corrupt_prob));
            }
            if c.duplicate_prob != 0.0 {
                let _ = writeln!(o, "duplicate_prob = {}", fmt_float(c.duplicate_prob));
            }
            if c.reorder_prob != 0.0 {
                let _ = writeln!(o, "reorder_prob = {}", fmt_float(c.reorder_prob));
            }
            if !c.reorder_delay.is_zero() {
                let _ = writeln!(o, "reorder_delay_s = {}", fmt_secs(c.reorder_delay));
            }
        }
    }

    let _ = writeln!(o, "\n[umts]");
    let _ = writeln!(o, "operator = {}", escape_str(&pack.umts.operator));
    let _ = writeln!(o, "device = {}", escape_str(&pack.umts.device));
    if let (Some(user), Some(pass)) = (&pack.umts.username, &pack.umts.password) {
        let _ = writeln!(o, "username = {}", escape_str(user));
        let _ = writeln!(o, "password = {}", escape_str(pass));
    }

    if let Some(trace) = &pack.trace {
        let _ = writeln!(o, "\n[trace]");
        let _ = writeln!(o, "file = {}", escape_str(&trace.file));
    }

    for s in &pack.slices {
        let _ = writeln!(o, "\n[[slice]]");
        let _ = writeln!(o, "name = {}", escape_str(&s.name));
        let _ = writeln!(o, "node = \"{}\"", s.node);
        let _ = writeln!(o, "umts_access = {}", s.umts_access);
    }

    for f in &pack.flows {
        let _ = writeln!(o, "\n[[flow]]");
        let _ = writeln!(o, "label = {}", escape_str(&f.label));
        let _ = writeln!(o, "kind = \"{}\"", f.kind.key());
        match &f.kind {
            FlowKind::VoipG711 | FlowKind::Cbr1Mbps => {}
            FlowKind::VoipCodec { codec } => {
                let key = crate::schema::CODEC_KEYS
                    .iter()
                    .find(|(_, c)| c == codec)
                    .map(|(k, _)| *k)
                    .expect("every codec has a key");
                let _ = writeln!(o, "codec = \"{key}\"");
            }
            FlowKind::Cbr { rate_bps, payload_bytes } => {
                let _ = writeln!(o, "rate_bps = {rate_bps}");
                let _ = writeln!(o, "payload_bytes = {payload_bytes}");
            }
            FlowKind::Poisson { mean_pps, payload_bytes } => {
                let _ = writeln!(o, "mean_pps = {}", fmt_float(*mean_pps));
                let _ = writeln!(o, "payload_bytes = {payload_bytes}");
            }
            FlowKind::TcpBulk { mss_bytes } => {
                let _ = writeln!(o, "mss_bytes = {mss_bytes}");
            }
            FlowKind::AdaptiveVideo { frame_bytes } => {
                let _ = writeln!(o, "frame_bytes = {frame_bytes}");
            }
            FlowKind::TraceReplay { rate_bps, payload_bytes } => {
                let _ = writeln!(o, "rate_bps = {rate_bps}");
                let _ = writeln!(o, "payload_bytes = {payload_bytes}");
            }
        }
        let _ = writeln!(
            o,
            "path = \"{}\"",
            match f.path {
                umtslab::PathKind::UmtsToEthernet => "umts",
                umtslab::PathKind::EthernetToEthernet => "ethernet",
            }
        );
        let _ = writeln!(o, "duration_s = {}", fmt_secs(f.duration));
        if let Some(op) = &f.operator {
            let _ = writeln!(o, "operator = {}", escape_str(op));
        }
    }

    if let Some(fp) = &pack.fault_plan {
        let _ = writeln!(o, "\n[fault_plan]");
        let _ = writeln!(o, "start_s = {}", fmt_secs(fp.start - Instant::ZERO));
        let _ = writeln!(o, "horizon_s = {}", fmt_secs(fp.horizon - Instant::ZERO));
        let _ = writeln!(o, "mean_gap_s = {}", fmt_secs(fp.mean_gap));
        let mix: Vec<String> = fp.mix.iter().map(|f| format!("\"{}\"", f.key())).collect();
        let _ = writeln!(o, "mix = [{}]", mix.join(", "));
    }

    let _ = writeln!(o, "\n[seeds]");
    let _ = writeln!(o, "base = {}", pack.seeds.base);
    let _ = writeln!(o, "reps = {}", pack.seeds.reps);

    for g in &pack.goldens {
        let _ = writeln!(o, "\n[[golden]]");
        let _ = writeln!(o, "flow = {}", escape_str(&g.flow));
        let _ = writeln!(o, "seed = {}", g.seed);
        let _ = writeln!(o, "metric = \"{}\"", g.metric.key());
        let _ = writeln!(o, "value = {}", fmt_float(g.value));
        let _ = writeln!(o, "tolerance = {}", fmt_float(g.tolerance));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Pack;

    #[test]
    fn float_formatting_reparses_exactly() {
        for v in [0.0, 1.0, -3.0, 0.004, 72.345, 1.0e-9, 123_456.789_012_3, -0.25] {
            let text = fmt_float(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back, v, "{text}");
            assert!(text.contains('.') || text.contains('e'), "{text} must re-parse as float");
        }
    }

    #[test]
    fn escape_round_trips_through_lexer() {
        let ugly = "a\"b\\c\nd\te\u{1}";
        let escaped = escape_str(ugly);
        let mut cur = crate::lexer::Cursor::new(&escaped);
        assert_eq!(crate::lexer::scan_string(&mut cur).unwrap(), ugly);
    }

    #[test]
    fn serialize_is_idempotent_on_the_minimal_pack() {
        let text = crate::schema::tests::minimal();
        let once = serialize(&Pack::parse(&text).unwrap());
        let twice = serialize(&Pack::parse(&once).unwrap());
        assert_eq!(once, twice);
        // And the canonical form decodes to the same typed pack.
        assert_eq!(Pack::parse(&text).unwrap(), Pack::parse(&once).unwrap());
    }
}
