//! Recorded link traces: time-varying capacity/loss schedules.
//!
//! A *trace* is a piecewise-constant description of a link over time —
//! the CloudEmu-style recorded cellular bandwidth trace. Each segment
//! starts at an offset from the beginning of the replay and pins the
//! link's capacity (bits per second) and loss rate (parts per million)
//! until the next segment begins. The last segment holds forever.
//!
//! The syntax is a zero-dependency CSV:
//!
//! ```text
//! # umtslab-trace v1 name=umts_drive
//! # at_s,rate_bps,loss_ppm
//! 0.000000,384000,0
//! 2.500000,128000,12000
//! ```
//!
//! The parser reports spanned errors (`line:col`) and never panics.
//! Floating-point values exist **only at this parse boundary**: offsets
//! become integer microseconds and rates integer bits per second the
//! moment they are read, exactly like `umtslab-pack`'s schema decode, so
//! no float ever reaches simulator state (the D4 discipline; see
//! docs/TRAFFIC.md).
//!
//! [`serialize`] emits the canonical CSV form and satisfies the same
//! fixed-point guarantee as the pack serializer:
//! `serialize(parse(t)) == serialize(parse(serialize(parse(t))))`.

use core::fmt;

use umtslab_net::link::{LinkSchedule, LinkSegment};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::Duration;

/// A parsed link trace: a name and its ordered segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace name (from the header line).
    pub name: String,
    /// Segments in strictly increasing `start` order; never empty.
    pub segments: Vec<LinkSegment>,
}

/// A parse failure with its position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for TraceError {}

fn err<T>(line: usize, col: usize, message: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError { line, col, message: message.into() })
}

/// Maximum loss a segment may declare (100%).
pub const MAX_LOSS_PPM: u32 = 1_000_000;

impl Trace {
    /// Parses a trace from its CSV form.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut name = String::new();
        let mut segments = Vec::new();
        let mut seg_lines = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let comment = comment.trim();
                if let Some(rest) = comment.strip_prefix("umtslab-trace") {
                    let rest = rest.trim();
                    let Some(version_tok) = rest.split_whitespace().next() else {
                        return err(lineno, 1, "header missing version");
                    };
                    if version_tok != "v1" {
                        return err(
                            lineno,
                            1,
                            format!("unsupported trace version `{version_tok}`"),
                        );
                    }
                    for kv in rest.split_whitespace().skip(1) {
                        if let Some(n) = kv.strip_prefix("name=") {
                            name = n.to_string();
                        }
                    }
                }
                continue;
            }
            // Each field with its 1-based column in `raw`.
            let mut col = raw.len() - raw.trim_start().len() + 1;
            let mut fields = Vec::with_capacity(3);
            for field in line.split(',') {
                fields.push((field.trim(), col + field.len() - field.trim_start().len()));
                col += field.len() + 1;
            }
            let [(at, at_col), (rate, rate_col), (loss, loss_col)] = fields[..] else {
                return err(lineno, 1, format!("expected 3 fields, got {}", fields.len()));
            };
            let start = parse_secs(at, lineno, at_col)?;
            let rate_bps = parse_uint(rate, lineno, rate_col, "rate_bps")?;
            let loss_ppm = parse_uint(loss, lineno, loss_col, "loss_ppm")?;
            if loss_ppm > u64::from(MAX_LOSS_PPM) {
                return err(lineno, loss_col, format!("loss_ppm exceeds {MAX_LOSS_PPM}"));
            }
            segments.push(LinkSegment { start, rate_bps, loss_ppm: loss_ppm as u32 });
            seg_lines.push(lineno);
        }
        Trace { name, segments }.validate(&seg_lines)
    }

    /// The total span covered before the final (infinite) segment.
    pub fn span(&self) -> Duration {
        self.segments.last().map_or(Duration::ZERO, |s| s.start)
    }

    /// Converts the trace into the link-layer schedule that drives
    /// [`umtslab_net::link::Pipe`] replay.
    pub fn to_schedule(&self) -> LinkSchedule {
        LinkSchedule::new(self.segments.clone())
    }

    /// Validates ordering and bounds; `seg_lines[i]` is the input line
    /// of segment `i`.
    fn validate(self, seg_lines: &[usize]) -> Result<Trace, TraceError> {
        if self.name.is_empty() {
            return err(1, 1, "trace has no name");
        }
        if self.segments.is_empty() {
            return err(1, 1, "trace has no segments");
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let (line, col) = (seg_lines[i], 1);
            if i == 0 && !seg.start.is_zero() {
                return err(line, col, "first segment must start at 0");
            }
            if i > 0 && seg.start <= self.segments[i - 1].start {
                return err(line, col, "segment offsets must strictly increase");
            }
            if seg.loss_ppm > MAX_LOSS_PPM {
                return err(line, col, format!("loss_ppm exceeds {MAX_LOSS_PPM}"));
            }
        }
        Ok(self)
    }
}

/// Formats a duration as exact decimal seconds with a 6-digit fraction.
///
/// Microseconds always have an exact 6-digit decimal representation, so
/// this is a bijection — the root of the serializer's fixed point, and a
/// pure function of the tick count for every byte-deterministic report.
pub fn fmt_secs(d: Duration) -> String {
    format!("{}.{:06}", d.total_secs(), d.total_micros() % 1_000_000)
}

/// Renders a trace in canonical CSV form.
///
/// The output is a pure function of the (integer) trace contents, so
/// `serialize ∘ parse` is idempotent: parsing the output and serializing
/// again reproduces it byte for byte.
pub fn serialize(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!("# umtslab-trace v1 name={}\n", trace.name));
    out.push_str("# at_s,rate_bps,loss_ppm\n");
    for seg in &trace.segments {
        out.push_str(&format!("{},{},{}\n", fmt_secs(seg.start), seg.rate_bps, seg.loss_ppm));
    }
    out
}

/// Parses a decimal seconds value (`12.345678`) into a duration without
/// going through floating point: integer and fraction digits are read
/// separately and the fraction is padded/truncated to microseconds.
fn parse_secs(tok: &str, line: usize, col: usize) -> Result<Duration, TraceError> {
    let (int_part, frac_part) = match tok.split_once('.') {
        Some((i, f)) => (i, f),
        None => (tok, ""),
    };
    if int_part.is_empty() || !int_part.bytes().all(|b| b.is_ascii_digit()) {
        return err(line, col, format!("invalid seconds value `{tok}`"));
    }
    if !frac_part.bytes().all(|b| b.is_ascii_digit()) || frac_part.len() > 6 {
        return err(
            line,
            col,
            format!("seconds value `{tok}` has more than microsecond precision"),
        );
    }
    let secs: u64 = match int_part.parse() {
        Ok(s) => s,
        Err(_) => return err(line, col, format!("seconds value `{tok}` out of range")),
    };
    let mut frac: u64 = 0;
    for b in frac_part.bytes() {
        frac = frac * 10 + u64::from(b - b'0');
    }
    frac *= 10u64.pow(6 - frac_part.len() as u32);
    Ok(Duration::from_secs(secs) + Duration::from_micros(frac))
}

/// Parses an unsigned integer field, tolerating a float-formatted value
/// (`384000.0`) by requiring the fraction to be all zeros: recorded
/// traces from float-happy tools stay loadable, but capacity is an
/// integer the moment it enters the system.
fn parse_uint(tok: &str, line: usize, col: usize, what: &str) -> Result<u64, TraceError> {
    let int_part = match tok.split_once('.') {
        Some((i, f)) if !f.is_empty() && f.bytes().all(|b| b == b'0') => i,
        Some(_) => return err(line, col, format!("{what} `{tok}` must be an integer")),
        None => tok,
    };
    if int_part.is_empty() || !int_part.bytes().all(|b| b.is_ascii_digit()) {
        return err(line, col, format!("invalid {what} `{tok}`"));
    }
    int_part.parse().map_err(|_| TraceError {
        line,
        col,
        message: format!("{what} `{tok}` out of range"),
    })
}

/// Generates a structurally valid random trace for property tests:
/// 1–40 segments with microsecond-granular offsets, rates across six
/// orders of magnitude and occasional loss.
pub fn random_trace(seed: u64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7261_6365);
    let n = rng.uniform_u64(1, 40) as usize;
    let mut start = Duration::ZERO;
    let mut segments = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 {
            start += Duration::from_micros(rng.uniform_u64(1, 30_000_000));
        }
        let rate_bps = match rng.uniform_u64(0, 3) {
            0 => rng.uniform_u64(8_000, 64_000),
            1 => rng.uniform_u64(64_000, 2_000_000),
            2 => rng.uniform_u64(2_000_000, 100_000_000),
            _ => 0, // an outage-as-ideal segment exercises rate 0
        };
        let loss_ppm = if rng.uniform_u64(0, 4) == 0 {
            rng.uniform_u64(0, u64::from(MAX_LOSS_PPM)) as u32
        } else {
            0
        };
        segments.push(LinkSegment { start, rate_bps, loss_ppm });
    }
    Trace { name: format!("random-{seed}"), segments }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "\
# umtslab-trace v1 name=drive
# at_s,rate_bps,loss_ppm
0.000000,384000,0
2.500000,128000,12000
7.250000,384000,0
";

    #[test]
    fn csv_parses_to_integer_segments() {
        let t = Trace::parse(CSV).unwrap();
        assert_eq!(t.name, "drive");
        assert_eq!(t.segments.len(), 3);
        assert_eq!(t.segments[1].start, Duration::from_micros(2_500_000));
        assert_eq!(t.segments[1].rate_bps, 128_000);
        assert_eq!(t.segments[1].loss_ppm, 12_000);
        assert_eq!(t.span(), Duration::from_micros(7_250_000));
    }

    #[test]
    fn serializer_is_a_fixed_point() {
        let once = serialize(&Trace::parse(CSV).unwrap());
        let twice = serialize(&Trace::parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn fixed_point_holds_over_random_traces() {
        for seed in 0..200u64 {
            let t = random_trace(seed);
            let once = serialize(&t);
            let parsed = Trace::parse(&once).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed, t, "seed {seed}: canonical form must re-parse to itself");
            let twice = serialize(&Trace::parse(&once).unwrap());
            assert_eq!(once, twice, "seed {seed}: serialize∘parse must be idempotent");
        }
    }

    #[test]
    fn errors_carry_spans() {
        let e = Trace::parse("# umtslab-trace v1 name=x\n0.0,abc,0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.col > 1, "column points at the bad field: {e}");
        assert!(e.message.contains("rate_bps"));

        let e = Trace::parse("# umtslab-trace v1 name=x\n0.0,1,0\n0.0,2,0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("strictly increase"));

        // JSON-like input is not a trace syntax: it fails on its first
        // line with a spanned error instead of panicking.
        let e = Trace::parse("{\"name\": \"x\", \"segments\": [{\"at_s\": 0}]}").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }

    #[test]
    fn error_columns_point_at_the_offending_field() {
        // The bad field repeats text that occurs earlier on its line.
        let e = Trace::parse("# umtslab-trace v1 name=x\n1.5,1.5,0\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 5), "{e}");
        assert!(e.message.contains("rate_bps"), "{e}");
        let e = Trace::parse("# umtslab-trace v1 name=x\n0.000000,2000000,2000000\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 18), "{e}");
        assert!(e.message.contains("loss_ppm"), "{e}");
        // Padding around a field is not part of its column.
        let e = Trace::parse("# umtslab-trace v1 name=x\n  0.0 ,  1.5,0\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 10), "{e}");
    }

    #[test]
    fn first_segment_must_cover_time_zero() {
        let e = Trace::parse("# umtslab-trace v1 name=x\n1.0,5,0\n").unwrap_err();
        assert!(e.message.contains("start at 0"), "{e}");
    }

    #[test]
    fn float_capacity_must_be_integral() {
        let e = Trace::parse("# umtslab-trace v1 name=x\n0.0,384000.5,0\n").unwrap_err();
        assert!(e.message.contains("must be an integer"), "{e}");
    }

    #[test]
    fn sub_microsecond_offsets_are_rejected_not_rounded() {
        let e = Trace::parse("# umtslab-trace v1 name=x\n0.0000001,5,0\n").unwrap_err();
        assert!(e.message.contains("microsecond precision"), "{e}");
    }

    #[test]
    fn schedule_conversion_preserves_segments() {
        let t = Trace::parse(CSV).unwrap();
        let s = t.to_schedule();
        assert_eq!(s.rate_at(Duration::ZERO), 384_000);
        assert_eq!(s.rate_at(Duration::from_secs(3)), 128_000);
        assert_eq!(s.loss_ppm_at(Duration::from_secs(3)), 12_000);
        assert_eq!(s.rate_at(Duration::from_secs(100)), 384_000);
    }
}
