//! The typed pack model and its decoder.
//!
//! A [`Pack`] is everything one declarative experiment needs: topology
//! (the two-node testbed's access links plus an optional packet-fault
//! process), slices and their `umts` vsys ACL grants, flows, the UMTS
//! operator/device, an optional session-fault campaign, seeds, and the
//! golden metrics the run is expected to reproduce. Decoding validates
//! every cross-reference (operator presets, fault keys, golden flow
//! labels and seeds) with span-carrying errors.

use umtslab::paper::campaign_seeds;
use umtslab::{ExtraSlice, NodeRole, PathKind};
use umtslab_ditg::VoipCodec;
use umtslab_net::fault::{FaultConfig, LossModel};
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::CampaignConfig;
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::SessionFault;
use umtslab_umts::operator::OperatorProfile;

use crate::golden::{Golden, Metric};
use crate::lexer::{ParseError, Span};
use crate::parser::{parse_document, Document, Entry, Table, Value};

/// The `[pack]` header: identity of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PackMeta {
    /// Short name (catalog key).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Schema version (currently always 1).
    pub version: u64,
}

/// The longest span any `*_s` key may give: one day. It keeps every
/// run's end (`flow start + duration + drain`) far inside simulated time.
pub const MAX_SECONDS: f64 = 86_400.0;

/// The most faults a `[fault_plan]` may expect to draw:
/// `(horizon_s - start_s) / mean_gap_s`. It bounds the seeded schedule's
/// memory.
pub const MAX_EXPECTED_FAULTS: u64 = 10_000;

/// The access-link packet-fault process of the pack.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Clean links (section absent or `preset = "none"`).
    None,
    /// The fitted Gilbert–Elliott 3G fade preset.
    BurstyUmts,
    /// Explicit parameters.
    Custom(FaultConfig),
}

/// The `[topology]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Access-link rate, bits per second.
    pub access_rate_bps: u64,
    /// One-way access-link delay.
    pub access_delay: Duration,
    /// Uniform access-link jitter bound.
    pub access_jitter: Duration,
    /// Packet-fault process on both access links.
    pub fault: FaultSpec,
}

/// The `[umts]` section: operator, device, credentials.
#[derive(Debug, Clone, PartialEq)]
pub struct UmtsSpec {
    /// Operator preset key (see `umtslab_umts::operator::OPERATOR_PRESETS`).
    pub operator: String,
    /// Device preset key (see `umtslab_umts::at::DEVICE_PRESETS`).
    pub device: String,
    /// PAP username (with `password`, or both absent).
    pub username: Option<String>,
    /// PAP password.
    pub password: Option<String>,
}

/// The workload of one `[[flow]]`.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowKind {
    /// The paper's 72 kbps G.711-like VoIP CBR.
    VoipG711,
    /// The paper's saturating 1 Mbps CBR.
    Cbr1Mbps,
    /// A VoIP call emulating a specific codec.
    VoipCodec {
        /// The codec.
        codec: VoipCodec,
    },
    /// A generic CBR flow.
    Cbr {
        /// Application bitrate, bits per second.
        rate_bps: u64,
        /// UDP payload per packet.
        payload_bytes: u32,
    },
    /// A Poisson (exponential-IDT) flow.
    Poisson {
        /// Mean packet rate.
        mean_pps: f64,
        /// UDP payload per packet.
        payload_bytes: u32,
    },
    /// A congestion-controlled TCP-like bulk transfer
    /// (`umtslab_traffic::TcpFlow`).
    TcpBulk {
        /// Maximum segment size.
        mss_bytes: u32,
    },
    /// An adaptive-rate sender stepping a bitrate ladder
    /// (`umtslab_traffic::AdaptiveSender`).
    AdaptiveVideo {
        /// Bytes per media frame.
        frame_bytes: u32,
    },
    /// A CBR probe over access links driven by the pack's `[trace]`
    /// capacity/loss schedule (requires a `[trace]` section).
    TraceReplay {
        /// Application bitrate, bits per second.
        rate_bps: u64,
        /// UDP payload per packet.
        payload_bytes: u32,
    },
}

impl FlowKind {
    /// The registry key of this kind.
    pub fn key(&self) -> &'static str {
        match self {
            FlowKind::VoipG711 => "voip_g711",
            FlowKind::Cbr1Mbps => "cbr_1mbps",
            FlowKind::VoipCodec { .. } => "voip_codec",
            FlowKind::Cbr { .. } => "cbr",
            FlowKind::Poisson { .. } => "poisson",
            FlowKind::TcpBulk { .. } => "tcp_bulk",
            FlowKind::AdaptiveVideo { .. } => "adaptive_video",
            FlowKind::TraceReplay { .. } => "trace_replay",
        }
    }
}

/// Codec registry keys in [`VoipCodec`] order.
pub const CODEC_KEYS: [(&str, VoipCodec); 3] =
    [("g711", VoipCodec::G711), ("g729", VoipCodec::G729), ("g7231", VoipCodec::G7231)];

/// The optional `[trace]` section: a recorded capacity/loss trace
/// replayed on both access links for every run of the pack.
///
/// Only the *reference* lives in the pack; the trace file itself is a
/// separate committed artifact (a `umtslab_traffic::Trace` CSV file),
/// loaded at execution time. The path is resolved relative to the
/// process working directory first, then relative to the pack file's
/// directory and its parent — so catalog packs in `packs/` can point at
/// `traces/` siblings at the repository root. Parsing a pack never
/// touches the filesystem: round-tripping works without the file
/// existing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRef {
    /// Relative path to the trace file.
    pub file: String,
}

/// One `[[flow]]`: a workload on a path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDef {
    /// Unique label (goldens reference it).
    pub label: String,
    /// The workload.
    pub kind: FlowKind,
    /// Which path carries it.
    pub path: PathKind,
    /// Flow duration.
    pub duration: Duration,
    /// Optional per-flow operator preset override.
    pub operator: Option<String>,
}

/// The `[seeds]` section: the repetition scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Base seed of the first repetition.
    pub base: u64,
    /// Number of repetitions (seed `base + r * 7919` for rep `r`).
    pub reps: u32,
}

impl Seeds {
    /// The concrete seed list (the runner's historical scheme).
    pub fn expand(&self) -> Vec<u64> {
        campaign_seeds(self.base, self.reps as usize)
    }
}

/// A fully decoded experiment pack.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    /// Identity.
    pub meta: PackMeta,
    /// Topology and packet faults.
    pub topology: Topology,
    /// The UMTS access configuration.
    pub umts: UmtsSpec,
    /// Optional access-link capacity/loss trace reference.
    pub trace: Option<TraceRef>,
    /// Slices, in declaration order.
    pub slices: Vec<ExtraSlice>,
    /// Flows, in declaration order.
    pub flows: Vec<FlowDef>,
    /// Optional seeded session-fault campaign, applied to every UMTS-path
    /// run.
    pub fault_plan: Option<CampaignConfig>,
    /// Seeds.
    pub seeds: Seeds,
    /// Goldens, sorted by (flow, seed, metric).
    pub goldens: Vec<Golden>,
}

impl Pack {
    /// Parses and decodes a pack document.
    pub fn parse(text: &str) -> Result<Pack, ParseError> {
        decode(&parse_document(text)?)
    }
}

/// Typed access to one table's entries with unknown-key detection.
struct Fields<'a> {
    table: &'a Table,
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(table: &'a Table) -> Fields<'a> {
        Fields { table, taken: vec![false; table.entries.len()] }
    }

    fn take(&mut self, key: &str) -> Option<&'a Entry> {
        let idx = self.table.entries.iter().position(|e| e.key == key)?;
        self.taken[idx] = true;
        Some(&self.table.entries[idx])
    }

    fn require(&mut self, key: &str) -> Result<&'a Entry, ParseError> {
        self.take(key).ok_or_else(|| {
            ParseError::new(
                self.table.span,
                format!("[{}] is missing required key `{key}`", self.table.name()),
            )
        })
    }

    fn str(&mut self, key: &str) -> Result<String, ParseError> {
        let e = self.require(key)?;
        expect_str(e)
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, ParseError> {
        self.take(key).map(expect_str).transpose()
    }

    fn u64(&mut self, key: &str) -> Result<u64, ParseError> {
        let e = self.require(key)?;
        expect_u64(e)
    }

    fn f64(&mut self, key: &str) -> Result<f64, ParseError> {
        let e = self.require(key)?;
        expect_f64(e)
    }

    fn bool(&mut self, key: &str) -> Result<bool, ParseError> {
        let e = self.require(key)?;
        match e.value {
            Value::Bool(b) => Ok(b),
            ref other => Err(type_mismatch(e, "boolean", other)),
        }
    }

    fn prob(&mut self, key: &str) -> Result<f64, ParseError> {
        expect_prob(self.require(key)?)
    }

    fn opt_prob(&mut self, key: &str) -> Result<Option<f64>, ParseError> {
        self.take(key).map(expect_prob).transpose()
    }

    fn seconds(&mut self, key: &str) -> Result<Duration, ParseError> {
        let e = self.require(key)?;
        let v = expect_f64(e)?;
        if v < 0.0 {
            return Err(ParseError::new(e.span, format!("`{key}` must be non-negative")));
        }
        at_most_a_day(e, v)
    }

    fn str_array(&mut self, key: &str) -> Result<Vec<(String, Span)>, ParseError> {
        let e = self.require(key)?;
        let Value::Array(items) = &e.value else {
            return Err(type_mismatch(e, "array of strings", &e.value));
        };
        items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok((s.clone(), e.span)),
                other => Err(ParseError::new(
                    e.span,
                    format!("`{key}` must contain strings, found {}", other.type_name()),
                )),
            })
            .collect()
    }

    /// Errors on the first key the schema did not consume.
    fn finish(self) -> Result<(), ParseError> {
        for (idx, taken) in self.taken.iter().enumerate() {
            if !taken {
                let e = &self.table.entries[idx];
                return Err(ParseError::new(
                    e.span,
                    format!("unknown key `{}` in [{}]", e.key, self.table.name()),
                ));
            }
        }
        Ok(())
    }
}

fn type_mismatch(e: &Entry, wanted: &str, got: &Value) -> ParseError {
    ParseError::new(e.span, format!("`{}` must be a {wanted}, got {}", e.key, got.type_name()))
}

fn expect_str(e: &Entry) -> Result<String, ParseError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(type_mismatch(e, "string", other)),
    }
}

fn expect_u64(e: &Entry) -> Result<u64, ParseError> {
    match e.value {
        Value::Int(v) if v >= 0 => Ok(v as u64),
        Value::Int(v) => {
            Err(ParseError::new(e.span, format!("`{}` must be non-negative, got {v}", e.key)))
        }
        ref other => Err(type_mismatch(e, "integer", other)),
    }
}

fn expect_prob(e: &Entry) -> Result<f64, ParseError> {
    let v = expect_f64(e)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(ParseError::new(e.span, format!("`{}` must be in [0, 1], got {v}", e.key)));
    }
    Ok(v)
}

/// Converts a non-negative `*_s` value, refusing more than [`MAX_SECONDS`].
fn at_most_a_day(e: &Entry, secs: f64) -> Result<Duration, ParseError> {
    if secs > MAX_SECONDS {
        return Err(ParseError::new(
            e.span,
            format!("`{}` must be at most {MAX_SECONDS} s (one day), got {secs}", e.key),
        ));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Reads a `payload_bytes` key bounded to what fits one UDP datagram.
fn payload_bytes(f: &mut Fields<'_>) -> Result<u32, ParseError> {
    let e = f.require("payload_bytes")?;
    let v = expect_u64(e)?;
    if !(1..=65_507).contains(&v) {
        return Err(ParseError::new(e.span, "payload_bytes must be in 1..=65507"));
    }
    Ok(v as u32)
}

fn expect_f64(e: &Entry) -> Result<f64, ParseError> {
    match e.value {
        Value::Float(v) => Ok(v),
        Value::Int(v) => Ok(v as f64),
        ref other => Err(type_mismatch(e, "number", other)),
    }
}

/// Decodes a raw document into a typed pack.
pub fn decode(doc: &Document) -> Result<Pack, ParseError> {
    let origin = Span { line: 1, col: 1 };
    // Reject unknown sections and array/plain mismatches up front.
    for t in &doc.tables {
        let name = t.name();
        let known_plain = matches!(
            name.as_str(),
            "pack" | "topology" | "topology.fault" | "umts" | "trace" | "fault_plan" | "seeds"
        );
        let known_array = matches!(name.as_str(), "slice" | "flow" | "golden");
        if t.is_array && !known_array {
            return Err(ParseError::new(
                t.span,
                if known_plain {
                    format!("section [{name}] cannot repeat: write it as a plain [{name}]")
                } else {
                    format!("unknown section [[{name}]]")
                },
            ));
        }
        if !t.is_array && known_array {
            return Err(ParseError::new(
                t.span,
                format!("section [{name}] is an array-of-tables: write [[{name}]]"),
            ));
        }
        if !known_plain && !known_array {
            return Err(ParseError::new(t.span, format!("unknown section [{name}]")));
        }
    }
    let require = |name: &str| {
        doc.table(name).ok_or_else(|| {
            ParseError::new(origin, format!("pack is missing the required [{name}] section"))
        })
    };

    // [pack]
    let mut f = Fields::new(require("pack")?);
    let meta = PackMeta {
        name: f.str("name")?,
        description: f.str("description")?,
        version: {
            let e = f.require("version")?;
            let v = expect_u64(e)?;
            if v != 1 {
                return Err(ParseError::new(e.span, format!("unsupported pack version {v}")));
            }
            v
        },
    };
    f.finish()?;

    // [topology]
    let mut f = Fields::new(require("topology")?);
    let mut topology = Topology {
        access_rate_bps: f.u64("access_rate_bps")?,
        access_delay: f.seconds("access_delay_s")?,
        access_jitter: f.seconds("access_jitter_s")?,
        fault: FaultSpec::None,
    };
    f.finish()?;
    if topology.access_rate_bps == 0 {
        return Err(ParseError::new(
            doc.table("topology").expect("required above").span,
            "access_rate_bps must be positive",
        ));
    }

    // [topology.fault] (optional)
    if let Some(t) = doc.table("topology.fault") {
        let mut f = Fields::new(t);
        let preset = f.str("preset")?;
        topology.fault = match preset.as_str() {
            "none" => FaultSpec::None,
            "bursty_umts" => FaultSpec::BurstyUmts,
            "custom" => {
                let loss_kind = f.str("loss")?;
                let loss = match loss_kind.as_str() {
                    "none" => LossModel::None,
                    "bernoulli" => LossModel::Bernoulli { p: f.prob("p")? },
                    "gilbert_elliott" => LossModel::GilbertElliott {
                        p_gb: f.prob("p_gb")?,
                        p_bg: f.prob("p_bg")?,
                        loss_good: f.prob("loss_good")?,
                        loss_bad: f.prob("loss_bad")?,
                    },
                    other => {
                        return Err(ParseError::new(
                            t.get("loss").expect("read above").span,
                            format!(
                                "unknown loss model `{other}` \
                                 (none | bernoulli | gilbert_elliott)"
                            ),
                        ));
                    }
                };
                FaultSpec::Custom(FaultConfig {
                    loss,
                    corrupt_prob: f.opt_prob("corrupt_prob")?.unwrap_or(0.0),
                    duplicate_prob: f.opt_prob("duplicate_prob")?.unwrap_or(0.0),
                    reorder_prob: f.opt_prob("reorder_prob")?.unwrap_or(0.0),
                    reorder_delay: match f.take("reorder_delay_s") {
                        None => Duration::ZERO,
                        Some(e) => at_most_a_day(e, expect_f64(e)?.max(0.0))?,
                    },
                })
            }
            other => {
                return Err(ParseError::new(
                    t.get("preset").expect("read above").span,
                    format!("unknown fault preset `{other}` (none | bursty_umts | custom)"),
                ));
            }
        };
        f.finish()?;
    }

    // [umts]
    let umts_table = require("umts")?;
    let mut f = Fields::new(umts_table);
    let umts = UmtsSpec {
        operator: {
            let e = f.require("operator")?;
            let key = expect_str(e)?;
            if OperatorProfile::by_preset(&key).is_none() {
                return Err(ParseError::new(e.span, format!("unknown operator preset `{key}`")));
            }
            key
        },
        device: {
            let e = f.require("device")?;
            let key = expect_str(e)?;
            if DeviceProfile::by_preset(&key).is_none() {
                return Err(ParseError::new(e.span, format!("unknown device preset `{key}`")));
            }
            key
        },
        username: f.opt_str("username")?,
        password: f.opt_str("password")?,
    };
    f.finish()?;
    if umts.username.is_some() != umts.password.is_some() {
        return Err(ParseError::new(
            umts_table.span,
            "username and password must be given together",
        ));
    }

    // [trace] (optional)
    let trace = match doc.table("trace") {
        None => None,
        Some(t) => {
            let mut f = Fields::new(t);
            let file_entry = f.require("file")?;
            let file = expect_str(file_entry)?;
            if file.is_empty() {
                return Err(ParseError::new(file_entry.span, "trace file must not be empty"));
            }
            if file.starts_with('/') || file.split('/').any(|seg| seg == "..") {
                return Err(ParseError::new(
                    file_entry.span,
                    "trace file must be a relative path without `..` segments",
                ));
            }
            f.finish()?;
            Some(TraceRef { file })
        }
    };

    // [[slice]]
    let mut slices = Vec::new();
    for t in doc.tables_named("slice") {
        let mut f = Fields::new(t);
        let name_entry = f.require("name")?;
        let name = expect_str(name_entry)?;
        if slices.iter().any(|s: &ExtraSlice| s.name == name) {
            return Err(ParseError::new(name_entry.span, format!("duplicate slice `{name}`")));
        }
        let node_entry = f.require("node")?;
        let node = match expect_str(node_entry)?.as_str() {
            "napoli" => NodeRole::Napoli,
            "inria" => NodeRole::Inria,
            other => {
                return Err(ParseError::new(
                    node_entry.span,
                    format!("unknown node `{other}` (napoli | inria)"),
                ));
            }
        };
        let umts_access = f.bool("umts_access")?;
        f.finish()?;
        slices.push(ExtraSlice { name, node, umts_access });
    }
    if !slices.iter().any(|s| s.node == NodeRole::Napoli) {
        return Err(ParseError::new(origin, "pack needs a [[slice]] on node \"napoli\""));
    }
    if !slices.iter().any(|s| s.node == NodeRole::Inria) {
        return Err(ParseError::new(origin, "pack needs a [[slice]] on node \"inria\""));
    }

    // [[flow]]
    let mut flows: Vec<FlowDef> = Vec::new();
    for t in doc.tables_named("flow") {
        let mut f = Fields::new(t);
        let label_entry = f.require("label")?;
        let label = expect_str(label_entry)?;
        if flows.iter().any(|x| x.label == label) {
            return Err(ParseError::new(
                label_entry.span,
                format!("duplicate flow label `{label}`"),
            ));
        }
        let kind_entry = f.require("kind")?;
        let kind = match expect_str(kind_entry)?.as_str() {
            "voip_g711" => FlowKind::VoipG711,
            "cbr_1mbps" => FlowKind::Cbr1Mbps,
            "voip_codec" => {
                let e = f.require("codec")?;
                let key = expect_str(e)?;
                let codec =
                    CODEC_KEYS.iter().find(|(k, _)| *k == key).map(|(_, c)| *c).ok_or_else(
                        || {
                            ParseError::new(
                                e.span,
                                format!("unknown codec `{key}` (g711 | g729 | g7231)"),
                            )
                        },
                    )?;
                FlowKind::VoipCodec { codec }
            }
            "cbr" => {
                let rate_entry = f.require("rate_bps")?;
                let rate_bps = expect_u64(rate_entry)?;
                if rate_bps == 0 {
                    return Err(ParseError::new(rate_entry.span, "rate_bps must be positive"));
                }
                FlowKind::Cbr { rate_bps, payload_bytes: payload_bytes(&mut f)? }
            }
            "poisson" => {
                let pps_entry = f.require("mean_pps")?;
                let mean_pps = expect_f64(pps_entry)?;
                if !mean_pps.is_finite() || mean_pps <= 0.0 {
                    return Err(ParseError::new(pps_entry.span, "mean_pps must be positive"));
                }
                FlowKind::Poisson { mean_pps, payload_bytes: payload_bytes(&mut f)? }
            }
            "tcp_bulk" => FlowKind::TcpBulk {
                mss_bytes: match f.take("mss_bytes") {
                    None => 1_024,
                    Some(e) => {
                        let v = expect_u64(e)?;
                        if !(64..=9_000).contains(&v) {
                            return Err(ParseError::new(e.span, "mss_bytes must be in 64..=9000"));
                        }
                        v as u32
                    }
                },
            },
            "adaptive_video" => FlowKind::AdaptiveVideo {
                frame_bytes: match f.take("frame_bytes") {
                    None => 1_000,
                    Some(e) => {
                        let v = expect_u64(e)?;
                        if !(64..=65_507).contains(&v) {
                            return Err(ParseError::new(
                                e.span,
                                "frame_bytes must be in 64..=65507",
                            ));
                        }
                        v as u32
                    }
                },
            },
            "trace_replay" => {
                if trace.is_none() {
                    return Err(ParseError::new(
                        kind_entry.span,
                        "flow kind `trace_replay` requires a [trace] section",
                    ));
                }
                let rate_entry = f.require("rate_bps")?;
                let rate_bps = expect_u64(rate_entry)?;
                if rate_bps == 0 {
                    return Err(ParseError::new(rate_entry.span, "rate_bps must be positive"));
                }
                FlowKind::TraceReplay { rate_bps, payload_bytes: payload_bytes(&mut f)? }
            }
            other => {
                return Err(ParseError::new(
                    kind_entry.span,
                    format!(
                        "unknown flow kind `{other}` \
                         (voip_g711 | cbr_1mbps | voip_codec | cbr | poisson \
                          | tcp_bulk | adaptive_video | trace_replay)"
                    ),
                ));
            }
        };
        let path_entry = f.require("path")?;
        let path = match expect_str(path_entry)?.as_str() {
            "umts" => PathKind::UmtsToEthernet,
            "ethernet" => PathKind::EthernetToEthernet,
            other => {
                return Err(ParseError::new(
                    path_entry.span,
                    format!("unknown path `{other}` (umts | ethernet)"),
                ));
            }
        };
        let duration = f.seconds("duration_s")?;
        if duration.is_zero() {
            return Err(ParseError::new(t.span, "duration_s must be positive"));
        }
        let operator = match f.take("operator") {
            None => None,
            Some(e) => {
                let key = expect_str(e)?;
                if OperatorProfile::by_preset(&key).is_none() {
                    return Err(ParseError::new(
                        e.span,
                        format!("unknown operator preset `{key}`"),
                    ));
                }
                Some(key)
            }
        };
        f.finish()?;
        flows.push(FlowDef { label, kind, path, duration, operator });
    }
    if flows.is_empty() {
        return Err(ParseError::new(origin, "pack needs at least one [[flow]]"));
    }

    // [fault_plan] (optional)
    let fault_plan = match doc.table("fault_plan") {
        None => None,
        Some(t) => {
            let mut f = Fields::new(t);
            let plan = CampaignConfig {
                start: Instant::ZERO + f.seconds("start_s")?,
                horizon: Instant::ZERO + f.seconds("horizon_s")?,
                mean_gap: f.seconds("mean_gap_s")?,
                mix: {
                    let mut mix = Vec::new();
                    for (key, span) in f.str_array("mix")? {
                        let fault = SessionFault::from_key(&key).ok_or_else(|| {
                            ParseError::new(span, format!("unknown session fault `{key}`"))
                        })?;
                        mix.push(fault);
                    }
                    mix
                },
            };
            f.finish()?;
            if plan.mix.is_empty() {
                return Err(ParseError::new(t.span, "fault_plan mix must not be empty"));
            }
            if plan.horizon <= plan.start {
                return Err(ParseError::new(t.span, "fault_plan horizon_s must exceed start_s"));
            }
            if plan.mean_gap.is_zero() {
                return Err(ParseError::new(t.span, "fault_plan mean_gap_s must be positive"));
            }
            let window = (plan.horizon - plan.start).total_micros();
            if window > plan.mean_gap.total_micros().saturating_mul(MAX_EXPECTED_FAULTS) {
                return Err(ParseError::new(
                    t.span,
                    format!(
                        "fault_plan expects about {} faults; (horizon_s - start_s) / \
                         mean_gap_s must be at most {MAX_EXPECTED_FAULTS}",
                        window / plan.mean_gap.total_micros()
                    ),
                ));
            }
            Some(plan)
        }
    };

    // [seeds]
    let seeds_table = require("seeds")?;
    let mut f = Fields::new(seeds_table);
    let seeds = Seeds {
        base: f.u64("base")?,
        reps: {
            let e = f.require("reps")?;
            let v = expect_u64(e)?;
            if v == 0 || v > 1_000 {
                return Err(ParseError::new(e.span, "reps must be in 1..=1000"));
            }
            v as u32
        },
    };
    f.finish()?;
    let seed_set = seeds.expand();

    // [[golden]]
    let mut goldens = Vec::new();
    for t in doc.tables_named("golden") {
        let mut f = Fields::new(t);
        let flow_entry = f.require("flow")?;
        let flow = expect_str(flow_entry)?;
        if !flows.iter().any(|x| x.label == flow) {
            return Err(ParseError::new(
                flow_entry.span,
                format!("golden references unknown flow `{flow}`"),
            ));
        }
        let seed_entry = f.require("seed")?;
        let seed = expect_u64(seed_entry)?;
        if !seed_set.contains(&seed) {
            return Err(ParseError::new(
                seed_entry.span,
                format!("golden seed {seed} is not produced by [seeds] (base/reps)"),
            ));
        }
        let metric_entry = f.require("metric")?;
        let metric_key = expect_str(metric_entry)?;
        let metric = Metric::from_key(&metric_key).ok_or_else(|| {
            ParseError::new(metric_entry.span, format!("unknown metric `{metric_key}`"))
        })?;
        let value = f.f64("value")?;
        let tol_entry = f.require("tolerance")?;
        let tolerance = expect_f64(tol_entry)?;
        if tolerance < 0.0 {
            return Err(ParseError::new(tol_entry.span, "tolerance must be non-negative"));
        }
        f.finish()?;
        if goldens.iter().any(|g: &Golden| g.flow == flow && g.seed == seed && g.metric == metric) {
            return Err(ParseError::new(
                t.span,
                format!("duplicate golden for {flow}@{seed}/{}", metric.key()),
            ));
        }
        goldens.push(Golden { flow, seed, metric, value, tolerance });
    }
    goldens.sort_by(|a, b| (&a.flow, a.seed, a.metric).cmp(&(&b.flow, b.seed, b.metric)));

    Ok(Pack { meta, topology, umts, trace, slices, flows, fault_plan, seeds, goldens })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A minimal valid pack used across the unit tests.
    pub(crate) fn minimal() -> String {
        "[pack]\n\
         name = \"mini\"\n\
         description = \"smallest valid pack\"\n\
         version = 1\n\
         [topology]\n\
         access_rate_bps = 100000000\n\
         access_delay_s = 0.006\n\
         access_jitter_s = 0.0004\n\
         [umts]\n\
         operator = \"commercial_italy\"\n\
         device = \"option_globetrotter\"\n\
         username = \"web\"\n\
         password = \"web\"\n\
         [[slice]]\n\
         name = \"unina_umts\"\n\
         node = \"napoli\"\n\
         umts_access = true\n\
         [[slice]]\n\
         name = \"unina_probe\"\n\
         node = \"inria\"\n\
         umts_access = false\n\
         [[flow]]\n\
         label = \"voip\"\n\
         kind = \"voip_g711\"\n\
         path = \"ethernet\"\n\
         duration_s = 2.0\n\
         [seeds]\n\
         base = 1\n\
         reps = 1\n"
            .to_string()
    }

    #[test]
    fn minimal_pack_decodes() {
        let pack = Pack::parse(&minimal()).unwrap();
        assert_eq!(pack.meta.name, "mini");
        assert_eq!(pack.topology.access_rate_bps, 100_000_000);
        assert_eq!(pack.topology.fault, FaultSpec::None);
        assert_eq!(pack.slices.len(), 2);
        assert_eq!(pack.flows[0].kind, FlowKind::VoipG711);
        assert_eq!(pack.seeds.expand(), vec![1]);
        assert!(pack.goldens.is_empty());
    }

    #[test]
    fn unknown_key_errors_with_span() {
        let text = minimal().replace("[seeds]", "[seeds]\nbogus = 3");
        let err = Pack::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown key `bogus` in [seeds]"), "{err}");
    }

    #[test]
    fn type_mismatch_errors_with_span() {
        let text = minimal().replace("base = 1", "base = \"one\"");
        let err = Pack::parse(&text).unwrap_err();
        assert!(err.message.contains("`base` must be a integer, got string"), "{err}");
    }

    #[test]
    fn golden_referencing_unknown_flow_is_rejected() {
        let text = minimal()
            + "[[golden]]\nflow = \"nope\"\nseed = 1\nmetric = \"sent\"\nvalue = 1.0\ntolerance = 1.0\n";
        let err = Pack::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown flow `nope`"), "{err}");
    }

    #[test]
    fn golden_seed_must_come_from_seed_scheme() {
        let text = minimal()
            + "[[golden]]\nflow = \"voip\"\nseed = 2\nmetric = \"sent\"\nvalue = 1.0\ntolerance = 1.0\n";
        let err = Pack::parse(&text).unwrap_err();
        assert!(err.message.contains("not produced by [seeds]"), "{err}");
    }

    #[test]
    fn goldens_are_canonically_sorted() {
        let text = minimal()
            + "[[golden]]\nflow = \"voip\"\nseed = 1\nmetric = \"sent\"\nvalue = 100.0\ntolerance = 2.0\n\
               [[golden]]\nflow = \"voip\"\nseed = 1\nmetric = \"received\"\nvalue = 100.0\ntolerance = 2.0\n";
        let pack = Pack::parse(&text).unwrap();
        assert_eq!(pack.goldens[0].metric, Metric::Sent);
        assert_eq!(pack.goldens[1].metric, Metric::Received);
    }

    #[test]
    fn traffic_flow_kinds_decode_with_defaults() {
        let text = minimal()
            + "[[flow]]\nlabel = \"bulk\"\nkind = \"tcp_bulk\"\npath = \"umts\"\nduration_s = 5.0\n\
               [[flow]]\nlabel = \"video\"\nkind = \"adaptive_video\"\nframe_bytes = 1200\n\
               path = \"umts\"\nduration_s = 5.0\n";
        let pack = Pack::parse(&text).unwrap();
        assert_eq!(pack.flows[1].kind, FlowKind::TcpBulk { mss_bytes: 1_024 });
        assert_eq!(pack.flows[2].kind, FlowKind::AdaptiveVideo { frame_bytes: 1_200 });
    }

    #[test]
    fn trace_replay_requires_a_trace_section() {
        let flow = "[[flow]]\nlabel = \"replay\"\nkind = \"trace_replay\"\nrate_bps = 200000\n\
                    payload_bytes = 512\npath = \"ethernet\"\nduration_s = 5.0\n";
        let err = Pack::parse(&(minimal() + flow)).unwrap_err();
        assert!(err.message.contains("requires a [trace] section"), "{err}");
        let ok = minimal() + "[trace]\nfile = \"traces/drive.csv\"\n" + flow;
        let pack = Pack::parse(&ok).unwrap();
        assert_eq!(pack.trace.as_ref().unwrap().file, "traces/drive.csv");
        assert_eq!(
            pack.flows[1].kind,
            FlowKind::TraceReplay { rate_bps: 200_000, payload_bytes: 512 }
        );
    }

    #[test]
    fn trace_file_path_is_sanitized() {
        for bad in ["/etc/passwd", "../secrets.csv", "a/../b.csv"] {
            let text = minimal() + &format!("[trace]\nfile = \"{bad}\"\n");
            let err = Pack::parse(&text).unwrap_err();
            assert!(err.message.contains("relative path"), "{bad}: {err}");
        }
    }

    #[test]
    fn bursty_preset_and_custom_fault_decode() {
        let preset = minimal() + "[topology.fault]\npreset = \"bursty_umts\"\n";
        assert_eq!(Pack::parse(&preset).unwrap().topology.fault, FaultSpec::BurstyUmts);
        let custom = minimal()
            + "[topology.fault]\npreset = \"custom\"\nloss = \"gilbert_elliott\"\n\
               p_gb = 0.004\np_bg = 0.25\nloss_good = 0.001\nloss_bad = 0.45\n\
               reorder_prob = 0.01\nreorder_delay_s = 0.02\n";
        match Pack::parse(&custom).unwrap().topology.fault {
            FaultSpec::Custom(c) => {
                assert_eq!(
                    c.loss,
                    LossModel::GilbertElliott {
                        p_gb: 0.004,
                        p_bg: 0.25,
                        loss_good: 0.001,
                        loss_bad: 0.45
                    }
                );
                assert_eq!(c.reorder_prob, 0.01);
                assert_eq!(c.reorder_delay, Duration::from_millis(20));
            }
            other => panic!("expected custom fault, got {other:?}"),
        }
    }
}
