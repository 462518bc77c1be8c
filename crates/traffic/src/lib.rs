//! umtslab-traffic: trace-driven link models, adaptive senders and a
//! congestion-controlled flow library.
//!
//! This crate grows the testbed's workload vocabulary beyond open-loop
//! D-ITG probe flows, in three pieces:
//!
//! * [`trace`] — a zero-dependency recorded-trace format (CSV)
//!   describing time-varying link capacity and loss, parsed into
//!   integer [`umtslab_net::link::LinkSegment`]s and installed on a `net`
//!   pipe as a [`umtslab_net::link::LinkSchedule`]. The serializer is canonical:
//!   `serialize(parse(t))` is a fixed point, the same round-trip
//!   discipline the pack format uses.
//! * [`adaptive`] — a deterministic video-like [`AdaptiveSender`] that
//!   walks a bitrate ladder on delivered-rate feedback.
//! * [`tcp`] — a TCP-ish congestion-controlled [`TcpFlow`] (slow start,
//!   congestion avoidance, fast retransmit, Karn/Jacobson RTO) speaking
//!   the D-ITG probe wire format, with strictly integer state.
//!
//! [`scenario`] packages the FACH/DCH switching-policy presets for the
//! INRIA experiment; the closed-loop orchestration against a
//! `UmtsAttachment` lives in the `umtslab` core crate.
//!
//! Everything here obeys the workspace determinism rules: integer
//! microsecond time, no wall clock, no hash-order iteration, and the
//! only RNG use is the link schedule's loss draw inside `net` itself.

pub mod adaptive;
pub mod scenario;
pub mod tcp;
pub mod trace;

pub use adaptive::{AdaptiveConfig, AdaptiveSender, LevelChange};
pub use scenario::{report_hash, PolicyReport, SwitchingPolicy};
pub use tcp::{TcpConfig, TcpFlow, TcpStats};
pub use trace::{fmt_secs, Trace, TraceError, MAX_LOSS_PPM};
