//! # umtslab-ditg — the D-ITG-style traffic generator and decoder
//!
//! A faithful stand-in for the Distributed Internet Traffic Generator the
//! paper uses for its measurements:
//!
//! * [`process`] — IDT and PS stochastic processes over the distribution
//!   family D-ITG supports (constant, uniform, exponential, normal,
//!   Pareto, Cauchy);
//! * [`flow`] — flow specifications, including the paper's two presets
//!   ([`flow::FlowSpec::voip_g711`] and [`flow::FlowSpec::cbr_1mbps`]);
//! * [`agent`] — the probe endpoint (one header, packet and log path for
//!   every sender) and the sender/receiver pair with echo probes for RTT;
//! * [`decode`] — the ITGDec equivalent: bitrate / jitter / loss / RTT
//!   over non-overlapping 200 ms windows, plus whole-flow summaries.
//!
//! ## Example
//!
//! ```
//! use umtslab_ditg::flow::FlowSpec;
//! use umtslab_sim::SimRng;
//!
//! // The paper's VoIP preset: G.711-like, 50 pps — a constant IDT process.
//! let spec = FlowSpec::voip_g711();
//! assert_eq!(spec.label, "voip-g711-72kbps");
//! let mut rng = SimRng::seed_from_u64(1);
//! let idt = spec.idt.sample(&mut rng);
//! assert_eq!(idt.total_micros(), 20_000); // 50 packets per second
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod decode;
pub mod flow;
pub mod process;

pub use agent::{Probe, RecvRecord, RttRecord, SentRecord, TrafficReceiver, TrafficSender};
pub use decode::{Decoder, FlowSummary, TimeSeries, WindowStat};
pub use flow::{FlowSpec, VoipCodec};
pub use process::{Distribution, IdtProcess, PsProcess};
