//! PPP: framing, option negotiation, authentication and session phases.
//!
//! The paper's integration work ships the PPP kernel modules
//! (`ppp_generic`, `ppp_async`, ...) into the PlanetLab kernel so that
//! `wvdial` can run a real PPP session over the 3G card. This module is the
//! simulation-side equivalent: a complete, testable PPP implementation —
//! HDLC-style framing with FCS-16 ([`frame`]), the RFC 1661 negotiation
//! automaton ([`fsm`]), LCP ([`lcp`]), PAP ([`pap`]) and IPCP ([`ipcp`])
//! policies, and the phase-composed session endpoint ([`endpoint`]).

pub mod endpoint;
pub mod frame;
pub mod fsm;
pub mod ipcp;
pub mod lcp;
pub mod pap;

pub use endpoint::{PppEndpoint, PppEvent, PppOutput, PppPhase, PppServerConfig};
pub use frame::{encode_frame, encode_frame_into, CpCode, CpOption, CpPacket, Deframer, PppFrame};
pub use fsm::{CpFsm, FsmConfig, FsmSignal, FsmState};
pub use pap::Credentials;
