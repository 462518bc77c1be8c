//! # umtslab-umts — the simulated UMTS (3G) access network
//!
//! Everything between a node's serial port and the operator's internet
//! edge:
//!
//! * [`serial`] — the baud-paced serial line to the 3G card;
//! * [`at`] — the modem's AT-command interpreter with two device profiles
//!   (Option Globetrotter GT+ 3G and Huawei E620, the cards the paper
//!   supports);
//! * [`ppp`] — a complete PPP implementation: HDLC framing with FCS-16,
//!   the RFC 1661 negotiation automaton, LCP, PAP and IPCP, and the
//!   phase-composed session endpoint;
//! * [`rrc`] — the radio resource controller with on-demand grant
//!   upgrades (the mechanism behind the paper's Figure 4 knee);
//! * [`bearer`] — TTI-paced radio bearers with deep buffers, jitter and
//!   RLC retransmissions;
//! * [`operator`] — operator profiles (commercial vs. private micro-cell),
//!   address pools and the GGSN conntrack firewall;
//! * [`attachment`] — the integrated dial-up workflow and data path.
//!
//! ## Example
//!
//! ```
//! use umtslab_umts::ppp::frame::{encode_frame, protocol, Deframer};
//!
//! // HDLC-frame an IPv4 payload and recover it byte-for-byte.
//! let payload = vec![0x45, 0x00, 0x7e, 0x7d, 0xff];
//! let wire = encode_frame(protocol::IPV4, &payload);
//! let mut deframer = Deframer::new();
//! let frames = deframer.feed(&wire);
//! assert_eq!(frames.len(), 1);
//! assert_eq!(frames[0].protocol, protocol::IPV4);
//! assert_eq!(frames[0].payload, payload);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod at;
pub mod attachment;
pub mod bearer;
#[cfg(test)]
mod hostile;
pub mod operator;
pub mod ppp;
pub mod rrc;
pub mod serial;

pub use at::{DeviceModel, DeviceProfile, Modem, ModemMode, ModemOutput, NetworkSignal, RegStatus};
pub use attachment::{
    DialError, DownlinkOutcome, SessionFault, UmtsAttachment, UmtsData, UmtsEvent, UmtsPollOutput,
    UplinkOutcome,
};
pub use bearer::{BearerConfig, BearerStats, UmtsBearer};
pub use operator::{AddressPool, Conntrack, OperatorProfile};
pub use ppp::{Credentials, PppEndpoint, PppEvent, PppPhase, PppServerConfig};
pub use rrc::{BearerGrant, RrcConfig, RrcController, RrcDwell, RrcEvent, RrcState};
pub use serial::{LineAssembler, SerialLine};
