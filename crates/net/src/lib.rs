//! # umtslab-net — packet-level network substrate
//!
//! The generic networking layer under the `umtslab` testbed simulator:
//!
//! * [`wire`] — IPv4 addresses/prefixes and checked wire-format views
//!   (smoltcp-style) with real checksums;
//! * [`bytes`] — refcounted, sliceable payload buffers ([`bytes::Bytes`])
//!   with deep-copy accounting, plus a [`bytes::BufferPool`];
//! * [`label`] — interned `Copy` string handles ([`label::Label`]) for
//!   trace places, node/slice names and metrics keys;
//! * [`packet`] — the structured [`packet::Packet`] carried through the
//!   simulator, serializable to honest IPv4+UDP bytes;
//! * [`iface`] — interface descriptors (`eth0`, `ppp0`);
//! * [`queue`] — drop-tail packet FIFOs;
//! * [`link`] — analytic point-to-point pipes with rate, delay, jitter and
//!   buffering;
//! * [`mailbox`] — deterministic cross-shard packet handoff with the
//!   canonical `(at, origin, seq)` merge order;
//! * [`fault`] — loss (Bernoulli / Gilbert–Elliott), corruption,
//!   duplication and reordering injection;
//! * [`route`] — multi-table routing with `iproute2`-style policy rules;
//! * [`filter`] — an `iptables`-style mark/accept/drop rule engine;
//! * [`trace`] — per-packet event logging for tests and analysis;
//! * [`pcap`] — libpcap capture files readable by Wireshark;
//! * [`icmp`] — ICMP echo (ping) messages.
//!
//! Everything here is deterministic given a seeded
//! [`umtslab_sim::SimRng`]; nothing touches the host network.
//!
//! ## Example
//!
//! ```
//! use umtslab_net::packet::{Packet, PacketIdAllocator};
//! use umtslab_net::wire::{Endpoint, Ipv4Address};
//! use umtslab_sim::Instant;
//!
//! // Build a UDP packet and round-trip it through honest IPv4 bytes.
//! let mut ids = PacketIdAllocator::new();
//! let p = Packet::udp(
//!     ids.allocate(),
//!     Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 5000),
//!     Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 5001),
//!     vec![0xAB; 32],
//!     Instant::ZERO,
//! );
//! let bytes = p.to_wire().unwrap();
//! let back = Packet::from_wire(&bytes, p.id, p.created).unwrap();
//! assert_eq!(back.payload, p.payload);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod fault;
pub mod filter;
pub mod icmp;
pub mod iface;
pub mod label;
pub mod link;
pub mod mailbox;
pub mod packet;
pub mod pcap;
pub mod queue;
pub mod route;
pub mod trace;
pub mod wire;

pub use bytes::{copy_counters, BufferPool, Bytes, CopyCounters};
pub use fault::{FaultConfig, FaultInjector, LossModel};
pub use filter::{
    Chain, ChainId, FilterKey, FilterMatch, FilterRule, FilterVerdict, Firewall, HookContext,
    Target,
};
pub use iface::{Iface, IfaceId, IfaceKind};
pub use label::Label;
pub use link::{
    Deliveries, DropReason, DuplexLink, JitterModel, LinkConfig, LinkStats, Pipe, PushOutcome,
};
pub use mailbox::{Handoff, HandoffKind, Inbox, Outbox};
pub use packet::{Mark, Packet, PacketId, PacketIdAllocator};
pub use queue::{PacketQueue, QueueStats};
pub use route::{
    FlowKey, PolicyRule, Rib, Route, RouteDecision, RoutingTable, RuleSelector, TableId,
};
pub use trace::{TraceEvent, TraceKind, TraceLog};
pub use wire::{Endpoint, Ipv4Address, Ipv4Cidr, Protocol, WireError};
