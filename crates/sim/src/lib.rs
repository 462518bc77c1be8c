//! # umtslab-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `umtslab` workspace: a minimal,
//! allocation-light discrete-event simulation kernel in the spirit of
//! event-driven network stacks such as smoltcp. It provides:
//!
//! * [`time`] — microsecond-resolution [`time::Instant`] / [`time::Duration`]
//!   newtypes for the virtual timeline;
//! * [`event`] — a deterministic time-ordered [`event::EventQueue`] with
//!   FIFO tie-breaking and cancellation;
//! * [`rng`] — a forkable, seeded PRNG ([`rng::SimRng`]) with the samplers
//!   used across the workspace (uniform, exponential, normal, Pareto,
//!   Cauchy, Bernoulli);
//! * [`sched`] — the [`sched::Scheduler`] driver binding a clock to the
//!   queue, designed for an explicit caller-owned dispatch loop;
//! * [`fnv`] and [`json`] — the workspace's one determinism hash
//!   ([`Fnv1a`]) and one JSON writer ([`json::document`]).
//!
//! ## Determinism contract
//!
//! Given the same code, configuration, and master seed, every run produces
//! an identical event trace. The kernel guarantees its part of the contract
//! by (a) breaking equal-time ties in schedule order, and (b) deriving all
//! randomness from [`rng::SimRng::fork`] streams rather than shared global
//! state. Higher layers must not consult ambient sources (host clock, map
//! iteration order) on any simulated path.
//!
//! ## Example
//!
//! ```
//! use umtslab_sim::{EventQueue, Instant, SimRng};
//!
//! // Same seed, same draws — always.
//! let mut a = SimRng::seed_from_u64(7);
//! let mut b = SimRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Events pop in time order with FIFO tie-breaking.
//! let mut q = EventQueue::new();
//! q.schedule(Instant::from_millis(20), "late");
//! q.schedule(Instant::from_millis(10), "early");
//! assert_eq!(q.pop().unwrap().1, "early");
//! assert_eq!(q.pop().unwrap().1, "late");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fnv;
pub mod json;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod time;

pub use event::{EventHandle, EventQueue};
pub use fnv::Fnv1a;
pub use rng::SimRng;
pub use sched::Scheduler;
pub use shard::{drive, run_serial, window_ends, ShardScheduler};
pub use time::{serialization_time, Duration, Instant};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv1a::new();
        assert_eq!(h.digest(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.digest(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv1a::new();
        h2.update(b"foobar");
        assert_eq!(h2.digest(), 0x8594_4171_f739_67e8);
        let mut h3 = Fnv1a::new();
        h3.update_u64(0x0102_0304_0506_0708);
        let mut h4 = Fnv1a::new();
        h4.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(h3.digest(), h4.digest(), "u64s fold little-endian");
    }

    #[test]
    fn escape_json_handles_specials() {
        use crate::json::escape_json;
        assert_eq!(escape_json("plain ü"), "plain ü");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\r\t\u{1}"), "\\r\\t\\u0001");
    }
}
