//! umtslab-perfbench: the repository's benchmark.
//!
//! One command runs one workload from a seed and prints every end-to-end
//! metric by name and unit, the output checks, and — as its last line —
//! one JSON object. A traced run (`--trace 1`) prints the per-layer
//! metrics instead and writes its spans to `perfbench/out/`. See
//! `perfbench/README.md` for the metric definitions, the layer →
//! end-to-end map and why each workload is in the benchmark.
//!
//! The benchmark reaches the simulator only through the public API of
//! the `umtslab` and `umtslab-runner` crates. All traffic is simulated
//! in-process; no real link or loopback interface is crossed.

pub mod bench;
pub mod fleet;
pub mod micro;
pub mod paper;
pub mod rep;
pub mod span;
pub mod stats;
pub mod tcp;

pub use bench::{run, Args, Outcome, Workload};
pub use rep::Rep;
