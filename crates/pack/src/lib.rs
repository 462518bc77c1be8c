//! umtslab-pack: declarative experiment packs.
//!
//! A *pack* is a single TOML-subset document that fully describes one
//! experiment on the paper's two-node PlanetLab testbed — topology,
//! slices and their `umts` vsys ACL grants, flows, UMTS operator/device,
//! an optional session-fault campaign, the seed scheme, and the golden
//! metrics the run is expected to reproduce. This crate provides:
//!
//! - a hand-rolled, span-reporting TOML-subset reader ([`lexer`],
//!   [`parser`]) and the typed schema decode ([`schema`]);
//! - a byte-deterministic canonical serializer ([`canon`]) with the
//!   hard round-trip guarantee
//!   `serialize(parse(d)) == serialize(parse(serialize(parse(d))))`
//!   for every valid document `d` — property-tested against seeded
//!   random packs ([`gen`]);
//! - compilation onto the existing experiment machinery ([`mod@compile`]),
//!   sequential seeded execution ([`exec`]), and golden-result
//!   regression diffing with per-metric tolerances ([`golden`]);
//! - catalog loading and rendering for `runner packs --list`
//!   ([`catalog`]).
//!
//! No external dependencies: like the linter's report writer, every
//! byte this crate emits is produced by hand so that equal inputs give
//! equal bytes on every platform.

pub mod canon;
pub mod catalog;
pub mod compile;
pub mod exec;
pub mod gen;
pub mod golden;
pub mod lexer;
pub mod parser;
pub mod schema;

pub use canon::serialize;
pub use catalog::{load_catalog, render_json, render_table, CatalogEntry};
pub use compile::compile;
pub use exec::{
    diff, execute, load_trace, metric_value, plan, record, run_one, ExecutedPack, RunOutcome,
};
pub use gen::random_pack;
pub use golden::{diff_goldens, render_diff_table, Golden, GoldenDiff, Metric};
pub use lexer::{ParseError, Span};
pub use schema::Pack;
