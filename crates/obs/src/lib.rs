//! Unified observability for the lukewarm simulation stack.
//!
//! Everything the paper's argument rests on is a counter or a timeline:
//! Top-Down CPI stacks (Fig. 2), MPKI breakdowns (Fig. 5), prefetch
//! coverage (Fig. 11), DRAM traffic categories (Fig. 12). This crate is
//! the single layer those numbers flow through:
//!
//! * [`registry`] — a metrics [`registry::Registry`] of typed counters,
//!   gauges and log-bucketed histograms under hierarchical dotted names
//!   (`mem.l2.instr.misses`, `replay.dropped_prefetches`), read out as
//!   deterministic snapshots;
//! * [`export`] — the [`export::Dataset`] table IR every experiment
//!   builds its result tables in once, and its three writers: the
//!   fixed-width text table, JSON and CSV;
//! * [`json`] — a dependency-free JSON writer *and* minimal parser (the
//!   build container has no `serde`), which doubles as the jq-free
//!   well-formedness checker used by CI and the golden tests;
//! * [`span`] — the single recording mechanism: a bounded
//!   [`span::SpanRing`] of causal [`span::Span`] trees, whose buffer
//!   grows lazily as spans arrive and never past its capacity,
//!   for sampled fleet invocations (route → admission → restore →
//!   execute → backoff, with exact tick-boundary critical paths) and for
//!   the cycle model's invocation lifecycle (dispatch → prefetch batch →
//!   fetch stalls → retire); a ring of capacity 0 records nothing and
//!   never allocates;
//! * [`series`] — fixed-window simulated-time series
//!   ([`series::TimeWindows`]): per-window latency percentiles, shed
//!   rate, SLO burn and cold/luke/warm mix with an associative merge;
//! * [`trace`] — Chrome `trace_event` / Perfetto timeline output for
//!   span forests ([`trace::chrome_trace_spans`]), in µs or cycles.
//!
//! The crate depends only on `luke-common`, so every simulator crate can
//! thread a registry through without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod registry;
pub mod series;
pub mod span;
pub mod trace;

pub use export::{Column, Dataset, Export, Value};
pub use hist::Histogram;
pub use registry::{Registry, Snapshot};
pub use series::{StartClass, TimeWindows, WindowRow, WindowStats};
pub use span::{Span, SpanKind, SpanRing, SpanScope};
