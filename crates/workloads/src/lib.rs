//! Synthetic serverless-function suite calibrated to the lukewarm-functions
//! characterization (§2 of the paper).
//!
//! The paper evaluates 20 containerized functions (Table 2) spanning three
//! language runtimes. This crate substitutes each with a **synthetic
//! function**: a deterministic, seeded static code layout plus a canonical
//! control-flow walk whose per-invocation traces reproduce the stream-level
//! properties the paper measures — the properties that determine how an
//! instruction prefetcher behaves:
//!
//! * per-invocation instruction footprints of 300–800KB (Figure 6a);
//! * ≥0.9 mean Jaccard commonality of footprints across invocations
//!   (Figure 6b), from a stable core walk plus per-invocation optional
//!   paths;
//! * per-language code-region density — compiled Go code is spatially
//!   dense, interpreter/JIT code (Python, NodeJS) is scattered — which is
//!   what makes Jukebox's spatial metadata compact for Go and
//!   storage-hungry for Python/NodeJS (Figures 8 and 11);
//! * stable temporal order across invocations (record-and-replay works)
//!   with stochastic divergences (stream-following prefetchers like PIF
//!   must re-index);
//! * realistic instruction mix: loads/stores over a hot/medium/cold data
//!   space, biased conditional branches, call/return pairs through a
//!   dispatcher (the gRPC event loop).
//!
//! # Examples
//!
//! ```
//! use workloads::{FunctionProfile, SyntheticFunction};
//!
//! let profile = FunctionProfile::named("Auth-G").expect("in the suite").scaled(0.05);
//! let function = SyntheticFunction::build(&profile);
//! let trace = function.invocation_trace(0);
//! assert!(!trace.is_empty());
//! // Deterministic: the same invocation index yields the same trace.
//! assert_eq!(trace.len(), function.invocation_trace(0).len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_space;
pub mod footprint;
pub mod function;
pub mod language;
pub mod layout;
pub mod profile;
pub mod stressor;
pub mod trace;
pub mod workflow;

pub use function::SyntheticFunction;
pub use language::Language;
pub use profile::{paper_suite, paper_traffic_weights, FunctionProfile, InstructionMix};
