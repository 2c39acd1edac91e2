//! luke-tenancy: cross-function page sharing and multi-tenant
//! contention modeling.
//!
//! The paper's central finding is that lukewarm invocations pay for
//! re-fetching runtime and library code that co-resident functions in
//! the same language already have resident. This crate turns the
//! workload generator's per-language code layout into a data-plane
//! sharing model with two coupled subsystems:
//!
//! * **Content-addressed page sharing** — a shared page's identity is
//!   `(language, region, page index)`, named by the deterministic
//!   SplitMix64 [`content_key`] over that triple (the same
//!   integrity-fold machinery `luke-snapshot` uses for REAP metadata).
//!   Because the identity is the coordinates, [`SharedPageStore`] stores
//!   refcounts by coordinate — one `u32` column per (language slot,
//!   region), indexed by page — rather than by hash. Pages classify as
//!   shared-runtime / shared-library / private-data ([`PageClass`]), and
//!   the store does per-host copy-on-write resident-set accounting. Co-resident instances of same-language functions
//!   dedupe their shared pages, so snapshot restore pricing skips
//!   already-resident pages and pool memory accounting charges the
//!   deduped footprint.
//! * **Contention modeling** — [`ContentionModel`] converts a host's
//!   co-resident working-set pressure into a continuous slowdown factor
//!   on service time and page-fault cost: a pressure *curve* with a
//!   knee, not a binary flush.
//!
//! Both knobs follow the workspace contracts: [`TenancyConfig::disabled`]
//! is bit-transparent (a disabled fleet run is byte-identical to one
//! built before this crate existed), and every store operation is a
//! pure function of host-local state, so enabled fleet runs stay
//! thread-count invariant however the host shards are spread over
//! workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod contention;
pub mod hash;
pub mod layout;
pub mod store;

pub use config::{ContentionConfig, TenancyConfig};
pub use contention::ContentionModel;
pub use hash::{content_key, language_slot, PageClass};
pub use layout::FunctionLayout;
pub use store::{Registration, SharedPageStore};
