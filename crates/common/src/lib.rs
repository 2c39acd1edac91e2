//! Shared primitives for the `lukewarm` workspace.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! reproduction of *Lukewarm Serverless Functions: Characterization and
//! Optimization* (ISCA '22):
//!
//! * [`addr`] — strongly-typed virtual/physical addresses and the cache-line,
//!   page and code-region arithmetic the simulator performs constantly;
//! * [`error`] — the [`SimError`] type returned by validated constructors
//!   throughout the workspace, so invalid configurations surface as clean
//!   errors (and CLI exit codes) rather than panics;
//! * [`rng`] — deterministic, splittable random-number generation so that
//!   every experiment is exactly reproducible from a single seed;
//! * [`stats`] — the statistics the paper reports (arithmetic/geometric
//!   means, percentiles, the Jaccard index used in Figure 6b);
//! * [`size`] — human-readable byte-size formatting for tables.
//!
//! # Examples
//!
//! ```
//! use luke_common::addr::{VirtAddr, LINE_BYTES};
//!
//! let pc = VirtAddr::new(0x7f00_1234);
//! assert_eq!(pc.line().base().as_u64() % LINE_BYTES as u64, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod rng;
pub mod size;
pub mod stats;

pub use addr::{LineAddr, PhysAddr, VirtAddr, LINE_BYTES, PAGE_BYTES};
pub use error::SimError;
pub use rng::DetRng;
pub use stats::Summary;
