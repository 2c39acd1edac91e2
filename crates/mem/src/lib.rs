//! Memory-hierarchy simulator for the lukewarm-functions reproduction.
//!
//! Models the cache/memory system of Table 1 in the paper: private L1-I and
//! L1-D, a private unified L2, a shared LLC, and a DRAM back-end with
//! latency and bandwidth accounting; plus I-/D-TLBs with a page-walk model
//! and a per-process page table.
//!
//! The hierarchy is **trace-driven and timestamped**: every access carries
//! the current core cycle, every fill records the cycle at which the line
//! becomes ready, and a demand access that races an in-flight prefetch pays
//! only the residual latency. That is the property that makes prefetcher
//! *timeliness* — the heart of the Jukebox-vs-PIF comparison (§5.5) —
//! observable in this model.
//!
//! # Examples
//!
//! ```
//! use sim_mem::config::HierarchyConfig;
//! use sim_mem::hierarchy::MemoryHierarchy;
//! use sim_mem::page_table::PageTable;
//! use luke_common::addr::VirtAddr;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
//! let mut pt = PageTable::new(0);
//! let line = VirtAddr::new(0x40_0000).line();
//! let phys = pt.translate_line(line);
//!
//! let cold = mem.fetch_instr(line, phys, 0);
//! let warm = mem.fetch_instr(line, phys, cold.latency);
//! assert!(warm.latency < cold.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dram;
mod fast_hash;
pub mod hierarchy;
pub mod mshr;
pub mod page_table;
pub mod prefetch;
pub mod stats;
pub mod tlb;

pub use config::{CacheConfig, DramConfig, HierarchyConfig, TlbConfig};
pub use hierarchy::{AccessOutcome, Level, MemoryHierarchy};
pub use page_table::PageTable;
pub use prefetch::{FetchObservation, InstructionPrefetcher, IssuerState, PrefetchIssuer};
