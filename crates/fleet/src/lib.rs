//! luke-fleet: a cluster-scale fleet simulator with deterministic
//! parallel sharding.
//!
//! The paper characterizes *one* lukewarm host; this crate scales the
//! question up to a fleet. N hosts — each an instance pool with
//! keep-alive, an optional fault plan, and a per-host
//! interleaving-degree estimate that prices warm hits through the
//! cache-decay model — sit behind a load balancer with pluggable
//! routing ([`RoutingPolicy`]): round-robin, least-loaded,
//! keep-alive-aware consistent hashing, or tenancy placement-aware
//! scoring. Traffic is a Zipf-skewed population of deployed functions
//! mapped onto the 20-function paper suite, driven as Poisson arrival
//! lanes. Cold starts are priced by a
//! pluggable [`ColdStartModel`]: a flat boot cost (`Instant`), a
//! lazily-paged snapshot restore, or a REAP-style prefetch of the
//! recorded page working set (see the `luke-snapshot` crate).
//!
//! The headline property is **deterministic parallelism**: host shards
//! run across `std::thread::scope` workers, yet a 1-thread run is
//! bit-identical to an N-thread run — same telemetry snapshot, same
//! latency histogram, same exported JSON. See the `run` module docs for
//! the three-phase argument (sequential route, shared-nothing process,
//! ordered merge) and `tests/fleet_determinism.rs` for the proof.
//!
//! # Examples
//!
//! ```
//! use luke_fleet::{run_fleet_pair, FleetConfig, RoutingPolicy, ServiceModel};
//!
//! let config = FleetConfig {
//!     hosts: 4,
//!     invocations: 2_000,
//!     population: 40,
//!     policy: RoutingPolicy::KeepAliveAware,
//!     ..FleetConfig::default()
//! };
//! let model = ServiceModel::analytic(&workloads::paper_suite()).expect("suite is valid");
//! let pair = run_fleet_pair(&config, &model).expect("config is valid");
//! assert!(pair.speedup() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod event;
pub mod health;
pub mod host;
pub mod route;
pub mod run;
pub mod tenant;
pub mod timing;
pub mod traffic;

pub use chaos::{ChaosConfig, ChaosPlan, HostSchedule, HostState};
pub use config::FleetConfig;
pub use event::{CalendarQueue, FleetEvent, FleetEventKind};
pub use health::{HealthConfig, HealthStatus, HealthView};
pub use host::{admission_priorities, FleetHost, HedgeOutcome, RoutedInvocation};
pub use luke_predict::PrewarmConfig;
pub use luke_snapshot::{ColdStartModel, SnapshotTimings};
pub use luke_tenancy::{ContentionConfig, TenancyConfig};
pub use route::{HedgeConfig, RouteDecision, Router, RoutingPolicy};
pub use run::{run_fleet, run_fleet_pair, FleetComparison, FleetRun, HostSummary};
pub use server::{AdmissionConfig, RetryBudget};
pub use tenant::HostTenancy;
pub use timing::{FunctionTiming, ServiceModel, FREQ_GHZ};
pub use traffic::{ArrivalStream, Population, SurgeConfig, SurgeTraffic};
