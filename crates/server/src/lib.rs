//! Serverless-host model: warm instances, invocation traffic, keep-alive
//! and the interleaving that makes invocations *lukewarm* (§2.2).
//!
//! A cloud server keeps thousands of function instances warm
//! (memory-resident) for minutes while their invocations arrive seconds or
//! minutes apart. Between two invocations of a given instance, hundreds of
//! other invocations run on the same core and obliterate its
//! microarchitectural state. This crate models that environment:
//!
//! * [`iat`] — inter-arrival-time distributions (fixed and exponential,
//!   the Azure-trace-like traffic of §2.1);
//! * [`fault`] — seeded, deterministic fault injection (instance crashes,
//!   timeouts, cold-start failures, memory-pressure evictions), bounded
//!   retry with exponential backoff, and token-bucket retry budgets;
//! * [`admission`] — SLO-driven admission control: reserved/burst
//!   concurrency per function and a graceful load-shedding ladder;
//! * [`pool`] — the warm-instance pool with a provider keep-alive policy;
//! * [`interleave`] — the state-decay model: how much of each cache level
//!   survives an idle gap, given the host's invocation rate and footprint
//!   mix (drives the Figure 1 IAT sweep);
//! * [`traffic`] — a host-level invocation-event generator for
//!   server-scale simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod fault;
pub mod iat;
pub mod interleave;
pub mod pool;
pub mod traffic;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionDecision};
pub use fault::{
    AttemptCosts, FaultKind, FaultPlan, FaultRates, FaultStats, InvocationResult, RetryBudget,
    RetryPolicy,
};
pub use iat::IatDistribution;
pub use interleave::InterleaveModel;
pub use pool::InstancePool;
pub use traffic::{InvocationEvent, TrafficGenerator};
