//! SLO-driven admission control: per-function reserved/burst concurrency
//! and a graceful load-shedding ladder.
//!
//! Every function gets a *reserved* concurrency floor it can always use
//! plus a *burst* allowance above it. When the host itself saturates
//! (total in-flight work at or over `host_concurrency`), the ladder
//! engages before anything is rejected outright:
//!
//! 1. **Revoke burst for low-priority traffic** — priority-0 functions
//!    fall back to their reserved floor, so the long tail is squeezed
//!    first while the hot head keeps its burst room.
//! 2. **Degrade restores under memory pressure** — when the warm-instance
//!    count crosses `memory_pressure_instances`, admitted cold starts are
//!    flagged for a *lazy-paging* restore instead of a REAP prefetch:
//!    slower for that invocation, but no prefetch burst on an
//!    already-pressured host.
//! 3. **Shed** — only an arrival that exceeds its function's effective
//!    concurrency limit is rejected, and counted in `admission.shed`.
//!
//! The controller is host-local state driven only by arrival times and
//! completed-latency commits, so it composes with the fleet's
//! shared-nothing determinism contract: no clocks, no randomness.

use luke_common::SimError;
use std::sync::Arc;

/// Admission-control knobs. [`AdmissionConfig::disabled`] (the default)
/// is bit-transparent: no controller is constructed and no `admission.*`
/// series are exported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// Per-function concurrency floor that is never revoked.
    pub reserved_concurrency: u32,
    /// Extra per-function concurrency above the floor, revocable for
    /// low-priority functions when the host saturates.
    pub burst_concurrency: u32,
    /// Host-wide in-flight invocations at which the shedding ladder
    /// engages.
    pub host_concurrency: u32,
    /// Warm-instance count above which admitted cold starts degrade to
    /// lazy-paging restores (0 = never degrade).
    pub memory_pressure_instances: usize,
}

impl AdmissionConfig {
    /// The disabled sentinel: admit everything, export nothing.
    pub fn disabled() -> Self {
        AdmissionConfig {
            enabled: false,
            reserved_concurrency: 0,
            burst_concurrency: 0,
            host_concurrency: 0,
            memory_pressure_instances: 0,
        }
    }

    /// Validates the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.enabled {
            return Ok(());
        }
        if self.host_concurrency == 0 {
            return Err(SimError::invalid_config(
                "admission.host_concurrency",
                "host-wide concurrency must be at least 1 when admission is enabled",
            ));
        }
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What to do with one arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run it normally.
    Admit,
    /// Run it, but degrade any cold-start restore to lazy paging (the
    /// ladder's memory-pressure rung).
    AdmitDegraded,
    /// Reject it outright (the ladder's last rung).
    Shed,
}

/// Host-local admission state: the in-flight invocations plus the
/// shed/degrade tallies. Purely arrival-driven — see the module docs.
#[derive(Clone, Debug)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    /// Per-function priority class (0 = lowest; loses burst first),
    /// shared read-only by every host of a run.
    priorities: Arc<[u8]>,
    /// Outstanding invocations as `(end_ms, function)` pairs; expired
    /// lazily on each arrival. In-flight counts are tiny (per-host rate ×
    /// per-invocation latency), so a flat scan stays cheap — and it
    /// doubles as the per-function count, so the controller keeps no
    /// table sized by the population.
    inflight: Vec<(f64, usize)>,
    admitted: u64,
    degraded_restores: u64,
    shed: u64,
}

impl AdmissionControl {
    /// Builds a controller for `priorities.len()` functions.
    pub fn new(config: AdmissionConfig, priorities: Arc<[u8]>) -> Self {
        AdmissionControl {
            config,
            priorities,
            inflight: Vec::new(),
            admitted: 0,
            degraded_restores: 0,
            shed: 0,
        }
    }

    /// Drops every in-flight entry that ended at or before `now_ms` and
    /// returns how many of the survivors belong to `function`.
    fn expire(&mut self, now_ms: f64, function: usize) -> u32 {
        let mut count = 0;
        self.inflight.retain(|&(end_ms, owner)| {
            let live = end_ms > now_ms;
            count += u32::from(live && owner == function);
            live
        });
        count
    }

    /// Walks the shedding ladder for one arrival of `function` at
    /// `now_ms` on a host currently holding `warm_instances` warm
    /// containers.
    pub fn decide(
        &mut self,
        now_ms: f64,
        function: usize,
        warm_instances: usize,
    ) -> AdmissionDecision {
        let count = self.expire(now_ms, function);
        let saturated = self.inflight.len() as u32 >= self.config.host_concurrency;
        let mut limit = self.config.reserved_concurrency + self.config.burst_concurrency;
        if saturated && self.priorities[function] == 0 {
            // Rung 1: the low-priority tail loses its burst allowance.
            limit = self.config.reserved_concurrency;
        }
        if count >= limit {
            // Rung 3: over the effective limit — shed.
            self.shed += 1;
            return AdmissionDecision::Shed;
        }
        self.admitted += 1;
        if self.config.memory_pressure_instances > 0
            && warm_instances >= self.config.memory_pressure_instances
        {
            // Rung 2: admitted, but restores must not prefetch.
            return AdmissionDecision::AdmitDegraded;
        }
        AdmissionDecision::Admit
    }

    /// Records an admitted invocation's occupancy: it holds one
    /// concurrency slot from `now_ms` until `now_ms + latency_ms`.
    pub fn commit(&mut self, now_ms: f64, function: usize, latency_ms: f64) {
        self.inflight.push((now_ms + latency_ms, function));
    }

    /// Notes that an admitted-degraded cold start actually took the
    /// lazy-paging path (hosts only call this when a restore existed to
    /// degrade).
    pub fn note_degraded_restore(&mut self) {
        self.degraded_restores += 1;
    }

    /// Arrivals admitted (including degraded ones).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Cold starts that actually restored via lazy paging because of the
    /// memory-pressure rung.
    pub fn degraded_restores(&self) -> u64 {
        self.degraded_restores
    }

    /// Arrivals rejected by the last rung.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            reserved_concurrency: 1,
            burst_concurrency: 2,
            host_concurrency: 4,
            memory_pressure_instances: 0,
        }
    }

    #[test]
    fn disabled_config_validates_and_is_default() {
        assert_eq!(AdmissionConfig::default(), AdmissionConfig::disabled());
        assert!(AdmissionConfig::disabled().validate().is_ok());
        let bad = AdmissionConfig {
            enabled: true,
            host_concurrency: 0,
            ..config()
        };
        let err = bad.validate().unwrap_err();
        assert!(format!("{err}").contains("admission.host_concurrency"));
    }

    #[test]
    fn per_function_limit_sheds_above_reserved_plus_burst() {
        let mut ctl = AdmissionControl::new(config(), Arc::from([2, 0]));
        // Three concurrent invocations of function 0 fit (1 reserved + 2
        // burst); the fourth is shed.
        for i in 0..3 {
            assert_eq!(ctl.decide(0.0, 0, 0), AdmissionDecision::Admit, "{i}");
            ctl.commit(0.0, 0, 100.0);
        }
        assert_eq!(ctl.decide(0.0, 0, 0), AdmissionDecision::Shed);
        assert_eq!(ctl.shed(), 1);
        // Once the in-flight work drains, the same function is admitted
        // again.
        assert_eq!(ctl.decide(200.0, 0, 0), AdmissionDecision::Admit);
    }

    #[test]
    fn saturation_revokes_burst_for_low_priority_only() {
        let cfg = AdmissionConfig {
            host_concurrency: 2,
            ..config()
        };
        let mut ctl = AdmissionControl::new(cfg, Arc::from([2, 0]));
        // Saturate the host with the high-priority function.
        ctl.commit(0.0, 0, 1_000.0);
        ctl.commit(0.0, 0, 1_000.0);
        // Low-priority function 1 has one slot in flight: its burst is
        // revoked, so the reserved floor of 1 is already full.
        ctl.commit(0.0, 1, 1_000.0);
        assert_eq!(ctl.decide(1.0, 1, 0), AdmissionDecision::Shed);
        // The high-priority function keeps its burst under saturation.
        assert_eq!(ctl.decide(1.0, 0, 0), AdmissionDecision::Admit);
    }

    #[test]
    fn memory_pressure_degrades_before_shedding() {
        let cfg = AdmissionConfig {
            memory_pressure_instances: 5,
            ..config()
        };
        let mut ctl = AdmissionControl::new(cfg, Arc::from([1]));
        assert_eq!(ctl.decide(0.0, 0, 4), AdmissionDecision::Admit);
        assert_eq!(ctl.decide(0.0, 0, 5), AdmissionDecision::AdmitDegraded);
        assert_eq!(ctl.admitted(), 2);
        assert_eq!(ctl.shed(), 0);
    }
}
