//! Deterministic health checking: probe-driven circuit breakers per host.
//!
//! The front end probes every host on a fixed interval. A probe fails
//! while the host is down or degraded (per the chaos timeline);
//! `failure_threshold` consecutive failures open the breaker
//! ([`HealthStatus::Unhealthy`]) and the router fails over around the
//! host. Once a probe succeeds again the breaker goes *half-open* — the
//! router may send traffic, but hedges it — and `recovery_threshold`
//! consecutive successes close it fully.
//!
//! The view is advanced to each arrival's timestamp during the
//! *sequential* routing phase, so its state is a pure function of the
//! config and arrival order — no wall clocks, no background threads, and
//! therefore no thread-count dependence.

use luke_common::SimError;

use crate::chaos::{ChaosPlan, HostState};

/// Health-probe knobs (always present on the config; only consulted when
/// chaos is enabled, so the defaults are bit-transparent otherwise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// Interval between probe rounds, ms.
    pub probe_interval_ms: f64,
    /// Consecutive failed probes that open the breaker.
    pub failure_threshold: u32,
    /// Consecutive successful probes that close a half-open breaker.
    pub recovery_threshold: u32,
}

impl Default for HealthConfig {
    /// Probe every 500ms; 2 failures open, 2 successes close.
    fn default() -> Self {
        HealthConfig {
            probe_interval_ms: 500.0,
            failure_threshold: 2,
            recovery_threshold: 2,
        }
    }
}

impl HealthConfig {
    /// Validates the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.probe_interval_ms > 0.0 && self.probe_interval_ms.is_finite()) {
            return Err(SimError::invalid_config(
                "health.probe_interval_ms",
                format!(
                    "must be positive and finite, got {}",
                    self.probe_interval_ms
                ),
            ));
        }
        if self.failure_threshold == 0 {
            return Err(SimError::invalid_config(
                "health.failure_threshold",
                "at least one failed probe must be required",
            ));
        }
        if self.recovery_threshold == 0 {
            return Err(SimError::invalid_config(
                "health.recovery_threshold",
                "at least one successful probe must be required",
            ));
        }
        Ok(())
    }
}

/// A host's breaker state as the front end sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// Closed breaker: route normally.
    Healthy,
    /// Recovering: routable, but a hedge candidate.
    HalfOpen,
    /// Open breaker: fail over around this host.
    Unhealthy,
}

#[derive(Clone, Copy, Debug)]
struct Breaker {
    status: HealthStatus,
    consecutive_failures: u32,
    consecutive_successes: u32,
}

/// The front end's deterministic view of every host's health.
#[derive(Clone, Debug)]
pub struct HealthView {
    config: HealthConfig,
    breakers: Vec<Breaker>,
    /// Probe rounds already processed (round k fires at k × interval).
    rounds_done: u64,
}

impl HealthView {
    /// A view over `hosts` hosts, all initially healthy.
    pub fn new(hosts: usize, config: HealthConfig) -> Self {
        HealthView {
            config,
            breakers: vec![
                Breaker {
                    status: HealthStatus::Healthy,
                    consecutive_failures: 0,
                    consecutive_successes: 0,
                };
                hosts
            ],
            rounds_done: 0,
        }
    }

    /// Processes every probe round due at or before `now_ms` against the
    /// chaos timeline. Probes observe the *scheduled* state: down and
    /// degraded hosts fail their probes.
    pub fn advance_to(&mut self, now_ms: f64, plan: &ChaosPlan) {
        loop {
            let next_round = self.rounds_done + 1;
            let t = next_round as f64 * self.config.probe_interval_ms;
            if t > now_ms {
                return;
            }
            for (host, breaker) in self.breakers.iter_mut().enumerate() {
                let ok = plan.state_at(host, t) == HostState::Up;
                if ok {
                    breaker.consecutive_failures = 0;
                    breaker.consecutive_successes += 1;
                    match breaker.status {
                        HealthStatus::Unhealthy => {
                            breaker.status = HealthStatus::HalfOpen;
                            breaker.consecutive_successes = 1;
                        }
                        HealthStatus::HalfOpen
                            if breaker.consecutive_successes >= self.config.recovery_threshold =>
                        {
                            breaker.status = HealthStatus::Healthy;
                        }
                        _ => {}
                    }
                } else {
                    breaker.consecutive_successes = 0;
                    breaker.consecutive_failures += 1;
                    if breaker.consecutive_failures >= self.config.failure_threshold {
                        breaker.status = HealthStatus::Unhealthy;
                    }
                }
            }
            self.rounds_done = next_round;
        }
    }

    /// Host `h`'s breaker status.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn status(&self, h: usize) -> HealthStatus {
        self.breakers[h].status
    }

    /// Hosts currently not `Unhealthy`.
    pub fn routable_count(&self) -> usize {
        self.breakers
            .iter()
            .filter(|b| b.status != HealthStatus::Unhealthy)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::HostSchedule;

    /// Host 0 is down 10s–15s; host 1 never misbehaves.
    fn crashing_plan() -> ChaosPlan {
        ChaosPlan::from_schedules(vec![
            HostSchedule::explicit(&[(10_000.0, 15_000.0)], &[]),
            HostSchedule::none(),
        ])
    }

    #[test]
    fn default_health_config_is_valid_and_bad_knobs_are_named() {
        assert!(HealthConfig::default().validate().is_ok());
        for (config, field) in [
            (
                HealthConfig {
                    probe_interval_ms: 0.0,
                    ..HealthConfig::default()
                },
                "health.probe_interval_ms",
            ),
            (
                HealthConfig {
                    failure_threshold: 0,
                    ..HealthConfig::default()
                },
                "health.failure_threshold",
            ),
            (
                HealthConfig {
                    recovery_threshold: 0,
                    ..HealthConfig::default()
                },
                "health.recovery_threshold",
            ),
        ] {
            let err = config.validate().unwrap_err();
            assert!(format!("{err}").contains(field), "{err}");
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let plan = crashing_plan();
        let mut view = HealthView::new(2, HealthConfig::default());
        // Probes every 500ms; the outage spans 10s–15s.
        view.advance_to(9_999.0, &plan);
        assert_eq!(view.status(0), HealthStatus::Healthy);
        // Two failed probes (10.5s, 11s) open the breaker.
        view.advance_to(11_001.0, &plan);
        assert_eq!(view.status(0), HealthStatus::Unhealthy);
        assert_eq!(view.status(1), HealthStatus::Healthy);
        assert_eq!(view.routable_count(), 1);
        // First success after recovery (15s probe) half-opens it.
        view.advance_to(15_100.0, &plan);
        assert_eq!(view.status(0), HealthStatus::HalfOpen);
        // The second success closes it.
        view.advance_to(15_600.0, &plan);
        assert_eq!(view.status(0), HealthStatus::Healthy);
    }

    #[test]
    fn advancing_in_pieces_equals_advancing_at_once() {
        let plan = crashing_plan();
        for target in [10_700.0, 12_000.0, 15_200.0, 30_000.0] {
            let mut stepped = HealthView::new(2, HealthConfig::default());
            let mut jumped = HealthView::new(2, HealthConfig::default());
            let mut t = 0.0f64;
            while t < target {
                t = (t + 137.0).min(target);
                stepped.advance_to(t, &plan);
            }
            jumped.advance_to(target, &plan);
            for h in 0..2 {
                assert_eq!(stepped.status(h), jumped.status(h), "host {h} at {target}");
            }
        }
    }

    #[test]
    fn empty_plan_keeps_everyone_healthy() {
        let mut view = HealthView::new(4, HealthConfig::default());
        view.advance_to(1e7, &ChaosPlan::none());
        assert_eq!(view.routable_count(), 4);
    }
}
