//! Fleet-level configuration and validation.

use crate::chaos::ChaosConfig;
use crate::health::HealthConfig;
use crate::route::{HedgeConfig, RoutingPolicy};
use crate::traffic::SurgeConfig;
use luke_common::SimError;
use luke_predict::PrewarmConfig;
use luke_snapshot::{ColdStartModel, SnapshotTimings};
use luke_tenancy::TenancyConfig;
use server::{AdmissionConfig, FaultRates, InstancePool, RetryBudget, RetryPolicy};

/// Configuration of one fleet run.
///
/// `threads` controls only how many workers the host shards are spread
/// across — it has **no effect on results**: a 1-thread run is
/// bit-identical to an N-thread run with the same config (asserted by
/// `tests/fleet_determinism.rs`).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of hosts behind the load balancer.
    pub hosts: usize,
    /// Worker threads the hosts are sharded across (results-neutral).
    /// The router may run on one more thread beside them: always with
    /// two or more workers, and with one when a core is spare
    /// (`luke_common::par::spare_core`).
    pub threads: usize,
    /// Total invocations synthesized fleet-wide.
    pub invocations: usize,
    /// Keep-alive window applied by every host's instance pool, ms.
    pub keep_alive_ms: f64,
    /// Front-end routing policy.
    pub policy: RoutingPolicy,
    /// Root seed; every random stream (traffic lanes, per-host fault
    /// plans) is split from it, so the whole fleet is a pure function of
    /// this value and the config.
    pub seed: u64,
    /// Number of *deployed* logical functions across the fleet. Each
    /// maps onto one of the 20 paper-suite performance profiles
    /// (`population % 20`); popularity follows the suite's Zipf-like
    /// traffic weights with a deterministic heavy-tail spread.
    pub population: usize,
    /// Mean invocation rate per host, in invocations per second. The
    /// fleet-wide arrival rate is `hosts × per_host_rate_per_sec`.
    pub per_host_rate_per_sec: f64,
    /// Fault-injection rates applied by every host (each host draws
    /// from its own split stream). All-zero means no fault layer at all.
    pub fault_rates: FaultRates,
    /// Cold-start (spawn) overhead charged by the latency model, ms.
    /// Only used when `cold_start_model` is `Instant` (no snapshots: a
    /// cold start is a full boot); the snapshot models price restores
    /// from the working set instead.
    pub cold_start_ms: f64,
    /// How cold starts bring memory up: `Instant` (flat boot cost,
    /// pre-snapshot behavior), `LazyPaging` (snapshot restore, one
    /// fault per page) or `ReapPrefetch` (record-and-prefetch).
    pub cold_start_model: ColdStartModel,
    /// Restore-path latency parameters for the snapshot models.
    pub snapshot_timings: SnapshotTimings,
    /// Deadline burned by a timed-out attempt, ms.
    pub timeout_ms: f64,
    /// Retry policy applied by every host.
    pub retry: RetryPolicy,
    /// Host fault domains: seeded crash/degrade schedules.
    /// [`ChaosConfig::none`] (the default) is bit-transparent.
    pub chaos: ChaosConfig,
    /// Health-probe knobs driving failover routing (only consulted when
    /// chaos is enabled).
    pub health: HealthConfig,
    /// Hedged re-dispatch toward half-open hosts.
    /// [`HedgeConfig::disabled`] (the default) is bit-transparent.
    pub hedge: HedgeConfig,
    /// Token-bucket retry budget per function, applied host-locally.
    /// [`RetryBudget::unlimited`] (the default) is bit-transparent.
    pub retry_budget: RetryBudget,
    /// SLO-driven admission control (reserved/burst concurrency and the
    /// load-shedding ladder). Disabled by default — bit-transparent.
    pub admission: AdmissionConfig,
    /// Non-stationary traffic shape (diurnal ramp + flash crowd).
    /// [`SurgeConfig::none`] (the default) is bit-transparent.
    pub surge: SurgeConfig,
    /// Predictive pre-warming and per-function adaptive keep-alive.
    /// [`PrewarmConfig::disabled`] (the default) is bit-transparent.
    pub prewarm: PrewarmConfig,
    /// Cross-function page sharing and multi-tenant contention.
    /// [`TenancyConfig::disabled`] (the default) is bit-transparent.
    pub tenancy: TenancyConfig,
    /// Causal span sampling: every `trace_sample`-th dispatch records a
    /// full span tree (route → admission → restore → execute →
    /// backoff). `0` (the default) disables tracing and is
    /// bit-transparent.
    pub trace_sample: u64,
    /// Windowed time-series width in simulated milliseconds: per-window
    /// latency percentiles, shed rate, SLO burn and cold/luke/warm mix.
    /// `0` (the default) disables the series and is bit-transparent.
    pub series_window_ms: f64,
    /// Latency SLO for the series' burn rate, ms. `0` means no SLO —
    /// the burn column stays all-zero.
    pub series_slo_ms: f64,
}

impl Default for FleetConfig {
    /// A 16-host fleet under keep-alive-aware routing: 20k invocations,
    /// 10-minute keep-alive, 200 deployed functions, 20 invocations per
    /// host-second, no faults, no span tracing.
    fn default() -> Self {
        FleetConfig {
            hosts: 16,
            threads: 1,
            invocations: 20_000,
            keep_alive_ms: 10.0 * 60_000.0,
            policy: RoutingPolicy::KeepAliveAware,
            seed: 0x6C75_6B65,
            population: 200,
            per_host_rate_per_sec: 20.0,
            fault_rates: FaultRates::zero(),
            cold_start_ms: 125.0,
            cold_start_model: ColdStartModel::Instant,
            snapshot_timings: SnapshotTimings::default(),
            timeout_ms: 250.0,
            retry: RetryPolicy::default(),
            chaos: ChaosConfig::none(),
            health: HealthConfig::default(),
            hedge: HedgeConfig::disabled(),
            retry_budget: RetryBudget::unlimited(),
            admission: AdmissionConfig::disabled(),
            surge: SurgeConfig::none(),
            prewarm: PrewarmConfig::disabled(),
            tenancy: TenancyConfig::disabled(),
            trace_sample: 0,
            series_window_ms: 0.0,
            series_slo_ms: 0.0,
        }
    }
}

impl FleetConfig {
    /// Validates every field, naming the offending one.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.hosts == 0 {
            return Err(SimError::invalid_config(
                "fleet.hosts",
                "at least one host is required",
            ));
        }
        if self.threads == 0 {
            return Err(SimError::invalid_config(
                "fleet.threads",
                "at least one worker thread is required",
            ));
        }
        if self.invocations == 0 {
            return Err(SimError::invalid_config(
                "fleet.invocations",
                "at least one invocation is required",
            ));
        }
        if self.population == 0 {
            return Err(SimError::invalid_config(
                "fleet.population",
                "at least one deployed function is required",
            ));
        }
        if !(self.per_host_rate_per_sec > 0.0 && self.per_host_rate_per_sec.is_finite()) {
            return Err(SimError::invalid_config(
                "fleet.per_host_rate_per_sec",
                format!(
                    "per-host rate must be positive and finite, got {}",
                    self.per_host_rate_per_sec
                ),
            ));
        }
        for (field, value) in [
            ("fleet.cold_start_ms", self.cold_start_ms),
            ("fleet.timeout_ms", self.timeout_ms),
            ("fleet.series_window_ms", self.series_window_ms),
            ("fleet.series_slo_ms", self.series_slo_ms),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(SimError::invalid_config(
                    field,
                    format!("must be ≥ 0 and finite, got {value}"),
                ));
            }
        }
        // Reuse the pool's, fault layer's and snapshot layer's own
        // validation.
        InstancePool::try_new(self.keep_alive_ms)?;
        server::FaultPlan::new(self.seed, self.fault_rates)?;
        self.retry.validate()?;
        self.snapshot_timings.validate()?;
        self.chaos.validate()?;
        self.health.validate()?;
        self.hedge.validate()?;
        self.retry_budget.validate()?;
        self.admission.validate()?;
        self.surge.validate()?;
        self.prewarm.validate()?;
        self.tenancy.validate()?;
        if self.prewarm.enabled && self.prewarm.min_hold_ms > self.keep_alive_ms {
            return Err(SimError::invalid_config(
                "prewarm.min_hold_ms",
                format!(
                    "hold floor must not exceed the keep-alive window ({} ms)",
                    self.keep_alive_ms
                ),
            ));
        }
        Ok(())
    }

    /// Whether predictive pre-warming / adaptive keep-alive is on. When
    /// false, hosts take the exact fixed-keep-alive code path and export
    /// byte-identical output — the disabled feature doesn't exist.
    pub fn prewarm_enabled(&self) -> bool {
        self.prewarm.enabled
    }

    /// Whether any tenancy modeling (page-sharing dedup or contention)
    /// is on. When false, hosts take the exact pre-tenancy code path
    /// and export byte-identical output — the disabled feature doesn't
    /// exist.
    pub fn tenancy_enabled(&self) -> bool {
        self.tenancy.enabled()
    }

    /// Fleet-wide arrival rate in invocations per second.
    pub fn total_rate_per_sec(&self) -> f64 {
        self.hosts as f64 * self.per_host_rate_per_sec
    }

    /// Whether span tracing is on (some dispatches are sampled).
    pub fn tracing_enabled(&self) -> bool {
        self.trace_sample > 0
    }

    /// Whether dispatch `dispatch` records a span tree under this
    /// config's sampling stride.
    pub fn samples(&self, dispatch: u64) -> bool {
        self.trace_sample > 0 && dispatch.is_multiple_of(self.trace_sample)
    }

    /// Whether the windowed time-series is on.
    pub fn series_enabled(&self) -> bool {
        self.series_window_ms > 0.0
    }

    /// Whether any resilience machinery is switched on. When false, the
    /// run takes the exact pre-resilience code path and exports
    /// byte-identical output — disabled features don't exist.
    pub fn resilience_enabled(&self) -> bool {
        !self.chaos.is_none()
            || self.hedge.enabled
            || self.retry_budget.is_limited()
            || self.admission.enabled
            || !self.surge.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_tenancy::ContentionConfig;

    #[test]
    fn default_config_is_valid() {
        assert!(FleetConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_fields_are_named() {
        let cases: Vec<(FleetConfig, &str)> = vec![
            (
                FleetConfig {
                    hosts: 0,
                    ..FleetConfig::default()
                },
                "fleet.hosts",
            ),
            (
                FleetConfig {
                    threads: 0,
                    ..FleetConfig::default()
                },
                "fleet.threads",
            ),
            (
                FleetConfig {
                    invocations: 0,
                    ..FleetConfig::default()
                },
                "fleet.invocations",
            ),
            (
                FleetConfig {
                    population: 0,
                    ..FleetConfig::default()
                },
                "fleet.population",
            ),
            (
                FleetConfig {
                    per_host_rate_per_sec: 0.0,
                    ..FleetConfig::default()
                },
                "fleet.per_host_rate_per_sec",
            ),
            (
                FleetConfig {
                    cold_start_ms: f64::NAN,
                    ..FleetConfig::default()
                },
                "fleet.cold_start_ms",
            ),
            (
                FleetConfig {
                    series_window_ms: -1.0,
                    ..FleetConfig::default()
                },
                "fleet.series_window_ms",
            ),
            (
                FleetConfig {
                    series_slo_ms: f64::NAN,
                    ..FleetConfig::default()
                },
                "fleet.series_slo_ms",
            ),
            (
                FleetConfig {
                    snapshot_timings: SnapshotTimings {
                        page_fault_us: f64::NAN,
                        ..SnapshotTimings::default()
                    },
                    ..FleetConfig::default()
                },
                "snapshot.page_fault_us",
            ),
            (
                FleetConfig {
                    keep_alive_ms: -5.0,
                    ..FleetConfig::default()
                },
                "pool.keep_alive_ms",
            ),
            (
                FleetConfig {
                    fault_rates: FaultRates::uniform(1.5),
                    ..FleetConfig::default()
                },
                "fault.crash",
            ),
            (
                FleetConfig {
                    chaos: ChaosConfig {
                        host_mtbf_ms: -1.0,
                        ..ChaosConfig::none()
                    },
                    ..FleetConfig::default()
                },
                "chaos.host_mtbf_ms",
            ),
            (
                FleetConfig {
                    health: HealthConfig {
                        probe_interval_ms: 0.0,
                        ..HealthConfig::default()
                    },
                    ..FleetConfig::default()
                },
                "health.probe_interval_ms",
            ),
            (
                FleetConfig {
                    hedge: HedgeConfig {
                        enabled: true,
                        max_fraction: 2.0,
                    },
                    ..FleetConfig::default()
                },
                "hedge.max_fraction",
            ),
            (
                FleetConfig {
                    retry_budget: RetryBudget {
                        max_tokens: f64::NAN,
                        token_ratio: 0.1,
                    },
                    ..FleetConfig::default()
                },
                "retry_budget.max_tokens",
            ),
            (
                FleetConfig {
                    admission: AdmissionConfig {
                        enabled: true,
                        host_concurrency: 0,
                        ..AdmissionConfig::disabled()
                    },
                    ..FleetConfig::default()
                },
                "admission.host_concurrency",
            ),
            (
                FleetConfig {
                    surge: SurgeConfig {
                        diurnal_amplitude: 1.5,
                        ..SurgeConfig::none()
                    },
                    ..FleetConfig::default()
                },
                "surge.diurnal_amplitude",
            ),
            (
                FleetConfig {
                    prewarm: PrewarmConfig {
                        decay_quantile: 1.5,
                        ..PrewarmConfig::default_enabled()
                    },
                    ..FleetConfig::default()
                },
                "prewarm.decay_quantile",
            ),
            (
                FleetConfig {
                    keep_alive_ms: 500.0,
                    prewarm: PrewarmConfig::default_enabled(), // 1 s floor
                    ..FleetConfig::default()
                },
                "prewarm.min_hold_ms",
            ),
            (
                FleetConfig {
                    tenancy: TenancyConfig {
                        cow_dirty_fraction: 1.5,
                        ..TenancyConfig::default_enabled()
                    },
                    ..FleetConfig::default()
                },
                "tenancy.cow_dirty_fraction",
            ),
            (
                FleetConfig {
                    tenancy: TenancyConfig {
                        contention: ContentionConfig {
                            knee: 1.0,
                            ..ContentionConfig::default_enabled()
                        },
                        ..TenancyConfig::default_enabled()
                    },
                    ..FleetConfig::default()
                },
                "tenancy.knee",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains(field), "expected {field} in {msg}");
            assert_eq!(err.exit_code(), 3);
        }
    }

    #[test]
    fn resilience_is_off_by_default_and_each_knob_flips_it() {
        assert!(!FleetConfig::default().resilience_enabled());
        let flipped = [
            FleetConfig {
                chaos: ChaosConfig {
                    host_mtbf_ms: 10_000.0,
                    crash_downtime_ms: 1_000.0,
                    ..ChaosConfig::none()
                },
                ..FleetConfig::default()
            },
            FleetConfig {
                hedge: HedgeConfig {
                    enabled: true,
                    max_fraction: 0.1,
                },
                ..FleetConfig::default()
            },
            FleetConfig {
                retry_budget: RetryBudget::new(10.0, 0.1).unwrap(),
                ..FleetConfig::default()
            },
            FleetConfig {
                admission: AdmissionConfig {
                    enabled: true,
                    reserved_concurrency: 1,
                    burst_concurrency: 4,
                    host_concurrency: 64,
                    memory_pressure_instances: 0,
                },
                ..FleetConfig::default()
            },
            FleetConfig {
                surge: SurgeConfig {
                    flash_multiplier: 5.0,
                    flash_duration_ms: 1_000.0,
                    ..SurgeConfig::none()
                },
                ..FleetConfig::default()
            },
        ];
        for config in flipped {
            assert!(config.resilience_enabled());
            assert!(config.validate().is_ok());
        }
    }

    #[test]
    fn prewarm_is_off_by_default_and_validates_when_enabled() {
        assert!(!FleetConfig::default().prewarm_enabled());
        let on = FleetConfig {
            prewarm: PrewarmConfig::default_enabled(),
            ..FleetConfig::default()
        };
        assert!(on.prewarm_enabled());
        assert!(on.validate().is_ok());
    }

    #[test]
    fn tenancy_is_off_by_default_and_either_knob_flips_it() {
        assert!(!FleetConfig::default().tenancy_enabled());
        let dedup_only = FleetConfig {
            tenancy: TenancyConfig::dedup_enabled(),
            ..FleetConfig::default()
        };
        assert!(dedup_only.tenancy_enabled());
        assert!(dedup_only.validate().is_ok());
        let both = FleetConfig {
            tenancy: TenancyConfig::default_enabled(),
            ..FleetConfig::default()
        };
        assert!(both.tenancy_enabled());
        assert!(both.validate().is_ok());
    }

    #[test]
    fn total_rate_scales_with_hosts() {
        let config = FleetConfig {
            hosts: 32,
            per_host_rate_per_sec: 10.0,
            ..FleetConfig::default()
        };
        assert_eq!(config.total_rate_per_sec(), 320.0);
    }
}
