//! Host fault domains: seeded crash/degrade/recover schedules.
//!
//! A chaos schedule is a *pure function* of `(config, host_id)`: windows
//! are synthesized by splitting the fleet seed, never by consuming shared
//! RNG state. That means the sequential routing phase and each
//! shared-nothing host can independently derive byte-identical views of
//! the same outage timeline — the property that lets failover routing,
//! health probing, and host-local crash handling coexist with the
//! 1-thread ≡ N-thread determinism contract.
//!
//! [`ChaosPlan::none`] mirrors `FaultPlan::none()`: it draws no RNG,
//! schedules nothing, and a fleet configured without chaos exports
//! byte-identical output to a build that has never heard of this module.

use luke_common::rng::DetRng;
use luke_common::SimError;

use crate::config::FleetConfig;

/// Seed-space tag for chaos schedules.
const CHAOS_STREAM: u64 = 0x6368_616F; // "chao"
/// Sub-stream for crash (down) windows.
const CRASH_LANE: u64 = 0;
/// Sub-stream for degrade (slow) windows.
const DEGRADE_LANE: u64 = 1;
/// Horizon slack past the expected arrival span, so late arrivals from
/// the Poisson tail still fall inside scheduled windows.
const HORIZON_MARGIN: f64 = 1.5;
/// Flat horizon pad, ms.
const HORIZON_PAD_MS: f64 = 60_000.0;
/// Minimum length of any synthesized window, ms.
const MIN_WINDOW_MS: f64 = 1.0;

/// Host availability at an instant, as the chaos timeline dictates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostState {
    /// Serving normally.
    Up,
    /// Serving, but every invocation's service time is multiplied by the
    /// configured slowdown (thermal throttling, a noisy neighbour, a
    /// failing disk).
    Degraded,
    /// Crashed: connections fail, the pool is wiped, keep-alive state is
    /// gone.
    Down,
}

/// Chaos-injection knobs. All-zero MTBFs ([`ChaosConfig::none`], the
/// default) mean no chaos at all — bit-transparent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Mean time between host crashes, ms (0 disables crashes).
    pub host_mtbf_ms: f64,
    /// Mean downtime per crash, ms.
    pub crash_downtime_ms: f64,
    /// Mean time between degrade episodes, ms (0 disables them).
    pub degrade_mtbf_ms: f64,
    /// Mean length of a degrade episode, ms.
    pub degrade_duration_ms: f64,
    /// Service-time multiplier while degraded (≥ 1).
    pub degrade_slowdown: f64,
}

impl ChaosConfig {
    /// The disabled sentinel: no crashes, no degrades, no RNG draws.
    pub fn none() -> Self {
        ChaosConfig {
            host_mtbf_ms: 0.0,
            crash_downtime_ms: 0.0,
            degrade_mtbf_ms: 0.0,
            degrade_duration_ms: 0.0,
            degrade_slowdown: 1.0,
        }
    }

    /// The `light` timeline: a crash every 30 s per host (2 s down) and a
    /// 5x degrade every 25 s (3 s long). The CLI's `--chaos light` and the
    /// surge experiment's moderate level.
    pub fn light() -> Self {
        ChaosConfig {
            host_mtbf_ms: 30_000.0,
            crash_downtime_ms: 2_000.0,
            degrade_mtbf_ms: 25_000.0,
            degrade_duration_ms: 3_000.0,
            degrade_slowdown: 5.0,
        }
    }

    /// The `heavy` timeline: a crash every 10 s per host (2.5 s down) and
    /// a 30x degrade every 10 s (4 s long). The CLI's `--chaos heavy` and
    /// the surge experiment's heavy level.
    pub fn heavy() -> Self {
        ChaosConfig {
            host_mtbf_ms: 10_000.0,
            crash_downtime_ms: 2_500.0,
            degrade_mtbf_ms: 10_000.0,
            degrade_duration_ms: 4_000.0,
            degrade_slowdown: 30.0,
        }
    }

    /// Whether this config schedules nothing at all.
    pub fn is_none(&self) -> bool {
        self.host_mtbf_ms == 0.0 && self.degrade_mtbf_ms == 0.0
    }

    /// Validates the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        for (field, value) in [
            ("chaos.host_mtbf_ms", self.host_mtbf_ms),
            ("chaos.crash_downtime_ms", self.crash_downtime_ms),
            ("chaos.degrade_mtbf_ms", self.degrade_mtbf_ms),
            ("chaos.degrade_duration_ms", self.degrade_duration_ms),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(SimError::invalid_config(
                    field,
                    format!("must be ≥ 0 and finite, got {value}"),
                ));
            }
        }
        if self.host_mtbf_ms > 0.0 && self.crash_downtime_ms <= 0.0 {
            return Err(SimError::invalid_config(
                "chaos.crash_downtime_ms",
                "crashes need a positive mean downtime",
            ));
        }
        if self.degrade_mtbf_ms > 0.0 && self.degrade_duration_ms <= 0.0 {
            return Err(SimError::invalid_config(
                "chaos.degrade_duration_ms",
                "degrade episodes need a positive mean duration",
            ));
        }
        if !(self.degrade_slowdown >= 1.0 && self.degrade_slowdown.is_finite()) {
            return Err(SimError::invalid_config(
                "chaos.degrade_slowdown",
                format!("must be ≥ 1 and finite, got {}", self.degrade_slowdown),
            ));
        }
        Ok(())
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// One scheduled availability window `[start_ms, end_ms)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ChaosWindow {
    start_ms: f64,
    end_ms: f64,
    state: HostState,
}

/// One host's full chaos timeline for a run: a sorted set of down and
/// degraded windows over the run's horizon. Down wins on overlap.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostSchedule {
    windows: Vec<ChaosWindow>,
    /// Start times of down windows, ascending — the crash boundaries a
    /// host applies as it advances through its arrival queue.
    crash_starts: Vec<f64>,
}

impl HostSchedule {
    /// An empty schedule (the host never misbehaves).
    pub fn none() -> Self {
        HostSchedule::default()
    }

    /// Synthesizes host `host_id`'s timeline from the fleet config — a
    /// pure function, so router and host derive identical copies
    /// independently. Inter-event gaps and window lengths are
    /// exponential draws from per-host, per-lane seed splits.
    pub fn synthesize(config: &FleetConfig, host_id: usize) -> Self {
        let chaos = &config.chaos;
        if chaos.is_none() {
            return HostSchedule::none();
        }
        let horizon = chaos_horizon_ms(config);
        let root = DetRng::new(config.seed)
            .split(CHAOS_STREAM)
            .split(host_id as u64);
        let mut windows = Vec::new();
        let mut crash_starts = Vec::new();
        if chaos.host_mtbf_ms > 0.0 {
            let mut rng = root.split(CRASH_LANE);
            let mut t = rng.exponential(chaos.host_mtbf_ms);
            while t < horizon {
                let down = rng.exponential(chaos.crash_downtime_ms).max(MIN_WINDOW_MS);
                windows.push(ChaosWindow {
                    start_ms: t,
                    end_ms: t + down,
                    state: HostState::Down,
                });
                crash_starts.push(t);
                t += down + rng.exponential(chaos.host_mtbf_ms);
            }
        }
        if chaos.degrade_mtbf_ms > 0.0 {
            let mut rng = root.split(DEGRADE_LANE);
            let mut t = rng.exponential(chaos.degrade_mtbf_ms);
            while t < horizon {
                let slow = rng
                    .exponential(chaos.degrade_duration_ms)
                    .max(MIN_WINDOW_MS);
                windows.push(ChaosWindow {
                    start_ms: t,
                    end_ms: t + slow,
                    state: HostState::Degraded,
                });
                t += slow + rng.exponential(chaos.degrade_mtbf_ms);
            }
        }
        windows.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then((a.state == HostState::Degraded).cmp(&(b.state == HostState::Degraded)))
        });
        HostSchedule {
            windows,
            crash_starts,
        }
    }

    /// Builds a schedule from explicit `(start_ms, end_ms)` windows — for
    /// constructing exact outage scenarios in tests and experiments
    /// without going through the seeded synthesizer.
    pub fn explicit(down: &[(f64, f64)], degraded: &[(f64, f64)]) -> Self {
        let mut windows: Vec<ChaosWindow> = down
            .iter()
            .map(|&(start_ms, end_ms)| ChaosWindow {
                start_ms,
                end_ms,
                state: HostState::Down,
            })
            .chain(degraded.iter().map(|&(start_ms, end_ms)| ChaosWindow {
                start_ms,
                end_ms,
                state: HostState::Degraded,
            }))
            .collect();
        windows.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then((a.state == HostState::Degraded).cmp(&(b.state == HostState::Degraded)))
        });
        let mut crash_starts: Vec<f64> = down.iter().map(|&(s, _)| s).collect();
        crash_starts.sort_by(f64::total_cmp);
        HostSchedule {
            windows,
            crash_starts,
        }
    }

    /// The host's state at time `t_ms`. Down windows shadow degraded
    /// ones.
    pub fn state_at(&self, t_ms: f64) -> HostState {
        let mut state = HostState::Up;
        for w in &self.windows {
            if w.start_ms > t_ms {
                break;
            }
            if t_ms < w.end_ms {
                if w.state == HostState::Down {
                    return HostState::Down;
                }
                state = HostState::Degraded;
            }
        }
        state
    }

    /// Number of scheduled crashes.
    pub fn crash_count(&self) -> usize {
        self.crash_starts.len()
    }

    /// Start time of crash `idx` (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_start(&self, idx: usize) -> f64 {
        self.crash_starts[idx]
    }

    /// Whether the schedule is empty.
    pub fn is_none(&self) -> bool {
        self.windows.is_empty()
    }
}

/// The horizon chaos windows are synthesized over: the expected arrival
/// span with margin. Purely config-derived, so every derivation site
/// agrees.
fn chaos_horizon_ms(config: &FleetConfig) -> f64 {
    let expected_span_ms = config.invocations as f64 / config.total_rate_per_sec() * 1000.0;
    expected_span_ms * HORIZON_MARGIN + HORIZON_PAD_MS
}

/// The fleet-wide chaos view: one [`HostSchedule`] per host, used by the
/// routing phase's health probes and outage checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    schedules: Vec<HostSchedule>,
}

impl ChaosPlan {
    /// The bit-transparent empty plan: no schedules, no RNG, nothing
    /// exported.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Builds a plan from explicit per-host schedules (see
    /// [`HostSchedule::explicit`]).
    pub fn from_schedules(schedules: Vec<HostSchedule>) -> Self {
        ChaosPlan { schedules }
    }

    /// Synthesizes every host's schedule (each one identical to what
    /// that host derives for itself).
    pub fn synthesize(config: &FleetConfig) -> Self {
        if config.chaos.is_none() {
            return ChaosPlan::none();
        }
        ChaosPlan {
            schedules: (0..config.hosts)
                .map(|h| HostSchedule::synthesize(config, h))
                .collect(),
        }
    }

    /// Whether the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        self.schedules.is_empty()
    }

    /// Host `h`'s schedule.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range (plans are built per fleet).
    pub fn schedule(&self, h: usize) -> &HostSchedule {
        &self.schedules[h]
    }

    /// Host `h`'s state at `t_ms` (always `Up` for the empty plan).
    pub fn state_at(&self, h: usize, t_ms: f64) -> HostState {
        if self.schedules.is_empty() {
            HostState::Up
        } else {
            self.schedules[h].state_at(t_ms)
        }
    }

    /// Whether *every* host is inside a down window at `t_ms` — the
    /// fleet-wide outage that surfaces as `SimError::AllHostsDown`.
    pub fn all_down_at(&self, t_ms: f64) -> bool {
        !self.schedules.is_empty()
            && self
                .schedules
                .iter()
                .all(|s| s.state_at(t_ms) == HostState::Down)
    }

    /// Total crashes scheduled across the fleet.
    pub fn total_crashes(&self) -> usize {
        self.schedules.iter().map(HostSchedule::crash_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_config() -> FleetConfig {
        FleetConfig {
            hosts: 4,
            invocations: 8_000,
            chaos: ChaosConfig {
                host_mtbf_ms: 20_000.0,
                crash_downtime_ms: 2_000.0,
                degrade_mtbf_ms: 15_000.0,
                degrade_duration_ms: 3_000.0,
                degrade_slowdown: 2.0,
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn none_is_default_and_schedules_nothing() {
        assert!(ChaosConfig::none().is_none());
        assert_eq!(ChaosConfig::default(), ChaosConfig::none());
        let plan = ChaosPlan::none();
        assert!(plan.is_none());
        assert!(!plan.all_down_at(0.0));
        assert_eq!(plan.state_at(3, 1e9), HostState::Up);
        let config = FleetConfig::default();
        assert!(ChaosPlan::synthesize(&config).is_none());
        assert!(HostSchedule::synthesize(&config, 0).is_none());
    }

    #[test]
    fn invalid_knobs_are_named() {
        let cases = [
            (
                ChaosConfig {
                    host_mtbf_ms: -1.0,
                    ..ChaosConfig::none()
                },
                "chaos.host_mtbf_ms",
            ),
            (
                ChaosConfig {
                    host_mtbf_ms: 1000.0,
                    crash_downtime_ms: 0.0,
                    ..ChaosConfig::none()
                },
                "chaos.crash_downtime_ms",
            ),
            (
                ChaosConfig {
                    degrade_mtbf_ms: 1000.0,
                    degrade_duration_ms: 0.0,
                    ..ChaosConfig::none()
                },
                "chaos.degrade_duration_ms",
            ),
            (
                ChaosConfig {
                    degrade_slowdown: 0.5,
                    ..ChaosConfig::none()
                },
                "chaos.degrade_slowdown",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().unwrap_err();
            assert!(format!("{err}").contains(field), "{err}");
        }
    }

    #[test]
    fn schedules_are_pure_functions_of_config_and_host() {
        let config = chaotic_config();
        let a = HostSchedule::synthesize(&config, 2);
        let b = HostSchedule::synthesize(&config, 2);
        assert_eq!(a, b);
        let plan = ChaosPlan::synthesize(&config);
        assert_eq!(plan.schedule(2), &a, "plan and host views must agree");
        // Different hosts draw from split streams — timelines differ.
        assert_ne!(a, HostSchedule::synthesize(&config, 3));
        // Different seeds reshuffle everything.
        let other = HostSchedule::synthesize(
            &FleetConfig {
                seed: 99,
                ..chaotic_config()
            },
            2,
        );
        assert_ne!(a, other);
    }

    #[test]
    fn crashes_actually_schedule_and_state_follows_windows() {
        let config = chaotic_config();
        let plan = ChaosPlan::synthesize(&config);
        assert!(plan.total_crashes() > 0, "MTBF 20s over ~125s must crash");
        let schedule = plan.schedule(0);
        for i in 0..schedule.crash_count() {
            let start = schedule.crash_start(i);
            assert_eq!(schedule.state_at(start), HostState::Down);
            assert_ne!(schedule.state_at(start - 0.5), HostState::Down);
        }
    }

    #[test]
    fn down_shadows_degraded() {
        let schedule = HostSchedule {
            windows: vec![
                ChaosWindow {
                    start_ms: 10.0,
                    end_ms: 30.0,
                    state: HostState::Degraded,
                },
                ChaosWindow {
                    start_ms: 15.0,
                    end_ms: 20.0,
                    state: HostState::Down,
                },
            ],
            crash_starts: vec![15.0],
        };
        assert_eq!(schedule.state_at(5.0), HostState::Up);
        assert_eq!(schedule.state_at(12.0), HostState::Degraded);
        assert_eq!(schedule.state_at(17.0), HostState::Down);
        assert_eq!(schedule.state_at(25.0), HostState::Degraded);
        assert_eq!(schedule.state_at(35.0), HostState::Up);
    }

    #[test]
    fn all_down_needs_every_host_down() {
        let config = chaotic_config();
        let plan = ChaosPlan::synthesize(&config);
        // Find a crash on host 0 — the fleet should (almost surely) have
        // another host up at that instant.
        let t = plan.schedule(0).crash_start(0);
        assert_eq!(plan.state_at(0, t), HostState::Down);
        assert!(!plan.all_down_at(t), "4 hosts rarely all crash at once");
    }
}
