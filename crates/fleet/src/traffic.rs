//! Fleet-wide traffic synthesis: the deployed function population and
//! its Poisson arrival lanes.
//!
//! A production fleet serves far more *deployed functions* than the 20
//! profiled suite entries, with wildly skewed popularity (Azure's
//! production characterization, cited in §2.1). This module materializes
//! a `population` of logical functions, maps each onto a paper-suite
//! performance profile (`index % 20`), and assigns it an arrival rate:
//! the suite's Zipf-like traffic weight for its profile, multiplied by a
//! deterministic log-uniform spread so same-profile deployments still
//! differ by orders of magnitude — the heavy tail that makes routing
//! policy matter.
//!
//! Both arrival streams merge their lanes through [`server::SliceMerge`]:
//! the stationary one as a [`TrafficGenerator`], the surge one as
//! [`SurgeTraffic`], whose lanes thin peak-rate candidates as they draw
//! them. Every lane owns a split RNG, so the slices change no event.

use luke_common::rng::DetRng;
use luke_common::SimError;
use server::{
    ArrivalLanes, IatDistribution, InvocationEvent, SliceDraw, SliceMerge, TrafficGenerator,
};
use workloads::paper_traffic_weights;

use crate::config::FleetConfig;

/// Seed-space tag for the per-function popularity spread.
const SPREAD_STREAM: u64 = 0x7370_7264; // "sprd"
/// Seed-space tag for the arrival-lane RNGs.
const LANE_STREAM: u64 = 0x6C61_6E65; // "lane"
/// Seed-space tag for the non-stationary (surge) arrival lanes —
/// distinct from [`LANE_STREAM`] so enabling the surge shape reshuffles
/// arrivals instead of aliasing the stationary stream.
const SURGE_STREAM: u64 = 0x7375_7267; // "surg"
/// Log-uniform popularity spread: the least popular deployment of a
/// profile gets 1/256 of the most popular one's weight.
const SPREAD_DECADES: f64 = 256.0;

/// The fleet's deployed-function population: per-function arrival lanes
/// whose rates sum to the configured fleet-wide rate.
#[derive(Clone, Debug)]
pub struct Population {
    /// Per-function mean inter-arrival distributions; index = logical
    /// function id, `id % 20` = suite profile.
    pub lanes: Vec<IatDistribution>,
    /// Per-function arrival rate, invocations per second.
    pub rates_per_sec: Vec<f64>,
}

impl Population {
    /// Builds the population for `config`: weights, spread, and
    /// normalization are all pure functions of `config.seed`.
    pub fn synthesize(config: &FleetConfig) -> Self {
        let profile_weights = paper_traffic_weights();
        let spread_rng = DetRng::new(config.seed).split(SPREAD_STREAM);
        let mut weights = Vec::with_capacity(config.population);
        for function in 0..config.population {
            let base = profile_weights[function % profile_weights.len()];
            // Log-uniform in [1/SPREAD_DECADES, 1]: u ~ U[0,1) mapped
            // through SPREAD^-u.
            let u = spread_rng.split(function as u64).unit();
            weights.push(base * SPREAD_DECADES.powf(-u));
        }
        let total_weight: f64 = weights.iter().sum();
        let total_rate = config.total_rate_per_sec();
        let rates_per_sec: Vec<f64> = weights
            .iter()
            .map(|w| total_rate * w / total_weight)
            .collect();
        let lanes = rates_per_sec
            .iter()
            .map(|&rate| IatDistribution::Exponential {
                mean_ms: 1000.0 / rate,
            })
            .collect();
        Population {
            lanes,
            rates_per_sec,
        }
    }

    /// The arrival-stream generator over this population. Each lane's
    /// RNG is split from `seed`, so the stream is independent of lane
    /// construction order.
    pub fn generator(&self, seed: u64) -> Result<TrafficGenerator, SimError> {
        TrafficGenerator::try_new(&self.lanes, DetRng::new(seed).split(LANE_STREAM).seed())
    }

    /// Per-function shedding priorities derived from arrival rates: the
    /// busiest third of the population is priority 2, the middle third 1,
    /// the long tail 0 — so admission control sheds the functions the
    /// fewest callers will miss first.
    pub fn priorities(&self) -> Vec<u8> {
        let n = self.rates_per_sec.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Busiest first; ties broken toward the lower function id.
        order.sort_by(|&a, &b| {
            self.rates_per_sec[b]
                .total_cmp(&self.rates_per_sec[a])
                .then(a.cmp(&b))
        });
        let mut priorities = vec![0u8; n];
        for (rank, &function) in order.iter().enumerate() {
            priorities[function] = if rank * 3 < n {
                2
            } else if rank * 3 < 2 * n {
                1
            } else {
                0
            };
        }
        priorities
    }

    /// The most popular function — the one a flash crowd piles onto.
    /// Ties resolve to the lowest function id.
    pub fn hot_function(&self) -> usize {
        self.rates_per_sec
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// A non-stationary generator over this population: the stationary
    /// Poisson lanes reshaped by `surge` (diurnal ramp plus a flash
    /// crowd on [`Population::hot_function`]).
    pub fn surge_generator(&self, seed: u64, surge: &SurgeConfig) -> SurgeTraffic {
        SurgeTraffic::new(self, seed, *surge)
    }
}

/// Non-stationary traffic shape: a diurnal sinusoid over every lane plus
/// a flash-crowd window that multiplies the hot function's rate.
///
/// [`SurgeConfig::none`] (the default) is bit-transparent: the fleet
/// falls back to the stationary [`Population::generator`] stream and no
/// surge RNG is ever drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurgeConfig {
    /// Diurnal modulation depth in [0, 1): rates swing between
    /// `(1−a)` and `(1+a)` times their mean (0 disables the ramp).
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid, ms.
    pub diurnal_period_ms: f64,
    /// Rate multiplier applied to the hot function inside the flash
    /// window (≤ 1 disables the flash crowd).
    pub flash_multiplier: f64,
    /// Flash-crowd window start, ms.
    pub flash_start_ms: f64,
    /// Flash-crowd window length, ms.
    pub flash_duration_ms: f64,
}

impl SurgeConfig {
    /// The disabled sentinel: flat rates, no flash crowd, no RNG draws.
    pub fn none() -> Self {
        SurgeConfig {
            diurnal_amplitude: 0.0,
            diurnal_period_ms: 0.0,
            flash_multiplier: 1.0,
            flash_start_ms: 0.0,
            flash_duration_ms: 0.0,
        }
    }

    /// Whether this shape changes nothing at all.
    pub fn is_none(&self) -> bool {
        self.diurnal_amplitude == 0.0 && self.flash_multiplier <= 1.0
    }

    /// Validates the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.diurnal_amplitude >= 0.0 && self.diurnal_amplitude < 1.0) {
            return Err(SimError::invalid_config(
                "surge.diurnal_amplitude",
                format!("must be in [0, 1), got {}", self.diurnal_amplitude),
            ));
        }
        if self.diurnal_amplitude > 0.0
            && !(self.diurnal_period_ms > 0.0 && self.diurnal_period_ms.is_finite())
        {
            return Err(SimError::invalid_config(
                "surge.diurnal_period_ms",
                format!(
                    "a diurnal ramp needs a positive finite period, got {}",
                    self.diurnal_period_ms
                ),
            ));
        }
        if !(self.flash_multiplier >= 0.0 && self.flash_multiplier.is_finite()) {
            return Err(SimError::invalid_config(
                "surge.flash_multiplier",
                format!("must be ≥ 0 and finite, got {}", self.flash_multiplier),
            ));
        }
        if self.flash_multiplier > 1.0
            && !(self.flash_duration_ms > 0.0 && self.flash_duration_ms.is_finite())
        {
            return Err(SimError::invalid_config(
                "surge.flash_duration_ms",
                format!(
                    "a flash crowd needs a positive finite window, got {}",
                    self.flash_duration_ms
                ),
            ));
        }
        if !(self.flash_start_ms >= 0.0 && self.flash_start_ms.is_finite()) {
            return Err(SimError::invalid_config(
                "surge.flash_start_ms",
                format!("must be ≥ 0 and finite, got {}", self.flash_start_ms),
            ));
        }
        Ok(())
    }
}

impl Default for SurgeConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Non-stationary arrival stream by thinning: each lane draws candidate
/// arrivals at its *peak* rate, then accepts each with probability
/// `rate(t) / peak` — the standard construction for an inhomogeneous
/// Poisson process, and deterministic because every lane owns a split
/// RNG. The lanes merge through the same [`SliceMerge`] as the
/// stationary stream: a lane thins its candidates as it draws them, in
/// its own draw order, so the slice holds accepted arrivals only.
#[derive(Clone, Debug)]
pub struct SurgeTraffic {
    merge: SliceMerge<SurgeLanes>,
}

impl SurgeTraffic {
    fn new(population: &Population, seed: u64, config: SurgeConfig) -> Self {
        let hot = population.hot_function();
        let root = DetRng::new(seed).split(SURGE_STREAM);
        let lanes = population
            .rates_per_sec
            .iter()
            .enumerate()
            .map(|(lane, &rate)| {
                let peak = peak_factor(&config, lane == hot);
                let mean_ms = 1000.0 / (rate * peak);
                let mut rng = root.split(lane as u64);
                // `+ 0.0` turns a −0.0 first draw into +0.0, so the
                // lane's keys rise in bit order.
                let first = rng.exponential(mean_ms) + 0.0;
                SurgeLane {
                    key: first.to_bits(),
                    mean_ms,
                    rng,
                }
            })
            .collect();
        SurgeTraffic {
            merge: SliceMerge::new(SurgeLanes { lanes, config, hot }),
        }
    }
}

/// One surge lane: its next undrawn candidate, the candidates' mean gap
/// at the lane's peak rate, and its RNG.
#[derive(Clone, Debug)]
struct SurgeLane {
    key: u64,
    mean_ms: f64,
    rng: DetRng,
}

/// The lanes of a [`SurgeTraffic`] and the shape that thins them.
#[derive(Clone, Debug)]
struct SurgeLanes {
    lanes: Vec<SurgeLane>,
    config: SurgeConfig,
    hot: usize,
}

impl ArrivalLanes for SurgeLanes {
    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn rate_per_ms(&self) -> f64 {
        self.lanes.iter().map(|lane| 1.0 / lane.mean_ms).sum()
    }

    /// Per candidate, in this order: the acceptance probability at its
    /// time, the gap to the next candidate, then the acceptance draw.
    fn draw(&mut self, lane: usize, t_end: u64, budget: usize, out: &mut SliceDraw) -> u64 {
        let is_hot = lane == self.hot;
        let peak = peak_factor(&self.config, is_hot);
        let SurgeLane { key, mean_ms, rng } = &mut self.lanes[lane];
        // Work on a copy of the RNG, so its state stays in registers
        // rather than round-tripping through memory `out` might alias.
        let (mean_ms, mut draws) = (*mean_ms, rng.clone());
        let mut at = *key;
        for _ in 0..budget {
            if at >= t_end {
                break;
            }
            let at_ms = f64::from_bits(at);
            let accept_p = rate_factor(&self.config, is_hot, at_ms) / peak;
            let gap = draws.exponential(mean_ms).max(f64::MIN_POSITIVE);
            if draws.chance(accept_p) {
                out.push(at, lane as u32);
            }
            at = (at_ms + gap).to_bits();
        }
        *rng = draws;
        *key = at;
        at
    }
}

/// The rate multiplier a lane experiences at `t_ms`, relative to its
/// stationary mean.
fn rate_factor(config: &SurgeConfig, is_hot: bool, t_ms: f64) -> f64 {
    let mut factor = 1.0;
    if config.diurnal_amplitude > 0.0 {
        let phase = std::f64::consts::TAU * t_ms / config.diurnal_period_ms;
        factor *= 1.0 + config.diurnal_amplitude * phase.sin();
    }
    if is_hot
        && config.flash_multiplier > 1.0
        && t_ms >= config.flash_start_ms
        && t_ms < config.flash_start_ms + config.flash_duration_ms
    {
        factor *= config.flash_multiplier;
    }
    factor
}

/// A lane's worst-case rate multiplier — the thinning envelope.
fn peak_factor(config: &SurgeConfig, is_hot: bool) -> f64 {
    let mut peak = 1.0 + config.diurnal_amplitude;
    if is_hot && config.flash_multiplier > 1.0 {
        peak *= config.flash_multiplier;
    }
    peak
}

impl Iterator for SurgeTraffic {
    type Item = InvocationEvent;

    #[inline]
    fn next(&mut self) -> Option<InvocationEvent> {
        self.merge.next()
    }
}

/// The fleet's arrival stream: stationary Poisson lanes, or the same
/// population reshaped by a [`SurgeConfig`]. The stationary arm is the
/// *exact* pre-surge generator, so a disabled surge is bit-transparent.
#[derive(Clone, Debug)]
pub enum ArrivalStream {
    /// The stationary per-function Poisson merge.
    Stationary(TrafficGenerator),
    /// The thinned non-stationary stream.
    Surging(SurgeTraffic),
}

impl ArrivalStream {
    /// Builds the stream `config` asks for over `population`.
    pub fn synthesize(config: &FleetConfig, population: &Population) -> Result<Self, SimError> {
        if config.surge.is_none() {
            Ok(ArrivalStream::Stationary(
                population.generator(config.seed)?,
            ))
        } else {
            Ok(ArrivalStream::Surging(
                population.surge_generator(config.seed, &config.surge),
            ))
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = InvocationEvent;

    fn next(&mut self) -> Option<InvocationEvent> {
        match self {
            ArrivalStream::Stationary(g) => g.next(),
            ArrivalStream::Surging(g) => g.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    /// The stationary oracle: before every event, a linear scan picks
    /// the lane whose pending arrival is lowest in `(at_ms, lane)`.
    struct LinearScan {
        lanes: Vec<(IatDistribution, f64, DetRng)>,
    }

    impl LinearScan {
        /// The oracle for [`Population::generator`]`(seed)`.
        fn new(population: &Population, seed: u64) -> Self {
            let root = DetRng::new(DetRng::new(seed).split(LANE_STREAM).seed());
            let lanes = population
                .lanes
                .iter()
                .enumerate()
                .map(|(i, &dist)| {
                    let mut rng = root.split(i as u64);
                    let first = dist.sample(&mut rng);
                    (dist, first, rng)
                })
                .collect();
            LinearScan { lanes }
        }
    }

    impl Iterator for LinearScan {
        type Item = InvocationEvent;

        fn next(&mut self) -> Option<InvocationEvent> {
            let (idx, _) = self
                .lanes
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.1.total_cmp(&b.1))?;
            let (dist, at, rng) = &mut self.lanes[idx];
            let event = InvocationEvent {
                at_ms: *at,
                instance: idx,
            };
            *at += dist.sample(rng).max(f64::MIN_POSITIVE);
            Some(event)
        }
    }

    /// The next pending candidate of one surge lane, ordered by time then
    /// lane index.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct NextCandidate {
        at_ms: f64,
        lane: usize,
    }

    impl Eq for NextCandidate {}

    impl Ord for NextCandidate {
        fn cmp(&self, other: &Self) -> Ordering {
            self.at_ms
                .total_cmp(&other.at_ms)
                .then(self.lane.cmp(&other.lane))
        }
    }

    impl PartialOrd for NextCandidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The surge oracle: a binary heap of every lane's next candidate,
    /// popped and thinned one candidate at a time.
    struct HeapSurge {
        lanes: Vec<(f64, DetRng)>,
        queue: BinaryHeap<Reverse<NextCandidate>>,
        config: SurgeConfig,
        hot: usize,
    }

    impl HeapSurge {
        /// The oracle for [`Population::surge_generator`]`(seed, config)`.
        fn new(population: &Population, seed: u64, config: SurgeConfig) -> Self {
            let hot = population.hot_function();
            let root = DetRng::new(seed).split(SURGE_STREAM);
            let mut queue = BinaryHeap::new();
            let lanes = population
                .rates_per_sec
                .iter()
                .enumerate()
                .map(|(lane, &rate)| {
                    let mean_ms = 1000.0 / (rate * peak_factor(&config, lane == hot));
                    let mut rng = root.split(lane as u64);
                    let first = rng.exponential(mean_ms);
                    queue.push(Reverse(NextCandidate { at_ms: first, lane }));
                    (mean_ms, rng)
                })
                .collect();
            HeapSurge {
                lanes,
                queue,
                config,
                hot,
            }
        }
    }

    impl Iterator for HeapSurge {
        type Item = InvocationEvent;

        fn next(&mut self) -> Option<InvocationEvent> {
            loop {
                let Reverse(next) = self.queue.pop()?;
                let is_hot = next.lane == self.hot;
                let accept_p = rate_factor(&self.config, is_hot, next.at_ms)
                    / peak_factor(&self.config, is_hot);
                let (mean_ms, rng) = &mut self.lanes[next.lane];
                let gap = rng.exponential(*mean_ms).max(f64::MIN_POSITIVE);
                let accepted = rng.chance(accept_p);
                self.queue.push(Reverse(NextCandidate {
                    at_ms: next.at_ms + gap,
                    lane: next.lane,
                }));
                if accepted {
                    return Some(InvocationEvent {
                        at_ms: next.at_ms,
                        instance: next.lane,
                    });
                }
            }
        }
    }

    /// Compares `events` events of `stream` with `oracle`, bit for bit.
    fn assert_same_stream(
        stream: impl Iterator<Item = InvocationEvent>,
        oracle: impl Iterator<Item = InvocationEvent>,
        events: usize,
    ) -> Result<(), TestCaseError> {
        let mut stream = stream.fuse();
        let mut oracle = oracle.fuse();
        for i in 0..events {
            let (got, want) = (stream.next(), oracle.next());
            prop_assert_eq!(
                got.map(|e| (e.at_ms.to_bits(), e.instance)),
                want.map(|e| (e.at_ms.to_bits(), e.instance)),
                "event {}",
                i
            );
            if want.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// The `--chaos light` preset's surge shape.
    fn chaos_light_surge() -> SurgeConfig {
        SurgeConfig {
            diurnal_amplitude: 0.3,
            diurnal_period_ms: 60_000.0,
            flash_multiplier: 6.0,
            flash_start_ms: 10_000.0,
            flash_duration_ms: 15_000.0,
        }
    }

    /// A random population: 0–23 functions over a 256× rate spread.
    fn population() -> impl Strategy<Value = Population> {
        prop::collection::vec(0u32..256, 0..24).prop_map(|steps| {
            let rates_per_sec: Vec<f64> = steps
                .iter()
                .map(|&step| 2.0 * f64::from(step + 1))
                .collect();
            let lanes = rates_per_sec
                .iter()
                .map(|&rate| IatDistribution::Exponential {
                    mean_ms: 1000.0 / rate,
                })
                .collect();
            Population {
                lanes,
                rates_per_sec,
            }
        })
    }

    /// A random surge shape: diurnal ramp, flash crowd, both or neither.
    fn surge() -> impl Strategy<Value = SurgeConfig> {
        (0u32..4, 0u32..90, 1u32..40).prop_map(|(kind, depth, flash)| SurgeConfig {
            diurnal_amplitude: if kind & 1 == 1 {
                f64::from(depth) / 100.0
            } else {
                0.0
            },
            diurnal_period_ms: 7_000.0,
            flash_multiplier: if kind & 2 == 2 { f64::from(flash) } else { 1.0 },
            flash_start_ms: 2_000.0,
            flash_duration_ms: 3_000.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn stationary_stream_matches_the_linear_scan(
            population in population(),
            seed in any::<u64>(),
            events in 1usize..12_000,
        ) {
            let generator = population.generator(seed).unwrap();
            assert_same_stream(generator, LinearScan::new(&population, seed), events)?;
        }

        #[test]
        fn surge_stream_matches_the_heap(
            population in population(),
            shape in surge(),
            seed in any::<u64>(),
            events in 1usize..12_000,
        ) {
            let generator = population.surge_generator(seed, &shape);
            let oracle = HeapSurge::new(&population, seed, shape);
            assert_same_stream(generator, oracle, events)?;
        }
    }

    /// Two million arrivals of the default 200-function population, both
    /// stationary and under the `--chaos light` surge shape, against the
    /// oracles. Run with `cargo test --release -p luke-fleet -- --ignored`.
    #[test]
    #[ignore = "2M events per stream: run in release with --ignored"]
    fn two_million_events_match_the_oracles() {
        let config = FleetConfig::default();
        let population = Population::synthesize(&config);
        assert_eq!(population.lanes.len(), 200);
        let events = 2_000_000;
        assert_same_stream(
            population.generator(config.seed).unwrap(),
            LinearScan::new(&population, config.seed),
            events,
        )
        .unwrap();
        assert_same_stream(
            population.surge_generator(config.seed, &chaos_light_surge()),
            HeapSurge::new(&population, config.seed, chaos_light_surge()),
            events,
        )
        .unwrap();
    }

    fn config() -> FleetConfig {
        FleetConfig {
            population: 100,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn rates_sum_to_fleet_rate_and_are_positive() {
        let config = config();
        let pop = Population::synthesize(&config);
        assert_eq!(pop.lanes.len(), 100);
        let total: f64 = pop.rates_per_sec.iter().sum();
        assert!(
            (total - config.total_rate_per_sec()).abs() < 1e-9,
            "{total}"
        );
        assert!(pop.rates_per_sec.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let pop = Population::synthesize(&config());
        let max = pop.rates_per_sec.iter().cloned().fold(0.0, f64::max);
        let min = pop.rates_per_sec.iter().cloned().fold(f64::MAX, f64::min);
        // Zipf head/tail ratio (~15×) times up to 256× spread: the
        // extremes must differ by well over an order of magnitude.
        assert!(max / min > 20.0, "max/min = {}", max / min);
    }

    #[test]
    fn population_is_deterministic_in_the_seed() {
        let a = Population::synthesize(&config());
        let b = Population::synthesize(&config());
        assert_eq!(a.rates_per_sec, b.rates_per_sec);
        let other = Population::synthesize(&FleetConfig {
            seed: 999,
            ..config()
        });
        assert_ne!(a.rates_per_sec, other.rates_per_sec);
    }

    #[test]
    fn generator_streams_ordered_events_over_the_population() {
        let pop = Population::synthesize(&config());
        let mut generator = pop.generator(7).unwrap();
        let mut last = 0.0;
        let mut seen = std::collections::BTreeSet::new();
        for event in generator.by_ref().take(5_000) {
            assert!(event.at_ms >= last);
            last = event.at_ms;
            seen.insert(event.instance);
        }
        // The popular head must appear; most of the population should
        // show up within 5k events.
        assert!(seen.len() > 50, "only {} functions seen", seen.len());
    }

    #[test]
    fn surge_none_is_default_and_bad_knobs_are_named() {
        assert!(SurgeConfig::none().is_none());
        assert_eq!(SurgeConfig::default(), SurgeConfig::none());
        assert!(SurgeConfig::none().validate().is_ok());
        let cases = [
            (
                SurgeConfig {
                    diurnal_amplitude: 1.5,
                    ..SurgeConfig::none()
                },
                "surge.diurnal_amplitude",
            ),
            (
                SurgeConfig {
                    diurnal_amplitude: 0.3,
                    diurnal_period_ms: 0.0,
                    ..SurgeConfig::none()
                },
                "surge.diurnal_period_ms",
            ),
            (
                SurgeConfig {
                    flash_multiplier: f64::NAN,
                    ..SurgeConfig::none()
                },
                "surge.flash_multiplier",
            ),
            (
                SurgeConfig {
                    flash_multiplier: 8.0,
                    flash_duration_ms: 0.0,
                    ..SurgeConfig::none()
                },
                "surge.flash_duration_ms",
            ),
            (
                SurgeConfig {
                    flash_start_ms: -1.0,
                    ..SurgeConfig::none()
                },
                "surge.flash_start_ms",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().unwrap_err();
            assert!(format!("{err}").contains(field), "{err}");
        }
    }

    #[test]
    fn priorities_follow_rate_rank_in_thirds() {
        let pop = Population::synthesize(&config());
        let priorities = pop.priorities();
        assert_eq!(priorities.len(), 100);
        assert_eq!(priorities[pop.hot_function()], 2);
        let coldest = pop
            .rates_per_sec
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(priorities[coldest], 0);
        for p in [0u8, 1, 2] {
            let n = priorities.iter().filter(|&&x| x == p).count();
            assert!((30..=36).contains(&n), "priority {p} covers {n} functions");
        }
    }

    #[test]
    fn hot_function_is_the_rate_argmax() {
        let pop = Population::synthesize(&config());
        let hot = pop.hot_function();
        let max = pop.rates_per_sec.iter().cloned().fold(0.0, f64::max);
        assert_eq!(pop.rates_per_sec[hot], max);
    }

    #[test]
    fn surge_stream_is_ordered_and_deterministic() {
        let pop = Population::synthesize(&config());
        let surge = SurgeConfig {
            diurnal_amplitude: 0.4,
            diurnal_period_ms: 60_000.0,
            flash_multiplier: 10.0,
            flash_start_ms: 5_000.0,
            flash_duration_ms: 10_000.0,
        };
        let a: Vec<_> = pop.surge_generator(7, &surge).take(3_000).collect();
        let b: Vec<_> = pop.surge_generator(7, &surge).take(3_000).collect();
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
        assert_ne!(
            a,
            pop.surge_generator(8, &surge)
                .take(3_000)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn flash_window_concentrates_the_hot_function() {
        let pop = Population::synthesize(&config());
        let surge = SurgeConfig {
            flash_multiplier: 20.0,
            flash_start_ms: 10_000.0,
            flash_duration_ms: 10_000.0,
            ..SurgeConfig::none()
        };
        let hot = pop.hot_function();
        let events: Vec<_> = pop
            .surge_generator(3, &surge)
            .take_while(|e| e.at_ms < 30_000.0)
            .collect();
        let inside = events
            .iter()
            .filter(|e| e.instance == hot && (10_000.0..20_000.0).contains(&e.at_ms))
            .count() as f64;
        let outside = events
            .iter()
            .filter(|e| e.instance == hot && !(10_000.0..20_000.0).contains(&e.at_ms))
            .count() as f64;
        // The window is a third of the span but 20× the rate: the hot
        // function's arrivals must pile up inside it.
        assert!(
            inside > 4.0 * outside,
            "inside {inside} vs outside {outside}"
        );
    }

    #[test]
    fn disabled_surge_routes_through_the_stationary_generator() {
        let config = config();
        let pop = Population::synthesize(&config);
        let mut stream = ArrivalStream::synthesize(&config, &pop).unwrap();
        assert!(matches!(stream, ArrivalStream::Stationary(_)));
        let from_stream: Vec<_> = stream.by_ref().take(500).collect();
        let direct: Vec<_> = pop.generator(config.seed).unwrap().take(500).collect();
        assert_eq!(from_stream, direct, "disabled surge must be transparent");
        let surging = ArrivalStream::synthesize(
            &FleetConfig {
                surge: SurgeConfig {
                    diurnal_amplitude: 0.5,
                    diurnal_period_ms: 30_000.0,
                    ..SurgeConfig::none()
                },
                ..config
            },
            &pop,
        )
        .unwrap();
        assert!(matches!(surging, ArrivalStream::Surging(_)));
    }
}
