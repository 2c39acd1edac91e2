//! Per-function service-time model: where the per-host interleaving
//! degree meets the `sim` timing model.
//!
//! Each function has a warm (back-to-back) service time and two latency
//! multipliers — fully lukewarm without and with Jukebox. The fleet
//! estimates a per-invocation *interleaving degree* in `[0, 1]` from the
//! host's arrival rate and the instance's idle gap (the
//! [`server::InterleaveModel`] cache-decay law), and interpolates:
//! `service = warm × (1 + degree × (factor − 1))`.
//!
//! Two constructors: [`ServiceModel::analytic`] derives timings from the
//! function profiles in closed form (cheap, used by the CLI and unit
//! tests), while [`ServiceModel::from_timings`] accepts timings
//! *calibrated from the cycle-accurate simulator* — the
//! `experiments::fleet_scale` module measures each profile's warm,
//! lukewarm, and lukewarm+Jukebox CPI with `runner::run` and feeds the
//! ratios in here, closing the loop between fleet scheduling and the
//! microarchitectural model.

use luke_common::SimError;
use server::InterleaveModel;
use workloads::FunctionProfile;

/// Skylake core frequency (Table 1), for the analytic cycles→ms map.
pub const FREQ_GHZ: f64 = 2.6;

/// Skylake private L2: 1MB of 64B lines (Table 1).
pub const L2_LINES: usize = 16_384;

/// Skylake shared LLC: 8MB of 64B lines (Table 1).
pub const LLC_LINES: usize = 131_072;

/// Warm-path CPI assumed by the analytic model (§4: warm CPI ≈ 1).
const ANALYTIC_WARM_CPI: f64 = 0.9;

/// Fraction of the lukewarm penalty Jukebox recovers in the analytic
/// model (§6: Jukebox eliminates most of the instruction-fetch share of
/// the penalty; 18–46% end-to-end speedups).
const ANALYTIC_JUKEBOX_RECOVERY: f64 = 0.65;

/// Weight of the (slow-decaying) LLC term in the blended degree; the
/// private-level term carries the rest. Mirrors Figure 1's two-knee
/// shape: private levels die in tens of milliseconds, the LLC in
/// seconds.
const LLC_DEGREE_WEIGHT: f64 = 0.3;

/// One function's calibrated timings.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionTiming {
    /// Function name (paper-suite name for suite profiles).
    pub name: String,
    /// Warm (back-to-back) service time, ms.
    pub warm_ms: f64,
    /// Latency multiplier at full interleaving, no prefetcher
    /// (Figure 2's 31–114% degradations → 1.31–2.14).
    pub lukewarm_factor: f64,
    /// Latency multiplier at full interleaving with Jukebox.
    pub jukebox_factor: f64,
}

/// The fleet's service-time model (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceModel {
    timings: Vec<FunctionTiming>,
    /// Cache-decay law; its `other_invocations_per_sec` is overridden
    /// per call with the host's observed foreign rate.
    pub interleave: InterleaveModel,
    /// Private-cache capacity driving the fast decay term, lines.
    pub l2_lines: usize,
    /// Shared-LLC capacity driving the slow decay term, lines.
    pub llc_lines: usize,
    /// Warm hits with a degree at or above this are classified
    /// *lukewarm* (the paper's "warm but microarchitecturally cold").
    pub lukewarm_threshold: f64,
}

impl ServiceModel {
    /// Builds a model from explicit (e.g. simulator-calibrated) timings.
    pub fn from_timings(timings: Vec<FunctionTiming>) -> Result<Self, SimError> {
        if timings.is_empty() {
            return Err(SimError::invalid_config(
                "fleet.timings",
                "at least one function timing is required",
            ));
        }
        for t in &timings {
            if !(t.warm_ms > 0.0 && t.warm_ms.is_finite()) {
                return Err(SimError::invalid_config(
                    "fleet.timings.warm_ms",
                    format!(
                        "{}: warm service time must be positive, got {}",
                        t.name, t.warm_ms
                    ),
                ));
            }
            if !(t.lukewarm_factor >= 1.0 && t.lukewarm_factor.is_finite()) {
                return Err(SimError::invalid_config(
                    "fleet.timings.lukewarm_factor",
                    format!(
                        "{}: lukewarm factor must be ≥ 1, got {}",
                        t.name, t.lukewarm_factor
                    ),
                ));
            }
            if !(t.jukebox_factor >= 1.0 && t.jukebox_factor <= t.lukewarm_factor) {
                return Err(SimError::invalid_config(
                    "fleet.timings.jukebox_factor",
                    format!(
                        "{}: jukebox factor must be in [1, lukewarm], got {}",
                        t.name, t.jukebox_factor
                    ),
                ));
            }
        }
        Ok(ServiceModel {
            timings,
            interleave: InterleaveModel::high_occupancy(),
            l2_lines: L2_LINES,
            llc_lines: LLC_LINES,
            lukewarm_threshold: 0.25,
        })
    }

    /// Closed-form timings straight from the profiles: warm time from
    /// the instruction count at Skylake frequency, lukewarm penalty
    /// scaling with the code footprint (Figure 2 correlates degradation
    /// with footprint), Jukebox recovering a fixed share of it.
    pub fn analytic(profiles: &[FunctionProfile]) -> Result<Self, SimError> {
        let timings = profiles
            .iter()
            .map(|p| {
                let cycles = p.instructions as f64 * ANALYTIC_WARM_CPI;
                let warm_ms = cycles / (FREQ_GHZ * 1e6);
                // 830KB (Pay-N) is the suite's largest footprint; map
                // 300–830KB onto ≈1.3–2.15, Figure 2's observed band.
                let footprint_share = p.code_footprint.as_kib() / 830.0;
                let lukewarm_factor = (1.3 + 0.85 * footprint_share).min(2.2);
                let jukebox_factor =
                    1.0 + (lukewarm_factor - 1.0) * (1.0 - ANALYTIC_JUKEBOX_RECOVERY);
                FunctionTiming {
                    name: p.name.clone(),
                    warm_ms,
                    lukewarm_factor,
                    jukebox_factor,
                }
            })
            .collect();
        Self::from_timings(timings)
    }

    /// Number of modeled functions.
    pub fn functions(&self) -> usize {
        self.timings.len()
    }

    /// Timing of function `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn timing(&self, idx: usize) -> &FunctionTiming {
        &self.timings[idx]
    }

    /// Interleaving degree in `[0, 1]` for an instance that sat idle
    /// `gap_ms` on a host whose *other* instances arrive at
    /// `other_per_sec`: a blend of private-level and LLC decay.
    pub fn degree(&self, other_per_sec: f64, gap_ms: f64) -> f64 {
        let m = InterleaveModel {
            other_invocations_per_sec: other_per_sec.max(0.0),
            ..self.interleave
        };
        let private = m.decay_fraction(self.l2_lines, gap_ms);
        let llc = m.llc_decay_fraction(self.llc_lines, gap_ms);
        (1.0 - LLC_DEGREE_WEIGHT) * private + LLC_DEGREE_WEIGHT * llc
    }

    /// Service time of function `idx` at interleaving `degree`, with or
    /// without Jukebox.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn service_ms(&self, idx: usize, degree: f64, jukebox: bool) -> f64 {
        let t = &self.timings[idx];
        let factor = if jukebox {
            t.jukebox_factor
        } else {
            t.lukewarm_factor
        };
        t.warm_ms * (1.0 + degree.clamp(0.0, 1.0) * (factor - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    fn model() -> ServiceModel {
        ServiceModel::analytic(&paper_suite()).unwrap()
    }

    #[test]
    fn analytic_covers_the_suite_with_sane_magnitudes() {
        let m = model();
        assert_eq!(m.functions(), 20);
        for i in 0..m.functions() {
            let t = m.timing(i);
            // Sub-millisecond warm functions (§2.2's ~1ms example).
            assert!(
                t.warm_ms > 0.05 && t.warm_ms < 5.0,
                "{}: {}",
                t.name,
                t.warm_ms
            );
            // Figure 2's 31–114% degradation band.
            assert!(
                (1.25..=2.2).contains(&t.lukewarm_factor),
                "{}: {}",
                t.name,
                t.lukewarm_factor
            );
            assert!(t.jukebox_factor >= 1.0 && t.jukebox_factor < t.lukewarm_factor);
        }
    }

    #[test]
    fn larger_footprint_larger_penalty() {
        let m = model();
        let suite = paper_suite();
        let pay_n = suite.iter().position(|p| p.name == "Pay-N").unwrap();
        let prodl_g = suite.iter().position(|p| p.name == "ProdL-G").unwrap();
        assert!(m.timing(pay_n).lukewarm_factor > m.timing(prodl_g).lukewarm_factor);
    }

    #[test]
    fn degree_grows_with_gap_and_rate() {
        let m = model();
        assert_eq!(m.degree(500.0, 0.0), 0.0);
        let short = m.degree(500.0, 5.0);
        let long = m.degree(500.0, 500.0);
        assert!(short < long, "{short} vs {long}");
        assert!(long <= 1.0);
        assert!(m.degree(50.0, 100.0) < m.degree(500.0, 100.0));
    }

    #[test]
    fn service_time_interpolates_between_warm_and_lukewarm() {
        let m = model();
        let warm = m.service_ms(0, 0.0, false);
        let half = m.service_ms(0, 0.5, false);
        let full = m.service_ms(0, 1.0, false);
        assert_eq!(warm, m.timing(0).warm_ms);
        assert!(warm < half && half < full);
        assert!((full / warm - m.timing(0).lukewarm_factor).abs() < 1e-12);
        // Jukebox strictly reduces the interleaved penalty.
        assert!(m.service_ms(0, 1.0, true) < full);
        assert_eq!(m.service_ms(0, 0.0, true), warm);
    }

    #[test]
    fn bad_timings_are_rejected() {
        assert!(ServiceModel::from_timings(vec![]).is_err());
        let bad = FunctionTiming {
            name: "x".into(),
            warm_ms: 0.0,
            lukewarm_factor: 1.5,
            jukebox_factor: 1.2,
        };
        assert!(ServiceModel::from_timings(vec![bad]).is_err());
        let inverted = FunctionTiming {
            name: "x".into(),
            warm_ms: 1.0,
            lukewarm_factor: 1.2,
            jukebox_factor: 1.5,
        };
        assert!(ServiceModel::from_timings(vec![inverted]).is_err());
    }
}
