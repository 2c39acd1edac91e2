//! Invocation inter-arrival-time (IAT) distributions.
//!
//! The Azure Functions study the paper builds on (§2.1) shows fewer than
//! 5% of invocations arrive less than a second apart: the vast majority of
//! warm-instance IATs lie between one second and a few minutes. The
//! characterization (Figure 1) sweeps fixed IATs; host-level traffic uses
//! exponential (Poisson) arrivals.

use luke_common::rng::DetRng;
use luke_common::SimError;

/// A distribution of inter-arrival times, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IatDistribution {
    /// Every gap is exactly this many milliseconds (Figure 1 sweep).
    Fixed(f64),
    /// Exponentially distributed gaps with the given mean (Poisson
    /// arrivals).
    Exponential {
        /// Mean inter-arrival time in milliseconds.
        mean_ms: f64,
    },
}

impl IatDistribution {
    /// Creates a fixed-gap distribution, rejecting negative or non-finite
    /// gaps.
    pub fn fixed(ms: f64) -> Result<Self, SimError> {
        let d = IatDistribution::Fixed(ms);
        d.validate()?;
        Ok(d)
    }

    /// Creates an exponential (Poisson-arrival) distribution, rejecting a
    /// non-positive or non-finite mean.
    pub fn exponential(mean_ms: f64) -> Result<Self, SimError> {
        let d = IatDistribution::Exponential { mean_ms };
        d.validate()?;
        Ok(d)
    }

    /// Checks the distribution parameter, since the enum variants are
    /// directly constructible.
    pub fn validate(&self) -> Result<(), SimError> {
        match *self {
            IatDistribution::Fixed(ms) if !(ms >= 0.0 && ms.is_finite()) => {
                Err(SimError::invalid_config(
                    "iat.fixed_ms",
                    format!("fixed IAT must be ≥ 0 and finite, got {ms}"),
                ))
            }
            IatDistribution::Exponential { mean_ms } if !(mean_ms > 0.0 && mean_ms.is_finite()) => {
                Err(SimError::invalid_config(
                    "iat.mean_ms",
                    format!("exponential IAT mean must be > 0 and finite, got {mean_ms}"),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Samples the next gap in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the distribution parameter is invalid (the enum variants
    /// are directly constructible, bypassing [`IatDistribution::fixed`] /
    /// [`IatDistribution::exponential`]). Validated call sites never panic.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self.sample_unchecked(rng)
    }

    /// Samples the next gap of a distribution the caller has already
    /// validated (the traffic generator checks every lane once, up front).
    #[inline]
    pub(crate) fn sample_unchecked(&self, rng: &mut DetRng) -> f64 {
        match *self {
            IatDistribution::Fixed(ms) => ms,
            IatDistribution::Exponential { mean_ms } => rng.exponential(mean_ms),
        }
    }

    /// The distribution mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        match *self {
            IatDistribution::Fixed(ms) => ms,
            IatDistribution::Exponential { mean_ms } => mean_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let d = IatDistribution::Fixed(250.0);
        let mut rng = DetRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 250.0);
        }
        assert_eq!(d.mean_ms(), 250.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = IatDistribution::Exponential { mean_ms: 1000.0 };
        let mut rng = DetRng::new(2);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean {mean}");
        assert_eq!(d.mean_ms(), 1000.0);
    }

    #[test]
    fn exponential_samples_are_positive() {
        let d = IatDistribution::Exponential { mean_ms: 5.0 };
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn negative_fixed_rejected() {
        IatDistribution::Fixed(-1.0).sample(&mut DetRng::new(0));
    }

    #[test]
    fn validated_constructors_reject_bad_parameters() {
        assert!(IatDistribution::fixed(-1.0).is_err());
        assert!(IatDistribution::fixed(f64::NAN).is_err());
        assert!(IatDistribution::fixed(f64::INFINITY).is_err());
        assert!(IatDistribution::exponential(0.0).is_err());
        assert!(IatDistribution::exponential(-5.0).is_err());
        assert_eq!(
            IatDistribution::fixed(250.0).unwrap(),
            IatDistribution::Fixed(250.0)
        );
        assert_eq!(
            IatDistribution::exponential(10.0).unwrap(),
            IatDistribution::Exponential { mean_ms: 10.0 }
        );
    }

    #[test]
    fn validation_error_is_one_line_and_names_the_field() {
        let err = IatDistribution::fixed(-1.0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("iat.fixed_ms"), "{msg}");
        assert!(!msg.contains('\n'));
    }
}
