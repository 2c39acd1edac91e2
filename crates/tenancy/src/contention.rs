//! The multi-tenant contention model: a continuous pressure curve.
//!
//! Co-residency is not free — tenants contend for LLC capacity and
//! DRAM bandwidth, and the damage grows with how much co-resident
//! working set the host juggles. Instead of a binary "flushed or not"
//! model, [`ContentionModel`] maps the host's resident working-set
//! bytes to a *pressure* (`resident / capacity`) and converts pressure
//! past a knee into a continuous slowdown factor applied to both
//! service time and page-fault cost:
//!
//! ```text
//! slowdown(p) = 1                                    p ≤ knee
//!             = 1 + gain · ((p − knee)/(1 − knee))^e  p > knee
//! ```
//!
//! Below the knee the caches absorb the co-residency; past it, every
//! additional resident byte costs more than the last (`e > 1` bows the
//! curve upward). At exactly full capacity the slowdown is `1 + gain`.
//! The factor is clamped so a badly oversubscribed host degrades hard
//! but never diverges.

use crate::config::ContentionConfig;

/// Hard ceiling on the slowdown factor: an oversubscribed host thrashes
/// but the model stays bounded.
const MAX_SLOWDOWN: f64 = 4.0;

/// The pressure-curve contention model (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionModel {
    capacity_bytes: u64,
    knee: f64,
    gain: f64,
    exponent: f64,
}

impl ContentionModel {
    /// Builds the model from a validated [`ContentionConfig`].
    pub fn new(config: &ContentionConfig) -> Self {
        ContentionModel {
            capacity_bytes: config.capacity_bytes,
            knee: config.knee,
            gain: config.gain,
            exponent: config.exponent,
        }
    }

    /// The host's working-set pressure for `resident_bytes` of
    /// co-resident footprint: `resident / capacity`, unclamped (a host
    /// can be oversubscribed past 1.0).
    pub fn pressure(&self, resident_bytes: u64) -> f64 {
        resident_bytes as f64 / self.capacity_bytes as f64
    }

    /// The continuous slowdown factor at `resident_bytes`, in
    /// `[1, MAX_SLOWDOWN]`.
    pub fn slowdown(&self, resident_bytes: u64) -> f64 {
        let p = self.pressure(resident_bytes);
        if p <= self.knee {
            return 1.0;
        }
        let over = (p - self.knee) / (1.0 - self.knee);
        (1.0 + self.gain * over.powf(self.exponent)).min(MAX_SLOWDOWN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ContentionModel {
        ContentionModel::new(&ContentionConfig {
            capacity_bytes: 1 << 20, // 1 MiB
            knee: 0.5,
            gain: 1.0,
            exponent: 2.0,
        })
    }

    #[test]
    fn below_the_knee_is_free() {
        let m = model();
        assert_eq!(m.slowdown(0), 1.0);
        assert_eq!(m.slowdown(1 << 19), 1.0, "exactly at the knee");
        assert_eq!(m.slowdown(100), 1.0);
    }

    #[test]
    fn slowdown_is_continuous_and_monotone_past_the_knee() {
        let m = model();
        let just_past = m.slowdown((1 << 19) + 4096);
        assert!(
            just_past > 1.0 && just_past < 1.01,
            "continuous at the knee: {just_past}"
        );
        let mut last = 1.0;
        for pages in 0..600 {
            let s = m.slowdown(pages * 4096);
            assert!(s >= last, "monotone: {s} after {last}");
            last = s;
        }
    }

    #[test]
    fn full_capacity_costs_exactly_one_gain() {
        let m = model();
        let full = m.slowdown(1 << 20);
        assert!((full - 2.0).abs() < 1e-12, "1 + gain at p = 1: {full}");
    }

    #[test]
    fn oversubscription_is_clamped() {
        let m = model();
        assert_eq!(m.slowdown(u64::MAX / 2), 4.0);
    }

    #[test]
    fn exponent_bows_the_curve() {
        let linear = ContentionModel::new(&ContentionConfig {
            capacity_bytes: 1 << 20,
            knee: 0.0,
            gain: 1.0,
            exponent: 1.0,
        });
        let convex = ContentionModel::new(&ContentionConfig {
            capacity_bytes: 1 << 20,
            knee: 0.0,
            gain: 1.0,
            exponent: 2.0,
        });
        let half = 1u64 << 19;
        assert!(convex.slowdown(half) < linear.slowdown(half));
        let full = 1u64 << 20;
        assert!((convex.slowdown(full) - linear.slowdown(full)).abs() < 1e-12);
    }
}
