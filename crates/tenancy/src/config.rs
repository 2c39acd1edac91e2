//! Tenancy configuration: the dedup and contention knobs.
//!
//! Follows the workspace's disabled-sentinel contract:
//! [`TenancyConfig::disabled`] switches both subsystems off and is
//! bit-transparent — a fleet run with the disabled config produces
//! byte-identical output to a binary built before this crate existed.

use luke_common::SimError;

/// The contention pressure-curve parameters
/// (see [`crate::ContentionModel`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionConfig {
    /// Per-host working-set capacity the pressure is normalized
    /// against, bytes. `0` disables contention modeling.
    pub capacity_bytes: u64,
    /// Pressure below which co-residency is free, in `[0, 1)`.
    pub knee: f64,
    /// Slowdown added at exactly full capacity (`slowdown(1) = 1 + gain`).
    pub gain: f64,
    /// Curvature of the pressure curve (`1` = linear, `2` = quadratic).
    pub exponent: f64,
}

impl ContentionConfig {
    /// Contention modeling off (capacity 0): bit-transparent.
    pub fn disabled() -> Self {
        ContentionConfig {
            capacity_bytes: 0,
            knee: 0.6,
            gain: 1.2,
            exponent: 2.0,
        }
    }

    /// The default pressure curve: an 8 MiB per-host working-set
    /// budget — roughly what a dozen co-resident suite instances pin —
    /// with a knee at 60% and a quadratic tail.
    pub fn default_enabled() -> Self {
        ContentionConfig {
            capacity_bytes: 8 << 20,
            ..Self::disabled()
        }
    }

    /// Whether contention modeling is on.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Validates the curve parameters, naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..1.0).contains(&self.knee) {
            return Err(SimError::invalid_config(
                "tenancy.knee",
                format!("contention knee must be in [0, 1), got {}", self.knee),
            ));
        }
        if !(self.gain >= 0.0 && self.gain.is_finite()) {
            return Err(SimError::invalid_config(
                "tenancy.gain",
                format!("contention gain must be ≥ 0 and finite, got {}", self.gain),
            ));
        }
        if !(self.exponent >= 1.0 && self.exponent.is_finite()) {
            return Err(SimError::invalid_config(
                "tenancy.exponent",
                format!(
                    "contention exponent must be ≥ 1 and finite, got {}",
                    self.exponent
                ),
            ));
        }
        Ok(())
    }
}

/// The tenancy knobs: page-sharing dedup and contention modeling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenancyConfig {
    /// Content-addressed page sharing: co-resident same-language
    /// instances dedupe their shared runtime and library pages.
    pub dedup: bool,
    /// Fraction of each instance's shared-library pages it privatizes
    /// through copy-on-write breaks, in `[0, 1]`.
    pub cow_dirty_fraction: f64,
    /// The contention pressure curve.
    pub contention: ContentionConfig,
}

impl TenancyConfig {
    /// Both subsystems off: bit-transparent.
    pub fn disabled() -> Self {
        TenancyConfig {
            dedup: false,
            cow_dirty_fraction: 0.05,
            contention: ContentionConfig::disabled(),
        }
    }

    /// Dedup on with the default copy-on-write dirtying, contention off.
    pub fn dedup_enabled() -> Self {
        TenancyConfig {
            dedup: true,
            ..Self::disabled()
        }
    }

    /// Both subsystems on with default parameters.
    pub fn default_enabled() -> Self {
        TenancyConfig {
            dedup: true,
            cow_dirty_fraction: 0.05,
            contention: ContentionConfig::default_enabled(),
        }
    }

    /// Whether any tenancy modeling is active.
    pub fn enabled(&self) -> bool {
        self.dedup || self.contention.enabled()
    }

    /// Validates every field, naming the offending one.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&self.cow_dirty_fraction) {
            return Err(SimError::invalid_config(
                "tenancy.cow_dirty_fraction",
                format!(
                    "copy-on-write dirty fraction must be in [0, 1], got {}",
                    self.cow_dirty_fraction
                ),
            ));
        }
        self.contention.validate()
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_fully_off() {
        let config = TenancyConfig::disabled();
        assert!(!config.enabled());
        assert!(!config.contention.enabled());
        assert!(config.validate().is_ok());
        assert_eq!(TenancyConfig::default(), config);
    }

    #[test]
    fn either_knob_enables_tenancy() {
        assert!(TenancyConfig::dedup_enabled().enabled());
        assert!(TenancyConfig::default_enabled().enabled());
        let contention_only = TenancyConfig {
            contention: ContentionConfig::default_enabled(),
            ..TenancyConfig::disabled()
        };
        assert!(contention_only.enabled());
        assert!(!contention_only.dedup);
    }

    #[test]
    fn invalid_fields_are_named() {
        let cases = [
            (
                TenancyConfig {
                    cow_dirty_fraction: 1.5,
                    ..TenancyConfig::disabled()
                },
                "tenancy.cow_dirty_fraction",
            ),
            (
                TenancyConfig {
                    contention: ContentionConfig {
                        knee: 1.0,
                        ..ContentionConfig::default_enabled()
                    },
                    ..TenancyConfig::default_enabled()
                },
                "tenancy.knee",
            ),
            (
                TenancyConfig {
                    contention: ContentionConfig {
                        gain: f64::NAN,
                        ..ContentionConfig::default_enabled()
                    },
                    ..TenancyConfig::default_enabled()
                },
                "tenancy.gain",
            ),
            (
                TenancyConfig {
                    contention: ContentionConfig {
                        exponent: 0.5,
                        ..ContentionConfig::default_enabled()
                    },
                    ..TenancyConfig::default_enabled()
                },
                "tenancy.exponent",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().unwrap_err();
            assert!(format!("{err}").contains(field), "{field}");
        }
    }
}
