//! Log-bucketed (HDR-style) histograms for latency and size samples.
//!
//! Values below [`LINEAR_CUTOFF`] each get their own bucket (exact
//! resolution where cycle counts are small); above it, every power-of-two
//! octave is split into [`SUBS_PER_OCTAVE`] sub-buckets, bounding relative
//! error at ~25% while covering the full `u64` range in a few hundred
//! buckets. Percentiles are extracted by bucket walk and reported as the
//! bucket's inclusive upper bound, so `P99 >= actual P99` always holds.

/// Values below this get one bucket each (exact).
pub const LINEAR_CUTOFF: u64 = 32;

/// Sub-buckets per power-of-two octave above the linear region.
pub const SUBS_PER_OCTAVE: usize = 4;

const SUB_BITS: u32 = 2; // log2(SUBS_PER_OCTAVE)
const FIRST_OCTAVE_MSB: u32 = 5; // log2(LINEAR_CUTOFF)
const OCTAVES: usize = (64 - FIRST_OCTAVE_MSB) as usize;

/// Total bucket count.
pub const BUCKETS: usize = LINEAR_CUTOFF as usize + OCTAVES * SUBS_PER_OCTAVE;

/// The bucket index a value lands in.
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_CUTOFF {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let sub = ((value >> (msb - SUB_BITS)) & (SUBS_PER_OCTAVE as u64 - 1)) as usize;
    LINEAR_CUTOFF as usize + (msb - FIRST_OCTAVE_MSB) as usize * SUBS_PER_OCTAVE + sub
}

/// The half-open value range `[lo, hi)` bucket `index` covers.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < LINEAR_CUTOFF as usize {
        return (index as u64, index as u64 + 1);
    }
    let rel = index - LINEAR_CUTOFF as usize;
    let msb = FIRST_OCTAVE_MSB + (rel / SUBS_PER_OCTAVE) as u32;
    let sub = (rel % SUBS_PER_OCTAVE) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    let lo = (1u64 << msb) + sub * width;
    // The top sub-bucket of the top octave ends at u64::MAX (the
    // exclusive bound would overflow; the histogram treats it as
    // inclusive of u64::MAX).
    let hi = lo.saturating_add(width);
    (lo, hi)
}

/// A log-bucketed histogram of `u64` samples (see module docs).
///
/// The bucket vector only reaches the highest bucket recorded so far:
/// empty until the first sample, then grown on demand, so a histogram
/// that never records (or records only small values) never pays for the
/// full range. Every bucket past the vector's end counts zero, and
/// equality, quantiles and exports treat it so.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Per-bucket counts up to the highest bucket recorded (missing
    /// buckets count zero).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = bucket_index(value);
        self.cover(bucket + 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Grows the bucket vector to at least `len` buckets. Exact growth:
    /// the vector only ever grows to the next maximum bucket, so
    /// doubling would mostly hold zeros.
    fn cover(&mut self, len: usize) {
        if len > self.counts.len() {
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of bucket `index` (for tests and exporters).
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        assert!(index < BUCKETS, "bucket index {index} out of range");
        self.counts.get(index).copied().unwrap_or(0)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the
    /// inclusive upper bound of the bucket holding that rank, clamped to
    /// the recorded maximum. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.try_percentile(p).unwrap_or(0)
    }

    /// Nearest-rank percentile like [`Histogram::percentile`], but an
    /// empty histogram answers `None` instead of a fabricated 0 — the
    /// form windowed time-series use, where an empty window must render
    /// as missing data rather than a zero-latency claim.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return Some((hi - 1).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median sample (see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th-percentile sample.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th-percentile sample.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Folds `other` into `self` bucket-wise: counts and sums add
    /// (saturating), extremes combine. Merging histograms recorded on
    /// disjoint shards is exactly equivalent to recording every sample
    /// into one histogram, in any order — the property the fleet
    /// simulator's deterministic parallel merge relies on.
    pub fn merge(&mut self, other: &Histogram) {
        self.cover(other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        let buckets_eq =
            long[..short.len()] == short[..] && long[short.len()..].iter().all(|&c| c == 0);
        buckets_eq
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl Eq for Histogram {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `h` with its bucket vector padded to the full bucket range.
    fn full_length(h: &Histogram) -> Histogram {
        let mut counts = h.counts.clone();
        counts.resize(BUCKETS, 0);
        Histogram { counts, ..*h }
    }

    #[test]
    fn a_fresh_histogram_allocates_no_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0);
        h.merge(&Histogram::new());
        assert_eq!(h.counts.capacity(), 0);
        h.record(3);
        assert_eq!(h.counts.len(), 4);
        assert_eq!(h.bucket_count(BUCKETS - 1), 0);
        // An allocated all-zero vector is the same empty histogram.
        assert_eq!(full_length(&Histogram::new()), Histogram::new());
        assert_eq!(Histogram::new(), full_length(&Histogram::new()));
    }

    #[test]
    fn short_buckets_answer_like_the_full_length_vector() {
        // Small values only (the vector stops well short of the range),
        // then a second histogram reaching much higher buckets.
        let mut low = Histogram::new();
        for i in 0..300u64 {
            low.record(i * 13 % 2_400);
        }
        let mut high = Histogram::new();
        for i in 0..50u64 {
            high.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 40));
        }
        assert!(low.counts.len() < BUCKETS / 2, "{}", low.counts.len());
        assert!(high.counts.len() > low.counts.len());
        let quantiles = |h: &Histogram| {
            (0..=40)
                .map(|step| h.try_percentile(step as f64 * 2.5))
                .collect::<Vec<_>>()
        };
        let buckets = |h: &Histogram| (0..BUCKETS).map(|i| h.bucket_count(i)).collect::<Vec<_>>();
        for h in [&low, &high] {
            let full = full_length(h);
            assert_eq!(quantiles(h), quantiles(&full));
            assert_eq!(buckets(h), buckets(&full));
            assert_eq!(*h, full);
            assert_eq!(full, *h);
        }
        assert_ne!(low, full_length(&high));
        assert_ne!(full_length(&high), low);
        // A merge extends the shorter side to cover the longer one, in
        // either direction and against either layout.
        let mut expected = full_length(&low);
        expected.merge(&full_length(&high));
        for (a, b) in [
            (low.clone(), high.clone()),
            (low.clone(), full_length(&high)),
            (full_length(&low), high.clone()),
            (high.clone(), low.clone()),
        ] {
            let mut merged = a;
            merged.merge(&b);
            assert_eq!(merged, expected);
            assert_eq!(quantiles(&merged), quantiles(&expected));
            assert_eq!(buckets(&merged), buckets(&expected));
        }
    }

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn every_value_falls_in_its_bucket() {
        for &v in &[
            0,
            1,
            31,
            32,
            33,
            47,
            48,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v, "{v}: lo {lo}");
            assert!(v < hi || hi == u64::MAX, "{v}: hi {hi}");
        }
    }

    #[test]
    fn bounds_are_contiguous_and_monotone() {
        let mut prev_hi = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} must start where {} ended", i - 1);
            assert!(hi > lo, "bucket {i} must be non-empty");
            prev_hi = hi;
            if hi == u64::MAX {
                break;
            }
        }
    }

    #[test]
    fn percentiles_of_identical_small_values_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7);
        }
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p99(), 7);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn percentile_orders_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.p50() >= 450 && h.p50() <= 600, "p50 {}", h.p50());
        assert!(h.p99() >= 950, "p99 {}", h.p99());
        assert!(h.p99() <= h.max());
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        // The Option form distinguishes "empty" from "all zeros".
        assert_eq!(h.try_percentile(50.0), None);
        assert_eq!(h.try_percentile(99.0), None);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples = [1u64, 7, 31, 32, 700, 5000, 1 << 30];
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
