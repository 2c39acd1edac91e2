//! Log-bucketed inter-arrival-time histogram.

use luke_obs::hist::{bucket_bounds, bucket_index};

/// A log-bucketed histogram of one function's inter-arrival times, in
/// milliseconds.
///
/// Reuses the observability crate's HDR-style bucket geometry (exact
/// below 32 ms, ~25% relative error above), so a few hundred `u32`
/// counters cover the full range from sub-millisecond bursts to
/// multi-hour gaps. Quantiles report the holding bucket's inclusive
/// upper bound, clamped to the recorded maximum — a deliberate
/// *overestimate*: a predicted arrival errs late (the pre-warm never
/// fires earlier than the model can justify) and a decay deadline errs
/// long (an instance is never released before the quantile the policy
/// asked for has truly passed).
///
/// The bucket vector only reaches the highest bucket recorded so far:
/// empty until the first gap, then grown on demand. A fleet host keeps
/// one histogram per function it has seen, and their gaps cluster in
/// the low buckets, so the ~1 KB full range is rarely paid. Every bucket
/// past the vector's end counts zero, and equality and quantiles treat
/// it so: the representation never shows.
#[derive(Clone, Debug)]
pub struct IatHistogram {
    /// Per-bucket gap counts up to the highest bucket recorded (missing
    /// buckets count zero).
    counts: Vec<u32>,
    count: u64,
    sum_ms: u64,
    max_ms: u64,
}

impl Default for IatHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl IatHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        IatHistogram {
            counts: Vec::new(),
            count: 0,
            sum_ms: 0,
            max_ms: 0,
        }
    }

    /// Records one inter-arrival gap. Non-finite or negative samples are
    /// ignored (they cannot arise from a monotone simulated clock, but
    /// the model must never poison itself on one).
    pub fn record(&mut self, iat_ms: f64) {
        if !iat_ms.is_finite() || iat_ms < 0.0 {
            return;
        }
        let value = iat_ms.round() as u64;
        let bucket = bucket_index(value);
        self.cover(bucket + 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_ms = self.sum_ms.saturating_add(value);
        self.max_ms = self.max_ms.max(value);
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

    /// Number of recorded gaps.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean gap (0 if empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms as f64 / self.count as f64
        }
    }

    /// Largest recorded gap (0 if empty).
    pub fn max_ms(&self) -> u64 {
        self.max_ms
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) as the inclusive upper
    /// bound of the holding bucket, clamped to the recorded maximum.
    /// `None` while empty: an unsampled model stays silent rather than
    /// fabricating a prediction.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return Some((hi - 1).min(self.max_ms) as f64);
            }
        }
        Some(self.max_ms as f64)
    }

    /// Folds `other` into `self` bucket-wise. Merging histograms fed on
    /// disjoint arrival streams is exactly equivalent to recording every
    /// gap into one histogram, in any order — the property the fleet's
    /// deterministic parallel merge relies on.
    pub fn merge(&mut self, other: &IatHistogram) {
        self.cover(other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ms = self.sum_ms.saturating_add(other.sum_ms);
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

impl PartialEq for IatHistogram {
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
            && self.sum_ms == other.sum_ms
            && self.max_ms == other.max_ms
    }
}

impl Eq for IatHistogram {}

#[cfg(test)]
impl IatHistogram {
    /// Whether bucket storage has been allocated.
    pub(crate) fn has_buckets(&self) -> bool {
        !self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_obs::hist::BUCKETS;

    #[test]
    fn empty_histogram_stays_silent() {
        let h = IatHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantile_overestimates_but_clamps_to_max() {
        let mut h = IatHistogram::new();
        for _ in 0..100 {
            h.record(1000.0);
        }
        let q = h.quantile(0.5).unwrap();
        assert!(q >= 1000.0, "quantile must not underestimate: {q}");
        assert!(q <= h.max_ms() as f64, "quantile must clamp to max: {q}");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = IatHistogram::new();
        for i in 0..500u64 {
            h.record((i * 7 % 3000) as f64);
        }
        let mut last = 0.0;
        for step in 0..=20 {
            let q = h.quantile(step as f64 / 20.0).unwrap();
            assert!(q >= last, "quantile({step}/20) = {q} < {last}");
            last = q;
        }
    }

    #[test]
    fn negative_and_non_finite_samples_are_ignored() {
        let mut h = IatHistogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = IatHistogram::new();
        let mut b = IatHistogram::new();
        let mut both = IatHistogram::new();
        for i in 0..200u64 {
            let v = (i * i % 5000) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    /// `count` gaps spread over the bucket range.
    fn recorded(count: u64) -> IatHistogram {
        let mut h = IatHistogram::new();
        for i in 0..count {
            h.record((i * 37 % 9_000) as f64);
        }
        h
    }

    #[test]
    fn new_histogram_holds_no_bucket_storage() {
        let h = IatHistogram::new();
        assert!(!h.has_buckets());
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        // Ignored samples never allocate either.
        let mut ignored = IatHistogram::new();
        ignored.record(f64::NAN);
        ignored.record(-5.0);
        assert!(!ignored.has_buckets());
        assert_eq!(ignored.quantile(0.5), None);
        // The first real gap does.
        ignored.record(3.0);
        assert!(ignored.has_buckets());
    }

    #[test]
    fn empty_and_full_merge_in_either_direction_equal_sequential_recording() {
        let full = recorded(150);
        let mut empty_into_full = full.clone();
        empty_into_full.merge(&IatHistogram::new());
        assert_eq!(empty_into_full, full);
        let mut full_into_empty = IatHistogram::new();
        full_into_empty.merge(&full);
        assert!(full_into_empty.has_buckets());
        assert_eq!(full_into_empty, full);
        assert_eq!(full_into_empty.quantile(0.9), full.quantile(0.9));
    }

    #[test]
    fn never_recorded_equals_merged_with_only_empty_histograms() {
        let never = IatHistogram::new();
        let mut merged = IatHistogram::new();
        for _ in 0..3 {
            merged.merge(&IatHistogram::new());
        }
        assert_eq!(merged, never);
        assert_eq!(merged.quantile(0.5), None);
        // An allocated all-zero vector is the same empty histogram.
        let zeroed = IatHistogram {
            counts: vec![0; BUCKETS],
            ..IatHistogram::new()
        };
        assert_eq!(zeroed, never);
        assert_eq!(never, zeroed);
        assert_ne!(recorded(1), never);
        assert_ne!(zeroed, recorded(1));
    }

    /// `h` with its bucket vector padded to the full bucket range.
    fn full_length(h: &IatHistogram) -> IatHistogram {
        let mut counts = h.counts.clone();
        counts.resize(BUCKETS, 0);
        IatHistogram { counts, ..*h }
    }

    #[test]
    fn short_buckets_answer_like_the_full_length_vector() {
        // Low gaps only (the vector stops well short of the range), then
        // a second stream reaching much higher buckets.
        let mut low = IatHistogram::new();
        for i in 0..300u64 {
            low.record((i * 13 % 2_400) as f64);
        }
        let mut high = IatHistogram::new();
        for i in 0..50u64 {
            high.record((i * 977_777 % 50_000_000) as f64);
        }
        assert!(low.counts.len() < BUCKETS / 2, "{}", low.counts.len());
        assert!(high.counts.len() > low.counts.len());
        let quantiles = |h: &IatHistogram| {
            (0..=40)
                .map(|step| h.quantile(step as f64 / 40.0))
                .collect::<Vec<_>>()
        };
        for h in [&low, &high] {
            let full = full_length(h);
            assert_eq!(quantiles(h), quantiles(&full));
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
        ] {
            let mut merged = a;
            merged.merge(&b);
            assert_eq!(merged, expected);
            assert_eq!(quantiles(&merged), quantiles(&expected));
        }
        let mut reversed = high.clone();
        reversed.merge(&low);
        assert_eq!(reversed, expected);
        assert_eq!(reversed.counts.len(), high.counts.len());
    }
}
