//! The per-function arrival model: log-bucketed history plus a hybrid
//! prediction head.

use crate::config::PrewarmConfig;
use crate::hist::IatHistogram;

/// Gaps kept in the short recency window for the periodicity head.
const RECENT_WINDOW: usize = 8;

/// Recent gaps required before the periodicity head may fire.
const MIN_PERIODIC_SAMPLES: usize = 4;

/// One function's online inter-arrival-time model.
///
/// Feeds every observed arrival into a log-bucketed [`IatHistogram`]
/// and a short recency ring. Predictions come from a **hybrid head**:
/// when the recent gaps are regular (coefficient of variation at or
/// below [`PrewarmConfig::periodic_cv`]) the head answers the recent
/// mean — the timer-driven / cron-style case where a point prediction
/// beats any quantile — and otherwise it falls back to the histogram
/// quantile, which is all one can honestly say about a bursty stream.
/// Entirely clock-free: arrivals carry their own simulated timestamps.
#[derive(Clone, Debug, PartialEq)]
pub struct Predictor {
    hist: IatHistogram,
    recent: [f64; RECENT_WINDOW],
    recent_len: usize,
    recent_head: usize,
    last_arrival_ms: Option<f64>,
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

impl Predictor {
    /// A model that has seen nothing.
    pub const fn new() -> Self {
        Predictor {
            hist: IatHistogram::new(),
            recent: [0.0; RECENT_WINDOW],
            recent_len: 0,
            recent_head: 0,
            last_arrival_ms: None,
        }
    }

    /// Feeds one arrival at simulated time `now_ms`. The first arrival
    /// only anchors the clock; every later one records a gap.
    pub fn observe(&mut self, now_ms: f64) {
        if let Some(last) = self.last_arrival_ms {
            let iat = now_ms - last;
            self.hist.record(iat);
            self.recent[self.recent_head] = iat.max(0.0);
            self.recent_head = (self.recent_head + 1) % RECENT_WINDOW;
            self.recent_len = (self.recent_len + 1).min(RECENT_WINDOW);
        }
        self.last_arrival_ms = Some(now_ms);
    }

    /// Simulated time of the most recent arrival, if any.
    pub fn last_arrival_ms(&self) -> Option<f64> {
        self.last_arrival_ms
    }

    /// Observed gaps so far.
    pub fn samples(&self) -> u64 {
        self.hist.count()
    }

    /// The underlying histogram (read-only, for exporters and tests).
    pub fn histogram(&self) -> &IatHistogram {
        &self.hist
    }

    /// Mean and coefficient of variation over the recency window, if
    /// the periodicity head has enough gaps to speak.
    fn recent_stats(&self) -> Option<(f64, f64)> {
        if self.recent_len < MIN_PERIODIC_SAMPLES {
            return None;
        }
        let window = &self.recent[..self.recent_len];
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        let var = window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / window.len() as f64;
        Some((mean, var.sqrt() / mean))
    }

    /// Predicted gap until the next arrival, or `None` while the model
    /// is under-sampled (fewer than [`PrewarmConfig::min_samples`] gaps
    /// and no periodic signal).
    pub fn predicted_iat_ms(&self, config: &PrewarmConfig) -> Option<f64> {
        if let Some((mean, cv)) = self.recent_stats() {
            if cv <= config.periodic_cv {
                return Some(mean);
            }
        }
        if self.hist.count() >= config.min_samples {
            return self.hist.quantile(config.prewarm_quantile);
        }
        None
    }

    /// The adaptive keep-alive for this function, clamped to
    /// `[min_hold_ms, cap_ms]` where `cap_ms` is the pool's global
    /// keep-alive. Under-sampled functions answer the cap — exactly the
    /// fixed-window behavior — so the policy only ever deviates on
    /// evidence. A periodic function decays at the hold floor: the
    /// pre-warm stream, not residency, covers its next arrival.
    pub fn hold_ms(&self, config: &PrewarmConfig, cap_ms: f64) -> f64 {
        let floor = config.min_hold_ms.min(cap_ms);
        if let Some((_, cv)) = self.recent_stats() {
            if cv <= config.periodic_cv {
                return floor;
            }
        }
        if self.hist.count() < config.min_samples {
            return cap_ms;
        }
        match self.hist.quantile(config.decay_quantile) {
            Some(q) => q.clamp(floor, cap_ms),
            None => cap_ms,
        }
    }

    /// Folds `other` into `self`: histograms add; the recency window
    /// and clock anchor are taken from whichever side saw the later
    /// arrival (deterministic — no tie can arise between models fed on
    /// disjoint arrival streams of one function, and an exact tie keeps
    /// `self`).
    pub fn merge(&mut self, other: &Predictor) {
        self.hist.merge(&other.hist);
        let other_later = match (self.last_arrival_ms, other.last_arrival_ms) {
            (Some(a), Some(b)) => b > a,
            (None, Some(_)) => true,
            _ => false,
        };
        if other_later {
            self.recent = other.recent;
            self.recent_len = other.recent_len;
            self.recent_head = other.recent_head;
            self.last_arrival_ms = other.last_arrival_ms;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PrewarmConfig {
        PrewarmConfig::default_enabled()
    }

    #[test]
    fn first_arrival_anchors_without_a_gap() {
        let mut p = Predictor::new();
        p.observe(100.0);
        assert_eq!(p.samples(), 0);
        assert_eq!(p.last_arrival_ms(), Some(100.0));
        assert_eq!(p.predicted_iat_ms(&config()), None);
    }

    #[test]
    fn periodic_head_fires_on_regular_gaps() {
        let mut p = Predictor::new();
        for i in 0..6 {
            p.observe(i as f64 * 500.0);
        }
        let predicted = p.predicted_iat_ms(&config()).expect("periodic head fires");
        assert!((predicted - 500.0).abs() < 1.0, "predicted {predicted}");
        // Periodic functions decay at the hold floor, not the cap.
        assert_eq!(p.hold_ms(&config(), 600_000.0), config().min_hold_ms);
    }

    #[test]
    fn undersampled_model_keeps_the_global_window() {
        let mut p = Predictor::new();
        p.observe(0.0);
        p.observe(900.0);
        p.observe(1300.0);
        assert_eq!(p.hold_ms(&config(), 600_000.0), 600_000.0);
    }

    #[test]
    fn bursty_stream_falls_back_to_the_quantile() {
        let mut p = Predictor::new();
        let mut t = 0.0;
        // Irregular gaps: CV far above the periodic threshold.
        for i in 0..40u32 {
            t += if i % 3 == 0 { 50.0 } else { 2_000.0 };
            p.observe(t);
        }
        let predicted = p.predicted_iat_ms(&config()).expect("quantile fallback");
        assert!(predicted > 0.0);
        let hold = p.hold_ms(&config(), 600_000.0);
        assert!(hold >= config().min_hold_ms);
        assert!(hold < 600_000.0, "decay tightens below the cap: {hold}");
    }

    #[test]
    fn hold_never_drops_below_the_floor() {
        let mut p = Predictor::new();
        for i in 0..32 {
            p.observe(i as f64 * 2.0); // 2 ms period, far below the floor
        }
        assert_eq!(p.hold_ms(&config(), 600_000.0), config().min_hold_ms);
    }

    #[test]
    fn merge_takes_the_later_clock_anchor() {
        let mut a = Predictor::new();
        let mut b = Predictor::new();
        for i in 0..5 {
            a.observe(i as f64 * 100.0);
        }
        for i in 0..5 {
            b.observe(10_000.0 + i as f64 * 100.0);
        }
        let samples = a.samples() + b.samples();
        a.merge(&b);
        assert_eq!(a.samples(), samples);
        assert_eq!(a.last_arrival_ms(), Some(10_400.0));
    }
}
