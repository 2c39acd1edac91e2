//! Fixed-window (simulated-time) series over invocation outcomes.
//!
//! End-of-run scalars hide the shape of a surge: a flash crowd that
//! sheds 40% of arrivals for 15 seconds and nothing afterwards averages
//! out to a small number. [`TimeWindows`] buckets every recorded
//! outcome into fixed windows of simulated time and reports, per
//! window, the latency percentiles, the shed rate, the SLO burn rate
//! and the cold/lukewarm/warm mix — a timeline instead of a scalar.
//!
//! The store is a `BTreeMap` keyed by window index with purely additive
//! per-window statistics, so [`TimeWindows::merge`] is associative and
//! commutative by construction: merging per-host series in any grouping
//! reproduces the series a single sequential recorder would have built,
//! which is what keeps the fleet's 1-vs-N-thread byte-identical export
//! contract intact. Empty windows report percentiles as `None` (JSON
//! `null`), never a fabricated zero.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// How an admitted invocation's instance was found (the cold/luke/warm
/// mix axis of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartClass {
    /// No instance: a cold start (snapshot restore or full boot).
    Cold,
    /// Warm instance whose cache state was perturbed by interleaved
    /// invocations — the paper's lukewarm case.
    Lukewarm,
    /// Warm instance, cache state intact.
    Warm,
}

/// Additive per-window statistics. Every field is a sum or a mergeable
/// histogram, so two `WindowStats` for the same window combine without
/// order sensitivity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Completed-invocation latencies (µs).
    pub latency_us: Histogram,
    /// Arrivals routed into this window (admitted or shed).
    pub arrivals: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Admitted invocations that ran cold.
    pub cold: u64,
    /// Admitted invocations that ran lukewarm.
    pub luke: u64,
    /// Admitted invocations that ran warm.
    pub warm: u64,
    /// Completed invocations whose latency exceeded the SLO.
    pub over_slo: u64,
}

impl WindowStats {
    fn merge(&mut self, other: &WindowStats) {
        self.latency_us.merge(&other.latency_us);
        self.arrivals += other.arrivals;
        self.shed += other.shed;
        self.cold += other.cold;
        self.luke += other.luke;
        self.warm += other.warm;
        self.over_slo += other.over_slo;
    }
}

/// One rendered row of the timeline (see [`TimeWindows::rows`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Window start, in simulated milliseconds.
    pub start_ms: f64,
    /// Arrivals routed into the window.
    pub arrivals: u64,
    /// Median completed latency in ms (`None` when nothing completed).
    pub p50_ms: Option<f64>,
    /// P99 completed latency in ms (`None` when nothing completed).
    pub p99_ms: Option<f64>,
    /// Fraction of arrivals shed.
    pub shed_rate: f64,
    /// Fraction of completed invocations over the SLO (the burn rate).
    pub slo_burn: f64,
    /// Fraction of admitted invocations that ran cold.
    pub cold_frac: f64,
    /// Fraction of admitted invocations that ran lukewarm.
    pub luke_frac: f64,
    /// Fraction of admitted invocations that ran warm.
    pub warm_frac: f64,
}

/// A fixed-window series over simulated time (see module docs). A
/// `window_ms` of 0 disables recording entirely, making the series
/// bit-transparent when the feature is off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeWindows {
    window_ms: f64,
    windows: BTreeMap<u64, WindowStats>,
}

impl TimeWindows {
    /// A series with the given window width in simulated milliseconds
    /// (0 disables recording).
    pub fn new(window_ms: f64) -> Self {
        TimeWindows {
            window_ms,
            windows: BTreeMap::new(),
        }
    }

    /// A series that records nothing.
    pub fn disabled() -> Self {
        TimeWindows::default()
    }

    /// Whether this series records anything.
    pub fn is_enabled(&self) -> bool {
        self.window_ms > 0.0
    }

    /// Configured window width (ms).
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    /// Number of non-empty windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window holds anything.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn index(&self, at_ms: f64) -> u64 {
        (at_ms / self.window_ms).floor().max(0.0) as u64
    }

    fn window(&mut self, at_ms: f64) -> &mut WindowStats {
        let idx = self.index(at_ms);
        self.windows.entry(idx).or_default()
    }

    /// Records one arrival (admitted or not) at simulated time `at_ms`.
    pub fn record_arrival(&mut self, at_ms: f64) {
        if !self.is_enabled() {
            return;
        }
        self.window(at_ms).arrivals += 1;
    }

    /// Records an arrival shed by admission control.
    pub fn record_shed(&mut self, at_ms: f64) {
        if !self.is_enabled() {
            return;
        }
        self.window(at_ms).shed += 1;
    }

    /// Records a completed invocation: its latency, start class and
    /// whether it blew the SLO. The outcome is attributed to the window
    /// of its *arrival* time, so merged series are insensitive to which
    /// host completed it.
    pub fn record_outcome(
        &mut self,
        at_ms: f64,
        latency_us: u64,
        class: StartClass,
        over_slo: bool,
    ) {
        if !self.is_enabled() {
            return;
        }
        let w = self.window(at_ms);
        w.latency_us.record(latency_us);
        match class {
            StartClass::Cold => w.cold += 1,
            StartClass::Lukewarm => w.luke += 1,
            StartClass::Warm => w.warm += 1,
        }
        if over_slo {
            w.over_slo += 1;
        }
    }

    /// Folds `other` into `self` window-by-window. Associative and
    /// commutative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)` for any grouping,
    /// because every per-window field is additive.
    ///
    /// # Panics
    ///
    /// Panics if the two series were built with different window widths
    /// (their indices would not be comparable).
    pub fn merge(&mut self, other: &TimeWindows) {
        if !other.is_enabled() {
            return;
        }
        if !self.is_enabled() {
            *self = other.clone();
            return;
        }
        assert!(
            self.window_ms == other.window_ms,
            "cannot merge series with window {}ms into {}ms",
            other.window_ms,
            self.window_ms
        );
        for (idx, stats) in &other.windows {
            self.windows.entry(*idx).or_default().merge(stats);
        }
    }

    /// The rendered timeline, one row per non-empty window in time
    /// order. Percentiles of windows where nothing completed are `None`.
    pub fn rows(&self) -> Vec<WindowRow> {
        let frac = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        self.windows
            .iter()
            .map(|(idx, w)| {
                let admitted = w.cold + w.luke + w.warm;
                let completed = w.latency_us.count();
                WindowRow {
                    start_ms: *idx as f64 * self.window_ms,
                    arrivals: w.arrivals,
                    p50_ms: w
                        .latency_us
                        .try_percentile(50.0)
                        .map(|us| us as f64 / 1000.0),
                    p99_ms: w
                        .latency_us
                        .try_percentile(99.0)
                        .map(|us| us as f64 / 1000.0),
                    shed_rate: frac(w.shed, w.arrivals),
                    slo_burn: frac(w.over_slo, completed),
                    cold_frac: frac(w.cold, admitted),
                    luke_frac: frac(w.luke, admitted),
                    warm_frac: frac(w.warm, admitted),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(events: &[(f64, u64)]) -> TimeWindows {
        let mut s = TimeWindows::new(100.0);
        for &(at, lat) in events {
            s.record_arrival(at);
            s.record_outcome(at, lat, StartClass::Warm, lat > 150_000);
        }
        s
    }

    #[test]
    fn disabled_series_records_nothing() {
        let mut s = TimeWindows::disabled();
        s.record_arrival(10.0);
        s.record_shed(10.0);
        s.record_outcome(10.0, 5, StartClass::Cold, false);
        assert!(s.is_empty());
        assert!(!s.is_enabled());
        assert!(s.rows().is_empty());
    }

    #[test]
    fn outcomes_land_in_their_arrival_window() {
        let s = recorded(&[(0.0, 1000), (99.9, 2000), (100.0, 3000), (250.0, 4000)]);
        let rows = s.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].start_ms, 0.0);
        assert_eq!(rows[0].arrivals, 2);
        assert_eq!(rows[1].start_ms, 100.0);
        assert_eq!(rows[2].start_ms, 200.0);
    }

    #[test]
    fn empty_window_percentiles_are_none_not_zero() {
        let mut s = TimeWindows::new(100.0);
        s.record_arrival(10.0);
        s.record_shed(10.0); // arrival shed: nothing completes
        let rows = s.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].p50_ms, None);
        assert_eq!(rows[0].p99_ms, None);
        assert_eq!(rows[0].shed_rate, 1.0);
        assert_eq!(rows[0].slo_burn, 0.0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = recorded(&[(0.0, 1000), (150.0, 160_000)]);
        let b = recorded(&[(50.0, 2000), (950.0, 3000)]);
        let c = recorded(&[(120.0, 500)]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(ab_c, cba);
        assert_eq!(ab_c.rows(), a_bc.rows());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let events = [(0.0, 1000), (50.0, 2000), (150.0, 160_000), (950.0, 3000)];
        let whole = recorded(&events);
        let left = recorded(&events[..2]);
        let mut right = recorded(&events[2..]);
        right.merge(&left);
        assert_eq!(right, whole);
    }

    #[test]
    fn rates_and_mix_are_fractions() {
        let mut s = TimeWindows::new(1000.0);
        for i in 0..10 {
            s.record_arrival(i as f64);
        }
        s.record_shed(1.0);
        s.record_shed(2.0);
        s.record_outcome(3.0, 10_000, StartClass::Cold, false);
        s.record_outcome(4.0, 20_000, StartClass::Lukewarm, false);
        s.record_outcome(5.0, 200_000, StartClass::Warm, true);
        s.record_outcome(6.0, 30_000, StartClass::Warm, false);
        let rows = s.rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.arrivals, 10);
        assert!((r.shed_rate - 0.2).abs() < 1e-12);
        assert!((r.slo_burn - 0.25).abs() < 1e-12);
        assert!((r.cold_frac - 0.25).abs() < 1e-12);
        assert!((r.luke_frac - 0.25).abs() < 1e-12);
        assert!((r.warm_frac - 0.5).abs() < 1e-12);
        assert!(r.p50_ms.is_some() && r.p99_ms.is_some());
    }

    #[test]
    fn merging_into_disabled_adopts_the_other_series() {
        let a = recorded(&[(0.0, 1000)]);
        let mut d = TimeWindows::disabled();
        d.merge(&a);
        assert_eq!(d, a);
        let mut a2 = a.clone();
        a2.merge(&TimeWindows::disabled());
        assert_eq!(a2, a);
    }
}
