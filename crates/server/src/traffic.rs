//! Host-level invocation traffic generation.
//!
//! Produces a time-ordered stream of invocation events for a set of warm
//! instances, each with its own inter-arrival distribution — the input to
//! server-scale simulations (and the `lukewarm_server` example).
//!
//! Every lane owns a split RNG, so *when* a lane's arrivals are drawn
//! never changes what they are. [`SliceMerge`] merges the lanes in
//! batches on that basis: each lane draws all its arrivals before a
//! slice end `t_end`, the slice is put in `(at_ms, lane)` order by a
//! counting scatter into time buckets followed by an insertion pass, and
//! the iterator hands events out of the slice. That order is the one a
//! merge picking the lowest `(at_ms, lane)` lane head before every event
//! produces, so the stream is event-for-event the per-event merge's —
//! without its serial chain of one draw and `log₂ lanes` compares per
//! event. The fleet's thinned surge lanes go through the same merge by
//! implementing [`ArrivalLanes`].

use crate::iat::IatDistribution;
use luke_common::rng::DetRng;
use luke_common::SimError;

/// One invocation arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvocationEvent {
    /// Arrival time in milliseconds since simulation start.
    pub at_ms: f64,
    /// Index of the instance being invoked.
    pub instance: usize,
}

/// One drawn arrival: its time as raw IEEE-754 bits, and its lane.
///
/// Arrival times are never negative, and for non-negative floats the bit
/// pattern is monotone in time, so the derived order — `key`, then
/// `lane` — is the stream's `(at_ms, lane)` order in integer compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    /// `at_ms.to_bits()` of the arrival.
    key: u64,
    /// Lane index; ties on `key` resolve to the lowest lane.
    lane: u32,
}

/// Independent arrival lanes for a [`SliceMerge`] to draw from.
///
/// A lane's arrival times must never decrease, and drawing a lane may
/// read and advance that lane's state only, so that drawing it early
/// changes nothing it emits.
pub trait ArrivalLanes {
    /// Number of lanes.
    fn lanes(&self) -> usize;

    /// Candidate arrivals per millisecond over all lanes: sizes the
    /// slices.
    fn rate_per_ms(&self) -> f64;

    /// Draws `lane`'s candidates with keys below `t_end`, at most
    /// `budget` of them, pushing the ones it emits onto `out` in time
    /// order; returns the key of the lane's next undrawn candidate.
    fn draw(&mut self, lane: usize, t_end: u64, budget: usize, out: &mut SliceDraw) -> u64;
}

/// One drawn arrival and the time bucket it was filed under.
#[derive(Clone, Copy, Debug)]
struct Filed {
    key: u64,
    lane: u32,
    bucket: u32,
}

/// A slice being drawn. Each arrival is filed under its time bucket as
/// it is pushed — while the lane waits on its next draw — so ordering
/// the slice never reads the times again to place them.
#[derive(Clone, Debug)]
pub struct SliceDraw {
    /// Arrivals in draw order.
    filed: Vec<Filed>,
    /// Arrivals per bucket; during [`SliceDraw::order`], each bucket's
    /// next free slot.
    counts: Vec<u32>,
    /// Time the first bucket starts at, ms.
    origin: f64,
    /// Buckets per ms.
    scale: f64,
}

impl SliceDraw {
    fn with_capacity(arrivals: usize) -> Self {
        SliceDraw {
            filed: Vec::with_capacity(arrivals),
            counts: Vec::new(),
            origin: 0.0,
            scale: 0.0,
        }
    }

    /// Starts a slice over keys `[start, end)` in `buckets` equal-width
    /// time buckets.
    fn begin(&mut self, start: u64, end: u64, buckets: usize) {
        self.filed.clear();
        self.counts.clear();
        self.counts.resize(buckets.max(1), 0);
        self.origin = f64::from_bits(start);
        self.scale = buckets as f64 / (f64::from_bits(end) - self.origin);
    }

    /// Files one drawn arrival: `key` is `at_ms.to_bits()`.
    #[inline]
    pub fn push(&mut self, key: u64, lane: u32) {
        // Monotone in the key, whatever the span: subtraction and
        // scaling by a non-negative factor never reorder, and a NaN (an
        // infinite or empty span) or negative product (an arrival
        // carried from before the slice) saturates to bucket 0.
        let last = self.counts.len() - 1;
        let bucket = (((f64::from_bits(key) - self.origin) * self.scale) as usize).min(last);
        self.counts[bucket] += 1;
        self.filed.push(Filed {
            key,
            lane,
            bucket: bucket as u32,
        });
    }

    /// Puts the filed arrivals into `(key, lane)` order in `out`: a
    /// stable counting scatter by bucket, then an insertion pass, which
    /// only has work inside a bucket. Returns whether the pass ran out
    /// of shifts and fell back to `sort_unstable` (equal arrivals are
    /// identical, so stability is moot).
    fn order(&mut self, out: &mut Vec<Arrival>) -> bool {
        let mut slot = 0;
        for count in &mut self.counts {
            let arrivals = *count;
            *count = slot;
            slot += arrivals;
        }
        let n = self.filed.len();
        out.clear();
        out.resize(n, Arrival::default());
        for filed in &self.filed {
            let slot = &mut self.counts[filed.bucket as usize];
            out[*slot as usize] = Arrival {
                key: filed.key,
                lane: filed.lane,
            };
            *slot += 1;
        }
        let mut shifts_left = SHIFTS_PER_ARRIVAL * n;
        for i in 1..n {
            let arrival = out[i];
            let mut j = i;
            while j > 0 && out[j - 1] > arrival {
                out[j] = out[j - 1];
                j -= 1;
            }
            out[j] = arrival;
            match shifts_left.checked_sub(i - j) {
                Some(left) => shifts_left = left,
                None => {
                    out.sort_unstable();
                    return true;
                }
            }
        }
        false
    }
}

/// Fewest arrivals a slice aims for.
const MIN_SLICE: usize = 1024;
/// Insertion-pass shifts allowed per slice arrival; past that the pass
/// hands the slice to `sort_unstable`, so a slice whose times all fall
/// in one bucket cannot go quadratic.
const SHIFTS_PER_ARRIVAL: usize = 8;
/// Bits of `+∞`, the largest key a slice end moves to by adding a span.
const INFINITY_BITS: u64 = f64::INFINITY.to_bits();

/// The batched merge of a set of [`ArrivalLanes`] (see module docs).
///
/// A slice aims for `target = max(1024, lanes)` arrivals: its width is
/// `target` over the lanes' total rate. A lane drawing past `target`
/// arrivals in one slice (a burst, or a clock stuck at `at + gap == at`)
/// stops at that budget, and the slice then releases only the arrivals
/// that precede every lane's next undrawn one; the rest carry over, and
/// each lane holds at most `target` drawn arrivals at any time.
#[derive(Clone, Debug)]
pub struct SliceMerge<L> {
    lanes: L,
    /// Arrivals a slice aims for, and the most any lane holds drawn.
    target: usize,
    /// Width of a slice, ms.
    span_ms: f64,
    /// Key every lane has drawn up to (exclusive), bar budget stops.
    t_end: u64,
    /// The drawn arrivals in stream order: `slice[next..ready]` may be
    /// handed out, `slice[ready..]` waits for a later refill.
    slice: Vec<Arrival>,
    next: usize,
    ready: usize,
    /// Scratch: the next slice as it is drawn.
    drawn: SliceDraw,
    /// Scratch: per-lane arrivals carried into a refill.
    carried: Vec<u32>,
}

impl<L: ArrivalLanes> SliceMerge<L> {
    /// A merge over `lanes`, starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if there are `u32::MAX` lanes or more (lane indices are
    /// stored as `u32`).
    pub fn new(lanes: L) -> Self {
        assert!(
            u32::try_from(lanes.lanes()).is_ok_and(|n| n < u32::MAX),
            "lane indices must fit in u32"
        );
        let target = MIN_SLICE.max(lanes.lanes());
        SliceMerge {
            span_ms: target as f64 / lanes.rate_per_ms(),
            lanes,
            target,
            t_end: 0,
            // Room for a slice half again its target: only a burst past
            // that grows the buffers.
            slice: Vec::with_capacity(target + target / 2),
            next: 0,
            ready: 0,
            drawn: SliceDraw::with_capacity(target + target / 2),
            carried: Vec::new(),
        }
    }

    /// The lanes being merged.
    pub fn lanes(&self) -> &L {
        &self.lanes
    }

    /// Draws and orders the next slice; `false` once no lane remains.
    fn refill(&mut self) -> bool {
        let lanes = self.lanes.lanes();
        if lanes == 0 {
            return false;
        }
        loop {
            let start = self.t_end;
            self.t_end = advance(start, self.span_ms);
            self.drawn.begin(start, self.t_end, self.target);
            let carry = self.next < self.slice.len();
            if carry {
                self.carried.clear();
                self.carried.resize(lanes, 0);
                for arrival in &self.slice[self.next..] {
                    self.carried[arrival.lane as usize] += 1;
                    self.drawn.push(arrival.key, arrival.lane);
                }
            }
            // The lowest `(key, lane)` among the lanes' next undrawn
            // arrivals: nothing after it may leave the slice yet.
            let mut bound = Arrival {
                key: u64::MAX,
                lane: u32::MAX,
            };
            for lane in 0..lanes {
                let held = if carry {
                    self.carried[lane] as usize
                } else {
                    0
                };
                let key = self
                    .lanes
                    .draw(lane, self.t_end, self.target - held, &mut self.drawn);
                bound = bound.min(Arrival {
                    key,
                    lane: lane as u32,
                });
            }
            self.drawn.order(&mut self.slice);
            self.next = 0;
            // An arrival equal to `bound` is that lane's own, drawn
            // before its next one: it may leave too.
            self.ready = if bound.key >= self.t_end {
                self.slice.len()
            } else {
                self.slice.partition_point(|arrival| *arrival <= bound)
            };
            if self.ready > 0 {
                return true;
            }
            if self.slice.is_empty() {
                // An empty stretch: resume at the earliest pending arrival.
                self.t_end = self.t_end.max(bound.key);
            }
        }
    }
}

impl<L: ArrivalLanes> Iterator for SliceMerge<L> {
    type Item = InvocationEvent;

    #[inline]
    fn next(&mut self) -> Option<InvocationEvent> {
        if self.next == self.ready && !self.refill() {
            return None;
        }
        let arrival = self.slice[self.next];
        self.next += 1;
        Some(InvocationEvent {
            at_ms: f64::from_bits(arrival.key),
            instance: arrival.lane as usize,
        })
    }
}

/// The slice end after `t_end`: `span_ms` later, or the next key up when
/// adding the span does not move the clock (a span below the clock's
/// resolution, or a clock at `+∞`).
fn advance(t_end: u64, span_ms: f64) -> u64 {
    let next = (f64::from_bits(t_end) + span_ms).to_bits();
    if next > t_end && next <= INFINITY_BITS {
        next
    } else {
        t_end.saturating_add(1)
    }
}

/// One stationary lane: its next undrawn arrival, distribution and RNG.
#[derive(Clone, Debug)]
struct StationaryLane {
    key: u64,
    dist: IatDistribution,
    rng: DetRng,
}

/// The lanes of a [`TrafficGenerator`], every distribution validated.
#[derive(Clone, Debug)]
struct StationaryLanes(Vec<StationaryLane>);

impl ArrivalLanes for StationaryLanes {
    fn lanes(&self) -> usize {
        self.0.len()
    }

    fn rate_per_ms(&self) -> f64 {
        self.0.iter().map(|lane| 1.0 / lane.dist.mean_ms()).sum()
    }

    #[inline]
    fn draw(&mut self, lane: usize, t_end: u64, budget: usize, out: &mut SliceDraw) -> u64 {
        let StationaryLane { key, dist, rng } = &mut self.0[lane];
        // Work on a copy of the RNG, so its state stays in registers
        // rather than round-tripping through memory `out` might alias.
        let (dist, mut draws) = (*dist, rng.clone());
        let mut at = *key;
        for _ in 0..budget {
            if at >= t_end {
                break;
            }
            out.push(at, lane as u32);
            let gap = dist.sample_unchecked(&mut draws).max(f64::MIN_POSITIVE);
            at = (f64::from_bits(at) + gap).to_bits();
        }
        *rng = draws;
        *key = at;
        at
    }
}

/// Generates merged Poisson/fixed arrival streams for many instances.
///
/// Events come in `(at_ms, instance)` order — ties resolve to the lowest
/// instance — through a [`SliceMerge`].
#[derive(Clone, Debug)]
pub struct TrafficGenerator {
    merge: SliceMerge<StationaryLanes>,
}

impl TrafficGenerator {
    /// Creates a generator for `distributions.len()` instances; instance
    /// `i` follows `distributions[i]`. First arrivals are sampled from
    /// each distribution (staggered start).
    ///
    /// # Panics
    ///
    /// Panics if any distribution has an invalid parameter. Use
    /// [`TrafficGenerator::try_new`] to get an error instead.
    pub fn new(distributions: &[IatDistribution], seed: u64) -> Self {
        match Self::try_new(distributions, seed) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a generator, validating every lane's distribution up front
    /// (the error names the offending lane).
    pub fn try_new(distributions: &[IatDistribution], seed: u64) -> Result<Self, SimError> {
        for (i, dist) in distributions.iter().enumerate() {
            dist.validate().map_err(|e| match e {
                SimError::InvalidConfig { field, reason } => SimError::InvalidConfig {
                    field: format!("traffic.lane[{i}].{field}"),
                    reason,
                },
                other => other,
            })?;
        }
        let root = DetRng::new(seed);
        let lanes = distributions
            .iter()
            .enumerate()
            .map(|(i, &dist)| {
                let mut rng = root.split(i as u64);
                // `+ 0.0` turns a −0.0 first draw (u = 1 exactly) into
                // +0.0, so every lane's keys rise in bit order.
                let first = dist.sample_unchecked(&mut rng) + 0.0;
                StationaryLane {
                    key: first.to_bits(),
                    dist,
                    rng,
                }
            })
            .collect();
        Ok(TrafficGenerator {
            merge: SliceMerge::new(StationaryLanes(lanes)),
        })
    }

    /// Number of instances generating traffic.
    pub fn lanes(&self) -> usize {
        self.merge.lanes().lanes()
    }

    /// Produces the next `count` events in global time order.
    pub fn take_events(&mut self, count: usize) -> Vec<InvocationEvent> {
        let mut events = Vec::with_capacity(count);
        events.extend(self.merge.by_ref().take(count));
        events
    }
}

impl Iterator for TrafficGenerator {
    type Item = InvocationEvent;

    #[inline]
    fn next(&mut self) -> Option<InvocationEvent> {
        self.merge.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_are_time_ordered() {
        let dists = vec![
            IatDistribution::Exponential { mean_ms: 100.0 },
            IatDistribution::Exponential { mean_ms: 50.0 },
            IatDistribution::Fixed(75.0),
        ];
        let mut g = TrafficGenerator::new(&dists, 1);
        let events = g.take_events(200);
        assert_eq!(events.len(), 200);
        for pair in events.windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
    }

    #[test]
    fn faster_lane_fires_more_often() {
        let dists = vec![
            IatDistribution::Fixed(1000.0),
            IatDistribution::Fixed(100.0),
        ];
        let mut g = TrafficGenerator::new(&dists, 2);
        let events = g.take_events(110);
        let fast = events.iter().filter(|e| e.instance == 1).count();
        let slow = events.iter().filter(|e| e.instance == 0).count();
        assert!(fast > 5 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let dists = vec![IatDistribution::Exponential { mean_ms: 10.0 }; 4];
        let a: Vec<_> = TrafficGenerator::new(&dists, 7).take_events(50);
        let b: Vec<_> = TrafficGenerator::new(&dists, 7).take_events(50);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_generator_yields_nothing() {
        let mut g = TrafficGenerator::new(&[], 0);
        assert_eq!(g.lanes(), 0);
        assert!(g.take_events(10).is_empty());
        assert!(g.next().is_none());
    }

    #[test]
    fn single_lane_streams_its_own_arrivals() {
        let mut g = TrafficGenerator::new(&[IatDistribution::Fixed(10.0)], 9);
        let events = g.take_events(4);
        let times: Vec<_> = events.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0]);
        assert!(events.iter().all(|e| e.instance == 0));
    }

    #[test]
    fn try_new_names_the_offending_lane() {
        let dists = vec![
            IatDistribution::Fixed(10.0),
            IatDistribution::Exponential { mean_ms: -3.0 },
        ];
        let err = TrafficGenerator::try_new(&dists, 0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("traffic.lane[1]"), "{msg}");
        assert!(TrafficGenerator::try_new(&dists[..1], 0).is_ok());
    }

    /// The stationary oracle: before every event, a linear scan picks
    /// the lane whose pending arrival is lowest in `(at_ms, lane)`.
    struct LinearScanMerge {
        lanes: Vec<(IatDistribution, f64, DetRng)>,
    }

    impl LinearScanMerge {
        fn new(distributions: &[IatDistribution], seed: u64) -> Self {
            let root = DetRng::new(seed);
            let lanes = distributions
                .iter()
                .enumerate()
                .map(|(i, &dist)| {
                    let mut rng = root.split(i as u64);
                    let first = dist.sample(&mut rng);
                    (dist, first, rng)
                })
                .collect();
            LinearScanMerge { lanes }
        }

        /// The oracle over lanes whose first arrivals are `starts` and
        /// whose RNGs start at `seed`'s splits, undrawn.
        fn starting_at(distributions: &[IatDistribution], starts: &[f64], seed: u64) -> Self {
            let root = DetRng::new(seed);
            let lanes = distributions
                .iter()
                .zip(starts)
                .enumerate()
                .map(|(i, (&dist, &first))| (dist, first, root.split(i as u64)))
                .collect();
            LinearScanMerge { lanes }
        }

        fn next_event(&mut self) -> Option<InvocationEvent> {
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

    /// A generator whose lanes start at `starts` instead of a first draw.
    fn generator_starting_at(
        distributions: &[IatDistribution],
        starts: &[f64],
        seed: u64,
    ) -> TrafficGenerator {
        let root = DetRng::new(seed);
        let lanes = distributions
            .iter()
            .zip(starts)
            .enumerate()
            .map(|(i, (&dist, &first))| StationaryLane {
                key: first.to_bits(),
                dist,
                rng: root.split(i as u64),
            })
            .collect();
        TrafficGenerator {
            merge: SliceMerge::new(StationaryLanes(lanes)),
        }
    }

    fn assert_matches_oracle(
        merge: &mut TrafficGenerator,
        oracle: &mut LinearScanMerge,
        events: usize,
    ) {
        for i in 0..events {
            let (got, want) = (merge.next().unwrap(), oracle.next_event().unwrap());
            assert_eq!(got, want, "event {i} diverged");
            assert_eq!(got.at_ms.to_bits(), want.at_ms.to_bits(), "event {i}");
        }
    }

    #[test]
    fn slices_match_linear_scan_reference() {
        // Fixed lanes with equal periods force repeated exact-time ties;
        // the slice order must resolve them to the lowest lane index,
        // exactly like the linear scan.
        let dists = vec![
            IatDistribution::Fixed(50.0),
            IatDistribution::Fixed(50.0),
            IatDistribution::Exponential { mean_ms: 40.0 },
            IatDistribution::Fixed(75.0),
            IatDistribution::Exponential { mean_ms: 250.0 },
        ];
        let mut merge = TrafficGenerator::new(&dists, 11);
        let mut oracle = LinearScanMerge::new(&dists, 11);
        assert_matches_oracle(&mut merge, &mut oracle, 5_000);
    }

    #[test]
    fn slices_match_reference_across_lane_counts() {
        for lanes in 1..=9usize {
            let dists: Vec<_> = (0..lanes)
                .map(|i| {
                    if i % 2 == 0 {
                        IatDistribution::Exponential {
                            mean_ms: 20.0 + i as f64,
                        }
                    } else {
                        IatDistribution::Fixed(60.0)
                    }
                })
                .collect();
            let mut merge = TrafficGenerator::new(&dists, 17);
            let mut oracle = LinearScanMerge::new(&dists, 17);
            assert_matches_oracle(&mut merge, &mut oracle, 3_000);
        }
    }

    #[test]
    fn a_stalled_clock_terminates_and_matches_the_reference() {
        // Near 2⁵³ ms a gap under half the clock's resolution no longer
        // moves it (`at + gap == at`): lane 0 sticks at 2⁵³ and lane 2
        // at 2⁵³ − 100, and lane 1 sticks whenever it draws a short gap.
        // Once lane 1 passes it, lane 2 emits at 2⁵³ − 100 forever. Each
        // refill stops a stuck lane at its budget; what it drew still
        // leaves in `(time, lane)` order.
        let stall = 2f64.powi(53);
        let dists = [
            IatDistribution::Fixed(1.0),
            IatDistribution::Exponential { mean_ms: 0.5 },
            IatDistribution::Fixed(0.25),
        ];
        let starts = [stall, stall - 400.0, stall - 100.0];
        assert_eq!(stall + 1.0, stall);
        let mut merge = generator_starting_at(&dists, &starts, 5);
        let mut oracle = LinearScanMerge::starting_at(&dists, &starts, 5);
        for _ in 0..40 {
            assert_matches_oracle(&mut merge, &mut oracle, 300);
            // The stalled lanes draw up to their budget on every refill,
            // yet the drawn arrivals stay within `lanes × target`.
            let held = merge.merge.slice.len() - merge.merge.next;
            assert!(held <= dists.len() * merge.merge.target, "{held}");
        }
    }

    #[test]
    fn a_clock_below_its_resolution_still_advances() {
        // `t_end + span == t_end`: the clock steps to the next key.
        let big = 1e300f64.to_bits();
        assert_eq!(f64::from_bits(big) + 1.0, f64::from_bits(big));
        assert_eq!(advance(big, 1.0), big + 1);
        assert_eq!(advance(5, 0.0), 6);
        assert_eq!(advance(INFINITY_BITS, 1.0), INFINITY_BITS + 1);
        assert_eq!(advance(0, 2.0), 2f64.to_bits());
        // A finite clock a span overflows stops at +∞, not past it.
        assert_eq!(advance(f64::MAX.to_bits(), f64::MAX), INFINITY_BITS);
        // Fixed(0) lanes: an infinite rate, so a zero span; the merge
        // still walks the clock through their `MIN_POSITIVE` steps.
        let dists = [IatDistribution::Fixed(0.0); 3];
        let mut merge = TrafficGenerator::new(&dists, 1);
        let mut oracle = LinearScanMerge::new(&dists, 1);
        assert_matches_oracle(&mut merge, &mut oracle, 300);
    }

    #[test]
    fn a_slice_of_one_bucket_cannot_go_quadratic() {
        // An infinite slice width puts every arrival in bucket 0. Lanes
        // drawn one after another then interleave, so the insertion pass
        // would need ~n²/4 shifts: it gives way to `sort_unstable`.
        let n = 20_000u32;
        let arrivals: Vec<Arrival> = (0..n)
            .map(|i| Arrival {
                key: f64::from(i % (n / 2)).to_bits(),
                lane: i / (n / 2),
            })
            .collect();
        let (mut drawn, mut out) = (SliceDraw::with_capacity(0), Vec::new());
        drawn.begin(0, INFINITY_BITS, n as usize);
        for arrival in &arrivals {
            drawn.push(arrival.key, arrival.lane);
        }
        assert!(drawn.order(&mut out));
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(out, sorted);
        // A slice whose arrivals all tie is already in lane order after
        // the scatter: no shift at all.
        let ties: Vec<Arrival> = (0..n)
            .map(|lane| Arrival {
                key: 7f64.to_bits(),
                lane,
            })
            .collect();
        drawn.begin(0, INFINITY_BITS, n as usize);
        for arrival in &ties {
            drawn.push(arrival.key, arrival.lane);
        }
        assert!(!drawn.order(&mut out));
        assert_eq!(out, ties);
    }

    /// One random lane: exponential over a 256× spread of means, or fixed
    /// on a coarse grid so lanes fall in phase.
    fn lane() -> impl Strategy<Value = IatDistribution> {
        (0u32..4, 0u32..256).prop_map(|(kind, step)| match kind {
            0 => IatDistribution::Fixed(f64::from(step % 4 + 1) * 25.0),
            _ => IatDistribution::Exponential {
                mean_ms: 4.0 * f64::from(step + 1),
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn slice_merge_matches_linear_scan(
            dists in prop::collection::vec(lane(), 0..40),
            seed in any::<u64>(),
            events in 1usize..20_000,
        ) {
            let mut merge = TrafficGenerator::new(&dists, seed);
            let mut oracle = LinearScanMerge::new(&dists, seed);
            for i in 0..events {
                let (got, want) = (merge.next(), oracle.next_event());
                prop_assert_eq!(got, want, "event {} of {} lanes", i, dists.len());
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn scales_to_many_lanes() {
        // The fleet simulator runs hundreds of lanes for millions of
        // events; a slice of at least one arrival per lane keeps the
        // per-slice lane walk cheap.
        let dists: Vec<_> = (0..500)
            .map(|i| IatDistribution::Exponential {
                mean_ms: 10.0 + i as f64,
            })
            .collect();
        let mut g = TrafficGenerator::new(&dists, 5);
        let events = g.take_events(20_000);
        assert_eq!(events.len(), 20_000);
        for pair in events.windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
    }

    #[test]
    fn zero_and_one_lane_match_the_reference() {
        for dists in [
            vec![],
            vec![IatDistribution::Exponential { mean_ms: 3.0 }],
            vec![IatDistribution::Fixed(2.5)],
        ] {
            let mut merge = TrafficGenerator::new(&dists, 23);
            let mut oracle = LinearScanMerge::new(&dists, 23);
            // Ten thousand events cross about ten slice ends.
            for i in 0..10_000 {
                let (got, want) = (merge.next(), oracle.next_event());
                assert_eq!(got, want, "{} lanes: event {i}", dists.len());
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn iterator_interface_works() {
        let dists = vec![IatDistribution::Fixed(10.0)];
        let mut g = TrafficGenerator::new(&dists, 3);
        let events = g.take_events(5);
        assert_eq!(events.len(), 5);
        assert!((events[0].at_ms - 10.0).abs() < 1e-9);
    }
}
