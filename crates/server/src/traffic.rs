//! Host-level invocation traffic generation.
//!
//! Produces a time-ordered stream of invocation events for a set of warm
//! instances, each with its own inter-arrival distribution — the input to
//! server-scale simulations (and the `lukewarm_server` example).

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

/// One tournament entry: a lane and its pending arrival time as raw
/// IEEE-754 bits. Arrival times are never negative, and for
/// non-negative floats the bit pattern is monotone in `f64::total_cmp`
/// order — so a match is a branch-free integer compare of
/// `(key, lane)`, and carrying the key inside the node avoids an
/// indirect per-lane load on every level of the replay path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct LaneEntry {
    /// `at_ms.to_bits()` of the lane's next arrival.
    key: u64,
    /// Lane index; ties on `key` resolve to the lowest lane.
    lane: u32,
}

impl LaneEntry {
    /// Sentinel that loses every match: no real entry can carry
    /// `u64::MAX` (its sign bit is set, and times are non-negative).
    const EMPTY: LaneEntry = LaneEntry {
        key: u64::MAX,
        lane: u32::MAX,
    };
}

/// Generates merged Poisson/fixed arrival streams for many instances.
///
/// Pending arrivals are merged through a tournament (loser) tree:
/// producing the next event replays one root-to-leaf path — exactly
/// ⌈log₂ lanes⌉ comparisons with no element moves, about half the work
/// of a binary heap's sift. Matches are decided by `(at_ms, lane)`
/// under `f64::total_cmp`, a total order, so the tree's winner is
/// always the unique global minimum and the event sequence is
/// event-for-event identical to the original O(lanes) linear scan.
#[derive(Clone, Debug)]
pub struct TrafficGenerator {
    // Per-instance: (distribution, rng).
    lanes: Vec<(IatDistribution, DetRng)>,
    /// Loser tree over the lanes: `losers[0]` is the overall winner,
    /// internal node `n` (1 ≤ n < lanes) holds the loser of the match
    /// played there, and lane `i` enters as implicit leaf `lanes + i`.
    losers: Vec<LaneEntry>,
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
        let mut first_at = Vec::with_capacity(distributions.len());
        let lanes: Vec<_> = distributions
            .iter()
            .enumerate()
            .map(|(i, &dist)| {
                let mut rng = root.split(i as u64);
                first_at.push(dist.sample(&mut rng));
                (dist, rng)
            })
            .collect();
        let mut generator = TrafficGenerator {
            losers: vec![LaneEntry::EMPTY; lanes.len().max(1)],
            lanes,
        };
        generator.build_tree(&first_at);
        Ok(generator)
    }

    /// Plays the full tournament bottom-up, leaving each internal node
    /// with its match's loser and `losers[0]` with the overall winner.
    fn build_tree(&mut self, first_at: &[f64]) {
        let k = self.lanes.len();
        if k == 0 {
            return;
        }
        // Transient winner slots for the implicit tree: leaves occupy
        // k..2k-1, internal matches fill 1..k bottom-up.
        let mut winner = vec![LaneEntry::EMPTY; 2 * k];
        for (i, slot) in winner[k..].iter_mut().enumerate() {
            *slot = LaneEntry {
                key: first_at[i].to_bits(),
                lane: i as u32,
            };
        }
        for node in (1..k).rev() {
            let (a, b) = (winner[2 * node], winner[2 * node + 1]);
            if a < b {
                winner[node] = a;
                self.losers[node] = b;
            } else {
                winner[node] = b;
                self.losers[node] = a;
            }
        }
        self.losers[0] = winner[1];
    }

    /// Re-runs the matches on `entry.lane`'s leaf-to-root path after its
    /// key changed — the only part of the tournament the new time can
    /// affect.
    #[inline]
    fn replay(&mut self, entry: LaneEntry) {
        let k = self.lanes.len();
        let mut winner = entry;
        let mut node = (entry.lane as usize + k) / 2;
        while node > 0 {
            let loser = self.losers[node];
            if loser < winner {
                self.losers[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.losers[0] = winner;
    }

    /// Number of instances generating traffic.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Produces the next `count` events in global time order.
    pub fn take_events(&mut self, count: usize) -> Vec<InvocationEvent> {
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            if let Some(e) = self.next_event() {
                events.push(e);
            } else {
                break;
            }
        }
        events
    }

    fn next_event(&mut self) -> Option<InvocationEvent> {
        if self.lanes.is_empty() {
            return None;
        }
        let winner = self.losers[0];
        let lane = winner.lane as usize;
        let at_ms = f64::from_bits(winner.key);
        let (dist, rng) = &mut self.lanes[lane];
        let gap = dist.sample(rng).max(f64::MIN_POSITIVE);
        self.replay(LaneEntry {
            key: (at_ms + gap).to_bits(),
            lane: winner.lane,
        });
        Some(InvocationEvent {
            at_ms,
            instance: lane,
        })
    }
}

impl Iterator for TrafficGenerator {
    type Item = InvocationEvent;

    fn next(&mut self) -> Option<InvocationEvent> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn single_lane_streams_without_a_tournament() {
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

    /// A straight port of the original O(lanes) linear-scan merge, kept
    /// as the behavioral reference for the tournament implementation.
    struct NaiveMerge {
        lanes: Vec<(IatDistribution, f64, DetRng)>,
    }

    impl NaiveMerge {
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
            NaiveMerge { lanes }
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

    #[test]
    fn tournament_matches_linear_scan_reference() {
        // Fixed lanes with equal periods force repeated exact-time ties;
        // the tree must resolve them to the lowest lane index, exactly
        // like the linear scan did. Five lanes also exercise the
        // non-power-of-two tree shape (leaves at mixed depths).
        let dists = vec![
            IatDistribution::Fixed(50.0),
            IatDistribution::Fixed(50.0),
            IatDistribution::Exponential { mean_ms: 40.0 },
            IatDistribution::Fixed(75.0),
            IatDistribution::Exponential { mean_ms: 250.0 },
        ];
        let mut tree = TrafficGenerator::new(&dists, 11);
        let mut naive = NaiveMerge::new(&dists, 11);
        for i in 0..2_000 {
            let h = tree.next_event().unwrap();
            let n = naive.next_event().unwrap();
            assert_eq!(h, n, "event {i} diverged");
        }
    }

    #[test]
    fn tournament_matches_reference_across_lane_counts() {
        // Every tree shape from trivial to two full levels plus one.
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
            let mut tree = TrafficGenerator::new(&dists, 17);
            let mut naive = NaiveMerge::new(&dists, 17);
            for i in 0..500 {
                let h = tree.next_event().unwrap();
                let n = naive.next_event().unwrap();
                assert_eq!(h, n, "{lanes} lanes: event {i} diverged");
            }
        }
    }

    #[test]
    fn scales_to_many_lanes() {
        // The fleet simulator runs hundreds of lanes for millions of
        // events; O(log lanes) per event keeps that tractable.
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
    fn iterator_interface_works() {
        let dists = vec![IatDistribution::Fixed(10.0)];
        let mut g = TrafficGenerator::new(&dists, 3);
        let events = g.take_events(5);
        assert_eq!(events.len(), 5);
        assert!((events[0].at_ms - 10.0).abs() < 1e-9);
    }
}
