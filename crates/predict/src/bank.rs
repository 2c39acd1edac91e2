//! The per-host policy engine: one predictor per function, two
//! decision streams out.

use crate::config::PrewarmConfig;
use crate::predictor::Predictor;

/// The model of every slot the bank has not seen arrive yet.
static UNSEEN: Predictor = Predictor::new();

/// A bank of per-function predictors plus the policy state derived from
/// them: the current adaptive keep-alive per function, and each
/// arrival's pre-restore decision, returned to the caller that
/// schedules it.
///
/// One bank lives inside each simulated host, fed only by that host's
/// arrival stream — shard-local state, so the fleet's parallel phase
/// needs no cross-thread coordination and merges stay deterministic.
///
/// The bank is keyed by *slot*, a dense index its owner assigns to each
/// function it has seen (a fleet host numbers functions in first-arrival
/// order). A host sees a small share of a large population, so the bank
/// holds one predictor and one hold per slot, grown as slots arrive,
/// and nothing for the functions the host never sees. Until a slot's
/// first arrival, [`PredictorBank::predictor`] answers a shared empty
/// model and [`PredictorBank::hold`] the cap, which is what a freshly
/// built predictor would give.
#[derive(Clone, Debug)]
pub struct PredictorBank {
    config: PrewarmConfig,
    cap_ms: f64,
    /// Per slot: its predictor.
    predictors: Vec<Predictor>,
    /// Per slot: its adaptive hold, ms.
    holds: Vec<f64>,
    prewarms_scheduled: u64,
    early_decays: u64,
}

impl PredictorBank {
    /// An empty bank, with the pool's global keep-alive `cap_ms` as
    /// every slot's starting hold.
    pub fn new(config: PrewarmConfig, cap_ms: f64) -> Self {
        PredictorBank {
            config,
            cap_ms,
            predictors: Vec::new(),
            holds: Vec::new(),
            prewarms_scheduled: 0,
            early_decays: 0,
        }
    }

    /// The policy knobs this bank runs under.
    pub fn config(&self) -> &PrewarmConfig {
        &self.config
    }

    /// Feeds one arrival of the function in `slot` at simulated time
    /// `now_ms` and refreshes both decision streams. `restore_est_ms` is
    /// the current estimate of a REAP pre-restore's cost for this
    /// function, used to back-date the pre-warm to
    /// `predicted_arrival − restore_cost`.
    ///
    /// A pre-restore is scheduled only when the predicted arrival falls
    /// *after* the adaptive keep-alive expires — while the instance
    /// would still be resident, a pre-warm buys nothing.
    ///
    /// Returns the newly scheduled pre-restore time, if any. Each
    /// observe *replaces* the function's pending pre-restore (at most
    /// one outstanding), so the caller keeps the returned time as the
    /// function's only pending pre-restore: a later observe invalidates
    /// any timer scheduled from an earlier one.
    pub fn observe(&mut self, slot: usize, now_ms: f64, restore_est_ms: f64) -> Option<f64> {
        if slot >= self.predictors.len() {
            // A slot can arrive here out of order (its owner may assign
            // slots to arrivals that never reach the model), so the
            // slots skipped over get the unseen model and the cap.
            self.predictors.resize(slot + 1, Predictor::new());
            self.holds.resize(slot + 1, self.cap_ms);
        }
        let predictor = &mut self.predictors[slot];
        predictor.observe(now_ms);
        let hold = predictor.hold_ms(&self.config, self.cap_ms);
        if hold < self.cap_ms {
            self.early_decays += 1;
        }
        self.holds[slot] = hold;
        let t_pre = now_ms + predictor.predicted_iat_ms(&self.config)? - restore_est_ms.max(0.0);
        if t_pre > now_ms + hold {
            self.prewarms_scheduled += 1;
            Some(t_pre)
        } else {
            None
        }
    }

    /// The current adaptive keep-alive per slot, for the pool's residency
    /// pricing. Slots the model has not yet justified a deviation for sit
    /// at the global cap; slots past the end have not arrived (the cap).
    pub fn holds(&self) -> &[f64] {
        &self.holds
    }

    /// The adaptive keep-alive in force for `slot` (the cap before its
    /// first arrival).
    pub fn hold(&self, slot: usize) -> f64 {
        self.holds.get(slot).copied().unwrap_or(self.cap_ms)
    }

    /// Read-only view of one slot's predictor (an empty model before its
    /// first arrival).
    pub fn predictor(&self, slot: usize) -> &Predictor {
        self.predictors.get(slot).unwrap_or(&UNSEEN)
    }

    /// Pre-restores scheduled so far.
    pub fn prewarms_scheduled(&self) -> u64 {
        self.prewarms_scheduled
    }

    /// Arrivals processed while a tightened (below-cap) hold was in
    /// force for their function.
    pub fn early_decays(&self) -> u64 {
        self.early_decays
    }
}

/// A dense bank keyed by function id — one predictor per function,
/// built up front — kept as the oracle the slot-keyed bank is checked
/// against.
#[cfg(test)]
mod oracle {
    use crate::config::PrewarmConfig;
    use crate::predictor::Predictor;

    pub struct DenseBank {
        config: PrewarmConfig,
        cap_ms: f64,
        predictors: Vec<Predictor>,
        pub holds: Vec<f64>,
        pub prewarms_scheduled: u64,
        pub early_decays: u64,
    }

    impl DenseBank {
        pub fn new(config: PrewarmConfig, functions: usize, cap_ms: f64) -> Self {
            DenseBank {
                config,
                cap_ms,
                predictors: vec![Predictor::new(); functions],
                holds: vec![cap_ms; functions],
                prewarms_scheduled: 0,
                early_decays: 0,
            }
        }

        pub fn observe(
            &mut self,
            function: usize,
            now_ms: f64,
            restore_est_ms: f64,
        ) -> Option<f64> {
            let predictor = &mut self.predictors[function];
            predictor.observe(now_ms);
            let hold = predictor.hold_ms(&self.config, self.cap_ms);
            if hold < self.cap_ms {
                self.early_decays += 1;
            }
            self.holds[function] = hold;
            match predictor.predicted_iat_ms(&self.config) {
                Some(iat) => {
                    let t_pre = now_ms + iat - restore_est_ms.max(0.0);
                    if t_pre > now_ms + hold {
                        self.prewarms_scheduled += 1;
                        Some(t_pre)
                    } else {
                        None
                    }
                }
                None => None,
            }
        }

        pub fn predictor(&self, function: usize) -> &Predictor {
            &self.predictors[function]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_holds_every_slot_at_the_cap() {
        let bank = PredictorBank::new(PrewarmConfig::default_enabled(), 600_000.0);
        assert!(bank.holds().is_empty());
        assert!((0..4).all(|slot| bank.hold(slot) == 600_000.0));
        assert_eq!(bank.prewarms_scheduled(), 0);
    }

    #[test]
    fn periodic_function_schedules_a_prewarm_after_its_hold() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 600_000.0);
        let scheduled: Vec<Option<f64>> = (0..8)
            .map(|i| bank.observe(0, i as f64 * 5_000.0, 100.0))
            .collect();
        // Period 5 s, hold floor 1 s: the predicted arrival lands after
        // expiry, so the last arrival schedules a pre-restore at
        // 35_000 + 5_000 − 100.
        assert!(bank.prewarms_scheduled() > 0);
        assert_eq!(
            bank.prewarms_scheduled(),
            scheduled.iter().flatten().count() as u64,
            "every scheduled pre-restore is returned"
        );
        let t_pre = scheduled[7].expect("the last arrival schedules a pre-restore");
        assert!((t_pre - 39_900.0).abs() < 1.0, "scheduled at {t_pre}");
    }

    #[test]
    fn no_prewarm_while_the_instance_would_still_be_resident() {
        let config = PrewarmConfig {
            min_hold_ms: 60_000.0,
            ..PrewarmConfig::default_enabled()
        };
        let mut bank = PredictorBank::new(config, 600_000.0);
        for i in 0..8 {
            bank.observe(0, i as f64 * 5_000.0, 100.0);
        }
        // Period 5 s but the hold floor is 60 s: every predicted
        // arrival lands while the instance is still warm.
        assert_eq!(bank.prewarms_scheduled(), 0);
    }

    #[test]
    fn early_decays_count_tightened_holds() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 600_000.0);
        for i in 0..8 {
            bank.observe(0, i as f64 * 5_000.0, 100.0);
        }
        assert!(bank.early_decays() > 0);
        assert!(bank.holds()[0] < 600_000.0);
        assert_eq!(bank.hold(0), bank.holds()[0]);
    }

    #[test]
    fn fresh_slots_allocate_no_buckets_until_a_gap() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 600_000.0);
        let allocated = |bank: &PredictorBank| {
            (0..8)
                .filter(|&slot| bank.predictor(slot).histogram().has_buckets())
                .collect::<Vec<_>>()
        };
        // The first arrival only anchors the clock; the second records
        // a gap, and only for that slot.
        bank.observe(0, 500.0, 10.0);
        bank.observe(1, 1_000.0, 10.0);
        assert!(allocated(&bank).is_empty());
        bank.observe(1, 2_000.0, 10.0);
        assert_eq!(allocated(&bank), vec![1]);
    }

    #[test]
    fn slots_are_built_as_they_arrive() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 600_000.0);
        assert!(bank.predictors.is_empty());
        assert_eq!(bank.predictor(0).samples(), 0, "unseen: the empty model");
        bank.observe(0, 1_000.0, 10.0);
        bank.observe(1, 1_500.0, 10.0);
        bank.observe(0, 2_000.0, 10.0);
        assert_eq!(bank.predictors.len(), 2, "one per slot that arrived");
        assert_eq!(bank.predictor(0).samples(), 1);
        assert_eq!(bank.predictor(1).last_arrival_ms(), Some(1_500.0));
        assert_eq!(bank.predictor(2).last_arrival_ms(), None);
        // A slot that arrives ahead of its predecessors leaves them at
        // the unseen model and the cap.
        bank.observe(4, 3_000.0, 10.0);
        assert_eq!(bank.holds().len(), 5);
        assert_eq!(bank.predictor(3), &Predictor::new());
        assert_eq!(bank.hold(3), 600_000.0);
        assert_eq!(bank.predictor(4).last_arrival_ms(), Some(3_000.0));
    }

    mod against_the_dense_oracle {
        use super::super::oracle::DenseBank;
        use super::*;
        use proptest::prelude::*;

        /// Gaps that mix a steady 5 s period (so the periodicity head
        /// fires and pre-warms get scheduled) with bursts and long idles.
        fn gap() -> impl Strategy<Value = f64> {
            (0u8..6, 0.0f64..200_000.0).prop_map(|(pick, random)| match pick {
                0..=2 => 5_000.0,
                3 => 40.0,
                4 => 120_000.0,
                _ => random,
            })
        }

        /// An arrival of `function` after `gap_ms`, with a restore
        /// estimate.
        fn arrival(functions: usize) -> impl Strategy<Value = (usize, f64, f64)> {
            (0usize..functions, gap(), 0.0f64..400.0)
        }

        fn config(min_samples: u64) -> PrewarmConfig {
            PrewarmConfig {
                min_samples,
                ..PrewarmConfig::default_enabled()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn slot_bank_matches_the_dense_bank(
                functions in 1usize..24,
                min_samples in 1u64..20,
                arrivals in prop::collection::vec(arrival(24), 1..300),
            ) {
                let (config, cap_ms) = (config(min_samples), 600_000.0);
                let mut bank = PredictorBank::new(config, cap_ms);
                let mut dense = DenseBank::new(config, functions, cap_ms);
                // Slots in first-arrival order, as a fleet host assigns
                // them.
                let mut slot_of = vec![None; functions];
                let mut slots = 0;
                let mut now = 0.0;
                for (function, gap, restore) in arrivals {
                    now += gap;
                    let function = function % functions;
                    let slot = *slot_of[function].get_or_insert_with(|| {
                        slots += 1;
                        slots - 1
                    });
                    prop_assert_eq!(
                        bank.observe(slot, now, restore),
                        dense.observe(function, now, restore)
                    );
                    prop_assert_eq!(bank.hold(slot), dense.holds[function]);
                }
                prop_assert_eq!(bank.prewarms_scheduled(), dense.prewarms_scheduled);
                prop_assert_eq!(bank.early_decays(), dense.early_decays);
                prop_assert_eq!(bank.holds().len(), slots);
                // Seen and unseen functions alike answer the same model
                // and hold.
                for (function, slot) in slot_of.iter().enumerate() {
                    let slot = slot.unwrap_or(slots);
                    prop_assert_eq!(bank.predictor(slot), dense.predictor(function));
                    prop_assert_eq!(bank.hold(slot), dense.holds[function]);
                }
            }
        }
    }
}
