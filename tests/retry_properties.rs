//! Resilience-layer properties: deterministic, clamped retry backoff; a
//! token-bucket retry budget that attempts can never overrun; and a
//! chaos plan whose disabled sentinel is transparent everywhere — no
//! fault windows, no RNG draws, no resilience telemetry.

use luke_common::DetRng;
use lukewarm::fleet::{
    run_fleet, ChaosConfig, ChaosPlan, FleetConfig, HostSchedule, HostState, RetryBudget,
    ServiceModel,
};
use lukewarm::server::RetryPolicy;
use lukewarm::workloads::paper_suite;
use proptest::prelude::*;

fn policy(base_backoff_ms: f64, cap_mult: f64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff_ms,
        backoff_multiplier: 2.0,
        max_backoff_ms: base_backoff_ms * cap_mult,
        jitter: 0.3,
        deadline_ms: f64::INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Bounded backoff ---

    #[test]
    fn bounded_backoff_is_deterministic_per_seed(
        seed in 0u64..(1u64 << 62),
        base in 0.1f64..100.0,
        cap_mult in 1.0f64..50.0,
    ) {
        let p = policy(base, cap_mult);
        let draw = || {
            let mut rng = DetRng::new(seed);
            (1..10u64).map(|r| p.bounded_backoff_ms(r, &mut rng)).collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(), draw());
    }

    #[test]
    fn bounded_backoff_stays_within_base_and_cap(
        seed in 0u64..(1u64 << 62),
        base in 0.1f64..100.0,
        cap_mult in 1.0f64..50.0,
        retry in 1u64..20,
    ) {
        let p = policy(base, cap_mult);
        let mut rng = DetRng::new(seed);
        let backoff = p.bounded_backoff_ms(retry, &mut rng);
        prop_assert!(
            backoff >= p.base_backoff_ms && backoff <= p.max_backoff_ms,
            "retry {} backoff {} outside [{}, {}]",
            retry, backoff, p.base_backoff_ms, p.max_backoff_ms
        );
    }

    #[test]
    fn zeroth_retry_and_zero_base_cost_nothing(
        seed in 0u64..(1u64 << 62),
        retry in 0u64..20,
    ) {
        let mut rng = DetRng::new(seed);
        prop_assert_eq!(policy(10.0, 10.0).bounded_backoff_ms(0, &mut rng), 0.0);
        prop_assert_eq!(policy(0.0, 1.0).bounded_backoff_ms(retry, &mut rng), 0.0);
    }

    // --- Retry budget ---

    #[test]
    fn allowed_attempts_never_exceed_the_budget_or_the_policy(
        max_tokens in 0.5f64..50.0,
        tokens in -5.0f64..60.0,
        policy_max in 1u64..10,
    ) {
        let budget = RetryBudget::new(max_tokens, 0.1).unwrap();
        let allowed = budget.allowed_attempts(tokens, policy_max);
        prop_assert!(allowed >= 1, "the first attempt is always allowed");
        prop_assert!(allowed <= policy_max);
        prop_assert!(allowed as f64 <= 1.0 + tokens.max(0.0));
    }

    #[test]
    fn settling_keeps_the_bucket_level_in_range(
        max_tokens in 0.5f64..50.0,
        ratio in 0.0f64..1.0,
        spends in proptest::collection::vec((0u64..4, any::<bool>()), 1..40),
    ) {
        let budget = RetryBudget::new(max_tokens, ratio).unwrap();
        let mut tokens = budget.initial_tokens();
        for (retries, completed) in spends {
            budget.settle(&mut tokens, retries, completed);
            prop_assert!(
                (0.0..=max_tokens).contains(&tokens),
                "bucket {} escaped [0, {}]", tokens, max_tokens
            );
        }
    }

    #[test]
    fn unlimited_budget_is_a_passthrough(
        tokens in 0.0f64..100.0,
        policy_max in 1u64..10,
        retries in 0u64..5,
    ) {
        let budget = RetryBudget::unlimited();
        prop_assert!(!budget.is_limited());
        prop_assert_eq!(budget.allowed_attempts(tokens, policy_max), policy_max);
        let mut level = tokens;
        budget.settle(&mut level, retries, true);
        prop_assert_eq!(level, tokens, "settle must not touch an unlimited bucket");
    }

    // --- Chaos-plan transparency ---

    #[test]
    fn disabled_chaos_plan_is_up_everywhere(
        host in 0usize..64,
        t in 0.0f64..1e7,
    ) {
        let plan = ChaosPlan::none();
        prop_assert!(plan.is_none());
        prop_assert_eq!(plan.state_at(host, t), HostState::Up);
        prop_assert!(!plan.all_down_at(t));
        prop_assert_eq!(plan.total_crashes(), 0);
        prop_assert!(HostSchedule::none().is_none());
    }

    #[test]
    fn synthesized_chaos_timelines_are_reproducible(
        seed in 0u64..(1u64 << 62),
        host in 0usize..32,
        t in 0.0f64..300_000.0,
    ) {
        let config = FleetConfig {
            seed,
            chaos: ChaosConfig {
                host_mtbf_ms: 20_000.0,
                crash_downtime_ms: 2_000.0,
                degrade_mtbf_ms: 20_000.0,
                degrade_duration_ms: 3_000.0,
                degrade_slowdown: 2.0,
            },
            ..FleetConfig::default()
        };
        let a = ChaosPlan::synthesize(&config);
        let b = ChaosPlan::synthesize(&config);
        prop_assert_eq!(a.state_at(host % config.hosts, t), b.state_at(host % config.hosts, t));
        prop_assert_eq!(a.total_crashes(), b.total_crashes());
    }
}

/// A hard accounting bound, not a statistical one: with a refill ratio
/// of zero every retry spends a token that is never returned, so total
/// retries across the run cannot exceed hosts x functions x the initial
/// bucket level.
#[test]
fn a_dry_budget_caps_total_retries_by_its_initial_tokens() {
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let config = FleetConfig {
        hosts: 8,
        invocations: 8_000,
        population: 50,
        chaos: ChaosConfig {
            host_mtbf_ms: 8_000.0,
            crash_downtime_ms: 2_500.0,
            degrade_mtbf_ms: 20_000.0,
            degrade_duration_ms: 3_000.0,
            degrade_slowdown: 2.0,
        },
        retry_budget: RetryBudget::new(2.0, 0.0).expect("budget knobs are valid"),
        ..FleetConfig::default()
    };
    let run = run_fleet(&config, &model, false).expect("config is valid");
    assert!(run.retries() > 0, "down-host reconnects must draw retries");
    let cap = (config.hosts * config.population) as u64 * 2;
    assert!(
        run.retries() <= cap,
        "{} retries escaped the {} token cap",
        run.retries(),
        cap
    );
}
