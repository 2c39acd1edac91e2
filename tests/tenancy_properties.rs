//! Tenancy properties: content addressing must be deterministic and
//! collision-free over realistic coordinates, the shared-page store's
//! register/release pair must be an exact mirror (dedup idempotence),
//! copy-on-write breaks must never disturb other sharers, and a fleet
//! carrying an explicitly-disabled tenancy config must reproduce the
//! plain fleet bit-for-bit at any thread count.

use luke_tenancy::{content_key, FunctionLayout, PageClass, SharedPageStore, TenancyConfig};
use lukewarm::fleet::{run_fleet, FleetConfig, ServiceModel};
use lukewarm::workloads::paper_suite;
use proptest::prelude::*;

const PAGE_BYTES: u64 = 4096;

/// Arbitrary but plausible layouts: every language slot, runtime cores
/// up to the V8-sized constant, library and data regions up to a few
/// hundred pages.
fn layouts() -> impl Strategy<Value = FunctionLayout> {
    (0u8..3, 1u64..64, 0u64..256, 1u64..128).prop_map(
        |(language, runtime_pages, library_pages, data_pages)| FunctionLayout {
            language,
            runtime_pages,
            library_pages,
            data_pages,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Content-hash determinism ---

    #[test]
    fn content_keys_are_deterministic_and_coordinate_sensitive(
        language in 0u8..3,
        region in 0u64..3,
        index in 0u64..(1u64 << 32),
    ) {
        prop_assert_eq!(
            content_key(language, region, index),
            content_key(language, region, index),
            "same triple must always hash to the same key"
        );
        // Any single-coordinate move changes the key.
        prop_assert_ne!(
            content_key(language, region, index),
            content_key((language + 1) % 3, region, index)
        );
        prop_assert_ne!(
            content_key(language, region, index),
            content_key(language, region + 3, index)
        );
        prop_assert_ne!(
            content_key(language, region, index),
            content_key(language, region, index.wrapping_add(1))
        );
    }

    // --- Dedup idempotence: release mirrors register exactly ---

    #[test]
    fn register_release_round_trips_to_the_prior_resident_state(
        base in layouts(),
        extra in layouts(),
        cow in 0.0f64..1.0,
        dedup in any::<bool>(),
    ) {
        let mut store = SharedPageStore::new();
        store.register(&base, true, 0.0);
        let resident_before = store.resident_bytes();
        let distinct_before = store.resident_shared_pages();

        // Registering and releasing any instance — same language or
        // not, dedup'd or not, any COW fraction — must restore the
        // resident set exactly; only cumulative counters may move.
        store.register(&extra, dedup, cow);
        store.release(&extra, dedup, cow);
        prop_assert_eq!(store.resident_bytes(), resident_before);
        prop_assert_eq!(store.resident_shared_pages(), distinct_before);

        // And draining the base instance empties the store.
        store.release(&base, true, 0.0);
        prop_assert_eq!(store.resident_bytes(), 0);
        prop_assert_eq!(store.resident_shared_pages(), 0);
    }

    #[test]
    fn n_registrations_charge_shared_pages_once(
        layout in layouts(),
        instances in 1usize..8,
    ) {
        let mut store = SharedPageStore::new();
        for _ in 0..instances {
            store.register(&layout, true, 0.0);
        }
        // Shared pages are resident once no matter how many sharers...
        prop_assert_eq!(store.resident_shared_pages(), layout.shared_pages());
        prop_assert_eq!(
            store.resident_bytes(),
            (layout.shared_pages() + layout.data_pages * instances as u64) * PAGE_BYTES
        );
        // ...and every instance past the first hits on all of them.
        prop_assert_eq!(
            store.dedup_hits(),
            layout.shared_pages() * (instances as u64 - 1)
        );
    }

    // --- COW isolation ---

    #[test]
    fn cow_breaks_never_disturb_other_sharers(
        layout in layouts(),
        page in 0u64..64,
        sharers in 2u32..6,
    ) {
        let index = page % layout.runtime_pages;
        let runtime = PageClass::SharedRuntime;
        let mut store = SharedPageStore::new();
        for _ in 0..sharers {
            store.register(&layout, true, 0.0);
        }
        prop_assert_eq!(store.ref_count(layout.language, runtime, index), sharers);
        let resident = store.resident_bytes();

        // One writer privatizes the page: its reference moves to the
        // private ledger, everyone else's mapping survives untouched.
        prop_assert!(store.write_shared(layout.language, runtime, index));
        prop_assert_eq!(store.ref_count(layout.language, runtime, index), sharers - 1);
        prop_assert_eq!(store.resident_bytes(), resident + PAGE_BYTES);

        // Writing an unmapped page is a refused no-op.
        let foreign = (layout.language + 1) % 3;
        let before = store.resident_bytes();
        prop_assert!(!store.write_shared(foreign, runtime, index));
        prop_assert_eq!(store.resident_bytes(), before);
    }
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of cases keeps
    // the property meaningful without dominating the suite.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // --- Disabled-config bit-transparency, at any thread count ---

    #[test]
    fn disabled_tenancy_reproduces_the_plain_fleet_bit_for_bit(
        population in 8usize..48,
        seed in 0u64..(1u64 << 40),
    ) {
        let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
        let fingerprint = |tenancy: Option<TenancyConfig>, threads: usize| {
            let mut config = FleetConfig {
                hosts: 4,
                threads,
                invocations: 800,
                population,
                seed,
                ..FleetConfig::default()
            };
            if let Some(tenancy) = tenancy {
                config.tenancy = tenancy;
            }
            let run = run_fleet(&config, &model, false).expect("valid config");
            (
                run.snapshot.to_json(),
                luke_obs::export::to_json(&luke_obs::Export::datasets(&run)),
                format!("{run}"),
            )
        };

        // An untouched (default) fleet config and one carrying an
        // explicit disabled tenancy config are byte-identical, and the
        // thread count never shows in the bytes.
        let plain = fingerprint(None, 1);
        prop_assert_eq!(&fingerprint(Some(TenancyConfig::disabled()), 1), &plain);
        prop_assert_eq!(&fingerprint(Some(TenancyConfig::disabled()), 4), &plain);
    }
}
