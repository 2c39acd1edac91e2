//! Golden fleet outputs: five small fleets, one per layer stack, must
//! keep every byte they export. For each config the test hashes the
//! merged telemetry snapshot (`run.snapshot.to_json()`), the datasets'
//! JSON and CSV, and the `Display` table.
//!
//! The golden file `tests/golden/fleet.fnv` holds one line per config
//! and output: `NAME OUTPUT DIGEST`, the FNV-1a 64 digest of that
//! output. On a mismatch the test writes the digests it computed to
//! `target/tmp/fleet.fnv`. When an output change is intended,
//! regenerate the golden with
//!
//! ```text
//! cargo test --test fleet_golden; cp target/tmp/fleet.fnv tests/golden/fleet.fnv
//! ```

use luke_obs::export::{to_csv, to_json};
use luke_obs::Export;
use lukewarm::fleet::{
    run_fleet, ChaosConfig, ColdStartModel, ContentionConfig, FleetConfig, FleetRun, PrewarmConfig,
    RoutingPolicy, ServiceModel,
};
use lukewarm::server::FaultRates;
use lukewarm::workloads::paper_suite;

const GOLDEN: &str = include_str!("golden/fleet.fnv");

/// Eight hosts over ~50 simulated seconds, with a keep-alive short
/// enough that expiries fire.
fn base() -> FleetConfig {
    FleetConfig {
        hosts: 8,
        invocations: 8_000,
        keep_alive_ms: 4_000.0,
        ..FleetConfig::default()
    }
}

/// Pre-warming with REAP-priced restores.
fn prewarm(config: &mut FleetConfig) {
    config.cold_start_model = ColdStartModel::ReapPrefetch;
    config.prewarm = PrewarmConfig {
        min_samples: 4,
        ..PrewarmConfig::default_enabled()
    };
}

/// Shared-page dedup and memory contention, which weight instances
/// below 1 in the pool's memory accounting.
fn tenancy(config: &mut FleetConfig) {
    config.cold_start_model = ColdStartModel::ReapPrefetch;
    config.policy = RoutingPolicy::PlacementAware;
    config.tenancy.dedup = true;
    config.tenancy.contention = ContentionConfig::default_enabled();
}

/// The five pinned fleets, by name. The last adds instance faults to
/// every other layer, so single evictions and crash repair run too.
fn configs() -> Vec<(&'static str, FleetConfig)> {
    // The CLI's `--chaos light` stack: seeded host crashes and degrades,
    // hedging, a retry budget, admission control, a flash-crowd surge
    // and the windowed series.
    let mut chaos = base();
    chaos.enable_resilience(ChaosConfig::light());
    let mut warm = base();
    prewarm(&mut warm);
    let mut shared = base();
    tenancy(&mut shared);
    let mut all = base();
    all.enable_resilience(ChaosConfig::light());
    prewarm(&mut all);
    tenancy(&mut all);
    all.trace_sample = 64;
    all.fault_rates = FaultRates {
        crash: 0.02,
        timeout: 0.01,
        cold_start_failure: 0.01,
        memory_pressure: 0.05,
    };
    vec![
        ("off", base()),
        ("chaos", chaos),
        ("prewarm", warm),
        ("tenancy", shared),
        ("all", all),
    ]
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn outputs(run: &FleetRun) -> [(&'static str, String); 4] {
    let datasets = run.datasets();
    [
        ("snapshot", run.snapshot.to_json()),
        ("json", to_json(&datasets)),
        ("csv", to_csv(&datasets)),
        ("table", run.to_string()),
    ]
}

#[test]
fn fleet_outputs_match_golden() {
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let mut actual = String::new();
    for (name, config) in configs() {
        let run = run_fleet(&config, &model, false).expect("fleet run");
        // Each stack must exercise the state it is here to pin.
        match name {
            "chaos" => assert!(run.host_crashes() > 0, "chaos: no host crashed"),
            "prewarm" => assert!(
                run.snapshot.counter("predict.early_decays") > 0
                    && run.snapshot.counter("predict.prewarm_spawns") > 0,
                "prewarm: no adaptive hold or no pre-restore"
            ),
            "tenancy" => assert!(
                run.snapshot.counter("tenancy.dedup_hits") > 0,
                "tenancy: no deduped instance"
            ),
            "all" => assert!(
                run.snapshot.counter("pool.evictions") > 0,
                "all: no instance evicted"
            ),
            _ => {}
        }
        assert!(
            run.snapshot.counter("pool.expirations") > 0,
            "{name}: no keep-alive expiry"
        );
        for (output, text) in outputs(&run) {
            actual.push_str(&format!("{name} {output} {:016x}\n", fnv1a(&text)));
        }
    }
    if actual == GOLDEN {
        return;
    }
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/fleet.fnv");
    std::fs::write(path, &actual).expect("write actual digests");
    panic!("fleet outputs differ from tests/golden/fleet.fnv; actual digests written to {path}:\n{actual}");
}
