//! Golden determinism: for every registered experiment, the machine
//! emission and the rendered table produced through a 4-thread engine
//! must be byte-identical to the single-threaded ones. One shared engine
//! per thread count, exactly as `lukewarm figure --all --threads N`
//! builds it, so cross-experiment cache hits are part of what is being
//! checked.

use lukewarm_sim::runner::ExperimentParams;
use lukewarm_sim::Engine;

#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let params = ExperimentParams::quick();
    let emit = |threads: usize| -> Vec<(String, String, String)> {
        let engine = Engine::new(threads);
        lukewarm_sim::engine::registry()
            .iter()
            .map(|experiment| {
                let data = engine
                    .execute(*experiment, &params)
                    .expect("experiment completes at quick scale");
                (
                    experiment.name().to_string(),
                    luke_obs::export::to_json(&data.datasets()),
                    data.to_string(),
                )
            })
            .collect()
    };

    let serial = emit(1);
    let parallel = emit(4);
    assert_eq!(serial.len(), parallel.len());
    // The registry drives the suite, so new experiments are covered the
    // moment they register; pin the snapshot subsystem's sweep to catch
    // an accidental deregistration.
    assert!(
        serial.iter().any(|(name, ..)| name == "cold-spectrum"),
        "golden suite must cover cold-spectrum"
    );
    for ((name, json, table), (name4, json4, table4)) in serial.iter().zip(&parallel) {
        assert_eq!(name, name4);
        assert_eq!(
            json, json4,
            "{name}: 4-thread export diverged from 1-thread"
        );
        assert_eq!(
            table, table4,
            "{name}: 4-thread table diverged from 1-thread"
        );
    }
}

#[test]
fn shared_engine_deduplicates_cross_experiment_cells() {
    let params = ExperimentParams::quick();
    // Isolated engines: every experiment pays for its own cells.
    let isolated: u64 = lukewarm_sim::engine::registry()
        .iter()
        .map(|experiment| {
            let engine = Engine::single();
            engine
                .execute(*experiment, &params)
                .expect("experiment completes");
            engine.cells_simulated()
        })
        .sum();
    // One shared engine: duplicated cells (fig11/fig12, workflows/
    // resilience, ...) simulate exactly once.
    let shared = Engine::single();
    for experiment in lukewarm_sim::engine::registry() {
        shared
            .execute(*experiment, &params)
            .expect("experiment completes");
    }
    assert!(
        shared.cells_simulated() < isolated,
        "shared engine simulated {} cells, isolated engines {}",
        shared.cells_simulated(),
        isolated
    );
    assert!(shared.cache_hits() > 0);
}
