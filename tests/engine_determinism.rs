//! Golden determinism: for every registered experiment, the text table
//! and the JSON and CSV emissions produced through a 4-thread engine
//! must be byte-identical to the single-threaded ones, and the
//! single-threaded ones must match the committed golden digests. One
//! shared engine per thread count, exactly as `lukewarm figure --all
//! --threads N` builds it, so cross-experiment cache hits are part of
//! what is being checked.
//!
//! The golden file `tests/golden/experiments.fnv` holds one line per
//! experiment and format: `NAME FORMAT DIGEST`, the FNV-1a 64 digest of
//! that output at `ExperimentParams::quick()`. On a mismatch the test
//! prints each differing output and writes the digests it computed to
//! `target/tmp/experiments.fnv`. When an output change is intended,
//! regenerate the golden with
//!
//! ```text
//! cargo test --test engine_determinism outputs_match_golden; \
//!     cp target/tmp/experiments.fnv tests/golden/experiments.fnv
//! ```

use lukewarm_sim::runner::ExperimentParams;
use lukewarm_sim::Engine;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/experiments.fnv");

/// One experiment's outputs: name, then `(format, text)` for the text
/// table, JSON and CSV.
type Outputs = (String, [(&'static str, String); 3]);

fn emit(threads: usize) -> Vec<Outputs> {
    let params = ExperimentParams::quick();
    let engine = Engine::new(threads);
    lukewarm_sim::engine::registry()
        .iter()
        .map(|experiment| {
            let data = engine
                .execute(*experiment, &params)
                .expect("experiment completes at quick scale");
            let datasets = data.datasets();
            (
                experiment.name().to_string(),
                [
                    ("table", data.to_string()),
                    ("json", luke_obs::export::to_json(&datasets)),
                    ("csv", luke_obs::export::to_csv(&datasets)),
                ],
            )
        })
        .collect()
}

/// The single-threaded outputs, computed once for both tests.
fn serial() -> &'static [Outputs] {
    static SERIAL: OnceLock<Vec<Outputs>> = OnceLock::new();
    SERIAL.get_or_init(|| emit(1))
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let serial = serial();
    let parallel = emit(4);
    assert_eq!(serial.len(), parallel.len());
    // The registry drives the suite, so new experiments are covered the
    // moment they register; pin the snapshot subsystem's sweep to catch
    // an accidental deregistration.
    assert!(
        serial.iter().any(|(name, _)| name == "cold-spectrum"),
        "golden suite must cover cold-spectrum"
    );
    for ((name, outputs), (name4, outputs4)) in serial.iter().zip(&parallel) {
        assert_eq!(name, name4);
        for ((format, text), (_, text4)) in outputs.iter().zip(outputs4) {
            assert_eq!(
                text, text4,
                "{name}: 4-thread {format} diverged from 1-thread"
            );
        }
    }
}

#[test]
fn outputs_match_golden() {
    let mut actual = String::new();
    for (name, outputs) in serial() {
        for (format, text) in outputs {
            actual.push_str(&format!("{name} {format} {:016x}\n", fnv1a(text)));
        }
    }
    if actual == GOLDEN {
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let mut lines = actual.lines();
    for (name, outputs) in serial() {
        for (format, text) in outputs {
            let line = lines.next().unwrap_or_default();
            if !golden.contains(&line) {
                println!("--- {name} {format} differs from the golden; actual output:\n{text}");
            }
        }
    }
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/experiments.fnv");
    std::fs::write(path, &actual).expect("write actual digests");
    panic!("outputs differ from tests/golden/experiments.fnv; actual digests written to {path}");
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
