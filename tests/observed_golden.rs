//! Golden observed exports: the outputs `run_observed` feeds must keep
//! every byte. `run --emit json|csv` exports the metrics registry of an
//! observed run (per-invocation series, prefetcher telemetry and run
//! gauges); `trace` exports the last measured invocation's lifecycle
//! spans as a Chrome trace.
//!
//! The golden file `tests/golden/observed.fnv` holds one line per
//! output: `NAME DIGEST`, the FNV-1a 64 digest of that output at
//! `ExperimentParams::quick()`'s scale and invocation count. On a
//! mismatch the test writes the digests it computed to
//! `target/tmp/observed.fnv`. When an output change is intended,
//! regenerate the golden with
//!
//! ```text
//! cargo test --test observed_golden; cp target/tmp/observed.fnv tests/golden/observed.fnv
//! ```

use lukewarm_cli::run_cli;

const GOLDEN: &str = include_str!("golden/observed.fnv");

/// `(name, command)`: every output pinned, at quick scale.
const OUTPUTS: [(&str, &str); 6] = [
    (
        "run-jukebox-lukewarm-json",
        "run Auth-G --prefetcher jukebox --state lukewarm --emit json",
    ),
    (
        "run-jukebox-lukewarm-csv",
        "run Auth-G --prefetcher jukebox --state lukewarm --emit csv",
    ),
    (
        "run-baseline-reference-json",
        "run Auth-G --prefetcher baseline --state reference --emit json",
    ),
    (
        "run-baseline-reference-csv",
        "run Auth-G --prefetcher baseline --state reference --emit csv",
    ),
    ("trace-fib", "trace Fib-G"),
    // One measured invocation right after the warm-up: the trace must
    // hold that invocation's spans and none of the warm-up's.
    ("trace-fib-one-invocation", "trace Fib-G --invocations 1"),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn output(command: &str) -> String {
    let mut argv: Vec<String> = command.split_whitespace().map(String::from).collect();
    if !argv.iter().any(|a| a == "--invocations") {
        argv.extend(["--invocations".into(), "3".into()]);
    }
    argv.extend(["--scale".into(), "0.04".into()]);
    run_cli(&argv).unwrap_or_else(|e| panic!("{command}: {e:?}"))
}

#[test]
fn observed_exports_match_golden() {
    let mut actual = String::new();
    for (name, command) in OUTPUTS {
        actual.push_str(&format!("{name} {:016x}\n", fnv1a(&output(command))));
    }
    if actual == GOLDEN {
        return;
    }
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/observed.fnv");
    std::fs::write(path, &actual).expect("write actual digests");
    panic!("observed exports differ from tests/golden/observed.fnv; actual digests written to {path}:\n{actual}");
}
