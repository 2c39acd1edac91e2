//! Smoke test: every workload at tiny size, untraced and traced, prints
//! exactly the metrics `BENCHMARK.json` names, and the correctness gate
//! counts a deliberately wrong golden without aborting the run.

use std::process::Command;

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

/// Runs the benchmark and returns its last stdout line.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lukebench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names in a result line, in order.
fn printed(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    // Each name is the last quoted string before a `:{"value":`.
    let parts: Vec<&str> = metrics.split(":{\"value\":").collect();
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|part| part.rsplit('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in ["cycle-paper", "figures", "fleet-steady", "fleet-cluster"] {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.1",
                "--trace",
                trace,
                "--size",
                "tiny",
            ]);
            assert!(
                line.starts_with("{\"correct\":true,"),
                "{workload} trace {trace}: {line}"
            );
            let mut got = printed(&line);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn a_wrong_golden_counts_as_failed_without_aborting() {
    // Seed 7's fleet checked against the default seed's digests.
    let line = run(&[
        "--workload",
        "fleet-steady",
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--expect-golden",
    ]);
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    assert!(!line.contains("\"failed\":0,"), "{line}");
}
