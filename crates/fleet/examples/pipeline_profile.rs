//! Wall-clock breakdown of the fleet pipeline's stages, for tuning the
//! event-driven hot path: arrival generation alone, generation plus
//! routing, and the full `run_fleet` at 1 thread.
//!
//! ```text
//! cargo run --release -p luke-fleet --example pipeline_profile
//! ```

use luke_fleet::{run_fleet, ArrivalStream, FleetConfig, Population, Router, ServiceModel};
use std::time::Instant;
use workloads::paper_suite;

fn main() {
    let hosts = 16;
    let config = FleetConfig {
        hosts,
        invocations: hosts * 200_000,
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let n = config.invocations;

    let population = Population::synthesize(&config);
    let mut stream = ArrivalStream::synthesize(&config, &population).expect("stream");
    let start = Instant::now();
    let mut sum = 0.0;
    for event in stream.by_ref().take(n) {
        sum += event.at_ms;
    }
    let gen_s = start.elapsed().as_secs_f64();
    println!(
        "generate only:      {gen_s:.3}s  ({:.0} ev/s, checksum {sum:.0})",
        n as f64 / gen_s
    );

    let mut stream = ArrivalStream::synthesize(&config, &population).expect("stream");
    let mut router = Router::new(config.policy, config.hosts);
    let warm_ms: Vec<f64> = (0..model.functions())
        .map(|p| model.timing(p).warm_ms)
        .collect();
    let start = Instant::now();
    let mut routed = 0usize;
    for event in stream.by_ref().take(n) {
        routed += router.route(event.instance, warm_ms[event.instance % warm_ms.len()]);
    }
    let route_s = start.elapsed().as_secs_f64();
    println!(
        "generate + route:   {route_s:.3}s  ({:.0} ev/s, checksum {routed})",
        n as f64 / route_s
    );

    let start = Instant::now();
    let run = run_fleet(&config, &model, false).expect("run");
    let full_s = start.elapsed().as_secs_f64();
    println!(
        "run_fleet 1 thread: {full_s:.3}s  ({:.0} inv/s, {} cold starts)",
        n as f64 / full_s,
        run.cold_starts
    );
    println!(
        "breakdown: generate {:.0}%, route {:.0}%, process+merge {:.0}%",
        100.0 * gen_s / full_s,
        100.0 * (route_s - gen_s) / full_s,
        100.0 * (full_s - route_s) / full_s
    );

    // Fixed per-run overhead: a run with almost no invocations isolates
    // population synthesis, host construction, and the merge phase.
    let tiny = FleetConfig {
        invocations: 16,
        ..config.clone()
    };
    let start = Instant::now();
    let _ = run_fleet(&tiny, &model, false).expect("tiny run");
    println!(
        "fixed overhead (16 invocations): {:.1}ms",
        start.elapsed().as_secs_f64() * 1e3
    );

    // Quick-scale shape: the CI bench point (16 hosts × 5,000 inv/host).
    let quick = FleetConfig {
        invocations: 16 * 5_000,
        ..config.clone()
    };
    for _ in 0..2 {
        let start = Instant::now();
        let run = run_fleet(&quick, &model, false).expect("quick run");
        let s = start.elapsed().as_secs_f64();
        println!(
            "quick scale 1 thread: {:.1}ms ({:.0} inv/s)",
            s * 1e3,
            run.invocations as f64 / s
        );
    }

    // Cluster-scale shape: the bench's ≥2,048-host headline row, split
    // into fixed overhead (tiny stream) vs streaming work. Sweeping the
    // host count exposes the scaling exponent of the fixed part.
    for headline_hosts in [512usize, 1_024, 2_048] {
        for threads in [1usize, 8] {
            let headline = FleetConfig {
                hosts: headline_hosts,
                threads,
                invocations: headline_hosts * 64,
                population: 4 * headline_hosts,
                ..FleetConfig::default()
            };
            let tiny = FleetConfig {
                invocations: 16,
                ..headline.clone()
            };
            let start = Instant::now();
            let _ = run_fleet(&tiny, &model, false).expect("tiny headline run");
            let fixed_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let run = run_fleet(&headline, &model, false).expect("headline run");
            let s = start.elapsed().as_secs_f64();
            println!(
                "headline {} hosts, {} threads: fixed {:.0}ms, full {:.0}ms ({:.0} inv/s)",
                headline_hosts,
                threads,
                fixed_s * 1e3,
                s * 1e3,
                run.invocations as f64 / s
            );
        }
    }
}
