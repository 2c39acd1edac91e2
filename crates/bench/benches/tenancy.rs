//! **Tenancy sweep (beyond the paper)** — shared-page dedup and
//! multi-tenant contention pressure across routing policies.
//!
//! Records a `BENCH_tenancy.json` perf-trajectory point: wall-clock for
//! the policy x variant grid as a sweep-throughput metric, plus the
//! quality numbers the subsystem exists to demonstrate — per-policy
//! memory savings and restore-cost recovery from dedup, the dedup'd
//! shared-page hit rate, and whether placement-aware routing holds the
//! memory-vs-P99 frontier under contention (a drop means the model
//! regressed, not just the machine).

use luke_bench::record::BenchRecord;
use lukewarm_sim::experiments::tenancy::{self, POLICIES};
use lukewarm_sim::Engine;
use std::time::Instant;

fn main() {
    luke_bench::harness("Tenancy sweep", |params| {
        let mut record = BenchRecord::new("tenancy");
        let start = Instant::now();
        let data = tenancy::run(&Engine::single(), params).expect("valid sweep");
        let elapsed = start.elapsed().as_secs_f64();
        record.phase("total_s", elapsed);
        record.metric("sweeps_per_s", 1.0 / elapsed);

        // Quality trajectory: what dedup buys under each policy, and the
        // placement-aware frontier claim as a 0/1 gauge.
        for policy in POLICIES {
            record.metric(
                &format!("memory_savings_{}", policy.label()),
                data.memory_savings(policy),
            );
            record.metric(
                &format!("restore_recovery_ms_{}", policy.label()),
                data.restore_recovery_ms(policy),
            );
            if let Some(row) = data.row(policy, "dedup") {
                record.metric(&format!("hit_rate_{}", policy.label()), row.hit_rate);
            }
        }
        record.metric(
            "placement_on_frontier",
            if data.placement_on_frontier() {
                1.0
            } else {
                0.0
            },
        );

        let mut out = data.to_string();
        match record.write() {
            Ok(path) => {
                out.push_str(&format!("trajectory record: {}\n", path.display()));
            }
            Err(e) => out.push_str(&format!("trajectory record not written: {e}\n")),
        }
        out
    });
}
