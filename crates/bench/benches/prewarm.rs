//! **Pre-warm frontier (beyond the paper)** — memory-seconds vs P99
//! under fixed keep-alive windows, the `luke-predict` adaptive policy,
//! and the perfect-prediction oracle, one frontier per cold-start model.
//!
//! Records a `BENCH_prewarm.json` perf-trajectory point: wall-clock for
//! the whole model x policy grid as a sweep-throughput metric, plus the
//! adaptive policy's memory saving against its own fixed cap — the
//! quality number the frontier exists to demonstrate (a drop means the
//! policy regressed, not just the machine).

use luke_bench::record::BenchRecord;
use lukewarm_sim::experiments::prewarm_frontier::{self, MODELS};
use lukewarm_sim::Engine;
use std::time::Instant;

fn main() {
    luke_bench::harness("Pre-warm frontier", |params| {
        let mut record = BenchRecord::new("prewarm");
        let start = Instant::now();
        let data = prewarm_frontier::run(&Engine::single(), params).expect("valid sweep");
        let elapsed = start.elapsed().as_secs_f64();
        record.phase("total_s", elapsed);
        record.metric("sweeps_per_s", 1.0 / elapsed);

        // Quality trajectory: fixed windows dominated per model, and the
        // adaptive policy's memory saving vs the fixed window at its cap.
        for model in MODELS {
            let dominated = data.dominated_fixed_windows(model).len() as f64;
            record.metric(&format!("dominated_windows_{}", model.label()), dominated);
            let rows = data.rows_for(model);
            let adaptive = rows.iter().find(|r| r.policy == "adaptive");
            let cap = rows.iter().find(|r| {
                r.policy == "fixed" && r.keep_alive_min == prewarm_frontier::ADAPTIVE_CAP_MINUTES
            });
            if let (Some(adaptive), Some(cap)) = (adaptive, cap) {
                if cap.memory_instance_s > 0.0 {
                    record.metric(
                        &format!("memory_saving_{}", model.label()),
                        1.0 - adaptive.memory_instance_s / cap.memory_instance_s,
                    );
                }
            }
        }

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
