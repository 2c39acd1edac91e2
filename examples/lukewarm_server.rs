//! A serverless host in miniature: a keep-alive pool of warm instances
//! receiving Poisson invocation traffic, with per-instance cache-state
//! decay driven by how much foreign work interleaved since the instance
//! last ran.
//!
//! Demonstrates the §2.2 phenomenon end-to-end: instances invoked rarely
//! (long IAT) run lukewarm and slow; Jukebox restores most of the lost
//! performance. An instance idle past the keep-alive window is retired,
//! and its function's next invocation cold-starts a fresh instance.
//! Prints per-function cold starts and mean CPI with and without
//! Jukebox.
//!
//! ```text
//! cargo run --release --example lukewarm_server [scale]
//! ```

use lukewarm::prelude::*;
use lukewarm::server::{IatDistribution, InstancePool, InterleaveModel, TrafficGenerator};
use lukewarm_sim::runner::PrefetcherKind;

/// Functions deployed on the simulated host, one per profile entry
/// below; each has at most one warm instance.
const INSTANCES: usize = 6;
/// Invocations to simulate across the host.
const EVENTS: usize = 400;
/// Keep-alive window. Providers keep idle instances for 5–60 minutes
/// (§2.1); this run spans seconds, so the window is scaled down with it
/// so that the rarely invoked functions' gaps outlast it.
const KEEP_ALIVE_MS: f64 = 2_000.0;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);

    // Six instances of different functions with different invocation
    // rates: from chatty (50ms) to rare (10s).
    let suite = paper_suite();
    let chosen = ["Auth-G", "Fib-P", "Pay-N", "Geo-G", "AES-N", "Email-P"];
    let mean_iats = [50.0, 200.0, 500.0, 1000.0, 2000.0, 4000.0];
    let profiles: Vec<_> = chosen
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|p| &p.name == name)
                .expect("suite function")
                .scaled(scale)
        })
        .collect();

    let config = SystemConfig::skylake();
    let model = InterleaveModel::high_occupancy();
    let distributions: Vec<IatDistribution> = mean_iats
        .iter()
        .map(|&ms| IatDistribution::Exponential { mean_ms: ms })
        .collect();

    for use_jukebox in [false, true] {
        println!(
            "\n=== host run: Jukebox {} ===",
            if use_jukebox { "ENABLED" } else { "disabled" }
        );
        let mut traffic = TrafficGenerator::new(&distributions, 42);
        let mut pool = InstancePool::new(KEEP_ALIVE_MS);
        let prefetcher = || {
            if use_jukebox {
                PrefetcherKind::Jukebox(config.jukebox).build()
            } else {
                PrefetcherKind::None.build()
            }
        };

        // One simulated system + prefetcher per function's instance.
        let mut sims: Vec<SystemSim> = profiles.iter().map(|p| SystemSim::new(config, p)).collect();
        let mut prefetchers: Vec<Box<dyn lukewarm::mem::InstructionPrefetcher>> =
            profiles.iter().map(|_| prefetcher()).collect();

        let mut cycles = [0u64; INSTANCES];
        let mut instrs = [0u64; INSTANCES];
        let mut counts = [0u64; INSTANCES];
        let mut colds = [0u64; INSTANCES];

        for event in traffic.take_events(EVENTS) {
            let (idx, at) = (event.instance, event.at_ms);
            // Retire the instance once its idle gap outlasts the window.
            if let Some(last) = pool.last_invoked_ms(idx) {
                if at - last > KEEP_ALIVE_MS {
                    pool.expire_with_deadline(idx, last + KEEP_ALIVE_MS);
                }
            }
            match pool.invoke(idx, at) {
                Some(gap_ms) => {
                    // Decay this instance's cache state according to how
                    // much foreign work ran during the gap.
                    let l2 = model.decay_fraction(config.mem.l2.lines(), gap_ms);
                    let llc = model.llc_decay_fraction(config.mem.llc.lines(), gap_ms);
                    sims[idx].decay(l2, llc, l2 > 0.5);
                }
                None => {
                    // Cold start: a fresh instance has nothing cached and
                    // no recorded history for Jukebox to replay.
                    pool.spawn(idx, at);
                    sims[idx].flush_microarch();
                    prefetchers[idx] = prefetcher();
                    colds[idx] += 1;
                }
            }
            let m = sims[idx].run_invocation(prefetchers[idx].as_mut());
            cycles[idx] += m.result.cycles;
            instrs[idx] += m.result.instructions;
            counts[idx] += 1;
        }

        println!("function      mean IAT   invocations   cold   mean CPI");
        println!("-------------------------------------------------------");
        for i in 0..INSTANCES {
            let cpi = if instrs[i] == 0 {
                0.0
            } else {
                cycles[i] as f64 / instrs[i] as f64
            };
            println!(
                "{:<12} {:>7.0}ms   {:>11}   {:>4}   {:>8.2}",
                profiles[i].name, mean_iats[i], counts[i], colds[i], cpi
            );
        }
        println!(
            "warm instances: {}, cold starts: {}, keep-alive expirations: {}",
            pool.warm_count(),
            pool.cold_starts(),
            pool.expirations()
        );
    }

    println!(
        "\nWarm instances invoked hundreds of milliseconds apart run lukewarm: \
         high CPI without Jukebox, much of it recovered with it. Gaps past the \
         keep-alive window become cold starts, where Jukebox has no history to replay."
    );
}
