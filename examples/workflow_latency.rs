//! End-to-end workflow latency: the Hotel Reservation and Online Boutique
//! request chains traversing five functions each, measured warm, lukewarm
//! and lukewarm+Jukebox — the SLO framing of the paper's introduction.
//!
//! ```text
//! cargo run --release --example workflow_latency [scale]
//! ```

use lukewarm::sim::experiments::workflow_slo;
use lukewarm::sim::{Engine, ExperimentParams};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let params = ExperimentParams {
        scale,
        invocations: 4,
        warmup: 2,
    };
    let data = workflow_slo::run(&Engine::single(), &params).expect("paper workflows run");
    print!("{data}");
    println!(
        "Interactive services budget a few tens of milliseconds end-to-end [20]; \
         with five lukewarm stages on the critical path, the per-function \
         penalty multiplies — and so does Jukebox's recovery."
    );
}
