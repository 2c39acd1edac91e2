//! The §2.3 characterization in miniature: Top-Down CPI stacks of
//! reference vs interleaved execution, showing where lukewarm cycles go.
//!
//! ```text
//! cargo run --release --example topdown_characterization [scale]
//! ```

use luke_obs::export::{fixed, plain, Column, Dataset};
use lukewarm::prelude::*;

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
    let config = SystemConfig::skylake();

    let mut table = Dataset::with_columns(
        "topdown.cpi_stacks",
        vec![
            Column::new("function", plain),
            Column::new("config", plain),
            Column::new("CPI", fixed::<2>),
            Column::new("retiring", fixed::<2>),
            Column::new("fetch-lat", fixed::<2>),
            Column::new("fetch-bw", fixed::<2>),
            Column::new("bad-spec", fixed::<2>),
            Column::new("backend", fixed::<2>),
        ],
    );
    let mut increases = Vec::new();
    let mut flat_shares = Vec::new();

    for name in ["Fib-P", "Auth-N", "Pay-N", "Auth-G", "ProdL-G"] {
        let profile = FunctionProfile::named(name).expect("suite").scaled(scale);
        let reference = run(
            &config,
            &profile,
            PrefetcherKind::None,
            RunSpec::reference(),
            &params,
        );
        let interleaved = run(
            &config,
            &profile,
            PrefetcherKind::None,
            RunSpec::lukewarm(),
            &params,
        );
        for (label, s) in [("ref", &reference), ("lukewarm", &interleaved)] {
            let td = s.cpi_stack();
            table.push_row(vec![
                name.into(),
                label.into(),
                td.total().into(),
                td.retiring.into(),
                td.fetch_latency.into(),
                td.fetch_bandwidth.into(),
                td.bad_speculation.into(),
                td.backend.into(),
            ]);
        }
        let (r, i) = (reference.cpi_stack(), interleaved.cpi_stack());
        increases.push(i.total() / r.total() - 1.0);
        let extra = i.total() - r.total();
        if extra > 0.0 {
            flat_shares.push((i.fetch_latency - r.fetch_latency).max(0.0) / extra);
        }
    }

    println!("Top-Down CPI stacks (cycles per instruction):\n");
    println!("{}", table.to_text());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Interleaving raises CPI by {:.0}% on average; {:.0}% of the extra \
         cycles are instruction fetch latency — the bottleneck Jukebox targets \
         (paper: +70% average, 56% fetch latency).",
        mean(&increases) * 100.0,
        mean(&flat_shares) * 100.0
    );
}
