//! Compare every instruction-delivery configuration on a few functions:
//! next-line, PIF, PIF-ideal, Jukebox, Jukebox+PIF-ideal and the perfect
//! I-cache oracle — the §5.5 / Figure 13 story.
//!
//! ```text
//! cargo run --release --example prefetcher_comparison [scale]
//! ```

use luke_obs::export::{plain, speedup, Column, Dataset};
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

    let kinds = [
        PrefetcherKind::NextLine,
        PrefetcherKind::Pif,
        PrefetcherKind::PifIdeal,
        PrefetcherKind::Jukebox(config.jukebox),
        PrefetcherKind::JukeboxPlusPifIdeal(config.jukebox),
        PrefetcherKind::PerfectICache,
    ];

    let mut columns = vec![Column::new("function", plain)];
    columns.extend(kinds.iter().map(|k| Column::new(k.label(), speedup::<1>)));
    let mut table = Dataset::with_columns("prefetchers.speedup", columns);

    for name in ["Email-P", "Pay-N", "ProdL-G"] {
        let profile = FunctionProfile::named(name).expect("suite").scaled(scale);
        let baseline = run(
            &config,
            &profile,
            PrefetcherKind::None,
            RunSpec::lukewarm(),
            &params,
        );
        let mut row = vec![name.into()];
        for kind in kinds {
            let s = run(&config, &profile, kind, RunSpec::lukewarm(), &params);
            row.push(s.speedup_over(&baseline).into());
        }
        table.push_row(row);
    }

    println!("Speedup over the lukewarm (interleaved) baseline:\n");
    println!("{}", table.to_text());
    println!(
        "Jukebox's bulk replay beats stream-following (PIF) because it never \
         stops to re-index: it prefetches the whole recorded working set \
         without synchronizing with the core (§5.5)."
    );
}
