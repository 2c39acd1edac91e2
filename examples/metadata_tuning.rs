//! Jukebox design-space tuning on one function: the §5.1 studies.
//!
//! Sweeps the code-region size (Figure 8), the CRRB depth, and the
//! metadata-storage budget (Figure 9) and prints the resulting metadata
//! requirements and speedups.
//!
//! ```text
//! cargo run --release --example metadata_tuning [function] [scale]
//! ```

use luke_common::size::ByteSize;
use luke_obs::export::{bytes, pct, plain, speedup, Column, Dataset};
use lukewarm::prelude::*;
use lukewarm::sim::experiments::fig08::required_metadata_bytes;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "Email-P".to_string());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);

    let profile = FunctionProfile::named(&name)
        .expect("suite function")
        .scaled(scale);
    let config = SystemConfig::skylake();
    let params = ExperimentParams {
        scale,
        invocations: 4,
        warmup: 2,
    };

    // --- Region-size sweep (Figure 8) ---
    println!("== metadata required vs code-region size (16-entry CRRB) ==");
    let mut t = Dataset::with_columns(
        "metadata_tuning.region_size",
        vec![
            Column::new("region", plain),
            Column::new("metadata", bytes),
            Column::new("entry bits", plain),
        ],
    );
    for region in [128usize, 256, 512, 1024, 2048, 4096, 8192] {
        let jb = config.jukebox.with_region_bytes(region);
        t.push_row(vec![
            format!("{region}B").into(),
            required_metadata_bytes(&config, &profile, jb).into(),
            u64::from(jb.entry_bits()).into(),
        ]);
    }
    println!("{}", t.to_text());

    // --- CRRB-depth sweep (§5.1: modest sensitivity) ---
    println!("== metadata required vs CRRB depth (1KB regions) ==");
    let mut t = Dataset::with_columns(
        "metadata_tuning.crrb_depth",
        vec![
            Column::new("CRRB entries", plain),
            Column::new("metadata", bytes),
        ],
    );
    for entries in [8usize, 16, 32] {
        let jb = config.jukebox.with_crrb_entries(entries);
        t.push_row(vec![
            (entries as u64).into(),
            required_metadata_bytes(&config, &profile, jb).into(),
        ]);
    }
    println!("{}", t.to_text());

    // --- Metadata-budget sweep (Figure 9) ---
    println!("== speedup vs metadata storage budget ==");
    let baseline = run(
        &config,
        &profile,
        PrefetcherKind::None,
        RunSpec::lukewarm(),
        &params,
    );
    let mut t = Dataset::with_columns(
        "metadata_tuning.budget",
        vec![
            Column::new("budget", plain),
            Column::new("speedup", speedup::<1>),
            Column::new("coverage", pct::<0>),
        ],
    );
    for kb in [8u64, 12, 16, 32] {
        let jb = config.jukebox.with_metadata_capacity(ByteSize::kib(kb));
        let s = run(
            &config,
            &profile,
            PrefetcherKind::Jukebox(jb),
            RunSpec::lukewarm(),
            &params,
        );
        t.push_row(vec![
            format!("{kb}KB").into(),
            s.speedup_over(&baseline).into(),
            (s.mem.l2.prefetch_first_hits as f64 / baseline.mem.l2.instr.misses.max(1) as f64)
                .into(),
        ]);
    }
    println!("{}", t.to_text());
    println!(
        "The paper picks 1KB regions + a 16-entry CRRB + 16KB of storage: \
         the metadata minimum sits near 1KB regions, CRRB depth barely \
         matters, and budgets beyond 16KB buy little on average (§5.1)."
    );
}
