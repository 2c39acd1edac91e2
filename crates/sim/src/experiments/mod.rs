//! Experiment runners — one module per figure/table of the paper, plus
//! the studies beyond it.
//!
//! Each module has one public entry point,
//! `run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError>`,
//! returning typed rows that report the same series the paper does. Its
//! `Export::datasets` builds each result table once, as a
//! `luke_obs::Dataset`; its `Display` prints those tables as text between
//! a title and prose lines, and the CLI renders the same datasets as JSON
//! or CSV. Each module registers itself as data: a
//! `pub const EXPERIMENT: Spec<Data>` listed in [`crate::engine::registry`]. `lukewarm figure NAME` runs one
//! through [`Engine::execute`](crate::Engine::execute) (at paper scale with
//! `--scale 1 --invocations 8`); tests call `run(&Engine::single(), …)` at
//! `ExperimentParams::quick()` scale and assert the qualitative shape.

pub mod ablations;
pub mod cold_spectrum;
pub mod fig01_cpi_vs_iat;
pub mod fig02_topdown;
pub mod fig05_mpki;
pub mod fig06_footprints;
pub mod fig08_metadata_size;
pub mod fig09_metadata_cap;
pub mod fig10_speedup;
pub mod fig11_coverage;
pub mod fig12_bandwidth;
pub mod fig13_pif;
pub mod fleet_scale;
pub mod host_interleaving;
pub mod keep_alive;
pub mod prewarm_frontier;
pub mod related_work;
pub mod resilience;
pub mod surge;
pub mod table3_broadwell;
pub mod tenancy;
pub mod workflow_slo;

pub use fig01_cpi_vs_iat as fig01;
pub use fig02_topdown as fig02;
pub use fig05_mpki as fig05;
pub use fig06_footprints as fig06;
pub use fig08_metadata_size as fig08;
pub use fig09_metadata_cap as fig09;
pub use fig10_speedup as fig10;
pub use fig11_coverage as fig11;
pub use fig12_bandwidth as fig12;
pub use fig13_pif as fig13;
pub use table3_broadwell as table3;
