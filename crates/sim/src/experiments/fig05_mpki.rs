//! **Figure 5** — L2 and L3 MPKI breakdowns (instructions vs data),
//! reference vs interleaved, on the Broadwell-like characterization
//! platform (256KB L2, §4.1).
//!
//! Paper shape: L2 MPKI is high in both configurations (≈54 reference /
//! ≈72 interleaved on average) with instruction misses exceeding data
//! misses; the LLC has essentially **no** instruction misses in reference
//! execution but >10 MPKI (mostly instructions) when interleaved.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::mean;
use luke_common::SimError;
use luke_obs::export::{fixed, plain, Column, Dataset, Export};
use std::fmt;
use workloads::paper_suite;

/// MPKI numbers for one function.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mpki {
    /// L2 instruction MPKI.
    pub l2_instr: f64,
    /// L2 data MPKI.
    pub l2_data: f64,
    /// LLC instruction MPKI.
    pub llc_instr: f64,
    /// LLC data MPKI.
    pub llc_data: f64,
}

/// Per-function MPKI in both configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Reference execution.
    pub reference: Mpki,
    /// Interleaved execution.
    pub interleaved: Mpki,
}

/// The complete Figure 5 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Cell grid: (reference, interleaved) × suite on the Broadwell platform.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::broadwell();
    paper_suite()
        .into_iter()
        .flat_map(|p| {
            let profile = p.scaled(params.scale);
            [RunSpec::reference(), RunSpec::lukewarm()]
                .into_iter()
                .map(move |spec| Cell::new(&config, &profile, PrefetcherKind::None, spec, params))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig05",
    aliases: &[],
    description: "L2/LLC MPKI breakdowns, reference vs interleaved (Broadwell)",
    module: module_path!(),
    plan,
    run,
};

/// Runs the MPKI study through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::broadwell();
    let rows = paper_suite()
        .into_iter()
        .map(|p| {
            let profile = p.scaled(params.scale);
            let collect = |spec: RunSpec| {
                let s = engine.run(&config, &profile, PrefetcherKind::None, spec, params);
                Mpki {
                    l2_instr: s.l2_instr_mpki(),
                    l2_data: s.l2_data_mpki(),
                    llc_instr: s.llc_instr_mpki(),
                    llc_data: s.llc_data_mpki(),
                }
            };
            Row {
                function: profile.name.clone(),
                reference: collect(RunSpec::reference()),
                interleaved: collect(RunSpec::lukewarm()),
            }
        })
        .collect();
    Ok(Data { rows })
}

impl Data {
    /// Suite-mean L2 total MPKI (instr + data) for (reference,
    /// interleaved) — the paper's ≈(54, 72).
    pub fn mean_l2_total(&self) -> (f64, f64) {
        (
            mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.reference.l2_instr + r.reference.l2_data)
                    .collect::<Vec<_>>(),
            ),
            mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.interleaved.l2_instr + r.interleaved.l2_data)
                    .collect::<Vec<_>>(),
            ),
        )
    }

    /// Suite-mean LLC instruction MPKI for (reference, interleaved) — the
    /// paper's (≈0, >10) contrast.
    pub fn mean_llc_instr(&self) -> (f64, f64) {
        (
            mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.reference.llc_instr)
                    .collect::<Vec<_>>(),
            ),
            mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.interleaved.llc_instr)
                    .collect::<Vec<_>>(),
            ),
        )
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: L2 / LLC MPKI breakdowns (Broadwell-like)")?;
        let (l2_ref, l2_int) = self.mean_l2_total();
        let (l3_ref, l3_int) = self.mean_llc_instr();
        writeln!(
            f,
            "{}Mean L2 MPKI: ref {l2_ref:.0}, interleaved {l2_int:.0}; \
             mean LLC instr MPKI: ref {l3_ref:.1}, interleaved {l3_int:.1}",
            self.datasets()[0].to_text()
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut mpki = Dataset::with_columns(
            "fig05.mpki",
            vec![
                Column::new("function", plain),
                Column::new("config", plain),
                Column::new("L2 instr", fixed::<1>),
                Column::new("L2 data", fixed::<1>),
                Column::new("L3 instr", fixed::<1>),
                Column::new("L3 data", fixed::<1>),
            ],
        );
        for row in &self.rows {
            for (label, m) in [("ref", &row.reference), ("interleaved", &row.interleaved)] {
                mpki.push_row(vec![
                    row.function.clone().into(),
                    label.into(),
                    m.l2_instr.into(),
                    m.l2_data.into(),
                    m.llc_instr.into(),
                    m.llc_data.into(),
                ]);
            }
        }
        let (l2_ref, l2_int) = self.mean_l2_total();
        let (l3_ref, l3_int) = self.mean_llc_instr();
        let mut means = Dataset::new(
            "fig05.means",
            &[
                "mean L2 ref",
                "mean L2 interleaved",
                "mean LLC instr ref",
                "mean LLC instr interleaved",
            ],
        );
        means.push_row(vec![
            l2_ref.into(),
            l2_int.into(),
            l3_ref.into(),
            l3_int.into(),
        ]);
        vec![mpki, means]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FunctionProfile;

    fn subset() -> Data {
        // Large enough that code footprints dominate data (as at paper
        // scale); tiny scales hit the 16KB footprint floor where the
        // instruction/data ratio inverts.
        let params = ExperimentParams {
            scale: 0.15,
            invocations: 2,
            warmup: 2,
        };
        let config = SystemConfig::broadwell();
        let engine = Engine::single();
        let rows = ["Auth-G", "Email-P"]
            .iter()
            .map(|name| {
                let profile = FunctionProfile::named(name).unwrap().scaled(params.scale);
                let collect = |spec: RunSpec| {
                    let s = engine.run(&config, &profile, PrefetcherKind::None, spec, &params);
                    Mpki {
                        l2_instr: s.l2_instr_mpki(),
                        l2_data: s.l2_data_mpki(),
                        llc_instr: s.llc_instr_mpki(),
                        llc_data: s.llc_data_mpki(),
                    }
                };
                Row {
                    function: name.to_string(),
                    reference: collect(RunSpec::reference()),
                    interleaved: collect(RunSpec::lukewarm()),
                }
            })
            .collect();
        Data { rows }
    }

    #[test]
    fn llc_instruction_misses_appear_only_when_interleaved() {
        let data = subset();
        for row in &data.rows {
            assert!(
                row.interleaved.llc_instr > row.reference.llc_instr + 1.0,
                "{}: interleaved LLC instr {} vs ref {}",
                row.function,
                row.interleaved.llc_instr,
                row.reference.llc_instr
            );
            // Reference working sets fit in the LLC.
            assert!(
                row.reference.llc_instr < 3.0,
                "{}: reference LLC instr MPKI {}",
                row.function,
                row.reference.llc_instr
            );
        }
    }

    #[test]
    fn interleaved_llc_misses_are_mostly_instructions() {
        let data = subset();
        for row in &data.rows {
            assert!(
                row.interleaved.llc_instr > row.interleaved.llc_data,
                "{}: instr {} vs data {}",
                row.function,
                row.interleaved.llc_instr,
                row.interleaved.llc_data
            );
        }
    }

    #[test]
    fn interleaving_raises_l2_mpki() {
        let data = subset();
        let (l2_ref, l2_int) = data.mean_l2_total();
        assert!(l2_int > l2_ref, "L2 MPKI {l2_ref} -> {l2_int}");
    }

    #[test]
    fn render_mentions_means() {
        let s = subset().to_string();
        assert!(s.contains("Mean L2 MPKI"));
        assert!(s.contains("Figure 5"));
    }
}
