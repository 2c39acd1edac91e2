//! **Figures 2, 3 and 4** — Top-Down CPI analysis of reference vs
//! interleaved execution for all 20 functions.
//!
//! Figure 2 stacks each function's CPI into retiring / front-end / bad
//! speculation / back-end for both configurations (reference = repeated
//! back-to-back invocations; interleaved = all microarchitectural state
//! flushed between invocations). Figure 3 isolates the front-end portion
//! and splits it into fetch latency vs fetch bandwidth. Figure 4
//! aggregates the means. Paper headlines: interleaving raises CPI by
//! 31–114% (70% average); fetch latency is ≈56% of the *extra* stall
//! cycles.

use crate::config::SystemConfig;
use crate::engine::{Cell, Engine, Spec};
use crate::runner::{ExperimentParams, PrefetcherKind, RunSpec};
use luke_common::stats::mean;
use luke_common::SimError;
use luke_obs::export::{fixed, pct, plain, Column, Dataset, Export};
use sim_cpu::TopDown;
use std::fmt;
use workloads::paper_suite;

/// Per-function Top-Down results for both configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: String,
    /// Per-instruction CPI stack, reference execution.
    pub reference: TopDown,
    /// Per-instruction CPI stack, interleaved execution.
    pub interleaved: TopDown,
}

impl Row {
    /// Interleaved CPI increase over reference (the 31–114% band).
    pub fn cpi_increase(&self) -> f64 {
        self.interleaved.total() / self.reference.total() - 1.0
    }

    /// Fraction of the *extra* cycles (interleaved − reference) that are
    /// fetch-latency stalls (Figure 4's 56% headline).
    pub fn fetch_latency_share_of_extra(&self) -> f64 {
        let extra = self.interleaved.total() - self.reference.total();
        if extra <= 0.0 {
            return 0.0;
        }
        (self.interleaved.fetch_latency - self.reference.fetch_latency).max(0.0) / extra
    }
}

/// The complete Figures 2–4 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// One row per function.
    pub rows: Vec<Row>,
}

/// Cell grid: (reference, interleaved) × suite, no prefetcher.
pub fn plan(params: &ExperimentParams) -> Vec<Cell> {
    let config = SystemConfig::skylake();
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

/// Runs reference + interleaved Top-Down through a shared engine.
pub fn run(engine: &Engine, params: &ExperimentParams) -> Result<Data, SimError> {
    let config = SystemConfig::skylake();
    let rows = paper_suite()
        .into_iter()
        .map(|p| {
            let profile = p.scaled(params.scale);
            let reference = engine.run(
                &config,
                &profile,
                PrefetcherKind::None,
                RunSpec::reference(),
                params,
            );
            let interleaved = engine.run(
                &config,
                &profile,
                PrefetcherKind::None,
                RunSpec::lukewarm(),
                params,
            );
            Row {
                function: profile.name.clone(),
                reference: reference.cpi_stack(),
                interleaved: interleaved.cpi_stack(),
            }
        })
        .collect();
    Ok(Data { rows })
}

/// Registry entry: see [`crate::engine::registry`].
pub const EXPERIMENT: Spec<Data> = Spec {
    name: "fig02",
    aliases: &["fig03", "fig04"],
    description: "Top-Down CPI stacks, reference vs interleaved execution (Figures 2-4)",
    module: module_path!(),
    plan,
    run,
};

impl Data {
    /// Mean CPI increase across the suite (the 70% headline).
    pub fn mean_cpi_increase(&self) -> f64 {
        mean(&self.rows.iter().map(Row::cpi_increase).collect::<Vec<_>>())
    }

    /// Mean fetch-latency share of extra stalls (the 56% headline).
    pub fn mean_fetch_latency_share(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(Row::fetch_latency_share_of_extra)
                .collect::<Vec<_>>(),
        )
    }

    /// Renders Figure 2 (full Top-Down stacks).
    pub fn render_fig2(&self) -> String {
        format!(
            "Figure 2: Top-Down CPI stacks (mean CPI increase {:.0}%)\n{}",
            self.mean_cpi_increase() * 100.0,
            self.datasets()[0].to_text()
        )
    }

    /// Renders Figure 3 (front-end stalls: latency vs bandwidth,
    /// normalized to the reference front-end CPI).
    pub fn render_fig3(&self) -> String {
        format!(
            "Figure 3: front-end stall breakdown\n{}",
            self.datasets()[1].to_text()
        )
    }

    /// Renders Figure 4 (mean interleaved CPI normalized to reference,
    /// split into fetch latency / fetch bandwidth / rest).
    pub fn render_fig4(&self) -> String {
        let ref_cpi = mean(
            &self
                .rows
                .iter()
                .map(|r| r.reference.total())
                .collect::<Vec<_>>(),
        );
        let int_cpi = mean(
            &self
                .rows
                .iter()
                .map(|r| r.interleaved.total())
                .collect::<Vec<_>>(),
        );
        let int_lat = mean(
            &self
                .rows
                .iter()
                .map(|r| r.interleaved.fetch_latency)
                .collect::<Vec<_>>(),
        );
        let int_bw = mean(
            &self
                .rows
                .iter()
                .map(|r| r.interleaved.fetch_bandwidth)
                .collect::<Vec<_>>(),
        );
        format!(
            "Figure 4: mean interleaved CPI = {:.0}% of reference \
             (fetch latency {:.0}%, fetch bandwidth {:.0}%, rest {:.0}%); \
             fetch latency is {:.0}% of extra stalls\n",
            int_cpi / ref_cpi * 100.0,
            int_lat / ref_cpi * 100.0,
            int_bw / ref_cpi * 100.0,
            (int_cpi - int_lat - int_bw) / ref_cpi * 100.0,
            self.mean_fetch_latency_share() * 100.0,
        )
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n{}\n{}",
            self.render_fig2(),
            self.render_fig3(),
            self.render_fig4()
        )
    }
}

impl Export for Data {
    fn datasets(&self) -> Vec<Dataset> {
        let mut fig2 = Dataset::with_columns(
            "fig02.topdown",
            vec![
                Column::new("function", plain),
                Column::new("config", plain),
                Column::new("CPI", fixed::<2>),
                Column::new("retiring", fixed::<2>),
                Column::new("frontend", fixed::<2>),
                Column::new("bad_spec", fixed::<2>),
                Column::new("backend", fixed::<2>),
            ],
        );
        let mut fig3 = Dataset::with_columns(
            "fig03.frontend",
            vec![
                Column::new("function", plain),
                Column::new("ref_fetch_lat", fixed::<3>),
                Column::new("ref_fetch_bw", fixed::<3>),
                Column::new("int_fetch_lat", fixed::<3>),
                Column::new("int_fetch_bw", fixed::<3>),
                Column::new("norm_total", pct::<0>),
            ],
        );
        for row in &self.rows {
            for (label, td) in [("ref", &row.reference), ("interleaved", &row.interleaved)] {
                fig2.push_row(vec![
                    row.function.clone().into(),
                    label.into(),
                    td.total().into(),
                    td.retiring.into(),
                    td.frontend().into(),
                    td.bad_speculation.into(),
                    td.backend.into(),
                ]);
            }
            let base = row.reference.frontend().max(f64::MIN_POSITIVE);
            fig3.push_row(vec![
                row.function.clone().into(),
                row.reference.fetch_latency.into(),
                row.reference.fetch_bandwidth.into(),
                row.interleaved.fetch_latency.into(),
                row.interleaved.fetch_bandwidth.into(),
                (row.interleaved.frontend() / base).into(),
            ]);
        }
        let mut fig4 = Dataset::new(
            "fig04.means",
            &["mean_cpi_increase", "mean_fetch_latency_share"],
        );
        fig4.push_row(vec![
            self.mean_cpi_increase().into(),
            self.mean_fetch_latency_share().into(),
        ]);
        vec![fig2, fig3, fig4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentParams;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            scale: 0.03,
            invocations: 2,
            warmup: 2,
        }
    }

    /// A cut-down run over a few functions for shape checks (the full
    /// 20-function suite runs in the bench harness).
    fn subset_data() -> Data {
        let params = tiny_params();
        let config = SystemConfig::skylake();
        let engine = Engine::single();
        let rows = ["Fib-G", "Auth-P", "Pay-N"]
            .iter()
            .map(|name| {
                let profile = workloads::FunctionProfile::named(name)
                    .unwrap()
                    .scaled(params.scale);
                let reference = engine.run(
                    &config,
                    &profile,
                    PrefetcherKind::None,
                    RunSpec::reference(),
                    &params,
                );
                let interleaved = engine.run(
                    &config,
                    &profile,
                    PrefetcherKind::None,
                    RunSpec::lukewarm(),
                    &params,
                );
                Row {
                    function: name.to_string(),
                    reference: reference.cpi_stack(),
                    interleaved: interleaved.cpi_stack(),
                }
            })
            .collect();
        Data { rows }
    }

    #[test]
    fn interleaving_increases_cpi_substantially() {
        let data = subset_data();
        for row in &data.rows {
            assert!(
                row.cpi_increase() > 0.15,
                "{}: increase only {:.0}%",
                row.function,
                row.cpi_increase() * 100.0
            );
        }
        assert!(data.mean_cpi_increase() > 0.2);
    }

    #[test]
    fn fetch_latency_dominates_extra_stalls() {
        let data = subset_data();
        let share = data.mean_fetch_latency_share();
        assert!(
            share > 0.35,
            "fetch latency should dominate extra stalls, got {share}"
        );
    }

    #[test]
    fn renders_are_nonempty_and_labelled() {
        let data = subset_data();
        assert!(data.render_fig2().contains("Figure 2"));
        assert!(data.render_fig3().contains("Figure 3"));
        assert!(data.render_fig4().contains("Figure 4"));
        assert!(data.to_string().contains("Fib-G"));
    }
}
