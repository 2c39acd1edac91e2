//! `figures`: every registered experiment through one shared engine at a
//! small fixed scale — `lukewarm figure --all`.

use std::collections::HashSet;
use std::time::Instant;

use luke_common::rng::DetRng;
use luke_obs::export::to_json;
use lukewarm_sim::engine::{registry, Cell, Experiment};
use lukewarm_sim::{Engine, ExperimentParams};

use crate::check::Checks;
use crate::cycle::{layer_metrics, run_instrumented};
use crate::measure::{measure, quantile, ratio, secs, Acc, Spans, Timings};
use crate::{Metrics, Opts};

/// The experiments in this run's order. Seed 0 keeps the registry's
/// paper order; any other seed shuffles it. Each experiment's output must
/// not depend on which ones ran before it through the shared cache, so
/// the goldens hold on every seed.
fn order(seed: u64) -> Vec<&'static dyn Experiment> {
    let mut list: Vec<&'static dyn Experiment> = registry().to_vec();
    if seed != 0 {
        let mut rng = DetRng::new(seed);
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    list
}

fn params(opts: &Opts) -> ExperimentParams {
    ExperimentParams {
        scale: if opts.tiny { 0.005 } else { 0.02 },
        invocations: 1,
        warmup: 2,
    }
}

/// One `figure --all` on an engine with `threads` workers, timing each
/// experiment: each experiment's JSON export, by name, in run order.
fn batch(
    experiments: &[&'static dyn Experiment],
    params: &ExperimentParams,
    threads: usize,
    checks: &mut Checks,
    timings: &mut Timings,
) -> Vec<(&'static str, String)> {
    let engine = Engine::new(threads);
    experiments
        .iter()
        .map(|e| {
            let json = match timings.time(e.name(), || engine.execute(*e, params)) {
                Ok(data) => to_json(&data.datasets()),
                Err(err) => {
                    checks.op(false, || format!("{}: {err}", e.name()));
                    String::new()
                }
            };
            (e.name(), json)
        })
        .collect()
}

fn check(outputs: &[(&'static str, String)], checks: &mut Checks) {
    for (name, json) in outputs {
        if !json.is_empty() {
            checks.output(name, json, true, String::new);
        }
    }
}

/// The `figures` workload.
pub fn run(opts: &Opts, checks: &mut Checks, spans: &mut Spans) -> Metrics {
    let params = params(opts);
    // Set-up: resolve the run order and plan every experiment once,
    // which also sizes the batch (distinct cells).
    let setup = || {
        let experiments = order(opts.seed);
        let keys: HashSet<String> = experiments
            .iter()
            .flat_map(|e| e.plan(&params))
            .map(|c| c.key())
            .collect();
        std::hint::black_box(keys.len());
        experiments
    };

    // Thread-invariance pre-pass (untimed): one engine thread against the
    // timed batches' `threads`.
    let single = batch(
        &order(opts.seed),
        &params,
        1,
        checks,
        &mut Timings::default(),
    );
    let mut metrics = Metrics::new();
    let mut first = true;
    let mut compare_first = |outputs: &[(&'static str, String)], checks: &mut Checks| {
        if std::mem::take(&mut first) {
            for ((name, a), (_, b)) in single.iter().zip(outputs) {
                checks.op(a == b, || {
                    format!(
                        "{name}: export at 1 engine thread differs from {}",
                        opts.threads
                    )
                });
            }
        }
    };

    if !opts.trace {
        let mut timings = Timings::default();
        let (experiments, setup_s) = measure(opts.seconds, setup, |experiments| {
            let outputs = batch(experiments, &params, opts.threads, checks, &mut timings);
            check(&outputs, checks);
            compare_first(&outputs, checks);
        });
        let cost = timings.batch_cal();
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("batch_cal".into(), cost);
        metrics.insert("work_per_cal".into(), experiments.len() as f64 / cost);
        eprintln!("lukebench: figures: figures_cal {cost:.4}");
        return metrics;
    }

    let clock_s = crate::measure::clock_overhead_ns() / 1e9;
    let mut acc = Acc::default();
    let (mut plain, mut traced) = (Timings::default(), Timings::default());
    let mut cell_ms = Vec::new();
    let (mut cells_simulated, mut cache_hits) = (0, 0);
    let (experiments, _) = measure(opts.seconds, setup, |experiments| {
        let outputs = batch(experiments, &params, opts.threads, checks, &mut plain);
        check(&outputs, checks);
        compare_first(&outputs, checks);

        // Traced: plan, simulate each new cell through the instrumented
        // runner, then let the engine prefetch and fold as `execute`
        // does, timing each step.
        let counts = traced.time("batch", || {
            let root = spans.open("figures batch", 0);
            let engine = Engine::new(opts.threads);
            let mut seen: HashSet<String> = HashSet::new();
            let mut timed: Vec<(Cell, lukewarm_sim::runner::RunSummary)> = Vec::new();
            for e in experiments {
                let span = spans.open(format!("experiment {}", e.name()), root);
                let cells = e.plan(&params);
                for cell in &cells {
                    if seen.insert(cell.key()) {
                        let c = Instant::now();
                        let summary = run_instrumented(cell, &mut acc, spans, span, clock_s);
                        cell_ms.push(secs(c) * 1e3);
                        timed.push((cell.clone(), summary));
                    }
                }
                let p = Instant::now();
                engine.prefetch(&cells);
                let prefetch_s = secs(p);
                spans.record("engine.prefetch", span, p, prefetch_s);
                let f = Instant::now();
                let data = e.run(&engine, &params);
                let fold_s = secs(f);
                spans.record("engine.fold", span, f, fold_s);
                checks.op(data.is_ok(), || format!("{}: traced fold failed", e.name()));
                acc.add("engine.prefetch", prefetch_s, 1.0);
                acc.add("engine.fold", fold_s, 1.0);
                acc.add(
                    &format!("experiment.{}", e.name()),
                    prefetch_s + fold_s,
                    1.0,
                );
                spans.close(span);
            }
            // Every instrumented cell must equal the engine's own summary.
            for (cell, summary) in &timed {
                let engine_params = ExperimentParams {
                    scale: 1.0,
                    invocations: cell.invocations,
                    warmup: cell.warmup,
                };
                let cached = engine.run(
                    &cell.config,
                    &cell.profile,
                    cell.prefetcher,
                    cell.spec,
                    &engine_params,
                );
                checks.op(cached == *summary, || {
                    format!(
                        "cell {}: instrumented run differs from the engine's",
                        cell.key()
                    )
                });
            }
            spans.close(root);
            (engine.cells_simulated(), engine.cache_hits())
        });
        (cells_simulated, cache_hits) = counts;
    });

    let batches = acc.count("engine.fold") / experiments.len() as f64;
    layer_metrics(&acc, &mut metrics);
    metrics.insert("engine.cells_simulated".into(), cells_simulated as f64);
    metrics.insert("engine.cache_hits".into(), cache_hits as f64);
    metrics.insert(
        "engine.hit_ratio".into(),
        ratio(cache_hits as f64, (cache_hits + cells_simulated) as f64),
    );
    metrics.insert("engine.cell_ms_p50".into(), quantile(&cell_ms, 0.5));
    metrics.insert("engine.cell_ms_p95".into(), quantile(&cell_ms, 0.95));
    metrics.insert(
        "engine.prefetch_s".into(),
        acc.seconds("engine.prefetch") / batches,
    );
    metrics.insert("engine.fold_s".into(), acc.seconds("engine.fold") / batches);
    for e in &experiments {
        let key = format!("experiment.{}", e.name());
        metrics.insert(format!("{key}_s"), acc.seconds(&key) / batches);
    }
    metrics.insert(
        "trace_overhead_frac".into(),
        traced.batch_cal() / plain.batch_cal() - 1.0,
    );
    metrics
}
