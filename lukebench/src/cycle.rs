//! `cycle-paper`: paper-scale functions through the cycle model, plus the
//! instrumented runner that the traced runs of `cycle-paper` and
//! `figures` use to time each layer of a cell.

use std::time::Instant;

use luke_common::rng::DetRng;
use luke_common::stats::geomean;
use lukewarm_sim::engine::Cell;
use lukewarm_sim::runner::{self, CacheState, RunSpec, RunSummary};
use lukewarm_sim::system::InvocationMetrics;
use lukewarm_sim::{ExperimentParams, PrefetcherKind, SystemConfig, SystemSim};
use sim_mem::hierarchy::HierarchySnapshot;
use sim_mem::prefetch::{FetchObservation, InstructionPrefetcher, PrefetchIssuer};
use sim_mem::stats::{CacheStats, ClassCounts, TrafficBytes};
use workloads::{FunctionProfile, SyntheticFunction};

use crate::check::Checks;
use crate::measure::{measure, ratio, secs, Acc, Spans, Timings};
use crate::{Metrics, Opts};

/// One function per language at each end of the 300–800 KB footprint
/// range, so both the smallest and the largest working sets meet the
/// modelled 1 MB L2.
const FUNCTIONS: [&str; 6] = ["Fib-G", "Auth-G", "Auth-P", "Email-P", "AES-N", "Pay-N"];

/// The paper's Fig. 2 band for the lukewarm / reference CPI ratio.
const FIG2_BAND: (f64, f64) = (1.31, 2.14);

/// Time cells between `Instant` reads on the per-fetch hook: one fetch in
/// this many is timed, the rest only counted.
const FETCH_SAMPLE: u64 = 16;

/// The three cell configurations of `cycle-paper`: back-to-back
/// reference execution, the lukewarm (flush-between) baseline, and
/// lukewarm with Jukebox.
fn configs(sys: &SystemConfig) -> [(&'static str, PrefetcherKind, RunSpec); 3] {
    [
        ("reference", PrefetcherKind::None, RunSpec::reference()),
        ("lukewarm", PrefetcherKind::None, RunSpec::lukewarm()),
        (
            "jukebox",
            PrefetcherKind::Jukebox(sys.jukebox),
            RunSpec::lukewarm(),
        ),
    ]
}

/// Which `cycle-paper` configuration a cell has, if any: the key its
/// core/memory time is filed under.
fn cell_label(cell: &Cell) -> &'static str {
    match (cell.prefetcher, cell.spec.state) {
        (PrefetcherKind::None, CacheState::Reference) => "reference",
        (PrefetcherKind::None, CacheState::Lukewarm) => "lukewarm",
        (PrefetcherKind::Jukebox(_), CacheState::Lukewarm) => "jukebox",
        _ => "other",
    }
}

/// Adds `b` into `a`, counter by counter (what `runner::run` does per
/// measured invocation).
fn sum_into(a: &mut RunSummary, b: &RunSummary) {
    fn class(a: ClassCounts, b: ClassCounts) -> ClassCounts {
        ClassCounts {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
        }
    }
    fn cache(a: CacheStats, b: CacheStats) -> CacheStats {
        CacheStats {
            instr: class(a.instr, b.instr),
            data: class(a.data, b.data),
            prefetch_first_hits: a.prefetch_first_hits + b.prefetch_first_hits,
            prefetch_late_hits: a.prefetch_late_hits + b.prefetch_late_hits,
            prefetch_fills: a.prefetch_fills + b.prefetch_fills,
            instr_fills: a.instr_fills + b.instr_fills,
            data_fills: a.data_fills + b.data_fills,
            prefetch_evicted_unused: a.prefetch_evicted_unused + b.prefetch_evicted_unused,
        }
    }
    let (m, n) = (a.mem, b.mem);
    a.invocations += b.invocations;
    a.cycles += b.cycles;
    a.instructions += b.instructions;
    a.topdown += b.topdown;
    a.mispredicts += b.mispredicts;
    a.prefetch.issued += b.prefetch.issued;
    a.prefetch.redundant += b.prefetch.redundant;
    a.prefetch.metadata_written += b.prefetch.metadata_written;
    a.prefetch.metadata_read += b.prefetch.metadata_read;
    a.mem = HierarchySnapshot {
        l1i: cache(m.l1i, n.l1i),
        l1d: cache(m.l1d, n.l1d),
        l2: cache(m.l2, n.l2),
        llc: cache(m.llc, n.llc),
        traffic: TrafficBytes {
            demand_instr: m.traffic.demand_instr + n.traffic.demand_instr,
            demand_data: m.traffic.demand_data + n.traffic.demand_data,
            prefetch: m.traffic.prefetch + n.traffic.prefetch,
            metadata_record: m.traffic.metadata_record + n.traffic.metadata_record,
            metadata_replay: m.traffic.metadata_replay + n.traffic.metadata_replay,
        },
    };
}

fn invocation_summary(m: &InvocationMetrics) -> RunSummary {
    RunSummary {
        invocations: 1,
        cycles: m.result.cycles,
        instructions: m.result.instructions,
        topdown: m.result.topdown,
        mem: m.mem,
        prefetch: m.result.prefetch,
        mispredicts: m.result.stats.mispredicts,
    }
}

/// A prefetcher wrapper that times the three hooks of the one it wraps.
struct Timed {
    inner: Box<dyn InstructionPrefetcher>,
    start: (f64, f64),
    end: (f64, f64),
    fetch_calls: u64,
    fetch_sampled: f64,
    fetch_s: f64,
}

impl Timed {
    fn new(inner: Box<dyn InstructionPrefetcher>) -> Self {
        Timed {
            inner,
            start: (0.0, 0.0),
            end: (0.0, 0.0),
            fetch_calls: 0,
            fetch_sampled: 0.0,
            fetch_s: 0.0,
        }
    }

    /// Files the hook timings under `prefix` (`jukebox` or
    /// `prefetchers.<label>`).
    fn file(&self, acc: &mut Acc, prefix: &str, clock_s: f64) {
        acc.add(&format!("{prefix}.start"), self.start.0, self.start.1);
        acc.add(&format!("{prefix}.end"), self.end.0, self.end.1);
        let fetch_s = (self.fetch_s - clock_s * self.fetch_sampled).max(0.0);
        acc.add(&format!("{prefix}.fetch"), fetch_s, self.fetch_sampled);
    }
}

impl InstructionPrefetcher for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_invocation_start(&mut self, issuer: &mut PrefetchIssuer<'_>) {
        let t = Instant::now();
        self.inner.on_invocation_start(issuer);
        self.start.0 += secs(t);
        self.start.1 += 1.0;
    }

    fn on_fetch(&mut self, observation: &FetchObservation, issuer: &mut PrefetchIssuer<'_>) {
        self.fetch_calls += 1;
        if self.fetch_calls.is_multiple_of(FETCH_SAMPLE) {
            let t = Instant::now();
            self.inner.on_fetch(observation, issuer);
            self.fetch_s += secs(t);
            self.fetch_sampled += 1.0;
        } else {
            self.inner.on_fetch(observation, issuer);
        }
    }

    fn on_invocation_end(&mut self, issuer: &mut PrefetchIssuer<'_>) {
        let t = Instant::now();
        self.inner.on_invocation_end(issuer);
        self.end.0 += secs(t);
        self.end.1 += 1.0;
    }

    fn fill_registry(&self, registry: &mut luke_obs::Registry) {
        self.inner.fill_registry(registry);
    }
}

/// `runner::run` for one cell, rebuilt from the simulator's public calls
/// with a timer at each layer boundary: function build, `SystemSim::new`,
/// the between-invocation state change, trace generation and the
/// core/memory loop (`run_invocation` minus trace generation), and the
/// prefetcher hooks. Returns the same summary `runner::run` would, which
/// the callers check against the golden digests.
pub fn run_instrumented(
    cell: &Cell,
    acc: &mut Acc,
    spans: &mut Spans,
    parent: u32,
    clock_s: f64,
) -> RunSummary {
    let span = spans.open(format!("cell {}", cell.profile.name), parent);
    let t = Instant::now();
    drop(std::hint::black_box(SyntheticFunction::build(
        &cell.profile,
    )));
    acc.add("workloads.build", secs(t), 1.0);

    let t = Instant::now();
    let mut sim = SystemSim::new(cell.config, &cell.profile);
    acc.add("sim.new", secs(t), 1.0);
    if cell.prefetcher == PrefetcherKind::PerfectICache {
        sim.set_perfect_icache(true);
    }
    let mut pf = Timed::new(
        cell.prefetcher
            .build_bounded(Some(sim.function().layout().address_span())),
    );
    let label = cell_label(cell);
    let mut summary = RunSummary::default();
    for i in 0..cell.warmup + cell.invocations {
        let t = Instant::now();
        match cell.spec.state {
            CacheState::Reference => {}
            CacheState::Lukewarm => {
                sim.flush_microarch();
                acc.add("sim.flush", secs(t), 1.0);
            }
            CacheState::Decayed {
                l2,
                llc,
                flush_core,
            } => sim.decay(l2, llc, flush_core),
            CacheState::Stressed {
                code_lines,
                data_lines,
            } => sim.run_stressor(code_lines, data_lines),
        }
        let t = Instant::now();
        let trace = sim.function().invocation_trace(sim.invocations_run());
        let trace_s = secs(t);
        let trace_len = trace.len() as f64;
        drop(std::hint::black_box(trace));
        let t = Instant::now();
        let m = sim.run_invocation(&mut pf);
        let run_s = secs(t);
        acc.add("workloads.trace", trace_s, trace_len);
        acc.add(
            &format!("cpu_mem.{label}"),
            (run_s - trace_s).max(0.0),
            m.result.instructions as f64,
        );
        if i >= cell.warmup {
            sum_into(&mut summary, &invocation_summary(&m));
        }
    }
    let prefix = match cell.prefetcher {
        PrefetcherKind::Jukebox(_) => "jukebox".to_string(),
        kind => format!("prefetchers.{}", kind.label()),
    };
    pf.file(acc, &prefix, clock_s);
    spans.close(span);
    summary
}

/// Per-layer counts derived from summaries: CPI per configuration,
/// lukewarm miss and traffic rates, and Jukebox's accuracy, coverage and
/// metadata size. Pure functions of the simulated outputs, so they must
/// not move under a speed-only change.
fn count_metrics(by_label: &[(&'static str, RunSummary)], metrics: &mut Metrics) {
    let get = |label: &str| {
        by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    for (label, s) in by_label {
        metrics.insert(format!("cpu.cpi.{label}"), s.cpi());
    }
    let lukewarm = get("lukewarm");
    let jukebox = get("jukebox");
    metrics.insert(
        "cpu.fetch_latency_frac".into(),
        ratio(lukewarm.topdown.fetch_latency, lukewarm.topdown.total()),
    );
    metrics.insert("mem.l2_instr_mpki".into(), lukewarm.l2_instr_mpki());
    metrics.insert("mem.llc_instr_mpki".into(), lukewarm.llc_instr_mpki());
    metrics.insert(
        "mem.dram_bytes_per_instr".into(),
        ratio(lukewarm.dram_bytes() as f64, lukewarm.instructions as f64),
    );
    metrics.insert(
        "jukebox.accuracy".into(),
        ratio(
            jukebox.mem.l2.prefetch_first_hits as f64,
            jukebox.prefetch.issued as f64,
        ),
    );
    metrics.insert(
        "jukebox.coverage".into(),
        1.0 - ratio(
            jukebox.mem.l2.instr.misses as f64,
            lukewarm.mem.l2.instr.misses as f64,
        ),
    );
    metrics.insert(
        "jukebox.metadata_bytes_per_inv".into(),
        ratio(
            jukebox.prefetch.metadata_written as f64,
            jukebox.invocations as f64,
        ),
    );
}

/// Per-layer timings filed in `acc` by [`run_instrumented`].
pub fn layer_metrics(acc: &Acc, metrics: &mut Metrics) {
    metrics.insert("workloads.build_ms".into(), acc.per("workloads.build", 1e3));
    metrics.insert(
        "workloads.trace_ns_per_instr".into(),
        acc.per("workloads.trace", 1e9),
    );
    metrics.insert("sim.new_ms".into(), acc.per("sim.new", 1e3));
    metrics.insert("sim.flush_us".into(), acc.per("sim.flush", 1e6));
    for label in ["reference", "lukewarm", "jukebox"] {
        metrics.insert(
            format!("cpu_mem.ns_per_instr.{label}"),
            acc.per(&format!("cpu_mem.{label}"), 1e9),
        );
    }
    metrics.insert("jukebox.replay_us".into(), acc.per("jukebox.start", 1e6));
    metrics.insert(
        "jukebox.record_ns_per_fetch".into(),
        acc.per("jukebox.fetch", 1e9),
    );
    metrics.insert("jukebox.seal_us".into(), acc.per("jukebox.end", 1e6));
    for label in ["pif", "fetch-directed"] {
        metrics.insert(
            format!("prefetchers.on_fetch_ns.{label}"),
            acc.per(&format!("prefetchers.{label}.fetch"), 1e9),
        );
    }
}

/// What `cycle-paper` sets up once and reuses across batches.
struct Setup {
    sys: SystemConfig,
    params: ExperimentParams,
    profiles: Vec<FunctionProfile>,
    /// Instructions each function retires over its warm-up invocations,
    /// which `RunSummary` (measured invocations only) leaves out.
    warmup_instructions: Vec<u64>,
}

/// The workload's functions at `scale`. Seed 0 keeps the paper suite's
/// own function seeds; any other seed derives fresh ones from it.
fn profiles(seed: u64, scale: f64) -> Vec<FunctionProfile> {
    FUNCTIONS
        .iter()
        .map(|name| {
            let mut p = FunctionProfile::named(name)
                .expect("suite function")
                .scaled(scale);
            if seed != 0 {
                p.seed = DetRng::new(p.seed).split(seed).seed();
            }
            p
        })
        .collect()
}

fn setup(opts: &Opts) -> Setup {
    let scale = if opts.tiny { 0.02 } else { 1.0 };
    let params = ExperimentParams {
        scale,
        invocations: 2,
        warmup: 1,
    };
    let profiles = profiles(opts.seed, scale);
    let warmup_instructions = profiles
        .iter()
        .map(|p| {
            let function = SyntheticFunction::build(p);
            (0..params.warmup)
                .map(|i| function.invocation_trace(i).len() as u64)
                .sum()
        })
        .collect();
    Setup {
        sys: SystemConfig::skylake(),
        params,
        profiles,
        warmup_instructions,
    }
}

/// Checks one batch's cells against the goldens and the paper's claims:
/// the lukewarm/reference CPI geomean inside the Fig. 2 band, and a
/// Jukebox speedup over the lukewarm baseline.
fn check_batch(setup: &Setup, cells: &[(String, RunSummary)], checks: &mut Checks) {
    for (op, s) in cells {
        checks.output(
            op,
            &format!("{s:?}"),
            s.instructions > 0 && s.cpi() > 0.0,
            || format!("{op}: empty summary"),
        );
    }
    let cpi = |f: &str, label: &str| {
        cells
            .iter()
            .find(|(op, _)| *op == format!("{f}/{label}"))
            .map_or(0.0, |(_, s)| s.cpi())
    };
    let names = setup.profiles.iter().map(|p| p.name.as_str());
    let lukewarm_ratio = geomean(
        &names
            .clone()
            .map(|f| ratio(cpi(f, "lukewarm"), cpi(f, "reference")))
            .collect::<Vec<_>>(),
    );
    let speedup = geomean(
        &names
            .map(|f| ratio(cpi(f, "lukewarm"), cpi(f, "jukebox")))
            .collect::<Vec<_>>(),
    );
    // The band is a paper-scale claim; the smoke-test size only has to
    // keep lukewarm slower than reference.
    let band = if setup.params.scale < 1.0 {
        (1.0, f64::INFINITY)
    } else {
        FIG2_BAND
    };
    let in_band = (band.0..=band.1).contains(&lukewarm_ratio);
    checks.op(in_band && speedup > 1.0, || {
        format!(
            "paper claims: lukewarm/reference CPI geomean {lukewarm_ratio:.3} (band \
             {band:?}), Jukebox speedup geomean {speedup:.3} (must exceed 1)"
        )
    });
}

/// Runs all cells once through `runner::run`, the program's own path,
/// timing each; returns the summaries and the instructions simulated
/// (warm-up included).
fn batch(setup: &Setup, timings: &mut Timings) -> (Vec<(String, RunSummary)>, u64) {
    let mut cells = Vec::new();
    let mut instructions = 0;
    for (p, warm) in setup.profiles.iter().zip(&setup.warmup_instructions) {
        for (label, kind, spec) in configs(&setup.sys) {
            let op = format!("{}/{label}", p.name);
            let s = timings.time(&op, || {
                runner::run(&setup.sys, p, kind, spec, &setup.params)
            });
            instructions += s.instructions + warm;
            cells.push((op, s));
        }
    }
    (cells, instructions)
}

/// The same cells through [`run_instrumented`].
fn traced_batch(
    setup: &Setup,
    acc: &mut Acc,
    spans: &mut Spans,
    clock_s: f64,
) -> Vec<(String, RunSummary)> {
    let root = spans.open("cycle-paper batch", 0);
    let mut cells = Vec::new();
    for p in &setup.profiles {
        for (label, kind, spec) in configs(&setup.sys) {
            let cell = Cell::new(&setup.sys, p, kind, spec, &setup.params);
            let s = run_instrumented(&cell, acc, spans, root, clock_s);
            cells.push((format!("{}/{label}", p.name), s));
        }
    }
    spans.close(root);
    cells
}

/// The `cycle-paper` workload.
pub fn run(opts: &Opts, checks: &mut Checks, spans: &mut Spans) -> Metrics {
    let mut metrics = Metrics::new();
    if !opts.trace {
        let mut timings = Timings::default();
        let mut instructions = 0;
        let (_, setup_s) = measure(
            opts.seconds,
            || setup(opts),
            |setup| {
                let (cells, instr) = batch(setup, &mut timings);
                check_batch(setup, &cells, checks);
                instructions = instr;
            },
        );
        let cost = timings.batch_cal();
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("batch_cal".into(), cost);
        metrics.insert("work_per_cal".into(), instructions as f64 / cost);
        eprintln!(
            "lukebench: cycle-paper: sim_minstr_per_cal {:.4}",
            instructions as f64 / cost / 1e6
        );
        return metrics;
    }
    let clock_s = crate::measure::clock_overhead_ns() / 1e9;
    let mut acc = Acc::default();
    let (mut plain, mut traced) = (Timings::default(), Timings::default());
    let mut last = Vec::new();
    let (setup, _) = measure(
        opts.seconds,
        || setup(opts),
        |setup| {
            let (cells, _) = batch(setup, &mut plain);
            check_batch(setup, &cells, checks);
            let timed = traced.time("batch", || traced_batch(setup, &mut acc, spans, clock_s));
            // The instrumented runner must have simulated exactly what
            // `runner::run` did, or its timings describe other work.
            for ((op, a), (_, b)) in cells.iter().zip(&timed) {
                checks.op(a == b, || {
                    format!("{op}: instrumented run differs from runner::run")
                });
            }
            last = timed;
        },
    );
    let mut by_label: Vec<(&'static str, RunSummary)> = Vec::new();
    for (label, _, _) in configs(&setup.sys) {
        let mut sum = RunSummary::default();
        for (op, s) in &last {
            if op.ends_with(&format!("/{label}")) {
                sum_into(&mut sum, s);
            }
        }
        by_label.push((label, sum));
    }
    count_metrics(&by_label, &mut metrics);
    layer_metrics(&acc, &mut metrics);
    metrics.insert(
        "trace_overhead_frac".into(),
        traced.batch_cal() / plain.batch_cal() - 1.0,
    );
    metrics
}
