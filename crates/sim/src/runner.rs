//! The measurement protocol and run aggregation.
//!
//! The paper's methodology (§4.2): warm the system functionally (20000
//! invocations into a checkpoint — which also leaves Jukebox metadata
//! recorded), then measure 20 invocations in timing mode, flushing all
//! microarchitectural state between invocations for the interleaved
//! baseline. Here: `warmup` invocations establish steady state (JIT-like
//! variation is already absent by construction; what matters is that the
//! prefetcher's metadata exists and the page table is populated), then
//! `invocations` measured runs are aggregated.

use crate::config::SystemConfig;
use crate::system::{InvocationMetrics, SystemSim};
use jukebox::{JukeboxConfig, JukeboxPrefetcher};
use prefetchers::{Combined, FetchDirected, FootprintRestore, NextLine, Pif};
use sim_cpu::TopDown;
use sim_mem::hierarchy::HierarchySnapshot;
use sim_mem::prefetch::{InstructionPrefetcher, IssueCounters, NoPrefetcher};
use workloads::FunctionProfile;

/// Global experiment parameters: workload scale and repetition counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentParams {
    /// Workload scale factor (1.0 = paper-scale functions).
    pub scale: f64,
    /// Measured invocations per configuration.
    pub invocations: u64,
    /// Warm-up invocations before measurement (establishes prefetcher
    /// metadata; not measured).
    pub warmup: u64,
}

impl ExperimentParams {
    /// Validated constructor; see [`ExperimentParams::validate`].
    ///
    /// # Errors
    ///
    /// As [`ExperimentParams::validate`].
    pub fn try_new(
        scale: f64,
        invocations: u64,
        warmup: u64,
    ) -> Result<Self, luke_common::SimError> {
        let params = ExperimentParams {
            scale,
            invocations,
            warmup,
        };
        params.validate()?;
        Ok(params)
    }

    /// Rejects parameter combinations that would produce NaN-prone
    /// summaries (`invocations == 0` leaves every aggregate empty, so
    /// CPI/MPKI divide zero by zero) or meaningless workloads (non-finite
    /// or non-positive `scale`). The fields are public, so
    /// [`Engine::execute`](crate::Engine::execute) checks again.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`](luke_common::SimError) naming
    /// the offending field; the CLI maps it to exit code 3.
    pub fn validate(&self) -> Result<(), luke_common::SimError> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(luke_common::SimError::invalid_config(
                "params.scale",
                format!("must be a positive finite number, got {}", self.scale),
            ));
        }
        if self.invocations == 0 {
            return Err(luke_common::SimError::invalid_config(
                "params.invocations",
                "must be at least 1 (a warmup-only run measures nothing and \
                 yields NaN-prone summaries)",
            ));
        }
        Ok(())
    }

    /// Paper-scale runs for the benchmark harness.
    pub fn paper() -> Self {
        ExperimentParams {
            scale: 1.0,
            invocations: 8,
            warmup: 2,
        }
    }

    /// Small, fast runs for tests.
    pub fn quick() -> Self {
        ExperimentParams {
            scale: 0.04,
            invocations: 3,
            warmup: 2,
        }
    }
}

/// Which instruction prefetcher (or oracle) a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrefetcherKind {
    /// No prefetching — the interleaved baseline.
    None,
    /// Jukebox with the given configuration.
    Jukebox(JukeboxConfig),
    /// The next-line baseline.
    NextLine,
    /// PIF, paper configuration (non-persistent).
    Pif,
    /// PIF-ideal (unbounded, persistent).
    PifIdeal,
    /// Jukebox combined with PIF-ideal (Figure 13's last bar).
    JukeboxPlusPifIdeal(JukeboxConfig),
    /// Indiscriminate cache restoration (Daly & Cain / RECAP, §6).
    FootprintRestore,
    /// BTB-directed run-ahead (FDIP/Boomerang, §6); cold at dispatch.
    FetchDirected,
    /// Perfect I-cache oracle (not a prefetcher: a hierarchy mode).
    PerfectICache,
}

impl PrefetcherKind {
    /// Instantiates the prefetcher. For [`PrefetcherKind::PerfectICache`]
    /// this is a no-op prefetcher; the caller must also set the hierarchy
    /// mode (done by [`run`]).
    pub fn build(&self) -> Box<dyn InstructionPrefetcher> {
        self.build_bounded(None)
    }

    /// Instantiates the prefetcher with the function's code span, when
    /// known, so Jukebox's replay validator can bounds-check metadata
    /// region pointers against the layout.
    pub fn build_bounded(
        &self,
        bounds: Option<(luke_common::VirtAddr, luke_common::VirtAddr)>,
    ) -> Box<dyn InstructionPrefetcher> {
        let jukebox = |cfg: JukeboxConfig| {
            let mut jb = JukeboxPrefetcher::new(cfg);
            if let Some((lo, hi)) = bounds {
                jb.set_address_bounds(lo, hi);
            }
            jb
        };
        match *self {
            PrefetcherKind::None | PrefetcherKind::PerfectICache => Box::new(NoPrefetcher),
            PrefetcherKind::Jukebox(cfg) => Box::new(jukebox(cfg)),
            PrefetcherKind::NextLine => Box::new(NextLine::default()),
            PrefetcherKind::Pif => Box::new(Pif::paper()),
            PrefetcherKind::PifIdeal => Box::new(Pif::ideal()),
            PrefetcherKind::JukeboxPlusPifIdeal(cfg) => Box::new(Combined::new(vec![
                Box::new(jukebox(cfg)),
                Box::new(Pif::ideal()),
            ])),
            PrefetcherKind::FootprintRestore => Box::new(FootprintRestore::new()),
            PrefetcherKind::FetchDirected => Box::new(FetchDirected::paper()),
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            PrefetcherKind::None => "baseline",
            PrefetcherKind::Jukebox(_) => "jukebox",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Pif => "pif",
            PrefetcherKind::PifIdeal => "pif-ideal",
            PrefetcherKind::JukeboxPlusPifIdeal(_) => "jukebox+pif-ideal",
            PrefetcherKind::FootprintRestore => "footprint-restore",
            PrefetcherKind::FetchDirected => "fetch-directed",
            PrefetcherKind::PerfectICache => "perfect-icache",
        }
    }
}

/// Cache-state manipulation applied before each measured invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CacheState {
    /// No manipulation: back-to-back reference execution.
    Reference,
    /// Full microarchitectural flush: the interleaved baseline (§5.2).
    Lukewarm,
    /// Partial decay with the given evicted fractions (Figure 1).
    Decayed {
        /// Fraction of private-cache lines evicted.
        l2: f64,
        /// Fraction of LLC lines evicted.
        llc: f64,
        /// Also flush core state (predictor, BTB).
        flush_core: bool,
    },
    /// Run a stressor on the same core between invocations (§2.3's
    /// `stress-ng` methodology) instead of flushing.
    Stressed {
        /// Instruction lines the stressor touches.
        code_lines: u64,
        /// Data lines the stressor touches.
        data_lines: u64,
    },
}

impl CacheState {
    /// Applies this manipulation to `sim` ahead of one invocation.
    pub(crate) fn apply(self, sim: &mut SystemSim) {
        match self {
            CacheState::Reference => {}
            CacheState::Lukewarm => sim.flush_microarch(),
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
    }
}

/// A complete run specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// State manipulation between invocations.
    pub state: CacheState,
}

impl RunSpec {
    /// Back-to-back reference execution.
    pub fn reference() -> Self {
        RunSpec {
            state: CacheState::Reference,
        }
    }

    /// The interleaved (flush-between) baseline.
    pub fn lukewarm() -> Self {
        RunSpec {
            state: CacheState::Lukewarm,
        }
    }

    /// Partial decay (Figure 1).
    pub fn decayed(l2: f64, llc: f64, flush_core: bool) -> Self {
        RunSpec {
            state: CacheState::Decayed {
                l2,
                llc,
                flush_core,
            },
        }
    }

    /// Stressor interleaving (§2.3): defaults sized past the LLC capacity
    /// (131K lines), as the aggregate working sets of hundreds of
    /// interleaved invocations would be.
    pub fn stressed() -> Self {
        RunSpec {
            state: CacheState::Stressed {
                code_lines: 150_000,
                data_lines: 100_000,
            },
        }
    }
}

/// Aggregated results of the measured invocations of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Measured invocations aggregated.
    pub invocations: u64,
    /// Total cycles across measured invocations.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Summed Top-Down attribution.
    pub topdown: TopDown,
    /// Summed per-invocation memory counter deltas.
    pub mem: HierarchySnapshot,
    /// Summed prefetcher activity.
    pub prefetch: IssueCounters,
    /// Summed branch mispredictions.
    pub mispredicts: u64,
}

impl RunSummary {
    fn add(&mut self, m: &InvocationMetrics) {
        self.invocations += 1;
        self.cycles += m.result.cycles;
        self.instructions += m.result.instructions;
        self.topdown += m.result.topdown;
        self.mispredicts += m.result.stats.mispredicts;
        self.prefetch.issued += m.result.prefetch.issued;
        self.prefetch.redundant += m.result.prefetch.redundant;
        self.prefetch.metadata_written += m.result.prefetch.metadata_written;
        self.prefetch.metadata_read += m.result.prefetch.metadata_read;
        self.mem = sum_snapshots(&self.mem, &m.mem);
    }

    /// Mean cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Per-instruction Top-Down stack.
    pub fn cpi_stack(&self) -> TopDown {
        self.topdown.per_instruction(self.instructions)
    }

    /// L2 instruction MPKI.
    pub fn l2_instr_mpki(&self) -> f64 {
        self.mem.l2.instr_mpki(self.instructions)
    }

    /// L2 data MPKI.
    pub fn l2_data_mpki(&self) -> f64 {
        self.mem.l2.data_mpki(self.instructions)
    }

    /// LLC instruction MPKI.
    pub fn llc_instr_mpki(&self) -> f64 {
        self.mem.llc.instr_mpki(self.instructions)
    }

    /// LLC data MPKI.
    pub fn llc_data_mpki(&self) -> f64 {
        self.mem.llc.data_mpki(self.instructions)
    }

    /// Speedup of this run over `baseline` (cycles-per-work ratio;
    /// instruction counts can differ slightly across measured invocation
    /// sets, so compare CPI), or `None` when either run retired nothing
    /// (a zero-cycle baseline would otherwise yield a silent `inf`/NaN).
    pub fn try_speedup_over(&self, baseline: &RunSummary) -> Option<f64> {
        if self.cpi() == 0.0 || baseline.cpi() == 0.0 {
            None
        } else {
            Some(baseline.cpi() / self.cpi())
        }
    }

    /// Like [`RunSummary::try_speedup_over`], but degrades to NaN on a
    /// degenerate run. NaN propagates into [`luke_common::stats::geomean`],
    /// which filters it out, so one dead sample cannot abort a sweep;
    /// [`run_observed`] additionally surfaces it as the
    /// `run.invalid_samples` counter.
    pub fn speedup_over(&self, baseline: &RunSummary) -> f64 {
        self.try_speedup_over(baseline).unwrap_or(f64::NAN)
    }

    /// Total DRAM bytes moved (all categories).
    pub fn dram_bytes(&self) -> u64 {
        self.mem.traffic.total()
    }
}

fn sum_snapshots(a: &HierarchySnapshot, b: &HierarchySnapshot) -> HierarchySnapshot {
    // Snapshots are counter deltas; summing counter-wise aggregates them.
    // HierarchySnapshot has no Add impl to keep sim-mem lean, so sum here
    // via delta's inverse: build from parts.
    use sim_mem::stats::{CacheStats, ClassCounts, TrafficBytes};
    fn add_class(a: ClassCounts, b: ClassCounts) -> ClassCounts {
        ClassCounts {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
        }
    }
    fn add_cache(a: CacheStats, b: CacheStats) -> CacheStats {
        CacheStats {
            instr: add_class(a.instr, b.instr),
            data: add_class(a.data, b.data),
            prefetch_first_hits: a.prefetch_first_hits + b.prefetch_first_hits,
            prefetch_late_hits: a.prefetch_late_hits + b.prefetch_late_hits,
            prefetch_fills: a.prefetch_fills + b.prefetch_fills,
            instr_fills: a.instr_fills + b.instr_fills,
            data_fills: a.data_fills + b.data_fills,
            prefetch_evicted_unused: a.prefetch_evicted_unused + b.prefetch_evicted_unused,
        }
    }
    HierarchySnapshot {
        l1i: add_cache(a.l1i, b.l1i),
        l1d: add_cache(a.l1d, b.l1d),
        l2: add_cache(a.l2, b.l2),
        llc: add_cache(a.llc, b.llc),
        traffic: TrafficBytes {
            demand_instr: a.traffic.demand_instr + b.traffic.demand_instr,
            demand_data: a.traffic.demand_data + b.traffic.demand_data,
            prefetch: a.traffic.prefetch + b.traffic.prefetch,
            metadata_record: a.traffic.metadata_record + b.traffic.metadata_record,
            metadata_replay: a.traffic.metadata_replay + b.traffic.metadata_replay,
        },
    }
}

/// The simulator and prefetcher one run measures: Perfect-I-cache runs
/// switch the hierarchy mode, and Jukebox's replay validator is bounded
/// by the function's code span.
fn prepare(
    config: &SystemConfig,
    profile: &FunctionProfile,
    prefetcher: PrefetcherKind,
) -> (SystemSim, Box<dyn InstructionPrefetcher>) {
    let mut sim = SystemSim::new(*config, profile);
    if prefetcher == PrefetcherKind::PerfectICache {
        sim.set_perfect_icache(true);
    }
    let pf = prefetcher.build_bounded(Some(sim.function().layout().address_span()));
    (sim, pf)
}

/// Runs the full measurement protocol for one (platform, function,
/// prefetcher, state) combination.
pub fn run(
    config: &SystemConfig,
    profile: &FunctionProfile,
    prefetcher: PrefetcherKind,
    spec: RunSpec,
    params: &ExperimentParams,
) -> RunSummary {
    let (mut sim, mut pf) = prepare(config, profile, prefetcher);

    // Warm-up: same state manipulation as measurement, so the recorded
    // metadata reflects lukewarm miss behaviour (as it would after the
    // paper's checkpoint warm-up).
    for _ in 0..params.warmup {
        spec.state.apply(&mut sim);
        sim.run_invocation(pf.as_mut());
    }

    let mut summary = RunSummary::default();
    for _ in 0..params.invocations {
        spec.state.apply(&mut sim);
        let m = sim.run_invocation(pf.as_mut());
        summary.add(&m);
    }
    summary
}

/// Result of an observed run: the usual summary plus the full metrics
/// snapshot and (when a trace capacity was given) the last measured
/// invocation's lifecycle spans.
#[derive(Clone, Debug)]
pub struct ObsRun {
    /// The aggregate the plain [`run`] would have produced.
    pub summary: RunSummary,
    /// Deterministic metrics snapshot covering the measured invocations.
    pub registry: luke_obs::Snapshot,
    /// Lifecycle spans of the last measured invocation, in cycles since
    /// its dispatch (empty when `trace_capacity` was 0).
    pub spans: Vec<luke_obs::Span>,
}

/// The measurement protocol of [`run`] with observability enabled: the
/// per-invocation counters flow into a metrics registry, run-level gauges
/// (CPI, MPKIs) and the prefetcher's internal telemetry are added at the
/// end, and `trace_capacity > 0` additionally captures the last measured
/// invocation's lifecycle span trace.
pub fn run_observed(
    config: &SystemConfig,
    profile: &FunctionProfile,
    prefetcher: PrefetcherKind,
    spec: RunSpec,
    params: &ExperimentParams,
    trace_capacity: usize,
) -> ObsRun {
    let (mut sim, mut pf) = prepare(config, profile, prefetcher);
    sim.enable_obs();
    sim.set_span_capacity(trace_capacity);

    // Warm-up runs are not measured: drop their counters and spans.
    for _ in 0..params.warmup {
        spec.state.apply(&mut sim);
        sim.run_invocation(pf.as_mut());
    }
    sim.registry_mut().clear();
    sim.take_spans();

    let mut summary = RunSummary::default();
    for _ in 0..params.invocations {
        spec.state.apply(&mut sim);
        // Keep only the last measured invocation's trace: a single
        // invocation is what the timeline exporter visualizes.
        sim.take_spans();
        let m = sim.run_invocation(pf.as_mut());
        summary.add(&m);
    }
    let spans = sim.take_spans();

    pf.fill_registry(sim.registry_mut());
    let reg = sim.registry_mut();
    if summary.cpi() == 0.0 {
        reg.counter_inc("run.invalid_samples");
    } else {
        reg.counter_add("run.invalid_samples", 0);
    }
    reg.gauge_set("run.cpi", summary.cpi());
    reg.gauge_set("run.l2_instr_mpki", summary.l2_instr_mpki());
    reg.gauge_set("run.l2_data_mpki", summary.l2_data_mpki());
    reg.gauge_set("run.llc_instr_mpki", summary.llc_instr_mpki());
    reg.gauge_set("run.llc_data_mpki", summary.llc_data_mpki());

    ObsRun {
        summary,
        registry: sim.registry().snapshot(),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile(name: &str, params: &ExperimentParams) -> FunctionProfile {
        FunctionProfile::named(name)
            .expect("suite function")
            .scaled(params.scale)
    }

    #[test]
    fn lukewarm_baseline_slower_than_reference() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Fib-G", &params);
        let cfg = SystemConfig::skylake();
        let reference = run(
            &cfg,
            &p,
            PrefetcherKind::None,
            RunSpec::reference(),
            &params,
        );
        let lukewarm = run(&cfg, &p, PrefetcherKind::None, RunSpec::lukewarm(), &params);
        assert!(
            lukewarm.cpi() > reference.cpi() * 1.2,
            "lukewarm {} vs reference {}",
            lukewarm.cpi(),
            reference.cpi()
        );
    }

    #[test]
    fn jukebox_speeds_up_lukewarm_execution() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Auth-G", &params);
        let cfg = SystemConfig::skylake();
        let base = run(&cfg, &p, PrefetcherKind::None, RunSpec::lukewarm(), &params);
        let jb = run(
            &cfg,
            &p,
            PrefetcherKind::Jukebox(cfg.jukebox),
            RunSpec::lukewarm(),
            &params,
        );
        let speedup = jb.speedup_over(&base);
        assert!(speedup > 1.02, "jukebox speedup {speedup}");
        assert!(jb.prefetch.issued > 0);
        assert!(jb.mem.l2.prefetch_first_hits > 0);
    }

    #[test]
    fn perfect_icache_bounds_jukebox() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Auth-G", &params);
        let cfg = SystemConfig::skylake();
        let base = run(&cfg, &p, PrefetcherKind::None, RunSpec::lukewarm(), &params);
        let jb = run(
            &cfg,
            &p,
            PrefetcherKind::Jukebox(cfg.jukebox),
            RunSpec::lukewarm(),
            &params,
        );
        let perfect = run(
            &cfg,
            &p,
            PrefetcherKind::PerfectICache,
            RunSpec::lukewarm(),
            &params,
        );
        assert!(perfect.cpi() < base.cpi());
        assert!(
            perfect.speedup_over(&base) >= jb.speedup_over(&base) * 0.95,
            "perfect {} should be at least jukebox {}",
            perfect.speedup_over(&base),
            jb.speedup_over(&base)
        );
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Jukebox(JukeboxConfig::paper_default()),
            PrefetcherKind::NextLine,
            PrefetcherKind::Pif,
            PrefetcherKind::PifIdeal,
            PrefetcherKind::JukeboxPlusPifIdeal(JukeboxConfig::paper_default()),
            PrefetcherKind::FootprintRestore,
            PrefetcherKind::FetchDirected,
            PrefetcherKind::PerfectICache,
        ];
        let labels: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn speedup_over_guards_zero_cycle_baseline() {
        let empty = RunSummary::default();
        let real = RunSummary {
            invocations: 1,
            cycles: 100,
            instructions: 50,
            ..RunSummary::default()
        };
        assert_eq!(real.try_speedup_over(&empty), None);
        assert!(real.speedup_over(&empty).is_nan());
        assert_eq!(empty.try_speedup_over(&real), None);
        assert!(empty.speedup_over(&real).is_nan());
        let s = real.try_speedup_over(&real).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_registry() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Auth-G", &params);
        let cfg = SystemConfig::skylake();
        let plain = run(
            &cfg,
            &p,
            PrefetcherKind::Jukebox(cfg.jukebox),
            RunSpec::lukewarm(),
            &params,
        );
        let observed = run_observed(
            &cfg,
            &p,
            PrefetcherKind::Jukebox(cfg.jukebox),
            RunSpec::lukewarm(),
            &params,
            4096,
        );
        // Observability must not perturb the simulation itself.
        assert_eq!(plain, observed.summary);
        let reg = &observed.registry;
        assert_eq!(reg.counter("run.invocations"), params.invocations);
        assert_eq!(reg.counter("core.instructions"), plain.instructions);
        assert_eq!(
            reg.counter("mem.l2.instr.misses"),
            plain.mem.l2.instr.misses
        );
        assert_eq!(reg.counter("prefetch.issued"), plain.prefetch.issued);
        assert_eq!(reg.counter("run.invalid_samples"), 0);
        assert!(reg.gauge("run.cpi").unwrap() > 0.0);
        assert_eq!(
            reg.hist("invocation.cycles").unwrap().count(),
            params.invocations
        );
        // Jukebox contributes its replay telemetry.
        assert!(reg.counter("replay.entries") > 0);
        use luke_obs::SpanKind;
        let spans = &observed.spans;
        assert_eq!(spans.first().map(|s| s.kind), Some(SpanKind::Dispatch));
        assert_eq!(spans.last().map(|s| s.kind), Some(SpanKind::Retire));
        assert!(spans.iter().any(|s| s.kind == SpanKind::FetchStall));
        // Only the last measured invocation's lane is kept.
        assert!(spans.iter().all(|s| s.trace == spans[0].trace));
    }

    #[test]
    fn observed_run_is_deterministic() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Fib-G", &params);
        let cfg = SystemConfig::skylake();
        let go = || {
            run_observed(
                &cfg,
                &p,
                PrefetcherKind::None,
                RunSpec::lukewarm(),
                &params,
                0,
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.registry.to_json(), b.registry.to_json());
        assert!(a.spans.is_empty(), "capacity 0 traces nothing");
    }

    #[test]
    fn try_new_validates_params() {
        let ok = ExperimentParams::try_new(0.5, 4, 2).expect("valid params");
        assert_eq!(
            ok,
            ExperimentParams {
                scale: 0.5,
                invocations: 4,
                warmup: 2,
            }
        );
        // Warmup-free runs are legitimate (several unit tests use them).
        assert!(ExperimentParams::try_new(1.0, 1, 0).is_ok());

        for bad_scale in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ExperimentParams::try_new(bad_scale, 4, 2).unwrap_err();
            assert!(
                matches!(err, luke_common::SimError::InvalidConfig { ref field, .. } if field == "params.scale"),
                "scale {bad_scale}: {err}"
            );
            // Params built field by field fail the same check.
            let built = ExperimentParams {
                scale: bad_scale,
                ..ok
            };
            assert_eq!(built.validate().unwrap_err(), err);
        }
        // Warmup-only runs measure nothing and must be rejected.
        let err = ExperimentParams::try_new(1.0, 0, 2).unwrap_err();
        assert!(
            matches!(err, luke_common::SimError::InvalidConfig { ref field, .. } if field == "params.invocations"),
            "{err}"
        );
    }

    #[test]
    fn run_summary_aggregates_invocation_counts() {
        let params = ExperimentParams::quick();
        let p = quick_profile("Fib-G", &params);
        let cfg = SystemConfig::skylake();
        let s = run(&cfg, &p, PrefetcherKind::None, RunSpec::lukewarm(), &params);
        assert_eq!(s.invocations, params.invocations);
        assert!(s.instructions > 0);
        assert!(s.cycles > 0);
        assert!(s.l2_instr_mpki() > 0.0);
        assert!(s.dram_bytes() > 0);
    }
}
