//! One simulated system: core + memory + page table + function instance.

use crate::config::SystemConfig;
use luke_obs::{Registry, Span};
use sim_cpu::{Core, InvocationResult};
use sim_mem::hierarchy::HierarchySnapshot;
use sim_mem::prefetch::{InstructionPrefetcher, NoPrefetcher};
use sim_mem::{MemoryHierarchy, PageTable};
use workloads::stressor::stressor_trace;
use workloads::{FunctionProfile, SyntheticFunction};

/// Metrics of one simulated invocation: core timing plus the memory-system
/// counter deltas attributable to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvocationMetrics {
    /// Core-side timing result.
    pub result: InvocationResult,
    /// Memory-side counter deltas for this invocation.
    pub mem: HierarchySnapshot,
}

/// A full-system simulation of one function instance on one core.
#[derive(Debug)]
pub struct SystemSim {
    config: SystemConfig,
    core: Core,
    mem: MemoryHierarchy,
    page_table: PageTable,
    // The stressor is a different process: its own address space.
    stressor_page_table: PageTable,
    function: SyntheticFunction,
    next_invocation: u64,
    stressor_runs: u64,
    registry: Registry,
    obs_enabled: bool,
}

impl SystemSim {
    /// Creates a cold system running `profile`'s function.
    pub fn new(config: SystemConfig, profile: &FunctionProfile) -> Self {
        SystemSim {
            config,
            core: Core::new(config.core),
            mem: MemoryHierarchy::new(config.mem),
            page_table: PageTable::new(profile.seed),
            stressor_page_table: PageTable::new(profile.seed + 1_000_003),
            function: SyntheticFunction::build(profile),
            next_invocation: 0,
            stressor_runs: 0,
            registry: Registry::new(),
            obs_enabled: false,
        }
    }

    /// Enables per-invocation metrics collection into the registry.
    /// Disabled by default so the plain measurement path carries no
    /// observability cost.
    pub fn enable_obs(&mut self) {
        self.obs_enabled = true;
    }

    /// The metrics registry (empty unless [`SystemSim::enable_obs`] was
    /// called).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access, for callers contributing their own
    /// metrics (prefetcher telemetry, run-level gauges).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Enables core lifecycle span tracing with the given ring capacity
    /// (0 disables; see [`Core::set_span_capacity`]).
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.core.set_span_capacity(capacity);
    }

    /// Drains the core's traced lifecycle spans, oldest first.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.core.take_spans()
    }

    /// The platform configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The simulated function.
    pub fn function(&self) -> &SyntheticFunction {
        &self.function
    }

    /// Enables the perfect-I-cache oracle (Figure 10).
    pub fn set_perfect_icache(&mut self, enabled: bool) {
        self.mem.set_perfect_icache(enabled);
    }

    /// Flushes **all** microarchitectural state — cache hierarchy, TLBs,
    /// branch predictor, BTB, RAS — exactly the paper's interleaved
    /// baseline between invocations (§5.2).
    pub fn flush_microarch(&mut self) {
        self.mem.flush_all();
        self.core.flush_microarch();
    }

    /// Partially decays cache state (Figure 1's IAT model). `flush_core`
    /// additionally clears the branch predictor, appropriate once the
    /// interleaving is heavy.
    pub fn decay(&mut self, l2_fraction: f64, llc_fraction: f64, flush_core: bool) {
        let salt = 0x0DE0 + self.next_invocation;
        self.mem.decay(l2_fraction, llc_fraction, salt);
        if flush_core {
            self.core.flush_microarch();
        }
    }

    /// Runs a stressor between invocations on the same core — the §2.3
    /// methodology (`stress-ng` on the FUT's core) as an alternative to
    /// the flush-based interleaved baseline. `code_lines`/`data_lines`
    /// size the stressor's working sets; pick them larger than the
    /// private levels to thrash them.
    pub fn run_stressor(&mut self, code_lines: u64, data_lines: u64) {
        self.stressor_runs += 1;
        let trace = stressor_trace(code_lines, data_lines, 0xABCD + self.stressor_runs);
        // The stressor shares the core (and thus predictors and caches)
        // but not the address space; its cycles are not the FUT's.
        self.core.run_invocation(
            trace,
            &mut self.mem,
            &mut self.stressor_page_table,
            &mut NoPrefetcher,
        );
    }

    /// Runs the next invocation (indices advance monotonically, so each
    /// invocation gets its own stochastic variation).
    pub fn run_invocation<P: InstructionPrefetcher + ?Sized>(
        &mut self,
        prefetcher: &mut P,
    ) -> InvocationMetrics {
        let trace = self.function.invocation_trace(self.next_invocation);
        self.next_invocation += 1;
        let before = self.mem.snapshot();
        let result =
            self.core
                .run_invocation(trace, &mut self.mem, &mut self.page_table, prefetcher);
        let metrics = InvocationMetrics {
            result,
            mem: self.mem.snapshot().delta(&before),
        };
        if self.obs_enabled {
            self.registry.counter_inc("run.invocations");
            self.registry
                .hist_record("invocation.cycles", result.cycles);
            metrics.mem.add_to_registry(&mut self.registry);
            result.stats.add_to_registry(&mut self.registry);
            self.registry
                .counter_add("prefetch.issued", result.prefetch.issued);
            self.registry
                .counter_add("prefetch.redundant", result.prefetch.redundant);
            self.registry
                .counter_add("prefetch.metadata_written", result.prefetch.metadata_written);
            self.registry
                .counter_add("prefetch.metadata_read", result.prefetch.metadata_read);
        }
        metrics
    }

    /// Number of invocations run so far.
    pub fn invocations_run(&self) -> u64 {
        self.next_invocation
    }

    /// Read access to the memory hierarchy (for assertions and analyses).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Read access to the core.
    pub fn core(&self) -> &Core {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::prefetch::NoPrefetcher;
    use workloads::FunctionProfile;

    fn quick_sim() -> SystemSim {
        let p = FunctionProfile::named("Fib-G").unwrap().scaled(0.04);
        SystemSim::new(SystemConfig::skylake(), &p)
    }

    #[test]
    fn reference_execution_warms_up() {
        let mut sim = quick_sim();
        let first = sim.run_invocation(&mut NoPrefetcher);
        let second = sim.run_invocation(&mut NoPrefetcher);
        let third = sim.run_invocation(&mut NoPrefetcher);
        assert!(second.result.cpi() < first.result.cpi());
        // Steady state: third is within noise of second (invocation
        // lengths vary, so compare CPI).
        assert!(third.result.cpi() < first.result.cpi());
        assert_eq!(sim.invocations_run(), 3);
    }

    #[test]
    fn lukewarm_execution_is_slower_than_reference() {
        let mut sim = quick_sim();
        sim.run_invocation(&mut NoPrefetcher);
        sim.run_invocation(&mut NoPrefetcher);
        let reference = sim.run_invocation(&mut NoPrefetcher);
        sim.flush_microarch();
        let lukewarm = sim.run_invocation(&mut NoPrefetcher);
        assert!(
            lukewarm.result.cpi() > reference.result.cpi() * 1.2,
            "lukewarm {} vs reference {}",
            lukewarm.result.cpi(),
            reference.result.cpi()
        );
    }

    #[test]
    fn decay_interpolates_between_reference_and_lukewarm() {
        let mut sim = quick_sim();
        for _ in 0..2 {
            sim.run_invocation(&mut NoPrefetcher);
        }
        let reference = sim.run_invocation(&mut NoPrefetcher);
        sim.decay(0.5, 0.2, false);
        let decayed = sim.run_invocation(&mut NoPrefetcher);
        sim.flush_microarch();
        let lukewarm = sim.run_invocation(&mut NoPrefetcher);
        assert!(decayed.result.cpi() >= reference.result.cpi() * 0.98);
        assert!(decayed.result.cpi() <= lukewarm.result.cpi() * 1.02);
    }

    #[test]
    fn perfect_icache_speeds_up_lukewarm() {
        let p = FunctionProfile::named("Fib-G").unwrap().scaled(0.04);
        let mut base = SystemSim::new(SystemConfig::skylake(), &p);
        let mut perfect = SystemSim::new(SystemConfig::skylake(), &p);
        perfect.set_perfect_icache(true);
        for sim in [&mut base, &mut perfect] {
            sim.flush_microarch();
            sim.run_invocation(&mut NoPrefetcher);
            sim.flush_microarch();
        }
        let b = base.run_invocation(&mut NoPrefetcher);
        let q = perfect.run_invocation(&mut NoPrefetcher);
        assert!(
            q.result.cycles < b.result.cycles,
            "perfect {} vs base {}",
            q.result.cycles,
            b.result.cycles
        );
    }

    #[test]
    fn mem_delta_is_per_invocation() {
        let mut sim = quick_sim();
        let a = sim.run_invocation(&mut NoPrefetcher);
        let b = sim.run_invocation(&mut NoPrefetcher);
        // Warm second invocation has far fewer L2 instruction misses.
        assert!(b.mem.l2.instr.misses < a.mem.l2.instr.misses);
        assert!(a.mem.traffic.demand_instr > 0);
    }
}
