//! One simulated system: core + memory + page table + function instance.

use crate::config::SystemConfig;
use luke_common::par;
use luke_obs::Span;
use sim_cpu::instr::Instr;
use sim_cpu::{Core, InvocationResult};
use sim_mem::hierarchy::HierarchySnapshot;
use sim_mem::prefetch::{InstructionPrefetcher, NoPrefetcher};
use sim_mem::{MemoryHierarchy, PageTable};
use std::sync::mpsc::{self, Receiver, SyncSender};
use workloads::stressor::stressor_trace;
use workloads::{FunctionProfile, SyntheticFunction};

/// Instructions per chunk when a trace is generated on a helper thread.
const CHUNK: usize = 16 * 1024;

/// Chunk buffers per streamed invocation, recycled between the helper and
/// the core: one being filled, one being simulated, the rest queued. The
/// queue lets the helper run a quarter to a half of a paper-scale trace
/// ahead, so the core does not stall when the helper's core is taken away
/// for a few milliseconds (with 4 buffers, `cycle-paper` lost most of its
/// gain on a VM with bursty steal time).
const BUFFERS: usize = 16;

/// Whether [`run_traced`] should stream `function`'s traces from a helper
/// thread. Only while a core is left over after the threads simulating
/// beside it (the enclosing `Engine::map`'s workers, or this thread alone
/// outside a map), else the helper competes with the cores it feeds, and
/// only for traces of several chunks, else spawning and buffer hand-offs
/// cost more than generation (docs/MODEL.md, "Trace pipeline").
pub(crate) fn pipelines(function: &SyntheticFunction) -> bool {
    par::spare_core() && function.layout().walk_instr_estimate() >= 4 * CHUNK as u64
}

/// Runs invocation `invocation` of `function` on `core`: the one path
/// of every cycle-model invocation. `pipelined` (from [`pipelines`])
/// generates the trace in chunks on a scoped helper thread while the core
/// simulates the earlier ones; otherwise the trace is materialized first.
/// The core sees the same instructions either way, and the prefetcher,
/// page table and hierarchy stay on the calling thread.
pub(crate) fn run_traced<P: InstructionPrefetcher + ?Sized>(
    pipelined: bool,
    core: &mut Core,
    mem: &mut MemoryHierarchy,
    page_table: &mut PageTable,
    function: &SyntheticFunction,
    invocation: u64,
    prefetcher: &mut P,
) -> InvocationResult {
    if pipelined {
        streamed(function, invocation, |trace| {
            core.run_invocation(trace, mem, page_table, prefetcher)
        })
        .0
    } else {
        let trace = function.invocation_trace(invocation);
        core.run_invocation(trace, mem, page_table, prefetcher)
    }
}

/// Generates invocation `invocation`'s trace on a scoped helper thread,
/// [`CHUNK`] instructions at a time into [`BUFFERS`] recycled buffers, and
/// hands `consume` an iterator over it. Also returns whether the helper
/// walked the whole trace: it stops early once `consume` has dropped the
/// iterator.
fn streamed<R>(
    function: &SyntheticFunction,
    invocation: u64,
    consume: impl FnOnce(Chunks) -> R,
) -> (R, bool) {
    // Neither channel can fill: only `BUFFERS` buffers exist.
    let (full_tx, full_rx) = mpsc::sync_channel(BUFFERS);
    let (free_tx, free_rx) = mpsc::sync_channel(BUFFERS);
    // A chunk overshoots `CHUNK` by at most one procedure visit, a few
    // hundred instructions.
    let buffer = || Vec::with_capacity(2 * CHUNK);
    // The helper fills `first` while the core starts on an empty chunk;
    // the rest wait in the free channel.
    for _ in 2..BUFFERS {
        free_tx.send(buffer()).expect("receiver is alive");
    }
    let first = buffer();
    let chunks = Chunks {
        chunk: buffer(),
        next: 0,
        full: full_rx,
        free: free_tx,
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let tail = function.invocation_trace_chunked(invocation, CHUNK, first, &mut |full| {
                full_tx.send(full).ok()?;
                free_rx.recv().ok()
            });
            // Whether or not the core still reads, the walk reached the end.
            tail.map(|tail| full_tx.send(tail)).is_some()
        });
        let result = consume(chunks);
        let finished = generator.join().expect("trace generator panicked");
        (result, finished)
    })
}

/// The core's side of a streamed trace: yields each chunk's instructions
/// in order and hands every drained buffer back to the generator.
struct Chunks {
    chunk: Vec<Instr>,
    next: usize,
    full: Receiver<Vec<Instr>>,
    free: SyncSender<Vec<Instr>>,
}

impl Chunks {
    /// Swaps the drained chunk for the next non-empty one and yields its
    /// first instruction; `None` once the generator has sent its tail.
    #[cold]
    fn refill(&mut self) -> Option<Instr> {
        loop {
            let mut drained = std::mem::replace(&mut self.chunk, self.full.recv().ok()?);
            drained.clear();
            // Fails only once the generator has finished.
            let _ = self.free.send(drained);
            if let Some(&first) = self.chunk.first() {
                self.next = 1;
                return Some(first);
            }
        }
    }
}

impl Iterator for Chunks {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        match self.chunk.get(self.next) {
            Some(&instr) => {
                self.next += 1;
                Some(instr)
            }
            None => self.refill(),
        }
    }
}

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
        }
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
        let pipelined = pipelines(&self.function);
        self.run_invocation_as(pipelined, prefetcher)
    }

    /// [`SystemSim::run_invocation`] on the trace path the caller picks.
    fn run_invocation_as<P: InstructionPrefetcher + ?Sized>(
        &mut self,
        pipelined: bool,
        prefetcher: &mut P,
    ) -> InvocationMetrics {
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        let before = self.mem.snapshot();
        let result = run_traced(
            pipelined,
            &mut self.core,
            &mut self.mem,
            &mut self.page_table,
            &self.function,
            invocation,
            prefetcher,
        );
        InvocationMetrics {
            result,
            mem: self.mem.snapshot().delta(&before),
        }
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

    /// What one configuration's run leaves behind, for comparing the two
    /// trace paths.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        metrics: Vec<InvocationMetrics>,
        spans: Vec<Span>,
        jukebox: Option<String>,
    }

    /// Runs 4 invocations of a multi-chunk trace with every invocation on
    /// the chosen path: back to back, flushed between, or flushed between
    /// with Jukebox.
    fn run_config(pipelined: bool, flush: bool, jukebox: bool) -> Outcome {
        let p = FunctionProfile::named("Fib-G").unwrap().scaled(0.2);
        let mut sim = SystemSim::new(SystemConfig::skylake(), &p);
        assert!(sim.function().layout().walk_instr_estimate() >= 4 * CHUNK as u64);
        sim.set_span_capacity(1 << 16);
        let mut jb = jukebox::JukeboxPrefetcher::new(sim.config().jukebox);
        let (lo, hi) = sim.function().layout().address_span();
        jb.set_address_bounds(lo, hi);
        let mut metrics = Vec::new();
        for _ in 0..4 {
            if flush {
                sim.flush_microarch();
            }
            metrics.push(if jukebox {
                sim.run_invocation_as(pipelined, &mut jb)
            } else {
                sim.run_invocation_as(pipelined, &mut NoPrefetcher)
            });
        }
        Outcome {
            metrics,
            spans: sim.take_spans(),
            jukebox: jukebox.then(|| {
                format!(
                    "{:?} {} {} {} {:?}",
                    jb.last_replay(),
                    jb.replay_aborts(),
                    jb.dropped_prefetches(),
                    jb.record_bytes_required(),
                    jb.snapshot()
                )
            }),
        }
    }

    #[test]
    fn pipelined_and_inline_traces_agree() {
        for (flush, jukebox) in [(false, false), (true, false), (true, true)] {
            let inline = run_config(false, flush, jukebox);
            let pipelined = run_config(true, flush, jukebox);
            assert!(!inline.spans.is_empty());
            assert_eq!(inline, pipelined, "flush {flush}, jukebox {jukebox}");
        }
    }

    /// A trace longer than all the buffers together: a chunk overshoots
    /// `CHUNK` by less than one visit, so the helper must wait for drained
    /// buffers to finish it.
    fn longer_than_the_buffers() -> SyntheticFunction {
        let p = FunctionProfile::named("Auth-P").unwrap().scaled(0.5);
        let f = SyntheticFunction::build(&p);
        assert!(f.invocation_trace(0).len() > BUFFERS * (CHUNK + 1024));
        f
    }

    #[test]
    fn streamed_trace_is_the_whole_trace() {
        let f = longer_than_the_buffers();
        let (streamed, finished) = streamed(&f, 0, |chunks| chunks.collect::<Vec<_>>());
        assert!(finished);
        assert_eq!(streamed, f.invocation_trace(0));
    }

    #[test]
    fn generator_stops_when_the_core_drops_the_trace() {
        let f = longer_than_the_buffers();
        let (taken, finished) = streamed(&f, 0, |mut chunks| chunks.by_ref().take(10).count());
        assert_eq!(taken, 10);
        assert!(!finished, "the generator ran to the end with no consumer");
    }

    #[test]
    fn map_workers_that_fill_the_cores_do_not_stream() {
        let cores = par::cores();
        if cores < 2 {
            return;
        }
        let f = SyntheticFunction::build(&FunctionProfile::named("Fib-G").unwrap());
        assert!(pipelines(&f), "outside a map a spare core streams");
        let jobs = vec![(); cores];
        let single = crate::Engine::single().map(&jobs, |_| pipelines(&f));
        assert_eq!(single, vec![true; cores], "a 1-worker map keeps the helper");
        let full = crate::Engine::new(cores).map(&jobs, |_| pipelines(&f));
        assert_eq!(
            full,
            vec![false; cores],
            "{cores} workers fill {cores} cores"
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
