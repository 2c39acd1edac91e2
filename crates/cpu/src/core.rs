//! The interval-model core: consumes an instruction trace against a memory
//! hierarchy, attributes every cycle to a Top-Down category, and drives the
//! attached instruction prefetcher.

use crate::branch::BranchUnit;
use crate::config::CoreConfig;
use crate::instr::{Instr, InstrKind};
use crate::topdown::TopDown;
use luke_common::addr::LineAddr;
use luke_obs::{Registry, Span, SpanKind, SpanRing};
use sim_mem::hierarchy::MemoryHierarchy;
use sim_mem::page_table::PageTable;
use sim_mem::prefetch::{
    FetchObservation, InstructionPrefetcher, IssueCounters, IssuerState, PrefetchIssuer,
};

/// Event counts for one invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Instruction-line fetches performed (L1-I accesses).
    pub line_fetches: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl CoreStats {
    /// Accumulates these counters into `registry` under `core.*`.
    pub fn add_to_registry(&self, registry: &mut Registry) {
        registry.counter_add("core.instructions", self.instructions);
        registry.counter_add("core.branches", self.branches);
        registry.counter_add("core.taken_branches", self.taken_branches);
        registry.counter_add("core.mispredicts", self.mispredicts);
        registry.counter_add("core.line_fetches", self.line_fetches);
        registry.counter_add("core.loads", self.loads);
        registry.counter_add("core.stores", self.stores);
    }
}

/// Timing result of one invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvocationResult {
    /// Total cycles from dispatch to completion.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Attributed cycle breakdown.
    pub topdown: TopDown,
    /// Event counts.
    pub stats: CoreStats,
    /// Prefetcher activity during this invocation.
    pub prefetch: IssueCounters,
    /// Core cycle at which the invocation was dispatched.
    pub start_cycle: u64,
}

impl InvocationResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// The core timing engine (see crate docs for the model).
#[derive(Clone, Debug)]
pub struct Core {
    cfg: CoreConfig,
    bp: BranchUnit,
    now: u64,
    frac: f64,
    cur_line: Option<LineAddr>,
    data_shadow_end: u64,
    lifetime_topdown: TopDown,
    lifetime_instructions: u64,
    invocations: u64,
    spans: SpanRing,
    /// Dispatch cycle of the current invocation (its spans' time origin).
    dispatched_at: u64,
    /// Next span id on the current invocation's lane (the dispatch root
    /// is id 0).
    next_span: u32,
}

impl Core {
    /// Creates a cold core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(cfg: CoreConfig) -> Self {
        cfg.validate();
        Core {
            bp: BranchUnit::new(&cfg),
            cfg,
            now: 0,
            frac: 0.0,
            cur_line: None,
            data_shadow_end: 0,
            lifetime_topdown: TopDown::new(),
            lifetime_instructions: 0,
            invocations: 0,
            spans: SpanRing::disabled(),
            dispatched_at: 0,
            next_span: 0,
        }
    }

    /// Enables lifecycle span tracing, keeping the most recent
    /// `capacity` spans (0 disables tracing, the default).
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.spans = SpanRing::with_capacity(capacity);
    }

    /// The lifecycle span ring (empty unless tracing was enabled via
    /// [`Core::set_span_capacity`]).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Drains the traced lifecycle spans, oldest first.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take_spans()
    }

    /// Records one lifecycle span on the current invocation's lane,
    /// starting at core cycle `at` and lasting `dur` cycles. Forced
    /// inline: left to the compiler it stayed an out-of-line call on
    /// every fetch stall, which measurably slowed the untraced cycle
    /// model; inlined, a disabled ring costs one branch.
    #[inline(always)]
    fn mark(&mut self, kind: SpanKind, at: u64, dur: u64, a: u64, b: u64) {
        if !self.spans.is_enabled() {
            return;
        }
        let id = self.next_span;
        self.next_span += 1;
        self.spans.record(Span {
            trace: self.invocations - 1,
            id,
            parent: 0,
            kind,
            start_us: at - self.dispatched_at,
            dur_us: dur,
            a,
            b,
        });
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current core cycle (monotonic across invocations).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Lifetime Top-Down totals across all invocations run on this core.
    pub fn lifetime_topdown(&self) -> &TopDown {
        &self.lifetime_topdown
    }

    /// Lifetime retired-instruction count.
    pub fn lifetime_instructions(&self) -> u64 {
        self.lifetime_instructions
    }

    /// Flushes all core microarchitectural state (branch predictor, BTB,
    /// RAS, fetch state) — the core half of the paper's interleaved
    /// baseline; the memory half is
    /// [`MemoryHierarchy::flush_all`](sim_mem::hierarchy::MemoryHierarchy::flush_all).
    pub fn flush_microarch(&mut self) {
        self.bp.flush();
        self.cur_line = None;
        self.data_shadow_end = 0;
    }

    /// Runs one invocation to completion.
    ///
    /// The prefetcher's `on_invocation_start` fires at dispatch (the OS
    /// replay trigger, §3.3); `on_fetch` fires for every demand
    /// instruction-line fetch; `on_invocation_end` fires at completion.
    pub fn run_invocation<T, P>(
        &mut self,
        trace: T,
        mem: &mut MemoryHierarchy,
        page_table: &mut PageTable,
        prefetcher: &mut P,
    ) -> InvocationResult
    where
        T: IntoIterator<Item = Instr>,
        P: InstructionPrefetcher + ?Sized,
    {
        let start = self.now;
        let mut td = TopDown::new();
        let mut stats = CoreStats::default();
        let l1i_latency = mem.config().l1i.latency;
        let l1d_latency = mem.config().l1d.latency;
        let itlb_walk = mem.config().itlb.walk_latency;
        let retire_cycles = 1.0 / self.cfg.issue_width as f64;

        // Replay trigger: the OS programs the replay registers as part of
        // dispatching the invocation; the engine streams in the background,
        // so the core clock does not advance here.
        let mut pf_state = {
            let mut issuer = PrefetchIssuer::new(mem, page_table, self.now);
            prefetcher.on_invocation_start(&mut issuer);
            issuer.into_state()
        };
        self.invocations += 1;
        self.dispatched_at = start;
        self.next_span = 0;
        self.mark(SpanKind::Dispatch, start, 0, self.invocations - 1, 0);
        if pf_state.counters.issued > 0 {
            self.mark(
                SpanKind::PrefetchBatch,
                start,
                0,
                pf_state.counters.issued,
                pf_state.counters.redundant,
            );
        }

        for instr in trace {
            // --- Instruction delivery ---
            let pc = instr.pc();
            let first_line = pc.line();
            let last_byte = pc.offset(instr.size().saturating_sub(1) as u64);
            let last_line = last_byte.line();
            if self.cur_line != Some(first_line) {
                pf_state = self.fetch_line(
                    first_line,
                    mem,
                    page_table,
                    prefetcher,
                    pf_state,
                    &mut td,
                    &mut stats,
                    l1i_latency,
                    itlb_walk,
                );
                self.cur_line = Some(first_line);
            }
            if last_line != first_line {
                pf_state = self.fetch_line(
                    last_line,
                    mem,
                    page_table,
                    prefetcher,
                    pf_state,
                    &mut td,
                    &mut stats,
                    l1i_latency,
                    itlb_walk,
                );
                self.cur_line = Some(last_line);
            }

            // --- Execute / retire ---
            stats.instructions += 1;
            self.advance_frac(retire_cycles, &mut td.retiring);
            self.advance_frac(self.cfg.core_bound_per_instr, &mut td.backend);

            match instr.kind() {
                InstrKind::Alu => {}
                InstrKind::Load(addr) => {
                    stats.loads += 1;
                    let pline = page_table.translate_line(addr.line());
                    let out = mem.read_data(addr, pline, self.now);
                    if out.latency > l1d_latency {
                        self.charge_data_miss(out.latency, &mut td);
                    }
                }
                InstrKind::Store(addr) => {
                    stats.stores += 1;
                    let pline = page_table.translate_line(addr.line());
                    // Stores retire through the store buffer; latency is
                    // not exposed, but the access updates cache state.
                    let _ = mem.write_data(addr, pline, self.now);
                }
                InstrKind::Branch {
                    kind,
                    taken,
                    target,
                } => {
                    stats.branches += 1;
                    let prediction =
                        self.bp
                            .predict_and_update(pc, kind, taken, target, instr.fallthrough());
                    if prediction.mispredicted() {
                        stats.mispredicts += 1;
                        self.advance(self.cfg.mispredict_penalty, &mut td.bad_speculation);
                    } else if taken && !prediction.target_known {
                        // Correct direction but the front-end could not
                        // produce the target: a redirect bubble.
                        self.advance(self.cfg.btb_miss_bubble, &mut td.fetch_latency);
                    } else if taken {
                        // Even a perfectly-predicted taken branch restarts
                        // fetch at the target.
                        self.advance_frac(self.cfg.redirect_bubble, &mut td.fetch_latency);
                    }
                    if taken {
                        stats.taken_branches += 1;
                        self.advance_frac(self.cfg.taken_branch_bubble, &mut td.fetch_bandwidth);
                        // Redirect: next instruction starts a new fetch.
                        self.cur_line = None;
                    }
                }
            }
        }

        // Seal recording.
        {
            let mut issuer = PrefetchIssuer::resume(mem, page_table, pf_state, self.now);
            prefetcher.on_invocation_end(&mut issuer);
            pf_state = issuer.into_state();
        }

        self.lifetime_topdown += td;
        self.lifetime_instructions += stats.instructions;
        self.mark(
            SpanKind::Retire,
            self.now,
            0,
            stats.instructions,
            self.now - start,
        );
        InvocationResult {
            cycles: self.now - start,
            instructions: stats.instructions,
            topdown: td,
            stats,
            prefetch: pf_state.counters,
            start_cycle: start,
        }
    }

    /// Fetches one instruction line, charging exposed latency to
    /// fetch-latency and notifying the prefetcher.
    #[allow(clippy::too_many_arguments)]
    fn fetch_line<P: InstructionPrefetcher + ?Sized>(
        &mut self,
        line: LineAddr,
        mem: &mut MemoryHierarchy,
        page_table: &mut PageTable,
        prefetcher: &mut P,
        pf_state: IssuerState,
        td: &mut TopDown,
        stats: &mut CoreStats,
        l1i_latency: u64,
        itlb_walk: u64,
    ) -> IssuerState {
        stats.line_fetches += 1;
        // Sequential if this line directly follows the previous fetch line
        // (hardware fetch-ahead covers this case).
        let sequential = self
            .cur_line
            .map(|prev| prev.next() == line)
            .unwrap_or(false);

        let pline = page_table.translate_line(line);
        let out = mem.fetch_instr(line, pline, self.now);

        let tlb_part = if out.tlb_miss { itlb_walk } else { 0 };
        let cache_part = out.latency.saturating_sub(tlb_part);
        let exposed_cache = if out.l1_miss {
            let beyond_pipeline = cache_part.saturating_sub(l1i_latency);
            if sequential {
                // Sequential miss runs are paced by the fetch-ahead
                // stream, not serialized at full latency; deeper levels
                // stream slower.
                let pace = match out.hit_level {
                    sim_mem::hierarchy::Level::L1 => 0,
                    sim_mem::hierarchy::Level::L2 => self.cfg.seq_pace_l2,
                    sim_mem::hierarchy::Level::Llc => self.cfg.seq_pace_llc,
                    sim_mem::hierarchy::Level::Memory => self.cfg.seq_pace_mem,
                };
                beyond_pipeline.min(pace)
            } else {
                // Branch-target miss: the decoupled front-end's run-ahead
                // hides part of the latency; the rest is exposed.
                beyond_pipeline.saturating_sub(self.cfg.resteer_hide)
            }
        } else {
            0
        };
        let stall = exposed_cache + tlb_part;
        if stall > 0 {
            let level = match out.hit_level {
                sim_mem::hierarchy::Level::L1 => 0,
                sim_mem::hierarchy::Level::L2 => 1,
                sim_mem::hierarchy::Level::Llc => 2,
                sim_mem::hierarchy::Level::Memory => 3,
            };
            self.mark(SpanKind::FetchStall, self.now, stall, pline, level);
        }
        self.advance(stall, &mut td.fetch_latency);

        let observation = FetchObservation {
            vline: line,
            l1_miss: out.l1_miss,
            l2_miss: out.l2_miss,
            l2_prefetch_first_use: out.l2_prefetch_first_use,
            now: self.now,
        };
        let mut issuer = PrefetchIssuer::resume(mem, page_table, pf_state, self.now);
        prefetcher.on_fetch(&observation, &mut issuer);
        issuer.into_state()
    }

    /// Charges an exposed data miss with MLP: misses overlapping an
    /// outstanding miss shadow are free; an isolated miss pays its latency
    /// minus what the out-of-order window hides.
    fn charge_data_miss(&mut self, latency: u64, td: &mut TopDown) {
        let completion = self.now + latency;
        if self.now < self.data_shadow_end {
            self.data_shadow_end = self.data_shadow_end.max(completion);
            return;
        }
        let exposed = latency.saturating_sub(self.cfg.oo_hide_cycles);
        self.advance(exposed, &mut td.backend);
        self.data_shadow_end = completion;
    }

    fn advance(&mut self, cycles: u64, bucket: &mut f64) {
        self.now += cycles;
        *bucket += cycles as f64;
    }

    fn advance_frac(&mut self, cycles: f64, bucket: &mut f64) {
        *bucket += cycles;
        self.frac += cycles;
        // Below one whole cycle the clock does not move (the floor is 0),
        // which is the common case for per-instruction fractions.
        if (0.0..1.0).contains(&self.frac) {
            return;
        }
        let (whole, whole_cycles) = split_whole(self.frac);
        self.now += whole_cycles;
        self.frac -= whole;
    }
}

/// `(x.floor(), x.floor() as u64)`, without the libm call for the values
/// the clock sees.
///
/// Per-instruction fractions are below one cycle, so a running fraction
/// that reaches a whole cycle is almost always below two, where the floor
/// is 1. For `2 <= x < 2^63` the truncating cast to `i64` is exact and
/// rounds toward zero, which is the floor of a positive value; the whole
/// part of an `f64` is itself an `f64`, so casting it back loses nothing,
/// and a positive `i64` casts to the same `u64` as the float would.
/// Anything else takes `floor` itself: values below one (which
/// `Core::advance_frac` never passes) and negative, NaN, infinite or huge
/// values (which only a bad configuration produces), so every input
/// behaves exactly as before.
fn split_whole(x: f64) -> (f64, u64) {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if (1.0..2.0).contains(&x) {
        (1.0, 1)
    } else if (2.0..TWO_POW_63).contains(&x) {
        let whole = x as i64;
        (whole as f64, whole as u64)
    } else {
        let whole = x.floor();
        (whole, whole as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BranchKind;
    use luke_common::addr::VirtAddr;
    use sim_mem::config::HierarchyConfig;
    use sim_mem::prefetch::NoPrefetcher;

    fn setup() -> (Core, MemoryHierarchy, PageTable) {
        (
            Core::new(CoreConfig::skylake_like()),
            MemoryHierarchy::new(HierarchyConfig::skylake_like()),
            PageTable::new(0),
        )
    }

    fn straightline(base: u64, n: u64) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::alu(VirtAddr::new(base + i * 4), 4))
            .collect()
    }

    #[test]
    fn retires_all_instructions() {
        let (mut core, mut mem, mut pt) = setup();
        let r = core.run_invocation(
            straightline(0x1000, 64),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        assert_eq!(r.instructions, 64);
        assert!(r.cycles >= 16, "at least instructions/width cycles");
        assert!(r.topdown.retiring > 0.0);
    }

    #[test]
    fn second_run_is_faster_warm() {
        let (mut core, mut mem, mut pt) = setup();
        let cold = core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        let warm = core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        assert!(warm.cycles < cold.cycles);
        assert!(warm.topdown.fetch_latency < cold.topdown.fetch_latency);
    }

    #[test]
    fn flush_restores_cold_behaviour() {
        let (mut core, mut mem, mut pt) = setup();
        let cold = core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        core.flush_microarch();
        mem.flush_all();
        let lukewarm = core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        // Within noise, a flushed run costs as much as the cold run.
        let ratio = lukewarm.cycles as f64 / cold.cycles as f64;
        assert!(ratio > 0.8, "flushed run should be cold-ish, ratio {ratio}");
    }

    #[test]
    fn mispredicts_charge_bad_speculation() {
        let (mut core, mut mem, mut pt) = setup();
        // A data-dependent, alternating branch pattern the cold bimodal
        // tables will mispredict at least sometimes on first sight.
        let mut trace = Vec::new();
        for i in 0..64u64 {
            let pc = VirtAddr::new(0x1000 + i * 64); // distinct PCs
            trace.push(Instr::branch(
                pc,
                2,
                BranchKind::Conditional,
                i % 2 == 0,
                VirtAddr::new(0x1000 + i * 64 + 32),
            ));
        }
        let r = core.run_invocation(trace, &mut mem, &mut pt, &mut NoPrefetcher);
        assert!(r.stats.mispredicts > 0);
        assert!(r.topdown.bad_speculation > 0.0);
    }

    #[test]
    fn taken_branches_charge_fetch_bandwidth() {
        let (mut core, mut mem, mut pt) = setup();
        let mut trace = Vec::new();
        for i in 0..32u64 {
            let pc = VirtAddr::new(0x1000 + i * 128);
            let target = VirtAddr::new(0x1000 + (i + 1) * 128);
            trace.push(Instr::branch(
                pc,
                2,
                BranchKind::Unconditional,
                true,
                target,
            ));
        }
        let r = core.run_invocation(trace, &mut mem, &mut pt, &mut NoPrefetcher);
        assert_eq!(r.stats.taken_branches, 32);
        assert!(r.topdown.fetch_bandwidth > 0.0);
    }

    #[test]
    fn loads_can_charge_backend() {
        let (mut core, mut mem, mut pt) = setup();
        let mut trace = Vec::new();
        for i in 0..32u64 {
            // Strided far apart so every load misses; spaced in PC so the
            // fetches stay cheap after warm-up.
            trace.push(Instr::load(
                VirtAddr::new(0x1000 + i * 4),
                4,
                VirtAddr::new(0x10_0000 + i * 65536),
            ));
            // Spacer ALU work so loads do not all overlap.
            for j in 0..16u64 {
                trace.push(Instr::alu(VirtAddr::new(0x2000 + (i * 16 + j) * 4), 4));
            }
        }
        let r = core.run_invocation(trace, &mut mem, &mut pt, &mut NoPrefetcher);
        assert!(r.stats.loads == 32);
        assert!(r.topdown.backend > 0.0);
    }

    #[test]
    fn mlp_overlap_hides_clustered_misses() {
        let (mut core_a, mut mem_a, mut pt_a) = setup();
        let (mut core_b, mut mem_b, mut pt_b) = setup();

        // Clustered: 16 misses back-to-back (they overlap in the shadow).
        let clustered: Vec<Instr> = (0..16u64)
            .map(|i| {
                Instr::load(
                    VirtAddr::new(0x1000 + i * 4),
                    4,
                    VirtAddr::new(0x100_0000 + i * 65536),
                )
            })
            .collect();
        // Spread: same 16 misses separated by long ALU runs.
        let mut spread = Vec::new();
        for i in 0..16u64 {
            spread.push(Instr::load(
                VirtAddr::new(0x1000 + i * 4),
                4,
                VirtAddr::new(0x100_0000 + i * 65536),
            ));
            for j in 0..400u64 {
                spread.push(Instr::alu(VirtAddr::new(0x8000 + (j % 64) * 4), 4));
            }
        }

        let a = core_a.run_invocation(clustered, &mut mem_a, &mut pt_a, &mut NoPrefetcher);
        let b = core_b.run_invocation(spread, &mut mem_b, &mut pt_b, &mut NoPrefetcher);
        assert!(
            a.topdown.backend < b.topdown.backend,
            "clustered misses ({}) should overlap more than spread ones ({})",
            a.topdown.backend,
            b.topdown.backend
        );
    }

    #[test]
    fn straddling_instruction_fetches_both_lines() {
        let (mut core, mut mem, mut pt) = setup();
        // One instruction whose bytes straddle a line boundary.
        let trace = vec![Instr::alu(VirtAddr::new(0x103e), 4)];
        let r = core.run_invocation(trace, &mut mem, &mut pt, &mut NoPrefetcher);
        assert_eq!(r.stats.line_fetches, 2);
    }

    #[test]
    fn topdown_total_matches_cycle_count() {
        let (mut core, mut mem, mut pt) = setup();
        let r = core.run_invocation(
            straightline(0x1000, 1000),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        let total = r.topdown.total();
        let diff = (total - r.cycles as f64).abs();
        assert!(
            diff <= 1.5,
            "attributed {total} vs counted {} cycles",
            r.cycles
        );
    }

    #[test]
    fn lifetime_counters_accumulate() {
        let (mut core, mut mem, mut pt) = setup();
        core.run_invocation(
            straightline(0x1000, 100),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        core.run_invocation(
            straightline(0x1000, 100),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        assert_eq!(core.lifetime_instructions(), 200);
        assert!(core.lifetime_topdown().total() > 0.0);
        assert!(core.now() > 0);
    }

    #[test]
    fn span_tracing_captures_lifecycle() {
        let (mut core, mut mem, mut pt) = setup();
        core.set_span_capacity(1024);
        // A warm-up invocation first, so the traced one starts at a
        // nonzero cycle and its times must be relative to dispatch.
        core.run_invocation(
            straightline(0x9000, 16),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        core.take_spans();
        let r = core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        let spans = core.take_spans();
        assert!(r.start_cycle > 0);
        let dispatch = spans.first().unwrap();
        assert_eq!(dispatch.kind, SpanKind::Dispatch);
        assert_eq!((dispatch.id, dispatch.start_us, dispatch.a), (0, 0, 1));
        let retire = spans.last().unwrap();
        assert_eq!(retire.kind, SpanKind::Retire);
        assert_eq!(retire.a, r.instructions);
        assert_eq!(retire.b, r.cycles);
        assert_eq!(retire.start_us, r.cycles);
        // One lane (the invocation index), every child under the root.
        assert!(spans.iter().all(|s| s.trace == 1 && s.parent == 0));
        // A cold 256-instruction run must expose at least one fetch stall.
        assert!(spans.iter().any(|s| s.kind == SpanKind::FetchStall));
        // Times are monotone, and ids count up from the root.
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert!(spans.iter().enumerate().all(|(i, s)| s.id as usize == i));
    }

    #[test]
    fn tracing_disabled_by_default_and_costless() {
        let (mut core, mut mem, mut pt) = setup();
        core.run_invocation(
            straightline(0x1000, 256),
            &mut mem,
            &mut pt,
            &mut NoPrefetcher,
        );
        assert!(core.spans().is_empty());
        assert_eq!(core.spans().total_recorded(), 0);
    }

    /// `advance_frac` as it was: a libm `floor` on every call.
    fn floor_advance(now: &mut u64, frac: &mut f64, cycles: f64) {
        *frac += cycles;
        let whole = frac.floor();
        *now += whole as u64;
        *frac -= whole;
    }

    fn assert_split_is_floor(x: f64) {
        let (whole, cycles) = split_whole(x);
        assert_eq!(whole.to_bits(), x.floor().to_bits(), "whole part of {x}");
        assert_eq!(cycles, x.floor() as u64, "whole cycles of {x}");
    }

    #[test]
    fn split_whole_matches_floor_at_the_edges() {
        let p = |e: i32| 2f64.powi(e);
        for x in [
            0.0,
            -0.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2.0 - f64::EPSILON,
            2.0,
            7.999,
            p(52) + 0.5,
            p(53),
            p(63) - 1024.0,
            p(63),
            p(64),
            1e300,
            f64::MAX,
            f64::INFINITY,
            -0.5,
            -3.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_split_is_floor(x);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn split_whole_matches_floor(unit in 0.0f64..1.0, exponent in 0i32..70) {
            assert_split_is_floor(unit * 2f64.powi(exponent));
        }

        #[test]
        fn advance_frac_matches_the_floor_form(
            steps in proptest::collection::vec((0.0f64..1.0, 0usize..5), 1..500),
        ) {
            let mut core = Core::new(CoreConfig::skylake_like());
            let (mut now, mut frac, mut bucket) = (0u64, 0.0f64, 0.0f64);
            for &(unit, kind) in &steps {
                // The configured per-instruction and per-branch fractions,
                // or a random amount at one of a few magnitudes.
                let cycles = match kind {
                    0 => [0.25, 0.35, 0.4, 6.0][(unit * 4.0) as usize],
                    k => unit * [1.0, 2.0, 8.0, 1e6][k - 1],
                };
                core.advance_frac(cycles, &mut bucket);
                floor_advance(&mut now, &mut frac, cycles);
                proptest::prop_assert_eq!(core.now, now);
                proptest::prop_assert_eq!(core.frac.to_bits(), frac.to_bits());
            }
        }
    }

    #[test]
    fn cpi_computation() {
        let r = InvocationResult {
            cycles: 500,
            instructions: 250,
            topdown: TopDown::default(),
            stats: CoreStats::default(),
            prefetch: IssueCounters::default(),
            start_cycle: 0,
        };
        assert_eq!(r.cpi(), 2.0);
    }
}
