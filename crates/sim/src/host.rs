//! A multi-instance serverless host: many warm function instances
//! time-sharing **one core and one cache hierarchy**, with interleaving
//! arising naturally from their execution — no artificial flushing.
//!
//! This is the ground truth the paper's simulated baseline approximates:
//! §5.2 *models* a high degree of interleaving by flushing all
//! microarchitectural state between invocations. Here, the other
//! instances' invocations themselves obliterate the state, exactly as on
//! a real host (§2.2). The [`host_interleaving`] experiment uses this to
//! validate the flush model against true interleaving.
//!
//! Per-instance Jukebox state is managed through the OS model
//! ([`jukebox::os::JukeboxRuntime`]), mirroring §3.4.1's `task_struct`
//! bookkeeping: at dispatch, the scheduler hands the instance's metadata
//! registers to the core.
//!
//! [`host_interleaving`]: crate::experiments::host_interleaving

use crate::config::SystemConfig;
use crate::system::{pipelines, run_traced};
use jukebox::os::JukeboxRuntime;
use luke_common::SimError;
use sim_cpu::Core;
use sim_mem::prefetch::NoPrefetcher;
use sim_mem::{MemoryHierarchy, PageTable};
use workloads::{FunctionProfile, SyntheticFunction};

/// Per-instance accumulated statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Invocations served.
    pub invocations: u64,
    /// Total cycles across this instance's invocations.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
}

impl InstanceStats {
    /// Mean cycles per instruction across this instance's invocations,
    /// or `None` if no instructions retired — a 0/0 here used to come
    /// back as `0.0`, which silently skewed downstream geomeans.
    /// Callers that need a sentinel use `.unwrap_or(f64::NAN)`, matching
    /// the `RunSummary::try_speedup_over` convention.
    pub fn cpi(&self) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(self.cycles as f64 / self.instructions as f64)
        }
    }
}

struct Instance {
    function: SyntheticFunction,
    page_table: PageTable,
    next_invocation: u64,
    stats: InstanceStats,
}

/// The host (see module docs).
pub struct HostSim {
    core: Core,
    mem: MemoryHierarchy,
    instances: Vec<Instance>,
    jukebox: Option<JukeboxRuntime>,
}

impl HostSim {
    /// Creates a host running one warm instance per profile. When
    /// `jukebox_enabled`, every instance is registered with the Jukebox
    /// OS runtime (32KB of metadata each, §3.4.1).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty. Use [`HostSim::try_new`] to get an
    /// error instead.
    pub fn new(config: SystemConfig, profiles: &[FunctionProfile], jukebox_enabled: bool) -> Self {
        match Self::try_new(config, profiles, jukebox_enabled) {
            Ok(host) => host,
            Err(e) => panic!("host needs at least one instance: {e}"),
        }
    }

    /// Creates a host, returning an error instead of panicking when
    /// `profiles` is empty (matching the `InstancePool::try_new`
    /// pattern; the CLI maps this to its invalid-config exit code).
    pub fn try_new(
        config: SystemConfig,
        profiles: &[FunctionProfile],
        jukebox_enabled: bool,
    ) -> Result<Self, SimError> {
        if profiles.is_empty() {
            return Err(SimError::invalid_config(
                "host.profiles",
                "a host needs at least one warm instance",
            ));
        }
        let instances = profiles
            .iter()
            .enumerate()
            .map(|(pid, p)| Instance {
                function: SyntheticFunction::build(p),
                // Distinct address spaces: each instance is a process.
                page_table: PageTable::new(pid as u64 + 1),
                next_invocation: 0,
                stats: InstanceStats::default(),
            })
            .collect();
        let jukebox = jukebox_enabled.then(|| {
            let mut rt = JukeboxRuntime::new(config.jukebox);
            for pid in 0..profiles.len() as u64 {
                rt.register_instance(pid);
            }
            rt
        });
        Ok(HostSim {
            core: Core::new(config.core),
            mem: MemoryHierarchy::new(config.mem),
            instances,
            jukebox,
        })
    }

    /// Number of warm instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Dispatches one invocation to instance `idx`. All microarchitectural
    /// state is whatever the previously-run invocations left behind —
    /// *that* is the interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn dispatch(&mut self, idx: usize) {
        let pipelined = pipelines(&self.instances[idx].function);
        self.dispatch_as(idx, pipelined);
    }

    /// [`HostSim::dispatch`] on the trace path the caller picks.
    fn dispatch_as(&mut self, idx: usize, pipelined: bool) {
        let instance = &mut self.instances[idx];
        let invocation = instance.next_invocation;
        instance.next_invocation += 1;
        let (core, mem) = (&mut self.core, &mut self.mem);
        let (function, page_table) = (&instance.function, &mut instance.page_table);
        let result = match &mut self.jukebox {
            Some(rt) => {
                let prefetcher = rt
                    .dispatch(idx as u64)
                    .expect("registered and enabled instance");
                run_traced(
                    pipelined, core, mem, page_table, function, invocation, prefetcher,
                )
            }
            None => run_traced(
                pipelined,
                core,
                mem,
                page_table,
                function,
                invocation,
                &mut NoPrefetcher,
            ),
        };
        instance.stats.invocations += 1;
        instance.stats.cycles += result.cycles;
        instance.stats.instructions += result.instructions;
    }

    /// Dispatches a whole schedule of instance indices in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn run_schedule(&mut self, schedule: &[usize]) {
        for &idx in schedule {
            self.dispatch(idx);
        }
    }

    /// Statistics of instance `idx`.
    pub fn stats(&self, idx: usize) -> &InstanceStats {
        &self.instances[idx].stats
    }

    /// Statistics of all instances.
    pub fn all_stats(&self) -> Vec<InstanceStats> {
        self.instances.iter().map(|i| i.stats.clone()).collect()
    }

    /// Resets per-instance statistics (e.g. after a warm-up phase) without
    /// touching any microarchitectural or metadata state.
    pub fn reset_stats(&mut self) {
        for i in &mut self.instances {
            i.stats = InstanceStats::default();
        }
    }

    /// Total metadata bytes currently held by the Jukebox runtime.
    pub fn jukebox_metadata_bytes(&self) -> u64 {
        self.jukebox
            .as_ref()
            .map_or(0, |rt| rt.metadata_bytes_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    fn profiles(n: usize, scale: f64) -> Vec<FunctionProfile> {
        paper_suite()
            .into_iter()
            .take(n)
            .map(|p| p.scaled(scale))
            .collect()
    }

    /// A round-robin schedule of `rounds` passes over `n` instances.
    fn round_robin(n: usize, rounds: usize) -> Vec<usize> {
        (0..rounds).flat_map(|_| 0..n).collect()
    }

    #[test]
    fn interleaving_degrades_a_co_run_instance() {
        // Combined co-run footprints must exceed the 1MB L2 for the
        // interleaving to bite; 6 instances at 0.45 scale span ≈1.3MB.
        let scale = 0.45;
        // Solo: instance 0 runs back-to-back.
        let mut solo = HostSim::new(SystemConfig::skylake(), &profiles(1, scale), false);
        solo.run_schedule(&[0, 0]);
        solo.reset_stats();
        solo.run_schedule(&[0]);
        let solo_cpi = solo.stats(0).cpi().expect("instance retired instructions");

        // Co-run: five other instances interleave between its invocations.
        let mut host = HostSim::new(SystemConfig::skylake(), &profiles(6, scale), false);
        host.run_schedule(&round_robin(6, 2));
        host.reset_stats();
        host.run_schedule(&round_robin(6, 1));
        let co_cpi = host.stats(0).cpi().expect("instance retired instructions");

        assert!(
            co_cpi > solo_cpi * 1.1,
            "interleaving should degrade CPI: solo {solo_cpi:.2} vs co-run {co_cpi:.2}"
        );
    }

    #[test]
    fn jukebox_recovers_co_run_performance() {
        let scale = 0.45;
        let p = profiles(6, scale);
        let schedule: Vec<usize> = round_robin(6, 2);

        let mut base = HostSim::new(SystemConfig::skylake(), &p, false);
        base.run_schedule(&schedule);
        base.reset_stats();
        base.run_schedule(&round_robin(6, 1));

        let mut jb = HostSim::new(SystemConfig::skylake(), &p, true);
        jb.run_schedule(&schedule);
        jb.reset_stats();
        jb.run_schedule(&round_robin(6, 1));

        let base_cpi: f64 = base.all_stats().iter().filter_map(InstanceStats::cpi).sum();
        let jb_cpi: f64 = jb.all_stats().iter().filter_map(InstanceStats::cpi).sum();
        assert!(
            jb_cpi < base_cpi * 0.99,
            "jukebox should help under true interleaving: {jb_cpi:.2} vs {base_cpi:.2}"
        );
        assert!(jb.jukebox_metadata_bytes() > 0);
    }

    #[test]
    fn pipelined_and_inline_dispatch_agree() {
        let p = profiles(2, 0.2);
        let run = |pipelined: bool| {
            let mut host = HostSim::new(SystemConfig::skylake(), &p, true);
            for idx in round_robin(2, 2) {
                host.dispatch_as(idx, pipelined);
            }
            (host.all_stats(), host.jukebox_metadata_bytes())
        };
        let inline = run(false);
        assert!(inline.1 > 0);
        assert_eq!(inline, run(true));
    }

    #[test]
    fn stats_track_invocations() {
        let mut host = HostSim::new(SystemConfig::skylake(), &profiles(2, 0.02), false);
        host.run_schedule(&[0, 1, 0]);
        assert_eq!(host.stats(0).invocations, 2);
        assert_eq!(host.stats(1).invocations, 1);
        assert_eq!(host.instance_count(), 2);
        host.reset_stats();
        assert_eq!(host.stats(0).invocations, 0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_host_rejected() {
        HostSim::new(SystemConfig::skylake(), &[], false);
    }

    #[test]
    fn try_new_reports_empty_profiles_without_panicking() {
        let err = match HostSim::try_new(SystemConfig::skylake(), &[], false) {
            Err(e) => e,
            Ok(_) => panic!("empty profile list must be rejected"),
        };
        assert!(format!("{err}").contains("host.profiles"));
        assert_eq!(err.exit_code(), 3, "invalid config maps to exit 3");
        assert!(HostSim::try_new(SystemConfig::skylake(), &profiles(1, 0.02), false).is_ok());
    }

    #[test]
    fn zero_instruction_stats_have_no_cpi() {
        let fresh = InstanceStats::default();
        assert_eq!(fresh.cpi(), None);
        let real = InstanceStats {
            invocations: 1,
            cycles: 300,
            instructions: 200,
        };
        assert_eq!(real.cpi(), Some(1.5));
    }
}
