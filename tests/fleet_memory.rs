//! A fleet host's memory grows with the functions it sees, not with the
//! population: the only table a host sizes by the population is its
//! `u32` function→slot index.
//!
//! This test binary installs a counting global allocator and builds 64
//! cluster-shaped hosts the way `run_fleet` builds them (one shared
//! admission-priority table; REAP restores, pre-warm, dedup +
//! contention and the `--chaos light` resilience stack), once at
//! population 200 and once at population 20,000. Each host then
//! processes the same short arrival stream, including the highest
//! function id, so a table grown to the highest function seen would
//! show too. The two builds may differ by the slot index alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use lukewarm::fleet::{
    admission_priorities, ChaosConfig, ColdStartModel, ContentionConfig, FleetConfig, FleetHost,
    PrewarmConfig, RoutedInvocation, RoutingPolicy, ServiceModel, TenancyConfig,
};
use lukewarm::workloads::paper_suite;

static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus a live-byte counter.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a plain atomic and never touches the
// allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOSTS: usize = 64;

/// The `fleet-cluster` shape at `population` functions.
fn cluster(population: usize) -> FleetConfig {
    let mut config = FleetConfig {
        hosts: HOSTS,
        invocations: 5_000,
        population,
        policy: RoutingPolicy::PlacementAware,
        cold_start_model: ColdStartModel::ReapPrefetch,
        prewarm: PrewarmConfig::default_enabled(),
        tenancy: TenancyConfig {
            dedup: true,
            contention: ContentionConfig::default_enabled(),
            ..TenancyConfig::disabled()
        },
        ..FleetConfig::default()
    };
    config.enable_resilience(ChaosConfig::light());
    config
}

/// Live heap bytes the built hosts hold after processing the same short
/// stream, with the shared priority table built beforehand and kept out
/// of the count.
fn hosts_heap(config: &FleetConfig, model: &ServiceModel) -> i64 {
    config.validate().expect("cluster config is valid");
    let priorities = admission_priorities(config);
    assert_eq!(priorities.len(), config.population);
    let before = LIVE.load(Ordering::SeqCst);
    let mut hosts: Vec<FleetHost> = (0..HOSTS)
        .map(|id| FleetHost::with_priorities(config, id, &priorities))
        .collect();
    // Functions 0..20 cover every suite profile; the last id has the
    // same profile (`id % 20`) in both populations.
    let last = config.population - 1;
    for (id, host) in hosts.iter_mut().enumerate() {
        for i in 0..40 {
            let function = if i % 8 == 7 { last } else { (id + i) % 20 };
            let routed = RoutedInvocation::new(i as f64 * 150.0, function);
            host.process(config, model, false, routed);
        }
    }
    let held = LIVE.load(Ordering::SeqCst) - before;
    drop(hosts);
    held
}

#[test]
fn host_memory_grows_with_the_slot_index_alone() {
    let model = ServiceModel::analytic(&paper_suite()).expect("analytic model");
    let (small, large) = (200, 20_000);
    let small_heap = hosts_heap(&cluster(small), &model);
    let large_heap = hosts_heap(&cluster(large), &model);
    let slot_index = (4 * (large - small) * HOSTS) as i64;
    assert!(small_heap > 0);
    assert!(
        large_heap - small_heap <= slot_index,
        "population {small} → {large} added {} B over {HOSTS} hosts; the slot \
         index accounts for {slot_index} B",
        large_heap - small_heap
    );
}
