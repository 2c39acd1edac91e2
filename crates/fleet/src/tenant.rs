//! Per-host tenancy state: the shared-page store, the contention
//! model, and the registration ledger tying them to the host's live
//! instances.
//!
//! A host owns exactly one [`HostTenancy`] when any tenancy knob is on
//! (`None` otherwise — the disabled feature takes the exact pre-tenancy
//! code path). The host keeps the store and its instance lifecycle in
//! lock-step: every spawn registers the function's page layout
//! (dedup-aware when enabled), every expiry/eviction of a warm instance
//! releases it, and a whole-host crash wipes the resident set the way
//! it wipes the pool. The pool is the ledger of what is registered (a
//! function's pages are registered exactly while it has a warm
//! instance), so the wrapper keeps no per-function state of its own.
//! All state is host-local, so fleet runs stay bit-identical across
//! thread counts.

use luke_tenancy::{ContentionModel, FunctionLayout, SharedPageStore, TenancyConfig};
use std::sync::{Arc, OnceLock};

use crate::config::FleetConfig;

/// The paper suite's page layouts, built once per process and shared
/// read-only by every host: the suite is fixed, so a fleet of any size
/// holds one table, and every host's store sizes its refcount columns
/// from it.
fn suite_layouts() -> Arc<[FunctionLayout]> {
    static TABLE: OnceLock<Arc<[FunctionLayout]>> = OnceLock::new();
    Arc::clone(TABLE.get_or_init(|| {
        workloads::paper_suite()
            .iter()
            .map(FunctionLayout::for_profile)
            .collect()
    }))
}

/// One host's tenancy state (see module docs).
#[derive(Clone, Debug)]
pub struct HostTenancy {
    /// Page layout per suite profile (`function % layouts.len()`),
    /// shared by every host.
    layouts: Arc<[FunctionLayout]>,
    /// The host's content-addressed page store.
    store: SharedPageStore,
    /// Pressure-to-slowdown curve (present only when contention is on).
    contention: Option<ContentionModel>,
    /// Whether shared pages dedupe (off: every page charged private).
    dedup: bool,
    /// Fraction of library pages dirtied at startup (COW-broken).
    cow_dirty_fraction: f64,
    /// Accumulated contention-added latency, ms.
    extra_ms: f64,
    /// Invocations that ran with a slowdown factor above 1.
    slowed: u64,
}

impl HostTenancy {
    /// Builds the host's tenancy state, or `None` when every knob is
    /// off — the `None` path must stay bit-transparent, so the wrapper
    /// simply doesn't exist for a disabled config.
    pub fn new(config: &FleetConfig) -> Option<Self> {
        if !config.tenancy.enabled() {
            return None;
        }
        let TenancyConfig {
            dedup,
            cow_dirty_fraction,
            contention,
        } = config.tenancy;
        let layouts = suite_layouts();
        Some(HostTenancy {
            store: SharedPageStore::new(),
            layouts,
            contention: contention
                .enabled()
                .then(|| ContentionModel::new(&contention)),
            dedup,
            cow_dirty_fraction,
            extra_ms: 0.0,
            slowed: 0,
        })
    }

    /// The page layout backing logical function `function`.
    fn layout_of(&self, function: usize) -> &FunctionLayout {
        &self.layouts[function % self.layouts.len()]
    }

    /// Shareable pages of `function`'s layout already resident on this
    /// host — the pages a restore doesn't have to bring back. Always 0
    /// with dedup off (nothing registers as shared).
    pub fn resident_pages(&self, function: usize) -> usize {
        if !self.dedup {
            return 0;
        }
        self.store.resident_shared(self.layout_of(function)) as usize
    }

    /// Registers `function`'s pages for its freshly-spawned instance
    /// and returns the memory-accounting weight: the fraction of its
    /// footprint this host actually materialized after dedup.
    pub fn register(&mut self, function: usize) -> f64 {
        let layout = *self.layout_of(function);
        let registration = self
            .store
            .register(&layout, self.dedup, self.cow_dirty_fraction);
        registration.weight
    }

    /// Releases `function`'s registration (its instance expired or was
    /// evicted). The caller releases only a function it registered and
    /// has not released since — a fleet host releases exactly when its
    /// pool retires a warm instance.
    pub fn release(&mut self, function: usize) {
        let layout = *self.layout_of(function);
        self.store
            .release(&layout, self.dedup, self.cow_dirty_fraction);
    }

    /// Wipes the resident set after a whole-host crash — everything the
    /// pool lost, the store loses too. Cumulative counters survive.
    pub fn clear_resident(&mut self) {
        self.store.clear_resident();
    }

    /// The contention slowdown factor in force right now (1.0 with
    /// contention off or pressure under the knee).
    pub fn slowdown(&self) -> f64 {
        self.contention
            .as_ref()
            .map_or(1.0, |model| model.slowdown(self.store.resident_bytes()))
    }

    /// Charges the bookkeeping for one invocation that ran under
    /// `slowdown`, which added `extra_ms` to its critical path.
    pub fn note_slowed(&mut self, extra_ms: f64) {
        self.extra_ms += extra_ms;
        self.slowed += 1;
    }

    /// Distinct shared pages ever registered.
    pub fn shared_pages(&self) -> u64 {
        self.store.shared_pages()
    }

    /// Shared-page registrations that hit an already-resident page.
    pub fn dedup_hits(&self) -> u64 {
        self.store.dedup_hits()
    }

    /// Bytes dedup avoided materializing (hits × page size).
    pub fn dedup_bytes_saved(&self) -> u64 {
        self.store.dedup_bytes_saved()
    }

    /// Shared-page hit rate over all shared registrations.
    pub fn hit_rate(&self) -> f64 {
        self.store.hit_rate()
    }

    /// Bytes currently resident (shared once + private per instance).
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    /// Total contention-added latency, ms.
    pub fn extra_ms(&self) -> f64 {
        self.extra_ms
    }

    /// Invocations that ran slowed (factor above 1).
    pub fn slowed(&self) -> u64 {
        self.slowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_tenancy::ContentionConfig;

    fn enabled_config() -> FleetConfig {
        FleetConfig {
            population: 8,
            tenancy: TenancyConfig::default_enabled(),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn disabled_config_builds_no_state() {
        assert!(HostTenancy::new(&FleetConfig::default()).is_none());
        assert!(HostTenancy::new(&enabled_config()).is_some());
    }

    #[test]
    fn hosts_share_one_suite_layout_table() {
        let a = HostTenancy::new(&enabled_config()).unwrap();
        let b = HostTenancy::new(&enabled_config()).unwrap();
        assert!(Arc::ptr_eq(&a.layouts, &b.layouts));
        assert_eq!(a.layouts.len(), workloads::paper_suite().len());
    }

    #[test]
    fn register_release_round_trips_the_resident_set() {
        let mut tenancy = HostTenancy::new(&enabled_config()).unwrap();
        assert_eq!(tenancy.resident_pages(0), 0);
        let w0 = tenancy.register(0);
        assert!(w0 > 0.0 && w0 <= 1.0);
        // A second function in the same language now finds that
        // language's runtime pages resident.
        let other = (0..8)
            .find(|&f| {
                f != 0
                    && tenancy.layout_of(f).language == tenancy.layout_of(0).language
                    && f % tenancy.layouts.len() != 0
            })
            .expect("suite has co-language functions");
        assert!(tenancy.resident_pages(other) > 0);
        let w1 = tenancy.register(other);
        assert!(w1 < 1.0, "dedup must shrink the second weight: {w1}");
        tenancy.release(other);
        tenancy.release(0);
        assert_eq!(tenancy.resident_bytes(), 0);
    }

    #[test]
    fn crash_wipe_clears_residency_but_keeps_counters() {
        let mut tenancy = HostTenancy::new(&enabled_config()).unwrap();
        tenancy.register(0);
        tenancy.register(1);
        let shared = tenancy.shared_pages();
        assert!(shared > 0);
        tenancy.clear_resident();
        assert_eq!(tenancy.resident_bytes(), 0);
        assert_eq!(tenancy.shared_pages(), shared);
        // Re-registering after the wipe starts from cold.
        assert_eq!(tenancy.resident_pages(0), 0);
        tenancy.register(0);
        assert!(tenancy.resident_bytes() > 0);
    }

    #[test]
    fn contention_slowdown_rises_with_registered_load() {
        let config = FleetConfig {
            population: 8,
            tenancy: TenancyConfig {
                contention: ContentionConfig {
                    // Small capacity so a handful of instances crosses
                    // the knee.
                    capacity_bytes: 2 << 20,
                    ..ContentionConfig::default_enabled()
                },
                ..TenancyConfig::default_enabled()
            },
            ..FleetConfig::default()
        };
        let mut tenancy = HostTenancy::new(&config).unwrap();
        assert_eq!(tenancy.slowdown(), 1.0);
        for function in 0..8 {
            tenancy.register(function);
        }
        assert!(tenancy.slowdown() > 1.0, "{}", tenancy.slowdown());
        tenancy.note_slowed(3.5);
        assert_eq!(tenancy.slowed(), 1);
        assert_eq!(tenancy.extra_ms(), 3.5);
    }

    #[test]
    fn dedup_off_still_tracks_pressure_for_contention() {
        let config = FleetConfig {
            population: 8,
            tenancy: TenancyConfig {
                dedup: false,
                ..TenancyConfig::default_enabled()
            },
            ..FleetConfig::default()
        };
        let mut tenancy = HostTenancy::new(&config).unwrap();
        tenancy.register(0);
        assert_eq!(tenancy.resident_pages(0), 0, "no discount with dedup off");
        assert!(tenancy.resident_bytes() > 0, "pressure still accrues");
        assert_eq!(tenancy.dedup_hits(), 0);
    }
}
