//! The metrics registry: typed counters, gauges and histograms under
//! hierarchical dotted names.
//!
//! A [`Registry`] is plumbed by value through the simulator — no globals,
//! no locks — and read out as a [`Snapshot`]: an immutable view
//! that serializes deterministically (names are `BTreeMap`-ordered, so
//! the same run produces byte-identical JSON/CSV output).

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::{write_f64, write_str};

/// Applies `f` to the metric `name`, created as `V::default()` on first
/// touch. Looking the name up as `&str` first allocates its `String` only
/// when the metric is new, not on every update.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// A mutable collection of named counters (`u64`), gauges (`f64`) and
/// log-bucketed [`Histogram`]s. Metrics are created on first touch.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        update(&mut self.counters, name, |c| *c += delta);
    }

    /// Increments the counter `name` by 1.
    pub fn counter_inc(&mut self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, |g| *g = value);
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into the histogram `name` (creating it empty).
    pub fn hist_record(&mut self, name: &str, value: u64) {
        update(&mut self.hists, name, |h| h.record(value));
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merges a whole [`Histogram`] into the histogram `name`
    /// (creating it empty). Lets a component that kept its own local
    /// histogram publish it without replaying every sample.
    pub fn hist_merge(&mut self, name: &str, hist: &Histogram) {
        update(&mut self.hists, name, |h| h.merge(hist));
    }

    /// Resets every metric (names are forgotten, not zeroed).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// An immutable point-in-time view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// Point-in-time view of a [`Registry`], exportable as JSON or CSV.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Counter value at snapshot time (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value at snapshot time, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram at snapshot time, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counter names in sorted order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All gauge names in sorted order.
    pub fn gauge_names(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(String::as_str)
    }

    /// All histogram names in sorted order.
    pub fn hist_names(&self) -> impl Iterator<Item = &str> {
        self.hists.keys().map(String::as_str)
    }

    /// Deterministic JSON rendering:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,min,max,mean,p50,p90,p99}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&h.count().to_string());
            out.push_str(",\"min\":");
            out.push_str(&h.min().to_string());
            out.push_str(",\"max\":");
            out.push_str(&h.max().to_string());
            out.push_str(",\"mean\":");
            write_f64(&mut out, h.mean());
            out.push_str(",\"p50\":");
            out.push_str(&h.p50().to_string());
            out.push_str(",\"p90\":");
            out.push_str(&h.p90().to_string());
            out.push_str(",\"p99\":");
            out.push_str(&h.p99().to_string());
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// CSV rendering: `kind,name,field,value` rows in deterministic order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
        }
        for (name, h) in &self.hists {
            for (field, val) in [
                ("count", h.count()),
                ("min", h.min()),
                ("max", h.max()),
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
            ] {
                out.push_str(&format!("histogram,{name},{field},{val}\n"));
            }
            out.push_str(&format!("histogram,{name},mean,{}\n", h.mean()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        reg.counter_add("mem.l2.instr.misses", 42);
        reg.counter_inc("run.invocations");
        reg.gauge_set("run.cpi", 1.5);
        reg.hist_record("invocation.cycles", 1000);
        reg.hist_record("invocation.cycles", 2000);
        reg
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = sample();
        assert_eq!(reg.counter("mem.l2.instr.misses"), 42);
        assert_eq!(reg.counter("run.invocations"), 1);
        assert_eq!(reg.counter("never.touched"), 0);
        assert_eq!(reg.gauge("run.cpi"), Some(1.5));
        assert_eq!(reg.hist("invocation.cycles").unwrap().count(), 2);
    }

    #[test]
    fn hist_merge_publishes_local_histogram() {
        let mut local = Histogram::new();
        local.record(5);
        local.record(9);
        let mut reg = Registry::new();
        reg.hist_record("lat", 1);
        reg.hist_merge("lat", &local);
        assert_eq!(reg.hist("lat").unwrap().count(), 3);
        assert_eq!(reg.hist("lat").unwrap().max(), 9);
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let a = sample().snapshot().to_json();
        let b = sample().snapshot().to_json();
        assert_eq!(a, b);
        let v = parse(&a).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("mem.l2.instr.misses")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
        let h = v
            .get("histograms")
            .unwrap()
            .get("invocation.cycles")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn csv_has_header_and_all_metrics() {
        let csv = sample().snapshot().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,mem.l2.instr.misses,value,42\n"));
        assert!(csv.contains("gauge,run.cpi,value,1.5\n"));
        assert!(csv.contains("histogram,invocation.cycles,count,2\n"));
    }
}
