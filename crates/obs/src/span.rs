//! Causal, hierarchical spans: the one recording mechanism of the stack.
//!
//! A [`Span`] carries a *trace identity* and a *parent*, so one sampled
//! fleet invocation reconstructs as a tree: root invocation span, with
//! children for the routing decision, down-host reconnect backoffs, the
//! admission verdict, each retry attempt's snapshot restore / execution,
//! and the inter-attempt backoffs. The cycle model records its
//! invocation lifecycle with the same record: one lane per invocation,
//! rooted at a [`SpanKind::Dispatch`] mark, with prefetch batches and
//! front-end fetch stalls as children and a closing
//! [`SpanKind::Retire`] mark; those spans count core cycles since
//! dispatch instead of microseconds. Spans are small `Copy` records in a
//! bounded overwrite-oldest [`SpanRing`] (capacity 0 disables it).
//!
//! ## Determinism and exact critical paths
//!
//! All span times are **relative to the invocation's own start** and
//! recorded at *cumulative-offset tick boundaries*: a child covering the
//! invocation's `[from_ms, to_ms)` window gets `start_us = tick(from)`
//! and `dur_us = tick(to) - tick(from)` where `tick(x) = round(x*1000)`.
//! Because the boundaries telescope, the child durations of a root sum
//! to *exactly* the root's own `dur_us` — which is the same rounding the
//! fleet latency histogram applies — so critical-path attribution is
//! exact for every sampled invocation, not approximately so.
//!
//! Trace identities derive from the dispatch index
//! ([`trace_id`]): each hedge copy gets its own lane, so a hedged pair
//! is two trees linked by a Chrome flow event (see
//! [`crate::trace::chrome_trace_spans`]).

/// The fleet hop or core lifecycle stage a [`Span`] covers.
///
/// Kinds 0–7 are fleet hops timed in µs since the invocation's arrival;
/// kinds 8–11 are cycle-model stages timed in core cycles since
/// dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Root span: one invocation end-to-end on one host (one lane of a
    /// hedged pair). `a` = host id, `b` = arrival time in µs since the
    /// run began (for absolute timeline layout).
    Invocation = 0,
    /// The router's placement decision. `a` = chosen host, `b` = 1 when
    /// the breaker walk failed the invocation over from its preferred
    /// host.
    Route = 1,
    /// A hedged duplicate was dispatched. `a` = primary host, `b` =
    /// hedge host.
    Hedge = 2,
    /// A reconnect backoff against a crashed (down) host. `a` = retry
    /// index, `b` = 1 when the wait ended in abandonment.
    Reconnect = 3,
    /// The admission ladder's verdict. `a` = verdict (0 admit,
    /// 1 admit-degraded, 2 shed), `b` = 0.
    Admission = 4,
    /// A snapshot restore / instance spawn for one attempt. `a` =
    /// attempt index, `b` = 1 when the restore was degraded to lazy
    /// paging or failed.
    Restore = 5,
    /// Function execution for one attempt. `a` = attempt index, `b` =
    /// outcome (0 completed, 1 crashed mid-run, 2 timed out).
    Execute = 6,
    /// Inter-attempt retry backoff. `a` = attempt index, `b` = 0.
    Backoff = 7,
    /// Cycle model: root mark of one invocation on a core. `a` =
    /// invocation index, `b` = 0.
    Dispatch = 8,
    /// Cycle model: a prefetcher issued a batch of lines at dispatch.
    /// `a` = lines issued, `b` = redundant (already-cached) issues.
    PrefetchBatch = 9,
    /// Cycle model: the front-end stalled waiting on an instruction line
    /// for `dur_us` cycles. `a` = physical line number, `b` = hit level
    /// (0 = L1, 1 = L2, 2 = LLC, 3 = memory).
    FetchStall = 10,
    /// Cycle model: the invocation retired. `a` = instructions retired,
    /// `b` = cycles.
    Retire = 11,
}

/// Every span kind, in discriminant order.
pub const SPAN_KINDS: [SpanKind; 12] = [
    SpanKind::Invocation,
    SpanKind::Route,
    SpanKind::Hedge,
    SpanKind::Reconnect,
    SpanKind::Admission,
    SpanKind::Restore,
    SpanKind::Execute,
    SpanKind::Backoff,
    SpanKind::Dispatch,
    SpanKind::PrefetchBatch,
    SpanKind::FetchStall,
    SpanKind::Retire,
];

impl SpanKind {
    /// Stable lowercase label (used by the exporters and the CLI
    /// waterfall).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Invocation => "invocation",
            SpanKind::Route => "route",
            SpanKind::Hedge => "hedge",
            SpanKind::Reconnect => "reconnect",
            SpanKind::Admission => "admission",
            SpanKind::Restore => "restore",
            SpanKind::Execute => "execute",
            SpanKind::Backoff => "backoff",
            SpanKind::Dispatch => "dispatch",
            SpanKind::PrefetchBatch => "prefetch_batch",
            SpanKind::FetchStall => "fetch_stall",
            SpanKind::Retire => "retire",
        }
    }

    /// The kind with discriminant `index`, if any (inverse of `as u8`;
    /// used when reconstructing spans from exported rows).
    pub fn from_index(index: u64) -> Option<SpanKind> {
        SPAN_KINDS.get(index as usize).copied()
    }
}

/// The trace lane for one dispatched copy of an invocation: each hedge
/// copy of a dispatch gets its own root span on its own lane, so the
/// pair never shares a span tree. [`dispatch_of`] inverts this; Chrome
/// flow events pair the lanes back up by dispatch index.
pub fn trace_id(dispatch: u64, hedge: bool) -> u64 {
    dispatch * 2 + u64::from(hedge)
}

/// The dispatch index a trace lane belongs to.
pub fn dispatch_of(trace: u64) -> u64 {
    trace / 2
}

/// Whether a trace lane is the hedged duplicate of its dispatch.
pub fn is_hedge_lane(trace: u64) -> bool {
    trace % 2 == 1
}

/// The tick boundary for a relative time in milliseconds: microseconds,
/// rounded exactly the way the fleet latency histogram rounds recorded
/// latencies. All span starts and ends land on tick boundaries so
/// sibling durations telescope without rounding drift.
pub fn tick_us(at_ms: f64) -> u64 {
    (at_ms * 1000.0).round() as u64
}

/// One hop or stage of a traced invocation. `Copy` and fixed-size, so a
/// span is stored inline in its ring's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Trace lane ([`trace_id`]) this span belongs to.
    pub trace: u64,
    /// Span id, unique within the trace. The root is always id 0;
    /// route-phase spans use ids 1–3; host-side children count up
    /// from 4.
    pub id: u32,
    /// Parent span id (the root points at itself).
    pub parent: u32,
    /// What this hop is.
    pub kind: SpanKind,
    /// Start tick *relative to the invocation's start*: µs for fleet
    /// kinds, core cycles for cycle-model kinds.
    pub start_us: u64,
    /// Duration in the same unit (0 for instantaneous marks).
    pub dur_us: u64,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word (meaning depends on `kind`).
    pub b: u64,
}

/// A bounded ring buffer of [`Span`]s that overwrites the oldest entry
/// once full. Capacity 0 (the default) disables recording entirely.
#[derive(Clone, Debug, Default)]
pub struct SpanRing {
    buf: Vec<Span>,
    cap: usize,
    head: usize,
    total: u64,
}

impl SpanRing {
    /// A ring that keeps the most recent `capacity` spans. The buffer
    /// grows lazily as spans arrive, so a generous capacity bound costs
    /// nothing until sampling actually records.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRing {
            buf: Vec::new(),
            cap: capacity,
            head: 0,
            total: 0,
        }
    }

    /// A ring that records nothing (capacity 0).
    pub fn disabled() -> Self {
        SpanRing::default()
    }

    /// Whether this ring records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total spans ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Records a span (no-op when capacity is 0).
    #[inline]
    pub fn record(&mut self, span: Span) {
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Discards all held spans (capacity is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }

    /// The held spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap && self.cap > 0 {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Drains the held spans (oldest first), leaving the ring empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        let out = self.spans();
        self.clear();
        out
    }
}

/// A recording cursor for one sampled invocation on one trace lane:
/// hands out child span ids, anchors relative time at the invocation's
/// start, and records into a borrowed [`SpanRing`]. All methods are
/// no-ops against a disabled ring, so the hot path stays branch-cheap
/// when sampling is off.
#[derive(Debug)]
pub struct SpanScope<'a> {
    ring: &'a mut SpanRing,
    trace: u64,
    next_id: u32,
    /// Parent id children attach to (the root span, id 0).
    parent: u32,
}

impl<'a> SpanScope<'a> {
    /// A scope for trace lane `trace`, with host-side child ids starting
    /// at `first_id` (route-phase spans own the ids below it).
    pub fn new(ring: &'a mut SpanRing, trace: u64, first_id: u32) -> Self {
        SpanScope {
            ring,
            trace,
            next_id: first_id,
            parent: 0,
        }
    }

    /// Whether this scope actually records (sampled invocation, ring
    /// enabled).
    pub fn is_enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    /// The trace lane this scope records onto.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Records a child span covering the invocation-relative window
    /// `[from_ms, to_ms)`, at tick boundaries so siblings telescope.
    pub fn child(&mut self, kind: SpanKind, from_ms: f64, to_ms: f64, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        let start_us = tick_us(from_ms);
        let end_us = tick_us(to_ms);
        let id = self.next_id;
        self.next_id += 1;
        self.ring.record(Span {
            trace: self.trace,
            id,
            parent: self.parent,
            kind,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            a,
            b,
        });
    }

    /// Records an instantaneous child span at `at_ms`.
    pub fn instant(&mut self, kind: SpanKind, at_ms: f64, a: u64, b: u64) {
        self.child(kind, at_ms, at_ms, a, b);
    }

    /// Records the root invocation span: start 0, duration `total_ms`
    /// ticked with the same rounding the latency histogram applies, so
    /// the root duration equals the recorded latency exactly.
    pub fn root(&mut self, total_ms: f64, host: u64, arrival_us: u64) {
        if !self.is_enabled() {
            return;
        }
        self.ring.record(Span {
            trace: self.trace,
            id: 0,
            parent: 0,
            kind: SpanKind::Invocation,
            start_us: 0,
            dur_us: tick_us(total_ms),
            a: host,
            b: arrival_us,
        });
    }
}

/// Orders spans canonically (by trace lane, then span id) so a merge
/// from any sharding reproduces the same byte sequence.
pub fn sort_canonical(spans: &mut [Span]) {
    spans.sort_by_key(|s| (s.trace, s.id));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u32) -> Span {
        Span {
            trace,
            id,
            parent: 0,
            kind: SpanKind::Execute,
            start_us: 0,
            dur_us: 1,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn trace_lanes_are_invertible() {
        for dispatch in [0u64, 1, 7, 1 << 40] {
            for hedge in [false, true] {
                let t = trace_id(dispatch, hedge);
                assert_eq!(dispatch_of(t), dispatch);
                assert_eq!(is_hedge_lane(t), hedge);
            }
        }
    }

    #[test]
    fn tick_boundaries_telescope() {
        // Sibling windows [a,b) and [b,c) share the boundary tick(b), so
        // their durations sum to tick(c) - tick(a) for any float inputs.
        let (a, b, c) = (0.0, 0.1234567, 9.87654);
        let first = tick_us(b) - tick_us(a);
        let second = tick_us(c) - tick_us(b);
        assert_eq!(first + second, tick_us(c) - tick_us(a));
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = SpanRing::disabled();
        ring.record(span(0, 1));
        assert!(ring.is_empty());
        assert!(!ring.is_enabled());
        let mut scope = SpanScope::new(&mut ring, 4, 4);
        scope.child(SpanKind::Execute, 0.0, 1.0, 0, 0);
        scope.root(1.0, 0, 0);
        assert!(!scope.is_enabled());
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = SpanRing::with_capacity(3);
        for id in 0..5 {
            ring.record(span(0, id));
        }
        let held: Vec<u32> = ring.spans().iter().map(|s| s.id).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert_eq!(ring.total_recorded(), 5);
    }

    #[test]
    fn scope_assigns_increasing_ids_and_exact_root() {
        let mut ring = SpanRing::with_capacity(16);
        let mut scope = SpanScope::new(&mut ring, 6, 4);
        scope.child(SpanKind::Restore, 0.0, 2.5, 0, 0);
        scope.child(SpanKind::Execute, 2.5, 7.75, 0, 0);
        scope.instant(SpanKind::Admission, 0.0, 0, 0);
        scope.root(7.75, 3, 123);
        let spans = ring.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].id, 4);
        assert_eq!(spans[1].id, 5);
        assert_eq!(spans[2].id, 6);
        assert_eq!(spans[2].dur_us, 0);
        let root = spans[3];
        assert_eq!(root.id, 0);
        assert_eq!(root.kind, SpanKind::Invocation);
        assert_eq!(root.dur_us, 7750);
        // The durational children telescope to exactly the root.
        let sum: u64 = spans[..2].iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, root.dur_us);
    }

    #[test]
    fn canonical_sort_is_merge_order_independent() {
        let mut a = SpanRing::with_capacity(8);
        a.record(span(2, 0));
        a.record(span(2, 4));
        let mut b = SpanRing::with_capacity(8);
        b.record(span(0, 0));
        let mut left = [a.spans(), b.spans()].concat();
        let mut right = [b.spans(), a.spans()].concat();
        sort_canonical(&mut left);
        sort_canonical(&mut right);
        assert_eq!(left, right);
        assert_eq!(left[0].trace, 0);
        assert_eq!(left[1].trace, 2);
    }

    #[test]
    fn labels_and_indices_round_trip() {
        for (i, kind) in SPAN_KINDS.iter().enumerate() {
            assert_eq!(SpanKind::from_index(i as u64), Some(*kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(SpanKind::from_index(99), None);
    }
}
