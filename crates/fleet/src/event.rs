//! The calendar-queue event core: one event type, one total order,
//! every timer a host schedules.
//!
//! The fleet loop is a discrete-event simulation in disguise. Arrivals
//! stream out of the traffic generator in canonical order; everything a
//! host does *between* arrivals — keep-alive expiries, adaptive-decay
//! re-checks, scheduled pre-restores — is a timer that must fire at a
//! deterministic point relative to that stream. This module gives all
//! of them one representation ([`FleetEvent`]) and one container
//! ([`CalendarQueue`]): a binary heap of the events themselves, ordered
//! by the total key `(time, kind rank, seq)`.
//!
//! The tie-break is the load-bearing part. `seq` is assigned by the
//! queue at push time, so events at the same instant fire in *schedule*
//! order — a pure function of the event history, never of which worker
//! thread happened to get there first. That is what lets
//! [`run`](crate::run) process host shards on any worker in any order
//! while every observable stays byte-identical to the 1-thread run: each
//! host owns a private `CalendarQueue`, its drains happen at arrival
//! boundaries that are themselves deterministic, and the queue's pop
//! order is a pure function of its push history.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// What a scheduled event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetEventKind {
    /// A scheduled pre-restore firing ahead of a predicted arrival.
    PrewarmTimer,
    /// A keep-alive expiry deadline for one function's live instance.
    KeepAliveExpiry,
    /// An adaptive-decay re-check: prediction tightened a function's
    /// hold below its outstanding expiry deadline, so the expiry must be
    /// re-evaluated earlier than originally scheduled.
    AdaptiveDecay,
}

impl FleetEventKind {
    /// Rank refining the order among events at the same instant.
    /// Pre-restores outrank expiries at equal instants: a pre-warm
    /// scheduled exactly at an expiry deadline must see the pool state
    /// the lazy sweep would have shown it (the instance still resident,
    /// since expiry is strict). Either order produces the same state —
    /// both handlers re-check the expiry predicate — but the rank makes
    /// the pop order itself canonical.
    pub fn rank(self) -> u8 {
        match self {
            FleetEventKind::PrewarmTimer => 0,
            FleetEventKind::KeepAliveExpiry => 1,
            FleetEventKind::AdaptiveDecay => 2,
        }
    }
}

/// One scheduled event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetEvent {
    /// When the event fires, in simulated milliseconds.
    pub time_ms: f64,
    /// What firing does.
    pub kind: FleetEventKind,
    /// The function the event concerns, as its owner keys it (a fleet
    /// host uses the function's slot). Not part of the order.
    pub function: u32,
    /// Queue-assigned schedule sequence number — the final tie-break.
    pub seq: u64,
}

/// A heap entry: the event, ordered so the earliest pops first.
#[derive(Clone, Copy, Debug)]
struct Earliest(FleetEvent);

impl Earliest {
    /// The total order `(time, kind rank, seq)`. `total_cmp` keeps the
    /// key a genuine total order even for exotic floats.
    fn order(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        a.time_ms
            .total_cmp(&b.time_ms)
            .then(a.kind.rank().cmp(&b.kind.rank()))
            .then(a.seq.cmp(&b.seq))
    }
}

impl PartialEq for Earliest {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}
impl Eq for Earliest {}
impl PartialOrd for Earliest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Earliest {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first.
        other.order(self)
    }
}

/// A deterministic calendar queue of [`FleetEvent`]s, popped in
/// `(time, kind rank, seq)` order.
#[derive(Clone, Debug, Default)]
pub struct CalendarQueue {
    heap: BinaryHeap<Earliest>,
    next_seq: u64,
}

impl CalendarQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event and returns its queue-assigned sequence
    /// number (the tie-break among events at the same instant).
    pub fn push(&mut self, time_ms: f64, kind: FleetEventKind, function: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Earliest(FleetEvent {
            time_ms,
            kind,
            function,
            seq,
        }));
        seq
    }

    /// Fires (removes and returns) the earliest scheduled event.
    pub fn pop(&mut self) -> Option<FleetEvent> {
        self.heap.pop().map(|entry| entry.0)
    }

    /// Fires the earliest scheduled event if `due` accepts it; leaves
    /// the queue untouched otherwise.
    pub fn pop_if(&mut self, due: impl FnOnce(&FleetEvent) -> bool) -> Option<FleetEvent> {
        let head = self.heap.peek_mut()?;
        due(&head.0).then(|| PeekMut::pop(head).0)
    }

    /// Scheduled events not yet fired.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(30.0, FleetEventKind::KeepAliveExpiry, 1);
        q.push(10.0, FleetEventKind::PrewarmTimer, 2);
        q.push(20.0, FleetEventKind::AdaptiveDecay, 0);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time_ms)).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn ties_break_by_rank_then_seq() {
        let mut q = CalendarQueue::new();
        let s0 = q.push(5.0, FleetEventKind::AdaptiveDecay, 0);
        let s1 = q.push(5.0, FleetEventKind::KeepAliveExpiry, 1);
        let s2 = q.push(5.0, FleetEventKind::PrewarmTimer, 2);
        let s3 = q.push(5.0, FleetEventKind::KeepAliveExpiry, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        // The pre-warm outranks the expiries, which fall back to push
        // order; the adaptive-decay re-check ranks last.
        assert_eq!(order, vec![s2, s1, s3, s0]);
    }

    #[test]
    fn pop_if_fires_only_a_due_head() {
        let mut q = CalendarQueue::new();
        q.push(2.0, FleetEventKind::AdaptiveDecay, 7);
        q.push(1.0, FleetEventKind::PrewarmTimer, 8);
        assert_eq!(q.pop_if(|e| e.time_ms < 1.0), None);
        assert_eq!(q.len(), 2, "a head that is not due stays queued");
        let fired = q.pop_if(|e| e.time_ms < 2.0).unwrap();
        assert_eq!(fired.kind, FleetEventKind::PrewarmTimer);
        assert_eq!(fired.function, 8);
        assert_eq!(q.pop_if(|e| e.time_ms < 2.0), None);
        assert_eq!(q.pop().unwrap().function, 7);
        assert!(q.is_empty());
        assert_eq!(q.pop_if(|_| true), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_total_order() {
        let mut q = CalendarQueue::new();
        q.push(10.0, FleetEventKind::KeepAliveExpiry, 0);
        q.push(30.0, FleetEventKind::KeepAliveExpiry, 1);
        assert_eq!(q.pop().unwrap().time_ms, 10.0);
        q.push(20.0, FleetEventKind::PrewarmTimer, 2);
        q.push(5.0, FleetEventKind::AdaptiveDecay, 3);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time_ms)).collect();
        assert_eq!(times, vec![5.0, 20.0, 30.0]);
    }
}
