//! The calendar-queue event core: one arena-allocated event type, one
//! total order, every timer in the fleet.
//!
//! The fleet loop is a discrete-event simulation in disguise. Arrivals
//! stream out of the traffic generator in canonical order; everything
//! *between* arrivals — keep-alive expiries, adaptive-decay re-checks,
//! scheduled pre-restores, chaos boundaries — is a timer that must fire
//! at a deterministic point relative to that stream. This module gives
//! all of them one representation ([`FleetEvent`]) and one container
//! ([`CalendarQueue`]): events are allocated out of a slab arena (a
//! `Vec` with a free list, so steady-state scheduling never touches the
//! allocator) and ordered by the total key
//! `(time, host_id, kind rank, seq)`.
//!
//! The tie-break is the load-bearing part. `seq` is assigned by the
//! queue at push time, so events at the same instant fire in *schedule*
//! order — a pure function of the event history, never of which worker
//! thread happened to get there first. That is what lets
//! [`run`](crate::run) process host shards on any worker in any order
//! while every observable stays byte-identical to the 1-thread run: each host owns a private `CalendarQueue`, its drains happen at
//! arrival boundaries that are themselves deterministic, and the queue's
//! pop order is a pure function of its push history.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetEventKind {
    /// A routed invocation arriving at a host (the router's lane; hosts
    /// consume these in route order rather than scheduling them
    /// individually).
    Arrival,
    /// A whole-host chaos boundary (crash or degrade edge).
    ChaosTransition,
    /// A scheduled pre-restore firing ahead of a predicted arrival.
    PrewarmTimer,
    /// A keep-alive expiry deadline for one function's live instance.
    KeepAliveExpiry,
    /// An adaptive-decay re-check: prediction tightened a function's
    /// hold below its outstanding expiry deadline, so the expiry must be
    /// re-evaluated earlier than originally scheduled.
    AdaptiveDecay,
    /// The merge joining the two copies of a hedged dispatch (fires at
    /// merge time; carried here so every lifecycle step shares the one
    /// event vocabulary).
    HedgeJoin,
}

impl FleetEventKind {
    /// Rank refining the order among events at the same `(time, host)`.
    /// Pre-restores outrank expiries at equal instants: a pre-warm
    /// scheduled exactly at an expiry deadline must see the pool state
    /// the lazy sweep would have shown it (the instance still resident,
    /// since expiry is strict). Either order produces the same state —
    /// both handlers re-check the expiry predicate — but the rank makes
    /// the pop order itself canonical.
    pub fn rank(self) -> u8 {
        match self {
            FleetEventKind::Arrival => 0,
            FleetEventKind::ChaosTransition => 1,
            FleetEventKind::PrewarmTimer => 2,
            FleetEventKind::KeepAliveExpiry => 3,
            FleetEventKind::AdaptiveDecay => 4,
            FleetEventKind::HedgeJoin => 5,
        }
    }
}

/// One scheduled event, stored in the queue's arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetEvent {
    /// When the event fires, in simulated milliseconds.
    pub time_ms: f64,
    /// The host whose state the event mutates.
    pub host_id: u32,
    /// What firing does.
    pub kind: FleetEventKind,
    /// The logical function the event concerns (0 for host-wide
    /// events).
    pub function: u32,
    /// Queue-assigned schedule sequence number — the final tie-break.
    pub seq: u64,
}

/// Heap key: everything needed to order an event without touching the
/// arena. `slot` rides along to locate the payload on pop.
#[derive(Clone, Copy, Debug)]
struct HeapKey {
    time_ms: f64,
    host_id: u32,
    rank: u8,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    /// The total order `(time, host_id, kind rank, seq)`. `total_cmp`
    /// keeps the key a genuine total order even for exotic floats.
    fn order(&self, other: &Self) -> Ordering {
        self.time_ms
            .total_cmp(&other.time_ms)
            .then(self.host_id.cmp(&other.host_id))
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops
        // first.
        other.order(self)
    }
}

/// Arena slot: either a live event payload or a link in the free list.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Live(FleetEvent),
    Free { next: u32 },
}

/// Sentinel for "no next free slot".
const NO_SLOT: u32 = u32::MAX;

/// A deterministic calendar queue over arena-allocated [`FleetEvent`]s.
///
/// Pops come back in `(time, host_id, kind rank, seq)` order. Payloads
/// live in a slab: pushing after pops reuses retired slots, so a
/// steady-state simulation (one expiry retired per expiry scheduled)
/// allocates nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct CalendarQueue {
    arena: Vec<Slot>,
    free_head: u32,
    heap: BinaryHeap<HeapKey>,
    next_seq: u64,
}

impl CalendarQueue {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            arena: Vec::new(),
            free_head: NO_SLOT,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with arena and heap space for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        CalendarQueue {
            arena: Vec::with_capacity(capacity),
            free_head: NO_SLOT,
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules an event and returns its queue-assigned sequence
    /// number (the tie-break among events at the same instant).
    pub fn push(&mut self, time_ms: f64, host_id: u32, kind: FleetEventKind, function: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = FleetEvent {
            time_ms,
            host_id,
            kind,
            function,
            seq,
        };
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            match self.arena[slot as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Live(_) => unreachable!("free list points at a live slot"),
            }
            self.arena[slot as usize] = Slot::Live(event);
            slot
        } else {
            self.arena.push(Slot::Live(event));
            (self.arena.len() - 1) as u32
        };
        self.heap.push(HeapKey {
            time_ms,
            host_id,
            rank: kind.rank(),
            seq,
            slot,
        });
        seq
    }

    /// The earliest scheduled event, without firing it.
    pub fn peek(&self) -> Option<FleetEvent> {
        self.heap
            .peek()
            .map(|key| match self.arena[key.slot as usize] {
                Slot::Live(event) => event,
                Slot::Free { .. } => unreachable!("heap key points at a freed slot"),
            })
    }

    /// Fires (removes and returns) the earliest scheduled event.
    pub fn pop(&mut self) -> Option<FleetEvent> {
        let key = self.heap.pop()?;
        let event = match self.arena[key.slot as usize] {
            Slot::Live(event) => event,
            Slot::Free { .. } => unreachable!("heap key points at a freed slot"),
        };
        self.arena[key.slot as usize] = Slot::Free {
            next: self.free_head,
        };
        self.free_head = key.slot;
        Some(event)
    }

    /// Scheduled events not yet fired.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arena slots allocated so far (live + reusable) — the queue's
    /// high-water mark.
    pub fn arena_capacity(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(30.0, 0, FleetEventKind::KeepAliveExpiry, 1);
        q.push(10.0, 0, FleetEventKind::PrewarmTimer, 2);
        q.push(20.0, 0, FleetEventKind::ChaosTransition, 0);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time_ms)).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn ties_break_by_host_then_rank_then_seq() {
        let mut q = CalendarQueue::new();
        let s0 = q.push(5.0, 1, FleetEventKind::KeepAliveExpiry, 0);
        let s1 = q.push(5.0, 0, FleetEventKind::KeepAliveExpiry, 1);
        let s2 = q.push(5.0, 0, FleetEventKind::PrewarmTimer, 2);
        let s3 = q.push(5.0, 0, FleetEventKind::KeepAliveExpiry, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        // Host 0 before host 1; within host 0 the pre-warm outranks the
        // expiries, which fall back to push order.
        assert_eq!(order, vec![s2, s1, s3, s0]);
    }

    #[test]
    fn arena_slots_are_reused_after_pops() {
        let mut q = CalendarQueue::new();
        for i in 0..8 {
            q.push(i as f64, 0, FleetEventKind::KeepAliveExpiry, i);
        }
        for _ in 0..8 {
            q.pop();
        }
        assert!(q.is_empty());
        for i in 0..8 {
            q.push(100.0 + i as f64, 0, FleetEventKind::PrewarmTimer, i);
        }
        assert_eq!(q.arena_capacity(), 8, "retired slots must be reused");
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(2.0, 3, FleetEventKind::AdaptiveDecay, 7);
        q.push(1.0, 9, FleetEventKind::HedgeJoin, 8);
        let peeked = q.peek().unwrap();
        let popped = q.pop().unwrap();
        assert_eq!(peeked, popped);
        assert_eq!(popped.kind, FleetEventKind::HedgeJoin);
        assert_eq!(popped.host_id, 9);
    }

    #[test]
    fn interleaved_push_pop_keeps_total_order() {
        let mut q = CalendarQueue::new();
        q.push(10.0, 0, FleetEventKind::KeepAliveExpiry, 0);
        q.push(30.0, 0, FleetEventKind::KeepAliveExpiry, 1);
        assert_eq!(q.pop().unwrap().time_ms, 10.0);
        q.push(20.0, 0, FleetEventKind::Arrival, 2);
        q.push(5.0, 0, FleetEventKind::Arrival, 3);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time_ms)).collect();
        assert_eq!(times, vec![5.0, 20.0, 30.0]);
    }
}
