//! Deterministic event queue.
//!
//! Events are ordered by `(time, insertion sequence)`, so two events at the
//! same instant fire in insertion order — the whole simulation is a pure
//! function of its inputs and seeds.
//!
//! ## Engines
//!
//! Two interchangeable engines implement that contract:
//!
//! * [`QueueBackend::Wheel`] (default) — a hierarchical timer wheel /
//!   bucketed calendar queue over **one node arena**. Every pending
//!   event is a `Node { next, off, event }` in a single `Vec`; a slot is
//!   a FIFO list threaded through the nodes' `next` indices (a `u32` tail
//!   per slot, circular, so `tail.next` is the head) and popped nodes go
//!   onto an intrusive free list. The *near* level has 4096
//!   one-nanosecond slots, so every event within ~4 µs of `now` (NIC
//!   serialization, switch hops, CQE DMA — the events that dominate a
//!   collective run) schedules and pops in O(1) with no comparisons. A
//!   *far* level of 4096 coarser slots (~16.8 ms horizon) cascades into
//!   the near level as simulated time advances — the cascade *relinks*
//!   nodes, it never moves an event — and each far slot caches its
//!   earliest timestamp at push, so `peek_time` and the deadline check
//!   of `pop_if_before` never walk a slot's population. A sorted
//!   overflow map holds far-future timers (reliability cutoffs,
//!   watchdogs). Because each near slot spans exactly one nanosecond,
//!   same-slot events share a timestamp and FIFO append order *is*
//!   `(time, seq)` order — no per-pop comparisons anywhere on the hot
//!   path.
//!
//!   Memory: construction is three flat index arrays (40 KiB) plus the
//!   bitmaps; the arena grows to the **peak pending count** and no
//!   further (24 B per node for the fabric's 16-byte events: the list a
//!   node is on implies its chunk, so it stores a 12-bit offset, not a
//!   timestamp); steady state inside a super-chunk allocates nothing;
//!   drop is a handful of frees. That is what makes a per-batch fabric
//!   cheap — the runtime builds, drains and drops one queue per batch of
//!   a few hundred events — and it is why the 188-node Allgather peaks
//!   at 0.9 MiB of heap where per-slot containers held 52 MiB.
//! * [`QueueBackend::Heap`] — the reference `BinaryHeap` engine
//!   (O(log n) per operation). Kept as the determinism oracle for the
//!   equivalence property tests and as the perf baseline recorded in
//!   `BENCH_simcore.json`.
//!
//! ## Runs
//!
//! A multicast packet's copies reach their next nodes at one instant,
//! and their completions are often due at one instant too. The fabric
//! lets such entries share one queue entry, a *run*, whose members it
//! dispatches one after another in one pass (`fabric.rs`; the member
//! lists are `fabric/runs.rs`'s). An entry that nothing joins stays a
//! lone event and is dispatched as one. Each
//! completion calls an app, and the last rank may finish halfway through
//! a completion run: the pass stops there and keeps the rest under a
//! cursor for the next `run_until`. An entry may *ride* only
//! the entry scheduled last, only while that entry is still pending and
//! due at the same instant (`EventQueue::ride_last`). Nothing was
//! scheduled between the two, so no entry sorts between them in
//! `(time, seq)` order, and every later entry sorts after both: a run's
//! members pop exactly where their separate entries would have, and slot
//! FIFO order stays `(time, seq)` order.
//!
//! A rider is counted like a reserved entry: joining takes a sequence
//! number and raises `len` and `peak_len`; dispatching it
//! (`EventQueue::consume_rider`) counts it processed. So `processed`,
//! `len` and `peak_len` read at every step exactly what they would with
//! every member queued on its own — inside a one-pass run too, where
//! the fabric checks the event cap and samples the queue depth between
//! members as its event loop does between entries. The wheel remembers the node of its
//! last push while that node is pending; the heap engine offers no
//! entry to ride, so it never forms a run and stays the oracle the
//! wheel's runs are checked against.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Which engine backs an [`EventQueue`]. Both produce bit-for-bit
/// identical pop order; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueBackend {
    /// Hierarchical timer wheel: O(1) schedule/pop for near-future
    /// events, amortized-O(1) cascading for far ones. The default.
    #[default]
    Wheel,
    /// Reference binary-heap engine: O(log n) per operation. The
    /// determinism oracle and perf baseline.
    Heap,
}

/// A scheduled entry wrapping the caller's event payload.
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slots per wheel level (and slot width of the far level, in ns).
const SLOT_BITS: u32 = 12;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

/// Two-level occupancy bitmap over one wheel level: `bits[w]` covers 64
/// slots, `summary` bit `w` says word `w` is non-empty. Finding the next
/// occupied slot is two trailing-zero scans — O(1) per pop.
#[derive(Clone)]
struct SlotBits {
    bits: [u64; WORDS],
    summary: u64,
}

impl SlotBits {
    fn new() -> SlotBits {
        SlotBits {
            bits: [0; WORDS],
            summary: 0,
        }
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.bits[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn get(&self, slot: usize) -> bool {
        self.bits[slot / 64] & (1 << (slot % 64)) != 0
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        let w = slot / 64;
        self.bits[w] &= !(1 << (slot % 64));
        if self.bits[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// First set bit at index `>= from`.
    #[inline]
    fn next(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let w0 = from / 64;
        let word = self.bits[w0] & (!0u64 << (from % 64));
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        let rest = if w0 + 1 >= WORDS {
            0
        } else {
            self.summary & (!0u64 << (w0 + 1))
        };
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some(w * 64 + self.bits[w].trailing_zeros() as usize)
    }
}

/// Arena index that terminates the free list.
const NIL: u32 = u32::MAX;

/// Nodes the arena takes on its first push: a power of two, so an arena
/// that keeps growing doubles through the same capacities as one that
/// started empty.
const ARENA_MIN: usize = 32;

/// One arena entry: a pending event on a slot list, or a free node.
/// The list a node is on implies its chunk, so it keeps only the offset
/// within it — 24 bytes per pending 16-byte event.
struct Node<E> {
    /// Successor on the slot's circular list, or on the free list.
    next: u32,
    /// `at & SLOT_MASK`: the node's near-level slot.
    off: u16,
    /// `None` exactly while the node is free.
    event: Option<E>,
}

/// One wheel level: a FIFO list of arena nodes per slot. A list is
/// circular and addressed by its tail (`tail.next` is the head);
/// `tails[slot]` means something only while the slot's bit is set.
struct Level {
    tails: Box<[u32]>,
    bits: SlotBits,
}

impl Level {
    fn new() -> Level {
        Level {
            tails: vec![0; SLOTS].into_boxed_slice(),
            bits: SlotBits::new(),
        }
    }

    /// Append node `idx` to `slot`'s list.
    #[inline]
    fn link_back<E>(&mut self, nodes: &mut [Node<E>], slot: usize, idx: u32) {
        if self.bits.get(slot) {
            let tail = self.tails[slot] as usize;
            nodes[idx as usize].next = nodes[tail].next;
            nodes[tail].next = idx;
        } else {
            self.bits.set(slot);
            nodes[idx as usize].next = idx;
        }
        self.tails[slot] = idx;
    }
}

/// The two-level timer wheel with sorted overflow.
///
/// Invariants (between public calls):
/// * every pending event has `at >= now >= base0`;
/// * `base0` is slot-aligned and its chunk routes to the near level;
/// * far slots `< cursor1` are empty; overflow holds only super-chunks
///   beyond the far window;
/// * every arena node is on exactly one slot list or on the free list,
///   so `nodes.len()` never exceeds the peak pending count.
struct Wheel<E> {
    /// Node arena shared by both levels; `free` heads its free list.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Near level: one slot per nanosecond in `[base0, base0 + SLOTS)`.
    /// All events in a slot share a timestamp (the slot index), so FIFO
    /// append order *is* `(time, seq)` order and no sequence number is
    /// stored.
    near: Level,
    base0: u64,
    /// Far level: one slot per near-window-sized chunk of the super-chunk
    /// `super_base` (i.e. `at >> (2 * SLOT_BITS) == super_base`).
    far: Level,
    /// Earliest timestamp in each occupied far slot, as its offset
    /// within the slot's chunk (`at & SLOT_MASK`), kept at push.
    far_min: Box<[u16]>,
    super_base: u64,
    cursor1: usize,
    /// Far-future events bucketed by super-chunk (`at >> 24`), sorted.
    overflow: BTreeMap<u64, Vec<(u64, E)>>,
    /// The node the last push linked, while it is pending (a popped
    /// node's event is `None`); [`NIL`] after a push into the overflow
    /// map or a refill from it, whose nodes no push scheduled last.
    last: u32,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            near: Level::new(),
            base0: 0,
            far: Level::new(),
            far_min: vec![0; SLOTS].into_boxed_slice(),
            super_base: 0,
            // base0's own chunk (far slot 0) routes to the near level.
            cursor1: 1,
            overflow: BTreeMap::new(),
            last: NIL,
        }
    }

    /// Put `event` in a node off the free list, or grow the arena by one.
    #[inline]
    fn alloc(&mut self, at: u64, event: E) -> u32 {
        let node = Node {
            next: NIL,
            off: (at & SLOT_MASK) as u16,
            event: Some(event),
        };
        let idx = self.free;
        if idx != NIL {
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            return idx;
        }
        assert!(self.nodes.len() < NIL as usize, "event arena is full");
        if self.nodes.capacity() == 0 {
            // Skip the first doublings, as the fabric's slabs do.
            self.nodes.reserve_exact(ARENA_MIN);
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    #[inline]
    fn push(&mut self, at: u64, event: E) {
        let chunk = at >> SLOT_BITS;
        self.last = if chunk == self.base0 >> SLOT_BITS {
            let idx = self.alloc(at, event);
            let slot = (at & SLOT_MASK) as usize;
            self.near.link_back(&mut self.nodes, slot, idx);
            idx
        } else if at >> (2 * SLOT_BITS) == self.super_base {
            self.push_far(at, event)
        } else {
            self.overflow
                .entry(at >> (2 * SLOT_BITS))
                .or_default()
                .push((at, event));
            NIL
        };
    }

    /// Push into the far level (`at` lies in the current super-chunk);
    /// returns the node.
    fn push_far(&mut self, at: u64, event: E) -> u32 {
        let slot = (at >> SLOT_BITS & SLOT_MASK) as usize;
        let off = (at & SLOT_MASK) as u16;
        if !self.far.bits.get(slot) || off < self.far_min[slot] {
            self.far_min[slot] = off;
        }
        let idx = self.alloc(at, event);
        self.far.link_back(&mut self.nodes, slot, idx);
        idx
    }

    /// The event of the node the last push linked, if it is still
    /// pending.
    #[inline]
    fn last_pending(&mut self) -> Option<&mut E> {
        self.nodes.get_mut(self.last as usize)?.event.as_mut()
    }

    /// Earliest timestamp in occupied far slot `cslot`.
    #[inline]
    fn far_slot_min(&self, cslot: usize) -> u64 {
        let chunk = (self.super_base << SLOT_BITS) + cslot as u64;
        (chunk << SLOT_BITS) + u64::from(self.far_min[cslot])
    }

    /// Pop the earliest event if its time is `<= deadline` (`None` on an
    /// empty wheel). Levels only advance when the advance is immediately
    /// followed by a successful pop, so an early (deadline) return never
    /// strands later insertions behind `base0`.
    fn pop_if_before(&mut self, now: u64, deadline: u64) -> Option<(u64, E)> {
        loop {
            // Near level: slots before `now` are already drained.
            let start = (now.max(self.base0) - self.base0) as usize;
            if let Some(slot) = self.near.bits.next(start) {
                let at = self.base0 + slot as u64;
                if at > deadline {
                    return None;
                }
                let tail = self.near.tails[slot] as usize;
                let head = self.nodes[tail].next;
                if head as usize == tail {
                    self.near.bits.clear(slot);
                } else {
                    self.nodes[tail].next = self.nodes[head as usize].next;
                }
                let node = &mut self.nodes[head as usize];
                let event = node.event.take().expect("free node on a slot list");
                node.next = self.free;
                self.free = head;
                return Some((at, event));
            }
            // Near window drained: cascade the next far slot into it.
            if let Some(cslot) = self.far.bits.next(self.cursor1) {
                let min = self.far_slot_min(cslot);
                if min > deadline {
                    return None;
                }
                self.base0 = min & !SLOT_MASK;
                self.cursor1 = cslot + 1;
                self.far.bits.clear(cslot);
                // Relinking head to tail keeps per-slot seq order.
                let tail = self.far.tails[cslot];
                let mut idx = self.nodes[tail as usize].next;
                loop {
                    let Node { next, off, .. } = self.nodes[idx as usize];
                    self.near.link_back(&mut self.nodes, usize::from(off), idx);
                    if idx == tail {
                        break;
                    }
                    idx = next;
                }
                continue;
            }
            // Far window drained too: refill from the earliest overflow
            // super-chunk (its first occupied slot holds the global min).
            let (&sup, bucket) = self.overflow.first_key_value()?;
            let min = bucket.iter().map(|(at, _)| *at).min();
            if min.expect("empty overflow bucket") > deadline {
                return None;
            }
            let evs = self.overflow.remove(&sup).expect("bucket vanished");
            self.super_base = sup;
            self.base0 = sup << (2 * SLOT_BITS);
            self.cursor1 = 0;
            self.last = NIL;
            for (at, event) in evs {
                self.push_far(at, event);
            }
        }
    }

    /// Earliest pending timestamp without mutating any level.
    fn peek(&self, now: u64) -> Option<u64> {
        let start = (now.max(self.base0) - self.base0) as usize;
        if let Some(slot) = self.near.bits.next(start) {
            return Some(self.base0 + slot as u64);
        }
        if let Some(cslot) = self.far.bits.next(self.cursor1) {
            return Some(self.far_slot_min(cslot));
        }
        self.overflow
            .first_key_value()
            .and_then(|(_, v)| v.iter().map(|(at, _)| *at).min())
    }
}

enum Engine<E> {
    // Boxed: the wheel's bitmap arrays make it much larger than the
    // heap's three pointers.
    Wheel(Box<Wheel<E>>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// Priority queue of simulation events.
///
/// Besides the events it holds, the queue can count *reserved* entries:
/// a side stream of timed entries the fabric keeps and replays itself
/// (its fault schedule), reserved up front with `reserve_pending` and
/// consumed one at a time with `consume_reserved`. They count in `len`,
/// `peak_len`, `processed` and `now` exactly as if they had been pushed,
/// without occupying the engine. *Riders* (see the module docs on runs)
/// are counted the same way: `ride_last` merges one into the last
/// scheduled entry and `consume_rider` counts it dispatched.
pub struct EventQueue<E> {
    engine: Engine<E>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
    /// Pending entries: the engine's, the reserved ones and the riders.
    len: usize,
    /// Reserved entries not yet consumed.
    reserved: usize,
    /// Riders not yet consumed.
    riders: usize,
    peak: usize,
    /// Due time of the last scheduled entry.
    last_at: u64,
}

impl<E> EventQueue<E> {
    /// New empty queue at time zero on the default (wheel) engine.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_backend(QueueBackend::default())
    }

    /// New empty queue at time zero on the given engine.
    pub fn with_backend(backend: QueueBackend) -> EventQueue<E> {
        EventQueue {
            engine: match backend {
                QueueBackend::Wheel => Engine::Wheel(Box::new(Wheel::new())),
                QueueBackend::Heap => Engine::Heap(BinaryHeap::new()),
            },
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            len: 0,
            reserved: 0,
            riders: 0,
            peak: 0,
            last_at: 0,
        }
    }

    /// Which engine this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.engine {
            Engine::Wheel(_) => QueueBackend::Wheel,
            Engine::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events, reserved entries included.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest pending-event count observed so far.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past — a causality bug in the model.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        match &mut self.engine {
            // The wheel needs no sequence number: slot FIFO order is
            // insertion order.
            Engine::Wheel(w) => w.push(at.as_ns(), event),
            Engine::Heap(h) => h.push(Scheduled {
                at: at.as_ns(),
                seq: self.next_seq,
                event,
            }),
        }
        self.next_seq += 1;
        self.last_at = at.as_ns();
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
    }

    /// Let an entry due at `at` ride the last scheduled entry: if that
    /// entry is still pending and due at `at`, and `join` merges the new
    /// entry into it (returning true), the rider is counted as if it had
    /// been scheduled — it takes a sequence number and raises `len` and
    /// `peak_len` — and the caller dispatches it, after the entry's
    /// earlier members, with [`EventQueue::consume_rider`]. Returns
    /// whether it rode. The heap engine never offers an entry.
    #[inline]
    pub(crate) fn ride_last(&mut self, at: SimTime, join: impl FnOnce(&mut E) -> bool) -> bool {
        if at.as_ns() != self.last_at {
            return false;
        }
        let Engine::Wheel(w) = &mut self.engine else {
            return false;
        };
        if !w.last_pending().is_some_and(join) {
            return false;
        }
        self.next_seq += 1;
        self.riders += 1;
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        true
    }

    /// Count one rider of the entry popped last as dispatched, as a pop
    /// of it would: processed and no longer pending, at the current
    /// instant (the entry's).
    ///
    /// # Panics
    /// If no rider is pending.
    #[inline]
    pub(crate) fn consume_rider(&mut self) {
        assert!(self.riders > 0, "no rider to consume");
        self.riders -= 1;
        self.len -= 1;
        self.processed += 1;
    }

    /// Count `n` entries of a caller-kept side stream as pending, as if
    /// they had been scheduled now: they take `n` sequence numbers and
    /// raise `len` and `peak_len`, but the engine never holds them.
    pub(crate) fn reserve_pending(&mut self, n: usize) {
        if let Engine::Wheel(w) = &mut self.engine {
            // They take sequence numbers after the last scheduled entry.
            w.last = NIL;
        }
        self.next_seq += n as u64;
        self.len += n;
        self.reserved += n;
        self.peak = self.peak.max(self.len);
    }

    /// Consume one reserved entry at `at`, as a pop of it would: advance
    /// simulated time to `at`, count it processed and no longer pending.
    /// The caller must first pop every queued event that precedes the
    /// entry in `(time, seq)` order.
    ///
    /// # Panics
    /// If nothing is reserved or `at` is in the past.
    pub(crate) fn consume_reserved(&mut self, at: SimTime) {
        assert!(self.reserved > 0, "no reserved entry to consume");
        assert!(
            at >= self.now,
            "reserved entry consumed in the past: {at} < {}",
            self.now
        );
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "reserved entry at {at} consumed ahead of an earlier queued event"
        );
        self.reserved -= 1;
        self.len -= 1;
        self.now = at;
        self.processed += 1;
    }

    /// Schedule `event` after `delay_ns` nanoseconds.
    ///
    /// # Panics
    /// If `now + delay_ns` overflows simulated time (a `u64::MAX`-ish
    /// delay is a caller bug; it must not silently wrap into the past).
    #[inline]
    pub fn schedule_in(&mut self, delay_ns: u64, event: E) {
        let at = self.now.as_ns().checked_add(delay_ns).unwrap_or_else(|| {
            panic!(
                "schedule_in: delay {delay_ns}ns overflows simulated time (now {})",
                self.now
            )
        });
        self.schedule_at(SimTime::from_ns(at), event);
    }

    /// Pop the earliest event, advancing simulated time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if_before(SimTime(u64::MAX))
    }

    /// Pop the earliest event only if its timestamp is `<= deadline`;
    /// otherwise leave the queue untouched and return `None`. This is the
    /// peek-free way to run a simulation up to a cutoff without the
    /// pop-then-reschedule dance (which would perturb `(time, seq)` tie
    /// order).
    pub fn pop_if_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let popped = match &mut self.engine {
            Engine::Wheel(w) => w.pop_if_before(self.now.as_ns(), deadline.as_ns()),
            Engine::Heap(h) => match h.peek() {
                Some(s) if s.at <= deadline.as_ns() => h.pop().map(|s| (s.at, s.event)),
                _ => None,
            },
        };
        let (at, event) = popped?;
        debug_assert!(at >= self.now.as_ns());
        self.len -= 1;
        self.now = SimTime(at);
        self.processed += 1;
        Some((self.now, event))
    }

    /// Timestamp of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        match &self.engine {
            Engine::Wheel(w) => w.peek(self.now.as_ns()).map(SimTime),
            Engine::Heap(h) => h.peek().map(|s| SimTime(s.at)),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

    #[test]
    fn pops_in_time_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule_at(SimTime(30), "c");
            q.schedule_at(SimTime(10), "a");
            q.schedule_at(SimTime(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{b:?}");
            assert_eq!(q.now(), SimTime(30));
            assert_eq!(q.processed(), 3);
            assert_eq!(q.peak_len(), 3);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            for i in 0..100 {
                q.schedule_at(SimTime(5), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{b:?}");
        }
    }

    #[test]
    fn relative_scheduling_tracks_now() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule_in(10, 1u32);
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime(10));
            q.schedule_in(5, 2u32);
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime(15));
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    #[should_panic(expected = "overflows simulated time")]
    fn overflowing_delay_panics_with_a_clear_message() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        // Used to wrap and die as "event scheduled in the past".
        q.schedule_in(u64::MAX, ());
    }

    #[test]
    fn far_future_events_cross_wheel_levels() {
        // One event per wheel regime: near, far, overflow, deep overflow.
        let times = [3u64, 5_000, 20_000_000, 1 << 40];
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            for (i, &t) in times.iter().rev().enumerate() {
                q.schedule_at(SimTime(t), i);
            }
            let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
            assert_eq!(popped, times.to_vec(), "{b:?}");
        }
    }

    #[test]
    fn same_time_ties_survive_cascading() {
        // Two same-timestamp events landing in the far level must still
        // pop in insertion order after cascading into the near level.
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule_at(SimTime(1_000_000), "first");
            q.schedule_at(SimTime(1_000_000), "second");
            q.schedule_at(SimTime(7), "warm");
            assert_eq!(q.pop().unwrap().1, "warm");
            assert_eq!(q.pop().unwrap().1, "first");
            assert_eq!(q.pop().unwrap().1, "second");
        }
    }

    #[test]
    fn peek_matches_pop() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            assert_eq!(q.peek_time(), None);
            for t in [40_000u64, 12, 900, 1 << 30] {
                q.schedule_at(SimTime(t), t);
            }
            while let Some(t) = q.peek_time() {
                let (at, _) = q.pop().unwrap();
                assert_eq!(t, at, "{b:?}");
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_if_before_respects_the_deadline() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule_at(SimTime(10), 1u32);
            q.schedule_at(SimTime(2_000_000), 2u32); // far level
            assert_eq!(q.pop_if_before(SimTime(5)), None);
            assert_eq!(q.pop_if_before(SimTime(10)), Some((SimTime(10), 1)));
            // Deadline inside the far gap: nothing pops, nothing is lost.
            assert_eq!(q.pop_if_before(SimTime(1_000_000)), None);
            assert_eq!(q.len(), 1);
            // Scheduling after a refused pop must still work and order.
            q.schedule_at(SimTime(500_000), 3u32);
            assert_eq!(q.pop(), Some((SimTime(500_000), 3)));
            assert_eq!(q.pop(), Some((SimTime(2_000_000), 2)));
        }
    }

    #[test]
    fn scheduling_into_the_active_slot_keeps_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 0u32);
        q.schedule_at(SimTime(5), 1u32);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        // Same-instant insert while the slot is half-drained.
        q.schedule_at(SimTime(5), 2u32);
        assert_eq!(q.pop(), Some((SimTime(5), 1)));
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
    }

    #[test]
    fn reserved_entries_count_as_pending_events() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.reserve_pending(2);
            q.schedule_at(SimTime(10), "a");
            assert_eq!((q.len(), q.peak_len()), (3, 3), "{b:?}");
            // A same-instant reserved entry is consumed ahead of "a".
            q.consume_reserved(SimTime(10));
            assert_eq!((q.now(), q.processed(), q.len()), (SimTime(10), 1, 2));
            assert_eq!(q.pop(), Some((SimTime(10), "a")));
            // Only a reserved entry is left: nothing to pop or peek.
            assert_eq!((q.pop(), q.peek_time()), (None, None));
            assert_eq!((q.len(), q.is_empty()), (1, false));
            q.consume_reserved(SimTime(40));
            assert_eq!((q.now(), q.processed(), q.len()), (SimTime(40), 3, 0));
            assert_eq!(q.peak_len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "no reserved entry")]
    fn consuming_without_a_reservation_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.consume_reserved(SimTime(1));
    }

    /// Walk every slot list and the free list of a wheel queue and
    /// check the arena invariants: each node is on exactly one list,
    /// listed nodes hold an event and free ones do not, the cached far
    /// minimum is the true one, and the arena never outgrew the peak
    /// pending count. Returns `(listed, free)` node counts.
    fn check_arena<E>(q: &EventQueue<E>) -> (usize, usize) {
        let Engine::Wheel(w) = &q.engine else {
            panic!("arena invariants apply to the wheel engine");
        };
        let mut seen = vec![false; w.nodes.len()];
        let mut visit = |idx: u32, want_event: bool| {
            let i = idx as usize;
            assert!(
                !std::mem::replace(&mut seen[i], true),
                "node {i} listed twice"
            );
            assert_eq!(w.nodes[i].event.is_some(), want_event, "node {i}");
        };
        let mut listed = 0;
        for (level, far) in [(&w.near, false), (&w.far, true)] {
            let mut from = 0;
            while let Some(slot) = level.bits.next(from) {
                from = slot + 1;
                let tail = level.tails[slot];
                let (mut idx, mut min) = (w.nodes[tail as usize].next, u16::MAX);
                loop {
                    visit(idx, true);
                    listed += 1;
                    let node = &w.nodes[idx as usize];
                    min = min.min(node.off);
                    if !far {
                        assert_eq!(usize::from(node.off), slot, "near node in the wrong slot");
                    }
                    if idx == tail {
                        break;
                    }
                    idx = node.next;
                }
                if far {
                    assert_eq!(w.far_min[slot], min, "stale far minimum in slot {slot}");
                }
            }
        }
        let (mut free, mut idx) = (0, w.free);
        while idx != NIL {
            visit(idx, false);
            free += 1;
            idx = w.nodes[idx as usize].next;
        }
        assert_eq!(listed + free, w.nodes.len(), "leaked arena node");
        let parked: usize = w.overflow.values().map(Vec::len).sum();
        assert_eq!(
            listed + parked + q.reserved + q.riders,
            q.len(),
            "pending count"
        );
        assert!(w.nodes.len() <= q.peak_len(), "arena outgrew the peak");
        (listed, free)
    }

    #[test]
    fn arena_is_reused_and_fully_freed_across_cascade_and_refill() {
        let mut q = EventQueue::new();
        // Near, far and two overflow super-chunks; ties everywhere.
        for round in 0..3u64 {
            for t in [
                1u64,
                1,
                5_000,
                5_000,
                9_000,
                1 << 25,
                (1 << 25) + 1,
                1 << 40,
            ] {
                q.schedule_in(t, round);
            }
            assert_eq!(q.peak_len(), 8);
            check_arena(&q);
            while q.pop().is_some() {
                check_arena(&q);
            }
            // Drained: every node is back on the free list, every slot
            // list is empty, and the arena never exceeded the 6 events
            // the two wheel levels held at once.
            let (listed, free) = check_arena(&q);
            assert_eq!(listed, 0);
            let Engine::Wheel(w) = &q.engine else {
                unreachable!()
            };
            assert_eq!((w.near.bits.summary, w.far.bits.summary), (0, 0));
            assert!(w.overflow.is_empty());
            assert_eq!(free, w.nodes.len());
            assert!(w.nodes.len() <= 6, "arena grew to {}", w.nodes.len());
        }
    }

    /// A test entry: a key a rider must match, and the ids of the
    /// members it stands for (more than one once riders joined it).
    type Keyed = (u8, Vec<u64>);

    /// Schedule member `id` at `at`, riding the last scheduled entry when
    /// the queue offers it and its key matches, as the fabric does.
    /// Returns whether it rode.
    fn schedule_keyed(q: &mut EventQueue<Keyed>, at: SimTime, key: u8, id: u64) -> bool {
        let rode = q.ride_last(at, |last| {
            last.0 == key && {
                last.1.push(id);
                true
            }
        });
        if !rode {
            q.schedule_at(at, (key, vec![id]));
        }
        rode
    }

    /// Pop the next member due by `deadline`, as the fabric's event loop
    /// does: the rest of the run popped last (kept in `run`) comes first,
    /// then the queue's next entry.
    fn pop_member(
        q: &mut EventQueue<Keyed>,
        run: &mut VecDeque<u64>,
        deadline: SimTime,
    ) -> Option<(SimTime, u64)> {
        if !run.is_empty() && deadline >= q.now() {
            q.consume_rider();
            return run.pop_front().map(|id| (q.now(), id));
        }
        let (at, (_, ids)) = q.pop_if_before(deadline)?;
        run.extend(&ids[1..]);
        Some((at, ids[0]))
    }

    /// The earliest pending member's time: the run under way is due now.
    fn peek_member(q: &EventQueue<Keyed>, run: &VecDeque<u64>) -> Option<SimTime> {
        if run.is_empty() {
            q.peek_time()
        } else {
            Some(q.now())
        }
    }

    #[test]
    fn riders_count_and_pop_as_separate_entries() {
        let mut w = EventQueue::with_backend(QueueBackend::Wheel);
        let mut h = EventQueue::with_backend(QueueBackend::Heap);
        let (mut wr, mut hr) = (VecDeque::new(), VecDeque::new());
        // (time, key): ids 1, 2 ride 0 and id 4 rides 3; id 5 is due at
        // another instant and ids 6, 7 follow an entry they do not tie
        // with, so neither rides.
        let pushes = [
            (10, 1),
            (10, 1),
            (10, 1),
            (10, 2),
            (10, 2),
            (12, 2),
            (10, 1),
            (12, 2),
        ];
        let mut rode = Vec::new();
        for (id, &(t, key)) in pushes.iter().enumerate() {
            if schedule_keyed(&mut w, SimTime(t), key, id as u64) {
                rode.push(id);
            }
            assert!(!schedule_keyed(&mut h, SimTime(t), key, id as u64));
            assert_eq!((w.len(), w.peak_len()), (h.len(), h.peak_len()));
        }
        assert_eq!(rode, [1, 2, 4]);
        let (listed, _) = check_arena(&w);
        assert_eq!((listed, w.len()), (5, 8));
        // Same members, instants, counters and depths, pop by pop.
        let mut order = Vec::new();
        loop {
            let (a, b) = (
                pop_member(&mut w, &mut wr, SimTime(u64::MAX)),
                pop_member(&mut h, &mut hr, SimTime(u64::MAX)),
            );
            assert_eq!(a, b);
            let Some((_, id)) = a else { break };
            order.push(id);
            assert_eq!(
                (w.now(), w.len(), w.processed()),
                (h.now(), h.len(), h.processed())
            );
            check_arena(&w);
        }
        assert_eq!(order, [0, 1, 2, 3, 4, 6, 5, 7]);
        assert_eq!((w.peak_len(), w.processed()), (8, 8));
        // An entry rides only a pending one: not the entry just popped,
        // not one parked in the overflow map, not across a reservation.
        w.schedule_at(SimTime(20), (1, vec![8]));
        assert_eq!(w.pop().map(|(t, _)| t), Some(SimTime(20)));
        assert!(!schedule_keyed(&mut w, SimTime(20), 1, 9));
        assert!(!schedule_keyed(&mut w, SimTime(1 << 40), 1, 10));
        assert!(!schedule_keyed(&mut w, SimTime(1 << 40), 1, 11));
        assert!(!schedule_keyed(&mut w, SimTime(30), 1, 12));
        w.reserve_pending(1);
        assert!(!schedule_keyed(&mut w, SimTime(30), 1, 13));
        assert!(schedule_keyed(&mut w, SimTime(30), 1, 14));
    }

    #[test]
    #[should_panic(expected = "no rider")]
    fn consuming_without_a_rider_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.consume_rider();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The wheel and the reference heap pop, refuse and peek
        /// identically under random schedule / ride / pop / deadline-pop
        /// / reserve / consume interleavings spanning every wheel level
        /// and its boundaries, agree on every counter, and the wheel's
        /// arena invariants hold after every operation. Entries ride only
        /// on the wheel (the heap pushes every one), and its runs unpack
        /// into exactly the heap's separate pops.
        #[test]
        fn wheel_matches_heap_model(
            ops in prop::collection::vec((0u8..18, 0u64..u64::MAX / 4), 1..250),
        ) {
            let mut w = EventQueue::with_backend(QueueBackend::Wheel);
            let mut h = EventQueue::with_backend(QueueBackend::Heap);
            let (mut wr, mut hr) = (VecDeque::new(), VecDeque::new());
            let (mut id, mut reserved, mut last_at) = (0u64, 0usize, 0u64);
            let never = SimTime(u64::MAX);
            for (op, val) in ops {
                match op {
                    0 | 1 => prop_assert_eq!(
                        pop_member(&mut w, &mut wr, never),
                        pop_member(&mut h, &mut hr, never)
                    ),
                    14 => {
                        let n = (val % 4) as usize;
                        w.reserve_pending(n);
                        h.reserve_pending(n);
                        reserved += n;
                    }
                    15 if reserved > 0 => {
                        // A side-stream entry due no later than the
                        // earliest pending member (ties included), as the
                        // fabric's fault cursor consumes them.
                        let now = w.now().as_ns();
                        let mut at = SimTime(now + val % (1 << (2 * SLOT_BITS + 1)));
                        if let Some(t) = peek_member(&w, &wr) {
                            at = at.min(t);
                        }
                        w.consume_reserved(at);
                        h.consume_reserved(at);
                        reserved -= 1;
                    }
                    15 => {}
                    16 | 17 => {
                        // Another member at the last scheduled entry's
                        // instant, under one of two keys: it rides when
                        // that entry is pending and its key matches.
                        let at = SimTime(last_at.max(w.now().as_ns()));
                        schedule_keyed(&mut w, at, (val % 2) as u8, id);
                        schedule_keyed(&mut h, at, (val % 2) as u8, id);
                        last_at = at.as_ns();
                        id += 1;
                    }
                    2 | 3 => {
                        // A deadline that usually falls short of the
                        // earliest pending event: the pop is refused and
                        // the schedules that follow land *before* events
                        // the refused pop already looked at.
                        let span = [1 << 6, 1 << SLOT_BITS, 1 << (2 * SLOT_BITS + 1)];
                        let deadline = SimTime(w.now().as_ns() + val % span[(val % 3) as usize]);
                        prop_assert_eq!(
                            pop_member(&mut w, &mut wr, deadline),
                            pop_member(&mut h, &mut hr, deadline)
                        );
                    }
                    _ => {
                        // Exact ties, near slots, far slots, the overflow
                        // map, and delays one either side of the
                        // near/far (2^12) and far/overflow (2^24) edges —
                        // relative to `now` and to the next aligned edge.
                        let now = w.now().as_ns();
                        let edge = |bits: u32| (((now >> bits) + 1) << bits) - now;
                        let delay = match op {
                            4 => 0,
                            5 | 6 => val % (1 << SLOT_BITS),
                            7 | 8 => val % (1 << (2 * SLOT_BITS + 4)),
                            9 => val,
                            10 => (1 << SLOT_BITS) - 1 + val % 3,
                            11 => (1 << (2 * SLOT_BITS)) - 1 + val % 3,
                            12 => edge(SLOT_BITS) - 1 + val % 3,
                            _ => edge(2 * SLOT_BITS) - 1 + val % 3,
                        };
                        let at = SimTime(now + delay);
                        w.schedule_at(at, (0, vec![id]));
                        h.schedule_at(at, (0, vec![id]));
                        last_at = at.as_ns();
                        id += 1;
                    }
                }
                prop_assert_eq!(w.now(), h.now());
                prop_assert_eq!(w.len(), h.len());
                prop_assert_eq!(w.peak_len(), h.peak_len());
                prop_assert_eq!(w.processed(), h.processed());
                prop_assert_eq!(peek_member(&w, &wr), peek_member(&h, &hr));
                check_arena(&w);
            }
            loop {
                let (a, b) = (pop_member(&mut w, &mut wr, never), pop_member(&mut h, &mut hr, never));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            // Only the unconsumed reserved entries are left pending.
            prop_assert_eq!((w.len(), h.len()), (reserved, reserved));
            prop_assert_eq!(w.processed(), h.processed());
            prop_assert_eq!(w.peak_len(), h.peak_len());
            let (listed, free) = check_arena(&w);
            let Engine::Wheel(wheel) = &w.engine else { unreachable!() };
            prop_assert_eq!((listed, free), (0, wheel.nodes.len()));
            prop_assert_eq!((wheel.near.bits.summary, wheel.far.bits.summary), (0, 0));
        }
    }
}
