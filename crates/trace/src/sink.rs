//! The flight recorder: a bounded ring buffer of trace events.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};

/// Plain-data trace configuration.
///
/// This is what rides on `FabricConfig`/`RuntimeConfig` (keeping their
/// `Clone + PartialEq + Serialize` derives); the fabric allocates the
/// live [`TraceSink`] from it when a run starts, exactly as the fault
/// layer only allocates per-link state when its schedule is non-empty.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Ring capacity in events. Memory is flat at
    /// `capacity × size_of::<TraceEvent>()` (≤ 32 B/event); overflow
    /// overwrites the oldest events and counts them as dropped.
    pub capacity: usize,
}

impl TraceSpec {
    /// Default ring capacity (64 Ki events ≈ 2 MiB).
    pub const DEFAULT_CAPACITY: usize = 64 << 10;

    /// A traced fabric samples its engine's pending-event count every
    /// this many processed events.
    pub const QUEUE_SAMPLE_EVERY: u64 = 1024;

    /// Spec with an explicit ring capacity.
    pub fn with_capacity(capacity: usize) -> TraceSpec {
        assert!(capacity >= 1, "trace ring needs at least one slot");
        TraceSpec { capacity }
    }
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

/// The flight recorder: events sink into a fixed ring; when it wraps,
/// the oldest events are overwritten (the recorder keeps the most recent
/// window, as a flight recorder does) and the loss is counted — memory
/// stays flat no matter how long the run is, and results are never
/// perturbed because recording only ever appends to this buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSink {
    spec: TraceSpec,
    ring: Vec<TraceEvent>,
    /// Oldest slot once the ring is full (also the next write position).
    head: usize,
    /// Events offered over the sink's lifetime.
    offered: u64,
}

impl TraceSink {
    /// Fresh recorder for `spec`.
    pub fn new(spec: TraceSpec) -> TraceSink {
        assert!(spec.capacity >= 1, "trace ring needs at least one slot");
        // The ring grows lazily up to capacity: short runs never touch
        // most of a large allocation, long runs amortize it away. The
        // first reservation is 8 KiB — a runtime batch builds one sink
        // per fabric and records a couple of hundred events into it.
        TraceSink {
            ring: Vec::with_capacity(spec.capacity.min(256)),
            spec,
            head: 0,
            offered: 0,
        }
    }

    /// Record one event (ring write + counter bump).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.offered += 1;
        if self.ring.len() < self.spec.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.spec.capacity {
                self.head = 0;
            }
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or everything was dropped —
    /// impossible, the ring keeps the newest events).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events offered over the sink's lifetime.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events lost to ring overflow (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.offered - self.ring.len() as u64
    }

    /// Events in record order (oldest kept event first).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.ring.split_at(self.head.min(self.ring.len()));
        older.iter().chain(newer.iter())
    }

    /// Consume the sink: `(events in record order, dropped count)`.
    pub fn into_ordered(mut self) -> (Vec<TraceEvent>, u64) {
        let dropped = self.dropped();
        if self.head > 0 && self.ring.len() == self.spec.capacity {
            self.ring.rotate_left(self.head);
        }
        (self.ring, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth(at_ns: u64) -> TraceEvent {
        TraceEvent::QueueDepth { at_ns, depth: 0 }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let mut s = TraceSink::new(TraceSpec::with_capacity(8));
        for t in 0..5 {
            s.record(depth(t));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.dropped(), 0);
        let (evs, dropped) = s.into_ordered();
        assert_eq!(dropped, 0);
        let times: Vec<u64> = evs.iter().map(|e| e.at_ns()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let mut s = TraceSink::new(TraceSpec::with_capacity(4));
        for t in 0..10 {
            s.record(depth(t));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.offered(), 10);
        assert_eq!(s.dropped(), 6);
        let iter_times: Vec<u64> = s.iter().map(|e| e.at_ns()).collect();
        assert_eq!(iter_times, vec![6, 7, 8, 9], "newest window, in order");
        let (evs, dropped) = s.into_ordered();
        assert_eq!(dropped, 6);
        let times: Vec<u64> = evs.iter().map(|e| e.at_ns()).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exact_capacity_drops_nothing() {
        let mut s = TraceSink::new(TraceSpec::with_capacity(3));
        for t in 0..3 {
            s.record(depth(t));
        }
        assert_eq!(s.dropped(), 0);
        let (evs, _) = s.into_ordered();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        TraceSpec::with_capacity(0);
    }
}
