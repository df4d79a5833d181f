//! Packet-lifecycle trace events.
//!
//! One event per observable step of a packet's life on the fabric —
//! inject at the NIC, egress at each switch hop, delivery or loss at the
//! destination — plus link fault transitions and sampled event-queue
//! depth. Events are small `Copy` values (raw ids + simulated
//! nanoseconds) so the recorder's ring buffer stays flat and the
//! hot-path cost of a record is a couple of stores.

/// Why a packet copy was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Corrupted on a link traversal (the fabric's random loss model).
    Corruption,
    /// Egress port was down under the fault schedule.
    FaultDown,
    /// Receiver-not-ready: the destination QP had no free receive slot.
    Rnr,
    /// Forced drop injected by the test harness (`DropModel::forced`).
    Forced,
}

impl DropCause {
    /// Short label for exports.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Corruption => "corruption",
            DropCause::FaultDown => "fault-down",
            DropCause::Rnr => "rnr",
            DropCause::Forced => "forced",
        }
    }
}

/// One recorded observation on the simulated clock.
///
/// Transmission events ([`TraceEvent::Inject`], [`TraceEvent::Egress`])
/// carry the busy interval `[start_ns, start_ns + ser_ns)` they occupy
/// on their link — the raw material of [`crate::LinkTimeline`] and the
/// Perfetto link tracks — so packet lifecycle and link occupancy come
/// from one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet entered the fabric on a NIC's uplink.
    Inject {
        /// When serialization onto the wire began.
        start_ns: u64,
        /// Serialization time under the link's effective bandwidth.
        ser_ns: u64,
        /// Directed link index (the host's uplink).
        link: u32,
        /// Injecting rank.
        src: u32,
        /// Wire bytes (payload + headers).
        bytes: u32,
    },
    /// A packet copy was transmitted from a switch egress port.
    Egress {
        /// When serialization onto the wire began.
        start_ns: u64,
        /// Serialization time under the link's effective bandwidth.
        ser_ns: u64,
        /// Directed link index of the egress.
        link: u32,
        /// Wire bytes (payload + headers).
        bytes: u32,
    },
    /// A packet was delivered: its CQE finished receive-side processing.
    Deliver {
        /// CQE completion time on the simulated clock.
        at_ns: u64,
        /// Destination rank.
        rank: u32,
        /// Rank-local QP index the completion surfaced on.
        qp: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// A packet copy was lost.
    Drop {
        /// When the copy was lost.
        at_ns: u64,
        /// Link the loss is accounted to.
        link: u32,
        /// Why.
        cause: DropCause,
    },
    /// A scheduled link-state transition took effect.
    Fault {
        /// Transition time.
        at_ns: u64,
        /// Affected directed link.
        link: u32,
        /// New state: `true` = up (possibly degraded), `false` = down.
        up: bool,
    },
    /// Sampled event-queue depth (every `TraceSpec::QUEUE_SAMPLE_EVERY`
    /// processed events).
    QueueDepth {
        /// Sample time.
        at_ns: u64,
        /// Pending events in the engine queue.
        depth: u32,
    },
}

impl TraceEvent {
    /// Primary timestamp: when the event begins on the simulated clock.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceEvent::Inject { start_ns, .. } | TraceEvent::Egress { start_ns, .. } => start_ns,
            TraceEvent::Deliver { at_ns, .. }
            | TraceEvent::Drop { at_ns, .. }
            | TraceEvent::Fault { at_ns, .. }
            | TraceEvent::QueueDepth { at_ns, .. } => at_ns,
        }
    }

    /// The same event shifted `offset_ns` later — how a batch fabric's
    /// local clock (every batch starts at 0) is threaded onto the
    /// runtime's virtual timeline at merge.
    pub fn shifted(self, offset_ns: u64) -> TraceEvent {
        let mut ev = self;
        match &mut ev {
            TraceEvent::Inject { start_ns, .. } | TraceEvent::Egress { start_ns, .. } => {
                *start_ns += offset_ns;
            }
            TraceEvent::Deliver { at_ns, .. }
            | TraceEvent::Drop { at_ns, .. }
            | TraceEvent::Fault { at_ns, .. }
            | TraceEvent::QueueDepth { at_ns, .. } => *at_ns += offset_ns,
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_moves_every_variant() {
        let evs = [
            TraceEvent::Inject {
                start_ns: 5,
                ser_ns: 1,
                link: 0,
                src: 0,
                bytes: 64,
            },
            TraceEvent::Egress {
                start_ns: 5,
                ser_ns: 1,
                link: 0,
                bytes: 64,
            },
            TraceEvent::Deliver {
                at_ns: 5,
                rank: 0,
                qp: 0,
                bytes: 64,
            },
            TraceEvent::Drop {
                at_ns: 5,
                link: 0,
                cause: DropCause::Rnr,
            },
            TraceEvent::Fault {
                at_ns: 5,
                link: 0,
                up: true,
            },
            TraceEvent::QueueDepth { at_ns: 5, depth: 3 },
        ];
        for ev in evs {
            assert_eq!(ev.at_ns(), 5);
            assert_eq!(ev.shifted(100).at_ns(), 105);
        }
    }

    #[test]
    fn events_stay_small() {
        // The ring buffer's memory bound assumes a compact event; a
        // growing variant would silently fatten every recorder.
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }
}
