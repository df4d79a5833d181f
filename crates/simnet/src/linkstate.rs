//! Scheduled link-state transitions — the enforcement half of fault
//! injection.
//!
//! A [`LinkSchedule`] is a validated, time-sorted list of
//! [`LinkStateEvent`]s: at a given simulated instant a directed link goes
//! down, comes back up, or changes its *effective* bandwidth (a degraded
//! link serializes packets slower, modeling FEC retraining / lane
//! downgrade). The schedule is plain data — the higher-level fault
//! *models* (degraded links, flapping ports, switch failures) live in the
//! `mcag-faults` crate and compile down to this type. The fabric replays
//! the schedule from a cursor beside its event queue: each transition
//! counts as a pending event from the start and fires ahead of any
//! protocol event at the same instant, so fault runs stay bit-for-bit
//! deterministic.
//!
//! ## Enforcement semantics (what the fabric does with this)
//!
//! * **Down link, NIC uplink**: the NIC stalls its whole injection
//!   pipeline (link-level backpressure) and resumes when the schedule
//!   brings the port back up.
//! * **Down link, switch egress**: unreliable copies (multicast/UD
//!   datagrams) are lost and counted as `fault_drops`; reliable copies
//!   (RC control, fetches, reads) are delayed until the link's next up
//!   transition — link-level retransmission wins eventually. A reliable
//!   copy on a link that never recovers is dropped and the collective
//!   times out at its watchdog.
//! * **Degraded link**: serialization time is scaled by the inverse of
//!   the bandwidth multiplier (`bw_num / bw_den`, e.g. 1/4 for a
//!   100G→25G downgrade).
//!
//! Link state is sampled when a packet copy reaches the port; a
//! transition mid-serialization does not affect copies already committed
//! to the wire.

use crate::topology::LinkId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One scheduled transition of one directed link's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStateEvent {
    /// Simulated instant the new state takes effect.
    pub at_ns: u64,
    /// The directed link transitioning.
    pub link: LinkId,
    /// Whether the link carries traffic at all from `at_ns` on.
    pub up: bool,
    /// Effective-bandwidth multiplier numerator (with [`Self::bw_den`]):
    /// `1/1` is full rate, `1/4` is a four-fold downgrade. Ignored while
    /// the link is down.
    pub bw_num: u32,
    /// Effective-bandwidth multiplier denominator.
    pub bw_den: u32,
}

impl LinkStateEvent {
    /// A link going fully down at `at_ns`.
    pub fn down(at_ns: u64, link: LinkId) -> LinkStateEvent {
        LinkStateEvent {
            at_ns,
            link,
            up: false,
            bw_num: 1,
            bw_den: 1,
        }
    }

    /// A link restored to full rate at `at_ns`.
    pub fn up(at_ns: u64, link: LinkId) -> LinkStateEvent {
        LinkStateEvent {
            at_ns,
            link,
            up: true,
            bw_num: 1,
            bw_den: 1,
        }
    }

    /// A link up but serializing at `bw_num / bw_den` of its line rate
    /// from `at_ns` on.
    pub fn degraded(at_ns: u64, link: LinkId, bw_num: u32, bw_den: u32) -> LinkStateEvent {
        LinkStateEvent {
            at_ns,
            link,
            up: true,
            bw_num,
            bw_den,
        }
    }
}

/// A validated, time-sorted schedule of link-state transitions, replayed
/// by the fabric (via `FabricConfig::faults`) from a cursor beside its
/// event queue. The compiled form of a `mcag-faults` `FaultPlan`.
///
/// Immutable once built and shared behind one `Arc`: cloning a schedule
/// (the runtime clones a `FabricConfig` per batch) copies no transition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkSchedule {
    compiled: Arc<Compiled>,
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Compiled {
    events: Vec<LinkStateEvent>,
    /// For event `i`: the earliest `at_ns >= events[i].at_ns` at which
    /// `events[i].link` is up again (`u64::MAX` if it never recovers).
    /// Precomputed so the fabric can park a stalled reliable packet with
    /// one lookup.
    next_up: Vec<u64>,
    /// The highest link any event names, so that a fabric validates the
    /// schedule against its topology with one comparison.
    max_link: Option<LinkId>,
}

impl LinkSchedule {
    /// A schedule with no transitions (the healthy-fabric default).
    pub fn empty() -> LinkSchedule {
        LinkSchedule::default()
    }

    /// Build a schedule from transitions in any order. Events are stably
    /// sorted by `(at_ns, link)`; two transitions of the same link at the
    /// same instant apply in their given order (the later one wins), so a
    /// composed plan is deterministic. Panics on a zero bandwidth
    /// multiplier or one above full rate.
    ///
    /// Input already in that order is taken as it is, with no sort and no
    /// sort buffer: `mcag-faults` emits every single-model plan this way
    /// (time-major, links in id order within an instant), so only plans
    /// that compose several models pay for the sort, which then merges
    /// their already-sorted runs.
    pub fn new(mut events: Vec<LinkStateEvent>) -> LinkSchedule {
        for e in &events {
            assert!(
                e.bw_num >= 1 && e.bw_den >= 1,
                "zero bandwidth multiplier on {:?}",
                e.link
            );
            assert!(
                e.bw_num <= e.bw_den,
                "bandwidth multiplier above full rate on {:?} ({}/{})",
                e.link,
                e.bw_num,
                e.bw_den
            );
        }
        if !events.is_sorted_by_key(|e| (e.at_ns, e.link.0)) {
            events.sort_by_key(|e| (e.at_ns, e.link.0));
        }
        // Reverse scan: carry the latest known up-time per link backwards
        // so every event knows when its link next carries traffic.
        let max_link = events.iter().map(|e| e.link).max();
        let mut latest_up = vec![u64::MAX; max_link.map_or(0, |l| l.idx() + 1)];
        let mut next_up = vec![u64::MAX; events.len()];
        for (e, next) in events.iter().zip(&mut next_up).rev() {
            if e.up {
                latest_up[e.link.idx()] = e.at_ns;
            }
            *next = latest_up[e.link.idx()];
        }
        LinkSchedule {
            compiled: Arc::new(Compiled {
                events,
                next_up,
                max_link,
            }),
        }
    }

    /// The highest link any transition names (`None` when empty).
    pub(crate) fn max_link(&self) -> Option<LinkId> {
        self.compiled.max_link
    }

    /// The sorted transitions.
    pub fn events(&self) -> &[LinkStateEvent] {
        &self.compiled.events
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.compiled.events.len()
    }

    /// True when the schedule has no transitions.
    pub fn is_empty(&self) -> bool {
        self.compiled.events.is_empty()
    }

    /// When `events()[idx]`'s link is next up at or after that event
    /// (`u64::MAX` when it never recovers).
    pub fn next_up_ns(&self, idx: usize) -> u64 {
        self.compiled.next_up[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_are_sorted_and_next_up_is_computed() {
        let l = LinkId(3);
        let m = LinkId(7);
        let s = LinkSchedule::new(vec![
            LinkStateEvent::up(500, l),
            LinkStateEvent::down(100, l),
            LinkStateEvent::down(200, m),
            LinkStateEvent::degraded(900, l, 1, 4),
        ]);
        let at: Vec<u64> = s.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![100, 200, 500, 900]);
        // Down at 100 recovers at 500; m never recovers.
        assert_eq!(s.next_up_ns(0), 500);
        assert_eq!(s.next_up_ns(1), u64::MAX);
        assert_eq!(s.next_up_ns(2), 500);
        // A degraded link still carries traffic: it is "up" now.
        assert_eq!(s.next_up_ns(3), 900);
    }

    #[test]
    fn flap_sequence_next_up_points_at_each_recovery() {
        let l = LinkId(0);
        let s = LinkSchedule::new(vec![
            LinkStateEvent::down(10, l),
            LinkStateEvent::up(20, l),
            LinkStateEvent::down(30, l),
            LinkStateEvent::up(40, l),
        ]);
        assert_eq!(s.next_up_ns(0), 20);
        assert_eq!(s.next_up_ns(2), 40);
    }

    #[test]
    fn empty_schedule_is_empty() {
        assert!(LinkSchedule::empty().is_empty());
        assert_eq!(LinkSchedule::empty().len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random schedules dense with ties (few instants, few links),
        /// the events are the stable `(at_ns, link)` sort of the input —
        /// two same-link transitions at one instant keep their given
        /// order — and `next_up_ns` is what a naive forward scan finds.
        #[test]
        fn next_up_matches_a_forward_scan(
            raw in prop::collection::vec((0u64..8, 0u32..5, 0u8..3), 0..40),
        ) {
            let input: Vec<LinkStateEvent> = raw
                .iter()
                .map(|&(at, link, kind)| match kind {
                    0 => LinkStateEvent::down(at, LinkId(link)),
                    1 => LinkStateEvent::up(at, LinkId(link)),
                    _ => LinkStateEvent::degraded(at, LinkId(link), 1, 2),
                })
                .collect();
            let s = LinkSchedule::new(input.clone());
            let mut sorted = input.clone();
            sorted.sort_by_key(|e| (e.at_ns, e.link.0));
            prop_assert_eq!(s.events(), &sorted[..]);
            for (i, e) in sorted.iter().enumerate() {
                let naive = sorted[i..]
                    .iter()
                    .find(|f| f.link == e.link && f.up)
                    .map_or(u64::MAX, |f| f.at_ns);
                prop_assert_eq!(s.next_up_ns(i), naive, "event {}", i);
            }
        }
    }

    fn sort_reference(mut events: Vec<LinkStateEvent>) -> Vec<LinkStateEvent> {
        events.sort_by_key(|e| (e.at_ns, e.link.0));
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whether its input arrives in any order, already sorted (the
        /// path that skips the sort) or as two sorted runs (a plan of two
        /// models), a schedule holds the reference stable sort of it —
        /// same-instant transitions of one link in their given order —
        /// and knows the highest link it names.
        #[test]
        fn new_equals_a_reference_stable_sort(
            raw in prop::collection::vec((0u64..6, 0u32..4, 0u8..3), 0..40),
            cut in 0usize..40,
        ) {
            let input: Vec<LinkStateEvent> = raw
                .iter()
                .map(|&(at, link, kind)| match kind {
                    0 => LinkStateEvent::down(at, LinkId(link)),
                    1 => LinkStateEvent::up(at, LinkId(link)),
                    _ => LinkStateEvent::degraded(at, LinkId(link), 1, 3),
                })
                .collect();
            let (head, tail) = input.split_at(cut.min(input.len()));
            let mut runs = sort_reference(head.to_vec());
            runs.extend(sort_reference(tail.to_vec()));
            let sorted = sort_reference(input.clone());
            for given in [input, sorted, runs] {
                let expect = sort_reference(given.clone());
                let s = LinkSchedule::new(given);
                prop_assert_eq!(s.events(), &expect[..]);
                prop_assert_eq!(s.max_link(), expect.iter().map(|e| e.link).max());
            }
        }
    }

    #[test]
    #[should_panic(expected = "above full rate")]
    fn overspeed_multiplier_rejected() {
        LinkSchedule::new(vec![LinkStateEvent::degraded(0, LinkId(0), 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_multiplier_rejected() {
        LinkSchedule::new(vec![LinkStateEvent {
            at_ns: 0,
            link: LinkId(0),
            up: true,
            bw_num: 0,
            bw_den: 1,
        }]);
    }
}
