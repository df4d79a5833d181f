//! Runtime spans: the scheduler's side of the trace.
//!
//! The fabric records packet-level events; the runtime records *spans* —
//! batch lifecycles and per-job sojourns on the virtual clock — plus
//! instant markers for admission rejects and throttling. Spans are
//! low-volume (one per batch/job, not per packet), so they live in plain
//! `Vec`s with no ring bound.

use crate::event::TraceEvent;

/// One batch's lifecycle on the virtual clock: formed/dispatched at
/// `start_ns`, subnet-manager group programming until
/// `start_ns + setup_ns`, fabric run to quiescence at `end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpan {
    /// Batch index (formation order).
    pub batch: u64,
    /// Fabric partition (SM domain) the batch occupied.
    pub partition: u32,
    /// Jobs dispatched in the batch.
    pub jobs: u32,
    /// Virtual dispatch time.
    pub start_ns: u64,
    /// SM group programming time charged before data flew.
    pub setup_ns: u64,
    /// Virtual completion (quiescence) time.
    pub end_ns: u64,
}

/// One job's sojourn: submit → start (batch dispatch) → complete, with
/// the attribution the scheduler already tracks per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Job id (admission order).
    pub job: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Fabric partition the job ran on.
    pub partition: u32,
    /// Batch that carried it.
    pub batch: u64,
    /// Admission time on the virtual clock.
    pub submitted_ns: u64,
    /// Batch dispatch time (queueing ends here).
    pub started_ns: u64,
    /// Completion time (slot completion on the virtual clock).
    pub finished_ns: u64,
    /// Multicast groups reused from the pool.
    pub pool_hits: u32,
    /// Groups freshly built (SM programming paid).
    pub pool_builds: u32,
    /// Groups rebuilt after eviction.
    pub pool_rebuilds: u32,
}

impl JobSpan {
    /// Submit-to-complete time.
    pub fn sojourn_ns(&self) -> u64 {
        self.finished_ns - self.submitted_ns
    }

    /// Time spent queued before the batch dispatched.
    pub fn queue_ns(&self) -> u64 {
        self.started_ns - self.submitted_ns
    }
}

/// One subnet-manager recovery action: mid-batch, dead switches were
/// diagnosed and `groups` multicast trees were re-routed around them
/// (rebuild cost charged on the virtual clock by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildSpan {
    /// Virtual time the rebuild was charged at (batch dispatch time).
    pub at_ns: u64,
    /// Fabric partition (SM domain) the rebuild happened in.
    pub partition: u32,
    /// Batch whose run triggered the diagnosis.
    pub batch: u64,
    /// Multicast groups re-routed.
    pub groups: u32,
}

/// Instant marker: an admission decision that refused work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// When the arrival was refused.
    pub at_ns: u64,
    /// Tenant whose arrival was refused (`u32::MAX` when unknown).
    pub tenant: u32,
    /// Short reject reason ("throttled", "queue-full", …) — throttle
    /// markers are the `"throttled"` ones.
    pub reason: &'static str,
}

/// The merged trace of one run: fabric packet events on the virtual
/// clock plus scheduler spans and markers.
///
/// The runtime appends each batch's harvested fabric events (shifted by
/// the batch's dispatch time) and spans **in commit order**, which is
/// deterministic for every worker count; [`RuntimeTrace::normalize`]
/// then stable-sorts fabric events by timestamp, so the final document
/// is in virtual-time order and byte-identical at any `jobs`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeTrace {
    /// Packet-lifecycle events on the virtual clock.
    pub fabric: Vec<TraceEvent>,
    /// Fabric events lost to per-batch ring overflow, summed.
    pub fabric_dropped: u64,
    /// One span per committed batch, in commit order.
    pub batches: Vec<BatchSpan>,
    /// One span per completed job, in commit order.
    pub jobs: Vec<JobSpan>,
    /// Admission reject/throttle markers, in decision order. Reactive
    /// runs also append `"job-retry"` markers here when a timed-out job
    /// is re-formed into a later batch.
    pub markers: Vec<Marker>,
    /// SM tree-rebuild actions, in commit order.
    pub rebuilds: Vec<RebuildSpan>,
}

impl RuntimeTrace {
    /// Wrap a single fabric's harvested sink output (no runtime spans) —
    /// the shape a standalone `run_collective` trace takes.
    pub fn from_fabric(events: Vec<TraceEvent>, dropped: u64) -> RuntimeTrace {
        RuntimeTrace {
            fabric: events,
            fabric_dropped: dropped,
            ..RuntimeTrace::default()
        }
    }

    /// Append one batch's fabric events, shifting its local clock (every
    /// batch fabric starts at 0) onto the virtual timeline.
    pub fn absorb_fabric(&mut self, events: Vec<TraceEvent>, dropped: u64, offset_ns: u64) {
        self.fabric_dropped += dropped;
        self.fabric
            .extend(events.into_iter().map(|e| e.shifted(offset_ns)));
    }

    /// Stable-sort fabric events into virtual-time order. Commit order
    /// is deterministic, so the stable sort is too.
    pub fn normalize(&mut self) {
        // Sorts 16-byte `(at_ns, index)` keys and permutes the 32-byte
        // events once, where `sort_by_key` drags the events themselves
        // through every merge pass.
        self.fabric.sort_by_cached_key(TraceEvent::at_ns);
    }

    /// The job with the largest sojourn (ties: earliest submit, then
    /// lowest id — fully deterministic).
    pub fn longest_job(&self) -> Option<&JobSpan> {
        self.jobs
            .iter()
            .max_by_key(|j| (j.sojourn_ns(), std::cmp::Reverse((j.submitted_ns, j.job))))
    }

    /// Virtual-time horizon covered by the trace (latest span end or
    /// fabric event).
    pub fn horizon_ns(&self) -> u64 {
        let spans = self.batches.iter().map(|b| b.end_ns);
        let jobs = self.jobs.iter().map(|j| j.finished_ns);
        let fabric = self.fabric.iter().map(TraceEvent::at_ns);
        spans.chain(jobs).chain(fabric).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `normalize` is the stable sort by timestamp: equal-time
        /// events keep their commit order. Timestamps are drawn from a
        /// narrow range so ties are the common case, and `depth`
        /// remembers where each event started.
        #[test]
        fn normalize_is_the_stable_sort_by_timestamp(
            times in prop::collection::vec(0u64..24, 0..200),
        ) {
            let fabric: Vec<TraceEvent> = times
                .iter()
                .enumerate()
                .map(|(i, &at_ns)| TraceEvent::QueueDepth { at_ns, depth: i as u32 })
                .collect();
            let mut expected = fabric.clone();
            expected.sort_by_key(TraceEvent::at_ns);
            let mut tr = RuntimeTrace::from_fabric(fabric, 0);
            tr.normalize();
            prop_assert_eq!(tr.fabric, expected);
        }
    }

    fn job(id: u64, submitted: u64, finished: u64) -> JobSpan {
        JobSpan {
            job: id,
            tenant: 0,
            partition: 0,
            batch: 0,
            submitted_ns: submitted,
            started_ns: submitted,
            finished_ns: finished,
            pool_hits: 0,
            pool_builds: 0,
            pool_rebuilds: 0,
        }
    }

    #[test]
    fn absorb_shifts_and_counts() {
        let mut tr = RuntimeTrace::default();
        tr.absorb_fabric(
            vec![TraceEvent::QueueDepth {
                at_ns: 10,
                depth: 1,
            }],
            3,
            1000,
        );
        tr.absorb_fabric(vec![TraceEvent::QueueDepth { at_ns: 5, depth: 2 }], 0, 500);
        assert_eq!(tr.fabric_dropped, 3);
        tr.normalize();
        let times: Vec<u64> = tr.fabric.iter().map(TraceEvent::at_ns).collect();
        assert_eq!(times, vec![505, 1010]);
        assert_eq!(tr.horizon_ns(), 1010);
    }

    #[test]
    fn longest_job_breaks_ties_deterministically() {
        let mut tr = RuntimeTrace {
            jobs: vec![job(0, 0, 50), job(1, 10, 60), job(2, 20, 70)],
            ..RuntimeTrace::default()
        };
        // All sojourns are 50; the earliest submit (lowest id) wins.
        assert_eq!(tr.longest_job().unwrap().job, 0);
        tr.jobs.push(job(3, 0, 90));
        assert_eq!(tr.longest_job().unwrap().job, 3);
    }
}
