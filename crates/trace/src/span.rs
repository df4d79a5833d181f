//! Runtime spans: the scheduler's side of the trace, and the rule that
//! orders the fabric's side.
//!
//! The fabric records packet-level events; the runtime records *spans* —
//! batch lifecycles and per-job sojourns on the virtual clock — plus
//! instant markers for admission rejects and throttling. Spans are
//! low-volume (one per batch/job, not per packet), so they live in plain
//! `Vec`s with no ring bound.
//!
//! Packet events reach the runtime one batch at a time. Each batch's
//! harvest is sorted once, on its own clock, into a [`TraceRun`];
//! [`merge_runs`] threads the committed runs onto the virtual timeline
//! in one pass. The result is the stable sort by timestamp of the runs'
//! commit-order concatenation — the one trace-ordering rule — without
//! ever sorting the whole trace.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

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

/// One batch fabric's harvested flight recorder, stable-sorted by
/// timestamp on the batch's own clock (events that tie keep their
/// record order). The events are shared: a batch replayed from the
/// runtime's outcome memo hands out the stored run, not a copy. They
/// are the recorder's own ring, sorted in place and trimmed to its
/// length where it lies: building a run copies no event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRun {
    events: Arc<Box<[TraceEvent]>>,
    dropped: u64,
}

impl TraceRun {
    /// Sort `events`, given in record order, into a run; `dropped`
    /// counts what the recorder lost to ring overflow.
    fn new(mut events: Vec<TraceEvent>, dropped: u64) -> TraceRun {
        sort_by_time(&mut events);
        // A memoized run lives as long as the runtime, so it keeps no
        // spare capacity; shrinking a block leaves it where it is.
        TraceRun {
            events: Arc::new(events.into_boxed_slice()),
            dropped,
        }
    }

    /// Events the recorder lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Element moves per event [`sort_by_time`]'s insertion sort may spend
/// before it hands the events to `sort_by_key`. A `load_traced` batch
/// needs about 5 and at most 15.
const MOVES_PER_EVENT: usize = 32;

/// Stable-sort `events` by timestamp: the order of
/// `sort_by_key(TraceEvent::at_ns)`, found cheaper for what a batch's
/// recorder hands over. A batch records a few hundred events in nearly
/// time order — a transmission is recorded when it starts, a delivery
/// when it ends — so most events are already in place and the rest
/// belong a short way back. An insertion sort moves only those, and
/// stops each behind the events it ties, which keeps the order the
/// stable one. Once its moves pass [`MOVES_PER_EVENT`] per event the
/// input is not of that shape, and `sort_by_key` sorts it instead: the
/// insertions so far kept every tie in record order, so its result is
/// the same. Returns whether it fell back.
fn sort_by_time(events: &mut [TraceEvent]) -> bool {
    let budget = MOVES_PER_EVENT * events.len();
    let mut moves = 0;
    for i in 1..events.len() {
        let event = events[i];
        let key = event.at_ns();
        if events[i - 1].at_ns() <= key {
            continue;
        }
        let mut to = i;
        while to > 0 && events[to - 1].at_ns() > key {
            events[to] = events[to - 1];
            to -= 1;
        }
        events[to] = event;
        moves += i - to;
        if moves > budget {
            events.sort_by_key(TraceEvent::at_ns);
            return true;
        }
    }
    false
}

impl From<TraceSink> for TraceRun {
    fn from(sink: TraceSink) -> TraceRun {
        let (events, dropped) = sink.into_ordered();
        TraceRun::new(events, dropped)
    }
}

/// Merge runs listed in commit order, each shifted `offset_ns` onto the
/// virtual timeline, into one time-ordered vector: exactly the stable
/// sort by timestamp of their shifted concatenation, so events that tie
/// keep commit order, then record order.
///
/// Runs may overlap in any way — a censored batch keeps recording past
/// its cutoff, into the next batch on its partition. Runs join the
/// merge in order of (first shifted timestamp, commit index); a min-heap
/// keyed the same way holds only the runs that overlap the frontier, and
/// the run on top copies every event that sorts before the next
/// competitor in one go. The output is allocated once, at its length.
pub fn merge_runs(runs: &[(u64, TraceRun)]) -> Vec<TraceEvent> {
    let mut merged = Vec::with_capacity(runs.iter().map(|(_, run)| run.events.len()).sum());
    let mut waiting: Vec<(u64, usize)> = Vec::with_capacity(runs.len());
    waiting.extend(
        runs.iter()
            .enumerate()
            .filter_map(|(i, (offset, run))| Some((run.events.first()?.at_ns() + offset, i))),
    );
    waiting.sort_unstable();
    // Per overlapping run: (next shifted timestamp, commit index, position).
    let mut active = BinaryHeap::with_capacity(waiting.len());
    let mut waiting = waiting.into_iter().peekable();
    loop {
        // Admit every waiting run whose first event sorts before the
        // frontier's minimum.
        while let Some(&(at, i)) = waiting.peek() {
            if active
                .peek()
                .is_some_and(|&Reverse((top_at, j, _))| (top_at, j) < (at, i))
            {
                break;
            }
            active.push(Reverse((at, i, 0)));
            waiting.next();
        }
        let Some(Reverse((_, i, from))) = active.pop() else {
            return merged;
        };
        // The next competitor: the other overlapping runs' minimum, or
        // the first run still waiting to join.
        let rival = active.peek().map(|&Reverse((at, j, _))| (at, j));
        let bound = rival.into_iter().chain(waiting.peek().copied()).min();
        let (offset, run) = &runs[i];
        let rest = &run.events[from..];
        let take = bound.map_or(rest.len(), |b| {
            rest.iter()
                .position(|e| (e.at_ns() + offset, i) >= b)
                .unwrap_or(rest.len())
        });
        // Find the segment first, then copy it: extending from a slice
        // knows its length, which a `take_while` does not.
        merged.extend(rest[..take].iter().map(|e| e.shifted(*offset)));
        let next = from + take;
        if let Some(e) = run.events.get(next) {
            active.push(Reverse((e.at_ns() + offset, i, next)));
        }
    }
}

/// The merged trace of one run: fabric packet events on the virtual
/// clock plus scheduler spans and markers.
///
/// The runtime appends each batch's spans **in commit order**, which is
/// deterministic for every worker count, and builds `fabric` from the
/// batches' [`TraceRun`]s with [`merge_runs`], so the final document is
/// in virtual-time order and byte-identical at any `jobs`.
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

    /// Per batch in commit order, from `(offset, timestamps)` pairs: the
    /// offset and the events in record order. `depth` numbers every event
    /// in commit-then-record order, so a comparison sees where each one
    /// came from.
    fn batches(spec: &[(u64, Vec<u64>)]) -> Vec<(u64, Vec<TraceEvent>)> {
        let mut id = 0;
        spec.iter()
            .map(|(offset, times)| {
                let events = times
                    .iter()
                    .map(|&at_ns| {
                        id += 1;
                        TraceEvent::QueueDepth { at_ns, depth: id }
                    })
                    .collect();
                (*offset, events)
            })
            .collect()
    }

    fn merged(spec: &[(u64, Vec<u64>)]) -> Vec<TraceEvent> {
        let runs: Vec<(u64, TraceRun)> = batches(spec)
            .into_iter()
            .map(|(offset, events)| (offset, TraceRun::new(events, 0)))
            .collect();
        merge_runs(&runs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge is the stable sort of the shifted commit-order
        /// concatenation. Offsets are random and need not grow with the
        /// commit index, runs overlap and reach past the start of later
        /// runs, some are empty, and timestamps come from a narrow range
        /// so ties are the common case.
        #[test]
        fn merge_runs_is_the_stable_sort_of_the_concatenation(
            spec in prop::collection::vec(
                (0u64..40, prop::collection::vec(0u64..24, 0..30)),
                0..12,
            ),
        ) {
            let mut expected: Vec<TraceEvent> = batches(&spec)
                .into_iter()
                .flat_map(|(offset, events)| events.into_iter().map(move |e| e.shifted(offset)))
                .collect();
            expected.sort_by_key(TraceEvent::at_ns);
            prop_assert_eq!(merged(&spec), expected);
        }
    }

    /// Record-order events with these timestamps, numbered so a
    /// comparison sees where each one came from.
    fn recorded(times: impl IntoIterator<Item = u64>) -> Vec<TraceEvent> {
        times
            .into_iter()
            .zip(0..)
            .map(|(at_ns, depth)| TraceEvent::QueueDepth { at_ns, depth })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The harvest sort is `sort_by_key(at_ns)` on every shape of
        /// record order: random (long random runs fall back, short ones
        /// need not), reversed, already sorted, all ties, and the nearly
        /// sorted shape a batch records, where events land a short way
        /// back. Sorted and all-tie input never moves an event, so it
        /// never falls back.
        #[test]
        fn harvest_sort_is_the_stable_sort_by_timestamp(
            shape in 0u8..5,
            raw in prop::collection::vec(0u64..64, 0..600),
        ) {
            let mut times = raw.clone();
            match shape {
                0 => {}
                1 => times.sort_unstable_by(|a, b| b.cmp(a)),
                2 => times.sort_unstable(),
                3 => times.fill(7),
                _ => {
                    for (i, t) in times.iter_mut().enumerate() {
                        *t = i as u64 + *t % 8;
                    }
                }
            }
            let mut events = recorded(times);
            let mut expected = events.clone();
            expected.sort_by_key(TraceEvent::at_ns);
            let fell_back = sort_by_time(&mut events);
            prop_assert_eq!(events, expected);
            if shape == 2 || shape == 3 {
                prop_assert!(!fell_back, "in-order input fell back");
            }
        }
    }

    #[test]
    fn a_reversed_full_ring_falls_back_to_the_merge_sort() {
        let capacity = crate::TraceSpec::default().capacity;
        assert_eq!(capacity, 65_536);
        let mut events = recorded((0..capacity as u64).rev());
        let mut expected = events.clone();
        expected.sort_by_key(TraceEvent::at_ns);
        assert!(sort_by_time(&mut events), "insertion sort kept going");
        assert_eq!(events, expected);
        // The same ring in time order sorts without a single move.
        let mut in_order = expected.clone();
        assert!(!sort_by_time(&mut in_order));
        assert_eq!(in_order, expected);
    }

    #[test]
    fn equal_timestamps_in_different_runs_keep_commit_order() {
        // Every event but one lands at 10 ns on the virtual clock. The
        // second run starts earlier, at 4 ns, and so leads the merge, yet
        // its event at 10 ns must wait for the first run's two.
        let spec = [
            (10, vec![0, 0]),
            (0, vec![4, 10]),
            (4, vec![6, 6]),
            (10, vec![0]),
        ];
        let order: Vec<(u64, u32)> = merged(&spec)
            .iter()
            .map(|e| match *e {
                TraceEvent::QueueDepth { at_ns, depth } => (at_ns, depth),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            order,
            [(4, 3), (10, 1), (10, 2), (10, 4), (10, 5), (10, 6), (10, 7)]
        );
    }

    #[test]
    fn runs_shift_onto_the_virtual_clock_and_count_drops() {
        let depth = |at_ns| TraceEvent::QueueDepth { at_ns, depth: 0 };
        let run = TraceRun::new(vec![depth(30), depth(10)], 3);
        assert_eq!(run.dropped(), 3);
        let runs = [(1000, run), (500, TraceRun::new(vec![depth(5)], 0))];
        let tr = RuntimeTrace::from_fabric(merge_runs(&runs), 3);
        let times: Vec<u64> = tr.fabric.iter().map(TraceEvent::at_ns).collect();
        assert_eq!(times, [505, 1010, 1030]);
        assert_eq!(tr.horizon_ns(), 1030);
    }

    #[test]
    fn a_run_keeps_the_recorders_buffer() {
        // The events are sorted where the recorder left them and shared
        // from there: no second copy of a batch's events.
        let events = recorded([30, 10, 20]);
        let at = events.as_ptr();
        let run = TraceRun::new(events, 0);
        assert_eq!(run.events.as_ptr(), at);
        let times: Vec<u64> = run.events.iter().map(TraceEvent::at_ns).collect();
        assert_eq!(times, [10, 20, 30]);
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
