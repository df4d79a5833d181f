//! Tenants, job specifications, admission control, and the pending queue.

use mcag_verbs::Rank;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A logical tenant (training job, user, framework instance) submitting
/// collectives to the shared runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl TenantId {
    /// Tenant as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Runtime-unique job identifier, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Which collective a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobKind {
    /// One root multicasts `send_len` bytes to every rank.
    Broadcast {
        /// The broadcasting rank.
        root: Rank,
    },
    /// Every rank contributes `send_len` bytes; all end with `N·P`.
    Allgather,
    /// The FSDP pair: multicast Allgather concurrent with an in-network
    /// Reduce-Scatter on the same ranks (Section II of the paper). Needs
    /// one extra multicast group for the reduction tree.
    AgRs,
}

impl JobKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Broadcast { .. } => "bcast",
            JobKind::Allgather => "allgather",
            JobKind::AgRs => "ag+rs",
        }
    }
}

/// One submitted collective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Collective kind.
    pub kind: JobKind,
    /// Bytes contributed per root (`N`).
    pub send_len: usize,
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant id was never registered.
    UnknownTenant,
    /// The runtime-wide pending queue is at capacity.
    QueueFull,
    /// This tenant already has its quota of pending jobs.
    TenantQuota,
    /// `send_len` exceeds the admission policy's maximum.
    TooLarge,
    /// `send_len` is zero.
    Empty,
    /// A broadcast root outside the rank range.
    InvalidRoot,
    /// The job needs more multicast groups than the pool holds, so it
    /// could never be scheduled.
    GroupDemand,
    /// Load shedding: the runtime's recent-sojourn estimate exceeded
    /// [`AdmissionPolicy::throttle_sojourn_ns`], so new arrivals are
    /// refused until the backlog drains. Distinct from [`QueueFull`]
    /// (hard queue capacity) so a throttling study can attribute
    /// refusals to the throttle rather than the queue bound.
    ///
    /// [`QueueFull`]: RejectReason::QueueFull
    Throttled,
}

impl RejectReason {
    /// Short kebab-case label (trace markers, CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::QueueFull => "queue-full",
            RejectReason::TenantQuota => "tenant-quota",
            RejectReason::TooLarge => "too-large",
            RejectReason::Empty => "empty",
            RejectReason::InvalidRoot => "invalid-root",
            RejectReason::GroupDemand => "group-demand",
            RejectReason::Throttled => "throttled",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::UnknownTenant => "unknown tenant",
            RejectReason::QueueFull => "runtime queue full",
            RejectReason::TenantQuota => "tenant pending-job quota exceeded",
            RejectReason::TooLarge => "message exceeds admission size limit",
            RejectReason::Empty => "empty message",
            RejectReason::InvalidRoot => "broadcast root out of range",
            RejectReason::GroupDemand => "job needs more groups than the pool holds",
            RejectReason::Throttled => "admission throttled: recent sojourn over threshold",
        };
        f.write_str(s)
    }
}

/// Admission-control thresholds applied at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Max pending jobs across all tenants.
    pub max_queued_total: usize,
    /// Max pending jobs per tenant (back-pressure on noisy neighbours).
    pub max_queued_per_tenant: usize,
    /// Max `send_len` in bytes.
    pub max_send_len: usize,
    /// Load-shedding threshold: while the runtime's exponentially
    /// weighted moving average of completed-job sojourn time (queue +
    /// service, ns) exceeds this, new submissions are refused with
    /// [`RejectReason::Throttled`]. `None` disables throttling (the
    /// default) — under open-loop overload the queue then grows to the
    /// hard [`max_queued_total`](AdmissionPolicy::max_queued_total)
    /// bound and sojourn times grow with it.
    pub throttle_sojourn_ns: Option<u64>,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            max_queued_total: 1024,
            max_queued_per_tenant: 64,
            max_send_len: 64 << 20,
            throttle_sojourn_ns: None,
        }
    }
}

/// An admitted job waiting to be scheduled.
#[derive(Debug, Clone, Copy)]
pub struct PendingJob {
    /// Job id.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Virtual time of submission (ns).
    pub submitted_ns: u64,
    /// Distinct multicast groups the job pins while running.
    pub group_demand: u32,
    /// Batch dispatches consumed so far (0 until first launch; the
    /// reactive scheduler bumps it when re-forming after a timeout).
    pub attempt: u32,
}

/// One tenant's lane in the indexed queue: a FIFO of pending jobs plus
/// the in-flight flag the open-loop scheduler uses to keep a tenant's
/// collectives ordered (a communicator's operations are ordered, so a
/// tenant with a job in a running batch must not enter another batch).
#[derive(Debug, Clone, Default)]
struct Lane {
    fifo: VecDeque<PendingJob>,
    busy: bool,
}

impl Lane {
    #[inline]
    fn ready(&self) -> bool {
        !self.busy && !self.fifo.is_empty()
    }
}

/// Per-tenant FIFO queues drained fairly by the scheduler, indexed for
/// scale.
///
/// A tenant's jobs execute in submission order (a communicator's
/// collectives are ordered), so a batch takes **at most one job per
/// tenant**; the round-robin cursor rotates the starting tenant so no
/// tenant is structurally favoured.
///
/// Lanes live in a dense slab indexed by [`TenantId`], and a sorted
/// **ready index** tracks exactly the tenants that are schedulable
/// (non-empty lane, not marked busy by an in-flight batch). Batch
/// formation therefore walks `O(ready tenants)` — independent of how
/// many tenants are registered — which is what lets the open-loop
/// sweeps scale to thousands of mostly-idle tenants.
/// [`queued_for`](JobQueue::queued_for) is an `O(1)` lane-length
/// lookup, never a queue scan.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    lanes: Vec<Lane>,
    /// Tenants with a schedulable head-of-line job, in index order.
    ready: BTreeSet<u32>,
    len: usize,
    cursor: usize,
}

impl JobQueue {
    /// Empty queue with no tenants.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Add a tenant lane (called on registration).
    pub fn add_tenant(&mut self) {
        self.lanes.push(Lane::default());
    }

    /// Pending jobs across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending jobs?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending jobs for one tenant (`O(1)`: the lane's length, not a
    /// scan of the queue).
    pub fn queued_for(&self, tenant: TenantId) -> usize {
        self.lanes.get(tenant.idx()).map_or(0, |l| l.fifo.len())
    }

    /// Enqueue an admitted job.
    pub fn push(&mut self, job: PendingJob) {
        let t = job.spec.tenant.idx();
        self.lanes[t].fifo.push_back(job);
        if self.lanes[t].ready() {
            self.ready.insert(t as u32);
        }
        self.len += 1;
    }

    /// Re-enqueue a timed-out job at the *head* of its tenant's lane: a
    /// communicator's collectives are ordered, so the retry must run
    /// before anything the tenant submitted after it.
    pub fn push_front(&mut self, job: PendingJob) {
        let t = job.spec.tenant.idx();
        self.lanes[t].fifo.push_front(job);
        if self.lanes[t].ready() {
            self.ready.insert(t as u32);
        }
        self.len += 1;
    }

    /// Mark a tenant's lane busy: it has a job in an in-flight batch, so
    /// its head-of-line job leaves the ready index until
    /// [`mark_idle`](JobQueue::mark_idle).
    pub fn mark_busy(&mut self, tenant: TenantId) {
        let t = tenant.idx();
        self.lanes[t].busy = true;
        self.ready.remove(&(t as u32));
    }

    /// Clear a tenant's busy flag (its batch committed); the lane
    /// re-enters the ready index if jobs are pending.
    pub fn mark_idle(&mut self, tenant: TenantId) {
        let t = tenant.idx();
        self.lanes[t].busy = false;
        if self.lanes[t].ready() {
            self.ready.insert(t as u32);
        }
    }

    /// Pick the next fair batch: starting from the rotating cursor, take
    /// the head-of-line job of each *ready* tenant whose group demand
    /// still fits in `group_budget`, stopping at `max_jobs` jobs. At
    /// most one job per tenant, and only the ready index is walked —
    /// `O(picked + skipped-for-budget)`, not `O(registered tenants)` —
    /// while visiting tenants in exactly the cursor-rotated ascending
    /// order the original full-scan scheduler used (the equivalence the
    /// closed-loop proptest pins).
    pub fn pick_batch(&mut self, max_jobs: usize, group_budget: usize) -> Vec<PendingJob> {
        let n = self.lanes.len();
        let mut picked = Vec::new();
        let mut budget = group_budget;
        if n == 0 || self.ready.is_empty() {
            return picked;
        }
        // Cursor-rotated ascending walk of the ready index: tenants at or
        // after the cursor first, then wrap. Picking only ever removes the
        // tenant just visited, so each step looks up the next ready one
        // after it and the walk sees the index as it was at the start.
        let start = self.cursor as u32;
        let mut at = self
            .ready
            .range(start..)
            .next()
            .or_else(|| self.ready.range(..start).next())
            .copied();
        while let Some(t) = at {
            at = if t >= start {
                self.ready
                    .range(t + 1..)
                    .next()
                    .or_else(|| self.ready.range(..start).next())
            } else {
                self.ready.range(t + 1..start).next()
            }
            .copied();
            if picked.len() >= max_jobs {
                break;
            }
            let lane = &mut self.lanes[t as usize];
            let head = lane.fifo.front().expect("ready lane has a head");
            if head.group_demand as usize > budget {
                continue; // doesn't fit this batch; its turn comes first next time
            }
            budget -= head.group_demand as usize;
            let job = lane.fifo.pop_front().expect("front checked");
            if !lane.ready() {
                self.ready.remove(&t);
            }
            self.len -= 1;
            self.cursor = (t as usize + 1) % n;
            picked.push(job);
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(t: u32, id: u64, demand: u32) -> PendingJob {
        PendingJob {
            id: JobId(id),
            spec: JobSpec {
                tenant: TenantId(t),
                kind: JobKind::Allgather,
                send_len: 4096,
            },
            submitted_ns: 0,
            group_demand: demand,
            attempt: 0,
        }
    }

    fn queue(tenants: u32) -> JobQueue {
        let mut q = JobQueue::new();
        for _ in 0..tenants {
            q.add_tenant();
        }
        q
    }

    #[test]
    fn batch_is_one_job_per_tenant() {
        let mut q = queue(3);
        q.push(job(0, 0, 1));
        q.push(job(0, 1, 1));
        q.push(job(1, 2, 1));
        let batch = q.pick_batch(8, 8);
        let ids: Vec<u64> = batch.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 2], "one job per tenant, FIFO within tenant");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cursor_rotates_fairly() {
        let mut q = queue(4);
        for t in 0..4 {
            q.push(job(t, t as u64, 1));
            q.push(job(t, 4 + t as u64, 1));
        }
        let b1 = q.pick_batch(2, 8);
        assert_eq!(b1[0].spec.tenant, TenantId(0));
        assert_eq!(b1[1].spec.tenant, TenantId(1));
        let b2 = q.pick_batch(2, 8);
        assert_eq!(
            b2[0].spec.tenant,
            TenantId(2),
            "next batch starts where the last stopped"
        );
        assert_eq!(b2[1].spec.tenant, TenantId(3));
    }

    #[test]
    fn push_front_preserves_communicator_order() {
        let mut q = queue(1);
        q.push(job(0, 5, 1)); // submitted after the retry victim
        q.push_front(job(0, 3, 1)); // the timed-out job coming back
        let batch = q.pick_batch(8, 8);
        assert_eq!(batch[0].id, JobId(3), "retry runs before newer work");
        let batch = q.pick_batch(8, 8);
        assert_eq!(batch[0].id, JobId(5));
        assert!(q.is_empty());
    }

    #[test]
    fn group_budget_caps_batch() {
        let mut q = queue(3);
        q.push(job(0, 0, 2));
        q.push(job(1, 1, 2));
        q.push(job(2, 2, 1));
        let batch = q.pick_batch(8, 3);
        // Tenant 0 (2 groups) + tenant 2 (1 group) fit; tenant 1 must wait.
        let ids: Vec<u64> = batch.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(q.len(), 1);
    }
}
