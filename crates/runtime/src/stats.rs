//! Per-job records, per-tenant aggregates, and the runtime report.

use crate::job::{JobId, JobKind, RejectReason, TenantId};
use crate::pool::PoolStats;
use serde::{Deserialize, Serialize};

/// Lifecycle record of one job that reached a terminal state —
/// completed, or censored ([`timed_out`](JobRecord::timed_out)) — with
/// all times on the virtual runtime clock, ns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Collective kind.
    pub kind: JobKind,
    /// Bytes per root.
    pub send_len: usize,
    /// Batch the job ran in.
    pub batch: u64,
    /// Fabric partition (SM domain) the job's batch occupied.
    pub partition: u32,
    /// Submission time.
    pub submitted_ns: u64,
    /// Time the job's batch was dispatched (queueing ends here).
    pub started_ns: u64,
    /// Time the job's last rank released its buffer.
    pub finished_ns: u64,
    /// Payload bytes delivered to hosts by this job.
    pub delivered_bytes: u64,
    /// Multicast groups served from the pool without SM traffic.
    pub group_hits: u32,
    /// Groups programmed into free slots for this job.
    pub group_builds: u32,
    /// Groups programmed after evicting an LRU entry.
    pub group_rebuilds: u32,
    /// Batch dispatches this job consumed (1 = first try completed;
    /// >1 = the reactive scheduler re-formed it after timeouts).
    pub attempts: u32,
    /// True when the job never completed: `finished_ns` is the censoring
    /// instant (its batch's recovery cutoff), not a completion.
    pub timed_out: bool,
    /// SM tree rebuilds charged to this job's final batch.
    pub sm_rebuilds: u32,
}

impl JobRecord {
    /// Time spent waiting in the queue (ns).
    pub fn queue_ns(&self) -> u64 {
        self.started_ns.saturating_sub(self.submitted_ns)
    }

    /// Time from dispatch (incl. group setup) to completion (ns).
    pub fn service_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    /// End-to-end latency (ns).
    pub fn latency_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.submitted_ns)
    }
}

/// Aggregates for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name (as registered).
    pub name: String,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that never completed: censored at their batch's recovery
    /// cutoff (after retries were exhausted, on reactive runs).
    pub timed_out: u64,
    /// Sum of censored sojourns (submit → censoring instant) over
    /// timed-out jobs (ns) — the lower bound on the latency those jobs
    /// would have had, kept out of the completed-job means.
    pub censored_ns_sum: u64,
    /// Sum of queueing delays over completed jobs (ns).
    pub queue_ns_sum: u64,
    /// Sum of service times over completed jobs (ns).
    pub service_ns_sum: u64,
    /// Payload bytes delivered to hosts for this tenant.
    pub delivered_bytes: u64,
    /// Completion time of the tenant's last job (ns).
    pub last_finish_ns: u64,
}

impl TenantStats {
    pub(crate) fn new(name: &str) -> TenantStats {
        TenantStats {
            name: name.to_string(),
            submitted: 0,
            rejected: 0,
            completed: 0,
            timed_out: 0,
            censored_ns_sum: 0,
            queue_ns_sum: 0,
            service_ns_sum: 0,
            delivered_bytes: 0,
            last_finish_ns: 0,
        }
    }

    /// Mean queueing delay over completed jobs (ns).
    pub fn mean_queue_ns(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.queue_ns_sum as f64 / self.completed as f64
    }

    /// Mean service time over completed jobs (ns).
    pub fn mean_service_ns(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.service_ns_sum as f64 / self.completed as f64
    }
}

/// Admission refusals broken down by [`RejectReason`] — the attribution
/// the load-shedding study needs (a throttled job is service feedback;
/// a `TooLarge` job is a client error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCounts {
    /// Submissions naming an unregistered tenant.
    pub unknown_tenant: u64,
    /// Zero-byte submissions.
    pub empty: u64,
    /// `send_len` over the policy maximum.
    pub too_large: u64,
    /// Broadcast roots outside the rank range.
    pub invalid_root: u64,
    /// Group demand exceeding the pool capacity.
    pub group_demand: u64,
    /// Sojourn-EWMA admission throttle refusals.
    pub throttled: u64,
    /// Runtime-wide queue-depth refusals.
    pub queue_full: u64,
    /// Per-tenant quota refusals.
    pub tenant_quota: u64,
}

impl RejectCounts {
    /// Attribute one refusal.
    pub fn count(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::UnknownTenant => self.unknown_tenant += 1,
            RejectReason::Empty => self.empty += 1,
            RejectReason::TooLarge => self.too_large += 1,
            RejectReason::InvalidRoot => self.invalid_root += 1,
            RejectReason::GroupDemand => self.group_demand += 1,
            RejectReason::Throttled => self.throttled += 1,
            RejectReason::QueueFull => self.queue_full += 1,
            RejectReason::TenantQuota => self.tenant_quota += 1,
        }
    }

    /// Refusals across all reasons.
    pub fn total(&self) -> u64 {
        self.unknown_tenant
            + self.empty
            + self.too_large
            + self.invalid_root
            + self.group_demand
            + self.throttled
            + self.queue_full
            + self.tenant_quota
    }
}

/// Occupancy aggregates for one fabric partition (SM domain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Batches committed on this partition.
    pub batches: u64,
    /// Virtual time the partition spent serving batches (group setup +
    /// fabric run), ns.
    pub busy_ns: u64,
    /// Packet copies lost to down links across this partition's batches.
    pub fault_drops: u64,
    /// Link downtime accrued during this partition's batches (ns,
    /// summed over links).
    pub downtime_ns: u64,
    /// Batches that hit their recovery cutoff on this partition.
    pub timeouts: u64,
}

impl PartitionStats {
    /// Fraction of `[0, makespan_ns)` this partition was busy.
    pub fn occupancy(&self, makespan_ns: u64) -> f64 {
        if makespan_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / makespan_ns as f64
    }
}

/// Recovery accounting for one run: all zero on a healthy fabric. On a
/// faulted fabric the timeout counters accrue in every mode, while the
/// retry/backoff/rebuild counters are the reactive scheduler's — an
/// oblivious run leaves them zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Batches that hit their recovery cutoff.
    pub timed_out_batches: u64,
    /// Job-slots censored at a batch cutoff (a job retried 3 times
    /// counts 3 here and once in `JobRecord`).
    pub timed_out_slots: u64,
    /// Timed-out jobs re-formed into a later batch.
    pub retried_jobs: u64,
    /// Timed-out jobs whose retry budget ran out (recorded censored).
    pub gave_up_jobs: u64,
    /// Multicast trees the SM re-routed around dead switches.
    pub sm_rebuilds: u64,
    /// Backoff delay injected between a timeout and the retry becoming
    /// eligible (ns, summed).
    pub backoff_ns_sum: u64,
}

/// Snapshot of everything the runtime measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// One record per admitted job that reached a terminal state, in
    /// commit order: completed jobs and censored ones (`timed_out`,
    /// `finished_ns` = the censoring instant). A job parked for a retry
    /// has no record yet.
    pub jobs: Vec<JobRecord>,
    /// Per-tenant aggregates, indexed by [`TenantId`].
    pub tenants: Vec<TenantStats>,
    /// Group-pool counters.
    pub pool: PoolStats,
    /// Batches dispatched.
    pub batches: u64,
    /// Virtual time when the last batch finished (ns).
    pub makespan_ns: u64,
    /// Payload bytes delivered to hosts across all jobs.
    pub delivered_bytes: u64,
    /// Payload bytes moved across all fabric links (each byte counted
    /// once per link crossed) — the switch-counter view.
    pub moved_bytes: u64,
    /// Submission attempts, admitted + rejected — the offered load.
    pub offered_jobs: u64,
    /// Refusals by reason.
    pub rejects: RejectCounts,
    /// Per-partition occupancy, indexed by partition.
    pub partitions: Vec<PartitionStats>,
    /// Recovery accounting (zero on healthy/oblivious runs).
    pub retry: RetryStats,
}

impl RuntimeReport {
    /// Jobs completed (censored records excluded).
    pub fn completed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| !j.timed_out).count()
    }

    /// Jobs recorded censored: they never completed and their
    /// `finished_ns` is the censoring instant.
    pub fn timed_out_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.timed_out).count()
    }

    /// Group-pool hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.pool.hit_rate()
    }

    /// Sustained delivered goodput over the whole run, Tbit/s
    /// (the algorithmic bandwidth of the whole job mix).
    pub fn sustained_tbps(&self) -> f64 {
        mcag_models::algbw_gbps(self.delivered_bytes, self.makespan_ns) / 1e3
    }

    /// Mean end-to-end latency across every record (ns) — censored jobs
    /// included, at their censoring instant.
    pub fn mean_latency_ns(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.jobs.iter().map(JobRecord::latency_ns).sum();
        sum as f64 / self.jobs.len() as f64
    }

    /// Nearest-rank sojourn-time percentile over every record (ns) —
    /// censored jobs included, at their censoring instant: `q` in
    /// `[0, 1]`, e.g. `0.99` for the p99 tail. Sojourn is the full
    /// queue + service latency. Returns 0 with no records.
    pub fn sojourn_percentile_ns(&self, q: f64) -> u64 {
        let mut lat: Vec<u64> = self.jobs.iter().map(JobRecord::latency_ns).collect();
        lat.sort_unstable();
        mcag_models::nearest_rank(&lat, q)
    }

    /// Mean partition occupancy over the run, in `[0, 1]`: busy virtual
    /// time summed over partitions, over `makespan × partitions`.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns == 0 || self.partitions.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.partitions.iter().map(|p| p.busy_ns).sum();
        busy as f64 / (self.makespan_ns as f64 * self.partitions.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_phase_math() {
        let r = JobRecord {
            id: JobId(0),
            tenant: TenantId(0),
            kind: JobKind::Allgather,
            send_len: 4096,
            batch: 0,
            partition: 0,
            submitted_ns: 100,
            started_ns: 400,
            finished_ns: 1000,
            delivered_bytes: 0,
            group_hits: 0,
            group_builds: 1,
            group_rebuilds: 0,
            attempts: 1,
            timed_out: false,
            sm_rebuilds: 0,
        };
        assert_eq!(r.queue_ns(), 300);
        assert_eq!(r.service_ns(), 600);
        assert_eq!(r.latency_ns(), 900);
    }

    #[test]
    fn tbps_units() {
        let rep = RuntimeReport {
            jobs: Vec::new(),
            tenants: Vec::new(),
            pool: PoolStats::default(),
            batches: 0,
            // 125 MB in 1 ms (= 125 GB/s) = 1 Tbit/s.
            makespan_ns: 1_000_000,
            delivered_bytes: 125_000_000,
            moved_bytes: 0,
            offered_jobs: 0,
            rejects: RejectCounts::default(),
            partitions: Vec::new(),
            retry: RetryStats::default(),
        };
        assert!((rep.sustained_tbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sojourn_percentile_nearest_rank() {
        let rec = |submitted_ns: u64, finished_ns: u64| JobRecord {
            id: JobId(0),
            tenant: TenantId(0),
            kind: JobKind::Allgather,
            send_len: 1,
            batch: 0,
            partition: 0,
            submitted_ns,
            started_ns: submitted_ns,
            finished_ns,
            delivered_bytes: 0,
            group_hits: 0,
            group_builds: 0,
            group_rebuilds: 0,
            attempts: 1,
            timed_out: false,
            sm_rebuilds: 0,
        };
        let rep = RuntimeReport {
            jobs: (1..=100).map(|i| rec(0, i * 10)).collect(),
            tenants: Vec::new(),
            pool: PoolStats::default(),
            batches: 0,
            makespan_ns: 1000,
            delivered_bytes: 0,
            moved_bytes: 0,
            offered_jobs: 120,
            rejects: RejectCounts::default(),
            partitions: vec![PartitionStats {
                batches: 4,
                busy_ns: 500,
                ..PartitionStats::default()
            }],
            retry: RetryStats::default(),
        };
        assert_eq!(rep.sojourn_percentile_ns(0.5), 500);
        assert_eq!(rep.sojourn_percentile_ns(0.99), 990);
        assert_eq!(rep.sojourn_percentile_ns(1.0), 1000);
        assert_eq!(rep.sojourn_percentile_ns(0.0), 10, "rank clamps to 1");
        assert!((rep.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reject_counts_attribute_reasons() {
        let mut rc = RejectCounts::default();
        rc.count(RejectReason::Throttled);
        rc.count(RejectReason::Throttled);
        rc.count(RejectReason::TooLarge);
        rc.count(RejectReason::QueueFull);
        assert_eq!(rc.throttled, 2);
        assert_eq!(rc.too_large, 1);
        assert_eq!(rc.total(), 4);
    }
}
