//! **Merge** — the order-sensitive, cheap final phase of a batch's
//! lifecycle: thread the batch onto the virtual service timeline, emit
//! its [`JobRecord`]s, and fold its totals into the runtime aggregates.
//!
//! The merge rule is what makes out-of-order simulation deterministic:
//! batches may *simulate* in any order (or concurrently), but they
//! *commit* here in virtual completion-time order (ties broken by batch
//! index), so the clock, the EWMA throttle state, and every report field
//! are pure functions of the submission stream.
//!
//! This is also where the fault response is decided: a slot censored at
//! the batch's recovery cutoff either re-enters the scheduler through
//! the retry queue (reactive runs with attempts left) or is recorded as
//! a censored [`JobRecord`], and the batch's observed damage (drops,
//! downtime, the timeout itself) is folded into the partition-health
//! score that steers later placements.
//!
//! With the flight recorder on, a commit appends the batch's spans and
//! records its sorted fabric run beside its dispatch time, in commit
//! order; the events themselves are copied once, when
//! `Runtime::take_trace` merges the runs onto the virtual timeline.

use super::form::FormedBatch;
use super::sim::{delivered_bytes, BatchOutcome};
use super::{ReactivePolicy, Runtime};
use crate::job::PendingJob;
use crate::stats::JobRecord;
use mcag_trace::{BatchSpan, JobSpan, Marker, RebuildSpan};

impl Runtime {
    /// Commit one simulated batch, emitting its job records. The batch
    /// started when it was formed (batches overlap across partitions).
    pub(super) fn merge_batch(&mut self, formed: FormedBatch, outcome: BatchOutcome) {
        let FormedBatch {
            index,
            picked,
            per_job_groups,
            setup_ns,
            started_ns: batch_start,
            partition,
            sim,
        } = formed;
        self.moved_bytes += outcome.moved_bytes;
        let reactive = self.cfg.reactive.is_some();

        // Bill the batch's mid-run SM recovery (tree re-routes around
        // dead switches) exactly once, at commit: same detach +
        // reprogram cost as an eviction rebuild. `launch_ready` priced
        // the identical amount into `done_ns` when the batch went in
        // flight, so the occupancy window and the pool counters agree.
        let recovery_ns = self.pool.charge_rebuilds(outcome.sm_rebuilds);

        // Account every job on the virtual timeline: queueing ended at
        // dispatch; group programming happens before data flies.
        let dispatch_ns = batch_start + setup_ns;
        let done_ns = dispatch_ns + outcome.batch_ns + recovery_ns;
        for (i, job) in picked.iter().enumerate() {
            let censored = outcome.slots[i].timed_out;
            if censored {
                self.retry.timed_out_slots += 1;
            }

            // Reactive retry: a censored job with attempts left goes
            // back to the head of its tenant's lane after a capped
            // exponential backoff — no record yet, and the lane stays
            // busy so nothing the tenant submitted later can overtake
            // the retry (communicator order).
            if reactive && censored && job.attempt + 1 < ReactivePolicy::MAX_ATTEMPTS {
                let attempt = job.attempt + 1;
                let backoff = ReactivePolicy::BACKOFF_BASE_NS
                    .saturating_mul(1 << (attempt - 1).min(20))
                    .min(ReactivePolicy::BACKOFF_CAP_NS);
                let ready_ns = done_ns + backoff;
                self.retry.retried_jobs += 1;
                self.retry.backoff_ns_sum += backoff;
                if let Some(tr) = self.trace.as_mut() {
                    tr.markers.push(Marker {
                        at_ns: done_ns,
                        tenant: job.spec.tenant.0,
                        reason: "job-retry",
                    });
                }
                let parked = PendingJob { attempt, ..*job };
                let pos = self.retry_queue.partition_point(|&(t, _)| t <= ready_ns);
                self.retry_queue.insert(pos, (ready_ns, parked));
                continue;
            }

            // Completed — or censored for good (oblivious runs, or the
            // retry budget ran out): the lane idles and a record lands.
            self.queue.mark_idle(job.spec.tenant);
            if censored && reactive {
                self.retry.gave_up_jobs += 1;
            }
            let delivered = if censored {
                0
            } else {
                delivered_bytes(job.spec.kind, &sim.comms[i].plan)
            };
            let (group_hits, group_builds, group_rebuilds) = per_job_groups[i];
            let rec = JobRecord {
                id: job.id,
                tenant: job.spec.tenant,
                kind: job.spec.kind,
                send_len: job.spec.send_len,
                batch: index,
                partition,
                submitted_ns: job.submitted_ns,
                started_ns: batch_start,
                finished_ns: dispatch_ns + outcome.slots[i].done_ns,
                delivered_bytes: delivered,
                group_hits,
                group_builds,
                group_rebuilds,
                attempts: job.attempt + 1,
                timed_out: censored,
                sm_rebuilds: outcome.sm_rebuilds,
            };
            let ts = &mut self.tenants[job.spec.tenant.idx()];
            if censored {
                ts.timed_out += 1;
                ts.censored_ns_sum += rec.latency_ns();
            } else {
                ts.completed += 1;
                ts.queue_ns_sum += rec.queue_ns();
                ts.service_ns_sum += rec.service_ns();
                ts.delivered_bytes += delivered;
                ts.last_finish_ns = ts.last_finish_ns.max(rec.finished_ns);
                self.delivered_bytes += delivered;
            }
            // Sojourn EWMA (α = ¼) feeding the admission throttle:
            // integer arithmetic, updated in commit order, so it is as
            // deterministic as the records themselves. Censored sojourns
            // count too — a fabric losing jobs should shed load, not
            // admit more.
            self.sojourn_ewma_ns = (3 * self.sojourn_ewma_ns + rec.latency_ns()) / 4;
            if let Some(tr) = self.trace.as_mut() {
                tr.jobs.push(JobSpan {
                    job: rec.id.0,
                    tenant: rec.tenant.0,
                    partition,
                    batch: index,
                    submitted_ns: rec.submitted_ns,
                    started_ns: rec.started_ns,
                    finished_ns: rec.finished_ns,
                    pool_hits: group_hits,
                    pool_builds: group_builds,
                    pool_rebuilds: group_rebuilds,
                });
            }
            self.records.push(rec);
        }

        if let Some(tr) = self.trace.as_mut() {
            // Batches merge in commit order, so both the span list and
            // the list of fabric runs land deterministically for every
            // worker count. The run's events are not copied here.
            if let Some(run) = outcome.trace {
                tr.fabric_dropped += run.dropped();
                self.fabric_runs.push((dispatch_ns, run));
            }
            tr.batches.push(BatchSpan {
                batch: index,
                partition,
                jobs: picked.len() as u32,
                start_ns: batch_start,
                setup_ns,
                end_ns: done_ns,
            });
            if outcome.sm_rebuilds > 0 {
                tr.rebuilds.push(RebuildSpan {
                    at_ns: dispatch_ns,
                    partition,
                    batch: index,
                    groups: outcome.sm_rebuilds,
                });
            }
        }
        self.now_ns = self.now_ns.max(done_ns);
        self.batches += 1;
        self.retry.timed_out_batches += outcome.timed_out as u64;
        self.retry.sm_rebuilds += outcome.sm_rebuilds as u64;

        // Fold the batch's observed damage into the partition's health
        // score (commit order ⇒ deterministic): a timeout dominates,
        // drops and downtime grade partial damage.
        self.partition_health[partition as usize] += outcome.fault_drops * 1_000
            + outcome.downtime_ns / 1_000
            + (outcome.timed_out as u64) * 1_000_000;

        let ps = &mut self.partition_stats[partition as usize];
        ps.batches += 1;
        ps.busy_ns += setup_ns + outcome.batch_ns + recovery_ns;
        ps.fault_drops += outcome.fault_drops;
        ps.downtime_ns += outcome.downtime_ns;
        ps.timeouts += outcome.timed_out as u64;
    }
}
