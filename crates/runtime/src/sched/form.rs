//! **Formation** — the order-sensitive, cheap phase of a batch's
//! lifecycle: pick the fair batch, acquire and pin its multicast groups
//! (charging subnet-manager programming time), and package the
//! simulation as a self-contained `Send` value.
//!
//! Formation mutates only admission state — the indexed job queue and
//! the group pool — never anything a simulation produces, which is what
//! lets the engine hold several formed batches in flight on disjoint
//! fabric partitions. A formed batch owns its resources until it
//! commits: its partition is occupied, its group budget is the pool's
//! pinning headroom, its groups stay pinned, and its tenants' lanes are
//! busy, so no later batch picks a communicator's next collective out of
//! order.

use super::sim::BatchSim;
use super::Runtime;
use crate::job::{JobKind, PendingJob};
use crate::pool::{AcquireOutcome, GroupKey};
use mcag_core::multicomm::Comm;
use mcag_core::{CollectiveKind, CollectivePlan};
use mcag_verbs::CollectiveId;
use std::sync::Arc;

/// Group-key index reserved for a tenant's in-network-reduction tree
/// (subgroup trees use `0..S`).
pub(super) const RS_GROUP_INDEX: u32 = u32::MAX;

/// A batch that passed formation (jobs picked, groups pinned and paid
/// for) and awaits simulation + merge.
pub(super) struct FormedBatch {
    pub(super) index: u64,
    pub(super) picked: Vec<PendingJob>,
    /// `(hits, builds, rebuilds)` per picked job, recorded at acquire.
    pub(super) per_job_groups: Vec<(u32, u32, u32)>,
    /// Subnet-manager group programming time charged before launch.
    pub(super) setup_ns: u64,
    /// Virtual time the batch was formed, which is when it starts.
    pub(super) started_ns: u64,
    /// Fabric partition (SM domain) the batch occupies.
    pub(super) partition: u32,
    pub(super) sim: BatchSim,
}

impl Runtime {
    /// Every multicast-group key a job pins while running: its subgroup
    /// trees, plus the in-switch reduction tree for an AG+RS job. The
    /// iterator borrows nothing, so the pool can change while it runs.
    pub(super) fn group_keys(&self, job: &PendingJob) -> impl Iterator<Item = GroupKey> {
        let tenant = job.spec.tenant.0;
        let subs = self.group_demand(JobKind::Allgather, job.spec.send_len);
        let rs = matches!(job.spec.kind, JobKind::AgRs);
        (0..subs)
            .map(move |index| GroupKey { tenant, index })
            .chain(rs.then_some(GroupKey {
                tenant,
                index: RS_GROUP_INDEX,
            }))
    }

    /// Form the next batch and occupy `partition` with it, or `None` if
    /// nothing schedulable fits the pool's pinning headroom.
    pub(super) fn form_batch(&mut self, partition: u32) -> Option<FormedBatch> {
        let picked = self
            .queue
            .pick_batch(self.cfg.max_inflight, self.pool.headroom());
        if picked.is_empty() {
            return None;
        }
        let index = self.formed;
        self.formed += 1;
        self.partition_busy[partition as usize] = true;
        let proto = self.cfg.proto;
        let p = self.topo.num_hosts() as u32;

        // Program the batch's groups, charging subnet-manager time on
        // the virtual clock. Groups stay pinned and lanes busy until
        // commit: a tenant with a job in flight must not enter another
        // batch (a communicator's collectives are ordered).
        let mut setup_ns = 0u64;
        let mut per_job_groups: Vec<(u32, u32, u32)> = Vec::with_capacity(picked.len());
        for job in &picked {
            let (mut hits, mut builds, mut rebuilds) = (0u32, 0u32, 0u32);
            for key in self.group_keys(job) {
                let (outcome, cost) = self.pool.acquire(key);
                setup_ns += cost;
                match outcome {
                    AcquireOutcome::Hit => hits += 1,
                    AcquireOutcome::Built => builds += 1,
                    AcquireOutcome::Rebuilt => rebuilds += 1,
                }
            }
            per_job_groups.push((hits, builds, rebuilds));
            self.queue.mark_busy(job.spec.tenant);
        }

        // Collective ids 2i+1 (AG/Bcast) and 2i+2 (RS) keep every stream
        // distinct in the immediate bits.
        assert!(
            2 * picked.len() as u32 + 2 <= proto.imm.max_coll_id(),
            "batch of {} jobs exceeds the immediate-layout collective-id space",
            picked.len()
        );

        // The partition's batch fabric with the batch's own seed.
        let mut fabric = self.partition_fabrics[partition as usize].clone();
        fabric.seed = fabric.seed.wrapping_add(index);
        let comms = picked
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let kind = match job.spec.kind {
                    JobKind::Broadcast { root } => CollectiveKind::Broadcast { root },
                    JobKind::Allgather | JobKind::AgRs => CollectiveKind::Allgather,
                };
                let plan = Arc::new(CollectivePlan::new(
                    kind,
                    p,
                    job.spec.send_len,
                    proto.mtu,
                    proto.imm,
                    CollectiveId(2 * i as u32 + 1),
                    proto.subgroups,
                    proto.chains,
                ));
                Comm {
                    plan,
                    rs_in_switch: matches!(job.spec.kind, JobKind::AgRs).then_some(true),
                }
            })
            .collect();
        let sim = BatchSim {
            topo: Arc::clone(&self.topo),
            fabric,
            proto,
            comms,
            watchdog_cutoffs: self.cfg.watchdog_cutoffs,
            sm_sweep: self.cfg.reactive.is_some(),
        };
        Some(FormedBatch {
            index,
            picked,
            per_job_groups,
            setup_ns,
            started_ns: self.now_ns,
            partition,
            sim,
        })
    }
}
