//! The runtime scheduler: admits jobs, batches them fairly across
//! tenants, arbitrates the multicast-group table, and drives each batch
//! over a fresh DES fabric while a virtual clock threads the batches
//! into one continuous service timeline.
//!
//! ## Execution model
//!
//! Time is virtual nanoseconds. A **batch** is dispatched by taking at
//! most one head-of-line job per ready tenant (round-robin over a
//! rotating cursor on the queue's ready index) until
//! [`RuntimeConfig::max_inflight`] jobs are picked or the batch's
//! distinct multicast-group demand would exceed its group budget. Group
//! acquisition charges subnet-manager programming time
//! (`build`/`rebuild`) on the clock *before* data flies; the batch then
//! runs to quiescence on a dedicated [`Fabric`] whose group table is
//! capped at the pool capacity, so the resource model is enforced at the
//! switch level too. Jobs in one batch genuinely contend: they share
//! every NIC's round-robin QP arbiter and every fabric link.
//!
//! ## Phases: form / simulate / merge
//!
//! A batch's lifecycle is split across the submodules: **formation**
//! (`form` — pick jobs, acquire/pin multicast groups, charge SM
//! programming time; order-sensitive and cheap), **simulation**
//! (`sim` — the expensive fabric run, a self-contained [`Send`] job),
//! and **merge** (`merge` — thread the virtual clock, emit
//! [`JobRecord`](crate::stats::JobRecord)s). Formation never reads a
//! simulation result, so simulations may run out of order or
//! concurrently; merges commit in a fixed order, which makes every
//! report a pure function of the submission stream. Between formation
//! and simulation sits **replay** (`memo`): a batch shape this
//! runtime has simulated before gets its stored outcome back, so the
//! fabric runs once per recurring shape rather than once per batch.
//!
//! ## One engine
//!
//! [`Runtime::run_open_loop_jobs`] is the only driver. Work reaches it
//! two ways that differ in nothing but the arrival time:
//! [`Runtime::submit`] admits a job *now*, [`Runtime::submit_at`]
//! schedules an arrival (e.g. a seeded [`crate::arrivals`] stream) for
//! *later* on the virtual clock — a pre-filled queue is the engine with
//! every arrival already due. Batches start *resource-driven*: whenever
//! a fabric partition (an independent SM domain) is free and the group
//! pool has pinning headroom, the next fair batch forms and launches
//! immediately — so batches with disjoint group sets **overlap on the
//! virtual clock** across partitions (cross-batch pipelining), and on
//! one partition they run back to back. Completions commit in
//! virtual-time order (ties by batch index), and per-batch seeds derive
//! from the batch index, so reports are byte-identical for any worker
//! count.

mod form;
mod memo;
mod merge;
mod sim;

use crate::arrivals::Arrival;
use crate::job::{
    AdmissionPolicy, JobId, JobKind, JobQueue, JobSpec, PendingJob, RejectReason, TenantId,
};
use crate::pool::{McastGroupPool, PoolConfig};
use crate::stats::{PartitionStats, RejectCounts, RetryStats, RuntimeReport, TenantStats};
use form::FormedBatch;
use mcag_core::{des, ProtocolConfig};
use mcag_simnet::{FabricConfig, LinkSchedule, Topology};
use mcag_trace::{merge_runs, Marker, RuntimeTrace, TraceRun, TraceSpec};
use memo::BatchMemo;
pub use memo::MemoStats;
use sim::BatchOutcome;
use std::collections::VecDeque;
use std::sync::Arc;

#[allow(unused_imports)] // doc links
use mcag_simnet::Fabric;

/// How the scheduler reacts to fabric faults. `None` on
/// [`RuntimeConfig::reactive`] is the **oblivious** baseline: batches
/// are placed on the lowest free partition regardless of damage, and a
/// timed-out job is recorded censored. `Some` turns on the one
/// reaction: health-aware partition steering that quarantines any
/// partition with known damage while a healthier one is serving
/// ([`Runtime::partition_health_score`]), mid-batch SM tree rebuilds,
/// and timed-out jobs re-formed into later batches under capped
/// exponential backoff. Its parameters are the associated constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactivePolicy;

impl ReactivePolicy {
    /// Batch dispatches a job may consume before it is recorded
    /// censored: three retries.
    pub const MAX_ATTEMPTS: u32 = 4;
    /// Backoff before the first retry becomes eligible (ns); attempt
    /// `k` waits `BACKOFF_BASE_NS << (k-1)`, capped below.
    pub const BACKOFF_BASE_NS: u64 = 200_000;
    /// Ceiling on the per-retry backoff (ns).
    pub const BACKOFF_CAP_NS: u64 = 1_600_000;
    /// Period of the mid-batch subnet-manager sweep, in multiples of
    /// the batch's summed per-job cutoffs: each sweep diagnoses
    /// fully-dead switches and re-routes multicast trees around them
    /// (rebuild time billed at commit via the group pool).
    pub const SM_CHECK_CUTOFFS: u64 = 4;
}

/// Everything the runtime needs to know up front.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Fabric model shared by every batch. Batch `i` runs with seed
    /// `fabric.seed + i`, so runs are deterministic end to end; the seed
    /// changes a result only when [`FabricConfig::uses_rng`] (random
    /// corruption). Otherwise batches of one shape are
    /// interchangeable and the runtime replays a recurring shape's
    /// outcome instead of simulating it again ([`Runtime::memo_stats`]).
    ///
    /// The runtime overwrites three sub-fields in every batch fabric:
    /// `trace` (with [`trace`](RuntimeConfig::trace)),
    /// `mcast_table_capacity` (with the pool capacity) and, when
    /// [`partition_faults`](RuntimeConfig::partition_faults) is
    /// non-empty, `faults` (with the partition's schedule).
    pub fabric: FabricConfig,
    /// Protocol knobs applied to every job.
    pub proto: ProtocolConfig,
    /// Multicast-group pool (the switch table).
    pub pool: PoolConfig,
    /// Submit-time admission thresholds.
    pub admission: AdmissionPolicy,
    /// Max jobs dispatched into one batch.
    pub max_inflight: usize,
    /// Independent fabric partitions (SM domains) the engine may run
    /// batches on concurrently — the cross-batch pipelining width.
    pub partitions: usize,
    /// Flight-recorder spec: `Some` records batch/job spans and
    /// admission markers in the runtime, and threads the same spec into
    /// every batch fabric, whose packet events are merged onto the
    /// virtual clock in commit order. Harvest
    /// with [`Runtime::take_trace`]. `None` (the default) records
    /// nothing and adds one branch per would-be record.
    pub trace: Option<TraceSpec>,
    /// Per-partition fault schedules: when non-empty (length must equal
    /// [`partitions`](RuntimeConfig::partitions)), every batch placed on
    /// partition `p` replays `partition_faults[p]` on its fabric, with
    /// event times relative to the batch's launch — the partition's
    /// standing hazard environment. Empty (the default) leaves
    /// [`fabric`](RuntimeConfig::fabric)`.faults` as configured.
    pub partition_faults: Vec<LinkSchedule>,
    /// Fault-reaction policy; `None` (the default) is the oblivious
    /// baseline — see [`ReactivePolicy`].
    pub reactive: Option<ReactivePolicy>,
    /// Batch recovery cutoff, in multiples of the batch's summed
    /// per-job drain cutoffs: a batch still running past the cutoff is
    /// censored (timed out), never panicked. The default is the DES
    /// livelock watchdog's generous bound; fault studies shrink it so a
    /// casualty is declared on a recovery timescale.
    pub watchdog_cutoffs: u64,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            fabric: FabricConfig::ucc_default(),
            proto: ProtocolConfig::default(),
            pool: PoolConfig::default(),
            admission: AdmissionPolicy::default(),
            max_inflight: 8,
            partitions: 1,
            trace: None,
            partition_faults: Vec::new(),
            reactive: None,
            watchdog_cutoffs: des::WATCHDOG_CUTOFFS,
        }
    }
}

/// A simulated batch waiting for its virtual completion time.
struct InflightBatch {
    formed: FormedBatch,
    outcome: BatchOutcome,
    /// Virtual completion: `started + setup + batch_ns`.
    done_ns: u64,
}

/// The long-lived multi-tenant collective runtime.
pub struct Runtime {
    /// Shared with every batch's `BatchSim` and fabric, never copied.
    topo: Arc<Topology>,
    cfg: RuntimeConfig,
    pool: McastGroupPool,
    queue: JobQueue,
    tenants: Vec<TenantStats>,
    records: Vec<crate::stats::JobRecord>,
    now_ns: u64,
    next_job: u64,
    batches: u64,
    /// Batches formed so far (runs ahead of `batches` while formed
    /// batches are in flight). Per-batch fabric seeds derive from this
    /// index — which is all the index feeds, and a seed matters only
    /// when `cfg.fabric.uses_rng()`.
    formed: u64,
    delivered_bytes: u64,
    moved_bytes: u64,
    /// Scheduled open-loop arrivals, sorted by time; `arrival_cursor`
    /// marks the first not-yet-due row.
    arrivals: Vec<Arrival>,
    arrival_cursor: usize,
    /// Formed and simulated batches awaiting their virtual completion.
    inflight: Vec<InflightBatch>,
    /// Per partition: occupied by an in-flight or just-formed batch.
    partition_busy: Vec<bool>,
    /// Per-partition occupancy aggregates, indexed by partition.
    partition_stats: Vec<PartitionStats>,
    /// EWMA (α = ¼) of completed-job sojourn time, feeding the
    /// admission throttle.
    sojourn_ewma_ns: u64,
    /// Submission attempts (admitted + rejected).
    offered: u64,
    rejects: RejectCounts,
    /// Timed-out jobs awaiting their backoff deadline, sorted by
    /// eligibility time (ties keep insertion = commit order). Their
    /// tenant lanes stay busy until re-queued, preserving communicator
    /// order.
    retry_queue: VecDeque<(u64, PendingJob)>,
    /// Per-partition damage score: static subnet-manager telemetry from
    /// `cfg.partition_faults` plus dynamic observations folded in at
    /// commit. The reactive scheduler steers batches toward the minimum.
    partition_health: Vec<u64>,
    /// Per partition, built at construction: the fabric config every
    /// batch on it clones (only the seed varies per batch).
    partition_fabrics: Vec<FabricConfig>,
    /// Recovery accounting, accumulated at commit.
    retry: RetryStats,
    /// Accumulating trace document (`Some` iff `cfg.trace` is), its
    /// `fabric` left empty until [`Runtime::take_trace`].
    trace: Option<RuntimeTrace>,
    /// Each committed batch's sorted fabric events with its dispatch
    /// time, in commit order: what `take_trace` merges into `fabric`.
    fabric_runs: Vec<(u64, TraceRun)>,
    /// Outcomes of recurring batch shapes ([`Runtime::simulate`]).
    memo: BatchMemo,
    /// `launch_ready`'s formed batches and their outcomes, empty between
    /// launches and kept for their buffers.
    launch_buffers: (Vec<FormedBatch>, Vec<BatchOutcome>),
}

impl Runtime {
    /// Create a runtime serving collectives on `topo`.
    pub fn new(topo: Topology, cfg: RuntimeConfig) -> Runtime {
        assert!(topo.num_hosts() >= 2, "runtime needs at least two ranks");
        assert!(cfg.max_inflight >= 1, "max_inflight must be positive");
        assert!(cfg.partitions >= 1, "need at least one fabric partition");
        // A full batch gives slot `i` the collective ids 2i+1 and 2i+2.
        assert!(
            2 * cfg.max_inflight as u64 + 2 <= cfg.proto.imm.max_coll_id() as u64,
            "max_inflight of {} exceeds the immediate-layout collective-id space ({} ids)",
            cfg.max_inflight,
            cfg.proto.imm.max_coll_id()
        );
        assert!(
            cfg.partition_faults.is_empty() || cfg.partition_faults.len() == cfg.partitions,
            "partition_faults must name every partition ({} schedules for {} partitions)",
            cfg.partition_faults.len(),
            cfg.partitions
        );
        let pool = McastGroupPool::new(cfg.pool);
        // Each partition's batch fabric, built once: the group table
        // capped at the pool capacity (overcommit would trip the switch
        // model), the runtime's trace spec (each batch records on its
        // local clock; merge shifts the events onto the virtual
        // timeline), the partition's fault schedule (replayed relative
        // to every batch's launch, so a damaged SM domain stays damaged).
        let partition_fabrics = (0..cfg.partitions)
            .map(|p| {
                let mut fabric = cfg.fabric.clone();
                fabric.mcast_table_capacity = Some(pool.capacity());
                fabric.trace = cfg.trace.clone();
                if let Some(faults) = cfg.partition_faults.get(p) {
                    fabric.faults = faults.clone();
                }
                fabric
            })
            .collect();
        let partition_stats = vec![PartitionStats::default(); cfg.partitions];
        let partition_busy = vec![false; cfg.partitions];
        // Static SM telemetry: the subnet manager knows its own fault
        // schedules, so each partition starts with a damage score
        // summarizing the outages it will replay (one point per ms of
        // scheduled downtime plus a fixed charge per down transition).
        // Dynamic observations are folded in at commit.
        let mut partition_health = vec![0u64; cfg.partitions];
        for (p, sched) in cfg.partition_faults.iter().enumerate() {
            for (i, ev) in sched.events().iter().enumerate() {
                if !ev.up {
                    let next_up = sched.next_up_ns(i);
                    let outage_us = if next_up == u64::MAX {
                        1_000_000 // never recovers: a fixed large outage
                    } else {
                        (next_up - ev.at_ns) / 1_000
                    };
                    partition_health[p] += 1_000 + outage_us;
                }
            }
        }
        let trace = cfg.trace.as_ref().map(|_| RuntimeTrace::default());
        let partitions = cfg.partitions;
        Runtime {
            topo: Arc::new(topo),
            cfg,
            pool,
            queue: JobQueue::new(),
            tenants: Vec::new(),
            records: Vec::new(),
            now_ns: 0,
            next_job: 0,
            batches: 0,
            formed: 0,
            delivered_bytes: 0,
            moved_bytes: 0,
            arrivals: Vec::new(),
            arrival_cursor: 0,
            inflight: Vec::new(),
            partition_busy,
            partition_stats,
            sojourn_ewma_ns: 0,
            offered: 0,
            rejects: RejectCounts::default(),
            retry_queue: VecDeque::new(),
            partition_health,
            partition_fabrics,
            retry: RetryStats::default(),
            trace,
            fabric_runs: Vec::new(),
            memo: BatchMemo::default(),
            // A launch forms at most one batch per partition.
            launch_buffers: (
                Vec::with_capacity(partitions),
                Vec::with_capacity(partitions),
            ),
        }
    }

    /// Current damage score of one partition: static SM telemetry from
    /// its fault schedule plus dynamic observations (drops, downtime,
    /// timeouts) folded in as its batches commit. The reactive scheduler
    /// steers new batches toward the minimum-score free partition and
    /// quarantines partitions with a positive score while a healthier
    /// one is serving.
    pub fn partition_health_score(&self, partition: usize) -> u64 {
        self.partition_health[partition]
    }

    /// Register a tenant; its id indexes the per-tenant stats.
    pub fn register_tenant(&mut self, name: &str) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(TenantStats::new(name));
        self.queue.add_tenant();
        id
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Group-pool handle (counters, residency).
    pub fn pool(&self) -> &McastGroupPool {
        &self.pool
    }

    /// Distinct multicast groups a job may pin while running: one tree
    /// per subgroup (clamped to the chunk count, as the plan does) plus
    /// the in-switch reduction tree for AG+RS jobs.
    pub fn group_demand(&self, kind: JobKind, send_len: usize) -> u32 {
        let chunks = (self.cfg.proto.mtu.chunks_for(send_len) as u32).max(1);
        let subs = self.cfg.proto.subgroups.clamp(1, chunks);
        subs + matches!(kind, JobKind::AgRs) as u32
    }

    /// Submit a collective at the current virtual time. Admission
    /// control runs here: the job is either queued (`Ok`) or refused
    /// with a [`RejectReason`], counted against the tenant. Queued jobs
    /// run on the next [`Runtime::run_open_loop_jobs`].
    pub fn submit(
        &mut self,
        tenant: TenantId,
        kind: JobKind,
        send_len: usize,
    ) -> Result<JobId, RejectReason> {
        let now = self.now_ns;
        self.admit_arrival(Arrival {
            arrival_ns: now,
            tenant,
            kind,
            send_len,
        })
    }

    /// Schedule one arrival at `at_ns ≥ now` on the virtual clock; the
    /// admission decision is taken when virtual time reaches `at_ns`
    /// during a run ([`Runtime::run_open_loop_jobs`]). This is how the
    /// [`crate::arrivals`] generators feed the runtime.
    pub fn submit_at(&mut self, at_ns: u64, tenant: TenantId, kind: JobKind, send_len: usize) {
        assert!(
            at_ns >= self.now_ns,
            "arrival at {at_ns} ns is in the past (now = {} ns)",
            self.now_ns
        );
        let arrival = Arrival {
            arrival_ns: at_ns,
            tenant,
            kind,
            send_len,
        };
        // Insert after any equal-time rows: arrival order is preserved
        // for simultaneous submissions.
        let pos = self
            .arrivals
            .partition_point(|a| a.arrival_ns <= at_ns)
            .max(self.arrival_cursor);
        self.arrivals.insert(pos, arrival);
    }

    /// Load a whole arrival stream (e.g. a generated
    /// [`Workload`](crate::arrivals::Workload) or a merged trace) for an
    /// open-loop run. Rows must not be in the past; they are merged,
    /// stably, with anything already scheduled.
    pub fn load_arrivals(&mut self, rows: &[Arrival]) {
        // One record at most per arrival: size both vectors once rather
        // than doubling past the stream's length.
        self.arrivals.reserve(rows.len());
        self.records.reserve(rows.len());
        for &row in rows {
            self.submit_at(row.arrival_ns, row.tenant, row.kind, row.send_len);
        }
    }

    /// Admit one due arrival at the current virtual time.
    fn admit_arrival(&mut self, a: Arrival) -> Result<JobId, RejectReason> {
        self.offered += 1;
        if a.tenant.idx() >= self.tenants.len() {
            self.rejects.count(RejectReason::UnknownTenant);
            self.mark_reject(&a, RejectReason::UnknownTenant);
            return Err(RejectReason::UnknownTenant);
        }
        if let Err(reason) = self.admission_check(a.tenant, a.kind, a.send_len) {
            self.rejects.count(reason);
            self.tenants[a.tenant.idx()].rejected += 1;
            self.mark_reject(&a, reason);
            return Err(reason);
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.queue.push(PendingJob {
            id,
            spec: JobSpec {
                tenant: a.tenant,
                kind: a.kind,
                send_len: a.send_len,
            },
            submitted_ns: a.arrival_ns,
            group_demand: self.group_demand(a.kind, a.send_len),
            attempt: 0,
        });
        self.tenants[a.tenant.idx()].submitted += 1;
        Ok(id)
    }

    /// Record a refusal as a trace marker (throttle refusals carry the
    /// `"throttled"` reason).
    fn mark_reject(&mut self, a: &Arrival, reason: RejectReason) {
        if let Some(tr) = self.trace.as_mut() {
            tr.markers.push(Marker {
                at_ns: a.arrival_ns,
                tenant: a.tenant.0,
                reason: reason.label(),
            });
        }
    }

    fn admission_check(
        &self,
        tenant: TenantId,
        kind: JobKind,
        send_len: usize,
    ) -> Result<(), RejectReason> {
        if send_len == 0 {
            return Err(RejectReason::Empty);
        }
        if send_len > self.cfg.admission.max_send_len {
            return Err(RejectReason::TooLarge);
        }
        if let JobKind::Broadcast { root } = kind {
            if root.idx() >= self.topo.num_hosts() {
                return Err(RejectReason::InvalidRoot);
            }
        }
        if self.group_demand(kind, send_len) as usize > self.pool.capacity() {
            return Err(RejectReason::GroupDemand);
        }
        // Load shedding: while recent sojourn (EWMA over commits) is
        // over the threshold, refuse new work so queued jobs drain.
        if let Some(limit) = self.cfg.admission.throttle_sojourn_ns {
            if self.sojourn_ewma_ns > limit {
                return Err(RejectReason::Throttled);
            }
        }
        if self.queue.len() >= self.cfg.admission.max_queued_total {
            return Err(RejectReason::QueueFull);
        }
        if self.queue.queued_for(tenant) >= self.cfg.admission.max_queued_per_tenant {
            return Err(RejectReason::TenantQuota);
        }
        Ok(())
    }

    /// Serial run (= [`Runtime::run_open_loop_jobs`] with one worker).
    pub fn run_open_loop(&mut self) -> RuntimeReport {
        self.run_open_loop_jobs(1)
    }

    /// The engine: drain the queue and the scheduled arrival stream on
    /// the virtual clock, starting batches **resource-driven** — a
    /// batch forms and launches the moment a fabric partition is free
    /// and the group pool has pinning headroom — so disjoint-group
    /// batches overlap on the virtual clock across
    /// [`RuntimeConfig::partitions`] SM domains. Up to `jobs` batch
    /// simulations run concurrently on the fork-join executor; their
    /// results **commit in virtual completion-time order** (ties broken
    /// by batch index), so the report is byte-identical for any `jobs`.
    pub fn run_open_loop_jobs(&mut self, jobs: usize) -> RuntimeReport {
        assert!(jobs >= 1, "need at least one worker");
        loop {
            self.launch_due(jobs);
            if !self.advance_clock() {
                break;
            }
        }
        self.report()
    }

    /// First half of an engine turn: admit what is due at the current
    /// virtual time and launch every batch that fits.
    fn launch_due(&mut self, jobs: usize) {
        self.admit_due_arrivals();
        self.admit_due_retries();
        self.launch_ready(jobs);
    }

    /// Second half: jump the clock to the next completion, arrival or
    /// retry deadline and commit the batches completing there. `false`
    /// when nothing is left to wait for.
    fn advance_clock(&mut self) -> bool {
        let next_done = self.inflight.iter().map(|b| b.done_ns).min();
        let next_arrival = self.arrivals.get(self.arrival_cursor).map(|a| a.arrival_ns);
        let next_retry = self.retry_queue.front().map(|&(ready_ns, _)| ready_ns);
        let t = [next_done, next_arrival, next_retry]
            .into_iter()
            .flatten()
            .min();
        let Some(t) = t else {
            // Nothing in flight, nothing to come, nothing parked.
            // Admission caps group demand at the pool capacity and
            // idle tenants at an empty engine are always ready, so
            // an empty launch here means an empty queue — unless
            // the reactive scheduler is quarantining every damaged
            // partition; the progress guarantee in
            // `free_partition` forbids that with nothing in flight.
            assert!(
                self.queue.is_empty() && self.retry_queue.is_empty(),
                "open-loop engine stalled with {} pending and {} parked jobs",
                self.queue.len(),
                self.retry_queue.len()
            );
            return false;
        };
        self.now_ns = self.now_ns.max(t);
        if next_done == Some(t) {
            self.commit_due(t);
        }
        true
    }

    /// Re-queue every parked retry whose backoff deadline has passed, at
    /// the *head* of its tenant's lane (communicator order), and wake
    /// the lane.
    fn admit_due_retries(&mut self) {
        while let Some(&(ready_ns, job)) = self.retry_queue.front() {
            if ready_ns > self.now_ns {
                break;
            }
            self.retry_queue.pop_front();
            self.queue.push_front(job);
            self.queue.mark_idle(job.spec.tenant);
        }
    }

    /// Admit every scheduled arrival whose time has come.
    fn admit_due_arrivals(&mut self) {
        while let Some(&a) = self.arrivals.get(self.arrival_cursor) {
            if a.arrival_ns > self.now_ns {
                break;
            }
            self.arrival_cursor += 1;
            // Rejections are counted (per reason, per tenant) — an
            // open-loop generator has nowhere to return an error to.
            let _ = self.admit_arrival(a);
        }
    }

    /// Form and launch batches while a partition is free and the next
    /// fair batch fits the pool's pinning headroom.
    fn launch_ready(&mut self, jobs: usize) {
        // One launch's batches and outcomes, in buffers kept between
        // launches.
        let (mut newly, mut outcomes) = std::mem::take(&mut self.launch_buffers);
        while let Some(partition) = self.free_partition() {
            match self.form_batch(partition) {
                Some(fb) => newly.push(fb),
                None => break,
            }
        }
        if !newly.is_empty() {
            self.simulate(jobs, &newly, &mut outcomes);
        }
        for (fb, outcome) in newly.drain(..).zip(outcomes.drain(..)) {
            // Mid-batch SM rebuilds extend the batch's occupancy (the
            // same detach + reprogram the pool bills for an eviction);
            // the pool charge itself lands at commit.
            let recovery_ns = self.pool.rebuild_cost_ns(outcome.sm_rebuilds);
            let done_ns = fb.started_ns + fb.setup_ns + outcome.batch_ns + recovery_ns;
            self.inflight.push(InflightBatch {
                formed: fb,
                outcome,
                done_ns,
            });
        }
        self.launch_buffers = (newly, outcomes);
    }

    /// The partition the next batch should occupy, or `None` when every
    /// acceptable partition is busy.
    ///
    /// Oblivious (the default): the lowest-index partition not occupied
    /// by an in-flight or just-formed batch. Reactive: the *lowest
    /// damage score* free partition (ties to the lowest index), and a
    /// free partition with any known damage is left idle while any
    /// other batch is serving — feeding a known-damaged
    /// SM domain costs a watchdog timeout, so queueing is cheaper. With
    /// nothing at all in flight the best partition is used regardless of
    /// score: the engine must make progress even on an all-damaged
    /// fabric.
    fn free_partition(&self) -> Option<u32> {
        let mut free =
            (0..self.cfg.partitions as u32).filter(|&p| !self.partition_busy[p as usize]);
        if self.cfg.reactive.is_none() {
            return free.next();
        }
        let best = free.min_by_key(|&p| (self.partition_health[p as usize], p))?;
        if self.partition_health[best as usize] > 0 && self.partition_busy.contains(&true) {
            return None;
        }
        Some(best)
    }

    /// Commit every in-flight batch completing at virtual time `t`, in
    /// batch-index order: release its group pins, idle its tenants, free
    /// its partition, and merge its records.
    fn commit_due(&mut self, t: u64) {
        // At most one batch per partition is in flight, so picking the
        // lowest-index due batch each turn is cheap and needs no buffer.
        while let Some(i) = (0..self.inflight.len())
            .filter(|&i| self.inflight[i].done_ns == t)
            .min_by_key(|&i| self.inflight[i].formed.index)
        {
            let infl = self.inflight.swap_remove(i);
            for job in &infl.formed.picked {
                self.pool.unpin(self.group_keys(job));
            }
            self.partition_busy[infl.formed.partition as usize] = false;
            // Tenant lanes are released per job inside the merge: a
            // completed (or given-up) job idles its lane, a job headed
            // for the retry queue keeps it busy so communicator order
            // holds across the retry.
            self.merge_batch(infl.formed, infl.outcome);
        }
    }

    /// Remove and return the accumulated trace, its fabric events merged
    /// from the committed batches' sorted runs into virtual-time order
    /// ([`merge_runs`]: ties keep commit order). `None` when tracing is
    /// off — or already harvested; call once, after the run.
    pub fn take_trace(&mut self) -> Option<RuntimeTrace> {
        let mut tr = self.trace.take()?;
        tr.fabric = merge_runs(&std::mem::take(&mut self.fabric_runs));
        Some(tr)
    }

    /// Snapshot of everything measured so far.
    pub fn report(&self) -> RuntimeReport {
        RuntimeReport {
            jobs: self.records.clone(),
            tenants: self.tenants.clone(),
            pool: self.pool.stats(),
            batches: self.batches,
            makespan_ns: self.now_ns,
            delivered_bytes: self.delivered_bytes,
            moved_bytes: self.moved_bytes,
            offered_jobs: self.offered,
            rejects: self.rejects,
            partitions: self.partition_stats.clone(),
            retry: self.retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::{LinkRate, Rank};

    fn star(p: usize) -> Topology {
        Topology::single_switch(p, LinkRate::CX3_56G, 100)
    }

    fn small_cfg() -> RuntimeConfig {
        RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            max_inflight: 4,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_job_completes() {
        let mut rt = Runtime::new(star(4), small_cfg());
        let t = rt.register_tenant("solo");
        rt.submit(t, JobKind::Allgather, 32 << 10).unwrap();
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 1);
        assert_eq!(report.batches, 1);
        let rec = &report.jobs[0];
        assert_eq!(rec.queue_ns(), 0);
        assert!(rec.service_ns() > 0);
        // One group built, never hit.
        assert_eq!(report.pool.builds, 1);
        assert_eq!(report.pool.hits, 0);
        // Offered-load accounting: one attempt, no rejects, partition 0
        // busy for the whole makespan.
        assert_eq!(report.offered_jobs, 1);
        assert_eq!(report.rejects.total(), 0);
        assert_eq!(report.partitions.len(), 1);
        assert_eq!(report.partitions[0].batches, 1);
        assert_eq!(report.partitions[0].busy_ns, report.makespan_ns);
    }

    #[test]
    fn mixed_kinds_share_one_batch() {
        let mut rt = Runtime::new(star(4), small_cfg());
        let a = rt.register_tenant("bcast");
        let b = rt.register_tenant("ag");
        let c = rt.register_tenant("fsdp");
        rt.submit(a, JobKind::Broadcast { root: Rank(1) }, 16 << 10)
            .unwrap();
        rt.submit(b, JobKind::Allgather, 16 << 10).unwrap();
        rt.submit(c, JobKind::AgRs, 16 << 10).unwrap();
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 3);
        assert_eq!(report.batches, 1, "4 groups demanded, 4 slots: one batch");
        for rec in &report.jobs {
            assert!(rec.finished_ns > rec.started_ns);
            assert!(rec.delivered_bytes > 0);
        }
    }

    #[test]
    fn second_job_hits_the_pool() {
        let mut rt = Runtime::new(star(4), small_cfg());
        let t = rt.register_tenant("repeat");
        rt.submit(t, JobKind::Allgather, 16 << 10).unwrap();
        rt.submit(t, JobKind::Allgather, 16 << 10).unwrap();
        let report = rt.run_open_loop();
        assert_eq!(report.batches, 2, "one job per tenant per batch");
        assert_eq!(report.pool.builds, 1);
        assert_eq!(report.pool.hits, 1, "second batch reuses the group");
        // The hit batch skips SM programming, so it finishes faster.
        assert!(report.jobs[1].service_ns() < report.jobs[0].service_ns());
    }

    #[test]
    fn clock_threads_batches() {
        let mut rt = Runtime::new(star(4), small_cfg());
        let t = rt.register_tenant("a");
        let u = rt.register_tenant("b");
        for _ in 0..2 {
            rt.submit(t, JobKind::Allgather, 16 << 10).unwrap();
            rt.submit(u, JobKind::Allgather, 16 << 10).unwrap();
        }
        let report = rt.run_open_loop();
        let in_batch = |b: u64| report.jobs.iter().filter(move |j| j.batch == b);
        assert!(in_batch(0).all(|j| j.started_ns == 0));
        // One partition: batch 1 is dispatched the instant batch 0's
        // last job finishes, and its jobs queued from t=0 until then.
        let b0_done = in_batch(0).map(|j| j.finished_ns).max().unwrap();
        assert_eq!(in_batch(1).count(), 2);
        for j in in_batch(1) {
            assert_eq!(j.started_ns, b0_done);
            assert_eq!(j.queue_ns(), b0_done);
        }
    }

    #[test]
    fn wave_execution_matches_serial_bit_for_bit() {
        // Once the serial drain loop against the wave loop; both are
        // gone, so what is left to pin on this workload is the engine at
        // one worker against the engine at several.
        let run = |jobs: usize| {
            let mut rt = Runtime::new(star(4), small_cfg());
            let a = rt.register_tenant("a");
            let b = rt.register_tenant("b");
            let c = rt.register_tenant("c");
            for _ in 0..3 {
                rt.submit(a, JobKind::Allgather, 16 << 10).unwrap();
                rt.submit(b, JobKind::Broadcast { root: Rank(2) }, 32 << 10)
                    .unwrap();
                rt.submit(c, JobKind::AgRs, 16 << 10).unwrap();
            }
            rt.run_open_loop_jobs(jobs)
        };
        let serial_report = run(1);
        assert_eq!(serial_report.completed_jobs(), 9);
        assert_eq!(run(3), serial_report, "jobs=3");
    }

    #[test]
    fn group_demand_counts_subgroups_and_rs() {
        let cfg = RuntimeConfig {
            proto: ProtocolConfig::parallel(4, 1),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(star(4), cfg);
        assert_eq!(rt.group_demand(JobKind::Allgather, 64 << 10), 4);
        assert_eq!(rt.group_demand(JobKind::AgRs, 64 << 10), 5);
        // One-chunk message clamps to a single subgroup.
        assert_eq!(rt.group_demand(JobKind::Allgather, 1024), 1);
    }

    #[test]
    fn open_loop_consumes_scheduled_arrivals() {
        let mut rt = Runtime::new(star(4), small_cfg());
        let t = rt.register_tenant("open");
        rt.submit_at(0, t, JobKind::Allgather, 16 << 10);
        rt.submit_at(5_000_000, t, JobKind::Allgather, 16 << 10);
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 2);
        assert_eq!(report.batches, 2);
        // The second arrival waited for its arrival time, not the queue.
        assert_eq!(report.jobs[1].submitted_ns, 5_000_000);
        assert!(report.jobs[1].started_ns >= 5_000_000);
    }

    #[test]
    fn pipelined_batches_overlap_on_virtual_clock() {
        // Two partitions, two tenants with disjoint group sets, one job
        // per batch: the engine must run them concurrently on the
        // virtual clock — the cross-batch pipelining acceptance check.
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            max_inflight: 1,
            partitions: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(star(4), cfg.clone());
        let a = rt.register_tenant("a");
        let b = rt.register_tenant("b");
        rt.submit_at(0, a, JobKind::Allgather, 64 << 10);
        rt.submit_at(0, b, JobKind::Allgather, 64 << 10);
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 2);
        assert_eq!(report.batches, 2);
        // A pre-filled queue is the same run: `submit` now instead of
        // `submit_at(0, …)` uses both partitions just the same.
        let mut prefilled = Runtime::new(star(4), cfg);
        for name in ["a", "b"] {
            let t = prefilled.register_tenant(name);
            prefilled.submit(t, JobKind::Allgather, 64 << 10).unwrap();
        }
        assert_eq!(prefilled.run_open_loop(), report);
        let (r0, r1) = (&report.jobs[0], &report.jobs[1]);
        assert_ne!(r0.partition, r1.partition, "disjoint SM domains");
        // Interval overlap on the virtual clock.
        assert!(
            r0.started_ns < r1.finished_ns && r1.started_ns < r0.finished_ns,
            "batches must overlap: [{}, {}) vs [{}, {})",
            r0.started_ns,
            r0.finished_ns,
            r1.started_ns,
            r1.finished_ns
        );
        // Both partitions did work, and the makespan beats the serial
        // sum of the two service times (the pipelining payoff).
        assert!(report.partitions.iter().all(|p| p.batches == 1));
        assert!(report.makespan_ns < r0.service_ns() + r1.service_ns());
        assert!(report.utilization() > 0.5);
    }

    #[test]
    fn open_loop_report_identical_across_worker_counts() {
        let run = |jobs: usize| {
            let cfg = RuntimeConfig {
                pool: PoolConfig::with_capacity(6),
                max_inflight: 2,
                partitions: 2,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(star(4), cfg);
            let ids: Vec<TenantId> = (0..4)
                .map(|i| rt.register_tenant(&format!("t{i}")))
                .collect();
            for (i, &t) in ids.iter().enumerate() {
                for j in 0..3u64 {
                    rt.submit_at(j * 300_000, t, JobKind::Allgather, (8 << 10) << (i % 2));
                }
            }
            rt.run_open_loop_jobs(jobs)
        };
        let serial = run(1);
        let wave = run(4);
        assert_eq!(serial, wave);
        assert_eq!(format!("{serial:?}"), format!("{wave:?}"));
    }

    /// A schedule that downs every link of `topo` at t = 0, forever: the
    /// partition is unconditionally dead, so any batch placed on it is
    /// censored at its recovery cutoff.
    fn dead_fabric(topo: &Topology) -> LinkSchedule {
        use mcag_simnet::{LinkId, LinkStateEvent};
        LinkSchedule::new(
            (0..topo.num_links() as u32)
                .map(|l| LinkStateEvent::down(0, LinkId(l)))
                .collect(),
        )
    }

    /// The switch port towards rank 0 goes down for 10 µs out of every
    /// 30, for the first 3 ms of every batch: datagrams crossing it are
    /// lost and fetched again.
    pub(super) fn flapping() -> LinkSchedule {
        use mcag_simnet::{LinkId, LinkStateEvent};
        LinkSchedule::new(
            (0..100u64)
                .flat_map(|i| {
                    [
                        LinkStateEvent::down(5_000 + i * 30_000, LinkId(1)),
                        LinkStateEvent::up(15_000 + i * 30_000, LinkId(1)),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn communicator_order_holds_under_retry() {
        // A backlog queued with `submit` behind jobs that time out and
        // retry: while a retry waits out its backoff its lane stays
        // busy, so nothing the tenant queued later may start before the
        // retried job ends. Formation that does not mark lanes busy
        // fails this: two to four overtakes on the dead partition, one
        // on the flapping port.
        let topo = star(4);
        let dead = RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            max_inflight: 2,
            partition_faults: vec![dead_fabric(&topo)],
            reactive: Some(ReactivePolicy),
            watchdog_cutoffs: 4,
            ..RuntimeConfig::default()
        };
        let flapping = RuntimeConfig {
            pool: PoolConfig::with_capacity(6),
            max_inflight: 3,
            partition_faults: vec![flapping()],
            watchdog_cutoffs: 1,
            ..dead.clone()
        };
        for (cfg, backlog) in [(dead, &[4usize, 2, 2][..]), (flapping, &[5, 3, 3, 3])] {
            let run = |jobs: usize| {
                let mut rt = Runtime::new(topo.clone(), cfg.clone());
                for (i, &n) in backlog.iter().enumerate() {
                    let t = rt.register_tenant(&format!("t{i}"));
                    for j in 0..n {
                        let kind = match (i + j) % 3 {
                            0 => JobKind::Allgather,
                            1 => JobKind::Broadcast {
                                root: Rank(i as u32),
                            },
                            _ => JobKind::AgRs,
                        };
                        rt.submit(t, kind, (16 << 10) << (j % 2)).unwrap();
                    }
                }
                rt.run_open_loop_jobs(jobs)
            };
            let report = run(1);
            assert_eq!(run(3), report);
            assert!(report.retry.retried_jobs > 0, "nothing was retried");
            // Every admitted job ends in exactly one record.
            let mut ids: Vec<u64> = report.jobs.iter().map(|j| j.id.0).collect();
            ids.sort_unstable();
            let admitted = backlog.iter().sum::<usize>() as u64;
            assert_eq!(ids, (0..admitted).collect::<Vec<_>>());
            for tenant in 0..backlog.len() {
                let mut recs: Vec<_> = report
                    .jobs
                    .iter()
                    .filter(|j| j.tenant.idx() == tenant)
                    .collect();
                recs.sort_by_key(|j| j.id);
                for pair in recs.windows(2) {
                    assert!(
                        pair[1].started_ns >= pair[0].finished_ns,
                        "tenant {tenant}: {:?} started at {} ns, before {:?} ended at {} ns",
                        pair[1].id,
                        pair[1].started_ns,
                        pair[0].id,
                        pair[0].finished_ns
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_batch_is_censored_not_panicked() {
        // Oblivious runtime on a dead fabric: the batch hits its
        // recovery cutoff and the job is recorded censored — no panic,
        // no silent drop.
        let topo = star(4);
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            partition_faults: vec![dead_fabric(&topo)],
            watchdog_cutoffs: 4,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, cfg);
        let t = rt.register_tenant("victim");
        rt.submit(t, JobKind::Allgather, 16 << 10).unwrap();
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 0);
        assert_eq!(report.timed_out_jobs(), 1);
        let rec = &report.jobs[0];
        assert!(rec.timed_out);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.delivered_bytes, 0);
        assert!(rec.finished_ns > rec.started_ns, "censored at the cutoff");
        assert_eq!(report.tenants[t.idx()].timed_out, 1);
        assert_eq!(report.tenants[t.idx()].completed, 0);
        assert_eq!(report.delivered_bytes, 0);
        assert_eq!(report.retry.timed_out_batches, 1);
        assert_eq!(report.retry.timed_out_slots, 1);
        assert_eq!(report.retry.retried_jobs, 0, "oblivious: no retries");
        assert_eq!(report.partitions[0].timeouts, 1);
    }

    #[test]
    fn reactive_steering_avoids_damaged_partition() {
        // Partition 0 carries a permanent outage, partition 1 is clean.
        // The reactive scheduler's static SM telemetry quarantines the
        // damaged domain, so every batch lands on partition 1 and
        // nothing times out.
        let topo = star(4);
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            max_inflight: 1,
            partitions: 2,
            partition_faults: vec![dead_fabric(&topo), LinkSchedule::empty()],
            reactive: Some(ReactivePolicy),
            watchdog_cutoffs: 4,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, cfg);
        assert!(rt.partition_health_score(0) > 0);
        assert_eq!(rt.partition_health_score(1), 0);
        let a = rt.register_tenant("a");
        let b = rt.register_tenant("b");
        for i in 0..3u64 {
            rt.submit_at(i * 200_000, a, JobKind::Allgather, 16 << 10);
            rt.submit_at(i * 200_000, b, JobKind::Allgather, 16 << 10);
        }
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 6);
        assert_eq!(report.timed_out_jobs(), 0);
        assert!(report.jobs.iter().all(|j| j.partition == 1));
        assert_eq!(report.partitions[0].batches, 0, "damaged domain idles");
        assert_eq!(report.retry, crate::stats::RetryStats::default());
    }

    #[test]
    fn reactive_retry_recovers_on_healthy_partition() {
        // Partition 0 serializes at 1/1000 of line rate from t = 0: a
        // degradation without a down transition, so its static score is
        // 0 and it takes the first batch while partition 1 takes the
        // second. The first batch times out, the job parks through its
        // backoff, and the retry is steered to the now-cheaper partition
        // 1, where it completes.
        use mcag_simnet::{LinkId, LinkStateEvent};
        let topo = star(4);
        let crawl = LinkSchedule::new(
            (0..topo.num_links() as u32)
                .map(|l| LinkStateEvent::degraded(0, LinkId(l), 1, 1_000))
                .collect(),
        );
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            max_inflight: 1,
            partitions: 2,
            partition_faults: vec![crawl, LinkSchedule::empty()],
            reactive: Some(ReactivePolicy),
            watchdog_cutoffs: 4,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, cfg);
        assert_eq!(rt.partition_health_score(0), 0, "no down transition");
        let a = rt.register_tenant("a");
        let b = rt.register_tenant("b");
        rt.submit_at(0, a, JobKind::Allgather, 16 << 10);
        rt.submit_at(0, b, JobKind::Allgather, 16 << 10);
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 2, "both jobs finish eventually");
        assert_eq!(report.timed_out_jobs(), 0);
        assert_eq!(report.retry.timed_out_batches, 1);
        assert_eq!(report.retry.retried_jobs, 1);
        assert_eq!(report.retry.gave_up_jobs, 0);
        assert_eq!(report.retry.backoff_ns_sum, ReactivePolicy::BACKOFF_BASE_NS);
        let retried = report
            .jobs
            .iter()
            .find(|j| j.tenant == a)
            .expect("tenant a's job has a record");
        assert_eq!(retried.attempts, 2);
        assert_eq!(retried.partition, 1, "retry steered to the healthy domain");
        assert_eq!(report.partitions[0].timeouts, 1);
    }

    #[test]
    fn sm_rebuild_reroutes_trees_on_a_dead_spine() {
        // Two-spine fat tree with the multicast root's chassis dead from
        // t = 0: the reactive SM sweep diagnoses it mid-batch and
        // re-routes the tree over the surviving spine. The recovery is
        // observable in the pool counters (billed rebuild) and in
        // `RetryStats::sm_rebuilds`. A mid-batch rebuild cannot resurrect
        // multicast data already dropped — the sweep period is
        // `SM_CHECK_CUTOFFS` summed cutoffs while the datagrams fly in ~1 µs —
        // so each attempt rebuilds once and is still censored; end-to-end
        // recovery on a dead spine comes from steering retries onto
        // healthy partitions, which this single-partition setup denies.
        use mcag_simnet::{LinkId, LinkStateEvent, McastTree};
        use mcag_verbs::McastGroupId;
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        let victim = McastTree::build(&topo, McastGroupId(0), &members).root();
        let faults = LinkSchedule::new(
            (0..topo.num_links() as u32)
                .map(LinkId)
                .filter(|&l| {
                    let lk = topo.link(l);
                    lk.src == victim || lk.dst == victim
                })
                .map(|l| LinkStateEvent::down(0, l))
                .collect(),
        );
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            partition_faults: vec![faults],
            reactive: Some(ReactivePolicy),
            watchdog_cutoffs: 16,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, cfg);
        let t = rt.register_tenant("survivor");
        rt.submit(t, JobKind::Allgather, 16 << 10).unwrap();
        let report = rt.run_open_loop();
        assert!(report.retry.sm_rebuilds >= 1, "SM re-routed the tree");
        assert_eq!(
            report.pool.rebuilds, report.retry.sm_rebuilds,
            "every SM re-route billed through the pool"
        );
        assert_eq!(
            report.retry.gave_up_jobs, 1,
            "no healthy partition to flee to"
        );
        if let [rec] = &report.jobs[..] {
            assert!(rec.timed_out, "dead spine censors every attempt");
            assert_eq!(rec.attempts, ReactivePolicy::MAX_ATTEMPTS);
            // The record carries its *final* batch's rebuild count; the
            // report totals rebuilds across all attempts.
            assert_eq!(rec.sm_rebuilds, 1);
            assert_eq!(report.retry.sm_rebuilds, rec.attempts as u64);
        } else {
            panic!("expected exactly one record");
        }
    }

    #[test]
    fn reactive_is_identical_to_oblivious_on_healthy_fabric() {
        // With no faults the reactive machinery must be inert: same
        // steering (all scores zero → lowest index), no retries, no SM
        // sweeps — byte-identical reports.
        let run = |reactive: Option<ReactivePolicy>| {
            let cfg = RuntimeConfig {
                pool: PoolConfig::with_capacity(6),
                max_inflight: 2,
                partitions: 2,
                reactive,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(star(4), cfg);
            let ids: Vec<TenantId> = (0..3)
                .map(|i| rt.register_tenant(&format!("t{i}")))
                .collect();
            for (i, &t) in ids.iter().enumerate() {
                for j in 0..3u64 {
                    rt.submit_at(j * 250_000, t, JobKind::Allgather, (8 << 10) << (i % 2));
                }
            }
            rt.run_open_loop()
        };
        let oblivious = run(None);
        let reactive = run(Some(ReactivePolicy));
        assert_eq!(oblivious, reactive);
    }

    #[test]
    #[should_panic(expected = "exceeds the immediate-layout collective-id space")]
    fn unaddressable_max_inflight_panics_at_construction() {
        // 255 collective ids address 126 slots (ids 2i+1, 2i+2); the
        // 127th is found here, not when a batch first fills.
        let cfg = RuntimeConfig {
            max_inflight: 127,
            ..RuntimeConfig::default()
        };
        Runtime::new(star(4), cfg);
    }

    #[test]
    fn throttle_sheds_load_under_overload() {
        // Threshold of 1 ns: any completed job trips the throttle, so
        // every arrival after the first commit is refused as Throttled.
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            admission: AdmissionPolicy {
                throttle_sojourn_ns: Some(1),
                ..AdmissionPolicy::default()
            },
            max_inflight: 1,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(star(4), cfg);
        let t = rt.register_tenant("storm");
        // One arrival at t=0, then a burst far enough out to land after
        // the first job commits.
        rt.submit_at(0, t, JobKind::Allgather, 16 << 10);
        for i in 0..5u64 {
            rt.submit_at(20_000_000 + i, t, JobKind::Allgather, 16 << 10);
        }
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 1);
        assert_eq!(report.rejects.throttled, 5, "burst refused as Throttled");
        assert_eq!(report.offered_jobs, 6);
        assert_eq!(report.tenants[t.idx()].rejected, 5);
    }
}
