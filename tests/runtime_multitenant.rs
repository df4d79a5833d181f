//! The multi-tenant runtime layer end to end: deterministic scheduling,
//! group-pool eviction/rebuild accounting, the admission-control
//! rejection paths, and the LRU inclusion property (hit rate monotone in
//! pool capacity).

use mcast_allgather::runtime::job::{MAX_QUEUED_PER_TENANT, MAX_QUEUED_TOTAL, MAX_SEND_LEN};
use mcast_allgather::runtime::{
    JobKind, PoolConfig, RejectReason, Runtime, RuntimeConfig, RuntimeReport, TenantId,
};
use mcast_allgather::simnet::Topology;
use mcast_allgather::verbs::{LinkRate, Rank};
use proptest::prelude::*;

mod common;

fn star(p: usize) -> Topology {
    Topology::single_switch(p, LinkRate::CX3_56G, 100)
}

/// Mixed workload over `tenants` tenants: heavy first tenant, mixed
/// kinds, skewed sizes.
fn mixed_workload(rt: &mut Runtime, tenants: usize) {
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| rt.register_tenant(&format!("t{i}")))
        .collect();
    for (i, &t) in ids.iter().enumerate() {
        let jobs = if i == 0 { 4 } else { 2 };
        for j in 0..jobs {
            let kind = match (i + j) % 3 {
                0 => JobKind::Allgather,
                1 => JobKind::Broadcast {
                    root: Rank((i % 6) as u32),
                },
                _ => JobKind::AgRs,
            };
            rt.submit(t, kind, (8 << 10) << (j % 2)).unwrap();
        }
    }
}

fn run_mixed(tenants: usize, capacity: usize) -> RuntimeReport {
    let mut rt = Runtime::new(
        star(6),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(capacity),
            max_inflight: 4,
            ..RuntimeConfig::default()
        },
    );
    mixed_workload(&mut rt, tenants);
    rt.run_open_loop()
}

/// FNV-1a of `format!("{report:?}")` for `run_mixed(6, 4)`, recorded at
/// the commit before the closed-loop drivers were deleted; re-pinned,
/// same run, when the `degraded` reject count left the report.
const RUN_MIXED_6_4_DIGEST: u64 = 0x2fe58205a713628d;

#[test]
fn scheduled_completions_are_deterministic() {
    let a = run_mixed(6, 4);
    let b = run_mixed(6, 4);
    assert_eq!(a, b, "identical submissions must replay identically");
    assert_eq!(common::fnv64(&format!("{a:?}")), RUN_MIXED_6_4_DIGEST);
    // And not trivially: timings, batches and pool churn all happened.
    assert!(a.batches > 1);
    assert!(a.jobs.iter().all(|j| j.finished_ns > 0));
}

#[test]
fn acceptance_eight_tenants_over_small_pool() {
    // The PR acceptance shape: ≥ 8 tenants, pool smaller than the tenant
    // count, hit rate < 100%, every admitted job completes.
    let report = run_mixed(8, 5);
    let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(report.completed_jobs() as u64, submitted);
    assert!(submitted >= 8 * 2);
    assert!(report.hit_rate() < 1.0);
    assert!(report.pool.evictions > 0, "5 slots < 8 tenants must churn");
    for rec in &report.jobs {
        assert!(rec.finished_ns >= rec.started_ns);
        assert!(rec.started_ns >= rec.submitted_ns);
    }
}

#[test]
fn eviction_and_rebuild_accounting() {
    let small = run_mixed(6, 3);
    let large = run_mixed(6, 64);
    // Small table: every rebuild evicts exactly one group, and the books
    // must balance: acquisitions = hits + builds + rebuilds.
    assert!(small.pool.rebuilds > 0);
    assert_eq!(small.pool.evictions, small.pool.rebuilds);
    let total_outcomes: u64 = small
        .jobs
        .iter()
        .map(|j| (j.group_hits + j.group_builds + j.group_rebuilds) as u64)
        .sum();
    assert_eq!(total_outcomes, small.pool.acquisitions());
    // Large table: nothing is ever evicted, and the SM time saved shows
    // up as a shorter makespan.
    assert_eq!(large.pool.evictions, 0);
    assert_eq!(large.pool.rebuilds, 0);
    assert!(large.pool.hits > 0);
    assert!(
        large.makespan_ns < small.makespan_ns,
        "rebuild churn must cost simulated time: {} vs {}",
        large.makespan_ns,
        small.makespan_ns
    );
}

#[test]
fn admission_rejects_and_counts() {
    let mut rt = Runtime::new(
        star(4),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            max_inflight: 2,
            ..RuntimeConfig::default()
        },
    );
    let a = rt.register_tenant("greedy");
    // Enough other tenants to fill the queue at one quota each.
    let others: Vec<TenantId> = (1..MAX_QUEUED_TOTAL / MAX_QUEUED_PER_TENANT)
        .map(|i| rt.register_tenant(&format!("t{i}")))
        .collect();

    // Unknown tenant.
    assert_eq!(
        rt.submit(TenantId(99), JobKind::Allgather, 4096),
        Err(RejectReason::UnknownTenant)
    );
    // Size limits.
    assert_eq!(
        rt.submit(a, JobKind::Allgather, 0),
        Err(RejectReason::Empty)
    );
    assert_eq!(
        rt.submit(a, JobKind::Allgather, MAX_SEND_LEN + 1),
        Err(RejectReason::TooLarge)
    );
    // Broadcast root out of range.
    assert_eq!(
        rt.submit(a, JobKind::Broadcast { root: Rank(7) }, 4096),
        Err(RejectReason::InvalidRoot)
    );
    // Per-tenant quota: the pending job past the quota is refused.
    for _ in 0..MAX_QUEUED_PER_TENANT {
        rt.submit(a, JobKind::Allgather, 4096).unwrap();
    }
    assert_eq!(
        rt.submit(a, JobKind::Allgather, 4096),
        Err(RejectReason::TenantQuota)
    );
    // Global queue depth: every tenant at its quota fills the queue.
    for &t in &others {
        for _ in 0..MAX_QUEUED_PER_TENANT {
            rt.submit(t, JobKind::Allgather, 4096).unwrap();
        }
    }
    let b = others[0];
    assert_eq!(
        rt.submit(b, JobKind::Allgather, 4096),
        Err(RejectReason::QueueFull)
    );

    let report = rt.run_open_loop();
    assert_eq!(
        report.completed_jobs(),
        MAX_QUEUED_TOTAL,
        "admitted jobs still complete"
    );
    assert_eq!(report.tenants[a.idx()].rejected, 4);
    assert_eq!(report.tenants[b.idx()].rejected, 1);
    assert_eq!(
        report.tenants[a.idx()].completed,
        MAX_QUEUED_PER_TENANT as u64
    );
}

#[test]
fn group_demand_rejected_when_pool_too_small() {
    // 4 subgroups + 1 reduction tree > 4-slot pool.
    let mut rt = Runtime::new(
        star(4),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            proto: mcast_allgather::core::ProtocolConfig::parallel(4, 1),
            ..RuntimeConfig::default()
        },
    );
    let t = rt.register_tenant("wide");
    assert_eq!(
        rt.submit(t, JobKind::AgRs, 64 << 10),
        Err(RejectReason::GroupDemand)
    );
    // The plain Allgather (4 groups) still fits exactly.
    rt.submit(t, JobKind::Allgather, 64 << 10).unwrap();
    let report = rt.run_open_loop();
    assert_eq!(report.completed_jobs(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// LRU is a stack algorithm: with the batch shape held fixed
    /// (`max_inflight` ≤ every capacity tested, single-group jobs, so
    /// the acquisition sequence is identical), the pool hit count is
    /// monotone non-decreasing in capacity.
    #[test]
    fn pool_hit_rate_monotone_in_capacity(
        tenants in 2usize..6,
        jobs_per_tenant in 1usize..4,
        cap_small in 2usize..6,
        cap_extra in 1usize..8,
    ) {
        let run = |capacity: usize| {
            let mut rt = Runtime::new(
                star(4),
                RuntimeConfig {
                    pool: PoolConfig::with_capacity(capacity),
                    max_inflight: 2,
                    ..RuntimeConfig::default()
                },
            );
            let ids: Vec<TenantId> = (0..tenants)
                .map(|i| rt.register_tenant(&format!("t{i}")))
                .collect();
            for &t in &ids {
                for _ in 0..jobs_per_tenant {
                    rt.submit(t, JobKind::Allgather, 8 << 10).unwrap();
                }
            }
            rt.run_open_loop()
        };
        let small = run(cap_small);
        let large = run(cap_small + cap_extra);
        prop_assert_eq!(
            small.pool.acquisitions(),
            large.pool.acquisitions(),
            "fixed batching must produce the same acquisition sequence"
        );
        prop_assert!(
            large.pool.hits >= small.pool.hits,
            "hits {} at capacity {} < hits {} at capacity {}",
            large.pool.hits, cap_small + cap_extra, small.pool.hits, cap_small
        );
    }
}
