//! Golden determinism of the parallel executor: the same sweep and the
//! same runtime workload must produce **byte-identical** results at
//! `jobs = 1` and `jobs = 4`. The executor slots outputs by input index
//! and every simulation owns its fabric, seeds, and sinks, so worker
//! count may only move wall clock — never a single reported value.

use mcast_allgather::core::{des, CollectiveKind, CollectiveOutcome, ProtocolConfig};
use mcast_allgather::exec::par_map;
use mcast_allgather::runtime::{
    JobKind, PoolConfig, Runtime, RuntimeConfig, RuntimeReport, TenantId,
};
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::{LinkRate, Rank};

mod common;

/// The 188-node UCC-testbed Allgather sweep (the Fig. 10/11 shape) at
/// `jobs` worker threads.
fn sweep_188(jobs: usize) -> Vec<CollectiveOutcome> {
    let sizes = [16usize << 10, 32 << 10, 64 << 10];
    par_map(jobs, &sizes, |&n| {
        let out = des::run_collective(
            Topology::ucc_testbed(),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            n,
        );
        assert!(out.stats.all_done(), "n={n}");
        out
    })
}

#[test]
fn allgather_188_sweep_identical_across_worker_counts() {
    let serial = sweep_188(1);
    let parallel = sweep_188(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // Per-rank phase timings, engine stats, and every per-link
        // traffic counter — the full observable outcome.
        assert_eq!(s.timings, p.timings);
        assert_eq!(s.stats.end_time, p.stats.end_time);
        assert_eq!(s.stats.events, p.stats.events);
        assert_eq!(s.stats.per_rank_done, p.stats.per_rank_done);
        assert_eq!(s.stats.peak_queue_depth, p.stats.peak_queue_depth);
        assert_eq!(s.traffic.per_link(), p.traffic.per_link());
        assert_eq!(s.rnr_drops, p.rnr_drops);
        assert_eq!(s.fabric_drops, p.fabric_drops);
    }
}

/// A mixed multi-tenant workload: 4 tenants, three jobs each, all three
/// collective kinds, over a bounded group pool (forces several batches
/// and LRU churn).
fn build_runtime() -> (Runtime, Vec<TenantId>) {
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(4),
        max_inflight: 4,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(Topology::single_switch(6, LinkRate::CX3_56G, 100), cfg);
    let tenants: Vec<TenantId> = (0..4)
        .map(|i| rt.register_tenant(&format!("tenant{i}")))
        .collect();
    for (i, &t) in tenants.iter().enumerate() {
        let kinds = [
            JobKind::Allgather,
            JobKind::Broadcast {
                root: Rank(i as u32),
            },
            JobKind::AgRs,
        ];
        for (j, &kind) in kinds.iter().enumerate() {
            let send_len = (16 << 10) << ((i + j) % 2);
            rt.submit(t, kind, send_len).expect("admission");
        }
    }
    (rt, tenants)
}

/// FNV-1a of `format!("{report:?}")` for [`build_runtime`]'s 12 jobs,
/// recorded at the commit before the closed-loop drivers were deleted;
/// re-pinned, same run, when the `degraded` reject count left the report.
const BUILD_RUNTIME_DIGEST: u64 = 0x78d2e7bebb52e402;

fn run_runtime(jobs: Option<usize>) -> RuntimeReport {
    let (mut rt, _) = build_runtime();
    match jobs {
        None => rt.run_open_loop(),
        Some(j) => rt.run_open_loop_jobs(j),
    }
}

#[test]
fn runtime_report_identical_across_worker_counts() {
    // Once the serial batch-by-batch drain loop against the wave loop;
    // both are gone, so the reference is the engine at one worker and
    // what is checked is that more workers change nothing.
    let reference = run_runtime(None);
    assert!(reference.completed_jobs() == 12 && reference.batches >= 3);
    assert_eq!(
        common::fnv64(&format!("{reference:?}")),
        BUILD_RUNTIME_DIGEST
    );
    for jobs in [1usize, 4] {
        let wave = run_runtime(Some(jobs));
        // Full structural equality: every JobRecord, TenantStats, pool
        // counter, makespan, and moved-bytes total.
        assert_eq!(wave, reference, "jobs={jobs}");
        // And the serialized view (total Debug rendering) — the
        // belt-and-suspenders check that no field escapes PartialEq.
        assert_eq!(format!("{wave:?}"), format!("{reference:?}"), "jobs={jobs}");
    }
}

#[test]
fn traffic_totals_survive_wave_execution() {
    let serial = run_runtime(Some(1));
    let wave = run_runtime(Some(4));
    assert_eq!(serial.moved_bytes, wave.moved_bytes);
    assert_eq!(serial.delivered_bytes, wave.delivered_bytes);
    assert!(serial.moved_bytes > 0);
}
