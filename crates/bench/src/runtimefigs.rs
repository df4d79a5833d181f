//! Runtime-layer study: multi-tenant scheduling under a bounded
//! multicast-group table (`mcag-runtime`, beyond the paper's figures).
//!
//! Sweeps tenant count × group-pool capacity on an 8-rank star and
//! reports what the group table costs a shared service: pool hit rate,
//! eviction churn, mean queueing delay, mean end-to-end job latency, and
//! makespan. The workload is fixed per tenant count (three Allgathers
//! per tenant, skewed sizes), so columns are comparable down a capacity
//! column and across tenant rows.

use crate::data::FigData;
use mcag_exec::par_map;
use mcag_models::algbw_gbps;
use mcag_runtime::{JobKind, PoolConfig, Runtime, RuntimeConfig, RuntimeReport};
use mcag_simnet::Topology;
use mcag_verbs::LinkRate;

fn star(p: usize) -> Topology {
    Topology::single_switch(p, LinkRate::CX3_56G, 100)
}

/// Run `tenants` tenants (3 Allgathers each, 16–64 KiB) over a pool of
/// `capacity` groups.
fn run_scenario(tenants: usize, capacity: usize) -> RuntimeReport {
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(capacity),
        max_inflight: capacity.min(8),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(star(8), cfg);
    let ids: Vec<_> = (0..tenants)
        .map(|i| rt.register_tenant(&format!("t{i}")))
        .collect();
    for (i, &t) in ids.iter().enumerate() {
        for j in 0..3 {
            let send_len = (16 << 10) << ((i + j) % 3);
            rt.submit(t, JobKind::Allgather, send_len)
                .expect("admission");
        }
    }
    rt.run_open_loop()
}

/// Tenant-count × pool-capacity sweep. Each scenario is an independent
/// runtime (its own queue, pool, and per-batch fabrics), fanned out over
/// `jobs` workers; within a scenario the batches run serially so the
/// virtual clock is identical to the `jobs = 1` sweep.
pub fn runtime_multitenant(jobs: usize) -> FigData {
    let mut f = FigData::new(
        "runtime_multitenant",
        "Multi-tenant runtime: group-pool capacity vs hit rate, queueing, and latency (8 ranks, 3 AGs/tenant)",
        &[
            "tenants",
            "pool cap",
            "batches",
            "hit rate",
            "evictions",
            "mean queue (us)",
            "mean latency (us)",
            "makespan (ms)",
            "algbw (Gbit/s)",
        ],
    );
    let mut scenarios = Vec::new();
    for tenants in [4usize, 8, 16] {
        for capacity in [2usize, 4, 8, 16] {
            scenarios.push((tenants, capacity));
        }
    }
    let rows = par_map(jobs, &scenarios, |&(tenants, capacity)| {
        let r = run_scenario(tenants, capacity);
        assert_eq!(r.completed_jobs(), tenants * 3, "all jobs must finish");
        let queue_us: f64 = r
            .jobs
            .iter()
            .map(|j| j.queue_ns() as f64 / 1e3)
            .sum::<f64>()
            / r.jobs.len() as f64;
        vec![
            tenants.to_string(),
            capacity.to_string(),
            r.batches.to_string(),
            format!("{:.1}%", r.hit_rate() * 100.0),
            r.pool.evictions.to_string(),
            format!("{queue_us:.1}"),
            format!("{:.1}", r.mean_latency_ns() / 1e3),
            format!("{:.2}", r.makespan_ns as f64 / 1e6),
            format!("{:.1}", algbw_gbps(r.delivered_bytes, r.makespan_ns)),
        ]
    });
    for row in rows {
        f.row(row);
    }
    f.note("hit rate grows monotonically with capacity (LRU inclusion); once the table holds every tenant's trees, rebuild churn disappears and queueing is pure fabric contention");
    f.note("small pools also shrink batches (a batch pins at most `capacity` groups), so capacity starves parallelism twice: SM reprogramming time and fewer concurrent jobs");
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracefigs::fnv;

    /// `(tenants, capacity, FNV-1a of format!("{report:?}"))` for the 12
    /// cells of the sweep, recorded at the commit before the closed-loop
    /// drivers were deleted; re-pinned, same runs, when the `degraded`
    /// reject count left the report.
    const SCENARIO_DIGESTS: [(usize, usize, u64); 12] = [
        (4, 2, 0x8334924a92696931),
        (4, 4, 0xe03ecb13196a5399),
        (4, 8, 0xe03ecb13196a5399),
        (4, 16, 0xe03ecb13196a5399),
        (8, 2, 0x268515f287b883e6),
        (8, 4, 0xf525f17bcf21f0c4),
        (8, 8, 0x6b39a9b30cc8ace9),
        (8, 16, 0x6b39a9b30cc8ace9),
        (16, 2, 0xc63b241ddaeec5a2),
        (16, 4, 0x8225e3df457acb51),
        (16, 8, 0x1f23879ffa2dd30a),
        (16, 16, 0xb4850e0679d84649),
    ];

    #[test]
    fn scenario_reports_match_recorded_digests() {
        for (tenants, capacity, digest) in SCENARIO_DIGESTS {
            let report = run_scenario(tenants, capacity);
            assert_eq!(
                fnv(&format!("{report:?}")),
                digest,
                "tenants={tenants} capacity={capacity}"
            );
        }
    }
}
