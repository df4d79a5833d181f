//! The open-loop runtime end to end: seeded arrival streams driven
//! through the resource-driven pipelined scheduler must be
//! byte-identical across simulation worker counts, and the indexed
//! job queue must batch exactly like the original full-scan scheduler
//! on closed-loop inputs.

use mcast_allgather::core::ProtocolConfig;
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::runtime::job::MAX_QUEUED_PER_TENANT;
use mcast_allgather::runtime::{
    merge_arrivals, nccl_style_trace, Arrival, JobId, JobKind, JobQueue, JobSpec, MemoStats, OpMix,
    PoolConfig, RateProcess, ReactivePolicy, Runtime, RuntimeConfig, RuntimeReport, TenantId,
    TraceSpec, Workload,
};
use mcast_allgather::simnet::{LinkSchedule, Topology};
use mcast_allgather::verbs::{LinkRate, Rank};
use proptest::prelude::*;
use std::collections::VecDeque;

mod common;

/// A mixed open-loop workload: a Poisson stream over an NCCL-style
/// op/size mix merged with a deterministic NCCL-style rung trace, on
/// `base`'s fabric and protocol.
fn mixed_run(jobs: usize, base: RuntimeConfig) -> RuntimeReport {
    let mix = OpMix {
        allgather_weight: 2,
        broadcast_weight: 1,
        agrs_weight: 1,
        min_send_len: 8 << 10,
        max_send_len: 32 << 10,
        ranks: 4,
    };
    let poisson = Workload {
        tenants: 8,
        horizon_ns: 4_000_000,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: 60_000,
        },
        mix,
        seed: 11,
    }
    .generate();
    let trace = nccl_style_trace(4, mix, 120_000);
    let arrivals = merge_arrivals(&[poisson, trace]);
    assert!(!arrivals.is_empty());

    let mut rt = Runtime::new(
        Topology::single_switch(4, LinkRate::CX3_56G, 100),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(24),
            max_inflight: 4,
            partitions: 2,
            ..base
        },
    );
    for i in 0..8 {
        rt.register_tenant(&format!("t{i}"));
    }
    rt.load_arrivals(&arrivals);
    rt.run_open_loop_jobs(jobs)
}

#[test]
fn golden_mixed_open_loop_identical_across_worker_counts() {
    let serial = mixed_run(1, RuntimeConfig::default());
    // Not trivially identical: the run exercised the interesting paths.
    assert!(serial.completed_jobs() > 50);
    assert!(serial.batches > 10);
    assert!(serial.offered_jobs >= serial.completed_jobs() as u64);
    assert!(serial.partitions.iter().all(|p| p.batches > 0));
    for jobs in [2usize, 4] {
        let parallel = mixed_run(jobs, RuntimeConfig::default());
        assert_eq!(serial, parallel, "open-loop run diverged at jobs={jobs}");
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "debug render diverged at jobs={jobs}"
        );
    }
}

/// FNV-1a of the `Debug` render of [`mixed_run`] with two RX workers per
/// rank and two subgroups per job, recorded at the commit before the
/// communicator layout became one routine: it pins which worker each
/// job's subgroup QPs are pinned to, which one worker cannot see.
/// Re-pinned, same run, when the `degraded` reject count left the report.
const TWO_WORKER_REPORT_DIGEST: u64 = 0x6ab09e5fcfa5b0e1;

#[test]
fn two_worker_open_loop_reproduces_its_recorded_report() {
    let mut base = RuntimeConfig {
        proto: ProtocolConfig::parallel(2, 2),
        ..RuntimeConfig::default()
    };
    base.fabric.host.rx_workers = 2;
    let report = mixed_run(1, base);
    assert!(report.completed_jobs() > 50);
    assert_eq!(
        common::fnv64(&format!("{report:?}")),
        TWO_WORKER_REPORT_DIGEST,
        "the two-worker runtime report moved"
    );
}

#[test]
fn throttled_rejections_are_attributed_distinctly() {
    let mut rt = Runtime::new(
        Topology::single_switch(4, LinkRate::CX3_56G, 100),
        RuntimeConfig {
            throttle_sojourn_ns: Some(1),
            ..RuntimeConfig::default()
        },
    );
    let t = rt.register_tenant("t0");
    let mut arrivals = vec![Arrival {
        arrival_ns: 0,
        tenant: t,
        kind: JobKind::Allgather,
        send_len: 16 << 10,
    }];
    for i in 0..4u64 {
        arrivals.push(Arrival {
            arrival_ns: 30_000_000 + i,
            tenant: t,
            kind: JobKind::Allgather,
            send_len: 16 << 10,
        });
    }
    rt.load_arrivals(&arrivals);
    let report = rt.run_open_loop();
    assert_eq!(report.rejects.throttled, 4);
    assert_eq!(report.rejects.queue_full, 0, "throttle, not queue bound");
    assert_eq!(report.completed_jobs(), 1);
}

#[test]
fn submit_now_equals_submit_at_zero() {
    // "A pre-filled queue is the engine with every arrival already due":
    // the same stream — mixed kinds, a zero-length job, a tenant over
    // its quota — fed by `submit` and by `submit_at(0, …)` gives the
    // same report and the same trace, on one partition and on two.
    let run = |partitions: usize, scheduled: bool| {
        let mut rt = Runtime::new(
            Topology::single_switch(4, LinkRate::CX3_56G, 100),
            RuntimeConfig {
                pool: PoolConfig::with_capacity(6),
                max_inflight: 2,
                partitions,
                trace: Some(TraceSpec::default()),
                ..RuntimeConfig::default()
            },
        );
        let tenants: Vec<TenantId> = (0..4)
            .map(|i| rt.register_tenant(&format!("t{i}")))
            .collect();
        let mut stream = vec![(tenants[0], JobKind::Allgather, 0)];
        for (i, &t) in tenants.iter().enumerate() {
            // Tenant 0 submits one past its quota.
            let jobs = if i == 0 { MAX_QUEUED_PER_TENANT + 1 } else { 2 };
            for j in 0..jobs {
                let kind = match (i + j) % 3 {
                    0 => JobKind::Allgather,
                    1 => JobKind::Broadcast {
                        root: Rank(i as u32),
                    },
                    _ => JobKind::AgRs,
                };
                stream.push((t, kind, (8 << 10) << (j % 2)));
            }
        }
        for (tenant, kind, send_len) in stream {
            if scheduled {
                rt.submit_at(0, tenant, kind, send_len);
            } else {
                let _ = rt.submit(tenant, kind, send_len);
            }
        }
        let report = rt.run_open_loop();
        (report, rt.take_trace().expect("tracing is on"))
    };
    for partitions in [1, 2] {
        let (report, trace) = run(partitions, false);
        assert_eq!(report.rejects.empty, 1);
        assert_eq!(report.rejects.tenant_quota, 1);
        assert_eq!(report.completed_jobs(), MAX_QUEUED_PER_TENANT + 6);
        assert!(!trace.fabric.is_empty());
        let (scheduled_report, scheduled_trace) = run(partitions, true);
        assert_eq!(report, scheduled_report, "partitions={partitions}");
        assert_eq!(
            format!("{trace:?}"),
            format!("{scheduled_trace:?}"),
            "partitions={partitions}"
        );
    }
}

/// The pre-refactor scheduler, reimplemented naively: per-tenant FIFOs
/// scanned in full from a rotating cursor, at most one job per tenant,
/// head-of-line jobs skipped when their group demand exceeds the
/// remaining budget.
struct ReferenceQueue {
    fifos: Vec<VecDeque<(u64, u32)>>,
    cursor: usize,
}

impl ReferenceQueue {
    fn new(tenants: usize) -> ReferenceQueue {
        ReferenceQueue {
            fifos: vec![VecDeque::new(); tenants],
            cursor: 0,
        }
    }

    fn push(&mut self, tenant: usize, id: u64, demand: u32) {
        self.fifos[tenant].push_back((id, demand));
    }

    fn pick_batch(&mut self, max_jobs: usize, group_budget: usize) -> Vec<u64> {
        let n = self.fifos.len();
        let mut picked = Vec::new();
        let mut budget = group_budget;
        let start = self.cursor;
        for off in 0..n {
            if picked.len() >= max_jobs {
                break;
            }
            let t = (start + off) % n;
            let Some(&(id, demand)) = self.fifos[t].front() else {
                continue;
            };
            if demand as usize > budget {
                continue;
            }
            budget -= demand as usize;
            self.fifos[t].pop_front();
            self.cursor = (t + 1) % n;
            picked.push(id);
        }
        picked
    }
}

fn pending(tenant: usize, id: u64, demand: u32) -> mcast_allgather::runtime::job::PendingJob {
    mcast_allgather::runtime::job::PendingJob {
        id: JobId(id),
        spec: JobSpec {
            tenant: TenantId(tenant as u32),
            kind: JobKind::Allgather,
            send_len: 4096,
        },
        submitted_ns: 0,
        group_demand: demand,
        attempt: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On closed-loop inputs (no busy marks — every lane stays eligible,
    /// exactly the pre-refactor world) the indexed ready-list scheduler
    /// must pick identical batches, in identical order, as the full-scan
    /// reference, across interleaved pushes and picks.
    #[test]
    fn indexed_queue_batches_like_full_scan(
        tenants in 1usize..9,
        ops in prop::collection::vec((0u8..4, 0usize..64, 1u32..4), 1..80),
    ) {
        let mut indexed = JobQueue::new();
        for _ in 0..tenants {
            indexed.add_tenant();
        }
        let mut reference = ReferenceQueue::new(tenants);
        let mut next_id = 0u64;
        for &(op, arg, demand) in &ops {
            if op == 0 {
                // Drain step: budget varies so head-of-line skips happen.
                let max_jobs = 1 + arg % 6;
                let budget = 1 + arg % 8;
                let got: Vec<u64> =
                    indexed.pick_batch(max_jobs, budget).iter().map(|j| j.id.0).collect();
                let want = reference.pick_batch(max_jobs, budget);
                prop_assert_eq!(got, want, "batch diverged");
            } else {
                let t = arg % tenants;
                indexed.push(pending(t, next_id, demand));
                reference.push(t, next_id, demand);
                next_id += 1;
            }
        }
        // Final drain: both must empty identically.
        loop {
            let got: Vec<u64> = indexed.pick_batch(4, 6).iter().map(|j| j.id.0).collect();
            let want = reference.pick_batch(4, 6);
            prop_assert_eq!(&got, &want, "drain diverged");
            if got.is_empty() {
                break;
            }
        }
        prop_assert!(indexed.is_empty());
    }
}

/// Replay counters of the benchmark's two batch-heavy cell shapes: the
/// `load_ladder` knee cell (16 tenants on a 4-host switch, 2 partitions,
/// pool 32) at its three offered rates, and the `recovery` cells (6
/// tenants on an 8-host fat tree under switch failures or flapping
/// ports), one stream each.
fn ladder_and_recovery_memo_stats() -> Vec<MemoStats> {
    let mut stats = Vec::new();
    let ladder_mix = OpMix {
        allgather_weight: 2,
        broadcast_weight: 1,
        agrs_weight: 1,
        min_send_len: 8 << 10,
        max_send_len: 32 << 10,
        ranks: 4,
    };
    for (seed, mean_ns) in [(1, 80_000), (2, 20_000), (3, 5_000)] {
        let mut rt = Runtime::new(
            Topology::single_switch(4, LinkRate::CX3_56G, 100),
            RuntimeConfig {
                pool: PoolConfig::with_capacity(32),
                max_inflight: 8,
                partitions: 2,
                ..RuntimeConfig::default()
            },
        );
        for i in 0..16 {
            rt.register_tenant(&format!("t{i}"));
        }
        rt.load_arrivals(
            &Workload {
                tenants: 16,
                horizon_ns: mean_ns * 600,
                rate: RateProcess::Poisson {
                    mean_interarrival_ns: mean_ns,
                },
                mix: ladder_mix,
                seed,
            }
            .generate(),
        );
        rt.run_open_loop();
        stats.push(rt.memo_stats());
    }
    let topo = || Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
    let shapes = [
        (
            2,
            FaultModel::SwitchFailure {
                switches: 2,
                start_ns: 2_000,
                downtime_ns: 5_000_000,
            },
            true,
        ),
        (
            1,
            FaultModel::SwitchFailure {
                switches: 1,
                start_ns: 2_000,
                downtime_ns: 5_000_000,
            },
            true,
        ),
        (
            1,
            FaultModel::FlappingPort {
                fraction: 0.3,
                period_ns: 40_000,
                down_ns: 30_000,
                start_ns: 0,
                end_ns: 8_000_000,
            },
            false,
        ),
    ];
    for (seed, (partitions, model, reactive)) in shapes.into_iter().enumerate() {
        let hazard = FaultPlan::new(seed as u64).with(model).compile(&topo());
        let mut partition_faults = vec![hazard];
        partition_faults.resize(partitions, LinkSchedule::empty());
        let mut rt = Runtime::new(
            topo(),
            RuntimeConfig {
                pool: PoolConfig::with_capacity(32),
                max_inflight: 4,
                partitions,
                partition_faults,
                reactive: reactive.then(ReactivePolicy::default),
                watchdog_cutoffs: 8,
                ..RuntimeConfig::default()
            },
        );
        for i in 0..6 {
            rt.register_tenant(&format!("t{i}"));
        }
        rt.load_arrivals(
            &Workload {
                tenants: 6,
                horizon_ns: 600_000 * 24,
                rate: RateProcess::Poisson {
                    mean_interarrival_ns: 600_000,
                },
                mix: OpMix {
                    allgather_weight: 2,
                    broadcast_weight: 1,
                    agrs_weight: 1,
                    min_send_len: 4 << 10,
                    max_send_len: 16 << 10,
                    ranks: 8,
                },
                seed: 100 + seed as u64,
            }
            .generate(),
        );
        rt.run_open_loop();
        stats.push(rt.memo_stats());
    }
    stats
}

#[test]
fn memo_counts_are_the_recorded_ones() {
    // Recorded while the memo fingerprinted shapes with SipHash: the
    // multiply-shift fingerprint must find the same shapes, admit the
    // same outcomes and replay the same batches.
    let stats = ladder_and_recovery_memo_stats();
    // (hits, misses, cached, seen) per cell: the ladder at x0.5, x2
    // and x8, then the three recovery shapes.
    let recorded = [
        (455, 76, 33, 43),
        (270, 133, 34, 99),
        (1, 91, 2, 89),
        (6, 18, 6, 12),
        (6, 16, 4, 12),
        (4, 17, 3, 14),
    ];
    let got: Vec<(u64, u64, usize, usize)> = stats
        .iter()
        .map(|s| (s.hits, s.misses, s.cached, s.seen))
        .collect();
    assert_eq!(got, recorded);
}
