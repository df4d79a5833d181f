//! Golden determinism of the fault-injection stack: the same
//! `FaultPlan` seed must produce **bit-identical** outcomes (fabric
//! stats, traffic reports, runtime reports) at `jobs = 1` and
//! `jobs = 4`, and a fault-free plan must be a perfect no-op against
//! the baseline fabric. Fault schedules are plain data the fabric
//! replays from a cursor beside its event queue, so worker count and
//! plan presence may only change what the schedule *says* — never
//! introduce nondeterminism.

use mcast_allgather::core::des::{self, RunBounds};
use mcast_allgather::core::{CollectiveKind, ProtocolConfig};
use mcast_allgather::exec::par_map_ordered;
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::runtime::{JobKind, PoolConfig, Runtime, RuntimeConfig, RuntimeReport};
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::{LinkRate, Rank};
use proptest::prelude::*;

mod common;

fn sweep_topo() -> Topology {
    Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
}

/// One faulted collective, rendered to its full observable outcome
/// (engine stats + per-link traffic + per-rank timings) as a string so
/// equality covers every field.
fn faulted_render(kind_ix: usize, seed: u64, cutoff_headroom: u64) -> String {
    let topo = sweep_topo();
    let plan = match kind_ix {
        0 => FaultPlan::new(seed).with(FaultModel::DegradedLink {
            fraction: 0.2,
            bw_num: 1,
            bw_den: 4,
            start_ns: 5_000,
            duration_ns: 150_000,
        }),
        1 => FaultPlan::new(seed).with(FaultModel::FlappingPort {
            fraction: 0.2,
            period_ns: 40_000,
            down_ns: 10_000,
            start_ns: 0,
            end_ns: 300_000,
        }),
        _ => FaultPlan::new(seed).with(FaultModel::SwitchFailure {
            switches: 1,
            start_ns: 10_000,
            downtime_ns: 120_000,
        }),
    };
    let mut cfg = FabricConfig::ucc_default();
    cfg.faults = plan.compile(&topo);
    let out = des::run_collective_bounded(
        topo,
        cfg,
        ProtocolConfig::default(),
        CollectiveKind::Allgather,
        16 << 10,
        RunBounds {
            cutoff_headroom,
            watchdog_cutoffs: 64,
        },
    );
    // Render every simulated-time observable; wall-clock fields
    // (`wall_ns`) are measurement, not result, and are excluded.
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.stats.per_rank_done,
        out.stats.events,
        out.stats.peak_queue_depth,
        out.traffic.per_link(),
        out.traffic.rnr_per_rank(),
        out.timings,
        out.deadline
    )
}

#[test]
fn fault_sweep_outcomes_identical_across_worker_counts() {
    // All three models × several seeds × both cutoff settings, claimed
    // largest-first through the ordered executor — the exact shape of
    // the faultfigs sweep.
    let mut grid: Vec<(usize, u64, u64)> = Vec::new();
    for kind_ix in 0..3usize {
        for seed in 0..4u64 {
            for cutoff in [1u64, 4] {
                grid.push((kind_ix, seed, cutoff));
            }
        }
    }
    let run = |jobs: usize| -> Vec<String> {
        par_map_ordered(
            jobs,
            &grid,
            |_, &(kind_ix, _, cutoff)| (kind_ix as u64 + 1) * cutoff,
            |&(kind_ix, seed, cutoff)| faulted_render(kind_ix, seed, cutoff),
        )
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);
    // The renders are not all alike (faults actually vary by seed).
    assert!(serial.iter().any(|r| r != &serial[0]));
}

/// The runtime inherits fault schedules through `FabricConfig`: every
/// batch's fabric replays the same transitions, so a faulted
/// multi-tenant run must stay wave-deterministic too.
fn faulted_runtime_report(jobs: usize) -> RuntimeReport {
    let topo = Topology::single_switch(6, LinkRate::CX3_56G, 100);
    let plan = FaultPlan::new(11)
        .with(FaultModel::DegradedLink {
            fraction: 0.3,
            bw_num: 1,
            bw_den: 2,
            start_ns: 0,
            duration_ns: 500_000,
        })
        .with(FaultModel::FlappingPort {
            fraction: 0.1,
            period_ns: 50_000,
            down_ns: 8_000,
            start_ns: 10_000,
            end_ns: 200_000,
        });
    let mut fabric = FabricConfig::ucc_default();
    fabric.faults = plan.compile(&topo);
    let cfg = RuntimeConfig {
        fabric,
        pool: PoolConfig::with_capacity(4),
        max_inflight: 4,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(topo, cfg);
    let tenants: Vec<_> = (0..4)
        .map(|i| rt.register_tenant(&format!("tenant{i}")))
        .collect();
    for (i, &t) in tenants.iter().enumerate() {
        let kinds = [
            JobKind::Allgather,
            JobKind::Broadcast {
                root: Rank(i as u32),
            },
        ];
        for (j, &kind) in kinds.iter().enumerate() {
            let send_len = (8 << 10) << ((i + j) % 2);
            rt.submit(t, kind, send_len).expect("admission");
        }
    }
    rt.run_open_loop_jobs(jobs)
}

/// FNV-1a of `format!("{report:?}")` for [`faulted_runtime_report`],
/// recorded at the commit before the closed-loop drivers were deleted;
/// re-pinned, same run, when the `degraded` reject count left the report.
const FAULTED_RUNTIME_DIGEST: u64 = 0x3956e31442633a20;

#[test]
fn faulted_runtime_report_identical_across_worker_counts() {
    let serial = faulted_runtime_report(1);
    let wave = faulted_runtime_report(4);
    assert_eq!(serial, wave);
    assert_eq!(format!("{serial:?}"), format!("{wave:?}"));
    assert_eq!(
        common::fnv64(&format!("{serial:?}")),
        FAULTED_RUNTIME_DIGEST
    );
    assert_eq!(serial.completed_jobs(), 8);
    // The degraded links actually slowed the service: a healthy run of
    // the same workload finishes strictly faster.
    let healthy = {
        let topo = Topology::single_switch(6, LinkRate::CX3_56G, 100);
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            max_inflight: 4,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, cfg);
        let tenants: Vec<_> = (0..4)
            .map(|i| rt.register_tenant(&format!("tenant{i}")))
            .collect();
        for (i, &t) in tenants.iter().enumerate() {
            let kinds = [
                JobKind::Allgather,
                JobKind::Broadcast {
                    root: Rank(i as u32),
                },
            ];
            for (j, &kind) in kinds.iter().enumerate() {
                let send_len = (8 << 10) << ((i + j) % 2);
                rt.submit(t, kind, send_len).expect("admission");
            }
        }
        rt.run_open_loop_jobs(1)
    };
    assert!(
        serial.makespan_ns > healthy.makespan_ns,
        "faults must cost virtual time: {} vs {}",
        serial.makespan_ns,
        healthy.makespan_ns
    );
}

proptest! {
    /// A fault-free plan (every model at zero strength) compiles to an
    /// empty schedule and leaves the simulation bit-identical to a
    /// fabric that never heard of faults.
    #[test]
    fn fault_free_plan_is_a_noop(seed in 0u64..8, send_kib in 1usize..4) {
        let topo = || Topology::single_switch(4, LinkRate::CX3_56G, 100);
        let plan = FaultPlan::new(seed)
            .with(FaultModel::DegradedLink {
                fraction: 0.0,
                bw_num: 1,
                bw_den: 4,
                start_ns: 0,
                duration_ns: 1_000,
            })
            .with(FaultModel::FlappingPort {
                fraction: 0.0,
                period_ns: 10_000,
                down_ns: 1_000,
                start_ns: 0,
                end_ns: 50_000,
            })
            .with(FaultModel::SwitchFailure {
                switches: 0,
                start_ns: 0,
                downtime_ns: 1_000,
            });
        let sched = plan.compile(&topo());
        prop_assert!(sched.is_empty());

        let run = |faults| {
            let mut cfg = FabricConfig::ucc_default();
            cfg.faults = faults;
            des::run_collective(
                topo(),
                cfg,
                ProtocolConfig::default(),
                CollectiveKind::Allgather,
                send_kib << 10,
            )
        };
        let baseline = run(mcast_allgather::simnet::LinkSchedule::empty());
        let noop = run(sched);
        prop_assert!(baseline.stats.all_done() && noop.stats.all_done());
        prop_assert_eq!(baseline.stats.events, noop.stats.events);
        prop_assert_eq!(&baseline.stats.per_rank_done, &noop.stats.per_rank_done);
        prop_assert_eq!(&baseline.timings, &noop.timings);
        prop_assert_eq!(baseline.traffic.per_link(), noop.traffic.per_link());
        prop_assert_eq!(baseline.traffic.rnr_per_rank(), noop.traffic.rnr_per_rank());
    }
}
