//! Golden guarantees of the offload-backend subsystem:
//!
//! * the **backend × collective × scale sweep** is byte-identical at
//!   `jobs = 1` and `jobs = 4`;
//! * the **DPA backend** is bit-for-bit the pre-refactor
//!   `mcag_dpa::run_datapath` — at the Table-I operating point and at
//!   full occupancy, on both transports;
//! * every backend's **compiled cost** is the recorded one: the
//!   host-CPU backend is `run_datapath` the same way, and setup cost,
//!   limits and per-CQE host models match a recorded table;
//! * the DES-level drivers agree that **in-switch and endpoint
//!   reduction** complete the same Reduce-Scatter.

use mcag_bench::backendfigs::sweep_digests;
use mcast_allgather::core::CollectiveKind::Allgather;
use mcast_allgather::core::{
    run_collective, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, ProtocolConfig,
};
use mcast_allgather::dpa::{run_datapath, ArrivalModel, DpaSpec, Kernel, KernelKind};
use mcast_allgather::offload::{BackendKind, BackendLimits, DatapathTransport};
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::LinkRate;

#[test]
fn backend_sweep_identical_across_worker_counts() {
    let serial = sweep_digests(true, 1);
    let parallel = sweep_digests(true, 4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "backend sweep diverged across worker counts"
    );
}

/// `be` on both transports is bit-for-bit `run_datapath` with `spec`
/// and the transport's kernel from `[ud, uc]`.
fn assert_engine_is_run_datapath(be: BackendKind, spec: DpaSpec, [ud, uc]: [KernelKind; 2]) {
    for (transport, kind) in [(DatapathTransport::Ud, ud), (DatapathTransport::Uc, uc)] {
        // Table-I operating point: one context, 4 KiB chunks,
        // saturated. Then full occupancy — every context busy.
        for threads in [1, spec.total_threads()] {
            let arrival = ArrivalModel::Saturated;
            let direct = run_datapath(&spec, &Kernel::new(kind), threads, 4096, 40_000, arrival);
            assert_eq!(
                be.datapath(transport, threads, 4096, 40_000, arrival),
                direct,
                "{} drifted from run_datapath ({transport:?}, {threads} contexts)",
                be.label()
            );
        }
    }
}

#[test]
fn dpa_backend_is_the_pre_refactor_datapath() {
    assert_engine_is_run_datapath(
        BackendKind::DpaBf3,
        DpaSpec::bf3(),
        [KernelKind::DpaUd, KernelKind::DpaUc],
    );
}

/// Every backend's compiled cost. The host-CPU engine is
/// `run_datapath` on both transports; setup cost, limits and the
/// per-CQE cost `host_model` calibrates at each chunk size must match
/// the recorded table.
#[test]
fn backends_are_the_recorded_cost_models() {
    assert_engine_is_run_datapath(
        BackendKind::HostCpu,
        DpaSpec::host_cpu(),
        [KernelKind::CpuUdUcx, KernelKind::CpuRcCustom],
    );

    // (backend, setup_ns, contexts, aggregation entries, per-CQE ns at
    // 64 B, 1, 4, 8, 16 and 64 KiB chunks).
    const SIZES: [usize; 6] = [64, 1024, 4096, 8192, 16384, 65536];
    let recorded = [
        (
            BackendKind::DpaBf3,
            100_000,
            256,
            None,
            [13, 32, 93, 175, 339, 1322],
        ),
        (
            BackendKind::HostCpu,
            0,
            1,
            None,
            [431, 431, 431, 431, 431, 1321],
        ),
        (
            BackendKind::FpgaSmartNic,
            5_000_000,
            8,
            None,
            [8, 18, 53, 98, 190, 738],
        ),
        (BackendKind::SharpSwitch, 250_000, 32, Some(512), [120; 6]),
    ];
    for (be, setup_ns, contexts, aggregation_entries, per_cqe) in recorded {
        assert_eq!(be.setup_ns(), setup_ns, "{}", be.label());
        assert_eq!(
            be.limits(),
            BackendLimits {
                contexts,
                aggregation_entries
            },
            "{}",
            be.label()
        );
        let got = SIZES.map(|c| be.host_model(c).rx_proc_ns_per_cqe);
        assert_eq!(got, per_cqe, "{} per-CQE ns at {SIZES:?}", be.label());
    }
}

#[test]
fn both_reduction_placements_complete_the_same_reduce_scatter() {
    // DES-level agreement: the in-switch and endpoint pair drivers run
    // the identical (topology, shard) Reduce-Scatter beside the same
    // Allgather to completion; the in-switch path converges operands in
    // the fabric and therefore moves strictly less payload. Each
    // Reduce-Scatter's payload is its pair's minus the Allgather run
    // alone; on an ideal fabric neither fetches, so the Allgather moves
    // the same bytes in all three runs.
    for topo in [
        Topology::single_switch(6, LinkRate::CX3_56G, 100),
        Topology::fat_tree_two_level(12, 3, 2, 1, LinkRate::CX3_56G, 100),
    ] {
        let shard = 16 << 10;
        let (cfg, proto) = (FabricConfig::ideal(), ProtocolConfig::default());
        let ag = run_collective(topo.clone(), cfg.clone(), proto, Allgather, shard);
        assert_eq!(ag.total_fetched(), 0);
        let [inc, endpoint] = [run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint].map(|run| {
            let out = run(topo.clone(), cfg.clone(), proto, shard);
            assert!(out.stats.all_done(), "RS did not complete on {topo:?}");
            assert!(out.rs_times.iter().all(|t| t.is_some()));
            assert!(out.ag_timings.iter().all(|t| t.fetched_chunks == 0));
            out.traffic.total_data_bytes() - ag.traffic.total_data_bytes()
        });
        assert!(inc < endpoint, "in-switch reduction must move less payload");
    }
}
