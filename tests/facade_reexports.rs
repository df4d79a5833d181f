//! Workspace-wiring smoke test: every layer the facade re-exports must be
//! reachable through `mcast_allgather::` and one representative type from
//! each must construct. Catches broken `pub use` edges and manifest
//! mis-wiring before any deeper test runs.

use mcast_allgather::verbs::LinkRate;

#[test]
fn verbs_reachable_and_constructs() {
    let mtu = mcast_allgather::verbs::Mtu::IB_4K;
    assert_eq!(mtu.chunks_for(4096), 1);
    let rank = mcast_allgather::verbs::Rank(3);
    assert_eq!(rank.0, 3);
}

#[test]
fn simnet_reachable_and_constructs() {
    let topo = mcast_allgather::simnet::Topology::single_switch(4, LinkRate::CX3_56G, 100);
    assert_eq!(topo.num_hosts(), 4);
    let _cfg = mcast_allgather::simnet::FabricConfig::ucc_default();
}

#[test]
fn core_reachable_and_constructs() {
    use mcast_allgather::verbs::{CollectiveId, ImmLayout, Mtu};
    let _cfg = mcast_allgather::core::ProtocolConfig::default();
    let plan = mcast_allgather::core::CollectivePlan::new(
        mcast_allgather::core::CollectiveKind::Allgather,
        4,
        64 << 10,
        Mtu::IB_4K,
        ImmLayout::DEFAULT,
        CollectiveId(1),
        1,
        1,
    );
    assert!(plan.total_chunks() > 0);
    let bm = mcast_allgather::core::ChunkBitmap::new(16);
    assert_eq!(bm.count(), 0);
}

#[test]
fn baselines_reachable_and_constructs() {
    let sched = mcast_allgather::baselines::ring_allgather(4, 4096);
    assert_eq!(sched.len(), 4);
}

#[test]
fn dpa_reachable_and_constructs() {
    let spec = mcast_allgather::dpa::DpaSpec::bf3();
    assert!(spec.total_threads() > 0);
}

#[test]
fn models_reachable_and_constructs() {
    let sizing = mcast_allgather::models::BitmapSizing::new(24, 4096);
    assert!(sizing.fits(u64::MAX));
}

#[test]
fn memfabric_reachable_and_constructs() {
    let bm = mcast_allgather::memfabric::AtomicBitmap::new(64);
    assert!(bm.set(7));
    assert!(!bm.set(7));
}

#[test]
fn exec_reachable_and_maps() {
    let doubled = mcast_allgather::exec::par_map(2, &[1u32, 2, 3], |&x| x * 2);
    assert_eq!(doubled, vec![2, 4, 6]);
    assert!(mcast_allgather::exec::default_jobs() >= 1);
    let ordered =
        mcast_allgather::exec::par_map_ordered(2, &[1u32, 2, 3], |_, &x| x as u64, |&x| x * 2);
    assert_eq!(ordered, doubled);
}

#[test]
fn faults_reachable_and_compiles_plans() {
    use mcast_allgather::faults::{FaultModel, FaultPlan};
    let topo = mcast_allgather::simnet::Topology::single_switch(4, LinkRate::CX3_56G, 100);
    let sched = FaultPlan::new(9)
        .with(FaultModel::SwitchFailure {
            switches: 1,
            start_ns: 1_000,
            downtime_ns: 5_000,
        })
        .compile(&topo);
    // The star's one switch touches every link, both directions.
    assert_eq!(sched.len(), 2 * topo.num_links());
}

#[test]
fn trace_reachable_and_records() {
    use mcast_allgather::trace::{TraceEvent, TraceSink, TraceSpec};
    let mut sink = TraceSink::new(TraceSpec::with_capacity(4));
    sink.record(TraceEvent::QueueDepth { at_ns: 7, depth: 1 });
    assert_eq!(sink.len(), 1);
    assert_eq!(sink.dropped(), 0);
    let tr = mcast_allgather::trace::RuntimeTrace::default();
    let doc = mcast_allgather::trace::export_chrome(
        &tr,
        &mcast_allgather::trace::ChromeOptions::default(),
    );
    mcast_allgather::trace::validate_json(&doc).expect("empty trace still exports valid JSON");
}

#[test]
fn offload_reachable_and_compiles_to_host_models() {
    use mcast_allgather::offload::{BackendKind, Placement};
    for kind in BackendKind::ALL {
        let hm = kind.host_model(4096);
        assert!(hm.rq_depth > 0);
        // Only in-switch backends hold fabric-resident reduction state.
        assert_eq!(
            kind.limits().aggregation_entries.is_some(),
            kind.placement() == Placement::InSwitch
        );
    }
    assert!(
        mcast_allgather::models::algbw_gbps(125_000_000, 1_000_000) > 999.0,
        "models::algbw_gbps must be reachable through the facade"
    );
}

#[test]
fn runtime_reachable_and_constructs() {
    let topo = mcast_allgather::simnet::Topology::single_switch(4, LinkRate::CX3_56G, 100);
    let mut rt = mcast_allgather::runtime::Runtime::new(
        topo,
        mcast_allgather::runtime::RuntimeConfig::default(),
    );
    let t = rt.register_tenant("smoke");
    assert_eq!(t, mcast_allgather::runtime::TenantId(0));
    let pool = mcast_allgather::runtime::McastGroupPool::new(
        mcast_allgather::runtime::PoolConfig::with_capacity(2),
    );
    assert_eq!(pool.capacity(), 2);
}
