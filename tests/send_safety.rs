//! Compile-time `Send` guarantees for the simulation stack.
//!
//! The fork-join sweep executor moves whole simulations — fabric, rank
//! apps, owned result sinks — onto worker threads, which is only sound
//! because every layer is `Send`. These checks make the property a named
//! build-time contract: reintroducing an `Rc<RefCell<…>>` result sink
//! anywhere in the stack fails to *compile* this suite rather than
//! silently re-serializing every sweep and runtime wave.

use mcast_allgather::baselines::executor::ScheduleApp;
use mcast_allgather::baselines::{ring_allgather, run_p2p};
use mcast_allgather::core::{
    des, CollectiveKind, CollectiveOutcome, CommSlot, ControlMsg, McastRankApp, MultiCommApp,
    ProtocolConfig, RsApp,
};
use mcast_allgather::runtime::Runtime;
use mcast_allgather::simnet::{Fabric, FabricConfig, RankApp, Topology};
use mcast_allgather::verbs::LinkRate;

fn assert_send<T: Send>() {}
fn assert_send_value<T: Send>(v: T) -> T {
    v
}

#[test]
fn fabric_is_send() {
    // The fabric itself (event queue, packet slab, NIC state, RNG) and
    // any boxed app installed into it.
    assert_send::<Fabric<ControlMsg>>();
    assert_send::<Fabric<()>>();
    assert_send::<Box<dyn RankApp<ControlMsg>>>();
    // The fabrics that actually run, each holding its drivers' app by
    // value: every collective driver's, and the P2P baselines'.
    assert_send::<Fabric<ControlMsg, MultiCommApp>>();
    assert_send::<Fabric<(), ScheduleApp>>();
}

#[test]
fn topology_is_shared_across_threads() {
    // Batches simulated on worker threads build their fabrics over one
    // `Arc<Topology>`, reading its memo of routes and multicast trees
    // concurrently: that takes `Send + Sync`.
    assert_send::<Topology>();
    assert_send::<std::sync::Arc<Topology>>();
}

#[test]
fn protocol_apps_are_send() {
    // Every endpoint the drivers install: the protocol state machine,
    // the Reduce-Scatter, and the one composite mux with its slots.
    assert_send::<McastRankApp>();
    assert_send::<RsApp>();
    assert_send::<CommSlot>();
    assert_send::<MultiCommApp>();
}

#[test]
fn sweep_job_and_outcome_are_send() {
    // What a simulation returns and the runtime that drives batch
    // waves — both must cross thread boundaries.
    assert_send::<CollectiveOutcome>();
    assert_send::<Runtime>();
}

#[test]
fn sweep_closures_move_to_worker_threads() {
    // The executable proof: a fully wired simulation closure (the exact
    // shape every figure sweep builds) runs on a spawned thread.
    let sim = move || {
        let out = des::run_collective(
            Topology::single_switch(4, LinkRate::CX3_56G, 100),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            8 << 10,
        );
        assert!(out.stats.all_done());
        out.completion_ns()
    };
    let sim = assert_send_value(sim);
    let threaded = std::thread::spawn(sim).join().unwrap();
    assert!(threaded > 0);

    // Same for a P2P baseline run (its ScheduleApp is Send too).
    let p2p = assert_send_value(move || {
        let out = run_p2p(
            Topology::single_switch(4, LinkRate::CX3_56G, 100),
            FabricConfig::ideal(),
            ring_allgather(4, 8 << 10),
            4096,
        );
        assert!(out.stats.all_done());
        out.flow_completion_ns(0)
    });
    assert!(std::thread::spawn(p2p).join().unwrap() > 0);
}
