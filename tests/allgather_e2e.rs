//! End-to-end integration: the multicast collectives on the full
//! simulated UCC testbed, including the paper's headline invariants.

use mcast_allgather::core::{des, CollectiveKind, ProtocolConfig};
use mcast_allgather::simnet::{DropModel, FabricConfig, Topology};
use mcast_allgather::verbs::{Mtu, Rank};

fn proto(mtu: usize) -> ProtocolConfig {
    ProtocolConfig {
        mtu: Mtu::new(mtu),
        ..ProtocolConfig::default()
    }
}

#[test]
fn full_testbed_allgather_completes() {
    let out = des::run_collective(
        Topology::ucc_testbed(),
        FabricConfig::ucc_default(),
        proto(16 << 10),
        CollectiveKind::Allgather,
        256 << 10,
    );
    assert!(out.stats.all_done());
    assert_eq!(out.rnr_drops, 0);
    assert_eq!(out.total_fetched(), 0);
    // Receive-bound: mean throughput within the 56 Gbit/s link.
    let gbps = out.mean_recv_gbps();
    assert!(gbps > 30.0 && gbps < 56.0, "mean {gbps} Gbit/s");
}

#[test]
fn bandwidth_optimality_every_link_carries_each_byte_once() {
    // The defining property (Insight 1): after an Allgather of N bytes
    // per rank, no link carries more than P*N payload bytes, and most
    // carry far less. Verified from the same counters Fig. 12 uses.
    let n = 64usize << 10;
    let out = des::run_collective(
        Topology::ucc_testbed(),
        FabricConfig::ideal(),
        proto(4096),
        CollectiveKind::Allgather,
        n,
    );
    assert!(out.stats.all_done());
    let bound = 188 * n as u64;
    assert!(
        out.traffic.max_link_data_bytes() <= bound,
        "{} > {bound}",
        out.traffic.max_link_data_bytes()
    );
    // Host injection: exactly N per rank (+0 control data bytes).
    let topo = Topology::ucc_testbed();
    assert_eq!(
        out.traffic.host_injection_bytes(&topo)
            - out
                .traffic
                .per_link()
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    use mcast_allgather::simnet::{LinkId, NodeKind};
                    matches!(
                        topo.kind(topo.link(LinkId(*i as u32)).src),
                        NodeKind::Host(_)
                    )
                })
                .map(|(_, c)| c.ctrl_bytes)
                .sum::<u64>(),
        188 * n as u64,
        "multicast injection must be exactly N per rank"
    );
}

#[test]
fn broadcast_at_scale_with_subgroups() {
    let out = des::run_collective(
        Topology::ucc_testbed(),
        FabricConfig::ucc_default(),
        ProtocolConfig {
            mtu: Mtu::new(16 << 10),
            subgroups: 4,
            ..ProtocolConfig::default()
        },
        CollectiveKind::Broadcast { root: Rank(42) },
        1 << 20,
    );
    assert!(out.stats.all_done());
    // Every leaf saw the full buffer exactly once (no recovery).
    assert_eq!(out.total_fetched(), 0);
    for (i, t) in out.timings.iter().enumerate() {
        assert!(t.t_done.is_some(), "rank {i} never released");
    }
}

#[test]
fn fabric_drops_at_scale_recovered_by_fetch_ring() {
    let mut cfg = FabricConfig::ucc_default();
    cfg.drops = DropModel::uniform(0.002);
    cfg.seed = 77;
    let out = des::run_collective(
        Topology::fat_tree_two_level(32, 2, 1, 2, mcast_allgather::verbs::LinkRate::CX3_56G, 300),
        cfg,
        proto(4096),
        CollectiveKind::Allgather,
        64 << 10,
    );
    assert!(out.stats.all_done(), "{:?}", out.stats);
    assert!(out.fabric_drops > 0, "seed produced no drops");
    assert!(out.total_fetched() > 0);
}

#[test]
fn chains_and_subgroups_compose() {
    for chains in [1u32, 2, 4] {
        for subgroups in [1u32, 3] {
            let out = des::run_collective(
                Topology::single_switch(12, mcast_allgather::verbs::LinkRate::CX3_56G, 100),
                FabricConfig::ucc_default(),
                ProtocolConfig {
                    chains,
                    subgroups,
                    ..ProtocolConfig::default()
                },
                CollectiveKind::Allgather,
                96 << 10,
            );
            assert!(
                out.stats.all_done(),
                "chains={chains} subgroups={subgroups}"
            );
        }
    }
}

#[test]
fn chain_parallelism_shortens_the_schedule() {
    // More parallel chains -> shorter Allgather on an uncongested star
    // (multicast parallelism, Section IV-A).
    let run = |chains: u32| {
        let out = des::run_collective(
            Topology::single_switch(16, mcast_allgather::verbs::LinkRate::CX3_56G, 100),
            FabricConfig::ucc_default(),
            ProtocolConfig {
                chains,
                ..ProtocolConfig::default()
            },
            CollectiveKind::Allgather,
            256 << 10,
        );
        assert!(out.stats.all_done());
        out.completion_ns()
    };
    let t1 = run(1);
    let t4 = run(4);
    assert!(
        t4 < t1,
        "4 chains ({t4} ns) should beat 1 chain ({t1} ns) on an uncongested fabric"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Randomized bandwidth-optimality: on any topology shape with
        /// any (P, N, subgroups, chains), no link ever carries more than
        /// P*N payload bytes of one Allgather.
        #[test]
        fn bandwidth_optimality_randomized(
            p in 2usize..20,
            n_kib in 1usize..129,
            subgroups in 1u32..4,
            chains in 1u32..4,
            two_level: bool,
        ) {
            use mcast_allgather::verbs::LinkRate;
            let n = n_kib << 10;
            let topo = if two_level && p >= 4 {
                Topology::fat_tree_two_level(p, 2, 1, 2, LinkRate::CX3_56G, 100)
            } else {
                Topology::single_switch(p, LinkRate::CX3_56G, 100)
            };
            let out = des::run_collective(
                topo,
                FabricConfig::ideal(),
                ProtocolConfig {
                    subgroups,
                    chains,
                    ..ProtocolConfig::default()
                },
                CollectiveKind::Allgather,
                n,
            );
            prop_assert!(out.stats.all_done());
            prop_assert!(
                out.traffic.max_link_data_bytes() <= (p * n) as u64,
                "link carried {} > P*N = {}",
                out.traffic.max_link_data_bytes(),
                p * n
            );
        }
    }
}

#[test]
fn deterministic_at_scale() {
    let run = || {
        des::run_collective(
            Topology::ucc_testbed(),
            FabricConfig::ucc_default(),
            proto(32 << 10),
            CollectiveKind::Allgather,
            512 << 10,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.completion_ns(), b.completion_ns());
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(a.traffic.total_data_bytes(), b.traffic.total_data_bytes());
}
