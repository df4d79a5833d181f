//! Golden guarantees of the offload-backend subsystem:
//!
//! * the **backend × collective × scale sweep** is byte-identical at
//!   `jobs = 1` and `jobs = 4`;
//! * the re-homed **DPA backend** is bit-for-bit the pre-refactor
//!   `mcag_dpa::run_datapath` — at the Table-I operating point and at
//!   full hardware occupancy, on both transports;
//! * **in-switch reduction computes the same value as endpoint
//!   reduction** on arbitrary aggregation trees (proptest), and the
//!   DES-level drivers agree that both placements complete the same
//!   Reduce-Scatter.

use mcag_bench::backendfigs::sweep_digests;
use mcast_allgather::core::run_reduce_scatter;
use mcast_allgather::dpa::{run_datapath, ArrivalModel, DpaSpec, Kernel, KernelKind};
use mcast_allgather::offload::{flat_reduce, tree_reduce, BackendKind, DatapathTransport};
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::{LinkRate, Mtu};
use proptest::prelude::*;

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

#[test]
fn dpa_backend_is_the_pre_refactor_datapath() {
    let be = BackendKind::DpaBf3.instantiate();
    let spec = DpaSpec::bf3();
    for (transport, kind) in [
        (DatapathTransport::Uc, KernelKind::DpaUc),
        (DatapathTransport::Ud, KernelKind::DpaUd),
    ] {
        // Table-I operating point: one thread, 4 KiB chunks, saturated.
        // Then full occupancy — every hardware context busy.
        for threads in [1, spec.total_threads()] {
            let via_trait = be.datapath(transport, threads, 4096, 40_000, ArrivalModel::Saturated);
            let direct = run_datapath(
                &spec,
                &Kernel::new(kind),
                threads,
                4096,
                40_000,
                ArrivalModel::Saturated,
            );
            assert_eq!(
                via_trait, direct,
                "DPA backend drifted from run_datapath ({transport:?}, {threads} threads)"
            );
        }
    }
}

proptest! {
    /// In-switch reduction folds partial aggregates up an arbitrary
    /// tree; the endpoint path folds every contribution flat at the
    /// owner. Same operands, same result — on every tree shape.
    #[test]
    fn in_switch_reduction_matches_endpoint_reduction(
        raw in prop::collection::vec(any::<u64>(), 2..40),
        shuffle in any::<u64>(),
    ) {
        // Derive an arbitrary valid tree (parent[i] < i) and operand
        // set from the raw entropy: entry i contributes raw[i] at a
        // node whose parent is drawn from the slots above it.
        let n = raw.len();
        let mut parent = vec![0usize; n];
        for i in 1..n {
            parent[i] = (raw[i] ^ shuffle) as usize % i;
        }
        prop_assert_eq!(tree_reduce(&parent, &raw), flat_reduce(&raw));

        // Relay-only switches (zero contribution) never change the sum.
        let mut with_relays = raw.clone();
        with_relays.extend([0u64, 0]);
        let mut relay_parent = parent.clone();
        relay_parent.push(shuffle as usize % n);
        relay_parent.push((shuffle >> 32) as usize % (n + 1));
        prop_assert_eq!(tree_reduce(&relay_parent, &with_relays), flat_reduce(&raw));
    }
}

#[test]
fn both_reduction_placements_complete_the_same_reduce_scatter() {
    // DES-level agreement: in-switch and endpoint Reduce-Scatter
    // drivers run the identical (topology, shard) problem to
    // completion; the in-switch path converges operands in the fabric
    // and therefore moves strictly less payload.
    for topo in [
        Topology::single_switch(6, LinkRate::CX3_56G, 100),
        Topology::fat_tree_two_level(12, 3, 2, 1, LinkRate::CX3_56G, 100),
    ] {
        let shard = 16 << 10;
        let [inc, endpoint] = [true, false].map(|in_switch| {
            let cfg = FabricConfig::ucc_default();
            run_reduce_scatter(topo.clone(), cfg, Mtu::IB_4K, shard, in_switch)
        });
        for out in [&inc, &endpoint] {
            assert!(out.stats.all_done(), "RS did not complete on {topo:?}");
            assert!(out.rs_times.iter().all(|t| t.is_some()));
        }
        assert!(
            inc.traffic.total_data_bytes() < endpoint.traffic.total_data_bytes(),
            "in-switch reduction must move less payload"
        );
    }
}
