//! Fig. 2: the theoretical traffic model — total bytes crossing fabric
//! links for multicast vs. point-to-point collectives on a fat-tree.
//!
//! Rather than a closed-form approximation, we compute exact link-byte
//! counts on the modeled topology: P2P schedules contribute
//! `bytes × |route(src → dst)|` per message (deterministic up/down
//! routing), and a multicast Broadcast contributes `bytes` on every edge
//! of its group's spanning tree — each byte crosses each link exactly
//! once, which *is* the bandwidth-optimality property.

use mcag_simnet::mcast::McastTree;
use mcag_simnet::routing;
use mcag_simnet::Topology;
use mcag_verbs::{McastGroupId, Rank};
use serde::{Deserialize, Serialize};

/// Traffic totals for one collective on one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// Total bytes crossing all links.
    pub total_link_bytes: u64,
    /// Bytes injected by hosts (send-path volume).
    pub host_send_bytes: u64,
    /// The maximum bytes any single link carries.
    pub max_link_bytes: u64,
}

/// Traffic of a P2P schedule: `(src, dst, bytes)` message list.
pub fn p2p_traffic(topo: &Topology, msgs: impl Iterator<Item = (Rank, Rank, u64)>) -> TrafficModel {
    let mut per_link = vec![0u64; topo.num_links()];
    let mut host_send = 0u64;
    for (src, dst, bytes) in msgs {
        host_send += bytes;
        for l in routing::route(topo, src, dst) {
            per_link[l.idx()] += bytes;
        }
    }
    TrafficModel {
        total_link_bytes: per_link.iter().sum(),
        host_send_bytes: host_send,
        max_link_bytes: per_link.iter().copied().max().unwrap_or(0),
    }
}

/// Traffic of one multicast Broadcast of `bytes` to all `p` ranks.
pub fn broadcast_traffic(topo: &Topology, bytes: u64) -> TrafficModel {
    let members: Vec<Rank> = (0..topo.num_hosts() as u32).map(Rank).collect();
    let tree = McastTree::build(topo, McastGroupId(0), &members);
    TrafficModel {
        // Flooding traverses every tree edge exactly once per datagram.
        total_link_bytes: tree.num_edges() as u64 * bytes,
        host_send_bytes: bytes,
        max_link_bytes: bytes,
    }
}

/// Which Allgather algorithm to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllgatherAlgo {
    /// Multicast composition of Broadcasts (this paper).
    Mcast,
    /// Ring: P−1 neighbor messages of `N` per rank.
    Ring,
    /// Linear: direct send to every peer.
    Linear,
    /// Recursive doubling (P must be a power of two).
    RecursiveDoubling,
}

/// Fig. 2's quantity: total link bytes of one Allgather of `n` bytes per
/// rank over all `P` hosts of `topo`.
pub fn allgather_traffic(topo: &Topology, algo: AllgatherAlgo, n: u64) -> TrafficModel {
    let p = topo.num_hosts() as u32;
    match algo {
        AllgatherAlgo::Mcast => {
            let per_bcast = broadcast_traffic(topo, n);
            TrafficModel {
                total_link_bytes: per_bcast.total_link_bytes * p as u64,
                host_send_bytes: n * p as u64,
                max_link_bytes: n * p as u64, // host downlinks carry all blocks
            }
        }
        AllgatherAlgo::Ring => p2p_traffic(
            topo,
            (0..p).flat_map(|r| {
                let right = Rank(r).ring_right(p);
                // P-1 steps, N bytes each, always to the right neighbor.
                std::iter::repeat_n((Rank(r), right, n), p as usize - 1)
            }),
        ),
        AllgatherAlgo::Linear => p2p_traffic(
            topo,
            (0..p).flat_map(move |r| {
                (0..p)
                    .filter(move |&d| d != r)
                    .map(move |d| (Rank(r), Rank(d), n))
            }),
        ),
        AllgatherAlgo::RecursiveDoubling => {
            assert!(p.is_power_of_two(), "recursive doubling needs 2^k ranks");
            p2p_traffic(
                topo,
                (0..p).flat_map(move |r| {
                    let mut msgs = Vec::new();
                    let mut dist = 1u32;
                    let mut have = 1u64;
                    while dist < p {
                        msgs.push((Rank(r), Rank(r ^ dist), n * have));
                        have *= 2;
                        dist <<= 1;
                    }
                    msgs
                }),
            )
        }
    }
}

/// The savings factor Fig. 2 reports: P2P traffic over multicast traffic.
pub fn savings_factor(topo: &Topology, algo: AllgatherAlgo, n: u64) -> f64 {
    let p2p = allgather_traffic(topo, algo, n);
    let mc = allgather_traffic(topo, AllgatherAlgo::Mcast, n);
    p2p.total_link_bytes as f64 / mc.total_link_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    fn fig2_topo() -> Topology {
        Topology::fig2_cluster(LinkRate::NDR_400G)
    }

    #[test]
    fn mcast_send_path_is_constant_in_p() {
        // Insight 1: per-process send volume is N for multicast,
        // N(P-1) for any unicast algorithm.
        let topo = Topology::ucc_testbed();
        let n = 1 << 20;
        let mc = allgather_traffic(&topo, AllgatherAlgo::Mcast, n);
        let ring = allgather_traffic(&topo, AllgatherAlgo::Ring, n);
        assert_eq!(mc.host_send_bytes, n * 188);
        assert_eq!(ring.host_send_bytes, n * 188 * 187);
    }

    #[test]
    fn fig2_savings_between_1_5x_and_3x() {
        // On the 1024-node radix-32 fat-tree the paper models ~2x wire
        // savings for Allgather (Fig. 2 / Fig. 12 measure 1.5-2x).
        let topo = fig2_topo();
        let s_ring = savings_factor(&topo, AllgatherAlgo::Ring, 1 << 20);
        assert!(
            (1.3..4.0).contains(&s_ring),
            "ring/mcast savings = {s_ring}"
        );
        let s_lin = savings_factor(&topo, AllgatherAlgo::Linear, 1 << 20);
        assert!(s_lin >= s_ring, "linear must be at least as wasteful");
    }

    #[test]
    fn broadcast_each_link_once() {
        let topo = Topology::ucc_testbed();
        let bc = broadcast_traffic(&topo, 4096);
        assert_eq!(bc.max_link_bytes, 4096);
        // Tree spans 188 hosts + at most 18 switches: ≤ 205 edges.
        assert!(bc.total_link_bytes <= 4096 * 206);
        assert!(bc.total_link_bytes >= 4096 * 188);
    }

    #[test]
    fn ring_traffic_exact_on_star() {
        // On a single switch every neighbor route is 2 links, so ring AG
        // moves exactly 2·P·(P−1)·N link-bytes.
        let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let t = allgather_traffic(&topo, AllgatherAlgo::Ring, 1000);
        assert_eq!(t.total_link_bytes, 2 * 8 * 7 * 1000);
        // Multicast: uplink once per root + 7 downlink copies = P·(1+7)·N.
        let m = allgather_traffic(&topo, AllgatherAlgo::Mcast, 1000);
        assert_eq!(m.total_link_bytes, 8 * 8 * 1000);
        assert!((t.total_link_bytes as f64 / m.total_link_bytes as f64 - 1.75).abs() < 1e-9);
    }

    #[test]
    fn recursive_doubling_matches_ring_volume_on_star() {
        let topo = Topology::single_switch(16, LinkRate::CX3_56G, 100);
        let rd = allgather_traffic(&topo, AllgatherAlgo::RecursiveDoubling, 1000);
        let ring = allgather_traffic(&topo, AllgatherAlgo::Ring, 1000);
        // Same total bytes sent per rank (N(P-1)); on a star all routes
        // are 2 hops, so totals match exactly.
        assert_eq!(rd.total_link_bytes, ring.total_link_bytes);
    }

    #[test]
    fn savings_grow_with_cluster_size() {
        let n = 1 << 20;
        let small = savings_factor(
            &Topology::fat_tree_two_level(32, 4, 2, 1, LinkRate::CX3_56G, 100),
            AllgatherAlgo::Ring,
            n,
        );
        let large = savings_factor(&fig2_topo(), AllgatherAlgo::Ring, n);
        assert!(
            large >= small * 0.9,
            "larger fabrics shouldn't save much less: {small} -> {large}"
        );
    }
}
