//! Property-style invariants of the fabric substrate itself: routing,
//! multicast trees, and the in-network reduction plumbing — checked on
//! randomized topologies, not just the fixed testbeds.

use mcast_allgather::simnet::mcast::McastTree;
use mcast_allgather::simnet::routing;
use mcast_allgather::simnet::{NodeKind, Topology};
use mcast_allgather::verbs::{LinkRate, McastGroupId, Rank};
use proptest::prelude::*;

/// Random two-level fat-tree generator for property tests.
fn arb_two_level() -> impl Strategy<Value = Topology> {
    (2usize..40, 1usize..5, 1usize..4, 1usize..3).prop_map(|(hosts, leaves, spines, rails)| {
        Topology::fat_tree_two_level(
            hosts.max(2),
            leaves.min(hosts),
            spines,
            rails,
            LinkRate::CX3_56G,
            100,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pair routes successfully with a valid walk.
    #[test]
    fn all_pairs_route(topo in arb_two_level()) {
        let p = topo.num_hosts() as u32;
        for s in 0..p {
            for d in 0..p {
                if s == d { continue; }
                let path = routing::route(&topo, Rank(s), Rank(d));
                prop_assert!(routing::path_is_valid(&topo, Rank(s), Rank(d), &path));
                prop_assert!(path.len() <= 4, "two-level paths are at most 4 hops");
            }
        }
    }

    /// Multicast trees are spanning trees: node count = edge count + 1,
    /// and flooding from any member reaches all other members once.
    #[test]
    fn mcast_tree_is_spanning(topo in arb_two_level(), gid: u32) {
        let p = topo.num_hosts() as u32;
        prop_assume!(p >= 2);
        let members: Vec<Rank> = (0..p).map(Rank).collect();
        let tree = McastTree::build(&topo, McastGroupId(gid % 64), &members);
        prop_assert_eq!(tree.nodes().count(), tree.num_edges() + 1);

        // Flood from a pseudo-random entry.
        let entry = Rank(gid % p);
        let start = topo.host_node(entry);
        let mut frontier = vec![(start, None)];
        let mut hosts_hit = 0usize;
        let mut visited_links = std::collections::HashSet::new();
        while let Some((node, in_link)) = frontier.pop() {
            for l in tree.out_links(&topo, node, in_link) {
                prop_assert!(visited_links.insert(l), "link traversed twice");
                let dst = topo.link(l).dst;
                if matches!(topo.kind(dst), NodeKind::Host(_)) {
                    hosts_hit += 1;
                } else {
                    frontier.push((dst, Some(l)));
                }
            }
        }
        prop_assert_eq!(hosts_hit, p as usize - 1);
    }

    /// Tree orientation: following parent links from any member reaches
    /// the root without cycles, and child links partition the adjacency.
    #[test]
    fn tree_orientation_consistent(topo in arb_two_level(), gid: u32) {
        let p = topo.num_hosts() as u32;
        prop_assume!(p >= 2);
        let members: Vec<Rank> = (0..p).map(Rank).collect();
        let tree = McastTree::build(&topo, McastGroupId(gid % 64), &members);
        let root = tree.root();
        for n in tree.nodes() {
            let kids = tree.child_links(n).count();
            let parent = tree.parent_link(n);
            // Degree bookkeeping: children + optional parent = adjacency.
            let degree = kids + parent.is_some() as usize;
            let adj = tree.out_links(&topo, n, None).count();
            prop_assert_eq!(degree, adj, "node {:?}", n);
            // Ascend to root.
            let mut at = n;
            let mut hops = 0;
            while at != root {
                let l = tree.parent_link(at).expect("orphan");
                at = topo.link(l).dst;
                hops += 1;
                prop_assert!(hops <= 4);
            }
        }
    }

    /// Routes are stable and differ by destination host (no accidental
    /// aliasing).
    #[test]
    fn deterministic_routing_is_pure(topo in arb_two_level()) {
        let p = topo.num_hosts() as u32;
        prop_assume!(p >= 3);
        let a = routing::route(&topo, Rank(0), Rank(1));
        let b = routing::route(&topo, Rank(0), Rank(1));
        prop_assert_eq!(&a, &b);
        let c = routing::route(&topo, Rank(0), Rank(2));
        prop_assert_ne!(a.last(), c.last(), "different hosts, different last hop");
    }
}

#[test]
fn three_level_trees_span_pods() {
    // Fixed deep-topology check (generated fabrics above are two-level).
    let topo = Topology::fat_tree_three_level(4, 4, 4, 4, 8, LinkRate::NDR_400G, 200);
    assert_eq!(topo.num_hosts(), 64);
    let members: Vec<Rank> = (0..64).map(Rank).collect();
    for gid in 0..8 {
        let tree = McastTree::build(&topo, McastGroupId(gid), &members);
        assert_eq!(tree.nodes().count(), tree.num_edges() + 1);
        // Root is a core switch; every member can ascend to it.
        assert_eq!(topo.level(tree.root()), 3);
    }
}

/// 64-bit FNV-1a over every ordered pair's deterministic route on
/// `topo`: the pair, the hop count and each link id, little-endian.
fn route_digest(topo: &Topology) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let p = topo.num_hosts() as u32;
    for s in 0..p {
        for d in (0..p).filter(|&d| d != s) {
            let path = routing::route(topo, Rank(s), Rank(d));
            eat(s);
            eat(d);
            eat(path.len() as u32);
            path.iter().for_each(|l| eat(l.0));
        }
    }
    h
}

/// Pins the route every ordered pair takes, not just that routing is
/// pure: any change to a route choice fails here. The digests were
/// recorded from the deterministic mode with salt 0, which the simulator
/// has always routed with.
#[test]
fn route_choices_are_the_recorded_ones() {
    let cases = [
        (
            "ucc_testbed",
            Topology::ucc_testbed(),
            0xc3ea_3ded_18b6_6c62u64,
        ),
        (
            "fat_tree_512",
            Topology::fat_tree_512(LinkRate::NDR_400G),
            0x9480_55a2_0aa6_74e5,
        ),
        (
            "two_level_4_rails",
            Topology::fat_tree_two_level(96, 8, 4, 4, LinkRate::NDR_400G, 100),
            0x8f45_5c96_f7c2_ab2b,
        ),
    ];
    for (name, topo, want) in cases {
        assert_eq!(route_digest(&topo), want, "{name}");
    }
}
