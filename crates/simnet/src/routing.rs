//! Unicast routing: deterministic up/down, the InfiniBand subnet-manager
//! style.
//!
//! A route ascends from the source host until the current switch's
//! subtree contains the destination rank, then descends along the unique
//! down-path. Equal-cost up-links (and parallel rails) are picked with a
//! flow hash of the `(src, dst)` pair — the D-mod-k discipline — so every
//! pair has exactly one path and [`Topology`] can memoize it.

use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use mcag_verbs::Rank;

/// Splitmix64 — tiny, deterministic hash for route selection.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The constant term of every flow hash. Every route choice depends on
/// it, and `tests/simnet_invariants.rs` pins those choices.
const FLOW_SALT: u64 = mix64(0);

/// Compute the route (sequence of directed links) from `src`'s host NIC
/// to `dst`'s host NIC.
pub fn route(topo: &Topology, src: Rank, dst: Rank) -> Vec<LinkId> {
    let mut path = Vec::with_capacity(6);
    walk(topo, src, dst, |l| path.push(l));
    path
}

/// The longest route [`walk`] can take: it panics as a routing loop
/// before a descent reaches this many hops.
pub(crate) const MAX_HOPS: usize = 32;

/// [`route`], handing each link to `push` in order instead of collecting
/// them — the topology's memo copies a route straight into its shared
/// `Arc` this way.
pub(crate) fn walk(topo: &Topology, src: Rank, dst: Rank, mut push: impl FnMut(LinkId)) {
    assert_ne!(src, dst, "no self-routes");
    let flow = mix64((src.0 as u64) << 32 | dst.0 as u64).wrapping_add(FLOW_SALT);
    let mut at = topo.host_node(src);

    // Ascend until the destination is below us.
    let mut hop = 0u64;
    loop {
        match topo.kind(at) {
            NodeKind::Host(r) if r == dst => break,
            NodeKind::Host(_) => {}
            NodeKind::Switch { .. } if topo.subtree_contains(at, dst) => break,
            NodeKind::Switch { .. } => {}
        }
        let ups = topo.uplinks(at);
        assert!(
            !ups.is_empty(),
            "dead-end ascending at node {at:?} (src {src}, dst {dst})"
        );
        let l = ups[(mix64(flow.wrapping_add(hop)) % ups.len() as u64) as usize];
        push(l);
        at = topo.link(l).dst;
        hop += 1;
        // Direct host-to-host cable (back-to-back topology).
        if matches!(topo.kind(at), NodeKind::Host(r) if r == dst) {
            return;
        }
        assert!(hop < 16, "routing loop ascending from {src} to {dst}");
    }

    // Descend along the unique down-path (choosing among parallel rails).
    while !matches!(topo.kind(at), NodeKind::Host(r) if r == dst) {
        let l = pick_down(topo, at, dst, |n| {
            (mix64(flow.wrapping_add(0x1000 + hop)) % n as u64) as usize
        });
        push(l);
        at = topo.link(l).dst;
        hop += 1;
        assert!(
            hop < MAX_HOPS as u64,
            "routing loop descending toward {dst}"
        );
    }
}

/// The link a descent from switch `at` toward `dst`'s host takes at its
/// `hop`-th step: the unique way down, hashing `salt` over parallel
/// rails. In-network reduction delivers a reduced shard from the tree
/// root to its owner this way, one switch at a time, salted by PSN.
pub(crate) fn descend_link(topo: &Topology, at: NodeId, dst: Rank, salt: u64, hop: u64) -> LinkId {
    pick_down(topo, at, dst, |n| {
        (mix64(salt.wrapping_add(hop)) % n as u64) as usize
    })
}

/// The `pick(n)`-th of the `n` downlinks of `at` toward `dst`.
fn pick_down(topo: &Topology, at: NodeId, dst: Rank, pick: impl FnOnce(usize) -> usize) -> LinkId {
    let mut downs = topo.down_toward(at, dst);
    let n = downs.clone().count();
    assert!(n > 0, "dead-end descending at node {at:?} toward {dst}");
    downs.nth(pick(n)).expect("pick within the downlinks")
}

/// Validate that `path` is a connected src→dst walk (used by tests).
pub fn path_is_valid(topo: &Topology, src: Rank, dst: Rank, path: &[LinkId]) -> bool {
    let mut at = topo.host_node(src);
    for &l in path {
        if topo.link(l).src != at {
            return false;
        }
        at = topo.link(l).dst;
    }
    at == topo.host_node(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    #[test]
    fn back_to_back_single_hop() {
        let t = Topology::back_to_back(LinkRate::CX7_200G, 50);
        let p = route(&t, Rank(0), Rank(1));
        assert_eq!(p.len(), 1);
        assert!(path_is_valid(&t, Rank(0), Rank(1), &p));
    }

    #[test]
    fn star_two_hops() {
        let t = Topology::single_switch(5, LinkRate::CX3_56G, 50);
        let p = route(&t, Rank(1), Rank(4));
        assert_eq!(p.len(), 2);
        assert!(path_is_valid(&t, Rank(1), Rank(4), &p));
    }

    #[test]
    fn same_leaf_stays_local() {
        let t = Topology::ucc_testbed();
        // Ranks 0 and 1 share leaf 0: path must be host->leaf->host.
        let p = route(&t, Rank(0), Rank(1));
        assert_eq!(p.len(), 2);
        assert!(path_is_valid(&t, Rank(0), Rank(1), &p));
    }

    #[test]
    fn cross_leaf_goes_through_spine() {
        let t = Topology::ucc_testbed();
        let p = route(&t, Rank(0), Rank(187));
        assert_eq!(p.len(), 4, "host-leaf-spine-leaf-host");
        assert!(path_is_valid(&t, Rank(0), Rank(187), &p));
    }

    #[test]
    fn three_level_paths_valid_everywhere() {
        let t = Topology::fat_tree_three_level(2, 2, 2, 2, 2, LinkRate::CX3_56G, 50);
        for s in 0..t.num_hosts() as u32 {
            for d in 0..t.num_hosts() as u32 {
                if s == d {
                    continue;
                }
                let p = route(&t, Rank(s), Rank(d));
                assert!(path_is_valid(&t, Rank(s), Rank(d), &p), "{s}->{d}");
                assert!(p.len() <= 6);
            }
        }
    }

    #[test]
    fn deterministic_routes_are_stable() {
        let t = Topology::ucc_testbed();
        assert_eq!(route(&t, Rank(3), Rank(99)), route(&t, Rank(3), Rank(99)));
    }
}
