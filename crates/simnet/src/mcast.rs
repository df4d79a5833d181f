//! Hardware multicast groups as switch-level spanning trees.
//!
//! In InfiniBand, the subnet manager computes one spanning tree per
//! multicast group (MGID); any attached endpoint may inject, and switches
//! replicate the packet along every tree branch except the one it arrived
//! on. We reproduce exactly that: [`McastTree::build`] roots the tree at a
//! deterministic top-level switch and takes the union of the unique
//! down-paths to every member — a tree, because down-paths in a fat-tree
//! are unique. Flooding from any entry point therefore visits every tree
//! edge **at most once**, which is the paper's bandwidth-optimality
//! property ("the send buffer from any participant will be moved through
//! any link in the network once", Insight 1).

use crate::routing::mix64;
use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use mcag_verbs::{McastGroupId, Rank};

/// A multicast group realized as a spanning tree over the fabric.
///
/// The adjacency and parent tables are dense and indexed by node id —
/// the fabric consults them once per packet hop on the replication hot
/// path, where a hash lookup per hop would dominate the switch model.
/// The adjacency is one flat array with per-node offsets, so building a
/// tree makes the same handful of allocations whatever its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastTree {
    group: McastGroupId,
    members: Vec<Rank>,
    /// `is_member[rank]`, dense over the fabric's ranks — every post
    /// checks membership, so it is a load, not a hash probe.
    is_member: Vec<bool>,
    /// Node `n`'s directed links along tree edges are
    /// `adj[adj_start[n]..adj_start[n + 1]]` (both "up" and "down"
    /// directions are present, since a packet entering mid-tree must also
    /// climb toward the root); the range is empty for nodes off the tree.
    adj_start: Vec<u32>,
    adj: Vec<LinkId>,
    /// Nodes that lie on the tree, in first-touch order.
    tree_nodes: Vec<NodeId>,
    /// Number of undirected tree edges.
    edges: usize,
    /// Tree root (the switch the subnet manager rooted the group at, or
    /// a host for switchless topologies).
    root: NodeId,
    /// Directed link from each non-root tree node toward its parent
    /// (`None` at the root and off the tree).
    parent_link: Vec<Option<LinkId>>,
}

/// "No node" in [`TreeEdges::via`].
const NIL: u32 = u32::MAX;

/// The edges of a tree under construction, each kept as the down link
/// that added it, with the dense per-node state that deduplicates them.
struct TreeEdges {
    links: Vec<LinkId>,
    /// The node each node was entered from ([`NIL`] if none yet).
    via: Vec<u32>,
    /// Tree degree of each node so far, with one spare trailing entry:
    /// it becomes the adjacency offsets.
    deg: Vec<u32>,
    tree_nodes: Vec<NodeId>,
}

impl TreeEdges {
    fn new(nodes: usize) -> TreeEdges {
        // A tree has fewer edges than nodes.
        TreeEdges {
            links: Vec::with_capacity(nodes),
            via: vec![NIL; nodes],
            deg: vec![0; nodes + 1],
            tree_nodes: Vec::with_capacity(nodes),
        }
    }

    /// Add the cable under the down link `l` unless a parallel rail
    /// already joins its ends.
    fn add(&mut self, topo: &Topology, l: LinkId) {
        let (src, dst) = (topo.link(l).src, topo.link(l).dst);
        // Every builder's down-paths from a root are unique up to
        // parallel rails, so each node has one parent: a pair is an edge
        // exactly when its lower end was entered from its upper one.
        match self.via[dst.idx()] {
            NIL => self.via[dst.idx()] = src.0,
            parent if parent == src.0 => return,
            parent => panic!("{dst:?} entered from {src:?} and from NodeId({parent})"),
        }
        for n in [src, dst] {
            if self.deg[n.idx()] == 0 {
                self.tree_nodes.push(n);
            }
            self.deg[n.idx()] += 1;
        }
        self.links.push(l);
    }

    /// The flat adjacency: per-node offsets and the links, each node's in
    /// the order its edges were added.
    fn into_adjacency(self, topo: &Topology) -> (Vec<u32>, Vec<LinkId>, Vec<NodeId>, usize) {
        let TreeEdges {
            links,
            via: mut fill,
            deg: mut start,
            tree_nodes,
            ..
        } = self;
        let mut total = 0;
        for s in start.iter_mut() {
            let d = *s;
            *s = total;
            total += d;
        }
        let nodes = fill.len();
        fill.copy_from_slice(&start[..nodes]);
        let mut adj = vec![LinkId(0); total as usize];
        for &l in &links {
            let (src, dst) = (topo.link(l).src, topo.link(l).dst);
            adj[fill[src.idx()] as usize] = l;
            fill[src.idx()] += 1;
            adj[fill[dst.idx()] as usize] = topo.reverse(l);
            fill[dst.idx()] += 1;
        }
        (start, adj, tree_nodes, links.len())
    }
}

impl McastTree {
    /// Build the spanning tree for `members` of `group`.
    ///
    /// The tree root is a top-level switch chosen by hashing the group id,
    /// mirroring how a subnet manager balances distinct MGIDs over spines —
    /// this is what spreads the paper's multicast *subgroups* (packet
    /// parallelism) over different core switches. For the back-to-back
    /// topology (no switches), the tree degenerates to the single cable.
    pub fn build(topo: &Topology, group: McastGroupId, members: &[Rank]) -> McastTree {
        McastTree::build_avoiding(topo, group, members, &[])
            .expect("tree build failed on a healthy fabric")
    }

    /// Build the spanning tree for `members`, routing around the switches
    /// in `avoid` — the subnet manager's recovery path when a chassis on
    /// an existing group's tree dies. With an empty `avoid` list the
    /// candidate sets are identical to [`McastTree::build`], so the root
    /// and rail hashes pick the same tree bit-for-bit.
    ///
    /// Returns `None` when no live root remains or some member is only
    /// reachable through an avoided switch — the group stays on its old
    /// (partially dead) tree in that case.
    pub fn build_avoiding(
        topo: &Topology,
        group: McastGroupId,
        members: &[Rank],
        avoid: &[NodeId],
    ) -> Option<McastTree> {
        assert!(members.len() >= 2, "multicast group needs ≥ 2 members");
        let mut is_member = vec![false; topo.num_hosts()];
        for m in members {
            assert!(
                !std::mem::replace(&mut is_member[m.idx()], true),
                "duplicate members"
            );
        }
        let avoided = |n: NodeId| avoid.contains(&n);

        let mut edges = TreeEdges::new(topo.num_nodes());
        let top = topo.top_level();
        let root;
        if top == 0 {
            // Back-to-back: the "tree" is the host-to-host cable.
            let h = topo.host_node(members[0]);
            root = h;
            edges.add(topo, topo.uplinks(h)[0]);
        } else {
            // Live top-level switches, in node order.
            let tops = || {
                (0..topo.num_nodes() as u32).map(NodeId).filter(|&n| {
                    matches!(topo.kind(n), NodeKind::Switch { level } if level == top)
                        && !avoided(n)
                })
            };
            let n_tops = tops().count() as u64;
            if n_tops == 0 {
                return None;
            }
            root = tops()
                .nth((mix64(group.0 as u64) % n_tops) as usize)
                .expect("pick within the live tops");
            for &m in members {
                // Unique down-path from root to member; among parallel
                // rails pick by (group, member) hash so distinct subgroups
                // spread over rails. Rails into an avoided switch are not
                // candidates — the recovery tree must not touch it.
                let mut at = root;
                while !matches!(topo.kind(at), NodeKind::Host(r) if r == m) {
                    let mut downs = topo
                        .down_toward(at, m)
                        .filter(|&l| !avoided(topo.link(l).dst));
                    let n = downs.clone().count() as u64;
                    if n == 0 {
                        return None; // member only reachable through `avoid`
                    }
                    let pick = mix64((group.0 as u64) << 32 | m.0 as u64) % n;
                    let l = downs.nth(pick as usize).expect("pick within the rails");
                    edges.add(topo, l);
                    at = topo.link(l).dst;
                }
            }
        }
        let (adj_start, adj, tree_nodes, edges) = edges.into_adjacency(topo);

        // Orient the tree: a walk from the root records each node's link
        // toward its parent (used by in-network reduction, which flows
        // *up* the same tree multicast floods down).
        let mut parent_link: Vec<Option<LinkId>> = vec![None; topo.num_nodes()];
        let mut frontier = Vec::with_capacity(tree_nodes.len());
        frontier.push((root, None::<LinkId>));
        while let Some((node, in_link)) = frontier.pop() {
            let back = in_link.map(|l| topo.reverse(l));
            let (lo, hi) = (adj_start[node.idx()], adj_start[node.idx() + 1]);
            for &l in &adj[lo as usize..hi as usize] {
                if Some(l) == back {
                    continue;
                }
                let child = topo.link(l).dst;
                parent_link[child.idx()] = Some(topo.reverse(l));
                frontier.push((child, Some(l)));
            }
        }

        Some(McastTree {
            group,
            members: members.to_vec(),
            is_member,
            adj_start,
            adj,
            tree_nodes,
            edges,
            root,
            parent_link,
        })
    }

    /// The directed tree links at `node` (empty off the tree).
    #[inline]
    fn adjacent(&self, node: NodeId) -> &[LinkId] {
        let (lo, hi) = (self.adj_start[node.idx()], self.adj_start[node.idx() + 1]);
        &self.adj[lo as usize..hi as usize]
    }

    /// Group id.
    pub fn group(&self) -> McastGroupId {
        self.group
    }

    /// Members in attach order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Is `rank` attached?
    #[inline]
    pub fn is_member(&self, rank: Rank) -> bool {
        self.is_member.get(rank.idx()).is_some_and(|&m| m)
    }

    /// Number of undirected tree edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Directed links on which a switch (or entry host) must replicate a
    /// packet that arrived at `node` via `in_link` (`None` when the packet
    /// is injected locally by the node itself).
    ///
    /// Returns a borrowing iterator over the cached adjacency — the fabric
    /// calls this once per packet hop, so no per-hop allocation happens.
    pub fn out_links(
        &self,
        topo: &Topology,
        node: NodeId,
        in_link: Option<LinkId>,
    ) -> impl Iterator<Item = LinkId> + '_ {
        let back = in_link.map(|l| topo.reverse(l));
        self.adjacent(node)
            .iter()
            .copied()
            .filter(move |&l| Some(l) != back)
    }

    /// All tree nodes (for invariant checks).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree_nodes.iter().copied()
    }

    /// Tree root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Directed link from `node` toward its tree parent (`None` at the
    /// root) — the up-direction used by in-network reduction.
    pub fn parent_link(&self, node: NodeId) -> Option<LinkId> {
        self.parent_link[node.idx()]
    }

    /// Directed links from `node` to its tree children (everything in the
    /// tree adjacency except the link toward the parent).
    ///
    /// Like [`McastTree::out_links`], this borrows the cached adjacency
    /// instead of allocating — it sits on the in-network-reduction hot
    /// path, called per contribution per switch.
    pub fn child_links(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        let up = self.parent_link[node.idx()];
        self.adjacent(node)
            .iter()
            .copied()
            .filter(move |&l| Some(l) != up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tests::avoid_sets;
    use mcag_verbs::LinkRate;
    use std::collections::{HashMap, HashSet};

    fn all_ranks(n: u32) -> Vec<Rank> {
        (0..n).map(Rank).collect()
    }

    /// Flood from `entry` and return every (node, arrival link) visited.
    fn flood(topo: &Topology, tree: &McastTree, entry: Rank) -> Vec<(NodeId, LinkId)> {
        let mut seen_links = HashSet::new();
        let mut out = Vec::new();
        let start = topo.host_node(entry);
        let mut frontier = vec![(start, None::<LinkId>)];
        while let Some((node, in_link)) = frontier.pop() {
            for l in tree.out_links(topo, node, in_link) {
                assert!(seen_links.insert(l), "link {l:?} traversed twice in flood");
                let dst = topo.link(l).dst;
                out.push((dst, l));
                frontier.push((dst, Some(l)));
            }
        }
        out
    }

    #[test]
    fn star_tree_spans_all_members() {
        let topo = Topology::single_switch(6, LinkRate::CX3_56G, 100);
        let tree = McastTree::build(&topo, McastGroupId(0), &all_ranks(6));
        assert_eq!(tree.num_edges(), 6); // one edge per host
        let visits = flood(&topo, &tree, Rank(2));
        let hosts: HashSet<Rank> = visits
            .iter()
            .filter_map(|(n, _)| match topo.kind(*n) {
                NodeKind::Host(r) => Some(r),
                _ => None,
            })
            .collect();
        // Every member except the sender receives exactly one copy.
        assert_eq!(hosts.len(), 5);
        assert!(!hosts.contains(&Rank(2)));
    }

    #[test]
    fn ucc_tree_reaches_every_member_once() {
        let topo = Topology::ucc_testbed();
        let members = all_ranks(188);
        let tree = McastTree::build(&topo, McastGroupId(3), &members);
        for entry in [Rank(0), Rank(91), Rank(187)] {
            let visits = flood(&topo, &tree, entry);
            let mut host_hits: HashMap<Rank, usize> = HashMap::new();
            for (n, _) in &visits {
                if let NodeKind::Host(r) = topo.kind(*n) {
                    *host_hits.entry(r).or_default() += 1;
                }
            }
            assert_eq!(host_hits.len(), 187, "entry {entry}");
            for (&r, &hits) in &host_hits {
                assert_eq!(hits, 1, "rank {r} got {hits} copies");
                assert_ne!(r, entry);
            }
        }
    }

    #[test]
    fn tree_edge_count_is_minimal() {
        // A spanning tree over m hosts + s internal switches has exactly
        // (m + s_used - 1) edges; flood visits each edge once, so the edge
        // count bounds the per-broadcast traffic: this *is* bandwidth
        // optimality at the structural level.
        let topo = Topology::ucc_testbed();
        let tree = McastTree::build(&topo, McastGroupId(0), &all_ranks(188));
        let n_nodes = tree.nodes().count();
        assert_eq!(tree.num_edges(), n_nodes - 1, "not a tree");
    }

    #[test]
    fn three_level_tree_spans_pods() {
        let topo = Topology::fat_tree_three_level(2, 2, 2, 2, 2, LinkRate::CX3_56G, 100);
        let tree = McastTree::build(&topo, McastGroupId(1), &all_ranks(8));
        let visits = flood(&topo, &tree, Rank(7));
        let hosts: HashSet<_> = visits
            .iter()
            .filter_map(|(n, _)| match topo.kind(*n) {
                NodeKind::Host(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), 7);
    }

    #[test]
    fn distinct_groups_use_distinct_roots() {
        let topo = Topology::ucc_testbed();
        let members = all_ranks(188);
        let trees: Vec<_> = (0..4)
            .map(|g| McastTree::build(&topo, McastGroupId(g), &members))
            .collect();
        // Not all four subgroup trees should share an identical edge set —
        // the whole point of subgroup replication is spreading load.
        let edge_sets: HashSet<Vec<usize>> = trees
            .iter()
            .map(|t| {
                let mut e: Vec<usize> = t
                    .adj
                    .iter()
                    .map(|l| l.idx().min(topo.reverse(*l).idx()))
                    .collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect();
        assert!(edge_sets.len() > 1, "all subgroup trees identical");
    }

    #[test]
    fn partial_membership_tree() {
        let topo = Topology::ucc_testbed();
        let members: Vec<Rank> = (0..188).step_by(4).map(Rank).collect();
        let tree = McastTree::build(&topo, McastGroupId(9), &members);
        let visits = flood(&topo, &tree, members[0]);
        let hosts: HashSet<_> = visits
            .iter()
            .filter_map(|(n, _)| match topo.kind(*n) {
                NodeKind::Host(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), members.len() - 1);
        for h in &hosts {
            assert!(tree.is_member(*h), "non-member {h} received traffic");
        }
    }

    #[test]
    fn avoiding_empty_matches_build_exactly() {
        let topo = Topology::ucc_testbed();
        let members = all_ranks(188);
        for g in 0..4 {
            let a = McastTree::build(&topo, McastGroupId(g), &members);
            let b = McastTree::build_avoiding(&topo, McastGroupId(g), &members, &[]).unwrap();
            assert_eq!(a.root(), b.root());
            assert_eq!(a, b, "group {g}: avoid=[] must pick the same tree");
        }
    }

    #[test]
    fn rebuild_routes_around_a_dead_spine() {
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let members = all_ranks(8);
        let orig = McastTree::build(&topo, McastGroupId(0), &members);
        let dead = orig.root(); // kill the spine the SM rooted the group at
        let tree = McastTree::build_avoiding(&topo, McastGroupId(0), &members, &[dead])
            .expect("other spine is alive");
        assert_ne!(tree.root(), dead);
        assert!(tree.nodes().all(|n| n != dead), "tree touches dead switch");
        // Still a spanning tree reaching every other member once.
        let visits = flood(&topo, &tree, Rank(0));
        let hosts: HashSet<_> = visits
            .iter()
            .filter_map(|(n, _)| match topo.kind(*n) {
                NodeKind::Host(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), 7);
    }

    #[test]
    fn rebuild_fails_when_no_route_remains() {
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let members = all_ranks(8);
        let spines = topo.switches_at_level(topo.top_level());
        assert!(
            McastTree::build_avoiding(&topo, McastGroupId(0), &members, &spines).is_none(),
            "no live spine, rebuild must refuse"
        );
        // A dead leaf strands its hosts: members under it are unreachable.
        let leaf = topo.switches_at_level(1)[0];
        assert!(McastTree::build_avoiding(&topo, McastGroupId(0), &members, &[leaf]).is_none());
    }

    #[test]
    #[should_panic(expected = "≥ 2 members")]
    fn tiny_group_rejected() {
        let topo = Topology::single_switch(4, LinkRate::CX3_56G, 100);
        McastTree::build(&topo, McastGroupId(0), &[Rank(0)]);
    }

    #[test]
    fn orientation_covers_all_nodes() {
        let topo = Topology::ucc_testbed();
        let tree = McastTree::build(&topo, McastGroupId(2), &all_ranks(188));
        let root = tree.root();
        assert!(tree.parent_link(root).is_none());
        // Every non-root tree node has a parent link pointing along a
        // tree edge, and following parents reaches the root.
        for n in tree.nodes() {
            if n == root {
                continue;
            }
            let mut at = n;
            let mut hops = 0;
            while at != root {
                let l = tree.parent_link(at).expect("orphan tree node");
                assert_eq!(topo.link(l).src, at);
                at = topo.link(l).dst;
                hops += 1;
                assert!(hops < 10, "orientation loop");
            }
        }
    }

    #[test]
    fn children_partition_tree_degree() {
        let topo = Topology::single_switch(5, LinkRate::CX3_56G, 100);
        let tree = McastTree::build(&topo, McastGroupId(0), &all_ranks(5));
        let sw = tree.root(); // single switch is the root
        assert_eq!(tree.child_links(sw).count(), 5);
        for r in 0..5 {
            let h = topo.host_node(Rank(r));
            assert_eq!(tree.child_links(h).count(), 0, "hosts are leaves");
            assert!(tree.parent_link(h).is_some());
        }
    }

    /// The tree build as it was while every node kept its own adjacency
    /// vector and edges were deduplicated in a `HashSet` of node pairs:
    /// `(root, per-node adjacency, first-touch order, edges, parent
    /// links)`, or `None` where no tree avoids `avoid`.
    #[allow(clippy::type_complexity)]
    fn reference_build(
        topo: &Topology,
        group: McastGroupId,
        members: &[Rank],
        avoid: &[NodeId],
    ) -> Option<(
        NodeId,
        Vec<Vec<LinkId>>,
        Vec<NodeId>,
        usize,
        Vec<Option<LinkId>>,
    )> {
        let avoided = |n: NodeId| avoid.contains(&n);
        let mut adj: Vec<Vec<LinkId>> = vec![Vec::new(); topo.num_nodes()];
        let mut tree_nodes = Vec::new();
        let mut undirected = HashSet::new();
        let mut add_edge = |l: LinkId, adj: &mut Vec<Vec<LinkId>>, tree_nodes: &mut Vec<NodeId>| {
            let k = topo.link(l);
            if !undirected.insert((k.src.min(k.dst), k.src.max(k.dst))) {
                return false;
            }
            for n in [k.src, k.dst] {
                if adj[n.idx()].is_empty() {
                    tree_nodes.push(n);
                }
            }
            adj[k.src.idx()].push(l);
            adj[k.dst.idx()].push(topo.reverse(l));
            true
        };
        let mut edges = 0;
        let root;
        if topo.top_level() == 0 {
            root = topo.host_node(members[0]);
            add_edge(topo.uplinks(root)[0], &mut adj, &mut tree_nodes);
            edges += 1;
        } else {
            let tops: Vec<NodeId> = topo
                .switches_at_level(topo.top_level())
                .into_iter()
                .filter(|&s| !avoided(s))
                .collect();
            if tops.is_empty() {
                return None;
            }
            root = tops[(mix64(group.0 as u64) % tops.len() as u64) as usize];
            for &m in members {
                let mut at = root;
                while !matches!(topo.kind(at), NodeKind::Host(r) if r == m) {
                    let downs: Vec<LinkId> = topo
                        .down_toward(at, m)
                        .filter(|&l| !avoided(topo.link(l).dst))
                        .collect();
                    if downs.is_empty() {
                        return None;
                    }
                    let l = downs[(mix64((group.0 as u64) << 32 | m.0 as u64) % downs.len() as u64)
                        as usize];
                    if add_edge(l, &mut adj, &mut tree_nodes) {
                        edges += 1;
                    }
                    at = topo.link(l).dst;
                }
            }
        }
        let mut parent_link = vec![None; topo.num_nodes()];
        let mut frontier = vec![(root, None::<LinkId>)];
        while let Some((node, in_link)) = frontier.pop() {
            let back = in_link.map(|l| topo.reverse(l));
            for &l in &adj[node.idx()] {
                if Some(l) != back {
                    parent_link[topo.link(l).dst.idx()] = Some(topo.reverse(l));
                    frontier.push((topo.link(l).dst, Some(l)));
                }
            }
        }
        Some((root, adj, tree_nodes, edges, parent_link))
    }

    #[test]
    fn flat_adjacency_builds_the_reference_trees() {
        let rate = LinkRate::CX3_56G;
        for topo in [
            Topology::back_to_back(rate, 100),
            Topology::single_switch(6, rate, 100),
            Topology::fat_tree_two_level(8, 2, 2, 1, rate, 100),
            Topology::fat_tree_two_level(10, 3, 2, 2, rate, 100),
            Topology::fat_tree_three_level(2, 2, 2, 2, 2, rate, 100),
            Topology::ucc_testbed(),
        ] {
            let p = topo.num_hosts() as u32;
            let memberships: [Vec<Rank>; 3] = [
                all_ranks(p),
                (0..p)
                    .filter(|&r| r % 3 == 0 || r == p - 1)
                    .map(Rank)
                    .collect(),
                (0..p).rev().step_by(2).map(Rank).collect(),
            ];
            let avoids = if topo.num_switches() > 6 {
                vec![
                    Vec::new(),
                    vec![topo.switches_at_level(topo.top_level())[1]],
                ]
            } else {
                avoid_sets(&topo)
            };
            for members in memberships.iter().filter(|m| m.len() >= 2) {
                for avoid in &avoids {
                    for g in 0..5 {
                        let group = McastGroupId(g);
                        let got = McastTree::build_avoiding(&topo, group, members, avoid);
                        let want = reference_build(&topo, group, members, avoid);
                        let got = got.map(|t| {
                            let adj = (0..topo.num_nodes() as u32)
                                .map(|n| t.adjacent(NodeId(n)).to_vec())
                                .collect();
                            (t.root, adj, t.tree_nodes, t.edges, t.parent_link)
                        });
                        assert_eq!(got, want, "{} group {g} avoiding {avoid:?}", topo.name());
                    }
                }
            }
        }
    }
}
