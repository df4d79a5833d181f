//! Network topologies: hosts, switches, directed links.
//!
//! All builders produce *folded-Clos / fat-tree* shapes, where every
//! switch's downstream hosts form a contiguous rank interval. That
//! property makes down-routing trivial (descend into the child whose
//! interval contains the destination) and is exactly how the deterministic
//! up/down routing of InfiniBand subnet managers behaves on these fabrics.
//!
//! Physical cables are full-duplex; we model them as two directed links so
//! that per-direction serialization and per-port counters fall out
//! naturally (a switch "port" in Fig. 12 terms is one directed link's
//! endpoint).
//!
//! A topology never changes once built, so whatever is a function of it
//! alone is computed once: deterministic unicast routes and multicast
//! spanning trees live in a memo that every clone of the topology (and
//! every fabric over an `Arc` of it) reads through.

use crate::hash::{hash_one, FastMap};
use crate::mcast::McastTree;
use crate::routing;
use mcag_verbs::{LinkRate, McastGroupId, Rank};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Index of a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a *directed* link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// Node id as index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Link id as index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A compute host (NIC endpoint) owning one rank.
    Host(Rank),
    /// A switch at the given level: 1 = leaf/ToR, 2 = aggregation/spine,
    /// 3 = core.
    Switch {
        /// Tree level; hosts sit at level 0.
        level: u8,
    },
}

/// A directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate.
    pub rate: LinkRate,
    /// Propagation delay in nanoseconds.
    pub prop_delay_ns: u64,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    kind: NodeKind,
    /// Contiguous interval of ranks reachable strictly below this node.
    /// For hosts this is `[rank, rank+1)`.
    host_range: Range<u32>,
    /// The directed links leaving this node are
    /// `Topology::adj[adj_start..adj_end]`: first the ones toward a
    /// higher level (`n_up` of them), then the ones toward a lower level.
    adj_start: u32,
    n_up: u32,
    adj_end: u32,
}

/// An immutable network topology.
///
/// Its deterministic unicast routes and its multicast trees are pure
/// functions of it, so each is computed the first time a fabric asks and
/// shared from then on by every clone and by every fabric built over it
/// — a runtime that builds one fabric per batch on one `Arc<Topology>`
/// routes each pair and builds each tree once, as a subnet manager
/// programs a group once for every collective that reuses it.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
    /// Every node's outgoing links, node by node (see `NodeInfo`).
    adj: Vec<LinkId>,
    host_of_rank: Vec<NodeId>,
    /// Highest switch level present, fixed when the builder finishes.
    top_level: u8,
    /// Routes and trees derived so far, shared by every clone.
    derived: Arc<Derived>,
}

/// The memo behind [`Topology`]: every value is a function of the
/// immutable topology and its key alone, so a hit returns exactly what a
/// fresh computation would. Values are built outside the locks, so a
/// build that panics poisons neither; two threads racing on one key
/// build equal values, and either is kept.
///
/// Both maps hash with the fixed multiply-shift hasher of
/// [`crate::hash`], and both fill lazily: routes are kept only for the
/// pairs some fabric sent a message between, never as an eager
/// `P × P` table, which would outweigh everything else a 188-rank
/// Allgather holds.
#[derive(Default)]
struct Derived {
    /// Deterministic route per rank pair, keyed `src << 32 | dst`.
    routes: Mutex<FastMap<u64, Path>>,
    /// Multicast trees by the fingerprint of their key; a hit compares
    /// the full key, so two keys sharing a fingerprint cost the later
    /// one a rebuild, never a wrong tree.
    trees: Mutex<FastMap<u64, TreeEntry>>,
}

/// A shared route: the directed links from source NIC to destination.
type Path = Arc<[LinkId]>;

/// One memoized [`McastTree::build_avoiding`] call: its key and result.
/// A built tree carries its group and members, so only a failed build
/// (no tree avoids the switches) stores them beside it.
enum TreeEntry {
    Built {
        avoid: Box<[NodeId]>,
        tree: Arc<McastTree>,
    },
    Failed {
        group: McastGroupId,
        members: Box<[Rank]>,
        avoid: Box<[NodeId]>,
    },
}

impl TreeEntry {
    /// This entry's result, if it was computed for exactly this key.
    fn answer(
        &self,
        group: McastGroupId,
        members: &[Rank],
        avoid: &[NodeId],
    ) -> Option<Option<Arc<McastTree>>> {
        match self {
            TreeEntry::Built { avoid: a, tree } => {
                (tree.group() == group && tree.members() == members && **a == *avoid)
                    .then(|| Some(Arc::clone(tree)))
            }
            TreeEntry::Failed {
                group: g,
                members: m,
                avoid: a,
            } => (*g == group && **m == *members && **a == *avoid).then_some(None),
        }
    }
}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Derived")
            .field("routes", &self.routes.lock().unwrap().len())
            .field("trees", &self.trees.lock().unwrap().len())
            .finish()
    }
}

impl Topology {
    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of hosts (== number of ranks).
    pub fn num_hosts(&self) -> usize {
        self.host_of_rank.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Switch { .. }))
            .count()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn host_node(&self, rank: Rank) -> NodeId {
        self.host_of_rank[rank.idx()]
    }

    /// Kind of a node.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.idx()].kind
    }

    /// Level of a node (0 for hosts).
    #[inline]
    pub fn level(&self, n: NodeId) -> u8 {
        match self.nodes[n.idx()].kind {
            NodeKind::Host(_) => 0,
            NodeKind::Switch { level } => level,
        }
    }

    /// A directed link by id.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.idx()]
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Directed uplinks of a node.
    #[inline]
    pub fn uplinks(&self, n: NodeId) -> &[LinkId] {
        let info = &self.nodes[n.idx()];
        &self.adj[info.adj_start as usize..(info.adj_start + info.n_up) as usize]
    }

    /// Directed downlinks of a node.
    #[inline]
    pub fn downlinks(&self, n: NodeId) -> &[LinkId] {
        let info = &self.nodes[n.idx()];
        &self.adj[(info.adj_start + info.n_up) as usize..info.adj_end as usize]
    }

    /// The contiguous rank interval reachable below `n`.
    #[inline]
    pub fn host_range(&self, n: NodeId) -> Range<u32> {
        self.nodes[n.idx()].host_range.clone()
    }

    /// True if `rank` is reachable going strictly down from `n`.
    #[inline]
    pub fn subtree_contains(&self, n: NodeId, rank: Rank) -> bool {
        self.nodes[n.idx()].host_range.contains(&rank.0)
    }

    /// The downlinks of `n` that lead toward `rank` (parallel links
    /// included). Empty if `rank` is not below `n`.
    pub fn down_toward(&self, n: NodeId, rank: Rank) -> impl Iterator<Item = LinkId> + Clone + '_ {
        self.downlinks(n)
            .iter()
            .copied()
            .filter(move |&l| self.subtree_contains_or_is(self.links[l.idx()].dst, rank))
    }

    fn subtree_contains_or_is(&self, n: NodeId, rank: Rank) -> bool {
        match self.nodes[n.idx()].kind {
            NodeKind::Host(r) => r == rank,
            NodeKind::Switch { .. } => self.subtree_contains(n, rank),
        }
    }

    /// The directed link running opposite to `l` over the same cable.
    ///
    /// The builder always creates cables as adjacent (up, down) directed
    /// pairs, so the reverse is `l ^ 1`; the debug assertion guards the
    /// invariant.
    #[inline]
    pub fn reverse(&self, l: LinkId) -> LinkId {
        let r = LinkId(l.0 ^ 1);
        debug_assert_eq!(self.links[r.idx()].src, self.links[l.idx()].dst);
        debug_assert_eq!(self.links[r.idx()].dst, self.links[l.idx()].src);
        r
    }

    /// All switches at a given level.
    pub fn switches_at_level(&self, level: u8) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| matches!(self.kind(n), NodeKind::Switch { level: l } if l == level))
            .collect()
    }

    /// The highest switch level present (0 for a switchless topology).
    #[inline]
    pub fn top_level(&self) -> u8 {
        self.top_level
    }

    /// The deterministic route from `src`'s NIC to `dst`'s:
    /// [`routing::route`], computed once per pair.
    pub(crate) fn route(&self, src: Rank, dst: Rank) -> Path {
        let key = (src.0 as u64) << 32 | dst.0 as u64;
        if let Some(p) = self.derived.routes.lock().unwrap().get(&key) {
            return Arc::clone(p);
        }
        // Walk into a stack buffer, so the shared `Arc` is the route's
        // one allocation.
        let mut buf = [LinkId(0); routing::MAX_HOPS];
        let mut len = 0;
        routing::walk(self, src, dst, |l| {
            buf[len] = l;
            len += 1;
        });
        let p: Path = Arc::from(&buf[..len]);
        Arc::clone(self.derived.routes.lock().unwrap().entry(key).or_insert(p))
    }

    /// [`McastTree::build_avoiding`] for `members` of `group` around the
    /// switches in `avoid`, computed once per distinct key.
    pub(crate) fn mcast_tree(
        &self,
        group: McastGroupId,
        members: &[Rank],
        avoid: &[NodeId],
    ) -> Option<Arc<McastTree>> {
        let fp = hash_one(&(group, members, avoid));
        if let Some(e) = self.derived.trees.lock().unwrap().get(&fp) {
            if let Some(answer) = e.answer(group, members, avoid) {
                return answer;
            }
        }
        let tree = McastTree::build_avoiding(self, group, members, avoid).map(Arc::new);
        let entry = match &tree {
            Some(tree) => TreeEntry::Built {
                avoid: avoid.into(),
                tree: Arc::clone(tree),
            },
            None => TreeEntry::Failed {
                group,
                members: members.into(),
                avoid: avoid.into(),
            },
        };
        self.derived.trees.lock().unwrap().insert(fp, entry);
        tree
    }

    // ----------------------------------------------------------------- //
    //                              Builders                             //
    // ----------------------------------------------------------------- //

    /// Two hosts wired NIC-to-NIC — the DPA testbed shape ("two servers
    /// connected back-to-back with BlueField 3").
    pub fn back_to_back(rate: LinkRate, prop_delay_ns: u64) -> Topology {
        let mut b = Builder::new("back-to-back");
        let h0 = b.add_host(Rank(0));
        let h1 = b.add_host(Rank(1));
        // With no switch, each direction of the cable is the "uplink" of
        // its transmitting host; routing special-cases the single hop.
        b.connect_peers(h0, h1, rate, prop_delay_ns);
        b.finish(vec![h0, h1])
    }

    /// `n` hosts on one switch (a single crossbar — useful for unit tests
    /// and small protocol studies without multi-stage effects).
    pub fn single_switch(n: usize, rate: LinkRate, prop_delay_ns: u64) -> Topology {
        assert!(n >= 2, "need at least two hosts");
        let mut b = Builder::new(format!("star-{n}"));
        let sw = b.add_switch(1, 0..n as u32);
        let mut hosts = Vec::with_capacity(n);
        for r in 0..n as u32 {
            let h = b.add_host(Rank(r));
            b.connect(h, sw, rate, prop_delay_ns);
            hosts.push(h);
        }
        b.finish(hosts)
    }

    /// A two-level leaf/spine fat-tree.
    ///
    /// * `hosts` total ranks, distributed over `leaves` leaf switches in
    ///   contiguous blocks (`ceil(hosts/leaves)` per leaf, last leaf short).
    /// * Every leaf connects to every spine with `rails` parallel cables.
    pub fn fat_tree_two_level(
        hosts: usize,
        leaves: usize,
        spines: usize,
        rails: usize,
        rate: LinkRate,
        prop_delay_ns: u64,
    ) -> Topology {
        assert!(hosts >= 2 && leaves >= 1 && spines >= 1 && rails >= 1);
        let per_leaf = hosts.div_ceil(leaves);
        let mut b = Builder::new(format!("fat-tree-2l-{hosts}h-{leaves}l-{spines}s"));
        let mut host_nodes = Vec::with_capacity(hosts);
        let mut leaf_nodes = Vec::with_capacity(leaves);
        for li in 0..leaves {
            let lo = (li * per_leaf).min(hosts) as u32;
            let hi = ((li + 1) * per_leaf).min(hosts) as u32;
            let leaf = b.add_switch(1, lo..hi);
            leaf_nodes.push(leaf);
            for r in lo..hi {
                let h = b.add_host(Rank(r));
                b.connect(h, leaf, rate, prop_delay_ns);
                host_nodes.push(h);
            }
        }
        for si in 0..spines {
            let spine = b.add_switch(2, 0..hosts as u32);
            for &leaf in &leaf_nodes {
                for _rail in 0..rails {
                    b.connect(leaf, spine, rate, prop_delay_ns);
                }
            }
            let _ = si;
        }
        b.finish(host_nodes)
    }

    /// The 188-node UCC testbed: 18 SX6036 switches arranged as 12 leaves
    /// (16 host ports each) and 6 spines with 3 parallel rails per
    /// leaf-spine pair (12 × 16 = 192 ports, 188 populated; leaf uses
    /// 16 down + 18 up = 34 of 36 ports), ConnectX-3 56 Gbit/s links.
    pub fn ucc_testbed() -> Topology {
        Topology::fat_tree_two_level(188, 12, 6, 3, LinkRate::CX3_56G, 300)
    }

    /// A three-level fat-tree: `pods` pods, each with `leaves_per_pod`
    /// leaf switches of `hosts_per_leaf` hosts and `aggs_per_pod`
    /// aggregation switches (full bipartite leaf↔agg inside the pod);
    /// `cores` core switches, core `c` connecting to agg `c % aggs_per_pod`
    /// of every pod (the standard fat-tree core wiring).
    #[allow(clippy::too_many_arguments)]
    pub fn fat_tree_three_level(
        pods: usize,
        leaves_per_pod: usize,
        hosts_per_leaf: usize,
        aggs_per_pod: usize,
        cores: usize,
        rate: LinkRate,
        prop_delay_ns: u64,
    ) -> Topology {
        assert!(pods >= 1 && leaves_per_pod >= 1 && hosts_per_leaf >= 1);
        assert!(aggs_per_pod >= 1 && cores >= 1);
        assert!(
            cores.is_multiple_of(aggs_per_pod),
            "cores must distribute evenly over aggs ({cores} % {aggs_per_pod} != 0)"
        );
        let hosts_per_pod = leaves_per_pod * hosts_per_leaf;
        let total_hosts = pods * hosts_per_pod;
        let mut b = Builder::new(format!(
            "fat-tree-3l-{total_hosts}h-{pods}p-{leaves_per_pod}l-{aggs_per_pod}a-{cores}c"
        ));
        let mut host_nodes = Vec::with_capacity(total_hosts);
        let mut agg_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(pods);
        for p in 0..pods {
            let pod_lo = (p * hosts_per_pod) as u32;
            let pod_hi = ((p + 1) * hosts_per_pod) as u32;
            let mut leaves = Vec::with_capacity(leaves_per_pod);
            for li in 0..leaves_per_pod {
                let lo = pod_lo + (li * hosts_per_leaf) as u32;
                let hi = lo + hosts_per_leaf as u32;
                let leaf = b.add_switch(1, lo..hi);
                leaves.push(leaf);
                for r in lo..hi {
                    let h = b.add_host(Rank(r));
                    b.connect(h, leaf, rate, prop_delay_ns);
                    host_nodes.push(h);
                }
            }
            let mut aggs = Vec::with_capacity(aggs_per_pod);
            for _a in 0..aggs_per_pod {
                let agg = b.add_switch(2, pod_lo..pod_hi);
                for &leaf in &leaves {
                    b.connect(leaf, agg, rate, prop_delay_ns);
                }
                aggs.push(agg);
            }
            agg_nodes.push(aggs);
        }
        for c in 0..cores {
            let core = b.add_switch(3, 0..total_hosts as u32);
            let a = c % aggs_per_pod;
            for pod_aggs in &agg_nodes {
                b.connect(pod_aggs[a], core, rate, prop_delay_ns);
            }
        }
        b.finish(host_nodes)
    }

    /// The 1024-node radix-32 cluster modeled in Fig. 2: 4 pods × 16
    /// leaves × 16 hosts, 16 aggs per pod, 64 cores (each agg has 4 core
    /// uplinks; leaf switches use 16 down + 16 up = radix 32).
    pub fn fig2_cluster(rate: LinkRate) -> Topology {
        Topology::fat_tree_three_level(4, 16, 16, 16, 64, rate, 300)
    }

    /// A 512-node radix-16 three-level fat-tree (8 pods × 8 leaves × 8
    /// hosts, 8 aggs per pod, 16 cores) — the post-optimization
    /// simulator-throughput scenario of `BENCH_simcore.json`, 2.7× the
    /// paper's 188-node testbed.
    pub fn fat_tree_512(rate: LinkRate) -> Topology {
        Topology::fat_tree_three_level(8, 8, 8, 8, 16, rate, 300)
    }
}

struct Builder {
    name: String,
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
    /// Per link: true if it is an uplink of its source node, false if a
    /// downlink. `finish` lays every node's lists out from this.
    up: Vec<bool>,
}

impl Builder {
    fn new(name: impl Into<String>) -> Builder {
        Builder {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            up: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind, host_range: Range<u32>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind,
            host_range,
            adj_start: 0,
            n_up: 0,
            adj_end: 0,
        });
        id
    }

    fn add_host(&mut self, rank: Rank) -> NodeId {
        self.add_node(NodeKind::Host(rank), rank.0..rank.0 + 1)
    }

    fn add_switch(&mut self, level: u8, host_range: Range<u32>) -> NodeId {
        self.add_node(NodeKind::Switch { level }, host_range)
    }

    fn add_link(&mut self, src: NodeId, dst: NodeId, rate: LinkRate, prop_delay_ns: u64, up: bool) {
        self.links.push(Link {
            src,
            dst,
            rate,
            prop_delay_ns,
        });
        self.up.push(up);
    }

    /// Add a full-duplex cable between `lo` (lower level) and `hi`
    /// (higher level) as two directed links.
    fn connect(&mut self, lo: NodeId, hi: NodeId, rate: LinkRate, prop_delay_ns: u64) {
        self.add_link(lo, hi, rate, prop_delay_ns, true);
        self.add_link(hi, lo, rate, prop_delay_ns, false);
    }

    /// Wire two hosts directly (back-to-back): both directed links are
    /// registered as the *uplink* of their transmitting host.
    fn connect_peers(&mut self, a: NodeId, b: NodeId, rate: LinkRate, prop_delay_ns: u64) {
        self.add_link(a, b, rate, prop_delay_ns, true);
        self.add_link(b, a, rate, prop_delay_ns, true);
    }

    fn finish(mut self, host_nodes: Vec<NodeId>) -> Topology {
        let mut host_of_rank: Vec<(Rank, NodeId)> = host_nodes
            .into_iter()
            .map(|n| match self.nodes[n.idx()].kind {
                NodeKind::Host(r) => (r, n),
                NodeKind::Switch { .. } => unreachable!("host list contains a switch"),
            })
            .collect();
        host_of_rank.sort_by_key(|(r, _)| *r);
        for (i, (r, _)) in host_of_rank.iter().enumerate() {
            assert_eq!(r.0 as usize, i, "ranks must be dense 0..P");
        }
        let top_level = self
            .nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Host(_) => 0,
                NodeKind::Switch { level } => level,
            })
            .max()
            .unwrap_or(0);
        // Lay the outgoing links out node by node — uplinks, then
        // downlinks, each in the order they were wired.
        for (l, &up) in self.links.iter().zip(&self.up) {
            let info = &mut self.nodes[l.src.idx()];
            info.adj_end += 1;
            info.n_up += up as u32;
        }
        let mut next = 0;
        for info in &mut self.nodes {
            info.adj_start = next;
            next += info.adj_end;
            info.adj_end = next;
        }
        let mut adj = vec![LinkId(0); self.links.len()];
        // Per node: the next free uplink and downlink position.
        let mut cursor: Vec<(u32, u32)> = self
            .nodes
            .iter()
            .map(|n| (n.adj_start, n.adj_start + n.n_up))
            .collect();
        for (i, (l, &up)) in self.links.iter().zip(&self.up).enumerate() {
            let c = &mut cursor[l.src.idx()];
            let at = if up { &mut c.0 } else { &mut c.1 };
            adj[*at as usize] = LinkId(i as u32);
            *at += 1;
        }
        Topology {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            adj,
            host_of_rank: host_of_rank.into_iter().map(|(_, n)| n).collect(),
            top_level,
            derived: Arc::default(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// No switch, every switch alone and, on small fabrics, every pair
    /// of switches.
    pub(crate) fn avoid_sets(topo: &Topology) -> Vec<Vec<NodeId>> {
        let switches: Vec<NodeId> = (1..=topo.top_level())
            .flat_map(|lvl| topo.switches_at_level(lvl))
            .collect();
        let mut sets = vec![Vec::new()];
        for (i, &a) in switches.iter().enumerate() {
            sets.push(vec![a]);
            if switches.len() <= 8 {
                sets.extend(switches[i + 1..].iter().map(|&b| vec![a, b]));
            }
        }
        sets
    }

    /// Every pair's memoized route is the deterministic route, every
    /// memoized tree (over all ranks and over every other rank, around
    /// each of `avoid_sets`) is what a fresh build makes, and a clone of
    /// the topology answers from the same memo.
    fn assert_memo_is_fresh(topo: &Topology) {
        let clone = topo.clone();
        let p = topo.num_hosts() as u32;
        for (s, d) in (0..p).flat_map(|s| (0..p).map(move |d| (Rank(s), Rank(d)))) {
            if s == d {
                continue;
            }
            let memo = topo.route(s, d);
            let fresh = routing::route(topo, s, d);
            assert_eq!(&*memo, &fresh[..], "{} route {s} -> {d}", topo.name());
            assert!(Arc::ptr_eq(&memo, &clone.route(s, d)));
        }
        let all: Vec<Rank> = (0..p).map(Rank).collect();
        let every_other: Vec<Rank> = (0..p).step_by(2).map(Rank).collect();
        for members in [all, every_other].iter().filter(|m| m.len() >= 2) {
            for avoid in avoid_sets(topo) {
                for g in (0..3).map(McastGroupId) {
                    let memo = topo.mcast_tree(g, members, &avoid);
                    let fresh = McastTree::build_avoiding(topo, g, members, &avoid);
                    assert_eq!(
                        memo.as_deref(),
                        fresh.as_ref(),
                        "{} {g:?} avoiding {avoid:?}",
                        topo.name()
                    );
                    match (memo, clone.mcast_tree(g, members, &avoid)) {
                        (Some(a), Some(b)) => assert!(Arc::ptr_eq(&a, &b)),
                        (None, None) => {}
                        _ => panic!("a clone answered differently"),
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The memo returns exactly what routing and tree building
        /// compute — every route and every tree, around dead switches
        /// too — on random stars and two-level fat trees.
        #[test]
        fn memoized_routes_are_the_deterministic_routes(
            star in 2usize..12,
            two_level in (2usize..40, 1usize..5, 1usize..4, 1usize..3),
        ) {
            let (hosts, leaves, spines, rails) = two_level;
            let rate = LinkRate::CX3_56G;
            assert_memo_is_fresh(&Topology::single_switch(star, rate, 100));
            assert_memo_is_fresh(&Topology::fat_tree_two_level(
                hosts,
                leaves.min(hosts),
                spines,
                rails,
                rate,
                100,
            ));
        }
    }

    #[test]
    fn memo_is_fresh_on_every_pair_of_the_benchmark_topologies() {
        let rate = LinkRate::CX3_56G;
        assert_memo_is_fresh(&Topology::single_switch(4, rate, 100));
        assert_memo_is_fresh(&Topology::fat_tree_two_level(8, 2, 2, 1, rate, 100));
        assert_memo_is_fresh(&Topology::ucc_testbed());
    }

    #[test]
    fn flat_adjacency_keeps_wiring_order() {
        let t = Topology::ucc_testbed();
        for n in (0..t.num_nodes() as u32).map(NodeId) {
            let (ups, downs) = (t.uplinks(n), t.downlinks(n));
            assert!(ups.windows(2).all(|w| w[0] < w[1]) && downs.windows(2).all(|w| w[0] < w[1]));
            assert!(ups.iter().chain(downs).all(|&l| t.link(l).src == n));
            assert!(ups.iter().all(|&l| t.level(t.link(l).dst) > t.level(n)));
            assert!(downs.iter().all(|&l| t.level(t.link(l).dst) < t.level(n)));
        }
        let wired: usize = (0..t.num_nodes() as u32)
            .map(|n| t.uplinks(NodeId(n)).len() + t.downlinks(NodeId(n)).len())
            .sum();
        assert_eq!(wired, t.num_links());
    }

    #[test]
    fn back_to_back_shape() {
        let t = Topology::back_to_back(LinkRate::CX7_200G, 100);
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.num_switches(), 0);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    fn star_shape() {
        let t = Topology::single_switch(8, LinkRate::CX3_56G, 100);
        assert_eq!(t.num_hosts(), 8);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.num_links(), 16);
        let sw = t.switches_at_level(1)[0];
        assert_eq!(t.downlinks(sw).len(), 8);
        assert_eq!(t.host_range(sw), 0..8);
    }

    #[test]
    fn ucc_testbed_matches_paper() {
        let t = Topology::ucc_testbed();
        assert_eq!(t.num_hosts(), 188);
        assert_eq!(t.num_switches(), 18, "paper: 18 SX6036 switches");
        assert_eq!(t.switches_at_level(1).len(), 12);
        assert_eq!(t.switches_at_level(2).len(), 6);
        // Leaf port budget must fit a 36-port SX6036.
        for leaf in t.switches_at_level(1) {
            let ports = t.uplinks(leaf).len() + t.downlinks(leaf).len();
            assert!(ports <= 36, "leaf uses {ports} ports");
        }
        for spine in t.switches_at_level(2) {
            let ports = t.uplinks(spine).len() + t.downlinks(spine).len();
            assert!(ports <= 36, "spine uses {ports} ports");
        }
    }

    #[test]
    fn fig2_cluster_shape() {
        let t = Topology::fig2_cluster(LinkRate::NDR_400G);
        assert_eq!(t.num_hosts(), 1024);
        // Radix-32 budget on every switch.
        for lvl in 1..=3 {
            for sw in t.switches_at_level(lvl) {
                let ports = t.uplinks(sw).len() + t.downlinks(sw).len();
                assert!(ports <= 32, "level-{lvl} switch uses {ports} ports");
            }
        }
    }

    #[test]
    fn top_level_is_recorded_per_builder() {
        let rate = LinkRate::CX3_56G;
        assert_eq!(Topology::back_to_back(rate, 100).top_level(), 0);
        assert_eq!(Topology::single_switch(4, rate, 100).top_level(), 1);
        assert_eq!(Topology::ucc_testbed().top_level(), 2);
        assert_eq!(Topology::fat_tree_512(rate).top_level(), 3);
    }

    #[test]
    fn host_ranges_are_consistent() {
        let t = Topology::fat_tree_three_level(2, 2, 3, 2, 2, LinkRate::CX3_56G, 100);
        assert_eq!(t.num_hosts(), 12);
        // Every switch's range equals the union of its children's ranges.
        for lvl in 1..=t.top_level() {
            for sw in t.switches_at_level(lvl) {
                let r = t.host_range(sw);
                let mut covered: Vec<u32> = Vec::new();
                for &dl in t.downlinks(sw) {
                    let child = t.link(dl).dst;
                    covered.extend(t.host_range(child));
                }
                covered.sort_unstable();
                covered.dedup();
                let expect: Vec<u32> = r.collect();
                // Cores cover everything through each pod exactly once.
                assert_eq!(covered, expect, "switch {sw:?} level {lvl}");
            }
        }
    }

    #[test]
    fn down_toward_finds_parallel_rails() {
        let t = Topology::ucc_testbed();
        let spine = t.switches_at_level(2)[0];
        let rails: Vec<LinkId> = t.down_toward(spine, Rank(0)).collect();
        assert_eq!(rails.len(), 3, "3 parallel rails per leaf-spine pair");
        for l in rails {
            let leaf = t.link(l).dst;
            assert!(t.subtree_contains(leaf, Rank(0)));
        }
    }

    #[test]
    fn uneven_host_distribution() {
        let t = Topology::fat_tree_two_level(10, 3, 2, 1, LinkRate::CX3_56G, 100);
        assert_eq!(t.num_hosts(), 10);
        // 4 + 4 + 2 hosts per leaf.
        let sizes: Vec<usize> = t
            .switches_at_level(1)
            .iter()
            .map(|&l| t.host_range(l).len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }
}
