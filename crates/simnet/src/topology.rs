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

use crate::mcast::McastTree;
use crate::routing::{self, RouteMode};
use mcag_verbs::{LinkRate, McastGroupId, Rank};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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
    /// Directed links leaving this node toward a higher level.
    uplinks: Vec<LinkId>,
    /// Directed links leaving this node toward a lower level.
    downlinks: Vec<LinkId>,
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
#[derive(Default)]
struct Derived {
    /// Deterministic route per `(src, dst)` rank pair.
    routes: Mutex<HashMap<(u32, u32), Path>>,
    /// Multicast trees by the fingerprint of their key; a hit compares
    /// the full key, so two keys sharing a fingerprint cost the later
    /// one a rebuild, never a wrong tree.
    trees: Mutex<HashMap<u64, TreeEntry>>,
}

/// A shared route: the directed links from source NIC to destination.
type Path = Arc<[LinkId]>;

/// One memoized [`McastTree::build_avoiding`] call: its key and result
/// (`None` when no tree avoids the switches).
struct TreeEntry {
    group: McastGroupId,
    members: Box<[Rank]>,
    avoid: Box<[NodeId]>,
    tree: Option<Arc<McastTree>>,
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
        &self.nodes[n.idx()].uplinks
    }

    /// Directed downlinks of a node.
    #[inline]
    pub fn downlinks(&self, n: NodeId) -> &[LinkId] {
        &self.nodes[n.idx()].downlinks
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
        self.nodes[n.idx()]
            .downlinks
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
    /// [`routing::route`] in [`RouteMode::Deterministic`] with salt 0,
    /// computed once per pair.
    pub(crate) fn route(&self, src: Rank, dst: Rank) -> Path {
        let key = (src.0, dst.0);
        if let Some(p) = self.derived.routes.lock().unwrap().get(&key) {
            return Arc::clone(p);
        }
        // Deterministic mode never consults the generator.
        let mut unused = StdRng::seed_from_u64(0);
        let p: Path =
            routing::route(self, src, dst, RouteMode::Deterministic, 0, &mut unused).into();
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
        let mut h = DefaultHasher::new();
        (group, members, avoid).hash(&mut h);
        let fp = h.finish();
        if let Some(e) = self.derived.trees.lock().unwrap().get(&fp) {
            if e.group == group && *e.members == *members && *e.avoid == *avoid {
                return e.tree.clone();
            }
        }
        let tree = McastTree::build_avoiding(self, group, members, avoid).map(Arc::new);
        let entry = TreeEntry {
            group,
            members: members.into(),
            avoid: avoid.into(),
            tree: tree.clone(),
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
}

impl Builder {
    fn new(name: impl Into<String>) -> Builder {
        Builder {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    fn add_host(&mut self, rank: Rank) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind: NodeKind::Host(rank),
            host_range: rank.0..rank.0 + 1,
            uplinks: Vec::new(),
            downlinks: Vec::new(),
        });
        id
    }

    fn add_switch(&mut self, level: u8, host_range: Range<u32>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind: NodeKind::Switch { level },
            host_range,
            uplinks: Vec::new(),
            downlinks: Vec::new(),
        });
        id
    }

    /// Add a full-duplex cable between `lo` (lower level) and `hi`
    /// (higher level) as two directed links.
    fn connect(&mut self, lo: NodeId, hi: NodeId, rate: LinkRate, prop_delay_ns: u64) {
        let up = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src: lo,
            dst: hi,
            rate,
            prop_delay_ns,
        });
        let down = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src: hi,
            dst: lo,
            rate,
            prop_delay_ns,
        });
        self.nodes[lo.idx()].uplinks.push(up);
        self.nodes[hi.idx()].downlinks.push(down);
    }

    /// Wire two hosts directly (back-to-back): both directed links are
    /// registered as the *uplink* of their transmitting host.
    fn connect_peers(&mut self, a: NodeId, b: NodeId, rate: LinkRate, prop_delay_ns: u64) {
        let ab = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src: a,
            dst: b,
            rate,
            prop_delay_ns,
        });
        let ba = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src: b,
            dst: a,
            rate,
            prop_delay_ns,
        });
        self.nodes[a.idx()].uplinks.push(ab);
        self.nodes[b.idx()].uplinks.push(ba);
    }

    fn finish(self, host_nodes: Vec<NodeId>) -> Topology {
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
        Topology {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            host_of_rank: host_of_rank.into_iter().map(|(_, n)| n).collect(),
            top_level,
            derived: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every memoized route is the deterministic route, and a clone
        /// of the topology answers from the same memo.
        #[test]
        fn memoized_routes_are_the_deterministic_routes(
            star in 2usize..12,
            two_level in (2usize..40, 1usize..5, 1usize..4, 1usize..3),
        ) {
            let (hosts, leaves, spines, rails) = two_level;
            let rate = LinkRate::CX3_56G;
            for topo in [
                Topology::single_switch(star, rate, 100),
                Topology::fat_tree_two_level(hosts, leaves.min(hosts), spines, rails, rate, 100),
            ] {
                let clone = topo.clone();
                let mut rng = StdRng::seed_from_u64(0);
                let p = topo.num_hosts() as u32;
                for (s, d) in (0..p).flat_map(|s| (0..p).map(move |d| (Rank(s), Rank(d)))) {
                    if s == d {
                        continue;
                    }
                    let memo = topo.route(s, d);
                    let fresh = routing::route(&topo, s, d, RouteMode::Deterministic, 0, &mut rng);
                    prop_assert_eq!(&*memo, &fresh[..]);
                    prop_assert!(Arc::ptr_eq(&memo, &clone.route(s, d)));
                }
            }
        }
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
