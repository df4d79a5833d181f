//! Switches: multicast replication down a group's tree, unicast and
//! descending forwarding, SHARP-style in-network reduction up a
//! reduction tree, and the egress transmission that follows each.
//!
//! A switch replicates a multicast copy to its tree's out-links but the
//! one it came in on, adding the extra branches' references to the
//! packet's slab entry in one write, so a chunk crosses each tree link
//! once. A reduction contribution is absorbed until every child branch
//! with a contributor has reported; the last one goes on up or, at the
//! root, down to the shard's owner. Each `(group, psn)` in progress at a
//! switch holds one entry of that switch's aggregation table
//! ([`AggTable`]) from its first contribution to its last.
//!
//! The invariants the tests pin: a chunk's copies cross each tree link
//! once (`broadcast_traffic_is_bandwidth_optimal`); a finished
//! Reduce-Scatter leaves every aggregation table empty
//! (`inc_reduce_scatter_leaves_nothing_behind`); and a table counts its
//! live entries per switch, records their peak and refuses an entry past
//! `FabricConfig::inc_table_capacity`.

use super::{Body, Ev, Hop, Inner, McastHdr, PktRef, Route};
use crate::hash::FastMap;
use crate::routing;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, NodeKind};
use mcag_trace::{DropCause, TraceEvent};
use mcag_verbs::wire::PacketKind;
use mcag_verbs::{McastGroupId, Rank};

/// Per-hop switch forwarding latency (beyond serialization).
pub(super) const SWITCH_LATENCY_NS: u64 = 200;

/// The switches' aggregation tables, the bounded SHARP SRAM: the
/// contributions seen per `(group, psn, switch)`, in a map under the
/// fixed multiply-shift hash of [`crate::hash`], and each switch's live
/// entries.
#[derive(Default)]
pub(super) struct AggTable {
    arrivals: FastMap<(u32, u32, NodeId), u32>,
    /// Live entries (`(group, psn)` states currently held) per switch,
    /// indexed by node id; empty until the first contribution reaches a
    /// switch.
    live: Vec<u32>,
    /// High-water mark of any single switch's live entries over the run
    /// (kept even when unbounded).
    peak: usize,
}

impl AggTable {
    /// Count a contribution to `(group, psn)` reaching switch `key.2`, of
    /// a topology of `nodes` nodes, and tell whether it is the last of the
    /// `expected`. The first claims an entry of that switch's table,
    /// charged like the MGID table on group creation — past `cap` live
    /// entries it panics — and the last frees it.
    fn arrive(
        &mut self,
        key: (u32, u32, NodeId),
        expected: u32,
        nodes: usize,
        cap: Option<usize>,
    ) -> bool {
        let node = key.2;
        let cnt = self.arrivals.entry(key).or_insert(0);
        *cnt += 1;
        let cnt = *cnt;
        if cnt == 1 {
            if self.live.is_empty() {
                self.live = vec![0; nodes];
            }
            let live = &mut self.live[node.idx()];
            *live += 1;
            let live = *live as usize;
            if let Some(cap) = cap {
                assert!(
                    live <= cap,
                    "switch aggregation table exhausted ({cap} live reduction states at {node:?})"
                );
            }
            self.peak = self.peak.max(live);
        }
        if cnt < expected {
            return false;
        }
        self.arrivals.remove(&key);
        self.live[node.idx()] -= 1;
        true
    }

    /// The most live entries any one switch has held.
    pub(super) fn peak(&self) -> usize {
        self.peak
    }

    /// True when no switch holds an entry.
    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.live.iter().all(|&live| live == 0)
    }
}

impl<M: 'static> Inner<M> {
    /// Multicast at a switch: collect egress links into the reusable
    /// scratch buffer — switch forwarding runs once per packet hop, so a
    /// fresh Vec here would be a per-packet allocation on the replication
    /// hot path.
    pub(super) fn replicate(&mut self, node: NodeId, in_link: LinkId, pr: PktRef, h: &McastHdr) {
        let now = self.q.now();
        let mut outs = std::mem::take(&mut self.scratch_links);
        outs.clear();
        outs.extend(self.trees[h.group.0 as usize].out_links(&self.topo, node, Some(in_link)));
        // Replicate: the extra branches' references are added to the
        // slab entry in one write, and each branch is a handle copy — the
        // last one rides the original reference.
        match outs.len() {
            0 => self.release_pkt(pr), // no egress (degenerate tree)
            k => {
                self.pkt_slab.get_mut(pr.0).refs += k as u32 - 1;
                for &out in &outs {
                    self.transmit(out, pr, now, h.hop);
                }
            }
        }
        self.scratch_links = outs;
    }

    /// Forward a unicast, descending or reduction packet at a switch.
    pub(super) fn forward_at_switch(&mut self, node: NodeId, pr: PktRef) {
        let now = self.q.now();
        // One slab lookup: copy the small route summary out (every
        // variant's data is `Copy`), then branch.
        enum Fwd {
            Unicast(LinkId),
            Down(Rank, u8, u32),
            Inc(McastGroupId, Rank, u32),
        }
        let p = self.pkt(pr);
        let fwd = match (&p.route, p.body) {
            (Route::Unicast { path, hop }, _) => {
                debug_assert!(
                    (*hop as usize) < path.len(),
                    "unicast route exhausted at a switch"
                );
                Fwd::Unicast(path[*hop as usize])
            }
            (Route::Down { owner, hop }, Body::Chunk { psn, .. }) => Fwd::Down(*owner, *hop, psn),
            (Route::Down { .. }, _) => unreachable!("reduced shard without chunk payload"),
            (Route::Mcast { .. }, _) => unreachable!("multicast copies are replicated"),
            (Route::IncUp { group, owner }, Body::Chunk { psn, .. }) => {
                Fwd::Inc(*group, *owner, psn)
            }
            (Route::IncUp { .. }, _) => unreachable!("INC packet without chunk payload"),
        };
        match fwd {
            Fwd::Inc(group, owner, psn) => self.reduce_at_switch(node, pr, group, owner, psn),
            // Unicast: exactly one egress — no replication.
            Fwd::Unicast(out) => self.transmit_hop(out, pr, now),
            Fwd::Down(owner, hop, psn) => {
                let out = routing::descend_link(&self.topo, node, owner, psn as u64, hop as u64);
                self.transmit_hop(out, pr, now);
            }
        }
    }

    /// SHARP-style switch behaviour: absorb contributions for
    /// `(group, psn)` until every child branch with contributors has
    /// reported, then forward one merged packet toward the root — or,
    /// at the root, route the reduced shard down to its owner.
    fn reduce_at_switch(
        &mut self,
        node: NodeId,
        pr: PktRef,
        group: McastGroupId,
        owner: Rank,
        psn: u32,
    ) {
        let now = self.q.now();
        let tree = &self.trees[group.0 as usize];
        // Expected = child branches containing at least one contributor
        // (every rank except the shard owner contributes).
        let mut expected = 0u32;
        for cl in tree.child_links(node) {
            let child = self.topo.link(cl).dst;
            let contributors = match self.topo.kind(child) {
                NodeKind::Host(r) => (r != owner) as u32,
                NodeKind::Switch { .. } => {
                    let range = self.topo.host_range(child);
                    range.len() as u32 - range.contains(&owner.0) as u32
                }
            };
            expected += (contributors > 0) as u32;
        }
        debug_assert!(expected > 0, "reduction node with no contributors");
        let (nodes, cap) = (self.topo.num_nodes(), self.cfg.inc_table_capacity);
        if !self.agg.arrive((group.0, psn, node), expected, nodes, cap) {
            // Absorbed into the partial reduction.
            self.release_pkt(pr);
            return;
        }
        match self.trees[group.0 as usize].parent_link(node) {
            // One merged packet continues toward the root.
            Some(up) => self.transmit_hop(up, pr, now),
            None => {
                // Root: retarget the packet in place (single owner — INC
                // contributions are never replicated) and descend to the
                // owner's QP, which `dst_qp` already names.
                let first = routing::descend_link(&self.topo, node, owner, psn as u64, 0);
                let pkt = self.pkt_mut(pr);
                pkt.kind = PacketKind::UnicastData;
                pkt.route = Route::Down { owner, hop: 0 };
                self.transmit_hop(first, pr, now);
            }
        }
    }

    /// Send a routed packet on over `out`, one hop further along its
    /// route.
    fn transmit_hop(&mut self, out: LinkId, pr: PktRef, now: SimTime) {
        // One slab access: hop bookkeeping + header fields.
        let h = {
            let p = self.pkt_mut(pr);
            if let Route::Unicast { hop, .. } | Route::Down { hop, .. } = &mut p.route {
                *hop += 1;
            }
            p.hop()
        };
        self.transmit(out, pr, now, h);
    }

    /// Transmit the copy `pr` with header fields `h` over `out`.
    fn transmit(&mut self, out: LinkId, pr: PktRef, now: SimTime, h: Hop) {
        let link = *self.topo.link(out);
        let wire = h.wire;
        // Down egress: unreliable copies are lost; reliable copies wait
        // for the link's next recovery (link-level retransmission wins
        // eventually) unless it never comes back.
        let mut not_before = SimTime::ZERO;
        if self.has_faults {
            let st = self.link_fault[out.idx()];
            if !st.up {
                if h.reliable && st.next_up_ns != u64::MAX {
                    not_before = SimTime(st.next_up_ns);
                } else {
                    self.links[out.idx()].counters.fault_drops += 1;
                    self.trace_drop(out, DropCause::FaultDown);
                    return self.release_pkt(pr);
                }
            }
        }
        let ser = self.ser.ns(link.rate, wire);
        let ser = self.effective_ser_ns(out, ser);
        let start = (now + SWITCH_LATENCY_NS)
            .max(self.links[out.idx()].busy)
            .max(not_before);
        self.links[out.idx()].busy = start + ser;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Egress {
                start_ns: start.as_ns(),
                ser_ns: ser,
                link: out.idx() as u32,
                bytes: wire as u32,
            });
        }
        if self.count_and_maybe_drop(out, h) {
            self.schedule_member(
                start + ser + link.prop_delay_ns,
                Ev::LinkArrive { link: out, pkt: pr },
            );
        } else {
            self.release_pkt(pr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_table_counts_live_entries_per_switch() {
        let mut table = AggTable::default();
        let (a, b) = (NodeId(3), NodeId(5));
        // Two contributions expected per `(group, psn)` at each switch.
        let mut arrive = |key| table.arrive(key, 2, 8, Some(2));
        for (key, last) in [((0, 0, a), false), ((0, 0, a), true), ((0, 1, a), false)] {
            assert_eq!(arrive(key), last);
        }
        for (key, last) in [((0, 0, b), false), ((1, 0, a), false), ((0, 1, a), true)] {
            assert_eq!(arrive(key), last);
        }
        assert_eq!(table.peak(), 2);
        assert!(!table.is_empty());
        for key in [(0, 0, b), (1, 0, a)] {
            assert!(table.arrive(key, 2, 8, Some(2)));
        }
        assert!(table.is_empty());
        // A lone contributor claims and frees its entry at once.
        assert!(table.arrive((2, 0, a), 1, 8, Some(2)));
        assert!(table.is_empty());
        assert_eq!(table.peak(), 2);
    }

    #[test]
    #[should_panic(
        expected = "switch aggregation table exhausted (1 live reduction states at NodeId(3))"
    )]
    fn aggregation_table_refuses_an_entry_past_its_capacity() {
        let mut table = AggTable::default();
        table.arrive((0, 0, NodeId(3)), 2, 8, Some(1));
        table.arrive((0, 0, NodeId(5)), 2, 8, Some(1));
        table.arrive((0, 1, NodeId(3)), 2, 8, Some(1));
    }
}
