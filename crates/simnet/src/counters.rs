//! Per-link traffic counters — the simulated equivalent of the switch
//! port counters the paper reads for Fig. 12.

use crate::topology::{LinkId, NodeKind, Topology};
use serde::{Deserialize, Serialize};

/// Byte/packet counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCounters {
    /// Payload bytes of data-class packets (multicast + unicast data).
    pub data_bytes: u64,
    /// Payload bytes of control-class packets (barrier, signals, fetch).
    pub ctrl_bytes: u64,
    /// Total wire bytes including per-packet header overhead.
    pub wire_bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Packet copies corrupted on this link (fabric drops).
    pub drops: u64,
    /// Packet copies lost because the link was down when they reached it
    /// (fault-injection losses, distinct from corruption): every
    /// unreliable copy, plus reliable copies on a link that never
    /// recovers (reliable copies otherwise wait out the outage).
    pub fault_drops: u64,
    /// Simulated nanoseconds this link spent down.
    pub downtime_ns: u64,
    /// Simulated nanoseconds this link spent up but below full rate.
    pub degraded_ns: u64,
}

impl LinkCounters {
    /// Merge another counter set into this one.
    pub fn absorb(&mut self, other: &LinkCounters) {
        self.data_bytes += other.data_bytes;
        self.ctrl_bytes += other.ctrl_bytes;
        self.wire_bytes += other.wire_bytes;
        self.packets += other.packets;
        self.drops += other.drops;
        self.fault_drops += other.fault_drops;
        self.downtime_ns += other.downtime_ns;
        self.degraded_ns += other.degraded_ns;
    }
}

/// A snapshot of every link counter plus aggregation helpers, annotated
/// with the simulation-engine throughput stats of the run that produced
/// it (events processed, peak event-queue depth, wall-clock time).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficReport {
    per_link: Vec<LinkCounters>,
    /// Receiver-not-ready drops per rank (RNR happens at the NIC, not on
    /// a link, so it gets its own axis). Empty when the producing fabric
    /// predates the breakdown or the report was built from raw counters.
    rnr_per_rank: Vec<u64>,
    events: u64,
    peak_queue_depth: usize,
    wall_ns: u64,
}

impl TrafficReport {
    /// Wrap raw per-link counters (indexed by [`LinkId`]). Engine stats
    /// start at zero; see [`TrafficReport::with_engine_stats`].
    pub fn new(per_link: Vec<LinkCounters>) -> TrafficReport {
        TrafficReport {
            per_link,
            rnr_per_rank: Vec::new(),
            events: 0,
            peak_queue_depth: 0,
            wall_ns: 0,
        }
    }

    /// Attach the per-rank receiver-not-ready drop breakdown.
    pub fn with_rnr(mut self, rnr_per_rank: Vec<u64>) -> TrafficReport {
        self.rnr_per_rank = rnr_per_rank;
        self
    }

    /// Attach simulation-engine stats: events processed, the peak pending
    /// count of the event queue, and wall-clock ns spent simulating.
    pub fn with_engine_stats(
        mut self,
        events: u64,
        peak_queue_depth: usize,
        wall_ns: u64,
    ) -> TrafficReport {
        self.events = events;
        self.peak_queue_depth = peak_queue_depth;
        self.wall_ns = wall_ns;
        self
    }

    /// Events the simulation engine processed to produce this report.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Peak pending-event count of the run(s) behind this report.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Wall-clock nanoseconds the engine spent in its event loop.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Counters of one directed link.
    pub fn link(&self, l: LinkId) -> &LinkCounters {
        &self.per_link[l.idx()]
    }

    /// All per-link counters.
    pub fn per_link(&self) -> &[LinkCounters] {
        &self.per_link
    }

    /// Sum counters over every directed link in the fabric.
    pub fn total(&self) -> LinkCounters {
        let mut t = LinkCounters::default();
        for c in &self.per_link {
            t.absorb(c);
        }
        t
    }

    /// Bytes transmitted summed across every *switch* egress port (links
    /// whose source is a switch), including switch-to-host delivery
    /// ports.
    pub fn switch_port_tx_bytes(&self, topo: &Topology) -> u64 {
        self.sum_where(topo, |topo, l| {
            matches!(topo.kind(topo.link(l).src), NodeKind::Switch { .. })
        })
    }

    /// The Fig. 12 metric: "performance counters across all switch
    /// ports". Every switch port counts both directions, so a link's
    /// bytes contribute once per switch endpoint — host↔leaf links count
    /// once, switch↔switch links twice. This is where unicast Allgather's
    /// `N·(P−1)` injection volume becomes visible, while multicast
    /// injects only `N` per rank.
    pub fn switch_port_rxtx_bytes(&self, topo: &Topology) -> u64 {
        self.per_link
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let l = topo.link(LinkId(i as u32));
                let endpoints = matches!(topo.kind(l.src), NodeKind::Switch { .. }) as u64
                    + matches!(topo.kind(l.dst), NodeKind::Switch { .. }) as u64;
                (c.data_bytes + c.ctrl_bytes) * endpoints
            })
            .sum()
    }

    /// Bytes crossing switch-to-switch links only (fabric core traffic).
    pub fn inter_switch_bytes(&self, topo: &Topology) -> u64 {
        self.sum_where(topo, |topo, l| {
            matches!(topo.kind(topo.link(l).src), NodeKind::Switch { .. })
                && matches!(topo.kind(topo.link(l).dst), NodeKind::Switch { .. })
        })
    }

    /// Bytes injected by hosts (host → first switch / peer).
    pub fn host_injection_bytes(&self, topo: &Topology) -> u64 {
        self.sum_where(topo, |topo, l| {
            matches!(topo.kind(topo.link(l).src), NodeKind::Host(_))
        })
    }

    /// Bytes delivered to hosts (last switch → host).
    pub fn host_delivery_bytes(&self, topo: &Topology) -> u64 {
        self.sum_where(topo, |topo, l| {
            matches!(topo.kind(topo.link(l).dst), NodeKind::Host(_))
        })
    }

    /// Total data payload bytes moved across *all* links — the paper's
    /// "total data movement across the network".
    pub fn total_data_bytes(&self) -> u64 {
        self.per_link.iter().map(|c| c.data_bytes).sum()
    }

    /// Total fabric drops.
    pub fn total_drops(&self) -> u64 {
        self.per_link.iter().map(|c| c.drops).sum()
    }

    /// Total down-link (fault-injection) losses across all links.
    pub fn total_fault_drops(&self) -> u64 {
        self.per_link.iter().map(|c| c.fault_drops).sum()
    }

    /// Total simulated nanoseconds of link downtime, summed over links.
    pub fn total_downtime_ns(&self) -> u64 {
        self.per_link.iter().map(|c| c.downtime_ns).sum()
    }

    /// Total simulated nanoseconds links spent degraded, summed over
    /// links.
    pub fn total_degraded_ns(&self) -> u64 {
        self.per_link.iter().map(|c| c.degraded_ns).sum()
    }

    /// Receiver-not-ready drops per rank (empty if the producer did not
    /// attach the breakdown; see [`TrafficReport::with_rnr`]).
    pub fn rnr_per_rank(&self) -> &[u64] {
        &self.rnr_per_rank
    }

    /// Total receiver-not-ready drops across ranks.
    pub fn total_rnr_drops(&self) -> u64 {
        self.rnr_per_rank.iter().sum()
    }

    /// Maximum data bytes observed on any single link — used to verify the
    /// bandwidth-optimality invariant (each byte crosses each link once).
    pub fn max_link_data_bytes(&self) -> u64 {
        self.per_link
            .iter()
            .map(|c| c.data_bytes)
            .max()
            .unwrap_or(0)
    }

    fn sum_where(&self, topo: &Topology, pred: impl Fn(&Topology, LinkId) -> bool) -> u64 {
        self.per_link
            .iter()
            .enumerate()
            .filter(|(i, _)| pred(topo, LinkId(*i as u32)))
            .map(|(_, c)| c.data_bytes + c.ctrl_bytes)
            .sum()
    }

    /// Element-wise sum of two reports (e.g. accumulating iterations).
    /// Engine stats accumulate too: events and wall time add, the peak
    /// queue depth takes the max.
    pub fn absorb(&mut self, other: &TrafficReport) {
        assert_eq!(self.per_link.len(), other.per_link.len());
        for (a, b) in self.per_link.iter_mut().zip(&other.per_link) {
            a.absorb(b);
        }
        // RNR breakdowns add elementwise; a report without one adopts the
        // other side's (so iteration accumulators need no special setup).
        if self.rnr_per_rank.is_empty() {
            self.rnr_per_rank = other.rnr_per_rank.clone();
        } else if !other.rnr_per_rank.is_empty() {
            assert_eq!(self.rnr_per_rank.len(), other.rnr_per_rank.len());
            for (a, b) in self.rnr_per_rank.iter_mut().zip(&other.rnr_per_rank) {
                *a += b;
            }
        }
        self.events += other.events;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.wall_ns += other.wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    #[test]
    fn aggregation_respects_link_classes() {
        let topo = Topology::single_switch(3, LinkRate::CX3_56G, 100);
        // links: (h0<->sw) = 0 up, 1 down; (h1<->sw) = 2,3; (h2<->sw) = 4,5
        let mut per_link = vec![LinkCounters::default(); topo.num_links()];
        per_link[0].data_bytes = 100; // h0 -> sw (host injection)
        per_link[1].data_bytes = 40; // sw -> h0 (switch port tx)
        per_link[3].ctrl_bytes = 7; // sw -> h1 (switch port tx)
        let r = TrafficReport::new(per_link);
        assert_eq!(r.host_injection_bytes(&topo), 100);
        assert_eq!(r.switch_port_tx_bytes(&topo), 47);
        assert_eq!(r.host_delivery_bytes(&topo), 47);
        assert_eq!(r.inter_switch_bytes(&topo), 0);
        assert_eq!(r.total_data_bytes(), 140);
        assert_eq!(r.max_link_data_bytes(), 100);
    }

    #[test]
    fn absorb_sums_iterations() {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut a = TrafficReport::new(vec![LinkCounters::default(); topo.num_links()]);
        let mut one = vec![LinkCounters::default(); topo.num_links()];
        one[0].data_bytes = 5;
        one[0].packets = 1;
        let b = TrafficReport::new(one);
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.link(LinkId(0)).data_bytes, 10);
        assert_eq!(a.total().packets, 2);
    }

    #[test]
    fn fault_breakdown_aggregates_and_absorbs() {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut one = vec![LinkCounters::default(); topo.num_links()];
        one[0].fault_drops = 3;
        one[0].downtime_ns = 1_000;
        one[1].degraded_ns = 500;
        let mut a = TrafficReport::new(one).with_rnr(vec![2, 0]);
        assert_eq!(a.total_fault_drops(), 3);
        assert_eq!(a.total_downtime_ns(), 1_000);
        assert_eq!(a.total_degraded_ns(), 500);
        assert_eq!(a.total_rnr_drops(), 2);
        // An accumulator without an RNR breakdown adopts the other side's.
        let mut acc = TrafficReport::new(vec![LinkCounters::default(); topo.num_links()]);
        acc.absorb(&a);
        a.absorb(&acc);
        assert_eq!(a.total_fault_drops(), 6);
        assert_eq!(a.total_rnr_drops(), 4);
        assert_eq!(a.rnr_per_rank(), &[4, 0]);
    }
}
