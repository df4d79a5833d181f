//! Mid-run fabric health snapshots — the subnet manager's view.
//!
//! The reactive scheduler and the SM rebuild loop both need a cheap
//! answer to "what is broken right now?" without walking the full
//! [`crate::counters::TrafficReport`]. A [`FabricHealth`] snapshot is
//! one `Vec` of per-link [`LinkHealth`] rows harvested from the live
//! fault state and counters: current up/down/degraded status plus the
//! cumulative `fault_drops` and `downtime_ns` the link has accrued.
//! Deltas between two snapshots of the same fabric give the per-window
//! fault activity the scheduler steers on.

use crate::topology::{LinkId, NodeId, NodeKind, Topology};

/// Health of one directed link at the snapshot instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHealth {
    /// Is the link currently up?
    pub up: bool,
    /// Is the link up but running below line rate?
    pub degraded: bool,
    /// Packet copies lost to down-link windows so far (cumulative).
    pub fault_drops: u64,
    /// Simulated nanoseconds spent down so far, including any open
    /// outage closed at the snapshot instant (cumulative).
    pub downtime_ns: u64,
}

impl LinkHealth {
    /// A pristine link: up, full rate, no losses.
    pub fn healthy() -> LinkHealth {
        LinkHealth {
            up: true,
            degraded: false,
            fault_drops: 0,
            downtime_ns: 0,
        }
    }
}

/// A point-in-time health snapshot of every link in one fabric,
/// harvestable mid-run via `Fabric::health` (the fabric is not
/// perturbed: no event is scheduled, no counter reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricHealth {
    links: Vec<LinkHealth>,
}

impl FabricHealth {
    /// Wrap per-link rows (indexed by [`LinkId`]).
    pub fn new(links: Vec<LinkHealth>) -> FabricHealth {
        FabricHealth { links }
    }

    /// Health of one directed link.
    pub fn link(&self, l: LinkId) -> &LinkHealth {
        &self.links[l.idx()]
    }

    /// All per-link rows.
    pub fn links(&self) -> &[LinkHealth] {
        &self.links
    }

    /// Number of links currently down.
    pub fn down_links(&self) -> usize {
        self.links.iter().filter(|l| !l.up).count()
    }

    /// Cumulative fault drops summed over links.
    pub fn total_fault_drops(&self) -> u64 {
        self.links.iter().map(|l| l.fault_drops).sum()
    }

    /// Cumulative downtime summed over links.
    pub fn total_downtime_ns(&self) -> u64 {
        self.links.iter().map(|l| l.downtime_ns).sum()
    }

    /// Switches with *every* attached link currently down — the SM's
    /// "chassis is dark" diagnosis that triggers a multicast tree
    /// rebuild. A switch with one surviving link still forwards, so it
    /// does not qualify.
    pub fn dead_switches(&self, topo: &Topology) -> Vec<NodeId> {
        dead_switches(topo, |l| self.links[l.idx()].up)
    }
}

/// [`FabricHealth::dead_switches`] over any view of which links are up —
/// the fabric's live fault state, say, read without a snapshot.
pub(crate) fn dead_switches(topo: &Topology, up: impl Fn(LinkId) -> bool) -> Vec<NodeId> {
    (0..topo.num_nodes() as u32)
        .map(NodeId)
        .filter(|&n| matches!(topo.kind(n), NodeKind::Switch { .. }))
        .filter(|&n| {
            let mut any = false;
            for id in 0..topo.num_links() as u32 {
                let lk = topo.link(LinkId(id));
                if lk.src == n || lk.dst == n {
                    any = true;
                    if up(LinkId(id)) {
                        return false;
                    }
                }
            }
            any
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    #[test]
    fn dead_switch_requires_every_link_down() {
        let topo = Topology::fat_tree_two_level(4, 2, 2, 1, LinkRate::CX3_56G, 100);
        let mut rows = vec![LinkHealth::healthy(); topo.num_links()];
        let spine = topo.switches_at_level(2)[0];
        let touching: Vec<usize> = (0..topo.num_links() as u32)
            .filter(|&i| {
                let lk = topo.link(LinkId(i));
                lk.src == spine || lk.dst == spine
            })
            .map(|i| i as usize)
            .collect();
        // All but one link down: still alive.
        for &i in &touching[1..] {
            rows[i].up = false;
        }
        let h = FabricHealth::new(rows.clone());
        assert!(h.dead_switches(&topo).is_empty());
        assert_eq!(h.down_links(), touching.len() - 1);
        // Last link down: dead.
        rows[touching[0]].up = false;
        let h = FabricHealth::new(rows);
        assert_eq!(h.dead_switches(&topo), vec![spine]);
    }

    #[test]
    fn totals_sum_per_link_rows() {
        let mut rows = vec![LinkHealth::healthy(); 3];
        rows[0].fault_drops = 2;
        rows[2].fault_drops = 5;
        rows[1].downtime_ns = 700;
        let h = FabricHealth::new(rows);
        assert_eq!(h.total_fault_drops(), 7);
        assert_eq!(h.total_downtime_ns(), 700);
        assert_eq!(h.down_links(), 0);
    }
}
