//! Multiple communicators per rank (Section V-C).
//!
//! "In our setup, each new communicator is mapped to a set of threads. A
//! single thread serves a group of parallel multicast trees, with each
//! tree associated with a bitmap." Several collectives — different
//! training streams, interleaved FSDP layers — progress concurrently on
//! every rank, each with its own multicast groups, QPs, bitmap and
//! collective id in the immediate bits; they share the NIC's round-robin
//! arbiter and the fabric.
//!
//! [`MultiCommApp`] is the one composite rank app: it hosts one
//! [`CommSlot`] per communicator — a Broadcast/Allgather, or the FSDP
//! pair of an Allgather beside a [`RsApp`] in either reduction
//! placement — and owns the composition convention (slot `i`'s token
//! base, auto-mark-done, QP ownership). Its three callers are
//! [`run_concurrent_allgathers`] here (`k` simultaneous Allgathers,
//! per-communicator timings), the FSDP pair drivers in
//! [`crate::concurrent`], and `mcag-runtime`'s batch simulation, which
//! puts every job of a batch in its own slot.

use crate::concurrent::{RsApp, RS_TX_TOKEN};
use crate::msg::ControlMsg;
use crate::plan::{CollectiveKind, CollectivePlan};
use crate::protocol::{McastRankApp, QpLayout, RankTiming, TOKEN_STRIDE};
use crate::ProtocolConfig;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{Ctx, Fabric, FabricConfig, Payload, RankApp, Topology, TrafficReport};
use mcag_verbs::{CollectiveId, Cqe, QpNum, Rank, Transport};
use std::sync::Arc;

/// One communicator's endpoint(s) on a rank.
pub enum CommSlot {
    /// A Broadcast or Allgather.
    Coll(McastRankApp),
    /// The FSDP pair: a multicast Allgather beside a Reduce-Scatter.
    AgRs {
        /// The Allgather half.
        ag: McastRankApp,
        /// The Reduce-Scatter half (either placement).
        rs: RsApp,
    },
}

impl CommSlot {
    /// The slot's multicast endpoint and, for the pair, its Reduce-Scatter.
    fn parts(&mut self) -> (&mut McastRankApp, Option<&mut RsApp>) {
        match self {
            CommSlot::Coll(ag) => (ag, None),
            CommSlot::AgRs { ag, rs } => (ag, Some(rs)),
        }
    }

    fn released(&self) -> bool {
        match self {
            CommSlot::Coll(ag) => ag.is_released(),
            CommSlot::AgRs { ag, rs } => ag.is_released() && rs.is_released(),
        }
    }
}

/// One rank's view of several concurrently progressing communicators:
/// completions are routed by QP ownership, timers and TX-drain signals
/// by token namespace (slot `i` owns tokens `[i·TOKEN_STRIDE,
/// (i+1)·TOKEN_STRIDE)`; within a pair slot, `token % TOKEN_STRIDE ==
/// RS_TX_TOKEN` is the Reduce-Scatter's drain and every timer is the
/// Allgather's).
pub struct MultiCommApp {
    slots: Vec<CommSlot>,
    /// `qp_owner[qp]` = slot owning that rank-local QP.
    qp_owner: Vec<usize>,
    marked: bool,
}

impl MultiCommApp {
    /// Compose `slots`: slot `i` gets token base `i·TOKEN_STRIDE` and
    /// auto-mark-done off (the mux marks the rank done once every slot
    /// has released), and owns the QPs its endpoints were built on.
    pub fn new(mut slots: Vec<CommSlot>) -> MultiCommApp {
        assert!(!slots.is_empty());
        let mut qp_owner = Vec::new();
        let mut own = |qp: QpNum, slot: usize| {
            let qp = qp.0 as usize;
            if qp_owner.len() <= qp {
                qp_owner.resize(qp + 1, usize::MAX);
            }
            qp_owner[qp] = slot;
        };
        for (i, slot) in slots.iter_mut().enumerate() {
            let base = i as u64 * TOKEN_STRIDE;
            let (ag, rs) = slot.parts();
            ag.set_auto_mark_done(false);
            ag.set_token_base(base);
            ag.qps().for_each(|qp| own(qp, i));
            if let Some(rs) = rs {
                rs.set_auto_mark_done(false);
                rs.set_token_base(base);
                own(rs.qp(), i);
            }
        }
        MultiCommApp {
            slots,
            qp_owner,
            marked: false,
        }
    }

    fn maybe_mark(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if !self.marked && self.slots.iter().all(CommSlot::released) {
            self.marked = true;
            ctx.mark_done();
        }
    }

    /// Decompose into the per-communicator endpoints (harvest path):
    /// entry `i` is slot `i`'s endpoint(s) on this rank.
    pub fn into_slots(self) -> Vec<CommSlot> {
        self.slots
    }
}

impl RankApp<ControlMsg> for MultiCommApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        for slot in &mut self.slots {
            let (ag, rs) = slot.parts();
            ag.on_start(ctx);
            if let Some(rs) = rs {
                rs.on_start(ctx);
            }
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, payload: Payload<ControlMsg>) {
        let (ag, rs) = self.slots[self.qp_owner[cqe.qp.0 as usize]].parts();
        match rs {
            Some(rs) if cqe.qp == rs.qp() => rs.on_cqe(ctx, cqe, payload),
            _ => ag.on_cqe(ctx, cqe, payload),
        }
        self.maybe_mark(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        // The Reduce-Scatter arms no timers.
        let (ag, _) = self.slots[(token / TOKEN_STRIDE) as usize].parts();
        ag.on_timer(ctx, token);
        self.maybe_mark(ctx);
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        let (ag, rs) = self.slots[(token / TOKEN_STRIDE) as usize].parts();
        match rs {
            Some(rs) if token % TOKEN_STRIDE == RS_TX_TOKEN => rs.on_tx_drained(ctx, token),
            _ => ag.on_tx_drained(ctx, token),
        }
        self.maybe_mark(ctx);
    }
}

/// Outcome of `k` concurrent communicators.
#[derive(Debug, Clone)]
pub struct MultiCommOutcome {
    /// Per-communicator, per-rank timings.
    pub per_comm: Vec<Vec<RankTiming>>,
    /// Fabric statistics.
    pub stats: RunStats,
    /// Link counters (all communicators combined).
    pub traffic: TrafficReport,
    /// Packets the fabric still held when the run ended
    /// ([`Fabric::live_packets`]); a completed run leaves none.
    pub live_packets: usize,
}

impl MultiCommOutcome {
    /// Completion time of communicator `c` (last rank release), ns.
    pub fn comm_completion_ns(&self, c: usize) -> u64 {
        self.per_comm[c]
            .iter()
            .map(|t| t.total_ns())
            .max()
            .unwrap_or(0)
    }

    /// Completion of the whole batch.
    pub fn batch_completion_ns(&self) -> u64 {
        (0..self.per_comm.len())
            .map(|c| self.comm_completion_ns(c))
            .max()
            .unwrap_or(0)
    }
}

/// Run `k` identical Allgathers (one per communicator) concurrently on
/// `topo`, each of `send_len` bytes per rank.
pub fn run_concurrent_allgathers(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    k: usize,
) -> MultiCommOutcome {
    assert!(k >= 1);
    let p = topo.num_hosts() as u32;
    let mut fab: Fabric<ControlMsg> = Fabric::new(topo, fabric_cfg.clone());
    let members: Vec<Rank> = (0..p).map(Rank).collect();
    let n_workers = fabric_cfg.host.rx_workers.max(1);

    // Per-communicator plans and groups.
    let mut plans = Vec::with_capacity(k);
    let mut groups_per_comm = Vec::with_capacity(k);
    for c in 0..k {
        let plan = Arc::new(CollectivePlan::new(
            CollectiveKind::Allgather,
            p,
            send_len,
            proto.mtu,
            proto.imm,
            CollectiveId(c as u32 + 1),
            proto.subgroups,
            proto.chains,
        ));
        let groups: Vec<_> = (0..plan.num_subgroups())
            .map(|_| fab.create_group(&members))
            .collect();
        plans.push(plan);
        groups_per_comm.push(groups);
    }

    // k communicators share the link: give the cutoff k× the headroom.
    let cutoff = crate::des::cutoff_ns(fab.topology(), &plans[0], &proto, k as u64 + 1);

    for &r in &members {
        let mut slots = Vec::with_capacity(k);
        for c in 0..k {
            let ctrl = fab.add_qp(r, Transport::Rc, 0);
            let mut subgroup_qps = Vec::new();
            for (j, &g) in groups_per_comm[c].iter().enumerate() {
                // Communicators round-robin over the RX workers
                // (Section V-C's thread mapping).
                let qp = fab.add_qp(r, Transport::Ud, (c + j) % n_workers);
                fab.attach(r, qp, g);
                subgroup_qps.push(qp);
            }
            slots.push(CommSlot::Coll(McastRankApp::new(
                Arc::clone(&plans[c]),
                r,
                QpLayout {
                    ctrl,
                    subgroup_qps,
                    groups: groups_per_comm[c].clone(),
                },
                cutoff,
            )));
        }
        fab.set_app(r, Box::new(MultiCommApp::new(slots)));
    }

    let stats = fab.run();
    let traffic = fab.traffic();
    let mut per_comm = vec![vec![RankTiming::default(); p as usize]; k];
    for &r in &members {
        let slots = fab.take_app_as::<MultiCommApp>(r).into_slots();
        for (c, slot) in slots.into_iter().enumerate() {
            let CommSlot::Coll(app) = slot else {
                unreachable!("every communicator is an Allgather")
            };
            per_comm[c][r.idx()] = app.timing();
        }
    }
    MultiCommOutcome {
        per_comm,
        stats,
        traffic,
        live_packets: fab.live_packets(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    fn star(n: usize) -> Topology {
        Topology::single_switch(n, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn four_communicators_complete() {
        let out = run_concurrent_allgathers(
            star(6),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            64 << 10,
            4,
        );
        assert!(out.stats.all_done(), "{:?}", out.stats);
        assert_eq!(out.per_comm.len(), 4);
        for c in 0..4 {
            assert!(out.comm_completion_ns(c) > 0);
            for t in &out.per_comm[c] {
                assert!(t.t_done.is_some());
            }
        }
    }

    #[test]
    fn communicators_share_bandwidth_fairly() {
        let n = 128usize << 10;
        let solo = run_concurrent_allgathers(
            star(4),
            FabricConfig::ideal(),
            ProtocolConfig::default(),
            n,
            1,
        );
        let quad = run_concurrent_allgathers(
            star(4),
            FabricConfig::ideal(),
            ProtocolConfig::default(),
            n,
            4,
        );
        assert!(quad.stats.all_done());
        let t1 = solo.batch_completion_ns() as f64;
        let t4 = quad.batch_completion_ns() as f64;
        // 4 communicators over one link: ~4x the time (within slack).
        assert!(
            (3.0..5.5).contains(&(t4 / t1)),
            "4-comm slowdown {}",
            t4 / t1
        );
        // Fairness: RR arbitration keeps communicators within ~25%.
        let times: Vec<u64> = (0..4).map(|c| quad.comm_completion_ns(c)).collect();
        let (min, max) = (
            *times.iter().min().unwrap() as f64,
            *times.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.25, "unfair communicators: {times:?}");
    }

    #[test]
    fn traffic_scales_linearly_with_communicators() {
        let n = 32usize << 10;
        let one = run_concurrent_allgathers(
            star(5),
            FabricConfig::ideal(),
            ProtocolConfig::default(),
            n,
            1,
        );
        let three = run_concurrent_allgathers(
            star(5),
            FabricConfig::ideal(),
            ProtocolConfig::default(),
            n,
            3,
        );
        let d1 = one.traffic.total_data_bytes();
        let d3 = three.traffic.total_data_bytes();
        assert_eq!(d3, 3 * d1, "payload must triple with 3 communicators");
    }

    #[test]
    fn streams_never_cross() {
        // The per-chunk collective-id check inside the protocol panics on
        // crossed traffic; surviving a multi-communicator run with
        // subgroups on shared workers is the assertion.
        let out = run_concurrent_allgathers(
            star(4),
            FabricConfig::ucc_default(),
            ProtocolConfig::parallel(2, 2),
            48 << 10,
            3,
        );
        assert!(out.stats.all_done());
    }

    /// One mux per rank hosting every slot kind: an Allgather
    /// (collective 1), an in-switch AG+RS pair (3 + 4) and an endpoint
    /// AG+RS pair (5 + 6), each of `n` bytes. Returns the run's
    /// statistics, payload bytes and every rank's harvested slots.
    fn run_mixed_slots(
        topo: Topology,
        fabric_cfg: FabricConfig,
        n: usize,
    ) -> (RunStats, u64, Vec<Vec<CommSlot>>) {
        use crate::concurrent::RsApp;
        let proto = ProtocolConfig::default();
        let p = topo.num_hosts() as u32;
        let mut fab: Fabric<ControlMsg> = Fabric::new(topo, fabric_cfg);
        let members: Vec<Rank> = (0..p).map(Rank).collect();
        // (Allgather collective id, Reduce-Scatter placement) per slot.
        let spec = [(1, None), (3, Some(true)), (5, Some(false))];
        let plans: Vec<_> = spec
            .iter()
            .map(|&(coll, _)| {
                let kind = CollectiveKind::Allgather;
                let (mtu, imm) = (proto.mtu, proto.imm);
                let plan = CollectivePlan::new(kind, p, n, mtu, imm, CollectiveId(coll), 1, 1);
                Arc::new(plan)
            })
            .collect();
        let ag_groups: Vec<_> = plans.iter().map(|_| fab.create_group(&members)).collect();
        let rs_group = fab.create_group(&members);
        let cutoff = crate::des::cutoff_ns(fab.topology(), &plans[0], &proto, 4);
        for &r in &members {
            let mut slots = Vec::new();
            for ((&(coll, placement), plan), &g) in spec.iter().zip(&plans).zip(&ag_groups) {
                let ctrl = fab.add_qp(r, Transport::Rc, 0);
                let qp = fab.add_qp(r, Transport::Ud, 0);
                fab.attach(r, qp, g);
                let layout = QpLayout {
                    ctrl,
                    subgroup_qps: vec![qp],
                    groups: vec![g],
                };
                let ag = McastRankApp::new(Arc::clone(plan), r, layout, cutoff);
                slots.push(match placement {
                    None => CommSlot::Coll(ag),
                    Some(in_switch) => {
                        let rs_qp = fab.add_qp(r, Transport::Rc, 0);
                        let (mtu, imm, rs_coll) = (proto.mtu, proto.imm, CollectiveId(coll + 1));
                        let group = in_switch.then_some(rs_group);
                        let rs = RsApp::new(p, r, n, mtu, imm, rs_coll, rs_qp, group);
                        CommSlot::AgRs { ag, rs }
                    }
                });
            }
            fab.set_app(r, Box::new(MultiCommApp::new(slots)));
        }
        let stats = fab.run();
        let bytes = fab.traffic().total_data_bytes();
        let slots = members
            .iter()
            .map(|&r| fab.take_app_as::<MultiCommApp>(r).into_slots())
            .collect();
        (stats, bytes, slots)
    }

    #[test]
    fn one_mux_hosts_every_slot_kind() {
        // Slots 1 and 2 drain their Reduce-Scatters at token
        // `i·TOKEN_STRIDE + RS_TX_TOKEN`, so this also checks drain
        // routing outside token base 0, for both placements.
        let n = 16 << 10;
        let cells = [
            (star(4), FabricConfig::ideal()),
            (star(5), FabricConfig::ucc_default()),
            (
                Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100),
                FabricConfig::ucc_default(),
            ),
        ];
        for (topo, cfg) in cells {
            let proto = ProtocolConfig::default();
            let (stats, bytes, ranks) = run_mixed_slots(topo.clone(), cfg.clone(), n);
            assert!(stats.all_done(), "{stats:?}");
            for slot in ranks.iter().flatten() {
                match slot {
                    CommSlot::Coll(ag) => assert!(ag.timing().t_done.is_some()),
                    CommSlot::AgRs { ag, rs } => {
                        assert!(ag.timing().t_done.is_some());
                        assert!(rs.times().is_some());
                    }
                }
            }
            let alone = [
                run_concurrent_allgathers(topo.clone(), cfg.clone(), proto, n, 1).traffic,
                crate::run_concurrent_ag_rs(topo.clone(), cfg.clone(), proto, n).traffic,
                crate::run_concurrent_ag_rs_endpoint(topo, cfg, proto, n).traffic,
            ];
            let alone: u64 = alone.iter().map(TrafficReport::total_data_bytes).sum();
            assert_eq!(bytes, alone, "the mux must add or lose no payload");
        }
    }
}
