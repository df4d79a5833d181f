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
//! [`run`] is the one run path: every driver — [`crate::des`]'s single
//! collective, the FSDP pair drivers in [`crate::concurrent`],
//! [`run_concurrent_allgathers`] here and, through [`run_with`],
//! `mcag-runtime`'s batch simulation — describes its communicators as
//! [`Comm`]s, and `run` lays them out on a fresh fabric, runs it under
//! the [`RunBounds`] watchdog and harvests a [`CommRun`] once. On every
//! rank [`MultiCommApp`], the one composite rank app, hosts one
//! [`CommSlot`] per communicator — a Broadcast/Allgather, or the FSDP
//! pair of an Allgather beside a [`RsApp`] in either reduction placement
//! — and owns the composition convention (slot `i`'s token base, marking
//! the rank done, QP ownership).

use crate::concurrent::{RsApp, RS_TX_TOKEN};
use crate::des::RunBounds;
use crate::msg::ControlMsg;
use crate::plan::{CollectiveKind, CollectivePlan};
use crate::protocol::{McastRankApp, QpLayout, RankTiming, TOKEN_STRIDE};
use crate::ProtocolConfig;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{
    Ctx, Fabric, FabricConfig, Payload, RankApp, SimTime, Topology, TraceSink, TrafficReport,
};
use mcag_verbs::{CollectiveId, Cqe, McastGroupId, QpNum, Rank, Transport};
use std::sync::Arc;

/// One communicator to lay out and [`run`].
pub struct Comm {
    /// Its Broadcast or Allgather; the plan carries the collective id.
    pub plan: Arc<CollectivePlan>,
    /// `Some(in_switch)` makes it the FSDP pair: beside the Allgather, a
    /// Reduce-Scatter of a `send_len·P` vector, with the plan's collective
    /// id plus one, reduced in a full-membership switch group when
    /// `in_switch`, else on the endpoints.
    pub rs_in_switch: Option<bool>,
}

/// One communicator's endpoint(s) on a rank.
pub struct CommSlot {
    /// The Broadcast or Allgather.
    pub ag: McastRankApp,
    /// The FSDP pair's Reduce-Scatter (either placement), if any.
    pub rs: Option<RsApp>,
}

impl CommSlot {
    fn released(&self) -> bool {
        self.ag.is_released() && self.rs.as_ref().is_none_or(RsApp::is_released)
    }
}

/// Lay `comms` out on a fresh fabric and install one [`MultiCommApp`]
/// per rank; returns the fabric, ready to run, and each communicator's
/// reliability cutoff ([`crate::des::cutoff_ns`] with `headroom`).
///
/// The layout (Section V-C's thread mapping): per communicator, its
/// subgroup groups and then its reduction group are created in order. On
/// every rank, communicator `i` adds its control QP on worker 0, the QP
/// of subgroup `j` on RX worker `(i + j) mod W`, attached to that
/// subgroup's group, and the pair's Reduce-Scatter QP on worker 0.
fn build(
    topo: impl Into<Arc<Topology>>,
    fabric_cfg: FabricConfig,
    proto: &ProtocolConfig,
    comms: &[Comm],
    headroom: u64,
) -> (Fabric<ControlMsg, MultiCommApp>, Vec<u64>) {
    let n_workers = fabric_cfg.host.rx_workers.max(1);
    let mut fab: Fabric<ControlMsg, MultiCommApp> = Fabric::new(topo, fabric_cfg);
    let p = fab.topology().num_hosts() as u32;
    let members: Vec<Rank> = (0..p).map(Rank).collect();
    // A communicator's groups: its subgroups', then its reduction group.
    let groups_of =
        |comm: &Comm| comm.plan.num_subgroups() + (comm.rs_in_switch == Some(true)) as u32;
    // A communicator's QPs on every rank: control, subgroups, then the
    // Reduce-Scatter's.
    let qps_of = |comm: &Comm| 1 + comm.plan.num_subgroups() + comm.rs_in_switch.is_some() as u32;
    let groups: u32 = comms.iter().map(groups_of).sum();
    let qps: u32 = comms.iter().map(qps_of).sum();
    fab.reserve(groups as usize, (p * qps) as usize);
    for _ in 0..groups {
        fab.create_group(&members);
    }
    let cutoffs: Vec<u64> = comms
        .iter()
        .map(|comm| crate::des::cutoff_ns(fab.topology(), &comm.plan, proto, headroom))
        .collect();
    // The slot owning each QP number: the layout is the same on every
    // rank, so every rank's mux shares this one table.
    let (mut slot, mut end) = (0, 0);
    let owners: Arc<[u16]> = (0..qps)
        .map(|qp| {
            while qp >= end {
                end += qps_of(&comms[slot]);
                slot += 1;
            }
            u16::try_from(slot - 1).expect("a rank hosts at most 65,536 communicators")
        })
        .collect();
    for &r in &members {
        let mut slots = SlotList::with_capacity(comms.len());
        // Communicator `i`'s groups follow the groups of those before it.
        let mut next_group = 0;
        for (i, comm) in comms.iter().enumerate() {
            let first_group = McastGroupId(next_group);
            let reduce = (comm.rs_in_switch == Some(true))
                .then_some(McastGroupId(next_group + comm.plan.num_subgroups()));
            next_group += groups_of(comm);
            let layout = QpLayout {
                ctrl: fab.add_qp(r, Transport::Rc, 0),
                first_group,
                subgroups: comm.plan.num_subgroups(),
            };
            for j in 0..layout.subgroups {
                let qp = fab.add_qp(r, Transport::Ud, (i + j as usize) % n_workers);
                assert_eq!(qp, layout.subgroup_qp(j), "QPs are numbered in order");
                fab.attach(r, qp, layout.group(j));
            }
            let plan = &comm.plan;
            // No attach for the Reduce-Scatter QP: in-switch contributions
            // enter the reduction tree by membership and results return
            // as routed unicast; endpoint operands target the owner's
            // twin QP (SPMD wiring gives it the same number on every rank).
            let rs = comm.rs_in_switch.map(|_| {
                let qp = fab.add_qp(r, Transport::Rc, 0);
                let coll = CollectiveId(plan.coll_id().0 + 1);
                let (mtu, imm, n) = (plan.mtu(), plan.imm_layout(), plan.send_len());
                RsApp::new(p, r, n, mtu, imm, coll, qp, reduce)
            });
            slots.push(CommSlot {
                ag: McastRankApp::new(Arc::clone(plan), r, layout, cutoffs[i]),
                rs,
            });
        }
        fab.set_app(r, MultiCommApp::new(slots, Arc::clone(&owners)));
    }
    (fab, cutoffs)
}

/// One rank's slots: the first inline, so that a rank hosting a single
/// communicator — every rank of a one-job batch — allocates for none.
struct SlotList {
    first: Option<CommSlot>,
    rest: Vec<CommSlot>,
}

impl SlotList {
    /// Room for `n` slots.
    fn with_capacity(n: usize) -> SlotList {
        SlotList {
            first: None,
            rest: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    fn push(&mut self, slot: CommSlot) {
        match self.first {
            None => self.first = Some(slot),
            Some(_) => self.rest.push(slot),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &CommSlot> {
        self.first.iter().chain(&self.rest)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut CommSlot> {
        self.first.iter_mut().chain(&mut self.rest)
    }

    fn get_mut(&mut self, i: usize) -> &mut CommSlot {
        match i {
            0 => self.first.as_mut().expect("slot 0"),
            _ => &mut self.rest[i - 1],
        }
    }
}

/// Everything one [`run`] leaves for its driver, harvested once after
/// the fabric stopped.
pub struct CommRun {
    /// Every rank's slots, rank-major: entry `r · C + i` is communicator
    /// `i`'s endpoint(s) on rank `r`, for `C` communicators;
    /// [`CommRun::rank_slots`] walks them rank by rank.
    pub slots: Vec<CommSlot>,
    /// Fabric statistics; [`RunStats::all_done`] is false when the
    /// watchdog censored the run.
    pub stats: RunStats,
    /// Link counters (all communicators combined).
    pub traffic: TrafficReport,
    /// Each communicator's reliability cutoff
    /// ([`crate::des::cutoff_ns`] with the bounds' headroom).
    pub cutoffs: Vec<u64>,
    /// The watchdog deadline the run was bounded by: the summed cutoffs
    /// times [`RunBounds::watchdog_cutoffs`].
    pub deadline: SimTime,
    /// Packets the fabric still held when the run ended
    /// ([`Fabric::live_packets`]); a completed run leaves none.
    pub live_packets: usize,
    /// The harvested flight recorder (`Some` iff the fabric config
    /// carried a `TraceSpec`).
    pub trace: Option<TraceSink>,
}

impl CommRun {
    /// Each rank's slots in rank order, one per communicator.
    pub fn rank_slots(&self) -> std::slice::ChunksExact<'_, CommSlot> {
        self.slots.chunks_exact(self.cutoffs.len())
    }
}

/// Lay `comms` out on a fresh fabric, run it until every rank is done or
/// the watchdog deadline passes, and harvest the result. Each
/// communicator's cutoff carries `bounds.cutoff_headroom`; the deadline
/// is the summed cutoffs times `bounds.watchdog_cutoffs`. The bounded run
/// is peek-based, so a run that completes is byte-identical to an
/// unbounded one; one that does not is censored
/// (`stats.all_done() == false`) at the deadline.
pub fn run(
    topo: impl Into<Arc<Topology>>,
    fabric_cfg: FabricConfig,
    proto: &ProtocolConfig,
    comms: &[Comm],
    bounds: RunBounds,
) -> CommRun {
    run_with(
        topo,
        fabric_cfg,
        proto,
        comms,
        bounds,
        |fab, _, deadline| fab.run_until(deadline),
    )
}

/// [`run`] with the caller's drive loop: `drive` gets the fabric, the
/// summed cutoffs and the watchdog deadline, runs the fabric no further
/// than the deadline and returns its final statistics — in slices, say,
/// with work between them, as the runtime's reactive subnet manager
/// does.
pub fn run_with(
    topo: impl Into<Arc<Topology>>,
    fabric_cfg: FabricConfig,
    proto: &ProtocolConfig,
    comms: &[Comm],
    bounds: RunBounds,
    drive: impl FnOnce(&mut Fabric<ControlMsg, MultiCommApp>, u64, SimTime) -> RunStats,
) -> CommRun {
    let (mut fab, cutoffs) = build(topo, fabric_cfg, proto, comms, bounds.cutoff_headroom);
    let total_cutoff: u64 = cutoffs.iter().sum();
    let deadline = SimTime::from_ns(total_cutoff.saturating_mul(bounds.watchdog_cutoffs.max(1)));
    let stats = drive(&mut fab, total_cutoff, deadline);
    let traffic = fab.traffic();
    let live_packets = fab.live_packets();
    let trace = fab.take_trace();
    let apps = fab.into_apps();
    let mut slots = Vec::with_capacity(apps.len() * comms.len());
    for app in apps {
        slots.extend(app.slots.first);
        slots.extend(app.slots.rest);
    }
    CommRun {
        slots,
        stats,
        traffic,
        cutoffs,
        deadline,
        live_packets,
        trace,
    }
}

/// One rank's view of several concurrently progressing communicators:
/// completions are routed by QP ownership, timers and TX-drain signals
/// by token namespace (slot `i` owns tokens `[i·TOKEN_STRIDE,
/// (i+1)·TOKEN_STRIDE)`; within a pair slot, `token % TOKEN_STRIDE ==
/// RS_TX_TOKEN` is the Reduce-Scatter's drain and every timer is the
/// Allgather's). It marks the rank done once every slot has released.
///
/// Both are constant work per callback, however many slots a rank
/// hosts: the owner of a QP is one lookup in a table every rank of the
/// fabric shares, and the mux counts its open slots down as the slot a
/// callback ran releases — a slot's callbacks never release another.
pub struct MultiCommApp {
    slots: SlotList,
    /// The slot owning each QP, by QP number.
    owners: Arc<[u16]>,
    open: OpenSlots,
}

/// A rank's open slots, counted once every slot has started and counted
/// down as a callback releases the slot it ran on; it says when to mark
/// the rank done.
#[derive(Default)]
struct OpenSlots {
    open: u32,
    marked: bool,
}

impl OpenSlots {
    /// After a callback on a slot that was open (or not) before it: count
    /// the slot closed if the callback released it. True exactly once, at
    /// the first callback that leaves none open.
    fn settle(&mut self, was_open: bool, released: bool) -> bool {
        self.open -= (was_open && released) as u32;
        let mark = self.open == 0 && !self.marked;
        self.marked |= mark;
        mark
    }
}

impl MultiCommApp {
    /// Compose `slots`: slot `i` gets token base `i·TOKEN_STRIDE` and
    /// owns the QPs its endpoints were built on, which [`build`] numbers
    /// consecutively, slot by slot, and lists in `owners`.
    fn new(mut slots: SlotList, owners: Arc<[u16]>) -> MultiCommApp {
        assert!(
            slots.first.is_some(),
            "a rank hosts at least one communicator"
        );
        for (i, slot) in slots.iter_mut().enumerate() {
            let base = i as u64 * TOKEN_STRIDE;
            slot.ag.set_token_base(base);
            if let Some(rs) = &mut slot.rs {
                rs.set_token_base(base);
            }
        }
        assert!(
            slots.iter().enumerate().all(|(i, s)| {
                let qps = [Some(s.ag.ctrl_qp()), s.rs.as_ref().map(RsApp::qp)];
                qps.into_iter()
                    .flatten()
                    .all(|q| owners[q.0 as usize] as usize == i)
            }),
            "the QP table names each slot's QPs"
        );
        MultiCommApp {
            slots,
            owners,
            open: OpenSlots::default(),
        }
    }

    /// The slot a CQE on `qp` belongs to.
    fn owner(&self, qp: QpNum) -> usize {
        self.owners[qp.0 as usize].into()
    }

    /// Run callback `f` on slot `i`, then mark the rank done once no
    /// slot is open.
    fn on_slot(
        &mut self,
        i: usize,
        ctx: &mut Ctx<'_, ControlMsg>,
        f: impl FnOnce(&mut CommSlot, &mut Ctx<'_, ControlMsg>),
    ) {
        let slot = self.slots.get_mut(i);
        let was_open = !slot.released();
        f(slot, ctx);
        if self.open.settle(was_open, slot.released()) {
            ctx.mark_done();
        }
    }
}

impl RankApp<ControlMsg> for MultiCommApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        for slot in self.slots.iter_mut() {
            slot.ag.on_start(ctx);
            if let Some(rs) = &mut slot.rs {
                rs.on_start(ctx);
            }
        }
        self.open.open = self.slots.iter().filter(|s| !s.released()).count() as u32;
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: &Cqe, payload: &Payload<ControlMsg>) {
        self.on_slot(self.owner(cqe.qp), ctx, |slot, ctx| match &mut slot.rs {
            Some(rs) if cqe.qp == rs.qp() => rs.on_cqe(ctx, cqe, payload),
            _ => slot.ag.on_cqe(ctx, cqe, payload),
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        // The Reduce-Scatter arms no timers.
        self.on_slot((token / TOKEN_STRIDE) as usize, ctx, |slot, ctx| {
            slot.ag.on_timer(ctx, token)
        });
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        self.on_slot(
            (token / TOKEN_STRIDE) as usize,
            ctx,
            |slot, ctx| match &mut slot.rs {
                Some(rs) if token % TOKEN_STRIDE == RS_TX_TOKEN => rs.on_tx_drained(ctx, token),
                _ => slot.ag.on_tx_drained(ctx, token),
            },
        );
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

    /// Completion of the whole batch; meaningful only when
    /// `stats.all_done()` (a censored run's open ranks count as 0).
    pub fn batch_completion_ns(&self) -> u64 {
        (0..self.per_comm.len())
            .map(|c| self.comm_completion_ns(c))
            .max()
            .unwrap_or(0)
    }
}

/// Run `k` identical Allgathers (one per communicator) concurrently on
/// `topo`, each of `send_len` bytes per rank, censored at the default
/// [`RunBounds`] watchdog.
pub fn run_concurrent_allgathers(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    k: usize,
) -> MultiCommOutcome {
    assert!(k >= 1);
    let p = topo.num_hosts() as u32;
    let comms: Vec<Comm> = (0..k as u32)
        .map(|c| Comm {
            plan: Arc::new(CollectivePlan::new(
                CollectiveKind::Allgather,
                p,
                send_len,
                proto.mtu,
                proto.imm,
                CollectiveId(c + 1),
                proto.subgroups,
                proto.chains,
            )),
            rs_in_switch: None,
        })
        .collect();
    // k communicators share the link: give the cutoff k× the headroom.
    let bounds = RunBounds {
        cutoff_headroom: k as u64 + 1,
        ..RunBounds::default()
    };
    let out = run(topo, fabric_cfg, &proto, &comms, bounds);
    let mut per_comm = vec![vec![RankTiming::default(); p as usize]; k];
    for (r, slots) in out.rank_slots().enumerate() {
        for (c, slot) in slots.iter().enumerate() {
            per_comm[c][r] = slot.ag.timing();
        }
    }
    MultiCommOutcome {
        per_comm,
        stats: out.stats,
        traffic: out.traffic,
        live_packets: out.live_packets,
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
    ) -> (RunStats, u64, Vec<CommSlot>) {
        let proto = ProtocolConfig::default();
        let p = topo.num_hosts() as u32;
        let (kind, mtu, imm) = (CollectiveKind::Allgather, proto.mtu, proto.imm);
        let comms: Vec<Comm> = [(1, None), (3, Some(true)), (5, Some(false))]
            .into_iter()
            .map(|(coll, rs_in_switch)| Comm {
                plan: Arc::new(CollectivePlan::new(
                    kind,
                    p,
                    n,
                    mtu,
                    imm,
                    CollectiveId(coll),
                    1,
                    1,
                )),
                rs_in_switch,
            })
            .collect();
        let bounds = RunBounds {
            cutoff_headroom: 4,
            ..RunBounds::default()
        };
        let out = run(topo, fabric_cfg, &proto, &comms, bounds);
        (out.stats, out.traffic.total_data_bytes(), out.slots)
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
            for slot in &ranks {
                assert!(slot.ag.timing().t_done.is_some());
                assert!(slot.rs.as_ref().is_none_or(|rs| rs.times().is_some()));
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

    /// Communicators of `send_len` bytes, `subgroups` subgroups and
    /// Reduce-Scatter placement each, numbered 1, 3, 5, … on `p` ranks.
    fn comms(p: u32, shapes: &[(usize, u32, Option<bool>)]) -> Vec<Comm> {
        let proto = ProtocolConfig::default();
        (0..)
            .step_by(2)
            .zip(shapes)
            .map(|(c, &(send_len, subgroups, rs_in_switch))| Comm {
                plan: Arc::new(CollectivePlan::new(
                    CollectiveKind::Allgather,
                    p,
                    send_len,
                    proto.mtu,
                    proto.imm,
                    CollectiveId(c + 1),
                    subgroups,
                    1,
                )),
                rs_in_switch,
            })
            .collect()
    }

    #[test]
    fn a_cqe_on_each_slots_first_and_last_qp_reaches_that_slot() {
        // Slots of 2 to 6 QPs: one to four subgroups, with no
        // Reduce-Scatter or one in either placement.
        let shapes = [
            (16 << 10, 1, None),
            (16 << 10, 4, Some(true)),
            (16 << 10, 2, Some(false)),
            (16 << 10, 1, Some(true)),
            (16 << 10, 3, None),
        ];
        let comms = comms(8, &shapes);
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let proto = ProtocolConfig::default();
        let (fab, _) = build(topo, FabricConfig::ucc_default(), &proto, &comms, 4);
        for app in fab.into_apps() {
            assert_eq!(app.owners.len(), 2 + 6 + 4 + 3 + 4);
            for (i, (slot, &(_, subgroups, _))) in app.slots.iter().zip(&shapes).enumerate() {
                let first = slot.ag.ctrl_qp();
                let last = slot
                    .rs
                    .as_ref()
                    .map_or(QpNum(first.0 + subgroups), RsApp::qp);
                assert_eq!((app.owner(first), app.owner(last)), (i, i), "slot {i}");
            }
        }
    }

    #[test]
    fn a_rank_is_marked_done_once_at_its_last_release() {
        // Later slots move less, so every rank releases them in reverse
        // slot order: the mux must count all three closed before it marks
        // the rank, and mark it when the last (slot 0) releases.
        let shapes = [
            (64 << 10, 1, None),
            (16 << 10, 1, Some(false)),
            (2 << 10, 1, None),
        ];
        let comms = comms(4, &shapes);
        let proto = ProtocolConfig::default();
        let (mut fab, _) = build(star(4), FabricConfig::ucc_default(), &proto, &comms, 4);
        let stats = fab.run();
        assert!(stats.all_done(), "{stats:?}");
        for (app, done) in fab.into_apps().into_iter().zip(stats.per_rank_done) {
            let releases: Vec<SimTime> = app
                .slots
                .iter()
                .map(|slot| {
                    let rs = slot.rs.as_ref().map(|rs| rs.times().expect("released").1);
                    rs.into_iter()
                        .chain(slot.ag.timing().t_done)
                        .max()
                        .expect("released")
                })
                .collect();
            assert!(
                releases[2] < releases[1] && releases[1] < releases[0],
                "{releases:?}"
            );
            assert_eq!(done, Some(releases[0]));
            assert_eq!((app.open.open, app.open.marked), (0, true));
        }
    }

    /// The callbacks of `calls`, as (slot, whether it releases the
    /// slot), after which `OpenSlots` says to mark the rank done; the
    /// slots of `at_start`, out of `slots`, released during `on_start`.
    fn marks(slots: usize, at_start: &[usize], calls: &[(usize, bool)]) -> Vec<usize> {
        let mut released = vec![false; slots];
        for &s in at_start {
            released[s] = true;
        }
        let mut open = OpenSlots {
            open: (slots - at_start.len()) as u32,
            marked: false,
        };
        let mut marks = Vec::new();
        for (k, &(s, releases)) in calls.iter().enumerate() {
            let was_open = !released[s];
            released[s] |= releases;
            if open.settle(was_open, released[s]) {
                marks.push(k);
            }
        }
        marks
    }

    #[test]
    fn open_slots_mark_once_at_the_last_release() {
        // Slots released out of order, with callbacks on slots already
        // released before and after the last release (the sixth call).
        let calls = [
            (2, false),
            (2, true),
            (1, false),
            (2, false),
            (0, false),
            (0, true),
            (2, false),
            (0, false),
        ];
        assert_eq!(marks(3, &[1], &calls), [5]);
        assert_eq!(
            marks(2, &[], &[(0, true), (0, false), (1, true), (1, false)]),
            [2]
        );
        // Every slot released at start: the first callback marks.
        assert_eq!(marks(2, &[0, 1], &[(1, false), (0, false)]), [0]);
    }

    /// The in-switch FSDP pair on a 16-rank two-level fat tree: its
    /// aggregation-table peak, and the panic a table one entry short of
    /// it raises.
    fn inc_table_demand(send_len: usize) -> (usize, String) {
        let topo = Topology::fat_tree_two_level(16, 4, 2, 1, LinkRate::CX3_56G, 100);
        let proto = ProtocolConfig::default();
        let comm = || Comm {
            plan: Arc::new(CollectivePlan::new(
                CollectiveKind::Allgather,
                16,
                send_len,
                proto.mtu,
                proto.imm,
                CollectiveId(1),
                1,
                1,
            )),
            rs_in_switch: Some(true),
        };
        let mut peak = 0;
        let out = run_with(
            topo.clone(),
            FabricConfig::ucc_default(),
            &proto,
            &[comm()],
            RunBounds::default(),
            |fab, _, deadline| {
                let stats = fab.run_until(deadline);
                peak = fab.inc_table_peak();
                stats
            },
        );
        assert!(out.stats.all_done());
        let mut short = FabricConfig::ucc_default();
        short.inc_table_capacity = Some(peak - 1);
        let panic = std::panic::catch_unwind(|| {
            run(topo, short, &proto, &[comm()], RunBounds::default());
        })
        .expect_err("a table one entry short must overflow");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        (peak, msg)
    }

    #[test]
    fn aggregation_table_demand_is_the_recorded_one() {
        // Recorded while the switches kept their aggregation state in
        // SipHash maps: the dense per-switch counters must reach the same
        // peak and overflow at the same switch.
        for (send_len, peak, node) in [(4 << 10, 2, 0), (32 << 10, 37, 21)] {
            let (got_peak, msg) = inc_table_demand(send_len);
            let want = format!(
                "switch aggregation table exhausted ({} live reduction states at NodeId({node}))",
                peak - 1
            );
            assert_eq!((got_peak, msg), (peak, want), "{send_len} B");
        }
    }
}
