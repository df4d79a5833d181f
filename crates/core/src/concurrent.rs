//! The concurrent `{Allgather, Reduce-Scatter}` experiment (Section II
//! and Appendix B).
//!
//! FSDP interleaves Allgather (parameter fetch) and Reduce-Scatter
//! (gradient sync) on independent shards, so both compete for NIC
//! injection bandwidth. The paper's headline system claim is that the
//! bandwidth-optimal pair — multicast Allgather plus in-network-compute
//! Reduce-Scatter — "don't share network bottlenecks" and finish up to
//! `S = 2 − 2/P` faster than `{ring, ring}`.
//!
//! This module runs the real pair on the DES fabric: the multicast
//! Allgather state machine and a SHARP-style Reduce-Scatter whose
//! reductions happen inside the simulated switches, sharing each NIC's
//! round-robin QP arbiter and every fabric link.

use crate::msg::ControlMsg;
use crate::plan::{CollectiveKind, CollectivePlan};
use crate::protocol::{McastRankApp, QpLayout, RankTiming, TOKEN_STRIDE};
use crate::ProtocolConfig;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{
    Ctx, Fabric, FabricConfig, MsgSegments, Payload, RankApp, SimTime, Topology, TrafficReport,
};
use mcag_verbs::{CollectiveId, Cqe, CqeOpcode, ImmLayout, McastGroupId, Mtu, QpNum, Rank};
use std::sync::Arc;

/// Drain-notification token used by [`IncRsApp`] (offset by the
/// instance's token base when several protocols share one rank; composite
/// apps route `token % TOKEN_STRIDE == RS_TX_TOKEN` to the RS endpoint).
/// Distinct from [`crate::protocol::McastRankApp`]'s cutoff timer (1) and
/// TX-drain tokens (≥ 16) so the two can share a token namespace.
pub const RS_TX_TOKEN: u64 = 5;

/// In-network-compute Reduce-Scatter endpoint: contributes every foreign
/// shard into the switch reduction tree and waits for its own reduced
/// shard to come back down.
pub struct IncRsApp {
    p: u32,
    me: Rank,
    shard_len: usize,
    mtu: Mtu,
    imm: ImmLayout,
    coll: CollectiveId,
    qp: QpNum,
    group: McastGroupId,
    chunks_per_shard: u32,
    got: u32,
    tx_done: bool,
    released: bool,
    auto_mark_done: bool,
    token_base: u64,
    t_start: SimTime,
    t_done: Option<SimTime>,
}

impl IncRsApp {
    /// Build the endpoint. `shard_len` is `N` (bytes of the reduced shard
    /// each rank keeps; the input vector is `N·P`). The `(start, end)`
    /// completion record is read back with [`IncRsApp::times`] after the
    /// run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        p: u32,
        me: Rank,
        shard_len: usize,
        mtu: Mtu,
        imm: ImmLayout,
        coll: CollectiveId,
        qp: QpNum,
        group: McastGroupId,
    ) -> IncRsApp {
        IncRsApp {
            p,
            me,
            shard_len,
            mtu,
            imm,
            coll,
            qp,
            group,
            chunks_per_shard: mtu.chunks_for(shard_len) as u32,
            got: 0,
            tx_done: false,
            released: false,
            auto_mark_done: true,
            token_base: 0,
            t_start: SimTime::ZERO,
            t_done: None,
        }
    }

    /// Disable automatic `mark_done` (composite drivers).
    pub fn set_auto_mark_done(&mut self, auto: bool) {
        self.auto_mark_done = auto;
    }

    /// Namespace this instance's drain token (communicator index times
    /// [`TOKEN_STRIDE`]) so several protocol instances sharing one rank
    /// never collide.
    pub fn set_token_base(&mut self, base: u64) {
        self.token_base = base;
    }

    /// Finished (shard received and contributions drained)?
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// `(start, end)` completion record, owned by the app and harvested
    /// by the driver after the run (`None` until released).
    pub fn times(&self) -> Option<(SimTime, SimTime)> {
        self.t_done.map(|d| (self.t_start, d))
    }

    fn maybe_done(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if self.released || !self.tx_done || self.got < self.chunks_per_shard {
            return;
        }
        self.released = true;
        self.t_done = Some(ctx.now());
        if self.auto_mark_done {
            ctx.mark_done();
        }
    }
}

impl RankApp<ControlMsg> for IncRsApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.t_start = ctx.now();
        // Contribute every shard except our own: N(P−1) bytes up the
        // reduction tree (eq. 2's RS send volume). Our own shard's local
        // contribution is folded in at delivery, as SHARP endpoints do.
        // One message per shard; the NIC cuts it into MTU segments.
        for shard in (0..self.p).filter(|&s| s != self.me.0) {
            let seg = MsgSegments {
                first_psn: shard * self.chunks_per_shard,
                chunks: self.chunks_per_shard,
                buf_len: self.shard_len,
                mtu: self.mtu,
                imm: self.imm,
                coll: self.coll,
            };
            ctx.post_inc_message(self.qp, self.group, Rank(shard), self.qp, seg);
        }
        ctx.notify_tx_drained(self.qp, self.token_base + RS_TX_TOKEN);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, _payload: Payload<ControlMsg>) {
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        let (coll, psn) = self.imm.unpack(cqe.imm.expect("reduced shard without imm"));
        assert_eq!(coll, self.coll, "crossed collective traffic");
        let shard = psn / self.chunks_per_shard;
        assert_eq!(shard, self.me.0, "received a shard we do not own");
        self.got += 1;
        self.maybe_done(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, ControlMsg>, _token: u64) {
        unreachable!("INC RS arms no timers");
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        assert_eq!(token, self.token_base + RS_TX_TOKEN);
        self.tx_done = true;
        self.maybe_done(ctx);
    }
}

/// Endpoint-reduction Reduce-Scatter: the no-offload reference for the
/// in-network backend comparison (`mcag-offload`). Every rank unicasts
/// each foreign-shard chunk straight to the shard's owner, and the
/// owner folds the `P − 1` contributions locally — so each owner's
/// down-link carries `N·(P − 1)` operand bytes where the SHARP path
/// carries `N` reduced bytes, the on-wire gap `backendfigs` measures.
pub struct EndpointRsApp {
    p: u32,
    me: Rank,
    shard_len: usize,
    mtu: Mtu,
    imm: ImmLayout,
    coll: CollectiveId,
    qp: QpNum,
    chunks_per_shard: u32,
    got: u32,
    tx_done: bool,
    released: bool,
    auto_mark_done: bool,
    token_base: u64,
    t_start: SimTime,
    t_done: Option<SimTime>,
}

impl EndpointRsApp {
    /// Build the endpoint. `shard_len` is `N`, as for [`IncRsApp`];
    /// `qp` must be the same rank-local QP number on every rank (SPMD
    /// wiring), since contributions target the owner's twin QP.
    pub fn new(
        p: u32,
        me: Rank,
        shard_len: usize,
        mtu: Mtu,
        imm: ImmLayout,
        coll: CollectiveId,
        qp: QpNum,
    ) -> EndpointRsApp {
        EndpointRsApp {
            p,
            me,
            shard_len,
            mtu,
            imm,
            coll,
            qp,
            chunks_per_shard: mtu.chunks_for(shard_len) as u32,
            got: 0,
            tx_done: false,
            released: false,
            auto_mark_done: true,
            token_base: 0,
            t_start: SimTime::ZERO,
            t_done: None,
        }
    }

    /// Disable automatic `mark_done` (composite drivers).
    pub fn set_auto_mark_done(&mut self, auto: bool) {
        self.auto_mark_done = auto;
    }

    /// Namespace this instance's drain token (see
    /// [`IncRsApp::set_token_base`]).
    pub fn set_token_base(&mut self, base: u64) {
        self.token_base = base;
    }

    /// Finished (all `P − 1` operand streams received and folded,
    /// contributions drained)?
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// `(start, end)` completion record (`None` until released).
    pub fn times(&self) -> Option<(SimTime, SimTime)> {
        self.t_done.map(|d| (self.t_start, d))
    }

    fn expected(&self) -> u32 {
        (self.p - 1) * self.chunks_per_shard
    }

    fn maybe_done(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if self.released || !self.tx_done || self.got < self.expected() {
            return;
        }
        self.released = true;
        self.t_done = Some(ctx.now());
        if self.auto_mark_done {
            ctx.mark_done();
        }
    }
}

impl RankApp<ControlMsg> for EndpointRsApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.t_start = ctx.now();
        // Send every foreign shard's chunks straight to the owner:
        // the same N(P−1) injection as the INC path, but the operands
        // all converge on the owner's NIC instead of merging in-tree.
        // One RC message per shard.
        for shard in (0..self.p).filter(|&s| s != self.me.0) {
            let seg = MsgSegments {
                first_psn: shard * self.chunks_per_shard,
                chunks: self.chunks_per_shard,
                buf_len: self.shard_len,
                mtu: self.mtu,
                imm: self.imm,
                coll: self.coll,
            };
            ctx.post_unicast_message(Rank(shard), self.qp, seg);
        }
        ctx.notify_tx_drained(self.qp, self.token_base + RS_TX_TOKEN);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, _payload: Payload<ControlMsg>) {
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        let (coll, psn) = self.imm.unpack(cqe.imm.expect("operand chunk without imm"));
        assert_eq!(coll, self.coll, "crossed collective traffic");
        let shard = psn / self.chunks_per_shard;
        assert_eq!(shard, self.me.0, "received an operand for a foreign shard");
        self.got += 1;
        self.maybe_done(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, ControlMsg>, _token: u64) {
        unreachable!("endpoint RS arms no timers");
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        assert_eq!(token, self.token_base + RS_TX_TOKEN);
        self.tx_done = true;
        self.maybe_done(ctx);
    }
}

/// What a duplex endpoint needs of its Reduce-Scatter half beyond the
/// [`RankApp`] callbacks; [`IncRsApp`] and [`EndpointRsApp`] provide it.
pub trait RsHalf: RankApp<ControlMsg> {
    /// Disable automatic `mark_done` (the duplex marks for both halves).
    fn set_auto_mark_done(&mut self, auto: bool);
    /// Finished?
    fn is_released(&self) -> bool;
    /// `(start, end)` completion record (`None` until released).
    fn times(&self) -> Option<(SimTime, SimTime)>;
}

impl RsHalf for IncRsApp {
    fn set_auto_mark_done(&mut self, auto: bool) {
        IncRsApp::set_auto_mark_done(self, auto);
    }
    fn is_released(&self) -> bool {
        IncRsApp::is_released(self)
    }
    fn times(&self) -> Option<(SimTime, SimTime)> {
        IncRsApp::times(self)
    }
}

impl RsHalf for EndpointRsApp {
    fn set_auto_mark_done(&mut self, auto: bool) {
        EndpointRsApp::set_auto_mark_done(self, auto);
    }
    fn is_released(&self) -> bool {
        EndpointRsApp::is_released(self)
    }
    fn times(&self) -> Option<(SimTime, SimTime)> {
        EndpointRsApp::times(self)
    }
}

/// Composite endpoint: multicast Allgather and a Reduce-Scatter running
/// concurrently on one rank — completions dispatched by QP, drain
/// notifications by token namespace (`token % TOKEN_STRIDE ==
/// RS_TX_TOKEN` is the Reduce-Scatter's, whatever the halves' token
/// base), timers to the Allgather (the Reduce-Scatter arms none).
pub struct DuplexApp<R> {
    ag: McastRankApp,
    rs: R,
    rs_qp: QpNum,
    marked: bool,
}

/// Multicast Allgather beside the in-network (SHARP-style) Reduce-Scatter.
pub type AgRsDuplexApp = DuplexApp<IncRsApp>;

/// Multicast Allgather beside the *endpoint-reduction* Reduce-Scatter
/// (the no-offload twin of [`AgRsDuplexApp`], for the `mcag-offload`
/// backend comparison).
pub type AgRsEndpointDuplexApp = DuplexApp<EndpointRsApp>;

impl<R: RsHalf> DuplexApp<R> {
    /// Compose the two endpoints (turns auto-mark-done off on both).
    pub fn new(mut ag: McastRankApp, mut rs: R, rs_qp: QpNum) -> DuplexApp<R> {
        ag.set_auto_mark_done(false);
        rs.set_auto_mark_done(false);
        DuplexApp {
            ag,
            rs,
            rs_qp,
            marked: false,
        }
    }

    fn maybe_mark(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if !self.marked && self.ag.is_released() && self.rs.is_released() {
            self.marked = true;
            ctx.mark_done();
        }
    }

    /// Decompose into the two endpoints (harvest path).
    pub fn into_parts(self) -> (McastRankApp, R) {
        (self.ag, self.rs)
    }
}

impl<R: RsHalf> RankApp<ControlMsg> for DuplexApp<R> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.ag.on_start(ctx);
        self.rs.on_start(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, payload: Payload<ControlMsg>) {
        if cqe.qp == self.rs_qp {
            self.rs.on_cqe(ctx, cqe, payload);
        } else {
            self.ag.on_cqe(ctx, cqe, payload);
        }
        self.maybe_mark(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        self.ag.on_timer(ctx, token);
        self.maybe_mark(ctx);
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        if token % TOKEN_STRIDE == RS_TX_TOKEN {
            self.rs.on_tx_drained(ctx, token);
        } else {
            self.ag.on_tx_drained(ctx, token);
        }
        self.maybe_mark(ctx);
    }
}

/// Outcome of the concurrent pair.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Allgather per-rank timings.
    pub ag_timings: Vec<RankTiming>,
    /// Reduce-Scatter `(start, end)` per rank.
    pub rs_times: Vec<Option<(SimTime, SimTime)>>,
    /// Fabric statistics.
    pub stats: RunStats,
    /// Link counters.
    pub traffic: TrafficReport,
}

impl ConcurrentOutcome {
    /// Wall time until *both* collectives finished everywhere (ns).
    pub fn pair_completion_ns(&self) -> u64 {
        let ag = self
            .ag_timings
            .iter()
            .map(|t| t.total_ns())
            .max()
            .unwrap_or(0);
        let rs = self
            .rs_times
            .iter()
            .flatten()
            .map(|(s, e)| e.since(*s))
            .max()
            .unwrap_or(0);
        ag.max(rs)
    }
}

/// Wire and run the pair on a fresh fabric: the multicast Allgather of
/// `send_len` bytes beside the Reduce-Scatter `mk_rs(rank, rs_qp,
/// rs_group)` builds, sharing NICs and links. `rs_group` is a
/// full-membership reduction group when `in_switch`, else `None`; both
/// halves take `token_base`.
fn run_pair<R: RsHalf>(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    token_base: u64,
    in_switch: bool,
    mk_rs: impl Fn(Rank, QpNum, Option<McastGroupId>) -> R,
) -> ConcurrentOutcome {
    let p = topo.num_hosts() as u32;
    let plan = Arc::new(CollectivePlan::new(
        CollectiveKind::Allgather,
        p,
        send_len,
        proto.mtu,
        proto.imm,
        CollectiveId(1),
        proto.subgroups,
        proto.chains,
    ));
    let mut fab: Fabric<ControlMsg> = Fabric::new(topo, fabric_cfg.clone());

    // The pair roughly doubles the drain time of each collective (they
    // share the NIC), so give the AG cutoff 3× the usual headroom.
    let cutoff = crate::des::cutoff_ns(fab.topology(), &plan, &proto, 3);

    let members: Vec<Rank> = (0..p).map(Rank).collect();
    let n_workers = fabric_cfg.host.rx_workers.max(1);
    let ag_groups: Vec<_> = (0..plan.num_subgroups())
        .map(|_| fab.create_group(&members))
        .collect();
    let rs_group = in_switch.then(|| fab.create_group(&members));

    for &r in &members {
        let ctrl = fab.add_qp(r, mcag_verbs::Transport::Rc, 0);
        let mut subgroup_qps = Vec::new();
        for (j, &g) in ag_groups.iter().enumerate() {
            let qp = fab.add_qp(r, mcag_verbs::Transport::Ud, j % n_workers);
            fab.attach(r, qp, g);
            subgroup_qps.push(qp);
        }
        // No attach for the RS QP: in-switch contributions enter the
        // reduction tree by membership and results return as routed
        // unicast; endpoint operands target the owner's twin QP (SPMD
        // wiring gives it the same number on every rank).
        let rs_qp = fab.add_qp(r, mcag_verbs::Transport::Rc, 0);
        let mut ag = McastRankApp::new(
            Arc::clone(&plan),
            r,
            QpLayout {
                ctrl,
                subgroup_qps,
                groups: ag_groups.clone(),
            },
            cutoff,
        );
        ag.set_token_base(token_base);
        let rs = mk_rs(r, rs_qp, rs_group);
        fab.set_app(r, Box::new(DuplexApp::new(ag, rs, rs_qp)));
    }

    let stats = fab.run();
    let traffic = fab.traffic();
    let mut ag_timings = Vec::with_capacity(p as usize);
    let mut rs_times = Vec::with_capacity(p as usize);
    for &r in &members {
        let (ag, rs) = fab.take_app_as::<DuplexApp<R>>(r).into_parts();
        ag_timings.push(ag.timing());
        rs_times.push(rs.times());
    }
    ConcurrentOutcome {
        ag_timings,
        rs_times,
        stats,
        traffic,
    }
}

/// [`run_concurrent_ag_rs`] with both halves in `token_base`'s namespace.
fn run_pair_in_switch(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    token_base: u64,
) -> ConcurrentOutcome {
    let p = topo.num_hosts() as u32;
    let mk_rs = |r, rs_qp, group: Option<McastGroupId>| {
        let group = group.expect("in-switch pair has a reduction group");
        let coll = CollectiveId(3);
        let mut rs = IncRsApp::new(p, r, send_len, proto.mtu, proto.imm, coll, rs_qp, group);
        rs.set_token_base(token_base);
        rs
    };
    run_pair(topo, fabric_cfg, proto, send_len, token_base, true, mk_rs)
}

/// [`run_concurrent_ag_rs_endpoint`] with both halves in `token_base`'s
/// namespace.
fn run_pair_endpoint(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    token_base: u64,
) -> ConcurrentOutcome {
    let p = topo.num_hosts() as u32;
    let mk_rs = |r, rs_qp, _| {
        let coll = CollectiveId(3);
        let mut rs = EndpointRsApp::new(p, r, send_len, proto.mtu, proto.imm, coll, rs_qp);
        rs.set_token_base(token_base);
        rs
    };
    run_pair(topo, fabric_cfg, proto, send_len, token_base, false, mk_rs)
}

/// Run `{AG_mc, RS_inc}` concurrently: every rank allgathers `send_len`
/// bytes while reduce-scattering an `send_len·P` vector, sharing NICs
/// and links.
pub fn run_concurrent_ag_rs(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
) -> ConcurrentOutcome {
    run_pair_in_switch(topo, fabric_cfg, proto, send_len, 0)
}

/// Run the INC Reduce-Scatter alone (for the Fig. 3 decomposition).
pub fn run_inc_reduce_scatter(
    topo: Topology,
    fabric_cfg: FabricConfig,
    mtu: Mtu,
    shard_len: usize,
) -> ConcurrentOutcome {
    let p = topo.num_hosts() as u32;
    let mut fab: Fabric<ControlMsg> = Fabric::new(topo, fabric_cfg);
    let members: Vec<Rank> = (0..p).map(Rank).collect();
    let group = fab.create_group(&members);
    for &r in &members {
        let qp = fab.add_qp(r, mcag_verbs::Transport::Rc, 0);
        fab.set_app(
            r,
            Box::new(IncRsApp::new(
                p,
                r,
                shard_len,
                mtu,
                ImmLayout::DEFAULT,
                CollectiveId(3),
                qp,
                group,
            )),
        );
    }
    let stats = fab.run();
    let traffic = fab.traffic();
    let rs_times = members
        .iter()
        .map(|&r| fab.take_app_as::<IncRsApp>(r).times())
        .collect();
    ConcurrentOutcome {
        ag_timings: Vec::new(),
        rs_times,
        stats,
        traffic,
    }
}

/// Run the endpoint-reduction Reduce-Scatter alone: same `N(P−1)`
/// injection as [`run_inc_reduce_scatter`], but operands converge on
/// each owner's NIC and fold there (no fabric compute, no aggregation
/// table). The wire-traffic delta against the INC run is the SHARP
/// backend's advantage.
pub fn run_endpoint_reduce_scatter(
    topo: Topology,
    fabric_cfg: FabricConfig,
    mtu: Mtu,
    shard_len: usize,
) -> ConcurrentOutcome {
    let p = topo.num_hosts() as u32;
    let mut fab: Fabric<ControlMsg> = Fabric::new(topo, fabric_cfg);
    let members: Vec<Rank> = (0..p).map(Rank).collect();
    for &r in &members {
        let qp = fab.add_qp(r, mcag_verbs::Transport::Rc, 0);
        fab.set_app(
            r,
            Box::new(EndpointRsApp::new(
                p,
                r,
                shard_len,
                mtu,
                ImmLayout::DEFAULT,
                CollectiveId(3),
                qp,
            )),
        );
    }
    let stats = fab.run();
    let traffic = fab.traffic();
    let rs_times = members
        .iter()
        .map(|&r| fab.take_app_as::<EndpointRsApp>(r).times())
        .collect();
    ConcurrentOutcome {
        ag_timings: Vec::new(),
        rs_times,
        stats,
        traffic,
    }
}

/// Run `{AG_mc, RS_endpoint}` concurrently: the no-offload twin of
/// [`run_concurrent_ag_rs`] — identical Allgather, but the
/// Reduce-Scatter's operands are unicast to their owners and reduced
/// on the endpoints instead of in the switches.
pub fn run_concurrent_ag_rs_endpoint(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
) -> ConcurrentOutcome {
    run_pair_endpoint(topo, fabric_cfg, proto, send_len, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;

    fn star(n: usize) -> Topology {
        Topology::single_switch(n, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn inc_reduce_scatter_completes() {
        let out =
            run_inc_reduce_scatter(star(6), FabricConfig::ucc_default(), Mtu::IB_4K, 64 << 10);
        assert!(out.stats.all_done(), "{:?}", out.stats);
        for t in out.rs_times.iter() {
            assert!(t.is_some());
        }
    }

    #[test]
    fn inc_rs_is_bandwidth_optimal_on_the_wire() {
        // Up-traffic: each rank injects N(P-1); each switch-child link
        // carries at most one merged copy per (shard, chunk) stream; the
        // down-traffic is one shard per rank. On a star: uplinks carry
        // N(P-1) each, downlinks carry N each.
        let n: u64 = 64 << 10;
        let p = 6u64;
        let out = run_inc_reduce_scatter(
            star(p as usize),
            FabricConfig::ideal(),
            Mtu::IB_4K,
            n as usize,
        );
        let total = out.traffic.total_data_bytes();
        // P uplinks x N(P-1) + P downlinks x N.
        assert_eq!(total, p * n * (p - 1) + p * n);
    }

    #[test]
    fn endpoint_reduce_scatter_completes() {
        let out =
            run_endpoint_reduce_scatter(star(6), FabricConfig::ucc_default(), Mtu::IB_4K, 64 << 10);
        assert!(out.stats.all_done(), "{:?}", out.stats);
        for t in out.rs_times.iter() {
            assert!(t.is_some());
        }
    }

    #[test]
    fn endpoint_rs_pays_the_operand_convergence_on_the_wire() {
        // Endpoint reduction: uplinks still carry N(P-1) each, but
        // every owner's downlink now carries the full P-1 operand
        // streams (N(P-1) bytes) instead of one reduced shard (N).
        let n: u64 = 64 << 10;
        let p = 6u64;
        let endpoint = run_endpoint_reduce_scatter(
            star(p as usize),
            FabricConfig::ideal(),
            Mtu::IB_4K,
            n as usize,
        );
        assert_eq!(
            endpoint.traffic.total_data_bytes(),
            2 * p * n * (p - 1),
            "P uplinks and P downlinks each moving N(P-1)"
        );
        let inc = run_inc_reduce_scatter(
            star(p as usize),
            FabricConfig::ideal(),
            Mtu::IB_4K,
            n as usize,
        );
        assert!(
            inc.traffic.total_data_bytes() < endpoint.traffic.total_data_bytes(),
            "in-switch reduction must move fewer bytes"
        );
    }

    #[test]
    fn concurrent_pair_completes() {
        let out = run_concurrent_ag_rs(
            star(4),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            32 << 10,
        );
        assert!(out.stats.all_done(), "{:?}", out.stats);
        assert!(out.pair_completion_ns() > 0);
    }

    #[test]
    fn duplex_routes_the_rs_drain_by_token_namespace() {
        // Both halves live in communicator slot 1's token range: the RS
        // drain arrives as `TOKEN_STRIDE + RS_TX_TOKEN` and must still
        // reach the RS half, not the Allgather's drain handler.
        for run in [run_pair_in_switch, run_pair_endpoint] {
            let out = run(
                star(4),
                FabricConfig::ucc_default(),
                ProtocolConfig::default(),
                32 << 10,
                TOKEN_STRIDE,
            );
            assert!(out.stats.all_done(), "{:?}", out.stats);
            assert!(out.rs_times.iter().all(Option::is_some));
        }
    }

    #[test]
    fn appendix_b_speedup_shape() {
        // {AG_mc, RS_inc} vs {AG_ring, RS_ring} on the same fabric: the
        // measured speedup should approach 2 - 2/P.
        use mcag_baselines_shim::*;
        let p = 8u32;
        let n = 256 << 10;
        // Appendix B's fluid model has every rank's send path busy with
        // its own multicast; that corresponds to fully parallel chains
        // (M = P). With M = 1 the sequential root bursts each run at the
        // NIC's shared rate and the chain stretches ~2x.
        let opt = run_concurrent_ag_rs(
            star(p as usize),
            FabricConfig::ideal(),
            ProtocolConfig::parallel(1, p),
            n,
        );
        assert!(opt.stats.all_done());
        let t_opt = opt.pair_completion_ns();
        let t_ring = ring_ring_completion_ns(p, n);
        let s = t_ring as f64 / t_opt as f64;
        let expect = 2.0 - 2.0 / p as f64;
        assert!(
            (s - expect).abs() / expect < 0.35,
            "speedup {s:.2} vs expected {expect:.2}"
        );
    }

    /// Minimal ring+ring reference implemented locally (mcag-baselines
    /// depends on simnet, not on core, so tests shim the comparison here;
    /// the bench crate uses the real baselines executor).
    mod mcag_baselines_shim {
        use super::*;

        pub fn ring_ring_completion_ns(p: u32, n: usize) -> u64 {
            // Both rings move N(P-1) in each NIC direction, sharing the
            // link: the serialization bound is 2·N(P-1)/B plus per-hop
            // latencies; measure it on the fabric with a tiny
            // schedule-driven app rather than closed form.
            // Here: analytic lower bound with the same wire overhead
            // model used by the fabric (headers per 64 KiB segment).
            let link = LinkRate::CX3_56G;
            let seg: u64 = 64 << 10;
            let msgs = (n as u64).div_ceil(seg);
            let wire_per_step = link.serialization_ns(n + (msgs as usize) * 64);
            // 2 flows x (P-1) steps sharing the injection port.
            2 * (p as u64 - 1) * wire_per_step
        }
    }
}
