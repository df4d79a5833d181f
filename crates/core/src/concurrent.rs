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
//! Allgather state machine beside a Reduce-Scatter in either reduction
//! placement — SHARP-style in the simulated switches, or on the
//! endpoints, where every owner folds its `P − 1` operand streams itself
//! (the no-offload reference `mcag-offload` compares backends against).
//! One [`RsApp`] implements both placements; the pair shares each NIC's
//! round-robin QP arbiter and every fabric link inside one
//! [`MultiCommApp`](crate::MultiCommApp) per rank.

use crate::des::RunBounds;
use crate::msg::ControlMsg;
use crate::multicomm::{self, Comm};
use crate::plan::{CollectiveKind, CollectivePlan};
use crate::protocol::RankTiming;
use crate::ProtocolConfig;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{
    Ctx, FabricConfig, MsgSegments, Payload, RankApp, SimTime, Topology, TrafficReport,
};
use mcag_verbs::{CollectiveId, Cqe, CqeOpcode, ImmLayout, McastGroupId, Mtu, QpNum, Rank};
use std::sync::Arc;

/// Drain-notification token used by [`RsApp`] (offset by the instance's
/// token base when several protocols share one rank;
/// [`MultiCommApp`](crate::MultiCommApp) routes `token % TOKEN_STRIDE ==
/// RS_TX_TOKEN` to the Reduce-Scatter).
/// Distinct from [`crate::protocol::McastRankApp`]'s cutoff timer (1) and
/// TX-drain tokens (≥ 16) so the two can share a token namespace.
pub(crate) const RS_TX_TOKEN: u64 = 5;

/// Reduce-Scatter endpoint: contributes every foreign shard — `N(P−1)`
/// bytes, eq. 2's RS send volume, one message per shard — and waits for
/// its own shard. Where the reduction happens is the constructor's
/// `reduce_group`:
///
/// * `Some(g)`: in-network (SHARP-style). Contributions enter `g`'s
///   switch reduction tree as one sweep work request
///   ([`Ctx::post_inc_sweep`]) and each owner receives its `N` reduced
///   bytes; the own shard's local contribution is folded in at
///   delivery, as SHARP endpoints do.
/// * `None`: on the endpoints. Every contribution is unicast to the
///   shard owner's twin QP, which folds the `P − 1` operand streams
///   locally — so each owner's down-link carries `N·(P − 1)` bytes where
///   the SHARP path carries `N`, the on-wire gap `backendfigs` measures.
pub struct RsApp {
    p: u32,
    me: Rank,
    shard_len: usize,
    mtu: Mtu,
    imm: ImmLayout,
    coll: CollectiveId,
    qp: QpNum,
    reduce_group: Option<McastGroupId>,
    chunks_per_shard: u32,
    got: u32,
    tx_done: bool,
    released: bool,
    token_base: u64,
    t_start: SimTime,
    t_done: Option<SimTime>,
}

impl RsApp {
    /// Build the endpoint. `shard_len` is `N` (bytes of the reduced shard
    /// each rank keeps; the input vector is `N·P`). `qp` must be the same
    /// rank-local QP number on every rank (SPMD wiring), since endpoint
    /// contributions target the owner's twin QP. The `(start, end)`
    /// completion record is read back with [`RsApp::times`] after the run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        p: u32,
        me: Rank,
        shard_len: usize,
        mtu: Mtu,
        imm: ImmLayout,
        coll: CollectiveId,
        qp: QpNum,
        reduce_group: Option<McastGroupId>,
    ) -> RsApp {
        RsApp {
            p,
            me,
            shard_len,
            mtu,
            imm,
            coll,
            qp,
            reduce_group,
            chunks_per_shard: mtu.chunks_for(shard_len) as u32,
            got: 0,
            tx_done: false,
            released: false,
            token_base: 0,
            t_start: SimTime::ZERO,
            t_done: None,
        }
    }

    /// Namespace this instance's drain token (its
    /// [`MultiCommApp`](crate::MultiCommApp) slot's token base).
    pub(crate) fn set_token_base(&mut self, base: u64) {
        self.token_base = base;
    }

    /// The QP this endpoint posts on and receives its shard through.
    pub(crate) fn qp(&self) -> QpNum {
        self.qp
    }

    /// Finished (own shard received and contributions drained)?
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// `(start, end)` completion record, owned by the app and harvested
    /// by the driver after the run (`None` until released).
    pub fn times(&self) -> Option<(SimTime, SimTime)> {
        self.t_done.map(|d| (self.t_start, d))
    }

    /// Chunks of the own shard to receive: one reduced stream in-network,
    /// `P − 1` operand streams on the endpoints.
    fn expected(&self) -> u32 {
        match self.reduce_group {
            Some(_) => self.chunks_per_shard,
            None => (self.p - 1) * self.chunks_per_shard,
        }
    }

    fn maybe_done(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if self.released || !self.tx_done || self.got < self.expected() {
            return;
        }
        self.released = true;
        self.t_done = Some(ctx.now());
    }
}

impl RankApp<ControlMsg> for RsApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.t_start = ctx.now();
        // Contribute every shard except our own, in owner order; the NIC
        // cuts each message into MTU segments.
        let seg = |shard: u32| MsgSegments {
            first_psn: shard * self.chunks_per_shard,
            chunks: self.chunks_per_shard,
            buf_len: self.shard_len,
            mtu: self.mtu,
            imm: self.imm,
            coll: self.coll,
        };
        match self.reduce_group {
            // One sweep request for all of them.
            Some(g) => ctx.post_inc_sweep(self.qp, g, 0..self.p, self.qp, seg(0)),
            // One message per shard.
            None => {
                for shard in (0..self.p).filter(|&s| s != self.me.0) {
                    ctx.post_unicast_message(Rank(shard), self.qp, seg(shard));
                }
            }
        }
        ctx.notify_tx_drained(self.qp, self.token_base + RS_TX_TOKEN);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: &Cqe, _payload: &Payload<ControlMsg>) {
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        let (coll, psn) = self.imm.unpack(cqe.imm.expect("shard chunk without imm"));
        assert_eq!(coll, self.coll, "crossed collective traffic");
        let shard = psn / self.chunks_per_shard;
        assert_eq!(shard, self.me.0, "received a shard we do not own");
        self.got += 1;
        self.maybe_done(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, ControlMsg>, _token: u64) {
        unreachable!("the Reduce-Scatter arms no timers");
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        assert_eq!(token, self.token_base + RS_TX_TOKEN);
        self.tx_done = true;
        self.maybe_done(ctx);
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
    /// Packets the fabric still held when the run ended
    /// ([`mcag_simnet::Fabric::live_packets`]); a completed run leaves
    /// none.
    pub live_packets: usize,
}

impl ConcurrentOutcome {
    /// Wall time until *both* collectives finished everywhere (ns);
    /// meaningful only when `stats.all_done()` (a censored run's open
    /// ranks count as 0).
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

/// Run the pair on a fresh fabric: the multicast Allgather of
/// `send_len` bytes (collective 1) beside the Reduce-Scatter of a
/// `send_len·P` vector (collective 2), reduced in a full-membership
/// switch group when `in_switch`, else on the endpoints. Censored at the
/// default [`RunBounds`] watchdog.
fn run_pair(
    topo: Topology,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    send_len: usize,
    in_switch: bool,
) -> ConcurrentOutcome {
    let plan = CollectivePlan::new(
        CollectiveKind::Allgather,
        topo.num_hosts() as u32,
        send_len,
        proto.mtu,
        proto.imm,
        CollectiveId(1),
        proto.subgroups,
        proto.chains,
    );
    let comm = Comm {
        plan: Arc::new(plan),
        rs_in_switch: Some(in_switch),
    };
    // The pair roughly doubles the drain time of each collective (they
    // share the NIC), so give the AG cutoff 3× the usual headroom.
    let bounds = RunBounds {
        cutoff_headroom: 3,
        ..RunBounds::default()
    };
    let out = multicomm::run(topo, fabric_cfg, &proto, &[comm], bounds);
    ConcurrentOutcome {
        ag_timings: out.slots.iter().map(|s| s.ag.timing()).collect(),
        rs_times: out.slots.iter().map(|s| s.rs.as_ref()?.times()).collect(),
        stats: out.stats,
        traffic: out.traffic,
        live_packets: out.live_packets,
    }
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
    run_pair(topo, fabric_cfg, proto, send_len, true)
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
    run_pair(topo, fabric_cfg, proto, send_len, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectiveKind;
    use mcag_verbs::LinkRate;

    fn star(n: usize) -> Topology {
        Topology::single_switch(n, LinkRate::CX3_56G, 100)
    }

    /// The Reduce-Scatter's own payload bytes on an ideal fabric: the
    /// pair's `(host injection, host delivery, all links)` minus the same
    /// Allgather run alone. Neither run fetches, so the Allgather moves
    /// the same bytes in both.
    fn rs_bytes(p: usize, n: usize, in_switch: bool) -> (u64, u64, u64) {
        let (cfg, proto) = (FabricConfig::ideal(), ProtocolConfig::default());
        let ag = crate::run_collective(star(p), cfg.clone(), proto, CollectiveKind::Allgather, n);
        let pair = run_pair(star(p), cfg, proto, n, in_switch);
        assert!(ag.stats.all_done() && pair.stats.all_done());
        assert_eq!(ag.total_fetched(), 0);
        assert_eq!(
            pair.ag_timings
                .iter()
                .map(|t| t.fetched_chunks)
                .sum::<u64>(),
            0
        );
        let topo = star(p);
        let bytes = |t: &TrafficReport| {
            let (inj, del) = (t.host_injection_bytes(&topo), t.host_delivery_bytes(&topo));
            (inj, del, t.total_data_bytes())
        };
        let (pair, ag) = (bytes(&pair.traffic), bytes(&ag.traffic));
        (pair.0 - ag.0, pair.1 - ag.1, pair.2 - ag.2)
    }

    #[test]
    fn inc_reduce_scatter_completes() {
        let out = run_concurrent_ag_rs(
            star(6),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            64 << 10,
        );
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
        let (_, _, total) = rs_bytes(p as usize, n as usize, true);
        // P uplinks x N(P-1) + P downlinks x N.
        assert_eq!(total, p * n * (p - 1) + p * n);
    }

    #[test]
    fn endpoint_reduce_scatter_completes() {
        let out = run_concurrent_ag_rs_endpoint(
            star(6),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            64 << 10,
        );
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
        let (_, _, endpoint) = rs_bytes(p as usize, n as usize, false);
        assert_eq!(
            endpoint,
            2 * p * n * (p - 1),
            "P uplinks and P downlinks each moving N(P-1)"
        );
        let (_, _, inc) = rs_bytes(p as usize, n as usize, true);
        assert!(inc < endpoint, "in-switch reduction must move fewer bytes");
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
