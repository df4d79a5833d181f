//! Executes point-to-point schedules on the discrete-event fabric.
//!
//! Large messages are segmented into simulation chunks so that store-and-
//! forward pipelining across switch hops emerges as in a real packetized
//! fabric. All baseline traffic rides the reliable connected transport
//! (RC), matching the production P2P stacks (UCX zero-copy rendezvous)
//! the paper benchmarks against.
//!
//! [`run_p2p_concurrent`] runs several independent schedules per rank at
//! once — that is how the concurrent `{Allgather, Reduce-Scatter}`
//! contention scenario of Section II / Appendix B is reproduced: both
//! collectives' flows share the NIC injection pipeline and fabric links.

use crate::schedule::Schedule;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{
    Ctx, Fabric, FabricConfig, MsgSegments, Payload, RankApp, SimTime, Topology, TrafficReport,
};
use mcag_verbs::{CollectiveId, Cqe, CqeOpcode, ImmLayout, Mtu, QpNum, Rank, Transport};

/// Default segmentation for unicast messages (64 KiB keeps event counts
/// tractable while preserving pipelining; pass a custom value for
/// fine-grained studies).
pub const DEFAULT_SEG_BYTES: usize = 64 << 10;

const TX_ALL_DONE: u64 = 10;

/// Immediate layout of a baseline segment: the flow index rides in the
/// collective-id bits, the (wrapping) per-rank segment counter in the PSN.
const FLOW_TAG: ImmLayout = ImmLayout::DEFAULT;

/// One flow = one schedule in execution.
struct FlowState {
    sched: Schedule,
    cursor: usize,
    /// Cumulative bytes received from each src rank (over the whole
    /// schedule) — FIFO channels make cumulative accounting exact.
    recvd_from: Vec<u64>,
    /// Cumulative receive thresholds per step per src, precomputed.
    thresholds: Vec<Vec<(u32, u64)>>,
    done_at: Option<SimTime>,
}

impl FlowState {
    fn new(sched: Schedule, p: usize) -> FlowState {
        let mut cum: Vec<u64> = vec![0; p];
        let thresholds = sched
            .steps
            .iter()
            .map(|step| {
                for r in &step.recvs {
                    cum[r.src.idx()] += r.bytes as u64;
                }
                step.recvs
                    .iter()
                    .map(|r| (r.src.0, cum[r.src.idx()]))
                    .collect()
            })
            .collect();
        FlowState {
            sched,
            cursor: 0,
            recvd_from: vec![0; p],
            thresholds,
            done_at: None,
        }
    }

    fn step_satisfied(&self) -> bool {
        self.thresholds[self.cursor]
            .iter()
            .all(|&(src, need)| self.recvd_from[src as usize] >= need)
    }

    fn is_done(&self) -> bool {
        self.cursor >= self.sched.steps.len()
    }
}

/// Per-rank executor over one or more concurrent flows.
pub struct ScheduleApp {
    flows: Vec<FlowState>,
    seg: usize,
    qp: QpNum,
    start: SimTime,
    next_psn: u32,
    all_posted: bool,
}

impl ScheduleApp {
    /// Build an executor for `rank` running `flows` concurrently. This
    /// rank's per-flow `(start, end)` records are read back with
    /// [`ScheduleApp::flow_times`] after the run.
    pub fn new(flows: Vec<Schedule>, p: usize, seg: usize, qp: QpNum) -> ScheduleApp {
        assert!(seg > 0);
        ScheduleApp {
            flows: flows.into_iter().map(|s| FlowState::new(s, p)).collect(),
            seg,
            qp,
            start: SimTime::ZERO,
            next_psn: 0,
            all_posted: false,
        }
    }

    /// This rank's `(start, end)` record for each flow, owned by the app
    /// and harvested by the driver (`None` for unfinished flows).
    pub fn flow_times(&self) -> Vec<Option<(SimTime, SimTime)>> {
        self.flows
            .iter()
            .map(|f| f.done_at.map(|e| (self.start, e)))
            .collect()
    }

    fn post_step_sends(&mut self, ctx: &mut Ctx<'_, ()>, flow_idx: usize) {
        let cursor = self.flows[flow_idx].cursor;
        let sends: Vec<(Rank, usize)> = self.flows[flow_idx].sched.steps[cursor]
            .sends
            .iter()
            .map(|s| (s.dst, s.bytes))
            .collect();
        for (dst, bytes) in sends {
            let mut left = bytes;
            while left > 0 {
                let this = left.min(self.seg);
                // One single-segment RC message per simulation chunk, so
                // each resolves its own route as it always has.
                ctx.post_unicast_message(
                    dst,
                    self.qp,
                    MsgSegments {
                        first_psn: self.next_psn,
                        chunks: 1,
                        buf_len: this,
                        mtu: Mtu::new(self.seg),
                        imm: FLOW_TAG,
                        coll: CollectiveId(flow_idx as u32),
                    },
                );
                self.next_psn = (self.next_psn + 1) & FLOW_TAG.max_psn();
                left -= this;
            }
        }
    }

    /// Advance all flows as far as receive thresholds allow.
    fn progress(&mut self, ctx: &mut Ctx<'_, ()>) {
        loop {
            let mut advanced = false;
            for f in 0..self.flows.len() {
                while !self.flows[f].is_done() && self.flows[f].step_satisfied() {
                    // Step complete: move to the next one and post its sends.
                    self.flows[f].cursor += 1;
                    if self.flows[f].is_done() {
                        self.flows[f].done_at = Some(ctx.now());
                    } else {
                        self.post_step_sends(ctx, f);
                    }
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
        if !self.all_posted && self.flows.iter().all(|f| f.is_done()) {
            self.all_posted = true;
            ctx.notify_tx_drained(self.qp, TX_ALL_DONE);
        }
    }
}

impl RankApp<()> for ScheduleApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        self.start = ctx.now();
        for f in 0..self.flows.len() {
            if self.flows[f].is_done() {
                // Empty schedule (e.g. broadcast root with no parent and
                // no children at P=... ) — completes immediately.
                self.flows[f].done_at = Some(ctx.now());
                continue;
            }
            self.post_step_sends(ctx, f);
        }
        self.progress(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ()>, cqe: &Cqe, _payload: &Payload<()>) {
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        let (flow, _) = FLOW_TAG.unpack(cqe.imm.expect("baseline chunk without flow tag"));
        self.flows[flow.0 as usize].recvd_from[cqe.src.idx()] += cqe.byte_len as u64;
        self.progress(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, _token: u64) {
        unreachable!("baselines arm no timers");
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
        assert_eq!(token, TX_ALL_DONE);
        ctx.mark_done();
    }
}

/// Outcome of a P2P run.
#[derive(Debug, Clone)]
pub struct P2POutcome {
    /// `(start, end)` per flow per rank.
    pub flow_times: Vec<Vec<Option<(SimTime, SimTime)>>>,
    /// Fabric statistics.
    pub stats: RunStats,
    /// Link counters.
    pub traffic: TrafficReport,
}

impl P2POutcome {
    /// Wall-clock of flow `f` (max end across ranks), ns.
    pub fn flow_completion_ns(&self, f: usize) -> u64 {
        self.flow_times[f]
            .iter()
            .flatten()
            .map(|(s, e)| e.since(*s))
            .max()
            .unwrap_or(0)
    }

    /// Per-rank receive throughput (Gbit/s) of flow `f`, given the bytes
    /// each rank receives; ranks with zero expected bytes are skipped.
    pub fn recv_gbps(&self, f: usize, recv_bytes: impl Fn(Rank) -> u64) -> Vec<f64> {
        self.flow_times[f]
            .iter()
            .enumerate()
            .filter_map(|(r, t)| {
                let (s, e) = (*t)?;
                let bytes = recv_bytes(Rank(r as u32));
                let ns = e.since(s);
                (bytes > 0 && ns > 0).then(|| bytes as f64 * 8.0 / ns as f64)
            })
            .collect()
    }
}

/// Run one schedule set (`schedules[rank]`) on `topo`.
pub fn run_p2p(
    topo: Topology,
    cfg: FabricConfig,
    schedules: Vec<Schedule>,
    seg: usize,
) -> P2POutcome {
    run_p2p_concurrent(topo, cfg, vec![schedules], seg)
}

/// Run several schedule sets concurrently (flow `f` of rank `r` is
/// `flows[f][r]`); all flows share NICs and links.
pub fn run_p2p_concurrent(
    topo: Topology,
    cfg: FabricConfig,
    flows: Vec<Vec<Schedule>>,
    seg: usize,
) -> P2POutcome {
    let p = topo.num_hosts();
    for fl in &flows {
        assert_eq!(fl.len(), p, "one schedule per rank");
    }
    let mut fab: Fabric<(), ScheduleApp> = Fabric::new(topo, cfg);
    let n_flows = flows.len();
    for r in 0..p {
        let rank = Rank(r as u32);
        let qp = fab.add_qp(rank, Transport::Rc, 0);
        let rank_flows: Vec<Schedule> = flows.iter().map(|fl| fl[r].clone()).collect();
        fab.set_app(rank, ScheduleApp::new(rank_flows, p, seg, qp));
    }
    let stats = fab.run();
    let traffic = fab.traffic();
    // Harvest each rank's owned per-flow records, then transpose to the
    // `[flow][rank]` layout the outcome exposes.
    let per_rank: Vec<Vec<Option<(SimTime, SimTime)>>> = fab
        .into_apps()
        .iter()
        .map(ScheduleApp::flow_times)
        .collect();
    let flow_times: Vec<Vec<Option<(SimTime, SimTime)>>> = (0..n_flows)
        .map(|f| per_rank.iter().map(|rank_rows| rank_rows[f]).collect())
        .collect();
    P2POutcome {
        flow_times,
        stats,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::*;
    use mcag_verbs::LinkRate;

    fn star(n: usize) -> Topology {
        Topology::single_switch(n, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn ring_allgather_runs() {
        let p = 8;
        let out = run_p2p(
            star(p),
            FabricConfig::ideal(),
            ring_allgather(p as u32, 64 << 10),
            DEFAULT_SEG_BYTES,
        );
        assert!(out.stats.all_done(), "{:?}", out.stats);
        // Ring time >= (P-1) * N / B.
        let min_ns = LinkRate::CX3_56G.serialization_ns(64 << 10) * (p as u64 - 1);
        assert!(out.flow_completion_ns(0) >= min_ns);
    }

    #[test]
    fn tree_broadcasts_run_and_order_sanely() {
        let p = 32u32;
        let n = 1 << 20;
        let mut times = Vec::new();
        for sched in [
            knomial_broadcast(p, Rank(0), n, 2),
            knomial_broadcast(p, Rank(0), n, 4),
            binary_tree_broadcast(p, Rank(0), n),
        ] {
            let out = run_p2p(star(p as usize), FabricConfig::ideal(), sched, 64 << 10);
            assert!(out.stats.all_done());
            times.push(out.flow_completion_ns(0));
        }
        // Binary tree must be the slowest of the three for large buffers
        // (every interior node forwards the buffer twice serially).
        assert!(
            times[2] >= times[0],
            "binary {} < binomial {}",
            times[2],
            times[0]
        );
    }

    #[test]
    fn concurrent_flows_share_bandwidth() {
        // AG and RS rings running together must take longer than either
        // alone (they compete for the same NIC send path).
        let p = 6u32;
        let n = 256 << 10;
        let ag_alone = run_p2p(
            star(p as usize),
            FabricConfig::ideal(),
            ring_allgather(p, n),
            64 << 10,
        );
        let both = run_p2p_concurrent(
            star(p as usize),
            FabricConfig::ideal(),
            vec![ring_allgather(p, n), ring_reduce_scatter(p, n)],
            64 << 10,
        );
        assert!(both.stats.all_done());
        let t_alone = ag_alone.flow_completion_ns(0);
        let t_both = both.flow_completion_ns(0).max(both.flow_completion_ns(1));
        assert!(
            t_both as f64 > t_alone as f64 * 1.5,
            "contention missing: alone {t_alone}, both {t_both}"
        );
    }
}
