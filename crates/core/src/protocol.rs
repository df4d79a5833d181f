//! The per-rank protocol state machine for multicast Broadcast/Allgather
//! on the discrete-event fabric.
//!
//! One state machine implements both collectives (they share the plan,
//! datapath, and reliability machinery; only the root list differs). The
//! lifecycle follows Fig. 9:
//!
//! 1. **RNR synchronization** — receives are pre-posted (the fabric model
//!    pre-posts the RQ), then the recursive-doubling barrier runs over the
//!    reliable control QP.
//! 2. **Multicast datapath** — step-0 roots fragment and multicast their
//!    buffer across the subgroup QPs; when a root's send path drains it
//!    passes the activation signal to its chain successor. Leaves set
//!    bitmap bits as CQEs surface.
//! 3. **Reliability** — a cutoff timer (`N/B_link + α`) arms when the
//!    multicast phase begins; if it fires with holes in the bitmap, the
//!    rank requests its missing PSN ranges from its *left* ring neighbor,
//!    which ACKs the ranges it can serve immediately and defers the rest
//!    until its own recovery completes (the recursive scheme); served
//!    ranges are fetched with one-sided RDMA Reads.
//! 4. **Final handshake** — a complete rank sends the final packet to its
//!    left neighbor; holding both local completeness and the right
//!    neighbor's final packet releases the receive buffer.

use crate::barrier::{BarrierAction, BarrierActions, BarrierState};
use crate::bitmap::ChunkBitmap;
use crate::msg::{ControlMsg, RangeList};
use crate::plan::CollectivePlan;
use mcag_simnet::{Ctx, Payload, RankApp, SimTime};
use mcag_verbs::{Cqe, CqeOpcode, McastGroupId, QpNum, Rank};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Timer token for the reliability cutoff.
const TIMER_CUTOFF: u64 = 1;
/// Base TX-drain token: token `TX_DONE_BASE + j` means subgroup `j`'s
/// send queue drained; the root's multicast is finished when all
/// subgroup queues have drained.
const TX_DONE_BASE: u64 = 16;
/// Token-space stride between protocol instances sharing one rank
/// (multiple communicators, Section V-C): instance `i` uses tokens
/// `[i*TOKEN_STRIDE, (i+1)*TOKEN_STRIDE)`.
pub const TOKEN_STRIDE: u64 = 1024;

/// Per-rank phase timestamps and datapath statistics, the raw material of
/// Fig. 10 (critical-path breakdown) and Fig. 11 (throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTiming {
    /// Collective start.
    pub t_start: SimTime,
    /// RNR synchronization (barrier) completed.
    pub t_barrier: Option<SimTime>,
    /// Own multicast finished draining (roots only).
    pub t_tx_done: Option<SimTime>,
    /// Receive buffer complete (all chunks present).
    pub t_complete: Option<SimTime>,
    /// Final handshake done; buffer released to the application.
    pub t_done: Option<SimTime>,
    /// Chunks recovered through the slow path.
    pub fetched_chunks: u64,
    /// Duplicate datagrams discarded by the bitmap.
    pub duplicate_chunks: u64,
    /// Recovery activations (cutoff timer firings that found holes).
    pub recovery_rounds: u32,
}

impl RankTiming {
    /// RNR-synchronization phase duration (ns).
    pub fn sync_ns(&self) -> u64 {
        self.t_barrier.map_or(0, |t| t.since(self.t_start))
    }

    /// Multicast datapath phase duration (ns): barrier end → buffer
    /// complete (and own send drained, for roots).
    pub fn datapath_ns(&self) -> u64 {
        let (Some(b), Some(c)) = (self.t_barrier, self.t_complete) else {
            return 0;
        };
        let end = match self.t_tx_done {
            Some(t) => t.max(c),
            None => c,
        };
        end.since(b)
    }

    /// Final-synchronization phase duration (ns).
    pub fn final_sync_ns(&self) -> u64 {
        let (Some(c), Some(d)) = (self.t_complete, self.t_done) else {
            return 0;
        };
        let start = match self.t_tx_done {
            Some(t) => t.max(c),
            None => c,
        };
        d.since(start)
    }

    /// Total collective duration (ns).
    pub fn total_ns(&self) -> u64 {
        self.t_done.map_or(0, |t| t.since(self.t_start))
    }
}

/// One endpoint's QPs, the same on every rank (SPMD): the reliable
/// control ring and one UD multicast QP per subgroup, laid out by
/// [`crate::multicomm::run`] as consecutive numbers — subgroup `j`'s QP
/// follows the control QP by `j + 1` and joins the `j`-th of the
/// communicator's consecutive groups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QpLayout {
    /// Reliable (RC) control QP.
    pub ctrl: QpNum,
    /// Subgroup 0's multicast group.
    pub first_group: McastGroupId,
    /// Multicast subgroups (one UD QP and one group each).
    pub subgroups: u32,
}

impl QpLayout {
    /// Subgroup `j`'s UD QP.
    pub fn subgroup_qp(&self, j: u32) -> QpNum {
        QpNum(self.ctrl.0 + 1 + j)
    }

    /// Subgroup `j`'s multicast group.
    pub fn group(&self, j: u32) -> McastGroupId {
        McastGroupId(self.first_group.0 + j)
    }
}

/// The protocol endpoint: implements [`RankApp`] over the DES fabric.
pub struct McastRankApp {
    plan: Arc<CollectivePlan>,
    me: Rank,
    qps: QpLayout,
    cutoff_ns: u64,
    bitmap: ChunkBitmap,
    barrier: BarrierState,
    /// Phase timestamps, owned by the app and harvested by the driver
    /// after the run ([`McastRankApp::timing`]) — no shared result sink,
    /// so a fully wired simulation stays `Send`.
    timing: RankTiming,

    mcast_started: bool,
    tx_done: bool,
    complete: bool,
    final_sent: bool,
    final_received: bool,
    released: bool,

    /// Offset added to all timer/drain tokens so that several protocol
    /// instances (communicators) on one rank never collide.
    token_base: u64,
    /// Subgroup send queues still draining (roots only).
    pending_drains: u32,
    /// Reads by tag, from tag `first_tag` on: the global-PSN range a
    /// read in flight is fetching, `None` once it landed. Tags are
    /// sequence numbers, so this is a window over them, not a map; it
    /// drops its completed front.
    outstanding_reads: VecDeque<Option<Range<u32>>>,
    first_tag: u64,
    /// Requests this rank could not fully serve yet: requester → ranges
    /// still owed (sent as a supplementary ACK once complete).
    pending_serve: Vec<(Rank, RangeList)>,
    /// Scratch for re-splitting an owed list, swapped with it so that a
    /// debt settled in parts reuses its two buffers.
    owe_scratch: RangeList,
}

impl McastRankApp {
    /// Build the endpoint for `me`. `cutoff_ns` is the reliability
    /// timeout (`expected_bytes / B_link + α`, precomputed by the
    /// driver). Final timings are read back with [`McastRankApp::timing`]
    /// once the run completes.
    pub(crate) fn new(
        plan: Arc<CollectivePlan>,
        me: Rank,
        qps: QpLayout,
        cutoff_ns: u64,
    ) -> McastRankApp {
        let p = plan.num_ranks();
        let mut bitmap = ChunkBitmap::new(plan.total_chunks() as usize);
        // The local block is already in place (zero-copy: the send buffer
        // region of the receive buffer is the rank's own contribution).
        if let Some(idx) = plan.root_index(me) {
            for psn in plan.root_psn_range(idx) {
                bitmap.set(psn);
            }
        }
        McastRankApp {
            barrier: BarrierState::new(me, p),
            plan,
            me,
            qps,
            cutoff_ns,
            bitmap,
            timing: RankTiming::default(),
            mcast_started: false,
            tx_done: false,
            complete: false,
            final_sent: false,
            final_received: false,
            released: false,
            token_base: 0,
            pending_drains: 0,
            outstanding_reads: VecDeque::new(),
            first_tag: 1,
            pending_serve: Vec::new(),
            owe_scratch: RangeList::new(),
        }
    }

    /// Namespace this instance's timer/drain tokens (communicator index
    /// times [`TOKEN_STRIDE`]); [`crate::MultiCommApp`] routes events
    /// back by `token / TOKEN_STRIDE`.
    pub(crate) fn set_token_base(&mut self, base: u64) {
        self.token_base = base;
    }

    /// The control QP, the first of this endpoint's consecutive QPs.
    pub(crate) fn ctrl_qp(&self) -> QpNum {
        self.qps.ctrl
    }

    /// Has this rank released its receive buffer (collective finished)?
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// This rank's phase timestamps and datapath statistics so far
    /// (complete once the rank released). Drivers read it after the run
    /// from the apps [`mcag_simnet::Fabric::into_apps`] returns.
    pub fn timing(&self) -> RankTiming {
        self.timing
    }

    fn left(&self) -> Rank {
        self.me.ring_left(self.plan.num_ranks())
    }

    fn run_barrier_actions(&mut self, ctx: &mut Ctx<'_, ControlMsg>, actions: BarrierActions) {
        for a in actions {
            match a {
                BarrierAction::Send { to, round } => {
                    let m = ControlMsg::Barrier { round };
                    let len = m.wire_payload();
                    ctx.post_msg(to, self.qps.ctrl, m, len);
                }
                BarrierAction::Done => self.on_barrier_done(ctx),
            }
        }
    }

    fn on_barrier_done(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.timing.t_barrier = Some(ctx.now());
        // Entering the multicast phase: leaves start polling and arm the
        // cutoff timer (Section III-C). Roots with no inbound data skip it.
        if self.plan.expected_chunks(self.me) > 0 {
            ctx.set_timer(self.cutoff_ns, self.token_base + TIMER_CUTOFF);
        }
        if let Some(idx) = self.plan.root_index(self.me) {
            if self.plan.sequencer().starts_immediately(idx) {
                self.start_multicast(ctx);
            }
        }
        self.check_complete(ctx);
    }

    fn start_multicast(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        assert!(!self.mcast_started, "{} double activation", self.me);
        self.mcast_started = true;
        let idx = self
            .plan
            .root_index(self.me)
            .expect("non-root rank activated");
        // Zero-copy fragmentation: one datagram per chunk, PSN in the
        // immediate field, spread across the subgroup QPs.
        for local in 0..self.plan.chunks_per_root() {
            let psn = self.plan.global_psn(idx, local);
            let sub = self.plan.subgroup_of(local);
            ctx.post_mcast_chunk(
                self.qps.subgroup_qp(sub),
                self.qps.group(sub),
                self.plan.imm_for(psn),
                self.me,
                psn,
                self.plan.chunk_len(psn),
            );
        }
        self.pending_drains = self.qps.subgroups;
        for j in 0..self.qps.subgroups {
            let token = self.token_base + TX_DONE_BASE + j as u64;
            ctx.notify_tx_drained(self.qps.subgroup_qp(j), token);
        }
    }

    fn handle_chunk(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe) {
        let imm = cqe.imm.expect("multicast datagram without immediate");
        let (coll, psn) = self.plan.imm_layout().unpack(imm);
        assert_eq!(coll, self.plan.coll_id(), "crossed collective traffic");
        if self.bitmap.set(psn) {
            // The common case is the bitmap set alone (Section III-D(c)):
            // with no debt open and chunks still missing, there is
            // nothing to settle and nothing to finalize.
            if self.pending_serve.is_empty() && !self.bitmap.is_complete() {
                return;
            }
            self.check_complete(ctx);
        } else {
            self.timing.duplicate_chunks += 1;
        }
    }

    fn handle_ctrl(&mut self, ctx: &mut Ctx<'_, ControlMsg>, src: Rank, msg: ControlMsg) {
        match msg {
            ControlMsg::Barrier { round } => {
                let actions = self.barrier.on_msg(round);
                self.run_barrier_actions(ctx, actions);
            }
            ControlMsg::Activate => self.start_multicast(ctx),
            ControlMsg::FinalPkt => {
                assert_eq!(
                    src,
                    self.me.ring_right(self.plan.num_ranks()),
                    "final packet from a non-neighbor"
                );
                self.final_received = true;
                self.maybe_release(ctx);
            }
            ControlMsg::FetchReq { ranges } => self.serve_fetch(ctx, src, ranges),
            ControlMsg::FetchAck { ranges } => self.issue_reads(ctx, ranges),
        }
    }

    /// Split `ranges` by current bitmap state; ACK the servable part now
    /// and owe the rest. Owed ranges are re-examined on every bitmap
    /// update ([`Self::resolve_pending_serves`]), so chunks propagate
    /// around the recovery ring hop-by-hop as they land — the recursive
    /// scheme of Section III-C. Waiting for *completeness* instead would
    /// deadlock when every rank misses a chunk its left neighbor also
    /// misses.
    fn serve_fetch(&mut self, ctx: &mut Ctx<'_, ControlMsg>, requester: Rank, ranges: RangeList) {
        let mut have = RangeList::new();
        let mut owe = RangeList::new();
        for r in ranges.iter() {
            split_by_bitmap(&self.bitmap, r.clone(), &mut have, &mut owe);
        }
        if !have.is_empty() {
            let m = ControlMsg::FetchAck { ranges: have };
            let len = m.wire_payload();
            ctx.post_msg(requester, self.qps.ctrl, m, len);
        }
        if !owe.is_empty() {
            self.pending_serve.push((requester, owe));
        }
    }

    /// Serve any owed ranges that have since become available. This runs
    /// on every chunk arrival while a debt is open, so a debt none of
    /// whose chunks has landed is left as it is, without a rebuild.
    fn resolve_pending_serves(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        let (bitmap, ctrl, owe) = (&self.bitmap, self.qps.ctrl, &mut self.owe_scratch);
        self.pending_serve.retain_mut(|(requester, owed)| {
            if !owed.iter().any(|r| bitmap.any_present(r.clone())) {
                return true;
            }
            let mut have = RangeList::new();
            owe.clear();
            for r in owed.iter() {
                split_by_bitmap(bitmap, r.clone(), &mut have, owe);
            }
            let m = ControlMsg::FetchAck { ranges: have };
            let len = m.wire_payload();
            ctx.post_msg(*requester, ctrl, m, len);
            std::mem::swap(owed, owe);
            !owed.is_empty()
        });
    }

    /// RDMA-Read the still-missing parts of the ACKed ranges from the
    /// left neighbor's receive buffer (identical layout on every rank).
    fn issue_reads(&mut self, ctx: &mut Ctx<'_, ControlMsg>, ranges: RangeList) {
        let left = self.left();
        for acked in ranges.iter() {
            for r in self.bitmap.missing_runs_in(acked.clone()) {
                // Also skip ranges already being fetched.
                if self
                    .outstanding_reads
                    .iter()
                    .flatten()
                    .any(|o| o.start < r.end && r.start < o.end)
                {
                    continue;
                }
                let bytes: usize = r.clone().map(|p| self.plan.chunk_len(p)).sum();
                let tag = self.first_tag + self.outstanding_reads.len() as u64;
                self.outstanding_reads.push_back(Some(r));
                ctx.post_rdma_read(self.qps.ctrl, left, bytes, tag);
            }
        }
    }

    fn handle_read_done(&mut self, ctx: &mut Ctx<'_, ControlMsg>, tag: u64) {
        let range = tag
            .checked_sub(self.first_tag)
            .and_then(|i| self.outstanding_reads.get_mut(i as usize))
            .and_then(Option::take)
            .expect("read completion with unknown tag");
        while let Some(None) = self.outstanding_reads.front() {
            self.outstanding_reads.pop_front();
            self.first_tag += 1;
        }
        let newly = self.bitmap.set_range(range);
        self.timing.fetched_chunks += newly as u64;
        self.check_complete(ctx);
    }

    fn check_complete(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        // Chunks that just landed may settle debts to recovering peers.
        self.resolve_pending_serves(ctx);
        if self.complete || !self.bitmap.is_complete() {
            self.maybe_finalize(ctx);
            return;
        }
        self.complete = true;
        self.timing.t_complete = Some(ctx.now());
        self.maybe_finalize(ctx);
    }

    fn maybe_finalize(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if self.final_sent || !self.complete {
            return;
        }
        // Roots must also have drained their own multicast before they can
        // declare themselves finished.
        if self.plan.root_index(self.me).is_some() && !self.tx_done {
            return;
        }
        self.final_sent = true;
        let m = ControlMsg::FinalPkt;
        let len = m.wire_payload();
        ctx.post_msg(self.left(), self.qps.ctrl, m, len);
        self.maybe_release(ctx);
    }

    fn maybe_release(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        if self.released || !self.final_sent || !self.final_received {
            return;
        }
        self.released = true;
        self.timing.t_done = Some(ctx.now());
    }

    fn start_recovery(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        let runs: RangeList = self.bitmap.missing_runs().collect();
        debug_assert!(!runs.is_empty());
        self.timing.recovery_rounds += 1;
        let m = ControlMsg::FetchReq { ranges: runs };
        let len = m.wire_payload();
        ctx.post_msg(self.left(), self.qps.ctrl, m, len);
    }
}

impl RankApp<ControlMsg> for McastRankApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
        self.timing.t_start = ctx.now();
        let actions = self.barrier.start();
        self.run_barrier_actions(ctx, actions);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, payload: Payload<ControlMsg>) {
        match (cqe.opcode, payload) {
            (CqeOpcode::Recv, Payload::Msg(m)) => {
                let src = cqe.src.expect("control message without source");
                self.handle_ctrl(ctx, src, m);
            }
            (CqeOpcode::Recv, Payload::Chunk { .. }) => self.handle_chunk(ctx, cqe),
            (CqeOpcode::RdmaReadDone, _) => self.handle_read_done(ctx, cqe.wr_id),
            (op, p) => panic!("{} got unexpected completion {op:?}/{p:?}", self.me),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        assert_eq!(token, self.token_base + TIMER_CUTOFF);
        if self.complete {
            return; // timer raced with completion — nothing to recover
        }
        self.start_recovery(ctx);
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
        assert!(
            token >= self.token_base + TX_DONE_BASE,
            "unexpected drain token {token}"
        );
        assert!(self.pending_drains > 0);
        self.pending_drains -= 1;
        if self.pending_drains > 0 {
            return; // other subgroup queues still draining
        }
        self.tx_done = true;
        self.timing.t_tx_done = Some(ctx.now());
        let idx = self.plan.root_index(self.me).expect("non-root TX drain");
        if let Some(succ) = self.plan.sequencer().successor(idx) {
            let to = self.plan.roots()[succ as usize];
            let m = ControlMsg::Activate;
            let len = m.wire_payload();
            ctx.post_msg(to, self.qps.ctrl, m, len);
        }
        self.maybe_finalize(ctx);
    }
}

/// Split `range` into maximal sub-ranges of present (`have`) and missing
/// (`miss`) chunks according to `bitmap`.
fn split_by_bitmap(
    bitmap: &ChunkBitmap,
    range: Range<u32>,
    have: &mut RangeList,
    miss: &mut RangeList,
) {
    let mut i = range.start;
    while i < range.end {
        let present = bitmap.get(i);
        let start = i;
        while i < range.end && bitmap.get(i) == present {
            i += 1;
        }
        if present {
            have.push(start..i);
        } else {
            miss.push(start..i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_bitmap_partitions() {
        let mut bm = ChunkBitmap::new(10);
        for i in [2, 3, 7] {
            bm.set(i);
        }
        let (mut have, mut miss) = (RangeList::new(), RangeList::new());
        split_by_bitmap(&bm, 0..10, &mut have, &mut miss);
        assert_eq!(&*have, &[2..4, 7..8]);
        assert_eq!(&*miss, &[0..2, 4..7, 8..10]);
    }

    #[test]
    fn split_by_bitmap_subrange() {
        let mut bm = ChunkBitmap::new(10);
        bm.set(5);
        let (mut have, mut miss) = (RangeList::new(), RangeList::new());
        split_by_bitmap(&bm, 4..7, &mut have, &mut miss);
        assert_eq!((have.len(), have[0].clone()), (1, 5..6));
        assert_eq!(&*miss, &[4..5, 6..7]);
    }

    /// Rank 1 of a two-rank Broadcast it roots, scripted: it joins the
    /// barrier and asks rank 0 for chunk 2 before rank 0 has it; once
    /// that request has left, it multicasts chunk 2 alone (when
    /// `send_chunk`). It records the ranges rank 0 ACKs.
    struct Script {
        plan: Arc<CollectivePlan>,
        qps: QpLayout,
        send_chunk: bool,
        acks: Vec<RangeList>,
    }

    enum Node {
        Leaf(Box<McastRankApp>),
        Root(Script),
    }

    impl RankApp<ControlMsg> for Node {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ControlMsg>) {
            match self {
                Node::Leaf(app) => app.on_start(ctx),
                Node::Root(s) => {
                    let ctrl = s.qps.ctrl;
                    ctx.post_msg(Rank(0), ctrl, ControlMsg::Barrier { round: 0 }, 16);
                    let req = ControlMsg::FetchReq {
                        ranges: std::iter::once(2..3).collect(),
                    };
                    let len = req.wire_payload();
                    ctx.post_msg(Rank(0), ctrl, req, len);
                    ctx.notify_tx_drained(ctrl, 0);
                }
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, ControlMsg>, cqe: Cqe, p: Payload<ControlMsg>) {
            match (self, p) {
                (Node::Leaf(app), p) => app.on_cqe(ctx, cqe, p),
                (Node::Root(s), Payload::Msg(ControlMsg::FetchAck { ranges })) => {
                    s.acks.push(ranges)
                }
                (Node::Root(_), _) => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, ControlMsg>, token: u64) {
            if let Node::Leaf(app) = self {
                app.on_timer(ctx, token);
            }
        }

        fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, ControlMsg>, _token: u64) {
            let Node::Root(s) = self else {
                unreachable!("the leaf roots nothing")
            };
            if s.send_chunk {
                let (qp, group) = (s.qps.subgroup_qp(0), s.qps.group(0));
                let len = s.plan.chunk_len(2);
                ctx.post_mcast_chunk(qp, group, s.plan.imm_for(2), Rank(1), 2, len);
            }
        }
    }

    /// Run the scripted pair; returns the leaf and the root's ACKs.
    fn debt_pair(send_chunk: bool) -> (Box<McastRankApp>, Vec<RangeList>) {
        use mcag_simnet::{Fabric, FabricConfig, Topology};
        use mcag_verbs::{CollectiveId, ImmLayout, LinkRate, Mtu, Transport};
        let plan = Arc::new(CollectivePlan::new(
            crate::plan::CollectiveKind::Broadcast { root: Rank(1) },
            2,
            4 * 4096,
            Mtu::IB_4K,
            ImmLayout::DEFAULT,
            CollectiveId(1),
            1,
            1,
        ));
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<ControlMsg, Node> = Fabric::new(topo, FabricConfig::ucc_default());
        let group = fab.create_group(&[Rank(0), Rank(1)]);
        for r in [Rank(0), Rank(1)] {
            let qps = QpLayout {
                ctrl: fab.add_qp(r, Transport::Rc, 0),
                first_group: group,
                subgroups: 1,
            };
            let ud = fab.add_qp(r, Transport::Ud, 0);
            fab.attach(r, ud, group);
            let plan = Arc::clone(&plan);
            fab.set_app(
                r,
                match r {
                    // A cutoff far beyond the run: no recovery of its own.
                    Rank(0) => Node::Leaf(Box::new(McastRankApp::new(plan, r, qps, 1 << 40))),
                    _ => Node::Root(Script {
                        plan,
                        qps,
                        send_chunk,
                        acks: Vec::new(),
                    }),
                },
            );
        }
        fab.run_until(SimTime(1_000_000));
        let mut apps = fab.into_apps().into_iter();
        match (apps.next(), apps.next()) {
            (Some(Node::Leaf(leaf)), Some(Node::Root(root))) => (leaf, root.acks),
            _ => unreachable!("rank 0 is the leaf, rank 1 the root"),
        }
    }

    #[test]
    fn an_open_debt_is_settled_on_the_next_fresh_chunk() {
        // Without the chunk the request stays owed: rank 0 had nothing
        // to serve when it arrived.
        let (leaf, acks) = debt_pair(false);
        assert!(acks.is_empty());
        assert_eq!(leaf.pending_serve.len(), 1);
        assert!(!leaf.bitmap.get(2));
        // The chunk lands with the debt open and the bitmap incomplete:
        // its handler settles the debt there and then.
        let (leaf, acks) = debt_pair(true);
        assert!(leaf.bitmap.get(2) && !leaf.bitmap.is_complete());
        assert!(leaf.pending_serve.is_empty());
        assert_eq!(acks.len(), 1);
        assert_eq!((acks[0].len(), acks[0][0].clone()), (1, 2..3));
    }

    #[test]
    fn timing_phase_math() {
        let t = RankTiming {
            t_start: SimTime(100),
            t_barrier: Some(SimTime(300)),
            t_tx_done: Some(SimTime(900)),
            t_complete: Some(SimTime(800)),
            t_done: Some(SimTime(1000)),
            ..Default::default()
        };
        assert_eq!(t.sync_ns(), 200);
        // Datapath runs until max(tx_done, complete) = 900.
        assert_eq!(t.datapath_ns(), 600);
        assert_eq!(t.final_sync_ns(), 100);
        assert_eq!(t.total_ns(), 900);
    }
}
