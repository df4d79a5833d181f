//! The endpoint application interface: protocol state machines implement
//! [`RankApp`] and interact with the fabric through [`Ctx`].
//!
//! Everything is event-driven: the fabric calls back into the app when a
//! completion surfaces from a worker thread, when a timer fires, or when
//! the NIC send queue drains; the app responds by posting work requests.
//! This mirrors the structure of the paper's progress engine (Fig. 9):
//! the application thread and the TX/RX workers communicate through
//! queues and signals, and all data-plane work happens in reaction to
//! completions.

use crate::fabric::Inner;
use crate::time::SimTime;
use mcag_verbs::{CollectiveId, Cqe, ImmData, ImmLayout, McastGroupId, Mtu, QpNum, Rank};
use std::ops::Range;

/// What a delivered packet carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload<M> {
    /// A data chunk descriptor: `origin`'s buffer chunk number `psn`.
    /// (The DES moves descriptors, not bytes; the threaded memfabric is
    /// where real payload bytes flow.)
    Chunk {
        /// Rank whose send buffer this chunk belongs to.
        origin: Rank,
        /// Chunk index within `origin`'s send buffer.
        psn: u32,
    },
    /// A protocol control message.
    Msg(M),
    /// No payload (e.g. RDMA read completions identified by `wr_id`).
    Empty,
}

/// How a reliable message is cut into packets: `chunks` consecutive PSNs
/// of one `buf_len`-byte buffer, one MTU segment each — the unit an RC
/// queue pair takes as a single work request. The NIC segments it when it
/// injects, so a posted message costs one send-queue entry however long
/// it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSegments {
    /// PSN of the buffer's first chunk.
    pub first_psn: u32,
    /// Chunks to send (≥ 1, at most `mtu.chunks_for(buf_len)`).
    pub chunks: u32,
    /// Length of the buffer the chunks are cut from; only its last chunk
    /// may be short.
    pub buf_len: usize,
    /// Segment size.
    pub mtu: Mtu,
    /// Immediate-data layout every segment's `(coll, psn)` is packed with.
    pub imm: ImmLayout,
    /// Collective the message belongs to.
    pub coll: CollectiveId,
}

impl MsgSegments {
    /// `(psn, imm, payload_len)` of segment `k < chunks` — what a
    /// per-chunk posting loop over the buffer would have computed.
    #[inline]
    pub fn segment(&self, k: u32) -> (u32, ImmData, usize) {
        debug_assert!(k < self.chunks);
        let psn = self.first_psn + k;
        let len = self.mtu.chunk_range(k, self.buf_len).len();
        (psn, self.imm.pack(self.coll, psn), len)
    }
}

/// A per-rank protocol endpoint driven by the fabric.
///
/// A [`crate::Fabric`] holds its apps by value, one per rank, as its
/// app type parameter; drivers read the results an app owns out of
/// [`crate::Fabric::into_apps`] after the run. The `Send` supertrait
/// guarantees — at compile time — that a fully wired simulation (fabric
/// plus apps) can move to a worker thread of the fork-join sweep
/// executor. An app holding an `Rc`/`RefCell` result sink fails to
/// *build*, rather than silently re-serializing every sweep.
pub trait RankApp<M>: Send {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// A completion surfaced from one of this rank's RX workers.
    fn on_cqe(&mut self, ctx: &mut Ctx<'_, M>, cqe: Cqe, payload: Payload<M>);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64);

    /// The NIC send queue fully drained (requested via
    /// [`Ctx::notify_tx_drained`]) — the DES equivalent of the send worker
    /// observing its batched send completions.
    fn on_tx_drained(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}
}

/// A boxed app is an app: the default app type of [`crate::Fabric`], for
/// fabrics whose ranks run different app types.
impl<M: 'static> RankApp<M> for Box<dyn RankApp<M>> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_start(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, M>, cqe: Cqe, payload: Payload<M>) {
        (**self).on_cqe(ctx, cqe, payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        (**self).on_timer(ctx, token);
    }

    fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        (**self).on_tx_drained(ctx, token);
    }
}

/// Handle through which an app interacts with the fabric.
pub struct Ctx<'a, M> {
    pub(crate) inner: &'a mut Inner<M>,
    pub(crate) rank: Rank,
}

impl<M: Clone + 'static> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total ranks in the fabric.
    pub fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    /// Post a multicast datagram carrying chunk `psn` of `origin`'s buffer
    /// (normally `origin == self.rank()`; relays would differ). `len` is
    /// the payload length in bytes.
    pub fn post_mcast_chunk(
        &mut self,
        qp: QpNum,
        group: McastGroupId,
        imm: ImmData,
        origin: Rank,
        psn: u32,
        len: usize,
    ) {
        self.inner
            .post_mcast(self.rank, qp, group, imm, origin, psn, len);
    }

    /// Post a reliable control message to `dst` (slow-path RC semantics:
    /// never dropped, still consumes wire time).
    pub fn post_msg(&mut self, dst: Rank, dst_qp: QpNum, msg: M, len: usize) {
        self.inner.post_msg(self.rank, dst, dst_qp, msg, len);
    }

    /// Post one reliable (RC) two-sided message of this rank's data to
    /// `dst`: `seg.chunks` packets on one route, injected a segment per
    /// arbitration turn of the send queue.
    pub fn post_unicast_message(&mut self, dst: Rank, dst_qp: QpNum, seg: MsgSegments) {
        self.inner.post_unicast(self.rank, dst, dst_qp, seg);
    }

    /// Issue a one-sided RDMA Read of `len` bytes from `dst` over `qp`
    /// (RC): the remote NIC answers in hardware; completion arrives as a
    /// [`mcag_verbs::CqeOpcode::RdmaReadDone`] CQE with `wr_id == tag`.
    pub fn post_rdma_read(&mut self, qp: QpNum, dst: Rank, len: usize, tag: u64) {
        self.inner.post_rdma_read(self.rank, qp, dst, len, tag);
    }

    /// Contribute to an in-network reduction over `group` the shard of
    /// every rank in `owners` except this one, in owner order, as a single
    /// work request (a chained work-request list): switches merge each
    /// chunk's contributions up the tree and every owner receives one
    /// reduced chunk per PSN on `owner_qp` — the SHARP-style
    /// Reduce-Scatter substrate of Section II.
    ///
    /// `seg` is the message to `owners.start`; the shards are laid out
    /// owner-major, so owner `o`'s message is `seg` moved
    /// `(o − owners.start) · seg.chunks` PSNs on. The NIC segments the
    /// sweep an MTU per arbitration turn, exactly as it would the
    /// separate messages; a range of one owner is one message.
    pub fn post_inc_sweep(
        &mut self,
        qp: QpNum,
        group: McastGroupId,
        owners: Range<u32>,
        owner_qp: QpNum,
        seg: MsgSegments,
    ) {
        self.inner
            .post_inc(self.rank, qp, group, owners, owner_qp, seg);
    }

    /// Arm a one-shot timer `delay_ns` from now; fires `on_timer(token)`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.inner.set_timer(self.rank, delay_ns, token);
    }

    /// Request `on_tx_drained(token)` once every send queued on `qp` has
    /// left the NIC.
    pub fn notify_tx_drained(&mut self, qp: QpNum, token: u64) {
        self.inner.notify_tx_drained(self.rank, qp, token);
    }

    /// Declare this rank's collective complete (records completion time;
    /// the run ends when every rank is done).
    pub fn mark_done(&mut self) {
        self.inner.mark_done(self.rank);
    }

    /// RNR drops observed at this rank's NIC so far.
    pub fn rnr_drops(&self) -> u64 {
        self.inner.rnr_drops(self.rank)
    }
}
