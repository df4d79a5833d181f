//! The discrete-event fabric: NIC send/receive datapaths, switch
//! forwarding with multicast replication, drop injection, and the event
//! loop driving per-rank protocol apps.
//!
//! ## Modules
//!
//! The datapath's parts are child modules, each with the invariant its
//! tests pin stated in its docs:
//!
//! * `nic` — each NIC's QPs and the ready set its round-robin arbiter
//!   picks the next send queue from;
//! * `switch` — multicast replication, unicast and descending
//!   forwarding, in-network reduction with its aggregation tables, and
//!   switch egress;
//! * `runs` — the member lists of same-instant arrivals and completions.
//!
//! This file keeps the event loop and its dispatch, the packet and
//! work-request slabs, the send queues, the serialization memo, host
//! delivery with its completion builder, the fault state and the drop
//! draw.
//!
//! ## Timing model
//!
//! * Every directed link serializes packets at its line rate and adds a
//!   propagation delay; a switch adds a store-and-forward latency per hop.
//! * A NIC's injection pipeline issues one packet per
//!   `max(serialization, tx_post_overhead)` — the latter models the CPU
//!   cost of posting work requests (Fig. 5's single-core send bottleneck).
//! * On the receive side, the NIC surfaces a CQE after `rx_cqe_dma_ns`;
//!   the QP's assigned worker thread then spends `rx_proc_ns_per_cqe` per
//!   completion, FIFO per worker. Receive slots are consumed at packet
//!   arrival and recycled when the worker finishes processing — if the
//!   backlog exceeds the RQ depth, packets are RNR-dropped, exactly the
//!   failure mode the paper's RNR-synchronization phase exists to avoid.
//!
//! ## Hot-path memory model
//!
//! A NIC send queue holds *work requests* (`Wqe`, ≤ 64 B), not
//! packets, and the packet is built when the arbiter injects it. Every
//! queue of the fabric links its requests through one shared slab, so a
//! post takes a slot another queue freed and no queue owns a buffer: a
//! rank that has finished sending holds nothing, and a fabric's posts
//! stop allocating once the slab has grown to the most requests ever
//! queued at once. A reliable message ([`MsgSegments`]) is one
//! request however many chunks it carries — it stays at the head of its
//! queue and is segmented an MTU per arbitration turn, as an RC queue
//! pair does in hardware. An in-network-reduction *sweep*
//! ([`Ctx::post_inc_sweep`]) is one request for a rank's whole
//! Reduce-Scatter contribution: it walks its owners in order, one message
//! each, like a chained work-request list — a 512-rank in-switch
//! Reduce-Scatter queues 512 requests, not 512 · 511. Drain
//! notifications wait in one fabric-wide list, counted per QP.
//!
//! Packets live in a slab with an embedded LIFO free list from injection
//! to their last delivery, so the slab is as large as the most packets
//! ever on the wire at once, not as the most ever posted; events carry a
//! 4-byte `PktRef` handle instead of a boxed packet. A slab entry is a
//! 64-byte compact form — route, body, source rank, receiving QP, 32-bit
//! length and traffic class — from which the app-facing [`Cqe`] and
//! [`Payload`] are rebuilt at delivery. A data chunk's descriptor and an
//! RDMA read's tag ride in the entry; a control message's `M` waits out
//! of line in a side slab under a key the entry holds, so the entry does
//! not grow with the app's message type. Multicast
//! replication at a switch adds its extra branches' references to the
//! entry in one write — no payload/route clone and no allocation per
//! hop — and the event
//! payload `Ev` is a small `Copy`-able struct, so the steady state of a
//! simulation performs no per-packet heap allocation at all.
//!
//! ## Runs and per-packet work
//!
//! A packet's work is done once per packet, not once per copy, per queue
//! or per rank slot. The copies' arrivals at their next nodes, due at
//! one instant, share one event-queue entry, as do their same-instant
//! completions: a *run* (see the event module's docs), whose members
//! beyond two wait in one recycled word arena. Each run is dispatched
//! in one pass. An arrive run's packet multicast header is read from
//! the slab once, and every copy replicates or delivers from it. A
//! completion run's CQE and payload are built from the slab once and
//! lent to every member's app callback, so each member then costs its
//! reference, its receive repost and the callback; since the last rank
//! may finish halfway through the run, the pass stops there and leaves
//! the rest under a cursor that a later `run_until` resumes. A host copy
//! costs one read of its group's attachment table, which names the
//! receiving QP's place in the QP table, and one read of that QP; it
//! reads nothing of its NIC. A copy's serialization time comes from a
//! memo of one entry per `(rate, wire size)` that checks the entry it
//! read last before it hashes, so the 128-bit division runs once per
//! packet size, not per link crossed. Each NIC's arbiter finds its next send queue
//! with a bit scan of the set of its non-empty queues instead of
//! visiting every queue.
//!
//! Unicast routes and multicast trees are not the fabric's
//! to build: the [`Topology`] computes each once and every fabric over it
//! shares the result, a route as an `Arc<[LinkId]>` a packet carries and
//! a tree as an `Arc<McastTree>` the fabric holds per group. A reduced
//! shard's way down from its reduction tree's root is salted by PSN, so
//! it is no per-topology value: each switch picks the shard's next link
//! as it forwards, and no route is built for it.
//!
//! Building a fabric is a fixed handful of allocations, not one per rank
//! or per group: every NIC's QPs live in one table, NIC by NIC, and a
//! driver that knows its layout reserves the QP, tree and attachment
//! tables once ([`Fabric::reserve`]); the slabs and the event arena skip
//! their first doublings. The switches' aggregation tables count a
//! reduction's arrivals in a map under the fixed multiply-shift hash of
//! [`crate::hash`] — no SipHash runs on the simulated path.

mod nic;
mod runs;
mod switch;

use self::nic::{NicState, QpState};
use self::runs::{Members, RunCursor, RunStore};
use self::switch::AggTable;
use crate::app::{Ctx, MsgSegments, Payload, RankApp};
use crate::config::FabricConfig;
use crate::counters::{LinkCounters, TrafficReport};
use crate::event::EventQueue;
use crate::health::{self, FabricHealth, LinkHealth};
use crate::mcast::McastTree;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use mcag_trace::{DropCause, TraceEvent, TraceSink, TraceSpec};
use mcag_verbs::wire::{PacketKind, HEADER_BYTES};
use mcag_verbs::{
    CompletionStatus, Cqe, CqeOpcode, ImmData, LinkRate, McastGroupId, QpNum, Rank, Transport,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Safety valve: a run that dispatches this many events panics as a
/// livelocked protocol.
const MAX_EVENTS: u64 = 2_000_000_000;

/// `processed & QUEUE_SAMPLE_MASK == 0` marks a queue-depth sample: a
/// mask, not a division, on the traced event loop.
const QUEUE_SAMPLE_MASK: u64 = {
    assert!(TraceSpec::QUEUE_SAMPLE_EVERY.is_power_of_two());
    TraceSpec::QUEUE_SAMPLE_EVERY - 1
};

/// Entries of the serialization memo (a power of two).
const SER_MEMO: usize = 16;

/// Serialization times already computed, one per `(rate, wire size)`
/// entry, direct-mapped: a packet's copies cross links of one rate with
/// one size, so only the first pays the 128-bit division of
/// [`LinkRate::serialization_ns`]. A fabric sends a handful of sizes —
/// full MTU chunks, a collective's last chunk, control messages — so the
/// entries are rarely displaced. The entry read last is checked before
/// any hashing: a switch's copies of one packet ask for it one after
/// another.
struct SerMemo {
    last: (LinkRate, usize, u64),
    table: [(LinkRate, usize, u64); SER_MEMO],
}

impl SerMemo {
    fn new() -> SerMemo {
        // No packet is `usize::MAX` bytes long, so no entry matches yet.
        let none = (LinkRate::from_gbit(0), usize::MAX, 0);
        SerMemo {
            last: none,
            table: [none; SER_MEMO],
        }
    }

    /// Time to serialize `wire` bytes at `rate`.
    #[inline]
    fn ns(&mut self, rate: LinkRate, wire: usize) -> u64 {
        if (self.last.0, self.last.1) == (rate, wire) {
            return self.last.2;
        }
        let key = (wire as u64 ^ rate.bits_per_sec()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let e = &mut self.table[(key >> (64 - SER_MEMO.trailing_zeros())) as usize];
        if (e.0, e.1) != (rate, wire) {
            *e = (rate, wire, rate.serialization_ns(wire));
        }
        self.last = *e;
        e.2
    }
}

/// Where a packet goes next.
#[derive(Debug, Clone)]
enum Route {
    /// A unicast route; `path[hop]` is the next link to take.
    Unicast { path: Arc<[LinkId]>, hop: u8 },
    /// A reduced shard descending from its reduction tree's root to its
    /// `owner`: every switch on the way picks the next link as it
    /// forwards ([`crate::routing::descend_link`], salted by the
    /// chunk's PSN), so the route is never built.
    Down { owner: Rank, hop: u8 },
    /// Down a multicast tree (unreliable datagrams).
    Mcast { group: McastGroupId },
    /// In-network-compute contribution climbing its reduction tree
    /// (SHARP-style). Switches absorb contributions until every child
    /// branch has reported, then forward one merged packet up; the tree
    /// root routes the result down to the shard's `owner`.
    IncUp { group: McastGroupId, owner: Rank },
}

/// What a packet carries and what its arrival at a host means.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// Chunk `psn` of `origin`'s buffer, with the immediate data it was
    /// posted with; delivered two-sided into a pre-posted receive.
    Chunk {
        origin: Rank,
        psn: u32,
        imm: ImmData,
    },
    /// A control message, delivered two-sided; the message itself waits
    /// out of line in `Inner::ctrl_msgs` under this key.
    Msg(u32),
    /// RDMA Read request: the target NIC answers in hardware with
    /// `resp_len` bytes, completion tagged `tag` on the requester.
    ReadReq { resp_len: u32, tag: u64 },
    /// RDMA Read response arriving back at the requester.
    ReadResp { tag: u64 },
}

/// An in-flight packet in the fabric's compact form: the app-facing
/// [`Cqe`] and [`Payload`] are rebuilt from it at delivery
/// ([`Inner::completion`]). The sending QP is never read and the
/// destination is the route plus `dst_qp`, so neither is stored.
struct PacketInst {
    route: Route,
    body: Body,
    src: Rank,
    /// Receiving QP of a unicast packet — for a reduction contribution,
    /// the owner's QP its result is delivered to. Multicast copies are
    /// delivered to the QP each host attached to the group instead.
    dst_qp: QpNum,
    /// Payload bytes, excluding the header.
    payload_len: u32,
    kind: PacketKind,
}

impl PacketInst {
    /// Reliable transport: everything except multicast datagrams (RC
    /// messages, control traffic, RDMA reads and SHARP contributions).
    fn reliable(&self) -> bool {
        !matches!(self.route, Route::Mcast { .. })
    }

    /// The header fields a hop reads.
    fn hop(&self) -> Hop {
        Hop {
            wire: self.payload_len as usize + HEADER_BYTES,
            kind: self.kind,
            payload_len: self.payload_len,
            reliable: self.reliable(),
        }
    }
}

/// What a link transmission reads of a packet: its wire size and the
/// fields its counters and drop model need.
#[derive(Clone, Copy)]
struct Hop {
    wire: usize,
    kind: PacketKind,
    payload_len: u32,
    reliable: bool,
}

/// What the arrival of a multicast copy reads of its packet, copied out
/// of the slab once for every copy of an arrive run and lent to each by
/// reference: passed by value, it was stored field by field for every
/// copy and read back wide at once, a store-forwarding stall per copy.
#[derive(Clone, Copy)]
struct McastHdr {
    group: McastGroupId,
    origin: Rank,
    psn: u32,
    hop: Hop,
}

/// Slab handle of an in-flight packet. Replicating a multicast packet at
/// a switch copies this handle and bumps a refcount — never the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PktRef(u32);

struct SlabEntry {
    refs: u32,
    pkt: PacketInst,
}

/// "No slot": the end of a slab's free list or of a send queue.
const NIL: u32 = u32::MAX;

/// Slots a slab takes on its first insert: a power of two, so a slab
/// that keeps growing doubles through the same capacities as one that
/// started empty.
const SLAB_MIN: usize = 16;

/// One slab slot: a value, or a link in the free list.
enum Slot<T> {
    Full(T),
    /// Vacant; the next vacant slot (or [`NIL`]).
    Free(u32),
}

/// Slots with an embedded LIFO free list: a slab is as long as the most
/// entries ever live at once, a key stays valid until it is removed, and
/// neither an insert nor a removal allocates once the slab has grown.
struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Most recently vacated slot, [`NIL`] when none is.
    free: u32,
    live: usize,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    fn insert(&mut self, v: T) -> u32 {
        self.live += 1;
        if self.free == NIL {
            if self.slots.capacity() == 0 {
                // Skip the first doublings: a fabric that posts at all
                // soon holds this many.
                self.slots.reserve_exact(SLAB_MIN);
            }
            self.slots.push(Slot::Full(v));
            return (self.slots.len() - 1) as u32;
        }
        let i = self.free;
        match std::mem::replace(&mut self.slots[i as usize], Slot::Full(v)) {
            Slot::Free(next) => self.free = next,
            Slot::Full(_) => unreachable!("free list names a full slot"),
        }
        i
    }

    #[inline]
    fn get(&self, i: u32) -> &T {
        match &self.slots[i as usize] {
            Slot::Full(v) => v,
            Slot::Free(_) => panic!("stale slab key"),
        }
    }

    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        match &mut self.slots[i as usize] {
            Slot::Full(v) => v,
            Slot::Free(_) => panic!("stale slab key"),
        }
    }

    fn remove(&mut self, i: u32) -> T {
        match std::mem::replace(&mut self.slots[i as usize], Slot::Free(self.free)) {
            Slot::Full(v) => {
                self.free = i;
                self.live -= 1;
                v
            }
            Slot::Free(_) => panic!("stale slab key"),
        }
    }

    /// Entries inserted and not yet removed.
    fn live(&self) -> usize {
        self.live
    }
}

/// One send-queue entry: a work request, not a packet. The NIC turns the
/// head entry of the queue it arbitrates to into a [`PacketInst`] at the
/// moment it injects, so queued data costs a few words per request and
/// the slab holds only what is on the wire.
enum Wqe {
    /// A packet built at post time: control messages and RDMA-read
    /// requests/responses, whose payload or semantics do not fit a
    /// `Copy` descriptor.
    Ready(PktRef),
    /// One multicast datagram.
    Mcast {
        group: McastGroupId,
        imm: ImmData,
        origin: Rank,
        psn: u32,
        len: u32,
    },
    /// A reliable unicast message on a route resolved at post time; stays
    /// at the head of its queue and yields segment `next` per turn.
    Unicast {
        path: Arc<[LinkId]>,
        dst_qp: QpNum,
        seg: MsgSegments,
        next: u32,
    },
    /// An in-network-reduction contribution sweep (see [`Route::IncUp`]):
    /// `seg` is the message to `owner`, segmented like [`Wqe::Unicast`];
    /// after its last segment the sweep moves on to the next owner below
    /// `end` that is not the sending rank, `seg.chunks` PSNs further per
    /// owner passed.
    Inc {
        group: McastGroupId,
        owner: Rank,
        end: u32,
        owner_qp: QpNum,
        seg: MsgSegments,
        next: u32,
    },
}

/// A queued work request and the next one of its send queue.
struct WqeNode {
    wqe: Wqe,
    /// Slab key of the next request, [`NIL`] at the tail.
    next: u32,
}

/// Reject a malformed message request where it is posted, not when its
/// last segment is injected.
fn check_segments(seg: &MsgSegments) {
    assert!(seg.chunks >= 1, "a message has at least one segment");
    assert!(
        seg.chunks as usize <= seg.mtu.chunks_for(seg.buf_len),
        "{} chunks requested of a {}-byte buffer at {} MTU",
        seg.chunks,
        seg.buf_len,
        seg.mtu
    );
    assert!(
        u32::try_from(seg.mtu.bytes().min(seg.buf_len)).is_ok(),
        "a {} segment overflows the packet length field",
        seg.mtu
    );
    // Panics if the last PSN or the collective id overflow the layout.
    seg.imm.pack(seg.coll, seg.first_psn + (seg.chunks - 1));
}

/// A payload length as the packet's 32-bit length field.
fn len_field(len: usize) -> u32 {
    u32::try_from(len).expect("a packet payload must be under 4 GiB")
}

/// The first owner at or after `from` and below `end` that is not `src`.
fn next_owner(from: u32, src: Rank, end: u32) -> Option<u32> {
    (from..end).find(|&o| o != src.0)
}

/// The event payload. Deliberately small and payload-free: packet state
/// lives in the slab, CQE contents are derived from it at dispatch time,
/// so the wheel queue moves ~16-byte values around.
#[derive(Debug, Clone, Copy)]
enum Ev {
    TxKick {
        rank: Rank,
    },
    LinkArrive {
        link: LinkId,
        pkt: PktRef,
    },
    CqeDone {
        rank: Rank,
        qp_idx: u16,
        repost: bool,
        pkt: PktRef,
    },
    Timer {
        rank: Rank,
        token: u64,
    },
    TxDrained {
        rank: Rank,
        token: u64,
    },
    /// A run of `pkt`'s `LinkArrive`s: its members are the links.
    ArriveRun {
        pkt: PktRef,
        members: Members,
    },
    /// A run of `pkt`'s `CqeDone`s on QP `qp_idx` of each member rank.
    CqeRun {
        pkt: PktRef,
        qp_idx: u16,
        repost: bool,
        members: Members,
    },
}

/// One directed link's counters beside the instant it finishes its
/// current transmission: every transmission reads and writes both.
#[derive(Clone, Copy, Default)]
struct LinkState {
    counters: LinkCounters,
    busy: SimTime,
}

/// Runtime state of one directed link under the fault schedule. Only
/// allocated when the schedule is non-empty; every hot-path consult is
/// gated on `Inner::has_faults`.
#[derive(Debug, Clone, Copy)]
struct LinkFaultState {
    up: bool,
    bw_num: u32,
    bw_den: u32,
    /// When the current state began (for downtime/degraded accounting).
    since: SimTime,
    /// While down: the schedule's next up transition for this link
    /// (`u64::MAX` when it never recovers).
    next_up_ns: u64,
}

impl LinkFaultState {
    fn healthy() -> LinkFaultState {
        LinkFaultState {
            up: true,
            bw_num: 1,
            bw_den: 1,
            since: SimTime::ZERO,
            next_up_ns: 0,
        }
    }
}

/// Fabric internals reachable from [`Ctx`] (everything except the apps).
pub struct Inner<M> {
    topo: Arc<Topology>,
    cfg: FabricConfig,
    q: EventQueue<Ev>,
    nics: Vec<NicState>,
    /// Every NIC's QPs in one table, NIC by NIC (`NicState::qp_base`),
    /// so adding a QP allocates nothing per rank.
    qps: Vec<QpState>,
    /// Programmed groups' trees, indexed by group id and shared with the
    /// topology's memo; an SM rebuild swaps a group's `Arc`, it never
    /// mutates a tree another fabric may be using.
    trees: Vec<Arc<McastTree>>,
    /// Per-link counters and serialization horizon.
    links: Vec<LinkState>,
    /// Per-link fault state (empty when the schedule is empty).
    link_fault: Vec<LinkFaultState>,
    /// Fast gate for every fault-path consult: true iff
    /// `cfg.faults` has at least one transition.
    has_faults: bool,
    /// The fault cursor: index of the next transition of `cfg.faults` to
    /// apply. Transitions are never queued; each is a reserved entry of
    /// `q` until `run_until` applies it.
    fault_cursor: usize,
    /// Instant of the transition under the cursor (`None` once the
    /// schedule is spent), cached so the event loop never reaches into
    /// the schedule between transitions.
    next_fault: Option<SimTime>,
    rng: StdRng,
    done: Vec<Option<SimTime>>,
    done_count: usize,
    /// In-network reduction progress, bounded per switch by
    /// [`FabricConfig::inc_table_capacity`].
    agg: AggTable,
    /// Serialization time per `(rate, wire size)`, computed once.
    ser: SerMemo,
    /// Reusable egress-link buffer for switch forwarding (avoids a fresh
    /// `Vec` per packet hop on the multicast replication hot path).
    scratch_links: Vec<LinkId>,
    /// Every send queue's work requests; a posting takes a slot, an
    /// injection that finishes a request frees it, so no queue holds a
    /// buffer of its own.
    wqes: Slab<WqeNode>,
    /// Drain notifications of send queues still sending, as
    /// `(rank, qp, token)` in the order they were asked for.
    drains: Vec<(Rank, u32, u64)>,
    /// RX worker availability, `cfg.host.rx_workers` (at least one) per
    /// rank, rank-major.
    workers: Vec<SimTime>,
    /// Receiving QP of each rank for each group, at `group · ranks +
    /// rank`, as its index into `qps` ([`NIL`] where the rank attached
    /// none) — read once per multicast host copy, which then reads the QP
    /// and nothing of its NIC, so it is a dense table, not a map. A QP
    /// inserted into `qps` ahead of an attached one moves its entry on.
    group_attach: Vec<u32>,
    /// In-flight packets: `PktRef` handles index here.
    pkt_slab: Slab<SlabEntry>,
    /// The messages of in-flight control packets ([`Body::Msg`]), out of
    /// line so that a slab entry does not grow with `M`.
    ctrl_msgs: Slab<M>,
    /// Member lists of the runs that outgrew their entry.
    runs: RunStore,
    /// The rest of the CQE run the last rank finished in the middle of
    /// (`None` otherwise); its members are due now, ahead of every queued
    /// entry, and a later `run_until` resumes them.
    run: Option<RunCursor>,
    /// Flight recorder, allocated iff `cfg.trace` is `Some` — every
    /// record site is gated on this `Option`, so a disabled recorder
    /// costs one branch (the same pattern as `has_faults`).
    trace: Option<TraceSink>,
    /// Cumulative wall-clock ns spent inside the event loop.
    run_wall_ns: u64,
}

/// Statistics of one completed run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Time the last rank finished.
    pub end_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// Per-rank completion times (`None` if a rank never called
    /// [`Ctx::mark_done`]).
    pub per_rank_done: Vec<Option<SimTime>>,
    /// Highest pending-event count the queue reached.
    pub peak_queue_depth: usize,
    /// Wall-clock nanoseconds spent in the event loop (cumulative over
    /// [`Fabric::run`] / [`Fabric::run_until`] calls on this fabric).
    pub wall_ns: u64,
}

impl RunStats {
    /// True if every rank completed.
    pub fn all_done(&self) -> bool {
        self.per_rank_done.iter().all(|t| t.is_some())
    }

    /// Latest completion time across ranks that finished.
    pub fn max_done(&self) -> Option<SimTime> {
        self.per_rank_done.iter().flatten().copied().max()
    }
}

/// The discrete-event fabric simulator. See the module docs for the model.
///
/// `A` is the app every rank runs, held by value; the boxed default lets
/// ranks of one fabric run different app types.
pub struct Fabric<M, A: RankApp<M> = Box<dyn RankApp<M>>> {
    inner: Inner<M>,
    /// Rank `r`'s app at index `r`.
    apps: Vec<A>,
    started: bool,
}

impl<M: 'static, A: RankApp<M>> Fabric<M, A> {
    /// Create a fabric over `topo` with the given configuration. Apps and
    /// QPs must be registered before [`Fabric::run`]. `topo` is an owned
    /// [`Topology`] or an `Arc` of one — callers that build many fabrics
    /// over one topology (the runtime, one per batch) share it.
    pub fn new(topo: impl Into<Arc<Topology>>, cfg: FabricConfig) -> Fabric<M, A> {
        let topo: Arc<Topology> = topo.into();
        let n = topo.num_hosts();
        let nics = (0..n)
            .map(|r| {
                let host = topo.host_node(Rank(r as u32));
                let ups = topo.uplinks(host);
                assert_eq!(ups.len(), 1, "hosts have exactly one NIC port");
                NicState::new(ups[0])
            })
            .collect();
        let workers = vec![SimTime::ZERO; n * cfg.host.rx_workers.max(1)];
        let links = vec![LinkState::default(); topo.num_links()];
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mut q = EventQueue::with_backend(cfg.event_queue);
        // Replay the fault schedule from a cursor beside the queue. Its
        // transitions are reserved as pending entries, as if scheduled
        // before any protocol event, and `run_until` applies each one
        // ahead of every same-instant protocol event — schedule-first
        // tie order is part of the determinism contract.
        let trace = cfg.trace.clone().map(TraceSink::new);
        let has_faults = !cfg.faults.is_empty();
        let link_fault = if has_faults {
            if let Some(link) = cfg.faults.max_link() {
                assert!(
                    link.idx() < topo.num_links(),
                    "fault schedule references {link:?} outside the topology"
                );
            }
            q.reserve_pending(cfg.faults.len());
            vec![LinkFaultState::healthy(); topo.num_links()]
        } else {
            Vec::new()
        };
        let next_fault = cfg.faults.events().first().map(|e| SimTime(e.at_ns));
        Fabric {
            inner: Inner {
                topo,
                cfg,
                q,
                nics,
                qps: Vec::new(),
                trees: Vec::new(),
                links,
                link_fault,
                has_faults,
                fault_cursor: 0,
                next_fault,
                rng,
                done: vec![None; n],
                done_count: 0,
                agg: AggTable::default(),
                ser: SerMemo::new(),
                scratch_links: Vec::new(),
                wqes: Slab::new(),
                drains: Vec::new(),
                workers,
                group_attach: Vec::new(),
                pkt_slab: Slab::new(),
                ctrl_msgs: Slab::new(),
                runs: RunStore::default(),
                run: None,
                trace,
                run_wall_ns: 0,
            },
            apps: Vec::with_capacity(n),
            started: false,
        }
    }

    /// Topology handle.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// Create a QP on `rank`, pinned to RX `worker`. Returns the rank-local
    /// QP number (SPMD setups produce identical numbering on every rank).
    ///
    /// A NIC holds at most 65,536 QPs, numbered 0 to 65,535: a completion
    /// event names its QP in 16 bits. Adding one more panics.
    pub fn add_qp(&mut self, rank: Rank, transport: Transport, worker: usize) -> QpNum {
        let workers = self.inner.cfg.host.rx_workers.max(1);
        assert!(
            worker < workers,
            "worker {worker} out of range ({workers} workers)"
        );
        let depth = u32::try_from(self.inner.cfg.host.rq_depth).unwrap_or(u32::MAX);
        let Inner {
            nics,
            qps,
            group_attach,
            ..
        } = &mut self.inner;
        let nic = &mut nics[rank.idx()];
        let qpn = QpNum(nic.qp_len);
        let local = u16::try_from(qpn.0)
            .unwrap_or_else(|_| panic!("{rank} already has 65,536 QPs, the most a NIC holds"));
        let state = QpState {
            transport,
            local,
            worker: worker as u32,
            rq_avail: depth,
            rq_depth: depth,
            tx_head: NIL,
            tx_tail: NIL,
            drains: 0,
        };
        if nic.qp_len == 0 {
            nic.qp_base = qps.len() as u32;
        }
        // Drivers add QPs rank by rank, so this is an append; a QP added
        // to an earlier rank shifts the later ranks' tables, and the
        // attachments of their QPs, up by one.
        let at = nic.qp_base + nic.qp_len;
        if at as usize != qps.len() {
            for (r, other) in nics.iter_mut().enumerate() {
                if r != rank.idx() && other.qp_len > 0 && other.qp_base >= at {
                    other.qp_base += 1;
                }
            }
            for g in group_attach.iter_mut() {
                if *g != NIL && *g >= at {
                    *g += 1;
                }
            }
        }
        qps.insert(at as usize, state);
        let nic = &mut nics[rank.idx()];
        let base = nic.qp_base as usize;
        nic.add_qp(&qps[base..=at as usize]);
        qpn
    }

    /// Make room for `groups` more multicast groups and `qps` more QPs
    /// over all ranks, so that a driver laying out a known set of
    /// communicators programs its groups and QPs without regrowing a
    /// table per group or per rank.
    pub fn reserve(&mut self, groups: usize, qps: usize) {
        let inner = &mut self.inner;
        inner.trees.reserve(groups);
        inner.group_attach.reserve(groups * inner.nics.len());
        inner.qps.reserve(qps);
    }

    /// Create a multicast group over `members` on its spanning tree,
    /// which the topology builds the first time any fabric over it asks.
    ///
    /// Panics when [`FabricConfig::mcast_table_capacity`] is set and the
    /// switch group table is already full — the hard resource bound the
    /// `mcag-runtime` group pool schedules around.
    pub fn create_group(&mut self, members: &[Rank]) -> McastGroupId {
        if let Some(cap) = self.inner.cfg.mcast_table_capacity {
            assert!(
                self.inner.trees.len() < cap,
                "switch multicast-group table exhausted ({cap} groups programmed)"
            );
        }
        let gid = McastGroupId(self.inner.trees.len() as u32);
        let tree = self
            .inner
            .topo
            .mcast_tree(gid, members, &[])
            .expect("tree build failed on a healthy fabric");
        self.inner.trees.push(tree);
        let attach = &mut self.inner.group_attach;
        attach.resize(attach.len() + self.inner.nics.len(), NIL);
        gid
    }

    /// High-water mark of any single switch's live in-network-reduction
    /// aggregation-table occupancy over the run so far (0 when no INC
    /// traffic flowed). The demand side of
    /// [`FabricConfig::inc_table_capacity`].
    pub fn inc_table_peak(&self) -> usize {
        self.inner.agg.peak()
    }

    /// Attach `rank`'s `qp` to `group` (receives that group's datagrams).
    pub fn attach(&mut self, rank: Rank, qp: QpNum, group: McastGroupId) {
        let tree = &self.inner.trees[group.0 as usize];
        assert!(tree.is_member(rank), "{rank} is not a member of {group:?}");
        assert!(
            matches!(
                self.inner.qp(rank, qp.0 as usize).transport,
                Transport::Ud | Transport::Uc
            ),
            "only UD/UC QPs can join multicast groups"
        );
        let at = group.0 as usize * self.inner.nics.len() + rank.idx();
        self.inner.group_attach[at] = self.inner.qp_index(rank, qp.0 as usize) as u32;
    }

    /// Install the protocol endpoint for `rank`. Apps are installed in
    /// rank order, one per rank, before the run.
    pub fn set_app(&mut self, rank: Rank, app: A) {
        assert_eq!(rank.idx(), self.apps.len(), "app out of rank order");
        self.apps.push(app);
    }

    /// Consume the fabric and return every rank's app, in rank order —
    /// the harvest half of the owned-sink protocol: apps accumulate their
    /// results privately during the run and the driver takes them back
    /// afterwards (no shared `Rc<RefCell<…>>` sinks, so the whole
    /// simulation stays `Send`). Read the fabric's own statistics first.
    pub fn into_apps(self) -> Vec<A> {
        self.apps
    }

    /// The live flight recorder (`None` when `cfg.trace` was `None`).
    pub fn trace(&self) -> Option<&TraceSink> {
        self.inner.trace.as_ref()
    }

    /// Remove and return the flight recorder — the trace analogue of the
    /// [`Fabric::into_apps`] harvest step; drivers take the sink after the
    /// run and hand its events to `mcag-trace` for merging/export.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.inner.trace.take()
    }

    /// Run to completion: starts every app, then processes events until
    /// all ranks are done (or the queue empties / the event cap trips).
    pub fn run(&mut self) -> RunStats {
        self.run_until(SimTime(u64::MAX))
    }

    /// Like [`Fabric::run`], but stops (without popping) once the next
    /// pending event lies beyond `deadline` — a peek-based cutoff, so a
    /// bounded run never perturbs event order. Callers may inspect
    /// [`RunStats::all_done`] and continue with a later deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> RunStats {
        let wall_start = std::time::Instant::now();
        let n = self.inner.num_ranks();
        if !self.started {
            self.started = true;
            assert_eq!(self.apps.len(), n, "every rank needs an app");
            for r in 0..n {
                let (app, mut ctx) = self.app(Rank(r as u32));
                app.on_start(&mut ctx);
            }
        }
        // Queued events pop up to `bound`, which stops short of the next
        // transition due by the deadline; it changes only when one is
        // applied.
        let mut bound = self.inner.pop_bound(deadline);
        while self.inner.done_count < n {
            self.inner.check_event_cap();
            // The rest of a CQE run cut by the last finish comes first:
            // its members are due now, and every queued entry sorts after
            // them.
            let resume = bound.is_some_and(|b| b >= self.inner.q.now());
            if let Some(cursor) = self.inner.run.take_if(|_| resume) {
                self.cqe_run(cursor);
            } else {
                match bound.and_then(|b| self.inner.q.pop_if_before(b)) {
                    Some((_, ev)) => self.dispatch(ev),
                    None if self.inner.next_fault.is_some_and(|t| t <= deadline) => {
                        self.inner.apply_next_fault();
                        bound = self.inner.pop_bound(deadline);
                    }
                    // Quiescent or past the deadline; caller inspects stats.
                    None => break,
                }
            }
            self.inner.sample_queue();
        }
        self.inner.run_wall_ns += wall_start.elapsed().as_nanos() as u64;
        RunStats {
            end_time: self.inner.q.now(),
            events: self.inner.q.processed(),
            per_rank_done: self.inner.done.clone(),
            peak_queue_depth: self.inner.q.peak_len(),
            wall_ns: self.inner.run_wall_ns,
        }
    }

    /// Timestamp of the earliest pending event, scheduled link-state
    /// transitions included (`None` when quiescent) — the peek-based
    /// progress probe for cutoff checks. The rest of a CQE run the last
    /// rank finished in the middle of is due at the current instant.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let run = self.inner.run.map(|_| self.inner.q.now());
        [run, self.inner.q.peek_time(), self.inner.next_fault]
            .into_iter()
            .flatten()
            .min()
    }

    /// Snapshot of all link counters (open downtime/degraded intervals
    /// closed at the current simulated instant), with the per-rank RNR
    /// breakdown and the engine stats of the run so far (events
    /// processed, peak queue depth, wall clock).
    pub fn traffic(&self) -> TrafficReport {
        TrafficReport::new(self.inner.counters_snapshot())
            .with_rnr(self.inner.nics.iter().map(|n| n.rnr_drops.into()).collect())
            .with_engine_stats(
                self.inner.q.processed(),
                self.inner.q.peak_len(),
                self.inner.run_wall_ns,
            )
    }

    /// Total RNR drops across all NICs.
    pub fn total_rnr_drops(&self) -> u64 {
        self.inner.nics.iter().map(|n| u64::from(n.rnr_drops)).sum()
    }

    /// Total packet copies lost to down links (fault injection).
    pub fn total_fault_drops(&self) -> u64 {
        self.inner
            .links
            .iter()
            .map(|l| l.counters.fault_drops)
            .sum()
    }

    /// Packet-slab entries still held — packets built and not yet
    /// delivered or dropped, wherever they wait — plus the out-of-line
    /// messages of control packets among them. A fabric whose event queue
    /// has emptied holds none; anything else is a leak.
    pub fn live_packets(&self) -> usize {
        self.inner.pkt_slab.live() + self.inner.ctrl_msgs.live()
    }

    /// Mid-run health snapshot: per-link up/down/degraded status plus
    /// cumulative fault drops and downtime (open outages closed at the
    /// current instant). Cheap — one pass over the counters, no event
    /// scheduled, nothing reset. With no fault schedule configured every
    /// link reports healthy.
    pub fn health(&self) -> FabricHealth {
        let counters = self.inner.counters_snapshot();
        let rows = counters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (up, degraded) = if self.inner.has_faults {
                    let st = &self.inner.link_fault[i];
                    (st.up, st.up && st.bw_num != st.bw_den)
                } else {
                    (true, false)
                };
                LinkHealth {
                    up,
                    degraded,
                    fault_drops: c.fault_drops,
                    downtime_ns: c.downtime_ns,
                }
            })
            .collect();
        FabricHealth::new(rows)
    }

    /// Switches whose every attached link is currently down — the SM's
    /// rebuild trigger. Empty (without scanning) when no fault schedule
    /// is configured.
    pub fn dead_switches(&self) -> Vec<NodeId> {
        if !self.inner.has_faults {
            return Vec::new();
        }
        let link_fault = &self.inner.link_fault;
        health::dead_switches(&self.inner.topo, |l| link_fault[l.idx()].up)
    }

    /// Subnet-manager recovery: re-route every programmed multicast group
    /// whose tree touches a switch in `dead`, rebuilding it around the
    /// full `dead` set. Returns the number of groups actually re-routed.
    ///
    /// A group whose members are unreachable without the dead switches
    /// (no live root, or a member stranded behind one) keeps its old
    /// tree — packets crossing the dead chassis keep paying the fault
    /// cost until it recovers. Swapping a tree mid-run is safe: switches
    /// consult `out_links` per packet hop, so copies already in flight
    /// on the old tree simply stop being forwarded at the dead chassis,
    /// exactly as they would have anyway.
    ///
    /// The simulated cost of the rebuild (SM programming time) is *not*
    /// charged here — the caller owns the clock it runs batches on and
    /// charges the `McastGroupPool` rebuild cost per re-routed group.
    pub fn rebuild_groups_avoiding(&mut self, dead: &[NodeId]) -> u32 {
        if dead.is_empty() {
            return 0;
        }
        let mut rebuilt = 0;
        let Inner { topo, trees, .. } = &mut self.inner;
        for tree in trees.iter_mut() {
            if !tree.nodes().any(|n| dead.contains(&n)) {
                continue;
            }
            if let Some(fresh) = topo.mcast_tree(tree.group(), tree.members(), dead) {
                *tree = fresh;
                rebuilt += 1;
            }
        }
        rebuilt
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::TxKick { rank } => self.inner.handle_tx_kick(rank),
            Ev::LinkArrive { link, pkt } => self.inner.handle_link_arrive(link, pkt),
            Ev::ArriveRun { pkt, members } => self.inner.arrive_run(pkt, members),
            Ev::CqeDone {
                rank,
                qp_idx,
                repost,
                pkt,
            } => {
                let (cqe, payload) = self.inner.completion(pkt, qp_idx);
                self.inner.consume_cqe(rank, qp_idx, pkt, repost);
                let (app, mut ctx) = self.app(rank);
                app.on_cqe(&mut ctx, &cqe, &payload);
            }
            Ev::Timer { rank, token } => {
                let (app, mut ctx) = self.app(rank);
                app.on_timer(&mut ctx, token);
            }
            Ev::TxDrained { rank, token } => {
                let (app, mut ctx) = self.app(rank);
                app.on_tx_drained(&mut ctx, token);
            }
            Ev::CqeRun { .. } => self.cqe_run(RunCursor { run: ev, next: 0 }),
        }
    }

    /// Dispatch the CQE run under `cursor` from its member `cursor.next`
    /// on, in one pass: the CQE and payload are built from the slab once
    /// and lent to every member, which costs only its reference, its
    /// receive repost and its app callback. Every member but the popped
    /// first is counted as the queue's pop of a separate entry would be,
    /// and between two members the pass samples the queue depth and
    /// checks the event cap, exactly as the event loop does between
    /// entries. When the last rank finishes before the last member, the
    /// rest stays under the cursor for a later `run_until`.
    fn cqe_run(&mut self, cursor: RunCursor) {
        let Ev::CqeRun {
            pkt,
            qp_idx,
            repost,
            members,
        } = cursor.run
        else {
            unreachable!("not a CQE run")
        };
        let (cqe, payload) = self.inner.completion(pkt, qp_idx);
        let (n, len) = (self.apps.len(), self.inner.runs.len(members));
        for k in cursor.next..len {
            if k > cursor.next {
                if self.inner.done_count == n {
                    self.inner.run = Some(RunCursor { next: k, ..cursor });
                    return;
                }
                self.inner.sample_queue();
                self.inner.check_event_cap();
            }
            if k > 0 {
                self.inner.q.consume_rider();
            }
            let rank = Rank(self.inner.runs.get(members, k));
            if k + 1 == len {
                self.inner.runs.close(members);
            }
            self.inner.consume_cqe(rank, qp_idx, pkt, repost);
            let (app, mut ctx) = self.app(rank);
            app.on_cqe(&mut ctx, &cqe, &payload);
        }
    }

    /// `rank`'s app and the context its callbacks run in, for a direct
    /// call: through a closure, a completion run's CQE was stored field
    /// by field for every member and read back wide at once, a
    /// store-forwarding stall per member.
    fn app(&mut self, rank: Rank) -> (&mut A, Ctx<'_, M>) {
        let inner = &mut self.inner;
        (&mut self.apps[rank.idx()], Ctx { inner, rank })
    }
}

impl<M: 'static> Inner<M> {
    /// Where `rank`'s QP `qi` sits in `qps`. Panics, naming both, when
    /// `rank` has no such QP.
    #[inline]
    fn qp_index(&self, rank: Rank, qi: usize) -> usize {
        let nic = &self.nics[rank.idx()];
        assert!(qi < nic.qp_len as usize, "{rank} has no QP {qi}");
        nic.qp_base as usize + qi
    }

    /// `rank`'s QP `qi`.
    #[inline]
    fn qp(&self, rank: Rank, qi: usize) -> &QpState {
        &self.qps[self.qp_index(rank, qi)]
    }

    /// `rank`'s QP `qi`, mutably.
    #[inline]
    fn qp_mut(&mut self, rank: Rank, qi: usize) -> &mut QpState {
        let i = self.qp_index(rank, qi);
        &mut self.qps[i]
    }

    /// The slot in `workers` of `rank`'s RX worker `worker`.
    #[inline]
    fn worker_slot(&self, rank: Rank, worker: u32) -> usize {
        rank.idx() * self.cfg.host.rx_workers.max(1) + worker as usize
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.topo.num_hosts()
    }

    pub(crate) fn rnr_drops(&self, rank: Rank) -> u64 {
        self.nics[rank.idx()].rnr_drops.into()
    }

    pub(crate) fn set_timer(&mut self, rank: Rank, delay_ns: u64, token: u64) {
        self.q.schedule_in(delay_ns, Ev::Timer { rank, token });
    }

    pub(crate) fn mark_done(&mut self, rank: Rank) {
        if self.done[rank.idx()].is_none() {
            self.done[rank.idx()] = Some(self.q.now());
            self.done_count += 1;
        }
    }

    pub(crate) fn notify_tx_drained(&mut self, rank: Rank, qp: QpNum, token: u64) {
        let i = self.qp_index(rank, qp.0 as usize);
        let (nic, state) = (&self.nics[rank.idx()], &mut self.qps[i]);
        if state.tx_head == NIL {
            let at = nic.tx_free_at.max(self.q.now());
            self.q.schedule_at(at, Ev::TxDrained { rank, token });
        } else {
            state.drains += 1;
            self.drains.push((rank, qp.0, token));
        }
    }

    // ------------------------------- runs ------------------------------- //

    /// Schedule `pkt`'s `LinkArrive` or `CqeDone` at `at`, riding the
    /// last scheduled entry when that is the same packet's same-kind
    /// event (or run of them) due at `at` — a multicast copy's fan-out
    /// and its completions — so that they share one queue entry. A lone
    /// event is pushed as it is; only a second member opens a run. Lone
    /// events keep their own shape and dispatch: as runs of one they made
    /// the benchmark's `load_ladder`, where most events are lone, 2–3 %
    /// slower (2-core host).
    #[inline]
    fn schedule_member(&mut self, at: SimTime, ev: Ev) {
        let Inner { q, runs, .. } = self;
        if !q.ride_last(at, |last| runs.join(last, ev)) {
            q.schedule_at(at, ev);
        }
    }

    /// Deliver the arrive run `pkt`'s copies make at one instant, member
    /// after member, in one pass: the packet's multicast header is read
    /// once for all of them. Each member after the first is counted as
    /// the queue's pop of a separate entry would be, checked against the
    /// event cap and sampled for queue depth, exactly as the event loop
    /// does between entries (it samples after the last). No app runs
    /// inside a run, so no rank can finish halfway through one.
    fn arrive_run(&mut self, pkt: PktRef, members: Members) {
        let hdr = self
            .mcast_hdr(pkt)
            .expect("only a multicast packet's copies arrive together");
        for k in 0..self.runs.len(members) {
            if k > 0 {
                self.sample_queue();
                self.check_event_cap();
                self.q.consume_rider();
            }
            let link = LinkId(self.runs.get(members, k));
            self.mcast_arrive(link, pkt, &hdr);
        }
        self.runs.close(members);
    }

    /// Panic once a run has dispatched [`MAX_EVENTS`] events.
    #[inline]
    fn check_event_cap(&self) {
        if self.q.processed() >= MAX_EVENTS {
            panic!("event cap {MAX_EVENTS} exceeded — livelocked protocol?");
        }
    }

    /// Record the queue depth every `QUEUE_SAMPLE_EVERY` events when
    /// tracing: with tracing off, one test per event.
    #[inline]
    fn sample_queue(&mut self) {
        if self.q.processed() & QUEUE_SAMPLE_MASK == 0 {
            let (at_ns, depth) = (self.q.now().as_ns(), self.q.len() as u32);
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::QueueDepth { at_ns, depth });
            }
        }
    }

    // --------------------------- fault state --------------------------- //

    /// The latest instant a queued event may pop at before the fault
    /// cursor's transition, when that transition is due by `deadline`: one
    /// nanosecond before it, so it fires ahead of every same-instant
    /// event (`None` — pop nothing — when it is at t = 0). Otherwise
    /// `deadline`.
    fn pop_bound(&self, deadline: SimTime) -> Option<SimTime> {
        match self.next_fault {
            Some(t) if t <= deadline => t.as_ns().checked_sub(1).map(SimTime),
            _ => Some(deadline),
        }
    }

    /// Consume the transition under the fault cursor at its instant (as
    /// a pop of it would), advance the cursor and apply the transition,
    /// closing the accounting interval of the state the link leaves.
    fn apply_next_fault(&mut self) {
        let idx = self.fault_cursor;
        let at = self
            .next_fault
            .expect("no transition under the fault cursor");
        self.q.consume_reserved(at);
        self.fault_cursor += 1;
        let events = self.cfg.faults.events();
        self.next_fault = events.get(idx + 1).map(|e| SimTime(e.at_ns));
        let ev = events[idx];
        let next_up = self.cfg.faults.next_up_ns(idx);
        let now = self.q.now();
        let li = ev.link.idx();
        let st = self.link_fault[li];
        let c = &mut self.links[li].counters;
        if !st.up {
            c.downtime_ns += now.as_ns().saturating_sub(st.since.as_ns());
        } else if st.bw_num != st.bw_den {
            c.degraded_ns += now.as_ns().saturating_sub(st.since.as_ns());
        }
        self.link_fault[li] = LinkFaultState {
            up: ev.up,
            bw_num: ev.bw_num,
            bw_den: ev.bw_den,
            since: now,
            next_up_ns: if ev.up { now.as_ns() } else { next_up },
        };
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Fault {
                at_ns: now.as_ns(),
                link: li as u32,
                up: ev.up,
            });
        }
    }

    /// Per-link counters with any open downtime/degraded interval closed
    /// at the current instant — the `traffic()` view stays correct even
    /// when a run ends (or is sampled) mid-outage.
    fn counters_snapshot(&self) -> Vec<LinkCounters> {
        let mut c: Vec<LinkCounters> = self.links.iter().map(|l| l.counters).collect();
        if self.has_faults {
            let now = self.q.now().as_ns();
            for (li, st) in self.link_fault.iter().enumerate() {
                let open = now.saturating_sub(st.since.as_ns());
                if !st.up {
                    c[li].downtime_ns += open;
                } else if st.bw_num != st.bw_den {
                    c[li].degraded_ns += open;
                }
            }
        }
        c
    }

    /// Serialization time on `link` under its current effective
    /// bandwidth: a degraded link stretches the wire time by
    /// `bw_den / bw_num` (rounded up).
    #[inline]
    fn effective_ser_ns(&self, link: LinkId, ser: u64) -> u64 {
        if !self.has_faults {
            return ser;
        }
        let st = &self.link_fault[link.idx()];
        if st.bw_num == st.bw_den {
            return ser;
        }
        ((ser as u128 * st.bw_den as u128).div_ceil(st.bw_num as u128)) as u64
    }

    // --------------------------- packet slab --------------------------- //

    fn alloc_pkt(&mut self, pkt: PacketInst) -> PktRef {
        PktRef(self.pkt_slab.insert(SlabEntry { refs: 1, pkt }))
    }

    #[inline]
    fn pkt(&self, r: PktRef) -> &PacketInst {
        &self.pkt_slab.get(r.0).pkt
    }

    #[inline]
    fn pkt_mut(&mut self, r: PktRef) -> &mut PacketInst {
        &mut self.pkt_slab.get_mut(r.0).pkt
    }

    /// Drop one reference; at zero the slab slot is recycled and a
    /// control packet's message dropped with it.
    fn release_pkt(&mut self, r: PktRef) {
        let e = self.pkt_slab.get_mut(r.0);
        if e.refs > 1 {
            e.refs -= 1;
        } else if let Body::Msg(m) = self.pkt_slab.remove(r.0).pkt.body {
            self.ctrl_msgs.remove(m);
        }
    }

    /// Build the CQE and payload a delivered packet surfaces on QP
    /// `qp_idx` — one slab read, shared by every member of a completion
    /// run. A control message moves out of its side slab into the
    /// payload (control packets are unicast, so one completion reads it).
    fn completion(&mut self, r: PktRef, qp_idx: u16) -> (Cqe, Payload<M>) {
        let p = self.pkt(r);
        let (body, src, byte_len) = (p.body, p.src, p.payload_len as usize);
        let (opcode, imm, wr_id, payload) = match body {
            Body::Chunk { origin, psn, imm } => (
                CqeOpcode::Recv,
                Some(imm),
                0,
                Payload::Chunk { origin, psn },
            ),
            Body::Msg(m) => (
                CqeOpcode::Recv,
                None,
                0,
                Payload::Msg(self.ctrl_msgs.remove(m)),
            ),
            Body::ReadResp { tag } => (CqeOpcode::RdmaReadDone, None, tag, Payload::Empty),
            Body::ReadReq { .. } => unreachable!("the target NIC answers read requests"),
        };
        let cqe = Cqe {
            opcode,
            status: CompletionStatus::Success,
            qp: QpNum(qp_idx.into()),
            imm,
            byte_len,
            wr_id,
            src: Some(src),
        };
        (cqe, payload)
    }

    /// Retire one completion of `r` on `rank`'s QP `qp_idx`: drop its
    /// reference (the last recycles the slot; a control message has
    /// already moved into its payload) and repost the receive it used.
    #[inline]
    fn consume_cqe(&mut self, rank: Rank, qp_idx: u16, r: PktRef, repost: bool) {
        let e = self.pkt_slab.get_mut(r.0);
        if e.refs > 1 {
            debug_assert!(
                !matches!(e.pkt.body, Body::Msg(_)),
                "control messages are unicast"
            );
            e.refs -= 1;
        } else {
            self.pkt_slab.remove(r.0);
        }
        if repost {
            let qp = self.qp_mut(rank, qp_idx.into());
            qp.rq_avail = (qp.rq_avail + 1).min(qp.rq_depth);
        }
    }

    // ----------------------------- posting ----------------------------- //

    #[allow(clippy::too_many_arguments)] // mirrors the verbs post signature
    pub(crate) fn post_mcast(
        &mut self,
        src: Rank,
        qp: QpNum,
        group: McastGroupId,
        imm: ImmData,
        origin: Rank,
        psn: u32,
        len: usize,
    ) {
        let tree = &self.trees[group.0 as usize];
        assert!(tree.is_member(src), "{src} multicasts to foreign group");
        self.enqueue_tx(
            src,
            qp,
            Wqe::Mcast {
                group,
                imm,
                origin,
                psn,
                len: len_field(len),
            },
        );
    }

    /// Post one in-network-reduction contribution sweep: the message
    /// `seg` describes to every owner in `owners` except `src`, each
    /// owner's `seg.chunks` PSNs after the previous one's (see
    /// [`Ctx::post_inc_sweep`]). The fabric's switches merge
    /// contributions up the group's tree and deliver one result per PSN
    /// to each owner's `owner_qp`. Every owner's message is checked here.
    pub(crate) fn post_inc(
        &mut self,
        src: Rank,
        qp: QpNum,
        group: McastGroupId,
        owners: Range<u32>,
        owner_qp: QpNum,
        seg: MsgSegments,
    ) {
        assert!(
            self.topo.top_level() > 0,
            "in-network reduction needs a switched fabric"
        );
        let tree = &self.trees[group.0 as usize];
        assert!(tree.is_member(src), "{src} contributes to foreign group");
        assert_eq!(
            tree.members().len(),
            self.num_ranks(),
            "in-network reduction requires full-membership groups"
        );
        assert!(
            owners.end as usize <= self.num_ranks(),
            "sweep owners {owners:?} beyond the {} ranks",
            self.num_ranks()
        );
        let owner_seg = |o: u32| MsgSegments {
            first_psn: (o - owners.start)
                .checked_mul(seg.chunks)
                .and_then(|d| d.checked_add(seg.first_psn))
                .expect("sweep PSNs overflow"),
            ..seg
        };
        for o in owners.clone().filter(|&o| o != src.0) {
            check_segments(&owner_seg(o));
        }
        let first = next_owner(owners.start, src, owners.end)
            .expect("a sweep contributes to at least one owner");
        self.enqueue_tx(
            src,
            qp,
            Wqe::Inc {
                group,
                owner: Rank(first),
                end: owners.end,
                owner_qp,
                seg: owner_seg(first),
                next: 0,
            },
        );
    }

    pub(crate) fn post_msg(&mut self, src: Rank, dst: Rank, dst_qp: QpNum, msg: M, len: usize) {
        let body = Body::Msg(self.ctrl_msgs.insert(msg));
        self.post_ready(src, dst, dst_qp, body, len_field(len), PacketKind::Control);
    }

    /// Post one reliable unicast message of `src`'s data.
    pub(crate) fn post_unicast(&mut self, src: Rank, dst: Rank, dst_qp: QpNum, seg: MsgSegments) {
        check_segments(&seg);
        let path = self.topo.route(src, dst);
        self.enqueue_tx(
            src,
            dst_qp,
            Wqe::Unicast {
                path,
                dst_qp,
                seg,
                next: 0,
            },
        );
    }

    pub(crate) fn post_rdma_read(&mut self, src: Rank, qp: QpNum, dst: Rank, len: usize, tag: u64) {
        let body = Body::ReadReq {
            resp_len: len_field(len),
            tag,
        };
        self.post_ready(src, dst, qp, body, 0, PacketKind::Control);
    }

    /// Build a packet of `body` routed from `src` to `dst`'s QP `qp` now,
    /// and queue it ready on `src`'s QP `qp`.
    fn post_ready(
        &mut self,
        src: Rank,
        dst: Rank,
        qp: QpNum,
        body: Body,
        len: u32,
        kind: PacketKind,
    ) {
        let path = self.topo.route(src, dst);
        let r = self.alloc_pkt(PacketInst {
            route: Route::Unicast { path, hop: 0 },
            body,
            src,
            dst_qp: qp,
            payload_len: len,
            kind,
        });
        self.enqueue_tx(src, qp, Wqe::Ready(r));
    }

    fn enqueue_tx(&mut self, src: Rank, qp: QpNum, wqe: Wqe) {
        let i = self.qp_index(src, qp.0 as usize);
        let (nic, state) = (&mut self.nics[src.idx()], &mut self.qps[i]);
        let node = self.wqes.insert(WqeNode { wqe, next: NIL });
        match state.tx_tail {
            NIL => {
                state.tx_head = node;
                nic.set_ready(qp.0 as usize);
            }
            tail => self.wqes.get_mut(tail).next = node,
        }
        state.tx_tail = node;
        if !nic.kick_scheduled {
            nic.kick_scheduled = true;
            let at = nic.tx_free_at.max(self.q.now());
            self.q.schedule_at(at, Ev::TxKick { rank: src });
        }
    }

    /// Take the next packet off send queue `qi` of `src` and put it on
    /// the slab: a ready packet as posted, a datagram built now, or the
    /// next MTU segment of the message at the head — which leaves the
    /// queue only with its last segment, so a message holds its place
    /// (FIFO within the QP) while the arbiter interleaves other QPs. A
    /// reduction sweep moves on to its next owner instead, and leaves with
    /// the last segment of its last owner.
    fn tx_next_packet(&mut self, src: Rank, qi: usize) -> PktRef {
        let head = self.qp(src, qi).tx_head;
        assert_ne!(head, NIL, "arbiter picked an empty queue");
        let mut pop = true;
        // Segment `next` of message `seg` of `src`'s data.
        let chunk = |route, dst_qp, seg: &MsgSegments, next, kind| {
            let (psn, imm, len) = seg.segment(next);
            let body = Body::Chunk {
                origin: src,
                psn,
                imm,
            };
            let payload_len = len as u32;
            PacketInst {
                route,
                body,
                src,
                dst_qp,
                payload_len,
                kind,
            }
        };
        let pkt = match &mut self.wqes.get_mut(head).wqe {
            &mut Wqe::Ready(pr) => {
                self.pop_tx(src, qi);
                return pr;
            }
            &mut Wqe::Mcast {
                group,
                imm,
                origin,
                psn,
                len,
            } => PacketInst {
                route: Route::Mcast { group },
                body: Body::Chunk { origin, psn, imm },
                src,
                dst_qp: QpNum(0),
                payload_len: len,
                kind: PacketKind::McastData,
            },
            Wqe::Unicast {
                path,
                dst_qp,
                seg,
                next,
            } => {
                let path = Arc::clone(path);
                let route = Route::Unicast { path, hop: 0 };
                let pkt = chunk(route, *dst_qp, seg, *next, PacketKind::UnicastData);
                *next += 1;
                pop = *next == seg.chunks;
                pkt
            }
            Wqe::Inc {
                group,
                owner,
                end,
                owner_qp,
                seg,
                next,
            } => {
                let route = Route::IncUp {
                    group: *group,
                    owner: *owner,
                };
                let pkt = chunk(route, *owner_qp, seg, *next, PacketKind::McastData);
                *next += 1;
                pop = false;
                if *next == seg.chunks {
                    match next_owner(owner.0 + 1, src, *end) {
                        Some(o) => {
                            seg.first_psn += (o - owner.0) * seg.chunks;
                            *owner = Rank(o);
                            *next = 0;
                        }
                        None => pop = true,
                    }
                }
                pkt
            }
        };
        if pop {
            self.pop_tx(src, qi);
        }
        self.alloc_pkt(pkt)
    }

    /// Remove the request at the head of `src`'s send queue `qi`.
    fn pop_tx(&mut self, src: Rank, qi: usize) {
        let i = self.qp_index(src, qi);
        let (nic, state) = (&mut self.nics[src.idx()], &mut self.qps[i]);
        state.tx_head = self.wqes.remove(state.tx_head).next;
        if state.tx_head == NIL {
            state.tx_tail = NIL;
            nic.clear_ready(qi, &self.qps[nic.qp_range()]);
        }
    }

    fn handle_tx_kick(&mut self, rank: Rank) {
        let now = self.q.now();
        if self.has_faults {
            let uplink = self.nics[rank.idx()].uplink;
            let st = self.link_fault[uplink.idx()];
            if !st.up {
                // Port down: the whole injection pipeline stalls
                // (link-level backpressure) with requests parked in their
                // send queues; resume when the schedule restores the
                // port. `kick_scheduled` stays true so enqueue_tx does
                // not double-arm; a port that never recovers wedges the
                // NIC and the collective times out at its watchdog.
                self.nics[rank.idx()].kick_scheduled = true;
                if st.next_up_ns != u64::MAX {
                    self.q
                        .schedule_at(SimTime(st.next_up_ns).max(now), Ev::TxKick { rank });
                }
                return;
            }
        }
        let nic = &mut self.nics[rank.idx()];
        nic.kick_scheduled = false;
        let Some(qi) = nic.tx_pick(&self.qps[nic.qp_range()]) else {
            return;
        };
        let uplink = nic.uplink;
        let pr = self.tx_next_packet(rank, qi);
        let link = *self.topo.link(uplink);
        // One slab access: first-hop bookkeeping + the header fields the
        // wire model and counters need.
        let h = {
            let p = self.pkt_mut(pr);
            if let Route::Unicast { path, hop } = &mut p.route {
                debug_assert_eq!(path[0], uplink, "route does not start at the NIC port");
                *hop = 1;
            }
            p.hop()
        };
        let wire = h.wire;
        let ser = self.ser.ns(link.rate, wire);
        let ser = self.effective_ser_ns(uplink, ser);
        let start = now.max(self.links[uplink.idx()].busy);
        let tx_gap = ser.max(self.cfg.host.tx_post_overhead_ns);
        self.links[uplink.idx()].busy = start + ser;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Inject {
                start_ns: start.as_ns(),
                ser_ns: ser,
                link: uplink.idx() as u32,
                src: rank.0,
                bytes: wire as u32,
            });
        }
        let free_at = start + tx_gap;
        let nic = &mut self.nics[rank.idx()];
        nic.tx_free_at = free_at;
        if self.count_and_maybe_drop(uplink, h) {
            self.q.schedule_at(
                start + ser + link.prop_delay_ns,
                Ev::LinkArrive {
                    link: uplink,
                    pkt: pr,
                },
            );
        } else {
            self.release_pkt(pr);
        }
        let i = self.qp_index(rank, qi);
        let (nic, state) = (&mut self.nics[rank.idx()], &mut self.qps[i]);
        if state.tx_head == NIL && state.drains > 0 {
            // Tell the app this QP is done sending, in the order it asked.
            state.drains = 0;
            let (q, qi) = (&mut self.q, qi as u32);
            self.drains.retain(|&(r, i, token)| {
                let mine = (r, i) == (rank, qi);
                if mine {
                    q.schedule_at(free_at, Ev::TxDrained { rank, token });
                }
                !mine
            });
        }
        if nic.ready != 0 {
            nic.kick_scheduled = true;
            self.q.schedule_at(free_at, Ev::TxKick { rank });
        }
    }

    /// Trace a packet copy lost on `link` (when tracing).
    fn trace_drop(&mut self, link: LinkId, cause: DropCause) {
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Drop {
                at_ns: self.q.now().as_ns(),
                link: link.idx() as u32,
                cause,
            });
        }
    }

    /// Record traffic on `link`; returns false if the packet copy was
    /// corrupted there (fabric drop). The caller owns the handle and must
    /// release it when the copy is dropped.
    fn count_and_maybe_drop(&mut self, link: LinkId, h: Hop) -> bool {
        let c = &mut self.links[link.idx()].counters;
        c.packets += 1;
        c.wire_bytes += h.wire as u64;
        match h.kind {
            PacketKind::Control => c.ctrl_bytes += h.payload_len as u64,
            _ => c.data_bytes += h.payload_len as u64,
        }
        if !h.reliable && self.cfg.drops.fabric_drop_prob > 0.0 {
            let p = self.cfg.drops.fabric_drop_prob;
            // The one RNG draw site (`FabricConfig::uses_rng`).
            if self.rng.random_bool(p) {
                self.links[link.idx()].counters.drops += 1;
                self.trace_drop(link, DropCause::Corruption);
                return false;
            }
        }
        true
    }

    fn handle_link_arrive(&mut self, in_link: LinkId, pkt: PktRef) {
        if let Some(hdr) = self.mcast_hdr(pkt) {
            return self.mcast_arrive(in_link, pkt, &hdr);
        }
        let node = self.topo.link(in_link).dst;
        match self.topo.kind(node) {
            NodeKind::Switch { .. } => self.forward_at_switch(node, pkt),
            NodeKind::Host(rank) => self.deliver_at_host(rank, pkt),
        }
    }

    /// The multicast header of `pr` (`None` for any other route).
    #[inline]
    fn mcast_hdr(&self, pr: PktRef) -> Option<McastHdr> {
        let p = self.pkt(pr);
        match (&p.route, p.body) {
            (&Route::Mcast { group }, Body::Chunk { origin, psn, .. }) => Some(McastHdr {
                group,
                origin,
                psn,
                hop: p.hop(),
            }),
            (Route::Mcast { .. }, _) => unreachable!("multicast packet without chunk payload"),
            _ => None,
        }
    }

    /// A multicast copy reaches the far end of `in_link`: a switch
    /// replicates it down the group's tree, a host delivers it to the QP
    /// it attached to the group.
    fn mcast_arrive(&mut self, in_link: LinkId, pr: PktRef, h: &McastHdr) {
        let node = self.topo.link(in_link).dst;
        let rank = match self.topo.kind(node) {
            NodeKind::Switch { .. } => return self.replicate(node, in_link, pr, h),
            NodeKind::Host(rank) => rank,
        };
        match self.group_attach[h.group.0 as usize * self.nics.len() + rank.idx()] {
            // Hosts on the tree but not attached (e.g. sender's own copy
            // in degenerate trees) silently discard.
            NIL => self.release_pkt(pr),
            g => self.deliver(rank, in_link, pr, g as usize, (h.origin.0, h.psn, rank.0)),
        }
    }

    /// A routed packet — unicast or a reduced shard — reaches `rank`: the
    /// target NIC answers a read request in hardware, with no CPU
    /// involvement (RC one-sided semantics); anything else completes on
    /// the QP it names, as it is, and a QP `rank` lacks panics.
    fn deliver_at_host(&mut self, rank: Rank, pr: PktRef) {
        let p = self.pkt(pr);
        let (requester, req_qp) = (p.src, p.dst_qp);
        match p.body {
            Body::ReadReq { resp_len, tag } => {
                self.release_pkt(pr);
                let body = Body::ReadResp { tag };
                self.post_ready(
                    rank,
                    requester,
                    req_qp,
                    body,
                    resp_len,
                    PacketKind::UnicastData,
                );
            }
            _ => {
                let qp = &self.qps[self.qp_index(rank, req_qp.0 as usize)];
                let slot = self.worker_slot(rank, qp.worker);
                self.schedule_cqe(rank, qp.local, slot, pr, false);
            }
        }
    }

    /// Deliver the multicast copy `pr` two-sided into `rank`'s QP `qps[g]`:
    /// unless the forced drop model names it by `key` `(origin, psn,
    /// rank)`, it consumes a pre-posted receive or is RNR-dropped. The QP
    /// holds all the delivery reads of it: its receive slots, its RX
    /// worker and its rank-local number.
    fn deliver(&mut self, rank: Rank, in_link: LinkId, pr: PktRef, g: usize, key: (u32, u32, u32)) {
        // Forced drop injection; the emptiness guard keeps the hash
        // lookup off the common (no-injection) delivery path.
        if !self.cfg.drops.forced.is_empty() && self.cfg.drops.forced.contains(&key) {
            // Account as a drop on the final delivery link.
            self.links[in_link.idx()].counters.drops += 1;
            self.trace_drop(in_link, DropCause::Forced);
            return self.release_pkt(pr);
        }
        let qp = &mut self.qps[g];
        if qp.rq_avail == 0 {
            self.nics[rank.idx()].rnr_drops += 1;
            self.trace_drop(in_link, DropCause::Rnr);
            return self.release_pkt(pr);
        }
        qp.rq_avail -= 1;
        let (local, worker) = (qp.local, qp.worker);
        let slot = self.worker_slot(rank, worker);
        self.schedule_cqe(rank, local, slot, pr, true);
    }

    /// Queue the packet's completion on `rank`'s QP `qp_idx` through the
    /// RX worker at `slot` of `workers`; the handle transfers to the
    /// `CqeDone` event (CQE contents are derived from the slab entry at
    /// dispatch time).
    fn schedule_cqe(&mut self, rank: Rank, qp_idx: u16, slot: usize, pr: PktRef, repost: bool) {
        let now = self.q.now();
        let busy = &mut self.workers[slot];
        let visible = now + self.cfg.host.rx_cqe_dma_ns;
        let start = visible.max(*busy);
        let done = start + self.cfg.host.rx_proc_ns_per_cqe;
        *busy = done;
        if self.trace.is_some() {
            // The extra slab read for `bytes` happens only when tracing.
            let bytes = self.pkt(pr).payload_len;
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::Deliver {
                    at_ns: done.as_ns(),
                    rank: rank.0,
                    qp: qp_idx.into(),
                    bytes,
                });
            }
        }
        self.schedule_member(
            done,
            Ev::CqeDone {
                rank,
                qp_idx,
                repost,
                pkt: pr,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DropModel;
    use crate::event::QueueBackend;
    use mcag_verbs::LinkRate;

    type Msg = u64;

    /// Sends `n` multicast chunks from rank 0; leaves count receptions and
    /// mark done when they saw `n` of them. Rank 0 marks done on TX drain.
    struct BcastApp {
        qp: QpNum,
        group: McastGroupId,
        n: u32,
        len: usize,
        got: u32,
        /// When the last reception completed.
        got_at: Option<SimTime>,
        /// The queue's processed count at each reception: the event it
        /// is, counted as the engine counts it.
        popped: Vec<u64>,
        /// Set a no-op timer at each reception: one more event a chunk.
        tick: bool,
    }

    impl RankApp<Msg> for BcastApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == Rank(0) {
                for psn in 0..self.n {
                    ctx.post_mcast_chunk(self.qp, self.group, ImmData(psn), Rank(0), psn, self.len);
                }
                ctx.notify_tx_drained(self.qp, 0);
            } else if self.n == 0 {
                ctx.mark_done();
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, _payload: &Payload<Msg>) {
            assert!(cqe.is_recv_success());
            self.got += 1;
            self.got_at = Some(ctx.now());
            self.popped.push(ctx.inner.q.processed());
            if self.tick {
                ctx.set_timer(1, 0);
            }
            if self.got == self.n {
                ctx.mark_done();
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}

        fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
            ctx.mark_done();
        }
    }

    fn bcast_fabric(
        n_ranks: usize,
        chunks: u32,
        cfg: FabricConfig,
    ) -> (Fabric<Msg, BcastApp>, McastGroupId) {
        let topo = Topology::single_switch(n_ranks, LinkRate::CX3_56G, 100);
        bcast_on(topo, |_| chunks, cfg)
    }

    /// [`BcastApp`] on every host of `topo`, rank `r` with `n = n(r)`.
    fn bcast_on(
        topo: Topology,
        n: impl Fn(Rank) -> u32,
        cfg: FabricConfig,
    ) -> (Fabric<Msg, BcastApp>, McastGroupId) {
        let members: Vec<Rank> = (0..topo.num_hosts() as u32).map(Rank).collect();
        let mut fab: Fabric<Msg, BcastApp> = Fabric::new(topo, cfg);
        let group = fab.create_group(&members);
        for &r in &members {
            let qp = fab.add_qp(r, Transport::Ud, 0);
            fab.attach(r, qp, group);
            fab.set_app(
                r,
                BcastApp {
                    qp,
                    group,
                    n: n(r),
                    len: 4096,
                    got: 0,
                    got_at: None,
                    popped: Vec::new(),
                    tick: false,
                },
            );
        }
        (fab, group)
    }

    #[test]
    fn broadcast_delivers_to_all_leaves() {
        let (mut fab, _) = bcast_fabric(8, 16, FabricConfig::ideal());
        let stats = fab.run();
        assert!(stats.all_done(), "stats: {stats:?}");
        assert_eq!(fab.total_rnr_drops(), 0);
        assert_eq!(fab.traffic().total_drops(), 0);
        assert!(stats.peak_queue_depth > 0);
    }

    #[test]
    fn broadcast_traffic_is_bandwidth_optimal() {
        // Each of the 16 chunks (4 KiB payload) must cross each link at
        // most once: per-link data bytes <= 64 KiB.
        let (mut fab, _) = bcast_fabric(8, 16, FabricConfig::ideal());
        fab.run();
        let report = fab.traffic();
        let payload_total = 16 * 4096u64;
        assert_eq!(report.max_link_data_bytes(), payload_total);
        // Exactly: uplink of rank 0 once, downlinks to 7 leaves once.
        assert_eq!(report.total_data_bytes(), payload_total * 8);
        // Engine stats ride along with the counters.
        assert!(report.events() > 0);
    }

    #[test]
    fn broadcast_timing_is_serialization_bound() {
        let cfg = FabricConfig::ideal();
        let (mut fab, _) = bcast_fabric(4, 64, cfg);
        let stats = fab.run();
        // 64 chunks of (4096+64)B at 7 B/ns ≈ 38 us end-to-end minimum,
        // two hops. Loose sanity bounds.
        let t = stats.max_done().unwrap().as_ns();
        let wire = LinkRate::CX3_56G.serialization_ns(4096 + 64) * 64;
        assert!(t >= wire, "t={t} < wire={wire}");
        assert!(t < wire * 3, "t={t} suspiciously slow vs {wire}");
    }

    #[test]
    fn full_drop_probability_kills_all_datagrams() {
        let mut cfg = FabricConfig::ideal();
        cfg.drops = DropModel::uniform(1.0);
        let (mut fab, _) = bcast_fabric(4, 4, cfg);
        let stats = fab.run();
        // Leaves never finish; only the root (tx-drain) completes.
        assert!(!stats.all_done());
        assert_eq!(
            stats.per_rank_done.iter().flatten().count(),
            1,
            "only root done"
        );
        assert!(fab.traffic().total_drops() > 0);
        // Dropped replicas must not leak slab entries.
        assert_eq!(fab.live_packets(), 0);
    }

    #[test]
    fn forced_drop_hits_exactly_one_receiver() {
        let mut cfg = FabricConfig::ideal();
        cfg.drops.forced.insert((0, 2, 3)); // origin 0, psn 2, dst rank 3
        let (mut fab, _) = bcast_fabric(4, 4, cfg);
        let stats = fab.run();
        assert!(!stats.all_done());
        let unfinished: Vec<usize> = stats
            .per_rank_done
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_none())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unfinished, vec![3]);
    }

    #[test]
    fn rnr_drops_under_rq_exhaustion() {
        let mut cfg = FabricConfig::ideal();
        cfg.host.rq_depth = 4;
        cfg.host.rx_proc_ns_per_cqe = 100_000; // absurdly slow worker
        let (mut fab, _) = bcast_fabric(3, 64, cfg);
        let stats = fab.run();
        assert!(!stats.all_done());
        assert!(fab.total_rnr_drops() > 0, "expected RNR drops");
    }

    #[test]
    #[should_panic(expected = "multicast-group table exhausted")]
    fn group_table_capacity_enforced() {
        let topo = Topology::single_switch(4, LinkRate::CX3_56G, 100);
        let mut cfg = FabricConfig::ideal();
        cfg.mcast_table_capacity = Some(2);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..4).map(Rank).collect();
        fab.create_group(&members);
        fab.create_group(&members);
        fab.create_group(&members); // third group exceeds the table
    }

    #[test]
    fn qps_added_out_of_rank_order_keep_their_numbers() {
        // Rank by rank appends to the fabric-wide QP table; going back to
        // an earlier rank inserts into it and shifts the later ranks'.
        let topo = Topology::single_switch(3, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        let order = [
            (2, Transport::Rc),
            (0, Transport::Ud),
            (2, Transport::Ud),
            (0, Transport::Rc),
        ];
        let numbers: Vec<QpNum> = order
            .iter()
            .map(|&(r, t)| fab.add_qp(Rank(r), t, 0))
            .collect();
        assert_eq!(numbers, [QpNum(0), QpNum(0), QpNum(1), QpNum(1)]);
        let transports: Vec<(u32, Transport)> = fab
            .inner
            .nics
            .iter()
            .enumerate()
            .flat_map(|(r, nic)| {
                fab.inner.qps[nic.qp_range()]
                    .iter()
                    .map(move |q| (r as u32, q.transport))
            })
            .collect();
        assert_eq!(
            transports,
            [
                (0, Transport::Ud),
                (0, Transport::Rc),
                (2, Transport::Rc),
                (2, Transport::Ud)
            ]
        );
    }

    /// Rank 0 multicasts chunks `0..n` on QP 0 to group `a` and chunks
    /// `n..2n` on QP 1 to group `b`; rank 1 records each completion.
    struct TwoGroups {
        groups: [McastGroupId; 2],
        n: u32,
        got: Vec<(u32, QpNum, SimTime)>,
    }

    impl RankApp<Msg> for TwoGroups {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == Rank(0) {
                for psn in 0..2 * self.n {
                    let k = psn / self.n;
                    let (qp, group) = (QpNum(k), self.groups[k as usize]);
                    ctx.post_mcast_chunk(qp, group, ImmData(psn), Rank(0), psn, 4096);
                }
                ctx.mark_done();
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, payload: &Payload<Msg>) {
            let &Payload::Chunk { psn, .. } = payload else {
                panic!("expected a data chunk");
            };
            self.got.push((psn, cqe.qp, ctx.now()));
            if self.got.len() == 2 * self.n as usize {
                ctx.mark_done();
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    #[test]
    fn attachments_follow_qps_shifted_by_an_earlier_rank() {
        // Rank 1's QPs are wired and attached, and then a QP added to
        // rank 0 shifts rank 1's slice of the QP table: group `a`'s copies
        // must still complete on rank 1's QP 1 through its worker 1, and
        // group `b`'s on its QP 0 through worker 0. Each copy holds its
        // worker for 10 µs, far longer than a chunk takes on the wire, so
        // the two groups' completions overlap only on two workers.
        const N: u32 = 8;
        const PROC_NS: u64 = 10_000;
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut cfg = FabricConfig::ideal();
        cfg.host.rx_workers = 2;
        cfg.host.rx_proc_ns_per_cqe = PROC_NS;
        let mut fab: Fabric<Msg, TwoGroups> = Fabric::new(topo, cfg);
        let members = [Rank(0), Rank(1)];
        let groups = [fab.create_group(&members), fab.create_group(&members)];
        fab.add_qp(Rank(0), Transport::Ud, 0);
        let q0 = fab.add_qp(Rank(1), Transport::Ud, 0);
        let q1 = fab.add_qp(Rank(1), Transport::Ud, 1);
        fab.attach(Rank(1), q1, groups[0]);
        fab.attach(Rank(1), q0, groups[1]);
        assert_eq!(fab.add_qp(Rank(0), Transport::Ud, 1), QpNum(1));
        for r in members {
            let got = Vec::new();
            fab.set_app(r, TwoGroups { groups, n: N, got });
        }
        let stats = fab.run();
        assert!(stats.all_done(), "stats: {stats:?}");
        let end = stats.max_done().unwrap().as_ns();
        let got = &fab.into_apps()[1].got;
        assert_eq!(got.len(), 2 * N as usize);
        for &(psn, qp, _) in got {
            assert_eq!(qp, if psn < N { q1 } else { q0 }, "chunk {psn}");
        }
        // Both workers served their group's copies side by side: each
        // group's k-th completion lands in the same worker period, and
        // the run ends after N periods, not the 2N of one shared worker.
        for k in 0..N {
            let at = |group: u32| {
                got.iter()
                    .filter(|&&(psn, ..)| psn / N == group)
                    .nth(k as usize)
                    .unwrap()
                    .2
                    .as_ns()
            };
            assert!(at(0).abs_diff(at(1)) < PROC_NS, "completion {k}");
        }
        assert!(end < (N as u64 + 1) * PROC_NS, "ended at {end} ns");
    }

    #[test]
    #[should_panic(expected = "r1 has no QP 5")]
    fn a_message_to_a_qp_its_destination_lacks_panics() {
        // A routed packet completes only on a QP its destination has; it
        // must not fall back to some other QP's RX worker. Rank 0 sends
        // on its QP 5 to rank 1's, which has one QP.
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg, OneShot> = Fabric::new(topo, FabricConfig::ideal());
        for _ in 0..6 {
            fab.add_qp(Rank(0), Transport::Rc, 0);
        }
        fab.add_qp(Rank(1), Transport::Rc, 0);
        for r in [Rank(0), Rank(1)] {
            fab.set_app(r, OneShot(QpNum(5)));
        }
        fab.run();
    }

    /// Rank 0 sends rank 1 one control message on rank 1's QP `.0`.
    struct OneShot(QpNum);

    impl RankApp<Msg> for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == Rank(0) {
                ctx.post_msg(Rank(1), self.0, 1, 64);
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, _cqe: &Cqe, _payload: &Payload<Msg>) {
            ctx.mark_done();
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    #[test]
    fn fabric_is_send() {
        // The whole simulation — fabric, queue, slab, installed apps —
        // must be movable to a sweep-executor worker thread. A compile
        // check, but kept as a test so the property is named and
        // searchable.
        fn assert_send<T: Send>() {}
        assert_send::<Fabric<Msg>>();
        assert_send::<Fabric<Msg, BcastApp>>();
        assert_send::<Box<dyn RankApp<Msg>>>();
    }

    #[test]
    fn into_apps_returns_every_rank_in_order() {
        let (mut fab, _) = bcast_fabric(4, 4, FabricConfig::ideal());
        let stats = fab.run();
        assert!(stats.all_done());
        let apps = fab.into_apps();
        assert_eq!(apps.len(), 4);
        for (r, app) in apps.iter().enumerate() {
            // Leaves counted every chunk; the root's counter stays 0.
            assert_eq!(app.got, if r == 0 { 0 } else { 4 });
        }
    }

    #[test]
    #[should_panic(expected = "app out of rank order")]
    fn set_app_out_of_rank_order_is_rejected() {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        fab.set_app(Rank(1), Box::new(TimerApp { fired_at: None }));
    }

    #[test]
    #[should_panic(expected = "every rank needs an app")]
    fn run_without_every_app_is_rejected() {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        fab.add_qp(Rank(0), Transport::Rc, 0);
        fab.set_app(Rank(0), Box::new(TimerApp { fired_at: None }));
        fab.run();
    }

    #[test]
    fn deterministic_replay() {
        let (mut f1, _) = bcast_fabric(8, 32, FabricConfig::ucc_default());
        let (mut f2, _) = bcast_fabric(8, 32, FabricConfig::ucc_default());
        let s1 = f1.run();
        let s2 = f2.run();
        assert_eq!(s1.per_rank_done, s2.per_rank_done);
        assert_eq!(s1.events, s2.events);
        assert_eq!(s1.peak_queue_depth, s2.peak_queue_depth);
    }

    #[test]
    fn wheel_and_heap_engines_agree() {
        // Same broadcast on both event-queue engines: identical timing,
        // event counts, and per-link counters.
        let mut wheel_cfg = FabricConfig::ucc_default();
        wheel_cfg.event_queue = QueueBackend::Wheel;
        let mut heap_cfg = FabricConfig::ucc_default();
        heap_cfg.event_queue = QueueBackend::Heap;
        let (mut fw, _) = bcast_fabric(8, 32, wheel_cfg);
        let (mut fh, _) = bcast_fabric(8, 32, heap_cfg);
        let sw = fw.run();
        let sh = fh.run();
        assert_eq!(sw.per_rank_done, sh.per_rank_done);
        assert_eq!(sw.events, sh.events);
        assert_eq!(sw.peak_queue_depth, sh.peak_queue_depth);
        assert_eq!(fw.traffic().per_link(), fh.traffic().per_link());
    }

    #[test]
    fn run_until_pauses_and_resumes_without_reordering() {
        let (mut fab, _) = bcast_fabric(4, 16, FabricConfig::ucc_default());
        let (mut reference, _) = bcast_fabric(4, 16, FabricConfig::ucc_default());
        // Drive the first fabric in 2 µs slices until quiescent.
        let mut deadline = 2_000u64;
        let stats = loop {
            let s = fab.run_until(SimTime(deadline));
            if s.all_done() {
                break s;
            }
            assert!(
                fab.next_event_time().is_some(),
                "paused without pending events"
            );
            deadline += 2_000;
        };
        let whole = reference.run();
        assert_eq!(stats.per_rank_done, whole.per_rank_done);
        assert_eq!(stats.events, whole.events);
    }

    /// An 8-host two-level fat tree, four hosts per leaf: a leaf's copies
    /// of a datagram to its hosts (and the spine) leave at one instant and
    /// arrive at one, as do those hosts' completions.
    fn two_level_eight() -> Topology {
        Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn runs_match_the_heap_engine_in_slices() {
        // Wheel runs against the heap's separate entries, each fabric
        // driven in 1 µs `run_until` slices: identical completions, event
        // counts, queue depths, per-link counters and trace — queue-depth
        // samples included. On the 48-host star a chunk's copies reach
        // the hosts in one arrive run of 47, delivered in one pass, and a
        // chunk takes 97 events, so the samples, 1,024 events apart,
        // fall at every phase of it: about half of them inside a run.
        let drive = |topo: Topology, backend| {
            let mut cfg = FabricConfig::ucc_default();
            cfg.event_queue = backend;
            cfg.trace = Some(TraceSpec::default());
            let (mut fab, _) = bcast_on(topo, |_| 256, cfg);
            let mut deadline = 1_000u64;
            let stats = loop {
                let s = fab.run_until(SimTime(deadline));
                if s.all_done() {
                    break s;
                }
                deadline += 1_000;
            };
            let trace: Vec<TraceEvent> = fab.trace().unwrap().iter().copied().collect();
            let spilled = fab.inner.runs.words.len();
            (stats, fab.traffic(), trace, spilled)
        };
        let star = || Topology::single_switch(48, LinkRate::CX3_56G, 100);
        for (topo, min_samples) in [(two_level_eight(), 2), (star(), 20)] {
            let (sw, tw, trw, spilled) = drive(topo.clone(), QueueBackend::Wheel);
            let (sh, th, trh, none) = drive(topo, QueueBackend::Heap);
            assert!(sw.all_done());
            assert!(spilled > 0 && none == 0, "runs formed: {spilled} / {none}");
            assert_eq!(sw.per_rank_done, sh.per_rank_done);
            assert_eq!(
                (sw.end_time, sw.events, sw.peak_queue_depth),
                (sh.end_time, sh.events, sh.peak_queue_depth)
            );
            assert_eq!(tw.per_link(), th.per_link());
            let depths = |trace: &[TraceEvent]| -> Vec<TraceEvent> {
                let depth = |e: &&TraceEvent| matches!(e, TraceEvent::QueueDepth { .. });
                trace.iter().filter(depth).copied().collect()
            };
            let samples = depths(&trw);
            assert!(
                samples.len() >= min_samples,
                "{} queue-depth samples",
                samples.len()
            );
            assert_eq!(samples, depths(&trh));
            assert_eq!(trw, trh);
        }
    }

    #[test]
    fn long_completion_runs_match_the_heap_engine_at_every_member() {
        // On the 48-host star each chunk's 47 completions are due at one
        // instant and dispatch as one completion run, rank `r` at position
        // `r - 1`. Rank 1 sets a timer at each reception, so a chunk takes
        // 97 events; 97 is odd, so over 2,048 chunks the queue-depth
        // samples, 1,024 events apart, fall after every position of a run. Rank 47 waits for nothing: the last run
        // is cut when rank 46 finishes, and a later `run_until` slice
        // resumes it. Each fabric is driven in 1 µs slices and compared
        // with the heap's separate entries reception by reception and
        // sample by sample.
        const CHUNKS: u32 = 2048;
        const RECEIVERS: usize = 47;
        let drive = |backend| {
            let mut cfg = FabricConfig::ucc_default();
            cfg.event_queue = backend;
            cfg.trace = Some(TraceSpec::default());
            let topo = Topology::single_switch(RECEIVERS + 1, LinkRate::CX3_56G, 100);
            let n = |r: Rank| if r.idx() == RECEIVERS { 0 } else { CHUNKS };
            let (mut fab, _) = bcast_on(topo, n, cfg);
            fab.apps[1].tick = true;
            let mut deadline = 1_000u64;
            let stats = loop {
                let s = fab.run_until(SimTime(deadline));
                if s.all_done() {
                    break s;
                }
                deadline += 1_000;
            };
            (fab, stats, deadline)
        };
        let (mut w, sw, dw) = drive(QueueBackend::Wheel);
        let (mut h, sh, dh) = drive(QueueBackend::Heap);
        assert!(w.inner.run.is_some(), "the last run was not cut");
        assert!(!w.inner.runs.words.is_empty() && h.inner.runs.words.is_empty());
        assert_eq!(
            (sw.end_time, sw.events, sw.peak_queue_depth, dw),
            (sh.end_time, sh.events, sh.peak_queue_depth, dh)
        );
        assert_eq!(sw.per_rank_done, sh.per_rank_done);
        // Every chunk's receptions are consecutive events in rank order,
        // and rank 47's last one is still to come.
        let popped = |fab: &Fabric<Msg, BcastApp>, r: usize| fab.apps[r].popped.clone();
        for r in 1..=RECEIVERS {
            let (first, mine) = (popped(&w, 1), popped(&w, r));
            let expect = if r == RECEIVERS { CHUNKS - 1 } else { CHUNKS };
            assert_eq!(mine.len(), expect as usize);
            for (i, &e) in mine.iter().enumerate() {
                assert_eq!(e, first[i] + r as u64 - 1, "rank {r}, chunk {i}");
            }
            assert_eq!(mine, popped(&h, r), "rank {r}");
        }
        // A sample falls after every position of a run: the event count
        // at a reception is a multiple of 1,024 at each position.
        let sampled: Vec<usize> = (1..=RECEIVERS)
            .filter(|&r| popped(&w, r).iter().any(|&e| e & QUEUE_SAMPLE_MASK == 0))
            .collect();
        assert_eq!(sampled, (1..=RECEIVERS).collect::<Vec<_>>());
        let trace = |fab: &Fabric<Msg, BcastApp>| -> Vec<TraceEvent> {
            fab.trace().unwrap().iter().copied().collect()
        };
        assert_eq!(trace(&w), trace(&h));
        // Un-finish rank 46; the next slice resumes the cut run at the
        // instant it stopped, with rank 47's member.
        for fab in [&mut w, &mut h] {
            fab.inner.done[RECEIVERS - 1] = None;
            fab.inner.done_count -= 1;
        }
        let (rw, rh) = (
            w.run_until(SimTime(dw + 1_000)),
            h.run_until(SimTime(dh + 1_000)),
        );
        assert!(w.inner.run.is_none());
        assert_eq!((rw.events, rw.end_time), (rh.events, rh.end_time));
        let (last_w, last_h) = (&w.apps[RECEIVERS], &h.apps[RECEIVERS]);
        assert_eq!(last_w.got, CHUNKS);
        assert_eq!(last_w.got_at, Some(sw.end_time));
        assert_eq!(last_w.popped, last_h.popped);
        assert_eq!(trace(&w), trace(&h));
        assert_eq!(w.traffic().per_link(), h.traffic().per_link());
        assert_eq!((w.live_packets(), h.live_packets()), (0, 0));
    }

    #[test]
    fn a_run_cut_by_the_last_finish_resumes_in_order() {
        // Rank 7 waits for nothing, so the last rank to finish is one of
        // its leaf-mates, and the final completion run still holds rank
        // 7's member when the run stops.
        let cut = |backend| {
            let mut cfg = FabricConfig::ucc_default();
            cfg.event_queue = backend;
            let n = |r: Rank| u32::from(r != Rank(7));
            let (mut fab, _) = bcast_on(two_level_eight(), n, cfg);
            let stats = fab.run();
            assert!(stats.all_done());
            (fab, stats)
        };
        let (mut w, sw) = cut(QueueBackend::Wheel);
        let (mut h, sh) = cut(QueueBackend::Heap);
        assert!(w.inner.run.is_some(), "the run was not cut");
        assert!(h.inner.run.is_none());
        assert_eq!(sw.per_rank_done, sh.per_rank_done);
        assert_eq!(
            (sw.end_time, sw.events, sw.peak_queue_depth),
            (sh.end_time, sh.events, sh.peak_queue_depth)
        );
        for fab in [&w, &h] {
            // The rest of the run is due at the instant it stopped.
            assert_eq!(fab.next_event_time(), Some(sw.end_time));
            assert_eq!(fab.inner.q.len(), h.inner.q.len());
            assert_eq!(fab.live_packets(), h.live_packets());
            assert_eq!(fab.apps[7].got, 0);
        }
        // With every rank done a later call dispatches nothing; un-finish
        // rank 6 so that one resumes. Rank 7's member comes first, at the
        // cut instant, and the rest drains as on the heap.
        for fab in [&mut w, &mut h] {
            fab.inner.done[6] = None;
            fab.inner.done_count -= 1;
        }
        let (rw, rh) = (w.run(), h.run());
        assert!(w.inner.run.is_none());
        assert_eq!((rw.events, rw.end_time), (rh.events, rh.end_time));
        assert!(rw.events > sw.events);
        assert_eq!(w.traffic().per_link(), h.traffic().per_link());
        assert_eq!(w.live_packets(), 0);
        for fab in [&w, &h] {
            let seven = &fab.apps[7];
            assert_eq!((seven.got, seven.got_at), (1, Some(sw.end_time)));
        }
    }

    #[test]
    fn slab_recycles_instead_of_growing() {
        // Steady-state broadcast: the slab high-water mark must be far
        // below the total packet count (handles are recycled).
        let (mut fab, _) = bcast_fabric(8, 256, FabricConfig::ucc_default());
        let stats = fab.run();
        assert!(stats.all_done());
        assert_eq!(fab.live_packets(), 0, "all packets released");
        let slab_size = fab.inner.pkt_slab.slots.len();
        assert!(
            slab_size < 2048,
            "slab grew to {slab_size} for 256 chunks — free list not reused?"
        );
    }

    /// Ping-pong over control messages + one RDMA read.
    struct PingPong {
        peer: Rank,
        hops_left: u32,
        read_done: bool,
    }

    impl RankApp<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == Rank(0) {
                ctx.post_msg(self.peer, QpNum(0), 1, 64);
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, payload: &Payload<Msg>) {
            match cqe.opcode {
                CqeOpcode::Recv => {
                    let Payload::Msg(v) = payload else {
                        panic!("expected message")
                    };
                    if self.hops_left > 0 {
                        self.hops_left -= 1;
                        ctx.post_msg(self.peer, QpNum(0), v + 1, 64);
                    } else if ctx.rank() == Rank(0) {
                        // Finish with a read of 8 KiB from the peer.
                        ctx.post_rdma_read(QpNum(0), self.peer, 8192, 0xfe7c);
                    } else {
                        // Final reply lets rank 0 drain its own count.
                        ctx.post_msg(self.peer, QpNum(0), v + 1, 64);
                        ctx.mark_done();
                    }
                }
                CqeOpcode::RdmaReadDone => {
                    assert_eq!(cqe.wr_id, 0xfe7c);
                    assert_eq!(cqe.byte_len, 8192);
                    self.read_done = true;
                    ctx.mark_done();
                }
                _ => panic!("unexpected opcode"),
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    #[test]
    fn control_messages_and_rdma_read_roundtrip() {
        let topo = Topology::back_to_back(LinkRate::CX7_200G, 50);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
            fab.set_app(
                r,
                Box::new(PingPong {
                    peer: if r == Rank(0) { Rank(1) } else { Rank(0) },
                    hops_left: 4,
                    read_done: false,
                }),
            );
        }
        let stats = fab.run();
        assert!(stats.all_done());
        // Mark-done of rank 1 happens before rank 0's read completes.
        let d0 = stats.per_rank_done[0].unwrap();
        let d1 = stats.per_rank_done[1].unwrap();
        assert!(d0 > d1);
        // Unicast packets travel alone, so they form no run and leave
        // the run arena empty.
        assert!(fab.inner.runs.words.is_empty());
    }

    /// A control message type with no `Clone` impl at all.
    struct NoClone;

    /// Rank 0 sends rank 1 one [`NoClone`] message.
    struct SendOnce;

    impl RankApp<NoClone> for SendOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NoClone>) {
            if ctx.rank() == Rank(0) {
                ctx.post_msg(Rank(1), QpNum(0), NoClone, 64);
                ctx.mark_done();
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, NoClone>, _cqe: &Cqe, payload: &Payload<NoClone>) {
            assert!(matches!(payload, Payload::Msg(NoClone)));
            ctx.mark_done();
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, NoClone>, _token: u64) {}
    }

    #[test]
    fn control_messages_need_no_clone_impl() {
        // The fabric lends every completion's payload and never copies a
        // message, so a fabric builds and runs over a message type that
        // cannot be cloned: a clone would allocate a message's spilled
        // parts a second time.
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<NoClone, SendOnce> = Fabric::new(topo, FabricConfig::ideal());
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
            fab.set_app(r, SendOnce);
        }
        assert!(fab.run().all_done());
        assert_eq!(fab.live_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "already has 65,536 QPs")]
    fn a_nic_holds_at_most_65536_qps() {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        for n in 0..=u32::from(u16::MAX) {
            assert_eq!(fab.add_qp(Rank(1), Transport::Ud, 0), QpNum(n));
        }
        fab.add_qp(Rank(1), Transport::Ud, 0);
    }

    /// App that arms a timer and records the fire time.
    struct TimerApp {
        fired_at: Option<SimTime>,
    }

    impl RankApp<Msg> for TimerApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == Rank(0) {
                ctx.set_timer(12_345, 7);
            } else {
                ctx.mark_done();
            }
        }
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: &Cqe, _p: &Payload<Msg>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            assert_eq!(token, 7);
            self.fired_at = Some(ctx.now());
            ctx.mark_done();
        }
    }

    #[test]
    fn timers_fire_on_schedule() {
        let topo = Topology::back_to_back(LinkRate::CX7_200G, 50);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        fab.add_qp(Rank(0), Transport::Rc, 0);
        fab.add_qp(Rank(1), Transport::Rc, 0);
        fab.set_app(Rank(0), Box::new(TimerApp { fired_at: None }));
        fab.set_app(Rank(1), Box::new(TimerApp { fired_at: None }));
        let stats = fab.run();
        assert_eq!(stats.per_rank_done[0], Some(SimTime(12_345)));
    }

    #[test]
    fn per_link_and_per_rank_breakdowns_sum_to_totals() {
        // Forced drops land on identifiable delivery links and RQ
        // exhaustion produces RNR drops; the TrafficReport breakdowns
        // must sum back to the fabric-level aggregates.
        let mut cfg = FabricConfig::ideal();
        cfg.drops.forced.insert((0, 1, 1));
        cfg.drops.forced.insert((0, 2, 3));
        cfg.host.rq_depth = 4;
        cfg.host.rx_proc_ns_per_cqe = 100_000; // slow worker: RNR backlog
        let (mut fab, _) = bcast_fabric(4, 64, cfg);
        fab.run();
        let report = fab.traffic();
        assert!(report.total_drops() > 0);
        assert!(fab.total_rnr_drops() > 0);
        assert_eq!(report.rnr_per_rank().len(), 4);
        assert_eq!(report.total_rnr_drops(), fab.total_rnr_drops());
        // Forced drops are charged to the two victims' delivery links.
        assert!(report.link(LinkId(3)).drops >= 1);
        assert!(report.link(LinkId(7)).drops >= 1);
    }

    #[test]
    fn degraded_uplink_stretches_completion() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        let (mut healthy, _) = bcast_fabric(4, 32, FabricConfig::ideal());
        let base = healthy.run().max_done().unwrap().as_ns();
        // Root uplink at quarter rate for the whole run.
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(vec![LinkStateEvent::degraded(0, LinkId(0), 1, 4)]);
        let (mut fab, _) = bcast_fabric(4, 32, cfg);
        let stats = fab.run();
        assert!(stats.all_done());
        let slow = stats.max_done().unwrap().as_ns();
        assert!(
            slow > base * 3 && slow < base * 5,
            "quarter-rate uplink: {slow} vs healthy {base}"
        );
        let report = fab.traffic();
        assert!(report.link(LinkId(0)).degraded_ns > 0);
        assert_eq!(
            report.total_degraded_ns(),
            report.link(LinkId(0)).degraded_ns
        );
        assert_eq!(fab.total_fault_drops(), 0);
    }

    #[test]
    fn down_delivery_link_drops_datagrams() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        // Switch->rank3 downlink dead forever: rank 3's multicast copies
        // are lost at the egress and counted as fault drops.
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(vec![LinkStateEvent::down(0, LinkId(7))]);
        let (mut fab, _) = bcast_fabric(4, 8, cfg);
        let stats = fab.run();
        assert!(!stats.all_done());
        let unfinished: Vec<usize> = stats
            .per_rank_done
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_none())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unfinished, vec![3]);
        let report = fab.traffic();
        assert_eq!(report.link(LinkId(7)).fault_drops, 8);
        assert_eq!(report.total_fault_drops(), fab.total_fault_drops());
        // The open-ended outage accrues downtime up to the end of the run.
        assert!(report.link(LinkId(7)).downtime_ns > 0);
        assert_eq!(fab.live_packets(), 0, "dropped copies must not leak");
    }

    #[test]
    fn nic_stalls_through_down_window_then_resumes() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        let window = 50_000u64;
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(vec![
            LinkStateEvent::down(0, LinkId(0)),
            LinkStateEvent::up(window, LinkId(0)),
        ]);
        let (mut fab, _) = bcast_fabric(4, 8, cfg);
        let stats = fab.run();
        assert!(stats.all_done(), "injection must resume after the window");
        assert!(
            stats.max_done().unwrap().as_ns() > window,
            "completion cannot precede the port recovery"
        );
        let report = fab.traffic();
        assert_eq!(report.link(LinkId(0)).downtime_ns, window);
        assert_eq!(fab.total_fault_drops(), 0, "stalled, not dropped");
    }

    #[test]
    fn reliable_traffic_waits_out_a_switch_egress_outage() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        // Ping-pong over RC through a switch whose egress toward rank 1
        // is down for a window: the first ping is delayed to the
        // recovery instant, never dropped.
        let window = 30_000u64;
        let topo = Topology::single_switch(2, LinkRate::CX7_200G, 50);
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(vec![
            LinkStateEvent::down(0, LinkId(3)),
            LinkStateEvent::up(window, LinkId(3)),
        ]);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
            fab.set_app(
                r,
                Box::new(PingPong {
                    peer: if r == Rank(0) { Rank(1) } else { Rank(0) },
                    hops_left: 2,
                    read_done: false,
                }),
            );
        }
        let stats = fab.run();
        assert!(stats.all_done());
        assert!(stats.max_done().unwrap().as_ns() > window);
        assert_eq!(fab.total_fault_drops(), 0);
    }

    #[test]
    fn control_message_lost_to_a_dead_link_is_freed() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        // The switch's egress toward rank 1 never recovers: the first
        // ping is dropped there, and its out-of-line message with it.
        let topo = Topology::single_switch(2, LinkRate::CX7_200G, 50);
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(vec![LinkStateEvent::down(0, LinkId(3))]);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
            fab.set_app(
                r,
                Box::new(PingPong {
                    peer: Rank(1 - r.0),
                    hops_left: 2,
                    read_done: false,
                }),
            );
        }
        assert!(!fab.run().all_done());
        assert_eq!(fab.total_fault_drops(), 1);
        assert_eq!(fab.live_packets(), 0, "the dropped message leaked");
    }

    #[test]
    fn sm_rebuild_routes_multicast_around_a_dead_spine() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        // The SM roots group 0 at a hash-picked spine; kill exactly it.
        let victim = McastTree::build(&topo, McastGroupId(0), &members).root();
        let events: Vec<LinkStateEvent> = (0..topo.num_links() as u32)
            .map(LinkId)
            .filter(|&l| {
                let lk = topo.link(l);
                lk.src == victim || lk.dst == victim
            })
            .map(|l| LinkStateEvent::down(0, l))
            .collect();
        let mut cfg = FabricConfig::ideal();
        cfg.faults = LinkSchedule::new(events);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let group = fab.create_group(&members);
        for &r in &members {
            let qp = fab.add_qp(r, Transport::Ud, 0);
            fab.attach(r, qp, group);
            fab.set_app(
                r,
                Box::new(BcastApp {
                    qp,
                    group,
                    n: 16,
                    len: 4096,
                    got: 0,
                    got_at: None,
                    popped: Vec::new(),
                    tick: false,
                }),
            );
        }
        // Let the fault transitions (t = 0) land, then let the SM notice
        // and re-route — before the first copy reaches its leaf switch.
        let stats = fab.run_until(SimTime(50));
        assert!(!stats.all_done());
        let dead = fab.dead_switches();
        assert_eq!(dead, vec![victim], "chassis with every link down");
        // 2 leaves × 1 rail × 2 directions touch the spine.
        assert_eq!(fab.health().down_links(), 4);
        assert_eq!(fab.rebuild_groups_avoiding(&dead), 1);
        assert_eq!(fab.rebuild_groups_avoiding(&dead), 0, "already re-routed");
        let stats = fab.run();
        assert!(stats.all_done(), "rebuilt tree must deliver: {stats:?}");
        assert_eq!(fab.total_fault_drops(), 0, "no copy touched the corpse");
    }

    /// Rank 0 multicasts `chunks` chunks to everyone on UD QP 0, and
    /// every rank sends each other rank one control message on RC QP 1;
    /// a rank is done once everything addressed to it has arrived.
    struct Mixed {
        group: McastGroupId,
        chunks: u32,
        expect: u32,
    }

    impl RankApp<Msg> for Mixed {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let me = ctx.rank();
            if me == Rank(0) {
                for psn in 0..self.chunks {
                    ctx.post_mcast_chunk(QpNum(0), self.group, ImmData(psn), me, psn, 4096);
                }
            }
            for d in (0..ctx.num_ranks() as u32).filter(|&d| d != me.0) {
                ctx.post_msg(Rank(d), QpNum(1), me.0 as u64, 64);
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, _cqe: &Cqe, _payload: &Payload<Msg>) {
            self.expect -= 1;
            if self.expect == 0 {
                ctx.mark_done();
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    /// Run [`Mixed`] over `topo`, letting the SM re-route around any
    /// switch found dead 50 ns in. Returns everything the run produced
    /// but the host clock, and the trees the fabric ended with.
    fn mixed_run(topo: Arc<Topology>, mut cfg: FabricConfig) -> (String, Vec<Arc<McastTree>>) {
        cfg.trace = Some(TraceSpec::default());
        let n = topo.num_hosts() as u32;
        let members: Vec<Rank> = (0..n).map(Rank).collect();
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let group = fab.create_group(&members);
        for &r in &members {
            let ud = fab.add_qp(r, Transport::Ud, 0);
            fab.add_qp(r, Transport::Rc, 0);
            fab.attach(r, ud, group);
            let chunks = 8;
            let expect = if r == Rank(0) { 0 } else { chunks } + n - 1;
            fab.set_app(
                r,
                Box::new(Mixed {
                    group,
                    chunks,
                    expect,
                }),
            );
        }
        fab.run_until(SimTime(50));
        let dead = fab.dead_switches();
        fab.rebuild_groups_avoiding(&dead);
        let mut stats = fab.run();
        stats.wall_ns = 0;
        let t = fab.traffic();
        let traffic = t
            .clone()
            .with_engine_stats(t.events(), t.peak_queue_depth(), 0);
        let trace: Vec<TraceEvent> = fab.trace().unwrap().iter().copied().collect();
        (
            format!("{stats:?}\n{traffic:?}\n{trace:?}"),
            fab.inner.trees.clone(),
        )
    }

    #[test]
    fn shared_topology_memo_is_transparent() {
        use crate::linkstate::{LinkSchedule, LinkStateEvent};
        let topo = || Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let healthy = FabricConfig::ideal();
        // Every link of the spine group 0 is rooted at goes down at 0,
        // so the SM sweep rebuilds the tree around it.
        let t = topo();
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        let victim = McastTree::build(&t, McastGroupId(0), &members).root();
        let mut faulted = FabricConfig::ideal();
        faulted.faults = LinkSchedule::new(
            (0..t.num_links() as u32)
                .map(LinkId)
                .filter(|&l| t.link(l).src == victim || t.link(l).dst == victim)
                .map(|l| LinkStateEvent::down(0, l))
                .collect(),
        );
        for (name, cfg) in [("healthy", healthy), ("faulted", faulted)] {
            let (fresh, _) = mixed_run(Arc::new(topo()), cfg.clone());
            let shared = Arc::new(topo());
            let (cold, cold_trees) = mixed_run(Arc::clone(&shared), cfg.clone());
            let (warm, warm_trees) = mixed_run(shared, cfg);
            assert_eq!(fresh, cold, "{name}");
            assert_eq!(fresh, warm, "{name}: the warm memo changed the run");
            // The warm fabric's trees, rebuilt ones included, are the
            // cold fabric's, not copies.
            assert_eq!(cold_trees.len(), 1);
            assert!(Arc::ptr_eq(&cold_trees[0], &warm_trees[0]), "{name}");
            let rebuilt = cold_trees[0].root() != victim;
            assert_eq!(rebuilt, name == "faulted", "{name}");
        }
    }

    #[test]
    fn health_snapshot_is_all_up_without_faults() {
        let (fab, _) = bcast_fabric(4, 0, FabricConfig::ideal());
        let h = fab.health();
        assert_eq!(h.down_links(), 0);
        assert_eq!(h.total_fault_drops(), 0);
        assert!(h.links().iter().all(|l| l.up && !l.degraded));
        assert!(fab.dead_switches().is_empty());
    }

    #[test]
    fn fault_free_schedule_is_a_noop() {
        use crate::linkstate::LinkSchedule;
        let (mut base, _) = bcast_fabric(8, 32, FabricConfig::ucc_default());
        let mut cfg = FabricConfig::ucc_default();
        cfg.faults = LinkSchedule::new(Vec::new());
        let (mut faulted, _) = bcast_fabric(8, 32, cfg);
        let s1 = base.run();
        let s2 = faulted.run();
        assert_eq!(s1.per_rank_done, s2.per_rank_done);
        assert_eq!(s1.events, s2.events);
        assert_eq!(base.traffic().per_link(), faulted.traffic().per_link());
    }

    // ------------------------- the fault cursor ------------------------- //

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

    fn faulted_cfg(
        backend: QueueBackend,
        events: Vec<crate::linkstate::LinkStateEvent>,
    ) -> FabricConfig {
        let mut cfg = FabricConfig::ideal();
        cfg.event_queue = backend;
        cfg.faults = crate::linkstate::LinkSchedule::new(events);
        cfg
    }

    #[test]
    #[should_panic(expected = "fault schedule references LinkId(24) outside the topology")]
    fn schedule_naming_a_link_outside_the_topology_is_rejected() {
        use crate::linkstate::LinkStateEvent;
        // A 4-host star has 8 directed links; the check names the highest.
        let events = vec![
            LinkStateEvent::down(10, LinkId(24)),
            LinkStateEvent::down(20, LinkId(9)),
        ];
        let topo = Topology::single_switch(4, LinkRate::CX3_56G, 100);
        let _: Fabric<Msg> = Fabric::new(topo, faulted_cfg(QueueBackend::default(), events));
    }

    #[test]
    fn transition_fires_ahead_of_a_same_instant_arrival() {
        use crate::linkstate::LinkStateEvent;
        for b in BACKENDS {
            // The instant the root's one datagram reaches the switch's
            // egress toward rank 3 (its first copy finds the link idle).
            let mut cfg = faulted_cfg(b, Vec::new());
            cfg.trace = Some(TraceSpec::default());
            let (mut healthy, _) = bcast_fabric(4, 1, cfg);
            assert!(healthy.run().all_done());
            let reach = healthy
                .trace()
                .unwrap()
                .iter()
                .find_map(|e| match *e {
                    TraceEvent::Egress {
                        start_ns, link: 7, ..
                    } => Some(start_ns - switch::SWITCH_LATENCY_NS),
                    _ => None,
                })
                .expect("no copy toward rank 3");
            // Down at that very instant: the transition wins the tie.
            let down = vec![LinkStateEvent::down(reach, LinkId(7))];
            let (mut tie, _) = bcast_fabric(4, 1, faulted_cfg(b, down));
            assert!(!tie.run().all_done(), "{b:?}");
            assert_eq!(tie.total_fault_drops(), 1, "{b:?}");
            // One nanosecond later the copy is already through.
            let down = vec![LinkStateEvent::down(reach + 1, LinkId(7))];
            let (mut late, _) = bcast_fabric(4, 1, faulted_cfg(b, down));
            assert!(late.run().all_done(), "{b:?}");
            assert_eq!(late.total_fault_drops(), 0, "{b:?}");
        }
    }

    #[test]
    fn next_event_time_reports_a_pending_transition() {
        use crate::linkstate::LinkStateEvent;
        for b in BACKENDS {
            let (mut healthy, _) = bcast_fabric(4, 0, faulted_cfg(b, Vec::new()));
            let (mut fab, _) = bcast_fabric(
                4,
                0,
                faulted_cfg(b, vec![LinkStateEvent::down(5_000, LinkId(3))]),
            );
            // Nothing is queued before the run starts.
            assert_eq!(healthy.next_event_time(), None, "{b:?}");
            assert_eq!(fab.next_event_time(), Some(SimTime(5_000)), "{b:?}");
            // Every rank finishes at t = 0, ahead of the transition.
            assert!(healthy.run().all_done() && fab.run().all_done());
            assert_eq!(healthy.next_event_time(), None, "{b:?}");
            assert_eq!(fab.next_event_time(), Some(SimTime(5_000)), "{b:?}");
        }
    }

    #[test]
    fn run_until_applies_due_transitions_and_resumes_the_rest() {
        use crate::linkstate::LinkStateEvent;
        for backend in BACKENDS {
            // Rank 3's downlink dies at t = 0, so no run completes and
            // every deadline is honoured; link 5 drops long after the
            // traffic is over and recovers later still.
            let events = vec![
                LinkStateEvent::down(0, LinkId(7)),
                LinkStateEvent::down(100_000, LinkId(5)),
                LinkStateEvent::up(200_000, LinkId(5)),
            ];
            let (mut whole, _) = bcast_fabric(4, 2, faulted_cfg(backend, events.clone()));
            let (mut fab, _) = bcast_fabric(4, 2, faulted_cfg(backend, events));
            fab.run_until(SimTime(99_999));
            assert!(fab.health().link(LinkId(5)).up, "{backend:?}");
            assert_eq!(fab.next_event_time(), Some(SimTime(100_000)));
            // A transition exactly at the deadline is applied.
            let stats = fab.run_until(SimTime(100_000));
            assert!(!fab.health().link(LinkId(5)).up, "{backend:?}");
            assert_eq!(stats.end_time, SimTime(100_000));
            assert_eq!(fab.next_event_time(), Some(SimTime(200_000)));
            // Resuming applies the rest, as one uninterrupted run does.
            let (a, b) = (fab.run(), whole.run());
            assert!(fab.health().link(LinkId(5)).up, "{backend:?}");
            assert_eq!(fab.next_event_time(), None);
            assert_eq!(fab.traffic().link(LinkId(5)).downtime_ns, 100_000);
            assert_eq!(a.end_time, SimTime(200_000));
            assert_eq!(
                (a.end_time, a.events, a.peak_queue_depth),
                (b.end_time, b.events, b.peak_queue_depth),
                "{backend:?}"
            );
            assert_eq!(a.per_rank_done, b.per_rank_done);
        }
    }

    #[test]
    fn transitions_count_as_events_and_as_queue_depth() {
        use crate::linkstate::LinkStateEvent;
        for b in BACKENDS {
            let (mut healthy, _) = bcast_fabric(4, 16, faulted_cfg(b, Vec::new()));
            let base = healthy.run();
            assert!(base.all_done());
            // Ten no-op transitions (an up link restored to full rate).
            let noops = |from: u64| -> Vec<LinkStateEvent> {
                (0..10)
                    .map(|i| LinkStateEvent::up(from + i, LinkId(7)))
                    .collect()
            };
            // After the run ends: never applied, pending throughout.
            let (mut late, _) = bcast_fabric(4, 16, faulted_cfg(b, noops(1_000_000)));
            let s = late.run();
            assert_eq!(s.per_rank_done, base.per_rank_done, "{b:?}");
            assert_eq!(s.events, base.events, "{b:?}");
            assert_eq!(s.peak_queue_depth, base.peak_queue_depth + 10, "{b:?}");
            // At t = 0: every one applied, ahead of all traffic.
            let (mut early, _) = bcast_fabric(4, 16, faulted_cfg(b, noops(0)));
            let s = early.run();
            assert_eq!(s.per_rank_done, base.per_rank_done, "{b:?}");
            assert_eq!(s.events, base.events + 10, "{b:?}");
            assert_eq!(early.traffic().events(), base.events + 10, "{b:?}");
        }
    }

    // ---------------------- send-queue work requests --------------------- //

    #[test]
    fn work_request_stays_small() {
        // A 128-rank endpoint Reduce-Scatter queues 127 per rank at once;
        // the largest variant is the unicast message (route handle +
        // segmentation).
        let size = std::mem::size_of::<Wqe>();
        assert!(size <= 64, "Wqe grew to {size} bytes");
    }

    #[test]
    fn event_stays_small() {
        // A wheel node is 24 bytes for a 16-byte event; a run entry must
        // not grow it.
        let size = std::mem::size_of::<Ev>();
        assert!(size <= 16, "Ev grew to {size} bytes");
    }

    #[test]
    fn slab_entry_stays_small() {
        // The 128-rank endpoint pair holds ~120 k of these at its peak.
        // An entry no longer depends on the app's message type (control
        // messages wait out of line), so this holds for every `M`,
        // `mcag-core`'s 32-byte `ControlMsg` included; it was 144 bytes
        // with an in-line header, payload and arrival semantics.
        let size = std::mem::size_of::<Slot<SlabEntry>>();
        assert!(size <= 80, "slab entry grew to {size} bytes");
    }

    const ARB_MTU: usize = 1024;

    fn arb_message(first_psn: u32, buf_len: usize, coll: u32) -> MsgSegments {
        let mtu = mcag_verbs::Mtu::new(ARB_MTU);
        MsgSegments {
            first_psn,
            chunks: mtu.chunks_for(buf_len) as u32,
            buf_len,
            mtu,
            imm: mcag_verbs::ImmLayout::DEFAULT,
            coll: mcag_verbs::CollectiveId(coll),
        }
    }

    /// Rank 0 posts an interleaved mix over three QPs; everyone else is a
    /// passive receiver. Drain notifications are recorded as
    /// `(time, token)`; the first drain of the multicast QP posts a second
    /// wave onto a drained queue and a busy one.
    struct ArbApp {
        group: McastGroupId,
        drained: Vec<(u64, u64)>,
    }

    const ARB_CTRL: QpNum = QpNum(0);
    const ARB_UD: QpNum = QpNum(1);
    const ARB_INC: QpNum = QpNum(2);

    impl RankApp<Msg> for ArbApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() != Rank(0) {
                return;
            }
            let g = self.group;
            ctx.post_mcast_chunk(ARB_UD, g, ImmData(0), Rank(0), 0, 1000);
            ctx.notify_tx_drained(ARB_UD, 7);
            ctx.post_msg(Rank(1), ARB_CTRL, 11, 64);
            ctx.post_inc_sweep(ARB_INC, g, 1..2, ARB_INC, arb_message(4, 1500, 3));
            ctx.post_mcast_chunk(ARB_UD, g, ImmData(1), Rank(0), 1, 1001);
            ctx.post_unicast_message(Rank(2), ARB_CTRL, arb_message(0, 2500, 2));
            ctx.post_rdma_read(ARB_CTRL, Rank(3), 3000, 0xbeef);
            ctx.post_inc_sweep(ARB_INC, g, 2..3, ARB_INC, arb_message(8, 2048, 3));
            ctx.post_mcast_chunk(ARB_UD, g, ImmData(2), Rank(0), 2, 1002);
            ctx.post_unicast_message(Rank(1), ARB_CTRL, arb_message(3, 700, 2));
            ctx.notify_tx_drained(ARB_CTRL, 100);
            ctx.notify_tx_drained(ARB_UD, 101);
            ctx.notify_tx_drained(ARB_INC, 102);
        }

        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: &Cqe, _payload: &Payload<Msg>) {}

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}

        fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            self.drained.push((ctx.now().as_ns(), token));
            if token == 7 {
                ctx.post_mcast_chunk(ARB_UD, self.group, ImmData(3), Rank(0), 3, 1003);
                let g = self.group;
                ctx.post_inc_sweep(ARB_INC, g, 3..4, ARB_INC, arb_message(12, 1025, 3));
                ctx.notify_tx_drained(ARB_UD, 201);
                ctx.notify_tx_drained(ARB_INC, 202);
            }
        }
    }

    #[test]
    fn send_queue_arbitration_golden() {
        // Recorded on the per-packet send queues (one pre-built packet
        // per chunk, posted by per-chunk loops) before they became
        // work-request queues: round-robin across QPs, FIFO within one,
        // a message holding its place while it is segmented, and drain
        // tokens firing with the queue's last packet.
        let topo = Topology::fat_tree_two_level(4, 2, 2, 1, LinkRate::CX3_56G, 100);
        let mut cfg = FabricConfig::ucc_default();
        cfg.trace = Some(mcag_trace::TraceSpec::default());
        let mut fab: Fabric<Msg, ArbApp> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..4).map(Rank).collect();
        let group = fab.create_group(&members);
        for &r in &members {
            assert_eq!(fab.add_qp(r, Transport::Rc, 0), ARB_CTRL);
            assert_eq!(fab.add_qp(r, Transport::Ud, 0), ARB_UD);
            assert_eq!(fab.add_qp(r, Transport::Rc, 0), ARB_INC);
            fab.attach(r, ARB_UD, group);
            fab.set_app(
                r,
                ArbApp {
                    group,
                    drained: Vec::new(),
                },
            );
        }
        let stats = fab.run();
        assert!(
            !stats.all_done(),
            "nobody marks done; the queue just drains"
        );
        assert_eq!(stats.events, 97);
        let injects: Vec<(u64, u32, u32)> = fab
            .trace()
            .unwrap()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Inject {
                    start_ns,
                    src,
                    bytes,
                    ..
                } => Some((start_ns, src, bytes)),
                _ => None,
            })
            .collect();
        // (start_ns, src, wire bytes): payload + 64 B of headers.
        assert_eq!(
            injects,
            [
                (0, 0, 128),     // ctrl: control message
                (150, 0, 1064),  // ud:   mcast 0
                (302, 0, 1088),  // inc:  shard 1, segment 0
                (458, 0, 1088),  // ctrl: unicast to 2, segment 0
                (614, 0, 1065),  // ud:   mcast 1
                (767, 0, 540),   // inc:  shard 1, segment 1 (short)
                (917, 0, 1088),  // ctrl: unicast to 2, segment 1
                (1073, 0, 1066), // ud:   mcast 2 — drains the UD queue
                (1226, 0, 1088), // inc:  shard 2, segment 0
                (1382, 0, 516),  // ctrl: unicast to 2, segment 2 (short)
                (1532, 0, 1067), // ud:   second-wave mcast 3
                (1685, 0, 1088), // inc:  shard 2, segment 1
                (1841, 0, 64),   // ctrl: RDMA read request
                (1991, 0, 1088), // inc:  shard 3, segment 0
                (2147, 0, 764),  // ctrl: unicast to 1
                (2297, 0, 65),   // inc:  shard 3, segment 1 (1 byte)
                (3154, 3, 3064), // rank 3's NIC answers the read
            ]
        );
        let drained = fab.into_apps().swap_remove(0).drained;
        assert_eq!(
            drained,
            [
                (1226, 7),
                (1226, 101),
                (1685, 201),
                (2297, 100),
                (2447, 102),
                (2447, 202)
            ]
        );
    }

    /// Records every completion as `(psn, imm, byte_len)`.
    #[derive(Default)]
    struct RecvLog {
        got: Vec<(u32, u32, usize)>,
    }

    impl RankApp<Msg> for RecvLog {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, payload: &Payload<Msg>) {
            let &Payload::Chunk { psn, .. } = payload else {
                panic!("expected a data chunk");
            };
            self.got
                .push((psn, cqe.imm.expect("data without imm").0, cqe.byte_len));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    /// Posts one message to rank 1, over unicast or into the reduction
    /// tree of `group`.
    struct OneMessage {
        seg: MsgSegments,
        group: Option<McastGroupId>,
    }

    impl RankApp<Msg> for OneMessage {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            match self.group {
                Some(g) => ctx.post_inc_sweep(QpNum(0), g, 1..2, QpNum(0), self.seg),
                None => ctx.post_unicast_message(Rank(1), QpNum(0), self.seg),
            }
        }
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: &Cqe, _payload: &Payload<Msg>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    /// Rank 0's sender or rank 1's receiver, so that one fabric runs both
    /// by value.
    enum SendOrRecv {
        Send(OneMessage),
        Recv(RecvLog),
    }

    impl SendOrRecv {
        fn app(&mut self) -> &mut dyn RankApp<Msg> {
            match self {
                SendOrRecv::Send(app) => app,
                SendOrRecv::Recv(app) => app,
            }
        }
    }

    impl RankApp<Msg> for SendOrRecv {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.app().on_start(ctx);
        }
        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, payload: &Payload<Msg>) {
            self.app().on_cqe(ctx, cqe, payload);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            self.app().on_timer(ctx, token);
        }
    }

    /// What rank 1 receives when rank 0 posts `seg` as one message: the
    /// route is FIFO, so arrival order is injection order. On the star a
    /// two-rank reduction has rank 0 as its only contributor.
    fn deliver_message(seg: MsgSegments, inc: bool) -> Vec<(u32, u32, usize)> {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg, SendOrRecv> = Fabric::new(topo, FabricConfig::ideal());
        let group = inc.then(|| fab.create_group(&[Rank(0), Rank(1)]));
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
        }
        fab.set_app(Rank(0), SendOrRecv::Send(OneMessage { seg, group }));
        fab.set_app(Rank(1), SendOrRecv::Recv(RecvLog::default()));
        fab.run();
        assert_eq!(fab.live_packets(), 0);
        match fab.into_apps().pop() {
            Some(SendOrRecv::Recv(log)) => log.got,
            _ => unreachable!("rank 1 runs the receiver"),
        }
    }

    proptest::proptest! {
        #[test]
        fn message_injects_what_the_per_chunk_loop_computed(
            mtu in 2usize..300,
            full in 0usize..6,
            tail in 0usize..300,
            first_psn in 0u32..1000,
            coll in 0u32..200,
            inc: bool,
        ) {
            use mcag_verbs::{CollectiveId, ImmLayout, Mtu};
            // A buffer that is never a whole number of MTUs.
            let buf_len = full * mtu + 1 + tail % (mtu - 1);
            let mtu = Mtu::new(mtu);
            let chunks = mtu.chunks_for(buf_len) as u32;
            let layout = ImmLayout::DEFAULT;
            let coll = CollectiveId(coll);
            // The loop every caller used to run, one post per chunk.
            let expect: Vec<(u32, u32, usize)> = (0..chunks)
                .map(|c| {
                    let psn = first_psn + c;
                    (psn, layout.pack(coll, psn).0, mtu.chunk_range(c, buf_len).len())
                })
                .collect();
            let seg = MsgSegments { first_psn, chunks, buf_len, mtu, imm: layout, coll };
            proptest::prop_assert_eq!(deliver_message(seg, inc), expect);
        }
    }

    #[test]
    #[should_panic(expected = "chunks requested")]
    fn message_longer_than_its_buffer_is_rejected_at_post() {
        let mut seg = arb_message(0, 2500, 2);
        seg.chunks += 1;
        deliver_message(seg, false);
    }

    /// Every rank contributes every foreign shard of 2,500 bytes (3
    /// segments, the last short) — as one sweep, or as one single-owner
    /// sweep per shard — and waits for its own reduced shard.
    struct Rs {
        group: McastGroupId,
        sweep: bool,
        got: u32,
        tx_done: bool,
    }

    impl Rs {
        fn maybe_done(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if self.tx_done && self.got == 3 {
                ctx.mark_done();
            }
        }
    }

    impl RankApp<Msg> for Rs {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let (me, p) = (ctx.rank().0, ctx.num_ranks() as u32);
            if self.sweep {
                ctx.post_inc_sweep(
                    QpNum(0),
                    self.group,
                    0..p,
                    QpNum(0),
                    arb_message(0, 2500, 3),
                );
            } else {
                for shard in (0..p).filter(|&s| s != me) {
                    let seg = arb_message(shard * 3, 2500, 3);
                    ctx.post_inc_sweep(QpNum(0), self.group, shard..shard + 1, QpNum(0), seg);
                }
            }
            ctx.notify_tx_drained(QpNum(0), 5);
        }
        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: &Cqe, _payload: &Payload<Msg>) {
            assert!(cqe.is_recv_success());
            self.got += 1;
            self.maybe_done(ctx);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
        fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
            self.tx_done = true;
            self.maybe_done(ctx);
        }
    }

    /// An 8-rank fat tree wired for [`Rs`], traced.
    fn rs_fabric(sweep: bool) -> Fabric<Msg> {
        let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
        let mut cfg = FabricConfig::ucc_default();
        cfg.trace = Some(mcag_trace::TraceSpec::default());
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        let group = fab.create_group(&members);
        for &r in &members {
            fab.add_qp(r, Transport::Rc, 0);
            fab.set_app(
                r,
                Box::new(Rs {
                    group,
                    sweep,
                    got: 0,
                    tx_done: false,
                }),
            );
        }
        fab
    }

    #[test]
    fn inc_reduce_scatter_leaves_nothing_behind() {
        // Afterwards the slab, the send queues (their work-request slab and
        // drain notifications included) and the aggregation state are
        // empty.
        let mut fab = rs_fabric(true);
        let stats = fab.run();
        assert!(stats.all_done(), "{stats:?}");
        assert_eq!(fab.live_packets(), 0, "slab entries leaked");
        // In flight at once: at most one packet per NIC plus what the
        // switches hold — far below the 8 · 7 · 3 = 168 posted.
        assert!(
            fab.inner.pkt_slab.slots.len() < 64,
            "{}",
            fab.inner.pkt_slab.slots.len()
        );
        for qp in &fab.inner.qps {
            assert_eq!((qp.tx_head, qp.drains), (NIL, 0));
        }
        // One sweep request per rank was ever queued.
        assert_eq!(fab.inner.wqes.live(), 0, "work requests leaked");
        assert!(
            fab.inner.wqes.slots.len() <= 8,
            "{}",
            fab.inner.wqes.slots.len()
        );
        assert!(fab.inner.drains.is_empty());
        assert!(fab.inner.agg.is_empty());
    }

    #[test]
    fn sweep_injects_what_one_message_per_owner_did() {
        // One work request per rank against seven: the same packets leave
        // every NIC at the same instants, and everything downstream of
        // injection — events, completions, link counters — is the same.
        let (mut sweep, mut messages) = (rs_fabric(true), rs_fabric(false));
        let (a, b) = (sweep.run(), messages.run());
        assert!(a.all_done());
        assert_eq!(
            (a.events, a.per_rank_done, a.peak_queue_depth),
            (b.events, b.per_rank_done, b.peak_queue_depth)
        );
        assert_eq!(sweep.traffic().per_link(), messages.traffic().per_link());
        let events = |f: &Fabric<Msg>| f.trace().unwrap().iter().copied().collect::<Vec<_>>();
        assert_eq!(events(&sweep), events(&messages));
    }

    #[test]
    #[should_panic(expected = "PSN 16777216 exceeds 24 bits")]
    fn sweep_checks_every_owner_at_post() {
        // Owner 1's three PSNs fit the 24-bit layout, owner 2's last one
        // does not: the post is rejected, not the segment.
        let topo = Topology::single_switch(3, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        let group = fab.create_group(&[Rank(0), Rank(1), Rank(2)]);
        let mut ctx = Ctx {
            inner: &mut fab.inner,
            rank: Rank(0),
        };
        ctx.post_inc_sweep(
            QpNum(0),
            group,
            1..3,
            QpNum(0),
            arb_message((1 << 24) - 5, 2500, 3),
        );
    }

    #[test]
    fn worker_serialization_delays_cqes() {
        // With one worker and a large per-CQE cost, completion times are
        // paced by the worker, not the wire.
        let mut cfg = FabricConfig::ideal();
        cfg.host.rx_proc_ns_per_cqe = 1000;
        let (mut fab, _) = bcast_fabric(2, 32, cfg);
        let stats = fab.run();
        let done = stats.per_rank_done[1].unwrap().as_ns();
        assert!(done >= 32 * 1000, "worker pacing not applied: {done}");
    }
}
