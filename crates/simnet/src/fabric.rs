//! The discrete-event fabric: NIC send/receive datapaths, switch
//! forwarding with multicast replication, drop injection, and the event
//! loop driving per-rank protocol apps.
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
//! packets: a post is a `VecDeque` push, and the packet is built when the
//! arbiter injects it. A reliable message ([`MsgSegments`]) is one
//! request however many chunks it carries — it stays at the head of its
//! queue and is segmented an MTU per arbitration turn, as an RC queue
//! pair does in hardware. An in-network-reduction *sweep*
//! ([`Ctx::post_inc_sweep`]) is one request for a rank's whole
//! Reduce-Scatter contribution: it walks its owners in order, one message
//! each, like a chained work-request list — a 512-rank in-switch
//! Reduce-Scatter queues 512 requests, not 512 · 511. A queue whose drain
//! notification fires gives its buffer back, so a rank that has finished
//! sending holds none.
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
//! replication at a switch is a reference-count bump per extra branch —
//! no payload/route clone and no allocation per hop — and the event
//! payload `Ev` is a small `Copy`-able struct, so the steady state of a
//! run performs no per-packet heap allocation at all. Unicast routes are
//! interned behind `Arc<[LinkId]>` in a per-pair cache.

use crate::app::{Ctx, MsgSegments, Payload, RankApp};
use crate::config::FabricConfig;
use crate::counters::{LinkCounters, TrafficReport};
use crate::event::EventQueue;
use crate::health::{FabricHealth, LinkHealth};
use crate::mcast::McastTree;
use crate::routing::{self, descend, RouteMode};
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use mcag_trace::{DropCause, TraceEvent, TraceSink, TraceSpec};
use mcag_verbs::wire::{PacketKind, HEADER_BYTES};
use mcag_verbs::{CompletionStatus, Cqe, CqeOpcode, ImmData, McastGroupId, QpNum, Rank, Transport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// Safety valve: a run that dispatches this many events panics as a
/// livelocked protocol.
const MAX_EVENTS: u64 = 2_000_000_000;

/// Per-hop switch forwarding latency (beyond serialization).
const SWITCH_LATENCY_NS: u64 = 200;

/// Where a packet goes next.
#[derive(Debug, Clone)]
enum Route {
    /// A unicast route; `path[hop]` is the next link to take.
    Unicast { path: Arc<[LinkId]>, hop: u8 },
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
/// ([`Inner::take_cqe`]). The sending QP is never read and the
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
    fn wire_bytes(&self) -> usize {
        self.payload_len as usize + HEADER_BYTES
    }

    /// Reliable transport: everything except multicast datagrams (RC
    /// messages, control traffic, RDMA reads and SHARP contributions).
    fn reliable(&self) -> bool {
        !matches!(self.route, Route::Mcast { .. })
    }
}

/// Slab handle of an in-flight packet. Replicating a multicast packet at
/// a switch copies this handle and bumps a refcount — never the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PktRef(u32);

struct SlabEntry {
    refs: u32,
    pkt: PacketInst,
}

/// Slots with an embedded LIFO free list: a slab is as long as the most
/// entries ever live at once, and a key stays valid until it is removed.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(v);
                i
            }
            None => {
                self.slots.push(Some(v));
                (self.slots.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn get(&self, i: u32) -> &T {
        self.slots[i as usize].as_ref().expect("stale slab key")
    }

    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        self.slots[i as usize].as_mut().expect("stale slab key")
    }

    fn remove(&mut self, i: u32) -> T {
        let v = self.slots[i as usize].take().expect("stale slab key");
        self.free.push(i);
        v
    }

    /// Entries inserted and not yet removed.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
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
        qp_idx: u32,
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
    /// A scheduled link-state transition (`FabricConfig::faults`) takes
    /// effect; `idx` indexes the compiled schedule.
    LinkFault {
        idx: u32,
    },
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

struct QpState {
    transport: Transport,
    worker: usize,
    rq_avail: usize,
    rq_depth: usize,
}

struct NicState {
    uplink: LinkId,
    /// One send queue per QP; the NIC arbiter serves them round-robin,
    /// which is how concurrent collectives share injection bandwidth.
    tx_queues: Vec<VecDeque<Wqe>>,
    tx_rr: usize,
    tx_free_at: SimTime,
    kick_scheduled: bool,
    /// Per-QP drain-notification tokens.
    drain_tokens: Vec<Vec<u64>>,
    workers: Vec<SimTime>,
    qps: Vec<QpState>,
    /// Receiving QP per multicast group, indexed by group id — consulted
    /// once per multicast delivery, so it is a dense table, not a map.
    group_attach: Vec<Option<usize>>,
    rnr_drops: u64,
}

/// Fabric internals reachable from [`Ctx`] (everything except the apps).
pub struct Inner<M> {
    topo: Arc<Topology>,
    cfg: FabricConfig,
    q: EventQueue<Ev>,
    nics: Vec<NicState>,
    trees: Vec<McastTree>,
    counters: Vec<LinkCounters>,
    link_busy: Vec<SimTime>,
    /// Per-link fault state (empty when the schedule is empty).
    link_fault: Vec<LinkFaultState>,
    /// Fast gate for every fault-path consult: true iff
    /// `cfg.faults` has at least one transition.
    has_faults: bool,
    route_cache: HashMap<(u32, u32), Arc<[LinkId]>>,
    rng: StdRng,
    done: Vec<Option<SimTime>>,
    done_count: usize,
    /// In-network reduction progress: contributions seen per
    /// `(group, psn, switch)`.
    inc_arrivals: HashMap<(u32, u32, NodeId), u32>,
    /// Live aggregation-table entries per switch (`(group, psn)`
    /// states currently held), maintained only while INC traffic
    /// flows; bounded by [`FabricConfig::inc_table_capacity`].
    inc_live: HashMap<NodeId, usize>,
    /// High-water mark of any single switch's live aggregation-table
    /// occupancy over the run (reported even when unbounded).
    inc_table_peak: usize,
    /// Reusable egress-link buffer for switch forwarding (avoids a fresh
    /// `Vec` per packet hop on the multicast replication hot path).
    scratch_links: Vec<LinkId>,
    /// In-flight packets: `PktRef` handles index here.
    pkt_slab: Slab<SlabEntry>,
    /// The messages of in-flight control packets ([`Body::Msg`]), out of
    /// line so that a slab entry does not grow with `M`.
    ctrl_msgs: Slab<M>,
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
pub struct Fabric<M> {
    inner: Inner<M>,
    apps: Vec<Option<Box<dyn RankApp<M>>>>,
    started: bool,
}

impl<M: Clone + 'static> Fabric<M> {
    /// Create a fabric over `topo` with the given configuration. Apps and
    /// QPs must be registered before [`Fabric::run`]. `topo` is an owned
    /// [`Topology`] or an `Arc` of one — callers that build many fabrics
    /// over one topology (the runtime, one per batch) share it.
    pub fn new(topo: impl Into<Arc<Topology>>, cfg: FabricConfig) -> Fabric<M> {
        let topo: Arc<Topology> = topo.into();
        let n = topo.num_hosts();
        let nics = (0..n)
            .map(|r| {
                let host = topo.host_node(Rank(r as u32));
                let ups = topo.uplinks(host);
                assert_eq!(ups.len(), 1, "hosts have exactly one NIC port");
                NicState {
                    uplink: ups[0],
                    tx_queues: Vec::new(),
                    tx_rr: 0,
                    tx_free_at: SimTime::ZERO,
                    kick_scheduled: false,
                    drain_tokens: Vec::new(),
                    workers: vec![SimTime::ZERO; cfg.host.rx_workers.max(1)],
                    qps: Vec::new(),
                    group_attach: Vec::new(),
                    rnr_drops: 0,
                }
            })
            .collect();
        let counters = vec![LinkCounters::default(); topo.num_links()];
        let link_busy = vec![SimTime::ZERO; topo.num_links()];
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mut q = EventQueue::with_backend(cfg.event_queue);
        // Replay the fault schedule as ordinary queue events. They are
        // scheduled before any protocol event, so a transition and a
        // same-instant transmission resolve in schedule-first order —
        // part of the determinism contract.
        let trace = cfg.trace.clone().map(TraceSink::new);
        let has_faults = !cfg.faults.is_empty();
        let link_fault = if has_faults {
            for (i, ev) in cfg.faults.events().iter().enumerate() {
                assert!(
                    ev.link.idx() < topo.num_links(),
                    "fault schedule references {:?} outside the topology",
                    ev.link
                );
                q.schedule_at(SimTime(ev.at_ns), Ev::LinkFault { idx: i as u32 });
            }
            vec![LinkFaultState::healthy(); topo.num_links()]
        } else {
            Vec::new()
        };
        Fabric {
            inner: Inner {
                topo,
                cfg,
                q,
                nics,
                trees: Vec::new(),
                counters,
                link_busy,
                link_fault,
                has_faults,
                route_cache: HashMap::new(),
                rng,
                done: vec![None; n],
                done_count: 0,
                inc_arrivals: HashMap::new(),
                inc_live: HashMap::new(),
                inc_table_peak: 0,
                scratch_links: Vec::new(),
                pkt_slab: Slab::new(),
                ctrl_msgs: Slab::new(),
                trace,
                run_wall_ns: 0,
            },
            apps: (0..n).map(|_| None).collect(),
            started: false,
        }
    }

    /// Topology handle.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// Create a QP on `rank`, pinned to RX `worker`. Returns the rank-local
    /// QP number (SPMD setups produce identical numbering on every rank).
    pub fn add_qp(&mut self, rank: Rank, transport: Transport, worker: usize) -> QpNum {
        let nic = &mut self.inner.nics[rank.idx()];
        assert!(
            worker < nic.workers.len(),
            "worker {worker} out of range ({} workers)",
            nic.workers.len()
        );
        let qpn = QpNum(nic.qps.len() as u32);
        let depth = self.inner.cfg.host.rq_depth;
        nic.qps.push(QpState {
            transport,
            worker,
            rq_avail: depth,
            rq_depth: depth,
        });
        nic.tx_queues.push(VecDeque::new());
        nic.drain_tokens.push(Vec::new());
        qpn
    }

    /// Create a multicast group over `members`; builds the spanning tree.
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
        let tree = McastTree::build(&self.inner.topo, gid, members);
        self.inner.trees.push(tree);
        gid
    }

    /// Multicast groups currently programmed into the fabric — the
    /// simulated switch group-table occupancy.
    pub fn num_groups(&self) -> usize {
        self.inner.trees.len()
    }

    /// High-water mark of any single switch's live in-network-reduction
    /// aggregation-table occupancy over the run so far (0 when no INC
    /// traffic flowed). The demand side of
    /// [`FabricConfig::inc_table_capacity`].
    pub fn inc_table_peak(&self) -> usize {
        self.inner.inc_table_peak
    }

    /// Attach `rank`'s `qp` to `group` (receives that group's datagrams).
    pub fn attach(&mut self, rank: Rank, qp: QpNum, group: McastGroupId) {
        let tree = &self.inner.trees[group.0 as usize];
        assert!(tree.is_member(rank), "{rank} is not a member of {group:?}");
        let nic = &mut self.inner.nics[rank.idx()];
        assert!(
            matches!(
                nic.qps[qp.0 as usize].transport,
                Transport::Ud | Transport::Uc
            ),
            "only UD/UC QPs can join multicast groups"
        );
        let gi = group.0 as usize;
        if nic.group_attach.len() <= gi {
            nic.group_attach.resize(gi + 1, None);
        }
        nic.group_attach[gi] = Some(qp.0 as usize);
    }

    /// Install the protocol endpoint for `rank`.
    pub fn set_app(&mut self, rank: Rank, app: Box<dyn RankApp<M>>) {
        self.apps[rank.idx()] = Some(app);
    }

    /// Remove and return `rank`'s endpoint — the harvest half of the
    /// owned-sink protocol: apps accumulate their results privately
    /// during the run and the driver takes them back afterwards (no
    /// shared `Rc<RefCell<…>>` sinks, so the whole simulation stays
    /// `Send`). Panics if no app is installed (or it was already taken).
    pub fn take_app(&mut self, rank: Rank) -> Box<dyn RankApp<M>> {
        self.apps[rank.idx()]
            .take()
            .unwrap_or_else(|| panic!("no app installed for {rank}"))
    }

    /// [`Fabric::take_app`], downcast to the concrete app type the
    /// driver installed. Panics if the installed app is not an `A`.
    pub fn take_app_as<A: RankApp<M>>(&mut self, rank: Rank) -> A {
        let app: Box<dyn std::any::Any> = self.take_app(rank);
        *app.downcast::<A>()
            .unwrap_or_else(|_| panic!("app at {rank} is not a {}", std::any::type_name::<A>()))
    }

    /// The live flight recorder (`None` when `cfg.trace` was `None`).
    pub fn trace(&self) -> Option<&TraceSink> {
        self.inner.trace.as_ref()
    }

    /// Remove and return the flight recorder — the trace analogue of the
    /// [`Fabric::take_app`] harvest step; drivers take the sink after the
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
        // Queue-depth sampling period; 0 (tracing off) reduces the
        // per-event tracing cost to one compare.
        let sample_every = if self.inner.trace.is_some() {
            TraceSpec::QUEUE_SAMPLE_EVERY
        } else {
            0
        };
        let n = self.inner.num_ranks();
        if !self.started {
            self.started = true;
            for r in 0..n {
                self.with_app(Rank(r as u32), |app, ctx| app.on_start(ctx));
            }
        }
        while self.inner.done_count < n {
            if self.inner.q.processed() >= MAX_EVENTS {
                panic!("event cap {MAX_EVENTS} exceeded — livelocked protocol?");
            }
            let Some((_, ev)) = self.inner.q.pop_if_before(deadline) else {
                break; // quiescent or past the deadline; caller inspects stats
            };
            self.dispatch(ev);
            if sample_every != 0 && self.inner.q.processed().is_multiple_of(sample_every) {
                let (at_ns, depth) = (self.inner.q.now().as_ns(), self.inner.q.len() as u32);
                if let Some(t) = self.inner.trace.as_mut() {
                    t.record(TraceEvent::QueueDepth { at_ns, depth });
                }
            }
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

    /// Timestamp of the earliest pending event (`None` when quiescent) —
    /// the peek-based progress probe for cutoff checks.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner.q.peek_time()
    }

    /// Snapshot of all link counters (open downtime/degraded intervals
    /// closed at the current simulated instant), with the per-rank RNR
    /// breakdown and the engine stats of the run so far (events
    /// processed, peak queue depth, wall clock).
    pub fn traffic(&self) -> TrafficReport {
        TrafficReport::new(self.inner.counters_snapshot())
            .with_rnr(self.inner.nics.iter().map(|n| n.rnr_drops).collect())
            .with_engine_stats(
                self.inner.q.processed(),
                self.inner.q.peak_len(),
                self.inner.run_wall_ns,
            )
    }

    /// Total RNR drops across all NICs.
    pub fn total_rnr_drops(&self) -> u64 {
        self.inner.nics.iter().map(|n| n.rnr_drops).sum()
    }

    /// Total fabric drops across all links.
    pub fn total_fabric_drops(&self) -> u64 {
        self.inner.counters.iter().map(|c| c.drops).sum()
    }

    /// Total packet copies lost to down links (fault injection).
    pub fn total_fault_drops(&self) -> u64 {
        self.inner.counters.iter().map(|c| c.fault_drops).sum()
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
        self.health().dead_switches(&self.inner.topo)
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
        for gi in 0..self.inner.trees.len() {
            let tree = &self.inner.trees[gi];
            if !tree.nodes().any(|n| dead.contains(&n)) {
                continue;
            }
            let (group, members) = (tree.group(), tree.members().to_vec());
            if let Some(fresh) = McastTree::build_avoiding(&self.inner.topo, group, &members, dead)
            {
                self.inner.trees[gi] = fresh;
                rebuilt += 1;
            }
        }
        rebuilt
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::TxKick { rank } => self.inner.handle_tx_kick(rank),
            Ev::LinkArrive { link, pkt } => self.inner.handle_link_arrive(link, pkt),
            Ev::CqeDone {
                rank,
                qp_idx,
                repost,
                pkt,
            } => {
                let (cqe, payload) = self.inner.take_cqe(pkt, qp_idx);
                if repost {
                    let qp = &mut self.inner.nics[rank.idx()].qps[qp_idx as usize];
                    qp.rq_avail = (qp.rq_avail + 1).min(qp.rq_depth);
                }
                self.with_app(rank, |app, ctx| app.on_cqe(ctx, cqe, payload));
            }
            Ev::Timer { rank, token } => {
                self.with_app(rank, |app, ctx| app.on_timer(ctx, token));
            }
            Ev::TxDrained { rank, token } => {
                self.with_app(rank, |app, ctx| app.on_tx_drained(ctx, token));
            }
            Ev::LinkFault { idx } => self.inner.apply_link_fault(idx),
        }
    }

    fn with_app(&mut self, rank: Rank, f: impl FnOnce(&mut dyn RankApp<M>, &mut Ctx<'_, M>)) {
        let mut app = self.apps[rank.idx()]
            .take()
            .unwrap_or_else(|| panic!("no app installed for {rank}"));
        let mut ctx = Ctx {
            inner: &mut self.inner,
            rank,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[rank.idx()] = Some(app);
    }
}

impl<M: Clone + 'static> Inner<M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.topo.num_hosts()
    }

    pub(crate) fn rnr_drops(&self, rank: Rank) -> u64 {
        self.nics[rank.idx()].rnr_drops
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
        let nic = &mut self.nics[rank.idx()];
        let qi = qp.0 as usize;
        if nic.tx_queues[qi].is_empty() {
            let at = nic.tx_free_at.max(self.q.now());
            self.q.schedule_at(at, Ev::TxDrained { rank, token });
        } else {
            nic.drain_tokens[qi].push(token);
        }
    }

    // --------------------------- fault state --------------------------- //

    /// Apply scheduled transition `idx`, closing the accounting interval
    /// of the state the link leaves.
    fn apply_link_fault(&mut self, idx: u32) {
        let ev = self.cfg.faults.events()[idx as usize];
        let next_up = self.cfg.faults.next_up_ns(idx as usize);
        let now = self.q.now();
        let li = ev.link.idx();
        let st = self.link_fault[li];
        let c = &mut self.counters[li];
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
        let mut c = self.counters.clone();
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

    /// Add one reference (a multicast replica about to be transmitted).
    #[inline]
    fn retain_pkt(&mut self, r: PktRef) {
        self.pkt_slab.get_mut(r.0).refs += 1;
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

    /// Build the CQE and payload a delivered packet surfaces and consume
    /// the handle — one slab access for the whole completion.
    fn take_cqe(&mut self, r: PktRef, qp_idx: u32) -> (Cqe, Payload<M>) {
        let e = self.pkt_slab.get_mut(r.0);
        let (body, src, byte_len) = (e.pkt.body, e.pkt.src, e.pkt.payload_len as usize);
        if e.refs > 1 {
            debug_assert!(
                !matches!(body, Body::Msg(_)),
                "control messages are unicast"
            );
            e.refs -= 1;
        } else {
            self.pkt_slab.remove(r.0);
        }
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
            qp: QpNum(qp_idx),
            imm,
            byte_len,
            wr_id,
            src: Some(src),
        };
        (cqe, payload)
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
        let path = self.unicast_path(src, dst);
        let body = Body::Msg(self.ctrl_msgs.insert(msg));
        let r = self.alloc_pkt(PacketInst {
            route: Route::Unicast { path, hop: 0 },
            body,
            src,
            dst_qp,
            payload_len: len_field(len),
            kind: PacketKind::Control,
        });
        self.enqueue_tx(src, dst_qp, Wqe::Ready(r));
    }

    /// Post one reliable unicast message of `src`'s data. The route is
    /// resolved here, once per message, so adaptive routing draws from
    /// the RNG in post order.
    pub(crate) fn post_unicast(&mut self, src: Rank, dst: Rank, dst_qp: QpNum, seg: MsgSegments) {
        check_segments(&seg);
        let path = self.unicast_path(src, dst);
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
        let path = self.unicast_path(src, dst);
        let r = self.alloc_pkt(PacketInst {
            route: Route::Unicast { path, hop: 0 },
            body: Body::ReadReq {
                resp_len: len_field(len),
                tag,
            },
            src,
            dst_qp: qp,
            payload_len: 0,
            kind: PacketKind::Control,
        });
        self.enqueue_tx(src, qp, Wqe::Ready(r));
    }

    fn unicast_path(&mut self, src: Rank, dst: Rank) -> Arc<[LinkId]> {
        if self.cfg.adaptive_routing {
            // RNG draw site 1 of 2 (`FabricConfig::uses_rng`).
            let p = routing::route(&self.topo, src, dst, RouteMode::Adaptive, 0, &mut self.rng);
            return p.into();
        }
        if let Some(p) = self.route_cache.get(&(src.0, dst.0)) {
            return Arc::clone(p);
        }
        let p: Arc<[LinkId]> = routing::route(
            &self.topo,
            src,
            dst,
            RouteMode::Deterministic,
            0,
            &mut self.rng,
        )
        .into();
        self.route_cache.insert((src.0, dst.0), Arc::clone(&p));
        p
    }

    fn enqueue_tx(&mut self, src: Rank, qp: QpNum, wqe: Wqe) {
        let nic = &mut self.nics[src.idx()];
        nic.tx_queues[qp.0 as usize].push_back(wqe);
        if !nic.kick_scheduled {
            nic.kick_scheduled = true;
            let at = nic.tx_free_at.max(self.q.now());
            self.q.schedule_at(at, Ev::TxKick { rank: src });
        }
    }

    /// Round-robin QP arbitration: pick the next non-empty send queue.
    fn tx_pick(nic: &mut NicState) -> Option<usize> {
        let n = nic.tx_queues.len();
        for i in 0..n {
            let qi = (nic.tx_rr + i) % n;
            if !nic.tx_queues[qi].is_empty() {
                nic.tx_rr = (qi + 1) % n;
                return Some(qi);
            }
        }
        None
    }

    /// Take the next packet off send queue `qi` of `src` and put it on
    /// the slab: a ready packet as posted, a datagram built now, or the
    /// next MTU segment of the message at the head — which leaves the
    /// queue only with its last segment, so a message holds its place
    /// (FIFO within the QP) while the arbiter interleaves other QPs. A
    /// reduction sweep moves on to its next owner instead, and leaves with
    /// the last segment of its last owner.
    fn tx_next_packet(&mut self, src: Rank, qi: usize) -> PktRef {
        let queue = &mut self.nics[src.idx()].tx_queues[qi];
        let mut pop = true;
        let pkt = match queue.front_mut().expect("arbiter picked an empty queue") {
            Wqe::Ready(pr) => {
                let pr = *pr;
                queue.pop_front();
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
                let (psn, imm, len) = seg.segment(*next);
                *next += 1;
                pop = *next == seg.chunks;
                PacketInst {
                    route: Route::Unicast {
                        path: Arc::clone(path),
                        hop: 0,
                    },
                    body: Body::Chunk {
                        origin: src,
                        psn,
                        imm,
                    },
                    src,
                    dst_qp: *dst_qp,
                    payload_len: len as u32,
                    kind: PacketKind::UnicastData,
                }
            }
            Wqe::Inc {
                group,
                owner,
                end,
                owner_qp,
                seg,
                next,
            } => {
                let (psn, imm, len) = seg.segment(*next);
                let pkt = PacketInst {
                    route: Route::IncUp {
                        group: *group,
                        owner: *owner,
                    },
                    body: Body::Chunk {
                        origin: src,
                        psn,
                        imm,
                    },
                    src,
                    dst_qp: *owner_qp,
                    payload_len: len as u32,
                    kind: PacketKind::McastData,
                };
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
            queue.pop_front();
        }
        self.alloc_pkt(pkt)
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
        let Some(qi) = Self::tx_pick(nic) else {
            return;
        };
        let uplink = nic.uplink;
        let pr = self.tx_next_packet(rank, qi);
        let link = *self.topo.link(uplink);
        // One slab access: first-hop bookkeeping + the header fields the
        // wire model and counters need.
        let (wire, kind, payload_len, reliable) = {
            let p = self.pkt_mut(pr);
            if let Route::Unicast { path, hop } = &mut p.route {
                debug_assert_eq!(path[0], uplink, "route does not start at the NIC port");
                *hop = 1;
            }
            (p.wire_bytes(), p.kind, p.payload_len, p.reliable())
        };
        let ser = self.effective_ser_ns(uplink, link.rate.serialization_ns(wire));
        let start = now.max(self.link_busy[uplink.idx()]);
        let tx_gap = ser.max(self.cfg.host.tx_post_overhead_ns);
        self.link_busy[uplink.idx()] = start + ser;
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
        if self.count_and_maybe_drop(uplink, wire, kind, payload_len, reliable) {
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
        let nic = &mut self.nics[rank.idx()];
        if nic.tx_queues[qi].is_empty() && !nic.drain_tokens[qi].is_empty() {
            // The app was told this QP is done sending: give the queue's
            // buffer back instead of keeping its busiest instant's
            // capacity for the rest of the run.
            nic.tx_queues[qi].shrink_to_fit();
            for token in std::mem::take(&mut nic.drain_tokens[qi]) {
                self.q.schedule_at(free_at, Ev::TxDrained { rank, token });
            }
        }
        if nic.tx_queues.iter().any(|q| !q.is_empty()) {
            nic.kick_scheduled = true;
            self.q.schedule_at(free_at, Ev::TxKick { rank });
        }
    }

    /// Record traffic on `link`; returns false if the packet copy was
    /// corrupted there (fabric drop). The caller owns the handle and must
    /// release it when the copy is dropped.
    fn count_and_maybe_drop(
        &mut self,
        link: LinkId,
        wire: usize,
        kind: PacketKind,
        payload_len: u32,
        reliable: bool,
    ) -> bool {
        let c = &mut self.counters[link.idx()];
        c.packets += 1;
        c.wire_bytes += wire as u64;
        match kind {
            PacketKind::Control => c.ctrl_bytes += payload_len as u64,
            _ => c.data_bytes += payload_len as u64,
        }
        if !reliable && self.cfg.drops.fabric_drop_prob > 0.0 {
            let p = self.cfg.drops.fabric_drop_prob;
            // RNG draw site 2 of 2 (`FabricConfig::uses_rng`).
            if self.rng.random_bool(p) {
                self.counters[link.idx()].drops += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent::Drop {
                        at_ns: self.q.now().as_ns(),
                        link: link.idx() as u32,
                        cause: DropCause::Corruption,
                    });
                }
                return false;
            }
        }
        true
    }

    fn handle_link_arrive(&mut self, in_link: LinkId, pkt: PktRef) {
        let node = self.topo.link(in_link).dst;
        match self.topo.kind(node) {
            NodeKind::Switch { .. } => self.forward_at_switch(node, in_link, pkt),
            NodeKind::Host(rank) => self.deliver_at_host(rank, in_link, pkt),
        }
    }

    fn forward_at_switch(&mut self, node: NodeId, in_link: LinkId, pr: PktRef) {
        let now = self.q.now();
        // One slab lookup: copy the small route summary out (every
        // variant's data is `Copy`), then branch.
        enum Fwd {
            Unicast(LinkId),
            Mcast(McastGroupId),
            Inc(McastGroupId, Rank, u32),
        }
        let p = self.pkt(pr);
        let fwd = match (&p.route, p.body) {
            (Route::Unicast { path, hop }, _) => {
                debug_assert!(
                    (*hop as usize) < path.len(),
                    "unicast route exhausted at a switch"
                );
                Fwd::Unicast(path[*hop as usize])
            }
            (Route::Mcast { group }, _) => Fwd::Mcast(*group),
            (Route::IncUp { group, owner }, Body::Chunk { psn, .. }) => {
                Fwd::Inc(*group, *owner, psn)
            }
            (Route::IncUp { .. }, _) => unreachable!("INC packet without chunk payload"),
        };
        let group = match fwd {
            Fwd::Inc(group, owner, psn) => {
                return self.reduce_at_switch(node, pr, group, owner, psn)
            }
            // Unicast: exactly one egress — skip the replication machinery.
            Fwd::Unicast(out) => return self.transmit_hop(out, pr, now),
            Fwd::Mcast(group) => group,
        };
        // Multicast: collect egress links into the reusable scratch
        // buffer — switch forwarding runs once per packet hop, so a fresh
        // Vec here would be a per-packet allocation on the replication
        // hot path.
        let mut outs = std::mem::take(&mut self.scratch_links);
        outs.clear();
        outs.extend(self.trees[group.0 as usize].out_links(&self.topo, node, Some(in_link)));
        // Replicate: every extra branch is a refcount bump on the slab
        // entry and a handle copy — the last branch rides the original.
        match outs.split_last() {
            Some((&last, rest)) => {
                for &out in rest {
                    self.retain_pkt(pr);
                    self.transmit_hop(out, pr, now);
                }
                self.transmit_hop(last, pr, now);
            }
            None => self.release_pkt(pr), // no egress (degenerate tree)
        }
        self.scratch_links = outs;
    }

    /// SHARP-style switch behaviour: absorb contributions for
    /// `(group, psn)` until every child branch with contributors has
    /// reported, then forward one merged packet toward the root — or,
    /// at the root, route the reduced shard down to its owner.
    fn reduce_at_switch(
        &mut self,
        node: NodeId,
        pr: PktRef,
        group: McastGroupId,
        owner: Rank,
        psn: u32,
    ) {
        let now = self.q.now();
        let tree = &self.trees[group.0 as usize];
        // Expected = child branches containing at least one contributor
        // (every rank except the shard owner contributes).
        let mut expected = 0u32;
        for cl in tree.child_links(node) {
            let child = self.topo.link(cl).dst;
            let contributors = match self.topo.kind(child) {
                NodeKind::Host(r) => (r != owner) as u32,
                NodeKind::Switch { .. } => {
                    let range = self.topo.host_range(child);
                    range.len() as u32 - range.contains(&owner.0) as u32
                }
            };
            expected += (contributors > 0) as u32;
        }
        debug_assert!(expected > 0, "reduction node with no contributors");
        let key = (group.0, psn, node);
        let cnt = {
            let c = self.inc_arrivals.entry(key).or_insert(0);
            *c += 1;
            *c
        };
        if cnt == 1 {
            // A fresh `(group, psn)` state claims one aggregation-table
            // entry at this switch — the bounded SHARP SRAM, charged
            // like the MGID table on group creation.
            let live = self.inc_live.entry(node).or_insert(0);
            *live += 1;
            if let Some(cap) = self.cfg.inc_table_capacity {
                assert!(
                    *live <= cap,
                    "switch aggregation table exhausted ({cap} live reduction states at {node:?})"
                );
            }
            self.inc_table_peak = self.inc_table_peak.max(*live);
        }
        if cnt < expected {
            // Absorbed into the partial reduction.
            self.release_pkt(pr);
            return;
        }
        self.inc_arrivals.remove(&key);
        if let Some(live) = self.inc_live.get_mut(&node) {
            *live -= 1;
        }
        let tree = &self.trees[group.0 as usize];
        match tree.parent_link(node) {
            Some(up) => {
                // One merged packet continues toward the root.
                self.transmit_hop(up, pr, now);
            }
            None => {
                // Root: retarget the packet in place (single owner — INC
                // contributions are never replicated) and descend to the
                // owner's QP, which `dst_qp` already names.
                let path: Arc<[LinkId]> = descend(&self.topo, node, owner, psn as u64).into();
                let first = path[0];
                let pkt = self.pkt_mut(pr);
                pkt.kind = PacketKind::UnicastData;
                pkt.route = Route::Unicast { path, hop: 0 };
                self.transmit_hop(first, pr, now);
            }
        }
    }

    fn transmit_hop(&mut self, out: LinkId, pr: PktRef, now: SimTime) {
        let link = *self.topo.link(out);
        // One slab access: hop bookkeeping + header fields.
        let (wire, kind, payload_len, reliable) = {
            let p = self.pkt_mut(pr);
            if let Route::Unicast { hop, .. } = &mut p.route {
                *hop += 1;
            }
            (p.wire_bytes(), p.kind, p.payload_len, p.reliable())
        };
        // Down egress: unreliable copies are lost; reliable copies wait
        // for the link's next recovery (link-level retransmission wins
        // eventually) unless it never comes back.
        let mut not_before = SimTime::ZERO;
        if self.has_faults {
            let st = self.link_fault[out.idx()];
            if !st.up {
                if reliable && st.next_up_ns != u64::MAX {
                    not_before = SimTime(st.next_up_ns);
                } else {
                    self.counters[out.idx()].fault_drops += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.record(TraceEvent::Drop {
                            at_ns: now.as_ns(),
                            link: out.idx() as u32,
                            cause: DropCause::FaultDown,
                        });
                    }
                    return self.release_pkt(pr);
                }
            }
        }
        let ser = self.effective_ser_ns(out, link.rate.serialization_ns(wire));
        let start = (now + SWITCH_LATENCY_NS)
            .max(self.link_busy[out.idx()])
            .max(not_before);
        self.link_busy[out.idx()] = start + ser;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Egress {
                start_ns: start.as_ns(),
                ser_ns: ser,
                link: out.idx() as u32,
                bytes: wire as u32,
            });
        }
        if self.count_and_maybe_drop(out, wire, kind, payload_len, reliable) {
            self.q.schedule_at(
                start + ser + link.prop_delay_ns,
                Ev::LinkArrive { link: out, pkt: pr },
            );
        } else {
            self.release_pkt(pr);
        }
    }

    fn deliver_at_host(&mut self, rank: Rank, in_link: LinkId, pr: PktRef) {
        let p = self.pkt(pr);
        let (requester, req_qp, body) = (p.src, p.dst_qp, p.body);
        match body {
            Body::ReadReq { resp_len, tag } => {
                // Target NIC hardware answers; no CPU involvement (RC
                // one-sided semantics).
                self.release_pkt(pr);
                let path = self.unicast_path(rank, requester);
                let r = self.alloc_pkt(PacketInst {
                    route: Route::Unicast { path, hop: 0 },
                    body: Body::ReadResp { tag },
                    src: rank,
                    dst_qp: req_qp,
                    payload_len: resp_len,
                    kind: PacketKind::UnicastData,
                });
                self.enqueue_tx(rank, req_qp, Wqe::Ready(r));
            }
            Body::ReadResp { .. } => self.schedule_cqe(rank, req_qp.0 as usize, pr, false),
            Body::Chunk { .. } | Body::Msg(_) => self.deliver_two_sided(rank, in_link, pr),
        }
    }

    fn deliver_two_sided(&mut self, rank: Rank, _in_link: LinkId, pr: PktRef) {
        // One slab read for everything delivery needs.
        let (dest, forced_key, needs_slot) = {
            let p = self.pkt(pr);
            let dest = match p.route {
                Route::IncUp { .. } => unreachable!("reduction contribution delivered to a host"),
                Route::Mcast { group } => Err(group),
                Route::Unicast { .. } => Ok(p.dst_qp.0 as usize),
            };
            // Forced-drop key (origin, psn, dst) for multicast data.
            let forced_key = match (p.kind, p.body) {
                (PacketKind::McastData, Body::Chunk { origin, psn, .. }) => {
                    Some((origin.0, psn, rank.0))
                }
                _ => None,
            };
            (dest, forced_key, !p.reliable())
        };
        let qp_idx = match dest {
            Ok(qi) => qi,
            Err(group) => {
                let attach = &self.nics[rank.idx()].group_attach;
                match attach.get(group.0 as usize).copied().flatten() {
                    Some(qi) => qi,
                    // Hosts on the tree but not attached (e.g. sender's own
                    // copy in degenerate trees) silently discard.
                    None => return self.release_pkt(pr),
                }
            }
        };

        // Forced drop injection; the emptiness guard keeps the hash
        // lookup off the common (no-injection) delivery path.
        if !self.cfg.drops.forced.is_empty() {
            if let Some(key) = forced_key {
                if self.cfg.drops.forced.contains(&key) {
                    // Account as a drop on the final delivery link.
                    self.counters[_in_link.idx()].drops += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.record(TraceEvent::Drop {
                            at_ns: self.q.now().as_ns(),
                            link: _in_link.idx() as u32,
                            cause: DropCause::Forced,
                        });
                    }
                    return self.release_pkt(pr);
                }
            }
        }

        if needs_slot {
            let qp = &mut self.nics[rank.idx()].qps[qp_idx];
            if qp.rq_avail == 0 {
                self.nics[rank.idx()].rnr_drops += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent::Drop {
                        at_ns: self.q.now().as_ns(),
                        link: _in_link.idx() as u32,
                        cause: DropCause::Rnr,
                    });
                }
                return self.release_pkt(pr);
            }
            qp.rq_avail -= 1;
        }
        self.schedule_cqe(rank, qp_idx, pr, needs_slot);
    }

    /// Queue the packet's completion through its QP's RX worker; the
    /// handle transfers to the `CqeDone` event (CQE contents are derived
    /// from the slab entry at dispatch time).
    fn schedule_cqe(&mut self, rank: Rank, qp_idx: usize, pr: PktRef, repost: bool) {
        let now = self.q.now();
        let nic = &mut self.nics[rank.idx()];
        let worker = nic.qps.get(qp_idx).map(|q| q.worker).unwrap_or(0);
        let visible = now + self.cfg.host.rx_cqe_dma_ns;
        let start = visible.max(nic.workers[worker]);
        let done = start + self.cfg.host.rx_proc_ns_per_cqe;
        nic.workers[worker] = done;
        if self.trace.is_some() {
            // The extra slab read for `bytes` happens only when tracing.
            let bytes = self.pkt(pr).payload_len;
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::Deliver {
                    at_ns: done.as_ns(),
                    rank: rank.0,
                    qp: qp_idx as u32,
                    bytes,
                });
            }
        }
        self.q.schedule_at(
            done,
            Ev::CqeDone {
                rank,
                qp_idx: qp_idx as u32,
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
    /// mark done when they saw all of them. Rank 0 marks done on TX drain.
    struct BcastApp {
        qp: QpNum,
        group: McastGroupId,
        n: u32,
        len: usize,
        got: u32,
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

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: Cqe, _payload: Payload<Msg>) {
            assert!(cqe.is_recv_success());
            self.got += 1;
            if self.got == self.n {
                ctx.mark_done();
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}

        fn on_tx_drained(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
            ctx.mark_done();
        }
    }

    fn bcast_fabric(n_ranks: usize, chunks: u32, cfg: FabricConfig) -> (Fabric<Msg>, McastGroupId) {
        let topo = Topology::single_switch(n_ranks, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..n_ranks as u32).map(Rank).collect();
        let group = fab.create_group(&members);
        for &r in &members {
            let qp = fab.add_qp(r, Transport::Ud, 0);
            fab.attach(r, qp, group);
            fab.set_app(
                r,
                Box::new(BcastApp {
                    qp,
                    group,
                    n: chunks,
                    len: 4096,
                    got: 0,
                }),
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
        assert_eq!(fab.total_fabric_drops(), 0);
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
        assert!(fab.total_fabric_drops() > 0);
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
    fn group_table_occupancy_tracked() {
        let topo = Topology::single_switch(4, LinkRate::CX3_56G, 100);
        let mut cfg = FabricConfig::ideal();
        cfg.mcast_table_capacity = Some(3);
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..4).map(Rank).collect();
        assert_eq!(fab.num_groups(), 0);
        fab.create_group(&members);
        fab.create_group(&members);
        assert_eq!(fab.num_groups(), 2);
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
    fn fabric_is_send() {
        // The whole simulation — fabric, queue, slab, installed apps —
        // must be movable to a sweep-executor worker thread. A compile
        // check, but kept as a test so the property is named and
        // searchable.
        fn assert_send<T: Send>() {}
        assert_send::<Fabric<Msg>>();
        assert_send::<Box<dyn RankApp<Msg>>>();
    }

    #[test]
    fn take_app_roundtrips_concrete_type() {
        let (mut fab, _) = bcast_fabric(4, 4, FabricConfig::ideal());
        let stats = fab.run();
        assert!(stats.all_done());
        for r in 0..4 {
            let app: BcastApp = fab.take_app_as(Rank(r));
            // Leaves counted every chunk; the root's counter stays 0.
            assert_eq!(app.got, if r == 0 { 0 } else { 4 });
        }
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn take_app_as_panics_on_type_mismatch() {
        let (mut fab, _) = bcast_fabric(2, 1, FabricConfig::ideal());
        fab.run();
        let _: TimerApp = fab.take_app_as(Rank(0));
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

        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: Cqe, payload: Payload<Msg>) {
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
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: Cqe, _p: Payload<Msg>) {}
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
        assert!(fab.total_fabric_drops() > 0);
        assert!(fab.total_rnr_drops() > 0);
        let per_link_sum: u64 = report.per_link().iter().map(|c| c.drops).sum();
        assert_eq!(per_link_sum, fab.total_fabric_drops());
        assert_eq!(report.total_drops(), fab.total_fabric_drops());
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
    fn slab_entry_stays_small() {
        // The 128-rank endpoint pair holds ~120 k of these at its peak.
        // An entry no longer depends on the app's message type (control
        // messages wait out of line), so this holds for every `M`,
        // `mcag-core`'s 32-byte `ControlMsg` included; it was 144 bytes
        // with an in-line header, payload and arrival semantics.
        let size = std::mem::size_of::<Option<SlabEntry>>();
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

        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: Cqe, _payload: Payload<Msg>) {}

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
        let mut fab: Fabric<Msg> = Fabric::new(topo, cfg);
        let members: Vec<Rank> = (0..4).map(Rank).collect();
        let group = fab.create_group(&members);
        for &r in &members {
            assert_eq!(fab.add_qp(r, Transport::Rc, 0), ARB_CTRL);
            assert_eq!(fab.add_qp(r, Transport::Ud, 0), ARB_UD);
            assert_eq!(fab.add_qp(r, Transport::Rc, 0), ARB_INC);
            fab.attach(r, ARB_UD, group);
            fab.set_app(
                r,
                Box::new(ArbApp {
                    group,
                    drained: Vec::new(),
                }),
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
        let drained = fab.take_app_as::<ArbApp>(Rank(0)).drained;
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
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, cqe: Cqe, payload: Payload<Msg>) {
            let Payload::Chunk { psn, .. } = payload else {
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
        fn on_cqe(&mut self, _ctx: &mut Ctx<'_, Msg>, _cqe: Cqe, _payload: Payload<Msg>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _token: u64) {}
    }

    /// What rank 1 receives when rank 0 posts `seg` as one message: the
    /// route is FIFO, so arrival order is injection order. On the star a
    /// two-rank reduction has rank 0 as its only contributor.
    fn deliver_message(seg: MsgSegments, inc: bool) -> Vec<(u32, u32, usize)> {
        let topo = Topology::single_switch(2, LinkRate::CX3_56G, 100);
        let mut fab: Fabric<Msg> = Fabric::new(topo, FabricConfig::ideal());
        let group = inc.then(|| fab.create_group(&[Rank(0), Rank(1)]));
        for r in [Rank(0), Rank(1)] {
            fab.add_qp(r, Transport::Rc, 0);
        }
        fab.set_app(Rank(0), Box::new(OneMessage { seg, group }));
        fab.set_app(Rank(1), Box::new(RecvLog::default()));
        fab.run();
        assert_eq!(fab.live_packets(), 0);
        fab.take_app_as::<RecvLog>(Rank(1)).got
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
        fn on_cqe(&mut self, ctx: &mut Ctx<'_, Msg>, cqe: Cqe, _payload: Payload<Msg>) {
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
        // Afterwards the slab, the send queues (buffers included) and the
        // aggregation state are empty.
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
        for nic in &fab.inner.nics {
            for q in &nic.tx_queues {
                assert!(q.is_empty());
                assert_eq!(q.capacity(), 0, "drained queue kept its buffer");
            }
        }
        assert!(fab.inner.inc_arrivals.is_empty());
        assert!(fab.inner.inc_live.values().all(|&live| live == 0));
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
