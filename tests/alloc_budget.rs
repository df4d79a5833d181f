//! Allocation budgets: the regression gate behind the arena-backed
//! timer wheel, the sort-free trace harvest and the one-buffer Chrome
//! exporter. A counting `#[global_allocator]` holds fourteen numbers to
//! a ceiling so that a per-slot container, a per-batch deep copy, a
//! per-element `String`, a capacity that is never given back, a fat
//! in-flight packet, a per-fabric route or tree, a per-message buffer or
//! a sort's scratch cannot return unnoticed:
//!
//! 1. constant-depth schedule/pop churn on the wheel allocates nothing
//!    once the arena has reached the queue's depth;
//! 2. an open-loop runtime on a 4-host switch stays under a per-batch
//!    allocation budget (count and bytes);
//! 3. the same run with the flight recorder on adds at most 12 KiB a
//!    batch to that budget;
//! 4. a batch replayed from the runtime's batch-outcome memo allocates a
//!    tenth of a simulated one (release builds only: a debug build
//!    simulates every replayed batch again to check it, which is why 2
//!    and 3 still hold a *simulated* batch to its budget there);
//! 5. `take_trace` makes the same three allocations for a 10 k-event and
//!    a 100 k-event trace, and peaks at the merged vector;
//! 6. `export_chrome` makes the same handful of allocations for a
//!    10 k-event and a 100 k-event trace, and peaks at the document;
//! 7. the paper's 188-node Allgather stays under a peak-live-heap cap;
//! 8. so does a 64-rank in-switch `{AG, RS}` pair, whose send queues hold
//!    one Reduce-Scatter sweep request per rank rather than one request
//!    per shard or one built packet per chunk;
//! 9. and the same pair reduced on the endpoints, whose peak is the
//!    packet slab;
//! 10. a faulted collective peaks at the same live heap whether its flap
//!     schedule ends soon after the run or runs on long past it: the
//!     fabric replays transitions from a cursor, it does not queue them;
//! 11. a second fabric over a warm topology, with a multicast group and
//!     one control message, allocates nothing for the group's tree or
//!     the message's route: the topology built both for the first;
//! 12. a runtime shaped like the benchmark's `recovery` flap cell (8
//!     ranks on a fat tree, one flapping partition) stays under a
//!     per-batch allocation budget: barrier steps, send queues, drain
//!     notifications, QP tables and reduced chunks' routes allocate
//!     nothing per message;
//! 13. compiling that cell's flap plan peaks at the schedule it returns:
//!     the transitions are emitted in order, so nothing is sorted;
//! 14. a cold multicast tree build on that cell's fat tree makes the same
//!     few allocations as one on the 188-host testbed: its tables are
//!     flat, not one vector per tree node.
//!
//! The counters are per thread (the harness runs tests on parallel
//! threads, and every path measured here is single-threaded), so the
//! tests cannot see each other's allocations.

use mcast_allgather::core::des::RunBounds;
use mcast_allgather::core::{
    des, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, CollectiveKind, ProtocolConfig,
};
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::runtime::{
    JobKind, OpMix, PoolConfig, RateProcess, Runtime, RuntimeConfig, Workload as ArrivalSpec,
};
use mcast_allgather::simnet::mcast::McastTree;
use mcast_allgather::simnet::routing;
use mcast_allgather::simnet::{
    Ctx, EventQueue, Fabric, FabricConfig, LinkStateEvent, Payload, RankApp, SimTime, Topology,
};
use mcast_allgather::trace::{export_chrome, ChromeOptions, TraceEvent, TraceSpec};
use mcast_allgather::verbs::{Cqe, LinkRate, McastGroupId, QpNum, Rank, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// What the current thread has asked of the allocator so far.
#[derive(Clone, Copy)]
struct Tally {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    allocs: u64,
    /// Bytes requested by them.
    bytes: u64,
    /// Bytes currently held (may dip below zero when a thread frees
    /// what another allocated; these tests never do).
    live: i64,
    /// Highest `live` since the last [`reset_peak`].
    peak: i64,
}

thread_local! {
    // `const` initialisation and no destructor: touching this from
    // inside the allocator can neither allocate nor recurse.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

fn record(grew: usize, shrank: usize) {
    // `try_with`: a thread being torn down may free after its
    // thread-locals are gone; those calls are simply not counted.
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        if grew > 0 {
            v.allocs += 1;
            v.bytes += grew as u64;
        }
        v.live += grew as i64 - shrank as i64;
        v.peak = v.peak.max(v.live);
        t.set(v);
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is a valid size for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Forget the peak so far; returns the live heap the next peak rises from.
fn reset_peak() -> i64 {
    TALLY.with(|t| {
        let mut v = t.get();
        v.peak = v.live;
        t.set(v);
        v.live
    })
}

#[test]
fn constant_depth_churn_allocates_nothing_after_warm_up() {
    const DEPTH: u64 = 512;
    // Delays span the near level (< 2^12 ns) and the far level; the run
    // stays inside the first 2^24 ns super-chunk, because the sorted
    // overflow beyond it is a `BTreeMap` of buckets and allocates by
    // design (one bucket per 16.8 ms of far-future timers).
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut delay = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % (1 << 16)
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..DEPTH {
        q.schedule_in(delay(), i);
    }
    // One pop per schedule keeps the depth constant, so after the fill
    // the arena is already as long as it will ever need to be.
    let mut churn = |n: u64| {
        for _ in 0..n {
            let (_, e) = q.pop().expect("constant depth");
            q.schedule_in(delay(), e);
        }
    };
    churn(4 * DEPTH); // warm-up
    let before = tally();
    churn(60_000);
    let after = tally();
    assert!(
        q.now() < SimTime(1 << 24),
        "the churn left the first super-chunk"
    );
    assert_eq!(q.len() as u64, DEPTH);
    assert_eq!(
        (after.allocs - before.allocs, after.bytes - before.bytes),
        (0, 0),
        "steady-state schedule/pop churn allocated"
    );
}

/// The benchmark's `load_ladder` x2 cell, loaded and ready to run: 16
/// tenants, 2 partitions, pool 32, a mixed AG / Bcast / AG+RS stream on
/// a 4-host switch — one fresh fabric of a few hundred events per batch.
fn open_loop_runtime(arrivals: u64, trace: Option<TraceSpec>) -> Runtime {
    let arrivals = ArrivalSpec {
        tenants: 16,
        horizon_ns: 20_000 * arrivals,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: 20_000,
        },
        mix: OpMix {
            allgather_weight: 2,
            broadcast_weight: 1,
            agrs_weight: 1,
            min_send_len: 8 << 10,
            max_send_len: 32 << 10,
            ranks: 4,
        },
        seed: 7,
    }
    .generate();
    let mut rt = Runtime::new(
        Topology::single_switch(4, LinkRate::CX3_56G, 100),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(32),
            max_inflight: 8,
            partitions: 2,
            trace,
            ..RuntimeConfig::default()
        },
    );
    for i in 0..16 {
        rt.register_tenant(&format!("t{i}"));
    }
    rt.load_arrivals(&arrivals);
    rt
}

/// Allocation count and KiB per batch of draining `rt`.
fn per_batch_cost(mut rt: Runtime) -> (f64, f64) {
    let before = tally();
    let report = rt.run_open_loop();
    let after = tally();
    assert!(report.batches > 300, "only {} batches", report.batches);
    let per_batch = |n: u64| n as f64 / report.batches as f64;
    (
        per_batch(after.allocs - before.allocs),
        per_batch(after.bytes - before.bytes) / 1024.0,
    )
}

/// Ceiling on the bytes an untraced batch allocates: 1.25 x the 67 KiB
/// measured with the arena wheel (52 KiB since groups keep a dense
/// membership table, send queues hold work requests and trees and
/// topologies keep flat tables). It stays at 84 KiB, not 1.25 x the 52:
/// the flight-recorder row below allows 12 KiB on top of it, and a
/// debug build's traced batch reads 82 KiB.
const BATCH_KIB: f64 = 84.0;

#[test]
fn open_loop_runtime_stays_inside_its_per_batch_budget() {
    let (allocs, kib) = per_batch_cost(open_loop_runtime(1_000, None));
    // Measured 36 allocations and 52 KiB a simulated batch. It was 40
    // while the fabric boxed every rank's app; 70 and 53 KiB while every
    // rank kept its QPs, its slots and its bitmap in vectors of their
    // own and every launch collected its batches, lookups and outcomes
    // in fresh vectors; 156 and 59 KiB while
    // barrier steps, QP tables, send queues and drain notifications
    // allocated per message or per QP; 218 and 63 KiB while every
    // fabric routed and built its trees itself; 393 and 263 KiB with
    // per-slot wheel containers and per-batch topology copies. The
    // allocation ceiling is 1.15 x the 36, rounded up: the margin it
    // kept over the 40. 614 of this run's 759 batches are replays: a
    // debug build simulates those too and reads the figures above, a
    // release build 12 and 12 KiB.
    assert!(allocs <= 42.0, "{allocs:.0} allocations per batch");
    assert!(kib <= BATCH_KIB, "{kib:.0} KiB allocated per batch");
}

#[test]
fn flight_recorder_adds_at_most_16_kib_a_batch() {
    // A batch records about 200 events (6 KiB). A simulated batch pays
    // for the ring that holds them, sorted in place into the shared run
    // (the insertion sort needs no scratch); a replayed batch shares the
    // stored run, and the merged trace is built once, by `take_trace`,
    // outside this budget. A debug build simulates every batch (replays
    // included, to check them) and reads 69 KiB against 52 untraced; a
    // release build reads 18 against 12. It read 76 and 21 while every
    // batch's sorted events were copied into the shared run, 82 and 23
    // while every batch's sort allocated `sort_by_key`'s scratch, and
    // 99 and 44 while every commit appended its events to a vector that
    // grew by doubling and every replay copied the stored ring, so the
    // ceiling is now 12 KiB over the untraced one, not 16.
    let (_, kib) = per_batch_cost(open_loop_runtime(1_000, Some(TraceSpec::default())));
    assert!(kib <= BATCH_KIB + 12.0, "{kib:.0} KiB allocated per batch");
}

#[test]
fn replayed_batch_allocates_a_fraction_of_a_simulated_one() {
    // Debug builds simulate every replayed batch again to check it, so
    // only a release build shows what a replay costs.
    if cfg!(debug_assertions) {
        return;
    }
    // One tenant, one job shape, arrivals further apart than a batch
    // lasts: 1,000 one-job batches of a single shape on partition 0.
    let mut rt = Runtime::new(
        Topology::single_switch(4, LinkRate::CX3_56G, 100),
        RuntimeConfig {
            pool: PoolConfig::with_capacity(32),
            ..RuntimeConfig::default()
        },
    );
    let tenant = rt.register_tenant("t0");
    for i in 0..1_000u64 {
        rt.submit_at(i * 200_000, tenant, JobKind::Allgather, 16 << 10);
    }
    let before = tally();
    let report = rt.run_open_loop();
    let after = tally();
    assert_eq!(report.batches, 1_000);
    let stats = rt.memo_stats();
    assert_eq!((stats.hits, stats.misses), (998, 2));
    // Measured 5.1 allocations a batch — formation and the merge —
    // against the 13 of a simulated one; the ceiling is 1.5 x the 5.1.
    // It was 16.2 while every lookup built the batch's key, every replay
    // copied the outcome's two vectors and every launch and commit
    // collected its batches, lookups, outcomes and group keys in fresh
    // vectors.
    let allocs = (after.allocs - before.allocs) as f64 / 1_000.0;
    assert!(allocs <= 8.0, "{allocs:.1} allocations per replayed batch");
}

#[test]
fn take_trace_copies_the_trace_once() {
    // (allocations, peak live heap above the drained runtime / the merged
    // vector's bytes) of harvesting a trace of about `events` events
    // from the committed batches' sorted runs.
    let harvest_cost = |arrivals: u64, events: std::ops::Range<usize>| {
        let mut rt = open_loop_runtime(arrivals, Some(TraceSpec::default()));
        rt.run_open_loop();
        let floor = reset_peak();
        let before = tally();
        let trace = rt.take_trace().expect("tracing was on");
        let after = tally();
        let merged = trace.fabric.len();
        assert!(events.contains(&merged), "{merged} fabric events");
        let merged_bytes = merged * std::mem::size_of::<TraceEvent>();
        (
            after.allocs - before.allocs,
            (after.peak - floor) as f64 / merged_bytes as f64,
        )
    };
    let (small_allocs, small_peak) = harvest_cost(60, 8_000..12_000);
    let (large_allocs, large_peak) = harvest_cost(600, 80_000..120_000);
    // Measured 3 allocations at both sizes — the merged vector at its
    // exact length, the runs' admission order and the heap of runs that
    // overlap the merge frontier — and a peak of 1.002 x and 1.005 x the
    // merged vector. Sorting the whole trace instead made 1 allocation
    // (16-byte cached keys, 0.5 x) on top of a vector that had grown by
    // doubling while the run committed.
    assert_eq!(
        small_allocs, large_allocs,
        "allocations grow with the trace"
    );
    assert!(large_allocs <= 4, "{large_allocs} allocations");
    for peak in [small_peak, large_peak] {
        assert!(peak <= 1.1, "peak live heap {peak:.2} x the merged trace");
    }
}

#[test]
fn chrome_export_allocates_once_whatever_the_trace_size() {
    // (allocations, peak live heap above the inputs / document length)
    // of exporting a drained runtime's trace of about `events` events.
    let export_cost = |arrivals: u64, events: std::ops::Range<usize>| {
        let mut rt = open_loop_runtime(arrivals, Some(TraceSpec::default()));
        rt.run_open_loop();
        let trace = rt.take_trace().expect("tracing was on");
        assert!(
            events.contains(&trace.fabric.len()),
            "{} fabric events",
            trace.fabric.len()
        );
        let opts = ChromeOptions {
            link_names: (0..8).map(|l| format!("link{l}")).collect(),
            tenant_names: (0..16).map(|t| format!("t{t}")).collect(),
        };
        let floor = reset_peak();
        let before = tally();
        let doc = export_chrome(&trace, &opts);
        let after = tally();
        (
            after.allocs - before.allocs,
            (after.peak - floor) as f64 / doc.len() as f64,
        )
    };
    let (small_allocs, small_peak) = export_cost(60, 8_000..12_000);
    let (large_allocs, large_peak) = export_cost(600, 80_000..120_000);
    // Measured 1 allocation and a peak of 1.00 x the document at both
    // sizes: one buffer, sized before it is written. The renderer that
    // built a `String` per element made 25,308 and 281,677 allocations
    // and peaked at 4.0 x and 3.9 x.
    assert_eq!(
        small_allocs, large_allocs,
        "allocations grow with the trace"
    );
    assert!(large_allocs <= 8, "{large_allocs} allocations");
    for peak in [small_peak, large_peak] {
        assert!(peak <= 1.15, "peak live heap {peak:.2} x the document");
    }
}

#[test]
fn allgather_188_peak_live_heap_stays_small() {
    let floor = reset_peak();
    let run = des::run_collective(
        Topology::ucc_testbed(),
        FabricConfig::ucc_default(),
        ProtocolConfig::default(),
        CollectiveKind::Allgather,
        256 << 10,
    );
    assert!(run.stats.all_done());
    let peak_mib = (tally().peak - floor) as f64 / (1u64 << 20) as f64;
    // Measured 0.9 MiB; 52 MiB when every wheel slot kept the capacity
    // of its busiest instant.
    assert!(peak_mib < 8.0, "peak live heap {peak_mib:.1} MiB");
}

/// Peak live heap, in MiB, of the 64-rank `{AG, RS}` pair reduced in the
/// switches or on the endpoints: every rank posts its 63 foreign shards
/// (4 chunks apiece) at t = 0, beside an Allgather with every chain
/// running.
fn pair_peak_mib(in_switch: bool) -> f64 {
    let topo = Topology::fat_tree_two_level(64, 8, 4, 2, LinkRate::NDR_400G, 300);
    let proto = ProtocolConfig {
        chains: 64,
        ..ProtocolConfig::default()
    };
    let (cfg, send_len) = (FabricConfig::ucc_default(), 16 << 10);
    let floor = reset_peak();
    let run = if in_switch {
        run_concurrent_ag_rs(topo, cfg, proto, send_len)
    } else {
        run_concurrent_ag_rs_endpoint(topo, cfg, proto, send_len)
    };
    assert!(run.stats.all_done());
    (tally().peak - floor) as f64 / (1u64 << 20) as f64
}

#[test]
fn in_switch_pair_queues_work_requests_not_packets() {
    let peak_mib = pair_peak_mib(true);
    // Measured 0.65 MiB: each rank queues one sweep request for its 63
    // contributions, 64 requests in all. It was 0.95 with one message
    // request per shard (64 · 63 of 64 B), and 2.94 with one pre-built
    // packet per chunk in the slab (64 · 63 · 4 = 16,128 of them).
    assert!(peak_mib < 0.85, "peak live heap {peak_mib:.2} MiB");
}

#[test]
fn endpoint_pair_holds_a_slab_of_small_packets() {
    let peak_mib = pair_peak_mib(false);
    // Measured 2.10 MiB, half of it the packet slab, which grows to
    // 16,384 entries. It was 3.34 with 144-byte entries (64 now, pinned
    // by `mcag-simnet`'s `slab_entry_stays_small`).
    assert!(peak_mib < 2.6, "peak live heap {peak_mib:.2} MiB");
}

/// Peak live heap, in bytes, of a 16 KiB Allgather on an 8-host fat
/// tree whose flapping ports cycle every 40 µs until `flap_end_ns`, with
/// the run's completion times. The schedule is compiled before the
/// measurement starts: it is the run's input, not its working set.
fn flapped_allgather_peak(flap_end_ns: u64) -> (i64, Vec<Option<SimTime>>) {
    let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
    let mut cfg = FabricConfig::ucc_default();
    cfg.faults = FaultPlan::new(7)
        .with(FaultModel::FlappingPort {
            fraction: 0.2,
            period_ns: 40_000,
            down_ns: 10_000,
            start_ns: 0,
            end_ns: flap_end_ns,
        })
        .compile(&topo);
    // A short fixed cutoff slack: fetches finish well inside 200 µs.
    let proto = ProtocolConfig {
        cutoff_alpha_ns: 20_000,
        ..ProtocolConfig::default()
    };
    let floor = reset_peak();
    let run = des::run_collective_bounded(
        topo,
        cfg,
        proto,
        CollectiveKind::Allgather,
        16 << 10,
        RunBounds::default(),
    );
    assert!(run.stats.all_done());
    (tally().peak - floor, run.stats.per_rank_done)
}

#[test]
fn pending_fault_transitions_take_no_heap() {
    let (short, short_done) = flapped_allgather_peak(200_000);
    let (long, long_done) = flapped_allgather_peak(8_000_000);
    // The run is over before the short schedule ends, so both runs see
    // the same transitions; the long one leaves thousands more pending.
    assert_eq!(short_done, long_done);
    // It grew 24 B per pending transition while every transition was
    // pushed into the event queue at fabric construction.
    assert!(
        (short - long).abs() <= 256,
        "peak live heap {short} B with the flaps cut at 200 µs, {long} B at 8 ms"
    );
}

/// Rank 0 sends rank 7 one control message; everyone else is done at
/// once.
struct OneControlMessage;

impl RankApp<u64> for OneControlMessage {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.rank() == Rank(0) {
            ctx.post_msg(Rank(7), QpNum(0), 1, 64);
        }
        if ctx.rank() != Rank(7) {
            ctx.mark_done();
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_, u64>, _cqe: &Cqe, _payload: &Payload<u64>) {
        ctx.mark_done();
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _token: u64) {}
}

/// Allocations of building a fabric over `topo`, creating a group of
/// every rank and delivering [`OneControlMessage`] across the spine.
fn one_message_fabric_allocs(topo: &Arc<Topology>, members: &[Rank]) -> u64 {
    let before = tally();
    let mut fab: Fabric<u64> = Fabric::new(Arc::clone(topo), FabricConfig::ideal());
    fab.create_group(members);
    for &r in members {
        fab.add_qp(r, Transport::Rc, 0);
        fab.set_app(r, Box::new(OneControlMessage));
    }
    assert!(fab.run().all_done());
    drop(fab);
    tally().allocs - before.allocs
}

#[test]
fn warm_topology_builds_no_tree_or_route() {
    let topo = Arc::new(Topology::fat_tree_two_level(
        8,
        2,
        2,
        1,
        LinkRate::CX3_56G,
        100,
    ));
    let members: Vec<Rank> = (0..8).map(Rank).collect();
    // What building the group's tree and routing rank 0 to rank 7 cost.
    let before = tally();
    drop(McastTree::build(&topo, McastGroupId(0), &members));
    let tree = tally().allocs - before.allocs;
    let before = tally();
    drop(routing::route(&topo, Rank(0), Rank(7)));
    let route = tally().allocs - before.allocs;

    let cold = one_message_fabric_allocs(&topo, &members);
    let warm = one_message_fabric_allocs(&topo, &members);
    // Measured 9 allocations for the tree and 1 for the route (its
    // path); 32 for the cold fabric, which also stores both in the
    // topology's memo, and 19 for the warm one. They were 33 and 20
    // while a fabric kept its link counters and link busy times in two
    // tables; 27, 1, 59 and
    // 26 while a tree kept a vector per node and deduplicated its edges
    // in a `HashSet`, the memo stored a built tree's key beside it, a
    // route was collected into a vector before its shared copy and every
    // rank's QPs were a vector of their own; 43, 3, 101 and 50 while
    // every descending hop listed its rails in a vector; while every
    // fabric routed and built its trees itself, both fabrics made 98.
    assert!(
        cold >= warm + tree + route,
        "warm fabric made {warm} allocations, cold {cold}; the tree costs {tree}, the route {route}"
    );
}

/// The benchmark's `recovery` flap hazard: 30 % of the cables flap, down
/// 30 µs of every 40 µs for 8 ms.
fn recovery_flaps(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(FaultModel::FlappingPort {
        fraction: 0.3,
        period_ns: 40_000,
        down_ns: 30_000,
        start_ns: 0,
        end_ns: 8_000_000,
    })
}

fn recovery_topology() -> Topology {
    Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
}

#[test]
fn flapping_runtime_stays_inside_its_per_batch_budget() {
    // Thirty of the benchmark's `p1_flap_oblivious` cells: 6 tenants
    // send 4–16 KiB AG, Bcast and AG+RS jobs over all 8 ranks to one
    // partition whose ports flap from t = 0, each on a fresh topology;
    // an 8-cutoff watchdog censors the batches the flaps wedge.
    let (mut allocs, mut batches) = (0, 0);
    for seed in 0..30 {
        let topo = recovery_topology();
        let mut rt = Runtime::new(
            topo.clone(),
            RuntimeConfig {
                pool: PoolConfig::with_capacity(32),
                max_inflight: 4,
                partitions: 1,
                partition_faults: vec![recovery_flaps(seed).compile(&topo)],
                watchdog_cutoffs: 8,
                ..RuntimeConfig::default()
            },
        );
        for i in 0..6 {
            rt.register_tenant(&format!("t{i}"));
        }
        let arrivals = ArrivalSpec {
            tenants: 6,
            horizon_ns: 600_000 * 12,
            rate: RateProcess::Poisson {
                mean_interarrival_ns: 600_000,
            },
            mix: OpMix {
                allgather_weight: 2,
                broadcast_weight: 1,
                agrs_weight: 1,
                min_send_len: 4 << 10,
                max_send_len: 16 << 10,
                ranks: 8,
            },
            seed,
        }
        .generate();
        rt.load_arrivals(&arrivals);
        let before = tally();
        let report = rt.run_open_loop();
        allocs += tally().allocs - before.allocs;
        batches += report.batches;
    }
    let per_batch = allocs as f64 / batches as f64;
    // Measured 61 allocations a batch over these 264 batches (59 in a
    // release build, which replays some from the memo); 78 (75) while
    // every fetch request and ACK held its ranges in a vector of its
    // own; 85 (81) while the fabric boxed every rank's app; 139 (134) while
    // every rank kept its QPs, slots and bitmap in vectors of their own,
    // trees and topologies a vector per node, owed fetch ranges a fresh
    // vector per re-split and every launch and commit fresh vectors;
    // 323 (310) while every barrier step returned a vector, every QP
    // grew three, every send queue and drain notification had its own
    // buffer and every reduced chunk built a route down to its owner.
    // The ceiling, 94, was set at 1.22 x the 77 and is kept as it was.
    assert!(per_batch <= 94.0, "{per_batch:.0} allocations per batch");
}

#[test]
fn flap_compile_peaks_at_its_schedule() {
    let topo = recovery_topology();
    let floor = reset_peak();
    let schedule = recovery_flaps(1).compile(&topo);
    let peak = tally().peak - floor;
    // 4 cables, both directions, 200 cycles, a down and an up each.
    assert_eq!(schedule.len(), 3_200);
    // The transitions and each one's next recovery instant.
    let schedule_bytes = schedule.len() * (std::mem::size_of::<LinkStateEvent>() + 8);
    let ratio = peak as f64 / schedule_bytes as f64;
    // Measured 1.004 x: the transitions, reserved at their exact count,
    // and their recovery instants. Emitted port by port and stably
    // sorted, the compile peaked at 1.71 x, the sort's scratch buffer on
    // top of a vector that had grown by doubling.
    assert!(ratio <= 1.1, "peak live heap {ratio:.2} x the schedule");
}

#[test]
fn cold_tree_build_allocates_a_constant_handful() {
    let members = |p: u32| (0..p).map(Rank).collect::<Vec<_>>();
    let build_allocs = |topo: &Topology, avoid: &[_]| {
        let members = members(topo.num_hosts() as u32);
        let before = tally();
        let tree = McastTree::build_avoiding(topo, McastGroupId(0), &members, avoid);
        let allocs = tally().allocs - before.allocs;
        assert!(tree.is_some());
        allocs
    };
    let recovery = recovery_topology();
    let spine = recovery.switches_at_level(2)[0];
    let small = build_allocs(&recovery, &[]);
    let rerouted = build_allocs(&recovery, &[spine]);
    let testbed = build_allocs(&Topology::ucc_testbed(), &[]);
    // Measured 9 for all three: the membership table, the member list,
    // the edge list and its dedup and degree tables, first-touch order,
    // the flat adjacency, the parent links and the orientation walk.
    // The 14-node fat tree's build made 27 while every node kept its own
    // adjacency vector and edges were deduplicated in a `HashSet`; the
    // 206-node testbed's made one per tree node and more.
    assert_eq!(
        (small, rerouted),
        (testbed, testbed),
        "allocations grow with the tree"
    );
    assert!(testbed <= 10, "{testbed} allocations for a cold tree");
}
