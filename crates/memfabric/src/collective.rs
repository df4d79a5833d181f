//! The threaded multicast collective engine.
//!
//! Mirrors the paper's UCC backend thread structure (Fig. 9): per rank,
//! an **application thread** drives the control path (RNR barrier, chain
//! activation, recovery, final handshake), a **TX worker** fragments and
//! multicasts the send buffer, and one **RX worker per multicast
//! subgroup** drains its completion channel through a staging ring into
//! the receive buffer, flipping bitmap bits. Signaling runs over atomics
//! and channels; data is real bytes.

use crate::abitmap::AtomicBitmap;
use crate::fabric::{CtrlPacket, MemFabric, MemFabricConfig, RankRx};
use bytes::Bytes;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use mcag_core::barrier::{BarrierAction, BarrierActions, BarrierState};
use mcag_core::plan::CollectivePlan;
use mcag_core::{ControlMsg, RangeList, StagingRing};
use mcag_verbs::{ImmData, Rank, Transport};

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Chunks recovered through the fetch ring.
    pub fetched_chunks: u64,
    /// Duplicate datagrams discarded by the bitmap.
    pub duplicate_chunks: u64,
    /// Datagrams dropped because the staging ring was exhausted (the
    /// receiver-not-ready failure mode).
    pub staging_drops: u64,
    /// Cutoff-timer recovery activations.
    pub recovery_rounds: u32,
}

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct MemRunReport {
    /// Final receive buffers, indexed by rank.
    pub recv_bufs: Vec<Vec<u8>>,
    /// Per-rank statistics.
    pub stats: Vec<RankStats>,
}

/// Execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// Fault injection.
    pub fabric: MemFabricConfig,
    /// Fast-path transport: `Ud` receives through the staging ring
    /// (loss/OOO-safe re-assembly, the deployed path); `Uc` models the
    /// next-generation multicast RDMA-write extension — multi-packet
    /// chunks land zero-copy in the receive buffer, no staging
    /// (Section VI-C(e)).
    pub transport: Transport,
    /// Staging slots per RX worker (UD only).
    pub staging_slots: usize,
    /// Cutoff timer before the recovery phase starts.
    pub cutoff: Duration,
    /// Hard deadline: panic (protocol hang) if a rank has not released
    /// its buffer by then.
    pub watchdog: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            fabric: MemFabricConfig::reliable(),
            transport: Transport::Ud,
            staging_slots: 256,
            cutoff: Duration::from_millis(25),
            watchdog: Duration::from_secs(30),
        }
    }
}

struct Shared {
    plan: CollectivePlan,
    fabric: Arc<MemFabric>,
    bitmaps: Vec<Arc<AtomicBitmap>>,
    tx_done: Vec<Arc<AtomicBool>>,
    shutdown: Vec<Arc<AtomicBool>>,
    staging_drops: Vec<Arc<AtomicU64>>,
    duplicates: Vec<Arc<AtomicU64>>,
}

/// Run one Broadcast/Allgather with real threads and real bytes.
///
/// `send_bufs[r]` is rank `r`'s contribution; non-root ranks of a
/// Broadcast may pass an empty buffer. Returns every rank's receive
/// buffer (`N` bytes for Broadcast, `N·P` for Allgather) plus stats.
pub fn run_threaded(
    plan: &CollectivePlan,
    cfg: &ThreadedConfig,
    send_bufs: &[Vec<u8>],
) -> MemRunReport {
    let p = plan.num_ranks() as usize;
    assert_eq!(send_bufs.len(), p);
    for r in plan.roots() {
        assert_eq!(
            send_bufs[r.idx()].len(),
            plan.send_len(),
            "root {r} send buffer length"
        );
    }
    let subgroups = plan.num_subgroups() as usize;
    let (fabric, rxs) = MemFabric::new(p, subgroups, plan.recv_len(), cfg.fabric);

    let shared = Arc::new(Shared {
        plan: plan.clone(),
        fabric: Arc::clone(&fabric),
        bitmaps: (0..p)
            .map(|_| Arc::new(AtomicBitmap::new(plan.total_chunks() as usize)))
            .collect(),
        tx_done: (0..p).map(|_| Arc::new(AtomicBool::new(false))).collect(),
        shutdown: (0..p).map(|_| Arc::new(AtomicBool::new(false))).collect(),
        staging_drops: (0..p).map(|_| Arc::new(AtomicU64::new(0))).collect(),
        duplicates: (0..p).map(|_| Arc::new(AtomicU64::new(0))).collect(),
    });

    let stats: Vec<RankStats> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(p);
        for (r, rx) in rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let send = Bytes::from(send_bufs[r].clone());
            let cfg = *cfg;
            handles.push(s.spawn(move || rank_main(r as u32, shared, rx, send, cfg)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });

    let recv_bufs = (0..p as u32)
        .map(|r| fabric.window(r).lock().clone())
        .collect();
    MemRunReport { recv_bufs, stats }
}

/// The per-rank body: spawns TX/RX workers, runs the app control loop.
fn rank_main(
    me: u32,
    shared: Arc<Shared>,
    rx: RankRx,
    send_buf: Bytes,
    cfg: ThreadedConfig,
) -> RankStats {
    let plan = &shared.plan;
    let window = shared.fabric.window(me);
    // The local block is in place before anything else (zero-copy in the
    // real stack: the send region aliases into the receive buffer).
    if let Some(idx) = plan.root_index(Rank(me)) {
        {
            let mut w = window.lock();
            let base = idx as usize * plan.send_len();
            w[base..base + plan.send_len()].copy_from_slice(&send_buf);
        }
        for psn in plan.root_psn_range(idx) {
            shared.bitmaps[me as usize].set(psn);
        }
    }

    let (activate_tx, activate_rx) = bounded::<()>(1);

    std::thread::scope(|s| {
        // ---- TX worker: fragmentation + multicast fast path. ----
        let is_root = plan.root_index(Rank(me)).is_some();
        if is_root {
            let shared = Arc::clone(&shared);
            let send_buf = send_buf.clone();
            s.spawn(move || {
                if activate_rx.recv().is_err() {
                    return; // collective torn down before activation
                }
                let plan = &shared.plan;
                let idx = plan.root_index(Rank(me)).unwrap();
                let mut port = shared.fabric.tx_port(me);
                for local in 0..plan.chunks_per_root() {
                    let psn = plan.global_psn(idx, local);
                    let range = plan.mtu().chunk_range(local, plan.send_len());
                    let imm = plan.imm_for(psn);
                    let sub = plan.subgroup_of(local) as usize;
                    port.mcast(sub, imm.0, send_buf.slice(range));
                }
                port.flush();
                shared.tx_done[me as usize].store(true, Ordering::Release);
            });
        }

        // ---- RX workers: one per subgroup (packet parallelism). ----
        for (sub, data_rx) in rx.data_rx.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let window = Arc::clone(&window);
            let staging_slots = cfg.staging_slots;
            let transport = cfg.transport;
            s.spawn(move || {
                let plan = &shared.plan;
                let bitmap = &shared.bitmaps[me as usize];
                let mut staging = StagingRing::new(staging_slots, plan.mtu());
                let layout = plan.imm_layout();
                let mut staged: Vec<u32> = Vec::new();
                // Stage one datagram; None = RNR drop (counted).
                let stage = |d: crate::fabric::Datagram,
                             staging: &mut StagingRing,
                             staged: &mut Vec<u32>| {
                    let (coll, psn) = layout.unpack(ImmData(d.imm));
                    assert_eq!(coll, plan.coll_id(), "crossed collective");
                    debug_assert_eq!(
                        plan.subgroup_of(plan.split_psn(psn).1) as usize,
                        sub,
                        "chunk on wrong subgroup channel"
                    );
                    match staging.receive(psn, &d.payload) {
                        Some(slot) => staged.push(slot),
                        None => {
                            shared.staging_drops[me as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                };
                // UC zero-copy landing: the RDMA write placed the whole
                // chunk; just record it and flip the bit.
                let land_uc = |d: crate::fabric::Datagram| {
                    let (coll, psn) = layout.unpack(ImmData(d.imm));
                    assert_eq!(coll, plan.coll_id(), "crossed collective");
                    {
                        let mut w = window.lock();
                        let dst = plan.recv_range(psn);
                        w[dst].copy_from_slice(&d.payload);
                    }
                    if !bitmap.set(psn) {
                        shared.duplicates[me as usize].fetch_add(1, Ordering::Relaxed);
                    }
                };
                loop {
                    match data_rx.recv_timeout(Duration::from_micros(500)) {
                        Ok(d) if transport == Transport::Uc => land_uc(d),
                        Ok(d) => {
                            // UD: stage the whole arrival burst first —
                            // packets keep landing in the ring while
                            // earlier slots await their (DMA) copy-out;
                            // overflow is an RNR drop recovered by the
                            // fetch ring.
                            stage(d, &mut staging, &mut staged);
                            while let Ok(d) = data_rx.try_recv() {
                                stage(d, &mut staging, &mut staged);
                            }
                            // Drain: copy staging → user buffer, flip bits.
                            let mut w = window.lock();
                            for slot in staged.drain(..) {
                                let psn = staging.slot_psn(slot);
                                let dst = plan.recv_range(psn);
                                staging.copy_out_to(slot, &mut w, dst);
                                if !bitmap.set(psn) {
                                    shared.duplicates[me as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if shared.shutdown[me as usize].load(Ordering::Acquire) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            });
        }

        // ---- Application thread: the control path. ----
        let stats = app_loop(me, &shared, rx.ctrl_rx, &activate_tx, &cfg);
        shared.shutdown[me as usize].store(true, Ordering::Release);
        stats
    })
}

/// Control state of the application thread (Fig. 9's violet arrows).
struct AppState {
    barrier: BarrierState,
    barrier_done: bool,
    deadline: Option<Instant>,
    activated: bool,
    tx_kicked: bool,
    activate_signal_sent: bool,
    final_sent: bool,
    final_received: bool,
    recovered: bool,
    stats: RankStats,
    /// Ranges owed to recovering peers, served incrementally.
    pending_serve: Vec<(u32, RangeList)>,
}

fn app_loop(
    me: u32,
    shared: &Shared,
    ctrl_rx: crossbeam::channel::Receiver<CtrlPacket>,
    activate_tx: &Sender<()>,
    cfg: &ThreadedConfig,
) -> RankStats {
    let plan = &shared.plan;
    let p = plan.num_ranks();
    let bitmap = &shared.bitmaps[me as usize];
    let left = Rank(me).ring_left(p).0;
    let start = Instant::now();

    let mut st = AppState {
        barrier: BarrierState::new(Rank(me), p),
        barrier_done: false,
        deadline: None,
        activated: false,
        tx_kicked: false,
        activate_signal_sent: false,
        final_sent: false,
        final_received: false,
        recovered: false,
        stats: RankStats::default(),
        pending_serve: Vec::new(),
    };

    let actions = st.barrier.start();
    run_barrier_actions(me, shared, &mut st, actions);

    loop {
        assert!(
            start.elapsed() < cfg.watchdog,
            "rank {me} hung: remaining={} barrier_done={} recovered={}",
            bitmap.remaining(),
            st.barrier_done,
            st.recovered
        );
        match ctrl_rx.recv_timeout(Duration::from_micros(200)) {
            Ok(pkt) => handle_ctrl(me, shared, &mut st, pkt),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("fabric dropped"),
        }

        // -- Multicast phase entry: arm the cutoff, kick step-0 roots. --
        if st.barrier_done {
            if st.deadline.is_none() && plan.expected_chunks(Rank(me)) > 0 {
                st.deadline = Some(Instant::now() + cfg.cutoff);
            }
            if !st.activated {
                if let Some(idx) = plan.root_index(Rank(me)) {
                    if plan.sequencer().starts_immediately(idx) {
                        st.activated = true;
                    }
                }
            }
        }

        // -- Wake the TX worker once activation arrives (barrier for
        //    step-0 roots, predecessor signal otherwise). --
        if st.activated && !st.tx_kicked {
            st.tx_kicked = true;
            let _ = activate_tx.send(());
        }

        // -- Own multicast drained: pass the activation signal. --
        if shared.tx_done[me as usize].load(Ordering::Acquire) && !st.activate_signal_sent {
            st.activate_signal_sent = true;
            let idx = plan.root_index(Rank(me)).unwrap();
            if let Some(succ) = plan.sequencer().successor(idx) {
                let to = plan.roots()[succ as usize];
                shared.fabric.ctrl_send(me, to.0, ControlMsg::Activate);
            }
        }

        // -- Cutoff expired with holes: request from the left neighbor. --
        if let Some(d) = st.deadline {
            if !st.recovered && !bitmap.is_complete() && Instant::now() >= d {
                st.recovered = true;
                st.stats.recovery_rounds += 1;
                let runs = bitmap.missing_runs();
                if !runs.is_empty() {
                    shared.fabric.ctrl_send(
                        me,
                        left,
                        ControlMsg::FetchReq {
                            ranges: runs.into(),
                        },
                    );
                }
            }
        }

        serve_pending(me, shared, &mut st);

        // -- Final handshake. --
        let tx_ok = plan.root_index(Rank(me)).is_none()
            || shared.tx_done[me as usize].load(Ordering::Acquire);
        if bitmap.is_complete() && tx_ok && !st.final_sent {
            st.final_sent = true;
            shared.fabric.ctrl_send(me, left, ControlMsg::FinalPkt);
        }
        if st.final_sent && st.final_received {
            st.stats.duplicate_chunks = shared.duplicates[me as usize].load(Ordering::Relaxed);
            st.stats.staging_drops = shared.staging_drops[me as usize].load(Ordering::Relaxed);
            return st.stats;
        }
    }
}

fn run_barrier_actions(me: u32, shared: &Shared, st: &mut AppState, actions: BarrierActions) {
    for a in actions {
        match a {
            BarrierAction::Send { to, round } => {
                shared
                    .fabric
                    .ctrl_send(me, to.0, ControlMsg::Barrier { round });
            }
            BarrierAction::Done => st.barrier_done = true,
        }
    }
}

fn handle_ctrl(me: u32, shared: &Shared, st: &mut AppState, pkt: CtrlPacket) {
    let plan = &shared.plan;
    let bitmap = &shared.bitmaps[me as usize];
    match pkt.msg {
        ControlMsg::Barrier { round } => {
            let actions = st.barrier.on_msg(round);
            run_barrier_actions(me, shared, st, actions);
        }
        ControlMsg::Activate => {
            assert!(!st.activated, "rank {me} double activation");
            st.activated = true; // TX worker is kicked from the main loop
        }
        ControlMsg::FinalPkt => {
            assert_eq!(
                pkt.src,
                Rank(me).ring_right(plan.num_ranks()).0,
                "final packet from non-neighbor"
            );
            st.final_received = true;
        }
        ControlMsg::FetchReq { ranges } => {
            st.pending_serve.push((pkt.src, ranges));
        }
        ControlMsg::FetchAck { ranges } => {
            let left = Rank(me).ring_left(plan.num_ranks()).0;
            let window = shared.fabric.window(me);
            for r in ranges.iter() {
                for psn in r.clone() {
                    if bitmap.get(psn) {
                        continue;
                    }
                    // One-sided read from the left neighbor's receive
                    // buffer (identical layout), then land + mark.
                    let byte_range = plan.recv_range(psn);
                    let data = shared.fabric.read(left, byte_range.clone());
                    {
                        let mut w = window.lock();
                        w[byte_range].copy_from_slice(&data);
                    }
                    if bitmap.set(psn) {
                        st.stats.fetched_chunks += 1;
                    }
                }
            }
        }
    }
}

/// Incrementally serve owed fetch ranges as chunks land (the recursive
/// recovery propagation — see `mcag-core::protocol` for why serving only
/// on completion would deadlock the ring).
fn serve_pending(me: u32, shared: &Shared, st: &mut AppState) {
    if st.pending_serve.is_empty() {
        return;
    }
    let bitmap = &shared.bitmaps[me as usize];
    let mut still = Vec::new();
    for (requester, ranges) in std::mem::take(&mut st.pending_serve) {
        let mut have: Vec<Range<u32>> = Vec::new();
        let mut owe: Vec<Range<u32>> = Vec::new();
        for r in ranges.iter() {
            let mut i = r.start;
            while i < r.end {
                let present = bitmap.get(i);
                let s = i;
                while i < r.end && bitmap.get(i) == present {
                    i += 1;
                }
                if present {
                    have.push(s..i);
                } else {
                    owe.push(s..i);
                }
            }
        }
        if !have.is_empty() {
            shared.fabric.ctrl_send(
                me,
                requester,
                ControlMsg::FetchAck {
                    ranges: have.into(),
                },
            );
        }
        if !owe.is_empty() {
            still.push((requester, owe.into()));
        }
    }
    st.pending_serve = still;
}

/// Convenience: an Allgather plan + deterministic pseudo-random send
/// buffers for `p` ranks of `n` bytes, returning `(plan, bufs)`.
pub fn allgather_fixture(
    p: u32,
    n: usize,
    subgroups: u32,
    chains: u32,
) -> (CollectivePlan, Vec<Vec<u8>>) {
    use mcag_core::plan::CollectiveKind;
    use mcag_verbs::{CollectiveId, ImmLayout, Mtu};
    let plan = CollectivePlan::new(
        CollectiveKind::Allgather,
        p,
        n,
        Mtu::IB_4K,
        ImmLayout::DEFAULT,
        CollectiveId(2),
        subgroups,
        chains,
    );
    let bufs = (0..p)
        .map(|r| {
            (0..n)
                .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(r as u64 * 131) % 251) as u8)
                .collect()
        })
        .collect();
    (plan, bufs)
}

/// Expected Allgather result: concatenation of all send buffers.
pub fn expected_allgather(bufs: &[Vec<u8>]) -> Vec<u8> {
    bufs.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_core::plan::CollectiveKind;
    use mcag_verbs::{CollectiveId, ImmLayout, Mtu};

    fn bcast_plan(p: u32, n: usize, root: u32, subgroups: u32) -> CollectivePlan {
        CollectivePlan::new(
            CollectiveKind::Broadcast { root: Rank(root) },
            p,
            n,
            Mtu::IB_4K,
            ImmLayout::DEFAULT,
            CollectiveId(1),
            subgroups,
            1,
        )
    }

    #[test]
    fn allgather_lossless() {
        let (plan, bufs) = allgather_fixture(4, 20_000, 1, 1);
        // Generous cutoff: under parallel-test CPU contention a short
        // timer can fire before the (lossless) fast path drains, which
        // would make the fetched==0 assertion racy.
        let cfg = ThreadedConfig {
            cutoff: Duration::from_secs(5),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for (r, got) in report.recv_bufs.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r} buffer mismatch");
        }
        let fetched: u64 = report.stats.iter().map(|s| s.fetched_chunks).sum();
        assert_eq!(fetched, 0, "no recovery on a lossless fabric");
    }

    #[test]
    fn allgather_with_drops_recovers() {
        let (plan, bufs) = allgather_fixture(5, 50_000, 1, 1);
        let cfg = ThreadedConfig {
            fabric: MemFabricConfig::faulty(0.05, 0.0, 42),
            cutoff: Duration::from_millis(15),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for (r, got) in report.recv_bufs.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r} corrupted after recovery");
        }
        let fetched: u64 = report.stats.iter().map(|s| s.fetched_chunks).sum();
        assert!(fetched > 0, "5% drops should have triggered fetches");
    }

    #[test]
    fn allgather_with_reordering() {
        let (plan, bufs) = allgather_fixture(4, 64_000, 1, 1);
        let cfg = ThreadedConfig {
            fabric: MemFabricConfig::faulty(0.0, 0.3, 9),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for got in &report.recv_bufs {
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn allgather_multi_subgroup_multi_chain() {
        let (plan, bufs) = allgather_fixture(6, 40_000, 3, 2);
        let cfg = ThreadedConfig {
            fabric: MemFabricConfig::faulty(0.02, 0.2, 3),
            cutoff: Duration::from_millis(15),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for got in &report.recv_bufs {
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn staging_exhaustion_recovers_via_fetch_ring() {
        // 2 staging slots against thousands of back-to-back datagrams:
        // most are RNR-dropped; recovery must still converge.
        let (plan, bufs) = allgather_fixture(3, 120_000, 1, 1);
        let cfg = ThreadedConfig {
            staging_slots: 2,
            cutoff: Duration::from_millis(20),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for got in &report.recv_bufs {
            assert_eq!(got, &expect);
        }
        let drops: u64 = report.stats.iter().map(|s| s.staging_drops).sum();
        let fetched: u64 = report.stats.iter().map(|s| s.fetched_chunks).sum();
        assert!(drops > 0, "tiny staging ring never overflowed?");
        assert!(fetched > 0, "drops but no fetches?");
    }

    #[test]
    fn broadcast_delivers_root_buffer() {
        let p = 5;
        let n = 30_000;
        let plan = bcast_plan(p, n, 2, 1);
        let mut bufs = vec![Vec::new(); p as usize];
        bufs[2] = (0..n).map(|i| (i % 256) as u8).collect();
        let report = run_threaded(&plan, &ThreadedConfig::default(), &bufs);
        for (r, got) in report.recv_bufs.iter().enumerate() {
            assert_eq!(got, &bufs[2], "rank {r}");
        }
    }

    #[test]
    fn broadcast_with_heavy_drops() {
        let p = 4;
        let n = 100_000;
        let plan = bcast_plan(p, n, 0, 2);
        let mut bufs = vec![Vec::new(); p as usize];
        bufs[0] = (0..n).map(|i| (i * 7 % 256) as u8).collect();
        let cfg = ThreadedConfig {
            fabric: MemFabricConfig::faulty(0.15, 0.1, 77),
            cutoff: Duration::from_millis(15),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        for got in &report.recv_bufs {
            assert_eq!(got, &bufs[0]);
        }
        let fetched: u64 = report.stats.iter().map(|s| s.fetched_chunks).sum();
        assert!(fetched > 0);
    }

    #[test]
    fn uc_zero_copy_mode_with_large_chunks() {
        // Next-gen UC multicast: 64 KiB multi-packet chunks land without
        // staging; whole-chunk drops recovered by the fetch ring.
        use mcag_core::plan::CollectiveKind;
        use mcag_verbs::{CollectiveId, ImmLayout, Mtu};
        let p = 4u32;
        let n = 256 << 10;
        let plan = CollectivePlan::new(
            CollectiveKind::Allgather,
            p,
            n,
            Mtu::new(64 << 10),
            ImmLayout::DEFAULT,
            CollectiveId(2),
            1,
            1,
        );
        let bufs: Vec<Vec<u8>> = (0..p)
            .map(|r| (0..n).map(|i| ((i + r as usize * 7) % 251) as u8).collect())
            .collect();
        let cfg = ThreadedConfig {
            transport: Transport::Uc,
            fabric: MemFabricConfig::faulty(0.08, 0.2, 11),
            cutoff: Duration::from_millis(15),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for (r, got) in report.recv_bufs.iter().enumerate() {
            assert_eq!(got, &expect, "rank {r}");
        }
        let drops: u64 = report.stats.iter().map(|s| s.staging_drops).sum();
        assert_eq!(drops, 0, "UC path must not touch the staging ring");
        let fetched: u64 = report.stats.iter().map(|s| s.fetched_chunks).sum();
        assert!(fetched > 0, "8% chunk loss must trigger recovery");
    }

    #[test]
    fn two_rank_edge_case() {
        let (plan, bufs) = allgather_fixture(2, 10_000, 1, 1);
        let cfg = ThreadedConfig {
            fabric: MemFabricConfig::faulty(0.1, 0.0, 5),
            cutoff: Duration::from_millis(10),
            ..Default::default()
        };
        let report = run_threaded(&plan, &cfg, &bufs);
        let expect = expected_allgather(&bufs);
        for got in &report.recv_bufs {
            assert_eq!(got, &expect);
        }
    }
}
