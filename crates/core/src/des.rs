//! Driver: sets up a discrete-event fabric, installs the protocol
//! endpoints, runs the collective, and packages the outcome (timings,
//! traffic counters, drop statistics) for analysis — the simulated
//! equivalent of an OSU-benchmark iteration with switch-counter
//! collection (Section VI-B methodology).

use crate::multicomm::{self, Comm};
use crate::plan::{CollectiveKind, CollectivePlan};
use crate::protocol::RankTiming;
use crate::ProtocolConfig;
use mcag_simnet::fabric::RunStats;
use mcag_simnet::{FabricConfig, SimTime, Topology, TraceSink, TrafficReport};
use mcag_verbs::{CollectiveId, Rank};
use std::sync::Arc;

/// Watchdog margin: a healthy collective (including recovery rounds, each
/// of which re-arms a cutoff-sized timer) finishes within a handful of
/// cutoffs; a run still pending after this many per communicator is
/// livelocked or cut off by a fault. The default of [`RunBounds`], which
/// bound every driver's run through [`multicomm::run`] via the
/// peek-based [`Fabric::run_until`](mcag_simnet::Fabric::run_until)
/// instead of grinding toward the multi-billion event cap; the runtime
/// scheduler applies the same margin to whole batches.
pub const WATCHDOG_CUTOFFS: u64 = 1024;

/// Per-run recovery/termination bounds, applied by [`multicomm::run`] to
/// every driver: how aggressively the protocol's reliability cutoff is
/// stretched, and how many cutoffs the watchdog grants before declaring
/// the run timed out. The knobs of the fault sweeps' "recovery cutoff"
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBounds {
    /// Multiplier on the ideal-drain-time term of the cutoff timer
    /// ([`cutoff_ns`]'s `headroom`): larger values wait longer before
    /// falling back to the unicast recovery ring — fewer spurious
    /// fetches on a healthy fabric, fatter tail under faults.
    pub cutoff_headroom: u64,
    /// Watchdog deadline in cutoffs; a run still pending after its
    /// communicators' summed cutoffs times `watchdog_cutoffs` is
    /// abandoned ([`RunStats::all_done`] stays false — a clean timeout,
    /// never a panic).
    pub watchdog_cutoffs: u64,
}

impl Default for RunBounds {
    fn default() -> RunBounds {
        RunBounds {
            cutoff_headroom: 1,
            watchdog_cutoffs: WATCHDOG_CUTOFFS,
        }
    }
}

/// Result of one collective run on the DES fabric.
#[derive(Debug, Clone)]
pub struct CollectiveOutcome {
    /// The executed plan.
    pub plan: Arc<CollectivePlan>,
    /// Per-rank phase timings.
    pub timings: Vec<RankTiming>,
    /// Fabric run statistics.
    pub stats: RunStats,
    /// Link counters (switch-port view included).
    pub traffic: TrafficReport,
    /// Total receiver-not-ready drops.
    pub rnr_drops: u64,
    /// Total fabric (corruption) drops.
    pub fabric_drops: u64,
    /// The reliability cutoff the endpoints armed (after headroom).
    pub cutoff_ns: u64,
    /// The watchdog deadline the run was bounded by.
    pub deadline: SimTime,
    /// The harvested flight recorder (`Some` iff the fabric config
    /// carried a `TraceSpec`).
    pub trace: Option<TraceSink>,
}

impl CollectiveOutcome {
    /// Per-rank receive throughput in Gbit/s for ranks that actually
    /// receive data (Broadcast roots are excluded, as in Fig. 11's
    /// "measurements only on leaf ranks").
    pub fn per_rank_recv_gbps(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (i, t) in self.timings.iter().enumerate() {
            let bytes = self.plan.expected_psn_bytes(Rank(i as u32));
            let ns = t.total_ns();
            if bytes == 0 || ns == 0 {
                continue;
            }
            out.push(bytes as f64 * 8.0 / ns as f64);
        }
        out
    }

    /// Mean receive throughput (Gbit/s) over receiving ranks.
    pub fn mean_recv_gbps(&self) -> f64 {
        let v = self.per_rank_recv_gbps();
        if v.is_empty() {
            return 0.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Coefficient of variation of per-rank throughput — the paper's
    /// "performance variability" observation (Section VI-B(c)).
    pub fn recv_gbps_cv(&self) -> f64 {
        let v = self.per_rank_recv_gbps();
        if v.len() < 2 {
            return 0.0;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        var.sqrt() / mean
    }

    /// Wall time of the whole collective (last rank release).
    pub fn completion_ns(&self) -> u64 {
        self.timings.iter().map(|t| t.total_ns()).max().unwrap_or(0)
    }

    /// Mean phase breakdown across ranks: `(sync, datapath, final)` in ns.
    pub fn mean_breakdown_ns(&self) -> (f64, f64, f64) {
        let n = self.timings.len().max(1) as f64;
        let s: u64 = self.timings.iter().map(|t| t.sync_ns()).sum();
        let d: u64 = self.timings.iter().map(|t| t.datapath_ns()).sum();
        let f: u64 = self.timings.iter().map(|t| t.final_sync_ns()).sum();
        (s as f64 / n, d as f64 / n, f as f64 / n)
    }

    /// Total chunks recovered via the slow path, across ranks.
    pub fn total_fetched(&self) -> u64 {
        self.timings.iter().map(|t| t.fetched_chunks).sum()
    }

    /// True when the run did not complete within its watchdog deadline —
    /// the clean-timeout outcome of a fault the protocol cannot recover
    /// from (e.g. a link that never comes back).
    pub fn timed_out(&self) -> bool {
        !self.stats.all_done()
    }

    /// Completion time with timeouts censored at the watchdog deadline —
    /// the value tail-latency sweeps aggregate, so a timed-out seed
    /// contributes the (known, deterministic) bound it burned rather
    /// than a misleading partial timing.
    pub fn censored_completion_ns(&self) -> u64 {
        if self.timed_out() {
            self.deadline.as_ns()
        } else {
            self.completion_ns()
        }
    }
}

impl CollectivePlan {
    /// Bytes rank `r` must receive over the network (its own block, if it
    /// broadcasts one, is already local).
    pub fn expected_psn_bytes(&self, r: Rank) -> u64 {
        match self.root_index(r) {
            Some(_) => (self.recv_len() - self.send_len()) as u64,
            None => self.recv_len() as u64,
        }
    }
}

/// Cutoff slack per schedule step: chains hand off activation signals
/// `R` times, and each handoff adds latency.
const CUTOFF_PER_STEP_NS: u64 = 10_000;

/// Reliability cutoff timer for `plan` on `topo` (Section III-C): the
/// ideal drain time of the receive buffer at the host link rate scaled by
/// `headroom` (collectives sharing the NIC stretch the drain
/// proportionally), plus the configured fixed slack and
/// `CUTOFF_PER_STEP_NS` per schedule step for activation handoffs.
pub fn cutoff_ns(
    topo: &Topology,
    plan: &CollectivePlan,
    proto: &ProtocolConfig,
    headroom: u64,
) -> u64 {
    let host_link = *topo.link(topo.uplinks(topo.host_node(Rank(0)))[0]);
    let drain_ns = host_link
        .rate
        .serialization_ns(plan.recv_len())
        .saturating_mul(headroom.max(1));
    let steps = plan.sequencer().num_steps() as u64;
    drain_ns + proto.cutoff_alpha_ns + CUTOFF_PER_STEP_NS * steps
}

/// Run one multicast collective on `topo` (owned, or an `Arc` shared
/// across runs) with default [`RunBounds`].
pub fn run_collective(
    topo: impl Into<Arc<Topology>>,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    kind: CollectiveKind,
    send_len: usize,
) -> CollectiveOutcome {
    run_collective_bounded(
        topo,
        fabric_cfg,
        proto,
        kind,
        send_len,
        RunBounds::default(),
    )
}

/// Run one multicast collective on `topo` under explicit recovery
/// bounds. Under fault injection (`FabricConfig::faults`) this is the
/// driver of record: the cutoff headroom stretches how long endpoints
/// tolerate holes before fetching over the recovery ring, and the
/// watchdog converts an unrecoverable fabric into a clean timeout
/// ([`CollectiveOutcome::timed_out`]) instead of a panic.
pub fn run_collective_bounded(
    topo: impl Into<Arc<Topology>>,
    fabric_cfg: FabricConfig,
    proto: ProtocolConfig,
    kind: CollectiveKind,
    send_len: usize,
    bounds: RunBounds,
) -> CollectiveOutcome {
    let topo: Arc<Topology> = topo.into();
    let plan = Arc::new(CollectivePlan::new(
        kind,
        topo.num_hosts() as u32,
        send_len,
        proto.mtu,
        proto.imm,
        CollectiveId(1),
        proto.subgroups,
        proto.chains,
    ));
    let comm = Comm {
        plan: Arc::clone(&plan),
        rs_in_switch: None,
    };
    // Cutoff timer: ideal drain time of the receive buffer at the host
    // link rate, scaled by the recovery headroom, plus slack
    // (Section III-C). `all_done()` stays false if the watchdog trips.
    let out = multicomm::run(topo, fabric_cfg, &proto, &[comm], bounds);
    CollectiveOutcome {
        plan,
        timings: out.slots.iter().map(|slot| slot.ag.timing()).collect(),
        stats: out.stats,
        rnr_drops: out.traffic.total_rnr_drops(),
        fabric_drops: out.traffic.total_drops(),
        traffic: out.traffic,
        cutoff_ns: out.cutoffs[0],
        deadline: out.deadline,
        trace: out.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_simnet::DropModel;
    use mcag_verbs::LinkRate;

    fn star(n: usize) -> Topology {
        Topology::single_switch(n, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn broadcast_completes_on_star() {
        let out = run_collective(
            star(8),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Broadcast { root: Rank(0) },
            64 << 10,
        );
        assert!(out.stats.all_done(), "{:?}", out.stats);
        assert_eq!(out.rnr_drops, 0);
        assert_eq!(out.fabric_drops, 0);
        assert_eq!(out.total_fetched(), 0, "no recovery on lossless fabric");
        assert_eq!(out.per_rank_recv_gbps().len(), 7, "root excluded");
    }

    #[test]
    fn allgather_completes_on_star() {
        let out = run_collective(
            star(6),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            32 << 10,
        );
        assert!(out.stats.all_done());
        assert_eq!(out.per_rank_recv_gbps().len(), 6);
        // Every rank's datapath phase saw (P-1) * N inbound bytes.
        for t in &out.timings {
            assert!(t.t_complete.is_some());
            assert!(t.t_done.is_some());
        }
    }

    #[test]
    fn allgather_bandwidth_optimal_traffic() {
        // Each root's 64 KiB buffer crosses each link at most once:
        // max per-link data bytes == P * N only on host downlinks
        // (each host receives all blocks), and no link carries more.
        let n: usize = 64 << 10;
        let p = 6usize;
        let out = run_collective(
            star(p),
            FabricConfig::ideal(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            n,
        );
        assert!(out.stats.all_done());
        let per_link_max = out.traffic.max_link_data_bytes();
        assert!(
            per_link_max <= (p as u64) * n as u64,
            "a link carried {per_link_max} > P*N"
        );
        // Total payload movement: each block crosses its root's uplink
        // once and each of the (P-1) other hosts' downlinks once.
        let expect = (p as u64) * (n as u64) // uplinks
            + (p as u64) * (p as u64 - 1) * n as u64; // downlinks
        assert_eq!(out.traffic.total_data_bytes(), expect);
    }

    #[test]
    fn allgather_with_chains_and_subgroups() {
        let out = run_collective(
            star(8),
            FabricConfig::ucc_default(),
            ProtocolConfig::parallel(2, 4),
            CollectiveKind::Allgather,
            64 << 10,
        );
        assert!(out.stats.all_done());
        assert_eq!(out.total_fetched(), 0);
    }

    #[test]
    fn recovery_after_forced_drops() {
        let mut cfg = FabricConfig::ucc_default();
        // Drop chunk psn 3 of root 0 at rank 2, and psn 5 of root 1 at rank 3.
        cfg.drops.forced.insert((0, 3, 2));
        let out = run_collective(
            star(4),
            cfg,
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            32 << 10,
        );
        assert!(out.stats.all_done(), "recovery failed: {:?}", out.stats);
        assert!(out.total_fetched() >= 1, "dropped chunk was not fetched");
        assert_eq!(out.timings[2].recovery_rounds, 1);
    }

    #[test]
    fn recovery_under_random_drops() {
        let mut cfg = FabricConfig::ucc_default();
        cfg.drops = DropModel::uniform(0.01); // brutal 1% per-hop loss
        cfg.seed = 99;
        let out = run_collective(
            star(5),
            cfg,
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            64 << 10,
        );
        assert!(out.stats.all_done(), "recovery failed: {:?}", out.stats);
        assert!(out.fabric_drops > 0, "seed produced no drops");
        assert!(out.total_fetched() > 0);
    }

    #[test]
    fn recovery_completes_under_a_flapping_downlink() {
        use mcag_simnet::topology::LinkId;
        use mcag_simnet::{LinkSchedule, LinkStateEvent};
        // Switch->rank2 delivery link (star layout: 2*r + 1) down over
        // the whole multicast phase: rank 2's datagrams are lost at the
        // egress, the cutoff fires, and the unicast ring fetches the
        // holes once the port recovers.
        let window_end = 60_000u64;
        let mut cfg = FabricConfig::ucc_default();
        cfg.faults = LinkSchedule::new(vec![
            LinkStateEvent::down(5_000, LinkId(5)),
            LinkStateEvent::up(window_end, LinkId(5)),
        ]);
        let out = run_collective(
            star(4),
            cfg,
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            32 << 10,
        );
        assert!(out.stats.all_done(), "recovery failed: {:?}", out.stats);
        assert!(!out.timed_out());
        assert!(out.traffic.total_fault_drops() > 0, "no datagram was lost");
        assert!(out.total_fetched() > 0, "holes were not fetched");
        assert!(
            out.completion_ns() > window_end,
            "cannot complete before the port recovers"
        );
        assert_eq!(out.censored_completion_ns(), out.completion_ns());
        assert!(out.traffic.link(LinkId(5)).downtime_ns == window_end - 5_000);
    }

    #[test]
    fn unrecoverable_outage_times_out_cleanly() {
        use mcag_simnet::topology::LinkId;
        use mcag_simnet::{LinkSchedule, LinkStateEvent};
        // Rank 3's delivery link never comes back: even the recovery
        // ring cannot reach it, and the run must end as a clean timeout
        // at the watchdog deadline — no panic, no event-cap grind.
        let mut cfg = FabricConfig::ucc_default();
        cfg.faults = LinkSchedule::new(vec![LinkStateEvent::down(0, LinkId(7))]);
        let bounds = RunBounds {
            cutoff_headroom: 1,
            watchdog_cutoffs: 4,
        };
        let out = run_collective_bounded(
            star(4),
            cfg,
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            16 << 10,
            bounds,
        );
        assert!(out.timed_out());
        assert_eq!(out.censored_completion_ns(), out.deadline.as_ns());
        assert_eq!(out.deadline.as_ns(), out.cutoff_ns * 4);
        // Even reliable traffic toward the dead port is lost (the link
        // never recovers), which is what wedges the whole collective:
        // the dissemination barrier cannot reach rank 3.
        assert!(out.traffic.total_fault_drops() > 0);
        assert!(out.stats.per_rank_done.iter().flatten().count() == 0);
    }

    #[test]
    fn cutoff_headroom_stretches_recovery() {
        // A forced drop with growing cutoff headroom: the fetch fires
        // later, so completion time grows monotonically — the fault
        // sweep's "recovery cutoff" axis in miniature.
        let run = |headroom: u64| {
            let mut cfg = FabricConfig::ucc_default();
            cfg.drops.forced.insert((0, 3, 2));
            run_collective_bounded(
                star(4),
                cfg,
                ProtocolConfig::default(),
                CollectiveKind::Allgather,
                32 << 10,
                RunBounds {
                    cutoff_headroom: headroom,
                    watchdog_cutoffs: WATCHDOG_CUTOFFS,
                },
            )
        };
        let tight = run(1);
        let loose = run(8);
        assert!(tight.stats.all_done() && loose.stats.all_done());
        assert!(loose.cutoff_ns > tight.cutoff_ns);
        assert!(
            loose.completion_ns() > tight.completion_ns(),
            "headroom 8 should recover later: {} vs {}",
            loose.completion_ns(),
            tight.completion_ns()
        );
    }

    #[test]
    fn phase_breakdown_small_vs_large_messages() {
        // Fig. 10's shape: sync dominates tiny messages, the datapath
        // dominates large ones.
        let small = run_collective(
            star(8),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            4 << 10,
        );
        let large = run_collective(
            star(8),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            2 << 20,
        );
        let (s_sync, s_dp, _) = small.mean_breakdown_ns();
        let (l_sync, l_dp, _) = large.mean_breakdown_ns();
        let small_dp_frac = s_dp / (s_sync + s_dp);
        let large_dp_frac = l_dp / (l_sync + l_dp);
        assert!(
            large_dp_frac > small_dp_frac,
            "datapath fraction should grow with message size: {small_dp_frac} vs {large_dp_frac}"
        );
        assert!(
            large_dp_frac > 0.95,
            "8-rank 2 MiB should be datapath-bound"
        );
    }
}
