//! Fabric and host datapath configuration.

use crate::event::QueueBackend;
use crate::linkstate::LinkSchedule;
use mcag_trace::TraceSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Cost model of the endpoint datapath (NIC DMA + progress-engine CPU).
///
/// The latency constants default to the breakdown in Fig. 6 of the paper:
/// ~170 ns for the NIC to surface a CQE, ~600 ns of progress-thread work
/// per CQE, with the staging-to-user copy overlapped by the non-blocking
/// DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// CPU cost to build + post one send work request (doorbell batching
    /// amortizes this in the real stack; we charge the amortized cost).
    pub tx_post_overhead_ns: u64,
    /// NIC DMA latency from wire arrival to CQE visibility (step 2, Fig. 6).
    pub rx_cqe_dma_ns: u64,
    /// Progress-worker CPU time consumed per receive CQE: poll, PSN
    /// decode, bitmap update, staging-copy issue, receive re-post
    /// (step 3-4, Fig. 6).
    pub rx_proc_ns_per_cqe: u64,
    /// Number of receive-path worker threads per rank; QPs are pinned to
    /// workers (packet parallelism, Section IV-C).
    pub rx_workers: usize,
    /// Receive queue depth per QP (BlueField-3 maximum is 8192); packets
    /// arriving with no free slot are RNR-dropped.
    pub rq_depth: usize,
}

impl HostModel {
    /// UCC testbed host: 2.2 GHz Xeon, single-threaded UCX-style progress.
    pub fn ucc_host() -> HostModel {
        HostModel {
            tx_post_overhead_ns: 150,
            rx_cqe_dma_ns: 170,
            rx_proc_ns_per_cqe: 350,
            rx_workers: 1,
            rq_depth: 8192,
        }
    }

    /// An idealized infinitely-fast host, for isolating pure network
    /// behaviour (traffic accounting, schedule shape).
    pub fn ideal() -> HostModel {
        HostModel {
            tx_post_overhead_ns: 0,
            rx_cqe_dma_ns: 0,
            rx_proc_ns_per_cqe: 0,
            rx_workers: 1,
            rq_depth: usize::MAX / 2,
        }
    }
}

/// Unreliability model: where and how packets disappear.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropModel {
    /// Probability that a droppable packet copy is corrupted on any single
    /// link traversal. Real fabrics sit at ~1e-12 (Ethernet) to 1e-15
    /// (InfiniBand) bit error rates (paper footnote 2); tests crank this up.
    pub fabric_drop_prob: f64,
    /// Forced drops for failure injection: `(origin rank, PSN, dst rank)`
    /// multicast chunks silently vanish at the destination NIC.
    pub forced: HashSet<(u32, u32, u32)>,
}

impl DropModel {
    /// Lossless fabric.
    pub fn none() -> DropModel {
        DropModel {
            fabric_drop_prob: 0.0,
            forced: HashSet::new(),
        }
    }

    /// Uniform per-traversal drop probability.
    pub fn uniform(p: f64) -> DropModel {
        assert!((0.0..=1.0).contains(&p));
        DropModel {
            fabric_drop_prob: p,
            forced: HashSet::new(),
        }
    }
}

/// Complete fabric configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Endpoint datapath model.
    pub host: HostModel,
    /// Loss model.
    pub drops: DropModel,
    /// If true, up-link selection is randomized per packet (adaptive
    /// routing) — packets of one flow may arrive out of order, exercising
    /// the staging-based OOO tolerance of the receive path.
    pub adaptive_routing: bool,
    /// RNG seed for drops and adaptive routing; it changes nothing
    /// unless [`uses_rng`](FabricConfig::uses_rng).
    pub seed: u64,
    /// Switch multicast-group-table capacity: creating more groups than
    /// this panics, modeling the bounded MGID table a subnet manager
    /// programs (the scarce resource `mcag-runtime`'s pool arbitrates).
    /// `None` leaves the table unbounded.
    pub mcast_table_capacity: Option<usize>,
    /// Per-switch in-network-reduction aggregation-table capacity:
    /// live `(group, psn)` reduction states one switch may hold at
    /// once. Exceeding it panics, modeling the bounded SHARP
    /// aggregation SRAM the same way `mcast_table_capacity` models
    /// the MGID table (`mcag-offload`'s in-switch backend sets this).
    /// `None` (the default everywhere) leaves the table unbounded and
    /// skips the accounting branch.
    pub inc_table_capacity: Option<usize>,
    /// Event-queue engine: the timer wheel (default) or the reference
    /// binary heap. Both produce identical results; the heap exists as a
    /// determinism oracle and perf baseline (`BENCH_simcore.json`).
    pub event_queue: QueueBackend,
    /// Scheduled link-state transitions (down windows, flaps, bandwidth
    /// degradation), replayed as ordinary queue events. Usually the
    /// compiled form of a `mcag-faults` `FaultPlan`; empty means a
    /// healthy fabric and adds no per-packet work.
    pub faults: LinkSchedule,
    /// Flight-recorder spec: `Some` allocates a bounded `TraceSink` ring
    /// that records packet lifecycle, link busy intervals, fault
    /// transitions, and sampled queue depth on the simulated clock.
    /// `None` (the default) costs one branch per would-be record.
    pub trace: Option<TraceSpec>,
}

impl FabricConfig {
    /// Configuration mirroring the 188-node UCC testbed runs.
    pub fn ucc_default() -> FabricConfig {
        FabricConfig {
            host: HostModel::ucc_host(),
            drops: DropModel::none(),
            adaptive_routing: false,
            seed: 0x5eed,
            mcast_table_capacity: None,
            inc_table_capacity: None,
            event_queue: QueueBackend::default(),
            faults: LinkSchedule::empty(),
            trace: None,
        }
    }

    /// Idealized hosts on a lossless fabric (pure network behaviour).
    pub fn ideal() -> FabricConfig {
        FabricConfig {
            host: HostModel::ideal(),
            ..FabricConfig::ucc_default()
        }
    }

    /// Whether a fabric built from this configuration ever draws from
    /// its RNG, i.e. whether [`seed`](FabricConfig::seed) can change a
    /// result. `fabric.rs` has two draw sites: `unicast_path` picks a
    /// random up/down-link per packet under
    /// [`adaptive_routing`](FabricConfig::adaptive_routing), and the
    /// per-traversal corruption check in the link accounting draws when
    /// [`drops`](FabricConfig::drops)`.fabric_drop_prob > 0`. Forced
    /// drops, fault schedules and deterministic routing never draw. A
    /// new draw site must be listed here: `mcag-runtime` replays the
    /// outcome of a recurring batch only while this is false.
    pub fn uses_rng(&self) -> bool {
        self.adaptive_routing || self.drops.fabric_drop_prob > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = FabricConfig::ucc_default();
        assert_eq!(c.host.rx_workers, 1);
        assert_eq!(c.host.rq_depth, 8192);
        assert_eq!(c.drops.fabric_drop_prob, 0.0);
        assert!(!c.adaptive_routing);
    }

    #[test]
    fn only_adaptive_routing_and_random_drops_use_the_rng() {
        let mut c = FabricConfig::ucc_default();
        assert!(!c.uses_rng());
        c.drops.forced.insert((0, 0, 1));
        c.seed = 7;
        assert!(
            !c.uses_rng(),
            "forced drops and the seed itself draw nothing"
        );
        c.adaptive_routing = true;
        assert!(c.uses_rng());
        c.adaptive_routing = false;
        c.drops = DropModel::uniform(1e-3);
        assert!(c.uses_rng());
    }

    #[test]
    #[should_panic]
    fn drop_probability_validated() {
        DropModel::uniform(1.5);
    }
}
