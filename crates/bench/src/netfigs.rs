//! Fabric-scale figures on the simulated 188-node UCC testbed:
//! Fig. 10 (critical-path breakdown), Fig. 11 (throughput at scale),
//! Fig. 12 (switch-counter traffic savings), Appendix B (measured
//! concurrent {AG, RS} speedup).
//!
//! Every sweep here is embarrassingly parallel — one self-contained
//! simulation per parameter point — and fans out through
//! [`mcag_exec::par_map`]: pass `jobs > 1` to use several cores, with
//! tables byte-identical to the serial run (slot-ordered outputs,
//! per-sim seeds).

use crate::data::{human_bytes, FigData};
use mcag_baselines::{
    binary_tree_broadcast, knomial_broadcast, pipelined_chain_broadcast, ring_allgather,
    ring_reduce_scatter, run_p2p, run_p2p_concurrent, scatter_allgather_broadcast,
};
use mcag_core::{des, run_concurrent_ag_rs, CollectiveKind, ProtocolConfig};
use mcag_exec::{par_map, par_map_ordered};
use mcag_simnet::{FabricConfig, Topology};
use mcag_verbs::{LinkRate, Mtu, Rank};

/// Coarsen the simulated chunk size for large buffers so event counts
/// stay tractable: target ≤ ~192 chunks per root buffer. Timing stays
/// faithful because large-message collectives are bandwidth-dominated;
/// per-CQE costs matter at small sizes, where the true 4 KiB MTU is used.
pub fn sim_mtu_for(n: usize) -> Mtu {
    let mut m = 4096usize;
    while n / m > 192 && m < (256 << 10) {
        m *= 2;
    }
    Mtu::new(m)
}

/// Segmentation for unicast baselines with the same ≤~192 segment target.
pub fn seg_for(n: usize) -> usize {
    sim_mtu_for(n).bytes()
}

fn mcast_proto(n: usize) -> ProtocolConfig {
    ProtocolConfig {
        mtu: sim_mtu_for(n),
        ..ProtocolConfig::default()
    }
}

/// A scaled-down UCC-style topology for rank sweeps.
fn scaled_topo(p: usize) -> Topology {
    if p <= 16 {
        Topology::single_switch(p, LinkRate::CX3_56G, 300)
    } else {
        let leaves = p.div_ceil(16);
        let spines = (leaves / 2).max(1);
        Topology::fat_tree_two_level(p, leaves, spines, 3, LinkRate::CX3_56G, 300)
    }
}

/// Fig. 10: where the Allgather critical path goes as scale and message
/// size grow. `jobs` bounds the concurrent simulations.
pub fn fig10(jobs: usize) -> FigData {
    let mut f = FigData::new(
        "fig10",
        "Allgather critical-path breakdown (mean across ranks)",
        &[
            "ranks",
            "message",
            "RNR sync",
            "mcast datapath",
            "final sync",
        ],
    );
    let mut cells = Vec::new();
    for p in [4usize, 16, 64, 188] {
        for n in [16usize << 10, 256 << 10, 4 << 20] {
            cells.push((p, n));
        }
    }
    // Cost skews hard toward the big corner (188 ranks x 4 MiB), so
    // claim largest-first: event count grows with ranks x chunks.
    let rows = par_map_ordered(
        jobs,
        &cells,
        |_, &(p, n)| (p as u64) * (n / sim_mtu_for(n).bytes()).max(1) as u64,
        |&(p, n)| {
            let out = des::run_collective(
                scaled_topo(p),
                FabricConfig::ucc_default(),
                mcast_proto(n),
                CollectiveKind::Allgather,
                n,
            );
            assert!(out.stats.all_done(), "p={p} n={n}");
            let (s, d, fin) = out.mean_breakdown_ns();
            let tot = (s + d + fin).max(1.0);
            vec![
                p.to_string(),
                human_bytes(n as u64),
                format!("{:.1}%", 100.0 * s / tot),
                format!("{:.1}%", 100.0 * d / tot),
                format!("{:.1}%", 100.0 * fin / tot),
            ]
        },
    );
    for row in rows {
        f.row(row);
    }
    f.note("paper: from 16 nodes upward, 99% of progress-path time is the non-blocking multicast datapath for large messages");
    f
}

/// Fig. 11: per-process receive throughput at the full 188-node scale.
/// Each `(message size, algorithm)` cell is an independent simulation,
/// fanned out over `jobs` workers.
pub fn fig11(jobs: usize) -> FigData {
    let mut f = FigData::new(
        "fig11",
        "188-node per-rank receive throughput (Gbit/s), mean [CV]",
        &[
            "message",
            "bcast mcast",
            "bcast chain(pipe)",
            "bcast scatter-AG",
            "bcast 4-nomial",
            "bcast binary-tree",
            "AG mcast",
            "AG ring",
        ],
    );
    let p = 188u32;
    let root = Rank(0);
    /// One simulation cell of the Fig. 11 grid.
    #[derive(Clone, Copy)]
    enum Algo {
        McastBcast,
        ChainPipe,
        ScatterAg,
        Knomial,
        BinaryTree,
        McastAg,
        Ring,
    }
    const ALGOS: [Algo; 7] = [
        Algo::McastBcast,
        Algo::ChainPipe,
        Algo::ScatterAg,
        Algo::Knomial,
        Algo::BinaryTree,
        Algo::McastAg,
        Algo::Ring,
    ];
    impl Algo {
        /// Relative cost per byte, for largest-first claim order: the
        /// P2P schedules simulate every unicast segment (the pipelined
        /// chain at ~n/512 segments is the worst), the ring moves
        /// (p-1)x the data, multicast sends each chunk once.
        fn weight_factor(self) -> u64 {
            match self {
                Algo::ChainPipe => 8,
                Algo::Ring => 6,
                Algo::ScatterAg => 4,
                Algo::Knomial | Algo::BinaryTree => 2,
                Algo::McastBcast | Algo::McastAg => 1,
            }
        }
    }
    let sizes = [16usize << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let mut cells = Vec::new();
    for &n in &sizes {
        for a in ALGOS {
            cells.push((n, a));
        }
    }
    let rendered = par_map_ordered(
        jobs,
        &cells,
        |_, &(n, algo)| n as u64 * algo.weight_factor(),
        |&(n, algo)| {
            let seg = seg_for(n);
            let cfg = FabricConfig::ucc_default();
            let bcast_gbps = |o: &mcag_baselines::P2POutcome| {
                let v = o.recv_gbps(0, |r| if r == root { 0 } else { n as u64 });
                v.iter().sum::<f64>() / v.len() as f64
            };
            match algo {
                Algo::McastBcast => {
                    let bc = des::run_collective(
                        Topology::ucc_testbed(),
                        cfg,
                        mcast_proto(n),
                        CollectiveKind::Broadcast { root },
                        n,
                    );
                    assert!(bc.stats.all_done());
                    format!("{:.1} [{:.2}]", bc.mean_recv_gbps(), bc.recv_gbps_cv())
                }
                Algo::McastAg => {
                    let ag = des::run_collective(
                        Topology::ucc_testbed(),
                        cfg,
                        mcast_proto(n),
                        CollectiveKind::Allgather,
                        n,
                    );
                    assert!(ag.stats.all_done());
                    format!("{:.1} [{:.2}]", ag.mean_recv_gbps(), ag.recv_gbps_cv())
                }
                Algo::ChainPipe => {
                    // Deep chains need fine segments or the pipeline-fill
                    // latency (depth x segment time) dominates — as in real
                    // NCCL rings.
                    let chain_seg = (n / 512).clamp(4096, 16 << 10);
                    let chain = run_p2p(
                        Topology::ucc_testbed(),
                        cfg,
                        pipelined_chain_broadcast(p, root, n, chain_seg),
                        chain_seg,
                    );
                    format!("{:.1}", bcast_gbps(&chain))
                }
                Algo::ScatterAg => {
                    let sag = run_p2p(
                        Topology::ucc_testbed(),
                        cfg,
                        scatter_allgather_broadcast(p, root, n),
                        seg,
                    );
                    format!("{:.1}", bcast_gbps(&sag))
                }
                Algo::Knomial => {
                    let knom = run_p2p(
                        Topology::ucc_testbed(),
                        cfg,
                        knomial_broadcast(p, root, n, 4),
                        seg,
                    );
                    format!("{:.1}", bcast_gbps(&knom))
                }
                Algo::BinaryTree => {
                    let btree = run_p2p(
                        Topology::ucc_testbed(),
                        cfg,
                        binary_tree_broadcast(p, root, n),
                        seg,
                    );
                    format!("{:.1}", bcast_gbps(&btree))
                }
                Algo::Ring => {
                    let ring = run_p2p(Topology::ucc_testbed(), cfg, ring_allgather(p, n), seg);
                    let v = ring.recv_gbps(0, |_| (n as u64) * (p as u64 - 1));
                    format!("{:.1}", v.iter().sum::<f64>() / v.len() as f64)
                }
            }
        },
    );
    for (i, &n) in sizes.iter().enumerate() {
        let mut row = vec![human_bytes(n as u64)];
        row.extend(
            rendered[i * ALGOS.len()..(i + 1) * ALGOS.len()]
                .iter()
                .cloned(),
        );
        f.row(row);
    }
    f.note("paper: mcast Broadcast beats the best P2P scheme by up to 1.3x (our pipelined-chain/scatter-AG baselines bracket UCC's bandwidth-optimized bcast) and binary tree by up to 4.75x");
    f.note("paper: mcast Allgather matches ring at 128-256 KiB (both receive-bound); mcast shows much lower variability (CV)");
    f
}

/// Fig. 12: switch port counters across the 18 switches, 64 KiB messages,
/// summed over 10 iterations. The fabric draws no randomness, so every
/// iteration of a series is the same run: each series is simulated once,
/// fanned out over `jobs` workers, and its counters scaled by `iters`.
pub fn fig12(jobs: usize) -> FigData {
    let mut f = FigData::new(
        "fig12",
        "Traffic across all 18 switches (port RX+TX counters; 64 KiB, 10 iterations)",
        &[
            "collective",
            "algorithm",
            "switch-port bytes",
            "savings vs P2P",
        ],
    );
    let p = 188u32;
    let n = 64usize << 10;
    let iters = 10u64;
    let root = Rank(0);
    let seg = seg_for(n);

    #[derive(Clone, Copy)]
    enum Series {
        McastBcast,
        McastAg,
        P2pBcast,
        P2pAg,
    }
    let sims = [
        Series::McastBcast,
        Series::McastAg,
        Series::P2pBcast,
        Series::P2pAg,
    ];
    let bytes = par_map(jobs, &sims, |&series| {
        let cfg = FabricConfig::ucc_default();
        assert!(!cfg.uses_rng(), "iterations would differ by seed");
        let topo = Topology::ucc_testbed();
        let one = match series {
            Series::McastBcast => des::run_collective(
                topo,
                cfg,
                mcast_proto(n),
                CollectiveKind::Broadcast { root },
                n,
            )
            .traffic
            .switch_port_rxtx_bytes(&Topology::ucc_testbed()),
            Series::McastAg => {
                des::run_collective(topo, cfg, mcast_proto(n), CollectiveKind::Allgather, n)
                    .traffic
                    .switch_port_rxtx_bytes(&Topology::ucc_testbed())
            }
            Series::P2pBcast => run_p2p(topo, cfg, knomial_broadcast(p, root, n, 4), seg)
                .traffic
                .switch_port_rxtx_bytes(&Topology::ucc_testbed()),
            Series::P2pAg => run_p2p(topo, cfg, ring_allgather(p, n), seg)
                .traffic
                .switch_port_rxtx_bytes(&Topology::ucc_testbed()),
        };
        one * iters
    });
    let (bc_mc, ag_mc, bc_p2p, ag_p2p) = (bytes[0], bytes[1], bytes[2], bytes[3]);

    f.row(vec![
        "Broadcast".into(),
        "mcast (ours)".into(),
        human_bytes(bc_mc),
        format!("{:.2}x", bc_p2p as f64 / bc_mc as f64),
    ]);
    f.row(vec![
        "Broadcast".into(),
        "4-nomial (P2P)".into(),
        human_bytes(bc_p2p),
        "1.00x".into(),
    ]);
    f.row(vec![
        "Allgather".into(),
        "mcast (ours)".into(),
        human_bytes(ag_mc),
        format!("{:.2}x", ag_p2p as f64 / ag_mc as f64),
    ]);
    f.row(vec![
        "Allgather".into(),
        "ring (P2P)".into(),
        human_bytes(ag_p2p),
        "1.00x".into(),
    ]);
    f.note("paper: 1.5x-2x reduction in data movement measured from switch port counters");
    f
}

/// Appendix B: measured speedup of `{AG_mc, RS_inc}` over
/// `{AG_ring, RS_ring}` against the model `S = 2 − 2/P`, one job per
/// rank count.
pub fn appb(jobs: usize) -> FigData {
    let mut f = FigData::new(
        "appb",
        "Concurrent {Allgather, Reduce-Scatter}: measured vs modeled speedup (N = 256 KiB)",
        &[
            "ranks",
            "ring+ring (us)",
            "mcast+INC (us)",
            "speedup",
            "model 2-2/P",
        ],
    );
    let n = 256usize << 10;
    let ps = [4u32, 8, 16, 32];
    let rows = par_map(jobs, &ps, |&p| {
        let topo = || Topology::single_switch(p as usize, LinkRate::CX3_56G, 100);
        let ring = run_p2p_concurrent(
            topo(),
            FabricConfig::ideal(),
            vec![ring_allgather(p, n), ring_reduce_scatter(p, n)],
            seg_for(n),
        );
        assert!(ring.stats.all_done());
        let t_ring = ring.flow_completion_ns(0).max(ring.flow_completion_ns(1));
        let opt = run_concurrent_ag_rs(
            topo(),
            FabricConfig::ideal(),
            ProtocolConfig {
                chains: p,
                mtu: sim_mtu_for(n),
                ..ProtocolConfig::default()
            },
            n,
        );
        assert!(opt.stats.all_done());
        let t_opt = opt.pair_completion_ns();
        vec![
            p.to_string(),
            format!("{:.1}", t_ring as f64 / 1e3),
            format!("{:.1}", t_opt as f64 / 1e3),
            format!("{:.2}", t_ring as f64 / t_opt as f64),
            format!("{:.2}", 2.0 - 2.0 / p as f64),
        ]
    });
    for row in rows {
        f.row(row);
    }
    f.note("the reduction itself happens inside the simulated switches (SHARP-style); both pairs share NIC round-robin arbitration and links");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_mtu_targets_chunk_budget() {
        assert_eq!(sim_mtu_for(64 << 10).bytes(), 4096);
        assert_eq!(sim_mtu_for(1 << 20).bytes(), 8192);
        assert!(sim_mtu_for(64 << 20).bytes() <= 256 << 10);
        for n in [4 << 10, 1 << 20, 8 << 20] {
            let m = sim_mtu_for(n);
            assert!(n / m.bytes() <= 192, "{n}");
        }
    }

    #[test]
    fn fig10_small_scale_smoke() {
        // Full fig10 runs in the binary; smoke-test one cell here.
        let out = des::run_collective(
            scaled_topo(8),
            FabricConfig::ucc_default(),
            mcast_proto(64 << 10),
            CollectiveKind::Allgather,
            64 << 10,
        );
        assert!(out.stats.all_done());
    }

    #[test]
    fn appb_speedup_grows_with_p() {
        let f = appb(2);
        let speedups: Vec<f64> = f
            .rows
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .collect();
        assert!(
            speedups.windows(2).all(|w| w[1] >= w[0] - 0.08),
            "speedup not growing: {speedups:?}"
        );
        let last = *speedups.last().unwrap();
        assert!(last > 1.4, "32-rank speedup only {last}");
    }
}
