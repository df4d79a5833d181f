//! Backend study: **the in-network compute design space** — the same
//! collectives on the same fabrics, with the receive-side compute
//! placed on four different devices, reported as NCCL-convention
//! algorithmic and bus bandwidth so rows are comparable to
//! real-cluster `nccl-tests` numbers.
//!
//! Each cell is a backend × collective × scale triple. The backend
//! ([`mcag_offload::BackendKind`]) compiles into the per-CQE endpoint
//! cost model the DES fabric charges (`FabricConfig.host`) plus, for
//! the in-switch backend, the bounded aggregation-table capacity
//! (`FabricConfig.inc_table_capacity`). Broadcast and Allgather run
//! the paper's multicast protocol end to end; the AG+RS pair runs the
//! concurrent `{AG_mc, RS}` workload, with the Reduce-Scatter's
//! operands converging **in the switches** for the SHARP backend
//! ([`mcag_core::run_concurrent_ag_rs`]) and **on the endpoints** for
//! every NIC-resident backend
//! ([`mcag_core::run_concurrent_ag_rs_endpoint`]) — the wire-traffic
//! asymmetry that gives in-switch reduction its bus-bandwidth edge.
//!
//! The sweep runs twice, `jobs = 1` then `jobs = 4`, through
//! [`study::sweep`], which **asserts the two passes' digests
//! byte-identical**. Two more gates hold before the JSON is rendered:
//! the DPA backend's Table-I datapath metrics must be **bit-for-bit
//! identical** to `mcag_dpa::run_datapath` called directly (the
//! backend adds no cost of its own), and the SHARP backend must show a
//! **bus-bandwidth advantage** for AG+RS at the largest swept scale. All
//! digest quantities are simulated-time integers, so the full study's
//! `BENCH_backends.json` baseline reproduces byte-identically on any
//! host; `backendfigs_smoke` is the bounded CI variant.

use crate::data::{human_bytes, FigData};
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::{
    des, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, CollectiveKind, ProtocolConfig,
};
use mcag_dpa::{run_datapath, ArrivalModel, DpaSpec, Kernel, KernelKind};
use mcag_exec::par_map;
use mcag_models::{algbw_gbps, busbw_gbps, CollectiveOp};
use mcag_offload::{BackendKind, DatapathTransport};
use mcag_simnet::{FabricConfig, Topology};
use mcag_verbs::{LinkRate, Rank};

/// Chunk count of the Table-I-style datapath section (the paper's
/// steady-state measurement length, matching `dpafigs`).
pub const DATAPATH_CHUNKS: u64 = 40_000;

/// The collectives the study sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepCollective {
    /// One root's buffer to every rank (multicast protocol).
    Broadcast,
    /// Every rank's buffer to every rank (multicast protocol).
    Allgather,
    /// Concurrent `{AG_mc, RS}`: in-switch RS for the SHARP backend,
    /// endpoint RS for NIC-resident backends.
    AgRs,
}

impl SweepCollective {
    /// All collectives, sweep order.
    pub const ALL: [SweepCollective; 3] = [
        SweepCollective::Broadcast,
        SweepCollective::Allgather,
        SweepCollective::AgRs,
    ];

    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            SweepCollective::Broadcast => "broadcast",
            SweepCollective::Allgather => "allgather",
            SweepCollective::AgRs => "ag_rs",
        }
    }

    /// NCCL bus-bandwidth shape: the concurrent `{AG, RS}` pair is the
    /// AllReduce decomposition, so it carries the AllReduce factor.
    pub fn op(self) -> CollectiveOp {
        match self {
            SweepCollective::Broadcast => CollectiveOp::Broadcast,
            SweepCollective::Allgather => CollectiveOp::Allgather,
            SweepCollective::AgRs => CollectiveOp::AllReduce,
        }
    }
}

/// The fabric scales the study sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepScale {
    /// 16 ranks on one switch, ConnectX-3 56G (the small testbed shape).
    Star16,
    /// 128 ranks, two-level leaf/spine at NDR 400G.
    FatTree128,
    /// 512 ranks, three-level fat-tree at NDR 400G (the
    /// `BENCH_simcore.json` scale scenario).
    FatTree512,
}

impl SweepScale {
    /// All scales, sweep order.
    pub const ALL: [SweepScale; 3] = [
        SweepScale::Star16,
        SweepScale::FatTree128,
        SweepScale::FatTree512,
    ];

    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            SweepScale::Star16 => "star_16",
            SweepScale::FatTree128 => "fat_tree_128",
            SweepScale::FatTree512 => "fat_tree_512",
        }
    }

    /// Build the fabric.
    pub fn topology(self) -> Topology {
        match self {
            SweepScale::Star16 => Topology::single_switch(16, LinkRate::CX3_56G, 100),
            SweepScale::FatTree128 => {
                Topology::fat_tree_two_level(128, 8, 4, 2, LinkRate::NDR_400G, 300)
            }
            SweepScale::FatTree512 => Topology::fat_tree_512(LinkRate::NDR_400G),
        }
    }

    /// Per-rank send length for `coll` (16 KiB throughout in smoke
    /// mode). Event counts scale with ranks × chunks, so the per-rank
    /// buffer shrinks as the fabric grows (the AG+RS pair additionally
    /// multiplies by `P−1` operand shards on the endpoint path).
    pub fn send_len(self, coll: SweepCollective, smoke: bool) -> usize {
        if smoke {
            return 16 << 10;
        }
        match (self, coll) {
            (SweepScale::Star16, _) => 256 << 10,
            (SweepScale::FatTree128, _) => 64 << 10,
            (SweepScale::FatTree512, SweepCollective::AgRs) => 16 << 10,
            (SweepScale::FatTree512, _) => 64 << 10,
        }
    }
}

/// One simulation of the sweep.
#[derive(Debug, Clone, Copy)]
struct BackendCell {
    /// Which compute device the receive path runs on.
    pub backend: BackendKind,
    /// Which collective.
    pub coll: SweepCollective,
    /// Which fabric.
    pub scale: SweepScale,
    /// Per-rank send length (bytes).
    pub send_len: usize,
}

/// Everything about one cell that must be identical across worker
/// counts — simulated-time integers only; bandwidths are derived at
/// render time from these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDigest {
    /// Ranks in the collective.
    pub ranks: u32,
    /// Completion time on the virtual clock (ns).
    pub completion_ns: u64,
    /// Collective data size for algbw (NCCL convention: the root
    /// buffer for Broadcast, the gathered `N·P` buffer for Allgather,
    /// the reduced `N·P` vector for the AG+RS pair).
    pub data_bytes: u64,
    /// Payload bytes that crossed fabric links (all copies).
    pub wire_bytes: u64,
    /// DES engine events consumed.
    pub events: u64,
}

/// Run one cell to its digest: compile the backend into the fabric's
/// endpoint cost model (and aggregation-table bound, if in-switch),
/// then run the collective end to end.
fn run_cell(cell: &BackendCell) -> CellDigest {
    let topo = cell.scale.topology();
    let p = topo.num_hosts() as u32;
    let n = cell.send_len;
    let mtu = sim_mtu_for(n);
    let mut cfg = FabricConfig::ucc_default();
    let rs_in_switch = cell.backend.compile(&mut cfg, mtu.bytes());
    let proto = ProtocolConfig {
        mtu,
        ..ProtocolConfig::default()
    };
    let gathered = n as u64 * p as u64;
    let (completion_ns, data_bytes, stats, traffic) = match cell.coll {
        SweepCollective::AgRs => {
            // Fully parallel chains (every root multicasts its own
            // subgroup), the Appendix-B configuration of the pair.
            let proto = ProtocolConfig { chains: p, ..proto };
            let out = if rs_in_switch {
                run_concurrent_ag_rs(topo, cfg, proto, n)
            } else {
                run_concurrent_ag_rs_endpoint(topo, cfg, proto, n)
            };
            (out.pair_completion_ns(), gathered, out.stats, out.traffic)
        }
        coll => {
            let (kind, data_bytes) = if coll == SweepCollective::Broadcast {
                (CollectiveKind::Broadcast { root: Rank(0) }, n as u64)
            } else {
                (CollectiveKind::Allgather, gathered)
            };
            let out = des::run_collective(topo, cfg, proto, kind, n);
            (out.completion_ns(), data_bytes, out.stats, out.traffic)
        }
    };
    assert!(
        stats.all_done(),
        "{} {} {} did not complete",
        cell.backend.label(),
        cell.coll.label(),
        cell.scale.label()
    );
    CellDigest {
        ranks: p,
        completion_ns,
        data_bytes,
        wire_bytes: traffic.total_data_bytes(),
        events: stats.events,
    }
}

/// The smoke or full sweep grid, backend-major then collective then
/// scale (the table's row order). Smoke skips the 512-rank fabric.
fn sweep_cells(smoke: bool) -> Vec<BackendCell> {
    let scales: &[SweepScale] = if smoke {
        &[SweepScale::Star16, SweepScale::FatTree128]
    } else {
        &SweepScale::ALL
    };
    let mut cells = Vec::new();
    for backend in BackendKind::ALL {
        for coll in SweepCollective::ALL {
            for &scale in scales {
                cells.push(BackendCell {
                    backend,
                    coll,
                    scale,
                    send_len: scale.send_len(coll, smoke),
                });
            }
        }
    }
    cells
}

/// Run the smoke or full grid at `jobs` workers and return slot-ordered
/// digests (the golden determinism test drives this directly).
pub fn sweep_digests(smoke: bool, jobs: usize) -> Vec<CellDigest> {
    par_map(jobs, &sweep_cells(smoke), run_cell)
}

/// One Table-I-style datapath row per backend and transport: single
/// context, 4 KiB chunks, saturated arrivals — the device-level half of
/// the cost model, independent of any fabric.
fn datapath_rows() -> Vec<Obj> {
    let mut rows = Vec::new();
    for backend in BackendKind::ALL {
        for transport in [DatapathTransport::Uc, DatapathTransport::Ud] {
            let m = backend.datapath(transport, 1, 4096, DATAPATH_CHUNKS, ArrivalModel::Saturated);
            rows.push(
                Obj::new()
                    .str("backend", backend.label())
                    .str("transport", &format!("{transport:?}"))
                    .str("placement", backend.placement().label())
                    .float("gib_per_s", m.gib_per_s, 3)
                    .float("ns_per_cqe", m.wall_ns / m.chunks as f64, 3)
                    .int(
                        "rx_proc_ns_per_cqe",
                        backend.host_model(4096).rx_proc_ns_per_cqe,
                    )
                    .int("setup_ns", backend.setup_ns())
                    .int("contexts", backend.limits().contexts.into()),
            );
        }
    }
    rows
}

/// The backend contract: the DPA backend's datapath must be
/// bit-for-bit `mcag_dpa::run_datapath` at the Table-I operating point
/// (single thread, 4 KiB chunks, saturated).
fn dpa_table1_identical() -> bool {
    let spec = DpaSpec::bf3();
    [
        (DatapathTransport::Uc, KernelKind::DpaUc),
        (DatapathTransport::Ud, KernelKind::DpaUd),
    ]
    .into_iter()
    .all(|(transport, kind)| {
        let via_backend = BackendKind::DpaBf3.datapath(
            transport,
            1,
            4096,
            DATAPATH_CHUNKS,
            ArrivalModel::Saturated,
        );
        let direct = run_datapath(
            &spec,
            &Kernel::new(kind),
            1,
            4096,
            DATAPATH_CHUNKS,
            ArrivalModel::Saturated,
        );
        via_backend == direct
    })
}

/// The backend study: 4 backends × 3 collectives × 3 scales up to the
/// 512-rank fat-tree (the recorded baseline), or (smoke) the two smaller
/// fabrics at 16 KiB.
pub fn backendfigs(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let cells = sweep_cells(smoke);
    let sweep = study::sweep(study::PASSES, &cells, |_| 0, run_cell);
    let digests = &sweep.digests;

    // NCCL-convention (algbw, busbw) of every cell, Gbit/s.
    let bw: Vec<(f64, f64)> = cells
        .iter()
        .zip(digests)
        .map(|(c, d)| {
            let busbw = busbw_gbps(c.coll.op(), d.ranks, d.data_bytes, d.completion_ns);
            (algbw_gbps(d.data_bytes, d.completion_ns), busbw)
        })
        .collect();
    // The SHARP gate: in-switch reduction must out-busbw every endpoint
    // backend for AG+RS at the largest swept scale.
    let top = cells.last().expect("non-empty grid").scale;
    let top_agrs: Vec<(BackendKind, f64)> = cells
        .iter()
        .zip(&bw)
        .filter(|(c, _)| c.coll == SweepCollective::AgRs && c.scale == top)
        .map(|(c, &(_, busbw))| (c.backend, busbw))
        .collect();
    let is_sharp = |b: BackendKind| b == BackendKind::SharpSwitch;
    let (_, sharp) = *top_agrs
        .iter()
        .find(|(b, _)| is_sharp(*b))
        .expect("SHARP swept");
    let sharp_wins = top_agrs
        .iter()
        .all(|&(b, busbw)| is_sharp(b) || sharp > busbw);

    let mut f = FigData::new(
        "backendfigs",
        "In-network compute backends: algorithmic/bus bandwidth by backend, collective, and scale",
        &[
            "backend",
            "collective",
            "scale",
            "ranks",
            "size",
            "time (us)",
            "algbw (Gbit/s)",
            "busbw (Gbit/s)",
            "wire bytes",
        ],
    );
    for ((c, d), (algbw, busbw)) in cells.iter().zip(digests).zip(&bw) {
        f.row(vec![
            c.backend.label().to_string(),
            c.coll.label().to_string(),
            c.scale.label().to_string(),
            d.ranks.to_string(),
            human_bytes(c.send_len as u64),
            format!("{:.1}", d.completion_ns as f64 / 1e3),
            format!("{algbw:.1}"),
            format!("{busbw:.1}"),
            human_bytes(d.wire_bytes),
        ]);
    }
    f.note(format!(
        "mode={mode}; NCCL conventions — algbw = collective size / time, busbw = algbw × factor \
         (Broadcast 1, AG (P−1)/P, AG+RS pair 2(P−1)/P as the AllReduce decomposition)",
    ));
    f.note(
        "each backend compiles into the per-CQE endpoint cost model the fabric charges; the \
         SHARP backend additionally reduces in the switches (bounded aggregation table), so its \
         AG+RS pair moves less wire data than any endpoint-reduction backend",
    );
    f.note(
        "gates asserted before writing: DPA backend bit-identical to run_datapath called directly \
         at the Table-I point; SHARP AG+RS busbw beats every endpoint backend at the largest \
         scale; jobs=1 and jobs=4 digests byte-identical",
    );
    sweep.note_passes(&mut f);

    // Every digest quantity is a simulated-time integer and every float
    // a pure function of them, so the file is byte-identical across hosts
    // and repeated runs — CI diffs two smoke passes to enforce it.
    let doc = Obj::new()
        .str("generator", "figures backendfigs")
        .str("mode", mode)
        .str(
            "interpretation",
            "one row per (backend, collective, scale) cell; the backend compiles into the \
             endpoint per-CQE cost model (and, in-switch only, the bounded aggregation table) of \
             an otherwise identical fabric. algbw/busbw follow nccl-tests conventions; ag_rs runs \
             the concurrent {AG_mc, RS} pair with in-switch reduction for sharp_switch and \
             endpoint reduction for NIC-resident backends. Each cell ran at jobs=1 and jobs=4 and \
             the digests were asserted byte-identical before this file was written.",
        )
        .gate("results_identical", sweep.cross_checked())
        .gate("dpa_table1_identical", dpa_table1_identical())
        .gate("sharp_agrs_busbw_advantage", sharp_wins)
        .rows("datapath", datapath_rows())
        .rows(
            "cells",
            cells
                .iter()
                .zip(digests)
                .zip(&bw)
                .map(|((c, d), &(algbw, busbw))| {
                    Obj::new()
                        .str("backend", c.backend.label())
                        .str("collective", c.coll.label())
                        .str("scale", c.scale.label())
                        .int("ranks", d.ranks.into())
                        .int("send_len", c.send_len as u64)
                        .int("completion_ns", d.completion_ns)
                        .int("data_bytes", d.data_bytes)
                        .int("wire_bytes", d.wire_bytes)
                        .int("events", d.events)
                        .float("algbw_gbps", algbw, 3)
                        .float("busbw_gbps", busbw, 3)
                }),
        );
    study::attach(&mut f, "backends", smoke, &doc);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_every_backend_collective_pair() {
        for smoke in [false, true] {
            let cells = sweep_cells(smoke);
            for backend in BackendKind::ALL {
                for coll in SweepCollective::ALL {
                    assert!(
                        cells.iter().any(|c| c.backend == backend && c.coll == coll),
                        "smoke={smoke} grid misses {} × {}",
                        backend.label(),
                        coll.label()
                    );
                }
            }
        }
        let full = sweep_cells(false);
        assert_eq!(full.len(), 4 * 3 * 3);
        assert!(full
            .iter()
            .any(|c| c.scale == SweepScale::FatTree512 && c.coll == SweepCollective::AgRs));
        assert!(sweep_cells(true).len() < full.len());
    }

    #[test]
    fn dpa_backend_is_bit_identical_to_run_datapath() {
        assert!(dpa_table1_identical());
    }

    #[test]
    fn single_cell_is_deterministic_and_backend_sensitive() {
        let mk = |backend| BackendCell {
            backend,
            coll: SweepCollective::Allgather,
            scale: SweepScale::Star16,
            send_len: 16 << 10,
        };
        let dpa = run_cell(&mk(BackendKind::DpaBf3));
        assert_eq!(dpa, run_cell(&mk(BackendKind::DpaBf3)));
        let cpu = run_cell(&mk(BackendKind::HostCpu));
        assert!(
            dpa.completion_ns < cpu.completion_ns,
            "DPA offload must finish the same Allgather before the host-CPU baseline: {} vs {}",
            dpa.completion_ns,
            cpu.completion_ns
        );
    }

    #[test]
    fn sharp_agrs_reduces_wire_traffic_vs_endpoint() {
        let mk = |backend| BackendCell {
            backend,
            coll: SweepCollective::AgRs,
            scale: SweepScale::Star16,
            send_len: 16 << 10,
        };
        let sharp = run_cell(&mk(BackendKind::SharpSwitch));
        let fpga = run_cell(&mk(BackendKind::FpgaSmartNic));
        assert!(
            sharp.wire_bytes < fpga.wire_bytes,
            "in-switch reduction must move less payload: {} vs {}",
            sharp.wire_bytes,
            fpga.wire_bytes
        );
        assert!(sharp.completion_ns < fpga.completion_ns);
    }
}
