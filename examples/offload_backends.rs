//! In-network compute backend tour: the same collectives on the same
//! fabric, with the receive-side compute placed on four different
//! devices — BlueField-3 DPA, a host-CPU progress thread, an FPGA
//! SmartNIC, and SHARP-style in-switch reduction.
//!
//! ```text
//! cargo run --release --example offload_backends
//! ```

use mcast_allgather::core::{
    des, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, CollectiveKind, ProtocolConfig,
};
use mcast_allgather::models::{algbw_gbps, busbw_gbps, CollectiveOp};
use mcast_allgather::offload::{ArrivalModel, BackendKind, DatapathTransport};
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::LinkRate;

fn main() {
    // Device level: each backend's receive datapath on one context,
    // 4 KiB chunks, saturated arrivals — the Table-I measurement, now
    // answerable for any backend kind.
    println!("single-context datapath (4 KiB chunks, saturated arrivals):");
    println!(
        "  {:<14} {:<13} {:>9} {:>9} {:>10} {:>9}",
        "backend", "placement", "UC GiB/s", "UD GiB/s", "setup (us)", "contexts"
    );
    for kind in BackendKind::ALL {
        let dp = |t| kind.datapath(t, 1, 4096, 20_000, ArrivalModel::Saturated);
        let uc = dp(DatapathTransport::Uc);
        let ud = dp(DatapathTransport::Ud);
        println!(
            "  {:<14} {:<13} {:>9.1} {:>9.1} {:>10.1} {:>9}",
            kind.label(),
            kind.placement().label(),
            uc.gib_per_s,
            ud.gib_per_s,
            kind.setup_ns() as f64 / 1e3,
            kind.limits().contexts
        );
    }

    // Fabric level: compile each backend into the per-CQE endpoint
    // cost the DES fabric charges (learning where it reduces a
    // Reduce-Scatter), and run a 16-rank Allgather.
    let topo = || Topology::single_switch(16, LinkRate::CX3_56G, 100);
    let p: u32 = 16;
    let n: usize = 64 << 10;
    let fabric_for = |kind: BackendKind| {
        let mut cfg = FabricConfig::ucc_default();
        let rs_in_switch = kind.compile(&mut cfg, ProtocolConfig::default().mtu.bytes());
        (cfg, rs_in_switch)
    };
    println!("\n64 KiB Allgather, 16 ranks on one 56G switch:");
    for kind in BackendKind::ALL {
        let out = des::run_collective(
            topo(),
            fabric_for(kind).0,
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            n,
        );
        assert!(out.stats.all_done());
        let gathered = n as u64 * p as u64;
        let alg = algbw_gbps(gathered, out.completion_ns());
        println!(
            "  {:<14} {:>8.1} us   algbw {:>5.1} Gbit/s {}",
            kind.label(),
            out.completion_ns() as f64 / 1e3,
            alg,
            "#".repeat(alg as usize / 2)
        );
    }

    // Where placement really bites: the concurrent {AG_mc, RS} pair.
    // Endpoint backends reduce at the shard owners (every operand
    // crosses the wire); the SHARP backend folds partial aggregates in
    // the switches, so less payload moves and busbw jumps.
    println!("\n16 KiB AG+RS pair (AllReduce decomposition), same fabric:");
    let n: usize = 16 << 10;
    for kind in BackendKind::ALL {
        let proto = ProtocolConfig {
            chains: p,
            ..ProtocolConfig::default()
        };
        let (fabric, rs_in_switch) = fabric_for(kind);
        let out = if rs_in_switch {
            run_concurrent_ag_rs(topo(), fabric, proto, n)
        } else {
            run_concurrent_ag_rs_endpoint(topo(), fabric, proto, n)
        };
        assert!(out.stats.all_done());
        let bytes = n as u64 * p as u64;
        let ns = out.pair_completion_ns();
        println!(
            "  {:<14} {:>8.1} us   busbw {:>5.1} Gbit/s   wire {:>5.1} MiB ({})",
            kind.label(),
            ns as f64 / 1e3,
            busbw_gbps(CollectiveOp::AllReduce, p, bytes, ns),
            out.traffic.total_data_bytes() as f64 / (1 << 20) as f64,
            if rs_in_switch {
                "reduced in-switch"
            } else {
                "reduced at endpoints"
            }
        );
    }
    println!(
        "\nfull sweep up to 512 ranks: cargo run --release -p mcag-bench --bin figures backendfigs"
    );
}
