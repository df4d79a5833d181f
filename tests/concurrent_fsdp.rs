//! The FSDP contention scenario: concurrent {Allgather, Reduce-Scatter}
//! pairs, the in-network reduction substrate, and Appendix B's speedup.

use mcast_allgather::baselines::{ring_allgather, ring_reduce_scatter, run_p2p_concurrent};
use mcast_allgather::core::des::{self, RunBounds, WATCHDOG_CUTOFFS};
use mcast_allgather::core::{
    run_collective, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, run_concurrent_allgathers,
    CollectiveKind, ProtocolConfig,
};
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::models::concurrent_speedup;
use mcast_allgather::simnet::{FabricConfig, Topology};
use mcast_allgather::verbs::{LinkRate, Mtu, Rank};

mod common;

fn star(p: u32) -> Topology {
    Topology::single_switch(p as usize, LinkRate::CX3_56G, 100)
}

/// `text` with the digits after every `key` replaced by `with`, or with
/// the key dropped along with them when `with` is `None`.
fn rewrite_numbers(text: &str, key: &str, with: Option<&str>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        out.push_str(&rest[..at]);
        if let Some(with) = with {
            out.push_str(key);
            out.push_str(with);
        }
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// FNV-1a of `format!("{out:?}")` with every `wall_ns: <digits>` (host
/// wall-clock time in `RunStats` and `TrafficReport`) pinned to 0, so
/// the digest covers simulated results only, and without the outcome's
/// `live_packets` field, which the recorded digests predate and
/// [`assert_completed_clean`] checks on its own.
fn sim_digest(out: &impl std::fmt::Debug) -> u64 {
    let text = rewrite_numbers(&format!("{out:?}"), "wall_ns: ", Some("0"));
    common::fnv64(&rewrite_numbers(&text, ", live_packets: ", None))
}

/// A driver run completed and left no packet behind in the fabric —
/// none on a link, queued to send, or awaiting its completion.
fn assert_completed_clean(what: &str, done: bool, live_packets: usize) {
    assert!(done, "{what}: the run did not complete");
    assert_eq!(live_packets, 0, "{what}: packets left in the fabric");
}

/// Topology × fabric × protocol: the fifteen cells each driver digest
/// covers, in the order of the digest tables below. The last three run
/// two RX workers per rank with two subgroups per communicator, so they
/// pin which worker each subgroup QP is pinned to.
fn digest_cells() -> Vec<(Topology, FabricConfig, ProtocolConfig)> {
    let fat_tree = Topology::fat_tree_two_level(32, 4, 2, 2, LinkRate::NDR_400G, 300);
    let topos = [star(4), star(7), fat_tree];
    let mut cells = Vec::new();
    for topo in &topos {
        for fabric in [FabricConfig::ucc_default(), FabricConfig::ideal()] {
            for proto in [ProtocolConfig::default(), ProtocolConfig::parallel(2, 2)] {
                cells.push((topo.clone(), fabric.clone(), proto));
            }
        }
    }
    let mut two_workers = FabricConfig::ucc_default();
    two_workers.host.rx_workers = 2;
    for topo in topos {
        cells.push((topo, two_workers.clone(), ProtocolConfig::parallel(2, 2)));
    }
    cells
}

/// [`sim_digest`]s per cell of [`digest_cells`]: the in-switch pair, the
/// endpoint pair (both 24 KiB) and three concurrent 16 KiB Allgathers.
/// The first twelve of each table were recorded at the commit before the
/// Reduce-Scatter apps and rank muxes were merged, the two-worker cells
/// at the commit before the communicator layout became one routine.
const PAIR_IN_SWITCH_DIGESTS: [u64; 15] = [
    0xc8ceb40ca0676ab4,
    0x9fbd5cc324c39008,
    0xe427acd67b255273,
    0x8c17141387b6459a,
    0x4bc0c90767a61d13,
    0x0f8a4dab5e0e0bed,
    0x3bbddb3ed1f0dff3,
    0xf5a2716d31c94b36,
    0x8fe8fa5f3f08612c,
    0xd26b9b2db77b43d7,
    0x948b0e3e5046d90f,
    0xa4406d45f11a513f,
    0x20f097d1588d32a6,
    0xf44bf72fd03d4d07,
    0x3cc6e3bed1ade750,
];
const PAIR_ENDPOINT_DIGESTS: [u64; 15] = [
    0x02551680cd2ac118,
    0x20636fa812ad4a66,
    0x3683ae15e2c857ca,
    0x1a103c288f0b8a50,
    0xd958675eb8d52de3,
    0x3955428723c09dae,
    0xeafb10fe7a4e975e,
    0x96600c6a35b9860b,
    0x562fdfbcd99dc7d5,
    0x3176971e66f2dac7,
    0x86b04fa16b222885,
    0x0371381a144cddce,
    0xbd3174be5492967a,
    0x517a6204a0f0d249,
    0xf79efbb091a02dac,
];
const ALLGATHERS_K3_DIGESTS: [u64; 15] = [
    0x902a7faad962dd90,
    0xfeed7d061de6ce95,
    0x1422d83924f1daaa,
    0x6a682e1f6eb1e0e0,
    0xb91f31a65678de43,
    0x81d798a69c201015,
    0xfce5c797f7830949,
    0x52e347d2e7df5830,
    0x66717dd3a135772b,
    0xebfcb59fff23039f,
    0xf0c4d78fa035c658,
    0x2d9b9f134dc43e80,
    0x9c99fc1a89c54f4d,
    0x6dc019f0b634e78f,
    0x8505837c90e6df7a,
];

#[test]
fn drivers_reproduce_their_recorded_bytes() {
    let mut pairs = [[0u64; 15]; 3];
    for (i, (topo, fabric, proto)) in digest_cells().into_iter().enumerate() {
        let in_switch = run_concurrent_ag_rs(topo.clone(), fabric.clone(), proto, 24 << 10);
        let endpoint = run_concurrent_ag_rs_endpoint(topo.clone(), fabric.clone(), proto, 24 << 10);
        let k3 = run_concurrent_allgathers(topo, fabric, proto, 16 << 10, 3);
        for (what, done, live) in [
            (
                "in-switch pair",
                in_switch.stats.all_done(),
                in_switch.live_packets,
            ),
            (
                "endpoint pair",
                endpoint.stats.all_done(),
                endpoint.live_packets,
            ),
            ("three Allgathers", k3.stats.all_done(), k3.live_packets),
        ] {
            assert_completed_clean(&format!("{what}, cell {i}"), done, live);
        }
        pairs[0][i] = sim_digest(&in_switch);
        pairs[1][i] = sim_digest(&endpoint);
        pairs[2][i] = sim_digest(&k3);
    }
    assert_eq!(
        pairs,
        [
            PAIR_IN_SWITCH_DIGESTS,
            PAIR_ENDPOINT_DIGESTS,
            ALLGATHERS_K3_DIGESTS
        ],
        "a driver's simulated output moved"
    );
}

#[test]
fn degenerate_sizes_complete_on_every_driver() {
    // Empty, one-byte and not-a-multiple-of-the-MTU sends on the smallest
    // stars, through every driver that lays out multicast communicators.
    let (fabric, proto) = (FabricConfig::ucc_default(), ProtocolConfig::default());
    for p in [2, 4] {
        for n in [0, 1, 5_000] {
            let cell = format!("{n} B on star({p})");
            for kind in [
                CollectiveKind::Allgather,
                CollectiveKind::Broadcast { root: Rank(0) },
            ] {
                let out = run_collective(star(p), fabric.clone(), proto, kind, n);
                assert!(out.stats.all_done(), "{kind:?}, {cell}: incomplete");
            }
            let in_switch = run_concurrent_ag_rs(star(p), fabric.clone(), proto, n);
            let endpoint = run_concurrent_ag_rs_endpoint(star(p), fabric.clone(), proto, n);
            let k3 = run_concurrent_allgathers(star(p), fabric.clone(), proto, n, 3);
            for (what, done, live) in [
                (
                    "in-switch pair",
                    in_switch.stats.all_done(),
                    in_switch.live_packets,
                ),
                (
                    "endpoint pair",
                    endpoint.stats.all_done(),
                    endpoint.live_packets,
                ),
                ("three Allgathers", k3.stats.all_done(), k3.live_packets),
            ] {
                assert_completed_clean(&format!("{what}, {cell}"), done, live);
            }
        }
    }
}

/// An 8-host fat tree whose one failed switch never comes back within
/// any sane horizon: no driver can complete on it.
fn dead_switch_cell() -> (Topology, FabricConfig) {
    let topo = Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100);
    let mut cfg = FabricConfig::ucc_default();
    cfg.faults = FaultPlan::new(0)
        .with(FaultModel::SwitchFailure {
            switches: 1,
            start_ns: 20_000,
            downtime_ns: u64::MAX / 4,
        })
        .compile(&topo);
    (topo, cfg)
}

#[test]
fn every_driver_censors_at_its_watchdog() {
    // The pair's and the k-Allgather driver's cutoffs carry headroom 3
    // (504,697 ns here); the watchdog grants WATCHDOG_CUTOFFS of them
    // per communicator. A run still pending then is censored, and its
    // end time stays within the deadline instead of waiting out the
    // outage.
    const PAIR_CUTOFF_NS: u64 = 504_697;
    let (topo, cfg) = dead_switch_cell();
    let proto = ProtocolConfig::default();
    let n = 64 << 10;
    let single = des::run_collective_bounded(
        topo.clone(),
        cfg.clone(),
        proto,
        CollectiveKind::Allgather,
        n,
        RunBounds::default(),
    );
    assert!(single.timed_out(), "the single Allgather completed");
    let pair = run_concurrent_ag_rs(topo.clone(), cfg.clone(), proto, n);
    assert!(!pair.stats.all_done(), "the pair completed");
    assert!(pair.stats.end_time.as_ns() <= WATCHDOG_CUTOFFS * PAIR_CUTOFF_NS);
    let k2 = run_concurrent_allgathers(topo, cfg, proto, n, 2);
    assert!(!k2.stats.all_done(), "two Allgathers completed");
    assert!(k2.stats.end_time.as_ns() <= WATCHDOG_CUTOFFS * 2 * PAIR_CUTOFF_NS);
}

/// The Reduce-Scatter's own `(host injection, host delivery, all-link
/// payload)` bytes on an ideal fabric: the pair's minus the same
/// Allgather run alone. Neither run fetches, so the Allgather moves the
/// same bytes in both.
fn rs_bytes(topo: &Topology, n: usize, in_switch: bool) -> (u64, u64, u64) {
    let (cfg, proto) = (FabricConfig::ideal(), ProtocolConfig::default());
    let ag = run_collective(
        topo.clone(),
        cfg.clone(),
        proto,
        CollectiveKind::Allgather,
        n,
    );
    let pair = if in_switch {
        run_concurrent_ag_rs(topo.clone(), cfg, proto, n)
    } else {
        run_concurrent_ag_rs_endpoint(topo.clone(), cfg, proto, n)
    };
    assert!(ag.stats.all_done(), "the Allgather alone did not complete");
    assert_completed_clean("pair", pair.stats.all_done(), pair.live_packets);
    assert_eq!(ag.total_fetched(), 0, "the Allgather alone fetched");
    let pair_fetched: u64 = pair.ag_timings.iter().map(|t| t.fetched_chunks).sum();
    assert_eq!(pair_fetched, 0, "the pair's Allgather fetched");
    let [pair, ag] = [&pair.traffic, &ag.traffic].map(|t| {
        let (inj, del) = (t.host_injection_bytes(topo), t.host_delivery_bytes(topo));
        (inj, del, t.total_data_bytes())
    });
    (pair.0 - ag.0, pair.1 - ag.1, pair.2 - ag.2)
}

#[test]
fn inc_reduce_scatter_delivers_every_shard() {
    let out = run_concurrent_ag_rs(
        star(8),
        FabricConfig::ucc_default(),
        ProtocolConfig::default(),
        128 << 10,
    );
    assert_completed_clean("in-switch pair", out.stats.all_done(), out.live_packets);
    assert_eq!(out.rs_times.iter().flatten().count(), 8);
}

#[test]
fn inc_rs_send_bound_recv_light() {
    // Insight 2: the Reduce-Scatter injects N(P-1) per rank in either
    // placement, but in-switch each rank receives only its reduced shard
    // (N), where the endpoints receive all P-1 operand streams.
    let n: u64 = 64 << 10;
    let p = 6u64;
    let topo = star(p as u32);
    let (inj, del, _) = rs_bytes(&topo, n as usize, true);
    assert_eq!(
        inj,
        p * n * (p - 1),
        "each rank contributes all foreign shards"
    );
    assert_eq!(del, p * n, "each rank receives exactly its reduced shard");
    let (inj, del, _) = rs_bytes(&topo, n as usize, false);
    assert_eq!(inj, p * n * (p - 1), "the endpoints inject the same shards");
    assert_eq!(
        del,
        p * n * (p - 1),
        "each owner receives P-1 operand streams"
    );
}

#[test]
fn inc_reduction_happens_in_the_switch() {
    // On a star, P-1 contributions per shard enter the switch but only
    // ONE reduced copy leaves it: inter-switch + delivery traffic stays
    // N per rank however many peers contribute.
    for p in [3u64, 6, 10] {
        let n: u64 = 32 << 10;
        let (_, del, _) = rs_bytes(&star(p as u32), n as usize, true);
        assert_eq!(del, p * n, "P = {p}");
    }
}

#[test]
fn appendix_b_speedup_tracks_model() {
    let n = 256usize << 10;
    for p in [4u32, 8, 16] {
        let ring = run_p2p_concurrent(
            star(p),
            FabricConfig::ideal(),
            vec![ring_allgather(p, n), ring_reduce_scatter(p, n)],
            32 << 10,
        );
        assert!(ring.stats.all_done());
        let t_ring = ring.flow_completion_ns(0).max(ring.flow_completion_ns(1));
        let opt = run_concurrent_ag_rs(
            star(p),
            FabricConfig::ideal(),
            ProtocolConfig {
                chains: p,
                mtu: Mtu::new(16 << 10),
                ..ProtocolConfig::default()
            },
            n,
        );
        assert_completed_clean("optimal pair", opt.stats.all_done(), opt.live_packets);
        let s = t_ring as f64 / opt.pair_completion_ns() as f64;
        let model = concurrent_speedup(p);
        assert!(
            (s - model).abs() / model < 0.25,
            "P={p}: measured {s:.2} vs model {model:.2}"
        );
    }
}

#[test]
fn concurrent_pair_on_fat_tree() {
    // Not just stars: the pair must also complete on the multi-switch
    // testbed shape (reduction trees spanning leaf and spine levels).
    let topo = Topology::fat_tree_two_level(24, 3, 2, 2, LinkRate::CX3_56G, 300);
    let out = run_concurrent_ag_rs(
        topo,
        FabricConfig::ucc_default(),
        ProtocolConfig {
            chains: 4,
            mtu: Mtu::new(8 << 10),
            ..ProtocolConfig::default()
        },
        128 << 10,
    );
    assert_completed_clean("fat-tree pair", out.stats.all_done(), out.live_packets);
}

#[test]
fn optimal_pair_strictly_beats_ring_pair() {
    let n = 512usize << 10;
    let p = 12u32;
    let ring = run_p2p_concurrent(
        star(p),
        FabricConfig::ideal(),
        vec![ring_allgather(p, n), ring_reduce_scatter(p, n)],
        64 << 10,
    );
    let t_ring = ring.flow_completion_ns(0).max(ring.flow_completion_ns(1));
    let opt = run_concurrent_ag_rs(
        star(p),
        FabricConfig::ideal(),
        ProtocolConfig {
            chains: p,
            mtu: Mtu::new(32 << 10),
            ..ProtocolConfig::default()
        },
        n,
    );
    assert_completed_clean("optimal pair", opt.stats.all_done(), opt.live_packets);
    assert!(
        opt.pair_completion_ns() < t_ring,
        "optimal pair must win outright"
    );
}
