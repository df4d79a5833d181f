//! Determinism equivalence of the timer-wheel event engine against the
//! reference binary-heap engine, plus golden values pinning the 188-node
//! Allgather so any engine change that perturbs `(time, seq)` pop order
//! fails loudly.

use mcast_allgather::core::{des, CollectiveKind, CollectiveOutcome, ProtocolConfig};
use mcast_allgather::simnet::{FabricConfig, QueueBackend, Topology};
use mcast_allgather::verbs::{LinkRate, Rank};

/// Golden values for the 188-node UCC-testbed Allgather at 64 KiB with
/// default protocol knobs. Regenerate by printing `out.completion_ns()`,
/// `out.stats.events`, and `out.traffic.total_data_bytes()` after an
/// intentional model change.
const GOLDEN_COMPLETION_NS: u64 = 2_247_862;
const GOLDEN_EVENTS: u64 = 1_176_718;
const GOLDEN_DATA_BYTES: u64 = 2_464_153_600;

fn run_188(backend: QueueBackend) -> CollectiveOutcome {
    let mut cfg = FabricConfig::ucc_default();
    cfg.event_queue = backend;
    des::run_collective(
        Topology::ucc_testbed(),
        cfg,
        ProtocolConfig::default(),
        CollectiveKind::Allgather,
        64 << 10,
    )
}

#[test]
fn golden_188node_allgather_identical_across_engines() {
    let wheel = run_188(QueueBackend::Wheel);
    let heap = run_188(QueueBackend::Heap);
    assert!(wheel.stats.all_done() && heap.stats.all_done());

    // Engine equivalence: completion times, per-rank times, event counts,
    // and every per-link counter must match bit for bit.
    assert_eq!(wheel.completion_ns(), heap.completion_ns());
    assert_eq!(wheel.stats.end_time, heap.stats.end_time);
    assert_eq!(wheel.stats.per_rank_done, heap.stats.per_rank_done);
    assert_eq!(wheel.stats.events, heap.stats.events);
    assert_eq!(wheel.stats.peak_queue_depth, heap.stats.peak_queue_depth);
    assert_eq!(wheel.traffic.per_link(), heap.traffic.per_link());
    assert_eq!(wheel.rnr_drops, heap.rnr_drops);
    assert_eq!(wheel.fabric_drops, heap.fabric_drops);

    // Golden pins: the wheel engine reproduces the pre-overhaul numbers.
    assert_eq!(wheel.completion_ns(), GOLDEN_COMPLETION_NS);
    assert_eq!(wheel.stats.events, GOLDEN_EVENTS);
    assert_eq!(wheel.traffic.total_data_bytes(), GOLDEN_DATA_BYTES);
}

#[test]
fn engines_agree_across_kinds_and_scales() {
    // Smaller sweeps covering Broadcast, subgroup parallelism, and a
    // lossy run (seeded drops + recovery) — cheap enough for every CI
    // run, unlike the 188-node golden test above.
    let scenarios: Vec<(&str, FabricConfig, ProtocolConfig, CollectiveKind, usize)> = vec![
        (
            "bcast-16",
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Broadcast { root: Rank(3) },
            128 << 10,
        ),
        (
            "ag-parallel",
            FabricConfig::ucc_default(),
            ProtocolConfig::parallel(2, 4),
            CollectiveKind::Allgather,
            64 << 10,
        ),
        (
            "ag-lossy",
            {
                let mut cfg = FabricConfig::ucc_default();
                cfg.drops = mcast_allgather::simnet::DropModel::uniform(0.005);
                cfg.seed = 7;
                cfg
            },
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            32 << 10,
        ),
    ];
    for (name, cfg, proto, kind, len) in scenarios {
        let run = |backend: QueueBackend| {
            let mut c = cfg.clone();
            c.event_queue = backend;
            des::run_collective(
                Topology::single_switch(16, LinkRate::CX3_56G, 100),
                c,
                proto,
                kind,
                len,
            )
        };
        let wheel = run(QueueBackend::Wheel);
        let heap = run(QueueBackend::Heap);
        assert!(wheel.stats.all_done(), "{name}: wheel incomplete");
        assert_eq!(
            wheel.stats.end_time, heap.stats.end_time,
            "{name}: end times diverge"
        );
        assert_eq!(
            wheel.stats.per_rank_done, heap.stats.per_rank_done,
            "{name}: per-rank times diverge"
        );
        assert_eq!(
            wheel.stats.events, heap.stats.events,
            "{name}: event counts"
        );
        assert_eq!(
            wheel.traffic.per_link(),
            heap.traffic.per_link(),
            "{name}: link counters diverge"
        );
        assert_eq!(wheel.fabric_drops, heap.fabric_drops, "{name}: drops");
    }
}

#[test]
fn engine_stats_populate_the_report() {
    let out = run_188(QueueBackend::Wheel);
    assert!(out.traffic.events() > 0);
    assert!(out.traffic.peak_queue_depth() > 0);
    assert!(out.traffic.wall_ns() > 0);
}
