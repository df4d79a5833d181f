//! Micro-benchmarks of the protocol's fast-path data structures: the
//! per-CQE work the DPA kernel performs (bitmap update, staging copy,
//! PSN decode) — the operations whose cost Table I models in cycles —
//! plus the simulator-throughput suite: event-queue churn (timer wheel
//! vs reference heap) and end-to-end DES events/sec on the 188-node
//! testbed and the 512-node fat-tree (`BENCH_simcore.json` scenarios),
//! and the queue's two extreme regimes — a whole 4-host fabric built,
//! drained and dropped per iteration (the open-loop runtime's batch),
//! and a queue held 300 k events deep (the 512-rank FSDP pair) — and
//! that pair's own rows: the post phase of its in-switch Reduce-Scatter
//! and both `{AG, RS}` pairs end to end on the 128-rank fat-tree.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mcag_bench::simcore::{allgather_run, churn_delay_ns, queue_churn_events_per_sec};
use mcag_core::{
    des, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, ChunkBitmap, CollectiveKind,
    ControlMsg, ProtocolConfig, RsApp, Sequencer, StagingRing,
};
use mcag_simnet::{EventQueue, Fabric, FabricConfig, QueueBackend, SimTime, Topology};
use mcag_verbs::{Chunker, CollectiveId, ImmLayout, LinkRate, Mtu, Rank, Transport};
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_hotpath");

    g.throughput(Throughput::Elements(2048));
    g.bench_function("bitmap_set_2048", |b| {
        b.iter(|| {
            let mut bm = ChunkBitmap::new(2048);
            for i in 0..2048 {
                black_box(bm.set(i));
            }
            black_box(bm.is_complete())
        })
    });

    g.bench_function("bitmap_missing_runs_sparse", |b| {
        let mut bm = ChunkBitmap::new(1 << 20);
        for i in (0..1 << 20).step_by(97) {
            bm.set(i as u32);
        }
        b.iter(|| black_box(bm.missing_runs().count()))
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("staging_receive_copy_4KiB", |b| {
        let mut ring = StagingRing::new(64, Mtu::IB_4K);
        let data = vec![0xabu8; 4096];
        let mut user = vec![0u8; 4096 * 16];
        let mut psn = 0u32;
        b.iter(|| {
            let slot = ring.receive(psn % 16, &data).unwrap();
            black_box(ring.copy_out(slot, &mut user));
            psn += 1;
        })
    });

    g.throughput(Throughput::Elements(2048));
    g.bench_function("chunker_plan_8MiB", |b| {
        let ch = Chunker::new(8 << 20, Mtu::IB_4K, ImmLayout::DEFAULT, CollectiveId(1));
        b.iter(|| {
            let mut acc = 0usize;
            for pc in ch.iter() {
                acc += pc.len;
            }
            black_box(acc)
        })
    });

    g.throughput(Throughput::Elements(1024));
    g.bench_function("sequencer_schedule_1024", |b| {
        let s = Sequencer::new(1024, 8);
        b.iter(|| {
            let mut acc = 0u32;
            for r in 0..1024 {
                acc ^= s.chain_of(r) ^ s.step_of(r);
                if let Some(x) = s.successor(r) {
                    acc ^= x;
                }
            }
            black_box(acc)
        })
    });

    g.throughput(Throughput::Elements(1 << 16));
    g.bench_function("imm_pack_unpack_64k", |b| {
        let l = ImmLayout::DEFAULT;
        b.iter(|| {
            let mut acc = 0u32;
            for psn in 0..1u32 << 16 {
                let imm = l.pack(CollectiveId(3), psn);
                let (_, p) = l.unpack(imm);
                acc ^= p;
            }
            black_box(acc)
        })
    });

    g.finish();
}

/// Event-queue engines under a schedule/pop churn with an NIC-like delay
/// mix (the `event_queue` scenario of `BENCH_simcore.json`).
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    const OPS: u64 = 1 << 16;
    g.throughput(Throughput::Elements(OPS));
    for (name, backend) in [
        ("wheel_churn_64k", QueueBackend::Wheel),
        ("heap_churn_64k", QueueBackend::Heap),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(queue_churn_events_per_sec(backend, OPS)))
        });
    }
    g.finish();
}

/// The open-loop runtime's regime: a fresh fabric per batch of a few
/// hundred events, so queue construction, first-touch growth and
/// teardown weigh as much as the event loop. One iteration builds the
/// fabric over a shared topology, runs a 16 KiB Allgather to
/// quiescence and drops everything.
fn bench_batch_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_fabric");
    g.sample_size(2_000);
    let topo = Arc::new(Topology::single_switch(4, LinkRate::CX3_56G, 100));
    for (name, backend) in [
        ("construct_drain_drop_4_hosts_wheel", QueueBackend::Wheel),
        ("construct_drain_drop_4_hosts_heap", QueueBackend::Heap),
    ] {
        let mut cfg = FabricConfig::ucc_default();
        cfg.event_queue = backend;
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = des::run_collective(
                    Arc::clone(&topo),
                    cfg.clone(),
                    ProtocolConfig::default(),
                    CollectiveKind::Allgather,
                    16 << 10,
                );
                black_box(out.stats.events)
            })
        });
    }
    // The queue alone: construct, schedule and drain 326 events (the
    // mean batch of the `load_ladder` benchmark workload), drop.
    for (name, backend) in [
        ("queue_construct_drain_drop_326_wheel", QueueBackend::Wheel),
        ("queue_construct_drain_drop_326_heap", QueueBackend::Heap),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
                for i in 0..326u64 {
                    q.schedule_in((i * 2_654_435_761) % 40_000, i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

/// The opposite regime: a queue held 300 k events deep (the 512-rank
/// FSDP AG+RS pair peaks at 329 k pending) under the `event_queue`
/// delay mix, where memory behaviour per pop decides the rate and
/// construction is noise. At this depth the standing population sits in
/// the far level, so this is the arena's worst case: a far slot's list
/// threads nodes scattered over the whole arena and the cascade chases
/// them one cache miss at a time, where per-slot vectors read
/// sequentially.
fn bench_deep_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("deep_queue");
    const DEPTH: u64 = 300_000;
    const OPS: u64 = 1 << 18;
    g.throughput(Throughput::Elements(OPS));
    g.sample_size(5);
    for (name, backend) in [
        ("wheel_churn_300k_pending", QueueBackend::Wheel),
        ("heap_churn_300k_pending", QueueBackend::Heap),
    ] {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            churn_delay_ns(state)
        };
        let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
        for i in 0..DEPTH {
            q.schedule_in(delay(), i);
        }
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    let (_, e) = q.pop().expect("steady-state queue drained");
                    q.schedule_in(delay(), e);
                }
                black_box(q.len())
            })
        });
    }
    g.finish();
}

/// The FSDP pair's send side. `inc_512` times only the post phase of the
/// benchmark's in-switch cell: 512 in-switch `RsApp`s on the 512-node
/// fat-tree each queue their 511 foreign shards of 16 KiB (1,046,528
/// chunk contributions) and every NIC injects its first packet; the fabric is
/// built outside the timer and the run stops at t = 0. The `agrs_*_128`
/// rows run the whole pair, in-switch and on the endpoints, on the
/// benchmark's 128-rank two-level fat-tree with every chain running.
fn bench_post_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("post_path");
    g.sample_size(5);
    const SHARD: usize = 16 << 10;
    let inc_fabric = || {
        let topo = Topology::fat_tree_512(LinkRate::NDR_400G);
        let p = topo.num_hosts() as u32;
        let mut fab: Fabric<ControlMsg> = Fabric::new(topo, FabricConfig::ucc_default());
        let members: Vec<Rank> = (0..p).map(Rank).collect();
        let group = fab.create_group(&members);
        for &r in &members {
            let qp = fab.add_qp(r, Transport::Rc, 0);
            let (mtu, imm, coll) = (Mtu::IB_4K, ImmLayout::DEFAULT, CollectiveId(3));
            let app = RsApp::new(p, r, SHARD, mtu, imm, coll, qp, Some(group));
            fab.set_app(r, Box::new(app));
        }
        fab
    };
    g.throughput(Throughput::Elements(512 * 511 * 4));
    g.bench_function("inc_512", |b| {
        b.iter_batched(
            inc_fabric,
            |mut fab| {
                let stats = fab.run_until(SimTime::ZERO);
                assert_eq!(stats.events, 512, "one first injection per NIC");
                fab
            },
            BatchSize::PerIteration,
        )
    });
    let fat_tree_128 = || Topology::fat_tree_two_level(128, 8, 4, 2, LinkRate::NDR_400G, 300);
    let proto = ProtocolConfig {
        chains: 128,
        ..ProtocolConfig::default()
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("agrs_inswitch_128", |b| {
        b.iter(|| {
            let cfg = FabricConfig::ucc_default();
            black_box(
                run_concurrent_ag_rs(fat_tree_128(), cfg, proto, 64 << 10)
                    .stats
                    .events,
            )
        })
    });
    g.bench_function("agrs_endpoint_128", |b| {
        b.iter(|| {
            let cfg = FabricConfig::ucc_default();
            let out = run_concurrent_ag_rs_endpoint(fat_tree_128(), cfg, proto, 64 << 10);
            black_box(out.stats.events)
        })
    });
    g.finish();
}

/// End-to-end simulator throughput: whole Allgather runs per iteration.
/// The wheel-vs-heap pair on the 188-node testbed is the acceptance
/// metric; the 512-node fat-tree is the post-optimization scale target.
fn bench_simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_throughput");
    g.sample_size(2);
    // Same scenario setup as the BENCH_simcore.json generator.
    let run =
        |topo: Topology, backend: QueueBackend, n: usize| allgather_run(topo, backend, n).events;
    for (name, backend) in [
        ("allgather_188_wheel", QueueBackend::Wheel),
        ("allgather_188_heap", QueueBackend::Heap),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(run(Topology::ucc_testbed(), backend, 64 << 10)))
        });
    }
    g.bench_function("allgather_512_fat_tree_wheel", |b| {
        b.iter(|| {
            black_box(run(
                Topology::fat_tree_512(LinkRate::NDR_400G),
                QueueBackend::Wheel,
                16 << 10,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench,
    bench_event_queue,
    bench_batch_fabric,
    bench_deep_queue,
    bench_post_path,
    bench_simulator_throughput
);
criterion_main!(benches);
