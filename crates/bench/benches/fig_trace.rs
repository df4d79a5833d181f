//! Flight-recorder bench: what attaching the trace sink costs on the
//! smoke-sized scenarios (see `mcag_bench::tracefigs`) — a traced
//! 188-node Allgather, the Perfetto-export round trip, and the traced
//! open-loop runtime run whose digests the smoke baseline pins — and,
//! in the `runtime_trace` group, the three stages a harvested runtime
//! trace goes through at the performance benchmark's `load_traced`
//! scale, whose batch/job spans and markers the fabric-only reference
//! trace lacks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mcag_bench::loadfigs::BASE_INTERARRIVAL_NS;
use mcag_bench::tracefigs::{reference_chrome_trace, tracefigs, TIMELINE_WINDOW_NS};
use mcag_runtime::{OpMix, PoolConfig, RateProcess, Runtime, RuntimeConfig, Workload};
use mcag_simnet::Topology;
use mcag_trace::{export_chrome, ChromeOptions, LinkTimeline, TraceSpec};
use mcag_verbs::LinkRate;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig_trace");
    g.sample_size(10);
    g.bench_function("chrome_export", |b| {
        b.iter(|| black_box(reference_chrome_trace().len()))
    });
    g.bench_function("tracefigs_smoke", |b| b.iter(|| black_box(tracefigs(true))));
    g.finish();
}

const TENANTS: u32 = 16;

fn load_topology() -> Topology {
    Topology::single_switch(4, LinkRate::CX3_56G, 100)
}

/// `load_traced`'s cell, drained: 2,000 Poisson arrivals at twice the
/// base rate from 16 tenants on the 4-host switch, default recorder.
fn traced_runtime() -> Runtime {
    let mean = BASE_INTERARRIVAL_NS / 2;
    let arrivals = Workload {
        tenants: TENANTS,
        horizon_ns: mean * 2_000,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: mean,
        },
        mix: OpMix {
            allgather_weight: 2,
            broadcast_weight: 1,
            agrs_weight: 1,
            min_send_len: 8 << 10,
            max_send_len: 32 << 10,
            ranks: 4,
        },
        seed: 1,
    };
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(32),
        max_inflight: 8,
        partitions: 2,
        trace: Some(TraceSpec::default()),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(load_topology(), cfg);
    for t in 0..TENANTS {
        rt.register_tenant(&format!("t{t}"));
    }
    rt.load_arrivals(&arrivals.generate());
    rt.run_open_loop();
    rt
}

fn bench_runtime_trace(c: &mut Criterion) {
    let links = load_topology().num_links();
    let trace = traced_runtime().take_trace().expect("tracing was on");
    let opts = ChromeOptions {
        link_names: (0..links).map(|l| format!("link{l}")).collect(),
        tenant_names: (0..TENANTS).map(|t| format!("t{t}")).collect(),
    };
    let mut g = c.benchmark_group("runtime_trace");
    g.sample_size(10);
    // Harvest: merge the committed batches' time-sorted runs into one
    // virtual-time-ordered vector (`mcag_trace::merge_runs`).
    g.bench_function("take_trace", |b| {
        b.iter_batched(
            traced_runtime,
            |mut rt| rt.take_trace(),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("export_chrome", |b| {
        b.iter(|| black_box(export_chrome(&trace, &opts).len()))
    });
    g.bench_function("link_timeline", |b| {
        b.iter(|| LinkTimeline::build(&trace.fabric, links, TIMELINE_WINDOW_NS, trace.horizon_ns()))
    });
    g.finish();
}

criterion_group!(benches, bench, bench_runtime_trace);
criterion_main!(benches);
