//! Fault-injection bench: per-model single-seed sweep cells (see
//! `mcag_bench::faultfigs`) — tracks how much a faulted collective
//! costs to simulate, per fault model and recovery-cutoff headroom.

use criterion::{criterion_group, criterion_main, Criterion};
use mcag_bench::faultfigs::{run_job, FaultJob, FaultKind};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig_faults");
    g.sample_size(10);
    for kind in FaultKind::ALL {
        for cutoff_headroom in [1u64, 4] {
            let job = FaultJob {
                kind,
                rate: 0.2,
                cutoff_headroom,
                seed: 7,
            };
            g.bench_function(format!("{}_cutoff{}", kind.label(), cutoff_headroom), |b| {
                b.iter(|| black_box(run_job(true, &job)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
