//! Open-loop load-study bench: single knee-sweep cells of the
//! multi-tenant runtime (see `mcag_bench::loadfigs`) — tracks what one
//! arrival-driven open-loop run costs to simulate below, at, and past
//! the saturation knee, plus the 256-tenant indexed-scheduler cell.
//!
//! The 100-arrival cells are too short for a batch shape to recur, so
//! they time the simulate-every-batch path. The two 3,000-arrival cells
//! are the `load_ladder` benchmark's x2 and x8 steps: below the knee
//! almost every batch is a replay from the runtime's batch-outcome memo
//! (`recurring_x2_3000`, the hit path); past it every batch is a new
//! 7-job shape (`unique_x8_3000`, the miss path, which the memo must
//! not slow).

use criterion::{criterion_group, criterion_main, Criterion};
use mcag_bench::loadfigs::{run_cell, LoadCell, BASE_INTERARRIVAL_NS};
use std::hint::black_box;

fn cell(label: &str, tenants: u32, mean: u64, target: u64) -> LoadCell {
    LoadCell {
        label: label.to_string(),
        tenants,
        capacity: 32,
        partitions: 2,
        mean_interarrival_ns: mean,
        burst: false,
        arrivals_target: target,
        throttle_sojourn_ns: None,
        seed: 7,
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig_load");
    g.sample_size(10);
    let b = BASE_INTERARRIVAL_NS;
    for (label, tenants, mean, target) in [
        ("knee_x0.5", 16, b * 2, 100),
        ("knee_x2", 16, b / 2, 100),
        ("knee_x8", 16, b / 8, 100),
        ("scale_t256", 256, b, 256),
        ("recurring_x2_3000", 16, b / 2, 3_000),
        ("unique_x8_3000", 16, b / 8, 3_000),
    ] {
        g.bench_function(label, |bench| {
            let c = cell(label, tenants, mean, target);
            bench.iter(|| black_box(run_cell(&c)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
