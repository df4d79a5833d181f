//! Offload-backend bench: one sweep cell per placement (endpoint-NIC
//! DPA vs SHARP in-switch reduction on the 16-rank AG+RS pair) plus
//! the full smoke grid at `jobs = 1` (see `mcag_bench::backendfigs`).

use criterion::{criterion_group, criterion_main, Criterion};
use mcag_bench::backendfigs::{run_cell, sweep_digests, BackendCell, SweepCollective, SweepScale};
use mcag_offload::BackendKind;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cell = |backend| BackendCell {
        backend,
        coll: SweepCollective::AgRs,
        scale: SweepScale::Star16,
        send_len: 16 << 10,
    };
    let mut g = c.benchmark_group("fig_backends");
    g.sample_size(10);
    g.bench_function("agrs_dpa_endpoint", |b| {
        b.iter(|| black_box(run_cell(&cell(BackendKind::DpaBf3))))
    });
    g.bench_function("agrs_sharp_in_switch", |b| {
        b.iter(|| black_box(run_cell(&cell(BackendKind::SharpSwitch))))
    });
    g.bench_function("smoke_grid", |b| {
        b.iter(|| black_box(sweep_digests(true, 1)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
