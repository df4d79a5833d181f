//! The multi-tenant collective service: ten tenants submit a mixed
//! Broadcast / Allgather / AG+RS workload through the runtime scheduler,
//! contending for a multicast-group table smaller than the tenant count.
//!
//! Demonstrates the `mcag-runtime` layer end to end: admission, fair
//! batching, group-pool reuse with LRU eviction (hit rate < 100% by
//! construction — the table cannot hold every tenant's trees), and the
//! per-tenant latency/queueing stats. The whole run is deterministic: it
//! executes twice and asserts the reports are identical.
//!
//! A second act drives the same service **open-loop**: a seeded Poisson
//! arrival stream over an NCCL-style op/size mix, scheduled with
//! cross-batch pipelining over two fabric partitions and committed in
//! virtual-time order, reporting offered load, sojourn percentiles, and
//! per-partition utilization.
//!
//! A third act reruns one open-loop burst with the **flight recorder**
//! attached: the same workload, now with per-link busy intervals and
//! job sojourn spans recorded, printing the three busiest links and the
//! longest job span, and writing a Chrome trace-event file you can open
//! at <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example runtime_service
//! ```

use mcast_allgather::runtime::{
    JobKind, MemoStats, OpMix, PoolConfig, RateProcess, Runtime, RuntimeConfig, RuntimeReport,
    RuntimeTrace, Workload,
};
use mcast_allgather::simnet::Topology;
use mcast_allgather::trace::{
    export_chrome, validate_json, ChromeOptions, LinkTimeline, TraceSpec,
};
use mcast_allgather::verbs::{LinkRate, Rank};

const TENANTS: usize = 10;
const POOL_CAPACITY: usize = 6; // smaller than the tenant count

fn run_service() -> RuntimeReport {
    let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(POOL_CAPACITY),
        max_inflight: 8,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(topo, cfg);

    // Ten tenants with a skewed mixed workload: the first two are heavy
    // (steady streams, as FSDP training would be), the rest submit a
    // couple of one-off collectives each.
    let tenants: Vec<_> = (0..TENANTS)
        .map(|i| rt.register_tenant(&format!("tenant-{i:02}")))
        .collect();
    for (i, &t) in tenants.iter().enumerate() {
        let jobs = if i < 2 { 5 } else { 2 };
        for j in 0..jobs {
            let kind = match (i + j) % 3 {
                0 => JobKind::Allgather,
                1 => JobKind::Broadcast {
                    root: Rank((i % 8) as u32),
                },
                _ => JobKind::AgRs,
            };
            let send_len = (16 << 10) << (j % 3); // 16..64 KiB
            rt.submit(t, kind, send_len)
                .expect("workload fits the admission policy");
        }
    }
    rt.run_open_loop()
}

fn main() {
    let report = run_service();
    let again = run_service();
    assert_eq!(report, again, "runtime must be deterministic");

    println!(
        "runtime service: {} tenants, group pool of {POOL_CAPACITY} (< {TENANTS} tenants)\n",
        TENANTS
    );
    println!(
        "{:<10}  {:>6}  {:>9}  {:>8}  {:>14}  {:>14}",
        "tenant", "jobs", "rejected", "done", "mean queue us", "mean service us"
    );
    for t in &report.tenants {
        println!(
            "{:<10}  {:>6}  {:>9}  {:>8}  {:>14.1}  {:>14.1}",
            t.name,
            t.submitted,
            t.rejected,
            t.completed,
            t.mean_queue_ns() / 1e3,
            t.mean_service_ns() / 1e3,
        );
    }

    let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(
        report.completed_jobs() as u64,
        submitted,
        "every admitted job must complete"
    );
    assert!(
        report.hit_rate() < 1.0,
        "a pool smaller than the tenant count cannot hit every time"
    );
    assert!(report.pool.hits > 0, "repeat tenants must see reuse");
    assert!(report.pool.evictions > 0, "table pressure must evict");

    println!(
        "\njobs completed     : {} over {} batches",
        report.completed_jobs(),
        report.batches
    );
    println!(
        "group pool         : {:.1}% hit rate ({} hits, {} builds, {} rebuilds, {} evictions)",
        report.hit_rate() * 100.0,
        report.pool.hits,
        report.pool.builds,
        report.pool.rebuilds,
        report.pool.evictions
    );
    println!(
        "virtual makespan   : {:.2} ms",
        report.makespan_ns as f64 / 1e6
    );
    println!(
        "sustained goodput  : {:.3} Tbit/s delivered ({:.1} MiB moved on the fabric)",
        report.sustained_tbps(),
        report.moved_bytes as f64 / (1 << 20) as f64
    );
    println!("\ndeterministic across two runs: yes");

    // Act two: the same service under an open-loop Poisson arrival
    // stream — jobs land on the virtual clock instead of being
    // pre-queued, and batches pipeline across two fabric partitions.
    let (open, memo) = run_open_loop_service();
    let (open_again, memo_again) = run_open_loop_service();
    assert_eq!(open, open_again, "open-loop runtime must be deterministic");
    assert_eq!(memo, memo_again);
    assert!(open.completed_jobs() > 0);
    assert!(
        open.partitions.iter().all(|p| p.batches > 0),
        "both partitions must carry batches"
    );

    println!(
        "\nopen-loop act      : {} offered over {:.1} ms, {} completed, {} rejected",
        open.offered_jobs,
        open.makespan_ns as f64 / 1e6,
        open.completed_jobs(),
        open.rejects.total(),
    );
    println!(
        "sojourn p50 / p99  : {:.1} / {:.1} us (queue + service)",
        open.sojourn_percentile_ns(0.50) as f64 / 1e3,
        open.sojourn_percentile_ns(0.99) as f64 / 1e3,
    );
    println!(
        "partitions         : {} batches + {} batches, {:.1}% mean occupancy",
        open.partitions[0].batches,
        open.partitions[1].batches,
        open.utilization() * 100.0,
    );
    // Host-side only: a batch shape seen before is replayed, not
    // simulated again (the report is the same either way).
    println!(
        "batch memo         : {} of {} batches replayed, {} simulated ({} shapes seen, {} recurred)",
        memo.hits, open.batches, memo.misses, memo.seen, memo.cached,
    );

    // Act three: the same burst with the flight recorder attached.
    let (traced, trace) = run_traced_burst();
    assert_eq!(
        traced, open,
        "attaching the recorder must not change the report"
    );
    let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
    let timeline = LinkTimeline::build(&trace.fabric, topo.num_links(), 65_536, trace.horizon_ns());
    println!(
        "\ntraced act         : {} fabric events kept ({} dropped by the ring), {} job spans",
        trace.fabric.len(),
        trace.fabric_dropped,
        trace.jobs.len(),
    );
    for (rank, (link, busy_ns)) in timeline.busiest(3).iter().enumerate() {
        println!(
            "busiest link #{}    : link {} busy {:.1} us of {:.1} us simulated",
            rank + 1,
            link,
            *busy_ns as f64 / 1e3,
            trace.horizon_ns() as f64 / 1e3,
        );
    }
    let longest = trace.longest_job().expect("jobs completed");
    println!(
        "longest job span   : job {} (tenant {}) sojourn {:.1} us ({:.1} us queued, batch {})",
        longest.job,
        longest.tenant,
        longest.sojourn_ns() as f64 / 1e3,
        longest.queue_ns() as f64 / 1e3,
        longest.batch,
    );

    let doc = export_chrome(
        &trace,
        &ChromeOptions {
            link_names: (0..topo.num_links()).map(|l| format!("link{l}")).collect(),
            tenant_names: (0..TENANTS).map(|i| format!("tenant-{i:02}")).collect(),
        },
    );
    validate_json(&doc).expect("chrome export is well-formed JSON");
    let out = std::env::temp_dir().join("runtime_service.trace.json");
    std::fs::write(&out, &doc).expect("write trace file");
    println!(
        "perfetto trace     : {} ({} KiB) — open at https://ui.perfetto.dev",
        out.display(),
        doc.len() / 1024,
    );
}

/// The open-loop burst again, with a [`TraceSpec`] on the runtime
/// config: same report, plus the harvested [`RuntimeTrace`].
fn run_traced_burst() -> (RuntimeReport, RuntimeTrace) {
    let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(24),
        max_inflight: 6,
        partitions: 2,
        trace: Some(TraceSpec::default()),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(topo, cfg);
    for i in 0..TENANTS {
        rt.register_tenant(&format!("tenant-{i:02}"));
    }
    let workload = Workload {
        tenants: TENANTS as u32,
        horizon_ns: 3_000_000,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: 50_000,
        },
        mix: OpMix {
            ranks: 8,
            ..OpMix::default()
        },
        seed: 2024,
    };
    rt.load_arrivals(&workload.generate());
    let report = rt.run_open_loop();
    let trace = rt.take_trace().expect("tracing was enabled");
    (report, trace)
}

fn run_open_loop_service() -> (RuntimeReport, MemoStats) {
    let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(24),
        max_inflight: 6,
        partitions: 2,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(topo, cfg);
    for i in 0..TENANTS {
        rt.register_tenant(&format!("tenant-{i:02}"));
    }
    let workload = Workload {
        tenants: TENANTS as u32,
        horizon_ns: 3_000_000,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: 50_000,
        },
        mix: OpMix {
            ranks: 8,
            ..OpMix::default()
        },
        seed: 2024,
    };
    rt.load_arrivals(&workload.generate());
    let report = rt.run_open_loop();
    (report, rt.memo_stats())
}
