//! Latency-vs-offered-load study of the open-loop multi-tenant runtime
//! (`mcag-runtime`, beyond the paper's figures): the experiment the
//! `runtime_multitenant` sweep cannot run, because its pre-filled queue
//! has no notion of *offered* load.
//!
//! Every cell is one open-loop run: a seeded Poisson (or bursty
//! modulated) arrival stream over an NCCL-style op/size mix, driven
//! through the resource-driven scheduler with cross-batch pipelining
//! across two fabric partitions. The grid covers four questions:
//!
//! * **knee** — arrival rate swept ×0.25…×8 around the service capacity:
//!   sojourn time (queue + service) is flat below the knee and explodes
//!   past it, the classic open-loop saturation curve;
//! * **scale** — tenant count swept to 1024+ mostly-idle tenants (the
//!   indexed scheduler keeps wave formation O(ready tenants));
//! * **cap** — group-pool capacity vs sojourn at fixed rate (SM rebuild
//!   churn as a service-time inflation);
//! * **pipe / shed** — partitions 1 vs 2 at the same overload (the
//!   cross-batch pipelining payoff), and the sojourn-EWMA admission
//!   throttle off vs on at sustained overload (shedding arrivals keeps
//!   the p99 of *admitted* jobs bounded).
//!
//! The sweep runs twice, `jobs = 1` then `jobs = 4`, through
//! [`study::sweep`], which **asserts the two passes' digests
//! byte-identical**. All reported quantities are simulated-time integers
//! (the arrival generators use a local bit-exact logarithm, never libm),
//! so the full study's `BENCH_load.json` baseline reproduces
//! byte-identically on any host; `loadfigs_smoke` is the bounded CI
//! variant.

use crate::data::FigData;
use crate::study::{self, Obj};
use mcag_runtime::{
    OpMix, PoolConfig, RatePhase, RateProcess, Runtime, RuntimeConfig, RuntimeReport, Workload,
};
use mcag_simnet::Topology;
use mcag_verbs::LinkRate;

/// The "1×" mean interarrival gap (ns) the knee sweep is anchored on,
/// chosen so the sweep's ×0.25…×8 rate multipliers straddle the service
/// capacity of the 4-rank / 2-partition reference cell.
const BASE_INTERARRIVAL_NS: u64 = 40_000;

/// NCCL-style op/size mix every cell offers: AG-heavy with broadcast
/// and fused AG+RS minorities over an 8–32 KiB power-of-two ladder.
const MIX: OpMix = OpMix {
    allgather_weight: 2,
    broadcast_weight: 1,
    agrs_weight: 1,
    min_send_len: 8 << 10,
    max_send_len: 32 << 10,
    ranks: 4,
};

/// One open-loop scenario of the load grid.
#[derive(Debug, Clone)]
struct LoadCell {
    /// Row label (`knee_x2`, `scale_t1024`, …).
    pub label: String,
    /// Registered tenants (arrivals spread uniformly).
    pub tenants: u32,
    /// Group-pool capacity.
    pub capacity: usize,
    /// Fabric partitions (cross-batch pipelining width).
    pub partitions: usize,
    /// Mean interarrival gap (ns).
    pub mean_interarrival_ns: u64,
    /// Bursty modulated rate (×4 / ÷4 phases) instead of plain Poisson.
    pub burst: bool,
    /// Arrivals targeted over the horizon (`horizon = mean × target`).
    pub arrivals_target: u64,
    /// Sojourn-EWMA admission throttle, if enabled.
    pub throttle_sojourn_ns: Option<u64>,
    /// Workload seed.
    pub seed: u64,
}

/// Everything about one cell's run that must be identical across worker
/// counts — simulated-time integers only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoadDigest {
    /// Submission attempts (the offered load).
    pub offered: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Refusals, all reasons.
    pub rejected: u64,
    /// Refusals by the sojourn-EWMA throttle.
    pub throttled: u64,
    /// Refusals by queue depth (global + per-tenant).
    pub queue_limited: u64,
    /// Batches committed.
    pub batches: u64,
    /// Virtual time of the last completion (ns).
    pub makespan_ns: u64,
    /// Mean sojourn (queue + service) over completed jobs (ns).
    pub mean_sojourn_ns: u64,
    /// Nearest-rank p50 sojourn (ns).
    pub p50_sojourn_ns: u64,
    /// Nearest-rank p99 sojourn (ns).
    pub p99_sojourn_ns: u64,
    /// Mean partition occupancy, permille.
    pub util_permille: u64,
    /// Group-pool hits.
    pub pool_hits: u64,
    /// Group-pool rebuilds (LRU churn).
    pub pool_rebuilds: u64,
}

fn digest(report: &RuntimeReport) -> LoadDigest {
    let completed = report.completed_jobs() as u64;
    let sojourn_sum: u64 = report.jobs.iter().map(|j| j.latency_ns()).sum();
    LoadDigest {
        offered: report.offered_jobs,
        admitted: report.tenants.iter().map(|t| t.submitted).sum(),
        completed,
        rejected: report.rejects.total(),
        throttled: report.rejects.throttled,
        queue_limited: report.rejects.queue_full + report.rejects.tenant_quota,
        batches: report.batches,
        makespan_ns: report.makespan_ns,
        mean_sojourn_ns: sojourn_sum.checked_div(completed).unwrap_or(0),
        p50_sojourn_ns: report.sojourn_percentile_ns(0.50),
        p99_sojourn_ns: report.sojourn_percentile_ns(0.99),
        util_permille: (report.utilization() * 1000.0).round() as u64,
        pool_hits: report.pool.hits,
        pool_rebuilds: report.pool.rebuilds,
    }
}

/// Run one cell: build the runtime, generate and load the seeded
/// arrival stream, drive the open-loop engine, digest the report.
fn run_cell(cell: &LoadCell) -> LoadDigest {
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(cell.capacity),
        throttle_sojourn_ns: cell.throttle_sojourn_ns,
        max_inflight: 8,
        partitions: cell.partitions,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(Topology::single_switch(4, LinkRate::CX3_56G, 100), cfg);
    for i in 0..cell.tenants {
        rt.register_tenant(&format!("t{i}"));
    }
    let mean = cell.mean_interarrival_ns;
    let rate = if cell.burst {
        // Diurnal-style duty cycle: 50-gap bursts at 4× the rate
        // alternating with 50-gap lulls at ¼ — same average rate.
        RateProcess::Modulated {
            phases: vec![
                RatePhase {
                    len_ns: 50 * mean,
                    mean_interarrival_ns: (mean / 4).max(1),
                },
                RatePhase {
                    len_ns: 50 * mean,
                    mean_interarrival_ns: mean * 4,
                },
            ],
        }
    } else {
        RateProcess::Poisson {
            mean_interarrival_ns: mean,
        }
    };
    let workload = Workload {
        tenants: cell.tenants,
        horizon_ns: mean * cell.arrivals_target,
        rate,
        mix: MIX,
        seed: cell.seed,
    };
    rt.load_arrivals(&workload.generate());
    digest(&rt.run_open_loop())
}

/// The smoke or full load grid, in row order.
fn load_cells(smoke: bool) -> Vec<LoadCell> {
    let full = !smoke;
    let target: u64 = if full { 400 } else { 100 };
    // The reference cell every row varies: 16 tenants, 32 pool slots, two
    // partitions, Poisson arrivals at the base rate.
    let base = LoadCell {
        label: String::new(),
        tenants: 16,
        capacity: 32,
        partitions: 2,
        mean_interarrival_ns: BASE_INTERARRIVAL_NS,
        burst: false,
        arrivals_target: target,
        throttle_sojourn_ns: None,
        seed: 0,
    };
    let mut cells = Vec::new();

    // Saturation knee: offered rate × {0.25 … 8} around the base rate
    // (rate ×k ⇔ interarrival ÷k).
    let b = BASE_INTERARRIVAL_NS;
    let knee: &[(u64, &str)] = if full {
        &[
            (b * 4, "x0.25"),
            (b * 2, "x0.5"),
            (b, "x1"),
            (b / 2, "x2"),
            (b / 4, "x4"),
            (b / 8, "x8"),
        ]
    } else {
        &[(b * 2, "x0.5"), (b / 2, "x2"), (b / 8, "x8")]
    };
    for &(mean, name) in knee {
        cells.push(LoadCell {
            label: format!("knee_{name}"),
            mean_interarrival_ns: mean,
            ..base.clone()
        });
    }

    // Tenant scaling: mostly-idle tenants, ~1 arrival each; the ≥1000
    // cell runs in the smoke budget (indexed-queue acceptance).
    let scales: &[u32] = if full { &[64, 256, 1024] } else { &[1024] };
    for &t in scales {
        cells.push(LoadCell {
            label: format!("scale_t{t}"),
            tenants: t,
            capacity: 64,
            arrivals_target: t.into(),
            ..base.clone()
        });
    }

    // Pool capacity at fixed 1× rate: rebuild churn inflates service.
    if full {
        for capacity in [8usize, 16, 64] {
            cells.push(LoadCell {
                label: format!("cap_{capacity}"),
                capacity,
                ..base.clone()
            });
        }
        // Bursty modulated arrivals at 1× average rate.
        cells.push(LoadCell {
            label: "burst_x1".into(),
            burst: true,
            ..base.clone()
        });
    }

    // Cross-batch pipelining: same ×2 overload, 1 vs 2 partitions.
    for partitions in [1usize, 2] {
        cells.push(LoadCell {
            label: format!("pipe_p{partitions}"),
            partitions,
            mean_interarrival_ns: BASE_INTERARRIVAL_NS / 2,
            ..base.clone()
        });
    }

    // Admission throttling at ×4 overload: shed vs queue. The window is
    // stretched (vs the knee cells) so the overload is *sustained* —
    // the sojourn EWMA only climbs as late jobs commit, so a short
    // burst would end before the throttle could react.
    for (label, throttle) in [("shed_off", None), ("shed_on", Some(300_000u64))] {
        cells.push(LoadCell {
            label: label.into(),
            mean_interarrival_ns: BASE_INTERARRIVAL_NS / 4,
            arrivals_target: target * if full { 2 } else { 4 },
            throttle_sojourn_ns: throttle,
            ..base.clone()
        });
    }

    // Independent arrival streams: seeds 41, 42, … in row order.
    for (seed, cell) in (41..).zip(&mut cells) {
        cell.seed = seed;
    }
    cells
}

/// The open-loop load study: knee, tenant-scaling, capacity, burst,
/// pipelining and shedding cells (the recorded baseline), or (smoke)
/// three knee points, the 1024-tenant cell, and the pipelining and
/// shedding pairs.
pub fn loadfigs(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let cells = load_cells(smoke);
    let sweep = study::sweep(study::PASSES, &cells, |_| 0, run_cell);
    let digests = &sweep.digests;

    // Self-checks on the curve shapes the study exists to show.
    let by_label = |l: &str| {
        cells
            .iter()
            .zip(digests)
            .find(|(c, _)| c.label == l)
            .map(|(_, d)| *d)
            .expect("cell present")
    };
    let knee_lo = by_label(if smoke { "knee_x0.5" } else { "knee_x0.25" });
    let knee_hi = by_label("knee_x8");
    assert!(
        knee_hi.p50_sojourn_ns > 4 * knee_lo.p50_sojourn_ns.max(1),
        "no saturation knee: p50 {} ns below vs {} ns past the knee",
        knee_lo.p50_sojourn_ns,
        knee_hi.p50_sojourn_ns
    );
    let (pipe1, pipe2) = (by_label("pipe_p1"), by_label("pipe_p2"));
    assert!(
        pipe2.p99_sojourn_ns < pipe1.p99_sojourn_ns,
        "cross-batch pipelining must cut the overload tail: p99 {} vs {}",
        pipe2.p99_sojourn_ns,
        pipe1.p99_sojourn_ns
    );
    let (shed_off, shed_on) = (by_label("shed_off"), by_label("shed_on"));
    assert!(shed_on.throttled > 0, "throttle never fired at ×4 overload");
    assert!(
        shed_on.p99_sojourn_ns < shed_off.p99_sojourn_ns,
        "shedding must bound the admitted-job tail: p99 {} vs {}",
        shed_on.p99_sojourn_ns,
        shed_off.p99_sojourn_ns
    );

    let mut f = FigData::new(
        "loadfigs",
        "Open-loop load study: sojourn vs offered rate x tenants x pool capacity (4 ranks, NCCL-style mix)",
        &[
            "cell",
            "tenants",
            "cap",
            "parts",
            "rate (j/ms)",
            "offered",
            "done",
            "shed",
            "p50 (us)",
            "p99 (us)",
            "util",
            "makespan (ms)",
        ],
    );
    for (c, d) in cells.iter().zip(digests) {
        f.row(vec![
            c.label.clone(),
            c.tenants.to_string(),
            c.capacity.to_string(),
            c.partitions.to_string(),
            format!("{:.1}", 1e6 / c.mean_interarrival_ns as f64),
            d.offered.to_string(),
            d.completed.to_string(),
            format!("{} ({} thr)", d.rejected, d.throttled),
            format!("{:.1}", d.p50_sojourn_ns as f64 / 1e3),
            format!("{:.1}", d.p99_sojourn_ns as f64 / 1e3),
            format!("{:.1}%", d.util_permille as f64 / 10.0),
            format!("{:.2}", d.makespan_ns as f64 / 1e6),
        ]);
    }
    f.note(format!(
        "mode={mode}; open-loop Poisson/modulated arrivals over an 8-32 KiB AG/bcast/AG+RS mix \
         on a 4-rank star; resource-driven batching pipelines disjoint-group batches across \
         fabric partitions, commits in virtual-time order",
    ));
    f.note(
        "knee_* sweeps offered rate past the service capacity: p50/p99 sojourn is flat below \
         the knee and explodes past it; shed_on bounds the admitted-job tail by refusing \
         arrivals (Throttled) while shed_off queues them",
    );
    sweep.note_passes(&mut f);

    // Only simulated-time integers, so the file is byte-identical across
    // hosts and repeated runs — CI asserts exactly that.
    let doc = Obj::new()
        .str("generator", "figures loadfigs")
        .str("mode", mode)
        .str("topology", "star-4 CX3_56G")
        .str(
            "mix",
            "AG:2 bcast:1 AG+RS:1 over 8-32 KiB power-of-two ladder",
        )
        .int("base_interarrival_ns", BASE_INTERARRIVAL_NS)
        .str(
            "interpretation",
            "one row per open-loop cell; sojourn = queue + service on the virtual clock, \
             percentiles nearest-rank over completed jobs. Each cell ran at jobs=1 and jobs=4 \
             and the digests were asserted byte-identical before this file was written; \
             arrival streams use a local bit-exact logarithm (no libm), so the file \
             reproduces byte-identically on any host.",
        )
        .gate("results_identical", sweep.cross_checked())
        .rows(
            "cells",
            cells.iter().zip(digests).map(|(c, d)| {
                Obj::new()
                    .str("cell", &c.label)
                    .int("tenants", c.tenants.into())
                    .int("capacity", c.capacity as u64)
                    .int("partitions", c.partitions as u64)
                    .int("mean_interarrival_ns", c.mean_interarrival_ns)
                    .bool("burst", c.burst)
                    .int("throttle_sojourn_ns", c.throttle_sojourn_ns.unwrap_or(0))
                    .int("offered", d.offered)
                    .int("admitted", d.admitted)
                    .int("completed", d.completed)
                    .int("rejected", d.rejected)
                    .int("throttled", d.throttled)
                    .int("queue_limited", d.queue_limited)
                    .int("batches", d.batches)
                    .int("makespan_ns", d.makespan_ns)
                    .int("mean_sojourn_ns", d.mean_sojourn_ns)
                    .int("p50_sojourn_ns", d.p50_sojourn_ns)
                    .int("p99_sojourn_ns", d.p99_sojourn_ns)
                    .int("utilization_permille", d.util_permille)
                    .int("pool_hits", d.pool_hits)
                    .int("pool_rebuilds", d.pool_rebuilds)
            }),
        );
    study::attach(&mut f, "load", smoke, &doc);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_acceptance_axes() {
        let full = load_cells(false);
        let smoke = load_cells(true);
        // ≥1000-tenant cell in BOTH budgets, knee sweep spanning ≥16×
        // in rate, throttle on/off pair, partitions 1 vs 2 pair.
        for cells in [&full, &smoke] {
            assert!(cells.iter().any(|c| c.tenants >= 1000));
            assert!(cells.iter().any(|c| c.throttle_sojourn_ns.is_some()));
            assert!(cells.iter().any(|c| c.partitions == 1));
            assert!(cells.iter().any(|c| c.partitions == 2));
            let rates: Vec<u64> = cells
                .iter()
                .filter(|c| c.label.starts_with("knee_"))
                .map(|c| c.mean_interarrival_ns)
                .collect();
            let (lo, hi) = (*rates.iter().min().unwrap(), *rates.iter().max().unwrap());
            assert!(hi / lo >= 16, "knee span {hi}/{lo}");
        }
        assert!(full.iter().any(|c| c.burst));
        // Seeds are distinct (independent streams per cell).
        let mut seeds: Vec<u64> = full.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), full.len());
    }

    #[test]
    fn cells_are_deterministic() {
        let cell = LoadCell {
            label: "probe".into(),
            tenants: 8,
            capacity: 16,
            partitions: 2,
            mean_interarrival_ns: 50_000,
            burst: false,
            arrivals_target: 24,
            throttle_sojourn_ns: None,
            seed: 7,
        };
        let a = run_cell(&cell);
        let b = run_cell(&cell);
        assert_eq!(a, b);
        assert!(a.completed > 0);
        assert!(a.offered >= a.completed);
        assert!(a.util_permille <= 1000);
    }
}
