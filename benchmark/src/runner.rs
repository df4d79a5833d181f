//! One measured run of one workload: repeated set-up, the timed loop
//! with a calibration slice between iterations, the correctness gate,
//! and the end-to-end or per-layer metrics that come out of it.
//!
//! Load shape: one process, one thread, a closed loop with one client —
//! iterations run back to back. Every host-clock headline is a median
//! over iterations of the iteration's rate divided by the mean rate of
//! the two calibration slices around it.

use crate::alloc;
use crate::calib::{self, Kernel};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, nearest_rank, quartiles, samples_beyond, spread};
use crate::workloads::{self, Counts, IterOut, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// The only workload input.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Record benchmark-side spans and report per-layer metrics.
    pub traced: bool,
    /// Smoke mode: one set-up, two iterations, whatever `seconds` says.
    pub quick: bool,
    /// Root of the checkout (golden files in, `benchmark/out/` out).
    pub repo_root: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// The spec's workload.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every check passed.
    pub correct: bool,
    /// What failed, if anything.
    pub errors: Vec<String>,
    /// Timed iterations run.
    pub attempted: u64,
    /// Timed iterations with a failed check.
    pub failed: u64,
    /// Every metric of the run's list (end-to-end or per-layer), in
    /// table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Interquartile range ÷ median over the iterations of this run,
    /// for the metrics that are medians over iterations.
    pub spreads: BTreeMap<&'static str, f64>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<String>,
    /// Benchmark-side spans (traced run only).
    pub spans: Vec<Span>,
    /// Median calibration rate, ops/s.
    pub cal_ops_per_s: f64,
    /// Spread of the calibration rate over the run.
    pub cal_spread: f64,
}

/// `(run ns, run-queue wait ns)` of this thread so far.
fn schedstat() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0));
    (it.next().unwrap_or(0.0), it.next().unwrap_or(0.0))
}

/// Peak resident set of the process (MiB), 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed iteration's host-side measurements.
struct Timed {
    wall_s: f64,
    cal_ops_per_s: f64,
    jobs: f64,
    events: f64,
    run_loop_ns: f64,
    batches: f64,
    allocs: f64,
    alloc_bytes: f64,
    /// Highest live heap during the iteration above the live heap at its
    /// start: the program's own peak, without the benchmark's buffers.
    peak_heap_bytes: f64,
    traced: bool,
}

impl Timed {
    /// Work per calibration op in the same host time.
    fn per_calop(&self, work: f64) -> f64 {
        work / (self.wall_s * self.cal_ops_per_s)
    }
}

/// The calibration slices of one run, in the order they ran.
struct Calibration<'a> {
    kernel: &'a mut Kernel,
    /// Rate of every slice so far, ops/s.
    rates: Vec<f64>,
    /// Slices that did not do the fixed work.
    errors: Vec<String>,
}

impl Calibration<'_> {
    /// Run one slice. Returns the mean rate of this slice and the one
    /// before it: the two neighbours of whatever ran in between.
    fn slice(&mut self) -> f64 {
        let s = self.kernel.slice();
        if s.checksum != calib::CHECKSUM || s.ops != calib::OPS {
            self.errors.push(format!(
                "calibration kernel did different work: checksum {:#x}, {} ops",
                s.checksum, s.ops
            ));
        }
        let before = self.rates.last().copied().unwrap_or(s.ops_per_s);
        self.rates.push(s.ops_per_s);
        (before + s.ops_per_s) / 2.0
    }
}

/// Run `spec` to completion. `started` is when the process (or, in a
/// full set, this workload's turn) began: set-up time counts from there.
pub fn run(spec: &RunSpec, kernel: &mut Kernel, started: Instant) -> RunResult {
    let mut errors: Vec<String> = Vec::new();
    let mut cal = Calibration {
        kernel,
        rates: Vec::new(),
        errors: Vec::new(),
    };
    // Smoke mode: one set-up, two iterations, whatever `seconds` says.
    let (setups, seconds) = if spec.quick {
        (1, 0.0)
    } else {
        (3, spec.seconds)
    };

    // ---- set-up, several times; the median is `setup_s` -------------
    let first_rate = cal.slice();
    let preamble_s = started.elapsed().as_secs_f64();
    let mut setup_wall = Vec::new();
    let mut setup_norm = Vec::new();
    let mut prepared: Option<(Box<dyn Workload>, u64)> = None;
    for _ in 0..setups {
        let t = Instant::now();
        let mut w = match workloads::build(&spec.workload, spec.seed, &spec.repo_root) {
            Ok(w) => w,
            Err(e) => return failed_run(spec, vec![e]),
        };
        let warm = w.warm_up(&mut Recorder::new());
        let cal_ops_per_s = cal.slice();
        let wall = t.elapsed().as_secs_f64();
        setup_wall.push(wall);
        setup_norm.push(wall * cal_ops_per_s);
        errors.extend(warm.errors.iter().cloned());
        if let Some((_, first)) = &prepared {
            if *first != warm.digest() {
                errors.push(
                    "set-up repeats of the same seed gave different simulated outputs".into(),
                );
            }
        }
        prepared = Some((w, warm.digest()));
    }
    let (mut w, warm_digest) = prepared.expect("at least one set-up");
    let scale = 1.0 / calib::NOMINAL_OPS_PER_S;
    let setup_s = (preamble_s * first_rate + median(&setup_norm)) * scale;
    let setup_wall_s = preamble_s + median(&setup_wall);

    // ---- the timed loop ----------------------------------------------
    let (cycle, min_iters) = if spec.quick {
        (w.cycle().min(2), 2)
    } else {
        (w.cycle(), w.cycle())
    };
    let mut rec = Recorder::new();
    let mut digests: Vec<Option<u64>> = vec![None; w.cycle()];
    digests[0] = Some(warm_digest);
    let mut pooled = IterOut::default(); // the first `cycle` iterations
    let mut timed: Vec<Timed> = Vec::new();
    let mut failed = 0u64;
    let (_, wait0) = schedstat();
    let loop_start = Instant::now();
    let mut i = 0usize;
    while i < min_iters || loop_start.elapsed().as_secs_f64() < seconds {
        let j = i % cycle;
        // The traced run alternates spans on and off, so its own
        // overhead is measured inside the run.
        let traced = spec.traced && i.is_multiple_of(2);
        rec.set_enabled(traced);
        rec.set_iteration(i as i64);
        let a0 = alloc::snapshot();
        let live0 = alloc::reset_peak();
        let t0 = Instant::now();
        let out = rec.span("bench.iteration", |r| w.iterate(j, r));
        let wall_s = t0.elapsed().as_secs_f64();
        let a1 = alloc::snapshot();
        let peak_heap_bytes = (alloc::peak_bytes() - live0) as f64;
        timed.push(Timed {
            wall_s,
            cal_ops_per_s: cal.slice(),
            jobs: out.completed as f64,
            events: out.events as f64,
            run_loop_ns: out.run_loop_ns as f64,
            batches: out.counts.get("runtime.batches"),
            allocs: (a1.allocs - a0.allocs) as f64,
            alloc_bytes: (a1.bytes - a0.bytes) as f64,
            peak_heap_bytes,
            traced,
        });
        let mut bad = !out.errors.is_empty();
        errors.extend(out.errors.iter().cloned());
        match digests[j] {
            Some(d) if d != out.digest() => {
                bad = true;
                errors.push(format!(
                    "iteration {i} (input set {j}) differs from an earlier run of the same seed"
                ));
            }
            _ => digests[j] = Some(out.digest()),
        }
        failed += bad as u64;
        if i < cycle {
            pooled.merge(out);
        }
        i += 1;
    }
    let loop_wall_s = loop_start.elapsed().as_secs_f64();
    let (_, wait1) = schedstat();
    // One pass over the input sets, like the simulated metrics: the same
    // seed gives the same value however many iterations the loop fits.
    let pass = &timed[..cycle.min(timed.len())];
    let peak_heap_mib = median(&pass.iter().map(|t| t.peak_heap_bytes).collect::<Vec<f64>>()) / MIB;
    rec.set_enabled(false);

    // ---- metrics -----------------------------------------------------
    pooled.latencies_ns.sort_unstable();
    let lat = &pooled.latencies_ns;
    let mut notes = vec![format!(
        "simulated metrics pool the first {cycle} iteration(s): {} latency samples, {} beyond p999",
        lat.len(),
        samples_beyond(lat.len(), 0.999)
    )];
    if pooled.attempted == 0 || pooled.delivered_bytes == 0 || lat.is_empty() {
        errors.push("workload produced no jobs, no delivered bytes or no latency samples".into());
    }
    let jobs_per_mcalop: Vec<f64> = timed.iter().map(|t| t.per_calop(t.jobs) * 1e6).collect();
    let mut spreads = BTreeMap::new();
    spreads.insert("jobs_per_mcalop", spread(&jobs_per_mcalop));
    spreads.insert("setup_s", spread(&setup_norm));

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let list = if spec.traced {
        rec.set_enabled(true);
        rec.set_iteration(spans::PROBE_ITERATION);
        let mut probe_counts = Counts::default();
        w.probes(&mut rec, &mut probe_counts);
        pooled.counts.merge(&probe_counts);
        layer_metrics(&mut values, &pooled, cycle, &timed, rec.spans());
        values.insert("host.setup_wall_s", setup_wall_s);
        values.insert("host.runq_wait_share", (wait1 - wait0) / 1e9 / loop_wall_s);
        values.insert("host.peak_rss_mib", peak_rss_mib());
        values.insert("host.cal_mops", median(&cal.rates) / 1e6);
        values.insert("host.cal_spread", spread(&cal.rates));
        notes.push(format!(
            "per-layer times are medians over {} span-recording iteration(s); counts are totals of the pooled iteration(s)",
            timed.iter().filter(|t| t.traced).count()
        ));
        PER_LAYER
    } else {
        values.insert("setup_s", setup_s);
        values.insert("jobs_per_mcalop", median(&jobs_per_mcalop));
        values.insert("peak_heap_mib", peak_heap_mib);
        values.insert("sim_latency_p50_us", nearest_rank(lat, 0.50) as f64 / 1e3);
        values.insert("sim_latency_p999_us", nearest_rank(lat, 0.999) as f64 / 1e3);
        values.insert(
            "wire_amplification",
            pooled.wire_bytes as f64 / pooled.delivered_bytes.max(1) as f64,
        );
        values.insert(
            "completed_share",
            pooled.completed as f64 / pooled.attempted.max(1) as f64,
        );
        END_TO_END
    };
    let metrics: Vec<(MetricDef, f64)> = list
        .iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            (*def, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    if !spec.traced {
        for (def, v) in &metrics {
            if *v <= 0.0 {
                errors.push(format!(
                    "end-to-end metric {} is not positive: {v}",
                    def.name
                ));
            }
        }
    }
    errors.append(&mut cal.errors);
    errors.dedup();

    RunResult {
        workload: spec.workload.clone(),
        traced: spec.traced,
        correct: errors.is_empty(),
        errors,
        attempted: timed.len() as u64,
        failed,
        metrics,
        spreads,
        notes,
        cal_ops_per_s: median(&cal.rates),
        cal_spread: spread(&cal.rates),
        spans: rec.into_spans(),
    }
}

fn failed_run(spec: &RunSpec, errors: Vec<String>) -> RunResult {
    RunResult {
        workload: spec.workload.clone(),
        traced: spec.traced,
        errors,
        attempted: 1,
        failed: 1,
        ..RunResult::default()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fill `values` with every per-layer metric the run can compute;
/// `pooled` holds the first `cycle` iterations.
fn layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    pooled: &IterOut,
    cycle: usize,
    timed: &[Timed],
    all_spans: &[Span],
) {
    // Host time of spans: `<span name>_<ms|us>` is the median isolated
    // probe call when the span was probed, else the median over
    // span-recording iterations of the iteration's total in that span.
    let span_ns = |name: &str| -> f64 {
        let probed = spans::probe_durations(all_spans, name);
        if probed.is_empty() {
            median(&spans::totals_by_iteration(all_spans, name))
        } else {
            median(&probed)
        }
    };
    for def in PER_LAYER {
        let span = match def.unit {
            "ms" => def.name.strip_suffix("_ms").map(|stem| (stem, 1e6)),
            "us" => def.name.strip_suffix("_us").map(|stem| (stem, 1e3)),
            _ => None,
        };
        if let Some((stem, ns_per_unit)) = span {
            values.insert(def.name, span_ns(stem) / ns_per_unit);
        }
    }

    let c = &pooled.counts;
    let on: Vec<&Timed> = timed.iter().filter(|t| t.traced).collect();
    let off: Vec<&Timed> = timed.iter().filter(|t| !t.traced).collect();
    let med = |ts: &[&Timed], f: &dyn Fn(&Timed) -> f64| -> f64 {
        median(&ts.iter().map(|t| f(t)).collect::<Vec<f64>>())
    };
    let every: Vec<&Timed> = timed.iter().collect();

    // simnet
    values.insert("simnet.run_loop_ms", med(&every, &|t| t.run_loop_ns) / 1e6);
    values.insert(
        "simnet.ns_per_event",
        ratio(
            timed.iter().map(|t| t.run_loop_ns).sum(),
            timed.iter().map(|t| t.events).sum(),
        ),
    );
    values.insert(
        "simnet.events_per_calop",
        med(&every, &|t| t.per_calop(t.events)),
    );
    for key in [
        "simnet.events",
        "simnet.peak_queue_depth",
        "simnet.wire_bytes",
        "simnet.max_link_bytes",
        "simnet.fault_drops",
        "simnet.rnr_drops",
        "simnet.downtime_ns",
        "core.fetched_chunks",
        "runtime.batches",
        "runtime.pool_rebuilds",
        "runtime.rejected",
        "runtime.censored",
        "runtime.retried",
        "runtime.gave_up",
        "runtime.sm_rebuilds",
        "faults.transitions",
        "trace.events_offered",
        "trace.events_kept",
        "exec.digest_equal",
    ] {
        values.insert(key, c.get(key));
    }
    values.insert(
        "simnet.max_link_excess",
        ratio(
            c.get("simnet.max_link_bytes"),
            c.get("simnet.link_lower_bound_bytes"),
        ),
    );

    // core: the driver's own host time is its span minus the event loop.
    let driver_ns: f64 = [
        "core.run_collective",
        "core.agrs_inswitch",
        "core.agrs_endpoint",
    ]
    .iter()
    .map(|name| median(&spans::totals_by_iteration(all_spans, name)))
    .sum();
    if driver_ns > 0.0 {
        values.insert(
            "core.driver_overhead_ms",
            (driver_ns - med(&on, &|t| t.run_loop_ns)).max(0.0) / 1e6,
        );
    }
    for (metric, key) in [
        ("core.sim_sync_us", "core.sim_sync_ns"),
        ("core.sim_datapath_us", "core.sim_datapath_ns"),
        ("core.sim_final_us", "core.sim_final_ns"),
    ] {
        values.insert(metric, ratio(c.get(key), c.get("core.ranks")) / 1e3);
    }
    values.insert(
        "core.fetch_share",
        ratio(c.get("core.fetched_chunks"), c.get("core.chunks_expected")),
    );

    // runtime
    let open_loop_ns = spans::totals_by_iteration(all_spans, "runtime.run_open_loop");
    values.insert(
        "runtime.us_per_batch",
        ratio(
            open_loop_ns.iter().sum(),
            on.iter().map(|t| t.batches).sum(),
        ) / 1e3,
    );
    let records = c.get("runtime.jobs") + c.get("runtime.censored");
    values.insert(
        "runtime.jobs_per_batch",
        ratio(records, c.get("runtime.batches")),
    );
    values.insert(
        "runtime.pool_hit_rate",
        ratio(
            c.get("runtime.pool_hits"),
            c.get("runtime.pool_acquisitions"),
        ),
    );
    values.insert(
        "runtime.sim_queue_share",
        ratio(c.get("runtime.queue_ns"), c.get("runtime.sojourn_ns")),
    );
    values.insert(
        "runtime.sim_utilization",
        ratio(c.get("runtime.busy_ns"), c.get("runtime.capacity_ns")),
    );
    for (metric, set) in [("runtime.x05_p999_us", "x05"), ("runtime.x8_p999_us", "x8")] {
        if let Some((_, samples)) = pooled.samples.iter().find(|(n, _)| *n == set) {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            values.insert(metric, nearest_rank(&sorted, 0.999) as f64 / 1e3);
        }
    }
    values.insert(
        "runtime.x8_reject_share",
        ratio(c.get("runtime.x8_rejected"), c.get("runtime.x8_offered")),
    );

    // trace
    values.insert(
        "trace.export_mib",
        ratio(c.get("trace.export_bytes"), cycle as f64) / MIB,
    );
    let traced_ns = median(&spans::probe_durations(all_spans, "trace.probe_traced"));
    let untraced_ns = median(&spans::probe_durations(all_spans, "trace.probe_untraced"));
    if untraced_ns > 0.0 {
        values.insert("trace.record_overhead_share", traced_ns / untraced_ns - 1.0);
    }

    // exec, baselines
    values.insert(
        "exec.par_map_j2_speedup",
        ratio(
            median(&spans::probe_durations(all_spans, "exec.par_map_j1")),
            median(&spans::probe_durations(all_spans, "exec.par_map_j2")),
        ),
    );
    values.insert(
        "baselines.ring_wire_ratio",
        ratio(
            c.get("baselines.ring_wire_bytes"),
            c.get("baselines.mcast_wire_bytes"),
        ),
    );

    // host
    let wall_ms: Vec<f64> = timed.iter().map(|t| t.wall_s * 1e3).collect();
    values.insert("host.iter_wall_ms_p50", median(&wall_ms));
    values.insert("host.iter_wall_ms_p75", quartiles(&wall_ms).1);
    values.insert("host.events_per_s", med(&every, &|t| t.events / t.wall_s));
    values.insert("host.jobs_per_s", med(&every, &|t| t.jobs / t.wall_s));
    values.insert("host.allocs_per_iter", med(&off, &|t| t.allocs));
    values.insert(
        "host.alloc_mib_per_iter",
        med(&off, &|t| t.alloc_bytes) / MIB,
    );
    // Span cost: the same work per calibration op with and without spans.
    let with = med(&on, &|t| t.per_calop(t.jobs));
    let without = med(&off, &|t| t.per_calop(t.jobs));
    if with > 0.0 && without > 0.0 {
        values.insert("host.span_overhead_share", without / with - 1.0);
    }
    // What the named child spans leave uncovered of the iteration span.
    let own = spans::self_times_ns(all_spans);
    let (mut root_ns, mut root_self_ns) = (0.0, 0.0);
    for (s, own_ns) in all_spans.iter().zip(&own) {
        if s.name == "bench.iteration" {
            root_ns += s.dur_ns() as f64;
            root_self_ns += *own_ns as f64;
        }
    }
    values.insert("host.unattributed_share", ratio(root_self_ns, root_ns));
}
