//! Recovery study: **what a fault-aware scheduler buys** — the same
//! damaged fabric, scheduled obliviously vs reactively, reported as the
//! sojourn-time tail of a multi-tenant open-loop workload.
//!
//! Every cell is a fault model × rate × scheduler triple run over
//! hundreds of independent seeds. Each seed drives one open-loop run on
//! a two-partition runtime whose partition 0 carries the seed's
//! compiled `mcag-faults` schedule as its standing hazard environment
//! (every batch routed there replays it relative to its own launch)
//! while partition 1 is clean — the "one damaged SM domain" scenario.
//! The **oblivious** scheduler steers by partition index and eats the
//! watchdog-censored batches; the **reactive** scheduler reads the same
//! fault telemetry the SM has (the compiled schedule), quarantines the
//! damaged partition, and retries any censored stragglers with backoff.
//! The headline is the pooled per-job p999: reactive must beat
//! oblivious under both the flapping-port and switch-failure models at
//! matched rates — asserted before anything is written.
//!
//! The sweep runs twice, `jobs = 1` then `jobs = 4`, through
//! [`study::sweep`], which **asserts the two passes' digests
//! byte-identical**. All reported quantities are simulated-time
//! integers, so the full study's `BENCH_recovery.json` baseline
//! reproduces byte-identically on any host; `recoveryfigs_smoke` is the
//! bounded CI variant.

use crate::data::FigData;
use crate::study::{self, Obj};
use mcag_faults::{FaultModel, FaultPlan};
use mcag_models::nearest_rank;
use mcag_runtime::{
    OpMix, PoolConfig, RateProcess, ReactivePolicy, Runtime, RuntimeConfig, RuntimeReport, Workload,
};
use mcag_simnet::{LinkSchedule, Topology};
use mcag_verbs::LinkRate;

/// Watchdog grant for every run, in summed-cutoff multiples: tight
/// enough that a censored batch costs bounded simulated time, loose
/// enough that healthy batches never graze it.
pub const SWEEP_WATCHDOG_CUTOFFS: u64 = 8;

/// The failure processes the study compares (the two the acceptance
/// bar names: both must show a reactive p999 win at matched rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFault {
    /// Port up/down duty cycling on a fraction of partition 0's cables.
    Flapping,
    /// Whole switches dark for an outage window covering the batch.
    SwitchFail,
}

impl RecoveryFault {
    /// All kinds, sweep order.
    pub const ALL: [RecoveryFault; 2] = [RecoveryFault::Flapping, RecoveryFault::SwitchFail];

    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryFault::Flapping => "flapping",
            RecoveryFault::SwitchFail => "switch",
        }
    }
}

/// One simulation of the sweep: a grid cell plus the seed that draws
/// its victims and its arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRun {
    /// Failure process on partition 0.
    pub model: RecoveryFault,
    /// Failure rate (fraction of ports; switch count via ceil).
    pub rate: f64,
    /// Reactive scheduling (steering + quarantine + retry) vs
    /// partition-index-oblivious.
    pub reactive: bool,
    /// Victim-selection and workload seed.
    pub seed: u64,
}

/// Everything about one run that must be identical across worker
/// counts — simulated-time integers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryDigest {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs recorded censored (never completed).
    pub censored: u64,
    /// Timed-out jobs re-formed into a later batch (reactive only).
    pub retried: u64,
    /// Retried jobs whose budget ran out (reactive only).
    pub gave_up: u64,
    /// Multicast trees the SM re-routed mid-batch (reactive only).
    pub sm_rebuilds: u64,
    /// Batches that hit the recovery cutoff.
    pub timed_out_batches: u64,
    /// Packet copies lost to down links.
    pub fault_drops: u64,
    /// Virtual time of the last commit (ns).
    pub makespan_ns: u64,
    /// Per-record sojourn (submit → finish/censor), completion order.
    pub latencies_ns: Vec<u64>,
}

fn digest(report: &RuntimeReport) -> RecoveryDigest {
    RecoveryDigest {
        admitted: report.tenants.iter().map(|t| t.submitted).sum(),
        completed: report.completed_jobs() as u64,
        censored: report.timed_out_jobs() as u64,
        retried: report.retry.retried_jobs,
        gave_up: report.retry.gave_up_jobs,
        sm_rebuilds: report.retry.sm_rebuilds,
        timed_out_batches: report.retry.timed_out_batches,
        fault_drops: report.partitions.iter().map(|p| p.fault_drops).sum(),
        makespan_ns: report.makespan_ns,
        latencies_ns: report.jobs.iter().map(|j| j.latency_ns()).collect(),
    }
}

fn sweep_topology() -> Topology {
    Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
}

/// Partition 0's standing hazard for one run. Windows are sized against
/// the batch lifetime (healthy batches finish in well under 200 µs, the
/// flap/outage windows span milliseconds), so every batch steered onto
/// the damaged partition launches into active damage.
pub fn hazard_plan(run: &RecoveryRun, topo: &Topology) -> FaultPlan {
    let plan = FaultPlan::new(0xFA01 + run.seed);
    match run.model {
        RecoveryFault::Flapping => plan.with(FaultModel::FlappingPort {
            fraction: run.rate,
            period_ns: 40_000,
            down_ns: 30_000,
            start_ns: 0,
            end_ns: 8_000_000,
        }),
        RecoveryFault::SwitchFail => plan.with(FaultModel::SwitchFailure {
            switches: (run.rate * topo.num_switches() as f64).ceil().max(1.0) as u32,
            start_ns: 2_000,
            downtime_ns: 5_000_000,
        }),
    }
}

/// Run one sweep cell-seed to its digest: two partitions, partition 0
/// damaged, a seeded Poisson multi-tenant stream, oblivious or reactive
/// scheduling over the identical fabric and workload.
pub fn run_one(run: &RecoveryRun) -> RecoveryDigest {
    let topo = sweep_topology();
    let hazard = hazard_plan(run, &topo).compile(&topo);
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(32),
        max_inflight: 4,
        partitions: 2,
        partition_faults: vec![hazard, LinkSchedule::empty()],
        reactive: run.reactive.then(ReactivePolicy::default),
        watchdog_cutoffs: SWEEP_WATCHDOG_CUTOFFS,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(topo, cfg);
    for i in 0..6 {
        rt.register_tenant(&format!("t{i}"));
    }
    let workload = Workload {
        tenants: 6,
        horizon_ns: 600_000 * 12,
        rate: RateProcess::Poisson {
            mean_interarrival_ns: 600_000,
        },
        mix: OpMix {
            allgather_weight: 2,
            broadcast_weight: 1,
            agrs_weight: 1,
            min_send_len: 4 << 10,
            max_send_len: 16 << 10,
            ranks: 8,
        },
        seed: 0x10AD + run.seed,
    };
    rt.load_arrivals(&workload.generate());
    digest(&rt.run_open_loop())
}

/// The smoke or full sweep grid, cell-major (seeds innermost);
/// oblivious and reactive runs of one `(model, rate, seed)` share the
/// identical hazard schedule and arrival stream, so every comparison is
/// paired.
pub fn sweep_runs(smoke: bool) -> Vec<RecoveryRun> {
    let (rates, seeds): (&[f64], u64) = if smoke {
        (&[0.3], 24)
    } else {
        (&[0.1, 0.3], 200)
    };
    let mut runs = Vec::new();
    for model in RecoveryFault::ALL {
        for &rate in rates {
            for reactive in [false, true] {
                for seed in 0..seeds {
                    runs.push(RecoveryRun {
                        model,
                        rate,
                        reactive,
                        seed,
                    });
                }
            }
        }
    }
    runs
}

/// The recovery study: flapping and switch-failure models × two rates
/// × both schedulers, 200 seeds per cell (the recorded baseline), or
/// (smoke) both models at the high rate, 24 seeds per cell.
pub fn recoveryfigs(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let runs = sweep_runs(smoke);
    let sweep = study::sweep(study::PASSES, &runs, |_| 0, run_one);

    let mut f = FigData::new(
        "recoveryfigs",
        "Recovery study: oblivious vs reactive scheduling on a damaged partition (sojourn tail)",
        &[
            "model",
            "rate",
            "sched",
            "seeds",
            "jobs",
            "censored",
            "retried",
            "gave up",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "max (us)",
        ],
    );
    let (mut rows, mut p999s) = (Vec::new(), Vec::new());
    for ((model, rate, reactive), picked) in
        sweep.group_by(&runs, |r| (r.model, r.rate, r.reactive))
    {
        let mut lat: Vec<u64> = picked
            .iter()
            .flat_map(|d| d.latencies_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        assert!(!lat.is_empty(), "cell produced no job records");
        let [p50, p99, p999] = [0.50, 0.99, 0.999].map(|q| nearest_rank(&lat, q));
        let max = lat[lat.len() - 1];
        let sum = |field: fn(&RecoveryDigest) -> u64| picked.iter().map(|d| field(d)).sum::<u64>();
        let (censored, retried, gave_up) =
            (sum(|d| d.censored), sum(|d| d.retried), sum(|d| d.gave_up));
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        f.row(vec![
            model.label().to_string(),
            format!("{rate:.2}"),
            scheduler(reactive).to_string(),
            picked.len().to_string(),
            lat.len().to_string(),
            censored.to_string(),
            retried.to_string(),
            gave_up.to_string(),
            us(p50),
            us(p99),
            us(p999),
            us(max),
        ]);
        rows.push(
            Obj::new()
                .str("model", model.label())
                .float("rate", rate, 2)
                .str("scheduler", scheduler(reactive))
                .int("seeds", picked.len() as u64)
                .int("jobs", lat.len() as u64)
                .int("completed", sum(|d| d.completed))
                .int("censored", censored)
                .int("retried", retried)
                .int("gave_up", gave_up)
                .int("sm_rebuilds", sum(|d| d.sm_rebuilds))
                .int("timed_out_batches", sum(|d| d.timed_out_batches))
                .int("fault_drops", sum(|d| d.fault_drops))
                .int("p50_ns", p50)
                .int("p99_ns", p99)
                .int("p999_ns", p999)
                .int("max_ns", max),
        );
        p999s.push((reactive, p999));
    }
    // The acceptance bar: under both named fault models, at every
    // matched rate, the reactive scheduler's pooled p999 beats the
    // oblivious one's.
    let reactive_wins = p999s.chunks(2).all(|pair| {
        let [(false, obl), (true, rea)] = pair else {
            panic!("cell order broken: {pair:?}")
        };
        rea < obl
    });
    f.note(format!(
        "mode={mode}; two-partition runtime, partition 0 replays the seed's compiled fault \
         schedule per batch, partition 1 clean; paired seeds — oblivious and reactive runs of a \
         cell share the identical hazard and arrival stream",
    ));
    f.note(
        "oblivious steers by partition index and records watchdog-censored jobs; reactive \
         quarantines the damaged partition on SM fault telemetry and retries censored \
         stragglers with capped exponential backoff",
    );
    f.note(format!(
        "acceptance asserted before writing: reactive p999 < oblivious p999 for every \
         (model, rate) pair; watchdog = {SWEEP_WATCHDOG_CUTOFFS}x summed cutoffs",
    ));
    sweep.note_passes(&mut f);

    // Only simulated-time integers, so the file is byte-identical across
    // hosts and repeated runs — CI diffs two smoke passes to enforce it.
    let doc = Obj::new()
        .str("generator", "figures recoveryfigs")
        .str("mode", mode)
        .str("topology", "fat-tree 8 hosts / 2 leaves / 2 spines CX3_56G")
        .int("watchdog_cutoffs", SWEEP_WATCHDOG_CUTOFFS)
        .str(
            "interpretation",
            "one row per (fault model, rate, scheduler) cell; latencies are per-job sojourns \
             (submit to finish, censored jobs carry their censoring instant) pooled over all \
             seeds, percentiles nearest-rank. Oblivious and reactive rows of a pair share \
             identical per-seed hazards and arrival streams. Each cell ran at jobs=1 and jobs=4 \
             and the digests were asserted byte-identical before this file was written.",
        )
        .gate("results_identical", sweep.cross_checked())
        .gate("reactive_p999_beats_oblivious", reactive_wins)
        .rows("cells", rows);
    study::attach(&mut f, "recovery", smoke, &doc);
    f
}

fn scheduler(reactive: bool) -> &'static str {
    if reactive {
        "reactive"
    } else {
        "oblivious"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_pair_oblivious_with_reactive() {
        for smoke in [false, true] {
            let runs = sweep_runs(smoke);
            // Every (model, rate, seed) appears exactly once per
            // scheduler, so cell aggregation sees paired halves and the
            // acceptance check can chunk cells two at a time.
            let (obl, rea): (Vec<&RecoveryRun>, Vec<&RecoveryRun>) =
                runs.iter().partition(|r| !r.reactive);
            assert_eq!(obl.len(), rea.len());
            for model in RecoveryFault::ALL {
                assert!(runs.iter().any(|r| r.model == model));
            }
        }
        assert!(sweep_runs(false).len() >= 2 * sweep_runs(true).len());
    }

    #[test]
    fn paired_runs_share_hazard_and_differ_only_in_scheduling() {
        let topo = sweep_topology();
        let mk = |reactive| RecoveryRun {
            model: RecoveryFault::SwitchFail,
            rate: 0.3,
            reactive,
            seed: 7,
        };
        let a = hazard_plan(&mk(false), &topo).compile(&topo);
        let b = hazard_plan(&mk(true), &topo).compile(&topo);
        assert_eq!(a.events(), b.events(), "paired hazards must match");
        assert!(!a.is_empty());
    }

    #[test]
    fn single_run_is_deterministic_and_reactive_beats_oblivious() {
        let mk = |reactive| RecoveryRun {
            model: RecoveryFault::SwitchFail,
            rate: 0.3,
            reactive,
            seed: 3,
        };
        let obl = run_one(&mk(false));
        assert_eq!(obl, run_one(&mk(false)));
        let rea = run_one(&mk(true));
        assert!(obl.censored > 0, "oblivious must eat censored jobs");
        assert_eq!(rea.gave_up, 0, "reactive has a clean partition to flee to");
        let max = |d: &RecoveryDigest| d.latencies_ns.iter().copied().max().unwrap();
        assert!(max(&rea) < max(&obl));
    }
}
