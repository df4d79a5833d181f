//! Golden guarantees of the fault-aware scheduling stack:
//!
//! * a **reactive faulted multi-tenant run** — damaged partition,
//!   steering, quarantine, retries, SM telemetry — is byte-identical at
//!   `jobs = 1` and `jobs = 4`, report *and* flight-recorder trace;
//! * on the golden scenario, the reactive scheduler's p999 sojourn is
//!   strictly no worse than the oblivious scheduler's over the same
//!   per-seed hazards and arrival streams;
//! * the retry pipeline is observable end to end: a dead fabric censors
//!   every attempt, the retry counters reconcile, and the record carries
//!   the attempt count;
//! * the oblivious golden scenario's trace under a switch failure,
//!   censored batches overlapping later ones included, is pinned byte
//!   for byte: its `Debug` rendering and its Chrome export.

mod common;

use mcag_bench::recoveryfigs::{run_one, RecoveryFault, RecoveryRun};
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::runtime::{
    BatchSpan, JobKind, JobRecord, OpMix, PoolConfig, RateProcess, ReactivePolicy, Runtime,
    RuntimeConfig, RuntimeReport, RuntimeTrace, TraceSpec, Workload,
};
use mcast_allgather::simnet::{LinkSchedule, Topology};
use mcast_allgather::trace::{export_chrome, ChromeOptions};
use mcast_allgather::verbs::LinkRate;

fn golden_topo() -> Topology {
    Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
}

/// The golden hazard: 30 % of ports flapping hard for 8 ms.
const FLAPPING: FaultModel = FaultModel::FlappingPort {
    fraction: 0.3,
    period_ns: 40_000,
    down_ns: 30_000,
    start_ns: 0,
    end_ns: 8_000_000,
};

/// The golden runtime: two partitions, `hazard` on partition 0, six
/// tenants, reactive (`Some`) or oblivious scheduling; nothing submitted.
fn golden_runtime(
    hazard: FaultModel,
    reactive: Option<ReactivePolicy>,
    spec: Option<TraceSpec>,
) -> Runtime {
    let topo = golden_topo();
    let hazard = FaultPlan::new(0xC0FE).with(hazard).compile(&topo);
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig {
            pool: PoolConfig::with_capacity(32),
            max_inflight: 4,
            partitions: 2,
            partition_faults: vec![hazard, LinkSchedule::empty()],
            reactive,
            watchdog_cutoffs: 8,
            trace: spec,
            ..RuntimeConfig::default()
        },
    );
    for i in 0..6 {
        rt.register_tenant(&format!("t{i}"));
    }
    rt
}

/// The golden scenario: the golden runtime with its six tenants offering
/// a Poisson mix.
fn golden_run(
    hazard: FaultModel,
    reactive: Option<ReactivePolicy>,
    jobs: usize,
    spec: Option<TraceSpec>,
) -> (RuntimeReport, Option<RuntimeTrace>) {
    let mut rt = golden_runtime(hazard, reactive, spec);
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
        seed: 0xD1CE,
    };
    rt.load_arrivals(&workload.generate());
    let report = rt.run_open_loop_jobs(jobs);
    let trace = rt.take_trace();
    (report, trace)
}

#[test]
fn reactive_faulted_run_identical_across_worker_counts() {
    let (r1, t1) = golden_run(
        FLAPPING,
        Some(ReactivePolicy),
        1,
        Some(TraceSpec::default()),
    );
    let (r4, t4) = golden_run(
        FLAPPING,
        Some(ReactivePolicy),
        4,
        Some(TraceSpec::default()),
    );
    assert!(
        r1.completed_jobs() > 0,
        "golden scenario must make progress"
    );
    assert_eq!(r1, r4, "report diverged across worker counts");
    assert_eq!(t1, t4, "trace diverged across worker counts");
    // Byte-identical all the way out to the Perfetto export.
    let (t1, t4) = (t1.unwrap(), t4.unwrap());
    assert_eq!(
        export_chrome(&t1, &ChromeOptions::default()),
        export_chrome(&t4, &ChromeOptions::default())
    );
}

/// FNV-1a of `format!("{trace:?}")` for the oblivious golden scenario
/// under a switch failure.
const CENSORED_TRACE_DIGEST: u64 = 590_875_770_147_001_217;
/// FNV-1a of that trace's Chrome export under default options.
const CENSORED_EXPORT_DIGEST: u64 = 165_627_641_603_987_388;

/// The hazard of the censored-trace test: two switches down from 2 µs
/// for 5 ms of every batch on partition 0.
const SWITCH_FAILURE: FaultModel = FaultModel::SwitchFailure {
    switches: 2,
    start_ns: 2_000,
    downtime_ns: 5_000_000,
};

/// The last instant `job` records a fabric event at, on its own batch
/// fabric's clock: the job alone on a fresh golden runtime. A batch's
/// fabric run is a function of its partition and its slots alone, so a
/// one-job batch records the same events wherever it runs.
fn last_local_event_ns(job: &JobRecord) -> u64 {
    let mut rt = golden_runtime(SWITCH_FAILURE, None, Some(TraceSpec::default()));
    rt.submit(job.tenant, job.kind, job.send_len).unwrap();
    let report = rt.run_open_loop();
    assert_eq!(report.jobs[0].partition, job.partition);
    let trace = rt.take_trace().expect("tracing was on");
    let batch = &trace.batches[0];
    trace
        .fabric
        .last()
        .expect("the batch recorded events")
        .at_ns()
        - batch.start_ns
        - batch.setup_ns
}

#[test]
fn censored_traced_run_keeps_its_bytes() {
    let (report, trace) = golden_run(SWITCH_FAILURE, None, 1, Some(TraceSpec::default()));
    assert!(
        report.retry.timed_out_batches > 0,
        "the scenario must censor a batch"
    );
    let trace = trace.expect("tracing was on");
    // A censored batch records events past its own cutoff (packets
    // queued behind a down link start when it comes back up), so its
    // fabric events run past the start of a later batch on its
    // partition. The trace harvest must not assume runs on one
    // partition are disjoint.
    let reaches_a_later_batch = |cut: &BatchSpan| {
        let job = report.jobs.iter().find(|j| j.batch == cut.batch).unwrap();
        if cut.jobs != 1 || !job.timed_out {
            return false;
        }
        let last_ns = cut.start_ns + cut.setup_ns + last_local_event_ns(job);
        trace.batches.iter().any(|b| {
            b.partition == cut.partition && b.start_ns >= cut.end_ns && b.start_ns < last_ns
        })
    };
    assert!(
        trace.batches.iter().any(reaches_a_later_batch),
        "no censored batch's events reach into a later batch on its partition"
    );
    let export = export_chrome(&trace, &ChromeOptions::default());
    assert_eq!(
        (common::fnv64(&format!("{trace:?}")), common::fnv64(&export)),
        (CENSORED_TRACE_DIGEST, CENSORED_EXPORT_DIGEST),
    );
}

#[test]
fn oblivious_faulted_run_identical_across_worker_counts() {
    let (r1, _) = golden_run(FLAPPING, None, 1, None);
    let (r4, _) = golden_run(FLAPPING, None, 4, None);
    assert_eq!(r1, r4, "oblivious report diverged across worker counts");
}

#[test]
fn reactive_p999_no_worse_than_oblivious_on_the_golden_scenario() {
    // Pool per-job sojourns over a handful of paired seeds (identical
    // hazard + arrival stream per seed, only the scheduler differs) for
    // both fault models the acceptance bar names.
    for model in [RecoveryFault::Flapping, RecoveryFault::SwitchFail] {
        let pooled = |reactive: bool| -> Vec<u64> {
            let mut lat: Vec<u64> = (0..8)
                .flat_map(|seed| {
                    run_one(&RecoveryRun {
                        model,
                        rate: 0.3,
                        reactive,
                        seed,
                    })
                    .latencies_ns
                })
                .collect();
            lat.sort_unstable();
            lat
        };
        let (obl, rea) = (pooled(false), pooled(true));
        assert_eq!(obl.len(), rea.len(), "paired runs record the same jobs");
        let p999 = |lat: &[u64]| lat[((lat.len() * 999).div_ceil(1000)).max(1) - 1];
        assert!(
            p999(&rea) <= p999(&obl),
            "reactive p999 worse than oblivious under {:?}: {} vs {} ns",
            model,
            p999(&rea),
            p999(&obl),
        );
    }
}

#[test]
fn retry_counters_reconcile_on_a_dead_fabric() {
    // Single partition, every link dead forever: the reactive runtime
    // must censor each attempt, burn the full retry budget with backoff,
    // and record one censored job whose counters reconcile — never hang
    // or panic.
    let topo = golden_topo();
    let all_down = LinkSchedule::new(
        (0..topo.num_links() as u32)
            .map(|l| {
                mcast_allgather::simnet::LinkStateEvent::down(0, mcast_allgather::simnet::LinkId(l))
            })
            .collect(),
    );
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            partition_faults: vec![all_down],
            reactive: Some(ReactivePolicy),
            watchdog_cutoffs: 4,
            ..RuntimeConfig::default()
        },
    );
    let t = rt.register_tenant("doomed");
    rt.submit(t, JobKind::Allgather, 8 << 10).unwrap();
    let report = rt.run_open_loop();
    assert_eq!(report.completed_jobs(), 0);
    assert_eq!(report.timed_out_jobs(), 1);
    assert_eq!(report.retry.gave_up_jobs, 1);
    assert_eq!(
        report.retry.retried_jobs,
        (ReactivePolicy::MAX_ATTEMPTS - 1) as u64,
        "every attempt but the last is a retry"
    );
    assert!(
        report.retry.backoff_ns_sum > 0,
        "retries waited out backoff"
    );
    let rec = &report.jobs[0];
    assert!(rec.timed_out);
    assert_eq!(rec.attempts, ReactivePolicy::MAX_ATTEMPTS);
    // Censored sojourn is surfaced in the tenant aggregates too.
    assert_eq!(report.tenants[0].timed_out, 1);
    assert!(report.tenants[0].censored_ns_sum >= rec.latency_ns());
}
