//! Parallel-executor scaling: the wall-clock trajectory of the fork-join
//! sweep path (`mcag_exec`) on a fixed simulation sweep.
//!
//! The workload is the 188-node UCC-testbed sweep (Broadcast and
//! Allgather across message sizes — the shape of every Fig. 10–12 cell),
//! run to completion at `jobs = 1`, `2`, and `4` through
//! [`study::sweep`], which **asserts the per-simulation digests
//! (completion time, engine events, link bytes) byte-identical across
//! all `jobs` values** — the speedup table doubles as a determinism
//! check.
//!
//! The full study's baseline is `BENCH_parallel.json` (checked in — the
//! recorded scaling baseline, including the recording host's available
//! parallelism, without which the speedup column cannot be interpreted);
//! `parallel_scaling_smoke` runs a bounded variant on a 16-rank star.

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::{des, CollectiveKind, ProtocolConfig};
use mcag_exec::default_jobs;
use mcag_simnet::{FabricConfig, Topology};
use mcag_verbs::{LinkRate, Rank};

/// Worker counts of the scaling passes — the content of this study.
const JOB_COUNTS: &[usize] = &[1, 2, 4];

/// One simulation of the sweep workload: `(kind, send_len)` on the
/// mode's topology. Plain `Send + Sync` data — the compile-time
/// guarantee lives in `tests/send_safety.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// Collective to run.
    pub kind: CollectiveKind,
    /// Bytes per root.
    pub send_len: usize,
}

/// Result digest of one simulation — everything that must be identical
/// across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepDigest {
    /// Simulated completion time (ns).
    pub completion_ns: u64,
    /// Engine events processed.
    pub events: u64,
    /// Payload bytes over all links.
    pub data_bytes: u64,
}

/// The sweep workload (full: the 188-node UCC testbed; smoke: a bounded
/// 16-rank star).
pub fn sweep_jobs(smoke: bool) -> Vec<SweepJob> {
    let sizes: &[usize] = if smoke {
        &[8 << 10, 16 << 10, 32 << 10]
    } else {
        &[64 << 10, 128 << 10, 256 << 10]
    };
    let mut jobs = Vec::new();
    for &send_len in sizes {
        for kind in [
            CollectiveKind::Broadcast { root: Rank(0) },
            CollectiveKind::Allgather,
        ] {
            jobs.push(SweepJob { kind, send_len });
        }
    }
    jobs
}

fn sweep_topology(smoke: bool) -> Topology {
    if smoke {
        Topology::single_switch(16, LinkRate::CX3_56G, 100)
    } else {
        Topology::ucc_testbed()
    }
}

/// Run one simulation of the sweep to its digest.
pub fn run_job(smoke: bool, job: &SweepJob) -> SweepDigest {
    let proto = ProtocolConfig {
        mtu: sim_mtu_for(job.send_len),
        ..ProtocolConfig::default()
    };
    let out = des::run_collective(
        sweep_topology(smoke),
        FabricConfig::ucc_default(),
        proto,
        job.kind,
        job.send_len,
    );
    assert!(out.stats.all_done(), "sweep job {job:?} did not complete");
    SweepDigest {
        completion_ns: out.completion_ns(),
        events: out.stats.events,
        data_bytes: out.traffic.total_data_bytes(),
    }
}

/// The parallel-scaling study: the recorded baseline, or (smoke) the
/// same pass structure on a 16-rank star.
pub fn parallel_scaling(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let jobs = sweep_jobs(smoke);
    let sweep = study::sweep(JOB_COUNTS, &jobs, |_| 0, |j| run_job(smoke, j));
    let serial_ns = sweep.passes[0].1 as f64;
    let speedup = |wall_ns: u64| serial_ns / wall_ns.max(1) as f64;

    let host = default_jobs();
    let mut f = FigData::new(
        "parallel_scaling",
        "Fork-join sweep executor: figure-sweep wall clock vs worker count",
        &[
            "jobs",
            "wall (ms)",
            "speedup vs jobs=1",
            "results identical",
        ],
    );
    for &(workers, wall_ns) in &sweep.passes {
        f.row(vec![
            workers.to_string(),
            format!("{:.1}", wall_ns as f64 / 1e6),
            format!("{:.2}x", speedup(wall_ns)),
            "yes".into(), // asserted by the sweep; a mismatch panics
        ]);
    }
    f.note(format!(
        "mode={mode}; workload = {} independent collectives; digests \
         (completion ns, events, link bytes) asserted byte-identical across all jobs values",
        jobs.len()
    ));
    f.note(format!(
        "host available_parallelism = {host}; wall-clock speedup is bounded by it \
         (a 1-core host shows ~1.0x regardless of jobs)"
    ));

    let doc = baseline_doc(smoke, host, jobs.len(), &sweep.passes);
    study::attach(&mut f, "parallel", smoke, &doc);
    f
}

/// The baseline document of a sweep of `n_sims` simulations whose passes
/// ran as `(workers, wall_ns)`, the first being the serial reference.
fn baseline_doc(smoke: bool, host: usize, n_sims: usize, passes: &[(usize, u64)]) -> Obj {
    let serial_ns = passes[0].1 as f64;
    let speedup = |wall_ns: u64| serial_ns / wall_ns.max(1) as f64;
    let topology = if smoke {
        "16-rank star"
    } else {
        "188-node UCC testbed"
    };
    Obj::new()
        .str("generator", "figures parallel_scaling")
        .str("mode", study::mode(smoke))
        .str(
            "workload",
            &format!("{n_sims} independent Broadcast/Allgather simulations ({topology} topology)"),
        )
        .int("host_parallelism", host as u64)
        .str(
            "interpretation",
            "speedup is wall-clock of the jobs=1 pass over this pass, measured on the recording \
             host; it is bounded by host_parallelism (a 1-core recording host reports ~1.0 for \
             every jobs value). Result digests are asserted byte-identical across all passes \
             before this file is written.",
        )
        // More than one pass ran, so the sweep compared their digests.
        .gate("results_identical", passes.len() > 1)
        .rows(
            "passes",
            passes.iter().map(|&(workers, wall_ns)| {
                Obj::new()
                    .int("jobs", workers as u64)
                    .int("wall_ns", wall_ns)
                    .float("speedup", speedup(wall_ns), 3)
            }),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_digests_identical_across_worker_counts() {
        let jobs = sweep_jobs(true);
        let sweep = study::sweep(study::PASSES, &jobs, |_| 0, |j| run_job(true, j));
        assert_eq!(sweep.digests.len(), jobs.len());
        for d in &sweep.digests {
            assert!(d.completion_ns > 0 && d.events > 0 && d.data_bytes > 0);
        }
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let j = baseline_doc(true, 8, 6, &[(1, 100), (4, 50)]).render();
        assert!(j.contains("\"host_parallelism\": 8,"));
        assert!(j.contains("\"speedup\": 2.000 }"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        mcag_trace::validate_json(&j).expect("parallel baseline parses");
    }
}
