//! Failure sweeps with tail-latency reporting — the "Don't Let a Few
//! Network Failures Slow the Entire AllReduce" experiment on this
//! codebase's multicast collectives.
//!
//! The grid is **fault model × failure rate × recovery-cutoff headroom**,
//! each cell run over hundreds of independent seeds (every seed draws
//! its own victim links/switches through `mcag-faults`), reported as
//! **p50/p99/p999 completion time** — means hide exactly the tail this
//! experiment exists to expose. Timed-out seeds are censored at the
//! watchdog deadline and counted separately.
//!
//! The sweep runs twice, at `jobs = 1` and `jobs = 4`, through
//! [`study::sweep`] (largest-first claim order by `job_weight`: the
//! expensive high-headroom / switch-failure seeds overlap the cheap
//! bulk), which **asserts the two passes' digests byte-identical** — the
//! tail table doubles as a determinism check of the whole fault stack.
//! The full study's baseline is the checked-in `BENCH_faults.json`;
//! `faultfigs_smoke` is the bounded CI variant. Both contain only
//! simulated-time quantities, so repeated runs on any host produce
//! byte-identical files (CI diffs two passes to enforce this); wall
//! clocks go to the table notes and `timings.csv` instead.

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::des::{self, RunBounds};
use mcag_core::{CollectiveKind, ProtocolConfig};
use mcag_faults::{FaultModel, FaultPlan};
use mcag_models::nearest_rank;
use mcag_simnet::{FabricConfig, Topology};
use mcag_verbs::LinkRate;

/// Watchdog grant for every sweep run, in cutoffs: long enough for
/// multi-round ring recovery after an outage, short enough that a
/// wedged seed costs bounded simulated time.
pub const SWEEP_WATCHDOG_CUTOFFS: u64 = 64;

/// The three failure processes the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Bandwidth asymmetry: a fraction of directed links at 1/4 rate.
    Degraded,
    /// Port up/down duty cycling on a fraction of cables.
    Flapping,
    /// Whole switches dark for a window, then recovered.
    SwitchFail,
}

impl FaultKind {
    /// All kinds, sweep order.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::Degraded,
        FaultKind::Flapping,
        FaultKind::SwitchFail,
    ];

    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Degraded => "degraded",
            FaultKind::Flapping => "flapping",
            FaultKind::SwitchFail => "switch",
        }
    }
}

/// One simulation of the sweep: a grid cell plus the seed that draws
/// its victims.
#[derive(Debug, Clone, Copy)]
struct FaultJob {
    /// Failure process under test.
    pub kind: FaultKind,
    /// Failure rate (fraction of links/ports; switch count via ceil).
    pub rate: f64,
    /// Recovery-cutoff headroom ([`RunBounds::cutoff_headroom`]).
    pub cutoff_headroom: u64,
    /// Victim-selection seed ([`FaultPlan::seed`]).
    pub seed: u64,
}

/// Everything about one run that must be identical across worker
/// counts (wall clock deliberately excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultDigest {
    /// Completion time, censored at the watchdog deadline on timeout.
    pub completion_ns: u64,
    /// Whether the watchdog tripped.
    pub timed_out: bool,
    /// Engine events processed.
    pub events: u64,
    /// Packet copies lost to down links.
    pub fault_drops: u64,
    /// Summed per-link downtime the run observed.
    pub downtime_ns: u64,
    /// Chunks recovered over the unicast ring.
    pub fetched: u64,
}

/// The fault timeline for one job. Windows are sized against the
/// healthy completion time of the sweep collective (~100 µs), so every
/// model disturbs the datapath phase and recovers within the watchdog.
fn sweep_plan(job: &FaultJob, topo: &Topology) -> FaultPlan {
    let plan = FaultPlan::new(job.seed);
    match job.kind {
        FaultKind::Degraded => plan.with(FaultModel::DegradedLink {
            fraction: job.rate,
            bw_num: 1,
            bw_den: 4,
            start_ns: 5_000,
            duration_ns: 200_000,
        }),
        FaultKind::Flapping => plan.with(FaultModel::FlappingPort {
            fraction: job.rate,
            period_ns: 40_000,
            down_ns: 10_000,
            start_ns: 0,
            end_ns: 400_000,
        }),
        FaultKind::SwitchFail => plan.with(FaultModel::SwitchFailure {
            switches: (job.rate * topo.num_switches() as f64).ceil().max(1.0) as u32,
            start_ns: 10_000,
            downtime_ns: 150_000,
        }),
    }
}

fn sweep_topology(smoke: bool) -> Topology {
    if smoke {
        Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
    } else {
        Topology::fat_tree_two_level(16, 4, 2, 1, LinkRate::CX3_56G, 100)
    }
}

fn sweep_send_len(smoke: bool) -> usize {
    if smoke {
        16 << 10
    } else {
        32 << 10
    }
}

/// Run one sweep job of the smoke or full grid to its digest.
fn run_job(smoke: bool, job: &FaultJob) -> FaultDigest {
    let topo = sweep_topology(smoke);
    let mut cfg = FabricConfig::ucc_default();
    cfg.faults = sweep_plan(job, &topo).compile(&topo);
    let send_len = sweep_send_len(smoke);
    let proto = ProtocolConfig {
        mtu: sim_mtu_for(send_len),
        ..ProtocolConfig::default()
    };
    let out = des::run_collective_bounded(
        topo,
        cfg,
        proto,
        CollectiveKind::Allgather,
        send_len,
        RunBounds {
            cutoff_headroom: job.cutoff_headroom,
            watchdog_cutoffs: SWEEP_WATCHDOG_CUTOFFS,
        },
    );
    FaultDigest {
        completion_ns: out.censored_completion_ns(),
        timed_out: out.timed_out(),
        events: out.stats.events,
        fault_drops: out.traffic.total_fault_drops(),
        downtime_ns: out.traffic.total_downtime_ns(),
        fetched: out.total_fetched(),
    }
}

/// Claim-order weight: a deterministic cost proxy (disruptive models
/// and high headroom burn more simulated time), so the sweep
/// front-loads the likely-expensive seeds.
fn job_weight(job: &FaultJob) -> u64 {
    let model = match job.kind {
        FaultKind::Degraded => 1,
        FaultKind::Flapping => 2,
        FaultKind::SwitchFail => 3,
    };
    model * 1_000 + job.cutoff_headroom * 10 + (job.rate * 100.0) as u64
}

/// The smoke or full sweep grid, in cell-major order (seeds innermost).
fn sweep_jobs(smoke: bool) -> Vec<FaultJob> {
    let (rates, cutoffs, seeds): (&[f64], &[u64], u64) = if smoke {
        (&[0.20], &[1, 4], 24)
    } else {
        (&[0.05, 0.20], &[1, 4], 200)
    };
    let mut jobs = Vec::new();
    for kind in FaultKind::ALL {
        for &rate in rates {
            for &cutoff_headroom in cutoffs {
                for seed in 0..seeds {
                    jobs.push(FaultJob {
                        kind,
                        rate,
                        cutoff_headroom,
                        seed,
                    });
                }
            }
        }
    }
    jobs
}

/// The failure-sweep study: 3 models × 2 rates × 2 cutoffs × 200 seeds
/// (the recorded tail baseline), or (smoke) the same grid shape on a
/// smaller fabric with 24 seeds per cell.
pub fn faultfigs(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let jobs = sweep_jobs(smoke);
    let sweep = study::sweep(study::PASSES, &jobs, job_weight, |j| run_job(smoke, j));

    let topo = sweep_topology(smoke);
    let mut f = FigData::new(
        "faultfigs",
        "Failure sweep: completion-time tail vs fault model × rate × recovery cutoff",
        &[
            "model",
            "rate",
            "cutoff headroom",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "timeouts",
            "fault drops",
        ],
    );
    let mut rows = Vec::new();
    let cells = sweep.group_by(&jobs, |j| (j.kind, j.rate, j.cutoff_headroom));
    for ((kind, rate, cutoff_headroom), picked) in cells {
        let mut comp: Vec<u64> = picked.iter().map(|d| d.completion_ns).collect();
        comp.sort_unstable();
        let [p50, p99, p999] = [0.50, 0.99, 0.999].map(|q| nearest_rank(&comp, q));
        let timeouts = picked.iter().filter(|d| d.timed_out).count();
        let fault_drops: u64 = picked.iter().map(|d| d.fault_drops).sum();
        f.row(vec![
            kind.label().to_string(),
            format!("{rate:.2}"),
            cutoff_headroom.to_string(),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
            format!("{:.1}", p999 as f64 / 1e3),
            format!("{timeouts}/{}", picked.len()),
            fault_drops.to_string(),
        ]);
        rows.push(
            Obj::new()
                .str("model", kind.label())
                .float("rate", rate, 2)
                .int("cutoff_headroom", cutoff_headroom)
                .int("seeds", picked.len() as u64)
                .int("timeouts", timeouts as u64)
                .int("p50_ns", p50)
                .int("p99_ns", p99)
                .int("p999_ns", p999)
                .int("mean_ns", comp.iter().sum::<u64>() / comp.len() as u64)
                .int("max_ns", comp[comp.len() - 1])
                .int("fault_drops", fault_drops)
                .int("fetched_chunks", picked.iter().map(|d| d.fetched).sum()),
        );
    }
    f.note(format!(
        "mode={mode}; {} Allgather of {} KiB per rank; {} jobs per pass; \
         timed-out seeds censored at the {SWEEP_WATCHDOG_CUTOFFS}-cutoff watchdog",
        topo.name(),
        sweep_send_len(smoke) >> 10,
        jobs.len(),
    ));
    sweep.note_passes(&mut f);
    // Per-seed wall times (from the final, parallel pass) for cost-skew
    // analysis; the figures binary lands these in timings.csv.
    for (j, wall_ns) in jobs.iter().zip(&sweep.item_wall_ns) {
        f.job_timing(
            format!(
                "{}_r{:.2}_c{}_s{}",
                j.kind.label(),
                j.rate,
                j.cutoff_headroom,
                j.seed
            ),
            *wall_ns as f64 / 1e6,
        );
    }

    // Only simulated-time quantities, so the file is byte-identical
    // across hosts and repeated runs — CI asserts exactly that.
    let doc = Obj::new()
        .str("generator", "figures faultfigs")
        .str("mode", mode)
        .str("topology", topo.name())
        .str(
            "collective",
            &format!("Allgather, {} KiB per rank", sweep_send_len(smoke) >> 10),
        )
        .int("jobs_per_pass", jobs.len() as u64)
        .int("watchdog_cutoffs", SWEEP_WATCHDOG_CUTOFFS)
        .str(
            "interpretation",
            "one row per (model, failure rate, recovery-cutoff headroom) cell; quantiles are \
             nearest-rank over that cell's seeds with timeouts censored at the watchdog deadline. \
             The sweep ran at jobs=1 and jobs=4 and the per-seed digests were asserted \
             byte-identical before this file was written; it contains only simulated-time \
             quantities and reproduces byte-identically on any host.",
        )
        .gate("results_identical", sweep.cross_checked())
        .rows("cells", rows);
    study::attach(&mut f, "faults", smoke, &doc);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_covers_all_models_and_axes() {
        let jobs = sweep_jobs(false);
        assert_eq!(jobs.len(), 3 * 2 * 2 * 200);
        for kind in FaultKind::ALL {
            assert!(jobs.iter().any(|j| j.kind == kind));
        }
        let smoke = sweep_jobs(true);
        assert_eq!(smoke.len(), 3 * 2 * 24);
    }

    #[test]
    fn fault_jobs_are_deterministic_across_worker_counts() {
        // A thin slice of the smoke grid, jobs=1 vs jobs=4.
        let jobs: Vec<FaultJob> = sweep_jobs(true)
            .into_iter()
            .filter(|j| j.seed < 3)
            .collect();
        let sweep = study::sweep(study::PASSES, &jobs, job_weight, |j| run_job(true, j));
        // Faults actually bit: some seed lost a datagram or degraded a link.
        assert!(sweep
            .digests
            .iter()
            .any(|d| d.fault_drops > 0 || d.downtime_ns > 0));
    }

    #[test]
    fn most_smoke_seeds_recover() {
        let jobs: Vec<FaultJob> = sweep_jobs(true)
            .into_iter()
            .filter(|j| j.seed < 4 && j.cutoff_headroom == 1)
            .collect();
        let digests: Vec<FaultDigest> = jobs.iter().map(|j| run_job(true, j)).collect();
        let done = digests.iter().filter(|d| !d.timed_out).count();
        assert!(
            done * 2 > digests.len(),
            "most faulted runs should still complete: {done}/{}",
            digests.len()
        );
    }
}
