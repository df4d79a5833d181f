//! The five fixed workloads. Each drives the public API of the layer
//! crates through the `mcast_allgather` facade, wraps every call into a
//! layer in a benchmark-side span, and returns the simulated outputs of
//! one iteration for the runner to check and aggregate.
//!
//! `--seed S` is the only input: iteration `i` runs input set
//! `j = i mod cycle`, whose arrival and hazard seeds derive from
//! `(S, j)`; the program receives only the generated inputs. The
//! runtime workloads are open-loop *on the virtual clock*: arrivals are
//! a seeded Poisson stream and a job's sojourn runs from its arrival's
//! due time, so generator lateness is zero by construction.

use crate::json::{self, Value};
use crate::spans::Recorder;
use crate::stats::{derive_seed, fnv, FNV_BASIS};
use mcast_allgather::baselines::{ring_allgather, run_p2p};
use mcast_allgather::core::msg::ControlMsg;
use mcast_allgather::core::protocol::RankTiming;
use mcast_allgather::core::{
    des, run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, CollectiveKind, CollectivePlan,
    ProtocolConfig,
};
use mcast_allgather::dpa::{run_datapath, ArrivalModel, DpaSpec, Kernel, KernelKind};
use mcast_allgather::exec::par_map;
use mcast_allgather::faults::{FaultModel, FaultPlan};
use mcast_allgather::offload::{BackendKind, DatapathTransport, Placement};
use mcast_allgather::runtime::{
    OpMix, PoolConfig, RateProcess, ReactivePolicy, Runtime, RuntimeConfig, RuntimeReport,
    Workload as ArrivalSpec,
};
use mcast_allgather::simnet::{Fabric, FabricConfig, LinkSchedule, Topology, TrafficReport};
use mcast_allgather::trace::{
    export_chrome, validate_json, ChromeOptions, LinkTimeline, TraceSpec,
};
use mcast_allgather::verbs::{CollectiveId, LinkRate, Rank};
use std::collections::BTreeMap;
use std::path::Path;

/// Workload names, in the order a full set runs them.
pub const NAMES: [&str; 5] = [
    "ag188",
    "fsdp_agrs",
    "load_ladder",
    "load_traced",
    "recovery",
];

/// Deterministic simulated counters of one or more iterations: `sum`
/// entries add across iterations, `max` entries keep the largest value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    sum: BTreeMap<&'static str, f64>,
    max: BTreeMap<&'static str, f64>,
}

impl Counts {
    /// Add `v` to the additive counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sum.entry(key).or_default() += v;
    }

    /// Raise the high-water counter `key` to at least `v`.
    pub fn peak(&mut self, key: &'static str, v: f64) {
        let e = self.max.entry(key).or_default();
        *e = e.max(v);
    }

    /// Fold another iteration's counters into this one.
    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.sum {
            self.add(k, *v);
        }
        for (k, v) in &other.max {
            self.peak(k, *v);
        }
    }

    /// The counter `key` (additive or high-water), 0 if never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.sum
            .get(key)
            .or_else(|| self.max.get(key))
            .copied()
            .unwrap_or(0.0)
    }

    fn digest(&self, mut h: u64) -> u64 {
        for v in self.sum.values().chain(self.max.values()) {
            h = fnv(h, &[v.to_bits()]);
        }
        h
    }
}

/// What one iteration produced on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct IterOut {
    /// Simulated jobs (runtime) or collectives (one-shot drivers) offered.
    pub attempted: u64,
    /// Of those, completed: not rejected, censored, given up or timed out.
    pub completed: u64,
    /// Fabric events simulated, where the API reports them (the
    /// runtime's report does not).
    pub events: u64,
    /// Host ns inside the fabric's event loop (`RunStats.wall_ns`), where
    /// the API reports it. The only host-clock field; not digested.
    pub run_loop_ns: u64,
    /// Payload bytes crossing all links.
    pub wire_bytes: u64,
    /// Payload bytes delivered to hosts.
    pub delivered_bytes: u64,
    /// Simulated latency of every terminal job record / collective that
    /// feeds the end-to-end percentiles (ns).
    pub latencies_ns: Vec<u64>,
    /// Named extra latency sets (the ladder's off-headline steps).
    pub samples: Vec<(&'static str, Vec<u64>)>,
    /// Per-layer simulated counters.
    pub counts: Counts,
    /// Correctness failures found in this iteration.
    pub errors: Vec<String>,
}

impl IterOut {
    /// Digest of every simulated output: equal digests for equal seeds
    /// is the determinism half of the correctness gate.
    pub fn digest(&self) -> u64 {
        let mut h = fnv(
            FNV_BASIS,
            &[
                self.attempted,
                self.completed,
                self.events,
                self.wire_bytes,
                self.delivered_bytes,
            ],
        );
        h = fnv(h, &self.latencies_ns);
        for (_, set) in &self.samples {
            h = fnv(h, set);
        }
        self.counts.digest(h)
    }

    /// Fold another iteration's simulated outputs into this one (host
    /// time and errors stay with the iteration).
    pub fn merge(&mut self, other: IterOut) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.wire_bytes += other.wire_bytes;
        self.delivered_bytes += other.delivered_bytes;
        self.latencies_ns.extend(other.latencies_ns);
        self.counts.merge(&other.counts);
        for (name, set) in other.samples {
            match self.samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, all)) => all.extend(set),
                None => self.samples.push((name, set)),
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One workload with its inputs prepared.
pub trait Workload {
    /// Number of distinct input sets; iteration `i` runs set `i mod cycle`.
    /// The simulated metrics pool one pass over the sets, so the count is
    /// sized for the tail: 12 to 16 sets (36k to 48k sojourns) hold the
    /// p999 of different seeds within about 4 % of each other, where 6
    /// to 8 sets left 6 to 9 % (table in `README.md`).
    fn cycle(&self) -> usize;

    /// Run input set `j` once.
    fn iterate(&mut self, j: usize, rec: &mut Recorder) -> IterOut;

    /// The untimed first iteration of a set-up: input set 0 plus any
    /// check too expensive for the timed region.
    fn warm_up(&mut self, rec: &mut Recorder) -> IterOut {
        self.iterate(0, rec)
    }

    /// Layer probes, run once by the traced run after its iterations:
    /// isolated calls whose cost hides inside larger spans otherwise.
    fn probes(&mut self, rec: &mut Recorder, counts: &mut Counts);
}

/// Prepare workload `name` for `seed`. `repo_root` locates the
/// checked-in golden files.
pub fn build(name: &str, seed: u64, repo_root: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ag188" => Box::new(Ag188::new(repo_root)?),
        "fsdp_agrs" => Box::new(FsdpAgRs::new(repo_root)?),
        "load_ladder" => Box::new(LoadLadder { seed }),
        "load_traced" => Box::new(LoadTraced { seed }),
        "recovery" => Box::new(Recovery { seed }),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

fn read_golden(repo_root: &Path, file: &str) -> Result<Value, String> {
    let path = repo_root.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The object of `rows` whose string fields equal every `(key, value)`
/// of `want`.
fn find_row<'a>(rows: &'a [Value], want: &[(&str, &str)]) -> Option<&'a Value> {
    rows.iter().find(|r| {
        want.iter()
            .all(|(k, v)| r.get(k).and_then(Value::as_str) == Some(*v))
    })
}

fn field(row: &Value, key: &str, file: &str) -> Result<u64, String> {
    row.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{file}: row has no integer {key:?}"))
}

fn all_ranks(topo: &Topology) -> Vec<Rank> {
    (0..topo.num_hosts() as u32).map(Rank).collect()
}

/// Record a one-shot driver's traffic and engine statistics.
fn account_traffic(out: &mut IterOut, traffic: &TrafficReport, reference: &Topology) {
    out.events += traffic.events();
    out.run_loop_ns += traffic.wall_ns();
    out.wire_bytes += traffic.total_data_bytes();
    out.delivered_bytes += traffic.host_delivery_bytes(reference);
    let c = &mut out.counts;
    c.add("simnet.events", traffic.events() as f64);
    c.peak("simnet.peak_queue_depth", traffic.peak_queue_depth() as f64);
    c.add("simnet.wire_bytes", traffic.total_data_bytes() as f64);
    c.peak(
        "simnet.max_link_bytes",
        traffic.max_link_data_bytes() as f64,
    );
    c.add("simnet.fault_drops", traffic.total_fault_drops() as f64);
    c.add("simnet.rnr_drops", traffic.total_rnr_drops() as f64);
    c.add("simnet.downtime_ns", traffic.total_downtime_ns() as f64);
}

/// Record the Fig. 10 phase breakdown (summed over ranks; the runner
/// divides by `core.ranks`) and the slow-path fetch counts.
fn account_timings(out: &mut IterOut, timings: &[RankTiming], chunks_expected: u64) {
    let c = &mut out.counts;
    c.add("core.ranks", timings.len() as f64);
    c.add(
        "core.sim_sync_ns",
        timings.iter().map(RankTiming::sync_ns).sum::<u64>() as f64,
    );
    c.add(
        "core.sim_datapath_ns",
        timings.iter().map(RankTiming::datapath_ns).sum::<u64>() as f64,
    );
    c.add(
        "core.sim_final_ns",
        timings.iter().map(RankTiming::final_sync_ns).sum::<u64>() as f64,
    );
    c.add(
        "core.fetched_chunks",
        timings.iter().map(|t| t.fetched_chunks).sum::<u64>() as f64,
    );
    c.add("core.chunks_expected", chunks_expected as f64);
}

/// Construction probes on a workload's own topology: the fabric, one
/// multicast group over every rank, and one Allgather plan. Five
/// repetitions each; the runner reports the median.
fn probe_construction(rec: &mut Recorder, mk_topo: fn() -> Topology, send_len: usize) {
    let proto = ProtocolConfig::default();
    for _ in 0..5 {
        let topo = rec.span("simnet.topology_build", |_| mk_topo());
        let p = topo.num_hosts() as u32;
        let members = all_ranks(&topo);
        let mut fab: Fabric<ControlMsg> = rec.span("simnet.fabric_new", |_| {
            Fabric::new(topo, FabricConfig::ucc_default())
        });
        rec.span("simnet.group_create", |_| {
            std::hint::black_box(fab.create_group(&members));
        });
        rec.span("core.plan_build", |_| {
            std::hint::black_box(CollectivePlan::new(
                CollectiveKind::Allgather,
                p,
                send_len,
                proto.mtu,
                proto.imm,
                CollectiveId(1),
                proto.subgroups,
                proto.chains,
            ));
        });
    }
}

// ---------------------------------------------------------------------
// ag188 — the paper's headline run
// ---------------------------------------------------------------------

const AG188_SEND_LEN: usize = 256 << 10;

struct Ag188 {
    reference: Topology,
    golden_events: u64,
    golden_sim_ns: u64,
}

impl Ag188 {
    fn new(repo_root: &Path) -> Result<Ag188, String> {
        const FILE: &str = "BENCH_simcore.json";
        let doc = read_golden(repo_root, FILE)?;
        let rows = doc
            .get("scenarios")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        let row = find_row(rows, &[("name", "allgather_188")])
            .ok_or_else(|| format!("{FILE}: no scenario allgather_188"))?;
        Ok(Ag188 {
            reference: Topology::ucc_testbed(),
            golden_events: field(row, "events", FILE)?,
            golden_sim_ns: field(row, "sim_time_ns", FILE)?,
        })
    }
}

impl Workload for Ag188 {
    fn cycle(&self) -> usize {
        1
    }

    fn iterate(&mut self, _j: usize, rec: &mut Recorder) -> IterOut {
        let topo = rec.span("simnet.topology_build", |_| Topology::ucc_testbed());
        let run = rec.span("core.run_collective", |_| {
            des::run_collective(
                topo,
                FabricConfig::ucc_default(),
                ProtocolConfig::default(),
                CollectiveKind::Allgather,
                AG188_SEND_LEN,
            )
        });
        let mut out = IterOut {
            attempted: 1,
            completed: run.stats.all_done() as u64,
            latencies_ns: vec![run.completion_ns()],
            ..IterOut::default()
        };
        account_traffic(&mut out, &run.traffic, &self.reference);
        let ranks = all_ranks(&self.reference);
        let mtu = ProtocolConfig::default().mtu.bytes() as u64;
        let expected: u64 = ranks.iter().map(|&r| run.plan.expected_psn_bytes(r)).sum();
        account_timings(&mut out, &run.timings, expected / mtu);

        // Bandwidth optimality: the busiest link carries exactly the
        // (P-1)·N every host must receive, not a byte more.
        let bound = (ranks.len() as u64 - 1) * AG188_SEND_LEN as u64;
        out.counts
            .peak("simnet.link_lower_bound_bytes", bound as f64);
        let busiest = run.traffic.max_link_data_bytes();
        out.check(run.stats.all_done(), || {
            "ag188: collective did not complete".into()
        });
        out.check(busiest == bound, || {
            format!("ag188: busiest link carried {busiest} B, lower bound is {bound} B")
        });
        let (events, sim_ns) = (run.stats.events, run.completion_ns());
        out.check(
            (events, sim_ns) == (self.golden_events, self.golden_sim_ns),
            || {
                format!(
                    "ag188: {events} events / {sim_ns} sim-ns, BENCH_simcore.json has {} / {}",
                    self.golden_events, self.golden_sim_ns
                )
            },
        );
        out
    }

    fn probes(&mut self, rec: &mut Recorder, counts: &mut Counts) {
        probe_construction(rec, Topology::ucc_testbed, AG188_SEND_LEN);
        // The paper's ~2x: ring Allgather wire bytes over multicast's,
        // same fabric, 32 KiB per rank.
        let n = 32 << 10;
        let p = self.reference.num_hosts() as u32;
        let ring = rec.span("baselines.ring_run", |_| {
            run_p2p(
                Topology::ucc_testbed(),
                FabricConfig::ucc_default(),
                ring_allgather(p, n),
                4096,
            )
        });
        let mcast = des::run_collective(
            Topology::ucc_testbed(),
            FabricConfig::ucc_default(),
            ProtocolConfig::default(),
            CollectiveKind::Allgather,
            n,
        );
        counts.add(
            "baselines.ring_wire_bytes",
            ring.traffic.total_data_bytes() as f64,
        );
        counts.add(
            "baselines.mcast_wire_bytes",
            mcast.traffic.total_data_bytes() as f64,
        );
    }
}

// ---------------------------------------------------------------------
// fsdp_agrs — the FSDP {AG, RS} pair, in-switch and endpoint
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct AgRsCell {
    backend: BackendKind,
    scale: &'static str,
    mk_topo: fn() -> Topology,
    send_len: usize,
    host_model_span: &'static str,
    run_span: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AgRsGolden {
    completion_ns: u64,
    events: u64,
    wire_bytes: u64,
}

fn fat_tree_512() -> Topology {
    Topology::fat_tree_512(LinkRate::NDR_400G)
}

fn fat_tree_128() -> Topology {
    Topology::fat_tree_two_level(128, 8, 4, 2, LinkRate::NDR_400G, 300)
}

const AGRS_CELLS: [AgRsCell; 2] = [
    AgRsCell {
        backend: BackendKind::SharpSwitch,
        scale: "fat_tree_512",
        mk_topo: fat_tree_512,
        send_len: 16 << 10,
        host_model_span: "offload.host_model_sharp",
        run_span: "core.agrs_inswitch",
    },
    AgRsCell {
        backend: BackendKind::DpaBf3,
        scale: "fat_tree_128",
        mk_topo: fat_tree_128,
        send_len: 64 << 10,
        host_model_span: "offload.host_model_dpa",
        run_span: "core.agrs_endpoint",
    },
];

/// Compile `cell`'s backend into the fabric and run the concurrent pair
/// with fully parallel chains (the `backendfigs` configuration).
fn run_agrs_cell(
    cell: &AgRsCell,
    rec: &mut Recorder,
) -> mcast_allgather::core::concurrent::ConcurrentOutcome {
    let topo = rec.span("simnet.topology_build", |_| (cell.mk_topo)());
    let proto = ProtocolConfig {
        chains: topo.num_hosts() as u32,
        ..ProtocolConfig::default()
    };
    let backend = cell.backend.instantiate();
    let mut cfg = FabricConfig::ucc_default();
    (cfg.host, cfg.inc_table_capacity) = rec.span(cell.host_model_span, |_| {
        (
            backend.host_model(proto.mtu.bytes()),
            backend.limits().aggregation_entries,
        )
    });
    rec.span(cell.run_span, |_| {
        if backend.placement() == Placement::InSwitch {
            run_concurrent_ag_rs(topo, cfg, proto, cell.send_len)
        } else {
            run_concurrent_ag_rs_endpoint(topo, cfg, proto, cell.send_len)
        }
    })
}

struct FsdpAgRs {
    references: [Topology; 2],
    golden: [AgRsGolden; 2],
}

impl FsdpAgRs {
    fn new(repo_root: &Path) -> Result<FsdpAgRs, String> {
        const FILE: &str = "BENCH_backends.json";
        let doc = read_golden(repo_root, FILE)?;
        let rows = doc.get("cells").and_then(Value::as_array).unwrap_or(&[]);
        let golden = |cell: &AgRsCell| -> Result<AgRsGolden, String> {
            let want = [
                ("backend", cell.backend.label()),
                ("collective", "ag_rs"),
                ("scale", cell.scale),
            ];
            let row = find_row(rows, &want).ok_or_else(|| format!("{FILE}: no cell {want:?}"))?;
            Ok(AgRsGolden {
                completion_ns: field(row, "completion_ns", FILE)?,
                events: field(row, "events", FILE)?,
                wire_bytes: field(row, "wire_bytes", FILE)?,
            })
        };
        Ok(FsdpAgRs {
            references: AGRS_CELLS.map(|c| (c.mk_topo)()),
            golden: [golden(&AGRS_CELLS[0])?, golden(&AGRS_CELLS[1])?],
        })
    }
}

impl Workload for FsdpAgRs {
    fn cycle(&self) -> usize {
        1
    }

    fn iterate(&mut self, _j: usize, rec: &mut Recorder) -> IterOut {
        let mut out = IterOut::default();
        for (i, cell) in AGRS_CELLS.iter().enumerate() {
            let run = run_agrs_cell(cell, rec);
            out.attempted += 1;
            out.completed += run.stats.all_done() as u64;
            out.latencies_ns.push(run.pair_completion_ns());
            account_traffic(&mut out, &run.traffic, &self.references[i]);
            account_timings(&mut out, &run.ag_timings, 0);
            let got = AgRsGolden {
                completion_ns: run.pair_completion_ns(),
                events: run.stats.events,
                wire_bytes: run.traffic.total_data_bytes(),
            };
            out.check(run.stats.all_done(), || {
                format!("fsdp_agrs: {} pair did not complete", cell.scale)
            });
            out.check(got == self.golden[i], || {
                format!(
                    "fsdp_agrs: {} gave {got:?}, BENCH_backends.json has {:?}",
                    cell.scale, self.golden[i]
                )
            });
        }
        out
    }

    fn probes(&mut self, rec: &mut Recorder, counts: &mut Counts) {
        probe_construction(rec, fat_tree_512, AGRS_CELLS[0].send_len);
        let mtu = ProtocolConfig::default().mtu.bytes();
        for (name, kind) in [
            ("offload.host_model_cpu", BackendKind::HostCpu),
            ("offload.host_model_fpga", BackendKind::FpgaSmartNic),
        ] {
            rec.span(name, |_| {
                std::hint::black_box(kind.host_model(mtu));
            });
        }
        // The Table-I datapath (40k chunks, one context, saturated):
        // through the backend trait, then the DPA simulator directly.
        let dpa = BackendKind::DpaBf3.instantiate();
        rec.span("offload.datapath", |_| {
            std::hint::black_box(dpa.datapath(
                DatapathTransport::Uc,
                1,
                4096,
                40_000,
                ArrivalModel::Saturated,
            ));
        });
        rec.span("dpa.run_datapath", |_| {
            std::hint::black_box(run_datapath(
                &DpaSpec::bf3(),
                &Kernel::new(KernelKind::DpaUc),
                1,
                4096,
                40_000,
                ArrivalModel::Saturated,
            ));
        });
        // The fork-join executor: four copies of the 128-rank cell at
        // one worker, then two. Informational on a 2-core shared host.
        let cells = [AGRS_CELLS[1]; 4];
        let run = |c: &AgRsCell| -> (u64, u64) {
            let o = run_agrs_cell(c, &mut Recorder::new());
            (o.pair_completion_ns(), o.stats.events)
        };
        let serial = rec.span("exec.par_map_j1", |_| par_map(1, &cells, run));
        let forked = rec.span("exec.par_map_j2", |_| par_map(2, &cells, run));
        counts.add("exec.digest_equal", (serial == forked) as u64 as f64);
    }
}

// ---------------------------------------------------------------------
// The open-loop runtime cells shared by the three runtime workloads
// ---------------------------------------------------------------------

/// One open-loop run's shape: fabric, runtime configuration, tenants
/// and the seeded arrival stream.
struct OpenLoopCell {
    mk_topo: fn() -> Topology,
    cfg: RuntimeConfig,
    arrivals: ArrivalSpec,
}

/// Generate the arrivals, build the runtime, load and drain it.
fn run_open_loop(cell: &OpenLoopCell, rec: &mut Recorder) -> (Runtime, RuntimeReport) {
    let rows = rec.span("runtime.arrivals_gen", |_| cell.arrivals.generate());
    let mut rt = rec.span("runtime.new", |r| {
        let topo = r.span("simnet.topology_build", |_| (cell.mk_topo)());
        let mut rt = Runtime::new(topo, cell.cfg.clone());
        for i in 0..cell.arrivals.tenants {
            rt.register_tenant(&format!("t{i}"));
        }
        rt
    });
    rec.span("runtime.load_arrivals", |_| rt.load_arrivals(&rows));
    let report = rec.span("runtime.run_open_loop", |_| rt.run_open_loop());
    (rt, report)
}

/// Sojourn (arrival due time → finish or censoring instant) of every
/// terminal job record.
fn sojourns(report: &RuntimeReport) -> Vec<u64> {
    report.jobs.iter().map(|j| j.latency_ns()).collect()
}

/// Fold one report into the iteration: job accounting, traffic, the
/// runtime's counters, and the conservation checks.
fn account_report(out: &mut IterOut, report: &RuntimeReport, label: &str) {
    let admitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    let completed = report.completed_jobs() as u64;
    let censored = report.timed_out_jobs() as u64;
    out.attempted += report.offered_jobs;
    out.completed += completed;
    out.wire_bytes += report.moved_bytes;
    out.delivered_bytes += report.delivered_bytes;
    let c = &mut out.counts;
    c.add("runtime.batches", report.batches as f64);
    c.add("runtime.jobs", completed as f64);
    c.add("runtime.pool_hits", report.pool.hits as f64);
    c.add(
        "runtime.pool_acquisitions",
        report.pool.acquisitions() as f64,
    );
    c.add("runtime.pool_rebuilds", report.pool.rebuilds as f64);
    c.add("runtime.rejected", report.rejects.total() as f64);
    c.add("runtime.censored", censored as f64);
    c.add("runtime.retried", report.retry.retried_jobs as f64);
    c.add("runtime.gave_up", report.retry.gave_up_jobs as f64);
    c.add("runtime.sm_rebuilds", report.retry.sm_rebuilds as f64);
    c.add(
        "runtime.queue_ns",
        report.jobs.iter().map(|j| j.queue_ns()).sum::<u64>() as f64,
    );
    c.add(
        "runtime.sojourn_ns",
        report.jobs.iter().map(|j| j.latency_ns()).sum::<u64>() as f64,
    );
    c.add(
        "runtime.busy_ns",
        report.partitions.iter().map(|p| p.busy_ns).sum::<u64>() as f64,
    );
    c.add(
        "runtime.capacity_ns",
        report.makespan_ns as f64 * report.partitions.len() as f64,
    );
    c.add(
        "simnet.fault_drops",
        report.partitions.iter().map(|p| p.fault_drops).sum::<u64>() as f64,
    );
    c.add(
        "simnet.downtime_ns",
        report.partitions.iter().map(|p| p.downtime_ns).sum::<u64>() as f64,
    );
    // Conservation: every offered job was refused or admitted, and every
    // admitted job reached exactly one terminal record.
    let rejected = report.rejects.total();
    out.check(report.offered_jobs == admitted + rejected, || {
        format!(
            "{label}: offered {} != admitted {admitted} + rejected {rejected}",
            report.offered_jobs
        )
    });
    out.check(admitted == completed + censored, || {
        format!("{label}: admitted {admitted} != completed {completed} + censored {censored}")
    });
    out.check(report.retry.gave_up_jobs <= censored, || {
        format!(
            "{label}: {} jobs gave up but only {censored} records are censored",
            report.retry.gave_up_jobs
        )
    });
}

/// The sort-based percentile passes a caller makes on a finished report.
fn report_percentiles(report: &RuntimeReport, rec: &mut Recorder) -> [u64; 3] {
    rec.span("runtime.report", |_| {
        [0.50, 0.99, 0.999].map(|q| report.sojourn_percentile_ns(q))
    })
}

// ---------------------------------------------------------------------
// load_ladder — latency at three fixed offered rates
// ---------------------------------------------------------------------

/// The `loadfigs` "1x" mean interarrival gap.
const BASE_INTERARRIVAL_NS: u64 = 40_000;

/// The `loadfigs` op/size mix.
const LOAD_MIX: OpMix = OpMix {
    allgather_weight: 2,
    broadcast_weight: 1,
    agrs_weight: 1,
    min_send_len: 8 << 10,
    max_send_len: 32 << 10,
    ranks: 4,
};

const LOAD_TENANTS: u32 = 16;

fn load_topology() -> Topology {
    Topology::single_switch(4, LinkRate::CX3_56G, 100)
}

/// The `loadfigs` knee cell: 16 tenants, 2 partitions, pool 32.
fn load_cell(mean_ns: u64, arrivals: u64, seed: u64, trace: Option<TraceSpec>) -> OpenLoopCell {
    OpenLoopCell {
        mk_topo: load_topology,
        cfg: RuntimeConfig {
            pool: PoolConfig::with_capacity(32),
            max_inflight: 8,
            partitions: 2,
            trace,
            ..RuntimeConfig::default()
        },
        arrivals: ArrivalSpec {
            tenants: LOAD_TENANTS,
            horizon_ns: mean_ns * arrivals,
            rate: RateProcess::Poisson {
                mean_interarrival_ns: mean_ns,
            },
            mix: LOAD_MIX,
            seed,
        },
    }
}

struct LoadLadder {
    seed: u64,
}

/// `(sample-set name, mean interarrival)`: x0.5, x2 and x8 of the base
/// rate. The x2 step is the headline; its samples feed the end-to-end
/// percentiles.
const LADDER_STEPS: [(&str, u64); 3] = [
    ("x05", BASE_INTERARRIVAL_NS * 2),
    ("x2", BASE_INTERARRIVAL_NS / 2),
    ("x8", BASE_INTERARRIVAL_NS / 8),
];

const LADDER_ARRIVALS: u64 = 3_000;

impl Workload for LoadLadder {
    fn cycle(&self) -> usize {
        16
    }

    fn iterate(&mut self, j: usize, rec: &mut Recorder) -> IterOut {
        let seed = derive_seed(self.seed, j as u64);
        let mut out = IterOut::default();
        for (step, (name, mean_ns)) in LADDER_STEPS.into_iter().enumerate() {
            let cell = load_cell(
                mean_ns,
                LADDER_ARRIVALS,
                derive_seed(seed, step as u64),
                None,
            );
            let (_rt, report) = run_open_loop(&cell, rec);
            std::hint::black_box(report_percentiles(&report, rec));
            account_report(&mut out, &report, name);
            if name == "x2" {
                out.latencies_ns = sojourns(&report);
            } else {
                out.samples.push((name, sojourns(&report)));
            }
            if name == "x8" {
                out.counts
                    .add("runtime.x8_offered", report.offered_jobs as f64);
                out.counts
                    .add("runtime.x8_rejected", report.rejects.total() as f64);
            }
        }
        out
    }

    fn probes(&mut self, rec: &mut Recorder, _counts: &mut Counts) {
        probe_construction(rec, load_topology, LOAD_MIX.max_send_len);
    }
}

// ---------------------------------------------------------------------
// load_traced — the flight recorder on, harvested and exported
// ---------------------------------------------------------------------

const TRACED_ARRIVALS: u64 = 2_000;

struct LoadTraced {
    seed: u64,
}

impl LoadTraced {
    fn cell(&self, j: usize, trace: Option<TraceSpec>) -> OpenLoopCell {
        let seed = derive_seed(self.seed, j as u64);
        load_cell(BASE_INTERARRIVAL_NS / 2, TRACED_ARRIVALS, seed, trace)
    }

    /// One traced run, its harvested trace exported as Chrome JSON.
    fn traced(&self, j: usize, rec: &mut Recorder) -> (IterOut, RuntimeReport, String) {
        let cell = self.cell(j, Some(TraceSpec::default()));
        let (mut rt, report) = run_open_loop(&cell, rec);
        std::hint::black_box(report_percentiles(&report, rec));
        let trace = rec.span("trace.take", |_| rt.take_trace());
        let mut out = IterOut::default();
        account_report(&mut out, &report, "load_traced");
        out.latencies_ns = sojourns(&report);
        let Some(trace) = trace else {
            out.errors
                .push("load_traced: tracing was on but take_trace gave None".into());
            return (out, report, String::new());
        };
        let opts = ChromeOptions {
            link_names: (0..load_topology().num_links())
                .map(|l| format!("link{l}"))
                .collect(),
            tenant_names: (0..LOAD_TENANTS).map(|t| format!("t{t}")).collect(),
        };
        let doc = rec.span("trace.export", |_| export_chrome(&trace, &opts));
        let c = &mut out.counts;
        c.add("trace.events_kept", trace.fabric.len() as f64);
        c.add(
            "trace.events_offered",
            trace.fabric.len() as f64 + trace.fabric_dropped as f64,
        );
        c.add("trace.export_bytes", doc.len() as f64);
        (out, report, doc)
    }
}

impl Workload for LoadTraced {
    fn cycle(&self) -> usize {
        16
    }

    fn iterate(&mut self, j: usize, rec: &mut Recorder) -> IterOut {
        self.traced(j, rec).0
    }

    /// Besides the iteration: the recorder must not change the run (same
    /// report as the untraced run on the same arrivals) and the export
    /// must be a well-formed JSON document.
    fn warm_up(&mut self, rec: &mut Recorder) -> IterOut {
        let (mut out, report, doc) = self.traced(0, rec);
        let (_rt, untraced) = run_open_loop(&self.cell(0, None), &mut Recorder::new());
        out.check(report == untraced, || {
            "load_traced: traced and untraced reports differ on the same arrivals".into()
        });
        if let Err(e) = validate_json(&doc) {
            out.errors.push(format!(
                "load_traced: exported trace is not valid JSON: {e}"
            ));
        }
        out
    }

    fn probes(&mut self, rec: &mut Recorder, _counts: &mut Counts) {
        probe_construction(rec, load_topology, LOAD_MIX.max_send_len);
        // Recording overhead: traced vs untraced `run_open_loop` on the
        // same arrivals, interleaved.
        for _ in 0..3 {
            for (name, trace) in [
                ("trace.probe_untraced", None),
                ("trace.probe_traced", Some(TraceSpec::default())),
            ] {
                let cell = self.cell(0, trace);
                let rows = cell.arrivals.generate();
                let mut rt = Runtime::new((cell.mk_topo)(), cell.cfg.clone());
                for i in 0..LOAD_TENANTS {
                    rt.register_tenant(&format!("t{i}"));
                }
                rt.load_arrivals(&rows);
                rec.span(name, |_| {
                    std::hint::black_box(rt.run_open_loop());
                });
            }
        }
        // Link-utilisation timeline over one harvested trace.
        let cell = self.cell(0, Some(TraceSpec::default()));
        let (mut rt, _report) = run_open_loop(&cell, &mut Recorder::new());
        if let Some(trace) = rt.take_trace() {
            let links = load_topology().num_links();
            rec.span("trace.timeline", |_| {
                std::hint::black_box(LinkTimeline::build(
                    &trace.fabric,
                    links,
                    65_536,
                    trace.horizon_ns(),
                ));
            });
        }
    }
}

// ---------------------------------------------------------------------
// recovery — the runtime under time-varying links
// ---------------------------------------------------------------------

/// Hazard/arrival seeds per iteration; each runs all three cells.
const RECOVERY_HAZARDS: u64 = 100;

/// `recoveryfigs`' watchdog grant, in summed-cutoff multiples.
const RECOVERY_WATCHDOG_CUTOFFS: u64 = 8;

const RECOVERY_TENANTS: u32 = 6;

fn recovery_topology() -> Topology {
    Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
}

#[derive(Clone, Copy)]
enum Hazard {
    /// Whole switches dark: this fraction of them (at least one).
    SwitchFailure(f64),
    /// Ports cycling up and down on this fraction of cables.
    Flapping(f64),
}

#[derive(Clone, Copy)]
struct RecoveryShape {
    label: &'static str,
    partitions: usize,
    hazard: Hazard,
    reactive: bool,
}

/// Two partitions with one damaged and a reactive scheduler (steers
/// away, never retries); one damaged partition with the same scheduler
/// (retries, SM rebuilds, give-ups); one flapping partition scheduled
/// obliviously (fault drops through the fetch ring, censored batches).
///
/// The single-partition switch cell loses one switch, not the two of
/// the 0.3 rate: with two of this fabric's six switches dark no
/// surviving spine is left, and the SM sweep never finds a tree to
/// re-route.
const RECOVERY_SHAPES: [RecoveryShape; 3] = [
    RecoveryShape {
        label: "p2_switch_reactive",
        partitions: 2,
        hazard: Hazard::SwitchFailure(0.3),
        reactive: true,
    },
    RecoveryShape {
        label: "p1_switch_reactive",
        partitions: 1,
        hazard: Hazard::SwitchFailure(0.1),
        reactive: true,
    },
    RecoveryShape {
        label: "p1_flap_oblivious",
        partitions: 1,
        hazard: Hazard::Flapping(0.3),
        reactive: false,
    },
];

/// The `recoveryfigs` hazard windows: milliseconds against batches that
/// finish in well under 200 us, so every batch placed on the damaged
/// partition launches into active damage.
fn hazard_plan(shape: &RecoveryShape, seed: u64, topo: &Topology) -> FaultPlan {
    let model = match shape.hazard {
        Hazard::SwitchFailure(rate) => FaultModel::SwitchFailure {
            switches: (rate * topo.num_switches() as f64).ceil().max(1.0) as u32,
            start_ns: 2_000,
            downtime_ns: 5_000_000,
        },
        Hazard::Flapping(fraction) => FaultModel::FlappingPort {
            fraction,
            period_ns: 40_000,
            down_ns: 30_000,
            start_ns: 0,
            end_ns: 8_000_000,
        },
    };
    FaultPlan::new(seed).with(model)
}

struct Recovery {
    seed: u64,
}

impl Workload for Recovery {
    fn cycle(&self) -> usize {
        12
    }

    fn iterate(&mut self, j: usize, rec: &mut Recorder) -> IterOut {
        let seed = derive_seed(self.seed, j as u64);
        let mut out = IterOut::default();
        for h in 0..RECOVERY_HAZARDS {
            let hazard_seed = derive_seed(seed, h);
            for shape in &RECOVERY_SHAPES {
                let hazard = rec.span("faults.compile", |r| {
                    let topo = r.span("simnet.topology_build", |_| recovery_topology());
                    hazard_plan(shape, hazard_seed, &topo).compile(&topo)
                });
                out.counts.add("faults.transitions", hazard.len() as f64);
                let mut partition_faults = vec![hazard];
                partition_faults.resize(shape.partitions, LinkSchedule::empty());
                let cell = OpenLoopCell {
                    mk_topo: recovery_topology,
                    cfg: RuntimeConfig {
                        pool: PoolConfig::with_capacity(32),
                        max_inflight: 4,
                        partitions: shape.partitions,
                        partition_faults,
                        reactive: shape.reactive.then(ReactivePolicy::default),
                        watchdog_cutoffs: RECOVERY_WATCHDOG_CUTOFFS,
                        ..RuntimeConfig::default()
                    },
                    arrivals: ArrivalSpec {
                        tenants: RECOVERY_TENANTS,
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
                        seed: derive_seed(hazard_seed, 1),
                    },
                };
                let (_rt, report) = run_open_loop(&cell, rec);
                account_report(&mut out, &report, shape.label);
                out.latencies_ns.extend(sojourns(&report));
            }
        }
        out
    }

    fn probes(&mut self, rec: &mut Recorder, _counts: &mut Counts) {
        probe_construction(rec, recovery_topology, 16 << 10);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_and_peak() {
        let mut a = Counts::default();
        a.add("x", 2.0);
        a.peak("depth", 5.0);
        let mut b = Counts::default();
        b.add("x", 3.0);
        b.peak("depth", 4.0);
        a.merge(&b);
        assert_eq!(
            (a.get("x"), a.get("depth"), a.get("absent")),
            (5.0, 5.0, 0.0)
        );
    }

    #[test]
    fn digest_sees_every_simulated_field_but_not_host_time() {
        let base = IterOut {
            attempted: 3,
            completed: 2,
            latencies_ns: vec![10, 20],
            ..IterOut::default()
        };
        let mut slower = base.clone();
        slower.run_loop_ns = 999;
        assert_eq!(base.digest(), slower.digest());
        let mut other = base.clone();
        other.latencies_ns[1] = 21;
        assert_ne!(base.digest(), other.digest());
        let mut counted = base.clone();
        counted.counts.add("runtime.batches", 1.0);
        assert_ne!(base.digest(), counted.digest());
    }

    #[test]
    fn unknown_workload_is_refused() {
        let err = build("nope", 1, Path::new(".")).err().unwrap();
        assert!(err.contains("unknown workload"));
    }

    /// A small open-loop cell end to end: conservation holds and the
    /// same seed gives the same digest, a different seed another.
    #[test]
    fn open_loop_cell_is_deterministic_and_conserves_jobs() {
        let run = |seed: u64| {
            let cell = load_cell(BASE_INTERARRIVAL_NS / 8, 300, seed, None);
            let (_rt, report) = run_open_loop(&cell, &mut Recorder::new());
            let mut out = IterOut::default();
            account_report(&mut out, &report, "test");
            out.latencies_ns = sojourns(&report);
            out
        };
        let (a, b, c) = (run(7), run(7), run(8));
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert!(a.attempted > 0 && a.completed <= a.attempted);
        let records = a.counts.get("runtime.jobs") + a.counts.get("runtime.censored");
        assert_eq!(a.latencies_ns.len() as f64, records);
    }
}
