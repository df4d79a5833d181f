//! Flight-recorder baselines: determinism digests and Perfetto export
//! round-trips.
//!
//! Three cells:
//!
//! * `traced_ag188` — the paper's 188-node UCC-testbed Allgather with a
//!   recorder attached: event counts (offered / kept / ring-dropped) and
//!   the FNV digest of the link-utilization timeline, all simulated-time
//!   integers, byte-stable across hosts.
//! * `traced_fat_tree_512` — a traced 512-node fat-tree Allgather
//!   exported as Chrome trace-event JSON and round-tripped through the
//!   dependency-free parser; the cell pins the export's byte length.
//! * `runtime_jobs` — an open-loop multi-tenant run traced at `jobs = 1`
//!   and `jobs = 4`; the cell records the shared report/trace digests
//!   after asserting the two runs are byte-identical.
//!
//! The full study's baseline is `BENCH_trace.json` (checked in);
//! `tracefigs_smoke`'s is `BENCH_trace_smoke.json`. Every field of both
//! is a simulated-time integer or digest, so they regenerate byte for
//! byte on any host. What tracing costs the host is the benchmark's
//! `trace.record_overhead_share` on its `load_traced` workload.

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::{des, CollectiveKind, CollectiveOutcome, ProtocolConfig};
use mcag_runtime::{JobKind, PoolConfig, Runtime, RuntimeConfig, RuntimeReport, RuntimeTrace};
use mcag_simnet::{FabricConfig, Topology};
use mcag_trace::{export_chrome, validate_json, ChromeOptions, LinkTimeline, TraceSpec};
use mcag_verbs::LinkRate;

/// Timeline bucketing used by every cell (64 µs of simulated time).
const TIMELINE_WINDOW_NS: u64 = 65_536;

/// FNV-1a over a string (digest cells for byte-stability checks).
pub(crate) fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One traced collective on `topo` with the given recorder spec.
fn traced_allgather(topo: Topology, send_len: usize, spec: TraceSpec) -> CollectiveOutcome {
    let mut cfg = FabricConfig::ucc_default();
    cfg.trace = Some(spec);
    let proto = ProtocolConfig {
        mtu: sim_mtu_for(send_len),
        ..ProtocolConfig::default()
    };
    let out = des::run_collective(topo, cfg, proto, CollectiveKind::Allgather, send_len);
    assert!(out.stats.all_done(), "traced scenario did not complete");
    out
}

/// What one traced collective contributes to the baseline.
struct TracedCell {
    name: &'static str,
    events_offered: u64,
    events_kept: usize,
    events_dropped: u64,
    sim_ns: u64,
    timeline_digest: u64,
    busiest_link: u32,
    busiest_busy_ns: u64,
}

fn traced_cell(name: &'static str, topo: Topology, send_len: usize) -> TracedCell {
    let num_links = topo.num_links();
    let mut out = traced_allgather(topo, send_len, TraceSpec::default());
    let sink = out.trace.take().expect("tracing was enabled");
    let (offered, kept) = (sink.offered(), sink.len());
    let dropped = sink.dropped();
    let (events, _) = sink.into_ordered();
    let sim_ns = out.completion_ns();
    let tl = LinkTimeline::build(&events, num_links, TIMELINE_WINDOW_NS, sim_ns);
    let (busiest_link, busiest_busy_ns) = tl.busiest(1).first().copied().unwrap_or((0, 0));
    TracedCell {
        name,
        events_offered: offered,
        events_kept: kept,
        events_dropped: dropped,
        sim_ns,
        timeline_digest: tl.digest(),
        busiest_link: busiest_link as u32,
        busiest_busy_ns,
    }
}

/// Export a traced 512-node fat-tree Allgather as a Chrome trace-event
/// JSON document (already round-tripped through [`validate_json`]).
/// Shared by the generator cell and the `figures --trace <path>` flag
/// (CI's Perfetto artifact).
pub fn reference_chrome_trace() -> String {
    let topo = Topology::fat_tree_512(LinkRate::NDR_400G);
    let link_names: Vec<String> = (0..topo.num_links()).map(|l| format!("link{l}")).collect();
    let out = traced_allgather(topo, 8 << 10, TraceSpec::default());
    let sink = out.trace.expect("tracing was enabled");
    let (events, dropped) = sink.into_ordered();
    let tr = RuntimeTrace::from_fabric(events, dropped);
    let doc = export_chrome(
        &tr,
        &ChromeOptions {
            link_names,
            tenant_names: Vec::new(),
        },
    );
    validate_json(&doc).expect("chrome export must round-trip the JSON parser");
    doc
}

/// A small open-loop multi-tenant scenario traced end to end.
fn traced_runtime(jobs: usize) -> (RuntimeReport, RuntimeTrace) {
    let cfg = RuntimeConfig {
        pool: PoolConfig::with_capacity(6),
        max_inflight: 2,
        partitions: 2,
        trace: Some(TraceSpec::default()),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(Topology::single_switch(8, LinkRate::CX3_56G, 100), cfg);
    let tenants: Vec<_> = (0..3)
        .map(|i| rt.register_tenant(&format!("t{i}")))
        .collect();
    for (i, &t) in tenants.iter().enumerate() {
        for j in 0..2u64 {
            rt.submit_at(j * 400_000, t, JobKind::Allgather, (8 << 10) << (i % 2));
        }
    }
    let report = rt.run_open_loop_jobs(jobs);
    let trace = rt.take_trace().expect("tracing was enabled");
    (report, trace)
}

struct RuntimeCell {
    report_digest: u64,
    trace_digest: u64,
    fabric_events: usize,
    batch_spans: usize,
    job_spans: usize,
}

fn runtime_cell() -> RuntimeCell {
    let (r1, t1) = traced_runtime(1);
    let (r4, t4) = traced_runtime(4);
    assert_eq!(r1, r4, "open-loop report must not depend on worker count");
    assert_eq!(t1, t4, "trace must not depend on worker count");
    RuntimeCell {
        report_digest: fnv(&format!("{r1:?}")),
        trace_digest: fnv(&format!("{t1:?}")),
        fabric_events: t1.fabric.len(),
        batch_spans: t1.batches.len(),
        job_spans: t1.jobs.len(),
    }
}

/// The flight-recorder study: the recorded baseline, or (smoke) the same
/// cells at smaller messages — regenerate either twice and the bytes
/// must match.
pub fn tracefigs(smoke: bool) -> FigData {
    let (n188, n512) = if smoke {
        (32 << 10, 8 << 10)
    } else {
        (256 << 10, 64 << 10)
    };
    let mode = study::mode(smoke);
    let cells = [
        traced_cell("traced_ag188", Topology::ucc_testbed(), n188),
        traced_cell(
            "traced_fat_tree_512",
            Topology::fat_tree_512(LinkRate::NDR_400G),
            n512,
        ),
    ];
    let chrome = reference_chrome_trace();
    let chrome = (chrome.len(), fnv(&chrome));
    let rt = runtime_cell();

    let mut f = FigData::new(
        "tracefigs",
        "Flight recorder: determinism digests and Perfetto export",
        &["cell", "events", "kept", "dropped", "digest", "detail"],
    );
    for c in &cells {
        f.row(vec![
            c.name.into(),
            c.events_offered.to_string(),
            c.events_kept.to_string(),
            c.events_dropped.to_string(),
            format!("{:016x}", c.timeline_digest),
            format!(
                "busiest link {} busy {} ns of {} ns",
                c.busiest_link, c.busiest_busy_ns, c.sim_ns
            ),
        ]);
    }
    f.row(vec![
        "chrome_export".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:016x}", chrome.1),
        format!("{} bytes, JSON round-trip ok", chrome.0),
    ]);
    f.row(vec![
        "runtime_jobs".into(),
        rt.fabric_events.to_string(),
        rt.batch_spans.to_string(),
        rt.job_spans.to_string(),
        format!("{:016x}", rt.trace_digest),
        format!("jobs=1 == jobs=4; report digest {:016x}", rt.report_digest),
    ]);
    f.note(format!(
        "mode={mode}; ring capacity {} events, timeline window {TIMELINE_WINDOW_NS} ns",
        TraceSpec::DEFAULT_CAPACITY
    ));
    f.note("digests and event counts are simulated-time integers: byte-stable across hosts");
    let doc = baseline_doc(smoke, &cells, chrome, &rt);
    study::attach(&mut f, "trace", smoke, &doc);
    f
}

/// The baseline document; `chrome` is the reference export's byte
/// length and digest.
fn baseline_doc(
    smoke: bool,
    cells: &[TracedCell],
    (chrome_bytes, chrome_digest): (usize, u64),
    rt: &RuntimeCell,
) -> Obj {
    let hex = |d: u64| format!("{d:016x}");
    Obj::new()
        .str("generator", "figures tracefigs")
        .str("mode", study::mode(smoke))
        .int("ring_capacity", TraceSpec::DEFAULT_CAPACITY as u64)
        .int("timeline_window_ns", TIMELINE_WINDOW_NS)
        .blocks(
            "scenarios",
            cells.iter().map(|c| {
                Obj::new()
                    .str("name", c.name)
                    .int("events_offered", c.events_offered)
                    .int("events_kept", c.events_kept as u64)
                    .int("events_dropped", c.events_dropped)
                    .int("sim_time_ns", c.sim_ns)
                    .str("timeline_digest", &hex(c.timeline_digest))
                    .int("busiest_link", c.busiest_link.into())
                    .int("busiest_busy_ns", c.busiest_busy_ns)
            }),
        )
        .obj(
            "chrome_export",
            Obj::new()
                .str("scenario", "traced fat_tree_512 allgather")
                .int("bytes", chrome_bytes as u64)
                .str("digest", &hex(chrome_digest))
                .bool("json_round_trip", true),
        )
        .obj(
            "runtime_jobs",
            Obj::new()
                .ints("jobs_compared", &[1, 4])
                .bool("identical", true)
                .str("report_digest", &hex(rt.report_digest))
                .str("trace_digest", &hex(rt.trace_digest))
                .int("fabric_events", rt.fabric_events as u64)
                .int("batch_spans", rt.batch_spans as u64)
                .int("job_spans", rt.job_spans as u64),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `key`'s value inside `block` of the checked-in full-mode baseline.
    fn baseline_field(block: &str, key: &str) -> &'static str {
        let baseline = include_str!("../../../BENCH_trace.json");
        let cell = &baseline[baseline.find(block).expect("block present")..];
        let rest = &cell[cell.find(key).expect("field present") + key.len()..];
        rest[..rest.find(['\n', ',']).expect("field ends")].trim_matches([' ', '"'])
    }

    /// The exporter's bytes are pinned: the reference trace must digest
    /// to what the checked-in full-mode baseline recorded (both modes
    /// export the same trace), so a renderer change that moves one byte
    /// fails here rather than at the next `tracefigs` regeneration.
    #[test]
    fn reference_trace_matches_the_checked_in_baseline() {
        let doc = reference_chrome_trace();
        let field = |key| baseline_field("\"chrome_export\"", key);
        assert_eq!(doc.len().to_string(), field("\"bytes\":"));
        assert_eq!(format!("{:016x}", fnv(&doc)), field("\"digest\":"));
    }

    #[test]
    fn traced_cell_is_deterministic() {
        let topo = || Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let a = traced_cell("x", topo(), 16 << 10);
        let b = traced_cell("x", topo(), 16 << 10);
        assert!(a.events_offered > 0);
        assert_eq!(a.events_offered, b.events_offered);
        assert_eq!(a.timeline_digest, b.timeline_digest);
        assert_eq!(a.busiest_busy_ns, b.busiest_busy_ns);
    }

    #[test]
    fn tracing_leaves_results_untouched() {
        let topo = || Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let mut plain_cfg = FabricConfig::ucc_default();
        let traced = traced_allgather(topo(), 16 << 10, TraceSpec::default());
        plain_cfg.trace = None;
        let plain = des::run_collective(
            topo(),
            plain_cfg,
            ProtocolConfig {
                mtu: sim_mtu_for(16 << 10),
                ..ProtocolConfig::default()
            },
            CollectiveKind::Allgather,
            16 << 10,
        );
        assert_eq!(traced.stats.events, plain.stats.events);
        assert_eq!(traced.completion_ns(), plain.completion_ns());
        // Compare the deterministic counters only — `TrafficReport` also
        // carries host wall clock, which legitimately differs per run.
        assert_eq!(
            format!("{:?}", traced.traffic.per_link()),
            format!("{:?}", plain.traffic.per_link())
        );
        assert_eq!(traced.traffic.rnr_per_rank(), plain.traffic.rnr_per_rank());
    }

    /// Both modes trace the same open-loop run, so its two digests are
    /// pinned to the checked-in baseline as well — they went stale
    /// unnoticed once, when nothing compared them.
    #[test]
    fn runtime_cell_matches_across_workers_and_the_baseline() {
        let rt = runtime_cell();
        assert!(rt.fabric_events > 0);
        assert_eq!(rt.job_spans, 6);
        assert!(rt.batch_spans >= 1);
        let field = |key| baseline_field("\"runtime_jobs\"", key);
        assert_eq!(
            format!("{:016x}", rt.report_digest),
            field("\"report_digest\":")
        );
        assert_eq!(
            format!("{:016x}", rt.trace_digest),
            field("\"trace_digest\":")
        );
    }

    #[test]
    fn smoke_json_is_byte_stable() {
        let topo = || Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let mk = || {
            let cells = [traced_cell("c", topo(), 8 << 10)];
            let rt = RuntimeCell {
                report_digest: 1,
                trace_digest: 2,
                fabric_events: 3,
                batch_spans: 4,
                job_spans: 5,
            };
            baseline_doc(true, &cells, (10, 0xabc), &rt).render()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        validate_json(&a).expect("well-formed baseline JSON");
    }
}
