//! Simulator-core determinism: what the DES engine computes on the
//! paper's scale, on both event-queue engines.
//!
//! Two scenarios:
//!
//! * `allgather_188` — the paper's full 188-node UCC-testbed Allgather,
//!   run on the timer-wheel engine and on the reference binary-heap
//!   engine (the determinism oracle).
//! * `allgather_512_fat_tree` — a 512-node three-level fat-tree
//!   Allgather on the timer wheel, the scale that motivated the
//!   wheel/slab overhaul.
//!
//! Every cell runs through [`study::sweep`] (jobs = 1 and 4, digests
//! asserted equal) and records engine events, completion time and peak
//! queue depth — simulated-time integers, so the baseline regenerates
//! byte for byte on any host. The `engines_identical` gate holds every
//! engine of a scenario to the same three numbers. The full study's
//! baseline is `BENCH_simcore.json`, whose `allgather_188` row is the
//! benchmark's `ag188` golden; `simcore_smoke` runs the same cells at
//! smaller messages. Host speed (events per second, ns per event) is
//! measured by the benchmark in `benchmark/`, not here.

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::{des, CollectiveKind, ProtocolConfig};
use mcag_simnet::{FabricConfig, QueueBackend, Topology};
use mcag_verbs::LinkRate;

/// What one scenario computed on one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EngineRun {
    /// Events the engine processed.
    events: u64,
    /// Simulated completion time of the collective.
    sim_ns: u64,
    /// Peak pending-event count of the queue.
    peak_queue_depth: usize,
}

/// One end-to-end multicast Allgather on `topo`, returning engine
/// stats.
fn allgather_run(topo: Topology, backend: QueueBackend, send_len: usize) -> EngineRun {
    let mut cfg = FabricConfig::ucc_default();
    cfg.event_queue = backend;
    let proto = ProtocolConfig {
        mtu: sim_mtu_for(send_len),
        ..ProtocolConfig::default()
    };
    let out = des::run_collective(topo, cfg, proto, CollectiveKind::Allgather, send_len);
    assert!(out.stats.all_done(), "simcore scenario did not complete");
    EngineRun {
        events: out.stats.events,
        sim_ns: out.completion_ns(),
        peak_queue_depth: out.stats.peak_queue_depth,
    }
}

/// One scenario on one engine.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    topo: fn() -> Topology,
    send_len: usize,
    engine: QueueBackend,
}

fn engine_label(engine: QueueBackend) -> &'static str {
    match engine {
        QueueBackend::Wheel => "timer-wheel",
        QueueBackend::Heap => "binary-heap",
    }
}

/// The study's cells: the 188-node Allgather on both engines, the
/// 512-node fat-tree on the wheel (smoke: smaller messages).
fn cells(smoke: bool) -> [Cell; 3] {
    let (n188, n512) = if smoke {
        (32 << 10, 8 << 10)
    } else {
        (256 << 10, 64 << 10)
    };
    let ag188 = |engine| Cell {
        name: "allgather_188",
        topo: Topology::ucc_testbed,
        send_len: n188,
        engine,
    };
    [
        ag188(QueueBackend::Wheel),
        ag188(QueueBackend::Heap),
        Cell {
            name: "allgather_512_fat_tree",
            topo: || Topology::fat_tree_512(LinkRate::NDR_400G),
            send_len: n512,
            engine: QueueBackend::Wheel,
        },
    ]
}

/// The simulator-core study: the recorded baseline, or (smoke) the same
/// cells at smaller messages; asserts both engines agree either way.
pub fn simcore(smoke: bool) -> FigData {
    let mode = study::mode(smoke);
    let cells = cells(smoke);
    let sweep = study::sweep(
        study::PASSES,
        &cells,
        |_| 0,
        |c| allgather_run((c.topo)(), c.engine, c.send_len),
    );

    let mut f = FigData::new(
        "simcore",
        "Simulator core: timer-wheel engine vs reference binary heap",
        &[
            "scenario",
            "engine",
            "events",
            "peak queue",
            "sim time (us)",
        ],
    );
    for (c, run) in cells.iter().zip(&sweep.digests) {
        f.row(vec![
            c.name.into(),
            engine_label(c.engine).into(),
            run.events.to_string(),
            run.peak_queue_depth.to_string(),
            format!("{:.1}", run.sim_ns as f64 / 1e3),
        ]);
    }
    f.note(format!(
        "mode={mode}; every engine of a scenario must reproduce its events, peak queue depth \
         and completion time"
    ));
    f.note("host speed of the engine: the benchmark's ag188 workload (simnet.ns_per_event)");
    sweep.note_passes(&mut f);

    let groups = sweep.group_by(&cells, |c| c.name);
    let engines_identical = groups
        .iter()
        .all(|(_, runs)| runs.windows(2).all(|w| w[0] == w[1]));
    let scenarios: Vec<Scenario> = groups
        .into_iter()
        .map(|(name, runs)| Scenario {
            name,
            engines: cells
                .iter()
                .filter(|c| c.name == name)
                .map(|c| engine_label(c.engine))
                .collect(),
            run: *runs[0],
        })
        .collect();
    let doc = baseline_doc(mode, sweep.cross_checked(), engines_identical, &scenarios);
    study::attach(&mut f, "simcore", smoke, &doc);
    f
}

/// One scenario of the baseline: the engines that ran it and what the
/// first of them computed.
struct Scenario {
    name: &'static str,
    engines: Vec<&'static str>,
    run: EngineRun,
}

/// The baseline document; `cross_checked` is whether the sweep compared
/// two passes, `engines_identical` whether every scenario's engines
/// agreed.
fn baseline_doc(
    mode: &str,
    cross_checked: bool,
    engines_identical: bool,
    scenarios: &[Scenario],
) -> Obj {
    Obj::new()
        .str("generator", "figures simcore")
        .str("mode", mode)
        .gate("results_identical", cross_checked)
        .gate("engines_identical", engines_identical)
        .blocks(
            "scenarios",
            scenarios.iter().map(|sc| {
                Obj::new()
                    .str("name", sc.name)
                    .str("engines", &sc.engines.join(", "))
                    .int("events", sc.run.events)
                    .int("sim_time_ns", sc.run.sim_ns)
                    .int("peak_queue_depth", sc.run.peak_queue_depth as u64)
            }),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_allgather_reports_engine_stats() {
        let topo = || Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let run = allgather_run(topo(), QueueBackend::Wheel, 16 << 10);
        assert!(run.events > 0);
        assert!(run.peak_queue_depth > 0);
        assert!(run.sim_ns > 0);
        assert_eq!(allgather_run(topo(), QueueBackend::Heap, 16 << 10), run);
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let sc = Scenario {
            name: "x",
            engines: vec!["timer-wheel", "binary-heap"],
            run: EngineRun {
                events: 10,
                sim_ns: 1,
                peak_queue_depth: 2,
            },
        };
        let j = baseline_doc("test", true, true, &[sc]).render();
        assert!(j.contains("\"engines_identical\": true,"));
        assert!(j.contains("\"engines\": \"timer-wheel, binary-heap\","));
        assert!(j.contains("\"sim_time_ns\": 1,"));
        assert!(!j.contains("per_sec"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        mcag_trace::validate_json(&j).expect("simcore baseline parses");
    }
}
