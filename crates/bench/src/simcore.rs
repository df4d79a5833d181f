//! Simulator-core throughput: the perf trajectory of the DES engine.
//!
//! Three scenarios, each run on the timer-wheel engine and (where the
//! baseline is tractable) the reference binary-heap engine:
//!
//! * `event_queue` — a pure schedule/pop churn microbenchmark with an
//!   NIC-like delay mix (mostly sub-4 µs, some cross-level, some
//!   far-future timers).
//! * `allgather_188` — the paper's full 188-node UCC-testbed Allgather,
//!   end to end, measured in engine events per wall-clock second.
//! * `allgather_512_fat_tree` — a 512-node three-level fat-tree
//!   Allgather, the scale that motivated the wheel/slab overhaul.
//!
//! The full generator writes `BENCH_simcore.json` into the working
//! directory with before/after numbers so future perf PRs can diff
//! against this baseline. `simcore_smoke` runs the same shapes at
//! bounded sizes for CI and writes `BENCH_simcore_smoke.json` so it
//! never clobbers the checked-in full-mode baseline.
//!
//! Unlike the sweep generators, these scenarios run **serially even
//! under `figures --jobs N`**: each one measures engine events per
//! *wall-clock* second, and concurrent scenario runs would contend for
//! cores and corrupt the recorded baseline. The parallel executor's own
//! wall-clock trajectory is measured deliberately by the
//! `parallel_scaling` generator (`BENCH_parallel.json`).

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use mcag_core::{des, CollectiveKind, ProtocolConfig};
use mcag_simnet::{EventQueue, FabricConfig, QueueBackend, Topology};
use mcag_verbs::LinkRate;
use std::fmt::Write as _;
use std::time::Instant;

/// File the full-mode generator writes its machine-readable baseline to
/// (checked in — the perf trajectory's source of truth).
pub const BENCH_JSON: &str = "BENCH_simcore.json";

/// File the bounded CI smoke writes instead, so a smoke run never
/// clobbers the checked-in full-mode baseline.
pub const BENCH_SMOKE_JSON: &str = "BENCH_simcore_smoke.json";

/// Events/sec of the pre-overhaul engine (`BinaryHeap` queue, per-hop
/// boxed packets, deep multicast clones, payload-carrying event enum) on
/// the full-mode `allgather_188` scenario — measured at the commit
/// preceding the DES overhaul, best of four runs on the host that
/// produced the checked-in `BENCH_simcore.json`. This is the "before"
/// anchor of the perf trajectory; the live binary-heap engine run is a
/// weaker baseline because it already benefits from the slab packet
/// path.
///
/// The anchor is host-specific. To re-anchor on another machine, check
/// out the pre-overhaul commit, time `des::run_collective` on the
/// 188-node 256 KiB Allgather there, and export the result as
/// `SIMCORE_PRE_OVERHAUL_EPS` when regenerating the baseline —
/// [`pre_overhaul_anchor_eps`] prefers that override.
pub const PRE_OVERHAUL_AG188_EVENTS_PER_SEC: f64 = 6.9e6;

/// The pre-overhaul anchor in effect: the `SIMCORE_PRE_OVERHAUL_EPS`
/// environment override when set (a locally re-measured anchor),
/// otherwise the recorded [`PRE_OVERHAUL_AG188_EVENTS_PER_SEC`].
pub fn pre_overhaul_anchor_eps() -> f64 {
    std::env::var("SIMCORE_PRE_OVERHAUL_EPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(PRE_OVERHAUL_AG188_EVENTS_PER_SEC)
}

/// Outcome of one scenario on one engine.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Engine that produced this run.
    pub backend: QueueBackend,
    /// Events the engine processed.
    pub events: u64,
    /// Engine throughput in events per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated completion time of the collective (0 for microbenches).
    pub sim_ns: u64,
    /// Peak pending-event count of the queue.
    pub peak_queue_depth: usize,
}

fn backend_name(b: QueueBackend) -> &'static str {
    match b {
        QueueBackend::Wheel => "timer-wheel",
        QueueBackend::Heap => "binary-heap",
    }
}

/// The churn scenarios' delay mix, drawn from a random word: it mirrors
/// a collective run — mostly NIC-serialization-scale delays (near
/// wheel), some in the millisecond range (far wheel), a few cutoff-scale
/// timers (overflow).
pub fn churn_delay_ns(r: u64) -> u64 {
    match r % 100 {
        0..=84 => r % 4096,              // NIC/switch hop scale
        85..=97 => 4096 + r % (1 << 22), // cross-level cascades
        _ => (1 << 24) + r % (1 << 28),  // cutoff-timer scale
    }
}

/// Pure event-queue churn: hold a steady window of pending events and
/// measure schedule+pop pairs per second under [`churn_delay_ns`].
pub fn queue_churn_events_per_sec(backend: QueueBackend, ops: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..4096u64 {
        q.schedule_in(next() % 4096, i);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let popped = q.pop().expect("steady-state queue drained");
        q.schedule_in(churn_delay_ns(next()), popped.1);
    }
    let wall = t0.elapsed().as_nanos().max(1) as f64;
    // One op = one pop + one schedule, i.e. one event through the queue.
    ops as f64 * 1e9 / wall
}

/// One end-to-end multicast Allgather on `topo`, returning engine
/// stats. Shared by the JSON generator and the `protocol_hotpath`
/// criterion bench so both measure the identical scenario setup.
pub fn allgather_run(topo: Topology, backend: QueueBackend, send_len: usize) -> EngineRun {
    let mut cfg = FabricConfig::ucc_default();
    cfg.event_queue = backend;
    let proto = ProtocolConfig {
        mtu: sim_mtu_for(send_len),
        ..ProtocolConfig::default()
    };
    let out = des::run_collective(topo, cfg, proto, CollectiveKind::Allgather, send_len);
    assert!(out.stats.all_done(), "simcore scenario did not complete");
    EngineRun {
        backend,
        events: out.stats.events,
        events_per_sec: out.stats.events_per_sec(),
        sim_ns: out.completion_ns(),
        peak_queue_depth: out.stats.peak_queue_depth,
    }
}

struct Scenario {
    name: &'static str,
    runs: Vec<EngineRun>,
    /// Recorded pre-overhaul events/sec, when this exact scenario has a
    /// measured "before" anchor (full-mode `allgather_188` only).
    pre_overhaul: Option<f64>,
}

impl Scenario {
    fn wheel(&self) -> &EngineRun {
        self.runs
            .iter()
            .find(|r| r.backend == QueueBackend::Wheel)
            .expect("every scenario runs the wheel engine")
    }

    fn heap(&self) -> Option<&EngineRun> {
        self.runs.iter().find(|r| r.backend == QueueBackend::Heap)
    }

    /// Wheel throughput over heap throughput (None without a baseline).
    fn speedup(&self) -> Option<f64> {
        self.heap()
            .map(|h| self.wheel().events_per_sec / h.events_per_sec.max(1e-9))
    }
}

fn simcore_with(mode: &str, micro_ops: u64, n188: usize, n512: usize) -> FigData {
    let json_path = if mode == "full" {
        BENCH_JSON
    } else {
        BENCH_SMOKE_JSON
    };
    let mut scenarios = Vec::new();

    // Microbenchmark: synthesize EngineRun records from the churn loop.
    let mut micro_runs = Vec::new();
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let eps = queue_churn_events_per_sec(backend, micro_ops);
        assert!(eps > 0.0, "microbench reported zero events/sec");
        micro_runs.push(EngineRun {
            backend,
            events: micro_ops,
            events_per_sec: eps,
            sim_ns: 0,
            peak_queue_depth: 4096,
        });
    }
    scenarios.push(Scenario {
        name: "event_queue",
        runs: micro_runs,
        pre_overhaul: None,
    });

    // The paper's 188-node testbed, both engines (the acceptance metric).
    scenarios.push(Scenario {
        name: "allgather_188",
        runs: vec![
            allgather_run(Topology::ucc_testbed(), QueueBackend::Wheel, n188),
            allgather_run(Topology::ucc_testbed(), QueueBackend::Heap, n188),
        ],
        // The recorded anchor was measured at full-mode sizes only.
        pre_overhaul: (mode == "full").then_some(pre_overhaul_anchor_eps()),
    });

    // 512-node fat-tree: wheel only — the scenario this PR makes
    // tractable; the heap baseline is recorded at 188 nodes.
    scenarios.push(Scenario {
        name: "allgather_512_fat_tree",
        runs: vec![allgather_run(
            Topology::fat_tree_512(LinkRate::NDR_400G),
            QueueBackend::Wheel,
            n512,
        )],
        pre_overhaul: None,
    });

    let mut f = FigData::new(
        "simcore",
        "Simulator-core throughput: timer-wheel engine vs reference binary heap",
        &[
            "scenario",
            "engine",
            "events",
            "events/sec",
            "peak queue",
            "sim time (us)",
            "speedup vs heap",
        ],
    );
    for sc in &scenarios {
        let speedup = sc.speedup();
        for run in &sc.runs {
            assert!(run.events_per_sec > 0.0, "{}: zero events/sec", sc.name);
            let speedup_cell = match (run.backend, speedup) {
                (QueueBackend::Wheel, Some(s)) => format!("{s:.2}x"),
                (QueueBackend::Wheel, None) => "-".into(),
                (QueueBackend::Heap, _) => "1.00x".into(),
            };
            f.row(vec![
                sc.name.into(),
                backend_name(run.backend).into(),
                run.events.to_string(),
                format!("{:.3}M", run.events_per_sec / 1e6),
                run.peak_queue_depth.to_string(),
                format!("{:.1}", run.sim_ns as f64 / 1e3),
                speedup_cell,
            ]);
        }
    }
    f.note(format!(
        "mode={mode}; before = binary-heap engine, after = timer-wheel + slab packet path"
    ));
    if let Some(sc) = scenarios.iter().find(|s| s.pre_overhaul.is_some()) {
        let pre = sc.pre_overhaul.unwrap_or(1.0);
        f.note(format!(
            "{}: recorded pre-overhaul engine (heap + per-hop clones) ran at {:.1}M events/sec \
             on this scenario => {:.2}x end-to-end",
            sc.name,
            pre / 1e6,
            sc.wheel().events_per_sec / pre
        ));
    }
    f.note(format!("machine-readable baseline written to {json_path}"));

    let json = render_json(mode, &scenarios);
    if let Err(e) = std::fs::write(json_path, &json) {
        f.note(format!("could not write {json_path}: {e}"));
    }
    f
}

/// Hand-rolled JSON (the offline serde shim has no serializer).
fn render_json(mode: &str, scenarios: &[Scenario]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"generator\": \"figures simcore\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"before_engine\": \"binary-heap\",");
    let _ = writeln!(s, "  \"after_engine\": \"timer-wheel\",");
    let _ = writeln!(
        s,
        "  \"pre_overhaul_anchor\": \"events/sec of the pre-overhaul engine measured once on \
         the baseline recording host; speedup_vs_pre_overhaul is only meaningful for runs on \
         that host — cross-host, compare the engines measured in this same file instead\","
    );
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", sc.name);
        let w = sc.wheel();
        let _ = writeln!(s, "      \"events\": {},", w.events);
        let _ = writeln!(s, "      \"sim_time_ns\": {},", w.sim_ns);
        let _ = writeln!(s, "      \"peak_queue_depth\": {},", w.peak_queue_depth);
        let _ = writeln!(
            s,
            "      \"after_events_per_sec\": {:.0},",
            w.events_per_sec
        );
        match sc.heap() {
            Some(h) => {
                let _ = writeln!(
                    s,
                    "      \"before_events_per_sec\": {:.0},",
                    h.events_per_sec
                );
                let _ = writeln!(s, "      \"speedup\": {:.3},", sc.speedup().unwrap_or(0.0));
            }
            None => {
                let _ = writeln!(s, "      \"before_events_per_sec\": null,");
                let _ = writeln!(s, "      \"speedup\": null,");
            }
        }
        match sc.pre_overhaul {
            Some(pre) => {
                let _ = writeln!(s, "      \"pre_overhaul_events_per_sec\": {pre:.0},");
                let _ = writeln!(
                    s,
                    "      \"speedup_vs_pre_overhaul\": {:.3}",
                    w.events_per_sec / pre
                );
            }
            None => {
                let _ = writeln!(s, "      \"pre_overhaul_events_per_sec\": null,");
                let _ = writeln!(s, "      \"speedup_vs_pre_overhaul\": null");
            }
        }
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Full simulator-throughput suite (the recorded baseline).
pub fn simcore() -> FigData {
    simcore_with("full", 2_000_000, 256 << 10, 64 << 10)
}

/// Bounded CI smoke: same scenarios, smaller iteration counts and
/// messages; still asserts a nonzero events/sec on every row and writes
/// [`BENCH_SMOKE_JSON`] (not the checked-in full baseline).
pub fn simcore_smoke() -> FigData {
    simcore_with("smoke", 200_000, 32 << 10, 8 << 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_reports_nonzero_on_both_engines() {
        for b in [QueueBackend::Wheel, QueueBackend::Heap] {
            assert!(queue_churn_events_per_sec(b, 20_000) > 0.0, "{b:?}");
        }
    }

    #[test]
    fn small_allgather_reports_engine_stats() {
        let topo = Topology::single_switch(8, LinkRate::CX3_56G, 100);
        let run = allgather_run(topo, QueueBackend::Wheel, 16 << 10);
        assert!(run.events > 0);
        assert!(run.events_per_sec > 0.0);
        assert!(run.peak_queue_depth > 0);
        assert!(run.sim_ns > 0);
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let sc = Scenario {
            name: "x",
            runs: vec![
                EngineRun {
                    backend: QueueBackend::Wheel,
                    events: 10,
                    events_per_sec: 5.0,
                    sim_ns: 1,
                    peak_queue_depth: 2,
                },
                EngineRun {
                    backend: QueueBackend::Heap,
                    events: 10,
                    events_per_sec: 2.5,
                    sim_ns: 1,
                    peak_queue_depth: 2,
                },
            ],
            pre_overhaul: Some(1.0),
        };
        let j = render_json("test", &[sc]);
        assert!(j.contains("\"speedup\": 2.000,"));
        assert!(j.contains("\"before_events_per_sec\": 2,"));
        assert!(j.contains("\"speedup_vs_pre_overhaul\": 5.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
