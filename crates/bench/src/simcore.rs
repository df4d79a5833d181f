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
//! The full study's baseline is `BENCH_simcore.json`, with before/after
//! numbers so future perf PRs can diff against it. `simcore_smoke` runs
//! the same shapes at bounded sizes for CI (`BENCH_simcore_smoke.json`).
//!
//! Unlike the sweep generators, these scenarios run **serially even
//! under `figures --jobs N`**: each one measures engine events per
//! *wall-clock* second, and concurrent scenario runs would contend for
//! cores and corrupt the recorded baseline. The parallel executor's own
//! wall-clock trajectory is measured deliberately by the
//! `parallel_scaling` generator (`BENCH_parallel.json`).

use crate::data::FigData;
use crate::netfigs::sim_mtu_for;
use crate::study::{self, Obj};
use mcag_core::{des, CollectiveKind, ProtocolConfig};
use mcag_simnet::{EventQueue, FabricConfig, QueueBackend, Topology};
use mcag_verbs::LinkRate;
use std::time::Instant;

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
/// 188-node 256 KiB Allgather there, and record the result here before
/// regenerating the baseline.
pub const PRE_OVERHAUL_AG188_EVENTS_PER_SEC: f64 = 6.9e6;

/// Outcome of one scenario on one engine.
struct EngineRun {
    /// Events the engine processed.
    events: u64,
    /// Engine throughput in events per wall-clock second.
    events_per_sec: f64,
    /// Simulated completion time of the collective (0 for microbenches).
    sim_ns: u64,
    /// Peak pending-event count of the queue.
    peak_queue_depth: usize,
}

/// The churn scenarios' delay mix, drawn from a random word: it mirrors
/// a collective run — mostly NIC-serialization-scale delays (near
/// wheel), some in the millisecond range (far wheel), a few cutoff-scale
/// timers (overflow).
fn churn_delay_ns(r: u64) -> u64 {
    match r % 100 {
        0..=84 => r % 4096,              // NIC/switch hop scale
        85..=97 => 4096 + r % (1 << 22), // cross-level cascades
        _ => (1 << 24) + r % (1 << 28),  // cutoff-timer scale
    }
}

/// Pure event-queue churn: hold a steady window of pending events and
/// measure schedule+pop pairs per second under [`churn_delay_ns`].
fn queue_churn_events_per_sec(backend: QueueBackend, ops: u64) -> f64 {
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
        events_per_sec: out.stats.events_per_sec(),
        sim_ns: out.completion_ns(),
        peak_queue_depth: out.stats.peak_queue_depth,
    }
}

struct Scenario {
    name: &'static str,
    wheel: EngineRun,
    /// The reference binary-heap engine on the same scenario, where it
    /// is tractable.
    heap: Option<EngineRun>,
    /// Recorded pre-overhaul events/sec, when this exact scenario has a
    /// measured "before" anchor (full-mode `allgather_188` only).
    pre_overhaul: Option<f64>,
}

impl Scenario {
    /// Wheel throughput over heap throughput (None without a baseline).
    fn speedup(&self) -> Option<f64> {
        let heap = self.heap.as_ref()?;
        Some(self.wheel.events_per_sec / heap.events_per_sec.max(1e-9))
    }
}

/// The simulator-throughput study: the recorded baseline, or (smoke) the
/// same scenarios at bounded iteration counts and message sizes; asserts
/// a nonzero events/sec on every row either way.
pub fn simcore(smoke: bool) -> FigData {
    let (micro_ops, n188, n512) = if smoke {
        (200_000, 32 << 10, 8 << 10)
    } else {
        (2_000_000, 256 << 10, 64 << 10)
    };
    let mode = study::mode(smoke);
    // Microbenchmark: synthesize EngineRun records from the churn loop.
    let churn = |backend| EngineRun {
        events: micro_ops,
        events_per_sec: queue_churn_events_per_sec(backend, micro_ops),
        sim_ns: 0,
        peak_queue_depth: 4096,
    };
    let ag188 = |backend| allgather_run(Topology::ucc_testbed(), backend, n188);
    let scenarios = [
        Scenario {
            name: "event_queue",
            wheel: churn(QueueBackend::Wheel),
            heap: Some(churn(QueueBackend::Heap)),
            pre_overhaul: None,
        },
        // The paper's 188-node testbed, both engines (the acceptance
        // metric); the recorded anchor was measured at full-mode sizes.
        Scenario {
            name: "allgather_188",
            wheel: ag188(QueueBackend::Wheel),
            heap: Some(ag188(QueueBackend::Heap)),
            pre_overhaul: (!smoke).then_some(PRE_OVERHAUL_AG188_EVENTS_PER_SEC),
        },
        // 512-node fat-tree: wheel only — the heap baseline is recorded
        // at 188 nodes.
        Scenario {
            name: "allgather_512_fat_tree",
            wheel: allgather_run(
                Topology::fat_tree_512(LinkRate::NDR_400G),
                QueueBackend::Wheel,
                n512,
            ),
            heap: None,
            pre_overhaul: None,
        },
    ];

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
        let wheel_speedup = sc.speedup().map_or("-".into(), |s| format!("{s:.2}x"));
        for (run, engine, speedup) in [(&sc.wheel, "timer-wheel", wheel_speedup)]
            .into_iter()
            .chain(sc.heap.iter().map(|h| (h, "binary-heap", "1.00x".into())))
        {
            assert!(run.events_per_sec > 0.0, "{}: zero events/sec", sc.name);
            f.row(vec![
                sc.name.into(),
                engine.into(),
                run.events.to_string(),
                format!("{:.3}M", run.events_per_sec / 1e6),
                run.peak_queue_depth.to_string(),
                format!("{:.1}", run.sim_ns as f64 / 1e3),
                speedup,
            ]);
        }
    }
    f.note(format!(
        "mode={mode}; before = binary-heap engine, after = timer-wheel + slab packet path"
    ));
    for sc in &scenarios {
        let Some(pre) = sc.pre_overhaul else { continue };
        f.note(format!(
            "{}: recorded pre-overhaul engine (heap + per-hop clones) ran at {:.1}M events/sec \
             on this scenario => {:.2}x end-to-end",
            sc.name,
            pre / 1e6,
            sc.wheel.events_per_sec / pre
        ));
    }
    study::attach(&mut f, "simcore", smoke, &baseline_doc(mode, &scenarios));
    f
}

/// The baseline document: before/after engine throughput per scenario.
fn baseline_doc(mode: &str, scenarios: &[Scenario]) -> Obj {
    Obj::new()
        .str("generator", "figures simcore")
        .str("mode", mode)
        .str("before_engine", "binary-heap")
        .str("after_engine", "timer-wheel")
        .str(
            "pre_overhaul_anchor",
            "events/sec of the pre-overhaul engine measured once on the baseline recording \
             host; speedup_vs_pre_overhaul is only meaningful for runs on that host — \
             cross-host, compare the engines measured in this same file instead",
        )
        .blocks(
            "scenarios",
            scenarios.iter().map(|sc| {
                let w = &sc.wheel;
                let heap_eps = sc.heap.as_ref().map(|h| h.events_per_sec);
                let vs_pre = sc.pre_overhaul.map(|pre| w.events_per_sec / pre);
                Obj::new()
                    .str("name", sc.name)
                    .int("events", w.events)
                    .int("sim_time_ns", w.sim_ns)
                    .int("peak_queue_depth", w.peak_queue_depth as u64)
                    .float("after_events_per_sec", w.events_per_sec, 0)
                    .float_or_null("before_events_per_sec", heap_eps, 0)
                    .float_or_null("speedup", sc.speedup(), 3)
                    .float_or_null("pre_overhaul_events_per_sec", sc.pre_overhaul, 0)
                    .float_or_null("speedup_vs_pre_overhaul", vs_pre, 3)
            }),
        )
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
        let run = |events_per_sec| EngineRun {
            events: 10,
            events_per_sec,
            sim_ns: 1,
            peak_queue_depth: 2,
        };
        let sc = Scenario {
            name: "x",
            wheel: run(5.0),
            heap: Some(run(2.5)),
            pre_overhaul: Some(1.0),
        };
        let j = baseline_doc("test", &[sc]).render();
        assert!(j.contains("\"speedup\": 2.000,"));
        assert!(j.contains("\"before_events_per_sec\": 2,"));
        assert!(j.contains("\"speedup_vs_pre_overhaul\": 5.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        mcag_trace::validate_json(&j).expect("simcore baseline parses");
    }
}
