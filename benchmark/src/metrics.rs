//! The metric names, units and directions this benchmark emits — the
//! same list `BENCHMARK.json` declares (a test holds the two together).

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, unique across both lists.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Unit of every metric read off the simulated clock, so that no table
/// can confuse it with host time.
pub const SIM_US: &str = "sim_us";

/// What a user of the system sees; printed by the `--trace 0` run and
/// gated by the bounds in `BENCHMARK.json`. Every one is defined, and
/// non-zero, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("jobs_per_mcalop", "jobs/Mcalop"),
    lower("peak_heap_mib", "MiB"),
    lower("sim_latency_p50_us", SIM_US),
    lower("sim_latency_p999_us", SIM_US),
    lower("wire_amplification", "ratio"),
    higher("completed_share", "ratio"),
];

/// End-to-end metrics read off the simulated clock or the simulated
/// counters alone: the same seed gives exactly the same value on every
/// host, so `compare` holds two sets of one seed to a bound of 0 on
/// them. The bounds in `BENCHMARK.json` are for sets of different seeds.
pub const EXACT_PER_SEED: &[&str] = &[
    "sim_latency_p50_us",
    "sim_latency_p999_us",
    "wire_amplification",
    "completed_share",
];

/// Single-layer metrics (layer = crate, the prefix before the first
/// `.`); printed by the `--trace 1` run. A value of 0 means the layer
/// did no such work on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    // simnet
    lower("simnet.run_loop_ms", "ms"),
    lower("simnet.ns_per_event", "ns"),
    higher("simnet.events_per_calop", "1/calop"),
    lower("simnet.events", "count"),
    lower("simnet.peak_queue_depth", "count"),
    lower("simnet.wire_bytes", "B"),
    lower("simnet.max_link_bytes", "B"),
    lower("simnet.max_link_excess", "ratio"),
    lower("simnet.fault_drops", "count"),
    lower("simnet.rnr_drops", "count"),
    lower("simnet.downtime_ns", "sim_ns"),
    lower("simnet.topology_build_us", "us"),
    lower("simnet.fabric_new_us", "us"),
    lower("simnet.group_create_us", "us"),
    // core
    lower("core.run_collective_ms", "ms"),
    lower("core.driver_overhead_ms", "ms"),
    lower("core.agrs_inswitch_ms", "ms"),
    lower("core.agrs_endpoint_ms", "ms"),
    lower("core.plan_build_us", "us"),
    lower("core.sim_sync_us", SIM_US),
    lower("core.sim_datapath_us", SIM_US),
    lower("core.sim_final_us", SIM_US),
    lower("core.fetched_chunks", "count"),
    lower("core.fetch_share", "ratio"),
    // runtime
    lower("runtime.arrivals_gen_us", "us"),
    lower("runtime.new_us", "us"),
    lower("runtime.load_arrivals_us", "us"),
    lower("runtime.run_open_loop_ms", "ms"),
    lower("runtime.report_us", "us"),
    lower("runtime.us_per_batch", "us"),
    lower("runtime.batches", "count"),
    higher("runtime.jobs_per_batch", "ratio"),
    higher("runtime.pool_hit_rate", "ratio"),
    lower("runtime.pool_rebuilds", "count"),
    lower("runtime.rejected", "count"),
    lower("runtime.censored", "count"),
    lower("runtime.retried", "count"),
    lower("runtime.gave_up", "count"),
    lower("runtime.sm_rebuilds", "count"),
    lower("runtime.sim_queue_share", "ratio"),
    higher("runtime.sim_utilization", "ratio"),
    lower("runtime.x05_p999_us", SIM_US),
    lower("runtime.x8_p999_us", SIM_US),
    lower("runtime.x8_reject_share", "ratio"),
    // faults
    lower("faults.compile_us", "us"),
    lower("faults.transitions", "count"),
    // trace
    lower("trace.events_offered", "count"),
    lower("trace.events_kept", "count"),
    lower("trace.record_overhead_share", "ratio"),
    lower("trace.take_us", "us"),
    lower("trace.export_ms", "ms"),
    lower("trace.export_mib", "MiB"),
    lower("trace.timeline_ms", "ms"),
    // offload / dpa
    lower("offload.host_model_dpa_ms", "ms"),
    lower("offload.host_model_cpu_ms", "ms"),
    lower("offload.host_model_fpga_ms", "ms"),
    lower("offload.host_model_sharp_ms", "ms"),
    lower("offload.datapath_ms", "ms"),
    lower("dpa.run_datapath_ms", "ms"),
    // exec
    higher("exec.par_map_j2_speedup", "ratio"),
    higher("exec.digest_equal", "count"),
    // baselines
    higher("baselines.ring_wire_ratio", "ratio"),
    lower("baselines.ring_run_ms", "ms"),
    // host: the benchmark's own view of the machine
    higher("host.cal_mops", "Mops/s"),
    lower("host.cal_spread", "ratio"),
    higher("host.events_per_s", "1/s"),
    higher("host.jobs_per_s", "1/s"),
    lower("host.iter_wall_ms_p50", "ms"),
    lower("host.iter_wall_ms_p75", "ms"),
    lower("host.setup_wall_s", "s"),
    lower("host.runq_wait_share", "ratio"),
    lower("host.allocs_per_iter", "count"),
    lower("host.alloc_mib_per_iter", "MiB"),
    lower("host.peak_rss_mib", "MiB"),
    lower("host.span_overhead_share", "ratio"),
    lower("host.unattributed_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` and the tables above must declare the same
    /// metrics, in the same order, with the same unit and direction.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).expect(f).to_string();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field("better"), better, "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in EXACT_PER_SEED {
            assert!(END_TO_END.iter().any(|d| d.name == *name), "{name}");
        }
    }
}
