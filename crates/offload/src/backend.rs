//! The [`BackendKind`] selector and every backend's cost model: one
//! `match` on the kind per query.

use crate::pipeline::PipelineModel;
use mcag_dpa::{run_datapath, ArrivalModel, DatapathMetrics, DpaSpec, Kernel, KernelKind};
use mcag_simnet::{FabricConfig, HostModel};
use serde::{Deserialize, Serialize};

/// Where a backend's collective compute physically runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// On the endpoint NIC's embedded processor (DPA, FPGA lanes):
    /// receive handlers run next to the DMA engine, the host CPU is
    /// out of the per-chunk path.
    EndpointNic,
    /// On a host core (the UCX-style progress-thread baseline): every
    /// CQE crosses PCIe and consumes host cycles.
    HostCore,
    /// Inside fabric switches on the multicast tree (SHARP-style):
    /// partial aggregates merge on the up-path, endpoints only post
    /// contributions and receive one result.
    InSwitch,
}

impl Placement {
    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Placement::EndpointNic => "endpoint NIC",
            Placement::HostCore => "host core",
            Placement::InSwitch => "in-switch",
        }
    }
}

/// Capacity limits of a backend — the scarce resources a scheduler
/// must pack, analogous to the switch MGID table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendLimits {
    /// Concurrent execution contexts (hardware threads, pipeline
    /// lanes, aggregation units) available for receive handlers.
    pub contexts: u32,
    /// For in-switch backends: bounded per-switch aggregation-table
    /// entries — live `(group, psn)` reduction states a switch can
    /// hold. `None` for endpoint backends (no fabric-resident state).
    pub aggregation_entries: Option<usize>,
}

/// Which receive datapath a cost query models. Mirrors the two
/// transports of the paper's Table I: UD needs the staging→user copy
/// (loopback DMA on the DPA, CPU memcpy on the host), UC writes user
/// memory directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatapathTransport {
    /// Unreliable Datagram: multicast-capable, pays the extra copy.
    Ud,
    /// Unreliable Connected: zero-copy placement.
    Uc,
}

/// Chunk count of the saturated calibration run behind
/// [`BackendKind::host_model`] — enough to wash out pipeline-fill
/// transients, small enough to be negligible at config time.
const CALIBRATION_CHUNKS: u64 = 2_048;

/// FPGA SmartNIC receive lanes, a mid-size AI-NIC shell: 8 lanes ×
/// 512-bit bus at 350 MHz (~180 GB/s aggregate ingress — enough to
/// hold the UD staging-copy pass under the DPA's NIC-DMA floor),
/// 512-stage fill, 16 cycles of header parse, descriptor and CQE emit
/// per chunk.
const FPGA_LANES: PipelineModel = PipelineModel {
    lanes: 8,
    bytes_per_cycle: 64,
    freq_ghz: 0.35,
    fill_cycles: 512,
    overhead_cycles: 16,
};

/// Partial-reconfiguration cost to load the collective's bitstream
/// region and tables before first use (ns): a multi-millisecond setup
/// that only amortizes over long-lived services.
const FPGA_RECONFIG_NS: u64 = 5_000_000;

/// Switch aggregation units of a Quantum-class ASIC: 32 units × 32
/// B/cycle at 1.3 GHz.
const SHARP_UNITS: PipelineModel = PipelineModel {
    lanes: 32,
    bytes_per_cycle: 32,
    freq_ghz: 1.3,
    fill_cycles: 64,
    overhead_cycles: 32,
};

/// Bounded aggregation-table entries per switch: live `(group, psn)`
/// reduction states (the scarce resource, like the MGID table).
const SHARP_TABLE_ENTRIES: usize = 512;

/// Endpoint per-CQE descriptor cost (ns) of the in-switch backend:
/// post contributions, absorb the one reduced completion — no
/// reduction arithmetic.
const SHARP_ENDPOINT_RX_NS: u64 = 120;

/// Subnet-manager cost to program the aggregation tree (ns).
const SHARP_TREE_PROGRAM_NS: u64 = 250_000;

/// One in-network compute backend: what configs store and serialize,
/// and the cost model itself.
///
/// The model has two halves. [`BackendKind::datapath`] is the
/// *device-level* cost — chunks through the backend's receive
/// pipeline, measured like `mcag-dpa`'s Table I.
/// [`BackendKind::host_model`] *compiles* it into the per-CQE endpoint
/// cost the DES fabric charges, so a backend plugs into any existing
/// driver through `FabricConfig.host`. Every query is a deterministic
/// pure function: identical inputs give identical outputs on every
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// BlueField-3 DPA barrel processor (the paper's device).
    DpaBf3,
    /// Host-CPU progress thread on one x86 core (the Fig. 5 baseline).
    HostCpu,
    /// Deep-pipelined FPGA SmartNIC lanes (the FPGA AI-NIC line of
    /// work in PAPERS.md).
    FpgaSmartNic,
    /// SHARP-style in-switch reduction.
    SharpSwitch,
}

impl BackendKind {
    /// Every backend, in bench-table order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::DpaBf3,
        BackendKind::HostCpu,
        BackendKind::FpgaSmartNic,
        BackendKind::SharpSwitch,
    ];

    /// The backend itself: the kind answers every query. Kept for
    /// callers written as `kind.instantiate().host_model(..)`.
    pub fn instantiate(self) -> BackendKind {
        self
    }

    /// Stable short label for tables and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::DpaBf3 => "dpa_bf3",
            BackendKind::HostCpu => "host_cpu",
            BackendKind::FpgaSmartNic => "fpga_smartnic",
            BackendKind::SharpSwitch => "sharp_switch",
        }
    }

    /// Where the compute runs.
    pub fn placement(self) -> Placement {
        match self {
            BackendKind::DpaBf3 | BackendKind::FpgaSmartNic => Placement::EndpointNic,
            BackendKind::HostCpu => Placement::HostCore,
            BackendKind::SharpSwitch => Placement::InSwitch,
        }
    }

    /// Capacity limits. Only the in-switch backend holds fabric state.
    pub fn limits(self) -> BackendLimits {
        let (contexts, aggregation_entries) = match self {
            BackendKind::DpaBf3 => (DpaSpec::bf3().total_threads(), None),
            BackendKind::HostCpu => (DpaSpec::host_cpu().total_threads(), None),
            BackendKind::FpgaSmartNic => (FPGA_LANES.lanes, None),
            BackendKind::SharpSwitch => (SHARP_UNITS.lanes, Some(SHARP_TABLE_ENTRIES)),
        };
        BackendLimits {
            contexts,
            aggregation_entries,
        }
    }

    /// One-time provisioning cost before the first collective can use
    /// the backend (kernel load, partial reconfiguration, SM
    /// aggregation-tree programming). Charged once per service, not
    /// per chunk.
    pub fn setup_ns(self) -> u64 {
        match self {
            // Loading the receive kernel onto the DPA and arming its
            // execution contexts — cheap next to SM group programming.
            BackendKind::DpaBf3 => 100_000,
            // The progress thread already runs; nothing to provision.
            BackendKind::HostCpu => 0,
            BackendKind::FpgaSmartNic => FPGA_RECONFIG_NS,
            BackendKind::SharpSwitch => SHARP_TREE_PROGRAM_NS,
        }
    }

    /// Run `chunks` chunks of `chunk_bytes` through the backend's
    /// receive datapath on `threads` contexts under `arrival`,
    /// returning Table-I-style metrics.
    ///
    /// The DPA and host-CPU backends are [`mcag_dpa::run_datapath`] on
    /// [`DpaSpec::bf3`] and [`DpaSpec::host_cpu`], the transport
    /// picking the kernel; the host CPU runs the same handlers on a
    /// wide out-of-order core, including the UCX UD stack's
    /// software-reliability and memcpy work. The FPGA lanes pay a
    /// second bus pass for the UD staging→user copy. The switch
    /// pipeline reads each chunk against the stored partial and writes
    /// it back — two operand passes on either transport (no staging
    /// copy in-switch).
    pub fn datapath(
        self,
        transport: DatapathTransport,
        threads: u32,
        chunk_bytes: usize,
        chunks: u64,
        arrival: ArrivalModel,
    ) -> DatapathMetrics {
        let ud = transport == DatapathTransport::Ud;
        let engine = |spec: DpaSpec, kernel: KernelKind| {
            let kernel = Kernel::new(kernel);
            run_datapath(&spec, &kernel, threads, chunk_bytes, chunks, arrival)
        };
        match self {
            BackendKind::DpaBf3 => engine(
                DpaSpec::bf3(),
                if ud {
                    KernelKind::DpaUd
                } else {
                    KernelKind::DpaUc
                },
            ),
            BackendKind::HostCpu => engine(
                DpaSpec::host_cpu(),
                if ud {
                    KernelKind::CpuUdUcx
                } else {
                    KernelKind::CpuRcCustom
                },
            ),
            BackendKind::FpgaSmartNic => {
                FPGA_LANES.run(1 + ud as u32, threads, chunk_bytes, chunks, arrival)
            }
            BackendKind::SharpSwitch => SHARP_UNITS.run(2, threads, chunk_bytes, chunks, arrival),
        }
    }

    /// Compile this backend into the endpoint cost model the fabric
    /// charges per CQE for `chunk_bytes` chunks (MTU-sized in
    /// practice).
    ///
    /// A saturated UD calibration run of [`BackendKind::datapath`] on
    /// every context sets the per-CQE progress cost to the sustained
    /// per-chunk interval, rounded up; NIC DMA latency and send posting
    /// keep the testbed constants of [`HostModel::ucc_host`] (the
    /// offload moves *processing*, not the DMA engine). In-switch
    /// endpoints never touch payload arithmetic, so theirs is the
    /// fixed descriptor cost of the one reduced completion.
    pub fn host_model(self, chunk_bytes: usize) -> HostModel {
        let rx_proc_ns_per_cqe = if self == BackendKind::SharpSwitch {
            SHARP_ENDPOINT_RX_NS
        } else {
            let m = self.datapath(
                DatapathTransport::Ud,
                self.limits().contexts,
                chunk_bytes,
                CALIBRATION_CHUNKS,
                ArrivalModel::Saturated,
            );
            ((m.wall_ns / m.chunks as f64).ceil() as u64).max(1)
        };
        HostModel {
            rx_proc_ns_per_cqe,
            ..HostModel::ucc_host()
        }
    }

    /// Compile this backend into `cfg` for `chunk_bytes` chunks: write
    /// its endpoint cost model ([`BackendKind::host_model`]) and its
    /// aggregation-table bound, and return whether a Reduce-Scatter
    /// reduces in the switches (`false`: on the endpoints). The one
    /// way a driver turns a backend into run settings, so no site can
    /// take the cost model without the placement.
    #[must_use]
    pub fn compile(self, cfg: &mut FabricConfig, chunk_bytes: usize) -> bool {
        cfg.host = self.host_model(chunk_bytes);
        cfg.inc_table_capacity = self.limits().aggregation_entries;
        self.placement() == Placement::InSwitch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_instantiates_consistently() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.instantiate(), kind);
            assert!(kind.limits().contexts >= 1);
            assert!(kind.host_model(4096).rq_depth > 0);
            // In-switch backends, and only they, hold fabric state.
            assert_eq!(
                kind.limits().aggregation_entries.is_some(),
                kind.placement() == Placement::InSwitch
            );
            // Compiling writes the cost model and the table bound, and
            // nothing else, and reports the placement.
            let mut cfg = FabricConfig::ucc_default();
            let in_switch = kind.compile(&mut cfg, 4096);
            assert_eq!(in_switch, kind.placement() == Placement::InSwitch);
            let expected = FabricConfig {
                host: kind.host_model(4096),
                inc_table_capacity: kind.limits().aggregation_entries,
                ..FabricConfig::ucc_default()
            };
            assert_eq!(cfg, expected, "{kind:?}");
        }
    }

    #[test]
    fn host_models_are_deterministic() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.host_model(4096), kind.host_model(4096));
        }
    }

    #[test]
    fn offloaded_backends_beat_the_host_cpu_per_cqe() {
        let cpu = BackendKind::HostCpu.host_model(4096);
        for kind in [BackendKind::DpaBf3, BackendKind::FpgaSmartNic] {
            let hm = kind.host_model(4096);
            assert!(
                hm.rx_proc_ns_per_cqe < cpu.rx_proc_ns_per_cqe,
                "{:?} per-CQE {} ns should undercut host CPU {} ns",
                kind,
                hm.rx_proc_ns_per_cqe,
                cpu.rx_proc_ns_per_cqe
            );
        }
    }

    #[test]
    fn datapath_is_the_pre_refactor_engine() {
        let direct = run_datapath(
            &DpaSpec::bf3(),
            &Kernel::new(KernelKind::DpaUc),
            4,
            4096,
            5_000,
            ArrivalModel::Saturated,
        );
        let via_kind = BackendKind::DpaBf3.datapath(
            DatapathTransport::Uc,
            4,
            4096,
            5_000,
            ArrivalModel::Saturated,
        );
        assert_eq!(via_kind, direct);
    }

    #[test]
    fn full_complex_beats_the_ucc_progress_thread() {
        // 256 barrel threads next to the DMA engine sustain a far
        // shorter per-CQE interval than the 350 ns tuned host engine.
        let hm = BackendKind::DpaBf3.host_model(4096);
        assert!(hm.rx_proc_ns_per_cqe < 350, "{hm:?}");
    }

    #[test]
    fn single_context_and_no_fabric_state() {
        let limits = BackendKind::HostCpu.limits();
        assert_eq!(limits.contexts, 1);
        assert_eq!(limits.aggregation_entries, None);
    }

    #[test]
    fn ud_pays_the_staging_copy() {
        let [ud, uc] = [DatapathTransport::Ud, DatapathTransport::Uc]
            .map(|t| BackendKind::HostCpu.datapath(t, 1, 4096, 2_000, ArrivalModel::Saturated));
        assert!(ud.gib_per_s < uc.gib_per_s);
    }

    #[test]
    fn flat_high_throughput_beats_the_dpa_at_4k() {
        // Initiation-interval bound vs barrel-thread bound: the
        // spatial pipeline holds a higher fixed rate per chunk.
        let fpga = BackendKind::FpgaSmartNic.host_model(4096);
        let dpa = BackendKind::DpaBf3.host_model(4096);
        assert!(fpga.rx_proc_ns_per_cqe < dpa.rx_proc_ns_per_cqe);
    }

    #[test]
    fn reconfiguration_dominates_setup() {
        let setup_ns = BackendKind::FpgaSmartNic.setup_ns();
        assert!(setup_ns >= 1_000_000, "PR cost is milliseconds");
    }

    #[test]
    fn endpoint_cost_is_descriptor_only() {
        let hm = BackendKind::SharpSwitch.host_model(4096);
        assert!(hm.rx_proc_ns_per_cqe < 350);
        // Independent of chunk size: no payload pass at the endpoint.
        assert_eq!(hm, BackendKind::SharpSwitch.host_model(65_536));
    }

    #[test]
    fn aggregation_table_is_bounded() {
        let limits = BackendKind::SharpSwitch.limits();
        assert_eq!(limits.aggregation_entries, Some(512));
    }

    #[test]
    fn switch_pipeline_sustains_line_rate_at_4k() {
        // 32 units × 32 B/cycle × 1.3 GHz ≫ a 400 Gbit/s port.
        let m = BackendKind::SharpSwitch.datapath(
            DatapathTransport::Uc,
            32,
            4096,
            4_000,
            ArrivalModel::Saturated,
        );
        assert!(m.goodput_gbps > 400.0, "{:.1} Gbit/s", m.goodput_gbps);
    }
}
