//! # mcag-offload — pluggable in-network compute backends
//!
//! The paper offloads the Allgather receive datapath to exactly one
//! device: the BlueField-3 DPA barrel processor modeled in `mcag-dpa`.
//! The design-space question the paper leaves open is *where else* that
//! compute could run — and what each placement costs on the virtual
//! clock. This crate answers it with one plain-data selector,
//! [`BackendKind`], that is also the cost model: every query is a
//! `match` on the kind.
//!
//! * The queries — per-chunk receive-handler latency/occupancy
//!   ([`BackendKind::datapath`], producing [`DatapathMetrics`]),
//!   placement ([`Placement`]: endpoint NIC, host core, or in-switch,
//!   labelled by [`Placement::label`]),
//!   one-time provisioning cost ([`BackendKind::setup_ns`]), and
//!   context/table capacity limits ([`BackendLimits`]);
//! * [`BackendKind::DpaBf3`] / [`BackendKind::HostCpu`] — the paper's
//!   two datapaths, **byte-identical** to `mcag-dpa` (they call
//!   [`mcag_dpa::run_datapath`] directly, so Table I reproduces
//!   bit-for-bit through the backend);
//! * [`BackendKind::FpgaSmartNic`] — a deep-pipelined spatial datapath
//!   (lanes × initiation interval): high fixed throughput, no
//!   instruction stream, but a large partial-reconfiguration setup
//!   cost (per the FPGA AI-NIC line of work in PAPERS.md);
//! * [`BackendKind::SharpSwitch`] — SHARP-style in-switch reduction:
//!   compute lives at fabric switches on the multicast tree
//!   (`mcag-simnet`'s `IncUp` route state and `reduce_at_switch`), so
//!   each down-link carries one reduced result instead of `P − 1`
//!   operand streams; endpoints do descriptor work only, and the
//!   scarce resource is the bounded per-switch aggregation table
//!   (`FabricConfig::inc_table_capacity`), charged like the MGID pool.
//!
//! [`BackendKind::compile`] is the one way a driver selects a backend:
//! it writes the endpoint [`HostModel`] (what the DES fabric charges
//! per CQE, [`BackendKind::host_model`]) and the aggregation-table
//! bound into a [`FabricConfig`](mcag_simnet::FabricConfig), and
//! returns where a Reduce-Scatter reduces (in the switches or on the
//! endpoints), so no caller takes the cost model without the
//! placement. The `mcag-runtime` scheduler compiles each partition's
//! batch fabric with it, and `mcag-bench`'s `backendfigs` sweeps
//! backend × collective × scale through it into
//! `BENCH_backends.json`.
//!
//! [`HostModel`]: mcag_simnet::HostModel

#![warn(missing_docs)]

mod backend;
mod pipeline;

pub use backend::{BackendKind, BackendLimits, DatapathTransport, Placement};
pub use mcag_dpa::{ArrivalModel, DatapathMetrics};
