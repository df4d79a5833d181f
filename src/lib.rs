//! # mcast-allgather
//!
//! Workspace facade for the reproduction of *"Network-Offloaded
//! Bandwidth-Optimal Broadcast and Allgather for Distributed AI"*
//! (Khalilov et al., SC 2024): re-exports every component so examples,
//! integration tests, and downstream users need a single dependency.
//!
//! * [`core`] — the multicast Broadcast/Allgather protocol and drivers.
//! * [`runtime`] — the multi-tenant collective runtime: multicast-group
//!   pooling, admission control, and fair job scheduling.
//! * [`exec`] — the deterministic fork-join executor parallelizing
//!   simulation sweeps and runtime batch waves (slot-ordered `par_map`,
//!   largest-first `par_map_ordered`).
//! * [`faults`] — seeded fault-injection plans (degraded links,
//!   flapping ports, switch failures) compiled to link-state schedules
//!   the fabric enforces.
//! * [`simnet`] — the discrete-event RDMA fabric (fat-trees, multicast
//!   trees, in-network reduction, drop injection, time-varying link
//!   state, port counters).
//! * [`trace`] — the deterministic flight recorder: bounded ring-buffer
//!   trace sink, runtime spans, link-utilization timelines, and
//!   Chrome/Perfetto trace export.
//! * [`offload`] — pluggable in-network compute backends (BlueField-3
//!   DPA, host CPU, FPGA SmartNIC, SHARP-style in-switch reduction),
//!   each a `BackendKind` answering every cost query.
//! * [`memfabric`] — the threaded real-byte fabric for end-to-end
//!   validation.
//! * [`baselines`] — point-to-point collective schedules.
//! * [`dpa`] — the cycle-level SmartNIC (DPA) simulator.
//! * [`models`] — the paper's analytic cost models.
//! * [`verbs`] — shared RDMA vocabulary (transports, QPs, PSNs, MTUs).
//!
//! ```
//! use mcast_allgather::core::{des, CollectiveKind, ProtocolConfig};
//! use mcast_allgather::simnet::{FabricConfig, Topology};
//! use mcast_allgather::verbs::LinkRate;
//!
//! let out = des::run_collective(
//!     Topology::single_switch(4, LinkRate::CX3_56G, 100),
//!     FabricConfig::ucc_default(),
//!     ProtocolConfig::default(),
//!     CollectiveKind::Allgather,
//!     64 << 10,
//! );
//! assert!(out.stats.all_done());
//! // Bandwidth optimality: no link carried more than P * N payload bytes.
//! assert!(out.traffic.max_link_data_bytes() <= 4 * (64 << 10));
//! ```

#![warn(missing_docs)]

pub use mcag_baselines as baselines;
pub use mcag_core as core;
pub use mcag_dpa as dpa;
pub use mcag_exec as exec;
pub use mcag_faults as faults;
pub use mcag_memfabric as memfabric;
pub use mcag_models as models;
pub use mcag_offload as offload;
pub use mcag_runtime as runtime;
pub use mcag_simnet as simnet;
pub use mcag_trace as trace;
pub use mcag_verbs as verbs;
