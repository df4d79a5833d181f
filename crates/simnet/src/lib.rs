//! # mcag-simnet — packet-level discrete-event RDMA fabric simulator
//!
//! The paper evaluates its collectives on a 188-node InfiniBand fat-tree
//! (18 Mellanox SX6036 switches, ConnectX-3 56 Gbit/s NICs). That hardware
//! is replaced here by a deterministic discrete-event simulation with:
//!
//! * **Topologies** — back-to-back pairs, single-switch stars, two-level
//!   leaf/spine fat-trees (the UCC testbed shape), and three-level fat-trees
//!   (the 1024-node radix-32 cluster modeled in Fig. 2).
//! * **Switches** with output-link serialization, store-and-forward hop
//!   latency, and **per-port byte/packet counters** — the measurement
//!   methodology of Fig. 12 ("we collect performance counters across all
//!   switch ports").
//! * **Multicast groups** realized as spanning trees rooted at a
//!   deterministic core switch; senders inject anywhere in the tree and
//!   switches replicate to every subscribed egress, so each byte crosses
//!   each link at most once — the bandwidth-optimality invariant.
//! * **Unreliability** — per-link probabilistic fabric drops, forced
//!   per-(origin, PSN, destination) drops for failure-injection tests,
//!   receiver-not-ready drops when the receive queue is exhausted, and
//!   scheduled time-varying link state ([`linkstate::LinkSchedule`]:
//!   down windows, flaps, bandwidth degradation) compiled from
//!   `mcag-faults` fault plans.
//! * **Host datapath costs** — per-datagram TX posting and per-CQE RX
//!   processing overheads with a configurable number of RX worker threads,
//!   reproducing the CPU-bound single-thread behaviour of Fig. 5.
//!
//! Protocol state machines implement [`app::RankApp`] and are driven by
//! [`fabric::Fabric`]; everything is single-threaded and reproducible
//! (events are totally ordered by `(time, sequence)`).

#![warn(missing_docs)]

pub mod app;
pub mod config;
pub mod counters;
pub mod event;
pub mod fabric;
pub mod hash;
pub mod linkstate;
pub mod mcast;
pub mod routing;
pub mod time;
pub mod topology;

pub use app::{Ctx, MsgSegments, Payload, RankApp};
pub use config::{DropModel, FabricConfig, HostModel};
pub use counters::{LinkCounters, TrafficReport};
pub use event::QueueBackend;
pub use fabric::Fabric;
pub use linkstate::{LinkSchedule, LinkStateEvent};
pub use mcag_trace::{TraceEvent, TraceSink, TraceSpec};
pub use mcast::McastTree;
pub use time::SimTime;
pub use topology::{LinkId, NodeId, NodeKind, Topology};
