//! # mcag-models — analytic cost models from the paper
//!
//! * [`speedup`] — Appendix B: bandwidth shares of concurrent
//!   `{Allgather, Reduce-Scatter}` pairs and the `S = 2 − 2/P` speedup.
//! * [`sizing`] — Fig. 7: PSN bit budget vs. addressable receive buffer
//!   and bitmap footprint against the DPA LLC and GPU memory.
//! * [`traffic`] — Fig. 2: exact link-byte counts of multicast vs. P2P
//!   Allgather/Broadcast schedules on a modeled fat-tree (computed from
//!   the real topology and routing, not a back-of-envelope formula).
//! * [`node_boundary`] — Fig. 3: per-NIC send/receive volumes of the
//!   `{ring, ring}` vs. `{multicast, in-network-compute}` configurations.
//! * [`bandwidth`] — NCCL-convention algorithmic/bus bandwidth
//!   reporting (`busbw = algbw × collective factor`), shared by the
//!   bench generators.
//! * [`percentile`] — the nearest-rank percentile behind every reported
//!   tail (runtime sojourns and the bench studies alike).

#![warn(missing_docs)]

pub mod bandwidth;
pub mod node_boundary;
pub mod percentile;
pub mod sizing;
pub mod speedup;
pub mod traffic;

pub use bandwidth::{algbw_gbps, busbw_gbps, CollectiveOp};
pub use percentile::nearest_rank;
pub use sizing::{BitmapSizing, DPA_LLC_BYTES};
pub use speedup::{concurrent_speedup, BandwidthShares};
pub use traffic::{allgather_traffic, broadcast_traffic, TrafficModel};
