//! # mcag-core — bandwidth-optimal multicast Broadcast and Allgather
//!
//! The primary contribution of Khalilov et al. (SC'24): a reliable
//! constant-time Broadcast protocol built on unreliable hardware
//! multicast, composed into a bandwidth-optimal Allgather.
//!
//! ## Architecture
//!
//! * [`bitmap`] — the receive bitmap tracking per-chunk delivery; its
//!   zero runs drive selective recovery fetches.
//! * [`staging`] — the MTU-slot staging ring that makes the receive path
//!   tolerant to loss and out-of-order delivery (real byte movement; used
//!   by the threaded memfabric backend and validated here).
//! * [`sequencer`] — the distributed broadcast sequencer (Appendix A):
//!   `M` parallel chains of roots passing activation signals.
//! * [`plan`] — global PSN space, subgroup split, and root/block layout
//!   shared by Broadcast and Allgather.
//! * [`barrier`] — recursive-doubling RNR synchronization.
//! * [`msg`] — slow-path control messages (barrier, activation, final
//!   handshake, fetch request/ACK).
//! * [`protocol`] — the per-rank state machine tying it all together.
//! * [`config`] — [`ProtocolConfig`], the protocol's parallelism and
//!   reliability-timer knobs.
//! * [`des`] — the discrete-event driver producing timings and traffic
//!   reports for the paper's UCC-testbed experiments.
//! * [`multicomm`] — several communicators per rank (Section V-C): the
//!   one run path, [`multicomm::run`], which lays every driver's
//!   communicators out on a fabric, runs it under the watchdog and
//!   harvests the result once, and the rank mux, [`MultiCommApp`],
//!   hosting one [`CommSlot`] per communicator; plus the `k`-Allgather
//!   driver.
//! * [`concurrent`] — the FSDP `{Allgather, Reduce-Scatter}` pair
//!   (Section II, Appendix B): [`RsApp`], one Reduce-Scatter endpoint
//!   reducing in the switches or on the endpoints, and the two pair
//!   drivers, one per placement.
//!
//! ## Quick start
//!
//! ```
//! use mcag_core::{des, CollectiveKind, ProtocolConfig};
//! use mcag_simnet::{FabricConfig, Topology};
//!
//! let out = des::run_collective(
//!     Topology::single_switch(8, mcag_verbs::LinkRate::CX3_56G, 100),
//!     FabricConfig::ucc_default(),
//!     ProtocolConfig::default(),
//!     CollectiveKind::Allgather,
//!     64 << 10, // 64 KiB per rank
//! );
//! assert!(out.stats.all_done());
//! println!("mean recv throughput: {:.1} Gbit/s", out.mean_recv_gbps());
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod bitmap;
pub mod concurrent;
pub mod config;
pub mod des;
pub mod msg;
pub mod multicomm;
pub mod plan;
pub mod protocol;
pub mod sequencer;
pub mod staging;

pub use bitmap::ChunkBitmap;
pub use concurrent::{run_concurrent_ag_rs, run_concurrent_ag_rs_endpoint, RsApp};
pub use config::ProtocolConfig;
pub use des::{cutoff_ns, run_collective, CollectiveOutcome};
pub use msg::{ControlMsg, RangeList};
pub use multicomm::{run_concurrent_allgathers, CommSlot, MultiCommApp, MultiCommOutcome};
pub use plan::{CollectiveKind, CollectivePlan};
pub use protocol::{McastRankApp, RankTiming};
pub use sequencer::Sequencer;
pub use staging::StagingRing;
