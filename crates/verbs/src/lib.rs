//! # mcag-verbs — an InfiniBand-Verbs-like RDMA model
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: queue pairs and their three transport service models
//! (UD / UC / RC), completions, MTUs, packet sequence numbers (PSNs)
//! carried in the 32-bit immediate-data field, and multicast group
//! identifiers.
//!
//! The paper (Khalilov et al., SC'24) builds its Broadcast/Allgather stack
//! directly on IB Verbs semantics; reproducing those semantics faithfully —
//! connection-less unreliable datagrams for UD, per-message-drop RDMA
//! writes for UC, hardware-reliable one-sided operations for RC — is what
//! lets the protocol crates above remain substrate-independent: the same
//! state machines run on the discrete-event fabric (`mcag-simnet`) and on
//! the threaded in-memory fabric (`mcag-memfabric`).
//!
//! Nothing in this crate performs I/O or simulation; it is a pure data
//! model plus the PSN/immediate encoding and MTU chunk arithmetic.

#![warn(missing_docs)]

pub mod imm;
pub mod mtu;
pub mod transport;
pub mod types;
pub mod wire;
pub mod wqe;

pub use imm::{ImmData, ImmLayout};
pub use mtu::Mtu;
pub use transport::Transport;
pub use types::{CollectiveId, LinkRate, McastGroupId, QpNum, Rank};
pub use wire::PacketKind;
pub use wqe::{Cqe, CqeOpcode};
