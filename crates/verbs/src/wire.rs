//! Per-packet wire constants shared by the fabrics: the fixed header
//! overhead and the traffic class that accounting splits bytes by.

use serde::{Deserialize, Serialize};

/// IB/RoCE-ish per-packet header overhead in bytes (LRH+GRH+BTH+ICRC ≈ 58 B
/// for RoCEv2; we use a round 64 B — only the *relative* traffic numbers
/// matter for the reproduction and payload/header are tracked separately).
pub const HEADER_BYTES: usize = 64;

/// What kind of traffic a packet carries. Fabric-level switches do not
/// interpret this (they only route/replicate), but endpoint datapaths
/// dispatch on it, and traffic accounting reports data vs. control bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A multicast fast-path datagram carrying one chunk (UD) or a segment
    /// of a multi-packet message (UC).
    McastData,
    /// A unicast data packet (P2P baselines, RDMA read responses, ...).
    UnicastData,
    /// Slow-path/control traffic: barrier, activation signal, handshake,
    /// fetch request/ACK.
    Control,
}
