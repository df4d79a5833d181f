//! The three IB transport service models.
//!
//! Figure 4 of the paper lays out the trade-off space: UD is the only
//! transport with standardized multicast but is datagram-granular and
//! unreliable; UC supports arbitrary-length RDMA writes (and the paper
//! prototypes a vendor extension giving it multicast) but drops whole
//! messages; RC is reliable with one-sided operations but cannot multicast
//! because reliability state is per-connection.

use serde::{Deserialize, Serialize};

/// IB Verbs transport service model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Unreliable Datagram: connection-less, MTU-sized, multicast-capable.
    Ud,
    /// Unreliable Connection: arbitrary-length messages / RDMA writes;
    /// a dropped packet drops the whole message. Multicast on UC is the
    /// next-generation extension evaluated in Section VI-C(e).
    Uc,
    /// Reliable Connection: hardware retransmission, one-sided RDMA
    /// Read/Write — the substrate for the slow-path fetch ring.
    Rc,
}
