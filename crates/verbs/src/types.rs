//! Fundamental identifier and unit types.
//!
//! Small newtypes keep rank/QP/group identifiers from being confused for
//! one another across the fabric, protocol, and accelerator crates.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A collective participant (one process; the paper runs 1 process per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rank(pub u32);

impl Rank {
    /// Rank as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Left neighbor on the virtual ring of `p` ranks (used by the
    /// reliability fetch ring and the final handshake).
    #[inline]
    pub fn ring_left(self, p: u32) -> Rank {
        debug_assert!(p > 0 && self.0 < p);
        Rank((self.0 + p - 1) % p)
    }

    /// Right neighbor on the virtual ring of `p` ranks.
    #[inline]
    pub fn ring_right(self, p: u32) -> Rank {
        debug_assert!(p > 0 && self.0 < p);
        Rank((self.0 + 1) % p)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Queue pair number, unique per fabric endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QpNum(pub u32);

/// Hardware multicast group (maps to one multicast tree in the fabric).
///
/// The Allgather protocol replicates groups into *subgroups* so that
/// receive-side packet processing can be spread across worker threads
/// (packet parallelism, Section IV-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct McastGroupId(pub u32);

/// Identifier of a collective operation in flight; stored in the high bits
/// of the CQE immediate value (footnote 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CollectiveId(pub u32);

/// Link rate expressed in bits per second, with convenience constructors
/// matching the hardware generations in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkRate {
    bits_per_sec: u64,
}

impl LinkRate {
    /// ConnectX-3 FDR InfiniBand, the UCC testbed link speed.
    pub const CX3_56G: LinkRate = LinkRate::from_gbit(56);
    /// ConnectX-7 / BlueField-3 port speed used in the DPA testbed.
    pub const CX7_200G: LinkRate = LinkRate::from_gbit(200);
    /// ConnectX-7 dual-port aggregate / NDR.
    pub const NDR_400G: LinkRate = LinkRate::from_gbit(400);
    /// Projected next-generation Ethernet/IB speed the paper targets.
    pub const TBIT_1600G: LinkRate = LinkRate::from_gbit(1600);

    /// A rate of `gbit` Gbit/s (decimal giga, as in link-speed marketing).
    pub const fn from_gbit(gbit: u64) -> LinkRate {
        LinkRate {
            bits_per_sec: gbit * 1_000_000_000,
        }
    }

    /// Raw bits per second.
    #[inline]
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Bytes per second.
    #[inline]
    pub const fn bytes_per_sec(self) -> u64 {
        self.bits_per_sec / 8
    }

    /// Time to serialize `bytes` onto the wire, in nanoseconds (rounded up,
    /// minimum 1 ns for a non-empty transfer so that events always advance
    /// simulated time).
    #[inline]
    pub fn serialization_ns(self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(self.bits_per_sec as u128);
        (ns as u64).max(1)
    }

    /// Datagram arrival rate for back-to-back `chunk_bytes` payloads at
    /// full line rate, in packets per second.
    #[inline]
    pub fn packets_per_sec(self, chunk_bytes: usize) -> f64 {
        self.bytes_per_sec() as f64 / chunk_bytes as f64
    }
}

impl fmt::Display for LinkRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}G", self.bits_per_sec / 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_neighbors_wrap() {
        let p = 6;
        assert_eq!(Rank(0).ring_left(p), Rank(5));
        assert_eq!(Rank(5).ring_right(p), Rank(0));
        assert_eq!(Rank(3).ring_left(p), Rank(2));
        assert_eq!(Rank(3).ring_right(p), Rank(4));
    }

    #[test]
    fn ring_neighbors_inverse() {
        let p = 11;
        for r in 0..p {
            assert_eq!(Rank(r).ring_left(p).ring_right(p), Rank(r));
            assert_eq!(Rank(r).ring_right(p).ring_left(p), Rank(r));
        }
    }

    #[test]
    fn link_rate_serialization_time() {
        // 200 Gbit/s = 25 GB/s; 4 KiB takes 4096/25 ns = 163.84 -> 164 ns.
        assert_eq!(LinkRate::CX7_200G.serialization_ns(4096), 164);
        // 56 Gbit/s = 7 GB/s; 4 KiB takes 585.14 -> 586 ns.
        assert_eq!(LinkRate::CX3_56G.serialization_ns(4096), 586);
        assert_eq!(LinkRate::CX7_200G.serialization_ns(0), 0);
        // A single byte still takes at least a nanosecond of wire time.
        assert!(LinkRate::TBIT_1600G.serialization_ns(1) >= 1);
    }

    #[test]
    fn link_rate_packet_rate() {
        // 200 Gbit/s at 4 KiB MTU: 6.1 M packets/s, the rate the paper's
        // progress engine must sustain (Section I, challenge 1).
        let pps = LinkRate::CX7_200G.packets_per_sec(4096);
        assert!((pps - 6.103e6).abs() < 5e3, "pps = {pps}");
        // 1.6 Tbit/s at 4 KiB: ~48.8 M packets/s (Section VII).
        let pps = LinkRate::TBIT_1600G.packets_per_sec(4096);
        assert!((pps - 48.8e6).abs() < 1e5, "pps = {pps}");
    }

    #[test]
    fn display_forms() {
        assert_eq!(LinkRate::CX7_200G.to_string(), "200G");
        assert_eq!(Rank(7).to_string(), "r7");
    }
}
