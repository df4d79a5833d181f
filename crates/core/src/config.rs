//! Protocol-level configuration knobs.

use mcag_verbs::{ImmLayout, Mtu};
use serde::{Deserialize, Serialize};

/// Tunables of the multicast collective protocol (Section IV's three
/// parallelism axes plus the reliability timer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Datagram payload capacity (4 KiB in all testbed runs).
    pub mtu: Mtu,
    /// Immediate-field split between collective id and PSN.
    pub imm: ImmLayout,
    /// Multicast subgroups per root buffer (packet parallelism): each
    /// subgroup is its own multicast tree + QP, pinned to an RX worker.
    pub subgroups: u32,
    /// Parallel broadcast chains `M` (multicast parallelism). The paper's
    /// evaluation uses 1 ("one actively multicasting root").
    pub chains: u32,
    /// Fixed slack `α` added to the cutoff timer on top of the ideal
    /// drain time `N/B_link` (Section III-C, "Cutoff timer"), covering
    /// RNR-synchronization time and network noise.
    pub cutoff_alpha_ns: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            mtu: Mtu::IB_4K,
            imm: ImmLayout::DEFAULT,
            subgroups: 1,
            chains: 1,
            cutoff_alpha_ns: 200_000, // 200 µs
        }
    }
}

impl ProtocolConfig {
    /// A configuration exercising all parallelism axes (multiple subgroups
    /// and chains) — used by scaling studies and stress tests.
    pub fn parallel(subgroups: u32, chains: u32) -> ProtocolConfig {
        ProtocolConfig {
            subgroups,
            chains,
            ..ProtocolConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        // The UCC testbed: single subgroup, single active root.
        let c = ProtocolConfig::default();
        assert_eq!(c.mtu, Mtu::IB_4K);
        assert_eq!(c.subgroups, 1);
        assert_eq!(c.chains, 1);
    }

    #[test]
    fn parallel_configs() {
        let c = ProtocolConfig::parallel(4, 2);
        assert_eq!(c.subgroups, 4);
        assert_eq!(c.chains, 2);
    }
}
