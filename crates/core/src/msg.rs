//! Slow-path control messages exchanged over the reliable (RC) ring.
//!
//! These correspond to the violet control-path arrows of Fig. 9: the RNR
//! synchronization barrier, the chain activation signal, the final
//! handshake packet, and the fetch-request/ACK pair of the reliability
//! layer. All of them are small (tens of bytes on the wire) and reliable;
//! none of them sit on the multicast fast path.

use serde::{Deserialize, Serialize};
use std::ops::{Deref, Range};

/// Approximate wire payload sizes for control messages, used for traffic
/// accounting (the real backend sends tiny RC messages; 16 B of payload
/// plus the 64 B header model is generous).
pub const CTRL_MSG_BYTES: usize = 16;

/// A control message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlMsg {
    /// One round of the recursive-doubling RNR-synchronization barrier.
    Barrier {
        /// Dissemination round index.
        round: u8,
    },
    /// Chain activation: the sender finished multicasting; the receiver
    /// (its chain successor) may start.
    Activate,
    /// Final-handshake packet: the sender has its receive buffer complete.
    /// Sent to the *left* ring neighbor; receiving one from the *right*
    /// neighbor (plus being complete locally) releases the buffer.
    FinalPkt,
    /// Reliability: request for the listed global-PSN ranges, sent to the
    /// left ring neighbor after the cutoff timer found holes.
    FetchReq {
        /// Missing global-PSN ranges.
        ranges: RangeList,
    },
    /// Reliability: the sender *has* the listed ranges — the requester may
    /// RDMA-Read them from its receive buffer. Ranges the neighbor was
    /// itself missing arrive in later supplementary ACKs once its own
    /// recovery completes (the recursive scheme of Section III-C).
    FetchAck {
        /// Servable global-PSN ranges.
        ranges: RangeList,
    },
}

impl ControlMsg {
    /// Payload bytes to account on the wire for this message.
    pub fn wire_payload(&self) -> usize {
        match self {
            ControlMsg::Barrier { .. } | ControlMsg::Activate | ControlMsg::FinalPkt => {
                CTRL_MSG_BYTES
            }
            // 8 bytes per range descriptor, 16 B fixed.
            ControlMsg::FetchReq { ranges } | ControlMsg::FetchAck { ranges } => {
                CTRL_MSG_BYTES + 8 * ranges.len()
            }
        }
    }
}

/// Ranges a [`RangeList`] holds without allocating. Fetch lists are
/// short: of the 349,639 `FetchReq`/`FetchAck` lists the benchmark's
/// `recovery` workload built (seed 1, one 1 s run), 86.5 % held one
/// range, 98.0 % at most two and 99.85 % at most three; none held more
/// than six. Two ranges keep a [`ControlMsg`] at the 32 bytes it took
/// with a `Vec`; a third would grow every control message by 8 bytes
/// for 1.9 % of the lists.
const INLINE_RANGES: usize = 2;

/// A list of global-PSN ranges: inline up to `INLINE_RANGES` (two), on the
/// heap past that. It derefs to a slice of its ranges.
#[derive(Clone, Serialize, Deserialize)]
pub struct RangeList(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline {
        len: u8,
        ranges: [Range<u32>; INLINE_RANGES],
    },
    /// Boxed, so that the list stays as small as its inline form: a
    /// spilled list pays one more allocation, an inline one nothing.
    #[allow(clippy::box_collection)]
    Heap(Box<Vec<Range<u32>>>),
}

impl RangeList {
    /// An empty list.
    pub const fn new() -> RangeList {
        const EMPTY: Range<u32> = 0..0;
        RangeList(Repr::Inline {
            len: 0,
            ranges: [EMPTY; INLINE_RANGES],
        })
    }

    /// Append `r`; the list moves to the heap once it outgrows its inline
    /// ranges.
    pub fn push(&mut self, r: Range<u32>) {
        match &mut self.0 {
            Repr::Inline { len, ranges } if (*len as usize) < INLINE_RANGES => {
                ranges[*len as usize] = r;
                *len += 1;
            }
            Repr::Inline { ranges, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_RANGES);
                v.extend(ranges.iter().cloned());
                v.push(r);
                self.0 = Repr::Heap(Box::new(v));
            }
            Repr::Heap(v) => v.push(r),
        }
    }

    /// Remove every range, keeping a heap list's buffer.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl Default for RangeList {
    fn default() -> RangeList {
        RangeList::new()
    }
}

impl Deref for RangeList {
    type Target = [Range<u32>];

    fn deref(&self) -> &[Range<u32>] {
        match &self.0 {
            Repr::Inline { len, ranges } => &ranges[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl PartialEq for RangeList {
    fn eq(&self, other: &RangeList) -> bool {
        **self == **other
    }
}

impl Eq for RangeList {}

impl std::fmt::Debug for RangeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Range<u32>> for RangeList {
    fn from_iter<I: IntoIterator<Item = Range<u32>>>(iter: I) -> RangeList {
        let mut list = RangeList::new();
        for r in iter {
            list.push(r);
        }
        list
    }
}

impl From<Vec<Range<u32>>> for RangeList {
    fn from(v: Vec<Range<u32>>) -> RangeList {
        if v.len() <= INLINE_RANGES {
            v.into_iter().collect()
        } else {
            RangeList(Repr::Heap(Box::new(v)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(ControlMsg::Activate.wire_payload(), 16);
        assert_eq!(ControlMsg::Barrier { round: 3 }.wire_payload(), 16);
        let req = ControlMsg::FetchReq {
            ranges: vec![0..4, 9..12].into(),
        };
        assert_eq!(req.wire_payload(), 32);
    }

    #[test]
    fn range_list_spills_past_its_inline_ranges() {
        let all: Vec<Range<u32>> = (0..2 * INLINE_RANGES as u32 + 1)
            .map(|i| 3 * i..3 * i + 2)
            .collect();
        for n in 0..=all.len() {
            let list: RangeList = all[..n].iter().cloned().collect();
            assert_eq!(&*list, &all[..n]);
            assert_eq!(matches!(list.0, Repr::Heap(_)), n > INLINE_RANGES);
            assert_eq!(list, RangeList::from(all[..n].to_vec()));
            let msg = ControlMsg::FetchAck { ranges: list };
            assert_eq!(msg.wire_payload(), CTRL_MSG_BYTES + 8 * n);
        }
        let mut list: RangeList = all.iter().cloned().collect();
        list.clear();
        assert!(list.is_empty());
        list.push(7..9);
        assert_eq!((list.len(), list[0].clone()), (1, 7..9));
    }

    #[test]
    fn control_message_stays_small() {
        // A control message waits out of line in the fabric's side slab
        // while its packet is in flight; inline ranges must not grow it
        // past the `Vec` it replaced.
        let size = std::mem::size_of::<ControlMsg>();
        assert!(size <= 32, "ControlMsg grew to {size} bytes");
    }
}
