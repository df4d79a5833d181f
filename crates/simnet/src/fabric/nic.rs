//! The NIC's send-queue arbiter: each NIC's QPs, and the ready set its
//! round-robin arbiter picks the next send queue from.
//!
//! A NIC serves its send queues round-robin, which is how concurrent
//! collectives share its injection bandwidth. It keeps the set of its
//! non-empty queues as a 64-bit mask, one bit per queue up to 64 QPs and
//! one per block of queues beyond, and [`NicState::tx_pick`] finds the
//! next queue with a bit scan instead of visiting every queue.
//!
//! The invariant the tests pin: a ready bit is set exactly while a queue
//! of its block holds a request, across QP additions that regroup the
//! blocks, so every pick is the one a modulo scan of every queue from
//! the round-robin cursor would make. A NIC's and a QP's state stay
//! within their size bounds: a batch fabric holds one per rank and one
//! per QP of every rank.

use super::NIL;
use crate::time::SimTime;
use crate::topology::LinkId;
use mcag_verbs::Transport;
use std::ops::Range;

/// A queue pair: its RX worker, its receive slots and its send queue.
pub(super) struct QpState {
    pub(super) transport: Transport,
    pub(super) worker: u32,
    /// Receive slots free and posted. A depth past `u32::MAX` is held
    /// as `u32::MAX`: within `MAX_EVENTS` events it never runs out either.
    pub(super) rq_avail: u32,
    pub(super) rq_depth: u32,
    /// The send queue, first and last request: a FIFO linked through
    /// `Inner::wqes` ([`NIL`] when empty).
    pub(super) tx_head: u32,
    pub(super) tx_tail: u32,
    /// Drain notifications waiting in `Inner::drains` for the send queue
    /// to empty.
    pub(super) drains: u32,
}

/// A NIC: its port, its slice of the QP table and its arbiter.
pub(super) struct NicState {
    pub(super) uplink: LinkId,
    /// The NIC's QPs, each with its send queue, are
    /// `Inner::qps[qp_base..qp_base + qp_len]`; the NIC arbiter serves
    /// the queues round-robin, which is how concurrent collectives share
    /// injection bandwidth.
    pub(super) qp_base: u32,
    pub(super) qp_len: u32,
    tx_rr: u32,
    /// The ready set: bit `b` is set while a send queue among QPs
    /// `b << ready_shift .. (b + 1) << ready_shift` holds a request. Up
    /// to 64 QPs a bit is one queue; a NIC with more shares each bit
    /// among the fewest (a power of two) that fit the 64 bits.
    pub(super) ready: u64,
    ready_shift: u8,
    pub(super) tx_free_at: SimTime,
    pub(super) kick_scheduled: bool,
    /// Fits in 32 bits: each drop ends an event, and a run dispatches
    /// fewer than `MAX_EVENTS`.
    pub(super) rnr_drops: u32,
}

impl NicState {
    pub(super) fn new(uplink: LinkId) -> NicState {
        NicState {
            uplink,
            qp_base: 0,
            qp_len: 0,
            tx_rr: 0,
            ready: 0,
            ready_shift: 0,
            tx_free_at: SimTime::ZERO,
            kick_scheduled: false,
            rnr_drops: 0,
        }
    }

    /// Take in a QP just added at the end of `qps`, this NIC's slice.
    /// Past each power of two times 64 QPs the ready set's blocks double,
    /// and the queues regroup under the new width.
    pub(super) fn add_qp(&mut self, qps: &[QpState]) {
        self.qp_len += 1;
        debug_assert_eq!(qps.len(), self.qp_len as usize);
        let shift = (self.qp_len.div_ceil(u64::BITS).next_power_of_two()).trailing_zeros() as u8;
        if shift != self.ready_shift {
            self.ready_shift = shift;
            self.ready = 0;
            for (qi, q) in qps.iter().enumerate() {
                if q.tx_head != NIL {
                    self.set_ready(qi);
                }
            }
        }
    }

    /// The ready-set bit of QP `qi`.
    #[inline]
    fn ready_bit(&self, qi: usize) -> u64 {
        1 << (qi >> self.ready_shift)
    }

    /// Note that QP `qi`'s send queue has just become non-empty.
    #[inline]
    pub(super) fn set_ready(&mut self, qi: usize) {
        self.ready |= self.ready_bit(qi);
    }

    /// Note that QP `qi`'s send queue has just emptied; `qps` is this
    /// NIC's slice. The bit stays while a queue it shares holds requests.
    #[inline]
    pub(super) fn clear_ready(&mut self, qi: usize, qps: &[QpState]) {
        let first = qi >> self.ready_shift << self.ready_shift;
        let block = first..(first + (1 << self.ready_shift)).min(qps.len());
        if qps[block].iter().all(|q| q.tx_head == NIL) {
            self.ready &= !self.ready_bit(qi);
        }
    }

    /// Round-robin arbitration: the first non-empty send queue at or
    /// after `tx_rr`, wrapping round, found from the ready set instead of
    /// a scan of every queue; `qps` is this NIC's slice.
    pub(super) fn tx_pick(&mut self, qps: &[QpState]) -> Option<usize> {
        if self.ready == 0 {
            return None;
        }
        let (shift, start) = (self.ready_shift, self.tx_rr as usize);
        let b = start >> shift;
        // The first non-empty queue of `from..` up to the end of its block.
        let busy = |from: usize| {
            let end = ((from >> shift) + 1) << shift;
            (from..end.min(qps.len())).find(|&qi| qps[qi].tx_head != NIL)
        };
        // The queues from `tx_rr` to the end of its block, then the
        // first block set after it; failing both, wrap to the first
        // block set, which may be the start of `tx_rr`'s own.
        let own = match self.ready >> b & 1 {
            1 => busy(start),
            _ => None,
        };
        let qi = own.unwrap_or_else(|| {
            let later = self.ready & (u64::MAX << b << 1);
            let next = if later != 0 { later } else { self.ready };
            busy((next.trailing_zeros() as usize) << shift)
                .expect("a ready bit names a non-empty queue")
        });
        self.tx_rr = if qi + 1 == qps.len() {
            0
        } else {
            qi as u32 + 1
        };
        Some(qi)
    }

    /// This NIC's slice of `Inner::qps`.
    #[inline]
    pub(super) fn qp_range(&self) -> Range<usize> {
        self.qp_base as usize..(self.qp_base + self.qp_len) as usize
    }

    /// Where this NIC's QP `qi` sits in `Inner::qps`.
    #[inline]
    pub(super) fn qp_index(&self, qi: usize) -> usize {
        assert!(qi < self.qp_len as usize, "QP {qi} out of range");
        self.qp_base as usize + qi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_state_stays_small() {
        // The arbiter and every delivery read it; a batch fabric holds
        // one per QP of every rank.
        let size = std::mem::size_of::<QpState>();
        assert!(size <= 28, "QpState grew to {size} bytes");
    }

    #[test]
    fn nic_state_stays_small() {
        // Every batch fabric allocates one per rank: the ready set took
        // the bytes a narrower round-robin cursor and RNR counter gave up.
        let size = std::mem::size_of::<NicState>();
        assert!(size <= 40, "NicState grew to {size} bytes");
    }

    /// The arbiter the ready set replaced: a modulo scan of every queue
    /// from `rr`, `queued[qi]` requests on QP `qi`.
    fn scan_pick(rr: &mut usize, queued: &[u32]) -> Option<usize> {
        let n = queued.len();
        let qi = (0..n).map(|i| (*rr + i) % n).find(|&qi| queued[qi] > 0)?;
        *rr = (qi + 1) % n;
        Some(qi)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random posts, picks and QP additions on one NIC of 1 to 150
        /// QPs, so that about half the cases share ready bits among QPs
        /// (more than 64) and some cross a width change with requests
        /// queued: every pick is the modulo scan's, and the set is empty
        /// exactly when every queue is.
        #[test]
        fn ready_set_picks_as_the_modulo_scan(
            n in 1usize..150,
            ops in proptest::collection::vec((0u8..4, 0usize..1000), 0..600),
        ) {
            let empty = || QpState {
                transport: Transport::Rc,
                worker: 0,
                rq_avail: 0,
                rq_depth: 0,
                tx_head: NIL,
                tx_tail: NIL,
                drains: 0,
            };
            let mut nic = NicState::new(LinkId(0));
            let mut qps = Vec::new();
            let mut queued = Vec::new();
            let mut rr = 0;
            let add = |nic: &mut NicState, qps: &mut Vec<QpState>, queued: &mut Vec<u32>| {
                qps.push(empty());
                queued.push(0);
                nic.add_qp(qps);
            };
            for _ in 0..n {
                add(&mut nic, &mut qps, &mut queued);
            }
            for (op, at) in ops {
                match op {
                    // Post on a queue (twice as often as the rest).
                    0 | 1 => {
                        let qi = at % qps.len();
                        if queued[qi] == 0 {
                            qps[qi].tx_head = 0;
                            nic.set_ready(qi);
                        }
                        queued[qi] += 1;
                    }
                    // Inject one request from the queue the arbiter picks.
                    2 => {
                        let want = scan_pick(&mut rr, &queued);
                        proptest::prop_assert_eq!(nic.tx_pick(&qps), want);
                        if let Some(qi) = want {
                            proptest::prop_assert_eq!(nic.tx_rr as usize, rr);
                            queued[qi] -= 1;
                            if queued[qi] == 0 {
                                qps[qi].tx_head = NIL;
                                nic.clear_ready(qi, &qps);
                            }
                        }
                    }
                    _ => add(&mut nic, &mut qps, &mut queued),
                }
                proptest::prop_assert_eq!(nic.ready == 0, queued.iter().all(|&q| q == 0));
            }
            // Drain what is left, in the scan's order.
            while let Some(qi) = scan_pick(&mut rr, &queued) {
                proptest::prop_assert_eq!(nic.tx_pick(&qps), Some(qi));
                queued[qi] -= 1;
                if queued[qi] == 0 {
                    qps[qi].tx_head = NIL;
                    nic.clear_ready(qi, &qps);
                }
            }
            proptest::prop_assert_eq!(nic.tx_pick(&qps), None);
        }
    }
}
