//! Receive-side staging area (Section III-B, "Receive-side staging").
//!
//! Because UD datagrams may be dropped or — with adaptive routing —
//! reordered, the user's receive buffer cannot be pre-posted directly: a
//! chunk landing in the wrong pre-posted slot would corrupt the buffer.
//! Instead every datagram lands in a slot of a fixed ring of MTU-sized
//! staging slots; the PSN in the completion tells the worker where in the
//! user buffer the chunk belongs, and a (non-blocking) DMA copy moves it
//! there before the slot is re-posted.
//!
//! This module owns the slot lifecycle (posted → filled → copied →
//! re-posted) and, for byte-moving fabrics, the staging storage itself.
//! The BlueField-3 numbers from the paper bound the ring: RQ depth 8192 ×
//! 4 KiB MTU = 32 MiB maximum, 4 MiB practical for 200 Gbit/s.

use mcag_verbs::Mtu;

/// State of one staging slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Posted to the receive queue, waiting for a datagram.
    Posted,
    /// Holds a received chunk not yet copied out.
    Filled { psn: u32, len: usize },
}

/// A ring of MTU-sized receive staging slots with real backing storage.
#[derive(Debug, Clone)]
pub struct StagingRing {
    mtu: Mtu,
    storage: Vec<u8>,
    slots: Vec<SlotState>,
    free: Vec<u32>,
    /// High-water mark of simultaneously filled slots (occupancy pressure).
    max_outstanding: usize,
    outstanding: usize,
}

impl StagingRing {
    /// A ring of `depth` slots of `mtu` bytes each, all posted.
    pub fn new(depth: usize, mtu: Mtu) -> StagingRing {
        assert!(depth > 0, "staging ring needs at least one slot");
        StagingRing {
            mtu,
            storage: vec![0u8; depth * mtu.bytes()],
            slots: vec![SlotState::Posted; depth],
            free: (0..depth as u32).rev().collect(),
            max_outstanding: 0,
            outstanding: 0,
        }
    }

    /// Number of slots.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Slot payload capacity.
    pub fn mtu(&self) -> Mtu {
        self.mtu
    }

    /// Total staging memory (the Section III-D footprint item).
    pub fn memory_bytes(&self) -> usize {
        self.storage.len()
    }

    /// Slots currently posted (available for incoming datagrams).
    pub fn posted(&self) -> usize {
        self.free.len()
    }

    /// Peak number of simultaneously filled slots observed.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// A datagram of `len` bytes with sequence number `psn` arrived:
    /// fill the next posted slot with `data`. Returns the slot index, or
    /// `None` on RNR (no posted slot — the datagram is lost).
    pub fn receive(&mut self, psn: u32, data: &[u8]) -> Option<u32> {
        assert!(
            data.len() <= self.mtu.bytes(),
            "datagram larger than MTU slot"
        );
        let slot = self.next_posted()?;
        let base = slot as usize * self.mtu.bytes();
        self.storage[base..base + data.len()].copy_from_slice(data);
        self.slots[slot as usize] = SlotState::Filled {
            psn,
            len: data.len(),
        };
        self.outstanding += 1;
        self.max_outstanding = self.max_outstanding.max(self.outstanding);
        Some(slot)
    }

    /// Copy slot `slot` into its place in `user_buf` (the DMA step 4 of
    /// Fig. 6) and re-post the slot. Returns `(psn, chunk_len)`.
    ///
    /// # Panics
    /// If the slot is not filled, or the PSN-derived range exceeds
    /// `user_buf` — both indicate datapath bugs.
    pub fn copy_out(&mut self, slot: u32, user_buf: &mut [u8]) -> (u32, usize) {
        let SlotState::Filled { psn, len } = self.slots[slot as usize] else {
            panic!("copy_out of slot {slot} that is not filled");
        };
        let dst = self.mtu.chunk_range(psn, user_buf.len());
        assert_eq!(
            dst.len(),
            len,
            "chunk {psn} length {len} does not match destination range {dst:?}"
        );
        let base = slot as usize * self.mtu.bytes();
        user_buf[dst].copy_from_slice(&self.storage[base..base + len]);
        self.slots[slot as usize] = SlotState::Posted;
        self.free.push(slot);
        self.outstanding -= 1;
        (psn, len)
    }

    /// PSN recorded in a filled slot (to look up its destination before
    /// a [`StagingRing::copy_out_to`]).
    ///
    /// # Panics
    /// If the slot is not filled.
    pub fn slot_psn(&self, slot: u32) -> u32 {
        match self.slots[slot as usize] {
            SlotState::Filled { psn, .. } => psn,
            SlotState::Posted => panic!("slot {slot} is not filled"),
        }
    }

    /// Like [`StagingRing::copy_out`], but with an explicit destination
    /// range — used when the chunk's place in the user buffer is not a
    /// plain `psn × MTU` offset (e.g. Allgather receive buffers, where
    /// each root's block may end on a short chunk so later blocks are
    /// not MTU-aligned). Returns `(psn, chunk_len)`.
    pub fn copy_out_to(
        &mut self,
        slot: u32,
        user_buf: &mut [u8],
        dst: std::ops::Range<usize>,
    ) -> (u32, usize) {
        let SlotState::Filled { psn, len } = self.slots[slot as usize] else {
            panic!("copy_out_to of slot {slot} that is not filled");
        };
        assert_eq!(
            dst.len(),
            len,
            "chunk {psn} length {len} does not match destination range {dst:?}"
        );
        let base = slot as usize * self.mtu.bytes();
        user_buf[dst].copy_from_slice(&self.storage[base..base + len]);
        self.slots[slot as usize] = SlotState::Posted;
        self.free.push(slot);
        self.outstanding -= 1;
        (psn, len)
    }

    /// Drop a filled slot without copying (duplicate chunk from recovery).
    pub fn discard(&mut self, slot: u32) {
        assert!(
            matches!(self.slots[slot as usize], SlotState::Filled { .. }),
            "discard of slot {slot} that is not filled"
        );
        self.slots[slot as usize] = SlotState::Posted;
        self.free.push(slot);
        self.outstanding -= 1;
    }

    fn next_posted(&mut self) -> Option<u32> {
        self.free.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fill_and_copy_roundtrip() {
        let mtu = Mtu::new(8);
        let mut ring = StagingRing::new(4, mtu);
        let mut user = vec![0u8; 24]; // 3 chunks
        let s = ring.receive(1, &[9, 9, 9, 9, 9, 9, 9, 9]).unwrap();
        let (psn, len) = ring.copy_out(s, &mut user);
        assert_eq!((psn, len), (1, 8));
        assert_eq!(&user[8..16], &[9; 8]);
        assert_eq!(&user[0..8], &[0; 8]);
    }

    #[test]
    fn short_final_chunk() {
        let mtu = Mtu::new(8);
        let mut ring = StagingRing::new(4, mtu);
        let mut user = vec![0u8; 20]; // chunks: 8, 8, 4
        let s = ring.receive(2, &[7, 7, 7, 7]).unwrap();
        let (psn, len) = ring.copy_out(s, &mut user);
        assert_eq!((psn, len), (2, 4));
        assert_eq!(&user[16..20], &[7; 4]);
    }

    #[test]
    fn rnr_when_ring_exhausted() {
        let mut ring = StagingRing::new(2, Mtu::new(4));
        assert!(ring.receive(0, &[1]).is_some());
        assert!(ring.receive(1, &[2]).is_some());
        assert!(ring.receive(2, &[3]).is_none(), "third receive must RNR");
        assert_eq!(ring.posted(), 0);
    }

    #[test]
    fn slot_reuse_after_copy() {
        let mut ring = StagingRing::new(1, Mtu::new(4));
        let mut user = vec![0u8; 8];
        for round in 0..10u8 {
            let s = ring.receive((round % 2) as u32, &[round; 4]).unwrap();
            ring.copy_out(s, &mut user);
        }
        assert_eq!(ring.max_outstanding(), 1);
        assert_eq!(&user[0..4], &[8; 4]);
        assert_eq!(&user[4..8], &[9; 4]);
    }

    #[test]
    fn discard_reposts_without_copy() {
        let mut ring = StagingRing::new(1, Mtu::new(4));
        let s = ring.receive(0, &[5; 4]).unwrap();
        ring.discard(s);
        assert_eq!(ring.posted(), 1);
        assert!(ring.receive(1, &[6; 4]).is_some());
    }

    #[test]
    #[should_panic(expected = "not filled")]
    fn double_copy_panics() {
        let mut ring = StagingRing::new(2, Mtu::new(4));
        let mut user = vec![0u8; 8];
        let s = ring.receive(0, &[1; 4]).unwrap();
        ring.copy_out(s, &mut user);
        ring.copy_out(s, &mut user);
    }

    #[test]
    fn paper_memory_budget() {
        // Maximum configuration: RQ depth 8192 x 4 KiB = 32 MiB.
        let max = StagingRing::new(8192, Mtu::IB_4K);
        assert_eq!(max.memory_bytes(), 32 << 20);
    }

    proptest! {
        /// Chunks arriving in any order, with duplicates discarded,
        /// reassemble the exact source buffer.
        #[test]
        fn out_of_order_reassembly(
            len in 1usize..4000,
            mtu in 1usize..128,
            seed in any::<u64>(),
        ) {
            use rand::{seq::SliceRandom, SeedableRng};
            let mtu = Mtu::new(mtu);
            let src: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let n = mtu.chunks_for(len);
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            // Duplicate a prefix of chunks to simulate recovery overlap.
            let dups: Vec<u32> = order.iter().take(n / 3).copied().collect();
            order.extend(dups);

            let mut ring = StagingRing::new(8, mtu);
            let mut user = vec![0u8; len];
            let mut seen = std::collections::HashSet::new();
            for psn in order {
                let r = mtu.chunk_range(psn, len);
                let slot = ring.receive(psn, &src[r]).unwrap();
                if seen.insert(psn) {
                    ring.copy_out(slot, &mut user);
                } else {
                    ring.discard(slot);
                }
            }
            prop_assert_eq!(user, src);
        }
    }
}
