//! The receive-buffer bitmap — the protocol's only state that grows with
//! the buffer (Section III-D(c)).
//!
//! Every received chunk sets one bit, indexed by the PSN carried in the
//! CQE immediate data. The bitmap is chosen over ACK-based schemes because
//! it "allows us to store information about drops in a compact way with
//! minimal overhead on the receive datapath throughput": a set is one
//! load+or+store, completeness is a popcount the datapath maintains
//! incrementally, and after the cutoff timer the recovery phase walks the
//! zero runs to build selective RDMA Read fetches.

/// Fixed-capacity chunk bitmap with an incrementally-maintained count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkBitmap {
    words: Words,
    len: usize,
    set_count: usize,
}

/// Words a bitmap keeps inline: up to 128 chunks — every rank of a
/// small collective — cost no allocation.
const INLINE_WORDS: usize = 2;

/// A bitmap's words: inline when they fit, else on the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl ChunkBitmap {
    /// A bitmap tracking `len` chunks, all initially missing.
    pub fn new(len: usize) -> ChunkBitmap {
        let n = len.div_ceil(64);
        ChunkBitmap {
            words: if n <= INLINE_WORDS {
                Words::Inline([0; INLINE_WORDS])
            } else {
                Words::Heap(vec![0u64; n].into_boxed_slice())
            },
            len,
            set_count: 0,
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Number of chunks tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap tracks zero chunks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of state this bitmap occupies — the Fig. 7 budget that must
    /// fit in the DPA's 1.5 MB last-level cache.
    #[inline]
    pub fn state_bytes(&self) -> usize {
        self.len.div_ceil(64) * 8
    }

    /// Mark chunk `psn` received. Returns `true` if the bit was newly set
    /// (duplicates from recovery re-reads return `false`).
    ///
    /// # Panics
    /// If `psn` is out of range — corrupted immediate data must not be
    /// silently accepted.
    #[inline]
    pub fn set(&mut self, psn: u32) -> bool {
        let i = psn as usize;
        assert!(i < self.len, "PSN {psn} out of range (len {})", self.len);
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let word = &mut self.words_mut()[w];
        if *word & mask == 0 {
            *word |= mask;
            self.set_count += 1;
            true
        } else {
            false
        }
    }

    /// Mark `range` of chunks received (recovery bulk-fill after an RDMA
    /// Read lands). Returns how many bits were newly set.
    pub fn set_range(&mut self, range: std::ops::Range<u32>) -> usize {
        let mut newly = 0;
        for psn in range {
            if self.set(psn) {
                newly += 1;
            }
        }
        newly
    }

    /// Is chunk `psn` present?
    #[inline]
    pub fn get(&self, psn: u32) -> bool {
        let i = psn as usize;
        assert!(i < self.len, "PSN {psn} out of range (len {})", self.len);
        self.words()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Chunks received so far.
    #[inline]
    pub fn count(&self) -> usize {
        self.set_count
    }

    /// All chunks received?
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.set_count == self.len
    }

    /// Chunks still missing.
    #[inline]
    pub fn missing(&self) -> usize {
        self.len - self.set_count
    }

    /// Iterate maximal runs of missing chunks as `start..end` ranges —
    /// these become the selective zero-copy fetches of the recovery phase.
    pub fn missing_runs(&self) -> MissingRuns<'_> {
        self.missing_runs_in(0..self.len as u32)
    }

    /// [`Self::missing_runs`] clipped to `range`.
    pub(crate) fn missing_runs_in(&self, range: std::ops::Range<u32>) -> MissingRuns<'_> {
        assert!(
            range.end as usize <= self.len,
            "range {range:?} out of range (len {})",
            self.len
        );
        MissingRuns {
            bm: self,
            cursor: range.start as usize,
            end: range.end as usize,
        }
    }

    /// Is any chunk of `range` present?
    pub(crate) fn any_present(&self, range: std::ops::Range<u32>) -> bool {
        !range.is_empty() && self.missing_runs_in(range.clone()).next() != Some(range)
    }
}

/// Iterator over maximal zero runs; see [`ChunkBitmap::missing_runs`].
#[derive(Debug, Clone)]
pub struct MissingRuns<'a> {
    bm: &'a ChunkBitmap,
    cursor: usize,
    end: usize,
}

impl Iterator for MissingRuns<'_> {
    type Item = std::ops::Range<u32>;

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.end;
        let words = self.bm.words();
        let mut i = self.cursor;
        // Skip present chunks word-at-a-time to the next missing one.
        while i < n {
            let (w, b) = (i / 64, i % 64);
            let inv = !words[w] >> b; // ones where chunks are missing
            if inv == 0 {
                i += 64 - b;
                continue;
            }
            i += inv.trailing_zeros() as usize;
            break;
        }
        if i >= n {
            self.cursor = n;
            return None;
        }
        let start = i;
        // Extend across the missing run.
        while i < n {
            let (w, b) = (i / 64, i % 64);
            let word = words[w] >> b; // ones where chunks are present
            if word == 0 {
                i += 64 - b;
                continue;
            }
            i += word.trailing_zeros() as usize;
            break;
        }
        let end = i.min(n);
        self.cursor = end;
        Some(start as u32..end as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn set_get_count() {
        let mut bm = ChunkBitmap::new(100);
        assert!(!bm.get(5));
        assert!(bm.set(5));
        assert!(!bm.set(5), "duplicate set must report false");
        assert!(bm.get(5));
        assert_eq!(bm.count(), 1);
        assert_eq!(bm.missing(), 99);
        assert!(!bm.is_complete());
    }

    #[test]
    fn completeness() {
        let mut bm = ChunkBitmap::new(130);
        for i in 0..130 {
            bm.set(i);
        }
        assert!(bm.is_complete());
        assert_eq!(bm.missing_runs().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_rejected() {
        let mut bm = ChunkBitmap::new(10);
        bm.set(10);
    }

    #[test]
    fn missing_runs_simple() {
        let mut bm = ChunkBitmap::new(10);
        for i in [0, 1, 4, 9] {
            bm.set(i);
        }
        let runs: Vec<_> = bm.missing_runs().collect();
        assert_eq!(runs, vec![2..4, 5..9]);
    }

    #[test]
    fn missing_runs_all_missing() {
        let bm = ChunkBitmap::new(200);
        let runs: Vec<_> = bm.missing_runs().collect();
        assert_eq!(runs, vec![0..200]);
    }

    #[test]
    fn missing_runs_word_boundaries() {
        let mut bm = ChunkBitmap::new(192);
        // Present: entire middle word (64..128).
        for i in 64..128 {
            bm.set(i);
        }
        let runs: Vec<_> = bm.missing_runs().collect();
        assert_eq!(runs, vec![0..64, 128..192]);
    }

    #[test]
    fn set_range_counts_new_bits() {
        let mut bm = ChunkBitmap::new(50);
        bm.set(12);
        let newly = bm.set_range(10..20);
        assert_eq!(newly, 9);
        assert_eq!(bm.count(), 10);
    }

    #[test]
    fn fig7_sizing_fits_dpa_llc() {
        // 8 MiB receive buffer at 4 KiB chunks -> 2048 bits = 256 B.
        let bm = ChunkBitmap::new(2048);
        assert_eq!(bm.state_bytes(), 256);
        // A ~50 GB buffer's bitmap must sit around the 1.5 MB LLC budget
        // (Section III-D: "the bitmap size that fits in the DPA LLC
        // (1.5 MB) will allow addressing ... approximately 50 GB").
        let chunks_50gb = 50_000_000_000u64 / 4096;
        let bm = ChunkBitmap::new(chunks_50gb as usize);
        assert!(bm.state_bytes() <= 1_572_864, "{}", bm.state_bytes());
    }

    proptest! {
        #[test]
        fn matches_reference_set(len in 1usize..2000, ops in prop::collection::vec(0u32..2000, 0..400)) {
            let mut bm = ChunkBitmap::new(len);
            let mut reference = BTreeSet::new();
            for op in ops {
                let psn = op % len as u32;
                let newly = bm.set(psn);
                prop_assert_eq!(newly, reference.insert(psn));
            }
            prop_assert_eq!(bm.count(), reference.len());
            for i in 0..len as u32 {
                prop_assert_eq!(bm.get(i), reference.contains(&i));
            }
        }

        /// Runs clipped to a range are what a bit-by-bit scan of it
        /// finds, and `any_present` agrees with that scan.
        #[test]
        fn clipped_runs_match_a_scan(
            bits in prop::collection::vec(any::<bool>(), 1..300),
            a in 0u32..300,
            b in 0u32..300,
        ) {
            let mut bm = ChunkBitmap::new(bits.len());
            for (i, _) in bits.iter().enumerate().filter(|(_, &p)| p) {
                bm.set(i as u32);
            }
            let n = bits.len() as u32 + 1;
            let range = (a % n).min(b % n)..(a % n).max(b % n);
            let mut scan: Vec<std::ops::Range<u32>> = Vec::new();
            for i in range.clone().filter(|&i| !bits[i as usize]) {
                match scan.last_mut() {
                    Some(run) if run.end == i => run.end += 1,
                    _ => scan.push(i..i + 1),
                }
            }
            prop_assert_eq!(bm.missing_runs_in(range.clone()).collect::<Vec<_>>(), scan);
            let present = range.clone().any(|i| bits[i as usize]);
            prop_assert_eq!(bm.any_present(range), present);
        }

        #[test]
        fn missing_runs_partition_missing(len in 1usize..1500, seed in prop::collection::vec(any::<bool>(), 1..1500)) {
            let mut bm = ChunkBitmap::new(len);
            for (i, &present) in seed.iter().take(len).enumerate() {
                if present {
                    bm.set(i as u32);
                }
            }
            let mut missing_from_runs = Vec::new();
            let mut last_end = 0u32;
            for run in bm.missing_runs() {
                // Runs are ordered, non-empty, non-adjacent.
                prop_assert!(run.start >= last_end);
                prop_assert!(run.end > run.start);
                if run.start == last_end && last_end != 0 {
                    // Adjacent runs should have been merged.
                    prop_assert!(run.start != last_end);
                }
                last_end = run.end;
                missing_from_runs.extend(run.clone());
            }
            let expected: Vec<u32> = (0..len as u32).filter(|&i| !bm.get(i)).collect();
            prop_assert_eq!(missing_from_runs, expected);
        }
    }
}
