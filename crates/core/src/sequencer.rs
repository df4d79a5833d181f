//! The distributed Broadcast sequencer (Section IV-A and Appendix A).
//!
//! Letting all Allgather participants multicast at once would incast the
//! fabric; the sequencer instead splits the ring of `P` broadcasting
//! roots into `M` parallel *chains* of length `R = P/M`. Within a chain,
//! roots multicast one-by-one, each passing an activation signal to its
//! successor when its send path drains; the `M` chains run concurrently,
//! so exactly `M` roots multicast at any time.
//!
//! Appendix A defines the active group at step `i` as
//! `G_i = {P_i, P_{R+i}, P_{2R+i}, …, P_{(M−1)R+i}}`,
//! i.e. chain `k` owns roots `kR..(k+1)R` and its step-`i` member is
//! `P_{kR+i}`. We generalize to `P mod M != 0` by letting the last chain
//! run short.

use serde::{Deserialize, Serialize};

/// Chain schedule over `p` broadcasting roots (identified by their *root
/// index* `0..p`, not their rank — callers map indices to ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sequencer {
    p: u32,
    m: u32,
    r: u32,
}

impl Sequencer {
    /// A schedule of `p` roots split into `m` parallel chains.
    pub fn new(p: u32, m: u32) -> Sequencer {
        assert!(p >= 1, "need at least one root");
        assert!(m >= 1, "need at least one chain");
        let m = m.min(p);
        Sequencer {
            p,
            m,
            r: p.div_ceil(m),
        }
    }

    /// Number of parallel chains (`M`, the size of each active group).
    pub fn num_chains(&self) -> u32 {
        self.m
    }

    /// Chain length `R` — the number of schedule steps.
    pub fn num_steps(&self) -> u32 {
        self.r
    }

    /// Which chain a root belongs to.
    #[inline]
    pub fn chain_of(&self, root: u32) -> u32 {
        debug_assert!(root < self.p);
        root / self.r
    }

    /// The step at which a root multicasts.
    #[inline]
    pub fn step_of(&self, root: u32) -> u32 {
        debug_assert!(root < self.p);
        root % self.r
    }

    /// True if `root` multicasts in the very first step (activated by the
    /// RNR barrier rather than by a predecessor's signal).
    #[inline]
    pub fn starts_immediately(&self, root: u32) -> bool {
        self.step_of(root) == 0
    }

    /// The root that must receive this root's activation signal when its
    /// multicast completes (`None` at the end of a chain).
    #[inline]
    pub fn successor(&self, root: u32) -> Option<u32> {
        debug_assert!(root < self.p);
        let next = root + 1;
        if next < self.p && self.chain_of(root) == self.chain_of(next) {
            Some(next)
        } else {
            None
        }
    }

    /// The root whose activation signal this root waits for (`None` for
    /// step-0 roots).
    #[inline]
    pub fn predecessor(&self, root: u32) -> Option<u32> {
        debug_assert!(root < self.p);
        if self.step_of(root) == 0 {
            None
        } else {
            Some(root - 1)
        }
    }

    /// The active group `G_i`: roots multicasting at step `i` (Appendix A).
    pub fn active_group(&self, step: u32) -> Vec<u32> {
        assert!(step < self.r);
        (0..self.m)
            .map(|k| k * self.r + step)
            .filter(|&root| root < self.p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_six_ranks_two_chains() {
        // Figure 8: six processes, two actively multicasting roots.
        let s = Sequencer::new(6, 2);
        assert_eq!(s.num_steps(), 3);
        assert_eq!(s.active_group(0), vec![0, 3]);
        assert_eq!(s.active_group(1), vec![1, 4]);
        assert_eq!(s.active_group(2), vec![2, 5]);
        // Process 1 (Figure 9): waits for rank 0's signal, then signals 2.
        assert_eq!(s.predecessor(1), Some(0));
        assert_eq!(s.successor(1), Some(2));
        assert!(!s.starts_immediately(1));
        assert!(s.starts_immediately(0) && s.starts_immediately(3));
    }

    #[test]
    fn single_chain_is_a_pure_ring_walk() {
        // The evaluation config: "one actively multicasting root".
        let s = Sequencer::new(5, 1);
        assert_eq!(s.num_steps(), 5);
        for i in 0..5 {
            assert_eq!(s.active_group(i), vec![i]);
        }
        assert_eq!(s.successor(4), None);
        assert_eq!(s.predecessor(0), None);
    }

    #[test]
    fn all_parallel_chains() {
        let s = Sequencer::new(4, 4);
        assert_eq!(s.num_steps(), 1);
        assert_eq!(s.active_group(0), vec![0, 1, 2, 3]);
        for r in 0..4 {
            assert!(s.starts_immediately(r));
            assert_eq!(s.successor(r), None);
        }
    }

    #[test]
    fn ragged_last_chain() {
        // 7 roots, 3 chains -> R = 3; chains {0,1,2}, {3,4,5}, {6}.
        let s = Sequencer::new(7, 3);
        assert_eq!(s.num_steps(), 3);
        assert_eq!(s.active_group(0), vec![0, 3, 6]);
        assert_eq!(s.active_group(1), vec![1, 4]);
        assert_eq!(s.active_group(2), vec![2, 5]);
        assert_eq!(s.successor(6), None);
    }

    #[test]
    fn broadcast_degenerate_case() {
        let s = Sequencer::new(1, 1);
        assert_eq!(s.num_steps(), 1);
        assert!(s.starts_immediately(0));
        assert_eq!(s.successor(0), None);
    }

    #[test]
    fn more_chains_than_roots_clamps() {
        let s = Sequencer::new(3, 8);
        assert_eq!(s.num_chains(), 3);
        assert_eq!(s.num_steps(), 1);
    }

    proptest! {
        /// Appendix A laws: groups partition the roots, each root appears
        /// exactly once, and |G_i| <= M with equality for full chains.
        #[test]
        fn groups_partition_roots(p in 1u32..300, m in 1u32..32) {
            let s = Sequencer::new(p, m);
            let mut seen = vec![false; p as usize];
            for step in 0..s.num_steps() {
                let g = s.active_group(step);
                prop_assert!(g.len() <= s.num_chains() as usize);
                for root in g {
                    prop_assert_eq!(s.step_of(root), step);
                    prop_assert!(!seen[root as usize], "root {} scheduled twice", root);
                    seen[root as usize] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|x| x));
        }

        /// Successor/predecessor are inverse and stay within a chain.
        #[test]
        fn chain_links_are_consistent(p in 1u32..300, m in 1u32..32) {
            let s = Sequencer::new(p, m);
            for root in 0..p {
                if let Some(succ) = s.successor(root) {
                    prop_assert_eq!(s.predecessor(succ), Some(root));
                    prop_assert_eq!(s.chain_of(succ), s.chain_of(root));
                    prop_assert_eq!(s.step_of(succ), s.step_of(root) + 1);
                }
                if let Some(pred) = s.predecessor(root) {
                    prop_assert_eq!(s.successor(pred), Some(root));
                }
            }
        }

        /// Exactly the step-0 members start without a signal; activation
        /// reaches every other root through its chain.
        #[test]
        fn activation_reaches_everyone(p in 1u32..300, m in 1u32..32) {
            let s = Sequencer::new(p, m);
            let mut activated: Vec<bool> = (0..p).map(|r| s.starts_immediately(r)).collect();
            // Simulate signal propagation to a fixpoint.
            loop {
                let mut changed = false;
                for root in 0..p {
                    if activated[root as usize] {
                        if let Some(succ) = s.successor(root) {
                            if !activated[succ as usize] {
                                activated[succ as usize] = true;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            prop_assert!(activated.into_iter().all(|x| x));
        }
    }
}
