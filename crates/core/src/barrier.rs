//! Recursive-doubling dissemination barrier — the RNR synchronization
//! step (Section III-C: "We pre-post the network receive queue [...] and
//! then perform the barrier synchronization before the root starts
//! broadcasting"; Section V: "employ the recursive-doubling barrier in
//! the RNR synchronization step").
//!
//! The state machine is transport-agnostic: [`BarrierState::start`] and
//! [`BarrierState::on_msg`] return the sends the caller must perform (and
//! possibly a final `Done`). In round `k`, rank `r` signals
//! `(r + 2^k) mod P` and waits for the round-`k` signal from
//! `(r − 2^k) mod P`; after `⌈log2 P⌉` rounds everyone is synchronized.
//! Rounds from "future" peers may arrive early and are banked — when the
//! missing round finally lands, all consecutively-banked rounds are
//! consumed at once, which is why a step returns a run of actions
//! ([`BarrierActions`], an iterator that allocates nothing).

use mcag_verbs::Rank;

/// Progress of one rank through the dissemination barrier.
#[derive(Debug, Clone)]
pub struct BarrierState {
    rank: u32,
    p: u32,
    rounds: u8,
    current: u8,
    /// Banked arrivals: bit `k` is set once round `k`'s message is in
    /// (`⌈log2 P⌉ ≤ 32` rounds).
    pending: u64,
    done: bool,
}

/// What the caller must do after a barrier step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAction {
    /// Send a round-`round` barrier message to `to`.
    Send {
        /// Destination rank.
        to: Rank,
        /// Round to tag the message with.
        round: u8,
    },
    /// Barrier complete for this rank.
    Done,
}

impl BarrierState {
    /// A barrier over `p` ranks, from `rank`'s perspective.
    pub fn new(rank: Rank, p: u32) -> BarrierState {
        assert!(p >= 1 && rank.0 < p);
        let rounds = if p == 1 {
            0
        } else {
            (32 - (p - 1).leading_zeros()) as u8 // ceil(log2 p)
        };
        BarrierState {
            rank: rank.0,
            p,
            rounds,
            current: 0,
            pending: 0,
            done: p == 1,
        }
    }

    /// Total rounds (`⌈log2 P⌉`).
    pub fn rounds(&self) -> u8 {
        self.rounds
    }

    /// Has this rank cleared the barrier?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Begin: the round-0 send (or immediate `Done` for one rank).
    pub fn start(&mut self) -> BarrierActions {
        self.actions(0, (!self.done) as u8)
    }

    /// A round-`round` barrier message arrived. Returns the sends to
    /// perform (possibly several, if this unblocked banked rounds), ending
    /// with `Done` when the barrier clears. Early messages return no
    /// action.
    pub fn on_msg(&mut self, round: u8) -> BarrierActions {
        assert!(!self.done, "barrier message after completion");
        assert!(round < self.rounds, "round {round} out of range");
        let bit = 1u64 << round;
        assert!(
            self.pending & bit == 0,
            "duplicate barrier message for round {round}"
        );
        self.pending |= bit;
        let from = self.current;
        while self.current < self.rounds && self.pending & (1u64 << self.current) != 0 {
            self.current += 1;
        }
        self.done = self.current == self.rounds;
        // Each round cleared below the last opens the next one's send.
        self.actions(from + 1, (self.current + 1).min(self.rounds))
    }

    /// The sends of rounds `next..end`, then `Done` if the barrier is
    /// clear.
    fn actions(&self, next: u8, end: u8) -> BarrierActions {
        BarrierActions {
            rank: self.rank,
            p: self.p,
            next,
            end,
            done: self.done,
        }
    }
}

/// The actions of one barrier step, in order: the sends of a run of
/// consecutive rounds, then [`BarrierAction::Done`] if the step cleared
/// the barrier.
#[derive(Debug, Clone)]
pub struct BarrierActions {
    rank: u32,
    p: u32,
    next: u8,
    end: u8,
    done: bool,
}

impl Iterator for BarrierActions {
    type Item = BarrierAction;

    fn next(&mut self) -> Option<BarrierAction> {
        if self.next < self.end {
            // In round `k`, rank `r` signals `(r + 2^k) mod P`.
            let k = self.next;
            self.next += 1;
            let to = (self.rank + (1u32 << k)) % self.p;
            return Some(BarrierAction::Send {
                to: Rank(to),
                round: k,
            });
        }
        std::mem::take(&mut self.done).then_some(BarrierAction::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Drive all P barrier instances through an in-memory message queue,
    /// delivering in a pseudo-random order to model network reordering
    /// across peers.
    fn simulate(p: u32, shuffle_seed: u64) -> Vec<bool> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut states: Vec<BarrierState> = (0..p).map(|r| BarrierState::new(Rank(r), p)).collect();
        let mut inflight: VecDeque<(u32, u32, u8)> = VecDeque::new(); // (src, dst, round)
        for r in 0..p {
            for a in states[r as usize].start() {
                if let BarrierAction::Send { to, round } = a {
                    inflight.push_back((r, to.0, round));
                }
            }
        }
        let mut guard = 0;
        while !inflight.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000, "barrier livelock");
            let pick = (rng.random::<u64>() % inflight.len() as u64) as usize;
            let (_src, dst, round) = inflight.remove(pick).unwrap();
            for a in states[dst as usize].on_msg(round) {
                if let BarrierAction::Send { to, round } = a {
                    inflight.push_back((dst, to.0, round));
                }
            }
        }
        states.iter().map(|s| s.is_done()).collect()
    }

    #[test]
    fn round_counts() {
        assert_eq!(BarrierState::new(Rank(0), 1).rounds(), 0);
        assert_eq!(BarrierState::new(Rank(0), 2).rounds(), 1);
        assert_eq!(BarrierState::new(Rank(0), 5).rounds(), 3);
        assert_eq!(BarrierState::new(Rank(0), 188).rounds(), 8);
        assert_eq!(BarrierState::new(Rank(0), 1024).rounds(), 10);
    }

    #[test]
    fn single_rank_trivially_done() {
        let mut b = BarrierState::new(Rank(0), 1);
        assert_eq!(b.start().collect::<Vec<_>>(), vec![BarrierAction::Done]);
        assert!(b.is_done());
    }

    #[test]
    fn two_ranks_one_round() {
        let mut a = BarrierState::new(Rank(0), 2);
        let mut b = BarrierState::new(Rank(1), 2);
        assert_eq!(
            a.start().collect::<Vec<_>>(),
            vec![BarrierAction::Send {
                to: Rank(1),
                round: 0
            }]
        );
        assert_eq!(
            b.start().collect::<Vec<_>>(),
            vec![BarrierAction::Send {
                to: Rank(0),
                round: 0
            }]
        );
        assert_eq!(a.on_msg(0).collect::<Vec<_>>(), vec![BarrierAction::Done]);
        assert_eq!(b.on_msg(0).collect::<Vec<_>>(), vec![BarrierAction::Done]);
    }

    #[test]
    fn banked_rounds_consumed_in_batch() {
        // Rank 0 of 8: rounds 1 and 2 arrive before round 0.
        let mut b = BarrierState::new(Rank(0), 8);
        b.start();
        assert_eq!(b.on_msg(1).count(), 0);
        assert_eq!(b.on_msg(2).count(), 0);
        let actions: Vec<_> = b.on_msg(0).collect();
        assert_eq!(
            actions,
            vec![
                BarrierAction::Send {
                    to: Rank(2),
                    round: 1
                },
                BarrierAction::Send {
                    to: Rank(4),
                    round: 2
                },
                BarrierAction::Done,
            ]
        );
        assert!(b.is_done());
    }

    #[test]
    fn all_complete_at_various_sizes() {
        for p in [2u32, 3, 4, 5, 7, 8, 16, 63, 188] {
            let done = simulate(p, 42);
            assert!(done.into_iter().all(|d| d), "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate barrier message")]
    fn duplicate_round_rejected() {
        let mut b = BarrierState::new(Rank(0), 4);
        b.start();
        b.on_msg(1);
        b.on_msg(1);
    }

    /// The barrier as a list-returning state machine, step for step.
    fn reference_steps(rank: u32, p: u32, order: &[u8]) -> Vec<Vec<BarrierAction>> {
        let rounds = BarrierState::new(Rank(rank), p).rounds();
        let send = |k: u8| BarrierAction::Send {
            to: Rank((rank + (1u32 << k)) % p),
            round: k,
        };
        let mut pending = vec![false; rounds as usize];
        let mut current = 0u8;
        let mut steps = vec![vec![send(0)]];
        for &round in order {
            pending[round as usize] = true;
            let mut actions = Vec::new();
            while current < rounds && pending[current as usize] {
                current += 1;
                actions.push(if current == rounds {
                    BarrierAction::Done
                } else {
                    send(current)
                });
            }
            steps.push(actions);
        }
        steps
    }

    proptest! {
        /// Every step yields the actions the list-returning barrier
        /// returned, whatever order the rounds arrive in.
        #[test]
        fn steps_match_the_list_reference(p in 2u32..300, rank in 0u32..300, seed: u64) {
            use rand::{RngExt, SeedableRng};
            let rank = rank % p;
            let mut b = BarrierState::new(Rank(rank), p);
            let mut order: Vec<u8> = (0..b.rounds()).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..i + 1));
            }
            let mut steps = vec![b.start().collect::<Vec<_>>()];
            steps.extend(order.iter().map(|&round| b.on_msg(round).collect::<Vec<_>>()));
            prop_assert_eq!(steps, reference_steps(rank, p, &order));
            prop_assert!(b.is_done());
        }

        #[test]
        fn completes_under_any_delivery_order(p in 2u32..96, seed: u64) {
            let done = simulate(p, seed);
            prop_assert!(done.into_iter().all(|d| d));
        }
    }
}
