//! Runs: the members of same-instant arrivals or completions of one
//! packet, sharing one event-queue entry (see the event module's docs).
//!
//! An arrival or a completion that [`RunStore::join`]s the entry
//! scheduled last — the same packet's event of the same kind (on one QP,
//! for completions), or a run of them — turns that entry into a run; one
//! that joins nothing stays a lone event. A run of two members lives in
//! its [`Members`]; a third moves the run into a segment of one word
//! arena, and a full segment moves to one twice its size.
//!
//! The invariant the tests pin: a run yields its members in the order
//! they joined, at every length and across every segment-class edge, and
//! a closed run's segment is reused before the arena grows — so the
//! arena stops growing once it has held as many segments of each class
//! as were ever live at once, and traffic that forms no run of three
//! (unicast alone, say) leaves it empty.

use super::{Ev, NIL};

/// The members of a run entry, in dispatch order: links of an
/// [`Ev::ArriveRun`], ranks of an [`Ev::CqeRun`]. A run opens with two
/// members, held here; a third moves them all into a [`RunStore`]
/// segment, which `first` locates while `second` is [`NIL`].
#[derive(Debug, Clone, Copy)]
pub(super) struct Members {
    first: u32,
    second: u32,
}

/// Words in the smallest run segment: a length word and seven members.
const SEG_MIN: u32 = 8;

/// Size classes of run segments: class `c` is `SEG_MIN << c` words.
const SEG_CLASSES: usize = 28;

/// The member lists of runs that outgrew [`Members`], in one arena of
/// words. A list is a segment of `SEG_MIN << c` words: its length, then
/// its members. A full segment moves to one twice its size, and a
/// vacated one goes on its class's free list, linked through its first
/// word. So the arena allocates only as it grows, and stops growing once
/// it has held as many segments of each class as were ever live at once.
pub(super) struct RunStore {
    pub(super) words: Vec<u32>,
    /// First free segment of each class, or [`NIL`].
    free: [u32; SEG_CLASSES],
}

impl RunStore {
    /// Merge `ev` into the pending entry `last` when both are `pkt`'s
    /// `LinkArrive`s, or its `CqeDone`s on one QP (either possibly a run
    /// already), rewriting `last` into a run; false leaves it untouched.
    pub(super) fn join(&mut self, last: &mut Ev, ev: Ev) -> bool {
        *last = match (*last, ev) {
            (Ev::LinkArrive { link: a, pkt }, Ev::LinkArrive { link: b, pkt: p }) if pkt == p => {
                Ev::ArriveRun {
                    pkt,
                    members: Members {
                        first: a.0,
                        second: b.0,
                    },
                }
            }
            (Ev::ArriveRun { pkt, members }, Ev::LinkArrive { link, pkt: p }) if pkt == p => {
                Ev::ArriveRun {
                    pkt,
                    members: self.push(members, link.0),
                }
            }
            (
                Ev::CqeDone {
                    rank: a,
                    qp_idx,
                    repost,
                    pkt,
                },
                Ev::CqeDone {
                    rank: b,
                    qp_idx: q,
                    repost: r,
                    pkt: p,
                },
            ) if (pkt, qp_idx, repost) == (p, q, r) => Ev::CqeRun {
                pkt,
                qp_idx,
                repost,
                members: Members {
                    first: a.0,
                    second: b.0,
                },
            },
            (
                Ev::CqeRun {
                    pkt,
                    qp_idx,
                    repost,
                    members,
                },
                Ev::CqeDone {
                    rank,
                    qp_idx: q,
                    repost: r,
                    pkt: p,
                },
            ) if (pkt, qp_idx, repost) == (p, q, r) => Ev::CqeRun {
                pkt,
                qp_idx,
                repost,
                members: self.push(members, rank.0),
            },
            _ => return false,
        };
        true
    }

    /// `members` with `m` appended: the third moves them all into a
    /// segment.
    fn push(&mut self, members: Members, m: u32) -> Members {
        if members.second != NIL {
            let at = self.alloc(0);
            self.words[at..at + 4].copy_from_slice(&[3, members.first, members.second, m]);
            return Members {
                first: at as u32,
                second: NIL,
            };
        }
        let mut at = members.first as usize;
        let len = self.words[at];
        if (len + 1).is_power_of_two() && len + 1 >= SEG_MIN {
            // Full: move to a segment of the next class.
            let class = seg_class(len);
            let to = self.alloc(class + 1);
            self.words.copy_within(at..at + len as usize + 1, to);
            self.release(at, class);
            at = to;
        }
        self.words[at] = len + 1;
        self.words[at + 1 + len as usize] = m;
        Members {
            first: at as u32,
            second: NIL,
        }
    }

    /// A vacant segment of class `class`: a free one, or new words.
    fn alloc(&mut self, class: usize) -> usize {
        let head = self.free[class];
        if head != NIL {
            self.free[class] = self.words[head as usize];
            return head as usize;
        }
        let at = self.words.len();
        assert!(at < NIL as usize, "run arena is full");
        if self.words.capacity() == 0 {
            // Skip the first doublings, as the slabs do.
            self.words.reserve_exact(8 * SEG_MIN as usize);
        }
        self.words.resize(at + ((SEG_MIN as usize) << class), 0);
        at
    }

    fn release(&mut self, at: usize, class: usize) {
        self.words[at] = self.free[class];
        self.free[class] = at as u32;
    }

    pub(super) fn len(&self, members: Members) -> u32 {
        match members.second {
            NIL => self.words[members.first as usize],
            _ => 2,
        }
    }

    /// Member `k` of `members`: a link or a rank.
    #[inline]
    pub(super) fn get(&self, members: Members, k: u32) -> u32 {
        match (members.second, k) {
            (NIL, _) => self.words[(members.first + 1 + k) as usize],
            (_, 0) => members.first,
            _ => members.second,
        }
    }

    /// Free a dispatched run's segment, if it has one.
    pub(super) fn close(&mut self, members: Members) {
        if members.second == NIL {
            let at = members.first as usize;
            self.release(at, seg_class(self.words[at]));
        }
    }
}

impl Default for RunStore {
    fn default() -> RunStore {
        RunStore {
            words: Vec::new(),
            free: [NIL; SEG_CLASSES],
        }
    }
}

/// The class of the segment that holds `len` members.
fn seg_class(len: u32) -> usize {
    let words = (len + 1).next_power_of_two().max(SEG_MIN);
    (words.trailing_zeros() - SEG_MIN.trailing_zeros()) as usize
}

/// A CQE run the last rank finished in the middle of: `next` is the
/// index of its first member not yet dispatched.
#[derive(Clone, Copy)]
pub(super) struct RunCursor {
    pub(super) run: Ev,
    pub(super) next: u32,
}

#[cfg(test)]
mod tests {
    use super::super::PktRef;
    use super::*;
    use crate::topology::LinkId;
    use mcag_verbs::Rank;

    #[test]
    fn run_store_keeps_member_order_and_recycles_segments() {
        let mut store = RunStore::default();
        let pkt = PktRef(9);
        let open = |store: &mut RunStore, n: u32| {
            let mut run = Ev::LinkArrive {
                link: LinkId(0),
                pkt,
            };
            for m in 1..n {
                assert!(store.join(
                    &mut run,
                    Ev::LinkArrive {
                        link: LinkId(m),
                        pkt
                    }
                ));
            }
            run
        };
        let of = |run: Ev| match run {
            Ev::ArriveRun { members, pkt: p } if p == pkt => members,
            ev => panic!("{ev:?} is not a run of {pkt:?}"),
        };
        let members = |store: &RunStore, run: Ev| -> Vec<u32> {
            let members = of(run);
            (0..store.len(members))
                .map(|k| store.get(members, k))
                .collect()
        };
        // A lone arrival joined once is a run of two, which holds no
        // arena words; the third member moves the run into a segment.
        let mut run = open(&mut store, 1);
        assert!(matches!(run, Ev::LinkArrive { .. }));
        for (n, words) in [(2, 0), (3, SEG_MIN as usize)] {
            let arrive = Ev::LinkArrive {
                link: LinkId(n - 1),
                pkt,
            };
            assert!(store.join(&mut run, arrive));
            assert_eq!(members(&store, run), (0..n).collect::<Vec<_>>());
            assert_eq!(store.words.len(), words);
        }
        store.close(of(run));
        // Lengths on both sides of every segment-class edge, several live
        // at once.
        let sizes = [2, 3, 7, 8, 15, 16, 17, 100];
        let runs: Vec<Ev> = sizes.iter().map(|&n| open(&mut store, n)).collect();
        for (&n, &run) in sizes.iter().zip(&runs) {
            assert_eq!(members(&store, run), (0..n).collect::<Vec<_>>());
        }
        let words = store.words.len();
        runs.into_iter().for_each(|run| store.close(of(run)));
        // The same runs again fit in the segments the first ones vacated.
        let runs: Vec<Ev> = sizes.iter().map(|&n| open(&mut store, n)).collect();
        assert_eq!(store.words.len(), words);
        assert_eq!(members(&store, runs[7]), (0..100).collect::<Vec<_>>());
        // Another packet's arrival, or a completion, does not join.
        let mut run = runs[1];
        assert!(!store.join(
            &mut run,
            Ev::LinkArrive {
                link: LinkId(5),
                pkt: PktRef(8)
            }
        ));
        let cqe = Ev::CqeDone {
            rank: Rank(1),
            qp_idx: 0,
            repost: true,
            pkt,
        };
        assert!(!store.join(&mut run, cqe));
        assert_eq!(members(&store, run), [0, 1, 2]);
        // Completions join only on one QP with one repost flag.
        let done = |rank: u32, qp_idx: u16, repost: bool| Ev::CqeDone {
            rank: Rank(rank),
            qp_idx,
            repost,
            pkt,
        };
        let mut run = done(1, 0, true);
        assert!(!store.join(&mut run, done(2, 1, true)));
        assert!(!store.join(&mut run, done(2, 0, false)));
        assert!(store.join(&mut run, done(2, 0, true)));
        assert!(store.join(&mut run, done(3, 0, true)));
        let Ev::CqeRun {
            members, qp_idx, ..
        } = run
        else {
            panic!("{run:?} is not a completion run");
        };
        assert_eq!(qp_idx, 0);
        let ranks: Vec<u32> = (0..store.len(members))
            .map(|k| store.get(members, k))
            .collect();
        assert_eq!(ranks, [1, 2, 3]);
    }
}
