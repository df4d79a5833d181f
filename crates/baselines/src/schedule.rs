//! Communication schedules for classic point-to-point collectives.
//!
//! Each generator returns one [`Schedule`] per rank. A schedule is a list
//! of [`Step`]s; within a step a rank posts all its sends and then waits
//! for all its receives before moving on (the dependency structure of the
//! textbook algorithms). Sends/receives carry the logical *block* indices
//! they transport so that semantic validators — and reduce-scatter's
//! element accounting — can check the algorithms independently of timing.

use mcag_verbs::Rank;

/// One send within a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOp {
    /// Destination rank.
    pub dst: Rank,
    /// Bytes to move.
    pub bytes: usize,
    /// Logical blocks carried (for semantic validation).
    pub blocks: Vec<u32>,
}

/// One expected receive within a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvOp {
    /// Source rank.
    pub src: Rank,
    /// Bytes expected.
    pub bytes: usize,
    /// Logical blocks carried.
    pub blocks: Vec<u32>,
}

/// A step: post `sends`, then block until all `recvs` arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// Sends posted at step entry.
    pub sends: Vec<SendOp>,
    /// Receives gating step exit.
    pub recvs: Vec<RecvOp>,
}

/// A per-rank schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Ordered steps.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// Total bytes this rank sends.
    pub fn total_send_bytes(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.sends)
            .map(|s| s.bytes)
            .sum()
    }

    /// Total bytes this rank receives.
    pub fn total_recv_bytes(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.recvs)
            .map(|r| r.bytes)
            .sum()
    }
}

/// Ring Allgather (the NCCL/UCC default for large messages): step `k`
/// sends block `(rank − k) mod P` to the right neighbor and receives
/// block `(rank − k − 1) mod P` from the left. `P − 1` steps, `N` bytes
/// per step, optimal schedule time but `N·(P−1)` send bytes per rank.
pub fn ring_allgather(p: u32, n: usize) -> Vec<Schedule> {
    assert!(p >= 2);
    (0..p)
        .map(|r| {
            let right = Rank(r).ring_right(p);
            let left = Rank(r).ring_left(p);
            let steps = (0..p - 1)
                .map(|k| Step {
                    sends: vec![SendOp {
                        dst: right,
                        bytes: n,
                        blocks: vec![(r + p - k) % p],
                    }],
                    recvs: vec![RecvOp {
                        src: left,
                        bytes: n,
                        blocks: vec![(r + p - k - 1) % p],
                    }],
                })
                .collect();
            Schedule { steps }
        })
        .collect()
}

/// Generic k-nomial tree broadcast. With `k = 2` this is the binomial
/// tree. The root sends to `k − 1` children per round; subtree sizes
/// shrink by `k` each round.
pub fn knomial_broadcast(p: u32, root: Rank, n: usize, k: u32) -> Vec<Schedule> {
    assert!(p >= 2 && root.0 < p && k >= 2);
    // Virtual ranks relative to the root.
    let vrank = |r: u32| (r + p - root.0) % p;
    let unvrank = |v: u32| (v + root.0) % p;

    // For each rank compute (parent, children) on the k-nomial tree over
    // virtual ranks 0..p.
    let mut parent: Vec<Option<u32>> = vec![None; p as usize];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); p as usize];
    // Highest power of k not exceeding p-1 … iterate digit positions from
    // the top so the root's first sends reach the farthest subtrees
    // (standard MPICH ordering).
    let mut span = 1u32;
    while span.saturating_mul(k) < p {
        span *= k;
    }
    let mut s = span;
    loop {
        for v in 0..p {
            if v % (s * k) == 0 {
                for j in 1..k {
                    let c = v + j * s;
                    if c < p {
                        parent[c as usize] = Some(v);
                        children[v as usize].push(c);
                    }
                }
            }
        }
        if s == 1 {
            break;
        }
        s /= k;
    }

    (0..p)
        .map(|r| {
            let v = vrank(r);
            let mut steps = Vec::new();
            if let Some(pv) = parent[v as usize] {
                steps.push(Step {
                    sends: vec![],
                    recvs: vec![RecvOp {
                        src: Rank(unvrank(pv)),
                        bytes: n,
                        blocks: vec![0],
                    }],
                });
            }
            if !children[v as usize].is_empty() {
                steps.push(Step {
                    sends: children[v as usize]
                        .iter()
                        .map(|&c| SendOp {
                            dst: Rank(unvrank(c)),
                            bytes: n,
                            blocks: vec![0],
                        })
                        .collect(),
                    recvs: vec![],
                });
            }
            Schedule { steps }
        })
        .collect()
}

/// Plain binary tree broadcast: node `v` (virtual) has children `2v+1`
/// and `2v+2`. Depth `log2 P` but every interior node forwards the whole
/// buffer twice — the weakest baseline in Fig. 11 (up to 4.75× slower).
pub fn binary_tree_broadcast(p: u32, root: Rank, n: usize) -> Vec<Schedule> {
    assert!(p >= 2 && root.0 < p);
    let vrank = |r: u32| (r + p - root.0) % p;
    let unvrank = |v: u32| (v + root.0) % p;
    (0..p)
        .map(|r| {
            let v = vrank(r);
            let mut steps = Vec::new();
            if v != 0 {
                steps.push(Step {
                    sends: vec![],
                    recvs: vec![RecvOp {
                        src: Rank(unvrank((v - 1) / 2)),
                        bytes: n,
                        blocks: vec![0],
                    }],
                });
            }
            let kids: Vec<u32> = [2 * v + 1, 2 * v + 2]
                .into_iter()
                .filter(|&c| c < p)
                .collect();
            if !kids.is_empty() {
                steps.push(Step {
                    sends: kids
                        .iter()
                        .map(|&c| SendOp {
                            dst: Rank(unvrank(c)),
                            bytes: n,
                            blocks: vec![0],
                        })
                        .collect(),
                    recvs: vec![],
                });
            }
            Schedule { steps }
        })
        .collect()
}

/// Pipelined chain broadcast (the NCCL-style large-message scheme): the
/// buffer is cut into `ceil(n/seg)` segments that flow down the chain
/// `root → root+1 → …`; every interior rank forwards segment `s` as soon
/// as it arrives, so steady-state throughput approaches the line rate
/// with a `depth × seg` pipeline-fill bubble.
pub fn pipelined_chain_broadcast(p: u32, root: Rank, n: usize, seg: usize) -> Vec<Schedule> {
    assert!(p >= 2 && root.0 < p && seg > 0);
    let vrank = |r: u32| (r + p - root.0) % p;
    let unvrank = |v: u32| (v + root.0) % p;
    let num_segs = n.div_ceil(seg).max(1);
    let seg_len = |s: usize| -> usize {
        let start = s * seg;
        (start + seg).min(n) - start
    };
    (0..p)
        .map(|r| {
            let v = vrank(r);
            let prev = (v > 0).then(|| Rank(unvrank(v - 1)));
            let next = (v + 1 < p).then(|| Rank(unvrank(v + 1)));
            let mut steps = Vec::with_capacity(num_segs + 1);
            if v == 0 {
                // Root: inject all segments; the NIC serializes them.
                steps.push(Step {
                    sends: (0..num_segs)
                        .map(|s| SendOp {
                            dst: next.expect("chain of length >= 2"),
                            bytes: seg_len(s),
                            blocks: vec![0],
                        })
                        .collect(),
                    recvs: vec![],
                });
            } else {
                // Interior/tail: segment s is received in step s and
                // forwarded in step s+1 (after the receive completes) —
                // the cut-through relay that pipelines the chain.
                for s in 0..num_segs {
                    steps.push(Step {
                        sends: (s > 0)
                            .then(|| {
                                next.map(|dst| SendOp {
                                    dst,
                                    bytes: seg_len(s - 1),
                                    blocks: vec![0],
                                })
                            })
                            .flatten()
                            .into_iter()
                            .collect(),
                        recvs: vec![RecvOp {
                            src: prev.unwrap(),
                            bytes: seg_len(s),
                            blocks: vec![0],
                        }],
                    });
                }
                if let Some(dst) = next {
                    steps.push(Step {
                        sends: vec![SendOp {
                            dst,
                            bytes: seg_len(num_segs - 1),
                            blocks: vec![0],
                        }],
                        recvs: vec![],
                    });
                }
            }
            Schedule { steps }
        })
        .collect()
}

/// Scatter-allgather (van de Geijn) broadcast — the MPICH/UCC
/// bandwidth-oriented large-message scheme: a binomial scatter splits the
/// buffer into `P` blocks, then a ring allgather reassembles it
/// everywhere. Per-rank volume ≈ `2N(P−1)/P`.
pub fn scatter_allgather_broadcast(p: u32, root: Rank, n: usize) -> Vec<Schedule> {
    assert!(p >= 2 && root.0 < p);
    let vrank = |r: u32| (r + p - root.0) % p;
    let unvrank = |v: u32| (v + root.0) % p;
    // Block b (0..p) of the root buffer; block sizes n/p with remainder
    // spread over the first blocks.
    let blen = |b: u32| -> usize {
        let base = n / p as usize;
        base + ((b as usize) < n % p as usize) as usize
    };
    let range_len = |blocks: &[u32]| -> usize { blocks.iter().map(|&b| blen(b)).sum() };

    // Binomial scatter over virtual ranks: at the round with span d
    // (p/2-ish downward), node v holding blocks [v, v+span) sends the
    // upper half to v+d.
    let mut span_of = vec![0u32; p as usize]; // blocks held after scatter start at v
    span_of[0] = p;
    let mut scatter_steps: Vec<Vec<Step>> = vec![Vec::new(); p as usize];
    let mut d = 1u32;
    while d < p {
        d <<= 1;
    }
    d >>= 1; // largest power of two < p (or == p/2 when p is 2^k)
    while d >= 1 {
        for v in 0..p {
            if span_of[v as usize] > d && v + d < p {
                // v holds [v, v+span): hand [v+d, v+span) to v+d.
                let give: Vec<u32> = (v + d..v + span_of[v as usize]).collect();
                let keep = d;
                scatter_steps[v as usize].push(Step {
                    sends: vec![SendOp {
                        dst: Rank(unvrank(v + d)),
                        bytes: range_len(&give),
                        blocks: give.clone(),
                    }],
                    recvs: vec![],
                });
                scatter_steps[(v + d) as usize].push(Step {
                    sends: vec![],
                    recvs: vec![RecvOp {
                        src: Rank(unvrank(v)),
                        bytes: range_len(&give),
                        blocks: give,
                    }],
                });
                span_of[(v + d) as usize] = span_of[v as usize] - keep;
                span_of[v as usize] = keep;
            }
        }
        d >>= 1;
    }

    // Ring allgather over the scattered blocks (in virtual-rank space).
    (0..p)
        .map(|r| {
            let v = vrank(r);
            let mut steps = scatter_steps[v as usize].clone();
            let right = Rank(unvrank((v + 1) % p));
            let left = Rank(unvrank((v + p - 1) % p));
            for k in 0..p - 1 {
                let send_b = (v + p - k) % p;
                let recv_b = (v + p - k - 1) % p;
                steps.push(Step {
                    sends: vec![SendOp {
                        dst: right,
                        bytes: blen(send_b),
                        blocks: vec![send_b],
                    }],
                    recvs: vec![RecvOp {
                        src: left,
                        bytes: blen(recv_b),
                        blocks: vec![recv_b],
                    }],
                });
            }
            Schedule { steps }
        })
        .collect()
}

/// Verify that a segmented/blocked broadcast delivers every one of
/// `blocks` root-buffer blocks to every rank.
pub fn validate_bcast_blocks(
    schedules: &[Schedule],
    p: u32,
    root: Rank,
    blocks: u32,
) -> Result<(), String> {
    validate_propagation(
        schedules,
        p,
        |r| {
            if r == root.0 {
                (0..blocks).collect()
            } else {
                Vec::new()
            }
        },
        (0..blocks).collect(),
    )
}

/// Ring Reduce-Scatter over a `P·n`-byte vector (`n` bytes per shard):
/// `P − 1` steps, each sending one partially-reduced shard of `n` bytes to
/// the right neighbor. Send volume `n·(P−1)` per rank — the same wire
/// pattern as ring Allgather run in reverse (Fig. 3's symmetry).
pub fn ring_reduce_scatter(p: u32, n: usize) -> Vec<Schedule> {
    assert!(p >= 2);
    (0..p)
        .map(|r| {
            let right = Rank(r).ring_right(p);
            let left = Rank(r).ring_left(p);
            let steps = (0..p - 1)
                .map(|k| Step {
                    // Step k: pass on the partial sum for shard
                    // (r − k − 1) mod p; after the last step each rank
                    // holds the full reduction of shard (r+1) mod p … by
                    // convention shard r lands on rank r with one rotation.
                    sends: vec![SendOp {
                        dst: right,
                        bytes: n,
                        blocks: vec![(r + p - k - 1) % p],
                    }],
                    recvs: vec![RecvOp {
                        src: left,
                        bytes: n,
                        blocks: vec![(r + p - k - 2 + p) % p],
                    }],
                })
                .collect();
            Schedule { steps }
        })
        .collect()
}

/// Verify Allgather semantics: starting with its own block, executing the
/// steps in order (sends may only carry blocks held at step entry) must
/// leave every rank holding all `P` blocks.
pub fn validate_allgather(schedules: &[Schedule], p: u32) -> Result<(), String> {
    validate_propagation(schedules, p, |r| vec![r], (0..p).collect())
}

/// Verify Broadcast semantics: only the root starts with block 0; every
/// rank must end up holding it.
pub fn validate_broadcast(schedules: &[Schedule], p: u32, root: Rank) -> Result<(), String> {
    validate_propagation(
        schedules,
        p,
        |r| if r == root.0 { vec![0] } else { vec![] },
        vec![0],
    )
}

/// Abstract interpreter over block ownership. Steps across ranks are
/// interleaved by data dependency: a rank's step-`k` receives must match
/// blocks the sender held when it posted them (we check sends against the
/// sender's held set at its own step entry, which is conservative for
/// these BSP-shaped schedules).
fn validate_propagation(
    schedules: &[Schedule],
    p: u32,
    init: impl Fn(u32) -> Vec<u32>,
    must_end_with: Vec<u32>,
) -> Result<(), String> {
    use std::collections::HashSet;
    let mut held: Vec<HashSet<u32>> = (0..p).map(|r| init(r).into_iter().collect()).collect();
    let mut cursor = vec![0usize; p as usize];
    // Steps whose sends have been posted (sends precede blocking receives).
    let mut sends_posted = vec![0usize; p as usize];
    let mut sent: Vec<Vec<&SendOp>> = vec![Vec::new(); p as usize];
    // Iterate to fixpoint: a rank posts its current step's sends as soon
    // as it enters the step, and advances when all the step's receives
    // are satisfiable from already-posted matching sends.
    let mut progress = true;
    while progress {
        progress = false;
        for r in 0..p as usize {
            let sched = &schedules[r];
            if cursor[r] >= sched.steps.len() {
                continue;
            }
            let step = &sched.steps[cursor[r]];
            if sends_posted[r] == cursor[r] {
                for s in &step.sends {
                    for b in &s.blocks {
                        if !held[r].contains(b) {
                            return Err(format!(
                                "rank {r} step {} sends block {b} it does not hold",
                                cursor[r]
                            ));
                        }
                    }
                    sent[r].push(s);
                }
                sends_posted[r] = cursor[r] + 1;
                progress = true;
            }
            let all_recv_ok = step.recvs.iter().all(|recv| {
                let needed: HashSet<u32> = recv.blocks.iter().copied().collect();
                let available: HashSet<u32> = sent[recv.src.idx()]
                    .iter()
                    .filter(|s| s.dst.0 as usize == r)
                    .flat_map(|s| s.blocks.iter().copied())
                    .collect();
                needed.is_subset(&available)
            });
            if all_recv_ok {
                for recv in &step.recvs {
                    held[r].extend(recv.blocks.iter().copied());
                }
                cursor[r] += 1;
                progress = true;
            }
        }
    }
    for r in 0..p as usize {
        if cursor[r] < schedules[r].steps.len() {
            return Err(format!("rank {r} deadlocked at step {}", cursor[r]));
        }
        for b in &must_end_with {
            if !held[r].contains(b) {
                return Err(format!("rank {r} never received block {b}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allgather_semantics_and_volume() {
        for p in [2u32, 3, 5, 8, 17] {
            let s = ring_allgather(p, 1000);
            validate_allgather(&s, p).unwrap();
            for r in &s {
                assert_eq!(r.total_send_bytes(), 1000 * (p as usize - 1));
                assert_eq!(r.total_recv_bytes(), 1000 * (p as usize - 1));
            }
        }
    }

    #[test]
    fn binomial_broadcast_semantics() {
        for p in [2u32, 3, 8, 13, 188] {
            for root in [0u32, 1, p - 1] {
                let s = knomial_broadcast(p, Rank(root), 100, 2);
                validate_broadcast(&s, p, Rank(root)).unwrap();
            }
        }
    }

    #[test]
    fn knomial_broadcast_semantics() {
        for p in [2u32, 5, 27, 64, 188] {
            for k in [2u32, 3, 4, 8] {
                let s = knomial_broadcast(p, Rank(0), 100, k);
                validate_broadcast(&s, p, Rank(0)).unwrap();
            }
        }
    }

    #[test]
    fn binary_tree_broadcast_semantics() {
        for p in [2u32, 3, 7, 10, 188] {
            let s = binary_tree_broadcast(p, Rank(2 % p), 100);
            validate_broadcast(&s, p, Rank(2 % p)).unwrap();
        }
    }

    #[test]
    fn knomial_root_fanout() {
        // k-nomial root sends (k-1) messages per round, log_k(p) rounds.
        let s = knomial_broadcast(27, Rank(0), 100, 3);
        let root_sends: usize = s[0].steps.iter().map(|st| st.sends.len()).sum();
        assert_eq!(root_sends, 6, "3 rounds x 2 children");
        // Binomial root on 188: ceil(log2 188) = 8 sends.
        let s = knomial_broadcast(188, Rank(0), 100, 2);
        let root_sends: usize = s[0].steps.iter().map(|st| st.sends.len()).sum();
        assert_eq!(root_sends, 8);
    }

    #[test]
    fn ring_reduce_scatter_volume() {
        let p = 8u32;
        let s = ring_reduce_scatter(p, 4096);
        for r in &s {
            assert_eq!(r.total_send_bytes(), 4096 * 7);
            assert_eq!(r.total_recv_bytes(), 4096 * 7);
            assert_eq!(r.steps.len(), 7);
        }
    }

    #[test]
    fn pipelined_chain_semantics_and_volume() {
        for p in [2u32, 5, 16] {
            for root in [0u32, 2 % p] {
                let s = pipelined_chain_broadcast(p, Rank(root), 10_000, 1024);
                validate_broadcast(&s, p, Rank(root)).unwrap();
                // Interior ranks forward exactly N; the tail sends 0.
                for (r, sched) in s.iter().enumerate() {
                    let v = (r as u32 + p - root) % p;
                    let sent = sched.total_send_bytes();
                    if v + 1 < p {
                        assert_eq!(sent, 10_000, "rank {r}");
                    } else {
                        assert_eq!(sent, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_semantics_and_volume() {
        for p in [2u32, 4, 5, 7, 16] {
            for root in [0u32, p - 1] {
                let n = 9973usize; // awkward size: uneven blocks
                let s = scatter_allgather_broadcast(p, Rank(root), n);
                validate_bcast_blocks(&s, p, Rank(root), p).unwrap();
                // Total receive volume per non-root rank:
                // scatter part + ring part ~ 2N(P-1)/P-ish; every rank
                // must at least receive the blocks it lacks.
                for (r, sched) in s.iter().enumerate() {
                    if r as u32 == root {
                        continue;
                    }
                    assert!(sched.total_recv_bytes() >= n - n / p as usize);
                }
            }
        }
    }

    #[test]
    fn broadcast_leaf_has_single_recv_step() {
        let s = knomial_broadcast(8, Rank(0), 64, 2);
        // Rank 7 (virtual 7) is a leaf of the binomial tree.
        let leaf = &s[7];
        assert_eq!(leaf.steps.len(), 1);
        assert!(leaf.steps[0].sends.is_empty());
        assert_eq!(leaf.steps[0].recvs.len(), 1);
    }
}
