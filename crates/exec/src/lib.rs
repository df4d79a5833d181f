//! # mcag-exec — deterministic fork-join execution for simulation sweeps
//!
//! Figure sweeps, ablations, and runtime batch waves are embarrassingly
//! parallel: every job is a self-contained `Send` simulation (the
//! owned-sink refactor of the protocol stack made `Fabric` + apps
//! `Send`), and no job depends on another's output. [`par_map`] runs
//! such jobs across a bounded pool of scoped worker threads while
//! keeping the *results* byte-identical to a serial run:
//!
//! * **Slot-ordered outputs.** Workers claim job indices from one atomic
//!   counter, but every output lands in its input's slot. The returned
//!   `Vec` is `[f(&jobs[0]), f(&jobs[1]), …]` regardless of worker count
//!   or OS scheduling.
//! * **Per-job determinism is the job's problem — and it already holds.**
//!   Each simulation owns its fabric, RNG (seeded from its own config),
//!   and result sinks; nothing is shared, so `f(&job)` is a pure
//!   function of the job description.
//! * **`jobs = 1` bypasses threads entirely**: a plain serial `map`, no
//!   spawn, no atomics — the golden path determinism tests compare
//!   against.
//!
//! [`par_map_ordered`] adds **largest-first claim order** for sweeps
//! with per-job cost skew (a timed-out fault seed costs orders of
//! magnitude more than a clean one): heavy jobs claimed first overlap
//! the cheap bulk instead of stranding a worker at the tail. Both run
//! one claim loop and differ only in the order jobs are claimed;
//! outputs are slot-ordered either way. Parallel sweeps change *when* a
//! job runs, never *what* it computes. Nothing here reads a clock:
//! host timing belongs to the benchmark in `benchmark/`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count to use when the caller does not specify one: the host's
/// available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` using up to `jobs` worker threads, returning
/// outputs in input order.
///
/// Workers claim items in input order from an atomic index and each
/// output lands in its input's slot, so the result is **byte-identical
/// to the serial run** (`jobs = 1`) for any worker count — the
/// determinism contract the golden tests in
/// `tests/parallel_determinism.rs` pin down. With `jobs <= 1` (or fewer
/// than two items) this is a plain serial map: no thread, no allocation
/// beyond the output.
///
/// Panics in `f` are propagated to the caller after all workers have
/// stopped claiming new items.
pub fn par_map<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    claim_loop(workers, items, |k| k, &f)
}

/// [`par_map`] with **largest-first claim order**: workers claim jobs
/// in descending `weight` (ties broken by input index, so the order is
/// total and deterministic) while outputs still land slot-ordered by
/// input index.
///
/// Use this when per-job cost skews — a handful of expensive jobs
/// claimed last would each strand a worker at the tail of the sweep;
/// claimed first, they overlap with the cheap bulk. The *results* stay
/// byte-identical to `par_map` (and to `jobs = 1`) for any worker
/// count. With `jobs <= 1` the calling thread runs the jobs in claim
/// order.
pub fn par_map_ordered<I, O, F, W>(jobs: usize, items: &[I], weight: W, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    W: Fn(usize, &I) -> u64,
{
    // Claim order: heaviest first, input index as the deterministic
    // tie-break.
    let mut order: Vec<usize> = (0..items.len()).collect();
    // Cached key: `weight` is a caller closure of unknown cost — run it
    // exactly once per item, not once per comparison.
    order.sort_by_cached_key(|&i| (std::cmp::Reverse(weight(i, &items[i])), i));
    let workers = jobs.max(1).min(items.len());
    claim_loop(workers, items, |k| order[k], &f)
}

/// The claim loop both maps share: `workers` scoped threads (just the
/// calling thread when `workers <= 1`) take claim numbers `k` from one
/// atomic counter and run `f` on item `claim(k)`; every output lands in
/// its item's slot.
fn claim_loop<I, O, F>(
    workers: usize,
    items: &[I],
    claim: impl Fn(usize) -> usize + Sync,
    f: &F,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = items.len();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let i = claim(k);
            local.push((i, f(&items[i])));
        }
        local
    };
    let parts: Vec<Vec<(usize, O)>> = if workers <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };

    // Slot-ordered assembly: output i is f(&items[i]) no matter which
    // worker computed it or when.
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, o) in parts.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "slot {i} claimed twice");
        out[i] = Some(o);
    }
    out.into_iter()
        .map(|o| o.expect("claimed slot never filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn outputs_are_slot_ordered() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |&x| x * x + 1);
        for jobs in [2, 3, 4, 16] {
            let par = par_map(jobs, &items, |&x| x * x + 1);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_work_does_not_reorder() {
        // Early items take far longer than late ones; outputs must still
        // land in input order.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(8, &items, |&i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_zero_behaves_like_serial() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(0, &items, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [1u32, 2];
        assert_eq!(par_map(64, &items, |&x| x), vec![1, 2]);
    }

    #[test]
    fn worker_panic_propagates() {
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(2, &items, |&i| {
                if i == 3 {
                    TRIPPED.store(true, Ordering::SeqCst);
                    panic!("job 3 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
        assert!(TRIPPED.load(Ordering::SeqCst));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn ordered_outputs_match_par_map_for_any_worker_count() {
        let items: Vec<u64> = (0..129).collect();
        let plain = par_map(1, &items, |&x| x * 3 + 1);
        for jobs in [1, 2, 4, 16] {
            let ordered = par_map_ordered(jobs, &items, |_, &x| x, |&x| x * 3 + 1);
            assert_eq!(ordered, plain, "jobs={jobs}");
        }
    }

    #[test]
    fn ordered_claims_heaviest_first() {
        use std::sync::Mutex;
        // Serial path: the execution order must be exactly weight-desc
        // with index tie-break, while outputs stay slot-ordered.
        let log = Mutex::new(Vec::new());
        let items = [10u64, 30, 20, 30, 5];
        let out = par_map_ordered(
            1,
            &items,
            |_, &w| w,
            |&w| {
                log.lock().unwrap().push(w);
                w
            },
        );
        assert_eq!(log.into_inner().unwrap(), vec![30, 30, 20, 10, 5]);
        assert_eq!(out, vec![10, 30, 20, 30, 5]);
    }

    #[test]
    fn ordered_empty_input() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_ordered(4, &empty, |_, &x| x as u64, |&x| x).is_empty());
    }

    #[test]
    fn job_closures_are_send_sync() {
        // The shape every sweep uses: a closure over plain config data.
        fn assert_sync<T: Sync>(_: &T) {}
        let cfg = (42u64, 1024usize);
        let f = |&(seed, len): &(u64, usize)| seed + len as u64;
        assert_sync(&f);
        assert_eq!(par_map(2, &[cfg], f), vec![1066]);
    }
}
