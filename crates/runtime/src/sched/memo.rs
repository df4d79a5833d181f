//! **Replay** — the batch-outcome memo between formation and merge: a
//! batch whose shape this runtime has already simulated gets the stored
//! [`BatchOutcome`] back instead of a fresh fabric run.
//!
//! [`simulate_batch`] is a pure function of its `BatchSim`, and within
//! one [`Runtime`] a `BatchSim` is a function of the [`BatchKey`] alone:
//! `form_batch` varies the partition (the partition's batch fabric) and
//! each slot's kind, Broadcast root and message length; every other field copies `Runtime` state that never
//! changes after `new`. The FSDP pipeline the paper targets issues the
//! same per-layer collectives every step, so an open-loop run below its
//! saturation knee sees a few dozen shapes thousands of times. Three rules keep the replay exact and its memory
//! bounded:
//!
//! 1. **Seed-free or bypass.** The one per-batch input outside the key
//!    is `fabric.seed = base + index`. It matters only when
//!    [`FabricConfig::uses_rng`] — random corruption, the fabric's one
//!    RNG draw — and a runtime configured that way simulates every
//!    batch. The choice is read off the configuration; there is no
//!    switch.
//! 2. **Admit on the second sighting.** A shape's first miss stores its
//!    64-bit fingerprint and nothing else; the second stores the key and
//!    the outcome. A stream that never repeats (an overloaded engine
//!    forming 7-job batches) therefore parks ≈ 17 B a batch, not an
//!    outcome it will never replay. A hit compares the full key, so two
//!    shapes sharing a fingerprint cost the later one its cache entry,
//!    never a wrong answer. Nothing is evicted: memory is O(recurring
//!    shapes), well under what the job records already cost.
//! 3. **Debug builds prove every hit.** Under `debug_assertions` a
//!    replayed batch is simulated anyway, from its own `BatchSim` (its
//!    own seed), and must equal the stored outcome, trace included — so
//!    `cargo test` checks key completeness and seed independence on
//!    every hit of every runtime test. Release builds trust it.
//!
//! The memo is consulted and filled on the coordinating thread in
//! formation order; only the misses fan out over the executor. Hits,
//! misses and every report byte are therefore the same at any `jobs`.
//!
//! [`FabricConfig::uses_rng`]: mcag_simnet::FabricConfig::uses_rng

use super::form::FormedBatch;
use super::sim::{simulate_batch, BatchOutcome};
use super::Runtime;
use crate::job::JobKind;
use mcag_exec::par_map;
use mcag_simnet::hash::{FastMap, MulShift};
use std::hash::{Hash, Hasher};

/// Everything `form_batch` varies between two batches of one runtime.
/// Slot order matters: slot `i` owns collective ids `2i + 1` / `2i + 2`
/// and its QPs' worker affinity derives from `i`. Built only to be
/// stored: a lookup fingerprints and compares the formed batch itself.
#[derive(Debug, PartialEq, Eq)]
struct BatchKey {
    partition: u32,
    /// Per slot: the kind (with a Broadcast's root) and `send_len`.
    slots: Vec<(JobKind, usize)>,
}

/// A formed batch's slots as key entries.
fn slots_of(fb: &FormedBatch) -> impl ExactSizeIterator<Item = (JobKind, usize)> + '_ {
    fb.picked
        .iter()
        .map(|job| (job.spec.kind, job.spec.send_len))
}

/// The fingerprint of a batch shape under the fixed multiply-shift hash
/// of `mcag_simnet::hash`, so fingerprints (and with them hit counts)
/// are the same in every process.
fn fingerprint(partition: u32, slots: impl ExactSizeIterator<Item = (JobKind, usize)>) -> u64 {
    let mut h = MulShift::default();
    partition.hash(&mut h);
    slots.len().hash(&mut h);
    for slot in slots {
        slot.hash(&mut h);
    }
    h.finish()
}

impl BatchKey {
    fn of(fb: &FormedBatch) -> BatchKey {
        BatchKey {
            partition: fb.partition,
            slots: slots_of(fb).collect(),
        }
    }

    /// Is `fb` of this shape?
    fn matches(&self, fb: &FormedBatch) -> bool {
        self.partition == fb.partition && self.slots.iter().copied().eq(slots_of(fb))
    }
}

/// Host-side replay counters of one [`Runtime`] (see
/// [`Runtime::memo_stats`]): identical at any worker count, but not
/// part of [`RuntimeReport`](crate::stats::RuntimeReport) or any digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Batches answered from a stored outcome.
    pub hits: u64,
    /// Batches simulated — every batch, on a runtime whose fabric draws
    /// random numbers.
    pub misses: u64,
    /// Shapes seen at least twice, whose outcome is stored.
    pub cached: usize,
    /// Distinct shape fingerprints seen.
    pub seen: usize,
}

/// The memo proper: shape fingerprint → `None` after one sighting, the
/// key and its outcome after two.
#[derive(Default)]
pub(super) struct BatchMemo {
    shapes: FastMap<u64, Option<Box<(BatchKey, BatchOutcome)>>>,
    hits: u64,
    misses: u64,
    /// One launch's lookups, kept between launches for its buffer.
    looked_up: Vec<Option<BatchOutcome>>,
}

impl BatchMemo {
    /// The stored outcome of `fb`'s shape — a copy that shares its
    /// per-slot results and trace with the stored one.
    fn get(&mut self, fb: &FormedBatch) -> Option<BatchOutcome> {
        let fp = fingerprint(fb.partition, slots_of(fb));
        let (stored, outcome) = &**self.shapes.get(&fp)?.as_ref()?;
        if !stored.matches(fb) {
            return None;
        }
        self.hits += 1;
        Some(outcome.clone())
    }

    /// Record a miss: the second sighting of a shape keeps `outcome`.
    fn admit(&mut self, fb: &FormedBatch, outcome: &BatchOutcome) {
        self.misses += 1;
        self.shapes
            .entry(fingerprint(fb.partition, slots_of(fb)))
            .and_modify(|entry| {
                // An entry that is already `Some` was filled earlier in
                // this launch, or by a colliding shape: it stays.
                entry.get_or_insert_with(|| Box::new((BatchKey::of(fb), outcome.clone())));
            })
            .or_insert(None);
    }
}

impl Runtime {
    /// Outcomes of `formed`, in order, appended to `out`: replayed where
    /// the shape has recurred, simulated on up to `jobs` workers
    /// otherwise. The only way the runtime runs a batch.
    ///
    /// Every batch is looked up before any is admitted, so a shape
    /// formed twice in one launch misses twice, at any `jobs`.
    pub(super) fn simulate(
        &mut self,
        jobs: usize,
        formed: &[FormedBatch],
        out: &mut Vec<BatchOutcome>,
    ) {
        let run = |fb: &FormedBatch| simulate_batch(&fb.sim);
        if self.cfg.fabric.uses_rng() {
            self.memo.misses += formed.len() as u64;
            out.extend(par_map(jobs, formed, run));
            return;
        }
        let mut looked_up = std::mem::take(&mut self.memo.looked_up);
        looked_up.extend(formed.iter().map(|fb| self.memo.get(fb)));
        // Misses run — and, in debug builds, hits run again to be
        // checked against what was stored.
        let to_run: Vec<&FormedBatch> = formed
            .iter()
            .zip(&looked_up)
            .filter(|(_, hit)| hit.is_none() || cfg!(debug_assertions))
            .map(|(fb, _)| fb)
            .collect();
        let mut fresh = par_map(jobs, &to_run, |fb| run(fb)).into_iter();
        let mut next_fresh = || fresh.next().expect("one simulation per batch that asked");
        for (fb, hit) in formed.iter().zip(looked_up.drain(..)) {
            out.push(match hit {
                Some(stored) => {
                    if cfg!(debug_assertions) {
                        assert!(
                            next_fresh() == stored,
                            "replayed outcome differs from a fresh simulation of {:?}: \
                             simulate_batch read something outside BatchKey",
                            BatchKey::of(fb)
                        );
                    }
                    stored
                }
                None => {
                    let outcome = next_fresh();
                    self.memo.admit(fb, &outcome);
                    outcome
                }
            });
        }
        self.memo.looked_up = looked_up;
    }

    /// How often this runtime replayed a batch instead of simulating it.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo.hits,
            misses: self.memo.misses,
            cached: self.memo.shapes.values().flatten().count(),
            seen: self.memo.shapes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{merge_arrivals, nccl_style_trace, OpMix, RateProcess, Workload};
    use crate::job::TenantId;
    use crate::pool::PoolConfig;
    use crate::sched::tests::flapping;
    use crate::sched::RuntimeConfig;
    use crate::stats::RuntimeReport;
    use mcag_simnet::{DropModel, LinkSchedule, Topology};
    use mcag_trace::TraceSpec;
    use mcag_verbs::{LinkRate, Rank};

    const KIB: usize = 1 << 10;

    fn star() -> Topology {
        Topology::single_switch(4, LinkRate::CX3_56G, 100)
    }

    fn runtime(cfg: RuntimeConfig, tenants: usize) -> (Runtime, Vec<TenantId>) {
        let mut rt = Runtime::new(star(), cfg);
        let ids = (0..tenants)
            .map(|i| rt.register_tenant(&format!("t{i}")))
            .collect();
        (rt, ids)
    }

    /// `n` arrivals about 25 µs apart over six tenants, each drawn from
    /// four kinds and two sizes: eight job shapes, so batch shapes recur.
    fn mixed_stream(rt: &mut Runtime, tenants: &[TenantId], n: usize) {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move |m: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };
        let kinds = [
            JobKind::Allgather,
            JobKind::Broadcast { root: Rank(0) },
            JobKind::Broadcast { root: Rank(1) },
            JobKind::AgRs,
        ];
        let mut at_ns = 0;
        for _ in 0..n {
            at_ns += 1 + draw(50_000);
            let tenant = tenants[draw(tenants.len() as u64) as usize];
            let kind = kinds[draw(4) as usize];
            rt.submit_at(at_ns, tenant, kind, (8 * KIB) << draw(2));
        }
    }

    #[test]
    fn memo_replays_what_a_fresh_simulation_returns() {
        // The release-build twin of the debug cross-check: drive the
        // open-loop engine turn by turn and hold every outcome it is
        // about to merge — replayed or not — to a fresh simulation of
        // the same batch.
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(24),
            max_inflight: 3,
            partitions: 2,
            partition_faults: vec![flapping(), LinkSchedule::empty()],
            trace: Some(TraceSpec::default()),
            ..RuntimeConfig::default()
        };
        let (mut rt, tenants) = runtime(cfg, 6);
        mixed_stream(&mut rt, &tenants, 600);
        let mut checked = 0u64;
        loop {
            rt.launch_due(2);
            for infl in rt.inflight.iter().filter(|b| b.formed.index >= checked) {
                assert!(
                    infl.outcome == simulate_batch(&infl.formed.sim),
                    "batch {} merged an outcome its own simulation does not give",
                    infl.formed.index
                );
            }
            checked = rt.formed;
            if !rt.advance_clock() {
                break;
            }
        }
        let report = rt.report();
        assert_eq!(report.completed_jobs(), 600);
        assert_eq!(report.batches, checked);
        assert!(
            report.partitions[0].fault_drops > 0,
            "flaps must cost drops"
        );
        assert_eq!(report.partitions[1].fault_drops, 0);
        let stats = rt.memo_stats();
        assert_eq!(stats.hits + stats.misses, report.batches);
        assert!(
            stats.hits > report.batches / 2,
            "{stats:?} over {} batches",
            report.batches
        );
        assert!(rt.take_trace().is_some_and(|t| !t.fabric.is_empty()));
    }

    /// Run `shape` (one job per listed tenant) as the next batch, three
    /// times over; what the third — replayed — batch reported: fabric
    /// time, bytes moved, and each job's finish offset from dispatch.
    fn replayed(rt: &mut Runtime, shape: &[(TenantId, JobKind, usize)]) -> (u64, u64, Vec<u64>) {
        let mut last = None;
        for _ in 0..3 {
            for &(tenant, kind, send_len) in shape {
                rt.submit(tenant, kind, send_len).unwrap();
            }
            let (moved, jobs) = (rt.moved_bytes, rt.records.len());
            rt.launch_due(1);
            let [batch] = &rt.inflight[..] else {
                panic!("the shape is one batch");
            };
            assert_eq!(batch.formed.picked.len(), shape.len());
            let batch_ns = batch.outcome.batch_ns;
            let dispatch_ns = batch.formed.started_ns + batch.formed.setup_ns;
            assert!(rt.advance_clock(), "the batch commits");
            let offsets = rt.records[jobs..]
                .iter()
                .map(|rec| rec.finished_ns - dispatch_ns)
                .collect();
            last = Some((batch_ns, rt.moved_bytes - moved, offsets));
        }
        last.unwrap()
    }

    #[test]
    fn key_tells_slot_order_root_and_size_apart() {
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            ..RuntimeConfig::default()
        };
        let (mut rt, t) = runtime(cfg, 2);
        let (ag, agrs) = (JobKind::Allgather, JobKind::AgRs);
        let bcast = |root| JobKind::Broadcast { root: Rank(root) };
        // 64 KiB for the order pair: at 8 KiB the Reduce-Scatter half
        // ends inside the Allgather's sync phase and both orders finish
        // their slots at the same instants.
        let pairs = [
            (
                replayed(&mut rt, &[(t[0], ag, 64 * KIB), (t[1], agrs, 64 * KIB)]),
                replayed(&mut rt, &[(t[0], agrs, 64 * KIB), (t[1], ag, 64 * KIB)]),
            ),
            (
                replayed(&mut rt, &[(t[0], bcast(0), 8 * KIB), (t[1], ag, 8 * KIB)]),
                replayed(&mut rt, &[(t[0], bcast(1), 8 * KIB), (t[1], ag, 8 * KIB)]),
            ),
            (
                replayed(&mut rt, &[(t[0], ag, 8 * KIB)]),
                replayed(&mut rt, &[(t[0], ag, 16 * KIB)]),
            ),
        ];
        for (this, that) in &pairs {
            assert_ne!(this, that, "two shapes, one outcome");
        }
        // Slot order permutes the per-slot completions; a root or a size
        // moves the batch as a whole.
        assert_ne!(pairs[0].0 .2, pairs[0].1 .2);
        for (this, that) in &pairs[1..] {
            assert_ne!((this.0, this.1), (that.0, that.1));
        }
        // Six shapes, each run three times: seen, admitted, replayed.
        assert_eq!(
            rt.memo_stats(),
            MemoStats {
                hits: 6,
                misses: 12,
                cached: 6,
                seen: 6,
            }
        );
    }

    #[test]
    fn key_tells_a_damaged_partition_from_a_healthy_one() {
        // Two tenants arrive together, one job a batch: the same shape
        // lands on partition 0 (flapping) and partition 1 (healthy).
        let cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(8),
            max_inflight: 1,
            partitions: 2,
            partition_faults: vec![flapping(), LinkSchedule::empty()],
            ..RuntimeConfig::default()
        };
        let (mut rt, t) = runtime(cfg, 2);
        for round in 0..3u64 {
            for &tenant in &t {
                rt.submit_at(round * 5_000_000, tenant, JobKind::Allgather, 32 * KIB);
            }
        }
        let report = rt.run_open_loop();
        assert_eq!(report.completed_jobs(), 6);
        let stats = rt.memo_stats();
        assert_eq!((stats.cached, stats.seen, stats.hits), (2, 2, 2));
        let on = |p: u32| report.jobs.iter().rfind(|j| j.partition == p).unwrap();
        assert!(report.partitions[0].fault_drops > 0);
        assert_ne!(
            on(0).finished_ns - on(0).started_ns,
            on(1).finished_ns - on(1).started_ns,
            "the damaged partition's replayed batch took the healthy one's time"
        );
    }

    /// 200 mixed arrivals on two partitions at `jobs` workers.
    fn mixed_run(drops: DropModel, seed: u64, jobs: usize) -> (RuntimeReport, MemoStats) {
        let mut cfg = RuntimeConfig {
            pool: PoolConfig::with_capacity(24),
            max_inflight: 3,
            partitions: 2,
            ..RuntimeConfig::default()
        };
        cfg.fabric.drops = drops;
        cfg.fabric.seed = seed;
        let (mut rt, tenants) = runtime(cfg, 6);
        mixed_stream(&mut rt, &tenants, 200);
        (rt.run_open_loop_jobs(jobs), rt.memo_stats())
    }

    #[test]
    fn a_fabric_that_draws_random_numbers_bypasses_the_memo() {
        let lossy = || DropModel::uniform(0.002);
        let (report, stats) = mixed_run(lossy(), 1, 1);
        assert_eq!(report.completed_jobs(), 200);
        assert_eq!((stats.hits, stats.cached, stats.seen), (0, 0, 0));
        assert_eq!(stats.misses, report.batches);
        let (wave, wave_stats) = mixed_run(lossy(), 1, 4);
        assert_eq!(format!("{report:?}"), format!("{wave:?}"));
        assert_eq!(stats, wave_stats);
        // The per-batch seed is live here: replaying would be wrong.
        assert_ne!(report, mixed_run(lossy(), 2, 1).0);

        // The lossless twin replays, and there the seed changes nothing.
        let (lossless, stats) = mixed_run(DropModel::none(), 1, 1);
        assert!(stats.hits > 0, "{stats:?}");
        assert_eq!(lossless, mixed_run(DropModel::none(), 2, 1).0);
    }

    #[test]
    fn a_shape_is_admitted_on_its_second_sighting() {
        let cfg = || RuntimeConfig {
            pool: PoolConfig::with_capacity(4),
            ..RuntimeConfig::default()
        };
        // Every batch a new shape: fingerprints only, no outcome kept.
        let (mut rt, t) = runtime(cfg(), 1);
        for i in 0..40u64 {
            rt.submit_at(
                i * 1_000_000,
                t[0],
                JobKind::Allgather,
                (i as usize + 1) * KIB,
            );
        }
        assert_eq!(rt.run_open_loop().completed_jobs(), 40);
        assert_eq!(
            rt.memo_stats(),
            MemoStats {
                hits: 0,
                misses: 40,
                cached: 0,
                seen: 40,
            }
        );
        // One shape a hundred times: two simulations, 98 replays.
        let (mut rt, t) = runtime(cfg(), 1);
        for i in 0..100u64 {
            rt.submit_at(i * 1_000_000, t[0], JobKind::Allgather, 16 * KIB);
        }
        assert_eq!(rt.run_open_loop().completed_jobs(), 100);
        assert_eq!(
            rt.memo_stats(),
            MemoStats {
                hits: 98,
                misses: 2,
                cached: 1,
                seen: 1,
            }
        );
    }

    #[test]
    fn memo_stats_do_not_depend_on_the_worker_count() {
        // The open-loop golden of `tests/runtime_openloop.rs`.
        let run = |jobs: usize| {
            let mix = OpMix {
                allgather_weight: 2,
                broadcast_weight: 1,
                agrs_weight: 1,
                min_send_len: 8 << 10,
                max_send_len: 32 << 10,
                ranks: 4,
            };
            let poisson = Workload {
                tenants: 8,
                horizon_ns: 4_000_000,
                rate: RateProcess::Poisson {
                    mean_interarrival_ns: 60_000,
                },
                mix,
                seed: 11,
            }
            .generate();
            let cfg = RuntimeConfig {
                pool: PoolConfig::with_capacity(24),
                max_inflight: 4,
                partitions: 2,
                ..RuntimeConfig::default()
            };
            let (mut rt, _) = runtime(cfg, 8);
            rt.load_arrivals(&merge_arrivals(&[
                poisson,
                nccl_style_trace(4, mix, 120_000),
            ]));
            let report = rt.run_open_loop_jobs(jobs);
            (report, rt.memo_stats())
        };
        let (serial, serial_stats) = run(1);
        let (wave, wave_stats) = run(4);
        assert_eq!(serial, wave);
        assert_eq!(serial_stats, wave_stats);
        assert_eq!(serial_stats.hits + serial_stats.misses, serial.batches);
        assert!(serial_stats.hits > 0, "{serial_stats:?}");
    }
}
