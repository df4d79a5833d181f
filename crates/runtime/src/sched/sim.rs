//! **Simulation** — the expensive, order-free phase of a batch's
//! lifecycle: run one formed batch on a fresh DES fabric to quiescence
//! and harvest per-slot completion times. Everything here is a pure
//! function of a self-contained [`BatchSim`], which is what lets formed
//! batches execute out of order (and concurrently, via `mcag-exec`)
//! while the runtime commits their results in virtual-time order.
//!
//! That purity is **relied on**, not just enjoyed: the batch-outcome
//! memo ([`super::memo`]) replays a stored [`BatchOutcome`] instead of
//! calling [`simulate_batch`] when a batch's shape recurs. Anything
//! `simulate_batch` reads must therefore be either part of the memo's
//! `BatchKey` (the partition — its batch fabric — and each slot's kind,
//! root and length: what `form_batch` varies) or constant for the lifetime of one `Runtime`
//! (every other `BatchSim` field). The one per-batch input outside the
//! key, `fabric.seed`, is read only when `FabricConfig::uses_rng()`, and
//! then the memo is bypassed. Debug builds re-simulate every replayed
//! batch and compare, so a field that breaks this rule fails tier-1.
//!
//! With the flight recorder on, this is also where a batch's packet
//! events are sorted — once, a few hundred at a time, on the batch's own
//! clock — into a shared [`TraceRun`]. A replay of the outcome shares
//! that run; `Runtime::take_trace` merges the committed runs.

use super::ReactivePolicy;
use crate::job::JobKind;
use mcag_core::des::RunBounds;
use mcag_core::multicomm::{self, Comm};
use mcag_core::{CollectivePlan, ProtocolConfig};
use mcag_simnet::{FabricConfig, SimTime, Topology};
use mcag_trace::TraceRun;
use mcag_verbs::Rank;
use std::sync::Arc;

/// Self-contained description of one batch's fabric simulation. `Send`,
/// so formed batches can run on the fork-join executor; everything the
/// run needs (topology, seeded fabric config, plans) is owned here.
pub(super) struct BatchSim {
    pub(super) topo: Arc<Topology>,
    pub(super) fabric: FabricConfig,
    pub(super) proto: ProtocolConfig,
    /// One communicator per batch slot: the job's collective
    /// (collective id `2i + 1`) and, for an AG+RS job, the in-network
    /// Reduce-Scatter half (collective id `2i + 2`).
    pub(super) comms: Vec<Comm>,
    /// Recovery cutoff, in multiples of the batch's summed per-job
    /// cutoffs: a batch still running past this is censored, not
    /// panicked ([`RuntimeConfig::watchdog_cutoffs`]).
    ///
    /// [`RuntimeConfig::watchdog_cutoffs`]:
    ///     super::RuntimeConfig::watchdog_cutoffs
    pub(super) watchdog_cutoffs: u64,
    /// Reactive SM recovery: diagnose dead switches mid-run and re-route
    /// multicast trees around them, every
    /// [`ReactivePolicy::SM_CHECK_CUTOFFS`] summed cutoffs. `false` on
    /// an oblivious runtime, which never sweeps.
    ///
    /// [`ReactivePolicy::SM_CHECK_CUTOFFS`]:
    ///     super::ReactivePolicy::SM_CHECK_CUTOFFS
    pub(super) sm_sweep: bool,
}

/// What one simulated batch produced (simulated-time results only; the
/// merge phase threads them onto the virtual service timeline).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct BatchOutcome {
    /// Fabric time from launch to quiescence — or to the recovery
    /// cutoff, when the batch timed out.
    pub(super) batch_ns: u64,
    /// Per-slot results, shared by every replay of the outcome.
    pub(super) slots: Arc<[SlotOutcome]>,
    /// True when the batch hit its recovery cutoff with work pending.
    pub(super) timed_out: bool,
    /// Payload bytes moved across fabric links (switch-counter view).
    pub(super) moved_bytes: u64,
    /// Packet copies lost to down links during the batch (0 on a
    /// healthy fabric).
    pub(super) fault_drops: u64,
    /// Link downtime accrued during the batch, summed over links (ns).
    pub(super) downtime_ns: u64,
    /// Multicast trees the SM re-routed around dead switches mid-run.
    pub(super) sm_rebuilds: u32,
    /// The batch fabric's harvested flight recorder, sorted on the
    /// batch's local clock (`take_trace` shifts it onto the virtual
    /// timeline). Shared, so replaying the outcome copies no events.
    pub(super) trace: Option<TraceRun>,
}

/// One batch slot's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct SlotOutcome {
    /// Completion on the fabric clock: the last rank's AG release or RS
    /// delivery, whichever is later. A censored slot carries the cutoff
    /// instant.
    pub(super) done_ns: u64,
    /// The slot never finished: some rank's collective was still open
    /// at the cutoff.
    pub(super) timed_out: bool,
}

/// Run one formed batch on a fresh fabric to quiescence and harvest
/// per-slot completion times from the apps' owned sinks. A pure function
/// of the [`BatchSim`] — no runtime state — so any number of batches can
/// execute concurrently without perturbing each other's results.
pub(super) fn simulate_batch(sim: &BatchSim) -> BatchOutcome {
    // Every rank hosts one slot per job in a `MultiCommApp`, which
    // routes by QP ownership and token namespace.
    //
    // Batch watchdog: every job's cutoff already upper-bounds its drain
    // (headroom includes the batch size), so a batch still running
    // orders of magnitude past the summed cutoffs is stuck — on a
    // healthy fabric that is a livelock, on a faulted one it is a
    // casualty. Either way the peek-based `run_until` stops cleanly at
    // the deadline and the batch is *censored*: reported with the
    // cutoff as its end time, never panicked, so the scheduler above
    // can retry or record the loss.
    let bounds = RunBounds {
        cutoff_headroom: sim.comms.len() as u64 + 1,
        watchdog_cutoffs: sim.watchdog_cutoffs,
    };
    let mut sm_rebuilds = 0u32;
    let out = multicomm::run_with(
        Arc::clone(&sim.topo),
        sim.fabric.clone(),
        &sim.proto,
        &sim.comms,
        bounds,
        |fab, total_cutoff, watchdog| {
            if !sim.sm_sweep || sim.fabric.faults.is_empty() {
                return fab.run_until(watchdog);
            }
            // Reactive SM sweep: run in slices; at each checkpoint
            // diagnose fully-dead switches from the fabric's live link
            // state and re-route any multicast tree that crosses one.
            // Checkpoint times are pure functions of the batch's cutoffs,
            // so recovery is as deterministic as the failure.
            let step = total_cutoff.saturating_mul(ReactivePolicy::SM_CHECK_CUTOFFS);
            let mut deadline = step.min(watchdog.as_ns());
            loop {
                let stats = fab.run_until(SimTime::from_ns(deadline));
                if stats.all_done() || deadline >= watchdog.as_ns() {
                    break stats;
                }
                let dead = fab.dead_switches();
                if !dead.is_empty() {
                    sm_rebuilds += fab.rebuild_groups_avoiding(&dead);
                }
                deadline = deadline.saturating_add(step).min(watchdog.as_ns());
            }
        },
    );
    let watchdog = out.deadline.as_ns();
    let timed_out = !out.stats.all_done();
    let (fault_drops, downtime_ns) = if sim.fabric.faults.is_empty() {
        (0, 0)
    } else {
        (
            out.traffic.total_fault_drops(),
            out.traffic.total_downtime_ns(),
        )
    };

    // Harvest the owned per-app sinks: per slot, the last rank's AG
    // release and RS delivery. A slot where any rank never finished is
    // censored at the watchdog instant.
    let slots = (0..sim.comms.len())
        .map(|i| {
            let mut slot_out = SlotOutcome {
                done_ns: 0,
                timed_out: false,
            };
            for rank_slots in out.rank_slots() {
                let slot = &rank_slots[i];
                let ag_done = slot.ag.timing().t_done;
                let done = match &slot.rs {
                    None => ag_done,
                    Some(rs) => ag_done.zip(rs.times()).map(|(ag, (_, rs))| ag.max(rs)),
                };
                match done {
                    Some(t) => slot_out.done_ns = slot_out.done_ns.max(t.as_ns()),
                    None => slot_out.timed_out = true,
                }
            }
            if slot_out.timed_out {
                slot_out.done_ns = watchdog;
            }
            slot_out
        })
        .collect();
    BatchOutcome {
        batch_ns: if timed_out {
            watchdog
        } else {
            out.stats.end_time.as_ns()
        },
        slots,
        timed_out,
        moved_bytes: out.traffic.total_data_bytes(),
        fault_drops,
        downtime_ns,
        sm_rebuilds,
        trace: out.trace.map(TraceRun::from),
    }
}

/// Payload bytes delivered to hosts by one job.
pub(super) fn delivered_bytes(kind: JobKind, plan: &CollectivePlan) -> u64 {
    let ag: u64 = (0..plan.num_ranks())
        .map(|r| plan.expected_psn_bytes(Rank(r)))
        .sum();
    // Each rank additionally receives its reduced shard (N bytes).
    let rs = match kind {
        JobKind::AgRs => plan.send_len() as u64 * plan.num_ranks() as u64,
        _ => 0,
    };
    ag + rs
}
