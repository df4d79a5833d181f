//! # mcag-faults — seeded fault-injection plans for the DES fabric
//!
//! The paper's offload assumes a healthy fabric; at production scale,
//! link degradation and port flaps dominate collective slowdowns (the
//! regime of "Don't Let a Few Network Failures Slow the Entire
//! AllReduce"). This crate describes such failures as data: a
//! [`FaultPlan`] is a seed plus a list of composable [`FaultModel`]s,
//! and [`FaultPlan::compile`] lowers it — deterministically — onto a
//! concrete topology as a `mcag-simnet` [`LinkSchedule`] of timed
//! link-state transitions that the fabric replays, in order, from a
//! cursor beside its event queue.
//!
//! ## Models
//!
//! * [`FaultModel::DegradedLink`] — a fraction of *directed* links run
//!   below line rate for a window (bandwidth asymmetry: one direction of
//!   a cable can degrade alone, as after FEC retraining or a lane
//!   downgrade, e.g. 100G→25G).
//! * [`FaultModel::FlappingPort`] — a fraction of *ports* (both
//!   directions of a cable) cycle up/down with a fixed period and down
//!   duty until the flap window ends.
//! * [`FaultModel::SwitchFailure`] — whole switches go dark (every
//!   attached link down, both directions) and recover after a fixed
//!   outage.
//!
//! ## Determinism contract
//!
//! Compilation draws every random choice (which links, which switches)
//! from one `StdRng` seeded with [`FaultPlan::seed`], consumed in model
//! order; the resulting schedule is a pure function of
//! `(seed, models, topology)`. Replays are therefore bit-identical
//! across runs, hosts, and sweep worker counts — the property the
//! golden tests in `tests/fault_determinism.rs` pin down.

#![warn(missing_docs)]

use mcag_simnet::linkstate::{LinkSchedule, LinkStateEvent};
use mcag_simnet::topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One composable failure process. See the crate docs for the physical
/// interpretation of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultModel {
    /// A random `fraction` of directed links serialize at
    /// `bw_num / bw_den` of line rate during `[start_ns, start_ns +
    /// duration_ns)`.
    DegradedLink {
        /// Fraction of directed links affected, in `[0, 1]`.
        fraction: f64,
        /// Effective-bandwidth multiplier numerator (`1/4` = 100G→25G).
        bw_num: u32,
        /// Effective-bandwidth multiplier denominator.
        bw_den: u32,
        /// Window start (simulated ns).
        start_ns: u64,
        /// Window length (simulated ns).
        duration_ns: u64,
    },
    /// A random `fraction` of ports (a port = both directions of a
    /// cable) flap: down for `down_ns` at the head of every `period_ns`
    /// cycle, from `start_ns` until `end_ns`.
    ///
    /// Its transitions are emitted in time order — cycle by cycle, each
    /// instant's victim links in id order, a cycle's ups before the next
    /// cycle's downs — so a flap-only plan compiles without a sort
    /// ([`LinkSchedule::new`] takes sorted input as it is). Every model
    /// keeps this contract; only a plan of several models is sorted.
    FlappingPort {
        /// Fraction of ports affected, in `[0, 1]`.
        fraction: f64,
        /// Flap cycle length (simulated ns); must exceed `down_ns`.
        period_ns: u64,
        /// Down time at the head of each cycle (simulated ns).
        down_ns: u64,
        /// First cycle start (simulated ns).
        start_ns: u64,
        /// No cycle starts at or after this instant.
        end_ns: u64,
    },
    /// `switches` random switches lose every attached link (both
    /// directions) during `[start_ns, start_ns + downtime_ns)`.
    SwitchFailure {
        /// Number of switches taken down.
        switches: u32,
        /// Outage start (simulated ns).
        start_ns: u64,
        /// Outage length (simulated ns).
        downtime_ns: u64,
    },
}

/// A seeded, composable fault-injection plan: the description half of
/// fault injection (the `mcag-simnet` fabric owns enforcement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    models: Vec<FaultModel>,
}

impl FaultPlan {
    /// An empty plan drawing all randomness from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            models: Vec::new(),
        }
    }

    /// Append a model (builder style). Model order matters: random
    /// choices are drawn sequentially, and same-instant transitions of
    /// one link resolve later-model-wins.
    pub fn with(mut self, model: FaultModel) -> FaultPlan {
        self.models.push(model);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The composed models, in application order.
    pub fn models(&self) -> &[FaultModel] {
        &self.models
    }

    /// Lower the plan onto `topo`: draw the affected links/switches from
    /// the seeded RNG and emit the full transition timeline, each model's
    /// transitions in `(at_ns, link)` order. Pure in
    /// `(seed, models, topo)`.
    pub fn compile(&self, topo: &Topology) -> LinkSchedule {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        for m in &self.models {
            emit(m, topo, &mut rng, &mut events);
        }
        LinkSchedule::new(events)
    }
}

/// `ceil(fraction * n)` clamped to `[0, n]`; the "how many victims"
/// rule shared by the link- and port-fraction models.
fn fraction_count(n: usize, fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction out of [0, 1]: {fraction}"
    );
    ((n as f64 * fraction).ceil() as usize).min(n)
}

/// Draw `count` distinct items by partial Fisher–Yates — deterministic
/// given the RNG state, independent of `count` beyond the drawn prefix.
fn choose<T: Copy>(rng: &mut StdRng, items: &[T], count: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let count = count.min(idx.len());
    for i in 0..count {
        let j = rng.random_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..count].iter().map(|&i| items[i]).collect()
}

/// Canonical port representatives: one directed link per cable (the one
/// with the smaller id), so a port-level model never double-draws a
/// cable.
fn ports(topo: &Topology) -> Vec<LinkId> {
    (0..topo.num_links() as u32)
        .map(LinkId)
        .filter(|&l| l.0 <= topo.reverse(l).0)
        .collect()
}

/// Every switch node, leaf level upward.
fn switches(topo: &Topology) -> Vec<NodeId> {
    let mut out = Vec::new();
    for level in 1..=topo.top_level() {
        out.extend(topo.switches_at_level(level));
    }
    out
}

/// All directed links touching `node`, in link-id order.
fn links_of(topo: &Topology, node: NodeId) -> Vec<LinkId> {
    (0..topo.num_links() as u32)
        .map(LinkId)
        .filter(|&l| {
            let lk = topo.link(l);
            lk.src == node || lk.dst == node
        })
        .collect()
}

/// Emit `victims` going down (`down(link)`, at one instant) and back up
/// at `up_at`, in the schedule's `(at_ns, link)` order: victims in link-id
/// order, every down before every up — or, when the two instants
/// coincide, each victim's down-up pair in turn, which is where a stable
/// sort leaves same-instant transitions of one link. `victims` must be in
/// link-id order (a link two struck switches share is listed twice).
fn emit_window(
    out: &mut Vec<LinkStateEvent>,
    victims: &[LinkId],
    down: impl Fn(LinkId) -> LinkStateEvent,
    up_at: u64,
) {
    out.reserve(2 * victims.len());
    if victims.first().is_some_and(|&l| down(l).at_ns == up_at) {
        for &l in victims {
            out.push(down(l));
            out.push(LinkStateEvent::up(up_at, l));
        }
    } else {
        out.extend(victims.iter().map(|&l| down(l)));
        out.extend(victims.iter().map(|&l| LinkStateEvent::up(up_at, l)));
    }
}

/// Append `model`'s transitions to `out` in `(at_ns, link)` order, so a
/// single-model plan reaches [`LinkSchedule::new`] already sorted.
fn emit(model: &FaultModel, topo: &Topology, rng: &mut StdRng, out: &mut Vec<LinkStateEvent>) {
    match *model {
        FaultModel::DegradedLink {
            fraction,
            bw_num,
            bw_den,
            start_ns,
            duration_ns,
        } => {
            let all: Vec<LinkId> = (0..topo.num_links() as u32).map(LinkId).collect();
            let n = fraction_count(all.len(), fraction);
            let mut victims = choose(rng, &all, n);
            victims.sort_unstable();
            emit_window(
                out,
                &victims,
                |l| LinkStateEvent::degraded(start_ns, l, bw_num, bw_den),
                start_ns.saturating_add(duration_ns),
            );
        }
        FaultModel::FlappingPort {
            fraction,
            period_ns,
            down_ns,
            start_ns,
            end_ns,
        } => {
            assert!(period_ns > 0, "flap period must be positive");
            assert!(
                down_ns < period_ns,
                "down time {down_ns} must be shorter than the period {period_ns}"
            );
            let cands = ports(topo);
            let n = fraction_count(cands.len(), fraction);
            // Both directions of every victim cable, in link-id order; a
            // cycle's ups fall before the next cycle's downs.
            let mut victims: Vec<LinkId> = choose(rng, &cands, n)
                .into_iter()
                .flat_map(|port| [port, topo.reverse(port)])
                .collect();
            victims.sort_unstable();
            let cycles = match end_ns.checked_sub(start_ns) {
                Some(span) if span > 0 => (span - 1) / period_ns + 1,
                _ => 0,
            };
            out.reserve(2 * victims.len() * cycles as usize);
            let mut t = start_ns;
            while t < end_ns {
                emit_window(
                    out,
                    &victims,
                    |l| LinkStateEvent::down(t, l),
                    t.saturating_add(down_ns),
                );
                t = t.saturating_add(period_ns);
            }
        }
        FaultModel::SwitchFailure {
            switches: count,
            start_ns,
            downtime_ns,
        } => {
            let cands = switches(topo);
            let mut victims: Vec<LinkId> = choose(rng, &cands, count as usize)
                .into_iter()
                .flat_map(|sw| links_of(topo, sw))
                .collect();
            victims.sort_unstable();
            emit_window(
                out,
                &victims,
                |l| LinkStateEvent::down(start_ns, l),
                start_ns.saturating_add(downtime_ns),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcag_verbs::LinkRate;
    use proptest::prelude::*;

    fn tree() -> Topology {
        Topology::fat_tree_two_level(8, 2, 2, 1, LinkRate::CX3_56G, 100)
    }

    #[test]
    fn compile_is_deterministic_in_the_seed() {
        let plan = FaultPlan::new(42)
            .with(FaultModel::DegradedLink {
                fraction: 0.25,
                bw_num: 1,
                bw_den: 4,
                start_ns: 1_000,
                duration_ns: 50_000,
            })
            .with(FaultModel::FlappingPort {
                fraction: 0.1,
                period_ns: 20_000,
                down_ns: 5_000,
                start_ns: 0,
                end_ns: 100_000,
            });
        let a = plan.compile(&tree());
        let b = plan.compile(&tree());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A different seed draws different victims.
        let c = FaultPlan {
            seed: 43,
            models: plan.models.clone(),
        }
        .compile(&tree());
        assert_ne!(a, c, "seed 43 drew the exact same victims as 42?");
    }

    #[test]
    fn zero_fraction_models_compile_to_nothing() {
        let plan = FaultPlan::new(7)
            .with(FaultModel::DegradedLink {
                fraction: 0.0,
                bw_num: 1,
                bw_den: 4,
                start_ns: 0,
                duration_ns: 1,
            })
            .with(FaultModel::FlappingPort {
                fraction: 0.0,
                period_ns: 10,
                down_ns: 1,
                start_ns: 0,
                end_ns: 100,
            })
            .with(FaultModel::SwitchFailure {
                switches: 0,
                start_ns: 0,
                downtime_ns: 1,
            });
        assert!(plan.compile(&tree()).is_empty());
    }

    #[test]
    fn flapping_hits_both_directions_of_each_cable() {
        let topo = tree();
        let plan = FaultPlan::new(1).with(FaultModel::FlappingPort {
            fraction: 0.001, // rounds up to one port
            period_ns: 10_000,
            down_ns: 2_000,
            start_ns: 0,
            end_ns: 30_000,
        });
        let sched = plan.compile(&topo);
        // One port, 3 cycles, 2 directions, down+up each = 12 events.
        assert_eq!(sched.len(), 12);
        let downs: Vec<_> = sched.events().iter().filter(|e| !e.up).collect();
        assert_eq!(downs.len(), 6);
        let links: std::collections::BTreeSet<u32> = downs.iter().map(|e| e.link.0).collect();
        assert_eq!(links.len(), 2, "both directions of one cable");
        let mut it = links.iter();
        let (a, b) = (*it.next().unwrap(), *it.next().unwrap());
        assert_eq!(topo.reverse(LinkId(a)), LinkId(b));
    }

    #[test]
    fn switch_failure_downs_every_attached_link_and_recovers() {
        let topo = tree();
        let plan = FaultPlan::new(3).with(FaultModel::SwitchFailure {
            switches: 1,
            start_ns: 5_000,
            downtime_ns: 40_000,
        });
        let sched = plan.compile(&topo);
        assert!(!sched.is_empty());
        // Events pair up: every downed link recovers at start + downtime.
        let downs: Vec<LinkId> = sched
            .events()
            .iter()
            .filter(|e| !e.up)
            .map(|e| e.link)
            .collect();
        for e in sched.events() {
            if !e.up {
                assert_eq!(e.at_ns, 5_000);
            } else {
                assert_eq!(e.at_ns, 45_000);
                assert!(downs.contains(&e.link));
            }
        }
        // The victim is a real switch: its links all share one endpoint.
        let sw_links = downs.clone();
        let first = topo.link(sw_links[0]);
        let common: Vec<NodeId> = [first.src, first.dst]
            .into_iter()
            .filter(|&n| {
                sw_links.iter().all(|&l| {
                    let lk = topo.link(l);
                    lk.src == n || lk.dst == n
                })
            })
            .collect();
        assert_eq!(common.len(), 1);
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn flap_duty_cycle_validated() {
        FaultPlan::new(0)
            .with(FaultModel::FlappingPort {
                fraction: 1.0,
                period_ns: 10,
                down_ns: 10,
                start_ns: 0,
                end_ns: 100,
            })
            .compile(&tree());
    }

    /// The compiler as it was before it emitted in time order: victims in
    /// draw order, each one's whole timeline in turn, then a stable sort.
    fn reference_compile(plan: &FaultPlan, topo: &Topology) -> Vec<LinkStateEvent> {
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut out = Vec::new();
        let window = |out: &mut Vec<LinkStateEvent>, down: LinkStateEvent, up_at: u64| {
            out.push(down);
            out.push(LinkStateEvent::up(up_at, down.link));
        };
        for m in &plan.models {
            match *m {
                FaultModel::DegradedLink {
                    fraction,
                    bw_num,
                    bw_den,
                    start_ns,
                    duration_ns,
                } => {
                    let all: Vec<LinkId> = (0..topo.num_links() as u32).map(LinkId).collect();
                    let n = fraction_count(all.len(), fraction);
                    for link in choose(&mut rng, &all, n) {
                        let down = LinkStateEvent::degraded(start_ns, link, bw_num, bw_den);
                        window(&mut out, down, start_ns.saturating_add(duration_ns));
                    }
                }
                FaultModel::FlappingPort {
                    fraction,
                    period_ns,
                    down_ns,
                    start_ns,
                    end_ns,
                } => {
                    let cands = ports(topo);
                    let n = fraction_count(cands.len(), fraction);
                    for port in choose(&mut rng, &cands, n) {
                        let mut t = start_ns;
                        while t < end_ns {
                            for l in [port, topo.reverse(port)] {
                                let down = LinkStateEvent::down(t, l);
                                window(&mut out, down, t.saturating_add(down_ns));
                            }
                            t = t.saturating_add(period_ns);
                        }
                    }
                }
                FaultModel::SwitchFailure {
                    switches: count,
                    start_ns,
                    downtime_ns,
                } => {
                    for sw in choose(&mut rng, &switches(topo), count as usize) {
                        for l in links_of(topo, sw) {
                            let down = LinkStateEvent::down(start_ns, l);
                            window(&mut out, down, start_ns.saturating_add(downtime_ns));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|e| (e.at_ns, e.link.0));
        out
    }

    proptest! {
        /// Emitting in time order changes no transition: over 64 seeds,
        /// every model alone — among them a flap with no down time, one
        /// whose ups saturate at `u64::MAX`, a degraded window of no
        /// length and struck switches that share links — and
        /// pairs of models compile to what the per-victim emission and a
        /// stable sort compiled.
        #[test]
        fn compile_equals_per_victim_emission_and_a_stable_sort(
            seed in 0u64..u64::MAX,
            frac in 0.0f64..1.0,
            down_ns in 0u64..3,
            period_ns in 3u64..7,
            start_ns in 0u64..4,
            first in 0usize..5,
            second in 0usize..6,
        ) {
            let models = [
                FaultModel::DegradedLink {
                    fraction: frac,
                    bw_num: 1,
                    bw_den: 4,
                    start_ns,
                    duration_ns: down_ns,
                },
                FaultModel::FlappingPort {
                    fraction: frac,
                    period_ns,
                    down_ns,
                    start_ns,
                    end_ns: 30,
                },
                FaultModel::FlappingPort {
                    fraction: 1.0,
                    period_ns,
                    down_ns: 0,
                    start_ns,
                    end_ns: 30,
                },
                // Ups that saturate at the end of time.
                FaultModel::FlappingPort {
                    fraction: frac,
                    period_ns,
                    down_ns,
                    start_ns: u64::MAX - 10 + start_ns,
                    end_ns: u64::MAX,
                },
                FaultModel::SwitchFailure {
                    switches: 2,
                    start_ns,
                    downtime_ns: down_ns,
                },
            ];
            let mut plan = FaultPlan::new(seed).with(models[first]);
            if let Some(&m) = models.get(second) {
                plan = plan.with(m);
            }
            let topo = tree();
            prop_assert_eq!(plan.compile(&topo).events(), &reference_compile(&plan, &topo)[..]);
        }
    }

    proptest! {
        #[test]
        fn compiled_schedules_are_sorted_and_within_bounds(
            seed in 0u64..1_000,
            frac in 0.0f64..1.0,
        ) {
            let plan = FaultPlan::new(seed)
                .with(FaultModel::DegradedLink {
                    fraction: frac,
                    bw_num: 1,
                    bw_den: 4,
                    start_ns: 100,
                    duration_ns: 1_000,
                })
                .with(FaultModel::SwitchFailure {
                    switches: 1,
                    start_ns: 200,
                    downtime_ns: 2_000,
                });
            let topo = tree();
            let sched = plan.compile(&topo);
            let ev = sched.events();
            for w in ev.windows(2) {
                prop_assert!(w[0].at_ns <= w[1].at_ns);
            }
            for e in ev {
                prop_assert!(e.link.idx() < topo.num_links());
                prop_assert!(e.bw_num >= 1 && e.bw_num <= e.bw_den);
            }
        }
    }
}
