//! Open-loop workload generation for the multi-tenant runtime.
//!
//! The closed-loop harness (pre-fill the queue, drain it) can measure
//! makespan but never *latency under load* — the quantity that decides
//! whether a shared in-network collective service is usable. This module
//! generates **arrival processes** on the virtual clock: seeded,
//! deterministic streams of `(arrival_ns, tenant, kind, send_len)` rows
//! that [`Runtime::submit_at`](crate::sched::Runtime::submit_at) admits
//! as virtual time advances, so the scheduler sees an offered load it
//! does not control.
//!
//! Three generators cover the usual experiment shapes:
//!
//! - **Poisson** — memoryless arrivals at a constant mean rate, the
//!   standard open-loop reference (exposes the saturation knee).
//! - **Modulated** — piecewise-constant rate phases cycling over the
//!   horizon: bursty / diurnal ramps where the offered load swings
//!   between overload and idle.
//! - **Trace replay** — explicit rows, for NCCL-style harness mixes
//!   (power-of-two size ladders swept across collective kinds) or
//!   captured schedules.
//!
//! # Determinism contract
//!
//! Every generator is a pure function of its config and seed. The
//! exponential sampler uses a **local, bit-exact logarithm**
//! ([`neg_ln_unit`]) built from IEEE arithmetic only — `f64::ln` routes
//! through the platform libm, whose last-ulp behaviour differs across
//! hosts, and a one-ulp difference in an interarrival gap would shift
//! every later virtual timestamp. With the local sampler, generated
//! workloads (and therefore `BENCH_load.json`) are byte-stable across
//! machines and worker counts.

use crate::job::{JobKind, TenantId};
use mcag_verbs::Rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One open-loop submission: at virtual time `arrival_ns`, tenant
/// `tenant` offers a `kind` collective of `send_len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Virtual arrival time (ns).
    pub arrival_ns: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Collective kind offered.
    pub kind: JobKind,
    /// Bytes per root.
    pub send_len: usize,
}

/// Aggregate arrival-rate process (across all tenants; each arrival is
/// then assigned to a tenant uniformly at random).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateProcess {
    /// Memoryless arrivals: exponential interarrival gaps with the given
    /// mean. Offered rate = `1e9 / mean_interarrival_ns` jobs/s.
    Poisson {
        /// Mean gap between consecutive arrivals (ns).
        mean_interarrival_ns: u64,
    },
    /// Piecewise-constant modulated rate: phases cycle in order over the
    /// horizon (burst / lull / ramp shapes). Within a phase arrivals are
    /// Poisson at that phase's rate; at a phase boundary the next gap is
    /// redrawn at the new rate (memorylessness makes the truncated
    /// residual gap statistically irrelevant, and redrawing keeps the
    /// generator a pure fold over the rng stream).
    Modulated {
        /// Phases cycled in order; must be non-empty.
        phases: Vec<RatePhase>,
    },
}

/// One constant-rate phase of a [`RateProcess::Modulated`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatePhase {
    /// Phase duration (ns) before the next phase takes over.
    pub len_ns: u64,
    /// Mean interarrival gap while this phase is active (ns).
    pub mean_interarrival_ns: u64,
}

/// The NCCL-harness-style operation mix: weighted collective kinds over
/// a power-of-two message-size ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpMix {
    /// Relative weight of plain Allgather jobs.
    pub allgather_weight: u32,
    /// Relative weight of Broadcast jobs (root drawn uniformly from
    /// `0..ranks`).
    pub broadcast_weight: u32,
    /// Relative weight of fused Allgather + Reduce-Scatter jobs.
    pub agrs_weight: u32,
    /// Smallest rung of the size ladder (bytes; rounded up to a power of
    /// two internally).
    pub min_send_len: usize,
    /// Largest rung of the size ladder (bytes).
    pub max_send_len: usize,
    /// Rank count, for broadcast-root sampling.
    pub ranks: u32,
}

impl Default for OpMix {
    fn default() -> OpMix {
        OpMix {
            allgather_weight: 2,
            broadcast_weight: 1,
            agrs_weight: 1,
            min_send_len: 8 << 10,
            max_send_len: 256 << 10,
            ranks: 4,
        }
    }
}

impl OpMix {
    fn total_weight(&self) -> u64 {
        self.allgather_weight as u64 + self.broadcast_weight as u64 + self.agrs_weight as u64
    }

    /// Draw one `(kind, send_len)` pair.
    fn sample(&self, rng: &mut StdRng) -> (JobKind, usize) {
        let total = self.total_weight();
        assert!(total > 0, "op mix needs at least one positive weight");
        let pick = rng.next_u64() % total;
        let kind = if pick < self.allgather_weight as u64 {
            JobKind::Allgather
        } else if pick < self.allgather_weight as u64 + self.broadcast_weight as u64 {
            JobKind::Broadcast {
                root: Rank((rng.next_u64() % self.ranks.max(1) as u64) as u32),
            }
        } else {
            JobKind::AgRs
        };
        // Power-of-two ladder, uniform over the rungs.
        let lo = self.min_send_len.max(1).next_power_of_two();
        let hi = self.max_send_len.max(lo);
        let rungs = (hi / lo).ilog2() as u64 + 1;
        let rung = rng.next_u64() % rungs;
        (kind, lo << rung)
    }
}

/// A seeded open-loop workload: an arrival-rate process plus an op mix,
/// expanded over a horizon into a sorted arrival stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Tenants arrivals are spread across (uniformly).
    pub tenants: u32,
    /// Generate arrivals in `[0, horizon_ns)`.
    pub horizon_ns: u64,
    /// Aggregate arrival-rate process.
    pub rate: RateProcess,
    /// Per-arrival kind/size mix.
    pub mix: OpMix,
    /// Generator seed; equal seeds give byte-identical streams.
    pub seed: u64,
}

impl Workload {
    /// Expand the workload into its arrival stream, sorted by time.
    ///
    /// A pure function of the config: the same `Workload` value yields
    /// the same rows on every host, every time.
    pub fn generate(&self) -> Vec<Arrival> {
        assert!(self.tenants > 0, "workload needs at least one tenant");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut now: u64 = 0;
        loop {
            let mean = self.mean_at(now);
            let gap = sample_exponential_ns(&mut rng, mean);
            // A phase boundary between `now` and the drawn arrival
            // re-rates the gap: jump to the boundary and redraw.
            if let Some(boundary) = self.next_boundary(now) {
                if now + gap >= boundary {
                    now = boundary;
                    continue;
                }
            }
            now += gap;
            if now >= self.horizon_ns {
                break;
            }
            let tenant = TenantId((rng.next_u64() % self.tenants as u64) as u32);
            let (kind, send_len) = self.mix.sample(&mut rng);
            out.push(Arrival {
                arrival_ns: now,
                tenant,
                kind,
                send_len,
            });
        }
        out
    }

    /// Mean interarrival gap in force at virtual time `t`.
    fn mean_at(&self, t: u64) -> u64 {
        match &self.rate {
            RateProcess::Poisson {
                mean_interarrival_ns,
            } => (*mean_interarrival_ns).max(1),
            RateProcess::Modulated { phases } => {
                assert!(!phases.is_empty(), "modulated rate needs phases");
                let cycle: u64 = phases.iter().map(|p| p.len_ns.max(1)).sum();
                let mut off = t % cycle;
                for p in phases {
                    let len = p.len_ns.max(1);
                    if off < len {
                        return p.mean_interarrival_ns.max(1);
                    }
                    off -= len;
                }
                unreachable!("offset within cycle")
            }
        }
    }

    /// Next phase boundary strictly after `t`, if the rate is modulated.
    fn next_boundary(&self, t: u64) -> Option<u64> {
        match &self.rate {
            RateProcess::Poisson { .. } => None,
            RateProcess::Modulated { phases } => {
                let cycle: u64 = phases.iter().map(|p| p.len_ns.max(1)).sum();
                let base = (t / cycle) * cycle;
                let mut edge = base;
                for p in phases {
                    edge += p.len_ns.max(1);
                    if edge > t {
                        return Some(edge);
                    }
                }
                Some(base + 2 * cycle) // t on the last edge; next cycle's end
            }
        }
    }
}

/// An NCCL-benchmark-style sweep trace: every tenant offers the full
/// power-of-two size ladder across the weighted kind cycle, with
/// arrivals spaced `gap_ns` apart round-robin across tenants — the
/// deterministic counterpart of [`Workload`] used by golden tests.
pub fn nccl_style_trace(tenants: u32, mix: OpMix, gap_ns: u64) -> Vec<Arrival> {
    let lo = mix.min_send_len.max(1).next_power_of_two();
    let hi = mix.max_send_len.max(lo);
    let rungs = (hi / lo).ilog2() + 1;
    let kinds = [
        JobKind::Allgather,
        JobKind::Broadcast { root: Rank(0) },
        JobKind::AgRs,
    ];
    let mut out = Vec::new();
    let mut t = gap_ns;
    for rung in 0..rungs {
        for k in 0..kinds.len() {
            for tenant in 0..tenants {
                out.push(Arrival {
                    arrival_ns: t,
                    tenant: TenantId(tenant),
                    kind: kinds[(k + tenant as usize) % kinds.len()],
                    send_len: lo << rung,
                });
                t += gap_ns;
            }
        }
    }
    out
}

/// Merge arrival streams into one sorted stream (stable: equal-time
/// rows keep the order of the concatenated inputs).
pub fn merge_arrivals(streams: &[Vec<Arrival>]) -> Vec<Arrival> {
    let mut out: Vec<Arrival> = streams.iter().flatten().copied().collect();
    out.sort_by_key(|a| a.arrival_ns);
    out
}

/// Draw an exponential interarrival gap with the given mean, rounded to
/// whole ns and clamped to ≥ 1 so virtual time always advances.
fn sample_exponential_ns(rng: &mut StdRng, mean_ns: u64) -> u64 {
    // 53 mantissa bits, +1 so u ∈ (0, 1] and the log argument is never 0.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    let gap = mean_ns as f64 * neg_ln_unit(u);
    ((gap + 0.5) as u64).max(1)
}

/// `-ln(u)` for `u ∈ (0, 1]`, computed with IEEE arithmetic only —
/// **bit-exact on every host** (no libm).
///
/// Decompose `u = m · 2^e` with `m ∈ [1, 2)` via the raw bit pattern,
/// then `ln u = e·ln 2 + ln m` with `ln m` from the atanh series
/// `ln m = 2·(t + t³/3 + t⁵/5 + …)`, `t = (m−1)/(m+1) ∈ [0, ⅓)`.
/// Twenty-two odd terms put the truncation error below one ulp for the
/// whole range; every operation is a correctly-rounded IEEE primitive,
/// so the result is a pure function of the input bits.
pub fn neg_ln_unit(u: f64) -> f64 {
    assert!(u > 0.0 && u <= 1.0, "neg_ln_unit domain is (0, 1]: {u}");
    if u == 1.0 {
        return 0.0;
    }
    let bits = u.to_bits();
    let raw_exp = ((bits >> 52) & 0x7FF) as i64;
    // Arrival samplers feed u ≥ 2⁻⁵³, far above the subnormal range.
    debug_assert!(raw_exp > 0, "subnormal input to neg_ln_unit");
    let e = raw_exp - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Horner evaluation of Σ t^(2k)/(2k+1), k = 0..=21.
    let mut s = 1.0 / 43.0;
    let mut k = 21i32;
    while k > 0 {
        k -= 1;
        s = s * t2 + 1.0 / (2 * k + 1) as f64;
    }
    let ln_m = 2.0 * t * s;
    -(e as f64 * std::f64::consts::LN_2 + ln_m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_ln_matches_libm_closely() {
        // The series must agree with the platform ln to ~1 ulp across the
        // sampler's input range (we only *require* determinism, but large
        // error would bias the arrival rate).
        for i in 1..=4096u64 {
            let u = i as f64 / 4096.0;
            let got = neg_ln_unit(u);
            let want = -u.ln();
            let tol = 1e-14 * want.abs().max(1.0);
            assert!((got - want).abs() <= tol, "u={u}: {got} vs {want}");
        }
        assert_eq!(neg_ln_unit(1.0), 0.0);
        // Smallest sampler input.
        let tiny = 1.0 / (1u64 << 53) as f64;
        let got = neg_ln_unit(tiny);
        assert!((got - 53.0 * std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn poisson_stream_is_seeded_and_sorted() {
        let wl = Workload {
            tenants: 4,
            horizon_ns: 50_000_000,
            rate: RateProcess::Poisson {
                mean_interarrival_ns: 100_000,
            },
            mix: OpMix::default(),
            seed: 7,
        };
        let a = wl.generate();
        let b = wl.generate();
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.iter().all(|r| r.arrival_ns < wl.horizon_ns));
        // Mean gap within 15% of nominal over ~500 samples.
        let span = a.last().unwrap().arrival_ns - a[0].arrival_ns;
        let mean = span as f64 / (a.len() - 1) as f64;
        assert!(
            (mean - 100_000.0).abs() < 15_000.0,
            "empirical mean gap {mean}"
        );
        let mut other_seed = wl;
        other_seed.seed = 8;
        assert_ne!(other_seed.generate(), a, "seed must matter");
    }

    #[test]
    fn modulated_phases_change_local_rate() {
        let wl = Workload {
            tenants: 2,
            horizon_ns: 40_000_000,
            rate: RateProcess::Modulated {
                phases: vec![
                    RatePhase {
                        len_ns: 10_000_000,
                        mean_interarrival_ns: 50_000, // burst
                    },
                    RatePhase {
                        len_ns: 10_000_000,
                        mean_interarrival_ns: 1_000_000, // lull
                    },
                ],
            },
            mix: OpMix::default(),
            seed: 11,
        };
        let rows = wl.generate();
        let in_burst = |t: u64| (t % 20_000_000) < 10_000_000;
        let burst = rows.iter().filter(|r| in_burst(r.arrival_ns)).count();
        let lull = rows.len() - burst;
        assert!(
            burst > 5 * lull.max(1),
            "burst phases must dominate: {burst} vs {lull}"
        );
    }

    #[test]
    fn mix_respects_size_ladder_and_kinds() {
        let wl = Workload {
            tenants: 3,
            horizon_ns: 100_000_000,
            rate: RateProcess::Poisson {
                mean_interarrival_ns: 200_000,
            },
            mix: OpMix {
                allgather_weight: 1,
                broadcast_weight: 1,
                agrs_weight: 0,
                min_send_len: 16 << 10,
                max_send_len: 64 << 10,
                ranks: 6,
            },
            seed: 3,
        };
        let rows = wl.generate();
        for r in &rows {
            assert!(r.send_len.is_power_of_two());
            assert!((16 << 10..=64 << 10).contains(&r.send_len));
            match r.kind {
                JobKind::AgRs => panic!("zero-weight kind sampled"),
                JobKind::Broadcast { root } => assert!(root.0 < 6),
                JobKind::Allgather => {}
            }
            assert!(r.tenant.0 < 3);
        }
    }

    #[test]
    fn nccl_trace_covers_ladder_times_kinds() {
        let mix = OpMix {
            min_send_len: 16 << 10,
            max_send_len: 64 << 10,
            ..OpMix::default()
        };
        let rows = nccl_style_trace(2, mix, 1_000);
        // 3 rungs × 3 kind slots × 2 tenants.
        assert_eq!(rows.len(), 18);
        assert!(rows.windows(2).all(|w| w[0].arrival_ns < w[1].arrival_ns));
        let sizes: std::collections::BTreeSet<usize> = rows.iter().map(|r| r.send_len).collect();
        assert_eq!(
            sizes.into_iter().collect::<Vec<_>>(),
            vec![16 << 10, 32 << 10, 64 << 10]
        );
    }

    #[test]
    fn merge_is_sorted_and_stable() {
        let a = vec![Arrival {
            arrival_ns: 100,
            tenant: TenantId(0),
            kind: JobKind::Allgather,
            send_len: 1,
        }];
        let b = vec![
            Arrival {
                arrival_ns: 50,
                tenant: TenantId(1),
                kind: JobKind::Allgather,
                send_len: 2,
            },
            Arrival {
                arrival_ns: 100,
                tenant: TenantId(1),
                kind: JobKind::Allgather,
                send_len: 3,
            },
        ];
        let merged = merge_arrivals(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].send_len, 2);
        assert_eq!(merged[1].send_len, 1, "stable: stream order on ties");
        assert_eq!(merged[2].send_len, 3);
    }
}
