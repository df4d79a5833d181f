//! Calibration kernel: a fixed amount of `std`-only work, timed before
//! and after every measured iteration, whose rate is the unit the
//! host-clock metrics are expressed in ("calibration ops").
//!
//! On this class of host the run-to-run noise is memory-side (shared
//! cache and bandwidth taken by neighbours): a register-only ALU loop
//! stays within a few percent while the simulator's wall time swings by
//! tens of percent. The kernel therefore imitates the simulator's
//! memory behaviour, not its arithmetic: a miniature discrete-event
//! loop over a 4 MiB packet slab, a 4096-bucket timer wheel of `Vec`s,
//! per-link state with small queues, and a trickle of heap allocation.
//! It never calls into the repository's crates, so a change to the
//! program cannot move it. See `README.md` for the tuning evidence.

use std::time::Instant;

/// Events one slice processes (the "ops" of `jobs_per_mcalop`).
pub const OPS: u64 = 1_600_000;

/// Checksum every slice must produce; a different value means the
/// kernel did different work and its rate is not comparable.
pub const CHECKSUM: u64 = 0xb089_61fe_088b_8fc5;

/// Nominal kernel rate (ops/s) on the host the benchmark was defined
/// on. `setup_s` is scaled by measured ÷ nominal rate so that it is
/// expressed in seconds of that reference host rather than in seconds
/// of whatever the machine's neighbours leave over.
pub const NOMINAL_OPS_PER_S: f64 = 40.0e6;

const SLAB: usize = 64 << 10; // packets of 64 B: 4 MiB
const WHEEL: usize = 4096;
const LINKS: usize = 2048;
const INFLIGHT: usize = 2048;
const RING: usize = 64;

#[derive(Clone, Copy)]
struct Pkt {
    kind: u32,
    link: u32,
    bytes: u64,
    hops: u64,
    pad: [u64; 5],
}

const EMPTY: Pkt = Pkt {
    kind: 0,
    link: 0,
    bytes: 0,
    hops: 0,
    pad: [0; 5],
};

#[derive(Default)]
struct Link {
    busy_until: u64,
    bytes: u64,
    queue: Vec<u32>,
}

/// The kernel's buffers, allocated once and reset before every slice so
/// each slice does bit-identical work.
pub struct Kernel {
    slab: Vec<Pkt>,
    free: Vec<u32>,
    wheel: Vec<Vec<u32>>,
    links: Vec<Link>,
    ring: Vec<Vec<u64>>,
}

/// One timed slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Events processed (always [`OPS`]).
    pub ops: u64,
    /// Kernel events per second of wall time.
    pub ops_per_s: f64,
    /// Checksum of the slice's work (always [`CHECKSUM`] when healthy).
    pub checksum: u64,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Kernel {
    /// Allocate the kernel's buffers.
    pub fn new() -> Kernel {
        Kernel {
            slab: vec![EMPTY; SLAB],
            free: Vec::with_capacity(SLAB),
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            links: (0..LINKS).map(|_| Link::default()).collect(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
        }
    }

    fn reset(&mut self) {
        self.slab.fill(EMPTY);
        self.free.clear();
        self.free.extend((0..SLAB as u32).rev());
        for b in &mut self.wheel {
            b.clear();
        }
        for l in &mut self.links {
            l.busy_until = 0;
            l.bytes = 0;
            l.queue.clear();
        }
        for v in &mut self.ring {
            *v = Vec::new();
        }
    }

    /// Run one slice of exactly [`OPS`] events and time it.
    pub fn slice(&mut self) -> Slice {
        let t0 = Instant::now();
        self.reset();
        let (checksum, ops) = std::hint::black_box(self.run());
        let secs = t0.elapsed().as_secs_f64();
        Slice {
            ops,
            ops_per_s: ops as f64 / secs,
            checksum,
        }
    }

    fn schedule(&mut self, at: u64, id: u32) {
        self.wheel[at as usize & (WHEEL - 1)].push(id);
    }

    fn inject(&mut self, now: u64, r: u64, id: u32) {
        self.slab[id as usize] = Pkt {
            kind: 0,
            link: (r >> 8) as u32 % LINKS as u32,
            bytes: 4096,
            hops: 0,
            pad: [r; 5],
        };
        self.schedule(now + 1 + (r >> 20) % 512, id);
    }

    fn run(&mut self) -> (u64, u64) {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0u64;
        for _ in 0..INFLIGHT {
            let r = xorshift(&mut s);
            let id = self.free.pop().expect("slab larger than in-flight set");
            self.inject(now, r, id);
        }
        let mut acc = 0u64;
        let mut done = 0u64;
        while done < OPS {
            let Some(id) = self.wheel[now as usize & (WHEEL - 1)].pop() else {
                now += 1;
                continue;
            };
            done += 1;
            let r = xorshift(&mut s);
            let mut p = self.slab[id as usize];
            let link = &mut self.links[p.link as usize];
            match p.kind {
                // Arrive: serialise on the link, then forward.
                0 => {
                    link.busy_until = link.busy_until.max(now) + 3;
                    link.bytes += p.bytes;
                    p.kind = 1;
                    p.hops += 1;
                    let at = link.busy_until + (r >> 30) % 64;
                    self.slab[id as usize] = p;
                    self.schedule(at, id);
                }
                // Forward: queue on the link, pick the next hop.
                1 => {
                    link.queue.push(id);
                    if link.queue.len() > 8 {
                        link.queue.clear();
                    }
                    p.link = (r >> 8) as u32 % LINKS as u32;
                    p.kind = if p.hops > 4 { 2 } else { 0 };
                    self.slab[id as usize] = p;
                    self.schedule(now + 1 + (r >> 30) % 256, id);
                }
                // Deliver: retire the packet, inject one from a random
                // free slot so the whole slab stays in the working set.
                _ => {
                    acc = acc.wrapping_add(p.hops ^ p.pad[2] ^ link.bytes);
                    self.free.push(id);
                    let pick = (r % self.free.len() as u64) as usize;
                    let fresh = self.free.swap_remove(pick);
                    self.inject(now, r, fresh);
                }
            }
            if done.is_multiple_of(32) {
                let len = 16 + (r >> 50) as usize % 240;
                self.ring[(r >> 40) as usize % RING] = vec![r; len];
            }
        }
        (acc ^ now, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_fixed_work() {
        let mut k = Kernel::new();
        let a = k.slice();
        let b = k.slice();
        assert_eq!(a.checksum, CHECKSUM, "checksum {:#x}", a.checksum);
        assert_eq!(b.checksum, CHECKSUM, "second slice must repeat the first");
        assert_eq!((a.ops, b.ops), (OPS, OPS));
        assert!(a.ops_per_s > 0.0);
    }
}
