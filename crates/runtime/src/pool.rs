//! The bounded switch multicast-group table, shared by every tenant.
//!
//! InfiniBand switches hold a finite MGID table (a few thousand entries
//! on SX6036-class silicon), and programming a group is a subnet-manager
//! round-trip costing hundreds of microseconds to milliseconds — far more
//! than a single collective on a hot path. A long-lived runtime therefore
//! treats groups as a *pooled* resource: a tenant whose communicator ran
//! recently finds its trees still programmed (a **hit**, free), a cold
//! tenant programs into a free slot (a **build**), and once the table is
//! full the least-recently-used unpinned group is torn down and replaced
//! (a **rebuild**, the most expensive path). All costs are charged on the
//! simulated clock by the scheduler, so group-table pressure shows up in
//! tenant latency exactly as it would on real hardware.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identity of one switch-level multicast group: a tenant's communicator
/// owns `index 0..S` for its multicast subgroups plus (for AG+RS jobs)
/// one more for the in-network-reduction tree. Two jobs of the same
/// tenant reuse the same keys — that is what makes pooling pay off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey {
    /// Owning tenant.
    pub tenant: u32,
    /// Group index within the tenant's communicator.
    pub index: u32,
}

/// Simulated cost to program a group into a free slot (SM join
/// round-trip for every member): 200 µs.
const BUILD_NS: u64 = 200_000;

/// Simulated cost to evict an LRU group *and* program a new one (leaves
/// + re-routes the spanning tree, then reprograms).
const REBUILD_NS: u64 = 350_000;

const _: () = assert!(REBUILD_NS >= BUILD_NS, "rebuild cannot beat build");

/// Group-pool tuning: the table size. Programming costs are the fixed
/// subnet-manager round-trips `BUILD_NS` (200 µs) and `REBUILD_NS`
/// (350 µs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Multicast-group table capacity (entries).
    pub capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig::with_capacity(128)
    }
}

impl PoolConfig {
    /// A pool with `capacity` slots.
    pub fn with_capacity(capacity: usize) -> PoolConfig {
        PoolConfig { capacity }
    }
}

/// How one [`McastGroupPool::acquire`] was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The group was still programmed — no SM traffic, zero cost.
    Hit,
    /// Programmed into a free table slot.
    Built,
    /// An LRU group was evicted to make room.
    Rebuilt,
}

/// Cumulative pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Acquisitions served by a resident group.
    pub hits: u64,
    /// Groups programmed into free slots.
    pub builds: u64,
    /// Groups programmed after evicting an LRU entry.
    pub rebuilds: u64,
    /// Groups evicted (equals `rebuilds` for this policy).
    pub evictions: u64,
}

impl PoolStats {
    /// Total acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.hits + self.builds + self.rebuilds
    }

    /// Fraction of acquisitions served without SM traffic, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.acquisitions();
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    last_use: u64,
    pinned: bool,
}

/// LRU pool over the bounded multicast-group table.
///
/// Groups acquired for a running batch are **pinned** (a switch cannot
/// reprogram a tree that packets are flowing through); the scheduler
/// unpins them when the batch completes, leaving them resident for reuse.
#[derive(Debug, Clone)]
pub struct McastGroupPool {
    cfg: PoolConfig,
    resident: HashMap<GroupKey, Slot>,
    tick: u64,
    pinned: usize,
    stats: PoolStats,
}

impl McastGroupPool {
    /// Create a pool. Panics if `capacity == 0`.
    pub fn new(cfg: PoolConfig) -> McastGroupPool {
        assert!(cfg.capacity >= 1, "group table needs at least one slot");
        McastGroupPool {
            cfg,
            resident: HashMap::new(),
            tick: 0,
            pinned: 0,
            stats: PoolStats::default(),
        }
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Groups currently pinned by in-flight batches.
    pub fn pinned_groups(&self) -> usize {
        self.pinned
    }

    /// Free pinning headroom: how many *more* distinct groups a new batch
    /// may pin without overcommitting the table. Resident-but-unpinned
    /// groups do not count against this — they can be evicted — but every
    /// group a batch acquires (hit or not) is pinned for the batch's
    /// lifetime, so the scheduler budgets batch group demand against this
    /// value when batches overlap on the virtual clock.
    pub fn headroom(&self) -> usize {
        self.cfg.capacity - self.pinned
    }

    /// Groups currently programmed.
    pub fn resident_groups(&self) -> usize {
        self.resident.len()
    }

    /// Is `key` currently programmed?
    pub fn is_resident(&self, key: GroupKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Acquire (and pin) `key`, returning how it was satisfied and the
    /// simulated cost to charge on the clock.
    ///
    /// Panics if the table is full of pinned groups — the scheduler must
    /// never commit a batch whose distinct group demand exceeds
    /// [`McastGroupPool::capacity`].
    pub fn acquire(&mut self, key: GroupKey) -> (AcquireOutcome, u64) {
        self.tick += 1;
        if let Some(slot) = self.resident.get_mut(&key) {
            slot.last_use = self.tick;
            if !slot.pinned {
                slot.pinned = true;
                self.pinned += 1;
            }
            self.stats.hits += 1;
            return (AcquireOutcome::Hit, 0);
        }
        let outcome = if self.resident.len() < self.cfg.capacity {
            self.stats.builds += 1;
            (AcquireOutcome::Built, BUILD_NS)
        } else {
            // Evict the least-recently-used unpinned entry. `last_use`
            // ticks are unique, so the victim is deterministic regardless
            // of hash-map iteration order.
            let victim = self
                .resident
                .iter()
                .filter(|(_, s)| !s.pinned)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| *k)
                .expect("group pool overcommitted: every resident group is pinned");
            self.resident.remove(&victim);
            self.stats.evictions += 1;
            self.stats.rebuilds += 1;
            (AcquireOutcome::Rebuilt, REBUILD_NS)
        };
        self.resident.insert(
            key,
            Slot {
                last_use: self.tick,
                pinned: true,
            },
        );
        self.pinned += 1;
        outcome
    }

    /// Charge `n` subnet-manager tree rebuilds that happened *outside*
    /// the acquire path — the SM re-routing groups around dead switches
    /// mid-batch. Counts them in [`PoolStats::rebuilds`] and returns the
    /// virtual time to bill (`n × REBUILD_NS`): the same detach +
    /// reprogram cost an eviction rebuild pays, because the switch work
    /// is the same.
    pub fn charge_rebuilds(&mut self, n: u32) -> u64 {
        self.stats.rebuilds += n as u64;
        self.rebuild_cost_ns(n)
    }

    /// Virtual time `n` SM tree rebuilds cost (`n × REBUILD_NS`) without
    /// charging them — the scheduler prices a batch's recovery work
    /// before the batch commits ([`charge_rebuilds`] bills it once, at
    /// commit).
    ///
    /// [`charge_rebuilds`]: McastGroupPool::charge_rebuilds
    pub fn rebuild_cost_ns(&self, n: u32) -> u64 {
        REBUILD_NS * n as u64
    }

    /// Unpin exactly the given keys (their batch finished): resident
    /// entries stay cached for reuse by later batches, and other
    /// in-flight batches' groups stay pinned. Keys evict-raced
    /// away cannot exist here: pinned entries are never eviction victims,
    /// so every key a batch acquired is still resident when it unpins.
    pub fn unpin(&mut self, keys: &[GroupKey]) {
        for key in keys {
            let slot = self
                .resident
                .get_mut(key)
                .expect("unpin of a non-resident group (pinned entries cannot be evicted)");
            if slot.pinned {
                slot.pinned = false;
                self.pinned -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u32, i: u32) -> GroupKey {
        GroupKey {
            tenant: t,
            index: i,
        }
    }

    #[test]
    fn hit_after_build() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(2));
        let (o, c) = pool.acquire(key(0, 0));
        assert_eq!(o, AcquireOutcome::Built);
        assert_eq!(c, BUILD_NS);
        pool.unpin(&[key(0, 0)]);
        let (o, c) = pool.acquire(key(0, 0));
        assert_eq!(o, AcquireOutcome::Hit);
        assert_eq!(c, 0);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().builds, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(2));
        pool.acquire(key(0, 0));
        pool.acquire(key(1, 0));
        pool.unpin(&[key(0, 0), key(1, 0)]);
        // Touch tenant 0 so tenant 1 becomes LRU.
        pool.acquire(key(0, 0));
        pool.unpin(&[key(0, 0)]);
        let (o, _) = pool.acquire(key(2, 0));
        assert_eq!(o, AcquireOutcome::Rebuilt);
        assert!(pool.is_resident(key(0, 0)), "MRU entry survived");
        assert!(!pool.is_resident(key(1, 0)), "LRU entry evicted");
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn pinned_groups_never_evicted() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(2));
        pool.acquire(key(0, 0)); // pinned, oldest
        pool.unpin(&[key(0, 0)]);
        pool.acquire(key(1, 0)); // pinned
        pool.acquire(key(2, 0)); // must evict the unpinned key(0,0)
        assert!(pool.is_resident(key(1, 0)));
        assert!(!pool.is_resident(key(0, 0)));
    }

    #[test]
    #[should_panic(expected = "overcommitted")]
    fn overcommit_detected() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(1));
        pool.acquire(key(0, 0));
        pool.acquire(key(1, 0)); // both pinned, table of one
    }

    #[test]
    fn per_key_unpin_tracks_headroom() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(3));
        pool.acquire(key(0, 0));
        pool.acquire(key(0, 1));
        pool.acquire(key(1, 0));
        assert_eq!(pool.pinned_groups(), 3);
        assert_eq!(pool.headroom(), 0);
        // Batch of tenant 0 finishes; tenant 1's group stays pinned.
        pool.unpin(&[key(0, 0), key(0, 1)]);
        assert_eq!(pool.pinned_groups(), 1);
        assert_eq!(pool.headroom(), 2);
        // A new acquire may evict tenant 0's unpinned groups but never
        // tenant 1's pinned one.
        pool.acquire(key(2, 0));
        assert_eq!(pool.pinned_groups(), 2);
        assert!(pool.is_resident(key(1, 0)));
        // Re-acquiring an already-pinned group must not double-count.
        pool.acquire(key(1, 0));
        assert_eq!(pool.pinned_groups(), 2);
        pool.unpin(&[key(1, 0), key(2, 0)]);
        assert_eq!(pool.headroom(), 3);
    }

    #[test]
    fn hit_rate_counts() {
        let mut pool = McastGroupPool::new(PoolConfig::with_capacity(4));
        let keys: Vec<GroupKey> = (0..4).map(|t| key(t, 0)).collect();
        for _ in 0..2 {
            for &k in &keys {
                pool.acquire(k);
            }
            pool.unpin(&keys);
        }
        let s = pool.stats();
        assert_eq!(s.acquisitions(), 8);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
