//! The one hasher of the simulated path: a fixed multiply-shift hash.
//!
//! The maps a simulated run consults per message or per construction step
//! — the topology's route and tree memo, the switches' in-network
//! aggregation state, the runtime's group pool and batch-outcome memo —
//! key on a few small integers. `std`'s default SipHash-1-3 is keyed per
//! process and built to resist hash flooding, which none of these maps
//! faces; it costs several times a multiply per word. [`MulShift`] folds
//! each word in with one rotate, xor and multiply by a fixed odd constant
//! and rotates the product's well-mixed high bits down at the end, so a
//! hash is a pure function of the key in every process and on every
//! host. Where the key is already a dense id (a switch node, a read's
//! sequence number) the state is a vector indexed by it instead, and no
//! hash runs at all.
//!
//! Every key is an id or a shape the program made itself, never input
//! an adversary could craft to collide, so nothing is lost by dropping
//! SipHash's flooding defence. Iteration order of a [`FastMap`] is a
//! function of its insertion history alone, but no simulated result may
//! depend on it: every map here is read by key, or scanned for an
//! order-free minimum.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply constant: `2^64 / φ`, rounded to odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fixed, deterministic multiply-shift hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct MulShift(u64);

impl MulShift {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulShift {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits depend on every input bit; hash tables
        // index by the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` under [`MulShift`], every hasher starting from the same
/// state; make one with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulShift>>;

/// The [`MulShift`] hash of `value`.
pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = MulShift::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_fixed_and_order_sensitive() {
        // Pinned: a different value would mean a keyed or changed hash.
        assert_eq!(hash_one(&0u64), 0);
        assert_eq!(hash_one(&1u64), K.rotate_left(26));
        assert_ne!(hash_one(&(1u32, 2u32)), hash_one(&(2u32, 1u32)));
        // Byte slices fold in 8-byte words, the tail zero-padded.
        let mut h = MulShift::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.finish(), hash_one(&(1u64, 2u64)));
    }

    #[test]
    fn small_keys_spread_over_low_bits() {
        // Dense (u32, u32) keys must not pile into a few buckets of a
        // power-of-two table: count distinct low 8 bits over a 16 x 16
        // grid of keys.
        let mut seen = std::collections::HashSet::new();
        for s in 0..16u32 {
            for d in 0..16u32 {
                seen.insert(hash_one(&(s, d)) & 0xff);
            }
        }
        assert!(seen.len() > 128, "{} distinct low bytes of 256", seen.len());
    }
}
