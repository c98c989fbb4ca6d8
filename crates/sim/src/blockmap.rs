//! Hash tables keyed by block or page number: [`BlockMap`], [`BlockSet`].
//!
//! The memory system's per-block state (directory entries, transactions in
//! flight, writebacks, page tables) is looked up by number on every
//! coherence message and never walked in key order, so it lives in hash
//! tables rather than ordered trees. The tables hash with [`BlockHasher`],
//! a fixed multiplicative hash: it is a few instructions where std's
//! default SipHash is a few dozen, and it carries no per-process random
//! seed. Keys are numbers the simulated program produces, not bytes read
//! from outside, so the flood resistance a seeded hash buys is not needed.
//!
//! Iteration order is a function of the keys and the insertion history,
//! the same on every run, but it is not key order: code whose output
//! depends on an order must not iterate these tables for it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map from block (or page) number to `V`, hashed by
/// [`BlockHasher`]. Build one with `BlockMap::default()`.
pub type BlockMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHasher>>;

/// A hash set of block (or page) numbers, hashed by [`BlockHasher`].
pub type BlockSet = HashSet<u64, BuildHasherDefault<BlockHasher>>;

/// An odd 64-bit constant with well-spread bits (2⁶⁴ / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher behind [`BlockMap`] and [`BlockSet`]: each `u64` written is
/// multiplied by a fixed odd constant into a 128-bit product whose halves
/// are folded together, so every output bit depends on every input bit.
/// Strided keys (every 64th block, every other page) therefore spread over
/// both the low bits a table indexes with and the high bits it tags with.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(n: u64) -> u64 {
        BuildHasherDefault::<BlockHasher>::default().hash_one(n)
    }

    #[test]
    fn hashing_is_fixed_across_instances() {
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
        assert_eq!(hash(0), 0, "no hidden seed");
    }

    #[test]
    fn strided_keys_spread_over_low_and_high_bits() {
        // Block numbers 64 apart (one per page) share their low six bits;
        // a plain multiply would keep them equal in the hash too.
        let low: HashSet<u64> = (1..=256u64).map(|i| hash(i * 64) & 0xff).collect();
        let high: HashSet<u64> = (1..=256u64).map(|i| hash(i * 64) >> 57).collect();
        assert!(low.len() > 128, "low byte took {} values", low.len());
        assert!(high.len() > 64, "top 7 bits took {} values", high.len());
    }

    #[test]
    fn maps_and_sets_behave_as_std() {
        let mut m: BlockMap<u32> = BlockMap::default();
        let mut s = BlockSet::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
            assert!(s.insert(i * 7));
        }
        assert!(!s.insert(7));
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999 * 4096)), Some(&999));
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }
}
