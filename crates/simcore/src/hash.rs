//! A fixed, fast hasher for maps keyed by the simulator's own integer ids.
//!
//! Caches, outstanding-fetch tables, predictors and the cooperative router
//! look up small integer keys (item ids, `(client, item)` pairs, Markov
//! contexts of item ids) on every simulated access. The standard library's
//! SipHash defends against keys crafted to collide. These ids are made by
//! the simulator or read from the user's own trace, so that defence buys
//! nothing here, and it costs several times more than the lookup itself.
//!
//! [`IdHasher`] is an FxHash-style multiply hasher: each word is added to
//! the state and the sum multiplied by an odd constant. A multiply only
//! carries information *upwards*, so the low bits of the product depend
//! only on the low bits of the key; the standard table picks its bucket
//! from the low bits of the hash, so [`Hasher::finish`] rotates the
//! well-mixed high half down. Without the rotation, keys that differ only
//! in their high bits (ids packing an index above a sequence number) would
//! all share one bucket.
//!
//! The hasher is deterministic: a map's iteration order is a pure function
//! of its insertions. No result may depend on that order anyway — code
//! whose output depends on which of several entries comes first sorts them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over simulator ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over simulator ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-spread bits (the 64-bit FxHash constant of
/// rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// FxHash-style hasher for integer-like keys; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    /// Byte strings are not simulator ids; this keeps the hasher total
    /// rather than fast.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// Folds the well-mixed high bits of the product down into the bucket
    /// index bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    /// Pinned outputs: a change to the hasher (constant, mixing, finish)
    /// must be deliberate, since it moves every map's iteration order.
    #[test]
    fn output_is_pinned() {
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash_of(&(1u64 << 40 | 7)), 0x9d12_ca91_8fec_8085);
        assert_eq!(hash_of(&(3u32, 42u64)), 0xcd09_b3bc_773c_f56f);
        assert_eq!(hash_of(&vec![5u64, 9]), 0xe224_a07a_e3f3_cf19);
    }

    /// Keys strided by 2^20 agree in their low 20 bits; a bare multiply
    /// would leave them all in one bucket of a 4096-bucket table.
    #[test]
    fn high_bit_strides_spread_over_the_low_bits() {
        let buckets: IdSet<u64> = (0..4096u64).map(|k| hash_of(&(k << 20)) & 0xfff).collect();
        // A uniform random hash fills about 1 - 1/e ≈ 63% of the buckets.
        assert!(buckets.len() > 2048, "only {} of 4096 low-bit buckets used", buckets.len());
    }
}
