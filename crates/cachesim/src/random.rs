//! Random-replacement cache: evicts a uniformly random entry.
//!
//! This is the *simulated realisation of interaction model B*: under random
//! eviction, every cache entry — each carrying on average `h′/n̄(C)` of the
//! hit ratio — is equally likely to be destroyed by a prefetch insertion,
//! which is exactly the paper's "evict average-value items" assumption.

use crate::ReplacementCache;
use core::hash::Hash;
use simcore::hash::IdMap;
use simcore::rng::Rng;

/// Random-replacement cache with an owned, seeded PRNG (deterministic).
pub struct RandomCache<K> {
    map: IdMap<K, usize>,
    slots: Vec<K>,
    capacity: usize,
    rng: Rng,
}

impl<K: Copy + Eq + Hash> RandomCache<K> {
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0);
        RandomCache {
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            slots: Vec::with_capacity(capacity),
            capacity,
            rng: Rng::new(seed),
        }
    }

    fn remove_at(&mut self, idx: usize) -> K {
        let victim = self.slots.swap_remove(idx);
        self.map.remove(&victim);
        if idx < self.slots.len() {
            // The swapped-in key changed position.
            let moved = self.slots[idx];
            self.map.insert(moved, idx);
        }
        victim
    }
}

impl<K: Copy + Eq + Hash> ReplacementCache<K> for RandomCache<K> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    fn touch(&mut self, k: K) -> bool {
        self.map.contains_key(&k)
    }

    fn insert(&mut self, k: K) -> Option<K> {
        if self.map.contains_key(&k) {
            return None;
        }
        let mut evicted = None;
        if self.slots.len() == self.capacity {
            let idx = self.rng.index(self.slots.len());
            evicted = Some(self.remove_at(idx));
        }
        self.map.insert(k, self.slots.len());
        self.slots.push(k);
        evicted
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(&idx) = self.map.get(k) {
            self.remove_at(idx);
            true
        } else {
            false
        }
    }

    fn keys(&self) -> Vec<K> {
        self.slots.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_fill_and_evict(RandomCache::new(3, 1));
        conformance::reinsert_does_not_evict(RandomCache::new(3, 2));
        conformance::remove_frees_space(RandomCache::new(3, 3));
        conformance::touch_only_hits_present(RandomCache::new(3, 4));
        conformance::keys_are_consistent(RandomCache::new(3, 5));
    }

    #[test]
    fn eviction_is_approximately_uniform() {
        // Fill with 10 keys, insert a new key, record the victim; repeat.
        let mut victim_counts = std::collections::HashMap::new();
        for trial in 0..20_000u64 {
            let mut c = RandomCache::new(10, trial);
            for k in 0..10u32 {
                c.insert(k);
            }
            let v = c.insert(999).unwrap();
            *victim_counts.entry(v).or_insert(0usize) += 1;
        }
        for k in 0..10u32 {
            let share = victim_counts[&k] as f64 / 20_000.0;
            assert!((share - 0.1).abs() < 0.02, "key {k} share {share}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = RandomCache::new(4, seed);
            let mut evictions = Vec::new();
            for k in 0..50u32 {
                if let Some(v) = c.insert(k) {
                    evictions.push(v);
                }
            }
            evictions
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn swap_remove_keeps_index_map_consistent() {
        let mut c = RandomCache::new(5, 9);
        for k in 0..5u32 {
            c.insert(k);
        }
        assert!(c.remove(&0));
        // All remaining keys still reachable.
        for k in 1..5u32 {
            assert!(c.contains(&k), "lost key {k}");
            assert!(c.remove(&k));
        }
        assert!(c.is_empty());
    }
}
