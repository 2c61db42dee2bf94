//! Least-frequently-used cache, O(log n) per operation.
//!
//! Entries are ordered by `(frequency, last-access sequence)` in a
//! `BTreeSet`; eviction takes the least-frequent entry, breaking ties
//! toward the least recently touched (classic LFU-with-aging tie-break).

use crate::ReplacementCache;
use core::hash::Hash;
use simcore::hash::IdMap;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta {
    freq: u64,
    seq: u64,
}

/// LFU cache with LRU tie-breaking.
pub struct LfuCache<K> {
    map: IdMap<K, Meta>,
    order: BTreeSet<(u64, u64, K)>,
    capacity: usize,
    next_seq: u64,
}

impl<K: Copy + Eq + Hash + Ord> LfuCache<K> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LfuCache {
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            order: BTreeSet::new(),
            capacity,
            next_seq: 0,
        }
    }

    fn bump(&mut self, k: K) {
        let meta = self.map.get_mut(&k).expect("bump of missing key");
        let old = (meta.freq, meta.seq, k);
        meta.freq += 1;
        meta.seq = self.next_seq;
        self.next_seq += 1;
        let new = (meta.freq, meta.seq, k);
        self.order.remove(&old);
        self.order.insert(new);
    }

    /// Access frequency of a cached key.
    pub fn frequency(&self, k: &K) -> Option<u64> {
        self.map.get(k).map(|m| m.freq)
    }
}

impl<K: Copy + Eq + Hash + Ord> ReplacementCache<K> for LfuCache<K> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    fn touch(&mut self, k: K) -> bool {
        if self.map.contains_key(&k) {
            self.bump(k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, k: K) -> Option<K> {
        if self.touch(k) {
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = *self.order.iter().next().expect("full cache has entries");
            self.order.remove(&victim);
            self.map.remove(&victim.2);
            evicted = Some(victim.2);
        }
        let meta = Meta { freq: 1, seq: self.next_seq };
        self.next_seq += 1;
        self.map.insert(k, meta);
        self.order.insert((meta.freq, meta.seq, k));
        evicted
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(meta) = self.map.remove(k) {
            self.order.remove(&(meta.freq, meta.seq, *k));
            true
        } else {
            false
        }
    }

    fn keys(&self) -> Vec<K> {
        self.map.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_fill_and_evict(LfuCache::new(3));
        conformance::reinsert_does_not_evict(LfuCache::new(3));
        conformance::remove_frees_space(LfuCache::new(3));
        conformance::touch_only_hits_present(LfuCache::new(3));
        conformance::keys_are_consistent(LfuCache::new(3));
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        c.touch(1);
        c.touch(2);
        // Frequencies: 1→3, 2→2, 3→1. Victim is 3.
        assert_eq!(c.insert(4), Some(3));
        assert_eq!(c.frequency(&1), Some(3));
    }

    #[test]
    fn tie_break_is_oldest_touch() {
        let mut c = LfuCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3); // all freq 1; 1 is oldest
        assert_eq!(c.insert(4), Some(1));
    }

    #[test]
    fn frequency_counts_inserts_and_touches() {
        let mut c = LfuCache::new(2);
        c.insert(5);
        assert_eq!(c.frequency(&5), Some(1));
        c.insert(5); // counts as a touch
        c.touch(5);
        assert_eq!(c.frequency(&5), Some(3));
    }

    #[test]
    fn scan_resistance_vs_lru() {
        // A hot item survives a one-pass scan under LFU (it would be evicted
        // under LRU with the same capacity).
        let mut c = LfuCache::new(4);
        c.insert(100);
        for _ in 0..10 {
            c.touch(100);
        }
        for k in 0..20 {
            c.insert(k);
        }
        assert!(c.contains(&100), "hot item evicted by scan");
    }
}
