//! Segmented LRU (SLRU): a probationary segment and a protected segment.
//!
//! First touch admits to probation; a hit in probation promotes to the
//! protected segment (evicting the protected LRU back *into* probation).
//! SLRU resists one-touch scans — precisely the pollution speculative
//! prefetching causes when predictions miss, which makes it an interesting
//! replacement policy under the paper's workloads.

use crate::lru::LruCache;
use crate::ReplacementCache;
use core::hash::Hash;

/// Segmented LRU with `probation_cap` + `protected_cap` entries.
pub struct SlruCache<K> {
    probation: LruCache<K>,
    protected: LruCache<K>,
}

impl<K: Copy + Eq + Hash> SlruCache<K> {
    /// Splits `capacity` with the conventional 20/80 probation/protected
    /// ratio (at least one entry each).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "SLRU needs at least two entries");
        let probation_cap = (capacity / 5).max(1);
        SlruCache::with_segments(probation_cap, capacity - probation_cap)
    }

    /// Explicit segment sizes.
    pub fn with_segments(probation_cap: usize, protected_cap: usize) -> Self {
        assert!(probation_cap >= 1 && protected_cap >= 1);
        SlruCache {
            probation: LruCache::new(probation_cap),
            protected: LruCache::new(protected_cap),
        }
    }

    fn promote(&mut self, k: K) {
        self.probation.remove(&k);
        if let Some(demoted) = self.protected.insert(k) {
            // Protected overflow falls back to probation (second chance).
            if let Some(evicted) = self.probation.insert(demoted) {
                // Probation overflow leaves the cache entirely; it is the
                // true victim of this promotion.
                debug_assert!(evicted != k);
            }
        }
    }
}

impl<K: Copy + Eq + Hash> ReplacementCache<K> for SlruCache<K> {
    fn capacity(&self) -> usize {
        self.probation.capacity() + self.protected.capacity()
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn contains(&self, k: &K) -> bool {
        self.probation.contains(k) || self.protected.contains(k)
    }

    fn touch(&mut self, k: K) -> bool {
        if self.protected.touch(k) {
            true
        } else if self.probation.contains(&k) {
            self.promote(k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, k: K) -> Option<K> {
        if self.touch(k) {
            return None;
        }
        self.probation.insert(k)
    }

    fn remove(&mut self, k: &K) -> bool {
        self.probation.remove(k) || self.protected.remove(k)
    }

    fn keys(&self) -> Vec<K> {
        let mut keys = self.probation.keys();
        keys.extend(self.protected.keys());
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_splits() {
        let c: SlruCache<u32> = SlruCache::new(10);
        assert_eq!(c.capacity(), 10);
        let c: SlruCache<u32> = SlruCache::with_segments(3, 7);
        assert_eq!(c.capacity(), 10);
    }

    #[test]
    fn first_touch_is_probationary_second_promotes() {
        let mut c = SlruCache::with_segments(2, 2);
        c.insert(1);
        assert!(!c.protected.contains(&1));
        assert!(c.touch(1));
        assert!(c.protected.contains(&1));
    }

    #[test]
    fn scan_resistance() {
        // A reused item survives a long one-touch scan.
        let mut c = SlruCache::with_segments(2, 2);
        c.insert(100);
        c.touch(100); // promoted
        for k in 0..50 {
            c.insert(k); // scan churns probation only
        }
        assert!(c.contains(&100), "protected item evicted by scan");
        // Plain LRU of the same total capacity would have lost it.
        let mut lru = LruCache::new(4);
        lru.insert(100);
        lru.touch(100);
        for k in 0..50 {
            lru.insert(k);
        }
        assert!(!lru.contains(&100));
    }

    #[test]
    fn protected_overflow_demotes_not_evicts() {
        let mut c = SlruCache::with_segments(2, 1);
        c.insert(1);
        c.touch(1); // 1 protected
        c.insert(2);
        c.touch(2); // 2 protected, 1 demoted to probation
        assert!(c.protected.contains(&2));
        assert!(c.contains(&1));
        assert!(!c.protected.contains(&1));
    }

    #[test]
    fn len_and_remove_across_segments() {
        let mut c = SlruCache::with_segments(2, 2);
        c.insert(1);
        c.insert(2);
        c.touch(1);
        assert_eq!(c.len(), 2);
        assert!(c.remove(&1)); // from protected
        assert!(c.remove(&2)); // from probation
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn insert_never_exceeds_capacity() {
        let mut c = SlruCache::with_segments(2, 3);
        for k in 0..100u32 {
            c.insert(k);
            if k % 3 == 0 {
                c.touch(k);
            }
            assert!(c.len() <= 5);
        }
    }
}
