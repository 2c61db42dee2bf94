//! First-in-first-out cache: eviction order is admission order; touches
//! don't refresh. The cheapest policy and the weakest — used as a baseline
//! in cache-policy comparisons.

use crate::{ByteCapacity, ReplacementCache};
use core::hash::Hash;
use simcore::hash::{IdMap, IdSet};
use std::collections::VecDeque;

/// FIFO cache.
pub struct FifoCache<K> {
    set: IdSet<K>,
    queue: VecDeque<K>,
    capacity: usize,
    byte_capacity: f64,
    sizes: IdMap<K, f64>,
    used_bytes: f64,
}

impl<K: Copy + Eq + Hash> FifoCache<K> {
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_capacity(capacity, f64::INFINITY)
    }

    /// A FIFO cache bounded by `capacity` entries **and** `byte_capacity`
    /// bytes: admissions via [`ByteCapacity::charge`] evict in admission
    /// order until both budgets hold.
    pub fn with_byte_capacity(capacity: usize, byte_capacity: f64) -> Self {
        assert!(capacity > 0);
        assert!(byte_capacity > 0.0, "byte capacity must be positive");
        FifoCache {
            set: IdSet::with_capacity_and_hasher(capacity + 1, Default::default()),
            queue: VecDeque::with_capacity(capacity + 1),
            capacity,
            byte_capacity,
            sizes: IdMap::default(),
            used_bytes: 0.0,
        }
    }

    /// Evicts the oldest live entry (skipping lazily removed ghosts).
    fn evict_oldest(&mut self) -> Option<K> {
        while let Some(victim) = self.queue.pop_front() {
            if self.set.remove(&victim) {
                self.used_bytes -= self.sizes.remove(&victim).unwrap_or(0.0);
                if self.set.is_empty() {
                    // Kill accumulated f64 residue: an empty cache charges
                    // exactly zero bytes.
                    self.used_bytes = 0.0;
                }
                return Some(victim);
            }
        }
        None
    }

    fn note_admit(&mut self, k: K, bytes: f64) {
        self.set.insert(k);
        self.queue.push_back(k);
        if bytes > 0.0 {
            self.sizes.insert(k, bytes);
        }
        self.used_bytes += bytes;
        // Bound ghost growth from lazy removals.
        if self.queue.len() > 2 * self.capacity {
            let set = &self.set;
            self.queue.retain(|key| set.contains(key));
        }
    }
}

impl<K: Copy + Eq + Hash> ReplacementCache<K> for FifoCache<K> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn contains(&self, k: &K) -> bool {
        self.set.contains(k)
    }

    fn touch(&mut self, k: K) -> bool {
        self.set.contains(&k)
    }

    fn insert(&mut self, k: K) -> Option<K> {
        if self.set.contains(&k) {
            return None;
        }
        let mut evicted = None;
        if self.set.len() == self.capacity {
            evicted = self.evict_oldest();
        }
        self.note_admit(k, 0.0);
        evicted
    }

    fn remove(&mut self, k: &K) -> bool {
        // Lazy removal: the queue entry is skipped at eviction time.
        if self.set.remove(k) {
            self.used_bytes -= self.sizes.remove(k).unwrap_or(0.0);
            if self.set.is_empty() {
                self.used_bytes = 0.0; // see evict_oldest on residue
            }
            true
        } else {
            false
        }
    }

    fn keys(&self) -> Vec<K> {
        self.set.iter().copied().collect()
    }
}

impl<K: Copy + Eq + Hash> ByteCapacity<K> for FifoCache<K> {
    fn byte_capacity(&self) -> f64 {
        self.byte_capacity
    }

    fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    fn entry_bytes(&self, k: &K) -> Option<f64> {
        self.set.contains(k).then(|| self.sizes.get(k).copied().unwrap_or(0.0))
    }

    fn charge(&mut self, k: K, bytes: f64, evicted: &mut Vec<K>) -> bool {
        assert!(bytes >= 0.0 && bytes.is_finite(), "bad entry size {bytes}");
        if bytes > self.byte_capacity {
            if self.remove(&k) {
                evicted.push(k);
            }
            return false;
        }
        if self.set.contains(&k) {
            // FIFO keeps admission order: re-charging swaps the size only.
            self.used_bytes += bytes - self.sizes.get(&k).copied().unwrap_or(0.0);
            if bytes > 0.0 {
                self.sizes.insert(k, bytes);
            } else {
                self.sizes.remove(&k);
            }
            // Evict the oldest live entries other than `k` (which fits
            // alone) without disturbing `k`'s admission position. The
            // linear victim scan only runs on this exotic re-charge path.
            while self.used_bytes > self.byte_capacity {
                let victim = self.queue.iter().copied().find(|c| self.set.contains(c) && *c != k);
                match victim {
                    Some(v) => {
                        self.remove(&v);
                        evicted.push(v);
                    }
                    None => break,
                }
            }
            return true;
        }
        while self.set.len() == self.capacity || self.used_bytes + bytes > self.byte_capacity {
            match self.evict_oldest() {
                Some(v) => evicted.push(v),
                None => break,
            }
        }
        self.note_admit(k, bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_fill_and_evict(FifoCache::new(3));
        conformance::reinsert_does_not_evict(FifoCache::new(3));
        conformance::remove_frees_space(FifoCache::new(3));
        conformance::touch_only_hits_present(FifoCache::new(3));
        conformance::keys_are_consistent(FifoCache::new(3));
    }

    #[test]
    fn evicts_in_admission_order_ignoring_touches() {
        let mut c = FifoCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1); // FIFO ignores recency
        assert_eq!(c.insert(4), Some(1));
        assert_eq!(c.insert(5), Some(2));
    }

    #[test]
    fn lazy_removal_skips_ghosts() {
        let mut c = FifoCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.remove(&1); // ghost in queue
        c.insert(4); // fills the free slot, no eviction

        // Next eviction must skip ghost 1 and take 2.
        assert_eq!(c.insert(5), Some(2));
    }
}
