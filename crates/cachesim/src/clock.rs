//! CLOCK (second-chance) cache: an LRU approximation with O(1) touches.
//!
//! Entries sit in a circular buffer with a reference bit. The hand sweeps
//! on eviction: referenced entries get a second chance (bit cleared),
//! unreferenced ones are evicted. This is the policy most real page caches
//! used in the paper's era.

use crate::ReplacementCache;
use core::hash::Hash;
use simcore::hash::IdMap;

struct Slot<K> {
    key: Option<K>,
    referenced: bool,
}

/// CLOCK cache.
pub struct ClockCache<K> {
    slots: Vec<Slot<K>>,
    map: IdMap<K, usize>,
    hand: usize,
    len: usize,
}

impl<K: Copy + Eq + Hash> ClockCache<K> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ClockCache {
            slots: (0..capacity).map(|_| Slot { key: None, referenced: false }).collect(),
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            hand: 0,
            len: 0,
        }
    }

    fn advance(&mut self) {
        self.hand = (self.hand + 1) % self.slots.len();
    }

    /// Sweeps the hand to a victim slot index (clearing reference bits on
    /// the way) and returns it. Caller guarantees the cache is full.
    fn find_victim(&mut self) -> usize {
        loop {
            let idx = self.hand;
            let slot = &mut self.slots[idx];
            debug_assert!(slot.key.is_some(), "full cache has no empty slots");
            if slot.referenced {
                slot.referenced = false;
                self.advance();
            } else {
                return idx;
            }
        }
    }
}

impl<K: Copy + Eq + Hash> ReplacementCache<K> for ClockCache<K> {
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    fn touch(&mut self, k: K) -> bool {
        if let Some(&idx) = self.map.get(&k) {
            self.slots[idx].referenced = true;
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
        let idx = if self.len < self.slots.len() {
            // Find any empty slot (scan from hand; cheap because sparse
            // only during warm-up).
            let mut idx = self.hand;
            while self.slots[idx].key.is_some() {
                idx = (idx + 1) % self.slots.len();
            }
            idx
        } else {
            let idx = self.find_victim();
            let victim = self.slots[idx].key.expect("victim slot occupied");
            self.map.remove(&victim);
            self.len -= 1;
            evicted = Some(victim);
            self.hand = (idx + 1) % self.slots.len();
            idx
        };
        self.slots[idx] = Slot { key: Some(k), referenced: false };
        self.map.insert(k, idx);
        self.len += 1;
        evicted
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(idx) = self.map.remove(k) {
            self.slots[idx] = Slot { key: None, referenced: false };
            self.len -= 1;
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
        conformance::basic_fill_and_evict(ClockCache::new(3));
        conformance::reinsert_does_not_evict(ClockCache::new(3));
        conformance::remove_frees_space(ClockCache::new(3));
        conformance::touch_only_hits_present(ClockCache::new(3));
        conformance::keys_are_consistent(ClockCache::new(3));
    }

    #[test]
    fn second_chance_protects_referenced() {
        let mut c = ClockCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        // Hand at 0 (slot of 1): 1 is referenced → spared; 2 is the victim.
        assert_eq!(c.insert(4), Some(2));
        assert!(c.contains(&1));
    }

    #[test]
    fn unreferenced_evicted_in_clock_order() {
        let mut c = ClockCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert_eq!(c.insert(4), Some(1));
        assert_eq!(c.insert(5), Some(2));
        assert_eq!(c.insert(6), Some(3));
    }

    #[test]
    fn approximates_lru_hit_ratio() {
        // On a Zipf-ish stream, CLOCK should land within a few points of LRU.
        use crate::lru::LruCache;
        use simcore::dist::Zipf;
        use simcore::rng::Rng;
        let mut rng = Rng::new(11);
        let zipf = Zipf::new(200, 0.9);
        let mut clock = ClockCache::new(32);
        let mut lru = LruCache::new(32);
        let mut hits_clock = 0;
        let mut hits_lru = 0;
        let n = 30_000;
        for _ in 0..n {
            let k = zipf.sample_rank(&mut rng) as u32;
            if clock.touch(k) {
                hits_clock += 1;
            } else {
                clock.insert(k);
            }
            if lru.touch(k) {
                hits_lru += 1;
            } else {
                lru.insert(k);
            }
        }
        let hc = hits_clock as f64 / n as f64;
        let hl = hits_lru as f64 / n as f64;
        assert!((hc - hl).abs() < 0.05, "clock {hc} vs lru {hl}");
    }
}
