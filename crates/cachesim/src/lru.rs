//! Least-recently-used cache in O(1) per operation.
//!
//! An intrusive doubly-linked list over a slab (`Vec` of nodes with
//! index links) tracks recency; an `IdMap` gives O(1) key → node lookup.
//! No unsafe code, no pointer juggling — indices are the links.

use crate::{ByteCapacity, ReplacementCache};
use core::hash::Hash;
use simcore::hash::IdMap;

const NIL: usize = usize::MAX;

struct Node<K> {
    key: K,
    bytes: f64,
    prev: usize,
    next: usize,
}

/// O(1) LRU cache.
pub struct LruCache<K> {
    map: IdMap<K, usize>,
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
    capacity: usize,
    byte_capacity: f64,
    used_bytes: f64,
}

impl<K: Copy + Eq + Hash> LruCache<K> {
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_capacity(capacity, f64::INFINITY)
    }

    /// An LRU cache bounded by `capacity` entries **and** `byte_capacity`
    /// bytes: admissions via [`ByteCapacity::charge`] evict from the LRU
    /// end until both budgets hold.
    pub fn with_byte_capacity(capacity: usize, byte_capacity: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(byte_capacity > 0.0, "byte capacity must be positive");
        LruCache {
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            byte_capacity,
            used_bytes: 0.0,
        }
    }

    /// Unlinks and frees the LRU entry, returning its key.
    fn evict_lru(&mut self) -> K {
        let victim_idx = self.tail;
        debug_assert!(victim_idx != NIL, "evict_lru on an empty cache");
        let victim = self.nodes[victim_idx].key;
        self.used_bytes -= self.nodes[victim_idx].bytes;
        self.unlink(victim_idx);
        self.map.remove(&victim);
        self.free.push(victim_idx);
        if self.map.is_empty() {
            // Kill accumulated f64 residue (a + b - b ≠ a): an empty cache
            // must charge exactly zero bytes, or the eviction loops could
            // keep "evicting" from nothing.
            self.used_bytes = 0.0;
        }
        victim
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn alloc(&mut self, key: K, bytes: f64) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node { key, bytes, prev: NIL, next: NIL };
            idx
        } else {
            self.nodes.push(Node { key, bytes, prev: NIL, next: NIL });
            self.nodes.len() - 1
        }
    }

    /// Keys from most- to least-recently used.
    pub fn keys_mru_first(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.nodes[idx].key);
            idx = self.nodes[idx].next;
        }
        out
    }
}

impl<K: Copy + Eq + Hash> ReplacementCache<K> for LruCache<K> {
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
        if let Some(&idx) = self.map.get(&k) {
            self.move_to_front(idx);
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
            evicted = Some(self.evict_lru());
        }
        let idx = self.alloc(k, 0.0);
        self.push_front(idx);
        self.map.insert(k, idx);
        evicted
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(idx) = self.map.remove(k) {
            self.used_bytes -= self.nodes[idx].bytes;
            self.unlink(idx);
            self.free.push(idx);
            if self.map.is_empty() {
                self.used_bytes = 0.0; // see evict_lru on residue
            }
            true
        } else {
            false
        }
    }

    fn keys(&self) -> Vec<K> {
        self.keys_mru_first()
    }
}

impl<K: Copy + Eq + Hash> ByteCapacity<K> for LruCache<K> {
    fn byte_capacity(&self) -> f64 {
        self.byte_capacity
    }

    fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    fn entry_bytes(&self, k: &K) -> Option<f64> {
        self.map.get(k).map(|&idx| self.nodes[idx].bytes)
    }

    fn charge(&mut self, k: K, bytes: f64, evicted: &mut Vec<K>) -> bool {
        assert!(bytes >= 0.0 && bytes.is_finite(), "bad entry size {bytes}");
        if bytes > self.byte_capacity {
            // The entry alone busts the byte budget: never admit it (and
            // drop any previously cached, smaller copy).
            if self.remove(&k) {
                evicted.push(k);
            }
            return false;
        }
        if let Some(&idx) = self.map.get(&k) {
            // Re-charge in place: refresh recency, swap the size.
            self.used_bytes += bytes - self.nodes[idx].bytes;
            self.nodes[idx].bytes = bytes;
            self.move_to_front(idx);
            // `k` fits alone (checked above), so stop once it is the only
            // entry left — the guard also keeps f64 residue in the ledger
            // from "evicting" `k` itself.
            while self.used_bytes > self.byte_capacity && self.map.len() > 1 {
                evicted.push(self.evict_lru());
            }
            return true;
        }
        // The emptiness guard mirrors the FIFO twin: ledger residue must
        // not drive eviction of nothing.
        while !self.map.is_empty()
            && (self.map.len() == self.capacity || self.used_bytes + bytes > self.byte_capacity)
        {
            evicted.push(self.evict_lru());
        }
        let idx = self.alloc(k, bytes);
        self.push_front(idx);
        self.map.insert(k, idx);
        self.used_bytes += bytes;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_fill_and_evict(LruCache::new(3));
        conformance::reinsert_does_not_evict(LruCache::new(3));
        conformance::remove_frees_space(LruCache::new(3));
        conformance::touch_only_hits_present(LruCache::new(3));
        conformance::keys_are_consistent(LruCache::new(3));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        // Touch 1: order (MRU→LRU) is 1,3,2 → inserting 4 evicts 2.
        assert!(c.touch(1));
        assert_eq!(c.insert(4), Some(2));
        assert_eq!(c.keys_mru_first(), vec![4, 1, 3]);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        c.insert(1); // refresh
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn remove_tail_and_head() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.remove(&3)); // head
        assert!(c.remove(&1)); // tail
        assert_eq!(c.keys_mru_first(), vec![2]);
        c.insert(4);
        c.insert(5);
        assert_eq!(c.keys_mru_first(), vec![5, 4, 2]);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert_eq!(c.len(), 1);
    }

    /// Model-based test: LRU against a naive reference implementation.
    #[test]
    fn matches_reference_model_under_random_workload() {
        use simcore::rng::Rng;
        struct RefLru {
            cap: usize,
            order: Vec<u32>, // MRU-first
        }
        impl RefLru {
            fn touch(&mut self, k: u32) -> bool {
                if let Some(pos) = self.order.iter().position(|&x| x == k) {
                    self.order.remove(pos);
                    self.order.insert(0, k);
                    true
                } else {
                    false
                }
            }
            fn insert(&mut self, k: u32) -> Option<u32> {
                if self.touch(k) {
                    return None;
                }
                let mut evicted = None;
                if self.order.len() == self.cap {
                    evicted = self.order.pop();
                }
                self.order.insert(0, k);
                evicted
            }
        }

        let mut rng = Rng::new(99);
        let mut real = LruCache::new(16);
        let mut model = RefLru { cap: 16, order: Vec::new() };
        for _ in 0..20_000 {
            let k = rng.below(48) as u32;
            match rng.below(3) {
                0 => assert_eq!(real.touch(k), model.touch(k)),
                1 => assert_eq!(real.insert(k), model.insert(k)),
                _ => {
                    let r = real.remove(&k);
                    let m = model.order.iter().position(|&x| x == k).map(|p| {
                        model.order.remove(p);
                    });
                    assert_eq!(r, m.is_some());
                }
            }
            assert_eq!(real.keys_mru_first(), model.order);
        }
    }
}
