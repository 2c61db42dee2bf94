//! Value-aware (oracle) cache: evicts the entry with the smallest value
//! under a caller-maintained value function.
//!
//! This realises the paper's interaction models in simulation:
//!
//! * set every demand-cached entry's value to its true re-access
//!   probability and prefetch-insert with eviction of the **minimum**-value
//!   entry → model A when zero-value entries exist, model AB in general;
//! * combine with uniform values → model B.
//!
//! It also carries an optional byte budget ([`ByteCapacity`]), so the
//! delayed-hits engines can rank eviction by *aggregate delay* (value =
//! accumulated residual waits charged to the key) while keeping the
//! byte-denominated occupancy accounting of the size-aware caches.

use crate::{ByteCapacity, ReplacementCache};
use core::hash::Hash;
use simcore::hash::IdMap;
use std::collections::BTreeSet;

/// Total-ordered f64 wrapper (keys in the eviction order set).
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Clone, Copy)]
struct Entry {
    value: OrdF64,
    seq: u64,
    bytes: f64,
}

/// Cache that evicts the minimum-value entry (ties: oldest).
pub struct ValueAwareCache<K> {
    map: IdMap<K, Entry>,
    order: BTreeSet<(OrdF64, u64, K)>,
    capacity: usize,
    byte_capacity: f64,
    used_bytes: f64,
    next_seq: u64,
}

impl<K: Copy + Eq + Hash + Ord> ValueAwareCache<K> {
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_capacity(capacity, f64::INFINITY)
    }

    /// A value-aware cache bounded by `capacity` entries **and**
    /// `byte_capacity` bytes: admissions via [`ByteCapacity::charge`]
    /// evict minimum-value entries until both budgets hold.
    pub fn with_byte_capacity(capacity: usize, byte_capacity: f64) -> Self {
        assert!(capacity > 0);
        assert!(byte_capacity > 0.0, "byte capacity must be positive");
        ValueAwareCache {
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            order: BTreeSet::new(),
            capacity,
            byte_capacity,
            used_bytes: 0.0,
            next_seq: 0,
        }
    }

    /// Removes and returns the minimum-value entry's key.
    fn evict_min(&mut self) -> K {
        let victim = *self.order.iter().next().expect("evict_min on an empty cache");
        self.order.remove(&victim);
        let entry = self.map.remove(&victim.2).expect("order/map desync");
        self.used_bytes -= entry.bytes;
        if self.map.is_empty() {
            // Kill accumulated f64 residue (a + b - b ≠ a): an empty cache
            // must charge exactly zero bytes.
            self.used_bytes = 0.0;
        }
        victim.2
    }

    /// [`ValueAwareCache::evict_min`], skipping `keep` — the key being
    /// (re-)charged is not evictable during its own admission, mirroring
    /// the LRU twin where the charged key sits at the MRU end.
    fn evict_min_excluding(&mut self, keep: &K) -> Option<K> {
        let victim = *self.order.iter().find(|(_, _, key)| key != keep)?;
        self.order.remove(&victim);
        let entry = self.map.remove(&victim.2).expect("order/map desync");
        self.used_bytes -= entry.bytes;
        Some(victim.2)
    }

    fn admit(&mut self, k: K, v: f64, bytes: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(k, Entry { value: OrdF64(v), seq, bytes });
        self.order.insert((OrdF64(v), seq, k));
        self.used_bytes += bytes;
    }

    /// Inserts or updates `k` with value `v`; evicts the minimum-value
    /// entry if the insert overflows. Returns the evicted key. Entries
    /// admitted this way are charged zero bytes — byte-denominated
    /// simulations admit via [`ByteCapacity::charge`] and maintain values
    /// with [`ValueAwareCache::set_value`].
    pub fn insert_valued(&mut self, k: K, v: f64) -> Option<K> {
        assert!(!v.is_nan(), "value cannot be NaN");
        if self.map.contains_key(&k) {
            self.set_value(k, v);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            evicted = Some(self.evict_min());
        }
        self.admit(k, v, 0.0);
        evicted
    }

    /// Updates the value of a cached entry (no-op when absent).
    pub fn set_value(&mut self, k: K, v: f64) {
        assert!(!v.is_nan());
        if let Some(&Entry { value: old_v, seq, bytes }) = self.map.get(&k) {
            self.order.remove(&(old_v, seq, k));
            self.map.insert(k, Entry { value: OrdF64(v), seq, bytes });
            self.order.insert((OrdF64(v), seq, k));
        }
    }
}

impl<K: Copy + Eq + Hash + Ord> ReplacementCache<K> for ValueAwareCache<K> {
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
        self.map.contains_key(&k)
    }

    /// Default insert uses value 0 (unknown = worthless) — callers that
    /// know values should use [`ValueAwareCache::insert_valued`].
    fn insert(&mut self, k: K) -> Option<K> {
        self.insert_valued(k, 0.0)
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(Entry { value, seq, bytes }) = self.map.remove(k) {
            self.order.remove(&(value, seq, *k));
            self.used_bytes -= bytes;
            if self.map.is_empty() {
                self.used_bytes = 0.0; // see evict_min on residue
            }
            true
        } else {
            false
        }
    }

    fn keys(&self) -> Vec<K> {
        self.map.keys().copied().collect()
    }
}

impl<K: Copy + Eq + Hash + Ord> ByteCapacity<K> for ValueAwareCache<K> {
    fn byte_capacity(&self) -> f64 {
        self.byte_capacity
    }

    fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    fn entry_bytes(&self, k: &K) -> Option<f64> {
        self.map.get(k).map(|e| e.bytes)
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
        if self.map.contains_key(&k) {
            // Re-charge in place, mirroring `insert` on a present key: the
            // value resets to 0 (callers restore it via `set_value`) and
            // the size is swapped.
            let old = self.map.get(&k).map(|e| e.bytes).unwrap_or(0.0);
            self.used_bytes += bytes - old;
            if let Some(e) = self.map.get_mut(&k) {
                e.bytes = bytes;
            }
            self.set_value(k, 0.0);
            // `k` fits alone (checked above) and, having just been reset to
            // value 0, may itself be the minimum — evict around it.
            while self.used_bytes > self.byte_capacity && self.map.len() > 1 {
                match self.evict_min_excluding(&k) {
                    Some(v) => evicted.push(v),
                    None => break,
                }
            }
            return true;
        }
        // The emptiness guard mirrors the LRU twin: ledger residue must
        // not drive eviction of nothing.
        while !self.map.is_empty()
            && (self.map.len() == self.capacity || self.used_bytes + bytes > self.byte_capacity)
        {
            evicted.push(self.evict_min());
        }
        self.admit(k, 0.0, bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_fill_and_evict(ValueAwareCache::new(3));
        conformance::reinsert_does_not_evict(ValueAwareCache::new(3));
        conformance::remove_frees_space(ValueAwareCache::new(3));
        conformance::touch_only_hits_present(ValueAwareCache::new(3));
        conformance::keys_are_consistent(ValueAwareCache::new(3));
    }

    #[test]
    fn evicts_minimum_value() {
        let mut c = ValueAwareCache::new(3);
        c.insert_valued(1, 0.9);
        c.insert_valued(2, 0.1);
        c.insert_valued(3, 0.5);
        assert_eq!(c.insert_valued(4, 0.7), Some(2));
        assert_eq!(c.insert_valued(5, 0.7), Some(3));
    }

    #[test]
    fn value_update_changes_victim() {
        let mut c = ValueAwareCache::new(3);
        c.insert_valued(1, 0.9);
        c.insert_valued(2, 0.1);
        c.insert_valued(3, 0.5);
        c.set_value(2, 0.95);
        assert_eq!(c.insert_valued(4, 0.7), Some(3));
        assert!(c.contains(&2));
    }

    #[test]
    fn ties_evict_oldest() {
        let mut c = ValueAwareCache::new(3);
        c.insert_valued(10, 0.5);
        c.insert_valued(20, 0.5);
        c.insert_valued(30, 0.5);
        assert_eq!(c.insert_valued(40, 0.5), Some(10));
    }

    #[test]
    fn zero_value_entries_always_go_first_model_a_semantics() {
        // Model A: as long as a zero-value entry exists, prefetching evicts
        // only those — valuable entries are never harmed.
        let mut c = ValueAwareCache::new(4);
        c.insert_valued(1, 0.8); // valuable
        c.insert_valued(2, 0.0); // worthless
        c.insert_valued(3, 0.0);
        c.insert_valued(4, 0.6);
        let e1 = c.insert_valued(100, 0.5).unwrap();
        let e2 = c.insert_valued(101, 0.5).unwrap();
        assert!(e1 == 2 || e1 == 3);
        assert!(e2 == 2 || e2 == 3);
        assert!(c.contains(&1) && c.contains(&4));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = ValueAwareCache::new(2);
        c.insert_valued(1, 0.1);
        c.insert_valued(2, 0.2);
        assert_eq!(c.insert_valued(1, 0.9), None);
        assert_eq!(c.map[&1].value.0, 0.9);
        // Now 2 is the minimum.
        assert_eq!(c.insert_valued(3, 0.5), Some(2));
    }

    #[test]
    fn byte_budget_evicts_minimum_value_first() {
        let mut c = ValueAwareCache::with_byte_capacity(8, 10.0);
        let mut evicted = Vec::new();
        c.charge(1, 4.0, &mut evicted);
        c.set_value(1, 0.9);
        c.charge(2, 4.0, &mut evicted);
        c.set_value(2, 0.1);
        // 4 + 4 + 4 > 10 → evicts the min-value entry (2), not the oldest.
        assert!(c.charge(3, 4.0, &mut evicted));
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(&1));
        assert_eq!(c.used_bytes(), 8.0);
        assert_eq!(c.entry_bytes(&3), Some(4.0));
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut c = ValueAwareCache::with_byte_capacity(4, 10.0);
        let mut evicted = Vec::new();
        c.charge(1, 4.0, &mut evicted);
        assert!(!c.charge(2, 11.0, &mut evicted));
        assert!(evicted.is_empty());
        assert!(c.contains(&1));
    }

    #[test]
    fn unbounded_charge_matches_insert() {
        // Degenerate case: with an unbounded byte budget, charge admits and
        // evicts exactly like insert.
        let mut a = ValueAwareCache::new(3);
        let mut b = ValueAwareCache::new(3);
        for k in [5u32, 9, 5, 1, 7, 3] {
            let ia = a.insert(k);
            let mut evicted = Vec::new();
            b.charge(k, 2.0, &mut evicted);
            assert_eq!(ia.into_iter().collect::<Vec<_>>(), evicted);
        }
        let mut ka = a.keys();
        let mut kb = b.keys();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
    }
}
