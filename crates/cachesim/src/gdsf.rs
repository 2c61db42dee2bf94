//! Greedy-Dual-Size-Frequency (GDSF) — size-aware replacement.
//!
//! The canonical web-proxy policy of the paper's era (Cherkasova, 1998).
//! Each entry carries `H = L + frequency / size`: small, popular items are
//! kept; large, rarely used ones go first. The inflation value `L` (set to
//! the evicted entry's `H`) implements aging without timestamps.
//!
//! Relevant here because the paper's model is parameterised by the *mean*
//! size `s̄` only — GDSF is how real systems exploited the full size
//! distribution, and the byte-hit-vs-hit-ratio trade-off it embodies is
//! measurable with the `workload` crate's heavy-tailed catalogs.

use crate::ReplacementCache;
use core::hash::Hash;
use simcore::hash::IdMap;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq)]
struct HValue(f64);

impl Eq for HValue {}
impl PartialOrd for HValue {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HValue {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct Entry {
    h: HValue,
    seq: u64,
    freq: u64,
    size: f64,
}

/// GDSF cache over keys with explicit sizes (use
/// [`GdsfCache::insert_sized`]; the plain `insert` assumes unit size).
pub struct GdsfCache<K> {
    map: IdMap<K, Entry>,
    order: BTreeSet<(HValue, u64, K)>,
    capacity: usize,
    inflation: f64,
    next_seq: u64,
}

impl<K: Copy + Eq + Hash + Ord> GdsfCache<K> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        GdsfCache {
            map: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            order: BTreeSet::new(),
            capacity,
            inflation: 0.0,
            next_seq: 0,
        }
    }

    fn priority(&self, freq: u64, size: f64) -> HValue {
        HValue(self.inflation + freq as f64 / size.max(1e-12))
    }

    fn reinsert(&mut self, k: K, freq: u64, size: f64) {
        let h = self.priority(freq, size);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(k, Entry { h, seq, freq, size });
        self.order.insert((h, seq, k));
    }

    /// Inserts/refreshes `k` with an explicit size; returns the evicted key.
    pub fn insert_sized(&mut self, k: K, size: f64) -> Option<K> {
        assert!(size > 0.0 && size.is_finite());
        if let Some(e) = self.map.remove(&k) {
            self.order.remove(&(e.h, e.seq, k));
            self.reinsert(k, e.freq + 1, size);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = *self.order.iter().next().expect("full cache");
            self.order.remove(&victim);
            let entry = self.map.remove(&victim.2).expect("victim entry");
            // Age the cache: future insertions compete against the evicted
            // entry's priority.
            self.inflation = entry.h.0;
            evicted = Some(victim.2);
        }
        self.reinsert(k, 1, size);
        evicted
    }
}

impl<K: Copy + Eq + Hash + Ord> ReplacementCache<K> for GdsfCache<K> {
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
        if let Some(e) = self.map.remove(&k) {
            self.order.remove(&(e.h, e.seq, k));
            self.reinsert(k, e.freq + 1, e.size);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, k: K) -> Option<K> {
        self.insert_sized(k, 1.0)
    }

    fn remove(&mut self, k: &K) -> bool {
        if let Some(e) = self.map.remove(k) {
            self.order.remove(&(e.h, e.seq, *k));
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
        conformance::basic_fill_and_evict(GdsfCache::new(3));
        conformance::reinsert_does_not_evict(GdsfCache::new(3));
        conformance::remove_frees_space(GdsfCache::new(3));
        conformance::touch_only_hits_present(GdsfCache::new(3));
        conformance::keys_are_consistent(GdsfCache::new(3));
    }

    #[test]
    fn large_items_evicted_first() {
        let mut c = GdsfCache::new(3);
        c.insert_sized(1, 100.0); // H = 0.01
        c.insert_sized(2, 1.0); // H = 1
        c.insert_sized(3, 10.0); // H = 0.1
        assert_eq!(c.insert_sized(4, 1.0), Some(1));
        assert_eq!(c.insert_sized(5, 1.0), Some(3));
    }

    #[test]
    fn frequency_protects_large_items() {
        let mut c = GdsfCache::new(2);
        c.insert_sized(1, 10.0); // H = 0.1
        for _ in 0..20 {
            c.touch(1); // freq 21 → H = 2.1
        }
        c.insert_sized(2, 1.0); // H = 1

        // Victim must be 2 (H = 1 < 2.1) even though 1 is 10x larger.
        assert_eq!(c.insert_sized(3, 1.0), Some(2));
        assert!(c.contains(&1));
    }

    #[test]
    fn inflation_ages_old_entries() {
        let mut c = GdsfCache::new(2);
        c.insert_sized(1, 1.0); // H = 1
        c.insert_sized(2, 2.0); // H = 0.5
        assert_eq!(c.insert_sized(3, 2.0), Some(2)); // L becomes 0.5; 3 has H = 1.0

        // A new small item now enters with H = L + 1 = 1.5 > 1: evicts the
        // old H = 1 entries despite equal size/frequency — aging at work.
        assert!(c.inflation > 0.0);
        let evicted = c.insert_sized(4, 1.0).unwrap();
        assert!(evicted == 1 || evicted == 3);
        assert!(c.contains(&4));
    }

    #[test]
    fn byte_hit_ratio_beats_lru_on_heavy_tail() {
        // With Zipf popularity and heavy-tailed sizes, GDSF should match or
        // beat LRU on object hit ratio (it keeps many small popular items).
        use crate::lru::LruCache;
        use simcore::dist::{BoundedPareto, Sample, Zipf};
        use simcore::rng::Rng;
        let mut rng = Rng::new(9);
        let zipf = Zipf::new(2000, 0.9);
        let size_dist = BoundedPareto::new(1.5, 0.3, 60.0);
        let sizes: Vec<f64> = (0..2000).map(|_| size_dist.sample(&mut rng)).collect();
        let mut gdsf = GdsfCache::new(64);
        let mut lru = LruCache::new(64);
        let (mut hits_g, mut hits_l) = (0u32, 0u32);
        let n = 60_000;
        for _ in 0..n {
            let k = zipf.sample_rank(&mut rng) as u32;
            if gdsf.touch(k) {
                hits_g += 1;
            } else {
                gdsf.insert_sized(k, sizes[k as usize]);
            }
            if lru.touch(k) {
                hits_l += 1;
            } else {
                lru.insert(k);
            }
        }
        let hg = hits_g as f64 / n as f64;
        let hl = hits_l as f64 / n as f64;
        assert!(hg > hl - 0.01, "GDSF {hg} vs LRU {hl}");
    }
}
