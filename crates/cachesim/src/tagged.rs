//! Tagged/untagged cache instrumentation — the paper's §4 algorithm.
//!
//! Wraps any [`ReplacementCache`] and maintains, per entry, the tag state
//! the paper defines, plus the `naccess`/`nhit` counters:
//!
//! * **prefetch insert** → entry enters *untagged* (not a user access);
//! * **access to a tagged entry** → `naccess += 1; nhit += 1`;
//! * **access to an untagged entry** → `naccess += 1`, entry becomes
//!   *tagged*;
//! * **miss** → `naccess += 1`, fetched entry admitted *tagged*.
//!
//! `ĥ′ = nhit/naccess` estimates the hit ratio the cache would achieve if
//! prefetching were disabled (model A assumption); the model-B correction
//! multiplies by `n̄(C)/(n̄(C)−n̄(F))`.
//!
//! The wrapper also counts *real* hits, so one pass over a trace yields
//! both `h` (with prefetching) and `ĥ′` (the counterfactual).

use crate::{ByteCapacity, ReplacementCache};
use core::hash::Hash;
use simcore::hash::IdMap;

/// Paper §4 tag state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Demand-fetched, or accessed since insertion.
    Tagged,
    /// Prefetched and never accessed.
    Untagged,
}

/// Classification of a user access through the tagged cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Hit on a tagged entry (also a counterfactual hit).
    HitTagged,
    /// Hit on an untagged (prefetched) entry — a hit that prefetching
    /// *created*.
    HitUntagged,
    /// Miss; the item was fetched on demand and admitted tagged.
    Miss,
}

impl AccessKind {
    /// Was this a real cache hit?
    pub fn is_hit(&self) -> bool {
        !matches!(self, AccessKind::Miss)
    }
}

/// Instrumented cache implementing the §4 estimator.
///
/// ```
/// use cachesim::{AccessKind, LruCache, TaggedCache};
///
/// let mut cache = TaggedCache::new(LruCache::new(8));
/// cache.prefetch_insert("page2");            // enters untagged
/// let (kind, _) = cache.access("page2");     // prefetching created this hit…
/// assert_eq!(kind, AccessKind::HitUntagged); // …so it is NOT a counterfactual hit
/// let (kind, _) = cache.access("page2");     // but a re-access would have hit anyway
/// assert_eq!(kind, AccessKind::HitTagged);
/// assert_eq!(cache.estimate_h_prime(), Some(0.5)); // ĥ′ = 1 hit / 2 accesses
/// assert_eq!(cache.hit_ratio(), Some(1.0));        // real h = 2 / 2
/// ```
pub struct TaggedCache<K, C> {
    inner: C,
    tags: IdMap<K, Tag>,
    n_access: u64,
    n_hit: u64,
    real_hits: u64,
    prefetch_inserts: u64,
    evictions_of_untagged: u64,
    evictions_of_tagged: u64,
}

impl<K: Copy + Eq + Hash, C: ReplacementCache<K>> TaggedCache<K, C> {
    pub fn new(inner: C) -> Self {
        TaggedCache {
            inner,
            tags: IdMap::default(),
            n_access: 0,
            n_hit: 0,
            real_hits: 0,
            prefetch_inserts: 0,
            evictions_of_untagged: 0,
            evictions_of_tagged: 0,
        }
    }

    fn note_eviction(&mut self, evicted: Option<K>) -> Option<K> {
        if let Some(v) = evicted {
            match self.tags.remove(&v) {
                Some(Tag::Untagged) => self.evictions_of_untagged += 1,
                Some(Tag::Tagged) => self.evictions_of_tagged += 1,
                None => {}
            }
        }
        evicted
    }

    fn note_evictions(&mut self, evicted: &[K]) {
        for &v in evicted {
            self.note_eviction(Some(v));
        }
    }

    /// A user access to `k`. Returns its classification; on miss, the item
    /// is admitted (tagged) and the evicted key, if any, is in `.1`.
    pub fn access(&mut self, k: K) -> (AccessKind, Option<K>) {
        match self.probe(k) {
            AccessKind::Miss => {
                let evicted = self.admit_after_fetch(k);
                (AccessKind::Miss, evicted)
            }
            kind => (kind, None),
        }
    }

    /// A user access that does **not** admit on miss — for simulators where
    /// the fetched item only arrives after a network delay (admit it later
    /// with [`TaggedCache::admit_after_fetch`]). Counters are updated
    /// exactly as in [`TaggedCache::access`].
    pub fn probe(&mut self, k: K) -> AccessKind {
        self.n_access += 1;
        if self.inner.touch(k) {
            self.real_hits += 1;
            match self.tags.get_mut(&k) {
                // The first use of a prefetched entry tags it.
                Some(tag @ Tag::Untagged) => {
                    *tag = Tag::Tagged;
                    AccessKind::HitUntagged
                }
                Some(Tag::Tagged) => {
                    self.n_hit += 1;
                    AccessKind::HitTagged
                }
                // Admitted around the tag map (through `inner_mut`): an
                // untracked entry counts as tagged, and is tracked from now.
                None => {
                    self.tags.insert(k, Tag::Tagged);
                    self.n_hit += 1;
                    AccessKind::HitTagged
                }
            }
        } else {
            AccessKind::Miss
        }
    }

    /// Admits a demand-fetched item (tag: tagged) without counting a user
    /// access — the access was already counted by the probe that missed.
    /// Returns the evicted key, if any.
    pub fn admit_after_fetch(&mut self, k: K) -> Option<K> {
        if self.inner.contains(&k) {
            // Concurrent fetch already admitted it; just ensure the tag.
            self.tags.insert(k, Tag::Tagged);
            return None;
        }
        let evicted = self.inner.insert(k);
        let evicted = self.note_eviction(evicted);
        self.tags.insert(k, Tag::Tagged);
        evicted
    }

    /// A prefetch insertion of `k`. Not a user access. Returns the evicted
    /// key, if any. Prefetching an already-cached item is a no-op (its tag
    /// is preserved).
    pub fn prefetch_insert(&mut self, k: K) -> Option<K> {
        self.prefetch_inserts += 1;
        if self.inner.contains(&k) {
            return None;
        }
        let evicted = self.inner.insert(k);
        let evicted = self.note_eviction(evicted);
        self.tags.insert(k, Tag::Untagged);
        evicted
    }

    /// Tag of a cached entry.
    pub fn tag(&self, k: &K) -> Option<Tag> {
        if self.inner.contains(k) {
            self.tags.get(k).copied()
        } else {
            None
        }
    }

    /// Total user accesses (`naccess`).
    pub fn accesses(&self) -> u64 {
        self.n_access
    }

    /// Counterfactual hits (`nhit`).
    pub fn counterfactual_hits(&self) -> u64 {
        self.n_hit
    }

    /// Real hits with prefetching active.
    pub fn real_hits(&self) -> u64 {
        self.real_hits
    }

    /// Real hit ratio `h` with prefetching.
    pub fn hit_ratio(&self) -> Option<f64> {
        (self.n_access > 0).then(|| self.real_hits as f64 / self.n_access as f64)
    }

    /// `ĥ′` under the model-A assumption.
    pub fn estimate_h_prime(&self) -> Option<f64> {
        (self.n_access > 0).then(|| self.n_hit as f64 / self.n_access as f64)
    }

    /// `ĥ′` with the model-B correction `n̄(C)/(n̄(C)−n̄(F))`.
    pub fn estimate_h_prime_model_b(&self, n_c: f64, n_f: f64) -> Option<f64> {
        assert!(n_c > 0.0 && (0.0..n_c).contains(&n_f));
        self.estimate_h_prime().map(|e| (e * n_c / (n_c - n_f)).min(1.0))
    }

    /// Number of prefetch insertions attempted.
    pub fn prefetch_inserts(&self) -> u64 {
        self.prefetch_inserts
    }

    /// Evictions broken down by the victim's tag: `(tagged, untagged)`.
    pub fn evictions_by_tag(&self) -> (u64, u64) {
        (self.evictions_of_tagged, self.evictions_of_untagged)
    }

    /// Read-only access to the wrapped cache.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped cache, for policy-metadata updates
    /// (e.g. [`crate::ValueAwareCache::set_value`]). Inserting or removing
    /// entries through this handle would desynchronise the §4 tag state —
    /// use the tagged admission methods for that.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Snapshot of the cached keys (order follows the inner policy) — the
    /// contents a cooperative digest summarises.
    pub fn keys(&self) -> Vec<K> {
        self.inner.keys()
    }
}

/// Byte-charged admissions, available when the wrapped policy carries a
/// byte budget. Each mirrors its item-counted twin exactly — same tag
/// transitions, same "already present" short-circuits — but charges an
/// explicit size and can evict several victims, so the §4 counters stay
/// correct under byte-driven eviction.
impl<K: Copy + Eq + Hash, C: ByteCapacity<K>> TaggedCache<K, C> {
    /// Byte-charged [`TaggedCache::admit_after_fetch`]: admits a
    /// demand-fetched item (tag: tagged) charging `bytes`. Returns whether
    /// the entry was *newly* admitted (false when a concurrent fetch
    /// already admitted it, or the entry alone exceeds the byte budget)
    /// and appends the evicted keys to `evicted`, a caller-owned buffer
    /// (see [`ByteCapacity::charge`]).
    pub fn charge_after_fetch_into(&mut self, k: K, bytes: f64, evicted: &mut Vec<K>) -> bool {
        if self.inner.contains(&k) {
            // Concurrent fetch already admitted it; just ensure the tag.
            self.tags.insert(k, Tag::Tagged);
            return false;
        }
        let from = evicted.len();
        let admitted = self.inner.charge(k, bytes, evicted);
        self.note_evictions(&evicted[from..]);
        if admitted {
            self.tags.insert(k, Tag::Tagged);
        }
        admitted
    }

    /// Byte-charged [`TaggedCache::prefetch_insert`]: a prefetch insertion
    /// of `k` (tag: untagged, not a user access) charging `bytes`.
    /// Prefetching an already-cached item is a no-op (its tag is
    /// preserved). Returns whether the entry was newly admitted, and
    /// appends the evicted keys to `evicted`.
    pub fn charge_prefetch_into(&mut self, k: K, bytes: f64, evicted: &mut Vec<K>) -> bool {
        self.prefetch_inserts += 1;
        if self.inner.contains(&k) {
            return false;
        }
        let from = evicted.len();
        let admitted = self.inner.charge(k, bytes, evicted);
        self.note_evictions(&evicted[from..]);
        if admitted {
            self.tags.insert(k, Tag::Untagged);
        }
        admitted
    }

    /// [`TaggedCache::charge_after_fetch_into`] with a fresh buffer:
    /// whether the entry was newly admitted, and the evicted keys.
    pub fn charge_after_fetch(&mut self, k: K, bytes: f64) -> (bool, Vec<K>) {
        let mut evicted = Vec::new();
        (self.charge_after_fetch_into(k, bytes, &mut evicted), evicted)
    }

    /// [`TaggedCache::charge_prefetch_into`] with a fresh buffer.
    pub fn charge_prefetch(&mut self, k: K, bytes: f64) -> (bool, Vec<K>) {
        let mut evicted = Vec::new();
        (self.charge_prefetch_into(k, bytes, &mut evicted), evicted)
    }

    /// Occupancy of the wrapped cache in bytes.
    pub fn used_bytes(&self) -> f64 {
        self.inner.used_bytes()
    }

    /// Byte budget of the wrapped cache (`f64::INFINITY` when the cache
    /// only counts entries).
    pub fn byte_capacity(&self) -> f64 {
        self.inner.byte_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruCache;

    fn cache(cap: usize) -> TaggedCache<u32, LruCache<u32>> {
        TaggedCache::new(LruCache::new(cap))
    }

    #[test]
    fn miss_admits_tagged() {
        let mut c = cache(4);
        let (kind, evicted) = c.access(1);
        assert_eq!(kind, AccessKind::Miss);
        assert!(evicted.is_none());
        assert_eq!(c.tag(&1), Some(Tag::Tagged));
        assert_eq!(c.accesses(), 1);
        assert_eq!(c.counterfactual_hits(), 0);
    }

    #[test]
    fn prefetch_admits_untagged_without_counting() {
        let mut c = cache(4);
        c.prefetch_insert(7);
        assert_eq!(c.tag(&7), Some(Tag::Untagged));
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.prefetch_inserts(), 1);
    }

    #[test]
    fn first_touch_of_prefetched_is_not_counterfactual_hit() {
        let mut c = cache(4);
        c.prefetch_insert(7);
        let (kind, _) = c.access(7);
        assert_eq!(kind, AccessKind::HitUntagged);
        assert_eq!(c.counterfactual_hits(), 0);
        assert_eq!(c.real_hits(), 1);
        assert_eq!(c.tag(&7), Some(Tag::Tagged));
        // Second touch now counts for both.
        let (kind, _) = c.access(7);
        assert_eq!(kind, AccessKind::HitTagged);
        assert_eq!(c.counterfactual_hits(), 1);
        assert_eq!(c.real_hits(), 2);
    }

    #[test]
    fn estimator_recovers_no_prefetch_hit_ratio() {
        // Without prefetching, ĥ′ must equal the real hit ratio exactly.
        let mut c = cache(8);
        let stream = [1u32, 2, 3, 1, 2, 3, 4, 1, 9, 9];
        for &k in &stream {
            c.access(k);
        }
        assert_eq!(c.estimate_h_prime(), c.hit_ratio());
    }

    #[test]
    fn prefetching_inflates_h_but_not_h_prime() {
        // Stream where every item is prefetched just before access:
        // real hit ratio ~1, counterfactual ~0 (no natural reuse).
        let mut c = cache(8);
        for k in 0..100u32 {
            c.prefetch_insert(k);
            let (kind, _) = c.access(k);
            assert_eq!(kind, AccessKind::HitUntagged);
        }
        assert!((c.hit_ratio().unwrap() - 1.0).abs() < 1e-12);
        assert!(c.estimate_h_prime().unwrap() < 1e-12);
    }

    #[test]
    fn prefetch_of_cached_item_preserves_tag() {
        let mut c = cache(4);
        c.access(5); // tagged
        c.prefetch_insert(5);
        assert_eq!(c.tag(&5), Some(Tag::Tagged));
        let (kind, _) = c.access(5);
        assert_eq!(kind, AccessKind::HitTagged);
    }

    #[test]
    fn eviction_cleans_tag_state() {
        let mut c = cache(2);
        c.prefetch_insert(1);
        c.prefetch_insert(2);
        let evicted = c.prefetch_insert(3).unwrap();
        assert_eq!(c.tag(&evicted), None);
        let (tagged, untagged) = c.evictions_by_tag();
        assert_eq!((tagged, untagged), (0, 1));
        assert_eq!(evicted, 1);
    }

    #[test]
    fn keys_snapshot_matches_contents() {
        let mut c = cache(4);
        c.access(1);
        c.prefetch_insert(2);
        let mut keys = c.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn model_b_correction() {
        let mut c = cache(8);
        for &k in &[1u32, 2, 1, 2] {
            c.access(k);
        }
        // naccess=4, nhit=2 → ĥ′_A = 0.5; with n̄(C)=10, n̄(F)=2 → 0.625.
        assert!((c.estimate_h_prime().unwrap() - 0.5).abs() < 1e-12);
        assert!((c.estimate_h_prime_model_b(10.0, 2.0).unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_prefetch_core_estimator() {
        // The cache-level implementation and the counter state machine in
        // prefetch-core must produce identical estimates on one event
        // sequence. (Cross-crate consistency is checked again in the
        // integration suite; here we replicate the state machine inline.)
        use simcore::rng::Rng;
        let mut rng = Rng::new(5);
        let mut c = cache(16);
        // Inline replica of prefetch_core::HPrimeEstimator counting rules.
        let (mut naccess, mut nhit) = (0u64, 0u64);
        for _ in 0..5000 {
            let k = rng.below(40) as u32;
            if rng.chance(0.3) {
                c.prefetch_insert(k);
            } else {
                let (kind, _) = c.access(k);
                naccess += 1;
                if kind == AccessKind::HitTagged {
                    nhit += 1;
                }
            }
        }
        assert_eq!(c.accesses(), naccess);
        assert_eq!(c.counterfactual_hits(), nhit);
    }
}
