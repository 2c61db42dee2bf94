//! # cachesim — the cache substrate
//!
//! The paper's prefetch–cache interaction (§2.2) needs real caches to
//! validate against. This crate provides:
//!
//! * [`ReplacementCache`] — the policy trait, over generic keys;
//! * [`lru`], [`lfu`], [`fifo`], [`clock`], [`random`] — classic
//!   replacement policies (LRU in O(1) via an intrusive list);
//! * [`value_aware`] — an oracle cache that evicts the *least valuable*
//!   entry given an external value function: the simulated counterpart of
//!   the paper's interaction models (evict zero-value ⇒ model A, evict
//!   uniformly ⇒ model B);
//! * [`tagged`] — a wrapper implementing the paper's §4 tagged/untagged
//!   algorithm for estimating `h′` (the hit ratio the cache *would* have
//!   without prefetching) while prefetching is live;
//! * [`mshr`] — an MSHR-style outstanding-fetch table making *delayed
//!   hits* first class: misses for in-flight keys coalesce onto the
//!   outstanding fetch's FIFO waiter queue instead of fetching again
//!   ([`TaggedCache::probe_via`] consults it before any fetch).
//!
//! All policies are deterministic data structures (the [`random`] policy
//! owns a seeded PRNG), so simulations remain reproducible.
//!
//! ## Byte-addressed capacity
//!
//! The paper's network-load curves are denominated in *bytes*, so caches
//! that count items misstate occupancy under heterogeneous object sizes.
//! Policies that also implement [`ByteCapacity`] (LRU, FIFO — and
//! [`TaggedCache`] over either) carry a second budget in bytes:
//! [`ByteCapacity::charge`] admits a key with an explicit size and evicts
//! in policy order until **both** the entry-count and the byte budgets
//! hold, appending every victim to a caller-owned buffer (byte-driven
//! eviction can claim several).
//! With an unbounded byte budget (the plain constructors) `charge`
//! reproduces [`ReplacementCache::insert`] exactly, so item-counted
//! simulations are the degenerate case, not a separate code path.

pub mod clock;
pub mod fifo;
pub mod gdsf;
pub mod lfu;
pub mod lru;
pub mod mshr;
pub mod random;
pub mod slru;
pub mod tagged;
pub mod value_aware;

pub use clock::ClockCache;
pub use fifo::FifoCache;
pub use gdsf::GdsfCache;
pub use lfu::LfuCache;
pub use lru::LruCache;
pub use mshr::{FetchDecision, FetchOrigin, Mshr, MshrAccess, MshrConfig, MshrEntry, Waiter};
pub use random::RandomCache;
pub use slru::SlruCache;
pub use tagged::{AccessKind, Tag, TaggedCache};
pub use value_aware::ValueAwareCache;

use core::hash::Hash;

/// A bounded cache of keys under some replacement policy.
///
/// The cache stores keys only; values (item bytes) are irrelevant to the
/// replacement behaviour being studied, and sizes are tracked by the
/// simulators. All policies implement the same four operations:
pub trait ReplacementCache<K: Copy + Eq + Hash> {
    /// Maximum number of entries.
    fn capacity(&self) -> usize;

    /// Current number of entries.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `k` is cached.
    fn contains(&self, k: &K) -> bool;

    /// Records a user access to `k` **if present** (updating
    /// recency/frequency metadata). Returns `true` on hit. Does *not*
    /// admit missing keys — call [`ReplacementCache::insert`] for that.
    fn touch(&mut self, k: K) -> bool;

    /// Admits `k`, evicting if full; returns the evicted key, if any.
    /// Inserting a present key refreshes its metadata and evicts nothing.
    fn insert(&mut self, k: K) -> Option<K>;

    /// Removes a specific key; returns whether it was present.
    fn remove(&mut self, k: &K) -> bool;

    /// Snapshot of the cached keys (order unspecified).
    fn keys(&self) -> Vec<K>;
}

/// A cache with a second budget denominated in bytes.
///
/// Implementors keep the [`ReplacementCache`] entry-count budget *and* a
/// byte budget: an admission via [`ByteCapacity::charge`] evicts (in the
/// policy's usual order) until both hold, so occupancy in bytes never
/// exceeds [`ByteCapacity::byte_capacity`] — the invariant the byte-
/// accounting proptests pin. Keys admitted through the size-oblivious
/// [`ReplacementCache::insert`] are charged zero bytes.
pub trait ByteCapacity<K: Copy + Eq + Hash>: ReplacementCache<K> {
    /// Maximum occupancy in bytes (`f64::INFINITY` when unconstrained).
    fn byte_capacity(&self) -> f64;

    /// Current occupancy in bytes.
    fn used_bytes(&self) -> f64;

    /// Bytes currently charged for `k`, if cached.
    fn entry_bytes(&self, k: &K) -> Option<f64>;

    /// Admits `k` charging `bytes`, evicting in policy order until both
    /// the entry-count and the byte budgets hold. Charging a present key
    /// refreshes its replacement metadata (like
    /// [`ReplacementCache::insert`]) and re-charges its size. An entry
    /// larger than the whole byte budget is rejected, never admitted (and
    /// a previously cached copy is evicted).
    ///
    /// Returns whether `k` resides in the cache afterwards, and *appends*
    /// the evicted keys to `evicted` in the policy's eviction order — the
    /// buffer is the caller's, so a simulation loop reuses one allocation
    /// for every admission.
    fn charge(&mut self, k: K, bytes: f64, evicted: &mut Vec<K>) -> bool;
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every policy.
    use super::*;

    pub fn basic_fill_and_evict<C: ReplacementCache<u32>>(mut c: C) {
        assert_eq!(c.capacity(), 3);
        assert!(c.is_empty());
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.insert(3), None);
        assert_eq!(c.len(), 3);
        let evicted = c.insert(4);
        assert!(evicted.is_some());
        assert_eq!(c.len(), 3);
        assert!(c.contains(&4));
        assert!(!c.contains(&evicted.unwrap()));
    }

    pub fn reinsert_does_not_evict<C: ReplacementCache<u32>>(mut c: C) {
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.len(), 3);
    }

    pub fn remove_frees_space<C: ReplacementCache<u32>>(mut c: C) {
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.remove(&2));
        assert!(!c.remove(&2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(9), None);
    }

    pub fn touch_only_hits_present<C: ReplacementCache<u32>>(mut c: C) {
        assert!(!c.touch(7));
        c.insert(7);
        assert!(c.touch(7));
        assert_eq!(c.len(), 1);
    }

    pub fn keys_are_consistent<C: ReplacementCache<u32>>(mut c: C) {
        for k in 0..3 {
            c.insert(k);
        }
        let mut keys = c.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2]);
    }
}
