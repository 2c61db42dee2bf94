//! MSHR-style outstanding-fetch table: delayed hits as a first-class
//! concept.
//!
//! At backbone latencies a miss's fetch window spans many subsequent
//! requests, so a request for a key that is *already being fetched* is
//! neither a hit nor a miss: it queues on the outstanding fetch and pays
//! the residual latency (Atre et al., SIGCOMM 2020). Hardware caches
//! track this with Miss Status Holding Registers; [`Mshr`] lifts the same
//! structure to the simulation substrate:
//!
//! * one entry per in-flight key, recording the fetch **origin**
//!   (demand or prefetch), the **issue time**, and the bytes the origin
//!   fetch will move;
//! * a FIFO **waiter queue** per entry — later demand misses for the key
//!   coalesce onto the entry instead of fetching again, and are settled
//!   in arrival order when the fetch lands;
//! * a configurable **entry budget** with a deterministic full-table
//!   policy: a demand miss that cannot allocate an entry *bypasses* the
//!   table (the fetch proceeds, untracked, so later misses cannot
//!   coalesce onto it), and a prefetch reservation is dropped;
//! * a **coalescing switch** ([`MshrConfig::coalesce`]) whose off
//!   position reproduces the resolve-each-miss-independently flow —
//!   the baseline the delayed-hits experiments compare against.
//!
//! [`TaggedCache::probe_via`] is the integration point: a §4 probe that
//! consults the table before authorising any fetch.
//!
//! ```
//! use cachesim::{LruCache, Mshr, MshrAccess, TaggedCache, Waiter};
//!
//! let mut cache = TaggedCache::new(LruCache::new(8));
//! let mut mshr: Mshr<&str> = Mshr::unbounded();
//!
//! // First miss launches the origin fetch…
//! let first = cache.probe_via(&mut mshr, "page", 0.0, 1.0, Waiter::demand(0.0));
//! assert!(matches!(first, MshrAccess::Fetch { tracked: true }));
//! // …a second request for the same key coalesces instead of refetching.
//! let second = cache.probe_via(&mut mshr, "page", 0.4, 1.0, Waiter::demand(0.4));
//! assert!(matches!(second, MshrAccess::Coalesced));
//!
//! // When the fetch lands, the entry yields its waiters in FIFO order.
//! let entry = mshr.complete(&"page").unwrap();
//! assert_eq!(entry.waiters.len(), 1);
//! assert_eq!(mshr.origin_fetches(), 1); // the key was fetched once
//! ```

use crate::tagged::{AccessKind, TaggedCache};
use crate::ReplacementCache;
use core::hash::Hash;
use simcore::hash::IdMap;

/// Who launched the outstanding fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOrigin {
    /// A demand miss.
    Demand,
    /// A speculative prefetch.
    Prefetch,
}

/// A request queued on an outstanding fetch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Waiter {
    /// Time the waiter joined the entry (its residual wait starts here).
    pub t: f64,
    /// Whether the request falls inside the measurement window.
    pub measured: bool,
    /// Trace id of the waiting request (0 when unsampled).
    pub trace: u64,
}

impl Waiter {
    /// A measured, untraced waiter — convenient for tests and doctests.
    pub fn demand(t: f64) -> Self {
        Waiter { t, measured: true, trace: 0 }
    }
}

/// Per-key state of an outstanding fetch.
#[derive(Clone, Debug)]
pub struct MshrEntry {
    /// Who launched the fetch.
    pub origin: FetchOrigin,
    /// When the fetch was issued.
    pub issued: f64,
    /// Bytes the origin fetch moves (charged once, however many waiters
    /// coalesce).
    pub bytes: f64,
    /// Requests queued on this fetch, in arrival (FIFO) order.
    pub waiters: Vec<Waiter>,
}

/// Configuration of an [`Mshr`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrConfig {
    /// Entry budget (`None` = unbounded). When the table is full, a new
    /// demand miss bypasses the table (fetches independently, untracked)
    /// and a prefetch reservation is dropped — both deterministic.
    pub entries: Option<usize>,
    /// Whether demand misses coalesce onto in-flight entries. `false`
    /// reproduces the independent-miss baseline: every miss fetches from
    /// the origin even when the key is already in flight.
    pub coalesce: bool,
}

impl Default for MshrConfig {
    fn default() -> Self {
        MshrConfig { entries: None, coalesce: true }
    }
}

/// What a demand miss should do, per the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchDecision {
    /// No entry existed and one was allocated: launch the origin fetch
    /// and [`Mshr::complete`] it when it lands.
    Launch,
    /// The key is already in flight; the request joined the entry's FIFO
    /// waiter queue and no fetch must be launched.
    Coalesced,
    /// Launch the fetch *untracked* (table full, or coalescing disabled).
    /// There is no entry to complete.
    Bypass,
}

/// Outcome of a [`TaggedCache::probe_via`] — a §4 probe that consults an
/// MSHR table before authorising a fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrAccess {
    /// Cache hit; no fetch involved.
    Hit(AccessKind),
    /// Miss on an in-flight key: coalesced onto the outstanding fetch.
    Coalesced,
    /// Miss: launch a fetch. `tracked` says whether an MSHR entry was
    /// allocated (false = bypass; do not [`Mshr::complete`] it).
    Fetch {
        /// Whether the fetch owns an MSHR entry.
        tracked: bool,
    },
}

/// The outstanding-fetch table.
pub struct Mshr<K> {
    config: MshrConfig,
    table: IdMap<K, MshrEntry>,
    demand_misses: u64,
    origin_fetches: u64,
    origin_bytes: f64,
    coalesced: u64,
    rejections: u64,
    settled_entries: u64,
    settled_waiters: u64,
    failed: u64,
}

impl<K: Copy + Eq + Hash> Mshr<K> {
    pub fn new(config: MshrConfig) -> Self {
        if let Some(n) = config.entries {
            assert!(n > 0, "MSHR entry budget must be positive");
        }
        Mshr {
            config,
            table: IdMap::default(),
            demand_misses: 0,
            origin_fetches: 0,
            origin_bytes: 0.0,
            coalesced: 0,
            rejections: 0,
            settled_entries: 0,
            settled_waiters: 0,
            failed: 0,
        }
    }

    /// An unbounded, coalescing table (the default configuration).
    pub fn unbounded() -> Self {
        Mshr::new(MshrConfig::default())
    }

    /// Whether `k` has an outstanding entry.
    pub fn contains(&self, k: &K) -> bool {
        self.table.contains_key(k)
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn has_room(&self) -> bool {
        match self.config.entries {
            Some(budget) => self.table.len() < budget,
            None => true,
        }
    }

    /// A demand miss for `k` at time `t`, moving `bytes` if it fetches.
    /// Coalesces onto an existing entry (recording `waiter`), allocates a
    /// new one, or bypasses the table — see [`FetchDecision`].
    pub fn on_demand_miss(&mut self, k: K, t: f64, bytes: f64, waiter: Waiter) -> FetchDecision {
        self.demand_misses += 1;
        if self.config.coalesce {
            if let Some(entry) = self.table.get_mut(&k) {
                entry.waiters.push(waiter);
                self.coalesced += 1;
                return FetchDecision::Coalesced;
            }
            if self.has_room() {
                self.table.insert(
                    k,
                    MshrEntry {
                        origin: FetchOrigin::Demand,
                        issued: t,
                        bytes,
                        waiters: Vec::new(),
                    },
                );
                self.origin_fetches += 1;
                self.origin_bytes += bytes;
                return FetchDecision::Launch;
            }
            self.rejections += 1;
        }
        self.origin_fetches += 1;
        self.origin_bytes += bytes;
        FetchDecision::Bypass
    }

    /// Reserves an entry for a speculative prefetch of `k`. Returns
    /// whether the prefetch should be issued: `false` when the key is
    /// already in flight (duplicate) or the table is full (the candidate
    /// is dropped — the deterministic full-table policy for speculation).
    pub fn reserve_prefetch(&mut self, k: K, t: f64, bytes: f64) -> bool {
        if self.table.contains_key(&k) {
            return false;
        }
        if !self.has_room() {
            self.rejections += 1;
            return false;
        }
        self.table.insert(
            k,
            MshrEntry { origin: FetchOrigin::Prefetch, issued: t, bytes, waiters: Vec::new() },
        );
        true
    }

    /// The fetch for `k` landed (or was cancelled): removes and returns
    /// its entry, waiters in FIFO order. `None` for untracked (bypassed)
    /// fetches, or when an earlier landing of the same key already
    /// settled the entry — any arrival of the key's data ends the wait.
    pub fn complete(&mut self, k: &K) -> Option<MshrEntry> {
        let entry = self.table.remove(k);
        if let Some(e) = &entry {
            self.settled_entries += 1;
            self.settled_waiters += e.waiters.len() as u64;
        }
        entry
    }

    /// The fetch for `k` was abandoned (timed out past its retry budget,
    /// or lost to a crash): removes and returns its entry so the caller
    /// can settle the queued waiters with a failure outcome — waiters
    /// never leak. A demand-origin entry is *reclassified*: it no longer
    /// counts as an origin fetch (the data never arrived) and instead
    /// counts toward [`Mshr::failed`], preserving the conservation law
    /// `origin_fetches + coalesced + failed == demand_misses`. Prefetch
    /// entries are simply dropped — speculative fetches were never part
    /// of the demand ledger. `None` for untracked or already-settled
    /// keys.
    /// The outstanding entry for `k`, if any — lets callers check the
    /// entry's origin and launch instant before deciding whether a
    /// pending failure settlement still refers to it (a crash may have
    /// drained the table, or a newer fetch generation may own the slot).
    pub fn entry(&self, k: &K) -> Option<&MshrEntry> {
        self.table.get(k)
    }

    pub fn fail(&mut self, k: &K) -> Option<MshrEntry> {
        let entry = self.table.remove(k)?;
        if entry.origin == FetchOrigin::Demand {
            self.failed += 1;
            self.origin_fetches -= 1;
            self.origin_bytes -= entry.bytes;
        }
        Some(entry)
    }

    /// An *untracked* (bypassed) demand fetch was abandoned: reclassify
    /// it from origin fetch to failure, refunding `bytes`, exactly as
    /// [`Mshr::fail`] does for tracked entries.
    pub fn fail_untracked(&mut self, bytes: f64) {
        self.failed += 1;
        self.origin_fetches -= 1;
        self.origin_bytes -= bytes;
    }

    /// Origin fetches authorised (tracked launches + bypasses): how many
    /// times key data was actually requested from upstream.
    pub fn origin_fetches(&self) -> u64 {
        self.origin_fetches
    }

    /// Bytes moved by the authorised origin fetches. Coalesced waiters
    /// charge nothing — an entry's bytes are fetched once regardless of
    /// waiter count.
    pub fn origin_bytes(&self) -> f64 {
        self.origin_bytes
    }

    /// Demand misses absorbed by coalescing (waiter joins).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Allocations refused by the entry budget (demand bypasses that hit
    /// a full table, plus dropped prefetch reservations).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Entries settled via [`Mshr::complete`].
    pub fn settled_entries(&self) -> u64 {
        self.settled_entries
    }

    /// Waiters released by settled entries.
    pub fn settled_waiters(&self) -> u64 {
        self.settled_waiters
    }

    /// Mean waiters per settled entry (the waiter-depth aggregate).
    pub fn waiter_depth_mean(&self) -> Option<f64> {
        (self.settled_entries > 0)
            .then(|| self.settled_waiters as f64 / self.settled_entries as f64)
    }

    /// Demand misses that ended in failure (see [`Mshr::fail`]).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Demand misses presented to the table, whatever their outcome.
    pub fn demand_misses(&self) -> u64 {
        self.demand_misses
    }

    /// The extended conservation law: every demand miss either launched a
    /// fetch that (eventually) succeeds, coalesced onto one, or failed.
    pub fn conservation_ok(&self) -> bool {
        self.origin_fetches + self.coalesced + self.failed == self.demand_misses
    }
}

impl<K: Copy + Eq + Hash + Ord> Mshr<K> {
    /// Drains every outstanding entry — a node crash loses the table
    /// wholesale. Demand-origin entries reclassify as failures exactly as
    /// in [`Mshr::fail`]; the survivors' waiters are returned (sorted by
    /// key, so crash settlement order is deterministic) for the caller to
    /// settle with a failure outcome.
    pub fn drain_failed(&mut self) -> Vec<(K, MshrEntry)> {
        let mut drained: Vec<(K, MshrEntry)> = self.table.drain().collect();
        drained.sort_by_key(|(k, _)| *k);
        for (_, entry) in &drained {
            if entry.origin == FetchOrigin::Demand {
                self.failed += 1;
                self.origin_fetches -= 1;
                self.origin_bytes -= entry.bytes;
            }
        }
        drained
    }
}

impl<K: Copy + Eq + Hash, C: ReplacementCache<K>> TaggedCache<K, C> {
    /// A §4 probe that consults an MSHR outstanding-fetch table before
    /// authorising any fetch: hits behave exactly like
    /// [`TaggedCache::probe`]; a miss on an in-flight key joins the
    /// entry's FIFO waiter queue (recording `waiter`) instead of fetching
    /// again. Counter updates are identical to [`TaggedCache::probe`].
    pub fn probe_via(
        &mut self,
        mshr: &mut Mshr<K>,
        k: K,
        t: f64,
        bytes: f64,
        waiter: Waiter,
    ) -> MshrAccess {
        match self.probe(k) {
            AccessKind::Miss => match mshr.on_demand_miss(k, t, bytes, waiter) {
                FetchDecision::Launch => MshrAccess::Fetch { tracked: true },
                FetchDecision::Coalesced => MshrAccess::Coalesced,
                FetchDecision::Bypass => MshrAccess::Fetch { tracked: false },
            },
            kind => MshrAccess::Hit(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiters_settle_in_fifo_order() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        assert_eq!(m.on_demand_miss(7, 0.0, 2.0, Waiter::demand(0.0)), FetchDecision::Launch);
        for i in 1..=4 {
            let w = Waiter { t: i as f64, measured: i % 2 == 0, trace: i };
            assert_eq!(m.on_demand_miss(7, w.t, 2.0, w), FetchDecision::Coalesced);
        }
        let entry = m.complete(&7).unwrap();
        assert_eq!(entry.origin, FetchOrigin::Demand);
        let joined: Vec<u64> = entry.waiters.iter().map(|w| w.trace).collect();
        assert_eq!(joined, vec![1, 2, 3, 4]);
        assert_eq!(m.coalesced(), 4);
        assert_eq!(m.settled_waiters(), 4);
        assert_eq!(m.waiter_depth_mean(), Some(4.0));
    }

    #[test]
    fn origin_bytes_charged_once_per_entry() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        m.on_demand_miss(1, 0.0, 10.0, Waiter::demand(0.0));
        for _ in 0..100 {
            m.on_demand_miss(1, 0.5, 10.0, Waiter::demand(0.5));
        }
        assert_eq!(m.origin_fetches(), 1);
        assert_eq!(m.origin_bytes(), 10.0);
    }

    #[test]
    fn full_table_bypasses_demand_and_drops_prefetch() {
        let mut m: Mshr<u32> = Mshr::new(MshrConfig { entries: Some(2), coalesce: true });
        assert_eq!(m.on_demand_miss(1, 0.0, 1.0, Waiter::demand(0.0)), FetchDecision::Launch);
        assert!(m.reserve_prefetch(2, 0.0, 1.0));
        // Table full: new keys bypass (demand) or are dropped (prefetch)…
        assert_eq!(m.on_demand_miss(3, 0.1, 1.0, Waiter::demand(0.1)), FetchDecision::Bypass);
        assert!(!m.reserve_prefetch(4, 0.1, 1.0));
        assert_eq!(m.rejections(), 2);
        // …while in-flight keys still coalesce.
        assert_eq!(m.on_demand_miss(1, 0.2, 1.0, Waiter::demand(0.2)), FetchDecision::Coalesced);
        // A bypassed fetch has no entry to complete.
        assert!(m.complete(&3).is_none());
        assert!(m.complete(&1).is_some());
        // Room again: allocation resumes deterministically.
        assert_eq!(m.on_demand_miss(3, 0.3, 1.0, Waiter::demand(0.3)), FetchDecision::Launch);
    }

    #[test]
    fn independent_mode_never_coalesces() {
        let mut m: Mshr<u32> = Mshr::new(MshrConfig { entries: None, coalesce: false });
        // Prefetch reservations are still tracked (dedupe)…
        assert!(m.reserve_prefetch(9, 0.0, 1.0));
        assert!(!m.reserve_prefetch(9, 0.1, 1.0));
        // …but demand misses always fetch, even for in-flight keys.
        assert_eq!(m.on_demand_miss(9, 0.2, 1.0, Waiter::demand(0.2)), FetchDecision::Bypass);
        assert_eq!(m.on_demand_miss(9, 0.3, 1.0, Waiter::demand(0.3)), FetchDecision::Bypass);
        assert_eq!(m.origin_fetches(), 2);
        assert_eq!(m.coalesced(), 0);
        assert!(m.complete(&9).unwrap().waiters.is_empty());
    }

    #[test]
    fn failed_fetch_settles_waiters_and_keeps_conservation() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        m.on_demand_miss(7, 0.0, 4.0, Waiter::demand(0.0));
        m.on_demand_miss(7, 0.3, 4.0, Waiter::demand(0.3));
        m.on_demand_miss(8, 0.1, 2.0, Waiter::demand(0.1));
        assert!(m.conservation_ok());
        // Key 7's fetch exhausts its retry budget: the entry reclassifies
        // (no origin fetch happened) and its waiter comes back to settle.
        let entry = m.fail(&7).unwrap();
        assert_eq!(entry.origin, FetchOrigin::Demand);
        assert_eq!(entry.waiters.len(), 1);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.origin_fetches(), 1);
        assert_eq!(m.origin_bytes(), 2.0);
        assert_eq!(m.demand_misses(), 3);
        assert!(m.conservation_ok());
        // Double-fail is inert, like a duplicate completion.
        assert!(m.fail(&7).is_none());
        assert!(m.complete(&8).is_some());
        assert!(m.conservation_ok());
    }

    #[test]
    fn failed_prefetch_drops_without_reclassification() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        assert!(m.reserve_prefetch(5, 0.0, 3.0));
        m.on_demand_miss(5, 0.2, 3.0, Waiter::demand(0.2));
        let entry = m.fail(&5).unwrap();
        assert_eq!(entry.origin, FetchOrigin::Prefetch);
        assert_eq!(entry.waiters.len(), 1);
        // Prefetches never joined the demand ledger, so nothing moves —
        // but the coalesced waiter keeps the law balanced.
        assert_eq!(m.failed(), 0);
        assert_eq!(m.origin_fetches(), 0);
        assert!(m.conservation_ok());
    }

    #[test]
    fn untracked_failure_reclassifies_bypass() {
        let mut m: Mshr<u32> = Mshr::new(MshrConfig { entries: Some(1), coalesce: true });
        m.on_demand_miss(1, 0.0, 1.0, Waiter::demand(0.0));
        assert_eq!(m.on_demand_miss(2, 0.1, 5.0, Waiter::demand(0.1)), FetchDecision::Bypass);
        m.fail_untracked(5.0);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.origin_fetches(), 1);
        assert_eq!(m.origin_bytes(), 1.0);
        assert!(m.conservation_ok());
    }

    #[test]
    fn crash_drain_is_sorted_and_reclassifies_demand_entries() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        m.on_demand_miss(9, 0.0, 2.0, Waiter::demand(0.0));
        m.on_demand_miss(3, 0.1, 2.0, Waiter::demand(0.1));
        assert!(m.reserve_prefetch(6, 0.2, 1.0));
        let drained = m.drain_failed();
        let keys: Vec<u32> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 6, 9]);
        assert!(m.is_empty());
        assert_eq!(m.failed(), 2);
        assert_eq!(m.origin_fetches(), 0);
        assert_eq!(m.origin_bytes(), 0.0);
        assert!(m.conservation_ok());
    }

    #[test]
    fn duplicate_landing_settles_nothing() {
        let mut m: Mshr<u32> = Mshr::unbounded();
        m.on_demand_miss(5, 0.0, 1.0, Waiter::demand(0.0));
        assert!(m.complete(&5).is_some());
        assert!(m.complete(&5).is_none());
        assert_eq!(m.settled_entries(), 1);
    }
}
