//! Miss/prefetch resolution: local knowledge → peer → origin.
//!
//! The router owns the cluster-wide view: one counting-Bloom digest per
//! proxy ([`DeltaDigest`]), an inverted *holder index* (key → advertising
//! proxies) derived from the same refresh stream, and the placement ring.
//! When proxy `me` misses on `key` it asks, in order:
//!
//! 1. the consistent-hash **owner** of the key (if its digest advertises
//!    the key) — the proxy the placement layer steers the key toward, so
//!    it is the most likely true holder;
//! 2. the first **other peer** the holder index advertises for the key,
//!    in a deterministic cyclic order starting after the owner — an O(1)
//!    lookup in the common case, replacing the O(n) digest scan;
//! 3. the **origin** otherwise.
//!
//! The advertised state refreshes on the configured epoch, by full
//! rebuild ([`Router::refresh`]) or by applying the proxies' accumulated
//! insert/evict delta streams ([`Router::apply_deltas`]); between
//! boundaries it goes stale, so a `Peer` resolution is a *claim*, not a
//! guarantee — the caller must fall back to the origin when the peer no
//! longer holds the key (the staleness false hit the `cluster` engine
//! charges for). The two refresh protocols reproduce identical advertised
//! state (pinned by `coop/tests/digest_delta.rs` and the cluster's
//! delta-parity suite); they differ only in exchange bytes, which
//! [`RouterStats::digest_bytes`] meters.
//!
//! The owner probe still goes through the Bloom digest, so structural
//! false positives on the placement owner survive exactly as before; the
//! non-owner fallback consults the holder index (exact at refresh time),
//! so it no longer manufactures peer claims out of non-owner structural
//! false positives — staleness false hits remain in full.

use crate::digest::{DeltaDigest, DeltaOp, DELTA_OP_WIRE_BYTES};
use crate::placement::Placement;
use crate::CoopConfig;
use simcore::hash::{IdMap, IdSet};

/// Where a miss (or prefetch) should be served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// No peer advertises the key: fetch from the origin.
    Origin,
    /// This peer's digest advertises the key.
    Peer(usize),
}

/// Counters describing the cooperative layer's activity over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Digest refresh rounds performed.
    pub digest_epochs: u64,
    /// Virtual nodes migrated by the placement policy.
    pub vnode_migrations: u64,
    /// Digest-exchange bytes shipped over the run: full snapshots cost
    /// `⌈m/8⌉` per proxy per boundary, deltas [`DELTA_OP_WIRE_BYTES`] per
    /// op.
    pub digest_bytes: u64,
    /// Delta ops applied ([`Router::apply_deltas`] boundaries only).
    pub delta_ops: u64,
    /// Per-proxy boundary flushes that shipped a delta stream. Together
    /// with [`RouterStats::snapshot_flushes`] this meters which side of
    /// the compaction crossover each flush landed on (the
    /// [`crate::RefreshStrategy::Auto`] decision).
    pub delta_flushes: u64,
    /// Per-proxy boundary flushes that shipped a full snapshot (full
    /// rebuilds, or `Auto` flushes past the crossover).
    pub snapshot_flushes: u64,
}

impl RouterStats {
    /// Renders the counters with the workspace JSON codec, for the
    /// machine-readable run artifacts.
    pub fn to_json(&self) -> simcore::Json {
        use simcore::Json;
        Json::obj()
            .set("digest_epochs", Json::num(self.digest_epochs as f64))
            .set("vnode_migrations", Json::num(self.vnode_migrations as f64))
            .set("digest_bytes", Json::num(self.digest_bytes as f64))
            .set("delta_ops", Json::num(self.delta_ops as f64))
            .set("delta_flushes", Json::num(self.delta_flushes as f64))
            .set("snapshot_flushes", Json::num(self.snapshot_flushes as f64))
    }
}

/// One proxy's contribution to an epoch boundary: what it puts on the
/// wire to re-advertise its cache.
///
/// Both forms leave the router advertising exactly the proxy's cache
/// contents at flush time, so the choice is purely a wire/CPU trade —
/// [`Router::apply_payloads`] accepts any per-proxy mix, which is how
/// [`crate::RefreshStrategy::Auto`] ships each proxy's cheaper form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefreshPayload {
    /// The insert/evict stream since the last boundary, in chronological
    /// order ([`DELTA_OP_WIRE_BYTES`] per op on the wire).
    Deltas(Vec<DeltaOp>),
    /// The proxy's full cache key set (`⌈m/8⌉` wire bytes as a Bloom bit
    /// projection). The router diffs it against the previously advertised
    /// set, so counting-digest state stays exactly delta-equivalent.
    Snapshot(Vec<u64>),
}

/// The cooperative routing fabric for one cluster.
pub struct Router {
    placement: Placement,
    digests: Vec<DeltaDigest>,
    /// Advertised holders per key, each list sorted by proxy index. Exact
    /// knowledge *as of the last refresh boundary* — it goes stale
    /// together with the digests, preserving the staleness-false-hit
    /// semantics.
    holders: IdMap<u64, Vec<u32>>,
    /// The exact key set each proxy currently advertises — the baseline a
    /// [`RefreshPayload::Snapshot`] is diffed against so snapshot flushes
    /// reduce to the equivalent delta ops.
    advertised: Vec<IdSet<u64>>,
    /// Proxies whose advertised state was wiped by a crash and who have
    /// not flushed a fresh payload since — their claims are void until
    /// their next digest epoch ([`Router::quarantine`]).
    quarantined: Vec<bool>,
    epoch: f64,
    next_refresh: f64,
    epochs: u64,
    digest_bytes: u64,
    delta_ops: u64,
    delta_flushes: u64,
    snapshot_flushes: u64,
}

impl Router {
    /// A router over `n_nodes` proxies whose caches hold up to
    /// `cache_capacity` entries each.
    pub fn new(n_nodes: usize, cache_capacity: usize, config: CoopConfig) -> Self {
        config.validate();
        assert!(n_nodes > 0 && cache_capacity > 0);
        let digests = (0..n_nodes)
            .map(|_| {
                DeltaDigest::for_capacity(
                    cache_capacity,
                    config.digest.bits_per_entry,
                    config.digest.hashes,
                )
            })
            .collect();
        Router {
            placement: Placement::new(n_nodes, config.vnodes, config.placement),
            digests,
            holders: IdMap::default(),
            advertised: vec![IdSet::default(); n_nodes],
            quarantined: vec![false; n_nodes],
            epoch: config.digest.epoch,
            next_refresh: config.digest.epoch,
            epochs: 0,
            digest_bytes: 0,
            delta_ops: 0,
            delta_flushes: 0,
            snapshot_flushes: 0,
        }
    }

    /// Whether a digest refresh is due at virtual time `t`.
    pub fn refresh_due(&self, t: f64) -> bool {
        t >= self.next_refresh
    }

    /// The next epoch boundary a refresh is scheduled for. Boundaries sit
    /// on the fixed grid `k · epoch`, so an event-driven host can arm a
    /// timer here and fire [`Router::refresh`] / [`Router::apply_deltas`]
    /// exactly on the grid.
    pub fn next_refresh(&self) -> f64 {
        self.next_refresh
    }

    /// Registers proxy `p` as a holder of `key` in the inverted index and
    /// the advertised-set baseline.
    fn index_insert(&mut self, p: usize, key: u64) {
        let list = self.holders.entry(key).or_default();
        if let Err(pos) = list.binary_search(&(p as u32)) {
            list.insert(pos, p as u32);
        }
        self.advertised[p].insert(key);
    }

    /// Deregisters proxy `p` as a holder of `key`.
    fn index_remove(&mut self, p: usize, key: u64) {
        if let Some(list) = self.holders.get_mut(&key) {
            if let Ok(pos) = list.binary_search(&(p as u32)) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.holders.remove(&key);
            }
        }
        self.advertised[p].remove(&key);
    }

    /// Book-keeping shared by both refresh protocols: feed the placement
    /// policy and advance along the epoch grid rather than rescheduling
    /// from `t` — `t + epoch` would inherit the overshoot of whatever
    /// event straddled the boundary, so under sparse traffic every epoch
    /// would start a little later than the last (the digest-epoch drift
    /// bug). A host that calls late skips the boundaries it already
    /// missed.
    fn finish_boundary(&mut self, t: f64, loads: &[f64]) {
        self.placement.observe_load(loads);
        self.epochs += 1;
        while self.next_refresh <= t {
            self.next_refresh += self.epoch;
        }
    }

    /// **Full rebuild** boundary: reconstructs every proxy's digest and
    /// the holder index from `contents(proxy)` and feeds the per-proxy
    /// load estimates to the placement policy. O(proxies × capacity) work
    /// and `n · ⌈m/8⌉` exchange bytes — the parity oracle for
    /// [`Router::apply_deltas`]. Call when [`Router::refresh_due`]; the
    /// next refresh stays on the epoch grid.
    pub fn refresh(&mut self, t: f64, contents: impl Fn(usize) -> Vec<u64>, loads: &[f64]) {
        self.holders.clear();
        for set in &mut self.advertised {
            set.clear();
        }
        // A full rebuild re-advertises everyone from live cache contents,
        // so any crash quarantine ends here.
        self.quarantined.fill(false);
        for proxy in 0..self.digests.len() {
            self.digests[proxy].clear();
            for key in contents(proxy) {
                self.digests[proxy].insert(key);
                self.index_insert(proxy, key);
            }
            self.digest_bytes += self.digests[proxy].snapshot_wire_bytes();
            self.snapshot_flushes += 1;
        }
        self.finish_boundary(t, loads);
    }

    /// **Delta** boundary: applies each proxy's accumulated insert/evict
    /// stream to its counting digest and the holder index, draining the
    /// buffers. O(churn) work and [`DELTA_OP_WIRE_BYTES`]·ops exchange
    /// bytes; produces advertised state identical to [`Router::refresh`]
    /// over the same cache contents.
    ///
    /// `deltas[p]` must hold proxy `p`'s ops in chronological order, one
    /// `Insert` per absent→present cache transition and one `Evict` per
    /// present→absent (the matched-pair discipline [`DeltaDigest`]
    /// asserts).
    pub fn apply_deltas(&mut self, t: f64, deltas: &mut [Vec<DeltaOp>], loads: &[f64]) {
        assert_eq!(deltas.len(), self.digests.len(), "one delta stream per proxy");
        for (proxy, buf) in deltas.iter_mut().enumerate() {
            let ops = std::mem::take(buf);
            self.flush_delta_ops(proxy, ops);
        }
        self.finish_boundary(t, loads);
    }

    /// Applies one proxy's delta flush and meters its wire cost.
    fn flush_delta_ops(&mut self, proxy: usize, ops: Vec<DeltaOp>) {
        self.quarantined[proxy] = false;
        self.digest_bytes += DELTA_OP_WIRE_BYTES * ops.len() as u64;
        self.delta_ops += ops.len() as u64;
        self.delta_flushes += 1;
        for op in ops {
            self.digests[proxy].apply(op);
            match op {
                DeltaOp::Insert(k) => self.index_insert(proxy, k),
                DeltaOp::Evict(k) => self.index_remove(proxy, k),
            }
        }
    }

    /// Applies one proxy's snapshot flush: diff against the advertised
    /// baseline, apply the equivalent ops, meter the snapshot wire cost.
    /// Leaves digest counters, holder index, and advertised set exactly as
    /// the equivalent delta flush would — the compaction fallback changes
    /// bytes, never advertised state.
    fn flush_snapshot(&mut self, proxy: usize, keys: Vec<u64>) {
        self.quarantined[proxy] = false;
        let next: IdSet<u64> = keys.into_iter().collect();
        // Sorted diffs so the op application order is a pure function of
        // the sets, not of hash iteration order.
        let mut evicted: Vec<u64> = self.advertised[proxy].difference(&next).copied().collect();
        let mut inserted: Vec<u64> = next.difference(&self.advertised[proxy]).copied().collect();
        evicted.sort_unstable();
        inserted.sort_unstable();
        for k in evicted {
            self.digests[proxy].remove(k);
            self.index_remove(proxy, k);
        }
        for k in inserted {
            self.digests[proxy].insert(k);
            self.index_insert(proxy, k);
        }
        debug_assert_eq!(self.advertised[proxy], next);
        self.digest_bytes += self.digests[proxy].snapshot_wire_bytes();
        self.snapshot_flushes += 1;
    }

    /// **Mixed-payload** boundary: applies one [`RefreshPayload`] per
    /// proxy — deltas and snapshots freely mixed, which is how
    /// [`crate::RefreshStrategy::Auto`] ships each proxy's cheaper form and how
    /// the sharded cluster driver flushes shards that built their payloads
    /// independently. `payloads` must hold exactly one entry per proxy
    /// (any order); advertised state afterwards is identical to the
    /// equivalent [`Router::apply_deltas`] boundary, only the metered wire
    /// bytes differ.
    pub fn apply_payloads(
        &mut self,
        t: f64,
        payloads: Vec<(usize, RefreshPayload)>,
        loads: &[f64],
    ) {
        assert_eq!(payloads.len(), self.digests.len(), "one payload per proxy");
        let mut payloads = payloads;
        payloads.sort_by_key(|(proxy, _)| *proxy);
        for (expect, (proxy, payload)) in payloads.into_iter().enumerate() {
            assert_eq!(proxy, expect, "payload set must cover every proxy exactly once");
            match payload {
                RefreshPayload::Deltas(ops) => self.flush_delta_ops(proxy, ops),
                RefreshPayload::Snapshot(keys) => self.flush_snapshot(proxy, keys),
            }
        }
        self.finish_boundary(t, loads);
    }

    /// Whether a delta stream of `ops` ops should fall back to a snapshot
    /// for `proxy` under [`crate::RefreshStrategy::Auto`] — true past the wire
    /// crossover [`DeltaDigest::delta_crossover_ops`].
    pub fn snapshot_cheaper(&self, proxy: usize, ops: usize) -> bool {
        ops as u64 > self.digests[proxy].delta_crossover_ops()
    }

    /// Resolves a miss/prefetch for `key` at proxy `me`: the placement
    /// owner's digest first, then the holder index in cyclic order from
    /// `owner + 1` — O(holders of `key`), not O(proxies).
    pub fn resolve(&self, me: usize, key: u64) -> Resolution {
        let n = self.digests.len();
        if n == 1 {
            return Resolution::Origin;
        }
        let owner = self.placement.owner(key);
        if owner != me && !self.quarantined[owner] && self.digests[owner].contains(key) {
            return Resolution::Peer(owner);
        }
        if let Some(list) = self.holders.get(&key) {
            let mut best: Option<(usize, usize)> = None; // (offset from owner, proxy)
            for &q in list {
                let q = q as usize;
                if q == me || q == owner || self.quarantined[q] {
                    continue;
                }
                let offset = (q + n - owner) % n;
                if best.is_none_or(|(b, _)| offset < b) {
                    best = Some((offset, q));
                }
            }
            if let Some((_, q)) = best {
                return Resolution::Peer(q);
            }
        }
        Resolution::Origin
    }

    /// The placement owner of `key` (where prefetched copies gravitate).
    pub fn owner(&self, key: u64) -> usize {
        self.placement.owner(key)
    }

    /// Proxy `p` crashed: void every claim it advertised. Its digest and
    /// advertised set are wiped, its holder-index entries removed, and the
    /// proxy is marked quarantined so [`Router::resolve`] cannot return it
    /// — the stale-holder bug where the cyclic scan handed out a peer
    /// whose cache no longer exists. The quarantine lifts at the proxy's
    /// next digest epoch (its next [`RefreshPayload`] flush or a full
    /// rebuild), when its advertised state is trustworthy again. Returns
    /// the number of advertised keys wiped.
    pub fn quarantine(&mut self, p: usize) -> u64 {
        let keys = std::mem::take(&mut self.advertised[p]);
        for key in &keys {
            if let Some(list) = self.holders.get_mut(key) {
                if let Ok(pos) = list.binary_search(&(p as u32)) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.holders.remove(key);
                }
            }
        }
        self.digests[p].clear();
        self.quarantined[p] = true;
        keys.len() as u64
    }

    /// Whether proxy `p` is quarantined (crashed and not yet re-advertised).
    pub fn is_quarantined(&self, p: usize) -> bool {
        self.quarantined[p]
    }

    /// Activity counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            digest_epochs: self.epochs,
            vnode_migrations: self.placement.migrations(),
            digest_bytes: self.digest_bytes,
            delta_ops: self.delta_ops,
            delta_flushes: self.delta_flushes,
            snapshot_flushes: self.snapshot_flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> Router {
        Router::new(n, 64, CoopConfig::default())
    }

    #[test]
    fn cold_start_goes_to_origin() {
        let r = router(4);
        for key in 0..100 {
            assert_eq!(r.resolve(0, key), Resolution::Origin);
        }
    }

    #[test]
    fn single_node_always_origin() {
        let mut r = router(1);
        r.refresh(1.0, |_| vec![7], &[0.5]);
        assert_eq!(r.resolve(0, 7), Resolution::Origin);
    }

    #[test]
    fn advertised_key_routes_to_peer() {
        let mut r = router(3);
        r.refresh(1.0, |p| if p == 2 { vec![11, 12] } else { vec![] }, &[0.0; 3]);
        assert_eq!(r.resolve(0, 11), Resolution::Peer(2));
        assert_eq!(r.resolve(1, 12), Resolution::Peer(2));
        // The holder itself does not loop back.
        assert_eq!(r.resolve(2, 11), Resolution::Origin);
    }

    #[test]
    fn owner_digest_is_consulted_first() {
        let mut r = router(4);
        let key = 42u64;
        let owner = r.owner(key);
        // Everyone advertises the key; resolution from a non-owner must
        // pick the placement owner.
        r.refresh(1.0, |_| vec![key], &[0.0; 4]);
        let me = (owner + 1) % 4;
        assert_eq!(r.resolve(me, key), Resolution::Peer(owner));
    }

    #[test]
    fn non_owner_fallback_follows_cyclic_scan_order() {
        // Multiple non-owner holders: resolution must pick the first one
        // after the owner in cyclic index order — the order the retired
        // O(n) digest scan used, now answered from the holder index.
        let n = 6;
        let mut r = router(n);
        let key = 4242u64;
        let owner = r.owner(key);
        let holder_a = (owner + 2) % n;
        let holder_b = (owner + 4) % n;
        r.refresh(
            1.0,
            |p| if p == holder_a || p == holder_b { vec![key] } else { vec![] },
            &[0.0; 6],
        );
        let me = (owner + 5) % n;
        let expect = if me == holder_a { holder_b } else { holder_a };
        assert_eq!(r.resolve(me, key), Resolution::Peer(expect));
    }

    #[test]
    fn quarantine_voids_crashed_holder_until_next_epoch() {
        // Regression: before quarantine existed, the holder-index cyclic
        // scan kept returning a crashed proxy whose cache was gone.
        let n = 4;
        let mut r = router(n);
        let key = 77u64;
        let owner = r.owner(key);
        let holder = (owner + 2) % n;
        r.refresh(5.0, |p| if p == holder { vec![key] } else { vec![] }, &[0.0; 4]);
        let me = (owner + 1) % n;
        assert_eq!(r.resolve(me, key), Resolution::Peer(holder));

        let wiped = r.quarantine(holder);
        assert_eq!(wiped, 1);
        assert!(r.is_quarantined(holder));
        assert_eq!(r.resolve(me, key), Resolution::Origin, "crashed holder must not be returned");

        // The proxy's next digest epoch re-admits it with live contents.
        let payloads = (0..n)
            .map(|p| {
                let keys = if p == holder { vec![key] } else { vec![] };
                (p, RefreshPayload::Snapshot(keys))
            })
            .collect();
        r.apply_payloads(10.0, payloads, &[0.0; 4]);
        assert!(!r.is_quarantined(holder));
        assert_eq!(r.resolve(me, key), Resolution::Peer(holder));
    }

    #[test]
    fn quarantined_owner_probe_falls_through() {
        let n = 4;
        let mut r = router(n);
        let key = 42u64;
        let owner = r.owner(key);
        let other = (owner + 2) % n;
        r.refresh(5.0, |p| if p == owner || p == other { vec![key] } else { vec![] }, &[0.0; 4]);
        let me = (owner + 1) % n;
        assert_eq!(r.resolve(me, key), Resolution::Peer(owner));
        r.quarantine(owner);
        // The owner's claim is void, but the surviving holder still serves.
        assert_eq!(r.resolve(me, key), Resolution::Peer(other));
    }

    #[test]
    fn refresh_epochs_advance() {
        let mut r = router(2);
        assert!(!r.refresh_due(1.0));
        assert!(r.refresh_due(5.0));
        r.refresh(5.0, |_| vec![], &[0.0; 2]);
        assert!(!r.refresh_due(9.0));
        assert!(r.refresh_due(10.0));
        assert_eq!(r.stats().digest_epochs, 1);
    }

    #[test]
    fn refresh_stays_on_the_epoch_grid() {
        // Default epoch is 5. A refresh handled *late* (t = 7.3, because
        // the triggering event straddled the t = 5 boundary) must still
        // schedule the next boundary at 10, not at 12.3 — epochs may not
        // drift with traffic.
        let mut r = router(2);
        assert_eq!(r.next_refresh(), 5.0);
        r.refresh(7.3, |_| vec![], &[0.0; 2]);
        assert_eq!(r.next_refresh(), 10.0);
        // Called exactly on the grid, it advances exactly one epoch.
        r.refresh(10.0, |_| vec![], &[0.0; 2]);
        assert_eq!(r.next_refresh(), 15.0);
        // A host that slept through several boundaries skips them rather
        // than firing a burst of catch-up refreshes.
        r.refresh(31.0, |_| vec![], &[0.0; 2]);
        assert_eq!(r.next_refresh(), 35.0);
    }

    #[test]
    fn stale_digest_keeps_claiming_until_refresh() {
        let mut r = router(2);
        r.refresh(5.0, |p| if p == 1 { vec![9] } else { vec![] }, &[0.0; 2]);
        // Peer 1 has since evicted key 9, but until the next refresh the
        // router still claims it — the staleness false hit.
        assert_eq!(r.resolve(0, 9), Resolution::Peer(1));
        r.refresh(10.0, |_| vec![], &[0.0; 2]);
        assert_eq!(r.resolve(0, 9), Resolution::Origin);
    }

    #[test]
    fn delta_boundary_matches_full_rebuild() {
        // Same cache history, two protocols: identical resolutions.
        let mut by_delta = router(3);
        let mut by_rebuild = router(3);
        let contents: [Vec<u64>; 3] = [vec![1, 2], vec![3], vec![]];
        by_rebuild.refresh(5.0, |p| contents[p].clone(), &[0.0; 3]);
        let mut deltas: Vec<Vec<DeltaOp>> = vec![
            vec![DeltaOp::Insert(1), DeltaOp::Insert(9), DeltaOp::Evict(9), DeltaOp::Insert(2)],
            vec![DeltaOp::Insert(3)],
            vec![],
        ];
        by_delta.apply_deltas(5.0, &mut deltas, &[0.0; 3]);
        assert!(deltas.iter().all(Vec::is_empty), "apply_deltas drains the buffers");
        for me in 0..3 {
            for key in 0..64u64 {
                assert_eq!(
                    by_delta.resolve(me, key),
                    by_rebuild.resolve(me, key),
                    "me {me} key {key}"
                );
            }
        }
    }

    #[test]
    fn snapshot_payload_matches_delta_payload_state() {
        // Same cache history flushed as a delta stream on one router and a
        // full snapshot on the other: identical resolutions afterwards, and
        // the advertised baseline tracks so a later *delta* flush composes
        // correctly on top of a snapshot flush.
        let mut by_delta = router(3);
        let mut by_snap = router(3);
        let ops =
            vec![DeltaOp::Insert(5), DeltaOp::Insert(9), DeltaOp::Evict(9), DeltaOp::Insert(2)];
        by_delta.apply_payloads(
            5.0,
            vec![
                (0, RefreshPayload::Deltas(ops)),
                (1, RefreshPayload::Deltas(vec![])),
                (2, RefreshPayload::Deltas(vec![])),
            ],
            &[0.0; 3],
        );
        by_snap.apply_payloads(
            5.0,
            vec![
                // Out of order on purpose: apply_payloads sequences by proxy.
                (2, RefreshPayload::Deltas(vec![])),
                (0, RefreshPayload::Snapshot(vec![5, 2])),
                (1, RefreshPayload::Deltas(vec![])),
            ],
            &[0.0; 3],
        );
        for me in 0..3 {
            for key in 0..64u64 {
                assert_eq!(
                    by_delta.resolve(me, key),
                    by_snap.resolve(me, key),
                    "me {me} key {key}"
                );
            }
        }
        // Second boundary: proxy 0 evicts 5, both protocols again.
        by_delta.apply_payloads(
            10.0,
            vec![
                (0, RefreshPayload::Deltas(vec![DeltaOp::Evict(5)])),
                (1, RefreshPayload::Deltas(vec![])),
                (2, RefreshPayload::Deltas(vec![])),
            ],
            &[0.0; 3],
        );
        by_snap.apply_payloads(
            10.0,
            vec![
                (0, RefreshPayload::Deltas(vec![DeltaOp::Evict(5)])),
                (1, RefreshPayload::Deltas(vec![])),
                (2, RefreshPayload::Deltas(vec![])),
            ],
            &[0.0; 3],
        );
        for me in 0..3 {
            for key in 0..64u64 {
                assert_eq!(
                    by_delta.resolve(me, key),
                    by_snap.resolve(me, key),
                    "me {me} key {key}"
                );
            }
        }
    }

    #[test]
    fn compaction_crossover_is_snapshot_over_delta_wire_cost() {
        // capacity 64 × 10 bits → m = 640 slots → 80-byte snapshot →
        // crossover at ⌊80 / 9⌋ = 8 ops.
        let r = router(2);
        assert!(!r.snapshot_cheaper(0, 8), "at the crossover deltas still win (ties go to deltas)");
        assert!(r.snapshot_cheaper(0, 9), "past the crossover the snapshot is cheaper");
        // The metered costs agree with the decision rule around the
        // boundary: 9 ops cost more wire bytes than one snapshot, 8 less.
        for (ops, cheaper) in [(8u64, false), (9, true)] {
            assert_eq!(ops * DELTA_OP_WIRE_BYTES > 80, cheaper);
        }
    }

    #[test]
    fn flush_kinds_are_metered() {
        let mut r = router(2);
        r.apply_payloads(
            5.0,
            vec![
                (0, RefreshPayload::Deltas(vec![DeltaOp::Insert(1)])),
                (1, RefreshPayload::Snapshot(vec![7, 8])),
            ],
            &[0.0; 2],
        );
        let s = r.stats();
        assert_eq!((s.delta_flushes, s.snapshot_flushes), (1, 1));
        assert_eq!(s.delta_ops, 1);
        // 1 delta op + one 80-byte snapshot (capacity 64 × 10 bits).
        assert_eq!(s.digest_bytes, DELTA_OP_WIRE_BYTES + 80);
    }

    #[test]
    fn digest_bytes_meter_full_vs_delta_cost() {
        let mut full = router(2);
        full.refresh(5.0, |_| vec![1, 2, 3], &[0.0; 2]);
        let full_bytes = full.stats().digest_bytes;
        // 64 entries × 10 bits each → 640 bits → 80 bytes per proxy.
        assert_eq!(full_bytes, 2 * 80);

        let mut delta = router(2);
        let mut ops =
            vec![vec![DeltaOp::Insert(1), DeltaOp::Insert(2), DeltaOp::Insert(3)], vec![]];
        delta.apply_deltas(5.0, &mut ops, &[0.0; 2]);
        let s = delta.stats();
        assert_eq!(s.delta_ops, 3);
        assert_eq!(s.digest_bytes, 3 * DELTA_OP_WIRE_BYTES);
        assert!(s.digest_bytes < full_bytes);
    }
}
