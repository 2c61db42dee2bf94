//! Bloom-filter cache summaries ("digests"), plus the incremental delta
//! protocol that keeps them fresh without full rebuilds.
//!
//! Each proxy periodically advertises a summary of the keys it caches
//! (Fan et al.'s summary-cache scheme). Peers answer membership queries
//! against the *advertised* summary, which has two error modes:
//!
//! * **structural false positives** — the Bloom filter itself, bounded by
//!   `(1 − e^{−kn/m})^k` ([`DigestConfig::fp_bound`], pinned by proptest);
//! * **staleness false hits** — the filter was true at refresh time but
//!   the peer has since evicted the entry. The digest layer cannot see
//!   these; the router absorbs them by falling back to the origin.
//!
//! Filters use double hashing (Kirsch–Mitzenmacher): two independent
//! 64-bit mixes give `k` probe positions `h1 + i·h2 (mod m)`.
//!
//! ## Full rebuilds vs deltas
//!
//! Two refresh protocols produce the advertised state ([`RefreshStrategy`]):
//!
//! * **Full rebuild** — at every epoch boundary each proxy ships its whole
//!   summary (`m/8` bytes) rebuilt from its live cache. O(capacity) work
//!   and bytes per proxy per boundary: the scaling wall at wide fabrics.
//! * **Deltas** — each proxy accumulates a [`DeltaOp`] per cache *change*
//!   (insert or evict) between boundaries and ships only that stream
//!   ([`DELTA_OP_WIRE_BYTES`] per op). The receiver maintains a
//!   counting-Bloom [`DeltaDigest`] per proxy, which supports `remove`,
//!   so applying the stream reproduces — *exactly* — the membership
//!   answers a from-scratch rebuild would give: a slot's count equals the
//!   number of currently cached keys probing it, hence `count > 0` iff a
//!   rebuilt bitwise filter would have the bit set. The equivalence is
//!   pinned by proptest over arbitrary insert/evict/flush interleavings
//!   (`coop/tests/digest_delta.rs`).
//!
//! Both protocols refresh on the same epoch grid, so the *staleness*
//! semantics are identical: between boundaries the advertised state does
//! not move, and a peer that evicted an entry mid-epoch still advertises
//! it until the next flush. Deltas change the exchange *cost*, not the
//! error model.

use simcore::rng::splitmix64;

/// Sizing and cadence of the digest exchange.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DigestConfig {
    /// Virtual-time interval between digest refreshes. Longer epochs cost
    /// less exchange traffic but raise the staleness false-hit rate.
    pub epoch: f64,
    /// Bloom bits provisioned per cached entry (`m/n`).
    pub bits_per_entry: usize,
    /// Number of probe positions `k`.
    pub hashes: usize,
}

impl DigestConfig {
    pub(crate) fn validate(&self) {
        assert!(self.epoch > 0.0 && self.epoch.is_finite(), "digest epoch must be positive");
        assert!(self.bits_per_entry >= 1, "need at least one bit per entry");
        assert!(self.hashes >= 1, "need at least one hash");
    }

    /// The structural false-positive bound at full provisioned occupancy:
    /// `(1 − e^{−k/(m/n)})^k`.
    pub fn fp_bound(&self) -> f64 {
        let k = self.hashes as f64;
        (1.0 - (-k / self.bits_per_entry as f64).exp()).powf(k)
    }

    /// Wire bytes of one full snapshot for a cache of `capacity` entries
    /// under this sizing — `⌈m/8⌉` with `m = capacity · bits_per_entry`
    /// (floored at the 64-slot minimum every digest is provisioned with).
    pub fn snapshot_wire_bytes(&self, capacity: usize) -> u64 {
        provision(capacity, self.bits_per_entry).div_ceil(8)
    }

    /// The delta-stream length at which a snapshot becomes the cheaper
    /// flush for a cache of `capacity` entries — `capacity · bits / 8 / 9`
    /// ops (snapshot bytes over [`DELTA_OP_WIRE_BYTES`]). A stream of
    /// **more** than this many ops costs more wire bytes than shipping the
    /// whole bit projection.
    pub fn delta_crossover_ops(&self, capacity: usize) -> u64 {
        self.snapshot_wire_bytes(capacity) / DELTA_OP_WIRE_BYTES
    }
}

/// How routers regenerate the advertised digests at epoch boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefreshStrategy {
    /// Ship only the insert/evict stream accumulated since the last
    /// boundary ([`Router::apply_deltas`]): O(churn) work and bytes. The
    /// production path.
    ///
    /// [`Router::apply_deltas`]: crate::Router::apply_deltas
    #[default]
    Deltas,
    /// Rebuild and ship every proxy's full summary from its live cache
    /// contents ([`Router::refresh`]): O(capacity) per proxy per boundary.
    /// Retained as the parity oracle the delta path is pinned against
    /// (mirroring the `cluster::legacy` scan-driver pattern).
    ///
    /// [`Router::refresh`]: crate::Router::refresh
    FullRebuild,
    /// Per proxy, per boundary: ship whichever is cheaper on the wire —
    /// the delta stream, or a full snapshot once the stream has outgrown
    /// it. The crossover is [`DigestConfig::delta_crossover_ops`]
    /// (`⌈m/8⌉ / 9` ops, i.e. `capacity · bits / 8 / 9` at standard
    /// provisioning — the point E16 measures): below it a delta flush is
    /// strictly smaller, above it the snapshot is, so `Auto` never ships
    /// more than `min(churn · 9, ⌈m/8⌉)` bytes per proxy per epoch.
    /// Advertised state is identical to both other strategies either way.
    Auto,
}

/// Wire cost of one [`DeltaOp`]: an 8-byte key plus a 1-byte opcode.
pub const DELTA_OP_WIRE_BYTES: u64 = 9;

/// One cache-content change, as shipped in a digest delta stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// The key entered the proxy's cache (demand admit or prefetch).
    Insert(u64),
    /// The key left the proxy's cache (eviction or removal).
    Evict(u64),
}

/// The two Kirsch–Mitzenmacher mixes shared by every digest flavour, so a
/// delta-maintained [`DeltaDigest`] and a rebuilt [`BloomFilter`] probe
/// identical positions for the same key.
#[inline]
fn probes(key: u64) -> (u64, u64) {
    let mut s = key;
    let h1 = splitmix64(&mut s);
    // Odd stride so successive probes cycle through distinct bits.
    let h2 = splitmix64(&mut s) | 1;
    (h1, h2)
}

/// Slot width `m` for a filter provisioned at `capacity × bits_per_entry`.
#[inline]
fn provision(capacity: usize, bits_per_entry: usize) -> u64 {
    (capacity * bits_per_entry).max(64) as u64
}

/// A fixed-size Bloom filter over `u64` keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    words: Vec<u64>,
    m: u64,
    k: u32,
}

impl BloomFilter {
    /// A filter provisioned for `capacity` entries at `bits_per_entry`
    /// bits each, probed with `hashes` positions.
    pub fn for_capacity(capacity: usize, bits_per_entry: usize, hashes: usize) -> Self {
        assert!(capacity > 0 && bits_per_entry > 0 && hashes > 0);
        let m = provision(capacity, bits_per_entry);
        BloomFilter { words: vec![0; m.div_ceil(64) as usize], m, k: hashes as u32 }
    }

    /// Sets the key's probe bits.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = probes(key);
        for i in 0..self.k {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Whether all probe bits are set (no false negatives; false positives
    /// at the [`DigestConfig::fp_bound`] rate at capacity).
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = probes(key);
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }
}

/// A counting-Bloom digest: the delta-maintainable twin of [`BloomFilter`].
///
/// Each of the `m` positions holds a counter instead of a bit, so a key
/// can be [`DeltaDigest::remove`]d again: every slot counts how many live
/// keys probe it, and membership is "all probe slots non-zero". Because
/// the probe scheme is shared with [`BloomFilter`], a delta-maintained
/// `DeltaDigest` answers [`DeltaDigest::contains`] identically to a
/// bitwise filter rebuilt from the same key set — including the
/// structural false positives.
///
/// Counters never underflow under the delta protocol's discipline (one
/// `Insert` per absent→present transition, one `Evict` per
/// present→absent); [`DeltaDigest::remove`] asserts it, so a protocol
/// violation fails loudly instead of corrupting membership.
#[derive(Clone, Debug)]
pub struct DeltaDigest {
    counts: Vec<u16>,
    m: u64,
    k: u32,
    live: u64,
}

impl DeltaDigest {
    /// A digest provisioned for `capacity` entries at `bits_per_entry`
    /// slots each, probed with `hashes` positions — the same geometry as
    /// [`BloomFilter::for_capacity`].
    pub fn for_capacity(capacity: usize, bits_per_entry: usize, hashes: usize) -> Self {
        assert!(capacity > 0 && bits_per_entry > 0 && hashes > 0);
        let m = provision(capacity, bits_per_entry);
        DeltaDigest { counts: vec![0; m as usize], m, k: hashes as u32, live: 0 }
    }

    /// Increments the key's probe slots.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = probes(key);
        for i in 0..self.k {
            let slot = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            // Saturate rather than wrap: 2^16 colliding keys per slot is
            // far beyond any provisioned occupancy, and saturating only
            // risks a stale-positive, never a false negative.
            let c = &mut self.counts[slot as usize];
            *c = c.saturating_add(1);
        }
        self.live += 1;
    }

    /// Decrements the key's probe slots (the key must have been inserted
    /// and not yet removed — the delta protocol's matched-pair
    /// discipline).
    pub fn remove(&mut self, key: u64) {
        let (h1, h2) = probes(key);
        for i in 0..self.k {
            let slot = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            let c = &mut self.counts[slot as usize];
            assert!(*c > 0, "DeltaDigest underflow: removed key {key} was never inserted");
            *c -= 1;
        }
        assert!(self.live > 0, "DeltaDigest underflow: more removes than inserts");
        self.live -= 1;
    }

    /// Applies one delta op.
    pub fn apply(&mut self, op: DeltaOp) {
        match op {
            DeltaOp::Insert(k) => self.insert(k),
            DeltaOp::Evict(k) => self.remove(k),
        }
    }

    /// Whether all probe slots are non-zero — bit-for-bit the answer a
    /// [`BloomFilter`] rebuilt from the current key set would give.
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = probes(key);
        (0..self.k).all(|i| {
            let slot = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            self.counts[slot as usize] > 0
        })
    }

    /// Empties the digest (full-rebuild boundaries).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.live = 0;
    }

    /// Keys currently summarised (inserts minus removes).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Wire size of the *advertised* form: peers only need the bit
    /// projection (`count > 0`), so a full snapshot ships `⌈m/8⌉` bytes
    /// regardless of how the sender maintains its counters.
    pub fn snapshot_wire_bytes(&self) -> u64 {
        self.m.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_capacity(256, 10, 4);
        for key in (0..256u64).map(|k| k * 7 + 3) {
            f.insert(key);
        }
        for key in (0..256u64).map(|k| k * 7 + 3) {
            assert!(f.contains(key), "inserted key {key} missing");
        }
    }

    #[test]
    fn fp_rate_tracks_analytic_bound() {
        // 10 bits/entry, 4 hashes → bound ≈ 1.2%.
        let mut f = BloomFilter::for_capacity(1_000, 10, 4);
        for key in 0..1_000u64 {
            f.insert(key);
        }
        let false_positives =
            (1_000_000..1_100_000u64).filter(|&k| f.contains(k)).count() as f64 / 100_000.0;
        let bound = DigestConfig { epoch: 1.0, bits_per_entry: 10, hashes: 4 }.fp_bound();
        assert!(bound < 0.02, "bound {bound}");
        assert!(false_positives < 2.0 * bound + 0.005, "fp {false_positives} vs bound {bound}");
    }

    #[test]
    fn delta_digest_matches_bitwise_filter_on_same_keys() {
        let mut bits = BloomFilter::for_capacity(512, 10, 4);
        let mut counts = DeltaDigest::for_capacity(512, 10, 4);
        for key in (0..512u64).map(|k| k * 13 + 5) {
            bits.insert(key);
            counts.insert(key);
        }
        // Membership answers — including structural false positives — are
        // identical across a wide probe range.
        for probe in 0..50_000u64 {
            assert_eq!(bits.contains(probe), counts.contains(probe), "probe {probe}");
        }
    }

    #[test]
    fn delta_digest_remove_restores_absence() {
        let mut d = DeltaDigest::for_capacity(64, 10, 4);
        d.insert(7);
        d.insert(8);
        assert!(d.contains(7));
        d.remove(7);
        assert!(!d.contains(7), "removed key still reported present");
        assert!(d.contains(8));
        assert_eq!(d.live(), 1);
    }

    #[test]
    fn delta_digest_overlapping_keys_keep_shared_slots() {
        // Two keys may share probe slots; removing one must not erase the
        // other's membership.
        let mut d = DeltaDigest::for_capacity(2, 1, 4); // tiny m forces overlap
        d.insert(1);
        d.insert(2);
        d.remove(1);
        assert!(d.contains(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn delta_digest_remove_of_never_inserted_key_panics() {
        let mut d = DeltaDigest::for_capacity(64, 10, 4);
        d.insert(1);
        d.remove(999_999);
    }

    #[test]
    fn snapshot_wire_bytes_is_bit_projection_size() {
        let d = DeltaDigest::for_capacity(100, 10, 4);
        assert_eq!(d.snapshot_wire_bytes(), d.m.div_ceil(8));
    }
}
