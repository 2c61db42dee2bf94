//! Stack-distance streams with a controllable LRU hit ratio.
//!
//! The paper's model takes `h′` — the no-prefetch hit ratio — as an input
//! parameter. To *sweep* `h′` in an end-to-end simulation we need request
//! streams that produce a prescribed LRU hit ratio by construction. The
//! classic tool is the LRU stack model (Mattson et al.): a request at stack
//! distance `d` hits every LRU cache of capacity `> d`.
//!
//! [`LruStackStream`] emits, with probability `target_hit`, a reference to
//! an item within the top `reuse_depth` stack positions (a guaranteed hit
//! for any LRU cache of at least that capacity), and otherwise a
//! never-seen-before item (a guaranteed miss in any cache). After warm-up
//! the measured hit ratio of an LRU(`≥ reuse_depth`) cache equals
//! `target_hit` exactly in expectation.

use crate::catalog::ItemId;
use crate::RequestStream;
use simcore::rng::Rng;

/// Stream with a designed-in LRU hit ratio.
pub struct LruStackStream {
    /// Most-recent-first stack of live items; kept at `reuse_depth` entries.
    stack: Vec<ItemId>,
    target_hit: f64,
    reuse_depth: usize,
    next_id: u64,
}

impl LruStackStream {
    /// `target_hit ∈ [0, 1)`; `reuse_depth ≥ 1` is the cache capacity the
    /// stream is calibrated for.
    pub fn new(target_hit: f64, reuse_depth: usize) -> Self {
        assert!((0.0..1.0).contains(&target_hit), "target_hit must be in [0,1)");
        assert!(reuse_depth >= 1);
        LruStackStream {
            stack: Vec::with_capacity(reuse_depth + 1),
            target_hit,
            reuse_depth,
            next_id: 0,
        }
    }

    fn fresh_item(&mut self) -> ItemId {
        let id = ItemId(self.next_id);
        self.next_id += 1;
        id
    }

    fn push_mru(&mut self, id: ItemId) {
        self.stack.insert(0, id);
        self.stack.truncate(self.reuse_depth);
    }
}

impl RequestStream for LruStackStream {
    fn next_item(&mut self, rng: &mut Rng) -> ItemId {
        let reuse = self.stack.len() >= self.reuse_depth && rng.chance(self.target_hit);
        if reuse {
            // Uniform over the top `reuse_depth` stack positions: stack
            // distance < reuse_depth → a hit in any LRU(≥reuse_depth).
            let idx = rng.index(self.reuse_depth);
            let id = self.stack.remove(idx);
            self.push_mru(id);
            id
        } else {
            let id = self.fresh_item();
            self.push_mru(id);
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Minimal LRU used only to validate the stream (the real cache lives in
    /// the `cachesim` crate, which depends on this one).
    struct MiniLru {
        cap: usize,
        order: Vec<ItemId>, // MRU-first
        set: HashSet<ItemId>,
    }

    impl MiniLru {
        fn new(cap: usize) -> Self {
            MiniLru { cap, order: Vec::new(), set: HashSet::new() }
        }
        /// Returns true on hit.
        fn access(&mut self, id: ItemId) -> bool {
            let hit = self.set.contains(&id);
            if hit {
                let pos = self.order.iter().position(|&x| x == id).unwrap();
                self.order.remove(pos);
            }
            self.order.insert(0, id);
            self.set.insert(id);
            if self.order.len() > self.cap {
                let evicted = self.order.pop().unwrap();
                self.set.remove(&evicted);
            }
            hit
        }
    }

    fn measure_hit_ratio(target: f64, depth: usize, cache_cap: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        let mut stream = LruStackStream::new(target, depth);
        let mut lru = MiniLru::new(cache_cap);
        let warmup = 2_000;
        let n = 40_000;
        let mut hits = 0usize;
        for i in 0..warmup + n {
            let id = stream.next_item(&mut rng);
            let hit = lru.access(id);
            if i >= warmup && hit {
                hits += 1;
            }
        }
        hits as f64 / n as f64
    }

    #[test]
    fn achieves_target_hit_ratio() {
        for &target in &[0.0, 0.3, 0.6, 0.9] {
            let h = measure_hit_ratio(target, 32, 32, 42);
            assert!((h - target).abs() < 0.02, "target {target}: measured {h}");
        }
    }

    #[test]
    fn bigger_cache_does_not_raise_hit_ratio() {
        // All reuses are within depth 32; extra capacity finds nothing more.
        let h32 = measure_hit_ratio(0.5, 32, 32, 7);
        let h256 = measure_hit_ratio(0.5, 32, 256, 7);
        assert!((h32 - h256).abs() < 0.02, "h32 {h32} vs h256 {h256}");
    }

    #[test]
    fn smaller_cache_lowers_hit_ratio() {
        let full = measure_hit_ratio(0.6, 64, 64, 9);
        let half = measure_hit_ratio(0.6, 64, 16, 9);
        assert!(half < full - 0.1, "full {full} vs half-capacity {half}");
    }

    #[test]
    fn zero_target_never_repeats() {
        let mut rng = Rng::new(3);
        let mut stream = LruStackStream::new(0.0, 8);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let id = stream.next_item(&mut rng);
            assert!(seen.insert(id), "item repeated under target 0");
        }
    }

    #[test]
    fn stack_stays_bounded() {
        let mut rng = Rng::new(4);
        let mut stream = LruStackStream::new(0.5, 16);
        for _ in 0..10_000 {
            stream.next_item(&mut rng);
        }
        assert!(stream.stack.len() <= 16);
    }
}
