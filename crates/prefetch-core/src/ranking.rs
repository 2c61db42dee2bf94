//! Per-key aggregate-delay accounting for delayed-hits-aware ranking.
//!
//! Under delayed hits (Atre et al., SIGCOMM 2020) the cost of missing a
//! key is not one fetch latency: every request that arrives during the
//! fetch window queues on the outstanding fetch and pays its own residual
//! wait. The *aggregate delay* of a key — full fetch latency plus the sum
//! of residual waits charged to the blocking fetch — is therefore the
//! quantity an eviction or prefetch ranking should protect, and it can
//! invert classical recency rankings: a key requested in rare dense
//! bursts outranks a steadily re-referenced one.
//!
//! [`AggregateDelay`] is the bookkeeping half: engines charge it each time
//! an outstanding fetch settles, and read back per-key scores to rank
//! eviction (via `cachesim::ValueAwareCache`, value = score) and to bias
//! the adaptive prefetch threshold. Purely keyed lookups over a hash map —
//! no iteration — so simulation results stay deterministic.

use core::hash::Hash;
use std::collections::HashMap;

/// Running per-key aggregate-delay scores, in seconds.
#[derive(Clone, Debug, Default)]
pub struct AggregateDelay<K> {
    scores: HashMap<K, f64>,
}

impl<K: Copy + Eq + Hash> AggregateDelay<K> {
    pub fn new() -> Self {
        AggregateDelay { scores: HashMap::new() }
    }

    /// Charges `delay` seconds of aggregate delay to `k` (the key whose
    /// outstanding fetch blocked the waiters). Returns the key's new
    /// score.
    pub fn charge(&mut self, k: K, delay: f64) -> f64 {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        let score = self.scores.entry(k).or_insert(0.0);
        *score += delay;
        *score
    }

    /// Accumulated aggregate delay of `k` (0 for never-charged keys).
    pub fn score(&self, k: &K) -> f64 {
        self.scores.get(k).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_accumulate_per_key() {
        let mut agg: AggregateDelay<u32> = AggregateDelay::new();
        assert_eq!(agg.score(&1), 0.0);
        assert_eq!(agg.charge(1, 0.5), 0.5);
        assert_eq!(agg.charge(1, 0.25), 0.75);
        agg.charge(2, 1.0);
        assert_eq!(agg.score(&1), 0.75);
        assert_eq!(agg.score(&2), 1.0);
    }

    #[test]
    fn bursty_key_outranks_steady_key() {
        // The ranking-inversion seed: a key fetched once with many waiters
        // accumulates more delay than one re-fetched often with none.
        let mut agg: AggregateDelay<&str> = AggregateDelay::new();
        // "bursty": one fetch, 9 waiters each waiting ~0.4 s.
        agg.charge("bursty", 0.5 + 9.0 * 0.4);
        // "steady": 4 independent fetches, no waiters.
        for _ in 0..4 {
            agg.charge("steady", 0.5);
        }
        assert!(agg.score(&"bursty") > agg.score(&"steady"));
    }
}
