//! Prediction by partial matching (PPM).
//!
//! Blends Markov orders `k, k−1, …, 1, 0` with PPM-C escape probabilities:
//! the predictor starts at the longest matched context and "escapes" to
//! shorter ones with probability `d/(n+d)` (d = distinct successors, n =
//! total observations in the context). The order-0 model is the global item
//! frequency. This is the data-compression lineage the paper cites through
//! Vitter & Krishnan.

use crate::{sort_candidates, Predictor};
use simcore::hash::IdMap;
use workload::ItemId;

struct ContextStats {
    counts: IdMap<ItemId, u64>,
    total: u64,
}

impl ContextStats {
    fn new() -> Self {
        ContextStats { counts: IdMap::default(), total: 0 }
    }
    fn add(&mut self, item: ItemId) {
        *self.counts.entry(item).or_insert(0) += 1;
        self.total += 1;
    }
    /// PPM-C escape probability.
    fn escape(&self) -> f64 {
        let d = self.counts.len() as f64;
        let n = self.total as f64;
        if n + d == 0.0 {
            1.0
        } else {
            d / (n + d)
        }
    }
}

/// PPM predictor of maximum order `k`.
pub struct PpmPredictor {
    max_order: usize,
    history: Vec<ItemId>,
    /// Per order (1..=k): context → stats. Order 0 lives in `order0`.
    tables: Vec<IdMap<Vec<ItemId>, ContextStats>>,
    order0: ContextStats,
}

impl PpmPredictor {
    pub fn new(max_order: usize) -> Self {
        assert!(max_order >= 1);
        PpmPredictor {
            max_order,
            history: Vec::new(),
            tables: (0..max_order).map(|_| IdMap::default()).collect(),
            order0: ContextStats::new(),
        }
    }

    /// Blended probability distribution over next items.
    fn blended(&self) -> IdMap<ItemId, f64> {
        let mut out: IdMap<ItemId, f64> = IdMap::default();
        let mut carry = 1.0; // probability mass not yet assigned

        // From longest matched context down to order 1.
        for order in (1..=self.max_order.min(self.history.len())).rev() {
            let ctx = &self.history[self.history.len() - order..];
            if let Some(stats) = self.tables[order - 1].get(ctx) {
                if stats.total > 0 {
                    let esc = stats.escape();
                    for (&id, &c) in &stats.counts {
                        *out.entry(id).or_insert(0.0) +=
                            carry * (1.0 - esc) * c as f64 / stats.total as f64;
                    }
                    carry *= esc;
                }
            }
        }
        // Order 0: global frequencies absorb the remaining mass.
        if self.order0.total > 0 {
            for (&id, &c) in &self.order0.counts {
                *out.entry(id).or_insert(0.0) += carry * c as f64 / self.order0.total as f64;
            }
        }
        out
    }
}

impl Predictor for PpmPredictor {
    fn observe(&mut self, item: ItemId) {
        // Update every order's table with the current context suffix.
        for order in 1..=self.max_order.min(self.history.len()) {
            let ctx = self.history[self.history.len() - order..].to_vec();
            self.tables[order - 1].entry(ctx).or_insert_with(ContextStats::new).add(item);
        }
        self.order0.add(item);
        self.history.push(item);
        if self.history.len() > self.max_order {
            self.history.remove(0);
        }
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        let mut v: Vec<(ItemId, f64)> = self.blended().into_iter().collect();
        sort_candidates(&mut v, max);
        v
    }

    fn name(&self) -> &'static str {
        "ppm"
    }

    fn reset(&mut self) {
        self.history.clear();
        for t in &mut self.tables {
            t.clear();
        }
        self.order0 = ContextStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blended_probabilities_sum_to_at_most_one() {
        let mut p = PpmPredictor::new(2);
        for i in 0..200u64 {
            p.observe(ItemId(i % 7));
        }
        let total: f64 = p.blended().values().sum();
        assert!(total <= 1.0 + 1e-9, "total {total}");
        assert!(total > 0.9, "total {total}");
    }

    #[test]
    fn deterministic_pattern_yields_confident_prediction() {
        let mut p = PpmPredictor::new(2);
        for _ in 0..200 {
            for x in [1u64, 2, 3] {
                p.observe(ItemId(x));
            }
        }
        // History ends …2,3 → next is 1 with high blended probability.
        let c = p.candidates(3);
        assert_eq!(c[0].0, ItemId(1));
        assert!(c[0].1 > 0.9, "p = {}", c[0].1);
    }

    #[test]
    fn falls_back_to_frequency_for_unseen_context() {
        let mut p = PpmPredictor::new(2);
        // Learn frequencies: item 5 dominates.
        for _ in 0..50 {
            p.observe(ItemId(5));
        }
        p.observe(ItemId(9)); // rare
        p.observe(ItemId(10)); // unseen context (9,10)
        let c = p.candidates(3);
        assert!(!c.is_empty());
        assert_eq!(c[0].0, ItemId(5), "order-0 fallback should dominate: {c:?}");
    }

    #[test]
    fn escape_probability_sane() {
        let mut s = ContextStats::new();
        assert_eq!(s.escape(), 1.0);
        s.add(ItemId(1));
        // 1 distinct, 1 total → escape 1/2.
        assert!((s.escape() - 0.5).abs() < 1e-12);
        for _ in 0..98 {
            s.add(ItemId(1));
        }
        // 1 distinct, 99 total → escape 0.01.
        assert!((s.escape() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn higher_order_context_dominates_when_confident() {
        let mut p = PpmPredictor::new(2);
        // Global: 7 appears a lot. But after (1,2) the next is always 3.
        for _ in 0..100 {
            p.observe(ItemId(7));
        }
        for _ in 0..50 {
            for x in [1u64, 2, 3] {
                p.observe(ItemId(x));
            }
        }
        // Put history at (1,2).
        p.observe(ItemId(1));
        p.observe(ItemId(2));
        let c = p.candidates(2);
        assert_eq!(c[0].0, ItemId(3), "context should beat frequency: {c:?}");
    }

    #[test]
    fn reset_clears_all_orders() {
        let mut p = PpmPredictor::new(3);
        for i in 0..50u64 {
            p.observe(ItemId(i % 5));
        }
        p.reset();
        assert!(p.candidates(5).is_empty());
    }
}
