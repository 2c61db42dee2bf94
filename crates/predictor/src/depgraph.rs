//! Dependency-graph predictor (Padmanabhan & Mogul, 1996).
//!
//! The server-side scheme the paper cites: maintain a graph with an arc
//! `a → b` weighted by how often `b` is requested within a lookahead window
//! of `w` requests after `a`. The predicted probability of `b` following
//! the current item `a` is `count(a→b)/occurrences(a)`.
//!
//! Unlike the Markov predictor, the window captures "b follows a soon, but
//! not necessarily immediately" — the structure of page-with-embedded-
//! resources traffic.

use crate::{sort_candidates, Predictor};
use simcore::hash::IdMap;
use workload::ItemId;

/// Dependency graph with a fixed lookahead window.
pub struct DependencyGraph {
    window: usize,
    /// Recent requests, oldest first, at most `window` entries.
    recent: Vec<ItemId>,
    /// a → (b → count of b within w after a).
    arcs: IdMap<ItemId, IdMap<ItemId, u64>>,
    /// a → number of occurrences of a.
    occurrences: IdMap<ItemId, u64>,
    current: Option<ItemId>,
}

impl DependencyGraph {
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        DependencyGraph {
            window,
            recent: Vec::new(),
            arcs: IdMap::default(),
            occurrences: IdMap::default(),
            current: None,
        }
    }
}

impl Predictor for DependencyGraph {
    fn observe(&mut self, item: ItemId) {
        // The new item is a successor (within window) of each recent item.
        for &a in &self.recent {
            if a != item {
                *self.arcs.entry(a).or_default().entry(item).or_insert(0) += 1;
            }
        }
        *self.occurrences.entry(item).or_insert(0) += 1;
        self.recent.push(item);
        if self.recent.len() > self.window {
            self.recent.remove(0);
        }
        self.current = Some(item);
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        let Some(a) = self.current else {
            return Vec::new();
        };
        let occ = self.occurrences.get(&a).copied().unwrap_or(0);
        if occ == 0 {
            return Vec::new();
        }
        let Some(succ) = self.arcs.get(&a) else {
            return Vec::new();
        };
        let mut v: Vec<(ItemId, f64)> =
            succ.iter().map(|(&b, &c)| (b, (c as f64 / occ as f64).min(1.0))).collect();
        sort_candidates(&mut v, max);
        v
    }

    fn name(&self) -> &'static str {
        "depgraph"
    }

    fn reset(&mut self) {
        self.recent.clear();
        self.arcs.clear();
        self.occurrences.clear();
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The learned `P(next-window contains b | current = a)`.
    fn prob(g: &DependencyGraph, a: ItemId, b: ItemId) -> f64 {
        let occ = g.occurrences.get(&a).copied().unwrap_or(0);
        if occ == 0 {
            return 0.0;
        }
        let c = g.arcs.get(&a).and_then(|m| m.get(&b)).copied().unwrap_or(0);
        (c as f64 / occ as f64).min(1.0)
    }

    #[test]
    fn captures_within_window_dependencies() {
        let mut g = DependencyGraph::new(2);
        // Pattern: page 1, then resources 2 and 3 (3 is 2 steps later).
        for _ in 0..50 {
            g.observe(ItemId(1));
            g.observe(ItemId(2));
            g.observe(ItemId(3));
        }
        // 2 follows 1 within the window every time.
        assert!((prob(&g, ItemId(1), ItemId(2)) - 1.0).abs() < 1e-9);
        // 3 follows 1 within window 2 as well.
        assert!((prob(&g, ItemId(1), ItemId(3)) - 1.0).abs() < 0.05);
    }

    #[test]
    fn window_one_reduces_to_immediate_successor() {
        let mut g = DependencyGraph::new(1);
        for _ in 0..50 {
            g.observe(ItemId(1));
            g.observe(ItemId(2));
            g.observe(ItemId(3));
        }
        assert!(prob(&g, ItemId(1), ItemId(2)) > 0.95);
        // With window 1, 3 never directly follows 1.
        assert_eq!(prob(&g, ItemId(1), ItemId(3)), 0.0);
    }

    #[test]
    fn candidates_from_current_item() {
        let mut g = DependencyGraph::new(1);
        // 0→1 twice, 0→2 once.
        for next in [1u64, 2, 1] {
            g.observe(ItemId(0));
            g.observe(ItemId(next));
        }
        g.observe(ItemId(0));
        let c = g.candidates(5);
        assert_eq!(c[0].0, ItemId(1));
        assert!(c[0].1 > c[1].1);
        assert_eq!(c[1].0, ItemId(2));
    }

    #[test]
    fn self_loops_excluded() {
        let mut g = DependencyGraph::new(3);
        for _ in 0..20 {
            g.observe(ItemId(5));
        }
        assert_eq!(prob(&g, ItemId(5), ItemId(5)), 0.0);
        assert!(g.candidates(5).is_empty());
    }

    #[test]
    fn no_prediction_before_observation() {
        let g = DependencyGraph::new(2);
        assert!(g.candidates(5).is_empty());
    }

    #[test]
    fn probabilities_capped_at_one() {
        // An item can appear multiple times within one window; the ratio
        // must still be ≤ 1.
        let mut g = DependencyGraph::new(4);
        for _ in 0..10 {
            g.observe(ItemId(1));
            g.observe(ItemId(2));
            g.observe(ItemId(2));
            g.observe(ItemId(2));
        }
        assert!(prob(&g, ItemId(1), ItemId(2)) <= 1.0);
    }
}
