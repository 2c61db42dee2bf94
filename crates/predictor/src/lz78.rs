//! LZ78 parse-tree predictor (Vitter & Krishnan, FOCS 1991).
//!
//! The stream is parsed into LZ78 phrases; each phrase extends a parse-tree
//! path by one symbol. Prediction walks the tree alongside the stream: at
//! the current node, the children's visit counts give the conditional
//! distribution of the next symbol. Vitter & Krishnan showed this predictor
//! is asymptotically optimal when the source is a finite-state Markov
//! process — the theoretical anchor of the paper's "access models" lineage.

use crate::{sort_candidates, Predictor};
use simcore::hash::IdMap;
use workload::ItemId;

/// Node index in the parse tree.
type NodeId = usize;

/// LZ78 incremental parse-tree predictor.
pub struct Lz78Predictor {
    /// Edges: (node, symbol) → child node.
    edges: IdMap<(NodeId, ItemId), NodeId>,
    /// children[node] = (symbol → visit count of that edge).
    children: Vec<IdMap<ItemId, u64>>,
    /// Total edge traversals out of each node.
    totals: Vec<u64>,
    /// Current position in the tree (prediction context).
    cursor: NodeId,
}

impl Default for Lz78Predictor {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz78Predictor {
    pub fn new() -> Self {
        Lz78Predictor {
            edges: IdMap::default(),
            children: vec![IdMap::default()],
            totals: vec![0],
            cursor: 0,
        }
    }
}

impl Predictor for Lz78Predictor {
    fn observe(&mut self, item: ItemId) {
        // Count the traversal at the current node.
        *self.children[self.cursor].entry(item).or_insert(0) += 1;
        self.totals[self.cursor] += 1;
        match self.edges.get(&(self.cursor, item)) {
            Some(&child) => {
                // Known phrase extension: walk down.
                self.cursor = child;
            }
            None => {
                // New phrase: grow the tree, restart at the root (classic
                // LZ78 parse boundary).
                let node = self.children.len();
                self.children.push(IdMap::default());
                self.totals.push(0);
                self.edges.insert((self.cursor, item), node);
                self.cursor = 0;
            }
        }
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        let total = self.totals[self.cursor];
        if total == 0 {
            return Vec::new();
        }
        let mut v: Vec<(ItemId, f64)> = self.children[self.cursor]
            .iter()
            .map(|(&id, &c)| (id, c as f64 / total as f64))
            .collect();
        sort_candidates(&mut v, max);
        v
    }

    fn name(&self) -> &'static str {
        "lz78"
    }

    fn reset(&mut self) {
        self.edges.clear();
        self.children = vec![IdMap::default()];
        self.totals = vec![0];
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Rng;
    use workload::{MarkovChain, RequestStream};

    #[test]
    fn tree_grows_with_new_phrases() {
        let mut p = Lz78Predictor::new();
        assert_eq!(p.children.len(), 1);
        p.observe(ItemId(1)); // new phrase "1"
        assert_eq!(p.children.len(), 2);
        p.observe(ItemId(1)); // known "1" → walk down
        p.observe(ItemId(2)); // new phrase "1 2"
        assert_eq!(p.children.len(), 3);
    }

    #[test]
    fn periodic_sequence_becomes_predictable() {
        let mut p = Lz78Predictor::new();
        let period = [1u64, 2, 3, 4];
        let mut correct = 0;
        let mut total = 0;
        for rep in 0..500 {
            for &x in &period {
                if rep > 100 {
                    if let Some(&(top, _)) = p.candidates(1).first() {
                        total += 1;
                        if top == ItemId(x) {
                            correct += 1;
                        }
                    }
                }
                p.observe(ItemId(x));
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "accuracy {acc} on a deterministic cycle");
    }

    #[test]
    fn approaches_markov_source_accuracy() {
        // On a skewed Markov source, LZ78 top-1 accuracy should approach the
        // accuracy of always guessing the most likely successor (which is
        // what an oracle achieves on top-1).
        let mut rng = Rng::new(3);
        let mut chain = MarkovChain::random(10, 2, 0.25, &mut rng); // top succ p = 0.8
        let mut p = Lz78Predictor::new();
        let mut correct = 0;
        let mut total = 0;
        let n = 120_000;
        p.observe(chain.state());
        for step in 0..n {
            let next = chain.next_item(&mut rng);
            if step > n / 2 {
                if let Some(&(top, _)) = p.candidates(1).first() {
                    total += 1;
                    if top == next {
                        correct += 1;
                    }
                }
            }
            p.observe(next);
        }
        let acc = correct as f64 / total.max(1) as f64;
        // Oracle top-1 accuracy is 0.8; LZ78 should get most of the way.
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn no_prediction_from_cold_root() {
        let p = Lz78Predictor::new();
        assert!(p.candidates(3).is_empty());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut p = Lz78Predictor::new();
        for i in 0..100u64 {
            p.observe(ItemId(i % 3));
        }
        p.reset();
        assert_eq!(p.children.len(), 1);
        assert!(p.candidates(3).is_empty());
    }

    #[test]
    fn probabilities_normalised_per_node() {
        let mut p = Lz78Predictor::new();
        for i in 0..1000u64 {
            p.observe(ItemId(i % 5));
        }
        let c = p.candidates(10);
        let total: f64 = c.iter().map(|(_, pr)| pr).sum();
        assert!(total <= 1.0 + 1e-9);
    }
}
