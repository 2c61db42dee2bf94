//! Oracle predictor: the generating chain's true probabilities.
//!
//! The paper's analysis assumes the access probabilities `p` are *known*.
//! The oracle realises that assumption in simulation, isolating the
//! threshold policy's behaviour from prediction error; comparing a learned
//! predictor against the oracle quantifies how much of the analytic gain
//! survives estimation noise.

use crate::Predictor;
use std::sync::Arc;
use workload::{ItemId, MarkovChain};

/// Predictor with perfect knowledge of a first-order Markov source.
///
/// The successor table is immutable and shared: clones (one per walker of
/// the same chain) share it and differ only in their current item.
#[derive(Clone)]
pub struct OraclePredictor {
    /// Successor lists indexed by item, in [`MarkovChain::successors`]
    /// order — descending probability, ascending id among ties, which is
    /// the canonical candidate order — so a candidate list is a prefix.
    successors: Arc<[Vec<(ItemId, f64)>]>,
    current: Option<ItemId>,
}

impl OraclePredictor {
    /// Snapshots the chain's transition structure.
    pub fn from_chain(chain: &MarkovChain) -> Self {
        let successors = (0..chain.len() as u64).map(|i| chain.successors(ItemId(i))).collect();
        OraclePredictor { successors, current: None }
    }

    /// The current item's successor list (empty before the first
    /// observation and for items outside the chain).
    fn current_successors(&self) -> &[(ItemId, f64)] {
        self.current.and_then(|cur| self.successors.get(cur.0 as usize)).map_or(&[], Vec::as_slice)
    }

    /// The first `max` candidates: a prefix, the list being pre-ordered.
    fn top(&self, max: usize) -> &[(ItemId, f64)] {
        let s = self.current_successors();
        &s[..max.min(s.len())]
    }
}

impl Predictor for OraclePredictor {
    fn observe(&mut self, item: ItemId) {
        self.current = Some(item);
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        self.top(max).to_vec()
    }

    fn candidates_into(&self, max: usize, out: &mut Vec<(ItemId, f64)>) {
        out.clear();
        out.extend_from_slice(self.top(max));
    }

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Rng;

    #[test]
    fn reports_exact_chain_probabilities() {
        let mut rng = Rng::new(1);
        let chain = MarkovChain::random(20, 3, 0.5, &mut rng);
        let mut o = OraclePredictor::from_chain(&chain);
        o.observe(ItemId(4));
        assert_eq!(o.current_successors(), chain.successors(ItemId(4)).as_slice());
        let c = o.candidates(3);
        assert_eq!(c, chain.successors(ItemId(4)));
    }

    #[test]
    fn clones_share_the_table_but_not_the_cursor() {
        let mut rng = Rng::new(4);
        let chain = MarkovChain::random(20, 3, 0.5, &mut rng);
        let mut a = OraclePredictor::from_chain(&chain);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.successors, &b.successors));
        a.observe(ItemId(3));
        b.observe(ItemId(11));
        assert_eq!(a.candidates(3), chain.successors(ItemId(3)));
        assert_eq!(b.candidates(3), chain.successors(ItemId(11)));
    }

    #[test]
    fn candidates_empty_before_first_observation() {
        let mut rng = Rng::new(2);
        let chain = MarkovChain::random(5, 2, 0.5, &mut rng);
        let o = OraclePredictor::from_chain(&chain);
        assert!(o.candidates(5).is_empty());
    }

    #[test]
    fn oracle_is_calibrated() {
        // Empirical frequency of the top candidate must equal its stated
        // probability.
        use workload::RequestStream;
        let mut rng = Rng::new(3);
        let mut chain = MarkovChain::random(10, 2, 0.5, &mut rng);
        let mut o = OraclePredictor::from_chain(&chain);
        let mut hits = 0usize;
        let mut preds = 0usize;
        let mut stated = 0.0;
        o.observe(chain.state());
        for _ in 0..100_000 {
            let c = o.candidates(1);
            let (top, p) = c[0];
            let actual = chain.next_item(&mut rng);
            preds += 1;
            stated += p;
            if actual == top {
                hits += 1;
            }
            o.observe(actual);
        }
        let emp = hits as f64 / preds as f64;
        let avg_stated = stated / preds as f64;
        assert!((emp - avg_stated).abs() < 0.01, "empirical {emp} vs stated {avg_stated}");
    }
}
