//! Ensemble predictor: accuracy-weighted blending of base predictors.
//!
//! Different access models shine on different structure (Markov on tight
//! navigation, dependency graphs on within-window co-access, LZ78 on long
//! repeated phrases). The ensemble runs them side by side, scores each
//! one's top-1 accuracy online (EWMA), and blends candidate probabilities
//! with those weights. Because the paper's policy consumes probabilities,
//! a *calibrated* blend plugs straight into the threshold rule.

use crate::{sort_candidates, Predictor};
use simcore::hash::IdMap;
use workload::ItemId;

struct Member {
    predictor: Box<dyn Predictor>,
    /// EWMA of top-1 correctness.
    score: f64,
    /// Pending top-1 prediction to score against the next observation.
    pending_top: Option<ItemId>,
}

/// Accuracy-weighted predictor ensemble.
pub struct Ensemble {
    members: Vec<Member>,
    alpha: f64,
}

impl Ensemble {
    /// `alpha` is the EWMA weight for online accuracy scoring.
    pub fn new(members: Vec<Box<dyn Predictor>>, alpha: f64) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ensemble {
            members: members
                .into_iter()
                .map(|predictor| Member { predictor, score: 0.5, pending_top: None })
                .collect(),
            alpha,
        }
    }

    fn weights(&self) -> Vec<f64> {
        let total: f64 = self.members.iter().map(|m| m.score).sum();
        if total <= 0.0 {
            let n = self.members.len() as f64;
            return vec![1.0 / n; self.members.len()];
        }
        self.members.iter().map(|m| m.score / total).collect()
    }
}

impl Predictor for Ensemble {
    fn observe(&mut self, item: ItemId) {
        for m in &mut self.members {
            // Score the prediction made before this observation.
            if let Some(top) = m.pending_top.take() {
                let correct = if top == item { 1.0 } else { 0.0 };
                m.score = (1.0 - self.alpha) * m.score + self.alpha * correct;
            }
            m.predictor.observe(item);
            m.pending_top = m.predictor.candidates(1).first().map(|&(id, _)| id);
        }
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        let weights = self.weights();
        let mut blended: IdMap<ItemId, f64> = IdMap::default();
        for (m, w) in self.members.iter().zip(weights) {
            for (id, p) in m.predictor.candidates(max * 2) {
                *blended.entry(id).or_insert(0.0) += w * p;
            }
        }
        let mut v: Vec<(ItemId, f64)> = blended.into_iter().collect();
        sort_candidates(&mut v, max);
        v
    }

    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.predictor.reset();
            m.score = 0.5;
            m.pending_top = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::MarkovPredictor;
    use crate::Lz78Predictor;
    use simcore::rng::Rng;
    use workload::{MarkovChain, RequestStream};

    fn make() -> Ensemble {
        Ensemble::new(vec![Box::new(MarkovPredictor::new(1)), Box::new(Lz78Predictor::new())], 0.02)
    }

    #[test]
    fn blended_probabilities_bounded() {
        let mut e = make();
        let mut rng = Rng::new(1);
        let mut chain = MarkovChain::random(30, 3, 0.5, &mut rng);
        for _ in 0..20_000 {
            e.observe(chain.next_item(&mut rng));
        }
        let c = e.candidates(5);
        assert!(!c.is_empty());
        let total: f64 = c.iter().map(|(_, p)| p).sum();
        assert!(total <= 1.0 + 1e-9, "blend mass {total}");
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn scores_converge_to_member_accuracy() {
        // On a first-order Markov source the order-1 Markov member should
        // score at least as well as LZ78.
        let mut e = make();
        let mut rng = Rng::new(2);
        let mut chain = MarkovChain::random(30, 2, 0.2, &mut rng); // highly skewed
        for _ in 0..60_000 {
            e.observe(chain.next_item(&mut rng));
        }
        let scores = e.members.iter().map(|m| m.score).collect::<Vec<_>>();
        assert!(scores[0] > 0.6, "markov score {scores:?}");
        assert!(scores[0] >= scores[1] - 0.05, "scores {scores:?}");
    }

    #[test]
    fn ensemble_tracks_best_member_accuracy() {
        // Top-1 accuracy of the ensemble should be close to the better
        // member's.
        let mut rng = Rng::new(3);
        let mut chain = MarkovChain::random(40, 3, 0.3, &mut rng);
        let mut ensemble = make();
        let mut solo = MarkovPredictor::new(1);
        let (mut hits_e, mut hits_s, mut total) = (0, 0, 0);
        let n = 60_000;
        for i in 0..n {
            let next = chain.next_item(&mut rng);
            if i > n / 2 {
                if let Some(&(top, _)) = ensemble.candidates(1).first() {
                    total += 1;
                    if top == next {
                        hits_e += 1;
                    }
                }
                if let Some(&(top, _)) = solo.candidates(1).first() {
                    if top == next {
                        hits_s += 1;
                    }
                }
            }
            ensemble.observe(next);
            solo.observe(next);
        }
        let acc_e = hits_e as f64 / total as f64;
        let acc_s = hits_s as f64 / total as f64;
        assert!(acc_e > acc_s - 0.05, "ensemble {acc_e} vs solo {acc_s}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut e = make();
        for i in 0..100u64 {
            e.observe(ItemId(i % 7));
        }
        e.reset();
        assert!(e.candidates(3).is_empty());
        assert_eq!(e.members.iter().map(|m| m.score).collect::<Vec<_>>(), vec![0.5, 0.5]);
    }
}
