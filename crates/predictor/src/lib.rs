//! # predictor — access models for speculative prefetching
//!
//! The paper (§1) assumes some access model supplies, after each request,
//! a set of candidate items with access probabilities; its contribution is
//! *what to do with them* (the threshold policy). This crate supplies the
//! access models of the related-work section, so the end-to-end experiments
//! exercise the full pipeline:
//!
//! * [`markov`] — order-k Markov predictors over request history (Vitter &
//!   Krishnan's setting);
//! * [`ppm`] — prediction-by-partial-matching blend of orders with
//!   escape probabilities;
//! * [`depgraph`] — Padmanabhan & Mogul's dependency graph (items accessed
//!   within a lookahead window);
//! * [`lz78`] — the Vitter–Krishnan LZ78 parse-tree predictor;
//! * [`oracle`] — ground-truth probabilities from the generating Markov
//!   chain (isolates policy behaviour from estimation error);
//!
//! All predictors implement [`Predictor`]: observe the stream one item at a
//! time, emit probability-ranked candidates for the *next* access.

pub mod depgraph;
pub mod ensemble;
pub mod lz78;
pub mod markov;
pub mod oracle;
pub mod ppm;

pub use depgraph::DependencyGraph;
pub use ensemble::Ensemble;
pub use lz78::Lz78Predictor;
pub use markov::MarkovPredictor;
pub use oracle::OraclePredictor;
pub use ppm::PpmPredictor;

use workload::ItemId;

/// A sequential access predictor.
pub trait Predictor {
    /// Feeds the next observed request.
    fn observe(&mut self, item: ItemId);

    /// Probability-ranked candidates for the next request (descending
    /// probability, at most `max` entries). Probabilities are the
    /// predictor's estimates of `P(next = item | history)` and need not sum
    /// to 1 (the tail is truncated).
    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)>;

    /// [`Predictor::candidates`] into a caller-owned buffer: `out` is
    /// cleared, then receives exactly the list `candidates(max)` returns.
    /// Callers on a hot path keep one buffer and reuse its allocation;
    /// predictors that can write their list in place override this (the
    /// default collects `candidates` and moves it in).
    fn candidates_into(&self, max: usize, out: &mut Vec<(ItemId, f64)>) {
        out.clear();
        out.append(&mut self.candidates(max));
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Resets all learned state.
    fn reset(&mut self);
}

/// Sorts candidate lists canonically: descending probability, ascending id
/// for ties (determinism across HashMap iteration orders).
pub(crate) fn sort_candidates(v: &mut Vec<(ItemId, f64)>, max: usize) {
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(max);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_candidates_is_deterministic() {
        let mut v = vec![(ItemId(3), 0.2), (ItemId(1), 0.5), (ItemId(2), 0.2), (ItemId(0), 0.1)];
        sort_candidates(&mut v, 3);
        assert_eq!(v, vec![(ItemId(1), 0.5), (ItemId(2), 0.2), (ItemId(3), 0.2)]);
    }
}
