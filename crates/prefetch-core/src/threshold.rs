//! The paper's headline policy: *prefetch exclusively all items with access
//! probability above `p_th`*.
//!
//! [`ThresholdPolicy`] decides each predictor candidate — an `(item,
//! probability)` pair — on its own. Because G is monotone in
//! `n̄(F)` once `p > p_th` (paper §3.1), the optimal policy has no volume
//! knob: every candidate above the threshold is taken, every one below is
//! dropped.

use crate::params::SystemParams;

/// A threshold-based prefetch policy.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    /// `p_th`: candidates must *strictly exceed* this to be prefetched.
    pub threshold: f64,
}

/// The outcome of [`OptimalMixPolicy::decide`] on a candidate list.
#[derive(Clone, Debug, PartialEq)]
pub struct PrefetchDecision<I> {
    /// Candidates to prefetch, in descending probability order.
    pub selected: Vec<(I, f64)>,
    /// Candidates rejected, in descending probability order.
    pub rejected: Vec<(I, f64)>,
    /// The threshold that was applied.
    pub threshold: f64,
}

impl ThresholdPolicy {
    /// Policy from an explicit threshold.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        ThresholdPolicy { threshold }
    }

    /// Model-A policy: `p_th = ρ′` (eq 13).
    pub fn from_model_a(params: &SystemParams) -> Self {
        ThresholdPolicy::new(params.rho_prime())
    }

    /// Should an item with access probability `p` be prefetched?
    #[inline]
    pub fn should_prefetch(&self, p: f64) -> bool {
        p > self.threshold
    }
}

/// Exact-optimal selection over a **heterogeneous** candidate set — an
/// extension beyond the paper's uniform-`p` analysis.
///
/// The paper proves that for candidates sharing one probability `p`, the
/// rule "prefetch all iff `p > ρ′`" maximises `G`. With *mixed*
/// probabilities, the rule is exact only at the margin: every profitable
/// inclusion lowers the operating-point threshold
/// `p* = (1−h)λs̄/(b − Vλs̄)` (see
/// [`crate::sensitivity::marginal_threshold`]), so the true optimum may
/// include candidates *below* `ρ′`.
///
/// Optimality of the greedy construction: for a fixed inclusion count `k`,
/// `G` increases with `Σp` (top-`k` by probability is best), and the
/// marginal threshold only falls while included items clear it — so
/// descending-probability greedy with the stop rule `pᵢ ≤ p*` is globally
/// optimal (verified against brute force in the integration suite).
#[derive(Clone, Copy, Debug)]
pub struct OptimalMixPolicy {
    pub params: SystemParams,
}

impl OptimalMixPolicy {
    pub fn new(params: SystemParams) -> Self {
        OptimalMixPolicy { params }
    }

    /// Selects the G-maximising subset of candidates. Each candidate is one
    /// item fetched once per request (unit volume); the probabilities must
    /// be consistent (they describe one next request, so `h′ + Σp ≤ 1`).
    /// Returns the decision plus the final marginal threshold.
    pub fn decide<I>(
        &self,
        candidates: impl IntoIterator<Item = (I, f64)>,
    ) -> (PrefetchDecision<I>, f64) {
        let sp = &self.params;
        let mut sorted: Vec<(I, f64)> = candidates.into_iter().collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut selected = Vec::new();
        let mut rejected = Vec::new();
        let mut h_extra = 0.0;
        let mut volume = 0.0;
        let mut threshold = sp.rho_prime();
        let mut still_taking = true;
        for (item, p) in sorted {
            let take = still_taking
                && p.is_finite()
                && match crate::sensitivity::marginal_threshold(sp, h_extra, volume) {
                    Some(th) => {
                        threshold = th;
                        // Stability with this item included: ρ_new < 1.
                        let h_new = (sp.h_prime + h_extra + p).min(1.0);
                        let rho_new =
                            (1.0 - h_new + volume + 1.0) * sp.lambda * sp.mean_size / sp.bandwidth;
                        p > th && rho_new < 1.0
                    }
                    None => false,
                };
            if take {
                h_extra += p;
                volume += 1.0;
                selected.push((item, p));
            } else {
                // Candidates are sorted descending: once one fails, the
                // threshold is frozen and the rest fail too.
                still_taking = false;
                rejected.push((item, p));
            }
        }
        (PrefetchDecision { selected, rejected, threshold }, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SystemParams {
        SystemParams::paper_figure2(0.3) // ρ′ = 0.42
    }

    #[test]
    fn model_a_threshold_is_rho_prime() {
        let pol = ThresholdPolicy::from_model_a(&params());
        assert!((pol.threshold - 0.42).abs() < 1e-12);
        assert!(pol.should_prefetch(0.43));
        assert!(!pol.should_prefetch(0.42)); // strict inequality
        assert!(!pol.should_prefetch(0.41));
    }

    /// Roomier parameters for the mixed-candidate tests: ρ′ = 0.21, so
    /// consistent candidate sets (h′ + Σp ≤ 1) have headroom.
    fn roomy_params() -> SystemParams {
        SystemParams::new(30.0, 100.0, 1.0, 0.3).unwrap()
    }

    #[test]
    fn optimal_mix_reduces_to_paper_rule_for_homogeneous_candidates() {
        // All candidates share one p: the optimal mix takes all (p > ρ′) or
        // none (p < ρ′) — exactly the paper's conclusion. (Σp stays within
        // the consistency bound: 3·0.22 + 0.3 = 0.96 ≤ 1.)
        let sp = roomy_params(); // ρ′ = 0.21
        let pol = OptimalMixPolicy::new(sp);
        let above: Vec<(u32, f64)> = (0..3).map(|i| (i, 0.22)).collect();
        let (d, _) = pol.decide(above);
        assert_eq!(d.selected.len(), 3, "{d:?}");
        let below: Vec<(u32, f64)> = (0..3).map(|i| (i, 0.2)).collect();
        let (d, _) = pol.decide(below);
        assert_eq!(d.selected.len(), 0, "{d:?}");
    }

    #[test]
    fn optimal_mix_can_include_below_rho_prime() {
        // After including p = 0.5, the marginal threshold falls from
        // ρ′ = 0.21 to (1−0.8)·30/(100−30) ≈ 0.086, making a p = 0.15
        // candidate profitable — beyond the paper's fixed-ρ′ rule.
        let sp = roomy_params();
        let pol = OptimalMixPolicy::new(sp);
        let (d, final_th) = pol.decide(vec![("a", 0.5), ("b", 0.15)]);
        assert_eq!(d.selected.len(), 2, "both should be included: {d:?}");
        assert!(final_th < 0.15, "final marginal threshold {final_th}");
        // The paper's fixed rule takes only one.
        let fixed = ThresholdPolicy::from_model_a(&sp);
        assert!(fixed.should_prefetch(0.5) && !fixed.should_prefetch(0.15));
    }

    #[test]
    fn optimal_mix_marginal_threshold_decreases_during_inclusion() {
        let sp = roomy_params();
        use crate::sensitivity::marginal_threshold;
        let th0 = marginal_threshold(&sp, 0.0, 0.0).unwrap();
        assert!((th0 - sp.rho_prime()).abs() < 1e-12, "reduces to ρ′ at origin");
        let th1 = marginal_threshold(&sp, 0.5, 1.0).unwrap();
        assert!(th1 < th0, "{th1} < {th0}");
        let th2 = marginal_threshold(&sp, 0.65, 2.0).unwrap();
        assert!(th2 < th1, "{th2} < {th1}");
        // Saturated volume: no finite threshold.
        assert!(marginal_threshold(&sp, 0.65, 4.0).is_none());
    }

    #[test]
    fn optimal_mix_respects_stability() {
        // A saturating volume of junk candidates must not all be taken.
        let sp = params();
        let pol = OptimalMixPolicy::new(sp);
        let many: Vec<(u32, f64)> = (0..50).map(|i| (i, 0.5)).collect();
        let (d, _) = pol.decide(many);
        // Taking all 50 would give volume·λ·s̄ = 1500 ≫ b = 50.
        assert!(d.selected.len() < 50);
        // And the chosen configuration is stable.
        let h_extra: f64 = d.selected.iter().map(|(_, p)| p).sum();
        let rho = (1.0 - (sp.h_prime + h_extra).min(1.0) + d.selected.len() as f64)
            * sp.lambda
            * sp.mean_size
            / sp.bandwidth;
        assert!(rho < 1.0, "rho {rho}");
    }
}
