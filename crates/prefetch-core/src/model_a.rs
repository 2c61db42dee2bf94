//! Model A — prefetched items evict **zero-value** cache entries
//! (paper §3.1, equations (6)–(14)).
//!
//! Under model A there is always something worthless in the cache to evict,
//! so prefetching `n̄(F)` items of access probability `p` per request raises
//! the hit ratio to `h = h′ + n̄(F)·p` (eq 7). The headline result:
//!
//! > To maximise the access improvement, prefetch exclusively all items with
//! > access probability larger than the threshold value `p_th = ρ′`.

use crate::excess;
use crate::params::SystemParams;
use crate::{Conditions, Evaluation};

/// A Model-A prefetching configuration: the base system plus the prefetch
/// volume `n̄(F)` and per-item access probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct ModelA {
    pub params: SystemParams,
    /// `n̄(F)` — mean number of items prefetched per user request.
    pub n_f: f64,
    /// `p` — access probability of each prefetched item.
    pub p: f64,
}

impl ModelA {
    /// Creates a configuration. `n_f ≥ 0`, `0 ≤ p ≤ 1`.
    pub fn new(params: SystemParams, n_f: f64, p: f64) -> Self {
        assert!(n_f >= 0.0 && n_f.is_finite(), "n̄(F) must be non-negative");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        ModelA { params, n_f, p }
    }

    /// Hit ratio with prefetching: `h = h′ + n̄(F)·p` (eq 7), clamped to 1.
    ///
    /// The clamp matters only when the caller exceeds the consistency bound
    /// `n̄(F) ≤ f′/p` (eq 6); the paper's figures plot into that region, so
    /// [`Self::hit_ratio_raw`] provides the unclamped value too.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_ratio_raw().min(1.0)
    }

    /// Unclamped `h′ + n̄(F)·p`.
    pub fn hit_ratio_raw(&self) -> f64 {
        self.params.h_prime + self.n_f * self.p
    }

    /// Server utilisation with prefetching:
    /// `ρ = (1 − h + n̄(F))·λ·s̄/b` (eq 8).
    pub fn utilisation(&self) -> f64 {
        let p = &self.params;
        (1.0 - self.hit_ratio_raw() + self.n_f) * p.lambda * p.mean_size / p.bandwidth
    }

    /// Whether the system remains stable with the prefetch load (`ρ < 1`,
    /// condition 3 of (12)).
    pub fn is_stable(&self) -> bool {
        self.utilisation() < 1.0
    }

    /// Mean retrieval time with prefetching (eq 9):
    /// `r̄ = s̄ / (b − (1 − h + n̄(F))·λ·s̄)`. `None` when unstable.
    pub fn retrieval_time(&self) -> Option<f64> {
        self.is_stable().then(|| {
            let p = &self.params;
            p.mean_size / (p.bandwidth * (1.0 - self.utilisation()))
        })
    }

    /// Mean access time with prefetching (eq 10): `t̄ = (1 − h)·r̄`.
    /// `None` when unstable.
    pub fn access_time(&self) -> Option<f64> {
        self.retrieval_time().map(|r| (1.0 - self.hit_ratio_raw()) * r)
    }

    /// Access improvement `G = t̄′ − t̄` (eq 11):
    ///
    /// ```text
    ///       n̄(F)·s̄·(p·b − f′·λ·s̄)
    /// G = ─────────────────────────────────────────────
    ///     (b − f′λs̄)(b − f′λs̄ − n̄(F)(1−p)λs̄)
    /// ```
    ///
    /// `None` when either the baseline or the prefetching system is
    /// unstable (the formula's sign flips there are artefacts; see the
    /// paper's footnote 1).
    pub fn improvement(&self) -> Option<f64> {
        (self.params.is_stable() && self.is_stable()).then(|| self.improvement_raw())
    }

    /// The raw eq-(11) value without stability guards. Used by the figure
    /// generators, which plot the formula exactly as the paper does.
    pub fn improvement_raw(&self) -> f64 {
        let sp = &self.params;
        let b = sp.bandwidth;
        let s = sp.mean_size;
        let l = sp.lambda;
        let fp = sp.f_prime();
        let num = self.n_f * s * (self.p * b - fp * l * s);
        let den = (b - fp * l * s) * (b - fp * l * s - self.n_f * (1.0 - self.p) * l * s);
        num / den
    }

    /// The threshold `p_th = f′λs̄/b = ρ′` (eq 13): prefetching an item
    /// improves mean access time iff its access probability exceeds this.
    pub fn threshold(&self) -> f64 {
        self.params.rho_prime()
    }

    /// The three conditions of (12).
    pub fn conditions(&self) -> Conditions {
        let sp = &self.params;
        let b = sp.bandwidth;
        let s = sp.mean_size;
        let l = sp.lambda;
        let fp = sp.f_prime();
        Conditions {
            probability_above_threshold: self.p * b - fp * l * s > 0.0,
            stable_without_prefetch: b - fp * l * s > 0.0,
            stable_with_prefetch: b - fp * l * s - self.n_f * (1.0 - self.p) * l * s > 0.0,
        }
    }

    /// Excess retrieval cost `C = R − R′` (eq 27) for this configuration.
    pub fn excess_cost(&self) -> Option<f64> {
        excess::excess_cost(self.params.rho_prime(), self.utilisation(), self.params.lambda)
    }

    /// Everything at once, for the experiment harness.
    pub fn evaluate(&self) -> Evaluation {
        Evaluation {
            hit_ratio: self.hit_ratio(),
            utilisation: self.utilisation(),
            retrieval_time: self.retrieval_time(),
            access_time: self.access_time(),
            improvement: self.improvement(),
            excess_cost: self.excess_cost(),
            threshold: self.threshold(),
            conditions: self.conditions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_params(h: f64) -> SystemParams {
        SystemParams::paper_figure2(h)
    }

    #[test]
    fn threshold_is_rho_prime_eq13() {
        // h′ = 0: p_th = 0.6. h′ = 0.3: p_th = 0.42 (Figure 2 panels).
        assert!((ModelA::new(fig2_params(0.0), 1.0, 0.5).threshold() - 0.6).abs() < 1e-12);
        assert!((ModelA::new(fig2_params(0.3), 1.0, 0.5).threshold() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_eq7() {
        let m = ModelA::new(fig2_params(0.3), 0.5, 0.4);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_prefetch_recovers_baseline() {
        let params = fig2_params(0.3);
        let m = ModelA::new(params, 0.0, 0.5);
        assert!((m.hit_ratio() - 0.3).abs() < 1e-12);
        assert!((m.utilisation() - params.rho_prime()).abs() < 1e-12);
        assert!((m.access_time().unwrap() - params.access_time().unwrap()).abs() < 1e-15);
        assert_eq!(m.improvement().unwrap(), 0.0);
        assert_eq!(m.excess_cost().unwrap(), 0.0);
    }

    #[test]
    fn hand_computed_g_paper_parameters() {
        // s̄=1, λ=30, b=50, h′=0, n̄(F)=1, p=0.9:
        // G = 1·1·(0.9·50 − 30) / ((50−30)(50−30−1·0.1·30))
        //   = 15 / (20·17) = 0.044117647…
        let m = ModelA::new(fig2_params(0.0), 1.0, 0.9);
        let g = m.improvement().unwrap();
        assert!((g - 15.0 / 340.0).abs() < 1e-12, "G = {g}");
    }

    #[test]
    fn g_sign_matches_threshold_figure2_structure() {
        // Fig 2 (h′ = 0): p > 0.6 positive, p < 0.6 negative, p = 0.6 zero.
        let params = fig2_params(0.0);
        for nf10 in 1..=20 {
            let nf = nf10 as f64 / 10.0;
            for p10 in 1..=9 {
                let p = p10 as f64 / 10.0;
                let m = ModelA::new(params, nf, p);
                if !m.is_stable() {
                    continue; // formula leaves its validity region
                }
                let g = m.improvement().unwrap();
                if p > 0.6 + 1e-9 {
                    assert!(g > 0.0, "G({nf},{p}) = {g} should be positive");
                } else if p < 0.6 - 1e-9 {
                    assert!(g < 0.0, "G({nf},{p}) = {g} should be negative");
                } else {
                    assert!(g.abs() < 1e-12, "G({nf},{p}) = {g} should be zero");
                }
            }
        }
    }

    #[test]
    fn g_monotone_in_nf_for_fixed_p() {
        // Paper: "G indeed increases or decreases monotonously for any fixed
        // p ≷ pth, as n̄(F) varies from 0 to max(np)".
        let params = fig2_params(0.3);
        for &(p, positive) in &[(0.9, true), (0.2, false)] {
            let mut last = 0.0;
            let max_np = params.max_prefetch_count(p);
            let steps = 50;
            for i in 1..=steps {
                let nf = max_np * i as f64 / steps as f64;
                let m = ModelA::new(params, nf, p);
                if !m.is_stable() {
                    break;
                }
                let g = m.improvement().unwrap();
                if positive {
                    assert!(g > last, "G should increase: {g} after {last}");
                } else {
                    assert!(g < last, "G should decrease: {g} after {last}");
                }
                last = g;
            }
        }
    }

    #[test]
    fn conditions_eq12() {
        let params = fig2_params(0.0);
        // p above threshold, light prefetch volume: all conditions hold.
        let c = ModelA::new(params, 0.5, 0.9).conditions();
        assert!(
            c.probability_above_threshold && c.stable_without_prefetch && c.stable_with_prefetch
        );
        // p below threshold: condition 1 fails.
        let c = ModelA::new(params, 0.5, 0.3).conditions();
        assert!(!c.probability_above_threshold);
        assert!(c.stable_without_prefetch);
        // Heavy prefetching of improbable items: condition 3 fails.
        let c = ModelA::new(params, 2.0, 0.1).conditions();
        assert!(!c.stable_with_prefetch);
    }

    #[test]
    fn p_equal_one_has_no_nf_limit() {
        let m = ModelA::new(fig2_params(0.0), 1.0, 1.0);
        // Condition 3 of (12) bounds n̄(F) only through (1−p): at p = 1 it
        // holds for any prefetch volume.
        assert!(ModelA::new(fig2_params(0.0), 1e6, 1.0).conditions().stable_with_prefetch);
        // With p = 1 prefetching is informed, not speculative: every
        // prefetch substitutes one demand fetch, so utilisation is unchanged.
        assert!((m.utilisation() - m.params.rho_prime()).abs() < 1e-12);
    }

    #[test]
    fn unstable_configuration_returns_none() {
        // p=0.1, n̄(F)=1: ρ = (1 − 0.1 + 1)·0.6 = 1.14 > 1.
        let m = ModelA::new(fig2_params(0.0), 1.0, 0.1);
        assert!(!m.is_stable());
        assert!(m.retrieval_time().is_none());
        assert!(m.access_time().is_none());
        assert!(m.improvement().is_none());
        assert!(m.excess_cost().is_none());
    }

    #[test]
    fn evaluation_is_coherent() {
        let m = ModelA::new(fig2_params(0.3), 0.5, 0.8);
        let e = m.evaluate();
        assert_eq!(e.hit_ratio, m.hit_ratio());
        assert_eq!(e.utilisation, m.utilisation());
        assert_eq!(e.improvement, m.improvement());
        assert_eq!(e.conditions, m.conditions());
        assert!(e.conditions.probability_above_threshold && e.conditions.stable_with_prefetch);
        // t̄′ − t̄ must equal G.
        let g = m.params.access_time().unwrap() - e.access_time.unwrap();
        assert!((g - e.improvement.unwrap()).abs() < 1e-12);
    }

    #[test]
    fn improvement_raw_matches_t_bar_difference_when_stable() {
        // Cross-check eq (11) against direct t̄′ − t̄ computation.
        for &h in &[0.0, 0.3, 0.6] {
            let params = fig2_params(h);
            for &p in &[0.5, 0.7, 0.95] {
                for &nf in &[0.1, 0.5, 1.0] {
                    let m = ModelA::new(params, nf, p);
                    if !(m.is_stable() && params.is_stable()) {
                        continue;
                    }
                    let direct = params.access_time().unwrap() - m.access_time().unwrap();
                    let formula = m.improvement_raw();
                    assert!(
                        (direct - formula).abs() < 1e-12,
                        "h={h} p={p} nf={nf}: {direct} vs {formula}"
                    );
                }
            }
        }
    }
}
