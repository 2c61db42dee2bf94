//! Model B — prefetched items evict **average-value** cache entries
//! (paper §3.2, equations (15)–(22)).
//!
//! Model B assumes every one of the `n̄(C)` cached items contributes the
//! same share `h′/n̄(C)` to the hit ratio, so each eviction costs exactly
//! that much:
//!
//! ```text
//! h = h′ − n̄(F)·h′/n̄(C) + n̄(F)·p        (eq 15)
//! ```
//!
//! The threshold therefore rises by the eviction cost:
//! `p_th = ρ′ + h′/n̄(C)` (eq 21). As `n̄(C) → ∞`, Model B converges to
//! Model A — the paper's §6 comparison, reproduced in experiment E5.

use crate::excess;
use crate::params::SystemParams;

/// A Model-B prefetching configuration: like [`crate::ModelA`] plus the
/// average cache population `n̄(C)`.
#[derive(Clone, Copy, Debug)]
pub struct ModelB {
    pub params: SystemParams,
    /// `n̄(F)` — mean number of items prefetched per user request.
    pub n_f: f64,
    /// `p` — access probability of each prefetched item.
    pub p: f64,
    /// `n̄(C)` — average number of items in a user's cache.
    pub n_c: f64,
}

impl ModelB {
    pub fn new(params: SystemParams, n_f: f64, p: f64, n_c: f64) -> Self {
        assert!(n_f >= 0.0 && n_f.is_finite(), "n̄(F) must be non-negative");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(n_c > 0.0 && n_c.is_finite(), "n̄(C) must be positive");
        ModelB { params, n_f, p, n_c }
    }

    /// Per-entry hit-ratio contribution `h′/n̄(C)` — the value destroyed by
    /// each eviction.
    pub fn eviction_value(&self) -> f64 {
        self.params.h_prime / self.n_c
    }

    /// Hit ratio with prefetching (eq 15), clamped to `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_ratio_raw().clamp(0.0, 1.0)
    }

    /// Unclamped `h′ − n̄(F)h′/n̄(C) + n̄(F)p`.
    pub fn hit_ratio_raw(&self) -> f64 {
        self.params.h_prime - self.n_f * self.eviction_value() + self.n_f * self.p
    }

    /// Server utilisation with prefetching (eq 16).
    pub fn utilisation(&self) -> f64 {
        let sp = &self.params;
        (1.0 - self.hit_ratio_raw() + self.n_f) * sp.lambda * sp.mean_size / sp.bandwidth
    }

    pub fn is_stable(&self) -> bool {
        self.utilisation() < 1.0
    }

    /// Mean retrieval time with prefetching (eq 17). `None` when unstable.
    pub fn retrieval_time(&self) -> Option<f64> {
        self.is_stable().then(|| {
            let sp = &self.params;
            sp.mean_size / (sp.bandwidth * (1.0 - self.utilisation()))
        })
    }

    /// Mean access time with prefetching (eq 18). `None` when unstable.
    pub fn access_time(&self) -> Option<f64> {
        self.retrieval_time().map(|r| (1.0 - self.hit_ratio_raw()) * r)
    }

    /// Access improvement `G` (eq 19). `None` when unstable.
    pub fn improvement(&self) -> Option<f64> {
        (self.params.is_stable() && self.is_stable()).then(|| self.improvement_raw())
    }

    /// The raw eq-(19) value without stability guards:
    ///
    /// ```text
    ///       n̄(F)·s̄·(p·b − f′λs̄ − b·h′/n̄(C))
    /// G = ────────────────────────────────────────────────────────────
    ///     (b − f′λs̄)(b − f′λs̄ − (n̄(F)/n̄(C))h′s̄λ − n̄(F)(1−p)λs̄)
    /// ```
    pub fn improvement_raw(&self) -> f64 {
        let sp = &self.params;
        let b = sp.bandwidth;
        let s = sp.mean_size;
        let l = sp.lambda;
        let fp = sp.f_prime();
        let hp = sp.h_prime;
        let num = self.n_f * s * (self.p * b - fp * l * s - b * hp / self.n_c);
        let den = (b - fp * l * s)
            * (b - fp * l * s
                - self.n_f / self.n_c * hp * s * l
                - self.n_f * (1.0 - self.p) * l * s);
        num / den
    }

    /// The threshold `p_th = ρ′ + h′/n̄(C)` (eq 21).
    pub fn threshold(&self) -> f64 {
        self.params.rho_prime() + self.eviction_value()
    }

    /// Excess retrieval cost `C = R − R′` (eq 27).
    pub fn excess_cost(&self) -> Option<f64> {
        excess::excess_cost(self.params.rho_prime(), self.utilisation(), self.params.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_a::ModelA;

    fn fig2_params(h: f64) -> SystemParams {
        SystemParams::paper_figure2(h)
    }

    #[test]
    fn threshold_eq21_exceeds_model_a_by_eviction_value() {
        let params = fig2_params(0.3);
        let b = ModelB::new(params, 1.0, 0.5, 10.0);
        let a = ModelA::new(params, 1.0, 0.5);
        assert!((b.threshold() - (a.threshold() + 0.03)).abs() < 1e-12);
    }

    #[test]
    fn threshold_difference_bounded_by_inverse_cache_size() {
        // §6: "the difference in the values of the threshold pth between the
        // two models is at most 1/n̄(C)" (since h′ ≤ 1).
        for &h in &[0.0, 0.5, 1.0] {
            let params = SystemParams::new(30.0, 100.0, 1.0, h).unwrap();
            for &nc in &[2.0, 10.0, 100.0] {
                let diff = ModelB::new(params, 1.0, 0.5, nc).threshold()
                    - ModelA::new(params, 1.0, 0.5).threshold();
                assert!(diff >= 0.0);
                assert!(diff <= 1.0 / nc + 1e-12, "h={h} nc={nc}: diff {diff}");
            }
        }
    }

    #[test]
    fn hit_ratio_eq15() {
        let m = ModelB::new(fig2_params(0.3), 2.0, 0.5, 10.0);
        // h = 0.3 − 2·0.03 + 2·0.5 = 1.24 raw → clamped to 1.
        assert!((m.hit_ratio_raw() - 1.24).abs() < 1e-12);
        assert_eq!(m.hit_ratio(), 1.0);
        let m = ModelB::new(fig2_params(0.3), 0.5, 0.4, 10.0);
        // h = 0.3 − 0.015 + 0.2 = 0.485.
        assert!((m.hit_ratio() - 0.485).abs() < 1e-12);
    }

    #[test]
    fn converges_to_model_a_for_large_cache() {
        // §6: models agree when n̄(C) ≫ n̄(F).
        let params = fig2_params(0.3);
        let a = ModelA::new(params, 1.0, 0.8);
        let g_a = a.improvement().unwrap();
        let mut errors = Vec::new();
        for &nc in &[5.0, 50.0, 500.0, 5_000.0] {
            let b = ModelB::new(params, 1.0, 0.8, nc);
            errors.push((b.improvement().unwrap() - g_a).abs());
        }
        for w in errors.windows(2) {
            assert!(w[1] < w[0], "errors should shrink: {errors:?}");
        }
        assert!(errors.last().unwrap() / g_a.abs() < 1e-3);
    }

    #[test]
    fn g_sign_matches_model_b_threshold() {
        let params = fig2_params(0.3);
        let nc = 10.0;
        let pth = params.rho_prime() + 0.3 / nc; // 0.42 + 0.03
        for p10 in 1..=9 {
            let p = p10 as f64 / 10.0;
            let m = ModelB::new(params, 0.5, p, nc);
            if !m.is_stable() {
                continue;
            }
            let g = m.improvement().unwrap();
            if p > pth + 1e-9 {
                assert!(g > 0.0, "G(p={p}) = {g}");
            } else if p < pth - 1e-9 {
                assert!(g < 0.0, "G(p={p}) = {g}");
            }
        }
    }

    #[test]
    fn zero_h_prime_reduces_to_model_a_exactly() {
        // With h′ = 0 there is no eviction value: models must coincide.
        let params = fig2_params(0.0);
        for &(nf, p) in &[(0.5, 0.7), (1.0, 0.9), (2.0, 0.65)] {
            let a = ModelA::new(params, nf, p);
            let b = ModelB::new(params, nf, p, 7.0);
            assert!((a.hit_ratio_raw() - b.hit_ratio_raw()).abs() < 1e-12);
            assert!((a.utilisation() - b.utilisation()).abs() < 1e-12);
            match (a.improvement(), b.improvement()) {
                (Some(ga), Some(gb)) => assert!((ga - gb).abs() < 1e-12),
                (None, None) => {}
                other => panic!("stability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn improvement_matches_t_bar_difference() {
        let params = fig2_params(0.4);
        let m = ModelB::new(params, 0.6, 0.9, 20.0);
        let direct = params.access_time().unwrap() - m.access_time().unwrap();
        assert!((direct - m.improvement().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn model_b_threshold_requires_more_than_a() {
        // An item profitable under A can be unprofitable under B with a
        // small cache: pick p between the two thresholds.
        let params = fig2_params(0.3); // ρ′ = 0.42
        let nc = 2.0; // eviction value = 0.15 → pth_B = 0.57
        let p = 0.5;
        let a = ModelA::new(params, 0.5, p).improvement().unwrap();
        let b = ModelB::new(params, 0.5, p, nc).improvement().unwrap();
        assert!(a > 0.0, "model A says prefetch: {a}");
        assert!(b < 0.0, "model B says don't: {b}");
    }
}
