//! Model AB — the paper's §6 "more realistic model", generalised.
//!
//! Models A and B are the two extremes of one family: each prefetch evicts a
//! cache entry whose contribution to the hit ratio is some value
//! `q ∈ [0, h′/n̄(C)]`. Model A is `q = 0` (evict worthless entries); Model
//! B is `q = h′/n̄(C)` (evict average entries). The paper argues that a real
//! replacement policy evicts *below-average* entries, so reality sits
//! between the extremes — "if we continue the analysis, we will obtain
//! results that are between those for models A and B".
//!
//! This module carries out that analysis. Substituting
//! `h = h′ − n̄(F)·q + n̄(F)·p` through the same derivation chain gives
//!
//! ```text
//!       n̄(F)·s̄·((p−q)·b − f′λs̄)
//! G = ──────────────────────────────────────────────────
//!     (b − f′λs̄)(b − f′λs̄ − n̄(F)(1−p+q)λs̄)
//! ```
//!
//! with threshold `p_th = ρ′ + q`, which interpolates eq (13) and eq (21)
//! exactly. Unit tests verify both endpoints against [`ModelA`] / [`ModelB`].

use crate::excess;
use crate::model_a::ModelA;
use crate::model_b::ModelB;
use crate::params::SystemParams;

/// The generalised eviction model: each prefetch evicts an entry worth `q`
/// of hit ratio.
#[derive(Clone, Copy, Debug)]
pub struct ModelAb {
    pub params: SystemParams,
    /// `n̄(F)` — mean number of items prefetched per user request.
    pub n_f: f64,
    /// `p` — access probability of each prefetched item.
    pub p: f64,
    /// `q` — hit-ratio contribution of each evicted entry,
    /// `0 ≤ q ≤ h′` (and in the paper's telling, `q ≤ h′/n̄(C)`).
    pub evict_value: f64,
}

impl ModelAb {
    pub fn new(params: SystemParams, n_f: f64, p: f64, evict_value: f64) -> Self {
        assert!(n_f >= 0.0 && n_f.is_finite());
        assert!((0.0..=1.0).contains(&p));
        assert!(
            (0.0..=1.0).contains(&evict_value) && evict_value <= params.h_prime + 1e-12,
            "eviction value cannot exceed h′"
        );
        ModelAb { params, n_f, p, evict_value }
    }

    /// Model A as the `q = 0` member of the family.
    pub fn model_a(params: SystemParams, n_f: f64, p: f64) -> Self {
        ModelAb::new(params, n_f, p, 0.0)
    }

    /// Model B as the `q = h′/n̄(C)` member of the family.
    pub fn model_b(params: SystemParams, n_f: f64, p: f64, n_c: f64) -> Self {
        assert!(n_c > 0.0);
        ModelAb::new(params, n_f, p, params.h_prime / n_c)
    }

    /// Hit ratio `h = h′ − n̄(F)·q + n̄(F)·p` (unclamped).
    pub fn hit_ratio_raw(&self) -> f64 {
        self.params.h_prime + self.n_f * (self.p - self.evict_value)
    }

    /// Server utilisation `ρ = (1 − h + n̄(F))λs̄/b`.
    pub fn utilisation(&self) -> f64 {
        let sp = &self.params;
        (1.0 - self.hit_ratio_raw() + self.n_f) * sp.lambda * sp.mean_size / sp.bandwidth
    }

    pub fn is_stable(&self) -> bool {
        self.utilisation() < 1.0
    }

    /// Mean retrieval time; `None` when unstable.
    pub fn retrieval_time(&self) -> Option<f64> {
        self.is_stable().then(|| {
            let sp = &self.params;
            sp.mean_size / (sp.bandwidth * (1.0 - self.utilisation()))
        })
    }

    /// Mean access time `t̄ = (1 − h)·r̄`; `None` when unstable.
    pub fn access_time(&self) -> Option<f64> {
        self.retrieval_time().map(|r| (1.0 - self.hit_ratio_raw()) * r)
    }

    /// Access improvement; `None` when unstable.
    pub fn improvement(&self) -> Option<f64> {
        (self.params.is_stable() && self.is_stable()).then(|| self.improvement_raw())
    }

    /// The closed form derived in the module docs.
    pub fn improvement_raw(&self) -> f64 {
        let sp = &self.params;
        let b = sp.bandwidth;
        let s = sp.mean_size;
        let l = sp.lambda;
        let fp = sp.f_prime();
        let pq = self.p - self.evict_value;
        let num = self.n_f * s * (pq * b - fp * l * s);
        let den = (b - fp * l * s) * (b - fp * l * s - self.n_f * (1.0 - pq) * l * s);
        num / den
    }

    /// Threshold `p_th = ρ′ + q`.
    pub fn threshold(&self) -> f64 {
        self.params.rho_prime() + self.evict_value
    }

    /// Excess retrieval cost (eq 27) — the formula is interaction-agnostic.
    pub fn excess_cost(&self) -> Option<f64> {
        excess::excess_cost(self.params.rho_prime(), self.utilisation(), self.params.lambda)
    }
}

/// Convenience: evaluate the A/B/AB family at the same `(n̄(F), p)` point.
/// Returns `(model_a, model_ab_midpoint, model_b)` improvements; the AB
/// value uses `q = h′/(2n̄(C))` (halfway between the extremes).
pub fn family_improvements(
    params: SystemParams,
    n_f: f64,
    p: f64,
    n_c: f64,
) -> (Option<f64>, Option<f64>, Option<f64>) {
    let a = ModelA::new(params, n_f, p).improvement();
    let mid = ModelAb::new(params, n_f, p, params.h_prime / (2.0 * n_c)).improvement();
    let b = ModelB::new(params, n_f, p, n_c).improvement();
    (a, mid, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_params(h: f64) -> SystemParams {
        SystemParams::paper_figure2(h)
    }

    #[test]
    fn q_zero_is_exactly_model_a() {
        let params = fig2_params(0.3);
        for &(nf, p) in &[(0.5, 0.7), (1.0, 0.9), (1.5, 0.5)] {
            let ab = ModelAb::model_a(params, nf, p);
            let a = ModelA::new(params, nf, p);
            assert!((ab.hit_ratio_raw() - a.hit_ratio_raw()).abs() < 1e-12);
            assert!((ab.utilisation() - a.utilisation()).abs() < 1e-12);
            assert!((ab.threshold() - a.threshold()).abs() < 1e-12);
            assert!((ab.improvement_raw() - a.improvement_raw()).abs() < 1e-12);
        }
    }

    #[test]
    fn q_average_is_exactly_model_b() {
        let params = fig2_params(0.4);
        let nc = 8.0;
        for &(nf, p) in &[(0.5, 0.7), (1.0, 0.9)] {
            let ab = ModelAb::model_b(params, nf, p, nc);
            let b = ModelB::new(params, nf, p, nc);
            assert!((ab.hit_ratio_raw() - b.hit_ratio_raw()).abs() < 1e-12);
            assert!((ab.utilisation() - b.utilisation()).abs() < 1e-12);
            assert!((ab.threshold() - b.threshold()).abs() < 1e-12);
            assert!((ab.improvement_raw() - b.improvement_raw()).abs() < 1e-10);
        }
    }

    #[test]
    fn intermediate_q_gives_intermediate_results() {
        // §6: model AB's results lie between A's and B's.
        let params = fig2_params(0.4);
        let nc = 5.0;
        let (a, mid, b) = family_improvements(params, 0.8, 0.9, nc);
        let (a, mid, b) = (a.unwrap(), mid.unwrap(), b.unwrap());
        assert!(a > mid && mid > b, "expected A {a} > AB {mid} > B {b}");
    }

    #[test]
    fn threshold_interpolates() {
        let params = fig2_params(0.5);
        let a_th = ModelAb::model_a(params, 1.0, 0.5).threshold();
        let b_th = ModelAb::model_b(params, 1.0, 0.5, 4.0).threshold();
        let mid = ModelAb::new(params, 1.0, 0.5, 0.5 / 8.0).threshold();
        assert!(a_th < mid && mid < b_th);
        assert!((mid - (a_th + b_th) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn g_sign_governed_by_interpolated_threshold() {
        let params = fig2_params(0.3); // ρ′ = 0.42
        let q = 0.1;
        let pth = 0.52;
        for p10 in 1..=9 {
            let p = p10 as f64 / 10.0;
            let m = ModelAb::new(params, 0.5, p, q);
            if !m.is_stable() {
                continue;
            }
            let g = m.improvement().unwrap();
            if p > pth + 1e-9 {
                assert!(g > 0.0, "G(p={p}) = {g}");
            } else if p < pth - 1e-9 {
                assert!(g < 0.0, "G(p={p}) = {g}");
            } else {
                assert!(g.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn improvement_matches_direct_difference() {
        let params = fig2_params(0.3);
        let m = ModelAb::new(params, 0.7, 0.8, 0.05);
        let direct = params.access_time().unwrap() - m.access_time().unwrap();
        assert!((direct - m.improvement().unwrap()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn eviction_value_cannot_exceed_h_prime() {
        let params = fig2_params(0.1);
        let _ = ModelAb::new(params, 1.0, 0.5, 0.2);
    }
}
