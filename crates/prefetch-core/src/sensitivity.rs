//! Sensitivity analysis and capacity planning on top of the closed forms.
//!
//! The paper's figures are one-dimensional sweeps; this module provides the
//! derivative/crossover machinery behind them: where the threshold line of
//! Figure 1 crosses `p = 1` (prefetching can never pay), the minimum
//! bandwidth that makes a given candidate profitable, and the bandwidth at
//! which a prefetching configuration saturates the server.

use crate::params::SystemParams;

/// `p_th` as a function of item size `s` (the x-axis of Figure 1):
/// `p_th(s) = f′·λ·s/b` — linear in `s` with slope `f′λ/b`.
pub fn threshold_vs_size(lambda: f64, bandwidth: f64, h_prime: f64, s: f64) -> f64 {
    assert!(lambda > 0.0 && bandwidth > 0.0 && (0.0..=1.0).contains(&h_prime) && s >= 0.0);
    (1.0 - h_prime) * lambda * s / bandwidth
}

/// The item size at which `p_th` reaches 1 — beyond this size *no* item is
/// worth prefetching no matter how certain the access:
/// `s* = b/(f′λ)`. `None` if `f′ = 0` (no demand load at all).
pub fn size_where_threshold_saturates(lambda: f64, bandwidth: f64, h_prime: f64) -> Option<f64> {
    let f = 1.0 - h_prime;
    (f > 0.0).then(|| bandwidth / (f * lambda))
}

/// Minimum bandwidth for prefetching items of probability `p` to be
/// profitable (condition 1 of (12) rearranged): `b > f′λs̄/p`.
pub fn min_bandwidth_for_profit(params: &SystemParams, p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0);
    params.f_prime() * params.lambda * params.mean_size / p
}

/// Bandwidth at which the *prefetching* system saturates (`ρ = 1`, model A):
/// `b* = f′λs̄ + n̄(F)(1−p)λs̄` — below this, the configuration is
/// unstable regardless of profitability.
pub fn saturation_bandwidth(params: &SystemParams, n_f: f64, p: f64) -> f64 {
    assert!(n_f >= 0.0 && (0.0..=1.0).contains(&p));
    let l = params.lambda;
    let s = params.mean_size;
    params.f_prime() * l * s + n_f * (1.0 - p) * l * s
}

/// The **marginal threshold at an operating point** — an extension beyond
/// the paper's uniform-`p` analysis.
///
/// Suppose the system already prefetches a mix that contributes `h_extra`
/// of hit ratio (`Σ vᵢpᵢ`) and `volume` of per-request fetch volume
/// (`Σ vᵢ`). Differentiating `t̄` with respect to an additional
/// infinitesimal volume of probability-`p` items shows the marginal item
/// improves `G` iff
///
/// ```text
/// p  >  p*(h_extra, volume) = (1 − h)·λ·s̄ / (b − volume·λ·s̄)
/// ```
///
/// with `h = h′ + h_extra`. At the no-prefetch point this reduces to the
/// paper's `p_th = ρ′` (eq 13). Including profitable items *lowers* `p*`
/// (hits shed demand load faster than prefetch volume adds it), so with
/// heterogeneous candidates the paper's rule is exact only to first order
/// — see [`crate::threshold`]'s `OptimalMixPolicy`.
///
/// Returns `None` when the prefetch volume already saturates the link.
pub fn marginal_threshold(params: &SystemParams, h_extra: f64, volume: f64) -> Option<f64> {
    assert!(h_extra >= 0.0 && volume >= 0.0);
    let h = (params.h_prime + h_extra).min(1.0);
    let denom = params.bandwidth - volume * params.lambda * params.mean_size;
    (denom > 0.0).then(|| (1.0 - h) * params.lambda * params.mean_size / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_a::ModelA;

    #[test]
    fn threshold_vs_size_matches_figure1_shape() {
        // Fig 1, h′=0 panel, λ=30: at b=50 the line hits p_th=1 at s=5/3;
        // at b=450 it hits 1 at s=15.
        let pth = threshold_vs_size(30.0, 50.0, 0.0, 1.0);
        assert!((pth - 0.6).abs() < 1e-12);
        let s_star = size_where_threshold_saturates(30.0, 50.0, 0.0).unwrap();
        assert!((s_star - 5.0 / 3.0).abs() < 1e-12);
        let s_star = size_where_threshold_saturates(30.0, 450.0, 0.0).unwrap();
        assert!((s_star - 15.0).abs() < 1e-12);
        // h′ = 0.3 panel: thresholds are 30% lower.
        let pth3 = threshold_vs_size(30.0, 50.0, 0.3, 1.0);
        assert!((pth3 - 0.42).abs() < 1e-12);
    }

    #[test]
    fn larger_bandwidth_lower_threshold() {
        let mut last = f64::INFINITY;
        for b in [50.0, 150.0, 250.0, 350.0, 450.0] {
            let pth = threshold_vs_size(30.0, b, 0.0, 2.0);
            assert!(pth < last);
            last = pth;
        }
    }

    #[test]
    fn saturating_size_none_when_no_demand() {
        assert!(size_where_threshold_saturates(30.0, 50.0, 1.0).is_none());
    }

    #[test]
    fn min_bandwidth_for_profit_matches_condition1() {
        let params = SystemParams::paper_figure2(0.3);
        let p = 0.5;
        let b_min = min_bandwidth_for_profit(&params, p);
        // Just above b_min: profitable. Just below: not.
        let above =
            SystemParams::new(params.lambda, b_min * 1.01, params.mean_size, params.h_prime)
                .unwrap();
        let below =
            SystemParams::new(params.lambda, b_min * 0.99, params.mean_size, params.h_prime)
                .unwrap();
        assert!(ModelA::new(above, 0.1, p).conditions().probability_above_threshold);
        assert!(!ModelA::new(below, 0.1, p).conditions().probability_above_threshold);
    }

    #[test]
    fn saturation_bandwidth_matches_model_a_stability() {
        let params = SystemParams::paper_figure2(0.0);
        let (n_f, p) = (1.0, 0.1);
        let b_star = saturation_bandwidth(&params, n_f, p);
        let stable =
            SystemParams::new(params.lambda, b_star * 1.01, params.mean_size, params.h_prime)
                .unwrap();
        let unstable =
            SystemParams::new(params.lambda, b_star * 0.99, params.mean_size, params.h_prime)
                .unwrap();
        assert!(ModelA::new(stable, n_f, p).is_stable());
        assert!(!ModelA::new(unstable, n_f, p).is_stable());
    }
}
