//! Excess retrieval cost (paper §5, equations (23)–(27)).
//!
//! `C = R − R′` measures how much extra *network time per user request*
//! prefetching consumes, where `R = ρ/(λ(1−ρ))` (eq 25) is the retrieval
//! time per request at utilisation `ρ`. The key phenomenon is **load
//! impedance** (paper's term): because `R` is convex in `ρ`, prefetching the
//! same item costs more under high load than under low load.

/// Retrieval time per user request at utilisation `rho` (eq 25):
/// `R = ρ/(λ(1−ρ))`. `None` when `ρ ≥ 1`.
pub fn retrieval_per_request(rho: f64, lambda: f64) -> Option<f64> {
    assert!(lambda > 0.0);
    assert!(rho >= 0.0);
    (rho < 1.0).then(|| rho / (lambda * (1.0 - rho)))
}

/// Excess retrieval cost (eq 27):
///
/// ```text
/// C = R − R′ = (ρ − ρ′) / (λ(1−ρ)(1−ρ′))
/// ```
///
/// `None` when either system is unstable.
pub fn excess_cost(rho_prime: f64, rho: f64, lambda: f64) -> Option<f64> {
    assert!(lambda > 0.0);
    assert!(rho_prime >= 0.0 && rho >= 0.0);
    (rho < 1.0 && rho_prime < 1.0)
        .then(|| (rho - rho_prime) / (lambda * (1.0 - rho) * (1.0 - rho_prime)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq27_consistency_with_eq25() {
        let lambda = 30.0;
        let rho_p = 0.6;
        let rho = 0.75;
        let direct = retrieval_per_request(rho, lambda).unwrap()
            - retrieval_per_request(rho_p, lambda).unwrap();
        let formula = excess_cost(rho_p, rho, lambda).unwrap();
        assert!((direct - formula).abs() < 1e-12);
    }

    #[test]
    fn zero_extra_load_zero_cost() {
        assert_eq!(excess_cost(0.6, 0.6, 30.0), Some(0.0));
    }

    #[test]
    fn hand_computed_paper_point() {
        // Fig 3, h′=0 panel, p=0.9, n̄(F)=1: ρ′=0.6, ρ=(0.1+1)·0.6=0.66.
        // C = 0.06/(30·0.34·0.4) = 0.0147…
        let c = excess_cost(0.6, 0.66, 30.0).unwrap();
        assert!((c - 0.06 / (30.0 * 0.34 * 0.4)).abs() < 1e-12);
        assert!(c > 0.0 && c < 0.02);
    }

    #[test]
    fn unstable_returns_none() {
        assert!(excess_cost(0.6, 1.0, 30.0).is_none());
        assert!(excess_cost(1.0, 0.6, 30.0).is_none());
        assert!(retrieval_per_request(1.2, 30.0).is_none());
    }

    #[test]
    fn load_impedance_same_increment_costs_more_at_high_load() {
        // Prefetching that adds Δρ = 0.1 of utilisation:
        let lambda = 30.0;
        let low = excess_cost(0.2, 0.3, lambda).unwrap();
        let high = excess_cost(0.7, 0.8, lambda).unwrap();
        assert!(high > low, "high-load cost {high} must exceed low-load cost {low}");
        // And the ratio is substantial: (1-.7)(1-.8) vs (1-.2)(1-.3) → ~9.3x.
        assert!(high / low > 9.0);
    }

    #[test]
    fn cost_is_increasing_in_rho() {
        let lambda = 30.0;
        let rho_p = 0.42;
        let mut last = -1.0;
        for i in 0..11 {
            let rho = rho_p + i as f64 * 0.05;
            if rho >= 1.0 {
                break;
            }
            let c = excess_cost(rho_p, rho, lambda).unwrap();
            assert!(c > last, "C({rho}) = {c} after {last}");
            last = c;
        }
    }

    #[test]
    fn negative_cost_when_prefetch_reduces_load() {
        // With p = 1 (informed prefetching) utilisation is unchanged; with
        // hypothetical ρ < ρ′ the cost goes negative — the formula is signed.
        let c = excess_cost(0.5, 0.4, 10.0).unwrap();
        assert!(c < 0.0);
    }
}
