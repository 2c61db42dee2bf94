//! System parameters and the no-prefetch baseline (paper §2.3).
//!
//! [`SystemParams`] bundles the four quantities every formula in the paper
//! depends on — request rate `λ`, bandwidth `b`, mean item size `s̄`, and
//! the no-prefetch hit ratio `h′` — and derives the baseline performance:
//!
//! * utilisation `ρ′ = f′λs̄/b` (with `f′ = 1 − h′`),
//! * mean retrieval time `r̄′ = s̄/(b − f′λs̄)`   (eq 4),
//! * mean access time `t̄′ = f′s̄/(b − f′λs̄)`   (eq 5).

use serde::{Deserialize, Serialize};

/// Validation failure for [`SystemParams::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// `λ` must be positive and finite.
    BadLambda,
    /// `b` must be positive and finite.
    BadBandwidth,
    /// `s̄` must be positive and finite.
    BadMeanSize,
    /// `h′` must lie in `[0, 1]`.
    BadHitRatio,
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            ParamError::BadLambda => "request rate λ must be positive and finite",
            ParamError::BadBandwidth => "bandwidth b must be positive and finite",
            ParamError::BadMeanSize => "mean item size s̄ must be positive and finite",
            ParamError::BadHitRatio => "hit ratio h′ must lie in [0, 1]",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParamError {}

/// The paper's system parameters (symbols from the appendix).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemParams {
    /// `λ` — aggregate user request rate (requests/second).
    pub lambda: f64,
    /// `b` — shared bandwidth (size-units/second).
    pub bandwidth: f64,
    /// `s̄` — mean item size (size-units).
    pub mean_size: f64,
    /// `h′` — cache hit ratio when no prefetching is performed.
    pub h_prime: f64,
}

impl SystemParams {
    /// Validated constructor.
    pub fn new(
        lambda: f64,
        bandwidth: f64,
        mean_size: f64,
        h_prime: f64,
    ) -> Result<Self, ParamError> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(ParamError::BadLambda);
        }
        if !(bandwidth > 0.0 && bandwidth.is_finite()) {
            return Err(ParamError::BadBandwidth);
        }
        if !(mean_size > 0.0 && mean_size.is_finite()) {
            return Err(ParamError::BadMeanSize);
        }
        if !(0.0..=1.0).contains(&h_prime) {
            return Err(ParamError::BadHitRatio);
        }
        Ok(SystemParams { lambda, bandwidth, mean_size, h_prime })
    }

    /// The parameters used throughout the paper's Figures 2 and 3:
    /// `s̄ = 1, λ = 30, b = 50`, with the given `h′`.
    pub fn paper_figure2(h_prime: f64) -> Self {
        SystemParams::new(30.0, 50.0, 1.0, h_prime).expect("paper parameters are valid")
    }

    /// `f′ = 1 − h′`, the no-prefetch cache fault ratio.
    #[inline]
    pub fn f_prime(&self) -> f64 {
        1.0 - self.h_prime
    }

    /// Baseline utilisation `ρ′ = f′λs̄/b`.
    #[inline]
    pub fn rho_prime(&self) -> f64 {
        self.f_prime() * self.lambda * self.mean_size / self.bandwidth
    }

    /// Whether the system is stable *without* prefetching (`ρ′ < 1`,
    /// condition 2 of (12)).
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.rho_prime() < 1.0
    }

    /// Mean retrieval time without prefetching, `r̄′ = s̄/(b − f′λs̄)`
    /// (eq 4). `None` when the system is unstable.
    pub fn retrieval_time(&self) -> Option<f64> {
        self.is_stable().then(|| {
            self.mean_size / (self.bandwidth - self.f_prime() * self.lambda * self.mean_size)
        })
    }

    /// Mean access time without prefetching,
    /// `t̄′ = f′s̄/(b − f′λs̄)` (eq 5). `None` when unstable.
    pub fn access_time(&self) -> Option<f64> {
        self.retrieval_time().map(|r| self.f_prime() * r)
    }

    /// Retrieval time *per user request* without prefetching,
    /// `R′ = ρ′/(λ(1−ρ′))` (eq 26). `None` when unstable.
    pub fn retrieval_per_request(&self) -> Option<f64> {
        let rho = self.rho_prime();
        self.is_stable().then(|| rho / (self.lambda * (1.0 - rho)))
    }

    /// Maximum number of items that can all have access probability ≥ `p`
    /// while remaining probabilistically consistent:
    /// `max(np) = f′/p` (eq 6).
    pub fn max_prefetch_count(&self, p: f64) -> f64 {
        assert!(p > 0.0, "access probability must be positive");
        self.f_prime() / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_inputs() {
        assert_eq!(SystemParams::new(0.0, 50.0, 1.0, 0.0), Err(ParamError::BadLambda));
        assert_eq!(SystemParams::new(-1.0, 50.0, 1.0, 0.0), Err(ParamError::BadLambda));
        assert_eq!(SystemParams::new(30.0, 0.0, 1.0, 0.0), Err(ParamError::BadBandwidth));
        assert_eq!(SystemParams::new(30.0, 50.0, -2.0, 0.0), Err(ParamError::BadMeanSize));
        assert_eq!(SystemParams::new(30.0, 50.0, 1.0, 1.5), Err(ParamError::BadHitRatio));
        assert_eq!(SystemParams::new(30.0, 50.0, 1.0, -0.1), Err(ParamError::BadHitRatio));
        assert_eq!(SystemParams::new(f64::NAN, 50.0, 1.0, 0.0), Err(ParamError::BadLambda));
        assert!(SystemParams::new(30.0, 50.0, 1.0, 0.0).is_ok());
    }

    #[test]
    fn paper_figure2_baseline_values() {
        // h′ = 0 panel: ρ′ = 30/50 = 0.6; r̄′ = 1/20 = 0.05; t̄′ = 0.05.
        let p = SystemParams::paper_figure2(0.0);
        assert!((p.rho_prime() - 0.6).abs() < 1e-12);
        assert!((p.retrieval_time().unwrap() - 0.05).abs() < 1e-12);
        assert!((p.access_time().unwrap() - 0.05).abs() < 1e-12);

        // h′ = 0.3 panel: f′ = 0.7 → ρ′ = 0.42; r̄′ = 1/29; t̄′ = 0.7/29.
        let p = SystemParams::paper_figure2(0.3);
        assert!((p.rho_prime() - 0.42).abs() < 1e-12);
        assert!((p.retrieval_time().unwrap() - 1.0 / 29.0).abs() < 1e-12);
        assert!((p.access_time().unwrap() - 0.7 / 29.0).abs() < 1e-12);
    }

    #[test]
    fn access_time_is_fault_weighted_retrieval() {
        let p = SystemParams::new(10.0, 100.0, 2.0, 0.5).unwrap();
        let t = p.access_time().unwrap();
        let r = p.retrieval_time().unwrap();
        assert!((t - 0.5 * r).abs() < 1e-15);
    }

    #[test]
    fn unstable_baseline_returns_none() {
        // f′λs̄ = 60 > b = 50.
        let p = SystemParams::new(60.0, 50.0, 1.0, 0.0).unwrap();
        assert!(!p.is_stable());
        assert!(p.retrieval_time().is_none());
        assert!(p.access_time().is_none());
        assert!(p.retrieval_per_request().is_none());
    }

    #[test]
    fn caching_reduces_utilisation() {
        let p0 = SystemParams::new(30.0, 50.0, 1.0, 0.0).unwrap();
        let p3 = SystemParams::new(30.0, 50.0, 1.0, 0.3).unwrap();
        assert!(p3.rho_prime() < p0.rho_prime());
        assert!((p3.rho_prime() - 0.7 * p0.rho_prime()).abs() < 1e-12);
    }

    #[test]
    fn retrieval_per_request_consistency() {
        // R′ = f′ · r̄′ (the fraction of requests that hit the network
        // times the per-item retrieval time): eq (26) in disguise.
        let p = SystemParams::new(30.0, 50.0, 1.0, 0.3).unwrap();
        let lhs = p.retrieval_per_request().unwrap();
        let rhs = p.f_prime() * p.retrieval_time().unwrap();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn max_prefetch_count_eq6() {
        let p = SystemParams::new(30.0, 50.0, 1.0, 0.3).unwrap();
        assert!((p.max_prefetch_count(0.35) - 2.0).abs() < 1e-12);
        assert!((p.max_prefetch_count(0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_prime_one_means_zero_load() {
        let p = SystemParams::new(30.0, 50.0, 1.0, 1.0).unwrap();
        assert_eq!(p.rho_prime(), 0.0);
        assert_eq!(p.access_time().unwrap(), 0.0);
    }

    #[test]
    fn copy_and_equality() {
        let p = SystemParams::paper_figure2(0.3);
        let q = p;
        assert_eq!(p, q);
        assert_ne!(p, SystemParams::paper_figure2(0.4));
    }
}
