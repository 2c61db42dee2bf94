//! Adaptive prefetch controller: the paper's results operationalised.
//!
//! The threshold `p_th = f̂′·λ̂·ŝ̄/b` needs three online estimates — the
//! counterfactual hit ratio `h′` (§4 tagging algorithm), the request rate
//! `λ`, and the mean item size `s̄` — plus the known bandwidth `b`.
//! [`AdaptiveController`] fuses them and exposes the current
//! [`ThresholdPolicy`]. The `netsim` crate drives one controller per
//! simulated client; experiment E8 shows the adaptive threshold matching the
//! oracle threshold.

use crate::estimator::{EntryStatus, Ewma, HPrimeEstimator, RateEstimator};
use crate::threshold::ThresholdPolicy;

/// Configuration for [`AdaptiveController`].
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Known (or provisioned) bandwidth `b`, size-units/second.
    pub bandwidth: f64,
    /// EWMA weight for the request-rate estimator.
    pub rate_alpha: f64,
    /// EWMA weight for the mean-size estimator.
    pub size_alpha: f64,
}

impl ControllerConfig {
    /// Model-A defaults with moderate smoothing.
    pub fn model_a(bandwidth: f64) -> Self {
        ControllerConfig { bandwidth, rate_alpha: 0.02, size_alpha: 0.02 }
    }
}

/// Online estimator bundle + policy synthesis.
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    config: ControllerConfig,
    h_prime: HPrimeEstimator,
    rate: RateEstimator,
    size: Ewma,
}

impl AdaptiveController {
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.bandwidth > 0.0);
        AdaptiveController {
            h_prime: HPrimeEstimator::new(),
            rate: RateEstimator::new(config.rate_alpha),
            size: Ewma::new(config.size_alpha),
            config,
        }
    }

    /// A prefetched item was inserted into the cache.
    pub fn on_prefetch_insert(&mut self) -> EntryStatus {
        self.h_prime.on_prefetch_insert()
    }

    /// A user request at time `t` hit a cache entry carrying `status`;
    /// `size` is the item's size. Returns the entry's new status.
    pub fn on_cache_hit(&mut self, t: f64, status: EntryStatus, size: f64) -> EntryStatus {
        self.rate.on_event(t);
        self.size.push(size);
        self.h_prime.on_cache_hit(status)
    }

    /// A user request at time `t` missed; `size` is the fetched item's size.
    /// Returns the status for the newly admitted entry.
    pub fn on_miss(&mut self, t: f64, size: f64) -> EntryStatus {
        self.rate.on_event(t);
        self.size.push(size);
        self.h_prime.on_miss()
    }

    /// Current `ĥ′` (model A).
    pub fn h_prime_estimate(&self) -> Option<f64> {
        self.h_prime.estimate_model_a()
    }

    /// Current `λ̂`.
    pub fn rate_estimate(&self) -> Option<f64> {
        self.rate.rate()
    }

    /// Current `ŝ̄`.
    pub fn mean_size_estimate(&self) -> Option<f64> {
        self.size.value()
    }

    /// Current `ρ̂′ = f̂′·λ̂·ŝ̄/b`.
    pub fn rho_prime_estimate(&self) -> Option<f64> {
        let h = self.h_prime_estimate()?;
        let l = self.rate_estimate()?;
        let s = self.mean_size_estimate()?;
        Some((1.0 - h) * l * s / self.config.bandwidth)
    }

    /// Current threshold `p̂_th = ρ̂′` (model A).
    pub fn threshold_estimate(&self) -> Option<f64> {
        self.rho_prime_estimate()
    }

    /// Current policy. Until the estimators warm up, returns a maximally
    /// conservative policy (threshold 1: prefetch nothing) — prefetching on
    /// no information risks degrading service, so the controller fails safe.
    pub fn policy(&self) -> ThresholdPolicy {
        match self.threshold_estimate() {
            Some(th) => ThresholdPolicy::new(th.min(1.0)),
            None => ThresholdPolicy::new(1.0),
        }
    }

    /// Byte-charged threshold for one candidate of size `size`.
    ///
    /// The headline threshold charges every speculative fetch one
    /// mean-sized transfer (`ρ̂′ = (1−ĥ′)·λ̂·ŝ̄/b`), so a config that counts
    /// items implicitly assumes `s = ŝ̄`. Charging by bytes scales the
    /// utilisation term by the candidate's actual cost on the wire:
    /// fetching `s` bytes occupies the path for `s/b`, so the break-even
    /// probability is `ρ̂′·s/ŝ̄`. A candidate of exactly mean size
    /// reproduces [`AdaptiveController::threshold_estimate`] — item-counted
    /// configs are the degenerate case of the byte path, not a separate
    /// policy. Clamped to 1; `None` while the estimators are cold.
    pub fn threshold_for_size(&self, size: f64) -> Option<f64> {
        assert!(size > 0.0 && size.is_finite(), "bad candidate size {size}");
        let s_bar = self.mean_size_estimate()?;
        Some((self.rho_prime_estimate()? * size / s_bar).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;

    /// Drives the controller with a synthetic request stream matching known
    /// parameters and checks it recovers the analytic threshold.
    #[test]
    fn recovers_known_threshold_model_a() {
        let params = SystemParams::paper_figure2(0.3); // ρ′ = 0.42
        let mut ctl = AdaptiveController::new(ControllerConfig::model_a(params.bandwidth));
        // Deterministic stream at rate λ = 30, size 1, hit ratio 0.3
        // (3 of every 10 requests hit a tagged entry).
        let dt = 1.0 / params.lambda;
        let mut t = 0.0;
        for i in 0..20_000 {
            t += dt;
            if i % 10 < 3 {
                ctl.on_cache_hit(t, EntryStatus::Tagged, params.mean_size);
            } else {
                ctl.on_miss(t, params.mean_size);
            }
        }
        let th = ctl.threshold_estimate().unwrap();
        assert!((th - 0.42).abs() < 0.01, "threshold {th}");
        let h = ctl.h_prime_estimate().unwrap();
        assert!((h - 0.3).abs() < 0.005, "h′ {h}");
        let rate = ctl.rate_estimate().unwrap();
        assert!((rate - 30.0).abs() < 0.5, "rate {rate}");
    }

    #[test]
    fn untagged_hits_excluded_from_h_prime() {
        // Half the hits land on untagged (prefetched) entries: they must not
        // count toward ĥ′ on first touch.
        let mut ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        let mut t = 0.0;
        for _ in 0..1000 {
            t += 0.1;
            let status = ctl.on_prefetch_insert();
            // First access: untagged → not a counterfactual hit.
            ctl.on_cache_hit(t, status, 1.0);
            t += 0.1;
            ctl.on_miss(t, 1.0);
        }
        // naccess = 2000, nhit = 0 → ĥ′ = 0.
        assert!(ctl.h_prime_estimate().unwrap() < 1e-12);
    }

    #[test]
    fn cold_controller_fails_safe() {
        let ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        let pol = ctl.policy();
        assert_eq!(pol.threshold, 1.0);
        assert!(!pol.should_prefetch(0.99));
    }

    #[test]
    fn adapts_to_load_change() {
        // Rate doubles mid-stream: the threshold must rise.
        let mut ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        let mut t = 0.0;
        for _ in 0..5000 {
            t += 1.0 / 15.0;
            ctl.on_miss(t, 1.0);
        }
        let th_low = ctl.threshold_estimate().unwrap();
        for _ in 0..5000 {
            t += 1.0 / 45.0;
            ctl.on_miss(t, 1.0);
        }
        let th_high = ctl.threshold_estimate().unwrap();
        assert!(th_high > th_low * 1.5, "low {th_low} high {th_high}");
    }

    #[test]
    fn item_counted_threshold_is_degenerate_case_of_byte_path() {
        // Charging a mean-sized candidate by bytes must reproduce the
        // item-counted threshold bit-for-bit.
        let mut ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        let mut t = 0.0;
        for i in 0..5000 {
            t += 1.0 / 30.0;
            let size = if i % 2 == 0 { 0.5 } else { 1.5 };
            if i % 10 < 3 {
                ctl.on_cache_hit(t, EntryStatus::Tagged, size);
            } else {
                ctl.on_miss(t, size);
            }
        }
        let s_bar = ctl.mean_size_estimate().unwrap();
        assert_eq!(ctl.threshold_for_size(s_bar), Some(ctl.policy().threshold));
        // Byte-charging is monotone in size: bigger candidates need a
        // higher access probability to pay for their transfer.
        let small = ctl.threshold_for_size(0.5 * s_bar).unwrap();
        let big = ctl.threshold_for_size(2.0 * s_bar).unwrap();
        assert!(small < ctl.policy().threshold && ctl.policy().threshold < big);
    }

    #[test]
    fn byte_threshold_fails_safe_when_cold() {
        let ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        assert_eq!(ctl.threshold_for_size(1.0), None);
    }

    #[test]
    fn mean_size_tracks_mixture() {
        let mut ctl = AdaptiveController::new(ControllerConfig::model_a(50.0));
        let mut t = 0.0;
        for i in 0..4000 {
            t += 0.05;
            let size = if i % 2 == 0 { 0.5 } else { 1.5 };
            ctl.on_miss(t, size);
        }
        assert!((ctl.mean_size_estimate().unwrap() - 1.0).abs() < 0.01);
    }
}
