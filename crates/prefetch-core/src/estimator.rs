//! Practical estimation of `h′` (paper §4) and the auxiliary online
//! estimators the adaptive controller needs.
//!
//! The threshold `p_th = ρ′ = f′λs̄/b` depends on `h′` — the hit ratio the
//! cache *would* have if prefetching were off. But prefetching **is** on;
//! `h′` is a counterfactual. The paper's §4 recovers it by tagging:
//!
//! * a **prefetched** item enters the cache *untagged*;
//! * access to a *tagged* entry: `naccess += 1; nhit += 1`;
//! * access to an *untagged* entry: `naccess += 1`, the entry becomes
//!   *tagged* (a demand fetch would have brought it in at this moment);
//! * access to a remote item (miss): `naccess += 1`; if admitted, the new
//!   entry is *tagged*.
//!
//! Then `ĥ′ = nhit/naccess` under model A's assumption, and
//! `ĥ′ · n̄(C)/(n̄(C) − n̄(F))` under model B's (evictions removed hit-ratio
//! mass that must be compensated).

use serde::{Deserialize, Serialize};

/// Tag state of a cache entry, as defined by the paper's §4 algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryStatus {
    /// Entry arrived by demand fetch, or has been accessed since arriving.
    Tagged,
    /// Entry was prefetched and never accessed.
    Untagged,
}

/// Streaming implementation of the §4 counterfactual hit-ratio estimator.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct HPrimeEstimator {
    n_access: u64,
    n_hit: u64,
}

impl HPrimeEstimator {
    pub fn new() -> Self {
        Self::default()
    }

    /// A prefetched item is inserted: returns the status to store with it.
    /// (Counters are untouched — prefetch insertions are not user accesses.)
    #[inline]
    pub fn on_prefetch_insert(&mut self) -> EntryStatus {
        EntryStatus::Untagged
    }

    /// A user request hit a cache entry with the given status; returns the
    /// status the entry must now carry.
    #[inline]
    pub fn on_cache_hit(&mut self, status: EntryStatus) -> EntryStatus {
        self.n_access += 1;
        if status == EntryStatus::Tagged {
            self.n_hit += 1;
        }
        EntryStatus::Tagged
    }

    /// A user request missed and went to the network; returns the status for
    /// the newly admitted entry (if the cache admits it).
    #[inline]
    pub fn on_miss(&mut self) -> EntryStatus {
        self.n_access += 1;
        EntryStatus::Tagged
    }

    /// Total user accesses observed.
    pub fn accesses(&self) -> u64 {
        self.n_access
    }

    /// Accesses that would have been hits without prefetching.
    pub fn counterfactual_hits(&self) -> u64 {
        self.n_hit
    }

    /// `ĥ′` under model A: `nhit / naccess`. `None` before any access.
    pub fn estimate_model_a(&self) -> Option<f64> {
        (self.n_access > 0).then(|| self.n_hit as f64 / self.n_access as f64)
    }

    /// `ĥ′` under model B: the model-A estimate scaled by
    /// `n̄(C)/(n̄(C) − n̄(F))` (paper §4), clamped to `[0, 1]`.
    pub fn estimate_model_b(&self, n_c: f64, n_f: f64) -> Option<f64> {
        assert!(n_c > 0.0 && n_f >= 0.0, "need n̄(C) > 0, n̄(F) ≥ 0");
        assert!(n_f < n_c, "model B correction requires n̄(F) < n̄(C)");
        self.estimate_model_a().map(|e| (e * n_c / (n_c - n_f)).min(1.0))
    }
}

/// Exponentially weighted moving average with bias-corrected warm-up.
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    weight: f64,
}

impl Ewma {
    /// `alpha` in `(0, 1]`: weight of each new observation.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ewma { alpha, value: 0.0, weight: 0.0 }
    }

    pub fn push(&mut self, x: f64) {
        self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
        self.weight = (1.0 - self.alpha) * self.weight + self.alpha;
    }

    /// Bias-corrected estimate; `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        (self.weight > 0.0).then(|| self.value / self.weight)
    }
}

/// Online estimator of an event rate `λ` from event timestamps, via an EWMA
/// of inter-arrival times (`λ̂ = 1/mean-gap`).
#[derive(Clone, Copy, Debug)]
pub struct RateEstimator {
    gaps: Ewma,
    last_t: Option<f64>,
}

impl RateEstimator {
    pub fn new(alpha: f64) -> Self {
        RateEstimator { gaps: Ewma::new(alpha), last_t: None }
    }

    /// Records an event at time `t` (non-decreasing).
    pub fn on_event(&mut self, t: f64) {
        if let Some(last) = self.last_t {
            let gap = t - last;
            if gap > 0.0 {
                self.gaps.push(gap);
            }
        }
        self.last_t = Some(t);
    }

    /// `λ̂`; `None` until two events have been seen.
    pub fn rate(&self) -> Option<f64> {
        self.gaps.value().map(|g| 1.0 / g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_demand_fetches_estimates_actual_hit_ratio() {
        // Without prefetching, tagged entries are just cached entries, so
        // the estimate equals the true hit ratio.
        let mut est = HPrimeEstimator::new();
        // 3 misses, then 7 hits on tagged entries.
        for _ in 0..3 {
            est.on_miss();
        }
        for _ in 0..7 {
            est.on_cache_hit(EntryStatus::Tagged);
        }
        assert!((est.estimate_model_a().unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn prefetch_hits_do_not_count_as_counterfactual_hits() {
        let mut est = HPrimeEstimator::new();
        // A prefetched item is accessed once: the access would have been a
        // miss without prefetching.
        let status = est.on_prefetch_insert();
        assert_eq!(status, EntryStatus::Untagged);
        let status = est.on_cache_hit(status);
        assert_eq!(status, EntryStatus::Tagged);
        assert_eq!(est.counterfactual_hits(), 0);
        assert_eq!(est.accesses(), 1);
        // But the *second* access to it would have been a hit (the demand
        // fetch would have cached it).
        est.on_cache_hit(status);
        assert_eq!(est.counterfactual_hits(), 1);
        assert_eq!(est.accesses(), 2);
        assert!((est.estimate_model_a().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetch_insert_is_not_an_access() {
        let mut est = HPrimeEstimator::new();
        for _ in 0..100 {
            est.on_prefetch_insert();
        }
        assert_eq!(est.accesses(), 0);
        assert!(est.estimate_model_a().is_none());
    }

    #[test]
    fn model_b_correction_scales_up() {
        let mut est = HPrimeEstimator::new();
        for _ in 0..5 {
            est.on_miss();
        }
        for _ in 0..5 {
            est.on_cache_hit(EntryStatus::Tagged);
        }
        let a = est.estimate_model_a().unwrap();
        let b = est.estimate_model_b(100.0, 20.0).unwrap();
        assert!((a - 0.5).abs() < 1e-12);
        assert!((b - 0.5 * 100.0 / 80.0).abs() < 1e-12);
        assert!(b > a);
    }

    #[test]
    fn model_b_correction_clamps_at_one() {
        let mut est = HPrimeEstimator::new();
        for _ in 0..10 {
            est.on_cache_hit(EntryStatus::Tagged);
        }
        assert_eq!(est.estimate_model_b(10.0, 9.0), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn model_b_requires_nf_below_nc() {
        let est = HPrimeEstimator::new();
        let _ = est.estimate_model_b(10.0, 10.0);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.1);
        for _ in 0..200 {
            e.push(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_bias_correction_early() {
        let mut e = Ewma::new(0.01);
        e.push(10.0);
        // Without bias correction this would read 0.1; corrected it is 10.
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_estimator_recovers_rate() {
        let mut r = RateEstimator::new(0.05);
        // Deterministic arrivals every 0.25s → rate 4.
        for i in 0..500 {
            r.on_event(i as f64 * 0.25);
        }
        assert!((r.rate().unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn rate_estimator_needs_two_events() {
        let mut r = RateEstimator::new(0.1);
        assert!(r.rate().is_none());
        r.on_event(1.0);
        assert!(r.rate().is_none());
        r.on_event(2.0);
        assert!((r.rate().unwrap() - 1.0).abs() < 1e-9);
    }
}
