//! # prefetch-core — the paper's analytical contribution
//!
//! Closed-form performance models of **speculative prefetching under network
//! load**, reproducing every equation of:
//!
//! > N. J. Tuah, M. Kumar, S. Venkatesh, *"Effect of Speculative Prefetching
//! > on Network Load in Distributed Systems"*, IPDPS 2001.
//!
//! ## The model in one paragraph
//!
//! Multiple users share one network path, modelled as an M/G/1
//! processor-sharing server with bandwidth `b`. Users issue requests at rate
//! `λ` for items of mean size `s̄`; without prefetching a fraction `h′` hits
//! the local cache. Speculative prefetching fetches, per user request, an
//! average of `n̄(F)` extra items, each of which will be accessed with
//! probability `p`. Prefetching raises the hit ratio but also the server
//! utilisation `ρ`, inflating every retrieval by `1/(1−ρ)`; and prefetched
//! items evict cache occupants. The paper's result: prefetching improves the
//! mean access time **iff `p` exceeds a threshold** — `p_th = ρ′` under
//! eviction model A, `p_th = ρ′ + h′/n̄(C)` under model B — and once the
//! threshold is met, prefetching *more* such items only helps.
//!
//! ## Map from paper to code
//!
//! | Paper | Here |
//! |-------|------|
//! | eqs (2)–(5): no-prefetch baseline | [`SystemParams`] |
//! | eqs (6)–(14): Model A | [`ModelA`] |
//! | eqs (15)–(22): Model B | [`ModelB`] |
//! | §6 "model AB" discussion | [`ModelAb`] (generic eviction value `q`) |
//! | eqs (23)–(27): excess retrieval cost | [`excess`] |
//! | §4 estimation of `h′` | [`estimator::HPrimeEstimator`] |
//! | headline policy | [`threshold::ThresholdPolicy`], [`controller::AdaptiveController`] |
//!
//! ## Quickstart
//!
//! ```
//! use prefetch_core::{ModelA, SystemParams};
//!
//! // Figure 2's parameters: s̄ = 1, λ = 30, b = 50, h′ = 0.
//! let params = SystemParams::new(30.0, 50.0, 1.0, 0.0).unwrap();
//! assert_eq!(params.rho_prime(), 0.6);
//!
//! // The paper's threshold: prefetch only items with p > ρ′ = 0.6.
//! let m = ModelA::new(params, 1.0, 0.9); // n̄(F) = 1, p = 0.9
//! assert_eq!(m.threshold(), 0.6);
//! let g = m.improvement().unwrap();
//! assert!(g > 0.0); // p = 0.9 > 0.6 → prefetching pays
//! ```

pub mod controller;
pub mod estimator;
pub mod excess;
pub mod model_a;
pub mod model_ab;
pub mod model_b;
pub mod params;
pub mod ranking;
pub mod sensitivity;
pub mod threshold;

pub use controller::AdaptiveController;
pub use estimator::HPrimeEstimator;
pub use model_a::ModelA;
pub use model_ab::ModelAb;
pub use model_b::ModelB;
pub use params::{ParamError, SystemParams};
pub use ranking::AggregateDelay;
pub use threshold::{OptimalMixPolicy, PrefetchDecision, ThresholdPolicy};

/// Feasibility of the conditions (12) / (20) that make `G > 0` derivable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Conditions {
    /// Condition 1: the access probability exceeds the threshold
    /// (`pb − f′λs̄ > 0`, plus the `−bh′/n̄(C)` term under model B).
    pub probability_above_threshold: bool,
    /// Condition 2: capacity covers demand fetches (`b − f′λs̄ > 0`).
    pub stable_without_prefetch: bool,
    /// Condition 3: capacity covers demand + prefetch traffic.
    pub stable_with_prefetch: bool,
}

/// A full evaluation of a prefetching configuration: every quantity the
/// paper derives, in one serialisable record.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct Evaluation {
    /// Cache hit ratio with prefetching, `h`.
    pub hit_ratio: f64,
    /// Server utilisation with prefetching, `ρ`.
    pub utilisation: f64,
    /// Mean retrieval time `r̄` (None if the system is unstable).
    pub retrieval_time: Option<f64>,
    /// Mean access time `t̄` (None if unstable).
    pub access_time: Option<f64>,
    /// Access improvement `G = t̄′ − t̄` (None if unstable).
    pub improvement: Option<f64>,
    /// Excess retrieval cost `C = R − R′` (None if unstable).
    pub excess_cost: Option<f64>,
    /// The threshold `p_th` for this configuration.
    pub threshold: f64,
    /// The feasibility conditions.
    pub conditions: Conditions,
}
