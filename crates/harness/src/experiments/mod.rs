//! The experiment implementations (E1–E22). Each module exposes a
//! `render()` returning the full plain-text report, plus structured data
//! functions used by the integration tests.

pub mod e10_ablation;
pub mod e11_wireless;
pub mod e12_caches;
pub mod e13_cluster;
pub mod e14_coop;
pub mod e15_scale;
pub mod e16_delta;
pub mod e17_shard;
pub mod e18_obs;
pub mod e19_trace;
pub mod e1_fig1;
pub mod e20_delayed;
pub mod e21_replay;
pub mod e22_chaos;
pub mod e2_fig2;
pub mod e3_fig3;
pub mod e4_modelb;
pub mod e5_compare;
pub mod e6_estimate;
pub mod e7_validate;
pub mod e8_endtoend;
pub mod e9_impedance;

/// The paper's global parameters: λ = 30 everywhere; Figures 2/3 use
/// s̄ = 1, b = 50; every figure has panels h′ = 0.0 and h′ = 0.3.
pub mod paper {
    /// λ used in every figure.
    pub const LAMBDA: f64 = 30.0;
    /// b of Figures 2 and 3.
    pub const FIG23_BANDWIDTH: f64 = 50.0;
    /// s̄ of Figures 2 and 3.
    pub const FIG23_MEAN_SIZE: f64 = 1.0;
    /// The two panels.
    pub const H_PRIMES: [f64; 2] = [0.0, 0.3];
    /// The `b` series of Figure 1.
    pub const FIG1_BANDWIDTHS: [f64; 9] =
        [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0];
    /// The `p` series of Figures 2 and 3.
    pub const FIG23_PROBS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
}
