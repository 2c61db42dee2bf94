//! Parametric validation simulator.
//!
//! Implements the paper's §2 model as a *mechanism* rather than a formula:
//!
//! * users issue Poisson(λ) requests;
//! * each request is a cache hit with probability `h = h′ + n̄(F)·p`
//!   (model A, eq 7) — hits cost zero;
//! * each miss submits a demand-fetch job (size ~ `size_dist`) to a shared
//!   processor-sharing server of capacity `b`; the access time is the
//!   job's sojourn;
//! * prefetch jobs arrive as an independent Poisson stream of rate
//!   `n̄(F)·λ`; they load the server but nobody waits on them.
//!
//! Prefetch arrivals are *Poissonised* rather than issued in a batch with
//! each request: the paper models the server as M/G/1 with total arrival
//! rate `(1−h+n̄(F))λ`, which presumes Poisson superposition. Issuing
//! `n̄(F)` jobs at the very instant of each request creates batch arrivals
//! (M^[X]/G/1), measurably inflating sojourns above `x̄/(1−ρ)` — a real
//! second-order effect the paper's model ignores; we quantify it in
//! EXPERIMENTS.md (E7) and keep the mechanism faithful to the assumption
//! here.
//!
//! Everything the paper derives — `t̄`, `ρ`, `G`, `C` — is then *measured*
//! and compared against the closed forms. PS insensitivity means any size
//! distribution with mean `s̄` must reproduce them.

use prefetch_core::{ModelA, SystemParams};
use queueing::{PsServer, Server};
use simcore::dist::Sample;
use simcore::rng::Rng;
use simcore::stats::{BatchMeans, Welford};

/// Configuration for one parametric run.
pub struct ParametricConfig<'a> {
    /// The paper's system parameters (λ, b, s̄, h′).
    pub params: SystemParams,
    /// `n̄(F)` — mean prefetches per request (fractional allowed).
    pub n_f: f64,
    /// `p` — access probability of prefetched items.
    pub p: f64,
    /// Item-size distribution; its mean must equal `params.mean_size`.
    pub size_dist: &'a dyn Sample,
    /// Number of user requests to simulate.
    pub requests: usize,
    /// Requests discarded as warm-up.
    pub warmup: usize,
}

impl ParametricConfig<'_> {
    fn validate(&self) {
        assert!(self.requests > self.warmup, "need post-warmup requests");
        let dist_mean = self.size_dist.mean();
        assert!(
            (dist_mean - self.params.mean_size).abs() / self.params.mean_size < 1e-6,
            "size distribution mean {dist_mean} != s̄ {}",
            self.params.mean_size
        );
        assert!((0.0..=1.0).contains(&self.p));
        assert!(self.n_f >= 0.0);
    }
}

/// Measurements from one parametric run.
#[derive(Clone, Debug)]
pub struct ParametricReport {
    /// Mean access time over all requests (hits count as zero).
    pub mean_access_time: f64,
    /// 95% CI half-width on the mean access time (batch means).
    pub access_time_ci95: f64,
    /// Mean retrieval time of demand fetches only (the paper's `r̄`).
    pub mean_retrieval_time: f64,
    /// Measured hit ratio.
    pub hit_ratio: f64,
    /// Measured server utilisation (busy fraction over the whole run).
    pub utilisation: f64,
    /// Retrieval time per user request, `R` (demand + prefetch sojourns).
    pub retrieval_per_request: f64,
    /// Requests measured (post warm-up).
    pub measured_requests: u64,
}

#[derive(Clone, Copy)]
enum JobKind {
    /// Demand fetch for request number `idx`, issued at `issued`.
    Demand { idx: u64, issued: f64 },
    /// Speculative prefetch; `measured` = issued after warm-up.
    Prefetch { issued: f64, measured: bool },
}

/// Runs the parametric simulation.
pub fn run(config: &ParametricConfig<'_>, seed: u64) -> ParametricReport {
    config.validate();
    let mut rng = Rng::new(seed);
    let params = &config.params;
    // Model-A effective hit probability (clamped like the closed form).
    let h = (params.h_prime + config.n_f * config.p).min(1.0);

    let mut server: PsServer<JobKind> = PsServer::new(params.bandwidth);
    let mut done = Vec::new();
    let mut access_times = BatchMeans::new(20);
    let mut retrievals = Welford::new();
    let mut hits = 0u64;
    // Total retrieval time consumed by measured jobs (demand + prefetch),
    // for the per-request retrieval cost R.
    let mut total_job_time = 0.0;

    let prefetch_rate = config.n_f * params.lambda;
    let mut prefetch_rng = rng.split();

    let warm = config.warmup as u64;
    let n_requests = config.requests as u64;
    let mut next_request_t = rng.exp(params.lambda);
    let mut next_prefetch_t =
        if prefetch_rate > 0.0 { prefetch_rng.exp(prefetch_rate) } else { f64::INFINITY };
    let mut issued: u64 = 0;
    let mut in_window = false;
    let mut t_end = 0.0;

    loop {
        let next_server = server.next_event();
        let more_requests = issued < n_requests;
        // The prefetch stream stops with the request stream.
        let next_prefetch = if more_requests { next_prefetch_t } else { f64::INFINITY };

        enum Ev {
            Server(f64),
            Request,
            Prefetch,
        }
        let ev = match (next_server, more_requests) {
            (None, false) => break,
            (ns, _) => {
                let ts = ns.map_or(f64::INFINITY, |t| t);
                let tr = if more_requests { next_request_t } else { f64::INFINITY };
                if ts <= tr && ts <= next_prefetch {
                    Ev::Server(ts)
                } else if tr <= next_prefetch {
                    Ev::Request
                } else {
                    Ev::Prefetch
                }
            }
        };

        match ev {
            Ev::Server(t) => {
                t_end = t;
                server.on_event(t, &mut done);
                for c in done.drain(..) {
                    match c.tag {
                        JobKind::Demand { idx, issued: t0 } => {
                            let sojourn = t - t0;
                            if idx >= warm {
                                access_times.push(sojourn);
                                retrievals.push(sojourn);
                                total_job_time += sojourn;
                            }
                        }
                        JobKind::Prefetch { issued: t0, measured } => {
                            if measured {
                                total_job_time += t - t0;
                            }
                        }
                    }
                }
            }
            Ev::Request => {
                let t = next_request_t;
                t_end = t;
                let idx = issued;
                issued += 1;
                in_window = idx >= warm;
                // Hit or miss?
                if rng.chance(h) {
                    if in_window {
                        access_times.push(0.0);
                        hits += 1;
                    }
                } else {
                    let size = config.size_dist.sample(&mut rng);
                    server.arrive(t, size, JobKind::Demand { idx, issued: t });
                }
                next_request_t = t + rng.exp(params.lambda);
            }
            Ev::Prefetch => {
                let t = next_prefetch_t;
                t_end = t;
                let size = config.size_dist.sample(&mut prefetch_rng);
                server.arrive(t, size, JobKind::Prefetch { issued: t, measured: in_window });
                next_prefetch_t = t + prefetch_rng.exp(prefetch_rate);
            }
        }
    }

    let measured_requests = n_requests - warm;
    let utilisation = server.utilisation(t_end);
    let (mean_access, ci) = access_times.mean_ci();

    ParametricReport {
        mean_access_time: mean_access,
        access_time_ci95: ci,
        mean_retrieval_time: retrievals.mean(),
        hit_ratio: hits as f64 / measured_requests as f64,
        utilisation,
        retrieval_per_request: total_job_time / measured_requests as f64,
        measured_requests,
    }
}

/// Convenience: run the no-prefetch baseline and a prefetch configuration
/// under the shared Fig-2/3 sweep convention
/// ([`simcore::par::sweep_vs_baseline`]: baseline at `seed`, treatment at
/// `seed + 1`), returning (baseline, with-prefetch, measured G).
pub fn run_with_baseline(
    config: &ParametricConfig<'_>,
    seed: u64,
) -> (ParametricReport, ParametricReport, f64) {
    let (base, mut with) = simcore::par::sweep_vs_baseline(
        &(0.0, 0.0),
        &[(config.n_f, config.p)],
        seed,
        |&(n_f, p), run_seed| {
            let point = ParametricConfig {
                params: config.params,
                n_f,
                p,
                size_dist: config.size_dist,
                requests: config.requests,
                warmup: config.warmup,
            };
            run(&point, run_seed)
        },
    );
    let with = with.pop().expect("one treatment point");
    let g = base.mean_access_time - with.mean_access_time;
    (base, with, g)
}

/// The model-A prediction for this configuration (for comparison columns).
pub fn predicted(config: &ParametricConfig<'_>) -> ModelA {
    ModelA::new(config.params, config.n_f, config.p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Exponential, Pareto};

    const N: usize = 120_000;
    const WARM: usize = 20_000;

    fn fig2_params(h: f64) -> SystemParams {
        SystemParams::paper_figure2(h)
    }

    #[test]
    fn baseline_matches_eq5() {
        // No prefetch: t̄′ = f′s̄/(b−f′λs̄) = 0.05 at h′=0.
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 0.0,
            p: 0.0,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let r = run(&config, 1);
        let predicted = config.params.access_time().unwrap();
        assert!(
            (r.mean_access_time - predicted).abs() / predicted < 0.05,
            "measured {} vs eq(5) {predicted}",
            r.mean_access_time
        );
        assert!((r.utilisation - 0.6).abs() < 0.03, "rho {}", r.utilisation);
        assert!(r.hit_ratio < 0.01);
    }

    #[test]
    fn baseline_with_cache_matches_eq5() {
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.3),
            n_f: 0.0,
            p: 0.0,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let r = run(&config, 2);
        let predicted = config.params.access_time().unwrap();
        assert!(
            (r.mean_access_time - predicted).abs() / predicted < 0.05,
            "measured {} vs {predicted}",
            r.mean_access_time
        );
        assert!((r.hit_ratio - 0.3).abs() < 0.01);
        assert!((r.utilisation - 0.42).abs() < 0.03);
    }

    #[test]
    fn prefetch_run_matches_eq10() {
        // n̄(F)=1, p=0.9, h′=0: h=0.9, ρ=0.66, eq(10):
        // t̄ = (f′−n̄F·p)s̄/(b−f′λs̄−n̄F(1−p)λs̄) = 0.1/17 ≈ 0.00588.
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 1.0,
            p: 0.9,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let r = run(&config, 3);
        let m = predicted(&config);
        let t_pred = m.access_time().unwrap();
        assert!(
            (r.mean_access_time - t_pred).abs() / t_pred < 0.08,
            "measured {} vs eq(10) {t_pred}",
            r.mean_access_time
        );
        assert!((r.hit_ratio - 0.9).abs() < 0.01, "h {}", r.hit_ratio);
        assert!((r.utilisation - m.utilisation()).abs() < 0.03, "rho {}", r.utilisation);
    }

    #[test]
    fn insensitivity_pareto_sizes() {
        // Same mean, heavy-tailed sizes: PS makes t̄ depend on the mean only.
        let size = Pareto::with_mean(1.0, 2.5);
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 1.0,
            p: 0.9,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let r = run(&config, 4);
        let t_pred = predicted(&config).access_time().unwrap();
        assert!(
            (r.mean_access_time - t_pred).abs() / t_pred < 0.12,
            "measured {} vs {t_pred}",
            r.mean_access_time
        );
    }

    #[test]
    fn measured_g_matches_eq11_sign_and_magnitude() {
        let size = Exponential::with_mean(1.0);
        // Profitable: p=0.9 > pth=0.6.
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 1.0,
            p: 0.9,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let (_, _, g) = run_with_baseline(&config, 5);
        let g_pred = predicted(&config).improvement().unwrap();
        assert!(g > 0.0, "measured G {g}");
        assert!((g - g_pred).abs() / g_pred < 0.25, "G {g} vs {g_pred}");

        // Unprofitable: p=0.3 < 0.6 (volume kept small so the system stays
        // stable: ρ = (1−0.15+0.5)·0.6 = 0.81).
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 0.5,
            p: 0.3,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let (_, _, g) = run_with_baseline(&config, 6);
        let g_pred = predicted(&config).improvement().unwrap();
        assert!(g < 0.0, "measured G {g} should be negative");
        assert!((g - g_pred).abs() < 0.4 * g_pred.abs(), "G {g} vs {g_pred}");
    }

    #[test]
    fn excess_cost_positive_and_near_eq27() {
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.0),
            n_f: 1.0,
            p: 0.9,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let (base, with, _) = run_with_baseline(&config, 7);
        let c_measured = with.retrieval_per_request - base.retrieval_per_request;
        let c_pred = predicted(&config).excess_cost().unwrap();
        assert!(c_measured > 0.0);
        assert!(
            (c_measured - c_pred).abs() / c_pred < 0.3,
            "C measured {c_measured} vs eq(27) {c_pred}"
        );
    }

    #[test]
    fn load_impedance_measured() {
        // Identical prefetch volume at low vs high background load: the
        // high-load system pays more (paper §5).
        let size = Exponential::with_mean(1.0);
        let mut costs = Vec::new();
        for &lambda in &[10.0, 40.0] {
            let params = SystemParams::new(lambda, 50.0, 1.0, 0.0).unwrap();
            let config = ParametricConfig {
                params,
                n_f: 0.3,
                p: 0.5,
                size_dist: &size,
                requests: N,
                warmup: WARM,
            };
            let (base, with, _) = run_with_baseline(&config, 8);
            costs.push(with.retrieval_per_request - base.retrieval_per_request);
        }
        assert!(
            costs[1] > costs[0] * 1.5,
            "high-load cost {} must exceed low-load {}",
            costs[1],
            costs[0]
        );
    }

    #[test]
    fn fractional_prefetch_volume() {
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.3),
            n_f: 0.5,
            p: 0.8,
            size_dist: &size,
            requests: N,
            warmup: WARM,
        };
        let r = run(&config, 8);
        let m = predicted(&config);
        // h = 0.3 + 0.4 = 0.7.
        assert!((r.hit_ratio - 0.7).abs() < 0.01, "h {}", r.hit_ratio);
        assert!((r.utilisation - m.utilisation()).abs() < 0.03);
    }

    #[test]
    fn deterministic_given_seed() {
        let size = Exponential::with_mean(1.0);
        let config = ParametricConfig {
            params: fig2_params(0.3),
            n_f: 0.5,
            p: 0.8,
            size_dist: &size,
            requests: 20_000,
            warmup: 2_000,
        };
        let a = run(&config, 42);
        let b = run(&config, 42);
        assert_eq!(a.mean_access_time, b.mean_access_time);
        assert_eq!(a.utilisation, b.utilisation);
    }
}
