//! Trace driver: feeds an arrival sequence through any [`Server`] and
//! records per-job response times. This is how the queueing-theory formulas
//! are validated against the running servers (experiments E7/E10).

use crate::{Completion, Server};
use simcore::dist::Sample;
use simcore::rng::Rng;
use simcore::stats::Welford;

/// One completed job with its full timeline.
#[derive(Clone, Copy, Debug)]
pub struct Departure {
    pub arrived: f64,
    pub departed: f64,
    pub work: f64,
}

impl Departure {
    /// Response (sojourn) time.
    pub fn response(&self) -> f64 {
        self.departed - self.arrived
    }
}

/// Runs `server` over a pre-built arrival list `(time, work)`, sorted by
/// time. Returns one [`Departure`] per job, in departure order.
pub fn drive<S: Server<usize>>(server: &mut S, arrivals: &[(f64, f64)]) -> Vec<Departure> {
    debug_assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals must be sorted");
    let mut out: Vec<Departure> = Vec::with_capacity(arrivals.len());
    let mut done: Vec<Completion<usize>> = Vec::new();
    let mut i = 0;
    loop {
        let next_arrival = arrivals.get(i).map(|a| a.0);
        match (server.next_event(), next_arrival) {
            (Some(te), Some(ta)) if te <= ta => server.on_event(te, &mut done),
            (_, Some(ta)) => {
                server.arrive(ta, arrivals[i].1, i);
                i += 1;
            }
            (Some(te), None) => server.on_event(te, &mut done),
            (None, None) => break,
        }
        out.extend(done.drain(..).map(|c| {
            let (arrived, work) = arrivals[c.tag];
            Departure { arrived, departed: c.time, work }
        }));
    }
    out
}

/// Builds a Poisson(`lambda`) arrival list of `n` jobs with IID work drawn
/// from `work_dist`.
pub fn poisson_arrivals(
    lambda: f64,
    work_dist: &dyn Sample,
    n: usize,
    rng: &mut Rng,
) -> Vec<(f64, f64)> {
    assert!(lambda > 0.0);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(lambda);
            (t, work_dist.sample(rng))
        })
        .collect()
}

/// Summary of a queueing simulation run.
#[derive(Clone, Debug)]
pub struct QueueRunStats {
    /// Response-time moments over the measured (post-warm-up) jobs.
    pub response: Welford,
    /// Mean measured response time.
    pub mean_response: f64,
    /// 95% CI half width on the mean response.
    pub ci95: f64,
    /// Number of measured jobs.
    pub jobs: u64,
}

/// Runs an M/G/1-`server` experiment end to end: generates `n` Poisson
/// arrivals, drives the server, discards the first `warmup` jobs, and
/// summarises response times.
pub fn measure_mg1<S: Server<usize>>(
    server: &mut S,
    lambda: f64,
    work_dist: &dyn Sample,
    n: usize,
    warmup: usize,
    rng: &mut Rng,
) -> QueueRunStats {
    let arrivals = poisson_arrivals(lambda, work_dist, n, rng);
    let mut deps = drive(server, &arrivals);
    // Measure in arrival order so "first warmup jobs" is well defined.
    deps.sort_by(|a, b| a.arrived.total_cmp(&b.arrived));
    let mut response = Welford::new();
    for d in deps.iter().skip(warmup) {
        response.push(d.response());
    }
    QueueRunStats {
        mean_response: response.mean(),
        ci95: response.ci95_half_width(),
        jobs: response.count(),
        response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoServer;
    use crate::ps::PsServer;
    use crate::rr::RrServer;
    use crate::theory::{MG1Fifo, MG1Ps};
    use simcore::dist::{Deterministic, Exponential, Pareto};

    const N: usize = 60_000;
    const WARMUP: usize = 5_000;

    #[test]
    fn ps_matches_mm1_mean_response() {
        // M/M/1-PS: lambda=0.6, mean work 1, capacity 1 → rho=0.6, E[T]=2.5.
        let mut rng = Rng::new(101);
        let mut server = PsServer::new(1.0);
        let stats =
            measure_mg1(&mut server, 0.6, &Exponential::with_mean(1.0), N, WARMUP, &mut rng);
        let theory = MG1Ps::new(0.6, 1.0, 1.0).mean_response().unwrap();
        assert!(
            (stats.mean_response - theory).abs() < 0.1 + 3.0 * stats.ci95,
            "measured {} vs theory {theory}",
            stats.mean_response
        );
    }

    #[test]
    fn ps_insensitivity_pareto_vs_exponential() {
        // PS mean response depends only on the mean work: Pareto(2.5) with
        // mean 1 must give the same mean response as Exp(mean 1).
        let lambda = 0.6;
        let theory = MG1Ps::new(lambda, 1.0, 1.0).mean_response().unwrap();
        let mut rng = Rng::new(102);
        let mut s1 = PsServer::new(1.0);
        let exp = measure_mg1(&mut s1, lambda, &Exponential::with_mean(1.0), N, WARMUP, &mut rng);
        let mut s2 = PsServer::new(1.0);
        let par = measure_mg1(&mut s2, lambda, &Pareto::with_mean(1.0, 2.5), N, WARMUP, &mut rng);
        assert!((exp.mean_response - theory).abs() / theory < 0.08, "exp {}", exp.mean_response);
        assert!((par.mean_response - theory).abs() / theory < 0.12, "pareto {}", par.mean_response);
    }

    #[test]
    fn ps_conditional_response_is_linear_in_work() {
        // E[T | work = w] = (w/cap)/(1-rho): check the ratio for small vs
        // large jobs.
        let mut rng = Rng::new(103);
        let arrivals = poisson_arrivals(0.5, &Exponential::with_mean(1.0), N, &mut rng);
        let mut server = PsServer::new(1.0);
        let deps = drive(&mut server, &arrivals);
        let mut small = Welford::new();
        let mut large = Welford::new();
        for d in deps.iter().skip(WARMUP) {
            // Normalise response by work: should be ≈ 1/(1-rho) = 2 for all sizes.
            if d.work < 0.5 {
                small.push(d.response() / d.work);
            } else if d.work > 2.0 {
                large.push(d.response() / d.work);
            }
        }
        let slowdown = 1.0 / (1.0 - 0.5);
        // Small jobs' slowdown is noisier (tiny denominators) but the means
        // must both straddle 1/(1-rho).
        assert!((large.mean() - slowdown).abs() / slowdown < 0.1, "large {}", large.mean());
        assert!((small.mean() - slowdown).abs() / slowdown < 0.35, "small {}", small.mean());
    }

    #[test]
    fn fifo_matches_pollaczek_khinchine_md1() {
        // M/D/1: deterministic service 1 at capacity 1, lambda 0.5.
        let lambda = 0.5;
        let mut rng = Rng::new(104);
        let mut server = FifoServer::new(1.0);
        let stats = measure_mg1(&mut server, lambda, &Deterministic(1.0), N, WARMUP, &mut rng);
        let theory = MG1Fifo::new(lambda, 1.0, 1.0).mean_response().unwrap();
        assert!(
            (stats.mean_response - theory).abs() / theory < 0.05,
            "measured {} vs theory {theory}",
            stats.mean_response
        );
    }

    #[test]
    fn fifo_is_sensitive_to_variance_ps_is_not() {
        let lambda = 0.5;
        let mut rng = Rng::new(105);
        // High-variance work: Pareto shape 2.2, mean 1 (CV² ≈ 2.27 analytic).
        let heavy = Pareto::with_mean(1.0, 2.2);
        let mut fifo = FifoServer::new(1.0);
        let f = measure_mg1(&mut fifo, lambda, &heavy, N, WARMUP, &mut rng);
        let mut ps = PsServer::new(1.0);
        let p = measure_mg1(&mut ps, lambda, &heavy, N, WARMUP, &mut rng);
        let ps_theory = MG1Ps::new(lambda, 1.0, 1.0).mean_response().unwrap();
        assert!(
            f.mean_response > p.mean_response,
            "fifo {} ps {}",
            f.mean_response,
            p.mean_response
        );
        assert!((p.mean_response - ps_theory).abs() / ps_theory < 0.15);
    }

    #[test]
    fn rr_converges_to_ps_as_quantum_shrinks() {
        // Use deterministic service: for exponential work M/M/1-FIFO already
        // equals PS in mean, so there would be nothing to converge *from*.
        // With deterministic work, a huge quantum behaves like M/D/1-FIFO
        // (mean 1.75 at rho=0.6) while q→0 approaches PS (mean 2.5).
        let lambda = 0.6;
        let theory = MG1Ps::new(lambda, 1.0, 1.0).mean_response().unwrap();
        let mut errors = Vec::new();
        for quantum in [10.0, 0.25, 0.02] {
            let mut rng = Rng::new(106); // same seed → same arrivals
            let mut server = RrServer::new(1.0, quantum);
            let stats =
                measure_mg1(&mut server, lambda, &Deterministic(1.0), 30_000, 3_000, &mut rng);
            errors.push((stats.mean_response - theory).abs() / theory);
        }
        // Error shrinks monotonically toward the PS limit, and the smallest
        // quantum lands close.
        assert!(errors[0] > 0.15, "large quantum should look like FIFO: {errors:?}");
        assert!(errors[1] < errors[0], "errors {errors:?}");
        assert!(errors[2] < errors[1], "errors {errors:?}");
        assert!(errors[2] < 0.05, "errors {errors:?}");
    }

    #[test]
    fn poisson_arrival_rate_is_correct() {
        let mut rng = Rng::new(107);
        let arrivals = poisson_arrivals(4.0, &Deterministic(1.0), 40_000, &mut rng);
        let span = arrivals.last().unwrap().0 - arrivals[0].0;
        let rate = (arrivals.len() - 1) as f64 / span;
        assert!((rate - 4.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn departure_count_matches_arrivals() {
        let mut rng = Rng::new(108);
        let arrivals = poisson_arrivals(0.9, &Exponential::with_mean(1.0), 5_000, &mut rng);
        let mut server = PsServer::new(1.0);
        let deps = drive(&mut server, &arrivals);
        assert_eq!(deps.len(), arrivals.len());
        for d in &deps {
            assert!(d.departed >= d.arrived);
        }
    }
}
