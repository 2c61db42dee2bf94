//! Classical queueing laws checked against the running substrates —
//! the facts the paper's equation (2) quietly relies on.

use proptest::prelude::*;
use speculative_prefetch::queueing::driver::{drive, poisson_arrivals};
use speculative_prefetch::queueing::theory::MG1Ps;
use speculative_prefetch::queueing::{PsServer, Server};
use speculative_prefetch::simcore::dist::Exponential;
use speculative_prefetch::simcore::rng::Rng;

/// Mean number-in-system of M/M/1-PS equals ρ/(1−ρ) (and by Little's law,
/// λ·E[T]).
#[test]
fn mean_in_system_matches_littles_law() {
    for &rho in &[0.3f64, 0.6, 0.8] {
        let mut rng = Rng::new(rho.to_bits());
        let n = 120_000;
        let arrivals = poisson_arrivals(rho, &Exponential::with_mean(1.0), n, &mut rng);
        let mut server = PsServer::new(1.0);
        let deps = drive(&mut server, &arrivals);
        let t_end = deps.iter().map(|d| d.departed).fold(0.0, f64::max);
        let measured_n = server.mean_in_system(t_end);
        let theory_n = MG1Ps::new(rho, 1.0, 1.0).mean_in_system().unwrap();
        assert!(
            (measured_n - theory_n).abs() / theory_n < 0.08,
            "rho {rho}: N {measured_n} vs {theory_n}"
        );
        // Little's law: N = λ · E[T] with measured quantities.
        let mean_t = deps.iter().map(|d| d.response()).sum::<f64>() / deps.len() as f64;
        assert!(
            (measured_n - rho * mean_t).abs() / measured_n < 0.05,
            "rho {rho}: N {measured_n} vs λT {}",
            rho * mean_t
        );
    }
}

/// Measured utilisation equals the offered load across the stable range.
#[test]
fn utilisation_equals_offered_load() {
    for &rho in &[0.2f64, 0.5, 0.9] {
        let mut rng = Rng::new(1000 + rho.to_bits());
        let arrivals = poisson_arrivals(rho, &Exponential::with_mean(1.0), 100_000, &mut rng);
        let mut server = PsServer::new(1.0);
        let deps = drive(&mut server, &arrivals);
        let t_end = deps.iter().map(|d| d.departed).fold(0.0, f64::max);
        let measured = server.utilisation(t_end);
        assert!((measured - rho).abs() < 0.02, "rho {rho}: measured {measured}");
    }
}

/// The paper's eq (2) at the job level: regressing response on work gives
/// slope 1/(b(1−ρ)) and negligible intercept under PS.
#[test]
fn response_is_linear_in_work_through_origin() {
    let rho: f64 = 0.6;
    let mut rng = Rng::new(77);
    let arrivals = poisson_arrivals(rho, &Exponential::with_mean(1.0), 150_000, &mut rng);
    let mut server = PsServer::new(1.0);
    let deps = drive(&mut server, &arrivals);
    // Least squares response ~ a + b·work over the steady-state portion.
    let skip = 20_000;
    let xs: Vec<f64> = deps.iter().skip(skip).map(|d| d.work).collect();
    let ys: Vec<f64> = deps.iter().skip(skip).map(|d| d.response()).collect();
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let expect = 1.0 / (1.0 - rho);
    assert!((slope - expect).abs() / expect < 0.05, "slope {slope} vs {expect}");
    assert!(intercept.abs() < 0.1 * my, "intercept {intercept} vs mean {my}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Busy time never exceeds elapsed time nor total work/capacity.
    #[test]
    fn busy_time_bounds(jobs in proptest::collection::vec((0.0f64..50.0, 0.1f64..3.0), 1..40),
                        cap in 0.5f64..4.0) {
        let mut arr = jobs.clone();
        arr.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut server = PsServer::new(cap);
        let deps = drive(&mut server, &arr);
        let t_end = deps.iter().map(|d| d.departed).fold(0.0f64, f64::max);
        let total_work: f64 = arr.iter().map(|j| j.1).sum();
        prop_assert!(server.busy_time() <= t_end + 1e-9);
        prop_assert!((server.busy_time() - total_work / cap).abs() < 1e-6,
            "busy {} vs work/cap {}", server.busy_time(), total_work / cap);
    }
}
