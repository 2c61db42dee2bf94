//! Arrival processes — the `λ` axis of the model.
//!
//! The paper assumes Poisson arrivals (the M in M/G/1).

use simcore::rng::Rng;

/// Generates inter-arrival gaps.
pub trait ArrivalProcess {
    /// Time until the next arrival (strictly positive).
    fn next_gap(&mut self, rng: &mut Rng) -> f64;
}

/// Poisson process: exponential gaps at rate `lambda`.
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals {
    pub lambda: f64,
}

impl PoissonArrivals {
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0);
        PoissonArrivals { lambda }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut Rng) -> f64 {
        rng.exp(self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(p: &mut dyn ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        let span: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        n as f64 / span
    }

    #[test]
    fn poisson_rate() {
        let mut p = PoissonArrivals::new(30.0);
        let r = empirical_rate(&mut p, 100_000, 1);
        assert!((r - 30.0).abs() < 0.5, "rate {r}");
    }

    #[test]
    fn poisson_gap_cv_is_one() {
        let mut rng = Rng::new(2);
        let mut p = PoissonArrivals::new(10.0);
        let gaps: Vec<f64> = (0..100_000).map(|_| p.next_gap(&mut rng)).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!((cv2 - 1.0).abs() < 0.05, "cv² {cv2}");
    }

    #[test]
    fn arrival_times_are_increasing() {
        let mut rng = Rng::new(6);
        let mut p = PoissonArrivals::new(100.0);
        let mut t = 0.0;
        for _ in 0..1000 {
            let next = t + p.next_gap(&mut rng);
            assert!(next > t);
            t = next;
        }
    }
}
