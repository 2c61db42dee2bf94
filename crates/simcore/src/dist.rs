//! Sampling distributions.
//!
//! Everything that generates workload randomness — item sizes, inter-arrival
//! times, popularity ranks — goes through the [`Sample`] trait so that
//! simulators can be parameterised by distribution. Each distribution knows
//! its analytic mean (used by the analytical models, which only see `s̄`),
//! and most know their variance.
//!
//! The catalogue-sampling distributions ([`Discrete`], [`Zipf`]) return
//! indices and use Walker's alias method for O(1) draws.

use crate::rng::Rng;

/// A distribution over `f64` values.
pub trait Sample: Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// Analytic mean, if it exists and is finite.
    fn mean(&self) -> f64;

    /// Analytic variance, if known and finite.
    fn variance(&self) -> Option<f64> {
        None
    }
}

/// Point mass at `value` (deterministic service/size).
#[derive(Clone, Copy, Debug)]
pub struct Deterministic(pub f64);

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
    fn variance(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    pub lo: f64,
    pub hi: f64,
}

impl Uniform {
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "Uniform: lo > hi");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> Option<f64> {
        let w = self.hi - self.lo;
        Some(w * w / 12.0)
    }
}

/// Exponential with rate `rate` (mean `1/rate`).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    pub rate: f64,
}

impl Exponential {
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential: rate must be > 0");
        Exponential { rate }
    }
    /// Exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.exp(self.rate)
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> Option<f64> {
        Some(1.0 / (self.rate * self.rate))
    }
}

/// Erlang-k: sum of `k` independent exponentials of rate `rate`.
#[derive(Clone, Copy, Debug)]
pub struct Erlang {
    pub k: u32,
    pub rate: f64,
}

impl Erlang {
    pub fn new(k: u32, rate: f64) -> Self {
        assert!(k >= 1 && rate > 0.0);
        Erlang { k, rate }
    }
}

impl Sample for Erlang {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (0..self.k).map(|_| rng.exp(self.rate)).sum()
    }
    fn mean(&self) -> f64 {
        self.k as f64 / self.rate
    }
    fn variance(&self) -> Option<f64> {
        Some(self.k as f64 / (self.rate * self.rate))
    }
}

/// Pareto (Lomax form shifted to `scale`): density `a·scaleᵃ/xᵃ⁺¹` for
/// `x ≥ scale`. Heavy-tailed file sizes. Mean finite iff `shape > 1`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    pub shape: f64,
    pub scale: f64,
}

impl Pareto {
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 1.0, "Pareto: need shape > 1 for a finite mean");
        assert!(scale > 0.0);
        Pareto { shape, scale }
    }

    /// Pareto with the given mean and tail exponent.
    pub fn with_mean(mean: f64, shape: f64) -> Self {
        assert!(shape > 1.0);
        Pareto::new(shape, mean * (shape - 1.0) / shape)
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let u = 1.0 - rng.f64(); // in (0, 1]
        self.scale / u.powf(1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale / (self.shape - 1.0)
    }
    fn variance(&self) -> Option<f64> {
        if self.shape > 2.0 {
            let a = self.shape;
            let s = self.scale;
            Some(s * s * a / ((a - 1.0) * (a - 1.0) * (a - 2.0)))
        } else {
            None
        }
    }
}

/// Pareto truncated at `cap`; samples above the cap are redrawn.
/// Keeps heavy-tail shape while bounding worst-case service time.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    pub inner: Pareto,
    pub cap: f64,
}

impl BoundedPareto {
    pub fn new(shape: f64, scale: f64, cap: f64) -> Self {
        assert!(cap > scale, "BoundedPareto: cap must exceed scale");
        BoundedPareto { inner: Pareto::new(shape, scale), cap }
    }
}

impl Sample for BoundedPareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse-CDF of the truncated distribution (no rejection loop).
        let a = self.inner.shape;
        let l = self.inner.scale;
        let h = self.cap;
        let u = rng.f64();
        let la = l.powf(a);
        let ha = h.powf(a);
        (la / (1.0 - u * (1.0 - la / ha))).powf(1.0 / a)
    }
    fn mean(&self) -> f64 {
        let a = self.inner.shape;
        let l = self.inner.scale;
        let h = self.cap;
        if (a - 1.0).abs() < 1e-12 {
            (l * h / (h - l)) * (h / l).ln()
        } else {
            (l.powf(a) / (1.0 - (l / h).powf(a)))
                * (a / (a - 1.0))
                * (l.powf(1.0 - a) - h.powf(1.0 - a))
        }
    }
}

/// Empirical distribution resampling uniformly from observed values.
#[derive(Clone, Debug)]
pub struct Empirical {
    values: Vec<f64>,
    mean: f64,
}

impl Empirical {
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "Empirical: need at least one value");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Empirical { values, mean }
    }
    pub fn len(&self) -> usize {
        self.values.len()
    }
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut Rng) -> f64 {
        *rng.pick(&self.values)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Discrete distribution over indices `0..n` with given weights,
/// sampled in O(1) via Walker's alias method.
#[derive(Clone, Debug)]
pub struct Discrete {
    prob: Vec<f64>,
    alias: Vec<u32>,
    weights_sum: f64,
    mean_index: f64,
}

impl Discrete {
    /// Builds the alias table from non-negative weights (not all zero).
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "Discrete: empty weight vector");
        assert!(n <= u32::MAX as usize, "Discrete: too many outcomes");
        let sum: f64 = weights.iter().sum();
        assert!(
            sum > 0.0 && sum.is_finite(),
            "Discrete: weights must sum to a positive finite value"
        );
        assert!(weights.iter().all(|&w| w >= 0.0), "Discrete: negative weight");

        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scaled probabilities (mean 1).
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / sum).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &l in &large {
            prob[l as usize] = 1.0;
        }
        for &s in &small {
            prob[s as usize] = 1.0; // numerical leftovers
        }
        let mean_index = weights.iter().enumerate().map(|(i, &w)| i as f64 * w).sum::<f64>() / sum;
        Discrete { prob, alias, weights_sum: sum, mean_index }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the original weights.
    pub fn total_weight(&self) -> f64 {
        self.weights_sum
    }

    /// The alias table's `(prob, alias)` entry for outcome `i`: a draw of
    /// `i` returns `i` when its uniform variate is below `prob`, `alias`
    /// otherwise.
    pub fn entry(&self, i: usize) -> (f64, usize) {
        (self.prob[i], self.alias[i] as usize)
    }

    /// Draws an outcome index in O(1).
    #[inline]
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

impl Sample for Discrete {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_index(rng) as f64
    }
    fn mean(&self) -> f64 {
        self.mean_index
    }
}

/// Zipf law over ranks `0..n`: weight of rank `i` is `1/(i+1)^s`.
///
/// Backed by an alias table, so sampling is O(1) after O(n) setup.
#[derive(Clone, Debug)]
pub struct Zipf {
    table: Discrete,
    pub n: usize,
    pub exponent: f64,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf: need at least one rank");
        assert!(exponent >= 0.0, "Zipf: exponent must be non-negative");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).collect();
        Zipf { table: Discrete::new(&weights), n, exponent }
    }

    /// Probability of rank `i` (0-based).
    pub fn prob(&self, i: usize) -> f64 {
        1.0 / ((i + 1) as f64).powf(self.exponent) / self.table.total_weight()
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        self.table.sample_index(rng)
    }
}

impl Sample for Zipf {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_rank(rng) as f64
    }
    fn mean(&self) -> f64 {
        self.table.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn empirical_mean(d: &dyn Sample, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic(3.5);
        let mut rng = Rng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(2.0);
        let m = empirical_mean(&d, 2, 200_000);
        assert!((m - 2.0).abs() < 0.03, "mean {m}");
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn erlang_mean_and_variance() {
        let d = Erlang::new(4, 2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.variance().unwrap() - 1.0).abs() < 1e-12);
        let m = empirical_mean(&d, 3, 100_000);
        assert!((m - 2.0).abs() < 0.03, "mean {m}");
    }

    #[test]
    fn pareto_with_mean() {
        let d = Pareto::with_mean(1.0, 2.5);
        assert!((d.mean() - 1.0).abs() < 1e-12);
        let m = empirical_mean(&d, 5, 400_000);
        assert!((m - 1.0).abs() < 0.05, "empirical mean {m}");
    }

    #[test]
    fn bounded_pareto_never_exceeds_cap() {
        let d = BoundedPareto::new(1.2, 0.5, 50.0);
        let mut rng = Rng::new(6);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((0.5..=50.0).contains(&x), "sample {x}");
        }
        let m = empirical_mean(&d, 7, 400_000);
        assert!((m - d.mean()).abs() / d.mean() < 0.05, "emp {m} vs analytic {}", d.mean());
    }

    #[test]
    fn empirical_resamples_values() {
        let d = Empirical::new(vec![1.0, 2.0, 3.0]);
        let mut rng = Rng::new(10);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!(x == 1.0 || x == 2.0 || x == 3.0);
        }
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_alias_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let d = Discrete::new(&weights);
        let mut rng = Rng::new(11);
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample_index(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = weights[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "outcome {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn discrete_single_outcome() {
        let d = Discrete::new(&[5.0]);
        let mut rng = Rng::new(12);
        assert_eq!(d.sample_index(&mut rng), 0);
    }

    #[test]
    fn zipf_rank_probabilities() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(13);
        let n = 500_000;
        let mut count0 = 0usize;
        let mut count9 = 0usize;
        for _ in 0..n {
            match z.sample_rank(&mut rng) {
                0 => count0 += 1,
                9 => count9 += 1,
                _ => {}
            }
        }
        let p0 = count0 as f64 / n as f64;
        let p9 = count9 as f64 / n as f64;
        assert!((p0 - z.prob(0)).abs() < 0.005, "p0 {p0} vs {}", z.prob(0));
        assert!((p9 - z.prob(9)).abs() < 0.002, "p9 {p9} vs {}", z.prob(9));
        // Rank 0 is ~10x more likely than rank 9 under exponent 1.
        assert!(p0 / p9 > 7.0 && p0 / p9 < 13.0);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.prob(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_probs_sum_to_one() {
        let z = Zipf::new(1000, 0.8);
        let total: f64 = (0..1000).map(|i| z.prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
