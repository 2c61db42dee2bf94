//! Streaming statistics for simulation output analysis.
//!
//! * [`Welford`] — numerically stable streaming mean/variance, mergeable
//!   across parallel replications.
//! * [`TimeWeighted`] — time-average of a piecewise-constant signal (e.g.
//!   number-in-system), the workhorse for utilisation measurements.
//! * [`Histogram`] — fixed-width linear histogram with overflow bucket.
//! * [`BatchMeans`] — batch-means confidence intervals for correlated
//!   steady-state output series.

/// Numerically stable streaming moments (Welford / Chan et al. merge).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (needs ≥ 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the ~95% confidence interval on the mean
    /// (Student-t for small n, normal for large).
    pub fn ci95_half_width(&self) -> f64 {
        t_critical_95(self.n.saturating_sub(1)) * self.std_err()
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
/// Exact table for small df, asymptote 1.96 beyond.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[(d - 1) as usize],
        d if d <= 60 => 2.00,
        d if d <= 120 => 1.98,
        _ => 1.96,
    }
}

/// Time-average of a piecewise-constant signal.
///
/// Feed `(time, new_value)` updates; the accumulator integrates the previous
/// value over the elapsed interval. Typical uses: number-in-system, server
/// busy indicator (utilisation).
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_t: f64,
    value: f64,
    integral: f64,
    start_t: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    pub fn new() -> Self {
        TimeWeighted { last_t: 0.0, value: 0.0, integral: 0.0, start_t: 0.0, started: false }
    }

    /// Records that the signal changed to `value` at time `t`.
    pub fn set(&mut self, t: f64, value: f64) {
        if !self.started {
            self.start_t = t;
            self.started = true;
        } else {
            debug_assert!(t >= self.last_t, "time went backwards");
            self.integral += self.value * (t - self.last_t);
        }
        self.last_t = t;
        self.value = value;
    }

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: f64, delta: f64) {
        let v = self.value;
        self.set(t, v + delta);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-average over `[start, t_end]`.
    ///
    /// An empty accumulator (or `t_end` at/before the first sample)
    /// averages to 0. A `t_end` before the last sample is clamped to the
    /// last sample time: the accumulator cannot rewind history, so the
    /// answer covers the full observed span rather than extrapolating a
    /// *negative* contribution from the current value.
    pub fn time_average(&self, t_end: f64) -> f64 {
        if !self.started || t_end <= self.start_t {
            return 0.0;
        }
        let t_end = t_end.max(self.last_t);
        if t_end <= self.start_t {
            return 0.0;
        }
        let integral = self.integral + self.value * (t_end - self.last_t);
        integral / (t_end - self.start_t)
    }
}

/// Fixed-width linear histogram over `[lo, hi)` with `bins` buckets plus
/// underflow/overflow counters.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower edge of bucket `i`.
    pub fn edge(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.width
    }

    /// Merges another histogram into this one. Bucket counts are exact
    /// integer adds, so the merge is associative and commutative — the
    /// property parallel reductions rely on. Panics unless both share the
    /// same bucket geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "histogram merge requires identical bucket geometry"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile from bucket midpoints (`q` in `[0,1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return f64::NAN;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0 {
            return self.lo;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.edge(i) + 0.5 * self.width;
            }
        }
        self.lo + self.width * self.counts.len() as f64
    }
}

/// Batch-means analysis for autocorrelated steady-state series.
///
/// Observations are grouped into `num_batches` equal batches; the batch means
/// are (approximately) independent, giving a valid CI on the grand mean.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    values: Vec<f64>,
    num_batches: usize,
}

impl BatchMeans {
    pub fn new(num_batches: usize) -> Self {
        assert!(num_batches >= 2);
        BatchMeans { values: Vec::new(), num_batches }
    }

    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Discards the first `n` observations (warm-up deletion).
    pub fn discard_warmup(&mut self, n: usize) {
        let n = n.min(self.values.len());
        self.values.drain(..n);
    }

    /// Grand mean over retained observations.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// `(mean, ci95_half_width)` via batch means. Observations that don't
    /// fill an integral number of batches are truncated from the front.
    pub fn mean_ci(&self) -> (f64, f64) {
        let n = self.values.len();
        if n < self.num_batches * 2 {
            // Too little data for batching; fall back to IID Welford.
            let mut w = Welford::new();
            for &v in &self.values {
                w.push(v);
            }
            return (w.mean(), w.ci95_half_width());
        }
        let batch_size = n / self.num_batches;
        let start = n - batch_size * self.num_batches;
        let mut w = Welford::new();
        for b in 0..self.num_batches {
            let lo = start + b * batch_size;
            let hi = lo + batch_size;
            let m = self.values[lo..hi].iter().sum::<f64>() / batch_size as f64;
            w.push(m);
        }
        (w.mean(), w.ci95_half_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut rng = Rng::new(1);
        let xs: Vec<f64> = (0..1000).map(|_| rng.f64() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..337] {
            a.push(x);
        }
        for &x in &xs[337..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        b.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 4.0).abs() < 1e-12);
        let empty = Welford::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(0.0, 1.0); // value 1 on [0, 2)
        tw.set(2.0, 3.0); // value 3 on [2, 4)
        tw.set(4.0, 0.0); // value 0 on [4, 8)

        // integral = 1*2 + 3*2 + 0*4 = 8 over 8 seconds
        assert!((tw.time_average(8.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new();
        tw.set(0.0, 0.0);
        tw.add(1.0, 2.0); // 0 on [0,1), 2 on [1,3)
        tw.add(3.0, -2.0); // 0 afterwards
        assert!((tw.time_average(4.0) - 1.0).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_empty_is_zero() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.time_average(10.0), 0.0);
        assert_eq!(tw.time_average(0.0), 0.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_t_end_at_or_before_start_is_zero() {
        let mut tw = TimeWeighted::new();
        tw.set(5.0, 3.0);
        assert_eq!(tw.time_average(5.0), 0.0);
        assert_eq!(tw.time_average(4.0), 0.0);
    }

    #[test]
    fn time_weighted_t_end_before_last_sample_clamps() {
        let mut tw = TimeWeighted::new();
        tw.set(0.0, 1.0); // value 1 on [0, 4)
        tw.set(4.0, 100.0);
        // Querying inside the observed span must not extrapolate the
        // current value backwards: the answer is the average over the
        // full observed span [0, 4], which is exactly 1.
        let avg = tw.time_average(2.0);
        assert!((avg - 1.0).abs() < 1e-12, "clamped average {avg}");
        assert!(avg >= 0.0, "never negative for a non-negative signal");
    }

    #[test]
    fn time_weighted_single_sample_span() {
        let mut tw = TimeWeighted::new();
        tw.set(1.0, 2.0);
        // Constant value 2 over [1, 3].
        assert!((tw.time_average(3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_matches_combined_stream() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 * 7.31) % 12.0 - 1.0).collect();
        let mut all = Histogram::new(0.0, 10.0, 20);
        let mut a = Histogram::new(0.0, 10.0, 20);
        let mut b = Histogram::new(0.0, 10.0, 20);
        for (i, &x) in xs.iter().enumerate() {
            all.push(x);
            if i % 3 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), all.total());
        assert_eq!(a.underflow(), all.underflow());
        assert_eq!(a.overflow(), all.overflow());
        for i in 0..all.bins() {
            assert_eq!(a.count(i), all.count(i), "bucket {i}");
        }
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
    }

    #[test]
    fn histogram_merge_associative() {
        // u64 bucket adds are exactly associative: (a∪b)∪c == a∪(b∪c).
        let mk = |vals: &[f64]| {
            let mut h = Histogram::new(0.0, 1.0, 8);
            for &v in vals {
                h.push(v);
            }
            h
        };
        let (a, b, c) = (mk(&[0.1, 0.9, 2.0]), mk(&[0.5, -0.5]), mk(&[0.3, 0.3, 0.99]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.total(), right.total());
        for i in 0..left.bins() {
            assert_eq!(left.count(i), right.count(i));
        }
        assert_eq!(left.underflow(), right.underflow());
        assert_eq!(left.overflow(), right.overflow());
    }

    #[test]
    #[should_panic(expected = "identical bucket geometry")]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 10.0, 20);
        a.merge(&b);
    }

    #[test]
    fn histogram_buckets_and_quantile() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 10.0); // 0.0 .. 9.9, 10 per bucket
        }
        assert_eq!(h.total(), 100);
        for i in 0..10 {
            assert_eq!(h.count(i), 10, "bucket {i}");
        }
        let med = h.quantile(0.5);
        assert!((med - 4.5).abs() <= 1.0, "median {med}");
        h.push(-1.0);
        h.push(11.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn batch_means_covers_true_mean() {
        // AR(1)-ish correlated series with mean 10.
        let mut rng = Rng::new(4);
        let mut bm = BatchMeans::new(20);
        let mut x = 10.0;
        for _ in 0..50_000 {
            x = 10.0 + 0.9 * (x - 10.0) + rng.normal();
            bm.push(x);
        }
        bm.discard_warmup(1000);
        let (mean, hw) = bm.mean_ci();
        assert!((mean - 10.0).abs() < 3.0 * hw.max(0.05), "mean {mean} ± {hw}");
        assert!(hw > 0.0);
    }

    #[test]
    fn batch_means_fallback_small_n() {
        let mut bm = BatchMeans::new(10);
        for i in 0..5 {
            bm.push(i as f64);
        }
        let (mean, _) = bm.mean_ci();
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn t_table_sane() {
        assert!(t_critical_95(0).is_infinite());
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
        // Monotone decreasing.
        assert!(t_critical_95(5) > t_critical_95(10));
        assert!(t_critical_95(10) > t_critical_95(1000));
    }
}
