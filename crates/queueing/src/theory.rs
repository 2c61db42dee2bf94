//! Closed-form queueing results.
//!
//! All formulas assume Poisson arrivals at rate `lambda` and a single server
//! of capacity `capacity` work-units per second, so a job of `work` units has
//! service time `x = work / capacity`. Utilisation is
//! `ρ = lambda · E[work] / capacity`; results are `None` when `ρ ≥ 1`
//! (unstable system — no steady state exists).

/// Server utilisation `ρ = λ·E[work]/capacity`.
#[inline]
pub fn utilisation(lambda: f64, mean_work: f64, capacity: f64) -> f64 {
    lambda * mean_work / capacity
}

/// Whether a utilisation value admits a steady state.
#[inline]
pub fn is_stable(rho: f64) -> bool {
    (0.0..1.0).contains(&rho)
}

/// M/G/1 **processor sharing**.
///
/// PS is insensitive to the service-time distribution beyond its mean: the
/// conditional mean response time of a job with service requirement `x` is
/// exactly `x/(1−ρ)` (Kleinrock Vol. 2) — the paper's equation (2).
#[derive(Clone, Copy, Debug)]
pub struct MG1Ps {
    pub lambda: f64,
    pub mean_work: f64,
    pub capacity: f64,
}

impl MG1Ps {
    pub fn new(lambda: f64, mean_work: f64, capacity: f64) -> Self {
        assert!(lambda >= 0.0 && mean_work > 0.0 && capacity > 0.0);
        MG1Ps { lambda, mean_work, capacity }
    }

    pub fn rho(&self) -> f64 {
        utilisation(self.lambda, self.mean_work, self.capacity)
    }

    pub fn is_stable(&self) -> bool {
        is_stable(self.rho())
    }

    /// Mean service time `x̄ = E[work]/capacity`.
    pub fn mean_service(&self) -> f64 {
        self.mean_work / self.capacity
    }

    /// Mean response time of a job with service requirement `x` seconds:
    /// `x/(1−ρ)`.
    pub fn response_for_service(&self, x: f64) -> Option<f64> {
        self.is_stable().then(|| x / (1.0 - self.rho()))
    }

    /// Overall mean response time `x̄/(1−ρ)` — the paper's `r̄`.
    pub fn mean_response(&self) -> Option<f64> {
        self.response_for_service(self.mean_service())
    }

    /// Mean number in system, by Little's law: `λ·E[T] = ρ/(1−ρ)`.
    pub fn mean_in_system(&self) -> Option<f64> {
        self.is_stable().then(|| {
            let rho = self.rho();
            rho / (1.0 - rho)
        })
    }

    /// The *slowdown* factor `1/(1−ρ)` every job experiences.
    pub fn stretch(&self) -> Option<f64> {
        self.is_stable().then(|| 1.0 / (1.0 - self.rho()))
    }
}

/// M/M/1 (FIFO or PS — identical means for exponential service).
#[derive(Clone, Copy, Debug)]
pub struct MM1 {
    pub lambda: f64,
    pub mu: f64,
}

impl MM1 {
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(lambda >= 0.0 && mu > 0.0);
        MM1 { lambda, mu }
    }

    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    pub fn is_stable(&self) -> bool {
        is_stable(self.rho())
    }

    /// Mean response time `1/(μ−λ)`.
    pub fn mean_response(&self) -> Option<f64> {
        self.is_stable().then(|| 1.0 / (self.mu - self.lambda))
    }

    /// Mean number in system `ρ/(1−ρ)`.
    pub fn mean_in_system(&self) -> Option<f64> {
        self.is_stable().then(|| {
            let rho = self.rho();
            rho / (1.0 - rho)
        })
    }

    /// Steady-state probability of `n` jobs in the system.
    pub fn prob_n(&self, n: u32) -> Option<f64> {
        self.is_stable().then(|| {
            let rho = self.rho();
            (1.0 - rho) * rho.powi(n as i32)
        })
    }
}

/// M/G/1 **FIFO** via the Pollaczek–Khinchine formula.
///
/// Unlike PS, the mean *waiting* time depends on the second moment of
/// service: `E[W] = λ·E[S²] / (2(1−ρ))`.
#[derive(Clone, Copy, Debug)]
pub struct MG1Fifo {
    pub lambda: f64,
    /// Mean service time `E[S]` (seconds).
    pub es: f64,
    /// Second moment of service time `E[S²]` (seconds²).
    pub es2: f64,
}

impl MG1Fifo {
    pub fn new(lambda: f64, es: f64, es2: f64) -> Self {
        // The eps absorbs floating-point noise when es2 is computed as
        // (var + mean²)/cap² with var = 0 (deterministic service).
        assert!(lambda >= 0.0 && es > 0.0 && es2 >= es * es * (1.0 - 1e-12));
        MG1Fifo { lambda, es, es2 }
    }

    /// From a work distribution's mean/variance and a server capacity.
    pub fn from_work(lambda: f64, mean_work: f64, var_work: f64, capacity: f64) -> Self {
        let es = mean_work / capacity;
        let es2 = (var_work + mean_work * mean_work) / (capacity * capacity);
        MG1Fifo::new(lambda, es, es2)
    }

    pub fn rho(&self) -> f64 {
        self.lambda * self.es
    }

    pub fn is_stable(&self) -> bool {
        is_stable(self.rho())
    }

    /// Mean waiting time in queue (excluding service).
    pub fn mean_wait(&self) -> Option<f64> {
        self.is_stable().then(|| self.lambda * self.es2 / (2.0 * (1.0 - self.rho())))
    }

    /// Mean response time (waiting + service).
    pub fn mean_response(&self) -> Option<f64> {
        self.mean_wait().map(|w| w + self.es)
    }

    /// Squared coefficient of variation of service time.
    pub fn cv2(&self) -> f64 {
        (self.es2 - self.es * self.es) / (self.es * self.es)
    }
}

/// M/M/c: `c` parallel exponential servers, shared FIFO queue.
#[derive(Clone, Copy, Debug)]
pub struct MMc {
    pub lambda: f64,
    pub mu: f64,
    pub c: u32,
}

impl MMc {
    pub fn new(lambda: f64, mu: f64, c: u32) -> Self {
        assert!(lambda >= 0.0 && mu > 0.0 && c >= 1);
        MMc { lambda, mu, c }
    }

    /// Offered load in Erlangs `a = λ/μ`.
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Per-server utilisation `a/c`.
    pub fn rho(&self) -> f64 {
        self.offered_load() / self.c as f64
    }

    pub fn is_stable(&self) -> bool {
        is_stable(self.rho())
    }

    /// Erlang-C probability that an arriving job must wait.
    pub fn erlang_c(&self) -> Option<f64> {
        if !self.is_stable() {
            return None;
        }
        let a = self.offered_load();
        let c = self.c as f64;
        // Sum a^k/k! computed iteratively to avoid overflow.
        let mut term = 1.0; // a^0/0!
        let mut sum = 1.0;
        for k in 1..self.c {
            term *= a / k as f64;
            sum += term;
        }
        let term_c = term * a / c; // a^c/c!
        let pc = term_c / (1.0 - self.rho());
        Some(pc / (sum + pc))
    }

    /// Mean waiting time in queue.
    pub fn mean_wait(&self) -> Option<f64> {
        let pw = self.erlang_c()?;
        Some(pw / (self.c as f64 * self.mu - self.lambda))
    }

    /// Mean response time.
    pub fn mean_response(&self) -> Option<f64> {
        Some(self.mean_wait()? + 1.0 / self.mu)
    }
}

/// Little's law: `N = λ·T`.
#[inline]
pub fn littles_law_n(lambda: f64, mean_response: f64) -> f64 {
    lambda * mean_response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_basic() {
        assert!((utilisation(30.0, 1.0, 50.0) - 0.6).abs() < 1e-12);
        assert!(is_stable(0.6));
        assert!(!is_stable(1.0));
        assert!(!is_stable(1.5));
        assert!(!is_stable(-0.1));
    }

    #[test]
    fn ps_mean_response_paper_eq2() {
        // Paper Figure 2 parameters without prefetch: s̄=1, λ=30, b=50, h′=0.
        let q = MG1Ps::new(30.0, 1.0, 50.0);
        assert!((q.rho() - 0.6).abs() < 1e-12);
        // x = 1/50 = 0.02; r̄ = 0.02/0.4 = 0.05.
        assert!((q.mean_response().unwrap() - 0.05).abs() < 1e-12);
        assert!((q.stretch().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ps_unstable_is_none() {
        let q = MG1Ps::new(60.0, 1.0, 50.0);
        assert!(!q.is_stable());
        assert!(q.mean_response().is_none());
        assert!(q.mean_in_system().is_none());
    }

    #[test]
    fn ps_conditional_response_linear_in_x() {
        let q = MG1Ps::new(5.0, 1.0, 10.0); // rho = 0.5
        let t1 = q.response_for_service(1.0).unwrap();
        let t2 = q.response_for_service(2.0).unwrap();
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ps_littles_law_consistency() {
        let q = MG1Ps::new(3.0, 2.0, 10.0);
        let n = q.mean_in_system().unwrap();
        let t = q.mean_response().unwrap();
        assert!((n - littles_law_n(q.lambda, t)).abs() < 1e-12);
    }

    #[test]
    fn mm1_matches_ps_for_exponential() {
        // M/M/1 FIFO and M/M/1-PS have the same mean response time.
        let mm1 = MM1::new(3.0, 5.0);
        let ps = MG1Ps::new(3.0, 1.0, 5.0); // mean work 1, capacity 5 => mu = 5
        assert!((mm1.mean_response().unwrap() - ps.mean_response().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn mm1_state_probabilities_sum() {
        let q = MM1::new(2.0, 5.0);
        let total: f64 = (0..200).map(|n| q.prob_n(n).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-10);
        // Geometric decay.
        assert!(q.prob_n(0).unwrap() > q.prob_n(1).unwrap());
    }

    #[test]
    fn pk_formula_md1_vs_mm1() {
        // M/D/1 waiting is exactly half of M/M/1 waiting at equal rho.
        let lambda = 4.0;
        let es = 0.2; // rho = 0.8
        let md1 = MG1Fifo::new(lambda, es, es * es); // deterministic: E[S²] = E[S]²
        let mm1 = MG1Fifo::new(lambda, es, 2.0 * es * es); // exponential: E[S²] = 2E[S]²
        let w_det = md1.mean_wait().unwrap();
        let w_exp = mm1.mean_wait().unwrap();
        assert!((w_det / w_exp - 0.5).abs() < 1e-12);
        assert!((md1.cv2() - 0.0).abs() < 1e-12);
        assert!((mm1.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pk_from_work_roundtrip() {
        let q = MG1Fifo::from_work(2.0, 5.0, 25.0, 10.0);
        assert!((q.es - 0.5).abs() < 1e-12);
        assert!((q.es2 - 0.5).abs() < 1e-12);
        assert!((q.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_mean_exceeds_ps_for_high_variance() {
        // With CV² > 1, FIFO is worse than PS; with CV² < 1, better.
        let lambda = 4.0;
        let mean_work = 1.0;
        let cap = 10.0;
        let ps = MG1Ps::new(lambda, mean_work, cap).mean_response().unwrap();
        let hi = MG1Fifo::from_work(lambda, mean_work, 9.0, cap).mean_response().unwrap();
        let lo = MG1Fifo::from_work(lambda, mean_work, 0.0, cap).mean_response().unwrap();
        assert!(hi > ps, "hi-var FIFO {hi} vs PS {ps}");
        assert!(lo < ps, "det FIFO {lo} vs PS {ps}");
    }

    #[test]
    fn mmc_reduces_to_mm1() {
        let mmc = MMc::new(2.0, 5.0, 1);
        let mm1 = MM1::new(2.0, 5.0);
        assert!((mmc.mean_response().unwrap() - mm1.mean_response().unwrap()).abs() < 1e-10);
        // Erlang-C with one server = probability of waiting = rho.
        assert!((mmc.erlang_c().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mmc_more_servers_less_waiting() {
        let w2 = MMc::new(8.0, 5.0, 2).mean_wait().unwrap();
        let w4 = MMc::new(8.0, 5.0, 4).mean_wait().unwrap();
        assert!(w4 < w2);
    }

    #[test]
    fn mmc_unstable() {
        assert!(MMc::new(12.0, 5.0, 2).erlang_c().is_none());
    }
}
