//! Random-variate generators on top of [`Rng`].
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method;
//! they are deliberately stateless so a single generator instance can be
//! shared across model components while all randomness flows through an
//! explicitly-seeded [`Rng`].

use crate::rng::Rng;

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Uniform { lo, hi }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }
}

/// Exponential distribution with the given rate `lambda` (mean `1/lambda`).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda > 0`.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be > 0");
        Exponential { rate }
    }

    /// Creates an exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one sample by inversion.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.f64_open_left().ln() / self.rate
    }
}

/// Geometric distribution on `{1, 2, 3, ...}` (number of Bernoulli trials up
/// to and including the first success), with success probability `p`.
///
/// The mean is `1/p`. A geometric on `{0, 1, ...}` is obtained by
/// subtracting one from the sample.
#[derive(Clone, Copy, Debug)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, through `ln_1p`: `(1.0 - p).ln()` is 0 once `1 - p`
    /// rounds to 1 (p below ~1.1e-16), and loses digits well before.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric with success probability `p ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        Geometric {
            p,
            ln_q: (-p).ln_1p(),
        }
    }

    /// Creates a geometric on `{1,2,...}` with the given mean (`>= 1`).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean >= 1.0, "geometric mean must be >= 1, got {mean}");
        Self::new(1.0 / mean)
    }

    /// The per-trial success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample by inversion of the CDF: one draw, none at
    /// `p = 1`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        self.invert(rng.f64_open_left())
    }

    /// The sample at `u ∈ (0, 1]`: `1 + floor(ln u / ln(1 - p))`, which
    /// exceeds `k` exactly when `u <= (1 - p)^k`. Saturates at
    /// `u64::MAX` (the float-to-integer cast does).
    fn invert(&self, u: f64) -> u64 {
        ((u.ln() / self.ln_q).floor() as u64).saturating_add(1)
    }
}

/// Poisson distribution with the given mean.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Creates a Poisson with mean `>= 0`.
    ///
    /// # Panics
    /// Panics if `mean` is negative or not finite.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0);
        Poisson { mean }
    }

    /// Draws one sample.
    ///
    /// Uses Knuth's product method for small means and a normal
    /// approximation with continuity correction for large means (`> 60`,
    /// where the relative error of the approximation is far below the Monte
    /// Carlo noise of any use in this workspace).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.mean == 0.0 {
            return 0;
        }
        if self.mean <= 60.0 {
            let l = (-self.mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64_open_left();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Box-Muller normal approximation.
            let u1 = rng.f64_open_left();
            let u2 = rng.f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = self.mean + self.mean.sqrt() * z + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

/// Erlang-`k` distribution (sum of `k` i.i.d. exponentials).
#[derive(Clone, Copy, Debug)]
pub struct Erlang {
    k: u32,
    stage: Exponential,
}

impl Erlang {
    /// Creates an Erlang with `k >= 1` stages and total mean `mean`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `mean <= 0`.
    pub fn new(k: u32, mean: f64) -> Self {
        assert!(k >= 1);
        assert!(mean > 0.0);
        Erlang {
            k,
            stage: Exponential::with_mean(mean / f64::from(k)),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (0..self.k).map(|_| self.stage.sample(rng)).sum()
    }
}

/// Two-phase hyperexponential distribution: with probability `p1` the sample
/// is `Exp(rate1)`, otherwise `Exp(rate2)`. Useful for high-variance service
/// time models.
#[derive(Clone, Copy, Debug)]
pub struct HyperExponential {
    p1: f64,
    e1: Exponential,
    e2: Exponential,
}

impl HyperExponential {
    /// Creates the mixture `p1·Exp(rate1) + (1-p1)·Exp(rate2)`.
    ///
    /// # Panics
    /// Panics if `p1` is outside `[0,1]` or the rates are invalid.
    pub fn new(p1: f64, rate1: f64, rate2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p1));
        HyperExponential {
            p1,
            e1: Exponential::new(rate1),
            e2: Exponential::new(rate2),
        }
    }

    /// The mean of the mixture.
    pub fn mean(&self) -> f64 {
        self.p1 / self.e1.rate() + (1.0 - self.p1) / self.e2.rate()
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        if rng.chance(self.p1) {
            self.e1.sample(rng)
        } else {
            self.e2.sample(rng)
        }
    }
}

/// An empirical discrete distribution over `0..pmf.len()`, sampled by
/// inversion of the cumulative table.
#[derive(Clone, Debug)]
pub struct EmpiricalDiscrete {
    cdf: Vec<f64>,
}

impl EmpiricalDiscrete {
    /// Builds the sampler from a (not necessarily normalized) weight table.
    ///
    /// # Panics
    /// Panics if the table is empty, any weight is negative, or all weights
    /// are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all weights are zero");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        *cdf.last_mut().unwrap() = 1.0;
        EmpiricalDiscrete { cdf }
    }

    /// Draws an index in `0..len` with probability proportional to its
    /// weight.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 1, // u equal to a cdf point belongs to the next bin
            Err(i) => i,
        }
        .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = Rng::new(1);
        let u = Uniform::new(2.0, 6.0);
        let m = mean_of(50_000, || {
            let x = u.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
            x
        });
        assert!((m - 4.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(2);
        let e = Exponential::with_mean(3.0);
        let m = mean_of(100_000, || e.sample(&mut rng));
        assert!((m - 3.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn exponential_memoryless_tail() {
        let mut rng = Rng::new(3);
        let e = Exponential::new(1.0);
        let n = 100_000;
        let above1 = (0..n).filter(|_| e.sample(&mut rng) > 1.0).count() as f64 / n as f64;
        assert!((above1 - (-1.0f64).exp()).abs() < 0.01);
    }

    #[test]
    fn geometric_mean_and_support() {
        let mut rng = Rng::new(4);
        let g = Geometric::with_mean(4.0);
        let m = mean_of(100_000, || {
            let x = g.sample(&mut rng);
            assert!(x >= 1);
            x as f64
        });
        assert!((m - 4.0).abs() < 0.1, "mean = {m}");
    }

    #[test]
    fn geometric_stays_exact_for_tiny_p() {
        // ln 2 / -ln(1 - p): the sample at u = 1/2.
        for p in [1e-16f64, 1e-17, 1e-12, 0.3] {
            let want = std::f64::consts::LN_2 / -(-p).ln_1p();
            let got = Geometric::new(p).invert(0.5) as f64;
            assert!(
                (got - want.floor() - 1.0).abs() <= want * 1e-12,
                "p={p}: {got} vs {want}"
            );
        }
        // u = 1 is the smallest sample, 1, at any p.
        for p in [1e-300, 1e-17, 0.3, 0.999] {
            assert_eq!(Geometric::new(p).invert(1.0), 1, "p={p}");
        }
        let mut rng = Rng::new(12);
        let g = Geometric::new(1e-17);
        let m = mean_of(20_000, || g.sample(&mut rng) as f64);
        assert!((m / 1e17 - 1.0).abs() < 0.05, "mean = {m:e}");
        // Mean 1e300: every draw saturates.
        let g = Geometric::new(1e-300);
        assert!((0..1_000).all(|_| g.sample(&mut rng) == u64::MAX));
    }

    #[test]
    fn geometric_p1_is_constant_one() {
        let mut rng = Rng::new(5);
        let g = Geometric::new(1.0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 1);
        }
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = Rng::new(6);
        let p = Poisson::new(2.5);
        let m = mean_of(100_000, || p.sample(&mut rng) as f64);
        assert!((m - 2.5).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = Rng::new(7);
        assert_eq!(Poisson::new(0.0).sample(&mut rng), 0);
    }

    #[test]
    fn poisson_large_mean_normal_path() {
        let mut rng = Rng::new(8);
        let p = Poisson::new(200.0);
        let m = mean_of(50_000, || p.sample(&mut rng) as f64);
        assert!((m - 200.0).abs() < 1.0, "mean = {m}");
    }

    #[test]
    fn erlang_mean_and_variance() {
        let mut rng = Rng::new(9);
        let e = Erlang::new(4, 8.0);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| e.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 8.0).abs() < 0.1, "mean = {m}");
        // Var = mean^2 / k = 16
        assert!((v - 16.0).abs() < 0.8, "var = {v}");
    }

    #[test]
    fn hyperexponential_mean() {
        let mut rng = Rng::new(10);
        let h = HyperExponential::new(0.3, 1.0, 0.1);
        let expect = h.mean();
        let m = mean_of(200_000, || h.sample(&mut rng));
        assert!(
            (m - expect).abs() / expect < 0.03,
            "mean = {m}, expect {expect}"
        );
    }

    #[test]
    fn empirical_discrete_frequencies() {
        let mut rng = Rng::new(11);
        let d = EmpiricalDiscrete::new(&[1.0, 0.0, 3.0]);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / 40_000.0;
        assert!((frac0 - 0.25).abs() < 0.02, "counts = {counts:?}");
    }

    #[test]
    #[should_panic]
    fn empirical_all_zero_panics() {
        EmpiricalDiscrete::new(&[0.0, 0.0]);
    }
}
