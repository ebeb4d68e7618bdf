//! Classical M/G/1 results on the lattice.
//!
//! The waiting-time distribution of a stable M/G/1 FCFS queue is the
//! Beneš/Takács series (the paper's eq. 4.4 with `P(0) = 1 - rho`):
//!
//! ```text
//! F_W(w) = (1 - rho) * sum_i rho^i * beta^(i)(w)
//! ```
//!
//! where `beta` is the residual service distribution. On the lattice the
//! series is the prefix sum of [`tcw_numerics::grid::renewal_series`].
//! Closed-form M/M/1 and M/D/1 oracles validate the machinery.

use tcw_numerics::grid::{renewal_series, GridDist};

/// Offered load `rho = lambda * E[X]`.
pub fn rho(lambda: f64, service: &GridDist) -> f64 {
    lambda * service.mean()
}

/// Pollaczek–Khinchine mean waiting time `lambda * E[X^2] / (2 (1 - rho))`.
///
/// # Panics
/// Panics if the queue is unstable (`rho >= 1`).
pub fn pk_mean_wait(lambda: f64, service: &GridDist) -> f64 {
    let r = rho(lambda, service);
    assert!(r < 1.0, "unstable queue: rho = {r}");
    lambda * service.second_moment() / (2.0 * (1.0 - r))
}

/// The FCFS waiting-time CDF evaluated on the lattice up to `n` points.
///
/// Returns the vector `F_W(j)` for `j = 0..n` (in units of the service
/// lattice step).
///
/// # Panics
/// Panics if `rho >= 1` or the service mean is zero.
pub fn waiting_time_cdf(lambda: f64, service: &GridDist, n: usize) -> Vec<f64> {
    let r = rho(lambda, service);
    assert!(r < 1.0, "unstable queue: rho = {r}");
    let beta = service.residual();
    let series = renewal_series(&beta, r, n);
    series
        .prefix_sums()
        .into_iter()
        .map(|z| ((1.0 - r) * z).min(1.0))
        .collect()
}

/// `P(W > k)` for the FCFS M/G/1 queue — the receiver-loss probability of
/// the uncontrolled FCFS window protocol at deadline `k` (paper's [Kurose
/// 83] baseline), under the paper's waiting-time definition (a message's
/// own scheduling time excluded).
///
/// Unstable queues (`rho >= 1`) lose almost every message in steady state:
/// the function returns `1.0`.
pub fn fcfs_tail(lambda: f64, service: &GridDist, k: f64) -> f64 {
    fcfs_tails(lambda, service, k)(k)
}

/// [`fcfs_tail`] at every deadline `k <= k_max` from one solve. The
/// renewal recursion runs forward in the lattice index, so each value is
/// bit-identical to a solve that stops at its own deadline.
pub(crate) fn fcfs_tails(lambda: f64, service: &GridDist, k_max: f64) -> impl Fn(f64) -> f64 {
    let step = service.step();
    let cdf = (rho(lambda, service) < 1.0)
        .then(|| waiting_time_cdf(lambda, service, (k_max / step).ceil() as usize + 2));
    move |k| match &cdf {
        Some(cdf) if k >= 0.0 => (1.0 - cdf[(k / step + 1e-9).floor() as usize]).max(0.0),
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Discretized exponential service with the given mean (fine lattice).
    fn exp_service(mean: f64, step: f64, tol: f64) -> GridDist {
        // P(X in [j*step, (j+1)*step)) for an exponential; assign to j.
        let mut pmf = Vec::new();
        let mut j = 0usize;
        loop {
            let lo = j as f64 * step;
            let hi = lo + step;
            let p = (-lo / mean).exp() - (-hi / mean).exp();
            pmf.push(p);
            if (-hi / mean).exp() < tol || pmf.len() > 2_000_000 {
                break;
            }
            j += 1;
        }
        GridDist::from_pmf(step, pmf)
    }

    #[test]
    fn pk_matches_mm1() {
        // M/M/1: E[W] = rho / (mu - lambda) with mu = 1/mean.
        let step = 0.01;
        let service = exp_service(1.0, step, 1e-12);
        let lambda = 0.7;
        let expect = 0.7 / (1.0 - 0.7); // rho/(mu - lambda), mu=1
        let got = pk_mean_wait(lambda, &service);
        assert!(
            (got - expect).abs() / expect < 0.02,
            "got {got}, want ≈ {expect}"
        );
    }

    #[test]
    fn pk_matches_md1() {
        // M/D/1: E[W] = rho * d / (2(1-rho)).
        let service = GridDist::point(1.0, 10.0);
        let lambda = 0.08; // rho = 0.8
        let expect = 0.8 * 10.0 / (2.0 * 0.2);
        let got = pk_mean_wait(lambda, &service);
        assert!((got - expect).abs() < 1e-9, "got {got}, want {expect}");
    }

    #[test]
    fn mm1_waiting_tail_is_exponential() {
        // M/M/1 FCFS: P(W > t) = rho * exp(-(mu - lambda) t).
        let step = 0.02;
        let service = exp_service(1.0, step, 1e-13);
        let lambda = 0.6;
        for &t in &[0.5f64, 1.0, 2.0, 5.0] {
            let expect = 0.6 * (-(1.0 - 0.6) * t).exp();
            let got = fcfs_tail(lambda, &service, t);
            assert!(
                (got - expect).abs() < 0.02,
                "t={t}: got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn waiting_cdf_starts_at_p_idle() {
        // P(W = 0) = 1 - rho for M/G/1 FCFS... on the lattice, F(0)
        // includes waits inside the first step; with a deterministic
        // service of >= 1 step the wait is 0 exactly iff the system is
        // empty on arrival.
        let service = GridDist::point(1.0, 5.0);
        let lambda = 0.1; // rho = 0.5
        let cdf = waiting_time_cdf(lambda, &service, 10);
        assert!((cdf[0] - 0.5).abs() < 1e-9, "F(0) = {}", cdf[0]);
    }

    #[test]
    fn waiting_cdf_is_monotone_to_one() {
        let service = GridDist::point(1.0, 4.0);
        let cdf = waiting_time_cdf(0.2, &service, 400);
        for w in cdf.windows(2) {
            assert!(w[1] + 1e-12 >= w[0]);
        }
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unstable_queue_loses_everything() {
        let service = GridDist::point(1.0, 10.0);
        assert_eq!(fcfs_tail(0.2, &service, 100.0), 1.0); // rho = 2
    }

    #[test]
    fn tail_decreases_with_k() {
        let service = GridDist::point(1.0, 5.0);
        let lambda = 0.15;
        let mut prev = 1.0;
        for k in [0.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let t = fcfs_tail(lambda, &service, k);
            assert!(t <= prev + 1e-12);
            prev = t;
        }
        assert!(prev < 0.01, "tail at K=100 still {prev}");
    }
}
