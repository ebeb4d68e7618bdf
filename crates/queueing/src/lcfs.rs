//! Waiting-time distribution of the non-preemptive M/G/1 **LCFS** queue —
//! an analytic baseline the paper (like [Kurose 83]) obtained only by
//! simulation.
//!
//! An arriving customer finds the server idle with probability `1 - rho`
//! and waits zero. Otherwise it waits one *delay busy period* initiated by
//! the residual service `R` of the customer in service: under LCFS every
//! later arrival is served before our customer, so its wait is the first
//! passage of the workload process from level `R` to zero.
//!
//! On the lattice the workload between arrivals decreases one step per
//! tick while each tick adds a compound-Poisson amount of fresh work
//! `J` (the services of that tick's arrivals, computed by the Panjer
//! recursion). The walk is *skip-free downward* (never drops more than
//! one per tick), so the hitting-time theorem applies exactly:
//!
//! ```text
//! P(T_x = n) = (x / n) * P(J_1 + ... + J_n = n - x)
//! ```
//!
//! The sum of `n` steps' work is itself compound Poisson with rate
//! `n * lambda` (Kendall's identity on the lattice), so one Panjer
//! recursion per `n` gives it directly, without convolution powers.
//!
//! Sanity anchors used as tests: `P(W = 0) = 1 - rho`; the **mean** LCFS
//! wait equals the FCFS (Pollaczek–Khinchine) mean — non-preemptive
//! work-conserving disciplines share it — while the variance is larger;
//! and the distribution matches an independent stack-based queue
//! simulation.

use tcw_numerics::grid::GridDist;

/// Compound-Poisson pmf of the work arriving in one lattice step:
/// `J = sum of N services`, `N ~ Poisson(lambda_step)`, via the Panjer
/// recursion, truncated at `nmax` entries.
///
/// # Panics
/// Panics if `lambda_step < 0` or the service pmf has mass at zero.
pub fn step_work_pmf(lambda_step: f64, service: &GridDist, nmax: usize) -> Vec<f64> {
    assert!(lambda_step >= 0.0);
    let s = service.pmf();
    assert!(
        s.first().copied().unwrap_or(0.0) == 0.0,
        "Panjer recursion here assumes no zero-length services"
    );
    // Zero service entries only add +0.0 terms: skip them.
    let support: Vec<(usize, f64)> = (1..s.len())
        .filter(|&k| s[k] != 0.0)
        .map(|k| (k, k as f64 * s[k]))
        .collect();
    let mut j = vec![0.0; nmax];
    j[0] = (-lambda_step).exp();
    for n in 1..nmax {
        let mut acc = 0.0;
        for &(k, ksk) in support.iter().take_while(|&&(k, _)| k <= n) {
            acc += ksk * j[n - k];
        }
        j[n] = lambda_step / n as f64 * acc;
    }
    j
}

/// Midpoint (trapezoid) discretization of the continuous residual-service
/// density: unbiased to `O(h^2)` in the mean, unlike the right-edge
/// convention of [`GridDist::residual`] (which is deliberately
/// conservative for the eq. 4.7 boundary identities). The initiating level
/// of a delay busy period should not carry that +h/2 bias, or the LCFS
/// mean wait drifts off the Pollaczek–Khinchine anchor by
/// `rho/(1-rho) * h/2`.
fn midpoint_residual(service: &GridDist) -> Vec<f64> {
    let mean = service.mean();
    assert!(mean > 0.0);
    let s = service.pmf();
    // tails t_j = P(X > j)
    let mut tails = Vec::with_capacity(s.len());
    let mut tail = service.total_mass();
    for &p in s {
        tail -= p;
        if tail <= 0.0 {
            break;
        }
        tails.push(tail);
    }
    let h = service.step();
    let mut r = Vec::with_capacity(tails.len() + 1);
    r.push(tails.first().copied().unwrap_or(0.0) * h / (2.0 * mean));
    for x in 1..=tails.len() {
        let prev = tails[x - 1];
        let cur = tails.get(x).copied().unwrap_or(0.0);
        r.push((prev + cur) * h / (2.0 * mean));
    }
    r
}

/// The LCFS waiting-time distribution, as `(p_zero, pmf)` where `pmf[n]`
/// is `P(W = n)` for `n >= 1` up to `nmax` lattice steps (the remaining
/// mass is the tail beyond `nmax`, including an infinite-wait atom when
/// `rho >= 1`).
///
/// `lambda` is per lattice step of `service`.
///
/// # Panics
/// Panics if `lambda <= 0`, `nmax == 0`, or `nmax * lambda > 700`: the
/// Panjer recursion starts at `exp(-n * lambda)`, which underflows to
/// zero near 745.
pub fn lcfs_wait_pmf(lambda: f64, service: &GridDist, nmax: usize) -> (f64, Vec<f64>) {
    assert!(lambda > 0.0 && nmax > 0);
    assert!(
        nmax as f64 * lambda <= 700.0,
        "nmax * lambda = {} exceeds 700: exp(-n * lambda) underflows",
        nmax as f64 * lambda
    );
    let rho = lambda * service.mean();
    let resid = midpoint_residual(service);
    // An arrival inside the final lattice step of the in-service customer
    // waits essentially zero: fold the residual's sub-step atom into the
    // zero-wait probability.
    let p_zero = (1.0 - rho).max(0.0) + rho.min(1.0) * resid[0];

    let mut wait = vec![0.0; nmax];
    for n in 1..nmax {
        // S_n = J_1 + ... + J_n, compound Poisson with rate n * lambda.
        let s_n = step_work_pmf(n as f64 * lambda, service, n);
        // P(T_x = n) = (x/n) P(S_n = n - x): accumulate over residual x.
        let mut p_n = 0.0;
        for (x, &rx) in resid.iter().enumerate().skip(1) {
            if rx == 0.0 || x > n {
                continue;
            }
            p_n += rx * (x as f64 / n as f64) * s_n[n - x];
        }
        wait[n] = rho.min(1.0) * p_n;
    }
    (p_zero, wait)
}

/// `P(W > k)` for the LCFS M/G/1 queue (receiver-loss probability of the
/// uncontrolled LCFS window protocol at deadline `k`, under the paper's
/// waiting-time definition).
///
/// Works in overload too (`rho >= 1`): the un-accumulated mass — waits
/// beyond the computation horizon plus the never-served atom — counts as
/// tail.
pub fn lcfs_tail(lambda: f64, service: &GridDist, k: f64) -> f64 {
    if k < 0.0 {
        return 1.0;
    }
    let n_k = (k / service.step()).floor() as usize;
    let (p_zero, pmf) = lcfs_wait_pmf(lambda, service, n_k + 2);
    let below: f64 = p_zero + pmf.iter().take(n_k + 1).sum::<f64>();
    (1.0 - below).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg1::pk_mean_wait;
    use tcw_sim::rng::Rng;

    fn det_service(m: u64) -> GridDist {
        GridDist::point(1.0, m as f64)
    }

    #[test]
    fn step_work_pmf_is_compound_poisson() {
        // mean of J = lambda * E[S]; mass sums to ~1.
        let s = det_service(10);
        let j = step_work_pmf(0.05, &s, 400);
        let total: f64 = j.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        let mean: f64 = j.iter().enumerate().map(|(n, &p)| n as f64 * p).sum();
        assert!((mean - 0.5).abs() < 1e-9, "mean {mean}");
        // P(J = 0) = e^{-lambda}
        assert!((j[0] - (-0.05f64).exp()).abs() < 1e-12);
        // Support only at multiples of 10 below 20.
        assert_eq!(j[3], 0.0);
        assert!(j[10] > 0.0);
    }

    /// The oracle: `P(S_n = m)` from the `n`-fold convolution power of the
    /// one-step work pmf, built up one convolution at a time (cubic in the
    /// horizon). It shares only the one-step pmf and the residual with
    /// [`lcfs_wait_pmf`].
    fn conv_power_wait_pmf(lambda: f64, service: &GridDist, nmax: usize) -> (f64, Vec<f64>) {
        let rho = lambda * service.mean();
        let resid = midpoint_residual(service);
        let p_zero = (1.0 - rho).max(0.0) + rho.min(1.0) * resid[0];
        let j = step_work_pmf(lambda, service, nmax);
        let j_support: Vec<(usize, f64)> = j
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v > 1e-300)
            .collect();
        let mut wait = vec![0.0; nmax];
        let mut power = vec![0.0; nmax];
        power[0] = 1.0; // S_0 = 0
        for n in 1..nmax {
            let mut next = vec![0.0; nmax];
            for (a, &pa) in power.iter().enumerate().filter(|&(_, &pa)| pa != 0.0) {
                for &(b, jb) in j_support.iter().take_while(|&&(b, _)| a + b < nmax) {
                    next[a + b] += pa * jb;
                }
            }
            power = next;
            let mut p_n = 0.0;
            for (x, &rx) in resid.iter().enumerate().skip(1).take(n) {
                p_n += rx * (x as f64 / n as f64) * power[n - x];
            }
            wait[n] = rho.min(1.0) * p_n;
        }
        (p_zero, wait)
    }

    #[test]
    fn kendall_identity_matches_convolution_powers() {
        // Deterministic and geometric (mean 5, no zero) services, each
        // stable and at rho = 2.
        let cases = [
            (det_service(10), 0.05, 600),
            (GridDist::geometric(1.0, 0.2, 1e-12), 0.1, 300),
        ];
        for (service, stable, nmax) in cases {
            for lambda in [stable, 2.0 / service.mean()] {
                let (p0, pmf) = lcfs_wait_pmf(lambda, &service, nmax);
                let (q0, oracle) = conv_power_wait_pmf(lambda, &service, nmax);
                assert_eq!(p0, q0);
                for (n, (&a, &b)) in pmf.iter().zip(&oracle).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-15,
                        "lambda {lambda}, P(W = {n}): {a} vs {b}"
                    );
                }
                for n_k in [0, 7, 30, 120, nmax - 2] {
                    let below: f64 = q0 + oracle.iter().take(n_k + 1).sum::<f64>();
                    let want = (1.0 - below).clamp(0.0, 1.0);
                    let got = lcfs_tail(lambda, &service, n_k as f64);
                    assert!(
                        (got - want).abs() <= 1e-14,
                        "lambda {lambda}, K = {n_k}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 700")]
    fn horizon_past_the_underflow_bound_is_rejected() {
        // nmax * lambda = 2002 * 0.5: exp(-n * lambda) would underflow.
        lcfs_tail(0.5, &GridDist::point(1.0, 1.0), 2000.0);
    }

    #[test]
    fn zero_wait_probability_is_one_minus_rho_plus_substep() {
        let s = det_service(20);
        let (p0, _) = lcfs_wait_pmf(0.03, &s, 50); // rho = 0.6
                                                   // 1 - rho plus the sub-step residual atom rho * h/(2 E[S]).
        let expect = 0.4 + 0.6 * (1.0 / 40.0);
        assert!((p0 - expect).abs() < 1e-12, "p0 = {p0}, want {expect}");
    }

    #[test]
    fn wait_pmf_mass_approaches_one_when_stable() {
        let s = det_service(10);
        let lambda = 0.05; // rho = 0.5
        let (p0, pmf) = lcfs_wait_pmf(lambda, &s, 4_000);
        let total = p0 + pmf.iter().sum::<f64>();
        assert!(total > 0.995, "captured mass {total}");
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn mean_wait_matches_pollaczek_khinchine() {
        // Non-preemptive work-conserving disciplines share the mean wait:
        // E[W] = rho * E[R] / (1 - rho) with E[T_x] = x/(1-rho) — the
        // delay-busy-period identity — must reproduce Pollaczek-Khinchine.
        // Checked two ways: in closed form through the midpoint residual,
        // and on the truncated pmf at a modest load where the truncated
        // tail is negligible.
        let s = det_service(10);
        let lambda = 0.04; // rho = 0.4
        let pk = pk_mean_wait(lambda, &s);
        let (_, pmf) = lcfs_wait_pmf(lambda, &s, 3_000);
        let mass: f64 = pmf.iter().sum();
        let mean: f64 = pmf.iter().enumerate().map(|(n, &p)| n as f64 * p).sum();
        // positive-wait mass = rho * (1 - r_0) where r_0 = h/(2 E[S]) is
        // the sub-step atom folded into p_zero.
        assert!(mass > 0.4 * (1.0 - 0.05) - 1e-3, "served mass {mass}");
        assert!((mean - pk).abs() < 0.03 * pk, "LCFS mean {mean} vs PK {pk}");
    }

    #[test]
    fn lcfs_tail_heavier_than_fcfs_at_large_k() {
        use crate::mg1::fcfs_tail;
        let s = det_service(10);
        let lambda = 0.07;
        // Same mean, higher variance => heavier far tail.
        let k = 250.0;
        let l = lcfs_tail(lambda, &s, k);
        let f = fcfs_tail(lambda, &s, k);
        assert!(l > f, "LCFS tail {l} vs FCFS tail {f} at K={k}");
    }

    #[test]
    fn overload_tail_includes_never_served_mass() {
        let s = det_service(10);
        let lambda = 0.2; // rho = 2
        let t = lcfs_tail(lambda, &s, 500.0);
        // At least the never-served fraction stays in the tail.
        assert!(t > 0.4, "tail {t}");
    }

    /// Independent stack-based LCFS queue simulation.
    fn simulate_lcfs_tail(lambda: f64, m: u64, k: f64, n: u64, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        // event-driven: arrivals (poisson), server takes from stack top.
        let mut stack: Vec<f64> = Vec::new();
        let mut clock;
        let mut next_arrival = -rng.f64_open_left().ln() / lambda;
        let mut server_free = 0.0f64;
        let mut late = 0u64;
        let mut count = 0u64;
        while count < n {
            if next_arrival <= server_free || stack.is_empty() {
                // next event: arrival
                clock = next_arrival;
                if clock >= server_free && !stack.is_empty() {
                    // server idled before this arrival: serve backlog first
                    // (handled below at service decision points)
                }
                stack.push(clock);
                next_arrival += -rng.f64_open_left().ln() / lambda;
                continue;
            }
            // next event: service start at max(server_free, arrival time)
            let arr = stack.pop().unwrap();
            let start = server_free.max(arr);
            if start > next_arrival {
                // an arrival slips in before the service starts: it goes
                // on top of the stack and is served first
                stack.push(arr);
                stack.push(next_arrival);
                next_arrival += -rng.f64_open_left().ln() / lambda;
                continue;
            }
            count += 1;
            if start - arr > k {
                late += 1;
            }
            server_free = start + m as f64;
        }
        late as f64 / count as f64
    }

    #[test]
    fn matches_independent_stack_simulation() {
        let m = 10u64;
        let lambda = 0.07;
        let s = det_service(m);
        for &k in &[10.0, 40.0, 120.0] {
            let ana = lcfs_tail(lambda, &s, k);
            let sim = simulate_lcfs_tail(lambda, m, k, 300_000, 9);
            assert!(
                (ana - sim).abs() < 0.015,
                "K={k}: analytic {ana:.4} vs simulated {sim:.4}"
            );
        }
    }

    #[test]
    fn tail_is_monotone_in_k() {
        let s = det_service(10);
        let lambda = 0.06;
        let mut prev = 1.0;
        for k in [0.0, 10.0, 30.0, 100.0, 300.0] {
            let t = lcfs_tail(lambda, &s, k);
            assert!(t <= prev + 1e-9);
            prev = t;
        }
    }
}
