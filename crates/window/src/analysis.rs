//! Exact analysis of the windowing process under Poisson arrivals.
//!
//! One *scheduling round* draws a window containing `N ~ Poisson(mu)`
//! arrivals (`mu = lambda * w`) and resolves it by binary splitting; empty
//! rounds (one idle slot) are redrawn. Under the paper's Assumption 1
//! (windows over statistically fresh pseudo time) successive rounds are
//! i.i.d., which makes both the *expected* number of overhead slots per
//! scheduled message and its full *distribution* computable by recursion —
//! sharper than the two-point geometric fit of [Kurose 83] that the paper
//! reuses (`tcw-queueing` implements that fit too, for comparison).
//!
//! ## Recursions
//!
//! Let `R(k)` be the expected overhead slots following a collision among
//! `k >= 2` messages (uniformly positioned), until the first success. The
//! split sends each message to the older half independently with
//! probability 1/2 (`k1 ~ Bin(k, 1/2)`):
//!
//! * `k1 = 1`: the next probe is the success — 0 further overhead;
//! * `k1 = 0`: one idle slot, and the younger half (all `k`, known `>= 2`)
//!   is split again — state unchanged;
//! * `k1 = k`: one collision slot, state unchanged;
//! * `2 <= k1 < k`: one collision slot, recurse on `k1`.
//!
//! The distributional analogue `D_k(s)` (probability of exactly `s`
//! further overhead slots) satisfies the same recursion with the
//! expectation replaced by a forward recursion in `s`. The per-message
//! overhead distribution then compounds rounds: an empty round costs one
//! slot and redraws; a singleton round costs nothing; a collided round
//! costs one slot plus `D_n`.
//!
//! The optimal window (policy element (2) heuristic, §4.1) minimizes the
//! expected scheduling time; by scale invariance the objective depends
//! only on `mu`, so the optimum is a universal constant `mu* ≈ 1.088`
//! divided by the arrival rate.

use std::sync::OnceLock;
use tcw_numerics::optimize::golden_section;
use tcw_numerics::special::{binomial_pmf, poisson_pmf};

/// Truncation point for the Poisson window occupancy: smallest `k` with
/// negligible tail beyond it.
fn poisson_kmax(mu: f64, tol: f64) -> usize {
    let mut k = 4usize.max((mu + 6.0 * mu.sqrt()) as usize);
    let tail_bound = |k: usize| {
        // crude but safe: sum pmf until below tol
        let mut acc = 0.0;
        for j in 0..=k {
            acc += poisson_pmf(j as u64, mu);
        }
        1.0 - acc
    };
    while tail_bound(k) > tol && k < 400 {
        k += 8;
    }
    k
}

/// Expected overhead slots `R(k)` after a collision among `k` messages,
/// for `k = 0..=kmax` (entries 0 and 1 are zero by convention).
pub fn collision_resolution_expectations(kmax: usize) -> Vec<f64> {
    collision_resolution_expectations_biased(kmax, 0.5)
}

/// [`collision_resolution_expectations`] generalized to a biased split:
/// each split gives the *older* part a fraction `frac` of the window
/// (the §5 extension "not necessarily splitting a window in half"), so a
/// uniformly-positioned message lands in it with probability `frac`.
///
/// # Panics
/// Panics if `frac` is outside `(0, 1)`.
pub fn collision_resolution_expectations_biased(kmax: usize, frac: f64) -> Vec<f64> {
    assert!(frac > 0.0 && frac < 1.0);
    let mut r = vec![0.0; kmax + 1];
    for k in 2..=kmax {
        let k64 = k as u64;
        let p_stay = binomial_pmf(0, k64, frac) + binomial_pmf(k64, k64, frac);
        let mut constant = p_stay;
        for (j, rj) in r.iter().enumerate().take(k).skip(2) {
            let pj = binomial_pmf(j as u64, k64, frac);
            constant += pj * (1.0 + rj);
        }
        r[k] = constant / (1.0 - p_stay);
    }
    r
}

/// Expected overhead (idle + collision) slots per scheduled message when
/// each round's window holds `N ~ Poisson(mu)` arrivals.
///
/// # Panics
/// Panics if `mu <= 0`.
pub fn expected_overhead_slots(mu: f64) -> f64 {
    assert!(mu > 0.0, "window occupancy must be positive");
    let kmax = poisson_kmax(mu, 1e-12);
    let r = collision_resolution_expectations(kmax);
    let q0 = poisson_pmf(0, mu);
    let mut collided = 0.0;
    for (n, rn) in r.iter().enumerate().skip(2) {
        collided += poisson_pmf(n as u64, mu) * (1.0 + rn);
    }
    (q0 + collided) / (1.0 - q0)
}

/// Distribution of overhead slots per scheduled message (pmf over
/// `s = 0, 1, 2, ...`), truncated once the captured mass exceeds
/// `1 - tail_tol`.
///
/// # Panics
/// Panics if `mu <= 0` or `tail_tol <= 0`.
pub fn overhead_slot_pmf(mu: f64, tail_tol: f64) -> Vec<f64> {
    assert!(mu > 0.0);
    assert!(tail_tol > 0.0);
    let kmax = poisson_kmax(mu, tail_tol * 1e-3);
    let pk: Vec<f64> = (0..=kmax).map(|n| poisson_pmf(n as u64, mu)).collect();
    let q0 = pk[0];
    let q1 = pk[1];

    // d[k][s]: probability of exactly s further overhead slots after a
    // collision among k (k >= 2). Computed jointly, forward in s.
    let smax_hard = 4096;
    let mut d: Vec<Vec<f64>> = vec![Vec::new(); kmax + 1];
    for (k, dk) in d.iter_mut().enumerate().skip(2) {
        // s = 0: immediate isolation (k1 = 1).
        dk.push(binomial_pmf(1, k as u64, 0.5));
    }
    let mut s_pmf = vec![q1]; // S(0) = q1 (singleton window, no overhead)
    let mut captured = q1;
    let mut s = 1usize;
    while captured < 1.0 - tail_tol && s < smax_hard {
        // Extend every d[k] to index s.
        for k in 2..=kmax {
            let k64 = k as u64;
            let p_stay = binomial_pmf(0, k64, 0.5) + binomial_pmf(k64, k64, 0.5);
            let mut val = p_stay * d[k][s - 1];
            for (j, dj) in d.iter().enumerate().take(k).skip(2) {
                val += binomial_pmf(j as u64, k64, 0.5) * dj[s - 1];
            }
            d[k].push(val);
        }
        // S(s) = q0 * S(s-1) + sum_{n>=2} P(n) * D_n(s-1)
        let mut val = q0 * s_pmf[s - 1];
        for n in 2..=kmax {
            val += pk[n] * d[n][s - 1];
        }
        s_pmf.push(val);
        captured += val;
        s += 1;
    }
    s_pmf
}

/// [`expected_overhead_slots`] under a biased split (older part gets
/// fraction `frac` of every split window).
///
/// # Panics
/// Panics if `mu <= 0` or `frac` is outside `(0, 1)`.
pub fn expected_overhead_slots_biased(mu: f64, frac: f64) -> f64 {
    assert!(mu > 0.0);
    let kmax = poisson_kmax(mu, 1e-12);
    let r = collision_resolution_expectations_biased(kmax, frac);
    let q0 = poisson_pmf(0, mu);
    let mut collided = 0.0;
    for (n, rn) in r.iter().enumerate().skip(2) {
        collided += poisson_pmf(n as u64, mu) * (1.0 + rn);
    }
    (q0 + collided) / (1.0 - q0)
}

/// The universal optimal window occupancy `mu* = lambda * w*` minimizing
/// the expected scheduling overhead per message.
///
/// The golden-section search over [`expected_overhead_slots`] runs once
/// per process; every call, from any thread, returns its bits.
pub fn optimal_mu() -> f64 {
    static MU_STAR: OnceLock<f64> = OnceLock::new();
    *MU_STAR.get_or_init(|| golden_section(expected_overhead_slots, 0.05, 6.0, 1e-6).0)
}

/// Jointly optimizes the window occupancy and the split fraction:
/// returns `(mu*, frac*, E[overhead]*)` — quantifying the paper's §5
/// conjecture that non-halving splits "may result in further performance
/// improvements" (for the scheduling-overhead objective).
pub fn optimal_mu_and_fraction() -> (f64, f64, f64) {
    let mut best = (0.0, 0.5, f64::INFINITY);
    // The objective is smooth in frac; a golden section nested inside a
    // frac grid is accurate to the reporting precision.
    for i in 1..40 {
        let frac = i as f64 / 40.0;
        let (mu, e) = golden_section(|m| expected_overhead_slots_biased(m, frac), 0.05, 6.0, 1e-6);
        if e < best.2 {
            best = (mu, frac, e);
        }
    }
    best
}

/// The heuristic-optimal window length (in units of `tau`) for aggregate
/// arrival rate `lambda` (messages per `tau`): `w* = mu* / lambda`.
///
/// # Panics
/// Panics if `lambda <= 0`.
pub fn optimal_window(lambda_per_tau: f64) -> f64 {
    assert!(lambda_per_tau > 0.0);
    optimal_mu() / lambda_per_tau
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf_mean(pmf: &[f64]) -> f64 {
        pmf.iter().enumerate().map(|(s, &p)| s as f64 * p).sum()
    }

    #[test]
    fn r2_is_one() {
        // Two messages: each split isolates with prob 1/2 (k1 = 1),
        // otherwise (k1 ∈ {0, 2}, prob 1/2) costs a slot and repeats:
        // R(2) = (1/2)(1 + R(2)) => R(2) = 1.
        let r = collision_resolution_expectations(4);
        assert!((r[2] - 1.0).abs() < 1e-12, "R(2) = {}", r[2]);
    }

    #[test]
    fn r3_is_four_thirds() {
        // R(3)(1 - 1/4) = 1/4 + (3/8)(1 + R(2)) = 1/4 + 3/4 = 1
        // => R(3) = 4/3.
        let r = collision_resolution_expectations(5);
        assert!((r[3] - 4.0 / 3.0).abs() < 1e-12, "R(3) = {}", r[3]);
    }

    #[test]
    fn r_is_increasing_in_k() {
        let r = collision_resolution_expectations(60);
        for k in 2..60 {
            assert!(r[k + 1] > r[k], "R not increasing at k = {k}");
        }
    }

    #[test]
    fn r_grows_logarithmically() {
        // Isolating the first message out of k takes O(log k) splits.
        let r = collision_resolution_expectations(256);
        assert!(r[256] < 20.0, "R(256) = {} unexpectedly large", r[256]);
        assert!(r[256] > r[16]);
    }

    #[test]
    fn expected_overhead_blows_up_at_small_mu() {
        // Nearly-empty windows: ~1/mu idle slots per message.
        let e = expected_overhead_slots(0.01);
        assert!(e > 50.0, "E = {e}");
    }

    #[test]
    fn expected_overhead_moderate_at_mu_one() {
        let e = expected_overhead_slots(1.0);
        assert!((1.0..2.2).contains(&e), "E(1.0) = {e}");
    }

    #[test]
    fn pmf_sums_to_one_and_matches_expectation() {
        for &mu in &[0.3, 0.8, 1.26, 2.5] {
            let pmf = overhead_slot_pmf(mu, 1e-10);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-8, "mu={mu}: mass {total}");
            let mean = pmf_mean(&pmf);
            let expect = expected_overhead_slots(mu);
            assert!(
                (mean - expect).abs() < 1e-6,
                "mu={mu}: pmf mean {mean} vs recursion {expect}"
            );
        }
    }

    #[test]
    fn optimal_mu_is_near_1_2() {
        let mu = optimal_mu();
        assert!(
            (1.0..1.6).contains(&mu),
            "optimal mu = {mu} outside plausible band"
        );
        // It is a genuine interior minimum.
        let e_opt = expected_overhead_slots(mu);
        assert!(expected_overhead_slots(mu * 0.5) > e_opt);
        assert!(expected_overhead_slots(mu * 2.0) > e_opt);
    }

    #[test]
    fn biased_split_reduces_to_halving_at_half() {
        for &mu in &[0.5, 1.26, 2.0] {
            let a = expected_overhead_slots(mu);
            let b = expected_overhead_slots_biased(mu, 0.5);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn biased_resolution_r2_formula() {
        // Two messages, older part fraction f: isolation on the next probe
        // happens when exactly one lands older (prob 2f(1-f)); otherwise
        // one slot is spent and the state repeats:
        // R(2) = (1 - 2f(1-f)) (1 + R(2)) / ... => R(2) = (1-q)/q with
        // q = 2f(1-f).
        for &f in &[0.2, 0.35, 0.5, 0.7] {
            let r = collision_resolution_expectations_biased(4, f);
            let q = 2.0 * f * (1.0 - f);
            assert!(
                (r[2] - (1.0 - q) / q).abs() < 1e-10,
                "f={f}: R(2) = {}",
                r[2]
            );
        }
    }

    #[test]
    fn joint_optimum_is_no_worse_than_halving() {
        let (_, frac, e) = optimal_mu_and_fraction();
        let e_half = expected_overhead_slots(optimal_mu());
        assert!(e <= e_half + 1e-9, "joint {e} vs halving {e_half}");
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn optimal_window_scales_inversely_with_rate() {
        let w1 = optimal_window(0.01);
        let w2 = optimal_window(0.02);
        assert!((w1 / w2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_zero_slot_probability_is_singleton_rate() {
        let mu = 1.0f64;
        let pmf = overhead_slot_pmf(mu, 1e-10);
        // S(0) = P(N = 1) = mu * e^{-mu}
        assert!((pmf[0] - mu * (-mu).exp()).abs() < 1e-12);
    }
}
