//! The paper's `K`-marching iteration and the Figure-7 analytic curves.
//!
//! The scheduling-time component of the service distribution depends on
//! the traffic actually scheduled, i.e. on `lambda_eff = lambda * (1 -
//! p(loss))` — which itself depends on the loss being computed. The paper
//! resolves the circularity by marching `K` upward from `K = 0` (where the
//! scheduling delay is exactly zero and the loss is exactly
//! `rho'/(1 + rho')`), using the loss at the previous grid point to build
//! the service distribution at the next (§4.1, last paragraph). This
//! module adds an inner fixed-point sweep at each grid point, which makes
//! the result insensitive to the grid spacing.
//!
//! Window lengths follow the heuristic of §4.1: `w* = mu* / lambda`
//! minimizes the mean scheduling time at the *offered* rate; the effective
//! window occupancy at deadline `K` is then `mu = lambda_eff * w*`, which
//! the marching updates as the loss evolves.

use crate::impatient::loss_probability;
use crate::mg1::{fcfs_tails, rho};
use crate::service::{service_dist, SchedulingShape};
use tcw_numerics::grid::GridDist;
use tcw_window::analysis::optimal_mu;

/// Configuration for one Figure-7 panel (one `(rho', M)` pair).
#[derive(Clone, Copy, Debug)]
pub struct PanelConfig {
    /// Message length in units of `tau` (the paper's `M`).
    pub m: u64,
    /// Normalized offered load `rho' = lambda * M * tau` (all messages).
    pub rho_prime: f64,
    /// Scheduling-time distribution shape.
    pub shape: SchedulingShape,
}

impl PanelConfig {
    /// Aggregate arrival rate per `tau`.
    pub fn lambda(&self) -> f64 {
        self.rho_prime / self.m as f64
    }

    /// The heuristic window length `w* = mu*/lambda`, in `tau`.
    pub fn heuristic_window(&self) -> f64 {
        optimal_mu() / self.lambda()
    }
}

/// One point of an analytic loss curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// Deadline `K` in units of `tau`.
    pub k: f64,
    /// Loss probability.
    pub loss: f64,
    /// Mean service time (scheduling + transmission) used at this point.
    pub service_mean: f64,
}

/// The controlled protocol's analytic loss curve via `K`-marching.
///
/// `k_grid` must be increasing and start at (or near) zero.
///
/// # Panics
/// Panics if the grid is empty or not increasing.
pub fn controlled_curve(cfg: PanelConfig, k_grid: &[f64]) -> Vec<CurvePoint> {
    assert!(!k_grid.is_empty());
    assert!(
        k_grid.windows(2).all(|w| w[1] > w[0]),
        "K grid must be increasing"
    );
    let lambda = cfg.lambda();
    let w_star = cfg.heuristic_window();

    let mut out = Vec::with_capacity(k_grid.len());
    // K = 0 anchor: scheduling delay exactly 0, loss = rho'/(1 + rho').
    let mut p_prev = cfg.rho_prime / (1.0 + cfg.rho_prime);

    for &k in k_grid {
        // Inner fixed point: service distribution from the accepted rate.
        let mut p = p_prev;
        for _ in 0..50 {
            let mu = (lambda * (1.0 - p) * w_star).max(1e-9);
            let service = service_dist(cfg.shape, mu, cfg.m);
            let p_new = loss_probability(lambda, &service, k);
            if (p_new - p).abs() < 1e-10 {
                p = p_new;
                break;
            }
            p = p_new;
        }
        let mu = (lambda * (1.0 - p) * w_star).max(1e-9);
        let service = service_dist(cfg.shape, mu, cfg.m);
        out.push(CurvePoint {
            k,
            loss: p,
            service_mean: service.mean(),
        });
        p_prev = p;
    }
    out
}

/// The uncontrolled FCFS baseline ([Kurose 83]): every message is served,
/// losses occur only at the receiver when the waiting time exceeds `K`.
///
/// With `include_own_sched` the message's own scheduling time is added to
/// its waiting time (the *true* waiting time measured by the simulation);
/// without it the paper's approximate waiting-time definition is used.
///
/// For `rho >= 1` the queue is unstable and the steady-state loss is 1.
pub fn fcfs_curve(cfg: PanelConfig, k_grid: &[f64], include_own_sched: bool) -> Vec<CurvePoint> {
    let lambda = cfg.lambda();
    // All messages are scheduled: the window occupancy is the universal
    // optimum mu*.
    let mu = optimal_mu();
    let service = service_dist(cfg.shape, mu, cfg.m);
    let service_mean = service.mean();
    let unstable = rho(lambda, &service) >= 1.0;
    // Own scheduling overhead (service minus the deterministic M), or a
    // unit atom at zero under the paper's definition.
    let own: &[f64] = if include_own_sched {
        &service.pmf()[cfg.m as usize..]
    } else {
        &[1.0]
    };
    // One renewal solve up to the largest deadline serves every point.
    let k_max = k_grid.iter().copied().fold(0.0f64, f64::max);
    let wait_tail = fcfs_tails(lambda, &service, k_max);

    k_grid
        .iter()
        .map(|&k| {
            // P(W + S_own > k) = sum_j P(S_own = j) P(W > k - j)
            let mut p = 0.0;
            for (j, &pj) in own.iter().enumerate() {
                if pj != 0.0 {
                    p += pj * wait_tail(k - j as f64);
                }
            }
            CurvePoint {
                k,
                loss: if unstable { 1.0 } else { p.min(1.0) },
                service_mean,
            }
        })
        .collect()
}

/// The uncontrolled LCFS baseline: every message is served (newest
/// first); losses occur only at the receiver when the waiting time —
/// a delay busy period — exceeds `K`. See [`crate::lcfs`].
///
/// `include_own_sched` adds the message's own scheduling time, matching
/// the simulation's true-waiting-time accounting.
pub fn lcfs_curve(cfg: PanelConfig, k_grid: &[f64], include_own_sched: bool) -> Vec<CurvePoint> {
    use crate::lcfs::lcfs_wait_pmf;
    let lambda = cfg.lambda();
    let mu = optimal_mu();
    let service = service_dist(cfg.shape, mu, cfg.m);
    let service_mean = service.mean();
    let k_max = k_grid.iter().copied().fold(0.0f64, f64::max);
    let nmax = (k_max / service.step()).ceil() as usize + service.len() + 2;
    let (p_zero, pmf) = lcfs_wait_pmf(lambda, &service, nmax);

    // CDF of W (+ own scheduling overhead when requested).
    let mut w_pmf = vec![0.0; nmax];
    w_pmf[0] = p_zero;
    for (n, &p) in pmf.iter().enumerate() {
        w_pmf[n] += p;
    }
    let full = if include_own_sched {
        let overhead = GridDist::from_pmf(1.0, service.pmf()[cfg.m as usize..].to_vec());
        let mut out = vec![0.0; nmax];
        for (a, &pa) in w_pmf.iter().enumerate() {
            if pa == 0.0 {
                continue;
            }
            for (b, &pb) in overhead.pmf().iter().enumerate() {
                if a + b < nmax && pb != 0.0 {
                    out[a + b] += pa * pb;
                }
            }
        }
        out
    } else {
        w_pmf
    };
    let mut cdf = Vec::with_capacity(nmax);
    let mut acc = 0.0;
    for &p in &full {
        acc += p;
        cdf.push(acc.min(1.0));
    }
    k_grid
        .iter()
        .map(|&k| {
            let idx = ((k / service.step()).floor() as usize).min(cdf.len() - 1);
            CurvePoint {
                k,
                loss: (1.0 - cdf[idx]).max(0.0),
                service_mean,
            }
        })
        .collect()
}

/// Convenience: an evenly spaced `K` grid `{step, 2*step, ..., max}`
/// (starting above zero; the `K = 0` anchor is handled internally).
pub fn k_grid(max: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0 && max >= step);
    let mut out = Vec::new();
    let mut k = step;
    while k <= max + 1e-9 {
        out.push(k);
        k += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel(rho_prime: f64, m: u64) -> PanelConfig {
        PanelConfig {
            m,
            rho_prime,
            shape: SchedulingShape::Geometric,
        }
    }

    #[test]
    fn controlled_curve_starts_near_k0_anchor_and_decreases() {
        let cfg = panel(0.5, 25);
        let grid = k_grid(1000.0, 25.0);
        let curve = controlled_curve(cfg, &grid);
        // Early points below the K=0 anchor, decreasing throughout.
        assert!(curve[0].loss < 0.5 / 1.5 + 0.05);
        for w in curve.windows(2) {
            assert!(
                w[1].loss <= w[0].loss + 1e-9,
                "loss increased at K={}",
                w[1].k
            );
        }
        // Large K: loss vanishes (rho' = 0.5 < 1 even with overhead).
        assert!(curve.last().unwrap().loss < 0.02);
    }

    #[test]
    fn controlled_service_mean_exceeds_m() {
        let cfg = panel(0.75, 25);
        let curve = controlled_curve(cfg, &k_grid(500.0, 50.0));
        for p in &curve {
            assert!(p.service_mean >= 25.0);
            assert!(p.service_mean < 25.0 + 5.0, "overhead blew up: {p:?}");
        }
    }

    #[test]
    fn fcfs_curve_decreases_and_exceeds_controlled_at_moderate_k() {
        let cfg = panel(0.75, 25);
        let grid = k_grid(1500.0, 25.0);
        let controlled = controlled_curve(cfg, &grid);
        let fcfs = fcfs_curve(cfg, &grid, true);
        for w in fcfs.windows(2) {
            assert!(w[1].loss <= w[0].loss + 1e-9);
        }
        // The paper's headline: the controlled protocol dominates FCFS.
        let mut controlled_wins = 0;
        for (c, f) in controlled.iter().zip(&fcfs) {
            if c.loss <= f.loss + 1e-9 {
                controlled_wins += 1;
            }
        }
        assert!(
            controlled_wins as f64 >= 0.9 * grid.len() as f64,
            "controlled won only {controlled_wins}/{} grid points",
            grid.len()
        );
    }

    #[test]
    fn fcfs_curve_is_the_per_point_sum_bit_for_bit() {
        // The oracle re-solves the renewal series for every (K, lag) pair.
        use crate::mg1::fcfs_tail;
        let cases = [
            (panel(0.5, 25), k_grid(400.0, 12.5)),
            (panel(0.75, 100), k_grid(1600.0, 200.0)),
        ];
        for (cfg, grid) in cases {
            let service = service_dist(cfg.shape, optimal_mu(), cfg.m);
            let own = &service.pmf()[cfg.m as usize..];
            let per_point = |k: f64, own_sched: bool| -> f64 {
                if !own_sched {
                    return fcfs_tail(cfg.lambda(), &service, k);
                }
                let mut p = 0.0;
                for (j, &pj) in own.iter().enumerate().filter(|&(_, &pj)| pj != 0.0) {
                    p += pj * fcfs_tail(cfg.lambda(), &service, k - j as f64);
                }
                p.min(1.0)
            };
            for own_sched in [false, true] {
                for c in fcfs_curve(cfg, &grid, own_sched) {
                    let want = per_point(c.k, own_sched);
                    assert_eq!(
                        c.loss.to_bits(),
                        want.to_bits(),
                        "K = {}: {} vs {want}",
                        c.k,
                        c.loss
                    );
                }
            }
        }
    }

    #[test]
    fn fcfs_unstable_load_loses_everything() {
        // rho' close to 1: scheduling overhead pushes rho above 1.
        let cfg = panel(0.99, 25);
        let fcfs = fcfs_curve(cfg, &[100.0, 1000.0], false);
        assert_eq!(fcfs[0].loss, 1.0);
        assert_eq!(fcfs[1].loss, 1.0);
    }

    #[test]
    fn own_sched_component_increases_fcfs_loss() {
        let cfg = panel(0.5, 25);
        let grid = [50.0, 100.0, 200.0];
        let with = fcfs_curve(cfg, &grid, true);
        let without = fcfs_curve(cfg, &grid, false);
        for (a, b) in with.iter().zip(&without) {
            assert!(a.loss >= b.loss - 1e-12);
        }
    }

    #[test]
    fn heavier_load_means_higher_controlled_loss() {
        let grid = k_grid(800.0, 100.0);
        let light = controlled_curve(panel(0.25, 25), &grid);
        let heavy = controlled_curve(panel(0.75, 25), &grid);
        for (l, h) in light.iter().zip(&heavy) {
            assert!(h.loss >= l.loss, "K={}", l.k);
        }
    }

    #[test]
    fn longer_messages_need_proportionally_larger_k() {
        // At the same rho' and K/M ratio, losses are comparable; at the
        // same absolute K, M=100 suffers more.
        let grid = [200.0f64];
        let m25 = controlled_curve(panel(0.5, 25), &grid);
        let m100 = controlled_curve(panel(0.5, 100), &grid);
        assert!(m100[0].loss > m25[0].loss);
    }

    #[test]
    fn exact_and_geometric_shapes_agree_roughly() {
        let grid = k_grid(600.0, 100.0);
        let geo = controlled_curve(panel(0.75, 25), &grid);
        let exact = controlled_curve(
            PanelConfig {
                shape: SchedulingShape::ExactSplitting,
                ..panel(0.75, 25)
            },
            &grid,
        );
        for (g, e) in geo.iter().zip(&exact) {
            assert!(
                (g.loss - e.loss).abs() < 0.05,
                "K={}: geometric {} vs exact {}",
                g.k,
                g.loss,
                e.loss
            );
        }
    }

    #[test]
    fn lcfs_curve_decreases_slowly_with_heavy_tail() {
        let cfg = panel(0.75, 25);
        let grid = k_grid(1000.0, 50.0);
        let lcfs = lcfs_curve(cfg, &grid, true);
        for w in lcfs.windows(2) {
            assert!(w[1].loss <= w[0].loss + 1e-9);
        }
        // Crossover vs FCFS: FCFS worse at tight K, better at loose K.
        let fcfs = fcfs_curve(cfg, &grid, true);
        assert!(
            fcfs[0].loss > lcfs[0].loss,
            "tight K: fcfs {:.4} should exceed lcfs {:.4}",
            fcfs[0].loss,
            lcfs[0].loss
        );
        let last = grid.len() - 1;
        assert!(
            fcfs[last].loss < lcfs[last].loss,
            "loose K: lcfs tail {:.4} should exceed fcfs {:.4}",
            lcfs[last].loss,
            fcfs[last].loss
        );
    }

    #[test]
    fn lcfs_zero_k_loss_is_busy_probability_plus_own_sched() {
        // Without the own-sched component, P(W > 0) = rho - sub-step atom.
        let cfg = panel(0.5, 25);
        let c = lcfs_curve(cfg, &[0.5], false);
        let rho = cfg.lambda() * crate::service::service_mean(optimal_mu(), cfg.m);
        assert!(
            (c[0].loss - rho).abs() < 0.05,
            "loss at K->0 {:.4} vs rho {:.4}",
            c[0].loss,
            rho
        );
    }

    #[test]
    fn k_grid_is_well_formed() {
        let g = k_grid(100.0, 25.0);
        assert_eq!(g, vec![25.0, 50.0, 75.0, 100.0]);
    }
}
