//! Integration: the paper's analytic loss model (eq. 4.7 + K-marching,
//! `tcw-queueing`) must agree with the full distributed-protocol
//! simulation (`tcw-window` over `tcw-mac`) — the paper's own validation
//! methodology ("the close agreement between the analytic results and the
//! simulation results", §4.2).

use tcw_experiments::{Panel, PolicyKind, RunSpec, SimSettings};
use tcw_queueing::marching::{controlled_curve, fcfs_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;

fn quick() -> SimSettings {
    SimSettings {
        messages: 8_000,
        warmup: 800,
        ticks_per_tau: 16,
        ..Default::default()
    }
}

fn check_panel(panel: Panel, ks: &[f64], seed: u64) {
    let cfg = PanelConfig {
        m: panel.m,
        rho_prime: panel.rho_prime,
        shape: SchedulingShape::Geometric,
    };
    let analytic = controlled_curve(cfg, ks);
    for (a, &k) in analytic.iter().zip(ks) {
        let sim = RunSpec::panel(panel, PolicyKind::Controlled, k, quick(), seed)
            .run()
            .point;
        let tol = (4.0 * sim.ci95).max(0.015);
        assert!(
            (a.loss - sim.loss).abs() <= tol,
            "rho'={} M={} K={k}: analytic {:.4} vs sim {:.4} (tol {:.4})",
            panel.rho_prime,
            panel.m,
            a.loss,
            sim.loss,
            tol
        );
    }
}

#[test]
fn controlled_loss_matches_eq47_rho50_m25() {
    check_panel(
        Panel {
            rho_prime: 0.5,
            m: 25,
        },
        &[50.0, 100.0, 200.0],
        1,
    );
}

#[test]
fn controlled_loss_matches_eq47_rho75_m25() {
    check_panel(
        Panel {
            rho_prime: 0.75,
            m: 25,
        },
        &[50.0, 100.0, 200.0, 400.0],
        2,
    );
}

#[test]
fn controlled_loss_matches_eq47_rho75_m100() {
    check_panel(
        Panel {
            rho_prime: 0.75,
            m: 100,
        },
        &[200.0, 600.0],
        3,
    );
}

#[test]
fn controlled_loss_matches_eq47_rho25_m25() {
    check_panel(
        Panel {
            rho_prime: 0.25,
            m: 25,
        },
        &[25.0, 50.0, 100.0],
        5,
    );
}

#[test]
fn controlled_loss_matches_eq47_rho25_m100() {
    check_panel(
        Panel {
            rho_prime: 0.25,
            m: 100,
        },
        &[100.0, 200.0, 400.0],
        6,
    );
}

#[test]
fn controlled_loss_matches_eq47_rho50_m100() {
    check_panel(
        Panel {
            rho_prime: 0.5,
            m: 100,
        },
        &[100.0, 200.0, 400.0],
        7,
    );
}

#[test]
fn fcfs_receiver_loss_matches_mg1_tail() {
    // The uncontrolled FCFS baseline: receiver loss = P(W > K) of the
    // M/G/1 queue (with the message's own scheduling time included).
    let panel = Panel {
        rho_prime: 0.5,
        m: 25,
    };
    let cfg = PanelConfig {
        m: panel.m,
        rho_prime: panel.rho_prime,
        shape: SchedulingShape::Geometric,
    };
    let ks = [50.0, 100.0, 200.0];
    let analytic = fcfs_curve(cfg, &ks, true);
    for (a, &k) in analytic.iter().zip(&ks) {
        let sim = RunSpec::panel(panel, PolicyKind::Fcfs, k, quick(), 4)
            .run()
            .point;
        let tol = (4.0 * sim.ci95).max(0.02);
        assert!(
            (a.loss - sim.loss).abs() <= tol,
            "K={k}: analytic {:.4} vs sim {:.4}",
            a.loss,
            sim.loss
        );
    }
}

#[test]
fn k_zero_anchor_is_exact() {
    // At K = 0 the marching starts from the exact rho'/(1+rho') anchor.
    for rho_prime in [0.25, 0.5, 0.75] {
        let cfg = PanelConfig {
            m: 25,
            rho_prime,
            shape: SchedulingShape::Geometric,
        };
        // The curve's first point at a tiny K approaches the busy
        // probability rho/(1+rho), where rho includes the (small)
        // scheduling overhead the marching attributes at this K.
        let curve = controlled_curve(cfg, &[0.5]);
        let rho_eff = rho_prime / 25.0 * curve[0].service_mean;
        let anchor = rho_eff / (1.0 + rho_eff);
        assert!(
            (curve[0].loss - anchor).abs() < 0.02,
            "loss at K->0 ({}) far from the anchor ({anchor})",
            curve[0].loss
        );
    }
}
