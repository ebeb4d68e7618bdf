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

/// Loss under crash/restart churn against a blocking model built on eq.
/// 4.7, for every crash cell of the committed `results/churn.csv` (M = 25,
/// K = 100 τ, outages of D = 40 probe slots). Each station is down for
/// the renewal fraction f = D/(1/p + D) of probe slots; an arrival at a
/// down station is blocked, and the others see eq. 4.7's controlled loss
/// L at the load that gets through: f + (1 − f)·L(rho'(1 − f)), with L
/// from `controlled_curve` on a 0.5 τ K grid. The model takes slot
/// durations to be independent of which stations are down. Tolerance:
/// the rule the eq. 4.7 checks above apply, max(4·ci95, 0.015).
#[test]
fn churn_loss_matches_the_renewal_blocking_model() {
    const M: u64 = 25;
    const K: f64 = 100.0;
    const D: f64 = 40.0;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/churn.csv");
    let csv = std::fs::read_to_string(path).expect("read results/churn.csv");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let (rho, crash, loss, ci95) = (
        col("rho_prime"),
        col("crash_rate"),
        col("loss"),
        col("loss_ci95"),
    );
    let ks: Vec<f64> = (1..=(2.0 * K) as u32).map(|i| f64::from(i) * 0.5).collect();
    let mut cells = 0;
    for line in lines {
        let row: Vec<f64> = line.split(',').map(|x| x.parse().expect(x)).collect();
        let p = row[crash];
        if p == 0.0 {
            continue;
        }
        let f = D / (1.0 / p + D);
        let cfg = PanelConfig {
            m: M,
            rho_prime: row[rho] * (1.0 - f),
            shape: SchedulingShape::Geometric,
        };
        let l = controlled_curve(cfg, &ks).last().expect("K grid").loss;
        let model = f + (1.0 - f) * l;
        let tol = (4.0 * row[ci95]).max(0.015);
        assert!(
            (model - row[loss]).abs() <= tol,
            "rho'={} crash={p}: model {model:.4} vs sim {:.4} (tol {tol:.4})",
            row[rho],
            row[loss]
        );
        cells += 1;
    }
    assert_eq!(cells, 12, "crash cells in {path}");
}
