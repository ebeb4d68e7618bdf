//! Checks the analytic boundary behaviour of eq. 4.7 reported in §4.1:
//!
//! * `K -> 0`   ⟹ `p(loss) -> rho/(1 + rho)` = P(server busy);
//! * `K -> ∞`  ⟹ `p(loss) -> 0` for `rho < 1`;
//! * flow conservation (eq. 4.6): `p(accept) * rho = 1 - P(0)`, checked
//!   against the independent centralized-queue simulation;
//! * figure 5: front-of-queue loss and balking give the same loss and
//!   utilization.
//!
//! Panels run in parallel (`--jobs N`) and support the shared
//! observability flags (`--trace-events`, `--metrics`, `--progress`);
//! exported artifacts are byte-identical for any worker count. Exits
//! with [`diag::EXIT_FAILURE`] if any check fails.

use tcw_experiments::diag::{self, Mode, JOBS, TELEMETRY};
use tcw_experiments::sweep::run_parallel;
use tcw_experiments::{observe_engine_cell, write_observability, CellArtifacts};
use tcw_numerics::grid::GridDist;
use tcw_queueing::impatient::{loss_probability, p_idle};
use tcw_queueing::simqueue::{simulate, LossMode};

/// One boundary check: name, pass/fail, human-readable detail.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn panel_checks(
    lambda: f64,
    m: u64,
    sink: Option<&mut dyn tcw_sim::stats::MetricSink>,
) -> Vec<Check> {
    let service = GridDist::point(1.0, m as f64);
    let rho = lambda * m as f64;
    let mut checks = Vec::new();

    let p0 = loss_probability(lambda, &service, 0.0);
    let expect = rho / (1.0 + rho);
    checks.push(Check {
        name: "K -> 0 limit",
        ok: (p0 - expect).abs() < 1e-9,
        detail: format!("p(loss) = {p0:.6}, rho/(1+rho) = {expect:.6}"),
    });

    let pinf = loss_probability(lambda, &service, 200.0 * m as f64);
    checks.push(Check {
        name: "K -> inf limit",
        ok: pinf < 1e-4,
        detail: format!("p(loss at K = 200 M) = {pinf:.2e}"),
    });

    let k = 4.0 * m as f64;
    let p = loss_probability(lambda, &service, k);
    let idle = p_idle(lambda, &service, k);
    let flow = (1.0 - p) * rho - (1.0 - idle);
    checks.push(Check {
        name: "eq. 4.6 flow conservation (analytic)",
        ok: flow.abs() < 1e-9,
        detail: format!("p(accept)*rho - (1 - P(0)) = {flow:.2e}"),
    });

    let sim = simulate(lambda, &service, k, LossMode::Balking, 300_000, 7);
    checks.push(Check {
        name: "eq. 4.7 vs independent queue simulation",
        ok: (sim.loss - p).abs() < 0.01,
        detail: format!("analytic {p:.4}, simulated {:.4}", sim.loss),
    });
    checks.push(Check {
        name: "eq. 4.6 flow conservation (simulated)",
        ok: (sim.busy - (1.0 - sim.loss) * rho).abs() < 0.01,
        detail: format!(
            "busy {:.4} vs p(accept)*rho {:.4}",
            sim.busy,
            (1.0 - sim.loss) * rho
        ),
    });

    let front = simulate(lambda, &service, k, LossMode::FrontOfQueue, 300_000, 8);
    checks.push(Check {
        name: "figure 5 equivalence",
        ok: (front.loss - sim.loss).abs() < 0.01 && (front.busy - sim.busy).abs() < 0.01,
        detail: format!(
            "front: loss {:.4} busy {:.4}; balk: loss {:.4} busy {:.4}",
            front.loss, front.busy, sim.loss, sim.busy
        ),
    });

    if let Some(sink) = sink {
        sink.gauge(
            "tcw_limits_loss_analytic",
            "eq. 4.7 loss probability at K = 4M",
            p,
        );
        sink.gauge(
            "tcw_limits_loss_simulated",
            "independent queue simulation loss at K = 4M",
            sim.loss,
        );
        sink.gauge(
            "tcw_limits_failed_checks",
            "boundary checks failed in this panel",
            checks.iter().filter(|c| !c.ok).count() as f64,
        );
    }
    checks
}

const MODES: &[Mode] = &[Mode::run(&[TELEMETRY, JOBS])];

fn main() {
    let cli = diag::parse("limits", MODES);
    let (obs, jobs) = (&cli.obs, cli.jobs);
    let mut failures = 0u32;
    println!("eq. 4.7 boundary checks\n");

    let cells: [(f64, u64); 4] = [(0.01, 25), (0.02, 25), (0.03, 25), (0.0075, 100)];
    let caps = obs.capture();
    let outcomes: Vec<(Vec<Check>, CellArtifacts)> =
        run_parallel(&cells, jobs, obs.progress, |i, &(lambda, m), _| {
            let label = format!("lambda={lambda} M={m}");
            let l_s = format!("{lambda}");
            let m_s = format!("{m}");
            let labels = [("lambda", l_s.as_str()), ("m", m_s.as_str())];
            observe_engine_cell(caps, i, &label, &labels, |_obs, sink| {
                panel_checks(lambda, m, sink)
            })
        });
    let (outcomes, cell_artifacts): (Vec<_>, Vec<_>) =
        outcomes.into_iter().unzip::<_, _, Vec<_>, Vec<_>>();

    for (&(lambda, m), checks) in cells.iter().zip(&outcomes) {
        let rho = lambda * m as f64;
        println!("lambda = {lambda}, M = {m} (rho = {rho:.3}):");
        for c in checks {
            if c.ok {
                println!("  [ok]   {}: {}", c.name, c.detail);
            } else {
                println!("  [FAIL] {}: {}", c.name, c.detail);
                failures += 1;
            }
        }
        println!();
    }

    // Overload behaviour: p(loss) -> 1 - 1/rho as K grows.
    let service = GridDist::point(1.0, 10.0);
    let lambda = 0.15; // rho = 1.5
    let p = loss_probability(lambda, &service, 5_000.0);
    let ok = (p - (1.0 - 1.0 / 1.5)).abs() < 1e-3;
    if ok {
        println!(
            "  [ok]   overload limit (rho = 1.5): p(loss) = {p:.4}, 1 - 1/rho = {:.4}",
            1.0 - 1.0 / 1.5
        );
    } else {
        println!(
            "  [FAIL] overload limit (rho = 1.5): p(loss) = {p:.4}, 1 - 1/rho = {:.4}",
            1.0 - 1.0 / 1.5
        );
        failures += 1;
    }

    if let Err(e) = write_observability(obs, &cell_artifacts) {
        diag::error("limits", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }

    if failures > 0 {
        diag::error("limits", &format!("{failures} check(s) FAILED"));
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nall checks passed");
}
