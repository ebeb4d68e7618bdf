//! Ablation benches: protocol engine throughput per discipline and
//! analytic-model cost per scheduling-time shape.

use std::hint::black_box;
use tcw_bench::{bench_settings, Bench};
use tcw_experiments::{Cell, Panel, PolicyKind};
use tcw_queueing::marching::{controlled_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;

fn main() {
    let b = Bench::new("ablation");

    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    for kind in [
        PolicyKind::Controlled,
        PolicyKind::Fcfs,
        PolicyKind::Lcfs,
        PolicyKind::Random,
    ] {
        let mut seed = 100u64;
        b.run(&format!("engine_policy/{}", kind.label()), || {
            seed += 1;
            black_box(Cell::clean(panel, kind, 100.0, bench_settings(), seed).run())
        });
    }

    let grid: Vec<f64> = (1..=32).map(|i| i as f64 * 12.5).collect();
    for (name, shape) in [
        ("geometric", SchedulingShape::Geometric),
        ("exact_splitting", SchedulingShape::ExactSplitting),
    ] {
        let cfg = PanelConfig {
            m: 25,
            rho_prime: 0.75,
            shape,
        };
        b.run(&format!("analytic_shape/{name}"), || {
            black_box(controlled_curve(cfg, &grid))
        });
    }

    let panel = Panel {
        rho_prime: 0.5,
        m: 25,
    };
    for (name, guard) in [("no_guard", false), ("guard", true)] {
        let settings = tcw_experiments::SimSettings {
            guard,
            ..bench_settings()
        };
        let mut seed = 200u64;
        b.run(&format!("guard/{name}"), || {
            seed += 1;
            black_box(Cell::clean(panel, PolicyKind::Controlled, 100.0, settings, seed).run())
        });
    }
}
