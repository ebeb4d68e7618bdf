//! One benchmark per Figure-7 panel: times the regeneration unit for the
//! panel — the analytic controlled curve over the full `K` grid plus one
//! simulated protocol point at `K = 4 M`.

use std::hint::black_box;
use tcw_bench::{bench_settings, Bench};
use tcw_experiments::{Cell, PolicyKind, PANELS};
use tcw_queueing::marching::{controlled_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;

fn main() {
    let b = Bench::new("fig7");
    for panel in PANELS {
        let cfg = PanelConfig {
            m: panel.m,
            rho_prime: panel.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let grid = panel.k_grid();
        b.run(&format!("analytic_{}", panel.id()), || {
            black_box(controlled_curve(cfg, &grid))
        });
        let k = 4.0 * panel.m as f64;
        let mut seed = 0u64;
        b.run(&format!("simulated_{}", panel.id()), || {
            seed += 1;
            black_box(Cell::clean(panel, PolicyKind::Controlled, k, bench_settings(), seed).run())
        });
    }
}
