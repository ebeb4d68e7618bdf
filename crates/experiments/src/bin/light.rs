//! Light-load sweep with the event-horizon fast path engaged.
//!
//! Sweeps rho' in {0.02, 0.05, 0.10} over the three deterministic
//! window orders at M = 25, K = 100 tau — the regime where almost every
//! probe slot is empty and the engine's idle-slot jump-ahead carries
//! the run. Next to the protocol measurements, each row records the
//! fast path's own activation counters (`jumps`, `slots_skipped`,
//! `batched_runs`, `batched_slots`).
//!
//! The sweep is fully deterministic (fixed seed, no wall-clock values),
//! so `results/light.csv` and `results/light.txt` are committed
//! artifacts CI regenerates under `git diff --exit-code`: a changed
//! metric bit means the fast path is no longer bit-identical to slot
//! stepping, and a zeroed `jumps` column means it silently stopped
//! engaging in exactly the regime it exists for (the binary also fails
//! outright on that). RANDOM order is excluded by design — its window
//! draws consume RNG per slot, so the fast path correctly refuses to
//! jump there.

use std::fmt::Write as _;
use std::path::Path;
use tcw_experiments::plot::write_csv;
use tcw_experiments::runner::{Cell, PolicyKind, SimSettings};
use tcw_experiments::Panel;

const LOADS: [f64; 3] = [0.02, 0.05, 0.10];
const KINDS: [PolicyKind; 3] = [PolicyKind::Controlled, PolicyKind::Fcfs, PolicyKind::Lcfs];
const M: u64 = 25;
const K_TAU: f64 = 100.0;
const SEED: u64 = 1983;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 2_000,
        warmup: 200,
        ..Default::default()
    }
}

fn main() {
    let results = Path::new("results");
    std::fs::create_dir_all(results).expect("create results dir");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::from(
        "Light-load sweep (event-horizon fast path on, M=25, K=100 tau)\n\
         Counters are telemetry only: every metric is bit-identical to the\n\
         slot-stepped engine (see crates/window/tests/horizon_equivalence.rs).\n\n",
    );
    for rho_prime in LOADS {
        for kind in KINDS {
            let panel = Panel { rho_prime, m: M };
            let run = Cell::clean(panel, kind, K_TAU, settings(), SEED).run();
            let (p, h) = (run.point, run.horizon);
            assert!(
                h.jumps > 0,
                "fast path never engaged at rho'={rho_prime} {}",
                kind.label()
            );
            rows.push(vec![
                format!("{rho_prime}"),
                kind.label().to_string(),
                format!("{}", p.loss),
                format!("{}", p.sender_loss),
                format!("{}", p.utilization),
                format!("{}", p.offered),
                format!("{}", h.jumps),
                format!("{}", h.slots_skipped),
                format!("{}", h.batched_runs),
                format!("{}", h.batched_slots),
            ]);
            let line = format!(
                "rho'={rho_prime:.2} {:<10} loss={:.4} util={:.3} offered={} jumps={} skipped={} batched={}/{}",
                kind.label(),
                p.loss,
                p.utilization,
                p.offered,
                h.jumps,
                h.slots_skipped,
                h.batched_runs,
                h.batched_slots,
            );
            println!("{line}");
            let _ = writeln!(report, "{line}");
        }
    }

    write_csv(
        &results.join("light.csv"),
        &[
            "rho_prime",
            "policy",
            "loss",
            "sender_loss",
            "utilization",
            "offered",
            "jumps",
            "slots_skipped",
            "batched_runs",
            "batched_slots",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("light.txt"), &report).expect("write report");
    println!("\nwrote results/light.csv and results/light.txt");
}
