//! Fault-injection robustness sweep and deterministic failure replay.
//!
//! Default mode sweeps fault probability × offered load for the controlled
//! protocol, comparing loss against the fault-free baseline of the same
//! seed, then exercises the per-station divergence detector under receive
//! deafness. Results land in `results/robustness.csv` and
//! `results/robustness.txt`.
//!
//! Every run executes under a panic guard: a panic, a tripped invariant,
//! or a detected divergence writes a replay artifact under
//! `results/failures/` containing the seed, the fault plan and the
//! workload. Re-running with
//!
//! ```text
//! cargo run --release -p tcw-experiments --bin robustness -- --replay <artifact>
//! ```
//!
//! re-executes the identical timeline and must reproduce the identical
//! failure (the binary exits non-zero if it does not).

use std::path::{Path, PathBuf};
use tcw_experiments::diag;
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::replay::{execute, replay, FailureRecord};
use tcw_experiments::runner::{Cell, CellResult, PolicyKind, SimSettings};
use tcw_experiments::supervise::{supervised_cells, SupervisorOptions};
use tcw_experiments::sweep::jobs_from_args;
use tcw_experiments::{
    observed_cell, write_observability, CellArtifacts, Failure, ObsConfig, Panel, SweepMeta,
};
use tcw_mac::FaultPlan;

const FAULT_PROBS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const M: u64 = 25;
const K_TAU: f64 = 100.0;
const SEED: u64 = 1983;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

/// The clean cell at load `rho_prime`; the sweep varies its fault plan.
fn cell_at(rho_prime: f64) -> Cell {
    let panel = Panel { rho_prime, m: M };
    Cell::clean(panel, PolicyKind::Controlled, K_TAU, settings(), SEED)
}

/// Runs a cell; on failure writes a replay artifact and returns its path.
fn guarded(cell: &Cell, out_dir: &Path) -> Result<String, PathBuf> {
    let (kind, detail) = execute(cell);
    if kind == "ok" {
        return Ok(detail);
    }
    let path = out_dir.join(format!(
        "failure_{}_seed{}_p{:02}.json",
        kind,
        cell.seed,
        (cell.plan.erasure * 100.0).round() as u32
    ));
    let failed = FailureRecord {
        cell: cell.clone(),
        kind,
        detail,
    };
    failed.save(&path).expect("write replay artifact");
    Err(path)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs, args) = diag::or_usage("robustness", ObsConfig::split_args(&raw));
    let (sup, args) = diag::or_usage(
        "robustness",
        SupervisorOptions::split_args(&args, obs.wants_telemetry()),
    );
    if args.first().is_some_and(|a| a == "--replay") {
        let Some(path) = args.get(1) else {
            diag::error("robustness", "--replay needs an artifact path");
            std::process::exit(diag::EXIT_USAGE);
        };
        std::process::exit(replay(Path::new(path)));
    }
    let jobs = jobs_from_args("robustness", &args);

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    let mut report = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut series: Vec<Series> = Vec::new();
    let glyphs = ['o', '+', 'x'];

    println!("fault-injection sweep: controlled protocol, M={M}, K={K_TAU} tau\n");

    // The full load × fault-probability grid runs as one supervised
    // sweep. A cell that keeps panicking is quarantined, and its replay
    // artifact is written from the quarantine report.
    let cells: Vec<Cell> = LOADS
        .iter()
        .flat_map(|&rho| {
            FAULT_PROBS.iter().map(move |&p| Cell {
                plan: FaultPlan::uniform(p),
                ..cell_at(rho)
            })
        })
        .collect();
    let caps = obs.capture();
    let (outcomes, cell_artifacts): (Vec<CellResult>, Vec<CellArtifacts>) = supervised_cells(
        "robustness",
        &cells,
        jobs,
        &sup,
        obs.progress,
        Cell::fingerprint(&cells),
        |c, q| {
            let (rho, p) = (c.panel.rho_prime, c.plan.erasure);
            let desc = format!("rho'={rho:.2} p={p:.2} seed {SEED}");
            let Failure::Panic(message) = &q.failure else {
                return desc;
            };
            let failed = FailureRecord {
                cell: c.clone(),
                kind: "panic".to_string(),
                detail: message.clone(),
            };
            let path = failures_dir.join(format!(
                "failure_panic_seed{}_rho{:02}_p{:02}.json",
                c.seed,
                (rho * 100.0) as u32,
                (p * 100.0).round() as u32
            ));
            failed.save(&path).expect("write replay artifact");
            format!(
                "{desc}; replay artifact written to {}, reproduce: cargo run --release -p tcw-experiments --bin robustness -- --replay {}",
                path.display(),
                path.display()
            )
        },
        move |i, c, progress| {
            let (rho, p) = (c.panel.rho_prime, c.plan.erasure);
            let label = format!("rho={rho:.2} p={p:.2}");
            let rho_s = format!("{rho}");
            let p_s = format!("{p}");
            let labels = [("rho", rho_s.as_str()), ("fault_prob", p_s.as_str())];
            observed_cell(caps, i, &label, &labels, c, progress)
        },
    )
    .into_iter()
    .unzip();

    let mut outcome_iter = outcomes.into_iter();
    for (li, &rho) in LOADS.iter().enumerate() {
        let mut points = Vec::new();
        for &p in &FAULT_PROBS {
            let fsp = outcome_iter.next().expect("one outcome per cell");
            let line = format!(
                "rho'={rho:.2} p={p:.2}: loss={:.4} util={:.3} corrupted={} erased={} resyncs={} abandoned={} reopened={} fault_losses={}",
                fsp.point.loss,
                fsp.point.utilization,
                fsp.faults.corrupted_slots,
                fsp.faults.erased_slots,
                fsp.faults.resyncs,
                fsp.faults.rounds_abandoned,
                fsp.faults.reopened,
                fsp.faults.fault_losses,
            );
            println!("  {line}");
            report.push_str(&line);
            report.push('\n');
            rows.push(vec![
                format!("{rho}"),
                format!("{p}"),
                format!("{}", fsp.point.loss),
                format!("{}", fsp.point.utilization),
                format!("{}", fsp.faults.corrupted_slots),
                format!("{}", fsp.faults.erased_slots),
                format!("{}", fsp.faults.resyncs),
                format!("{}", fsp.faults.rounds_abandoned),
                format!("{}", fsp.faults.reopened),
                format!("{}", fsp.faults.fault_losses),
            ]);
            points.push((p, fsp.point.loss));
        }
        series.push(Series {
            label: format!("rho'={rho:.2}"),
            glyph: glyphs[li % glyphs.len()],
            points,
        });
        println!();
    }

    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-3)
        * 1.2;
    let chart = ascii_plot(
        "loss vs fault probability (controlled, M=25, K=100 tau)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("{chart}");
    report.push('\n');
    report.push_str(&chart);

    // Divergence detector under receive deafness: the one fault class that
    // breaks the shared-view invariant. The detector must both catch it
    // and recover via beacon resync, and the failure must be replayable.
    println!("\ndivergence detector (deafness faults):\n");
    let mut deaf_plan = FaultPlan::uniform(0.02);
    deaf_plan.deafness = 0.002;
    deaf_plan.deaf_slots = 4;
    let deaf = Cell {
        plan: deaf_plan,
        ..cell_at(0.50)
    };
    match guarded(&deaf, &failures_dir) {
        Ok(detail) => {
            let line = format!("  station 0 never diverged ({detail})");
            println!("{line}");
            report.push_str(&line);
        }
        Err(path) => {
            let loaded = FailureRecord::load(&path).expect("reload artifact");
            let line = format!(
                "  [{}] {}\n  replay artifact: {}\n  reproduce: cargo run --release -p tcw-experiments --bin robustness -- --replay {}",
                loaded.kind,
                loaded.detail,
                path.display(),
                path.display()
            );
            println!("{line}");
            report.push_str(&line);
        }
    }
    report.push('\n');

    write_csv(
        &results.join("robustness.csv"),
        &[
            "rho_prime",
            "fault_prob",
            "loss",
            "utilization",
            "corrupted_slots",
            "erased_slots",
            "resyncs",
            "rounds_abandoned",
            "reopened",
            "fault_losses",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("robustness.txt"), &report).expect("write report");
    if let Err(e) = write_observability(
        &obs,
        &cell_artifacts,
        SweepMeta {
            cells: cell_artifacts.len(),
        },
    ) {
        diag::error("robustness", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nwrote results/robustness.csv and results/robustness.txt");
}
