//! Age-of-Information sweep: freshness of the protocol under deadline
//! control.
//!
//! Sweeps deadline K × offered load for the controlled and FCFS window
//! orders at M = 25, measuring the per-station age process next to the
//! conventional loss/utilization figures: time-averaged age, mean peak
//! age, and the fraction of observed time the age exceeded the deadline
//! K (all in units of `tau`, exact integer sawtooth underneath — see
//! `tcw_window::metrics::AgeTracker`). Results land in
//! `results/aoi.csv` and `results/aoi.txt`.
//!
//! The sweep is fully deterministic (fixed seed, no wall-clock values),
//! so both artifacts are committed and CI regenerates them under
//! `git diff --exit-code`. Telemetry flags (`--spans PATH`,
//! `--metrics PATH`, `--trace-events PATH`) attach passive observers
//! whose output is byte-identical for any `--jobs N`; `--obs-cell` runs
//! a single tiny sample cell whose span stream and metrics registry are
//! committed under `results/obs/` for forensics walkthroughs
//! (see EXPERIMENTS.md) and CI lint.

use std::fmt::Write as _;
use std::path::Path;
use tcw_experiments::diag;
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::runner::{CellResult, PolicyKind, RunSpec, SimSettings};
use tcw_experiments::sweep::{jobs_from_args, run_parallel};
use tcw_experiments::{
    observed_cell, write_observability, CellArtifacts, ObsConfig, Panel, SweepMeta,
};

const K_TAUS: [f64; 3] = [25.0, 50.0, 100.0];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const KINDS: [PolicyKind; 2] = [PolicyKind::Controlled, PolicyKind::Fcfs];
const M: u64 = 25;
const SEED: u64 = 1983;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

/// One grid cell: its deadline, load and policy, and the run.
type AoiCell = (f64, f64, PolicyKind, RunSpec);

/// The grid: deadline × load × policy, all on one seed.
fn grid() -> Vec<AoiCell> {
    let mut cells = Vec::new();
    for &k in &K_TAUS {
        for &rho_prime in &LOADS {
            for &kind in &KINDS {
                let panel = Panel { rho_prime, m: M };
                let spec = RunSpec::panel(panel, kind, k, settings(), SEED);
                cells.push((k, rho_prime, kind, spec));
            }
        }
    }
    cells
}

/// Runs the single tiny sample cell behind `--obs-cell`: busy panel,
/// controlled protocol, tight deadline — small enough that the full span
/// stream is a readable, committable artifact, busy enough to exhibit
/// collisions and a deadline discard for the EXPERIMENTS.md forensics
/// walkthrough. Fully deterministic, so CI diff-checks the outputs.
fn run_obs_cell(obs: &ObsConfig) -> i32 {
    if obs.spans.is_none() || obs.metrics.is_none() {
        diag::error(
            "aoi",
            "--obs-cell needs both --spans PATH and --metrics PATH",
        );
        return diag::EXIT_USAGE;
    }
    let panel = Panel {
        rho_prime: 0.75,
        m: M,
    };
    let kind = PolicyKind::Controlled;
    let k = 25.0;
    let cell_settings = SimSettings {
        ticks_per_tau: 8,
        messages: 12,
        warmup: 2,
        stations: 20,
        guard: false,
    };
    let id = panel.id();
    let label = format!("{id} {} K={k}", kind.label());
    let labels = [
        ("panel", id.as_str()),
        ("policy", kind.label()),
        ("k", "25"),
        ("seed", "1983"),
    ];
    let spec = RunSpec::panel(panel, kind, k, cell_settings, SEED);
    let (run, art) = observed_cell(obs.capture(), 0, &label, &labels, &spec, None);
    if let Err(e) = write_observability(obs, &[art], SweepMeta { cells: 1 }) {
        diag::error("aoi", &e);
        return diag::EXIT_FAILURE;
    }
    println!(
        "obs-cell: {label} (seed {SEED}) loss={:.6} offered={} mean_age={:.3} tau -> {} + {}",
        run.point.loss,
        run.point.offered,
        run.aoi.mean_age_tau,
        obs.spans.as_ref().unwrap().display(),
        obs.metrics.as_ref().unwrap().display(),
    );
    0
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs, args) = diag::or_usage("aoi", ObsConfig::split_args(&raw));
    let (cell, args): (Vec<String>, Vec<String>) =
        args.into_iter().partition(|a| a == "--obs-cell");
    diag::reject_unknown("aoi", &args, &["--jobs"]);
    if !cell.is_empty() {
        std::process::exit(run_obs_cell(&obs));
    }
    let jobs = jobs_from_args("aoi", &args);
    let results = Path::new("results");
    std::fs::create_dir_all(results).expect("create results dir");

    println!("Age-of-Information sweep (M={M}, seed {SEED})\n");

    let cells = grid();
    let caps = obs.capture();
    let outcomes: Vec<(CellResult, CellArtifacts)> = run_parallel(
        &cells,
        jobs,
        obs.progress,
        |i, (k, rho, kind, spec), progress| {
            let label = format!("rho'={rho:.2} {} K={k}", kind.label());
            let k_s = format!("{k}");
            let rho_s = format!("{rho}");
            let labels = [
                ("rho", rho_s.as_str()),
                ("policy", kind.label()),
                ("k", k_s.as_str()),
            ];
            observed_cell(caps, i, &label, &labels, spec, progress)
        },
    );
    let (runs, cell_artifacts): (Vec<CellResult>, Vec<CellArtifacts>) =
        outcomes.into_iter().unzip();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::from(
        "Age-of-Information sweep (M=25, controlled vs FCFS)\n\
         Ages in units of tau; the sawtooth integral is exact integer\n\
         arithmetic over ticks (tcw_window::metrics::AgeTracker).\n\n",
    );
    let mut series: Vec<Series> = Vec::new();
    let glyphs = ['o', '+', 'x'];
    for (ri, &rho_prime) in LOADS.iter().enumerate() {
        series.push(Series {
            label: format!("rho'={rho_prime:.2} ctrl"),
            glyph: glyphs[ri % glyphs.len()],
            points: Vec::new(),
        });
    }
    for ((k, rho, kind, _), run) in cells.iter().zip(&runs) {
        let line = format!(
            "K={:<5} rho'={:.2} {:<10} loss={:.4} util={:.3} mean_age={:.2} peak_age={:.2} violation={:.4} deliveries={} stations={}",
            k,
            rho,
            kind.label(),
            run.point.loss,
            run.point.utilization,
            run.aoi.mean_age_tau,
            run.aoi.peak_age_tau,
            run.aoi.violation,
            run.aoi.deliveries,
            run.aoi.stations_observed,
        );
        println!("  {line}");
        let _ = writeln!(report, "{line}");
        rows.push(vec![
            format!("{k}"),
            format!("{rho}"),
            kind.label().to_string(),
            format!("{}", run.point.loss),
            format!("{}", run.point.utilization),
            format!("{}", run.aoi.mean_age_tau),
            format!("{}", run.aoi.peak_age_tau),
            format!("{}", run.aoi.violation),
            format!("{}", run.aoi.deliveries),
            format!("{}", run.aoi.stations_observed),
        ]);
        if *kind == PolicyKind::Controlled {
            let ri = LOADS.iter().position(|r| r == rho).expect("load in grid");
            series[ri].points.push((*k, run.aoi.mean_age_tau));
        }
    }

    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-3)
        * 1.2;
    let chart = ascii_plot(
        "mean age vs deadline K (controlled, M=25)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("\n{chart}");
    report.push('\n');
    report.push_str(&chart);

    write_csv(
        &results.join("aoi.csv"),
        &[
            "k",
            "rho_prime",
            "policy",
            "loss",
            "utilization",
            "mean_age_tau",
            "peak_age_tau",
            "violation",
            "deliveries",
            "stations_observed",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("aoi.txt"), &report).expect("write report");
    if let Err(e) = write_observability(
        &obs,
        &cell_artifacts,
        SweepMeta {
            cells: cell_artifacts.len(),
        },
    ) {
        diag::error("aoi", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nwrote results/aoi.csv and results/aoi.txt");
}
