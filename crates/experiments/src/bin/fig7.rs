//! Regenerates **Figure 7** of the paper: loss probability vs. time
//! constraint `K`, for all six `(rho', M)` panels, comparing
//!
//! * the controlled protocol — analytic curve (eq. 4.7 + K-marching) and
//!   simulation points (the paper's dots);
//! * the uncontrolled FCFS protocol of [Kurose 83] — analytic curve and
//!   simulation points;
//! * the uncontrolled LCFS protocol of [Kurose 83] — analytic curve
//!   (delay-busy-period analysis, `tcw-queueing::lcfs` — a result beyond
//!   the paper, which had LCFS only by simulation) and simulation points.
//!
//! Output: `results/fig7_<panel>.csv` plus an ASCII rendering of each
//! panel and a summary of the shape checks. Run with `--quick` for a
//! fast smoke pass (fewer messages), `--jobs N` to set the sweep worker
//! count (`--jobs 1` reproduces the serial output byte-for-byte), or
//! pass a panel id (e.g. `rho50_m25`) to regenerate a single panel. Any
//! other argument is a usage error (exit 1) before anything runs.
//!
//! Observability (see EXPERIMENTS.md): `--trace-events PATH` streams
//! every protocol event as NDJSON, `--metrics PATH[.prom]` snapshots the
//! per-cell metrics registries, `--progress` renders a live stderr
//! progress line. `--obs-cell` runs a single tiny sample cell (panel
//! `rho75_m25`, controlled, `K = 100`) and writes its trace/metrics to
//! the given paths — the committed `results/obs/` samples come from it.
//! It needs `--trace-events` and `--metrics` and accepts no flag but the
//! three telemetry outputs.

use std::path::{Path, PathBuf};
use tcw_experiments::diag::{self, Arg, Cli, Mode, JOBS, OUTPUTS, SUPERVISION, TELEMETRY};
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::runner::fingerprint;
use tcw_experiments::supervise::supervised_cells;
use tcw_experiments::{
    observed_cell, write_observability, CellArtifacts, CellResult, ObsConfig, Panel, PolicyKind,
    RunSpec, SimPoint, SimSettings, PANELS,
};
use tcw_queueing::marching::{controlled_curve, fcfs_curve, lcfs_curve, CurvePoint, PanelConfig};
use tcw_queueing::service::SchedulingShape;

const MODES: &[Mode] = &[
    Mode::run(&[TELEMETRY, SUPERVISION, JOBS, OWN]),
    Mode {
        needs: &[
            ("--obs-cell", "--trace-events"),
            ("--obs-cell", "--metrics"),
        ],
        accepts: &[OUTPUTS],
        ..Mode::select("--obs-cell", "")
    },
];

/// `--quick`, and the [`Panel::id`] of each of [`PANELS`]: given labels
/// restrict the run to their panels.
const OWN: &[Arg] = &[
    Arg::Switch("--quick"),
    Arg::Switch("rho25_m25"),
    Arg::Switch("rho25_m100"),
    Arg::Switch("rho50_m25"),
    Arg::Switch("rho50_m100"),
    Arg::Switch("rho75_m25"),
    Arg::Switch("rho75_m100"),
];

struct PanelResult {
    panel: Panel,
    analytic_controlled: Vec<CurvePoint>,
    analytic_fcfs: Vec<CurvePoint>,
    analytic_lcfs: Vec<CurvePoint>,
    sim_controlled: Vec<SimPoint>,
    sim_fcfs: Vec<SimPoint>,
    sim_lcfs: Vec<SimPoint>,
}

const KINDS: [(PolicyKind, u64); 3] = [
    (PolicyKind::Controlled, 0x01),
    (PolicyKind::Fcfs, 0x02),
    (PolicyKind::Lcfs, 0x03),
];

/// Runs every selected panel: analytic curves inline (cheap marching),
/// all simulated points of all panels through one supervised sweep, then
/// reassembles each panel's three point series in grid order. Telemetry,
/// when requested, is captured per cell and returned in cell order.
fn run_panels(
    panels: &[Panel],
    settings: SimSettings,
    seed: u64,
    cli: &Cli,
) -> (Vec<PanelResult>, Vec<CellArtifacts>) {
    // Each cell's seed mixes the policy salt and K exactly like the
    // historical serial loop.
    let mut cells = Vec::new();
    for &panel in panels {
        for (kind, salt) in KINDS {
            for &k in &panel.k_grid_sim() {
                let seed = seed ^ salt ^ (k as u64);
                cells.push((panel, k, RunSpec::panel(panel, kind, k, settings, seed)));
            }
        }
    }
    let caps = cli.obs.capture();
    let (runs, artifacts): (Vec<CellResult>, Vec<CellArtifacts>) = supervised_cells(
        cli,
        &cells,
        fingerprint(cells.iter().map(|(_, _, spec)| spec)),
        |(panel, k, spec), _| {
            format!(
                "{} {} K={k} seed {}",
                panel.id(),
                spec.policy.label(),
                spec.seed
            )
        },
        move |i, (panel, k, spec), progress| {
            let id = panel.id();
            let label = format!("{id} {} K={k}", spec.policy.label());
            let k = format!("{k}");
            let seed_str = format!("{}", spec.seed);
            let labels = [
                ("panel", id.as_str()),
                ("policy", spec.policy.label()),
                ("k", k.as_str()),
                ("seed", seed_str.as_str()),
            ];
            observed_cell(caps, i, &label, &labels, spec, progress)
        },
    )
    .into_iter()
    .unzip();

    let mut results = Vec::new();
    let mut cursor = runs.into_iter().map(|r| r.point);
    for &panel in panels {
        let cfg = PanelConfig {
            m: panel.m,
            rho_prime: panel.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let grid = panel.k_grid();
        let n_sim = panel.k_grid_sim().len();
        let mut take = |n: usize| -> Vec<SimPoint> { cursor.by_ref().take(n).collect() };
        results.push(PanelResult {
            panel,
            analytic_controlled: controlled_curve(cfg, &grid),
            analytic_fcfs: fcfs_curve(cfg, &grid, true),
            analytic_lcfs: lcfs_curve(cfg, &grid, true),
            sim_controlled: take(n_sim),
            sim_fcfs: take(n_sim),
            sim_lcfs: take(n_sim),
        });
    }
    (results, artifacts)
}

fn emit(result: &PanelResult, out_dir: &Path) {
    let p = result.panel;
    // CSV: one row per K of the dense analytic grid; simulation columns
    // are filled on their sparser grid.
    let mut rows = Vec::new();
    for (i, a) in result.analytic_controlled.iter().enumerate() {
        let f = &result.analytic_fcfs[i];
        let l = &result.analytic_lcfs[i];
        let sim = |points: &[SimPoint]| -> (String, String) {
            match points.iter().find(|s| (s.k - a.k).abs() < 1e-9) {
                Some(s) => (format!("{:.6}", s.loss), format!("{:.6}", s.ci95)),
                None => (String::new(), String::new()),
            }
        };
        let (sc, scci) = sim(&result.sim_controlled);
        let (sf, sfci) = sim(&result.sim_fcfs);
        let (sl, slci) = sim(&result.sim_lcfs);
        rows.push(vec![
            format!("{:.1}", a.k),
            format!("{:.6}", a.loss),
            format!("{:.6}", f.loss),
            format!("{:.6}", l.loss),
            sc,
            scci,
            sf,
            sfci,
            sl,
            slci,
        ]);
    }
    let path = out_dir.join(format!("fig7_{}.csv", p.id()));
    write_csv(
        &path,
        &[
            "k_tau",
            "analytic_controlled",
            "analytic_fcfs",
            "analytic_lcfs",
            "sim_controlled",
            "sim_controlled_ci95",
            "sim_fcfs",
            "sim_fcfs_ci95",
            "sim_lcfs",
            "sim_lcfs_ci95",
        ],
        &rows,
    )
    .expect("writing CSV");

    let y_max = result
        .analytic_fcfs
        .iter()
        .map(|c| c.loss)
        .chain(result.sim_lcfs.iter().map(|s| s.loss))
        .fold(0.05, f64::max)
        .min(1.0);
    let series = vec![
        Series {
            label: "controlled (analytic)".into(),
            glyph: 'c',
            points: result
                .analytic_controlled
                .iter()
                .map(|c| (c.k, c.loss))
                .collect(),
        },
        Series {
            label: "controlled (sim)".into(),
            glyph: 'o',
            points: result
                .sim_controlled
                .iter()
                .map(|s| (s.k, s.loss))
                .collect(),
        },
        Series {
            label: "fcfs (analytic)".into(),
            glyph: 'f',
            points: result.analytic_fcfs.iter().map(|c| (c.k, c.loss)).collect(),
        },
        Series {
            label: "fcfs (sim)".into(),
            glyph: 'x',
            points: result.sim_fcfs.iter().map(|s| (s.k, s.loss)).collect(),
        },
        Series {
            label: "lcfs (analytic)".into(),
            glyph: 'l',
            points: result.analytic_lcfs.iter().map(|c| (c.k, c.loss)).collect(),
        },
        Series {
            label: "lcfs (sim)".into(),
            glyph: 'L',
            points: result.sim_lcfs.iter().map(|s| (s.k, s.loss)).collect(),
        },
    ];
    let title = format!(
        "Figure 7 panel rho' = {}, M = {} — p(loss) vs K (tau units)",
        p.rho_prime, p.m
    );
    println!("{}", ascii_plot(&title, &series, 72, 18, 0.0, y_max));

    // Shape checks (the claims the paper makes in prose).
    let mut agree = 0usize;
    for s in &result.sim_controlled {
        let a = result
            .analytic_controlled
            .iter()
            .find(|c| (c.k - s.k).abs() < 1e-9)
            .expect("sim K on analytic grid");
        if (a.loss - s.loss).abs() <= (3.0 * s.ci95).max(0.01) {
            agree += 1;
        }
    }
    println!(
        "  [check] analytic-vs-sim agreement (controlled): {agree}/{} points within max(3*CI, 0.01)",
        result.sim_controlled.len()
    );
    let mut agree_l = 0usize;
    for s in &result.sim_lcfs {
        let a = result
            .analytic_lcfs
            .iter()
            .find(|c| (c.k - s.k).abs() < 1e-9)
            .expect("sim K on analytic grid");
        if (a.loss - s.loss).abs() <= (4.0 * s.ci95).max(0.02) {
            agree_l += 1;
        }
    }
    println!(
        "  [check] analytic-vs-sim agreement (lcfs): {agree_l}/{} points within max(4*CI, 0.02)",
        result.sim_lcfs.len()
    );
    let mut wins_f = 0usize;
    let mut wins_l = 0usize;
    for (s, (f, l)) in result
        .sim_controlled
        .iter()
        .zip(result.sim_fcfs.iter().zip(&result.sim_lcfs))
    {
        if s.loss <= f.loss + 0.005 {
            wins_f += 1;
        }
        if s.loss <= l.loss + 0.005 {
            wins_l += 1;
        }
    }
    println!(
        "  [check] controlled <= FCFS at {wins_f}/{} simulated K, <= LCFS at {wins_l}/{}",
        result.sim_fcfs.len(),
        result.sim_lcfs.len()
    );
    println!("  [data]  {}", path.display());
    println!();
}

/// Runs the single tiny sample cell behind `--obs-cell`: panel
/// `rho50_m25`, controlled protocol, `K = 100`, scaled down far enough
/// that its full event stream is a readable, committable artifact. The
/// cell is fully deterministic (fixed seed, no wall-clock values), so the
/// outputs can be diff-checked in CI.
fn run_obs_cell(obs: &ObsConfig) -> i32 {
    let panel = PANELS[4]; // rho' = 0.75, M = 25: busy enough to collide
    let (kind, salt) = KINDS[0]; // controlled
    let k = 100.0;
    let seed = 42 ^ salt ^ (k as u64);
    let settings = SimSettings {
        ticks_per_tau: 8,
        messages: 12,
        warmup: 2,
        stations: 20,
        guard: false,
    };
    let id = panel.id();
    let label = format!("{id} {} K={k}", kind.label());
    let seed_str = format!("{seed}");
    let labels = [
        ("panel", id.as_str()),
        ("policy", kind.label()),
        ("k", "100"),
        ("seed", seed_str.as_str()),
    ];
    let spec = RunSpec::panel(panel, kind, k, settings, seed);
    let (p, art) = observed_cell(obs.capture(), 0, &label, &labels, &spec, None);
    if let Err(e) = write_observability(obs, &[art]) {
        diag::error("fig7", &e);
        return diag::EXIT_FAILURE;
    }
    println!(
        "obs-cell: {label} (seed {seed}) loss={:.6} offered={} -> {} + {}",
        p.point.loss,
        p.point.offered,
        obs.trace_events.as_ref().unwrap().display(),
        obs.metrics.as_ref().unwrap().display(),
    );
    0
}

fn main() {
    let cli = diag::parse("fig7", MODES);
    if cli.mode.flag == "--obs-cell" {
        std::process::exit(run_obs_cell(&cli.obs));
    }
    let settings = if cli.has("--quick") {
        SimSettings {
            messages: 5_000,
            warmup: 500,
            ..Default::default()
        }
    } else {
        SimSettings::default()
    };
    let out_dir = PathBuf::from("results");

    println!(
        "Reproducing Figure 7 ({} messages per simulated point; seed base 42)\n",
        settings.messages
    );
    let mut panels: Vec<Panel> = PANELS.into_iter().filter(|p| cli.has(&p.id())).collect();
    if panels.is_empty() {
        panels = PANELS.to_vec();
    }
    let (results, artifacts) = run_panels(&panels, settings, 42, &cli);
    for result in &results {
        emit(result, &out_dir);
    }
    if let Err(e) = write_observability(&cli.obs, &artifacts) {
        diag::error("fig7", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
}
