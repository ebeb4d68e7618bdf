//! Adaptive window control under non-stationary and adversarial load.
//!
//! Sweeps four workloads (10x load step, flash crowds, packetized
//! voice, bounded-burst adversarial injection) against four
//! element-(2) choices (stale static tuning, per-segment oracle, AIMD,
//! online rate estimator), reporting deadline loss and regret vs the
//! oracle per cell. Results land in `results/adaptive.csv` and
//! `results/adaptive.txt`.
//!
//! Every cell runs under a panic guard; a panic writes a replay
//! artifact under `results/failures/`. Modes:
//!
//! ```text
//! adaptive [--jobs N] [--trace-events P] [--spans P] [--metrics P] [--progress]
//!          [--resume P] [--cell-timeout SECS] [--retries N]
//! adaptive --episode                      # AIMD/estimator load-step walk-through
//! adaptive --record SCENARIO CONTROLLER REPLICATE PATH
//! adaptive --replay PATH                  # must reproduce the recorded outcome
//! ```

use std::path::Path;
use tcw_experiments::adaptive::{episode, ControllerKind, Scenario, BASE_SEED, REPLICATES};
use tcw_experiments::diag::{self, Mode, JOBS, REPLAY, SUPERVISION, TELEMETRY};
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::replay::{execute, Artifact};
use tcw_experiments::runner::{fingerprint, CellResult, RunSpec};
use tcw_experiments::supervise::supervised_cells;
use tcw_experiments::{observed_cell, write_observability, CellArtifacts, Failure};
use tcw_sim::rng::stream_seed;

const MODES: &[Mode] = &[
    Mode::run(&[TELEMETRY, SUPERVISION, JOBS]),
    REPLAY,
    Mode::select("--record", "SCENARIO CONTROLLER REPLICATE PATH"),
    Mode::select("--episode", ""),
];

/// Load-step instants at which `--episode` samples the commanded window
/// (the step itself is at 150_000).
const EPISODE_CHECKPOINTS: [u64; 11] = [
    0, 50_000, 100_000, 149_999, 152_000, 155_000, 160_000, 170_000, 200_000, 250_000, 290_000,
];

fn episode_mode() -> i32 {
    println!(
        "load-step episode: rate 0.003 -> 0.03 msgs/tick at t=150000, stale window {} ticks\n",
        Scenario::Step.stale_window()
    );
    for kind in [ControllerKind::Aimd, ControllerKind::Estimator] {
        let (samples, shrinks, grows) = episode(kind, &EPISODE_CHECKPOINTS);
        println!("{} commanded window (ticks) by instant:", kind.label());
        println!("  {:>8}  {:>8}", "tick", "window");
        for s in &samples {
            println!("  {:>8}  {:>8}", s.tick, s.window);
        }
        println!("  shrinks={shrinks} grows={grows}\n");
    }
    0
}

fn record_mode(args: &[String]) -> i32 {
    let [scenario, controller, replicate, path] = args else {
        unreachable!("the grammar gives --record four operands");
    };
    let Some(scenario) = Scenario::parse(scenario) else {
        diag::error("adaptive", &format!("unknown scenario {scenario:?}"));
        return diag::EXIT_USAGE;
    };
    let Some(controller) = ControllerKind::parse(controller) else {
        diag::error("adaptive", &format!("unknown controller {controller:?}"));
        return diag::EXIT_USAGE;
    };
    let Ok(replicate) = replicate.parse::<u64>() else {
        diag::error("adaptive", &format!("bad replicate index {replicate:?}"));
        return diag::EXIT_USAGE;
    };
    let spec = RunSpec::adaptive(scenario, controller, replicate);
    let (kind, detail) = execute(&spec);
    let rec = Artifact::unmutated("adaptive", spec, kind, detail);
    if let Err(e) = rec.save(Path::new(path)) {
        diag::error("adaptive", &format!("cannot write {path}: {e}"));
        return diag::EXIT_FAILURE;
    }
    println!("recorded [{}] {} -> {}", rec.kind, rec.detail, path);
    0
}

fn main() {
    let cli = diag::parse("adaptive", MODES);
    match cli.mode.flag {
        "--record" => std::process::exit(record_mode(&cli.operands)),
        "--episode" => std::process::exit(episode_mode()),
        _ => {}
    }

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    let mut report = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    println!(
        "adaptive window sweep: {} scenarios x {} controllers x {} replicates, K={} ticks\n",
        Scenario::ALL.len(),
        ControllerKind::ALL.len(),
        REPLICATES,
        tcw_experiments::adaptive::K_TICKS,
    );

    let cells: Vec<(Scenario, ControllerKind, u64, RunSpec)> = Scenario::ALL
        .iter()
        .flat_map(|&s| {
            ControllerKind::ALL.iter().flat_map(move |&c| {
                (0..REPLICATES).map(move |r| (s, c, r, RunSpec::adaptive(s, c, r)))
            })
        })
        .collect();
    let fingerprint = fingerprint(cells.iter().map(|cell| &cell.3));
    let caps = cli.obs.capture();
    // A cell that keeps panicking is quarantined, and its replay artifact
    // is written from the quarantine report.
    let (resolved, cell_artifacts): (Vec<CellResult>, Vec<CellArtifacts>) = supervised_cells(
        &cli,
        &cells,
        fingerprint,
        |(s, c, r, spec), q| {
            let cell = format!("{} {} rep{r} seed {}", s.label(), c.label(), spec.seed);
            let Failure::Panic(message) = &q.failure else {
                return cell;
            };
            let path = failures_dir.join(format!(
                "adaptive_panic_{}_{}_rep{r}.json",
                s.label(),
                c.label()
            ));
            Artifact::unmutated("adaptive", spec.clone(), "panic".to_string(), message.clone())
                .save(&path)
                .expect("write replay artifact");
            format!(
                "{cell}; replay artifact written to {}, reproduce: cargo run --release -p tcw-experiments --bin adaptive -- --replay {}",
                path.display(),
                path.display()
            )
        },
        move |i, (s, c, r, spec), progress| {
            let label = format!("{} {} rep{r}", s.label(), c.label());
            let r_s = format!("{r}");
            let labels = [
                ("scenario", s.label()),
                ("controller", c.label()),
                ("replicate", r_s.as_str()),
            ];
            observed_cell(caps, i, &label, &labels, spec, progress)
        },
    )
    .into_iter()
    .unzip();

    // Oracle loss per (scenario, replicate) — the regret baseline.
    let oracle_loss = |scenario: Scenario, replicate: u64| -> f64 {
        cells
            .iter()
            .zip(&resolved)
            .find(|(&(s, c, r, _), _)| {
                s == scenario && c == ControllerKind::Oracle && r == replicate
            })
            .expect("oracle cell present")
            .1
            .point
            .loss
    };

    let glyphs = ['o', '+', 'x', '*'];
    let mut series: Vec<Series> = ControllerKind::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| Series {
            label: c.label().to_string(),
            glyph: glyphs[i % glyphs.len()],
            points: Vec::new(),
        })
        .collect();

    for (si, &scenario) in Scenario::ALL.iter().enumerate() {
        println!(
            "{} (stale window {} ticks):",
            scenario.label(),
            scenario.stale_window()
        );
        for (ci, &kind) in ControllerKind::ALL.iter().enumerate() {
            let mut mean_loss = 0.0;
            for r in 0..REPLICATES {
                let idx = cells
                    .iter()
                    .position(|&(s, c, rep, _)| (s, c, rep) == (scenario, kind, r))
                    .expect("cell present");
                let (out, ctl) = (resolved[idx].point, resolved[idx].controller);
                let oracle = oracle_loss(scenario, r);
                let regret = out.loss - oracle;
                mean_loss += out.loss / REPLICATES as f64;
                let line = format!(
                    "  {:<9} rep{r}: loss={:.4} oracle={:.4} regret={:+.4} offered={} window={} shrinks={} grows={}",
                    kind.label(),
                    out.loss,
                    oracle,
                    regret,
                    out.offered,
                    ctl.window_ticks,
                    ctl.shrinks,
                    ctl.grows,
                );
                println!("{line}");
                report.push_str(&line);
                report.push('\n');
                rows.push(vec![
                    scenario.label().to_string(),
                    kind.label().to_string(),
                    format!("{r}"),
                    format!("{}", stream_seed(BASE_SEED, r)),
                    format!("{}", out.offered),
                    format!("{}", out.loss),
                    format!("{oracle}"),
                    format!("{regret}"),
                    format!("{}", ctl.window_ticks),
                    format!("{}", ctl.shrinks),
                    format!("{}", ctl.grows),
                ]);
            }
            series[ci].points.push((si as f64, mean_loss));
        }
        println!();
    }

    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-3)
        * 1.2;
    let chart = ascii_plot(
        "deadline loss by scenario (0=step 1=flash 2=voice 3=adversarial)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("{chart}");
    report.push('\n');
    report.push_str(&chart);
    report.push('\n');

    write_csv(
        &results.join("adaptive.csv"),
        &[
            "scenario",
            "controller",
            "replicate",
            "seed",
            "offered",
            "loss",
            "oracle_loss",
            "regret",
            "window_ticks",
            "shrinks",
            "grows",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("adaptive.txt"), &report).expect("write report");
    if let Err(e) = write_observability(&cli.obs, &cell_artifacts) {
        diag::error("adaptive", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nwrote results/adaptive.csv and results/adaptive.txt");
}
