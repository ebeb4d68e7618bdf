//! Chaos harness: composed stress sweeps under the invariant monitor.
//!
//! Samples thousands of seeded configs composing fault injection,
//! membership churn, piecewise/adversarial load and all three window
//! controllers, runs each under the `tcw-window` runtime invariant
//! monitor (with the mirror divergence detector as a differential check
//! where it is sound), and delta-debugs any failure down to a minimal
//! replay artifact (the run's record plus its outcome). Results land in
//! `results/chaos.csv` and `results/chaos.txt`; failure artifacts under
//! `results/failures/`.
//!
//! ```text
//! chaos [--configs N] [--jobs N] [--trace-events P] [--spans P] [--metrics P] [--progress]
//!       [--resume P] [--cell-timeout SECS] [--retries N]
//!       [--inject-panic CELL] [--inject-slow CELL]   # N <= 100000, CELL < N
//! chaos --replay PATH             # must reproduce the recorded outcome
//! chaos --inject MUTATION [PATH]  # seed a violation, shrink it, verify replay
//! ```
//!
//! Every sweep runs supervised: a panicking cell is retried, then
//! quarantined (`--retries N`, default 2), `--cell-timeout SECS` adds a
//! watchdog and `--resume PATH` a journal of completed cells.
//! `--inject-panic CELL` and `--inject-slow CELL` (which needs
//! `--cell-timeout`) exist to exercise exactly that machinery from CI.
//! A `CELL` outside the grid, or `N` above `MAX_CONFIGS` (the whole grid
//! is built before the sweep), is a usage error.
//!
//! `MUTATION` is one of `drop_delivery`, `reorder_pair`, `stale_clock`.
//! Exit codes follow the shared convention: `0` clean, `1` usage,
//! `2` failure (violation found, replay diverged, artifact stale,
//! quarantined cells).

use std::path::Path;
use tcw_experiments::chaos::{
    execute, execute_observed, shrink, ChaosOutcome, Mutation, BASE_SEED, DEFAULT_CONFIGS,
    MAX_CONFIGS,
};
use tcw_experiments::diag::{self, Arg, Mode, JOBS, REPLAY, SUPERVISION, TELEMETRY};
use tcw_experiments::plot::write_csv;
use tcw_experiments::replay::{replay, Artifact};
use tcw_experiments::runner::{fingerprint, RunSpec};
use tcw_experiments::supervise::supervised_cells;
use tcw_experiments::{observe_engine_cell, write_observability, CellArtifacts};

/// The injected cell of `--inject-slow` sleeps for an hour, so it needs
/// the watchdog.
const MODES: &[Mode] = &[
    Mode {
        needs: &[("--inject-slow", "--cell-timeout")],
        ..Mode::run(&[
            TELEMETRY,
            SUPERVISION,
            JOBS,
            &[
                Arg::Count("--configs"),
                Arg::Count("--inject-panic"),
                Arg::Count("--inject-slow"),
            ],
        ])
    },
    REPLAY,
    Mode::select("--inject", "MUTATION [PATH]"),
];

fn shrink_report(orig: &RunSpec, mutation: Mutation, out: &ChaosOutcome) -> (Artifact, String) {
    let mut log = String::new();
    log.push_str(&format!(
        "shrinking [{}/{}] seed={} ({} trials max)\n",
        out.kind,
        out.class,
        orig.seed,
        tcw_experiments::chaos::SHRINK_BUDGET
    ));
    let res = shrink(orig, mutation, &out.kind, &out.class);
    for step in &res.steps {
        log.push_str(&format!(
            "  {} {}\n",
            if step.kept { "KEEP" } else { "drop" },
            step.action
        ));
    }
    let min_out = execute(&res.spec, mutation);
    log.push_str(&format!(
        "  fixpoint after {} trials: horizon={} stations={} segments={} controller={} -> [{}/{}] {}\n",
        res.trials,
        res.spec.horizon_ticks,
        res.spec.stations,
        res.spec.load.segments().len(),
        res.spec.controller.label(),
        min_out.kind,
        min_out.class,
        min_out.detail,
    ));
    let rec = Artifact {
        experiment: "chaos".to_string(),
        spec: res.spec,
        mutation,
        kind: min_out.kind,
        class: min_out.class,
        detail: min_out.detail,
    };
    (rec, log)
}

fn inject_mode(args: &[String]) -> i32 {
    let Some(mutation) = args.first().and_then(|s| Mutation::parse(s)) else {
        diag::error(
            "chaos",
            "--inject needs a mutation: drop_delivery | reorder_pair | stale_clock",
        );
        return diag::EXIT_USAGE;
    };
    let Some(expected) = mutation.expected_class() else {
        diag::error(
            "chaos",
            "--inject none is a no-op; pick a corrupting mutation",
        );
        return diag::EXIT_USAGE;
    };
    let default_path = format!("results/failures/chaos_injected_{}.json", mutation.label());
    let path = args.get(1).cloned().unwrap_or(default_path);
    let spec = RunSpec::chaos_inject();
    println!(
        "injecting {} into a clean static-controller run (seed {})",
        mutation.label(),
        spec.seed
    );
    let out = execute(&spec, mutation);
    if out.kind != "violation" || out.class != expected {
        diag::error(
            "chaos",
            &format!(
                "seeded mutation was NOT caught: expected violation/{expected}, got [{}/{}] {}",
                out.kind, out.class, out.detail
            ),
        );
        return diag::EXIT_FAILURE;
    }
    println!(
        "monitor caught it: [{}/{}] {}",
        out.kind, out.class, out.detail
    );
    let (rec, log) = shrink_report(&spec, mutation, &out);
    print!("{log}");
    if rec.kind != "violation" || rec.class != expected {
        diag::error(
            "chaos",
            "shrunk config no longer reproduces the violation class",
        );
        return diag::EXIT_FAILURE;
    }
    let path = Path::new(&path);
    if let Err(e) = rec.save(path) {
        diag::error("chaos", &format!("cannot write {}: {e}", path.display()));
        return diag::EXIT_FAILURE;
    }
    println!("minimal artifact written to {}", path.display());
    // Verify the artifact replays before handing it to CI: a faithful
    // reproduction of a violation exits EXIT_FAILURE by convention.
    let code = replay(path, "chaos");
    if code != diag::EXIT_FAILURE {
        diag::error(
            "chaos",
            &format!("replay of the minimal artifact exited {code}, want EXIT_FAILURE"),
        );
        return diag::EXIT_FAILURE;
    }
    println!("replay verified (exit {code} on reproduced violation, as specified)");
    0
}

fn main() {
    let cli = diag::parse("chaos", MODES);
    if cli.mode.flag == "--inject" {
        std::process::exit(inject_mode(&cli.operands));
    }
    let configs = cli.count("--configs").unwrap_or(DEFAULT_CONFIGS);
    let inject_panic = cli.count("--inject-panic");
    let inject_slow = cli.count("--inject-slow");
    let usage = |msg: String| {
        diag::error("chaos", &msg);
        std::process::exit(diag::EXIT_USAGE)
    };
    if configs > MAX_CONFIGS {
        usage(format!(
            "--configs {configs} is above the maximum {MAX_CONFIGS}"
        ));
    }
    for (flag, cell) in [
        ("--inject-panic", inject_panic),
        ("--inject-slow", inject_slow),
    ] {
        if let Some(cell) = cell.filter(|&cell| cell >= configs) {
            usage(format!(
                "{flag} {cell} is not a cell of the {configs} configs"
            ));
        }
    }

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    println!(
        "chaos sweep: {configs} composed configs (faults x churn x load x controllers), \
         invariant monitor on, base seed {BASE_SEED:#x}\n"
    );

    let cells: Vec<RunSpec> = (0..configs as u64)
        .map(|index| RunSpec::chaos_sample(BASE_SEED, index))
        .collect();
    // The fingerprint covers every field of every sampled spec; the
    // inject flags are deliberately excluded so a clean resume can reuse
    // the journal of an injected (crashed) run.
    let fingerprint = fingerprint(&cells);
    let caps = cli.obs.capture();
    let (outcomes, cell_artifacts): (Vec<ChaosOutcome>, Vec<CellArtifacts>) = supervised_cells(
        &cli,
        &cells,
        fingerprint,
        |spec, _| format!("seed {}", spec.seed),
        move |i, spec, _| {
            if inject_panic == Some(i) {
                panic!("injected panic in cell {i}");
            }
            if inject_slow == Some(i) {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            let label = format!("config {i} ({})", spec.controller.label());
            let idx_s = format!("{i}");
            let labels = [
                ("config", idx_s.as_str()),
                ("controller", spec.controller.label()),
            ];
            observe_engine_cell(caps, i, &label, &labels, |obs, sink| {
                execute_observed(spec, Mutation::None, obs, sink)
            })
        },
    )
    .into_iter()
    .unzip();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::new();
    let mut failures: Vec<(u64, RunSpec, ChaosOutcome)> = Vec::new();
    let mut kind_counts = [0u64; 4];
    for (i, (spec, out)) in cells.iter().zip(&outcomes).enumerate() {
        let index = i as u64;
        let kind_idx = match out.kind.as_str() {
            "ok" => 0,
            "violation" => 1,
            "divergence" => 2,
            _ => 3,
        };
        kind_counts[kind_idx] += 1;
        rows.push(vec![
            format!("{index}"),
            format!("{}", spec.seed),
            spec.controller.label().to_string(),
            format!("{}", spec.stations),
            format!("{}", spec.horizon_ticks),
            format!("{}", u8::from(!spec.faults.is_none())),
            format!("{}", u8::from(spec.churn != tcw_mac::ChurnPlan::none())),
            format!("{}", spec.load.segments().len()),
            format!("{}", u8::from(spec.adv_burst > 0)),
            out.kind.clone(),
            out.class.clone(),
            format!("{}", out.checks),
            format!("{}", out.violations),
            format!("{}", out.divergences),
            format!("{}", out.offered),
            format!("{}", out.deliveries),
            format!("{}", out.loss),
        ]);
        if out.kind != "ok" {
            failures.push((index, spec.clone(), out.clone()));
        }
    }

    let summary = format!(
        "configs={} ok={} violations={} divergences={} panics={}\n",
        configs, kind_counts[0], kind_counts[1], kind_counts[2], kind_counts[3]
    );
    println!("{summary}");
    report.push_str(&summary);
    let total_checks: u64 = outcomes.iter().map(|o| o.checks).sum();
    let total_deliveries: u64 = outcomes.iter().map(|o| o.deliveries).sum();
    let detail = format!(
        "monitor checks={total_checks} deliveries={total_deliveries} (base seed {BASE_SEED:#x})\n"
    );
    print!("{detail}");
    report.push_str(&detail);

    // Shrink failures serially in index order so artifacts and the
    // report are deterministic regardless of --jobs.
    for (index, spec, out) in &failures {
        let (rec, log) = shrink_report(spec, Mutation::None, out);
        print!("{log}");
        report.push_str(&log);
        let path = failures_dir.join(format!("chaos_{index}_{}.json", out.kind));
        rec.save(&path).expect("write replay artifact");
        let line = format!(
            "  artifact: {}\n  reproduce: cargo run --release -p tcw-experiments --bin chaos -- --replay {}\n",
            path.display(),
            path.display()
        );
        print!("{line}");
        report.push_str(&line);
    }

    write_csv(
        &results.join("chaos.csv"),
        &[
            "config",
            "seed",
            "controller",
            "stations",
            "horizon_ticks",
            "faults",
            "churn",
            "segments",
            "adversary",
            "kind",
            "class",
            "checks",
            "violations",
            "divergences",
            "offered",
            "deliveries",
            "loss",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("chaos.txt"), &report).expect("write report");
    if let Err(e) = write_observability(&cli.obs, &cell_artifacts) {
        diag::error("chaos", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("wrote results/chaos.csv and results/chaos.txt");
    if !failures.is_empty() {
        diag::error(
            "chaos",
            &format!("{} config(s) failed invariants", failures.len()),
        );
        std::process::exit(diag::EXIT_FAILURE);
    }
}
