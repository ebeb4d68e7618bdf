//! Chaos harness: composed stress sweeps under the invariant monitor.
//!
//! Samples thousands of seeded configs composing fault injection,
//! membership churn, piecewise/adversarial load and all three window
//! controllers, runs each under the `tcw-window` runtime invariant
//! monitor (with the mirror divergence detector as a differential check
//! where it is sound), and delta-debugs any failure down to a minimal
//! version-stamped replay artifact. Results land in `results/chaos.csv`
//! and `results/chaos.txt`; failure artifacts under `results/failures/`.
//!
//! ```text
//! chaos [--configs N] [--jobs N] [--trace-events P] [--metrics P] [--progress]
//! chaos --replay PATH             # must reproduce the recorded outcome
//! chaos --inject MUTATION [PATH]  # seed a violation, shrink it, verify replay
//! ```
//!
//! Every sweep runs supervised: a panicking cell is retried, then
//! quarantined (`--retries N`, default 2), `--cell-timeout SECS` adds a
//! watchdog and `--resume PATH` a journal of completed cells.
//! `--inject-panic CELL` and `--inject-slow CELL` (which needs
//! `--cell-timeout`) exist to exercise exactly that machinery from CI.
//!
//! `MUTATION` is one of `drop_delivery`, `reorder_pair`, `stale_clock`.
//! Exit codes follow the shared convention: `0` clean, `1` usage,
//! `2` failure (violation found, replay diverged, artifact stale,
//! quarantined cells).

use std::path::Path;
use tcw_experiments::chaos::{
    execute, execute_observed, inject_config, replay, shrink, ChaosConfig, ChaosOutcome,
    ChaosRecord, Mutation, BASE_SEED, DEFAULT_CONFIGS,
};
use tcw_experiments::diag;
use tcw_experiments::plot::write_csv;
use tcw_experiments::supervise::{supervised_cells, SupervisorOptions};
use tcw_experiments::sweep::jobs_from_args;
use tcw_experiments::{
    observe_engine_cell, write_observability, CellArtifacts, ObsConfig, SweepMeta,
};

fn shrink_report(orig: &ChaosConfig, out: &ChaosOutcome) -> (ChaosRecord, String) {
    let mut log = String::new();
    log.push_str(&format!(
        "shrinking [{}/{}] seed={} ({} trials max)\n",
        out.kind,
        out.class,
        orig.seed,
        tcw_experiments::chaos::SHRINK_BUDGET
    ));
    let res = shrink(orig, &out.kind, &out.class);
    for step in &res.steps {
        log.push_str(&format!(
            "  {} {}\n",
            if step.kept { "KEEP" } else { "drop" },
            step.action
        ));
    }
    let min_out = execute(&res.config);
    log.push_str(&format!(
        "  fixpoint after {} trials: horizon={} stations={} segments={} controller={} -> [{}/{}] {}\n",
        res.trials,
        res.config.horizon_ticks,
        res.config.stations,
        res.config.segments.len(),
        res.config.controller.label(),
        min_out.kind,
        min_out.class,
        min_out.detail,
    ));
    let rec = ChaosRecord {
        config: res.config,
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
    let cfg = inject_config(mutation);
    println!(
        "injecting {} into a clean static-controller run (seed {})",
        mutation.label(),
        cfg.seed
    );
    let out = execute(&cfg);
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
    let (rec, log) = shrink_report(&cfg, &out);
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
    let code = replay(path);
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

/// Parses `NAME CELL` out of `args`, removing both tokens.
fn take_cell_flag(args: &mut Vec<String>, name: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == name)?;
    let Some(v) = args.get(i + 1) else {
        diag::error("chaos", &format!("{name} needs a cell index"));
        std::process::exit(diag::EXIT_USAGE);
    };
    let cell = v.parse::<usize>().unwrap_or_else(|_| {
        diag::error("chaos", &format!("bad {name} value {v:?}"));
        std::process::exit(diag::EXIT_USAGE);
    });
    args.drain(i..=i + 1);
    Some(cell)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs, args) = diag::or_usage("chaos", ObsConfig::split_args(&raw));
    let (sup, mut args) = diag::or_usage(
        "chaos",
        SupervisorOptions::split_args(&args, obs.wants_telemetry()),
    );
    let inject_panic = take_cell_flag(&mut args, "--inject-panic");
    let inject_slow = take_cell_flag(&mut args, "--inject-slow");
    if inject_slow.is_some() && sup.cell_timeout.is_none() {
        diag::error(
            "chaos",
            "--inject-slow needs --cell-timeout (the injected cell sleeps for an hour)",
        );
        std::process::exit(diag::EXIT_USAGE);
    }
    if args.first().is_some_and(|a| a == "--replay") {
        let Some(path) = args.get(1) else {
            diag::error("chaos", "--replay needs an artifact path");
            std::process::exit(diag::EXIT_USAGE);
        };
        std::process::exit(replay(Path::new(path)));
    }
    if args.first().is_some_and(|a| a == "--inject") {
        std::process::exit(inject_mode(&args[1..]));
    }
    let jobs = jobs_from_args("chaos", &args);
    let configs = args
        .iter()
        .position(|a| a == "--configs")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                diag::error("chaos", &format!("bad --configs value {v:?}"));
                std::process::exit(diag::EXIT_USAGE);
            })
        })
        .unwrap_or(DEFAULT_CONFIGS);

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    println!(
        "chaos sweep: {configs} composed configs (faults x churn x load x controllers), \
         invariant monitor on, base seed {BASE_SEED:#x}\n"
    );

    let cells: Vec<ChaosConfig> = (0..configs as u64)
        .map(|index| ChaosConfig::sample(BASE_SEED, index))
        .collect();
    // The fingerprint covers every field of every sampled config; the
    // inject flags are deliberately excluded so a clean resume can reuse
    // the journal of an injected (crashed) run.
    let fingerprint = ChaosConfig::fingerprint(&cells);
    let caps = obs.capture();
    let (outcomes, cell_artifacts): (Vec<ChaosOutcome>, Vec<CellArtifacts>) = supervised_cells(
        "chaos",
        &cells,
        jobs,
        &sup,
        obs.progress,
        fingerprint,
        |cfg, _| format!("seed {}", cfg.seed),
        move |i, cfg, _| {
            if inject_panic == Some(i) {
                panic!("injected panic in cell {i}");
            }
            if inject_slow == Some(i) {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            let label = format!("config {i} ({})", cfg.controller.label());
            let idx_s = format!("{i}");
            let labels = [
                ("config", idx_s.as_str()),
                ("controller", cfg.controller.label()),
            ];
            observe_engine_cell(caps, i, &label, &labels, |obs, sink| {
                execute_observed(cfg, obs, sink)
            })
        },
    )
    .into_iter()
    .unzip();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::new();
    let mut failures: Vec<(u64, ChaosConfig, ChaosOutcome)> = Vec::new();
    let mut kind_counts = [0u64; 4];
    for (i, (cfg, out)) in cells.iter().zip(&outcomes).enumerate() {
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
            format!("{}", cfg.seed),
            cfg.controller.label().to_string(),
            format!("{}", cfg.stations),
            format!("{}", cfg.horizon_ticks),
            format!("{}", u8::from(!cfg.plan.is_none())),
            format!("{}", u8::from(cfg.churn != tcw_mac::ChurnPlan::none())),
            format!("{}", cfg.segments.len()),
            format!("{}", u8::from(cfg.adv_burst > 0)),
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
            failures.push((index, cfg.clone(), out.clone()));
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
    for (index, cfg, out) in &failures {
        let (rec, log) = shrink_report(cfg, out);
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
    if let Err(e) = write_observability(
        &obs,
        &cell_artifacts,
        SweepMeta {
            cells: cell_artifacts.len(),
        },
    ) {
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
