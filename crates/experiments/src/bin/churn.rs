//! Station-churn resilience sweep and deterministic failure replay.
//!
//! Default mode sweeps crash rate × offered load for the controlled
//! protocol, comparing loss and recovery counters against the
//! churn-free baseline of the same seed, then exercises the
//! membership showcase: late joiners, scheduled leavers and a
//! listener outage tracked by the per-station divergence detector.
//! Results land in `results/churn.csv` and `results/churn.txt`.
//!
//! Every run executes under a panic guard: a panic, a tripped
//! invariant, or a detected divergence writes a replay artifact under
//! `results/failures/` containing the seed, the fault plan and the
//! churn plan. Re-running with
//!
//! ```text
//! cargo run --release -p tcw-experiments --bin churn -- --replay <artifact>
//! ```
//!
//! re-executes the identical timeline and must reproduce the identical
//! failure (the binary exits non-zero if it does not).

use std::path::Path;
use tcw_experiments::diag::{self, Mode, JOBS, REPLAY, SUPERVISION, TELEMETRY};
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::replay::{execute, Artifact};
use tcw_experiments::runner::{fingerprint, CellResult, PolicyKind, RunSpec, SimSettings};
use tcw_experiments::supervise::supervised_cells;
use tcw_experiments::{observed_cell, write_observability, CellArtifacts, Failure, Panel};
use tcw_mac::ChurnPlan;

const CRASH_RATES: [f64; 5] = [0.0, 0.0005, 0.001, 0.002, 0.005];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const M: u64 = 25;
const K_TAU: f64 = 100.0;
const SEED: u64 = 1983;
const DOWN_SLOTS: u64 = 40;
const CATCH_UP_SLOTS: u64 = 100;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

fn sweep_plan(crash: f64) -> ChurnPlan {
    if crash == 0.0 {
        ChurnPlan::none()
    } else {
        ChurnPlan {
            crash,
            down_slots: DOWN_SLOTS,
            catch_up_slots: CATCH_UP_SLOTS,
            ..ChurnPlan::none()
        }
    }
}

/// The clean run at load `rho_prime`; the sweep varies its churn plan.
fn spec_at(rho_prime: f64) -> RunSpec {
    let panel = Panel { rho_prime, m: M };
    RunSpec::panel(panel, PolicyKind::Controlled, K_TAU, settings(), SEED)
}

const MODES: &[Mode] = &[Mode::run(&[TELEMETRY, SUPERVISION, JOBS]), REPLAY];

fn main() {
    let cli = diag::parse("churn", MODES);

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    let mut report = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut series: Vec<Series> = Vec::new();
    let glyphs = ['o', '+', 'x'];

    println!("station-churn sweep: controlled protocol, M={M}, K={K_TAU} tau, down={DOWN_SLOTS} slots, catch-up={CATCH_UP_SLOTS} slots\n");

    // One supervised sweep over the whole load × crash-rate grid. A cell
    // that keeps panicking is quarantined, and its replay artifact is
    // written from the quarantine report.
    let cells: Vec<(f64, RunSpec)> = LOADS
        .iter()
        .flat_map(|&rho| {
            CRASH_RATES.iter().map(move |&c| {
                let spec = RunSpec {
                    churn: sweep_plan(c),
                    ..spec_at(rho)
                };
                (rho, spec)
            })
        })
        .collect();
    let caps = cli.obs.capture();
    let (outcomes, cell_artifacts): (Vec<CellResult>, Vec<CellArtifacts>) = supervised_cells(
        &cli,
        &cells,
        fingerprint(cells.iter().map(|(_, spec)| spec)),
        |(rho, spec), q| {
            let c = spec.churn.crash;
            let desc = format!("rho'={rho:.2} crash={c:.4} seed {SEED}");
            let Failure::Panic(message) = &q.failure else {
                return desc;
            };
            let path = failures_dir.join(format!(
                "failure_panic_seed{}_rho{:02}_c{:04}.json",
                spec.seed,
                (rho * 100.0) as u32,
                (c * 10_000.0).round() as u32
            ));
            Artifact::unmutated("churn", spec.clone(), "panic".to_string(), message.clone())
                .save(&path)
                .expect("write replay artifact");
            format!(
                "{desc}; replay artifact written to {}, reproduce: cargo run --release -p tcw-experiments --bin churn -- --replay {}",
                path.display(),
                path.display()
            )
        },
        move |i, (rho, spec), progress| {
            let c = spec.churn.crash;
            let label = format!("rho={rho:.2} crash={c:.4}");
            let rho_s = format!("{rho}");
            let c_s = format!("{c}");
            let labels = [("rho", rho_s.as_str()), ("crash_rate", c_s.as_str())];
            observed_cell(caps, i, &label, &labels, spec, progress)
        },
    )
    .into_iter()
    .unzip();

    let mut outcome_iter = outcomes.into_iter();
    for (li, &rho) in LOADS.iter().enumerate() {
        let mut points = Vec::new();
        let mut baseline_loss = 0.0;
        for &c in &CRASH_RATES {
            let csp = outcome_iter.next().expect("one outcome per cell");
            if c == 0.0 {
                baseline_loss = csp.point.loss;
            }
            let line = format!(
                "rho'={rho:.2} crash={c:.4}: loss={:.4} (baseline {:.4}) util={:.3} crashes={} restarts={} blocked={} churn_losses={} reopened={} rejoin_mean={:.1} rejoin_max={:.0}",
                csp.point.loss,
                baseline_loss,
                csp.point.utilization,
                csp.churn.crashes,
                csp.churn.restarts,
                csp.churn.blocked,
                csp.churn.losses,
                csp.churn.reopened,
                if csp.churn.rejoin_mean_slots.is_nan() { 0.0 } else { csp.churn.rejoin_mean_slots },
                csp.churn.rejoin_max_slots,
            );
            println!("  {line}");
            report.push_str(&line);
            report.push('\n');
            rows.push(vec![
                format!("{rho}"),
                format!("{c}"),
                format!("{}", csp.point.loss),
                format!("{baseline_loss}"),
                format!("{}", csp.point.utilization),
                format!("{}", csp.churn.crashes),
                format!("{}", csp.churn.restarts),
                format!("{}", csp.churn.blocked),
                format!("{}", csp.churn.losses),
                format!("{}", csp.churn.reopened),
                format!(
                    "{}",
                    if csp.churn.rejoin_mean_slots.is_nan() {
                        0.0
                    } else {
                        csp.churn.rejoin_mean_slots
                    }
                ),
                format!("{}", csp.churn.rejoin_max_slots),
                format!("{}", csp.point.ci95),
            ]);
            points.push((c, csp.point.loss));
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
        "loss vs crash rate (controlled, M=25, K=100 tau)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("{chart}");
    report.push('\n');
    report.push_str(&chart);

    // Membership showcase: a fifth of the stations join late, a tenth
    // leave for good, and listening station 0 suffers a hard outage —
    // the detector must catch the missed span as exactly one divergence,
    // repair it at the next beacon, and the whole episode must be
    // replayable from the artifact.
    println!("\nmembership showcase (late join + leave + listener outage):\n");
    let showcase = ChurnPlan {
        late_join_frac: 0.2,
        join_slot: 2_000,
        leave_frac: 0.1,
        leave_slot: 20_000,
        catch_up_slots: CATCH_UP_SLOTS,
        outage_start_slot: 5_000,
        outage_slots: 64,
        ..ChurnPlan::none()
    };
    let spec = RunSpec {
        churn: showcase,
        ..spec_at(0.50)
    };
    let (kind, detail) = execute(&spec);
    if kind == "ok" {
        let line = format!("  station 0 never diverged ({detail})");
        println!("{line}");
        report.push_str(&line);
    } else {
        let path = failures_dir.join(format!("failure_churn_{}_seed{}.json", kind, spec.seed));
        let failed = Artifact::unmutated("churn", spec.clone(), kind, detail);
        failed.save(&path).expect("write replay artifact");
        let line = format!(
            "  [{}] {}\n  replay artifact: {}\n  reproduce: cargo run --release -p tcw-experiments --bin churn -- --replay {}",
            failed.kind,
            failed.detail,
            path.display(),
            path.display()
        );
        println!("{line}");
        report.push_str(&line);
    }
    report.push('\n');

    write_csv(
        &results.join("churn.csv"),
        &[
            "rho_prime",
            "crash_rate",
            "loss",
            "baseline_loss",
            "utilization",
            "crashes",
            "restarts",
            "blocked",
            "churn_losses",
            "reopened",
            "rejoin_mean_slots",
            "rejoin_max_slots",
            "loss_ci95",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("churn.txt"), &report).expect("write report");
    if let Err(e) = write_observability(&cli.obs, &cell_artifacts) {
        diag::error("churn", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nwrote results/churn.csv and results/churn.txt");
}
