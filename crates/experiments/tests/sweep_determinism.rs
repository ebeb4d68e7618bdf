//! Determinism contract of the parallel sweep executor: a sweep run with
//! `--jobs 4` must produce **byte-identical** CSV output to the serial
//! `--jobs 1` run. The executor reassembles results in cell order, and
//! every cell carries its own seed, so worker count and scheduling must
//! be unobservable in the output.
//!
//! The same contract extends to the observability layer: turning on
//! event tracing and metrics capture must not perturb the simulated
//! results (observers are passive — they never touch an RNG stream),
//! and the exported artifacts themselves must be byte-identical for any
//! `--jobs N` (per-cell telemetry is reassembled in cell order).

use std::path::PathBuf;
use tcw_experiments::plot::write_csv;
use tcw_experiments::runner::{CellResult, PolicyKind, RunSpec, SimSettings};
use tcw_experiments::sweep::{run_cells, run_parallel};
use tcw_experiments::{observed_cell, Capture, CellArtifacts, PANELS};
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_obs::Registry;

fn small() -> SimSettings {
    SimSettings {
        ticks_per_tau: 8,
        messages: 600,
        warmup: 60,
        ..Default::default()
    }
}

/// The miniature robustness-style grid used by the test: two loads ×
/// three fault probabilities, seeds mixed per cell like the binaries do.
fn grid() -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for (li, &panel) in [PANELS[0], PANELS[4]].iter().enumerate() {
        for (pi, &p) in [0.0, 0.02, 0.05].iter().enumerate() {
            let mut c = RunSpec::panel(
                panel,
                PolicyKind::Controlled,
                100.0,
                small(),
                1983 ^ ((li as u64) << 8) ^ pi as u64,
            );
            c.faults = FaultPlan::uniform(p);
            if pi == 2 {
                c.churn = ChurnPlan::crash_restart(0.002, 40, 100);
            }
            cells.push(c);
        }
    }
    cells
}

/// Renders the sweep exactly like the experiment binaries render their
/// CSVs: full-precision `{}` formatting of every float, one row per cell.
fn render_rows(points: &[CellResult]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|csp| {
            vec![
                format!("{}", csp.point.loss),
                format!("{}", csp.point.utilization),
                format!("{}", csp.point.sched_time_mean),
                format!("{}", csp.faults.corrupted_slots),
                format!("{}", csp.faults.resyncs),
                format!("{}", csp.churn.losses),
                format!("{}", csp.churn.reopened),
            ]
        })
        .collect()
}

fn csv_bytes(jobs: usize, tag: &str) -> Vec<u8> {
    let points = run_cells(&grid(), jobs);
    let path: PathBuf = std::env::temp_dir().join(format!("tcw_sweep_determinism_{tag}.csv"));
    write_csv(
        &path,
        &[
            "loss",
            "utilization",
            "sched_time_mean",
            "corrupted_slots",
            "resyncs",
            "churn_losses",
            "churn_reopened",
        ],
        &render_rows(&points),
    )
    .expect("write csv");
    let bytes = std::fs::read(&path).expect("read csv back");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn parallel_sweep_csv_is_byte_identical_to_serial() {
    let serial = csv_bytes(1, "jobs1");
    let parallel = csv_bytes(4, "jobs4");
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "--jobs 4 CSV differs from --jobs 1 CSV");
}

/// Runs the grid with full telemetry capture on `jobs` workers,
/// returning the simulated points plus the assembled artifacts exactly
/// as `write_observability` would build them: traces concatenated and
/// registries merged in cell order.
fn instrumented_run(jobs: usize) -> (Vec<CellResult>, String, String, String, String) {
    let cells = grid();
    let caps = Capture {
        tracing: true,
        metrics: true,
        spans: true,
    };
    let out: Vec<(CellResult, CellArtifacts)> = run_parallel(&cells, jobs, false, |i, c, _| {
        let label = format!("cell {i}");
        let seed_s = format!("{}", c.seed);
        let labels = [("cell", label.as_str()), ("seed", seed_s.as_str())];
        observed_cell(caps, i, &label, &labels, c, None)
    });
    let (points, artifacts): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let mut trace = String::new();
    let mut spans = String::new();
    let mut merged = Registry::new();
    for a in &artifacts {
        trace.push_str(a.trace.as_deref().expect("tracing was on"));
        spans.push_str(a.spans.as_deref().expect("spans were on"));
        merged.absorb(a.registry.as_ref().expect("metrics were on"));
    }
    (
        points,
        trace,
        spans,
        merged.to_prometheus(),
        merged.to_json(),
    )
}

#[test]
fn instrumented_sweep_is_byte_identical_to_plain_for_any_jobs() {
    let plain_csv = csv_bytes(1, "plain");
    let (points1, trace1, spans1, prom1, json1) = instrumented_run(1);
    let (points4, trace4, spans4, prom4, json4) = instrumented_run(4);

    // Telemetry capture never perturbs the simulation: the instrumented
    // points render to the same CSV bytes as the instrumentation-free run.
    for (tag, points) in [("jobs1", &points1), ("jobs4", &points4)] {
        let path: PathBuf =
            std::env::temp_dir().join(format!("tcw_sweep_determinism_obs_{tag}.csv"));
        write_csv(
            &path,
            &[
                "loss",
                "utilization",
                "sched_time_mean",
                "corrupted_slots",
                "resyncs",
                "churn_losses",
                "churn_reopened",
            ],
            &render_rows(points),
        )
        .expect("write csv");
        let bytes = std::fs::read(&path).expect("read csv back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            plain_csv, bytes,
            "instrumented {tag} CSV differs from the instrumentation-free run"
        );
    }

    // The artifacts themselves are byte-identical for any worker count.
    assert!(!trace1.is_empty());
    assert!(!spans1.is_empty());
    assert_eq!(trace1, trace4, "NDJSON trace depends on --jobs");
    assert_eq!(spans1, spans4, "span stream depends on --jobs");
    assert_eq!(prom1, prom4, "Prometheus exposition depends on --jobs");
    assert_eq!(json1, json4, "metrics JSON depends on --jobs");

    // And they are well-formed per the shipped linters.
    tcw_obs::lint::lint_events(&trace1).expect("trace lints clean");
    tcw_obs::lint::lint_spans(&spans1).expect("spans lint clean");
    tcw_obs::lint::lint_prom(&prom1).expect("exposition lints clean");
}

#[test]
fn parallel_sweep_points_are_bitwise_identical_to_serial() {
    let cells = grid();
    let serial = run_cells(&cells, 1);
    let parallel = run_cells(&cells, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.point.loss.to_bits(), p.point.loss.to_bits(), "cell {i}");
        assert_eq!(s.point.ci95.to_bits(), p.point.ci95.to_bits(), "cell {i}");
        assert_eq!(
            s.point.utilization.to_bits(),
            p.point.utilization.to_bits(),
            "cell {i}"
        );
        assert_eq!(s.point.offered, p.point.offered, "cell {i}");
        assert_eq!(
            s.faults.corrupted_slots, p.faults.corrupted_slots,
            "cell {i}"
        );
        assert_eq!(s.faults.resyncs, p.faults.resyncs, "cell {i}");
        assert_eq!(s.churn.losses, p.churn.losses, "cell {i}");
        assert_eq!(s.churn.crashes, p.churn.crashes, "cell {i}");
    }
}
