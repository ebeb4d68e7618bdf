//! End-to-end checks of the fault-injection sweep machinery and the
//! deterministic failure-replay artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use tcw_experiments::adaptive::AdaptiveRecord;
use tcw_experiments::replay::FailureRecord;
use tcw_experiments::runner::{Cell, PolicyKind, SimSettings};
use tcw_experiments::ChaosRecord;
use tcw_experiments::Panel;
use tcw_mac::FaultPlan;
use tcw_sim::record::Record;
use tcw_window::mirror::DivergenceDetector;

fn quick() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 3_000,
        warmup: 300,
        ..Default::default()
    }
}

fn panel() -> Panel {
    Panel {
        rho_prime: 0.5,
        m: 25,
    }
}

/// The controlled cell at `K = 100` under `plan`.
fn cell(seed: u64, plan: FaultPlan) -> Cell {
    Cell {
        plan,
        ..Cell::clean(panel(), PolicyKind::Controlled, 100.0, quick(), seed)
    }
}

/// Runs `cell` under its station-0 divergence detector.
fn detect(cell: &Cell) -> DivergenceDetector {
    let mut det = cell.detector();
    cell.run_observed(&mut det, None);
    det
}

#[test]
fn none_plan_matches_plain_runner_exactly() {
    let clean = cell(7, FaultPlan::none()).run();
    assert_eq!(clean.faults.corrupted_slots, 0);
    assert_eq!(clean.faults.erased_slots, 0);
    assert_eq!(clean.faults.resyncs, 0);
    assert_eq!(clean.faults.fault_losses, 0);
}

#[test]
fn faults_degrade_loss_gracefully() {
    let clean = cell(7, FaultPlan::none()).run();
    let light = cell(7, FaultPlan::uniform(0.02)).run();
    let heavy = cell(7, FaultPlan::uniform(0.10)).run();
    assert!(light.faults.corrupted_slots > 0);
    assert!(heavy.faults.corrupted_slots > light.faults.corrupted_slots);
    // Degradation is graceful: loss rises with the fault rate but the
    // protocol keeps delivering the vast majority of traffic.
    assert!(light.point.loss >= clean.point.loss);
    assert!(heavy.point.loss > light.point.loss);
    assert!(
        heavy.point.loss < 0.5,
        "loss collapsed: {}",
        heavy.point.loss
    );
}

#[test]
fn detector_run_is_deterministic_and_replayable() {
    let mut plan = FaultPlan::uniform(0.02);
    plan.deafness = 0.005;
    plan.deaf_slots = 4;
    let run = || detect(&cell(11, plan));
    let det_a = run();
    let det_b = run();
    assert!(det_a.divergences() > 0, "deafness produced no divergence");
    assert_eq!(det_a.divergences(), det_b.divergences());
    assert_eq!(det_a.dropped_slots(), det_b.dropped_slots());
    assert_eq!(det_a.first_divergence(), det_b.first_divergence());
}

#[test]
fn artifact_roundtrip_reproduces_the_failure() {
    // Build a failing record the way the robustness binary does, write it,
    // reload it, and re-execute: the observed failure must be identical.
    let mut plan = FaultPlan::uniform(0.02);
    plan.deafness = 0.005;
    plan.deaf_slots = 4;
    let det = detect(&cell(11, plan));
    let first = det
        .first_divergence()
        .map(str::to_string)
        .expect("deafness must diverge");
    let rec = FailureRecord {
        cell: cell(11, plan),
        kind: "divergence".to_string(),
        detail: first.clone(),
    };
    let dir = std::env::temp_dir().join("tcw_robustness_test");
    let path = dir.join("artifact.json");
    rec.save(&path).expect("save artifact");
    let loaded = FailureRecord::load(&path).expect("load artifact");
    assert_eq!(loaded, rec);
    // Replay from the loaded record alone.
    let replayed = detect(&loaded.cell);
    assert_eq!(
        replayed.first_divergence(),
        Some(first.as_str()),
        "replay did not reproduce the recorded failure"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panics_are_catchable_for_the_harness() {
    // The replay harness depends on invalid plans failing loudly inside
    // catch_unwind rather than corrupting a run.
    let bad = FaultPlan {
        collision_to_success: 0.9,
        collision_to_idle: 0.9,
        ..FaultPlan::none()
    };
    let result = catch_unwind(AssertUnwindSafe(|| cell(7, bad).run()));
    assert!(result.is_err(), "oversubscribed plan must be rejected");
}

/// Every committed artifact under `results/failures/` loads through the
/// record type of its family and re-serializes to identical bytes.
#[test]
fn committed_failure_artifacts_reserialize_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/failures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("read results/failures") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let record = Record::parse(&text).expect("artifact is a flat record");
        let family = record
            .contains("experiment")
            .then(|| record.str("experiment"));
        let again = match family.transpose().expect("string family tag") {
            None => FailureRecord::load(&path).map(|r| r.to_json()),
            Some("chaos") => ChaosRecord::load(&path).map(|r| r.to_json()),
            Some("adaptive") => AdaptiveRecord::load(&path).map(|r| r.to_json()),
            Some(other) => panic!("{}: unknown family {other:?}", path.display()),
        };
        let again = again.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(again, text, "{} does not round-trip", path.display());
        seen += 1;
    }
    assert!(seen >= 4, "found only {seen} committed artifacts");
}
