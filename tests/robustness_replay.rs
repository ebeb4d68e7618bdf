//! End-to-end checks of the fault-injection sweep machinery and the
//! deterministic failure-replay artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use tcw_experiments::replay::{Artifact, RECORD_FORMAT};
use tcw_experiments::runner::{PolicyKind, RunSpec, SimSettings};
use tcw_experiments::{Mutation, Panel};
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

/// The controlled run at `K = 100` under `plan`.
fn cell(seed: u64, plan: FaultPlan) -> RunSpec {
    RunSpec {
        faults: plan,
        ..RunSpec::panel(panel(), PolicyKind::Controlled, 100.0, quick(), seed)
    }
}

/// Runs `spec` under its station-0 divergence detector.
fn detect(spec: &RunSpec) -> DivergenceDetector {
    let mut det = spec.detector();
    spec.run_observed(&mut det, None);
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
    let rec = Artifact {
        experiment: "robustness".to_string(),
        spec: cell(11, plan),
        mutation: Mutation::None,
        kind: "divergence".to_string(),
        class: String::new(),
        detail: first.clone(),
    };
    let dir = std::env::temp_dir().join("tcw_robustness_test");
    let path = dir.join("artifact.json");
    rec.save(&path).expect("save artifact");
    let loaded = Artifact::load(&path, "robustness").expect("load artifact");
    assert_eq!(loaded, rec);
    // Replay from the loaded record alone.
    let replayed = detect(&loaded.spec);
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
/// one artifact parser and re-serializes to identical bytes.
#[test]
fn committed_failure_artifacts_reserialize_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/failures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("read results/failures") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let record = Record::parse(&text).expect("artifact is a flat record");
        let family = record.str("experiment").expect("experiment tag");
        let again = Artifact::load(&path, family)
            .map(|a| a.to_json())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(again, text, "{} does not round-trip", path.display());
        seen += 1;
    }
    assert!(seen >= 4, "found only {seen} committed artifacts");
}

/// `results/failures/failure_divergence_seed1983_p02.json` as committed
/// before the record format stamp existed.
const UNSTAMPED_ARTIFACT: &str = r#"{
  "version": "0.1.0",
  "seed": 1983,
  "success_to_collision": 0.02,
  "collision_to_success": 0.02,
  "collision_to_idle": 0.02,
  "idle_to_collision": 0.02,
  "erasure": 0.02,
  "deafness": 0.002,
  "deaf_slots": 4,
  "crash": 0.0,
  "down_slots": 0,
  "late_join_frac": 0.0,
  "join_slot": 0,
  "leave_frac": 0.0,
  "leave_slot": 0,
  "catch_up_slots": 0,
  "outage_start_slot": 0,
  "outage_slots": 0,
  "rho_prime": 0.5,
  "m": 25,
  "policy": "controlled",
  "k_tau": 100.0,
  "ticks_per_tau": 16,
  "messages": 8000,
  "warmup": 800,
  "stations": 50,
  "guard": false,
  "kind": "divergence",
  "detail": "station 0 diverged 948 time(s) (2032 slots missed, 948 resyncs, 0 churn repair(s)); first: t=1248: decision arrived mid-round"
}
"#;

/// An artifact in the layout that predates the record format stamp is
/// refused with an error naming the format, and `robustness --replay`
/// exits 2 on it.
#[test]
fn unstamped_artifact_is_rejected_naming_the_format() {
    let err = Artifact::from_json(UNSTAMPED_ARTIFACT, "robustness").unwrap_err();
    assert!(err.contains("record_format"), "{err}");
    assert!(
        err.contains(&format!("record format {RECORD_FORMAT}")),
        "{err}"
    );

    let dir = std::env::temp_dir().join(format!("tcw_unstamped_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("old.json");
    std::fs::write(&path, UNSTAMPED_ARTIFACT).expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_robustness"))
        .arg("--replay")
        .arg(&path)
        .output()
        .expect("spawn robustness");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("record_format"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
