//! End-to-end checks of the churn sweep machinery and the versioned,
//! churn-aware failure-replay artifact.

use tcw_experiments::replay::{execute, FailureRecord, ARTIFACT_VERSION};
use tcw_experiments::runner::{Cell, PolicyKind, SimSettings};
use tcw_experiments::Panel;
use tcw_mac::{ChurnPlan, FaultPlan};

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

fn crashy() -> ChurnPlan {
    ChurnPlan::crash_restart(0.002, 40, 100)
}

/// The controlled cell at `K = 100` under `plan` and `churn`.
fn cell(seed: u64, plan: FaultPlan, churn: ChurnPlan) -> Cell {
    Cell {
        plan,
        churn,
        ..Cell::clean(panel(), PolicyKind::Controlled, 100.0, quick(), seed)
    }
}

#[test]
fn none_churn_matches_faulty_runner_exactly() {
    let clean = cell(7, FaultPlan::none(), ChurnPlan::none()).run();
    assert_eq!(clean.churn.crashes, 0);
    assert_eq!(clean.churn.blocked, 0);
    assert_eq!(clean.churn.losses, 0);
    assert_eq!(clean.churn.reopened, 0);
}

#[test]
fn churn_runs_are_deterministic_and_counted() {
    let run = || cell(11, FaultPlan::none(), crashy()).run();
    let a = run();
    let b = run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.churn.crashes > 0, "no crashes materialized");
    // Stations still down when the run ends never restart; at most one
    // crash per station can be outstanding.
    assert!(a.churn.restarts <= a.churn.crashes);
    assert!(a.churn.crashes - a.churn.restarts <= quick().stations as u64);
    assert!(
        a.churn.rejoin_max_slots >= a.churn.rejoin_mean_slots,
        "max below mean"
    );
}

#[test]
fn churn_artifact_roundtrips_and_replays() {
    // An outage record must diverge, survive the write/load cycle bit-for-
    // bit, and re-execute to the identical failure — the property the
    // `--replay` exit code rests on.
    let churn = ChurnPlan {
        outage_start_slot: 500,
        outage_slots: 32,
        ..crashy()
    };
    let rec = FailureRecord {
        cell: cell(11, FaultPlan::none(), churn),
        kind: String::new(),
        detail: String::new(),
    };
    let (kind, detail) = execute(&rec.cell);
    assert_eq!(kind, "divergence", "outage must diverge: {detail}");
    assert!(detail.contains("churn repair"), "{detail}");

    let mut failed = rec.clone();
    failed.kind = kind;
    failed.detail = detail;
    let dir = std::env::temp_dir().join("tcw_churn_membership_test");
    let path = dir.join("artifact.json");
    failed.save(&path).expect("save artifact");
    let loaded = FailureRecord::load(&path).expect("load artifact");
    assert_eq!(loaded, failed);
    let (kind2, detail2) = execute(&loaded.cell);
    assert_eq!((kind2, detail2), (loaded.kind, loaded.detail));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_or_corrupted_artifacts_are_rejected() {
    let rec = FailureRecord {
        cell: cell(3, FaultPlan::none(), ChurnPlan::none()),
        kind: "panic".to_string(),
        detail: "boom".to_string(),
    };
    let dir = std::env::temp_dir().join("tcw_churn_stale_test");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Version stamped by a different workspace build.
    let stale = rec.to_json().replace(
        &format!("\"version\": \"{ARTIFACT_VERSION}\""),
        "\"version\": \"0.0.0-prehistoric\"",
    );
    let p1 = dir.join("stale.json");
    std::fs::write(&p1, stale).expect("write");
    let err = FailureRecord::load(&p1).unwrap_err();
    assert!(err.contains("0.0.0-prehistoric"), "{err}");

    // Out-of-range churn parameters.
    let corrupt = rec.to_json().replace("\"crash\": 0.0", "\"crash\": 2.5");
    let p2 = dir.join("corrupt.json");
    std::fs::write(&p2, corrupt).expect("write");
    let err = FailureRecord::load(&p2).unwrap_err();
    assert!(err.contains("corrupted churn plan"), "{err}");

    // Not JSON at all.
    let p3 = dir.join("garbage.json");
    std::fs::write(&p3, "definitely not json").expect("write");
    assert!(FailureRecord::load(&p3).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detector_report_separates_churn_repairs_from_deaf_resyncs() {
    // Outage only: every resync is a churn repair.
    let outage_only = ChurnPlan {
        outage_start_slot: 400,
        outage_slots: 24,
        ..ChurnPlan::none()
    };
    let outage = cell(13, FaultPlan::none(), outage_only);
    let mut det = outage.detector();
    outage.run_observed(&mut det, None);
    assert_eq!(det.churn_repairs(), 1);
    assert_eq!(det.resyncs(), det.churn_repairs());

    // Deafness only: no resync is a churn repair.
    let mut deaf = FaultPlan::none();
    deaf.deafness = 0.005;
    deaf.deaf_slots = 4;
    let deaf = cell(13, deaf, ChurnPlan::none());
    let mut det = deaf.detector();
    deaf.run_observed(&mut det, None);
    assert!(det.divergences() > 0, "deafness never diverged");
    assert_eq!(det.churn_repairs(), 0);
}
