//! End-to-end tests of the chaos shrinker and its replay artifacts.

use tcw_experiments::chaos::{Mutation, BASE_SEED};
use tcw_experiments::chaos_execute as execute;
use tcw_experiments::{shrink, Artifact, Controller, RunSpec};

/// Shrinking a seeded violation preserves the failure, strictly reduces
/// the config, and lands on a 1-minimal fixpoint: no single remaining
/// candidate transformation still reproduces the violation.
#[test]
fn shrinker_minimizes_seeded_violation() {
    let (cfg, mutation) = (RunSpec::chaos_inject(), Mutation::ReorderPair);
    let out = execute(&cfg, mutation);
    assert_eq!(out.kind, "violation");
    assert_eq!(out.class, "fcfs");

    let res = shrink(&cfg, mutation, &out.kind, &out.class);
    let min_out = execute(&res.spec, mutation);
    assert_eq!(min_out.kind, "violation", "shrunk config lost the failure");
    assert_eq!(min_out.class, "fcfs");
    assert!(res.trials > 0);
    assert!(res.steps.iter().any(|s| s.kept), "nothing was shrunk");

    // Strictly smaller on at least one axis.
    assert!(
        res.spec.horizon_ticks < cfg.horizon_ticks
            || res.spec.stations < cfg.stations
            || res.spec.load.segments().len() < cfg.load.segments().len()
            || (cfg.adv_burst > 0 && res.spec.adv_burst == 0),
        "shrinker accepted nothing: {:?}",
        res.spec
    );

    // 1-minimality: every candidate applied to the fixpoint must lose
    // the failure (this re-runs the shrinker's own final pass).
    let again = shrink(&res.spec, mutation, &out.kind, &out.class);
    assert_eq!(
        again.spec, res.spec,
        "fixpoint not stable under re-shrinking"
    );
    assert!(
        again.steps.iter().all(|s| !s.kept),
        "a candidate still reproduced after the fixpoint"
    );
}

/// The mutation stays the seeded failure cause: the shrunk spec still
/// trips the mutation's invariant class under it, and runs clean without.
#[test]
fn shrinker_keeps_the_mutation() {
    let cfg = RunSpec::chaos_inject();
    let out = execute(&cfg, Mutation::DropDelivery);
    assert_eq!(out.kind, "violation");
    let res = shrink(&cfg, Mutation::DropDelivery, &out.kind, &out.class);
    let min_out = execute(&res.spec, Mutation::DropDelivery);
    assert_eq!(min_out.class, "conservation");
    assert_eq!(execute(&res.spec, Mutation::None).kind, "ok");
}

/// Records round-trip exactly and replay reproduces bit-identically.
#[test]
fn record_roundtrip_and_replay_reproduce() {
    let cfg = RunSpec::chaos_inject();
    let out = execute(&cfg, Mutation::StaleClock);
    let rec = Artifact {
        experiment: "chaos".to_string(),
        spec: cfg,
        mutation: Mutation::StaleClock,
        kind: out.kind.clone(),
        class: out.class.clone(),
        detail: out.detail.clone(),
    };
    let parsed = Artifact::from_json(&rec.to_json(), "chaos").expect("roundtrip");
    assert_eq!(parsed, rec);
    let replayed = execute(&parsed.spec, parsed.mutation);
    assert_eq!(replayed.kind, rec.kind);
    assert_eq!(replayed.class, rec.class);
    assert_eq!(replayed.detail, rec.detail, "replay must be bit-identical");
}

/// Stale or foreign artifacts are rejected with an error, never a panic
/// (the shared exit-2 convention depends on it).
#[test]
fn stale_or_foreign_artifacts_are_rejected() {
    let rec = Artifact {
        experiment: "chaos".to_string(),
        spec: RunSpec::chaos_sample(BASE_SEED, 1),
        mutation: Mutation::None,
        kind: "ok".to_string(),
        class: String::new(),
        detail: "d".to_string(),
    };
    let json = rec.to_json();
    let stale = json.replacen("\"version\": \"", "\"version\": \"stale-", 1);
    assert!(Artifact::from_json(&stale, "chaos").is_err());
    assert!(Artifact::from_json("{}", "chaos").is_err());
    assert!(Artifact::from_json(&json, "robustness").is_err());
    // Missing or out-of-range fields degrade to an error, never a panic.
    let bad = json.replace("\"stations\":", "\"stations_gone\":");
    assert!(Artifact::from_json(&bad, "chaos").is_err());
    let bad = json.replace("\"ticks_per_tau\": 4,", "\"ticks_per_tau\": 0,");
    let bad = bad.replace("\"ticks_per_tau\": 8,", "\"ticks_per_tau\": 0,");
    assert!(Artifact::from_json(&bad, "chaos").is_err());
}

/// A shrunk clean config stays clean: the shrinker predicate compares
/// (kind, class), so shrinking an "ok" run is a no-op fixpoint search
/// that never fabricates a failure.
#[test]
fn shrinking_a_clean_run_never_fabricates_failure() {
    let cfg = RunSpec::chaos_sample(BASE_SEED, 2);
    let out = execute(&cfg, Mutation::None);
    assert_eq!(out.kind, "ok");
    let res = shrink(&cfg, Mutation::None, &out.kind, &out.class);
    let min_out = execute(&res.spec, Mutation::None);
    assert_eq!(min_out.kind, "ok");
}

/// Candidate transformations preserve spec validity (check() passes at
/// every accepted step), including controller downgrades.
#[test]
fn shrunk_configs_stay_valid() {
    let cfg = RunSpec {
        controller: Controller::Aimd,
        ..RunSpec::chaos_inject()
    };
    let out = execute(&cfg, Mutation::ReorderPair);
    if out.kind == "violation" {
        let res = shrink(&cfg, Mutation::ReorderPair, &out.kind, &out.class);
        res.spec.check().expect("shrunk spec valid");
    }
}
