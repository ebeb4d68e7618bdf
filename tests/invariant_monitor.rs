//! Mutation tests for the runtime invariant monitor.
//!
//! A monitor is only trustworthy if (a) it stays silent on faithful
//! event streams — including heavily stressed ones — and (b) it fires
//! on corrupted ones. Both directions are covered here: the
//! no-false-positive property over composed chaos configs, and one
//! seeded corruption per invariant class asserting the monitor reports
//! exactly that class.

use tcw_experiments::chaos::{Mutation, BASE_SEED};
use tcw_experiments::{chaos_execute, ChaosOutcome, Controller, RunSpec};

/// Runs `spec` under the monitor with a faithful event stream.
fn execute(spec: &RunSpec) -> ChaosOutcome {
    chaos_execute(spec, Mutation::None)
}

/// Faithful event streams are clean, whatever the stress composition.
/// This samples the head of the real chaos sweep, which mixes faults,
/// churn, load shapes, adversaries and all three controllers.
#[test]
fn composed_stress_has_no_false_positives() {
    let mut controllers_seen = [false; 3];
    for index in 0..24 {
        let cfg = RunSpec::chaos_sample(BASE_SEED, index);
        controllers_seen[match cfg.controller {
            Controller::Static => 0,
            Controller::Aimd => 1,
            _ => 2,
        }] = true;
        let out = execute(&cfg);
        assert_eq!(
            out.kind, "ok",
            "config {index} flagged [{}/{}]: {}",
            out.kind, out.class, out.detail
        );
        assert_eq!(out.violations, 0, "config {index}");
        assert!(out.checks > 0, "config {index} ran no checks");
    }
    assert!(
        controllers_seen.iter().all(|&s| s),
        "sample head must cover all controllers: {controllers_seen:?}"
    );
}

/// The clean seeded baseline used by `chaos --inject` really is clean.
#[test]
fn inject_baseline_is_clean() {
    let out = execute(&RunSpec::chaos_inject());
    assert_eq!(out.kind, "ok", "[{}] {}", out.class, out.detail);
    assert!(out.deliveries > 0, "baseline must deliver messages");
}

fn assert_caught(mutation: Mutation) {
    let expected = mutation.expected_class().expect("corrupting mutation");
    let out = chaos_execute(&RunSpec::chaos_inject(), mutation);
    assert_eq!(
        out.kind,
        "violation",
        "{} not caught: [{}/{}] {}",
        mutation.label(),
        out.kind,
        out.class,
        out.detail
    );
    assert_eq!(
        out.class,
        expected,
        "{} tripped the wrong class: {}",
        mutation.label(),
        out.detail
    );
    assert!(out.violations >= 1);
}

/// A swallowed delivery breaks message conservation at finish.
#[test]
fn dropped_delivery_trips_conservation() {
    assert_caught(Mutation::DropDelivery);
}

/// An inverted delivery pair breaks global FCFS order.
#[test]
fn reordered_pair_trips_fcfs() {
    assert_caught(Mutation::ReorderPair);
}

/// A back-dated probe breaks clock consistency.
#[test]
fn stale_clock_trips_clock() {
    assert_caught(Mutation::StaleClock);
}

/// Corruptions also fire inside composed stress (faults and churn
/// active), not just on the clean baseline: the monitor separates the
/// corruption from legal stress-induced behavior.
#[test]
fn mutations_caught_under_composed_stress() {
    // Find a stressed sample config that is clean when faithful.
    let cfg = (0..64)
        .map(|i| RunSpec::chaos_sample(BASE_SEED, i))
        .find(|c| {
            !c.faults.is_none()
                && c.churn != tcw_mac::ChurnPlan::none()
                && execute(c).kind == "ok"
                && chaos_execute(c, Mutation::DropDelivery).deliveries >= 4
        })
        .expect("a clean faulted+churned sample in the sweep head");
    for mutation in Mutation::CORRUPTING {
        let out = chaos_execute(&cfg, mutation);
        assert_eq!(
            out.kind,
            "violation",
            "{} under stress: [{}/{}] {}",
            mutation.label(),
            out.kind,
            out.class,
            out.detail
        );
        assert_eq!(out.class, mutation.expected_class().unwrap());
    }
}

/// Replays are bit-deterministic: the same config yields byte-identical
/// outcome details (the property the record/replay convention rests on).
#[test]
fn outcomes_are_deterministic() {
    for index in [0, 7, 13] {
        let cfg = RunSpec::chaos_sample(BASE_SEED, index);
        let a = execute(&cfg);
        let b = execute(&cfg);
        assert_eq!(a, b, "config {index} not deterministic");
    }
}
