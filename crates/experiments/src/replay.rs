//! Deterministic failure-replay artifacts.
//!
//! When a fault- or churn-injected run panics, trips an invariant, or a
//! divergence detector fires, the robustness harness serializes everything
//! needed to reproduce the failure — master seed, [`FaultPlan`],
//! [`ChurnPlan`], workload and policy parameters, and the observed failure
//! — into a small flat JSON file under `results/failures/`. Because every
//! random choice in a run derives from the master seed, replaying the
//! record re-executes the identical timeline and must reproduce the
//! identical failure.
//!
//! The format is a flat record (one JSON object, scalar values only),
//! read through the workspace's one codec, [`tcw_sim::record`], and
//! written atomically so a crash never leaves a torn artifact. Each
//! artifact is stamped with the workspace version that wrote it; loading
//! a stale or corrupted artifact returns an error (the replay binaries
//! exit with code 2) instead of silently replaying a different timeline.

use crate::panels::Panel;
use crate::runner::{Cell, PolicyKind, SimSettings};
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_sim::record::{self, Record};

/// The workspace version stamped into every artifact.
pub const ARTIFACT_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Everything needed to reproduce one failed run.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureRecord {
    /// The failing run.
    pub cell: Cell,
    /// Failure class: `"panic"` or `"divergence"`.
    pub kind: String,
    /// The failure itself (panic payload or first divergence).
    pub detail: String,
}

/// Incremental writer for the flat-JSON artifact envelope shared by every
/// record/replay binary (`robustness`, `churn`, `adaptive`, `chaos`).
///
/// Opens the object and stamps [`ARTIFACT_VERSION`] (plus an optional
/// `experiment` tag distinguishing artifact families); [`ArtifactWriter::finish`]
/// closes it. Byte layout matches the historical hand-rolled writers, so
/// previously committed artifacts stay byte-identical on regeneration.
pub struct ArtifactWriter {
    out: String,
}

impl ArtifactWriter {
    /// Starts an envelope; `experiment` tags the artifact family
    /// (`None` for the original robustness/churn format).
    pub fn new(experiment: Option<&str>) -> Self {
        let mut w = ArtifactWriter {
            out: String::from("{\n"),
        };
        w.str("version", ARTIFACT_VERSION);
        if let Some(tag) = experiment {
            w.str("experiment", tag);
        }
        w
    }

    /// Appends a field with an already-JSON-formatted value.
    fn raw(&mut self, key: &str, value: &str) {
        self.out.push_str(&format!("  \"{key}\": {value},\n"));
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.raw(key, &value.to_string());
    }

    /// Appends a float field (round-trip exact, always distinguishable
    /// from integers).
    pub fn f64(&mut self, key: &str, value: f64) {
        self.raw(key, &fmt_f64(value));
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, if value { "true" } else { "false" });
    }

    /// Appends an escaped, quoted string field.
    pub fn str(&mut self, key: &str, value: &str) {
        let mut quoted = String::with_capacity(value.len() + 2);
        record::push_quoted(&mut quoted, value);
        self.raw(key, &quoted);
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        // Trailing comma is invalid JSON; replace with a closing brace.
        self.out.truncate(self.out.len() - 2);
        self.out.push_str("\n}\n");
        self.out
    }
}

/// Parses artifact text and verifies its envelope — the version stamp and
/// the `experiment` family tag (`None` for the untagged robustness/churn
/// format) — *before* any field is read: a stale or foreign artifact
/// would replay a different timeline, so every loader rejects it up front
/// (the binaries then exit with [`crate::diag::EXIT_FAILURE`]).
pub fn read_artifact(text: &str, experiment: Option<&str>) -> Result<Record, String> {
    let r = Record::parse(text)?;
    r.check_envelope(ARTIFACT_VERSION, experiment)
        .map_err(|e| format!("artifact {e}; regenerate it with the current binaries"))?;
    Ok(r)
}

/// Reads artifact text from `path`.
pub fn load_artifact(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

impl FailureRecord {
    /// Serializes the record as one flat JSON object.
    pub fn to_json(&self) -> String {
        let Cell {
            panel,
            policy,
            k_tau,
            settings,
            seed,
            plan,
            churn,
        } = &self.cell;
        let mut w = ArtifactWriter::new(None);
        w.u64("seed", *seed);
        w.f64("success_to_collision", plan.success_to_collision);
        w.f64("collision_to_success", plan.collision_to_success);
        w.f64("collision_to_idle", plan.collision_to_idle);
        w.f64("idle_to_collision", plan.idle_to_collision);
        w.f64("erasure", plan.erasure);
        w.f64("deafness", plan.deafness);
        w.u64("deaf_slots", plan.deaf_slots);
        w.f64("crash", churn.crash);
        w.u64("down_slots", churn.down_slots);
        w.f64("late_join_frac", churn.late_join_frac);
        w.u64("join_slot", churn.join_slot);
        w.f64("leave_frac", churn.leave_frac);
        w.u64("leave_slot", churn.leave_slot);
        w.u64("catch_up_slots", churn.catch_up_slots);
        w.u64("outage_start_slot", churn.outage_start_slot);
        w.u64("outage_slots", churn.outage_slots);
        w.f64("rho_prime", panel.rho_prime);
        w.u64("m", panel.m);
        w.str("policy", policy.label());
        w.f64("k_tau", *k_tau);
        w.u64("ticks_per_tau", settings.ticks_per_tau);
        w.u64("messages", settings.messages);
        w.u64("warmup", settings.warmup);
        w.u64("stations", u64::from(settings.stations));
        w.bool("guard", settings.guard);
        w.str("kind", &self.kind);
        w.str("detail", &self.detail);
        w.finish()
    }

    /// Parses a record previously written by [`FailureRecord::to_json`].
    ///
    /// Rejects artifacts missing a version stamp, stamped by a different
    /// workspace version, or carrying out-of-range plan parameters — a
    /// stale or corrupted artifact would replay a *different* timeline and
    /// report a spurious divergence.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let r = read_artifact(text, None)?;
        let num = |key: &str| r.f64(key);
        let int = |key: &str| r.u64(key);
        let policy = match r.str("policy")? {
            "controlled" => PolicyKind::Controlled,
            "fcfs" => PolicyKind::Fcfs,
            "lcfs" => PolicyKind::Lcfs,
            "random" => PolicyKind::Random,
            other => return Err(format!("unknown policy {other:?}")),
        };
        let plan = FaultPlan {
            success_to_collision: num("success_to_collision")?,
            collision_to_success: num("collision_to_success")?,
            collision_to_idle: num("collision_to_idle")?,
            idle_to_collision: num("idle_to_collision")?,
            erasure: num("erasure")?,
            deafness: num("deafness")?,
            deaf_slots: int("deaf_slots")?,
        };
        plan.check()
            .map_err(|e| format!("corrupted fault plan: {e}"))?;
        let churn = ChurnPlan {
            crash: num("crash")?,
            down_slots: int("down_slots")?,
            late_join_frac: num("late_join_frac")?,
            join_slot: int("join_slot")?,
            leave_frac: num("leave_frac")?,
            leave_slot: int("leave_slot")?,
            catch_up_slots: int("catch_up_slots")?,
            outage_start_slot: int("outage_start_slot")?,
            outage_slots: int("outage_slots")?,
        };
        churn
            .check()
            .map_err(|e| format!("corrupted churn plan: {e}"))?;
        Ok(FailureRecord {
            cell: Cell {
                panel: Panel {
                    rho_prime: num("rho_prime")?,
                    m: int("m")?,
                },
                policy,
                k_tau: num("k_tau")?,
                settings: SimSettings {
                    ticks_per_tau: int("ticks_per_tau")?,
                    messages: int("messages")?,
                    warmup: int("warmup")?,
                    stations: u32::try_from(int("stations")?)
                        .map_err(|e| format!("field \"stations\": {e}"))?,
                    // Absent in artifacts that predate the guard flag.
                    guard: r.contains("guard") && r.bool("guard")?,
                },
                seed: int("seed")?,
                plan,
                churn,
            },
            kind: r.str("kind")?.to_string(),
            detail: r.str("detail")?.to_string(),
        })
    }

    /// Writes the record to `path` atomically, creating parent directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        record::write_atomic(path, &self.to_json())
    }

    /// Loads a record from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::from_json(&load_artifact(path)?)
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `cell` and returns the observed `(kind, detail)` outcome —
/// `("ok", summary)` when nothing failed. Deterministic: the same cell
/// always returns the same pair.
///
/// The cell's divergence detector ([`Cell::detector`]) rides along
/// whenever the cell injects receive deafness or a churn listener
/// outage; a detected divergence is itself a reportable failure.
pub fn execute(cell: &Cell) -> (String, String) {
    let run = || -> (String, String) {
        let mut det = cell.detector();
        let result = if cell.plan.deafness > 0.0 || cell.churn.outage_slots > 0 {
            cell.run_observed(&mut det, None)
        } else {
            cell.run()
        };
        match det.first_divergence() {
            Some(first) => (
                "divergence".to_string(),
                format!(
                    "station 0 diverged {} time(s) ({} slots missed, {} resyncs, {} churn repair(s)); first: {first}",
                    det.divergences(),
                    det.dropped_slots(),
                    det.resyncs(),
                    det.churn_repairs()
                ),
            ),
            None => ("ok".to_string(), format!("loss={:.6}", result.point.loss)),
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => ("panic".to_string(), panic_message(payload)),
    }
}

/// Replays an artifact and returns the process exit code, following the
/// convention in [`crate::diag`]: [`crate::diag::EXIT_FAILURE`] when the
/// artifact cannot be loaded (missing, stale version, or corrupted) or
/// when the replay did not reproduce the recorded failure, `0` when it
/// did.
pub fn replay(path: &Path) -> i32 {
    let rec = match FailureRecord::load(path) {
        Ok(r) => r,
        Err(e) => {
            crate::diag::error("replay", &format!("cannot load artifact: {e}"));
            return crate::diag::EXIT_FAILURE;
        }
    };
    println!(
        "replaying {} (kind={:?}, seed={}, plan={:?}, churn={:?})",
        path.display(),
        rec.kind,
        rec.cell.seed,
        rec.cell.plan,
        rec.cell.churn
    );
    let (kind, detail) = execute(&rec.cell);
    println!("recorded: [{}] {}", rec.kind, rec.detail);
    println!("replayed: [{kind}] {detail}");
    if kind == rec.kind && detail == rec.detail {
        println!("replay reproduced the identical failure");
        0
    } else {
        crate::diag::error("replay", "REPLAY DIVERGED from the recorded failure");
        crate::diag::EXIT_FAILURE
    }
}

/// Formats an `f64` so it round-trips exactly and always contains a `.`
/// or exponent (so integers and floats stay distinguishable to readers).
pub(crate) fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> FailureRecord {
        let panel = Panel {
            rho_prime: 0.5,
            m: 25,
        };
        let settings = SimSettings::default();
        FailureRecord {
            cell: Cell {
                plan: FaultPlan {
                    success_to_collision: 0.05,
                    collision_to_success: 0.05,
                    collision_to_idle: 0.05,
                    idle_to_collision: 0.05,
                    erasure: 0.05,
                    deafness: 0.01,
                    deaf_slots: 3,
                },
                churn: ChurnPlan {
                    crash: 0.001,
                    down_slots: 40,
                    catch_up_slots: 100,
                    ..ChurnPlan::none()
                },
                ..Cell::clean(panel, PolicyKind::Controlled, 100.0, settings, 42)
            },
            kind: "panic".to_string(),
            detail: "assertion \"failed\"\nwith a newline and a \\ backslash".to_string(),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = record();
        let parsed = FailureRecord::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_missing_version() {
        let json = record().to_json().replace("\"version\"", "\"vversion\"");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("no version stamp"), "{err}");
    }

    #[test]
    fn parse_rejects_stale_version() {
        let stamp = format!("\"version\": \"{ARTIFACT_VERSION}\"");
        let json = record()
            .to_json()
            .replace(&stamp, "\"version\": \"0.0.0-stale\"");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(
            err.contains("0.0.0-stale") && err.contains(ARTIFACT_VERSION),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_corrupted_plans() {
        let json = record()
            .to_json()
            .replace("\"erasure\": 0.05", "\"erasure\": 7.0");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("corrupted fault plan"), "{err}");
        let json = record()
            .to_json()
            .replace("\"crash\": 0.001", "\"crash\": -1.0");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("corrupted churn plan"), "{err}");
    }

    #[test]
    fn roundtrip_survives_save_and_load() {
        let dir = std::env::temp_dir().join("tcw_replay_test");
        let path = dir.join("failure.json");
        let r = record();
        r.save(&path).expect("save");
        let loaded = FailureRecord::load(&path).expect("load");
        assert_eq!(loaded, r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FailureRecord::from_json("not json").is_err());
        assert!(FailureRecord::from_json("{}").is_err());
    }

    #[test]
    fn float_formatting_distinguishes_kinds() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(100.0), "100.0");
    }
}
