//! The run record and deterministic replay artifacts.
//!
//! One writer and one parser serialize a [`RunSpec`] as flat record
//! fields: the journal fingerprint ([`crate::runner::fingerprint`])
//! checksums that record, and a replay [`Artifact`] is the record plus
//! the experiment tag, the chaos harness's event-stream mutation and the
//! outcome the replay must reproduce. Because every random choice in a
//! run derives from the master seed in the record, replaying an artifact
//! re-executes the identical timeline.
//!
//! An artifact is one flat JSON object (scalar values only), read
//! through the workspace's one codec, [`tcw_sim::record`], and written
//! atomically so a crash never leaves a torn file. It is stamped with
//! [`RECORD_FORMAT`], checked before any other field is read, so an
//! artifact in an older layout is refused (the replay binaries exit with
//! code 2) instead of silently replaying a different timeline.

use crate::chaos::Mutation;
use crate::runner::{Controller, Load, PolicyKind, RunSpec};
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::str::FromStr;
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_sim::record::{self, Record};

/// Layout of the run record and its artifact envelope; bumped on any
/// change to either.
pub const RECORD_FORMAT: u64 = 1;

/// The workspace version stamped into every artifact and journal.
pub const ARTIFACT_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Incremental writer for one flat JSON record: one `"key": value` line
/// per field.
struct RecordWriter {
    out: String,
}

impl Default for RecordWriter {
    fn default() -> Self {
        RecordWriter {
            out: String::from("{\n"),
        }
    }
}

impl RecordWriter {
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

impl RunSpec {
    /// Writes every field. The destructuring names each field of the
    /// spec and of both plans, with no `..`, so a new field does not
    /// compile until it is written here (and read in
    /// [`RunSpec::from_record`]).
    fn write_fields(&self, w: &mut RecordWriter) {
        let RunSpec {
            ticks_per_tau,
            message_slots,
            guard,
            policy,
            window_ticks,
            deadline_ticks,
            measure_start,
            measure_end,
            horizon_ticks,
            stations,
            load,
            adv_rate,
            adv_burst,
            adv_start,
            controller,
            faults,
            churn,
            seed,
        } = self;
        let FaultPlan {
            success_to_collision,
            collision_to_success,
            collision_to_idle,
            idle_to_collision,
            erasure,
            deafness,
            deaf_slots,
        } = faults;
        let ChurnPlan {
            crash,
            down_slots,
            late_join_frac,
            join_slot,
            leave_frac,
            leave_slot,
            catch_up_slots,
            outage_start_slot,
            outage_slots,
        } = churn;
        w.u64("seed", *seed);
        w.u64("ticks_per_tau", *ticks_per_tau);
        w.u64("message_slots", *message_slots);
        w.bool("guard", *guard);
        w.str("policy", policy.label());
        w.u64("window_ticks", *window_ticks);
        w.u64("deadline_ticks", *deadline_ticks);
        w.u64("measure_start", *measure_start);
        w.u64("measure_end", *measure_end);
        w.u64("horizon_ticks", *horizon_ticks);
        w.u64("stations", u64::from(*stations));
        w.str("load", &load_text(load));
        w.f64("adv_rate", *adv_rate);
        w.u64("adv_burst", u64::from(*adv_burst));
        w.u64("adv_start", *adv_start);
        w.str("controller", &controller_text(controller));
        w.f64("success_to_collision", *success_to_collision);
        w.f64("collision_to_success", *collision_to_success);
        w.f64("collision_to_idle", *collision_to_idle);
        w.f64("idle_to_collision", *idle_to_collision);
        w.f64("erasure", *erasure);
        w.f64("deafness", *deafness);
        w.u64("deaf_slots", *deaf_slots);
        w.f64("crash", *crash);
        w.u64("down_slots", *down_slots);
        w.f64("late_join_frac", *late_join_frac);
        w.u64("join_slot", *join_slot);
        w.f64("leave_frac", *leave_frac);
        w.u64("leave_slot", *leave_slot);
        w.u64("catch_up_slots", *catch_up_slots);
        w.u64("outage_start_slot", *outage_start_slot);
        w.u64("outage_slots", *outage_slots);
    }

    /// The spec's record: a flat JSON object holding every field.
    pub fn record(&self) -> String {
        let mut w = RecordWriter::default();
        self.write_fields(&mut w);
        w.finish()
    }

    /// Reads the fields [`RunSpec::record`] writes. This checks
    /// structure only; [`RunSpec::check`] validates the values.
    pub(crate) fn from_record(r: &Record) -> Result<Self, String> {
        let narrow = |key: &str| -> Result<u32, String> {
            u32::try_from(r.u64(key)?).map_err(|e| format!("field {key:?}: {e}"))
        };
        let policy = r.str("policy")?;
        Ok(RunSpec {
            ticks_per_tau: r.u64("ticks_per_tau")?,
            message_slots: r.u64("message_slots")?,
            guard: r.bool("guard")?,
            policy: PolicyKind::parse(policy)
                .ok_or_else(|| format!("unknown policy {policy:?}"))?,
            window_ticks: r.u64("window_ticks")?,
            deadline_ticks: r.u64("deadline_ticks")?,
            measure_start: r.u64("measure_start")?,
            measure_end: r.u64("measure_end")?,
            horizon_ticks: r.u64("horizon_ticks")?,
            stations: narrow("stations")?,
            load: parse_load(r.str("load")?)?,
            adv_rate: r.f64("adv_rate")?,
            adv_burst: narrow("adv_burst")?,
            adv_start: r.u64("adv_start")?,
            controller: parse_controller(r.str("controller")?)?,
            faults: FaultPlan {
                success_to_collision: r.f64("success_to_collision")?,
                collision_to_success: r.f64("collision_to_success")?,
                collision_to_idle: r.f64("collision_to_idle")?,
                idle_to_collision: r.f64("idle_to_collision")?,
                erasure: r.f64("erasure")?,
                deafness: r.f64("deafness")?,
                deaf_slots: r.u64("deaf_slots")?,
            },
            churn: ChurnPlan {
                crash: r.f64("crash")?,
                down_slots: r.u64("down_slots")?,
                late_join_frac: r.f64("late_join_frac")?,
                join_slot: r.u64("join_slot")?,
                leave_frac: r.f64("leave_frac")?,
                leave_slot: r.u64("leave_slot")?,
                catch_up_slots: r.u64("catch_up_slots")?,
                outage_start_slot: r.u64("outage_start_slot")?,
                outage_slots: r.u64("outage_slots")?,
            },
            seed: r.u64("seed")?,
        })
    }
}

/// `start:value` pairs joined by `;`.
fn pairs_text<T: std::fmt::Display>(pairs: &[(u64, T)]) -> String {
    let items: Vec<String> = pairs.iter().map(|(s, v)| format!("{s}:{v}")).collect();
    items.join(";")
}

fn parse_pairs<T: FromStr>(text: &str) -> Result<Vec<(u64, T)>, String> {
    text.split(';')
        .map(|item| {
            let bad = || format!("malformed list item {item:?}");
            let (start, value) = item.split_once(':').ok_or_else(bad)?;
            Ok((
                start.parse().map_err(|_| bad())?,
                value.parse().map_err(|_| bad())?,
            ))
        })
        .collect()
}

/// `piecewise START:RATE;...` or `voice TALKSPURT:SILENCE:INTERVAL`.
fn load_text(load: &Load) -> String {
    match load {
        Load::Piecewise(segments) => format!("piecewise {}", pairs_text(segments)),
        Load::Voice {
            talkspurt,
            silence,
            interval,
        } => format!("voice {talkspurt}:{silence}:{interval}"),
    }
}

fn parse_load(text: &str) -> Result<Load, String> {
    match text.split_once(' ') {
        Some(("piecewise", list)) => Ok(Load::Piecewise(parse_pairs(list)?)),
        Some(("voice", params)) => {
            let bad = || format!("malformed voice load {params:?}");
            let values: Vec<u64> = params
                .split(':')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| bad())?;
            let &[talkspurt, silence, interval] = &values[..] else {
                return Err(bad());
            };
            Ok(Load::Voice {
                talkspurt,
                silence,
                interval,
            })
        }
        _ => Err(format!("unknown load {text:?}")),
    }
}

/// The controller's label, followed for the oracle by its schedule.
fn controller_text(controller: &Controller) -> String {
    match controller {
        Controller::Oracle(schedule) => format!("oracle {}", pairs_text(schedule)),
        other => other.label().to_string(),
    }
}

fn parse_controller(text: &str) -> Result<Controller, String> {
    match text.split_once(' ') {
        Some(("oracle", schedule)) => Ok(Controller::Oracle(parse_pairs(schedule)?)),
        _ => Controller::PLAIN
            .into_iter()
            .find(|c| c.label() == text)
            .ok_or_else(|| format!("unknown controller {text:?}")),
    }
}

/// A replay artifact: one run's record, the experiment that wrote it,
/// the chaos harness's event-stream mutation ([`Mutation::None`]
/// elsewhere) and the outcome a replay must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Experiment tag: `robustness`, `churn`, `adaptive` or `chaos`.
    pub experiment: String,
    /// The run.
    pub spec: RunSpec,
    /// Corruption applied between engine and invariant monitor.
    pub mutation: Mutation,
    /// Outcome class: `ok`, `divergence`, `violation` or `panic`.
    pub kind: String,
    /// Invariant class of a violation (empty otherwise).
    pub class: String,
    /// The outcome detail that must replay bit for bit.
    pub detail: String,
}

impl Artifact {
    /// The artifact of an unmutated run: what `robustness`, `churn` and
    /// `adaptive` record, with no invariant class.
    pub fn unmutated(experiment: &str, spec: RunSpec, kind: String, detail: String) -> Self {
        Artifact {
            experiment: experiment.to_string(),
            spec,
            mutation: Mutation::None,
            kind,
            class: String::new(),
            detail,
        }
    }

    /// Serializes the artifact as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut w = RecordWriter::default();
        w.u64("record_format", RECORD_FORMAT);
        w.str("version", ARTIFACT_VERSION);
        w.str("experiment", &self.experiment);
        self.spec.write_fields(&mut w);
        w.str("mutation", self.mutation.label());
        w.str("kind", &self.kind);
        w.str("class", &self.class);
        w.str("detail", &self.detail);
        w.finish()
    }

    /// Parses an artifact of `experiment`, checking the record format,
    /// then the version stamp and experiment tag, before any other field
    /// is read, and validating the spec ([`RunSpec::check`]): a stale,
    /// foreign or corrupted artifact would replay a different timeline,
    /// so it is refused.
    pub fn from_json(text: &str, experiment: &str) -> Result<Self, String> {
        let r = Record::parse(text)?;
        let regenerate = "regenerate it with the current binaries";
        let format = r.u64("record_format").map_err(|_| {
            format!(
                "artifact has no record_format stamp (this binary reads record \
                 format {RECORD_FORMAT}); {regenerate}"
            )
        })?;
        if format != RECORD_FORMAT {
            return Err(format!(
                "artifact has record format {format}, this binary reads record \
                 format {RECORD_FORMAT}; {regenerate}"
            ));
        }
        r.check_envelope(ARTIFACT_VERSION, Some(experiment))
            .map_err(|e| format!("artifact {e}; {regenerate}"))?;
        let spec = RunSpec::from_record(&r)?;
        spec.check()?;
        let mutation = r.str("mutation")?;
        Ok(Artifact {
            experiment: experiment.to_string(),
            spec,
            mutation: Mutation::parse(mutation)
                .ok_or_else(|| format!("unknown mutation {mutation:?}"))?,
            kind: r.str("kind")?.to_string(),
            class: r.str("class")?.to_string(),
            detail: r.str("detail")?.to_string(),
        })
    }

    /// Writes the artifact to `path` atomically, creating parent
    /// directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        record::write_atomic(path, &self.to_json())
    }

    /// Loads an artifact of `experiment` from `path`.
    pub fn load(path: &Path, experiment: &str) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text, experiment)
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

/// Executes `spec` and returns the observed `(kind, detail)` outcome —
/// `("ok", ...)` carrying the exact loss bits and offered count when
/// nothing failed. Deterministic: the same spec always returns the same
/// pair.
///
/// Station 0's divergence detector ([`RunSpec::detector`]) rides along
/// whenever the spec injects receive deafness or a churn listener
/// outage; a detected divergence is itself a reportable failure.
pub fn execute(spec: &RunSpec) -> (String, String) {
    let run = || -> (String, String) {
        let mut det = spec.detector();
        let result = if spec.faults.deafness > 0.0 || spec.churn.outage_slots > 0 {
            spec.run_observed(&mut det, None)
        } else {
            spec.run()
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
            None => {
                let p = result.point;
                (
                    "ok".to_string(),
                    format!(
                        "loss_bits={:016x} loss={:.6} offered={}",
                        p.loss.to_bits(),
                        p.loss,
                        p.offered
                    ),
                )
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => ("panic".to_string(), panic_message(payload)),
    }
}

/// Replays an artifact of `experiment` and returns the process exit
/// code, following the convention in [`crate::diag`].
///
/// An unloadable, stale or foreign artifact, or a replay that does not
/// reproduce the recorded `(kind, class, detail)`, exits
/// [`crate::diag::EXIT_FAILURE`]. A faithful replay exits `0`, except a
/// chaos artifact that records a failure: under the shared convention an
/// invariant violation is a failure however it was produced, so it exits
/// [`crate::diag::EXIT_FAILURE`] too (stdout then says `replay
/// reproduced the recorded failure`). Chaos artifacts replay under the
/// invariant monitor ([`crate::chaos::execute`]), all others through
/// [`execute`].
pub fn replay(path: &Path, experiment: &str) -> i32 {
    let art = match Artifact::load(path, experiment) {
        Ok(a) => a,
        Err(e) => {
            crate::diag::error(experiment, &format!("cannot load artifact: {e}"));
            return crate::diag::EXIT_FAILURE;
        }
    };
    let spec = &art.spec;
    println!(
        "replaying {} (kind={:?}, seed={}, controller={}, mutation={}, plan={:?}, churn={:?})",
        path.display(),
        art.kind,
        spec.seed,
        spec.controller.label(),
        art.mutation.label(),
        spec.faults,
        spec.churn
    );
    let chaos = experiment == "chaos";
    let (kind, class, detail) = if chaos {
        let out = crate::chaos::execute(spec, art.mutation);
        (out.kind, out.class, out.detail)
    } else {
        let (kind, detail) = execute(spec);
        (kind, String::new(), detail)
    };
    println!("recorded: [{}/{}] {}", art.kind, art.class, art.detail);
    println!("replayed: [{kind}/{class}] {detail}");
    if (&kind, &class, &detail) != (&art.kind, &art.class, &art.detail) {
        crate::diag::error(experiment, "REPLAY DIVERGED from the recorded outcome");
        return crate::diag::EXIT_FAILURE;
    }
    if art.kind == "ok" {
        println!("replay reproduced the recorded outcome");
        0
    } else {
        println!("replay reproduced the recorded failure");
        if chaos {
            crate::diag::EXIT_FAILURE
        } else {
            0
        }
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
    use crate::panels::Panel;
    use crate::runner::SimSettings;

    fn artifact() -> Artifact {
        let panel = Panel {
            rho_prime: 0.5,
            m: 25,
        };
        let spec = RunSpec {
            faults: FaultPlan {
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
            ..RunSpec::panel(
                panel,
                PolicyKind::Controlled,
                100.0,
                SimSettings::default(),
                42,
            )
        };
        Artifact {
            experiment: "robustness".to_string(),
            spec,
            mutation: Mutation::None,
            kind: "panic".to_string(),
            class: String::new(),
            detail: "assertion \"failed\"\nwith a newline and a \\ backslash".to_string(),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let a = artifact();
        let parsed = Artifact::from_json(&a.to_json(), "robustness").expect("parse");
        assert_eq!(parsed, a);
        let voice = Artifact {
            spec: RunSpec {
                load: Load::Voice {
                    talkspurt: 4_000,
                    silence: 12_000,
                    interval: 400,
                },
                controller: Controller::Oracle(vec![(0, 36), (150_000, 7)]),
                ..a.spec.clone()
            },
            ..a
        };
        let parsed = Artifact::from_json(&voice.to_json(), "robustness").expect("parse");
        assert_eq!(parsed, voice);
    }

    #[test]
    fn parse_rejects_missing_version() {
        let json = artifact().to_json().replace("\"version\"", "\"vversion\"");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(err.contains("no version stamp"), "{err}");
    }

    #[test]
    fn parse_rejects_stale_version() {
        let stamp = format!("\"version\": \"{ARTIFACT_VERSION}\"");
        let json = artifact()
            .to_json()
            .replace(&stamp, "\"version\": \"0.0.0-stale\"");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(
            err.contains("0.0.0-stale") && err.contains(ARTIFACT_VERSION),
            "{err}"
        );
    }

    /// The record format is checked before any other field: a stale or
    /// missing stamp is named in the error, whatever else the file holds.
    #[test]
    fn parse_rejects_stale_record_format() {
        let stamp = format!("\"record_format\": {RECORD_FORMAT}");
        let json = artifact()
            .to_json()
            .replace(&stamp, "\"record_format\": 999");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(err.contains("record format 999"), "{err}");
        let json = artifact().to_json().replace(&stamp, "\"format\": 1");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(err.contains("no record_format stamp"), "{err}");
    }

    #[test]
    fn parse_rejects_corrupted_plans() {
        let json = artifact()
            .to_json()
            .replace("\"erasure\": 0.05", "\"erasure\": 7.0");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(err.contains("corrupted fault plan"), "{err}");
        let json = artifact()
            .to_json()
            .replace("\"crash\": 0.001", "\"crash\": -1.0");
        let err = Artifact::from_json(&json, "robustness").unwrap_err();
        assert!(err.contains("corrupted churn plan"), "{err}");
    }

    #[test]
    fn roundtrip_survives_save_and_load() {
        let dir = std::env::temp_dir().join("tcw_replay_test");
        let path = dir.join("failure.json");
        let a = artifact();
        a.save(&path).expect("save");
        let loaded = Artifact::load(&path, "robustness").expect("load");
        assert_eq!(loaded, a);
        assert!(Artifact::load(&path, "churn")
            .unwrap_err()
            .contains("experiment"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Artifact::from_json("not json", "robustness").is_err());
        assert!(Artifact::from_json("{}", "robustness").is_err());
    }

    #[test]
    fn float_formatting_distinguishes_kinds() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(100.0), "100.0");
    }
}
