//! The adaptive-window experiment: scenarios, oracle schedules, cell
//! runner and replay artifacts for the `adaptive` binary.
//!
//! The paper tunes the window length offline for a *known, stationary*
//! Poisson rate. This experiment measures what that tuning costs when
//! the assumption breaks: each scenario runs the same channel under a
//! non-stationary or adversarial workload with four element-(2)
//! choices —
//!
//! * `stale`  — the static window tuned for the *pre-change* rate (what
//!   an operator who tuned once and walked away would run);
//! * `oracle` — a per-segment clairvoyant that switches to the §4.1
//!   optimum of each load segment the instant the segment starts
//!   (unrealizable; defines zero regret);
//! * `aimd`   — additive-increase / multiplicative-decrease feedback
//!   control ([`tcw_window::AimdController`]);
//! * `estimator` — online rate estimation re-solving the §4.1 window
//!   rule ([`tcw_window::EstimatorController`]).
//!
//! Regret is `loss - oracle_loss` for the same scenario and seed.
//! Everything is deterministic: cells are keyed by
//! [`tcw_sim::rng::stream_seed`]`(BASE_SEED, replicate)`, controllers
//! draw no RNG, and the per-cell panic guard serializes an
//! [`AdaptiveRecord`] so any failure (or any cell, via `--record`)
//! replays bit-for-bit.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::replay::{load_artifact, panic_message, read_artifact, ArtifactWriter};
use crate::runner::run_to_horizon;
use tcw_mac::traffic::{VoiceConfig, VoiceSource};
use tcw_mac::{
    AdversarialInjector, AdversaryPlan, ArrivalSource, ChannelConfig, MergedSource,
    PiecewiseArrivals, PoissonArrivals,
};
use tcw_sim::rng::stream_seed;
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::metrics::MeasureConfig;
use tcw_window::trace::{EngineObserver, NoopObserver};
use tcw_window::{
    AimdConfig, ControlPolicy, ControllerConfig, Engine, EngineConfig, EstimatorConfig,
    WindowController,
};

/// Base seed; replicate `r` runs under `stream_seed(BASE_SEED, r)`.
pub const BASE_SEED: u64 = 1983;
/// Replicates per (scenario, controller) cell.
pub const REPLICATES: u64 = 2;
/// Arrival horizon in ticks (the engine then drains).
pub const HORIZON_TICKS: u64 = 300_000;
/// Delivery deadline `K` in ticks (75 tau).
pub const K_TICKS: u64 = 300;
/// Station population (shared by every workload).
pub const STATIONS: u32 = 50;

const TICKS_PER_TAU: u64 = 4;
const MESSAGE_SLOTS: u64 = 5;
const MEASURE_START: u64 = 10_000;
const MEASURE_END: u64 = 290_000;

/// Load step: the tuned-for rate, the 10x post-step rate, the instant.
const STEP_BEFORE: f64 = 0.003;
const STEP_AFTER: f64 = 0.03;
const STEP_AT: u64 = 150_000;

/// Flash crowd: base rate, surge multiplier, five 5k-tick bursts.
const FLASH_BASE: f64 = 0.0075;
const FLASH_SURGE: f64 = 8.0;
const FLASH_BURSTS: [(u64, u64); 5] = [
    (50_000, 5_000),
    (100_000, 5_000),
    (150_000, 5_000),
    (200_000, 5_000),
    (250_000, 5_000),
];

/// Adversary: legitimate base rate plus a `(rho, sigma)` injector.
const ADV_BASE: f64 = 0.0075;
const ADV_RATE: f64 = 0.01;
const ADV_BURST: u32 = 10;
const ADV_START: u64 = 20_000;

fn voice_config() -> VoiceConfig {
    VoiceConfig {
        stations: STATIONS,
        mean_talkspurt: Dur::from_ticks(4_000),
        mean_silence: Dur::from_ticks(12_000),
        packet_interval: Dur::from_ticks(400),
    }
}

/// The §4.1 heuristic window (ticks) for an aggregate rate in messages
/// per tick: `w* = mu* / lambda`, rounded, at least 1.
pub fn tuned_window(rate_per_tick: f64) -> u64 {
    ((optimal_mu() / rate_per_tick).round() as u64).max(1)
}

/// One non-stationary or adversarial workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// 10x Poisson rate step at `t = 150_000`.
    Step,
    /// Flash crowd: five 8x surges of 5k ticks each.
    Flash,
    /// Packetized voice (on/off talkspurts) — stationary in the long run
    /// but bursty, so the oracle equals the stale tuning.
    Voice,
    /// Poisson base traffic plus a greedy `(rho, sigma)` bounded-burst
    /// injector from `t = 20_000`.
    Adversarial,
}

impl Scenario {
    /// Every scenario, in sweep order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Step,
        Scenario::Flash,
        Scenario::Voice,
        Scenario::Adversarial,
    ];

    /// Stable short name.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Step => "step",
            Scenario::Flash => "flash",
            Scenario::Voice => "voice",
            Scenario::Adversarial => "adversarial",
        }
    }

    /// Inverse of [`Scenario::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Scenario::ALL.into_iter().find(|sc| sc.label() == s)
    }

    /// The rate (messages per tick) the stale static window was tuned
    /// for — the scenario's initial/legitimate load.
    pub fn tuned_rate(self) -> f64 {
        match self {
            Scenario::Step => STEP_BEFORE,
            Scenario::Flash => FLASH_BASE,
            Scenario::Voice => voice_config().aggregate_rate(),
            Scenario::Adversarial => ADV_BASE,
        }
    }

    /// The stale static window: §4.1-optimal for [`Self::tuned_rate`],
    /// never revised.
    pub fn stale_window(self) -> u64 {
        tuned_window(self.tuned_rate())
    }

    /// The clairvoyant per-segment schedule: `(segment start, window)`
    /// pairs, each window §4.1-optimal for that segment's true rate.
    pub fn oracle_schedule(self) -> Vec<(Time, u64)> {
        let at = |t: u64| Time::from_ticks(t);
        match self {
            Scenario::Step => vec![
                (Time::ZERO, tuned_window(STEP_BEFORE)),
                (at(STEP_AT), tuned_window(STEP_AFTER)),
            ],
            Scenario::Flash => {
                let base = tuned_window(FLASH_BASE);
                let surge = tuned_window(FLASH_BASE * FLASH_SURGE);
                let mut sched = vec![(Time::ZERO, base)];
                for (start, dur) in FLASH_BURSTS {
                    sched.push((at(start), surge));
                    sched.push((at(start + dur), base));
                }
                sched
            }
            Scenario::Voice => vec![(Time::ZERO, self.stale_window())],
            Scenario::Adversarial => vec![
                (Time::ZERO, tuned_window(ADV_BASE)),
                (at(ADV_START), tuned_window(ADV_BASE + ADV_RATE)),
            ],
        }
    }

    /// Builds the workload. Wrapped in a [`MergedSource`] so every
    /// scenario (including the two-stream adversarial one) is the same
    /// concrete engine type.
    pub fn source(self) -> MergedSource {
        let sources: Vec<Box<dyn ArrivalSource>> = match self {
            Scenario::Step => vec![Box::new(PiecewiseArrivals::load_step(
                STEP_BEFORE,
                STEP_AFTER,
                Time::from_ticks(STEP_AT),
                STATIONS,
            ))],
            Scenario::Flash => {
                let bursts: Vec<(Time, Dur)> = FLASH_BURSTS
                    .iter()
                    .map(|&(s, d)| (Time::from_ticks(s), Dur::from_ticks(d)))
                    .collect();
                vec![Box::new(PiecewiseArrivals::flash_crowd(
                    FLASH_BASE,
                    FLASH_SURGE,
                    &bursts,
                    STATIONS,
                ))]
            }
            Scenario::Voice => vec![Box::new(VoiceSource::new(voice_config()))],
            Scenario::Adversarial => vec![
                Box::new(PoissonArrivals::new(ADV_BASE, STATIONS)),
                Box::new(AdversarialInjector::new(AdversaryPlan {
                    rate: ADV_RATE,
                    burst: ADV_BURST,
                    start: Time::from_ticks(ADV_START),
                    stations: STATIONS,
                })),
            ],
        };
        MergedSource::new(sources)
    }
}

/// The per-segment clairvoyant: commands the §4.1-optimal window of
/// whichever load segment contains the current instant. Unrealizable —
/// it knows the workload schedule — and therefore the regret baseline.
/// Ignores feedback entirely, draws no RNG.
#[derive(Clone, Debug)]
pub struct OracleController {
    schedule: Vec<(Time, u64)>,
    last: u64,
}

impl OracleController {
    /// Creates the controller from `(segment start, window)` pairs.
    ///
    /// # Panics
    /// Panics unless the schedule starts at time zero, is strictly
    /// increasing in time, and every window is at least 1 tick.
    pub fn new(schedule: Vec<(Time, u64)>) -> Self {
        assert!(!schedule.is_empty(), "empty oracle schedule");
        assert_eq!(schedule[0].0, Time::ZERO, "schedule must start at 0");
        for pair in schedule.windows(2) {
            assert!(pair[0].0 < pair[1].0, "schedule times must increase");
        }
        assert!(schedule.iter().all(|&(_, w)| w >= 1), "window >= 1");
        let last = schedule[0].1;
        OracleController { schedule, last }
    }
}

impl WindowController for OracleController {
    fn next_length(&mut self, now: Time, _backlog: Dur, _policy: &ControlPolicy) -> u64 {
        self.last = self
            .schedule
            .iter()
            .rev()
            .find(|&&(start, _)| start <= now)
            .expect("schedule starts at 0")
            .1;
        self.last
    }

    fn on_slot(&mut self, _ctx: tcw_window::SlotContext, _outcome: &tcw_mac::SlotOutcome) {}

    fn window_ticks(&self) -> u64 {
        self.last
    }

    fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push(self.last);
    }

    fn load_state(
        &mut self,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        self.last = r.take()?;
        Ok(())
    }
}

/// The element-(2) choice a cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerKind {
    /// Static window tuned for the pre-change rate.
    Stale,
    /// Per-segment clairvoyant ([`OracleController`]).
    Oracle,
    /// [`tcw_window::AimdController`] seeded at the stale window.
    Aimd,
    /// [`tcw_window::EstimatorController`] seeded at the stale window.
    Estimator,
}

impl ControllerKind {
    /// Every controller, in sweep order.
    pub const ALL: [ControllerKind; 4] = [
        ControllerKind::Stale,
        ControllerKind::Oracle,
        ControllerKind::Aimd,
        ControllerKind::Estimator,
    ];

    /// Stable short name.
    pub fn label(self) -> &'static str {
        match self {
            ControllerKind::Stale => "stale",
            ControllerKind::Oracle => "oracle",
            ControllerKind::Aimd => "aimd",
            ControllerKind::Estimator => "estimator",
        }
    }

    /// Inverse of [`ControllerKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        ControllerKind::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Builds the controller for `scenario` (adaptive controllers start
    /// from the same stale window the static baseline runs, so any
    /// improvement is pure adaptation).
    pub fn build(self, scenario: Scenario) -> Box<dyn WindowController> {
        let w = scenario.stale_window();
        match self {
            ControllerKind::Stale => ControllerConfig::Static.build(),
            ControllerKind::Oracle => Box::new(OracleController::new(scenario.oracle_schedule())),
            ControllerKind::Aimd => ControllerConfig::Aimd(AimdConfig::around(w)).build(),
            ControllerKind::Estimator => {
                ControllerConfig::Estimator(EstimatorConfig::around(w)).build()
            }
        }
    }
}

/// What one cell measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellOutcome {
    /// Counted messages in the measurement window.
    pub offered: u64,
    /// Deadline-loss fraction.
    pub loss: f64,
    /// Final commanded window length (ticks).
    pub window_ticks: u64,
    /// Controller shrink events.
    pub shrinks: u64,
    /// Controller grow events.
    pub grows: u64,
}

fn scenario_engine(
    scenario: Scenario,
    kind: ControllerKind,
    replicate: u64,
) -> Engine<MergedSource> {
    let stale = scenario.stale_window();
    let cfg = EngineConfig {
        channel: ChannelConfig {
            ticks_per_tau: TICKS_PER_TAU,
            message_slots: MESSAGE_SLOTS,
            guard: false,
        },
        policy: ControlPolicy::controlled(Dur::from_ticks(K_TICKS), Dur::from_ticks(stale)),
        measure: MeasureConfig {
            start: Time::from_ticks(MEASURE_START),
            end: Time::from_ticks(MEASURE_END),
            deadline: Dur::from_ticks(K_TICKS),
        },
        seed: stream_seed(BASE_SEED, replicate),
    };
    let mut eng = Engine::new(cfg, scenario.source());
    eng.set_controller(kind.build(scenario));
    eng
}

/// Runs one cell to completion (horizon + drain) and reports the
/// outcome; when `sink` is given, the engine's full accounting (via
/// [`run_to_horizon`]) plus controller telemetry is emitted into it
/// after the run.
pub fn run_cell(
    scenario: Scenario,
    kind: ControllerKind,
    replicate: u64,
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) -> CellOutcome {
    let mut eng = scenario_engine(scenario, kind, replicate);
    let horizon = Time::from_ticks(HORIZON_TICKS);
    match sink {
        Some(sink) => {
            run_to_horizon(&mut eng, horizon, obs, Some(&mut *sink));
            eng.controller().emit(sink);
        }
        None => run_to_horizon(&mut eng, horizon, obs, None),
    }
    CellOutcome {
        offered: eng.metrics.offered(),
        loss: eng.metrics.loss_fraction(),
        window_ticks: eng.controller().window_ticks(),
        shrinks: eng.controller().shrinks(),
        grows: eng.controller().grows(),
    }
}

/// One sampled point of a controller's window trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpisodeSample {
    /// Simulation instant (ticks).
    pub tick: u64,
    /// Commanded window at that instant (ticks).
    pub window: u64,
}

/// Steps the load-step scenario under the given controller, sampling the
/// commanded window at each checkpoint (the latest decision at or before
/// it). Returns the samples plus total shrink/grow counts — the worked
/// episode quoted in EXPERIMENTS.md.
pub fn episode(kind: ControllerKind, checkpoints: &[u64]) -> (Vec<EpisodeSample>, u64, u64) {
    let mut eng = scenario_engine(Scenario::Step, kind, 0);
    let mut obs = NoopObserver;
    let horizon = Time::from_ticks(HORIZON_TICKS);
    let mut samples: Vec<EpisodeSample> = Vec::with_capacity(checkpoints.len());
    let mut idx = 0usize;
    let mut window = eng.controller().window_ticks();
    while eng.now() < horizon {
        while idx < checkpoints.len() && eng.now().ticks() > checkpoints[idx] {
            samples.push(EpisodeSample {
                tick: checkpoints[idx],
                window,
            });
            idx += 1;
        }
        eng.step(&mut obs);
        window = eng.controller().window_ticks();
    }
    for &tick in &checkpoints[idx..] {
        samples.push(EpisodeSample { tick, window });
    }
    (
        samples,
        eng.controller().shrinks(),
        eng.controller().grows(),
    )
}

/// Everything needed to reproduce one adaptive cell bit-for-bit.
///
/// Same flat-JSON conventions as [`crate::replay::FailureRecord`]:
/// version-stamped, scalar fields only, stale or corrupted artifacts are
/// rejected rather than silently replaying a different timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveRecord {
    /// Workload.
    pub scenario: Scenario,
    /// Element-(2) choice.
    pub controller: ControllerKind,
    /// Replicate index (the run's seed is `stream_seed(BASE_SEED, r)`).
    pub replicate: u64,
    /// Outcome class: `"ok"` or `"panic"`.
    pub kind: String,
    /// The outcome itself: the exact loss bits and offered count, or the
    /// panic payload.
    pub detail: String,
}

impl AdaptiveRecord {
    /// Serializes the record as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut w = ArtifactWriter::new(Some("adaptive"));
        w.str("scenario", self.scenario.label());
        w.str("controller", self.controller.label());
        w.u64("replicate", self.replicate);
        w.str("kind", &self.kind);
        w.str("detail", &self.detail);
        w.finish()
    }

    /// Parses a record previously written by [`AdaptiveRecord::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let r = read_artifact(text, Some("adaptive"))?;
        let scenario_label = r.str("scenario")?;
        let scenario = Scenario::parse(scenario_label)
            .ok_or_else(|| format!("unknown scenario {scenario_label:?}"))?;
        let controller_label = r.str("controller")?;
        let controller = ControllerKind::parse(controller_label)
            .ok_or_else(|| format!("unknown controller {controller_label:?}"))?;
        Ok(AdaptiveRecord {
            scenario,
            controller,
            replicate: r.u64("replicate")?,
            kind: r.str("kind")?.to_string(),
            detail: r.str("detail")?.to_string(),
        })
    }

    /// Writes the record to `path` atomically, creating parent directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        tcw_sim::record::write_atomic(path, &self.to_json())
    }

    /// Loads a record from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::from_json(&load_artifact(path)?)
    }
}

/// Executes the cell a record describes and returns the observed
/// `(kind, detail)` — `("ok", ...)` carrying the exact loss bits and
/// offered count. Deterministic: the same record always returns the
/// same pair.
pub fn execute(rec: &AdaptiveRecord) -> (String, String) {
    let run = || {
        let out = run_cell(
            rec.scenario,
            rec.controller,
            rec.replicate,
            &mut NoopObserver,
            None,
        );
        (
            "ok".to_string(),
            format!(
                "loss_bits={:016x} loss={:.6} offered={}",
                out.loss.to_bits(),
                out.loss,
                out.offered
            ),
        )
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => ("panic".to_string(), panic_message(payload)),
    }
}

/// Replays an artifact; returns the process exit code (`0` when the
/// replay reproduced the recorded outcome, [`crate::diag::EXIT_FAILURE`]
/// otherwise).
pub fn replay(path: &Path) -> i32 {
    let rec = match AdaptiveRecord::load(path) {
        Ok(r) => r,
        Err(e) => {
            crate::diag::error("adaptive", &format!("cannot load artifact: {e}"));
            return crate::diag::EXIT_FAILURE;
        }
    };
    println!(
        "replaying {} (scenario={}, controller={}, replicate={})",
        path.display(),
        rec.scenario.label(),
        rec.controller.label(),
        rec.replicate
    );
    let (kind, detail) = execute(&rec);
    println!("recorded: [{}] {}", rec.kind, rec.detail);
    println!("replayed: [{kind}] {detail}");
    if kind == rec.kind && detail == rec.detail {
        println!("replay reproduced the identical outcome");
        0
    } else {
        crate::diag::error("adaptive", "REPLAY DIVERGED from the recorded outcome");
        crate::diag::EXIT_FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_follows_its_schedule() {
        let mut c = OracleController::new(vec![(Time::ZERO, 400), (Time::from_ticks(1_000), 40)]);
        let p = ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(400));
        assert_eq!(c.next_length(Time::ZERO, Dur::from_ticks(10), &p), 400);
        assert_eq!(
            c.next_length(Time::from_ticks(999), Dur::from_ticks(10), &p),
            400
        );
        assert_eq!(
            c.next_length(Time::from_ticks(1_000), Dur::from_ticks(10), &p),
            40
        );
        assert_eq!(c.window_ticks(), 40);
        assert_eq!(c.shrinks() + c.grows(), 0);
    }

    #[test]
    fn oracle_rejects_bad_schedules() {
        assert!(catch_unwind(|| OracleController::new(vec![])).is_err());
        assert!(catch_unwind(|| OracleController::new(vec![(Time::from_ticks(5), 10)])).is_err());
        assert!(
            catch_unwind(|| OracleController::new(vec![(Time::ZERO, 10), (Time::ZERO, 20),]))
                .is_err()
        );
    }

    #[test]
    fn labels_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.label()), Some(s));
        }
        for c in ControllerKind::ALL {
            assert_eq!(ControllerKind::parse(c.label()), Some(c));
        }
        assert_eq!(Scenario::parse("nope"), None);
        assert_eq!(ControllerKind::parse("nope"), None);
    }

    #[test]
    fn record_round_trips_and_rejects_stale_versions() {
        let rec = AdaptiveRecord {
            scenario: Scenario::Adversarial,
            controller: ControllerKind::Aimd,
            replicate: 1,
            kind: "ok".to_string(),
            detail: "loss_bits=0000000000000000 loss=0.000000 offered=7".to_string(),
        };
        let parsed = AdaptiveRecord::from_json(&rec.to_json()).expect("parse");
        assert_eq!(parsed, rec);
        let stamp = format!("\"version\": \"{}\"", crate::replay::ARTIFACT_VERSION);
        let stale = rec
            .to_json()
            .replace(&stamp, "\"version\": \"0.0.0-stale\"");
        assert!(AdaptiveRecord::from_json(&stale).is_err());
        let wrong = rec
            .to_json()
            .replace("\"experiment\": \"adaptive\"", "\"experiment\": \"churn\"");
        assert!(AdaptiveRecord::from_json(&wrong).is_err());
    }

    #[test]
    fn execute_is_deterministic() {
        let rec = AdaptiveRecord {
            scenario: Scenario::Step,
            controller: ControllerKind::Aimd,
            replicate: 0,
            kind: String::new(),
            detail: String::new(),
        };
        let a = execute(&rec);
        let b = execute(&rec);
        assert_eq!(a, b);
        assert_eq!(a.0, "ok");
    }

    #[test]
    fn oracle_windows_match_the_analysis() {
        // Stale = pre-change optimum; the step oracle switches to the
        // post-step optimum, 10x smaller.
        let stale = Scenario::Step.stale_window();
        let sched = Scenario::Step.oracle_schedule();
        assert_eq!(sched[0].1, stale);
        assert!(sched[1].1 < stale / 5, "{sched:?}");
    }
}
