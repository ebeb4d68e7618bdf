//! The adaptive-window experiment: scenarios, oracle schedules and the
//! run specs of the `adaptive` binary's grid.
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
//! Everything is deterministic: each cell is one
//! [`RunSpec::adaptive`], keyed by
//! [`tcw_sim::rng::stream_seed`]`(BASE_SEED, replicate)`, and controllers
//! draw no RNG, so any cell replays bit for bit from its artifact
//! ([`crate::replay::Artifact`]).

use crate::runner::{tuned_window, Controller, Load, PolicyKind, RunSpec};
use tcw_mac::traffic::VoiceConfig;
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_sim::rng::stream_seed;
use tcw_sim::time::{Dur, Time};
use tcw_window::trace::NoopObserver;

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

/// Packetized voice: mean talkspurt, mean silence, packet interval
/// (ticks).
const VOICE: (u64, u64, u64) = (4_000, 12_000, 400);

fn voice_config() -> VoiceConfig {
    let (talkspurt, silence, interval) = VOICE;
    VoiceConfig {
        stations: STATIONS,
        mean_talkspurt: Dur::from_ticks(talkspurt),
        mean_silence: Dur::from_ticks(silence),
        packet_interval: Dur::from_ticks(interval),
    }
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

    /// The clairvoyant per-segment schedule: `(segment start tick,
    /// window)` pairs, each window §4.1-optimal for that segment's true
    /// rate.
    pub fn oracle_schedule(self) -> Vec<(u64, u64)> {
        match self {
            Scenario::Step => vec![
                (0, tuned_window(STEP_BEFORE)),
                (STEP_AT, tuned_window(STEP_AFTER)),
            ],
            Scenario::Flash => {
                let base = tuned_window(FLASH_BASE);
                let surge = tuned_window(FLASH_BASE * FLASH_SURGE);
                let mut sched = vec![(0, base)];
                for (start, dur) in FLASH_BURSTS {
                    sched.push((start, surge));
                    sched.push((start + dur, base));
                }
                sched
            }
            Scenario::Voice => vec![(0, self.stale_window())],
            Scenario::Adversarial => vec![
                (0, tuned_window(ADV_BASE)),
                (ADV_START, tuned_window(ADV_BASE + ADV_RATE)),
            ],
        }
    }
}

/// The element-(2) choice a cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerKind {
    /// Static window tuned for the pre-change rate.
    Stale,
    /// Per-segment clairvoyant ([`crate::runner::OracleController`]).
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
}

impl RunSpec {
    /// Replicate `replicate` of `scenario` under `controller`: the
    /// controlled protocol on a 4-tick, 5-slot channel, measured over
    /// ticks 10k–290k of a 300k-tick horizon. The window is the stale
    /// tuning for the scenario's first legitimate rate
    /// ([`Scenario::stale_window`]), and the adaptive controllers start
    /// from it, so any improvement is pure adaptation.
    pub fn adaptive(scenario: Scenario, controller: ControllerKind, replicate: u64) -> Self {
        let (mut adv_rate, mut adv_burst, mut adv_start) = (0.0, 0, 0);
        let load = match scenario {
            Scenario::Step => Load::Piecewise(vec![(0, STEP_BEFORE), (STEP_AT, STEP_AFTER)]),
            Scenario::Flash => {
                let mut segments = vec![(0, FLASH_BASE)];
                for (start, dur) in FLASH_BURSTS {
                    segments.push((start, FLASH_BASE * FLASH_SURGE));
                    segments.push((start + dur, FLASH_BASE));
                }
                Load::Piecewise(segments)
            }
            Scenario::Voice => {
                let (talkspurt, silence, interval) = VOICE;
                Load::Voice {
                    talkspurt,
                    silence,
                    interval,
                }
            }
            Scenario::Adversarial => {
                (adv_rate, adv_burst, adv_start) = (ADV_RATE, ADV_BURST, ADV_START);
                Load::Piecewise(vec![(0, ADV_BASE)])
            }
        };
        RunSpec {
            ticks_per_tau: TICKS_PER_TAU,
            message_slots: MESSAGE_SLOTS,
            guard: false,
            policy: PolicyKind::Controlled,
            window_ticks: scenario.stale_window(),
            deadline_ticks: K_TICKS,
            measure_start: MEASURE_START,
            measure_end: MEASURE_END,
            horizon_ticks: HORIZON_TICKS,
            stations: STATIONS,
            load,
            adv_rate,
            adv_burst,
            adv_start,
            controller: match controller {
                ControllerKind::Stale => Controller::Static,
                ControllerKind::Oracle => Controller::Oracle(scenario.oracle_schedule()),
                ControllerKind::Aimd => Controller::Aimd,
                ControllerKind::Estimator => Controller::Estimator,
            },
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            seed: stream_seed(BASE_SEED, replicate),
        }
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

/// Steps the load-step scenario's engine ([`RunSpec::engine`]) under the
/// given controller, sampling the commanded window at each checkpoint
/// (the latest decision at or before it). Returns the samples plus total
/// shrink/grow counts — the worked episode quoted in EXPERIMENTS.md.
pub fn episode(kind: ControllerKind, checkpoints: &[u64]) -> (Vec<EpisodeSample>, u64, u64) {
    let spec = RunSpec::adaptive(Scenario::Step, kind, 0);
    let mut eng = spec.engine();
    let mut obs = NoopObserver;
    let horizon = Time::from_ticks(spec.horizon_ticks);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{execute, Artifact, RECORD_FORMAT};
    use crate::runner::OracleController;
    use std::panic::catch_unwind;
    use tcw_window::{ControlPolicy, WindowController};

    #[test]
    fn oracle_follows_its_schedule() {
        let mut c = OracleController::new(vec![(0, 400), (1_000, 40)]);
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
        assert!(catch_unwind(|| OracleController::new(vec![(5, 10)])).is_err());
        assert!(catch_unwind(|| OracleController::new(vec![(0, 10), (0, 20)])).is_err());
    }

    /// Every coordinate of a cell of the adaptive grid — scenario,
    /// controller, replicate — and the grid's order and size reach the
    /// resume journal's fingerprint of the cells' specs.
    #[test]
    fn fingerprint_covers_the_grid() {
        let fingerprint = |grid: &[(Scenario, ControllerKind, u64)]| {
            let specs = grid.iter().map(|&(s, c, r)| RunSpec::adaptive(s, c, r));
            crate::runner::fingerprint(&specs.collect::<Vec<_>>())
        };
        let grid = [
            (Scenario::Step, ControllerKind::Aimd, 0),
            (Scenario::Flash, ControllerKind::Stale, 1),
        ];
        let base = fingerprint(&grid);
        let mut edited = grid;
        edited[1].2 = 2;
        assert_ne!(fingerprint(&edited), base, "replicate is not covered");
        edited = grid;
        edited[0].1 = ControllerKind::Oracle;
        assert_ne!(fingerprint(&edited), base, "controller is not covered");
        edited = grid;
        edited[0].0 = Scenario::Voice;
        assert_ne!(fingerprint(&edited), base, "scenario is not covered");
        edited = grid;
        edited.swap(0, 1);
        assert_ne!(fingerprint(&edited), base, "grid order is not covered");
        assert_ne!(fingerprint(&grid[..1]), base, "grid size is not covered");
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
        let art = Artifact {
            experiment: "adaptive".to_string(),
            spec: RunSpec::adaptive(Scenario::Adversarial, ControllerKind::Oracle, 1),
            mutation: crate::chaos::Mutation::None,
            kind: "ok".to_string(),
            class: String::new(),
            detail: "loss_bits=0000000000000000 loss=0.000000 offered=7".to_string(),
        };
        let parsed = Artifact::from_json(&art.to_json(), "adaptive").expect("parse");
        assert_eq!(parsed, art);
        let stale = art.to_json().replace(
            &format!("\"record_format\": {RECORD_FORMAT}"),
            "\"record_format\": 0",
        );
        assert!(Artifact::from_json(&stale, "adaptive").is_err());
        let stamp = format!("\"version\": \"{}\"", crate::replay::ARTIFACT_VERSION);
        let stale = art
            .to_json()
            .replace(&stamp, "\"version\": \"0.0.0-stale\"");
        assert!(Artifact::from_json(&stale, "adaptive").is_err());
        assert!(Artifact::from_json(&art.to_json(), "churn").is_err());
    }

    #[test]
    fn execute_is_deterministic() {
        let spec = RunSpec::adaptive(Scenario::Step, ControllerKind::Aimd, 0);
        let a = execute(&spec);
        let b = execute(&spec);
        assert_eq!(a, b);
        assert_eq!(a.0, "ok");
    }

    #[test]
    fn oracle_windows_match_the_analysis() {
        // Stale = pre-change optimum; the step oracle switches to the
        // post-step optimum, 10x smaller.
        let stale = Scenario::Step.stale_window();
        let spec = RunSpec::adaptive(Scenario::Step, ControllerKind::Oracle, 0);
        let Controller::Oracle(sched) = &spec.controller else {
            panic!("not an oracle: {:?}", spec.controller);
        };
        assert_eq!(sched[0], (0, stale));
        assert_eq!(sched[1].0, STEP_AT);
        assert!(sched[1].1 < stale / 5, "{sched:?}");
        assert_eq!(spec.window_ticks, stale);
        spec.check().expect("adaptive specs are valid");
    }
}
