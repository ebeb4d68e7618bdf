//! The one run description: a [`RunSpec`] holds every input of one
//! simulation run, [`RunSpec::engine`] is the one place an engine is
//! built from it, and its run methods are how every sweep runs one.

use crate::panels::Panel;
use tcw_mac::traffic::{VoiceConfig, VoiceSource};
use tcw_mac::{
    AdversarialInjector, AdversaryPlan, Arrival, ArrivalSource, ChannelConfig, ChurnPlan,
    FaultPlan, MergedSource, PiecewiseArrivals, PoissonArrivals, RateStep, SlotOutcome,
};
use tcw_sim::rng::Rng;
use tcw_sim::snap::{checksum, SnapError, SnapReader, SnapWriter};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::{Engine, EngineConfig, HorizonStats};
use tcw_window::metrics::MeasureConfig;
use tcw_window::mirror::DivergenceDetector;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::{EngineObserver, NoopObserver};
use tcw_window::{AimdConfig, ControllerConfig, EstimatorConfig, SlotContext, WindowController};

/// Which protocol variant to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's controlled protocol (Theorem 1 + discard + heuristic
    /// window).
    Controlled,
    /// Uncontrolled FCFS ([Kurose 83]); receiver losses only.
    Fcfs,
    /// Uncontrolled LCFS ([Kurose 83]); receiver losses only.
    Lcfs,
    /// Uncontrolled RANDOM order ([Kurose 83]); receiver losses only.
    Random,
}

impl PolicyKind {
    /// Every variant.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Controlled,
        PolicyKind::Fcfs,
        PolicyKind::Lcfs,
        PolicyKind::Random,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Controlled => "controlled",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Lcfs => "lcfs",
            PolicyKind::Random => "random",
        }
    }

    /// Inverse of [`PolicyKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        PolicyKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Simulation-size knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSettings {
    /// Ticks per propagation delay.
    pub ticks_per_tau: u64,
    /// Measured messages (after warm-up).
    pub messages: u64,
    /// Warm-up messages.
    pub warmup: u64,
    /// Number of stations.
    pub stations: u32,
    /// Guard slot after transmissions.
    pub guard: bool,
}

impl Default for SimSettings {
    fn default() -> Self {
        SimSettings {
            ticks_per_tau: 64,
            messages: 40_000,
            warmup: 4_000,
            stations: 50,
            guard: false,
        }
    }
}

/// One simulated point.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    /// Deadline in `tau`.
    pub k: f64,
    /// Total loss fraction (sender + receiver).
    pub loss: f64,
    /// 95% CI half-width (binomial).
    pub ci95: f64,
    /// Sender-discard fraction of offered messages.
    pub sender_loss: f64,
    /// Mean scheduling time of transmitted messages (in `tau`).
    pub sched_time_mean: f64,
    /// Mean overhead slots of rounds ending in a transmission.
    pub round_overhead_mean: f64,
    /// Channel utilization (fraction of time carrying successes).
    pub utilization: f64,
    /// Offered (counted) messages.
    pub offered: u64,
}

/// Degradation counters of one fault-injected run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounters {
    /// Slots whose feedback an injected fault corrupted (misdetections).
    pub corrupted_slots: u64,
    /// Slots whose feedback was erased.
    pub erased_slots: u64,
    /// Backoff/re-probe resynchronizations after detectable corruption.
    pub resyncs: u64,
    /// Windowing rounds abandoned after exhausting the retry budget.
    pub rounds_abandoned: u64,
    /// Examined intervals reopened for fault-stranded messages.
    pub reopened: u64,
    /// Losses attributable to a fault on the message's trajectory.
    pub fault_losses: u64,
}

/// Membership and recovery counters of one churn-enabled run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCounters {
    /// Station crashes.
    pub crashes: u64,
    /// Station restarts (every crash eventually restarts).
    pub restarts: u64,
    /// Late joins.
    pub joins: u64,
    /// Permanent leaves.
    pub leaves: u64,
    /// Arrivals refused because the station was down.
    pub blocked: u64,
    /// Counted messages lost to a crash or leave (as opposed to the K
    /// deadline).
    pub losses: u64,
    /// Examined intervals reopened to recover a rejoining station's
    /// backlog.
    pub reopened: u64,
    /// Mean rejoin latency (probe slots from restart to the recovery
    /// beacon); `NaN` when no station rejoined.
    pub rejoin_mean_slots: f64,
    /// Worst rejoin latency in probe slots (0 when no station rejoined).
    pub rejoin_max_slots: f64,
}

/// The window controller's final state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerCounters {
    /// Last commanded window length (ticks).
    pub window_ticks: u64,
    /// Feedback events that shrank the window.
    pub shrinks: u64,
    /// Feedback events that grew the window.
    pub grows: u64,
}

/// Age-of-Information summary of one run, in units of `tau`.
///
/// The underlying sawtooth integral is exact integer arithmetic over
/// ticks (see `tcw_window::metrics::AgeTracker`); the conversion to
/// `tau` happens only here, at the reporting boundary.
#[derive(Clone, Copy, Debug)]
pub struct AoiPoint {
    /// Deadline `K` in units of `tau` (grid coordinate).
    pub k: f64,
    /// Time-averaged age across observed stations, in `tau`.
    pub mean_age_tau: f64,
    /// Mean of the per-station peak ages, in `tau`.
    pub peak_age_tau: f64,
    /// Fraction of observed time the age exceeded the deadline `K`.
    pub violation: f64,
    /// Source-to-monitor deliveries the tracker observed.
    pub deliveries: u64,
    /// Stations that delivered at least once (age is undefined for the
    /// rest — they never produced a sample to monitor).
    pub stations_observed: u64,
}

/// Everything one run measures: the conventional point, the fault and
/// churn counters, the controller's final state, the Age-of-Information
/// summary and the event-horizon fast-path counters. A clean run reads
/// all-zero fault and churn counters.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
    /// Membership/recovery counters.
    pub churn: ChurnCounters,
    /// The window controller's final state.
    pub controller: ControllerCounters,
    /// The Age-of-Information summary.
    pub aoi: AoiPoint,
    /// Event-horizon fast-path counters (telemetry only — excluded from
    /// equivalence fingerprints; sweeps feed them into the live progress
    /// line's `[hzn: ...]` segment).
    pub horizon: HorizonStats,
}

/// Converts the message-count knobs into the measurement window at
/// offered rate `lambda` (messages per `tau`): warm up for
/// `settings.warmup` expected messages, then measure for
/// `settings.messages` expected messages.
///
/// Every run that measures loss goes through this helper — every panel
/// spec ([`RunSpec::panel`]) and the ablation binary — so "the window
/// where metrics count" is defined exactly once.
pub fn measure_window(lambda: f64, settings: SimSettings, deadline: Dur) -> MeasureConfig {
    let ticks_per_msg = settings.ticks_per_tau as f64 / lambda;
    let warmup_end = (settings.warmup as f64 * ticks_per_msg) as u64;
    let measure_end = warmup_end + (settings.messages as f64 * ticks_per_msg) as u64;
    MeasureConfig {
        start: Time::from_ticks(warmup_end),
        end: Time::from_ticks(measure_end),
        deadline,
    }
}

/// The run horizon for a measurement window: continue 10% of the window
/// past its end so late messages resolve under realistic load, plus a
/// 64-`tau` tail, before the final drain.
pub fn run_horizon(measure: MeasureConfig, ticks_per_tau: u64) -> Time {
    let start = measure.start.ticks();
    let end = measure.end.ticks();
    Time::from_ticks(end + (end - start) / 10 + 64 * ticks_per_tau)
}

/// The §4.1 heuristic window (ticks) for an aggregate rate in messages
/// per tick: `w* = mu* / lambda`, rounded, at least 1.
pub fn tuned_window(rate_per_tick: f64) -> u64 {
    ((optimal_mu() / rate_per_tick).round() as u64).max(1)
}

/// Drives an engine to its horizon and through the final drain, ends the
/// age read-outs at the run's last instant
/// ([`tcw_window::metrics::Metrics::end_run`]; an unbounded measurement
/// window would otherwise run every age tail to `Time::MAX`), then —
/// when a sink is attached — registers the engine's own accounting with
/// it: metrics, channel stats, churn counters, and the event-horizon
/// fast-path counters (`tcw_horizon_*`). Every run shares this sequence;
/// telemetry specific to a call site (invariant monitor, divergence
/// detector) stays with the caller.
pub fn run_to_horizon<S: ArrivalSource>(
    eng: &mut Engine<S>,
    horizon: Time,
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) {
    eng.run_until(horizon, obs);
    eng.drain(obs);
    eng.metrics.end_run(eng.now());
    if let Some(sink) = sink {
        eng.metrics.emit(sink);
        eng.channel_stats.emit(sink);
        eng.churn().emit(sink);
        eng.horizon_stats.emit(sink);
    }
}

/// The legitimate load of a run.
#[derive(Clone, Debug, PartialEq)]
pub enum Load {
    /// Piecewise-constant Poisson arrivals: `(start tick, messages per
    /// tick)` segments, the first at tick 0. One segment draws
    /// bit-identically to [`tcw_mac::PoissonArrivals`] at that rate.
    Piecewise(Vec<(u64, f64)>),
    /// Packetized voice ([`VoiceSource`]) over the run's stations: mean
    /// talkspurt, mean silence and packet interval, in ticks.
    Voice {
        /// Mean talkspurt (ON period) in ticks.
        talkspurt: u64,
        /// Mean silence (OFF period) in ticks.
        silence: u64,
        /// Packetization interval in ticks.
        interval: u64,
    },
}

impl Load {
    /// The piecewise segments (empty for voice).
    pub fn segments(&self) -> &[(u64, f64)] {
        match self {
            Load::Piecewise(segments) => segments,
            Load::Voice { .. } => &[],
        }
    }
}

/// The element-(2) window controller of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Controller {
    /// The policy's static window (bit-identical to a controller-free
    /// build).
    Static,
    /// Per-segment clairvoyant ([`OracleController`]): `(start tick,
    /// window ticks)` pairs, the first at tick 0.
    Oracle(Vec<(u64, u64)>),
    /// [`tcw_window::AimdController`] seeded at the run's window.
    Aimd,
    /// [`tcw_window::EstimatorController`] seeded at the run's window.
    Estimator,
}

impl Controller {
    /// The controllers that carry no parameters.
    pub const PLAIN: [Controller; 3] =
        [Controller::Static, Controller::Aimd, Controller::Estimator];

    /// Stable short name.
    pub fn label(&self) -> &'static str {
        match self {
            Controller::Static => "static",
            Controller::Oracle(_) => "oracle",
            Controller::Aimd => "aimd",
            Controller::Estimator => "estimator",
        }
    }

    fn build(&self, window: u64) -> Box<dyn WindowController> {
        match self {
            Controller::Static => ControllerConfig::Static.build(),
            Controller::Oracle(schedule) => Box::new(OracleController::new(schedule.clone())),
            Controller::Aimd => ControllerConfig::Aimd(AimdConfig::around(window)).build(),
            Controller::Estimator => {
                ControllerConfig::Estimator(EstimatorConfig::around(window)).build()
            }
        }
    }
}

/// The per-segment clairvoyant: commands the window of whichever segment
/// of its schedule contains the current instant. Unrealizable — it knows
/// the workload schedule — and therefore a regret baseline. Ignores
/// feedback entirely, draws no RNG.
#[derive(Clone, Debug)]
pub struct OracleController {
    schedule: Vec<(u64, u64)>,
    last: u64,
}

impl OracleController {
    /// Creates the controller from `(start tick, window ticks)` pairs.
    ///
    /// # Panics
    /// Panics unless the schedule starts at tick zero, is strictly
    /// increasing in time, and every window is at least 1 tick.
    pub fn new(schedule: Vec<(u64, u64)>) -> Self {
        starts_from_zero("oracle schedule", schedule.iter().map(|s| s.0))
            .unwrap_or_else(|e| panic!("{e}"));
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
            .find(|&&(start, _)| start <= now.ticks())
            .expect("schedule starts at 0")
            .1;
        self.last
    }

    fn on_slot(&mut self, _ctx: SlotContext, _outcome: &SlotOutcome) {}

    fn window_ticks(&self) -> u64 {
        self.last
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.push(self.last);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.last = r.take()?;
        Ok(())
    }
}

/// The arrival source a spec builds: one stationary Poisson stream on
/// static dispatch (one load segment and no adversary — every panel
/// run), or a merged stream for every other load.
pub enum RunSource {
    /// A lone stationary Poisson stream.
    Poisson(PoissonArrivals),
    /// Piecewise or voice load, with the adversary when there is one.
    Merged(MergedSource),
}

impl ArrivalSource for RunSource {
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival> {
        match self {
            RunSource::Poisson(s) => s.next_arrival(rng),
            RunSource::Merged(s) => s.next_arrival(rng),
        }
    }
}

/// Every input of one simulation run, flat and self-describing.
///
/// A sweep grid is a list of specs, a resume journal fingerprints them
/// ([`fingerprint`]) and a replay artifact records one
/// ([`crate::replay::Artifact`]). Running a spec is a pure function of
/// its fields — the master seed is one of them — and its record writes
/// every field, so the fingerprint covers every input by construction.
/// The constructors are [`RunSpec::panel`], [`RunSpec::adaptive`],
/// [`RunSpec::chaos_sample`] and [`RunSpec::chaos_inject`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Ticks per propagation delay `tau`.
    pub ticks_per_tau: u64,
    /// Message length `M` in units of `tau`.
    pub message_slots: u64,
    /// Guard slot after transmissions.
    pub guard: bool,
    /// Protocol variant.
    pub policy: PolicyKind,
    /// Window length in ticks: element (2) of the policy, and the start
    /// of every adaptive controller.
    pub window_ticks: u64,
    /// Delivery deadline `K` in ticks.
    pub deadline_ticks: u64,
    /// First tick of the measurement window.
    pub measure_start: u64,
    /// End of the measurement window (`u64::MAX`: unbounded).
    pub measure_end: u64,
    /// Arrival horizon in ticks; the engine then drains.
    pub horizon_ticks: u64,
    /// Station population.
    pub stations: u32,
    /// Legitimate load.
    pub load: Load,
    /// Adversarial injection rate (messages per tick).
    pub adv_rate: f64,
    /// Adversarial burst size `sigma` (0 = no adversary).
    pub adv_burst: u32,
    /// First adversarial burst instant (ticks).
    pub adv_start: u64,
    /// Element-(2) controller.
    pub controller: Controller,
    /// Injected feedback faults (its deafness fields configure
    /// [`RunSpec::detector`]; the shared medium ignores them).
    pub faults: FaultPlan,
    /// Injected churn (its listener outage configures
    /// [`RunSpec::detector`]).
    pub churn: ChurnPlan,
    /// Master seed.
    pub seed: u64,
}

impl RunSpec {
    /// A Figure-7-style panel run: `panel`'s Poisson load under `policy`
    /// at deadline `k_tau`, with the window at the §4.1 heuristic for the
    /// offered rate, `w* = mu* / lambda` (the value the analytic marching
    /// uses), measured over [`measure_window`] and run to [`run_horizon`].
    /// Fault- and churn-free; sweeps override [`RunSpec::faults`] and
    /// [`RunSpec::churn`].
    pub fn panel(
        panel: Panel,
        policy: PolicyKind,
        k_tau: f64,
        settings: SimSettings,
        seed: u64,
    ) -> Self {
        let tpt = settings.ticks_per_tau as f64;
        let lambda = panel.lambda();
        let deadline = Dur::from_ticks((k_tau * tpt).round() as u64);
        let measure = measure_window(lambda, settings, deadline);
        RunSpec {
            ticks_per_tau: settings.ticks_per_tau,
            message_slots: panel.m,
            guard: settings.guard,
            policy,
            window_ticks: (optimal_mu() / lambda * tpt).round().max(1.0) as u64,
            deadline_ticks: deadline.ticks(),
            measure_start: measure.start.ticks(),
            measure_end: measure.end.ticks(),
            horizon_ticks: run_horizon(measure, settings.ticks_per_tau).ticks(),
            stations: settings.stations,
            load: Load::Piecewise(vec![(0, lambda / tpt)]),
            adv_rate: 0.0,
            adv_burst: 0,
            adv_start: 0,
            controller: Controller::Static,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            seed,
        }
    }

    /// Validates every field, so a corrupted or hand-edited record
    /// degrades to an error instead of a panic or a nonsense run.
    pub fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("ticks_per_tau", self.ticks_per_tau),
            ("message_slots", self.message_slots),
            ("window_ticks", self.window_ticks),
            ("deadline_ticks", self.deadline_ticks),
            ("horizon_ticks", self.horizon_ticks),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if self.stations < 2 {
            return Err("stations must be at least 2".to_string());
        }
        if self.measure_start > self.measure_end {
            return Err("measurement window starts after it ends".to_string());
        }
        match &self.load {
            Load::Piecewise(segments) => {
                starts_from_zero("load segment", segments.iter().map(|s| s.0))?;
                if !segments.iter().all(|&(_, r)| r > 0.0 && r.is_finite()) {
                    return Err("load rates must be positive and finite".to_string());
                }
            }
            Load::Voice {
                talkspurt,
                silence,
                interval,
            } => {
                if [talkspurt, silence, interval].contains(&&0) {
                    return Err("voice durations must be at least 1 tick".to_string());
                }
            }
        }
        if !(self.adv_rate >= 0.0 && self.adv_rate.is_finite()) {
            return Err("adversary rate must be non-negative and finite".to_string());
        }
        if self.adv_burst > 0 && self.adv_rate == 0.0 {
            return Err("adversary burst without a rate".to_string());
        }
        if let Controller::Oracle(schedule) = &self.controller {
            starts_from_zero("oracle schedule", schedule.iter().map(|s| s.0))?;
            if schedule.iter().any(|&(_, w)| w == 0) {
                return Err("oracle windows must be at least 1 tick".to_string());
            }
        }
        self.faults
            .check()
            .map_err(|e| format!("corrupted fault plan: {e}"))?;
        self.churn
            .check()
            .map_err(|e| format!("corrupted churn plan: {e}"))
    }

    /// The channel the run uses.
    pub fn channel(&self) -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: self.ticks_per_tau,
            message_slots: self.message_slots,
            guard: self.guard,
        }
    }

    /// The protocol the run uses: [`RunSpec::policy`] at
    /// [`RunSpec::window_ticks`], discarding after the deadline when
    /// controlled.
    pub fn control_policy(&self) -> ControlPolicy {
        let w = Dur::from_ticks(self.window_ticks);
        match self.policy {
            PolicyKind::Controlled => {
                ControlPolicy::controlled(Dur::from_ticks(self.deadline_ticks), w)
            }
            PolicyKind::Fcfs => ControlPolicy::fcfs(w),
            PolicyKind::Lcfs => ControlPolicy::lcfs(w),
            PolicyKind::Random => ControlPolicy::random(w),
        }
    }

    /// Station 0's [`DivergenceDetector`] for this run: the deafness
    /// parameters come from the fault plan and the listener outage from
    /// the churn plan. Pass it to [`RunSpec::run_observed`] and read its
    /// accessors afterwards.
    pub fn detector(&self) -> DivergenceDetector {
        DivergenceDetector::new(
            self.control_policy(),
            self.seed,
            0,
            self.faults.deafness,
            self.faults.deaf_slots,
        )
        .with_outage(self.churn.outage_start_slot, self.churn.outage_slots)
    }

    fn source(&self) -> RunSource {
        let piecewise = |segments: &[(u64, f64)]| {
            let steps = segments
                .iter()
                .map(|&(start, rate_per_tick)| RateStep {
                    start: Time::from_ticks(start),
                    rate_per_tick,
                })
                .collect();
            PiecewiseArrivals::new(steps, self.stations)
        };
        let legit: Box<dyn ArrivalSource> = match &self.load {
            // One segment from tick 0 draws bit-identically to the
            // stationary source.
            Load::Piecewise(segments) if segments.len() == 1 && self.adv_burst == 0 => {
                return RunSource::Poisson(PoissonArrivals::new(segments[0].1, self.stations));
            }
            Load::Piecewise(segments) => Box::new(piecewise(segments)),
            &Load::Voice {
                talkspurt,
                silence,
                interval,
            } => Box::new(VoiceSource::new(VoiceConfig {
                stations: self.stations,
                mean_talkspurt: Dur::from_ticks(talkspurt),
                mean_silence: Dur::from_ticks(silence),
                packet_interval: Dur::from_ticks(interval),
            })),
        };
        let mut sources = vec![legit];
        if self.adv_burst > 0 {
            sources.push(Box::new(AdversarialInjector::new(AdversaryPlan {
                rate: self.adv_rate,
                burst: self.adv_burst,
                start: Time::from_ticks(self.adv_start),
                stations: self.stations,
            })));
        }
        RunSource::Merged(MergedSource::new(sources))
    }

    /// Builds the engine the spec describes: channel, policy, measurement
    /// window, seed, source, both plans and the controller. The one place
    /// a run's engine is made.
    pub fn engine(&self) -> Engine<RunSource> {
        let cfg = EngineConfig {
            channel: self.channel(),
            policy: self.control_policy(),
            measure: MeasureConfig {
                start: Time::from_ticks(self.measure_start),
                end: Time::from_ticks(self.measure_end),
                deadline: Dur::from_ticks(self.deadline_ticks),
            },
            seed: self.seed,
        };
        let mut eng = Engine::new(cfg, self.source());
        eng.set_fault_plan(self.faults);
        eng.set_churn_plan(self.churn, self.stations);
        eng.set_controller(self.controller.build(self.window_ticks));
        eng
    }

    /// Builds the engine, runs it to the horizon and through the final
    /// drain with `obs` attached ([`run_to_horizon`]), and registers its
    /// accounting with `sink` — the `tcw_controller_*` families too,
    /// unless the controller is static. Returns the finished engine for
    /// callers that check it further (the chaos harness's invariant
    /// monitor).
    pub fn run_engine(
        &self,
        obs: &mut dyn EngineObserver,
        sink: Option<&mut dyn MetricSink>,
    ) -> Engine<RunSource> {
        let mut eng = self.engine();
        let horizon = Time::from_ticks(self.horizon_ticks);
        match sink {
            Some(sink) => {
                run_to_horizon(&mut eng, horizon, obs, Some(&mut *sink));
                if self.controller != Controller::Static {
                    eng.controller().emit(sink);
                }
            }
            None => run_to_horizon(&mut eng, horizon, obs, None),
        }
        eng
    }

    /// Runs the spec to completion.
    pub fn run(&self) -> CellResult {
        self.run_observed(&mut NoopObserver, None)
    }

    /// Runs the spec with telemetry attached: protocol events stream to
    /// `obs` during the run, and after the final drain the engine's
    /// accounting registers itself with `sink` (see
    /// [`RunSpec::run_engine`]).
    ///
    /// Observers and sinks are strictly passive — they receive data but
    /// never draw from an RNG stream — so the result is bit-identical to
    /// [`RunSpec::run`] whatever is attached.
    pub fn run_observed(
        &self,
        obs: &mut dyn EngineObserver,
        sink: Option<&mut dyn MetricSink>,
    ) -> CellResult {
        self.collect(&self.run_engine(obs, sink))
    }

    /// Collects the result from a finished engine, asserting the
    /// run-level invariants (full drain, conservation of channel time).
    fn collect(&self, eng: &Engine<RunSource>) -> CellResult {
        let m = &eng.metrics;
        assert_eq!(m.outstanding(), 0, "unresolved messages after drain");
        assert_eq!(
            eng.channel_stats.total().ticks(),
            eng.now().ticks(),
            "channel time not conserved"
        );
        let tpt = self.ticks_per_tau as f64;
        let k = self.deadline_ticks as f64 / tpt;
        let offered = m.offered();
        let process = eng.churn();
        let rejoin = m.rejoin_latency();
        let aoi = m.aoi();
        let controller = eng.controller();
        CellResult {
            point: SimPoint {
                k,
                loss: m.loss_fraction(),
                ci95: m.loss_ci95(),
                sender_loss: if offered == 0 {
                    0.0
                } else {
                    m.sender_lost() as f64 / offered as f64
                },
                sched_time_mean: m.sched_time().mean() / tpt,
                round_overhead_mean: m.sched_slots().mean(),
                utilization: eng.channel_stats.utilization(),
                offered,
            },
            faults: FaultCounters {
                corrupted_slots: m.corrupted_slots(),
                erased_slots: m.erased_slots(),
                resyncs: m.resyncs(),
                rounds_abandoned: m.rounds_abandoned(),
                reopened: m.reopened(),
                fault_losses: m.fault_losses(),
            },
            churn: ChurnCounters {
                crashes: process.crashes(),
                restarts: process.restarts(),
                joins: process.joins(),
                leaves: process.leaves(),
                blocked: m.churn_blocked(),
                losses: m.churn_losses(),
                reopened: m.churn_reopened(),
                rejoin_mean_slots: rejoin.mean(),
                rejoin_max_slots: if rejoin.count() == 0 {
                    0.0
                } else {
                    rejoin.max()
                },
            },
            controller: ControllerCounters {
                window_ticks: controller.window_ticks(),
                shrinks: controller.shrinks(),
                grows: controller.grows(),
            },
            aoi: AoiPoint {
                k,
                mean_age_tau: aoi.mean_age().unwrap_or(0.0) / tpt,
                peak_age_tau: aoi.peak_age().mean() / tpt,
                violation: aoi.violation_fraction().unwrap_or(0.0),
                deliveries: aoi.deliveries(),
                stations_observed: aoi.stations_observed(),
            },
            horizon: eng.horizon_stats,
        }
    }
}

/// Checks that `starts` is non-empty, begins at tick 0 and strictly
/// increases.
fn starts_from_zero(what: &str, starts: impl Iterator<Item = u64>) -> Result<(), String> {
    let mut prev = None;
    for start in starts {
        match prev {
            None if start != 0 => return Err(format!("{what} must start at tick 0")),
            Some(p) if start <= p => return Err(format!("{what} starts must increase")),
            _ => prev = Some(start),
        }
    }
    prev.map(|_| ()).ok_or_else(|| format!("empty {what} list"))
}

/// The resume journal's grid fingerprint: a checksum over every spec's
/// record ([`RunSpec::record`]), in grid order. The record writes every
/// field, so an edit to any input of any cell, or to the grid's order or
/// length, makes an old journal stale.
pub fn fingerprint<'a>(specs: impl IntoIterator<Item = &'a RunSpec>) -> u64 {
    let mut w = SnapWriter::new();
    for spec in specs {
        w.push_str(&spec.record());
    }
    checksum(&w.into_words())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::PANELS;
    use tcw_sim::record::Record;

    fn quick() -> SimSettings {
        SimSettings {
            messages: 4_000,
            warmup: 400,
            ticks_per_tau: 16,
            ..Default::default()
        }
    }

    fn point(panel: Panel, kind: PolicyKind, k_tau: f64, seed: u64) -> SimPoint {
        RunSpec::panel(panel, kind, k_tau, quick(), seed)
            .run()
            .point
    }

    #[test]
    fn controlled_loss_decreases_with_k() {
        let panel = PANELS[4]; // rho' = 0.75, M = 25
        let p_small = point(panel, PolicyKind::Controlled, 25.0, 1);
        let p_large = point(panel, PolicyKind::Controlled, 400.0, 1);
        assert!(
            p_large.loss < p_small.loss,
            "loss did not decrease: {} -> {}",
            p_small.loss,
            p_large.loss
        );
        assert!(p_small.offered > 3_000);
    }

    #[test]
    fn controlled_beats_fcfs_at_tight_k() {
        let panel = PANELS[4];
        let k = 100.0;
        let c = point(panel, PolicyKind::Controlled, k, 2);
        let f = point(panel, PolicyKind::Fcfs, k, 2);
        assert!(c.loss < f.loss, "controlled {} !< fcfs {}", c.loss, f.loss);
    }

    #[test]
    fn light_load_large_k_loss_is_negligible() {
        let panel = PANELS[0]; // rho' = 0.25, M = 25
        let p = point(panel, PolicyKind::Controlled, 400.0, 3);
        assert!(p.loss < 0.01, "loss = {}", p.loss);
        assert!(p.utilization > 0.15 && p.utilization < 0.35);
    }

    /// `text` with the value of `key` replaced by `token`.
    fn with_value(text: &str, key: &str, token: &str) -> String {
        let prefix = format!("  \"{key}\": ");
        let lines: Vec<String> = text
            .lines()
            .map(|line| match line.strip_prefix(&prefix) {
                Some(old) => {
                    let comma = if old.ends_with(',') { "," } else { "" };
                    format!("{prefix}{token}{comma}")
                }
                None => line.to_string(),
            })
            .collect();
        lines.join("\n")
    }

    /// A different value for `key`'s token in `text`: integers flip their
    /// low bit, floats halve (zero becomes 0.5), booleans flip, a string
    /// holding digits bumps its first digit, and a label becomes another
    /// label that still parses.
    fn perturbed(text: &str, key: &str) -> String {
        let r = Record::parse(text).expect("record parses");
        if let Ok(n) = r.u64(key) {
            return (n ^ 1).to_string();
        }
        if let Ok(x) = r.f64(key) {
            return crate::replay::fmt_f64(if x == 0.0 { 0.5 } else { x * 0.5 });
        }
        if let Ok(b) = r.bool(key) {
            return (!b).to_string();
        }
        let quoted = |s: &str| {
            let mut q = String::new();
            tcw_sim::record::push_quoted(&mut q, s);
            q
        };
        let value = r.str(key).expect("a string value");
        if let Some(i) = value.find(|c: char| c.is_ascii_digit()) {
            let digit = value.as_bytes()[i] - b'0';
            return quoted(&format!(
                "{}{}{}",
                &value[..i],
                (digit + 1) % 10,
                &value[i + 1..]
            ));
        }
        let labels =
            PolicyKind::ALL
                .iter()
                .map(|k| k.label())
                .chain(["static", "aimd", "estimator"]);
        for label in labels.filter(|&l| l != value) {
            let edited = with_value(text, key, &quoted(label));
            if RunSpec::from_record(&Record::parse(&edited).unwrap()).is_ok() {
                return quoted(label);
            }
        }
        panic!("no perturbation for {key} = {value:?}");
    }

    /// Perturbing any one key the record writer emits — on a panel, an
    /// adaptive and a chaos spec alike — changes the grid fingerprint, and
    /// so do reordering and truncating the grid. The keys come from the
    /// written record, not from a hand list, so a new field is covered
    /// the moment the writer emits it.
    #[test]
    fn fingerprint_covers_every_record_key() {
        use crate::adaptive::{ControllerKind, Scenario};
        let grid = vec![
            RunSpec::panel(PANELS[3], PolicyKind::Controlled, 100.0, quick(), 7),
            RunSpec::adaptive(Scenario::Flash, ControllerKind::Oracle, 1),
            RunSpec::adaptive(Scenario::Voice, ControllerKind::Aimd, 0),
            RunSpec::chaos_sample(crate::chaos::BASE_SEED, 5),
            RunSpec::chaos_inject(),
        ];
        let base = fingerprint(&grid);
        assert_eq!(fingerprint(&grid.clone()), base, "identical grids differ");
        let mut perturbations = 0;
        for (i, spec) in grid.iter().enumerate() {
            let text = spec.record();
            let keys: Vec<String> = Record::parse(&text)
                .expect("record parses")
                .keys()
                .map(str::to_string)
                .collect();
            for key in &keys {
                let token = perturbed(&text, key);
                let edited = with_value(&text, key, &token);
                let spec = Record::parse(&edited)
                    .and_then(|r| RunSpec::from_record(&r))
                    .unwrap_or_else(|e| panic!("spec {i}: {key} = {token}: {e}"));
                let mut cells = grid.clone();
                cells[i] = spec;
                assert_ne!(fingerprint(&cells), base, "spec {i}: {key} is not covered");
                perturbations += 1;
            }
        }
        assert_eq!(perturbations, 5 * 32, "the record holds 32 keys");
        let mut reordered = grid.clone();
        reordered.swap(0, 1);
        assert_ne!(fingerprint(&reordered), base, "grid order is not covered");
        assert_ne!(fingerprint(&grid[..4]), base, "grid length is not covered");
    }

    /// Every input of a panel cell — what [`RunSpec::panel`] takes, and
    /// the fault and churn plans sweeps set on the spec — reaches the
    /// grid fingerprint.
    #[test]
    fn fingerprint_covers_every_cell_field() {
        type Inputs = (Panel, PolicyKind, f64, SimSettings, u64);
        let specs = |inputs: &[Inputs]| -> Vec<RunSpec> {
            inputs
                .iter()
                .map(|&(panel, policy, k_tau, settings, seed)| {
                    RunSpec::panel(panel, policy, k_tau, settings, seed)
                })
                .collect()
        };
        let inputs: Vec<Inputs> = PANELS
            .iter()
            .map(|&panel| (panel, PolicyKind::Controlled, 100.0, quick(), 7))
            .collect();
        let grid = specs(&inputs);
        let base = fingerprint(&grid);
        assert_eq!(fingerprint(&specs(&inputs)), base, "identical grids differ");
        type InputEdit = fn(&mut Inputs);
        let input_edits: [(&str, InputEdit); 10] = [
            ("rho_prime", |c| c.0.rho_prime = 0.3),
            ("m", |c| c.0.m = 50),
            ("policy", |c| c.1 = PolicyKind::Fcfs),
            ("k_tau", |c| c.2 = 101.0),
            ("ticks_per_tau", |c| c.3.ticks_per_tau = 8),
            ("messages", |c| c.3.messages = 2_000),
            ("warmup", |c| c.3.warmup = 200),
            ("stations", |c| c.3.stations = 49),
            ("guard", |c| c.3.guard = true),
            ("seed", |c| c.4 = 8),
        ];
        for (field, edit) in input_edits {
            let mut edited = inputs.clone();
            edit(&mut edited[3]);
            assert_ne!(fingerprint(&specs(&edited)), base, "{field} is not covered");
        }
        type SpecEdit = fn(&mut RunSpec);
        let spec_edits: [(&str, SpecEdit); 4] = [
            ("fault probability", |s| s.faults.erasure = 0.01),
            ("deaf_slots", |s| s.faults.deaf_slots = 4),
            ("crash rate", |s| s.churn.crash = 0.001),
            ("outage_slots", |s| s.churn.outage_slots = 64),
        ];
        for (field, edit) in spec_edits {
            let mut cells = grid.clone();
            edit(&mut cells[3]);
            assert_ne!(fingerprint(&cells), base, "{field} is not covered");
        }
        let mut reordered = grid.clone();
        reordered.swap(0, 1);
        assert_ne!(fingerprint(&reordered), base, "grid order is not covered");
    }

    /// One illegal value per validation rule: each is an `Err` from
    /// [`RunSpec::check`], never a panic or a run.
    #[test]
    fn check_rejects_one_illegal_value_per_rule() {
        type Edit = fn(&mut RunSpec);
        let rules: [(&str, Edit); 20] = [
            ("stations", |s| s.stations = 1),
            ("ticks_per_tau", |s| s.ticks_per_tau = 0),
            ("message_slots", |s| s.message_slots = 0),
            ("window_ticks", |s| s.window_ticks = 0),
            ("deadline_ticks", |s| s.deadline_ticks = 0),
            ("horizon_ticks", |s| s.horizon_ticks = 0),
            ("measure window", |s| s.measure_start = s.measure_end + 1),
            ("zero rate", |s| s.load = Load::Piecewise(vec![(0, 0.0)])),
            ("infinite rate", |s| {
                s.load = Load::Piecewise(vec![(0, f64::INFINITY)])
            }),
            ("NaN rate", |s| {
                s.load = Load::Piecewise(vec![(0, f64::NAN)])
            }),
            ("no segments", |s| s.load = Load::Piecewise(vec![])),
            ("late first segment", |s| {
                s.load = Load::Piecewise(vec![(5, 0.01)])
            }),
            ("segment order", |s| {
                s.load = Load::Piecewise(vec![(0, 0.01), (9, 0.02), (9, 0.03)])
            }),
            ("voice interval", |s| {
                s.load = Load::Voice {
                    talkspurt: 10,
                    silence: 10,
                    interval: 0,
                }
            }),
            ("adversary rate", |s| s.adv_rate = -0.1),
            ("adversary burst", |s| {
                s.adv_rate = 0.0;
                s.adv_burst = 3;
            }),
            ("oracle start", |s| {
                s.controller = Controller::Oracle(vec![(4, 10)])
            }),
            ("oracle order", |s| {
                s.controller = Controller::Oracle(vec![(0, 10), (7, 9), (3, 8)])
            }),
            ("oracle window", |s| {
                s.controller = Controller::Oracle(vec![(0, 0)])
            }),
            ("fault plan", |s| s.faults.erasure = 1.5),
        ];
        let valid = RunSpec::panel(PANELS[0], PolicyKind::Controlled, 50.0, quick(), 1);
        valid.check().expect("the panel spec is valid");
        for (rule, edit) in rules {
            let mut spec = valid.clone();
            edit(&mut spec);
            let verdict = std::panic::catch_unwind(|| spec.check());
            assert!(
                matches!(verdict, Ok(Err(_))),
                "{rule}: want Err, got {verdict:?}"
            );
        }
        let mut spec = valid;
        spec.churn.crash = 2.0;
        assert!(spec.check().unwrap_err().contains("churn plan"));
    }

    /// A panel spec runs bit for bit like the engine's own Poisson
    /// builder: same rate, window, deadline, measurement window and
    /// horizon, on the stationary source.
    #[test]
    fn panel_spec_runs_bit_identically_to_the_poisson_engine() {
        let (panel, settings) = (PANELS[4], quick());
        let spec = RunSpec::panel(panel, PolicyKind::Controlled, 100.0, settings, 9);
        let measure = MeasureConfig {
            start: Time::from_ticks(spec.measure_start),
            end: Time::from_ticks(spec.measure_end),
            deadline: Dur::from_ticks(spec.deadline_ticks),
        };
        let mut eng = tcw_window::engine::poisson_engine(
            spec.channel(),
            spec.control_policy(),
            measure,
            panel.rho_prime,
            settings.stations,
            spec.seed,
        );
        let horizon = Time::from_ticks(spec.horizon_ticks);
        run_to_horizon(&mut eng, horizon, &mut NoopObserver, None);
        let got = spec.run();
        assert!(got.point.offered > 1_000);
        assert_eq!(got.point.offered, eng.metrics.offered());
        assert_eq!(
            got.point.loss.to_bits(),
            eng.metrics.loss_fraction().to_bits()
        );
        assert_eq!(
            got.point.utilization.to_bits(),
            eng.channel_stats.utilization().to_bits()
        );
    }
}
