//! The chaos harness: composed stress configs, invariant monitoring and
//! automatic failure shrinking for the `chaos` binary.
//!
//! Each of PR 1/2/5's stressors — [`FaultPlan`] feedback corruption,
//! [`ChurnPlan`] membership dynamics, piecewise/adversarial load and the
//! adaptive [`tcw_window::WindowController`]s — has its own invariant
//! tests in isolation. This module exercises them *together*: thousands
//! of seeded [`ChaosConfig`]s are sampled from one base seed, each run
//! under the [`InvariantMonitor`] (message conservation, FCFS order,
//! age bounds, clock consistency) with a [`DivergenceDetector`] mirror
//! riding along as a differential oracle wherever it is sound (static
//! controller; see [`ChaosConfig::strict_differential`]).
//!
//! When a run fails — monitor violation, unexpected mirror divergence,
//! or panic — [`shrink`] delta-debugs the config down to a 1-minimal
//! reproduction and the result is serialized as a version-stamped
//! [`ChaosRecord`] replayable with `chaos --replay` (same envelope and
//! exit-code conventions as the other record/replay binaries; a
//! reproduced *violation* still exits 2 because violations are failures
//! under the [`crate::diag`] convention).
//!
//! Because a monitor that can never fire is worthless, [`Mutation`]
//! deliberately corrupts the event stream *between engine and monitor*
//! (dropped delivery, reordered FCFS pair, stale probe clock). The
//! mutation is part of the config — and of the artifact — so seeded
//! violations replay and shrink exactly like organic ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::replay::{load_artifact, panic_message, read_artifact, ArtifactWriter};
use crate::runner::run_to_horizon;
use tcw_mac::{
    AdversarialInjector, AdversaryPlan, ArrivalSource, ChannelConfig, ChurnPlan, FaultPlan,
    MergedSource, PiecewiseArrivals, RateStep,
};
use tcw_sim::rng::{stream_seed, Rng};
use tcw_sim::snap::{checksum, SnapWriter};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::invariant::{InvariantMonitor, MonitorConfig};
use tcw_window::metrics::MeasureConfig;
use tcw_window::trace::{EngineObserver, NoopObserver, Tee};
use tcw_window::{
    AimdConfig, ControlPolicy, ControllerConfig, DivergenceDetector, Engine, EngineConfig,
    EstimatorConfig, Interval, ResyncPolicy,
};

/// Base seed: config `i` runs under `stream_seed(BASE_SEED, i)`.
pub const BASE_SEED: u64 = 0xC4A05;
/// Default number of composed configs in a sweep.
pub const DEFAULT_CONFIGS: usize = 1000;
/// Trial budget for the shrinker (far above any observed fixpoint).
pub const SHRINK_BUDGET: u64 = 500;

/// Element-(2) controller choice for a chaos config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosController {
    /// Static window tuned for the config's mean rate.
    Static,
    /// [`tcw_window::AimdController`] seeded at the static window.
    Aimd,
    /// [`tcw_window::EstimatorController`] seeded at the static window.
    Estimator,
}

impl ChaosController {
    /// Every controller, in sampling order.
    pub const ALL: [ChaosController; 3] = [
        ChaosController::Static,
        ChaosController::Aimd,
        ChaosController::Estimator,
    ];

    /// Stable short name.
    pub fn label(self) -> &'static str {
        match self {
            ChaosController::Static => "static",
            ChaosController::Aimd => "aimd",
            ChaosController::Estimator => "estimator",
        }
    }

    /// Inverse of [`ChaosController::label`].
    pub fn parse(s: &str) -> Option<Self> {
        ChaosController::ALL.into_iter().find(|c| c.label() == s)
    }
}

/// A deliberate corruption of the engine→monitor event stream, used to
/// mutation-test the monitor (and to seed shrinkable violations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful event stream.
    None,
    /// Swallow one `on_transmit` (caught by conservation at finish).
    DropDelivery,
    /// Swap one strictly-increasing pair of deliveries (caught by FCFS).
    ReorderPair,
    /// Report one probe a tick early (caught by the clock check).
    StaleClock,
}

impl Mutation {
    /// The three corrupting mutations.
    pub const CORRUPTING: [Mutation; 3] = [
        Mutation::DropDelivery,
        Mutation::ReorderPair,
        Mutation::StaleClock,
    ];

    /// Stable short name.
    pub fn label(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropDelivery => "drop_delivery",
            Mutation::ReorderPair => "reorder_pair",
            Mutation::StaleClock => "stale_clock",
        }
    }

    /// Inverse of [`Mutation::label`].
    pub fn parse(s: &str) -> Option<Self> {
        [Mutation::None]
            .into_iter()
            .chain(Mutation::CORRUPTING)
            .find(|m| m.label() == s)
    }

    /// The invariant class this mutation must trip.
    pub fn expected_class(self) -> Option<&'static str> {
        match self {
            Mutation::None => None,
            Mutation::DropDelivery => Some("conservation"),
            Mutation::ReorderPair => Some("fcfs"),
            Mutation::StaleClock => Some("clock"),
        }
    }
}

/// One composed stress configuration — everything a run needs, and
/// everything a [`ChaosRecord`] serializes.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Master seed of the run.
    pub seed: u64,
    /// Arrival horizon in ticks (the engine then drains).
    pub horizon_ticks: u64,
    /// Station population.
    pub stations: u32,
    /// Channel tick resolution.
    pub ticks_per_tau: u64,
    /// Message length in units of `tau`.
    pub message_slots: u64,
    /// Delivery deadline `K` in ticks.
    pub k_ticks: u64,
    /// Element-(2) controller.
    pub controller: ChaosController,
    /// Injected feedback faults.
    pub plan: FaultPlan,
    /// Injected membership churn.
    pub churn: ChurnPlan,
    /// Piecewise-constant legitimate load: `(start_tick, rate_per_tick)`
    /// segments, first at tick 0, strictly increasing.
    pub segments: Vec<(u64, f64)>,
    /// Adversarial injection rate (messages per tick; 0 = no adversary).
    pub adv_rate: f64,
    /// Adversarial burst size (`sigma`; 0 = no adversary).
    pub adv_burst: u32,
    /// First adversarial burst instant (ticks).
    pub adv_start: u64,
    /// Event-stream corruption applied between engine and monitor.
    pub mutation: Mutation,
}

impl ChaosConfig {
    /// Samples config `index` of the sweep keyed by `base_seed`.
    ///
    /// Dimensions are drawn independently so the sweep composes faults ×
    /// churn × load shape × adversary × controller, with ~1/3 of each
    /// stressor left disabled to keep clean and partially-stressed runs
    /// in the population.
    pub fn sample(base_seed: u64, index: u64) -> Self {
        let mut rng = Rng::new(stream_seed(base_seed, index));
        let ticks_per_tau = [4u64, 8][rng.below(2) as usize];
        let message_slots = rng.range_inclusive(3, 8);
        let horizon_ticks = rng.range_inclusive(20, 80) * 1_000;
        let horizon_slots = horizon_ticks / ticks_per_tau;
        let stations = rng.range_inclusive(4, 48) as u32;
        let k_ticks = rng.range_inclusive(30, 150) * ticks_per_tau;
        let controller = ChaosController::ALL[rng.below(3) as usize];

        let mut plan = FaultPlan::none();
        if !rng.chance(0.35) {
            plan.success_to_collision = rng.f64() * 0.06;
            plan.collision_to_success = rng.f64() * 0.06;
            plan.collision_to_idle = rng.f64() * 0.06;
            plan.idle_to_collision = rng.f64() * 0.06;
            plan.erasure = rng.f64() * 0.06;
            if rng.chance(0.25) {
                plan.deafness = rng.f64() * 0.02;
                plan.deaf_slots = rng.range_inclusive(1, 5);
            }
        }

        let mut churn = ChurnPlan::none();
        if !rng.chance(0.35) {
            if rng.chance(0.6) {
                churn.crash = rng.f64() * 3e-4;
                churn.down_slots = rng.range_inclusive(10, 80);
                churn.catch_up_slots = rng.range_inclusive(20, 200);
            }
            if rng.chance(0.4) {
                churn.late_join_frac = rng.f64() * 0.3;
                churn.join_slot = rng.below(horizon_slots / 2 + 1);
            }
            if rng.chance(0.3) {
                churn.leave_frac = rng.f64() * 0.2;
                churn.leave_slot = horizon_slots / 2 + rng.below(horizon_slots / 4 + 1);
            }
            if rng.chance(0.3) {
                churn.outage_start_slot = rng.below(horizon_slots / 2 + 1);
                churn.outage_slots = rng.range_inclusive(20, 120);
            }
        }

        // Rates are sampled as offered load rho (fraction of the
        // channel's one-message-at-a-time capacity), then converted to
        // messages per tick. Overload (rho > 1) is deliberately in
        // range: deadline loss is legal behavior, not a violation.
        let msg_ticks = (message_slots * ticks_per_tau) as f64;
        let nseg = 1 + rng.below(3);
        let mut segments = Vec::with_capacity(nseg as usize);
        segments.push((0u64, (0.05 + rng.f64() * 1.15) / msg_ticks));
        for i in 1..nseg {
            let base = horizon_ticks * i / nseg;
            let jitter = rng.below(horizon_ticks / (4 * nseg) + 1);
            segments.push((base + jitter, (0.05 + rng.f64() * 1.45) / msg_ticks));
        }

        let (mut adv_rate, mut adv_burst, mut adv_start) = (0.0, 0u32, 0u64);
        if !rng.chance(0.65) {
            adv_rate = (0.05 + rng.f64() * 0.35) / msg_ticks;
            adv_burst = rng.range_inclusive(2, 10) as u32;
            adv_start = rng.below(horizon_ticks / 2 + 1);
        }

        let cfg = ChaosConfig {
            seed: stream_seed(base_seed, index),
            horizon_ticks,
            stations,
            ticks_per_tau,
            message_slots,
            k_ticks,
            controller,
            plan,
            churn,
            segments,
            adv_rate,
            adv_burst,
            adv_start,
            mutation: Mutation::None,
        };
        debug_assert!(cfg.check().is_ok(), "sampled invalid config");
        cfg
    }

    /// Validates every parameter (used when loading artifacts, so a
    /// corrupted file degrades to an error instead of a panic).
    pub fn check(&self) -> Result<(), String> {
        if self.stations < 2 {
            return Err("stations < 2".to_string());
        }
        if self.ticks_per_tau == 0 || self.message_slots == 0 {
            return Err("zero channel dimensions".to_string());
        }
        if self.horizon_ticks == 0 || self.k_ticks == 0 {
            return Err("zero horizon or deadline".to_string());
        }
        self.plan
            .check()
            .map_err(|e| format!("corrupted fault plan: {e}"))?;
        self.churn
            .check()
            .map_err(|e| format!("corrupted churn plan: {e}"))?;
        if self.segments.is_empty() {
            return Err("no load segments".to_string());
        }
        if self.segments[0].0 != 0 {
            return Err("first load segment must start at 0".to_string());
        }
        for w in self.segments.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err("load segment starts must increase".to_string());
            }
        }
        for &(_, rate) in &self.segments {
            if !(rate > 0.0 && rate.is_finite()) {
                return Err("load rates must be positive-finite".to_string());
            }
        }
        if !(self.adv_rate >= 0.0 && self.adv_rate.is_finite()) {
            return Err("adversary rate must be non-negative finite".to_string());
        }
        if self.adv_burst > 0 && self.adv_rate == 0.0 {
            return Err("adversary burst without a rate".to_string());
        }
        Ok(())
    }

    /// Checksums every field of every config, in grid order, through the
    /// replay record's field list ([`ChaosRecord::to_json`]): the resume
    /// journal's grid fingerprint, so an edit to [`ChaosConfig::sample`]
    /// makes an old journal stale.
    pub fn fingerprint(configs: &[ChaosConfig]) -> u64 {
        let mut w = SnapWriter::new();
        for config in configs {
            let rec = ChaosRecord {
                config: config.clone(),
                kind: String::new(),
                class: String::new(),
                detail: String::new(),
            };
            w.push_str(&rec.to_json());
        }
        checksum(&w.into_words())
    }

    /// Mean legitimate + adversarial arrival rate over the horizon
    /// (messages per tick) — what the static window is tuned for.
    pub fn mean_rate(&self) -> f64 {
        let h = self.horizon_ticks as f64;
        let mut acc = 0.0;
        for (i, &(start, rate)) in self.segments.iter().enumerate() {
            let end = self
                .segments
                .get(i + 1)
                .map(|&(s, _)| s)
                .unwrap_or(self.horizon_ticks)
                .min(self.horizon_ticks);
            acc += rate * (end.saturating_sub(start)) as f64;
        }
        let mut mean = acc / h;
        if self.adv_burst > 0 {
            mean += self.adv_rate
                * (self.horizon_ticks - self.adv_start.min(self.horizon_ticks)) as f64
                / h;
        }
        mean
    }

    /// The §4.1-heuristic static window (ticks) for [`Self::mean_rate`].
    pub fn static_window_ticks(&self) -> u64 {
        ((optimal_mu() / self.mean_rate()).round() as u64).max(1)
    }

    fn channel(&self) -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: self.ticks_per_tau,
            message_slots: self.message_slots,
            guard: false,
        }
    }

    fn policy(&self) -> ControlPolicy {
        ControlPolicy::controlled(
            Dur::from_ticks(self.k_ticks),
            Dur::from_ticks(self.static_window_ticks()),
        )
    }

    fn source(&self) -> MergedSource {
        let steps = self
            .segments
            .iter()
            .map(|&(start, rate)| RateStep {
                start: Time::from_ticks(start),
                rate_per_tick: rate,
            })
            .collect();
        let mut sources: Vec<Box<dyn ArrivalSource>> =
            vec![Box::new(PiecewiseArrivals::new(steps, self.stations))];
        if self.adv_burst > 0 {
            sources.push(Box::new(AdversarialInjector::new(AdversaryPlan {
                rate: self.adv_rate,
                burst: self.adv_burst,
                start: Time::from_ticks(self.adv_start),
                stations: self.stations,
            })));
        }
        MergedSource::new(sources)
    }

    fn build_controller(&self) -> Box<dyn tcw_window::WindowController> {
        let w = self.static_window_ticks();
        match self.controller {
            ChaosController::Static => ControllerConfig::Static.build(),
            ChaosController::Aimd => ControllerConfig::Aimd(AimdConfig::around(w)).build(),
            ChaosController::Estimator => {
                ControllerConfig::Estimator(EstimatorConfig::around(w)).build()
            }
        }
    }

    /// Whether the mirror differential check is *strict* for this
    /// config: the [`StationMirror`](tcw_window::StationMirror) replays
    /// decisions from the shared policy, so it is only sound under the
    /// static controller; the [`DivergenceDetector`] additionally models
    /// deafness/outage slot loss, after which divergences are expected
    /// behavior rather than failures.
    pub fn strict_differential(&self) -> bool {
        self.controller == ChaosController::Static
            && self.plan.deafness == 0.0
            && self.churn.outage_slots == 0
    }
}

/// What one chaos run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// `"ok"`, `"violation"`, `"divergence"` or `"panic"`.
    pub kind: String,
    /// Invariant class of the first violation (empty otherwise).
    pub class: String,
    /// Deterministic description of the outcome.
    pub detail: String,
    /// Total monitor violations.
    pub violations: u64,
    /// Detector divergences (0 when no detector was attached).
    pub divergences: u64,
    /// Monitor checks evaluated.
    pub checks: u64,
    /// Deliveries observed by the monitor.
    pub deliveries: u64,
    /// Offered messages (full-coverage measurement window).
    pub offered: u64,
    /// Deadline-loss fraction.
    pub loss: f64,
}

/// Corrupts the engine→monitor event stream per [`Mutation`]. All other
/// events pass through untouched; [`MutatingObserver::flush`] forwards a
/// still-held delivery so conservation is not tripped by the wrapper
/// itself when the stream ends before a reorder partner appears.
pub struct MutatingObserver<'a> {
    inner: &'a mut InvariantMonitor,
    mutation: Mutation,
    transmits: u64,
    probes: u64,
    held: Option<(tcw_mac::Message, Time, Dur, Dur)>,
    applied: bool,
}

/// Which delivery a [`Mutation::DropDelivery`] swallows (1-based).
const DROP_TARGET: u64 = 3;
/// Which probe a [`Mutation::StaleClock`] back-dates (1-based).
const STALE_TARGET: u64 = 5;

impl<'a> MutatingObserver<'a> {
    /// Wraps the monitor.
    pub fn new(mutation: Mutation, inner: &'a mut InvariantMonitor) -> Self {
        MutatingObserver {
            inner,
            mutation,
            transmits: 0,
            probes: 0,
            held: None,
            applied: false,
        }
    }

    /// Whether the corruption actually fired during the run.
    pub fn applied(&self) -> bool {
        self.applied
    }

    /// Forwards a held delivery (call after the run, before `finish`).
    pub fn flush(&mut self) {
        if let Some((msg, start, paper, truth)) = self.held.take() {
            self.inner.on_transmit(&msg, start, paper, truth);
        }
    }
}

impl EngineObserver for MutatingObserver<'_> {
    fn slow_path(&self) -> bool {
        self.inner.slow_path()
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        self.inner.on_decision(now, segments);
    }

    fn on_probe(
        &mut self,
        start: Time,
        segments: &[Interval],
        outcome: &tcw_mac::SlotOutcome,
        dur: Dur,
    ) {
        self.probes += 1;
        if self.mutation == Mutation::StaleClock
            && !self.applied
            && self.probes >= STALE_TARGET
            && start.ticks() > 0
        {
            self.applied = true;
            let early = start.saturating_sub(Dur::from_ticks(1));
            self.inner.on_probe(early, segments, outcome, dur);
            return;
        }
        self.inner.on_probe(start, segments, outcome, dur);
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        self.inner.on_immediate_split(now, segments);
    }

    fn on_transmit(&mut self, msg: &tcw_mac::Message, start: Time, paper: Dur, truth: Dur) {
        self.transmits += 1;
        match self.mutation {
            Mutation::DropDelivery if !self.applied && self.transmits >= DROP_TARGET => {
                self.applied = true;
            }
            Mutation::ReorderPair if !self.applied => match self.held.take() {
                None => self.held = Some((*msg, start, paper, truth)),
                Some((hmsg, hstart, hpaper, htruth)) => {
                    if hmsg.arrival < msg.arrival {
                        // Deliver the younger message first: an FCFS
                        // inversion the monitor must flag.
                        self.applied = true;
                        self.inner.on_transmit(msg, start, paper, truth);
                        self.inner.on_transmit(&hmsg, hstart, hpaper, htruth);
                    } else {
                        // Equal arrivals cannot invert; release the held
                        // delivery and wait for a strictly younger pair.
                        self.inner.on_transmit(&hmsg, hstart, hpaper, htruth);
                        self.held = Some((*msg, start, paper, truth));
                    }
                }
            },
            _ => self.inner.on_transmit(msg, start, paper, truth),
        }
    }

    fn on_sender_discard(&mut self, msg: &tcw_mac::Message, now: Time) {
        self.inner.on_sender_discard(msg, now);
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        self.inner.on_corrupted_slot(now, dur);
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        self.inner.on_backoff(now, dur);
    }

    fn on_round_abandoned(&mut self, now: Time) {
        self.inner.on_round_abandoned(now);
    }

    fn on_reopen(&mut self, iv: Interval) {
        self.inner.on_reopen(iv);
    }

    fn on_beacon(&mut self, now: Time, timeline: &tcw_window::Timeline, rng: &Rng) {
        self.inner.on_beacon(now, timeline, rng);
    }

    fn on_churn_event(&mut self, now: Time, ev: &tcw_mac::ChurnEvent) {
        self.inner.on_churn_event(now, ev);
    }
}

/// Runs one config under the monitor (and, for static-controller
/// configs, the divergence detector), forwarding events to `extra`
/// (tracer) and emitting telemetry into `sink` when given. Engine panics
/// propagate; [`execute_observed`] classifies them.
fn run_observed(
    cfg: &ChaosConfig,
    extra: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) -> ChaosOutcome {
    let channel = cfg.channel();
    let policy = cfg.policy();
    let ecfg = EngineConfig {
        channel,
        policy: policy.clone(),
        measure: MeasureConfig {
            start: Time::ZERO,
            end: Time::MAX,
            deadline: Dur::from_ticks(cfg.k_ticks),
        },
        seed: cfg.seed,
    };
    let mut eng = Engine::new(ecfg, cfg.source());
    eng.set_fault_plan(cfg.plan);
    eng.set_churn_plan(cfg.churn, cfg.stations);
    eng.set_controller(cfg.build_controller());

    let mcfg = MonitorConfig::for_engine(
        &channel,
        &ResyncPolicy::default(),
        Some(Dur::from_ticks(cfg.k_ticks)),
    );
    let mut monitor = InvariantMonitor::new(mcfg);
    if cfg.controller == ChaosController::Static {
        monitor = monitor.with_mirror(policy.clone(), cfg.seed);
    }
    let mut detector = (cfg.controller == ChaosController::Static).then(|| {
        let det = DivergenceDetector::new(
            policy.clone(),
            cfg.seed,
            0,
            cfg.plan.deafness,
            cfg.plan.deaf_slots,
        );
        if cfg.churn.outage_slots > 0 {
            det.with_outage(cfg.churn.outage_start_slot, cfg.churn.outage_slots)
        } else {
            det
        }
    });

    {
        let mut mutator = MutatingObserver::new(cfg.mutation, &mut monitor);
        let horizon = Time::from_ticks(cfg.horizon_ticks);
        match detector.as_mut() {
            Some(det) => {
                let mut inner = Tee {
                    a: det,
                    b: &mut mutator,
                };
                let mut obs = Tee {
                    a: extra,
                    b: &mut inner,
                };
                run_to_horizon(&mut eng, horizon, &mut obs, None);
            }
            None => {
                let mut obs = Tee {
                    a: extra,
                    b: &mut mutator,
                };
                run_to_horizon(&mut eng, horizon, &mut obs, None);
            }
        }
        mutator.flush();
    }
    monitor.finish(
        eng.now(),
        eng.pending_count(),
        &eng.metrics,
        &eng.channel_stats,
    );

    if let Some(sink) = sink {
        eng.metrics.emit(sink);
        eng.channel_stats.emit(sink);
        eng.controller().emit(sink);
        monitor.emit(sink);
        if let Some(det) = &detector {
            det.emit(sink);
        }
    }

    let divergences = detector.as_ref().map(|d| d.divergences()).unwrap_or(0);
    let loss = eng.metrics.loss_fraction();
    let (kind, class, detail) = if let Some(v) = monitor.first() {
        (
            "violation".to_string(),
            v.class.label().to_string(),
            format!("t={} {}", v.at.ticks(), v.detail),
        )
    } else if cfg.strict_differential() && divergences > 0 {
        let first = detector
            .as_ref()
            .and_then(|d| d.first_divergence())
            .unwrap_or("mirror diverged")
            .to_string();
        ("divergence".to_string(), String::new(), first)
    } else {
        (
            "ok".to_string(),
            String::new(),
            format!(
                "loss_bits={:016x} offered={} deliveries={}",
                loss.to_bits(),
                eng.metrics.offered(),
                monitor.deliveries()
            ),
        )
    };
    ChaosOutcome {
        kind,
        class,
        detail,
        violations: monitor.total_violations(),
        divergences,
        checks: monitor.checks(),
        deliveries: monitor.deliveries(),
        offered: eng.metrics.offered(),
        loss,
    }
}

/// Runs one config under the monitor, forwarding events to `extra` and
/// emitting telemetry into `sink` when given. A panic — in the engine or
/// in `extra` — is caught and classified as a `panic` outcome, so a
/// traced and an untraced run of a failing config report it alike.
/// Deterministic: the same config always returns the same outcome.
pub fn execute_observed(
    cfg: &ChaosConfig,
    extra: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) -> ChaosOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_observed(cfg, extra, sink))) {
        Ok(out) => out,
        Err(payload) => ChaosOutcome {
            kind: "panic".to_string(),
            class: String::new(),
            detail: panic_message(payload),
            violations: 0,
            divergences: 0,
            checks: 0,
            deliveries: 0,
            offered: 0,
            loss: 0.0,
        },
    }
}

/// [`execute_observed`] with no extra observer or sink.
pub fn execute(cfg: &ChaosConfig) -> ChaosOutcome {
    execute_observed(cfg, &mut NoopObserver, None)
}

/// One shrinker trial.
#[derive(Clone, Debug)]
pub struct ShrinkStep {
    /// The candidate transformation tried.
    pub action: String,
    /// Whether the shrunk config still reproduced the failure.
    pub kept: bool,
}

/// Result of shrinking a failing config.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The 1-minimal config.
    pub config: ChaosConfig,
    /// Every trial, in order (capped at 200 entries).
    pub steps: Vec<ShrinkStep>,
    /// Total re-executions spent.
    pub trials: u64,
}

fn candidates(c: &ChaosConfig) -> Vec<(String, ChaosConfig)> {
    let mut out = Vec::new();
    let mut push = |action: String, cfg: ChaosConfig| out.push((action, cfg));
    if c.horizon_ticks > 4_000 {
        let mut n = c.clone();
        n.horizon_ticks /= 2;
        push(format!("halve horizon to {}", n.horizon_ticks), n);
    }
    if c.stations > 2 {
        let mut n = c.clone();
        n.stations = (n.stations / 2).max(2);
        push(format!("halve stations to {}", n.stations), n);
    }
    for i in (1..c.segments.len()).rev() {
        let mut n = c.clone();
        n.segments.remove(i);
        push(format!("drop load segment {i}"), n);
    }
    if c.adv_burst > 0 {
        let mut n = c.clone();
        n.adv_rate = 0.0;
        n.adv_burst = 0;
        n.adv_start = 0;
        push("remove adversary".to_string(), n);
    }
    type FaultZero = fn(&mut FaultPlan);
    let fault_fields: [(&str, FaultZero); 6] = [
        ("success_to_collision", |p| p.success_to_collision = 0.0),
        ("collision_to_success", |p| p.collision_to_success = 0.0),
        ("collision_to_idle", |p| p.collision_to_idle = 0.0),
        ("idle_to_collision", |p| p.idle_to_collision = 0.0),
        ("erasure", |p| p.erasure = 0.0),
        ("deafness", |p| {
            p.deafness = 0.0;
            p.deaf_slots = 0;
        }),
    ];
    let active = |p: &FaultPlan, name: &str| match name {
        "success_to_collision" => p.success_to_collision > 0.0,
        "collision_to_success" => p.collision_to_success > 0.0,
        "collision_to_idle" => p.collision_to_idle > 0.0,
        "idle_to_collision" => p.idle_to_collision > 0.0,
        "erasure" => p.erasure > 0.0,
        _ => p.deafness > 0.0,
    };
    for (name, zero) in fault_fields {
        if active(&c.plan, name) {
            let mut n = c.clone();
            zero(&mut n.plan);
            push(format!("zero fault {name}"), n);
        }
    }
    if c.churn.crash > 0.0 {
        let mut n = c.clone();
        n.churn.crash = 0.0;
        n.churn.down_slots = 0;
        push("zero churn crash".to_string(), n);
    }
    if c.churn.late_join_frac > 0.0 {
        let mut n = c.clone();
        n.churn.late_join_frac = 0.0;
        n.churn.join_slot = 0;
        push("zero churn late-join".to_string(), n);
    }
    if c.churn.leave_frac > 0.0 {
        let mut n = c.clone();
        n.churn.leave_frac = 0.0;
        n.churn.leave_slot = 0;
        push("zero churn leave".to_string(), n);
    }
    if c.churn.outage_slots > 0 {
        let mut n = c.clone();
        n.churn.outage_start_slot = 0;
        n.churn.outage_slots = 0;
        push("zero churn outage".to_string(), n);
    }
    if c.churn.catch_up_slots > 0 && c.churn.crash == 0.0 && c.churn.late_join_frac == 0.0 {
        let mut n = c.clone();
        n.churn.catch_up_slots = 0;
        push("zero churn catch-up".to_string(), n);
    }
    if c.controller != ChaosController::Static {
        let mut n = c.clone();
        n.controller = ChaosController::Static;
        push("use static controller".to_string(), n);
    }
    out
}

/// Greedy delta-debugging: repeatedly applies the first candidate
/// transformation (halve horizon/stations, drop a load segment, remove
/// the adversary, zero one fault/churn dimension, fall back to the
/// static controller) that still reproduces `(kind, class)`, until a
/// full pass accepts nothing.
///
/// The result is **1-minimal with respect to the candidate family**: at
/// the fixpoint every candidate was re-tried against the final config
/// and failed to reproduce, so no single remaining transformation can
/// be applied without losing the failure. Termination is guaranteed —
/// every accepted step strictly decreases a positive integer measure —
/// and the whole search re-executes deterministically, capped at
/// [`SHRINK_BUDGET`] trials.
pub fn shrink(orig: &ChaosConfig, kind: &str, class: &str) -> ShrinkResult {
    let mut current = orig.clone();
    let mut steps = Vec::new();
    let mut trials = 0u64;
    'outer: loop {
        for (action, cand) in candidates(&current) {
            if trials >= SHRINK_BUDGET {
                break 'outer;
            }
            trials += 1;
            let out = execute(&cand);
            let kept = out.kind == kind && out.class == class;
            if steps.len() < 200 {
                steps.push(ShrinkStep {
                    action: action.clone(),
                    kept,
                });
            }
            if kept {
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        config: current,
        steps,
        trials,
    }
}

/// A version-stamped chaos replay artifact: the (possibly shrunk)
/// config plus the outcome it must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosRecord {
    /// The failing (or recorded) config.
    pub config: ChaosConfig,
    /// Outcome class: `"ok"`, `"violation"`, `"divergence"`, `"panic"`.
    pub kind: String,
    /// Invariant class of the violation (empty otherwise).
    pub class: String,
    /// The outcome detail that must replay bit-for-bit.
    pub detail: String,
}

impl ChaosRecord {
    /// Serializes the record as one flat JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut w = ArtifactWriter::new(Some("chaos"));
        w.u64("seed", c.seed);
        w.u64("horizon_ticks", c.horizon_ticks);
        w.u64("stations", u64::from(c.stations));
        w.u64("ticks_per_tau", c.ticks_per_tau);
        w.u64("message_slots", c.message_slots);
        w.u64("k_ticks", c.k_ticks);
        w.str("controller", c.controller.label());
        w.str("mutation", c.mutation.label());
        w.f64("success_to_collision", c.plan.success_to_collision);
        w.f64("collision_to_success", c.plan.collision_to_success);
        w.f64("collision_to_idle", c.plan.collision_to_idle);
        w.f64("idle_to_collision", c.plan.idle_to_collision);
        w.f64("erasure", c.plan.erasure);
        w.f64("deafness", c.plan.deafness);
        w.u64("deaf_slots", c.plan.deaf_slots);
        w.f64("crash", c.churn.crash);
        w.u64("down_slots", c.churn.down_slots);
        w.f64("late_join_frac", c.churn.late_join_frac);
        w.u64("join_slot", c.churn.join_slot);
        w.f64("leave_frac", c.churn.leave_frac);
        w.u64("leave_slot", c.churn.leave_slot);
        w.u64("catch_up_slots", c.churn.catch_up_slots);
        w.u64("outage_start_slot", c.churn.outage_start_slot);
        w.u64("outage_slots", c.churn.outage_slots);
        let segments = c
            .segments
            .iter()
            .map(|&(start, rate)| format!("{start}:{rate}"))
            .collect::<Vec<_>>()
            .join(";");
        w.str("segments", &segments);
        w.f64("adv_rate", c.adv_rate);
        w.u64("adv_burst", u64::from(c.adv_burst));
        w.u64("adv_start", c.adv_start);
        w.str("kind", &self.kind);
        w.str("class", &self.class);
        w.str("detail", &self.detail);
        w.finish()
    }

    /// Parses a record previously written by [`ChaosRecord::to_json`],
    /// rejecting stale versions and out-of-range parameters.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let r = read_artifact(text, Some("chaos"))?;
        let controller_label = r.str("controller")?;
        let controller = ChaosController::parse(controller_label)
            .ok_or_else(|| format!("unknown controller {controller_label:?}"))?;
        let mutation_label = r.str("mutation")?;
        let mutation = Mutation::parse(mutation_label)
            .ok_or_else(|| format!("unknown mutation {mutation_label:?}"))?;
        let mut segments = Vec::new();
        for part in r.str("segments")?.split(';') {
            let (start, rate) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed load segment {part:?}"))?;
            segments.push((
                start
                    .parse::<u64>()
                    .map_err(|e| format!("segment start {start:?}: {e}"))?,
                rate.parse::<f64>()
                    .map_err(|e| format!("segment rate {rate:?}: {e}"))?,
            ));
        }
        let config = ChaosConfig {
            seed: r.u64("seed")?,
            horizon_ticks: r.u64("horizon_ticks")?,
            stations: u32::try_from(r.u64("stations")?)
                .map_err(|e| format!("field \"stations\": {e}"))?,
            ticks_per_tau: r.u64("ticks_per_tau")?,
            message_slots: r.u64("message_slots")?,
            k_ticks: r.u64("k_ticks")?,
            controller,
            plan: FaultPlan {
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
            segments,
            adv_rate: r.f64("adv_rate")?,
            adv_burst: u32::try_from(r.u64("adv_burst")?)
                .map_err(|e| format!("field \"adv_burst\": {e}"))?,
            adv_start: r.u64("adv_start")?,
            mutation,
        };
        config.check()?;
        Ok(ChaosRecord {
            config,
            kind: r.str("kind")?.to_string(),
            class: r.str("class")?.to_string(),
            detail: r.str("detail")?.to_string(),
        })
    }

    /// Writes the record to `path` atomically, creating parent directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        tcw_sim::record::write_atomic(path, &self.to_json())
    }

    /// Loads a record from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::from_json(&load_artifact(path)?)
    }
}

/// Replays an artifact and returns the process exit code.
///
/// A replay that does not reproduce the recorded `(kind, class, detail)`
/// — or an unloadable/stale artifact — exits
/// [`crate::diag::EXIT_FAILURE`]. A faithful replay exits `0` only when
/// the recorded outcome is `"ok"`; a reproduced violation/divergence/
/// panic also exits [`crate::diag::EXIT_FAILURE`], because under the
/// shared diag convention an invariant violation is a failure no matter
/// how it was produced (stdout distinguishes the two: a reproduced
/// failure prints `replay reproduced the recorded failure`).
pub fn replay(path: &Path) -> i32 {
    let rec = match ChaosRecord::load(path) {
        Ok(r) => r,
        Err(e) => {
            crate::diag::error("chaos", &format!("cannot load artifact: {e}"));
            return crate::diag::EXIT_FAILURE;
        }
    };
    println!(
        "replaying {} (kind={:?} class={:?} seed={} controller={} mutation={})",
        path.display(),
        rec.kind,
        rec.class,
        rec.config.seed,
        rec.config.controller.label(),
        rec.config.mutation.label(),
    );
    let out = execute(&rec.config);
    println!("recorded: [{}/{}] {}", rec.kind, rec.class, rec.detail);
    println!("replayed: [{}/{}] {}", out.kind, out.class, out.detail);
    if out.kind == rec.kind && out.class == rec.class && out.detail == rec.detail {
        if rec.kind == "ok" {
            println!("replay reproduced the recorded outcome");
            0
        } else {
            println!("replay reproduced the recorded failure");
            crate::diag::EXIT_FAILURE
        }
    } else {
        crate::diag::error("chaos", "REPLAY DIVERGED from the recorded outcome");
        crate::diag::EXIT_FAILURE
    }
}

/// Builds the deterministic seeded-violation config for `--inject`: a
/// clean static-controller run whose event stream is corrupted by
/// `mutation` — guaranteed to trip exactly the monitor class the
/// mutation targets, and a fixed starting point for the shrinker demo.
pub fn inject_config(mutation: Mutation) -> ChaosConfig {
    let msg_ticks = (5 * 4) as f64;
    ChaosConfig {
        seed: stream_seed(BASE_SEED, 0x1A7EC7),
        horizon_ticks: 60_000,
        stations: 16,
        ticks_per_tau: 4,
        message_slots: 5,
        k_ticks: 400,
        controller: ChaosController::Static,
        plan: FaultPlan::none(),
        churn: ChurnPlan::none(),
        segments: vec![(0, 0.5 / msg_ticks), (30_000, 0.8 / msg_ticks)],
        adv_rate: 0.1 / msg_ticks,
        adv_burst: 4,
        adv_start: 10_000,
        mutation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_observer_is_classified_as_a_panic() {
        struct Boom;
        impl EngineObserver for Boom {
            fn on_decision(&mut self, _now: Time, _segments: Option<&[Interval]>) {
                panic!("observer boom");
            }
        }
        let out = execute_observed(&ChaosConfig::sample(BASE_SEED, 0), &mut Boom, None);
        assert_eq!(out.kind, "panic");
        assert_eq!(out.detail, "observer boom");
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let mut cfg = ChaosConfig::sample(BASE_SEED, 7);
        cfg.mutation = Mutation::ReorderPair;
        let rec = ChaosRecord {
            config: cfg,
            kind: "violation".to_string(),
            class: "fcfs".to_string(),
            detail: "t=123 example".to_string(),
        };
        let parsed = ChaosRecord::from_json(&rec.to_json()).expect("parse");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn record_rejects_stale_and_corrupt() {
        let rec = ChaosRecord {
            config: ChaosConfig::sample(BASE_SEED, 3),
            kind: "ok".to_string(),
            class: String::new(),
            detail: "x".to_string(),
        };
        let stale = rec.to_json().replace(
            &format!("\"version\": \"{}\"", crate::replay::ARTIFACT_VERSION),
            "\"version\": \"0.0.0-stale\"",
        );
        assert!(ChaosRecord::from_json(&stale).is_err());
        let wrong_family = rec.to_json().replace("\"chaos\"", "\"adaptive\"");
        assert!(ChaosRecord::from_json(&wrong_family).is_err());
        let bad_plan = rec.to_json().replace("\"erasure\": 0", "\"erasure\": 9.0");
        assert!(ChaosRecord::from_json(&bad_plan).is_err());
    }

    #[test]
    fn fingerprint_covers_every_config_field() {
        let grid: Vec<ChaosConfig> = (0..4).map(|i| ChaosConfig::sample(BASE_SEED, i)).collect();
        let base = ChaosConfig::fingerprint(&grid);
        let stale = |configs: &[ChaosConfig]| ChaosConfig::fingerprint(configs) != base;
        type Edit = fn(&mut ChaosConfig);
        let edits: [(&str, Edit); 15] = [
            ("seed", |c| c.seed += 1),
            ("horizon_ticks", |c| c.horizon_ticks += 1),
            ("stations", |c| c.stations += 1),
            ("ticks_per_tau", |c| c.ticks_per_tau += 1),
            ("message_slots", |c| c.message_slots += 1),
            ("k_ticks", |c| c.k_ticks += 1),
            ("controller", |c| {
                let [a, b, _] = ChaosController::ALL;
                c.controller = if c.controller == a { b } else { a };
            }),
            ("fault probability", |c| c.plan.erasure += 0.01),
            ("deaf_slots", |c| c.plan.deaf_slots += 1),
            ("crash rate", |c| c.churn.crash += 1e-4),
            ("outage_slots", |c| c.churn.outage_slots += 1),
            ("segment rate", |c| c.segments[0].1 *= 1.5),
            ("segment count", |c| c.segments.push((u64::MAX, 0.01))),
            ("adv_rate", |c| c.adv_rate += 0.001),
            ("adv_start", |c| c.adv_start += 1),
        ];
        for (field, edit) in edits {
            let mut configs = grid.clone();
            edit(&mut configs[2]);
            assert!(stale(&configs), "{field} is not covered");
        }
        let mut reordered = grid.clone();
        reordered.swap(0, 1);
        assert!(stale(&reordered), "grid order is not covered");
        assert!(stale(&grid[..3]), "grid size is not covered");
    }

    #[test]
    fn sampled_configs_are_valid_and_deterministic() {
        for i in 0..64 {
            let a = ChaosConfig::sample(BASE_SEED, i);
            let b = ChaosConfig::sample(BASE_SEED, i);
            assert_eq!(a, b);
            a.check().expect("valid sample");
            assert!(a.static_window_ticks() >= 1);
        }
    }
}
