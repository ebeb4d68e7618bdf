//! The chaos harness: composed stress specs, invariant monitoring and
//! automatic failure shrinking for the `chaos` binary.
//!
//! Each of PR 1/2/5's stressors — [`FaultPlan`] feedback corruption,
//! [`ChurnPlan`] membership dynamics, piecewise/adversarial load and the
//! adaptive [`tcw_window::WindowController`]s — has its own invariant
//! tests in isolation. This module exercises them *together*: thousands
//! of seeded specs ([`RunSpec::chaos_sample`]) are drawn from one base
//! seed, each run under the [`InvariantMonitor`] (message conservation,
//! FCFS order, age bounds, clock consistency) with a
//! [`DivergenceDetector`](tcw_window::DivergenceDetector) mirror riding
//! along as a differential oracle wherever it is sound (static
//! controller; see [`strict_differential`]).
//!
//! When a run fails — monitor violation, unexpected mirror divergence,
//! or panic — [`shrink`] delta-debugs the spec down to a 1-minimal
//! reproduction and the result is saved as a replay artifact
//! ([`crate::replay::Artifact`]) replayable with `chaos --replay` (same
//! envelope and exit-code conventions as the other record/replay
//! binaries; a reproduced *violation* still exits 2 because violations
//! are failures under the [`crate::diag`] convention).
//!
//! Because a monitor that can never fire is worthless, [`Mutation`]
//! deliberately corrupts the event stream *between engine and monitor*
//! (dropped delivery, reordered FCFS pair, stale probe clock). The
//! mutation rides beside the spec — and in the artifact — so seeded
//! violations replay and shrink exactly like organic ones.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::replay::panic_message;
use crate::runner::{tuned_window, Controller, Load, PolicyKind, RunSpec};
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_sim::rng::{stream_seed, Rng};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::invariant::{InvariantMonitor, MonitorConfig};
use tcw_window::trace::{EngineObserver, NoopObserver, Tee};
use tcw_window::{Interval, ResyncPolicy};

/// Base seed: spec `i` runs under `stream_seed(BASE_SEED, i)`.
pub const BASE_SEED: u64 = 0xC4A05;
/// Default number of composed specs in a sweep.
pub const DEFAULT_CONFIGS: usize = 1000;
/// Most composed specs one sweep takes. The whole grid is built before
/// the sweep starts, a few hundred bytes per spec, so this bounds it to
/// tens of MB.
pub const MAX_CONFIGS: usize = 100_000;
/// Trial budget for the shrinker (far above any observed fixpoint).
pub const SHRINK_BUDGET: u64 = 500;

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

impl RunSpec {
    /// Spec `index` of the chaos sweep keyed by `base_seed`.
    ///
    /// Dimensions are drawn independently so the sweep composes faults ×
    /// churn × load shape × adversary × controller, with ~1/3 of each
    /// stressor left disabled to keep clean and partially-stressed runs
    /// in the population. The measurement window covers the whole run.
    pub fn chaos_sample(base_seed: u64, index: u64) -> Self {
        let mut rng = Rng::new(stream_seed(base_seed, index));
        let ticks_per_tau = [4u64, 8][rng.below(2) as usize];
        let message_slots = rng.range_inclusive(3, 8);
        let horizon_ticks = rng.range_inclusive(20, 80) * 1_000;
        let horizon_slots = horizon_ticks / ticks_per_tau;
        let stations = rng.range_inclusive(4, 48) as u32;
        let deadline_ticks = rng.range_inclusive(30, 150) * ticks_per_tau;
        let controller = Controller::PLAIN[rng.below(3) as usize].clone();

        let mut faults = FaultPlan::none();
        if !rng.chance(0.35) {
            faults.success_to_collision = rng.f64() * 0.06;
            faults.collision_to_success = rng.f64() * 0.06;
            faults.collision_to_idle = rng.f64() * 0.06;
            faults.idle_to_collision = rng.f64() * 0.06;
            faults.erasure = rng.f64() * 0.06;
            if rng.chance(0.25) {
                faults.deafness = rng.f64() * 0.02;
                faults.deaf_slots = rng.range_inclusive(1, 5);
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

        let spec = with_static_window(RunSpec {
            ticks_per_tau,
            message_slots,
            guard: false,
            policy: PolicyKind::Controlled,
            window_ticks: 1,
            deadline_ticks,
            measure_start: 0,
            measure_end: u64::MAX,
            horizon_ticks,
            stations,
            load: Load::Piecewise(segments),
            adv_rate,
            adv_burst,
            adv_start,
            controller,
            faults,
            churn,
            seed: stream_seed(base_seed, index),
        });
        debug_assert!(spec.check().is_ok(), "sampled invalid spec");
        spec
    }

    /// The deterministic baseline for `--inject`: a clean
    /// static-controller run whose event stream a [`Mutation`] corrupts —
    /// guaranteed to trip exactly the monitor class the mutation targets,
    /// and a fixed starting point for the shrinker demo.
    pub fn chaos_inject() -> Self {
        let msg_ticks = (5 * 4) as f64;
        with_static_window(RunSpec {
            ticks_per_tau: 4,
            message_slots: 5,
            guard: false,
            policy: PolicyKind::Controlled,
            window_ticks: 1,
            deadline_ticks: 400,
            measure_start: 0,
            measure_end: u64::MAX,
            horizon_ticks: 60_000,
            stations: 16,
            load: Load::Piecewise(vec![(0, 0.5 / msg_ticks), (30_000, 0.8 / msg_ticks)]),
            adv_rate: 0.1 / msg_ticks,
            adv_burst: 4,
            adv_start: 10_000,
            controller: Controller::Static,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            seed: stream_seed(BASE_SEED, 0x1A7EC7),
        })
    }
}

/// Mean legitimate + adversarial arrival rate over the horizon (messages
/// per tick) — what a chaos spec's static window is tuned for.
fn mean_rate(spec: &RunSpec) -> f64 {
    let segments = spec.load.segments();
    let horizon = spec.horizon_ticks;
    let mut acc = 0.0;
    for (i, &(start, rate)) in segments.iter().enumerate() {
        let end = segments
            .get(i + 1)
            .map(|&(s, _)| s)
            .unwrap_or(horizon)
            .min(horizon);
        acc += rate * (end.saturating_sub(start)) as f64;
    }
    let h = horizon as f64;
    let mut mean = acc / h;
    if spec.adv_burst > 0 {
        mean += spec.adv_rate * (horizon - spec.adv_start.min(horizon)) as f64 / h;
    }
    mean
}

/// `spec` with its window at the §4.1 heuristic for [`mean_rate`] —
/// chaos's window rule, re-applied after every shrinker edit that moves
/// the mean rate (adversary included).
fn with_static_window(mut spec: RunSpec) -> RunSpec {
    spec.window_ticks = tuned_window(mean_rate(&spec));
    spec
}

/// Whether the mirror differential check is *strict* for this spec: the
/// [`StationMirror`](tcw_window::StationMirror) replays decisions from
/// the shared policy, so it is only sound under the static controller;
/// the [`DivergenceDetector`](tcw_window::DivergenceDetector)
/// additionally models deafness/outage slot loss, after which
/// divergences are expected behavior rather than failures.
pub fn strict_differential(spec: &RunSpec) -> bool {
    spec.controller == Controller::Static
        && spec.faults.deafness == 0.0
        && spec.churn.outage_slots == 0
}

/// What one chaos run produced.
#[derive(Clone, Debug, Default, PartialEq)]
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

/// Runs one spec under the monitor (and, for static-controller specs,
/// the divergence detector) with `mutation` between engine and monitor,
/// forwarding events to `extra` (tracer) and emitting telemetry into
/// `sink` when given. Engine panics propagate; [`execute_observed`]
/// classifies them.
fn run_observed(
    spec: &RunSpec,
    mutation: Mutation,
    extra: &mut dyn EngineObserver,
    mut sink: Option<&mut dyn MetricSink>,
) -> ChaosOutcome {
    let static_control = spec.controller == Controller::Static;
    let mcfg = MonitorConfig::for_engine(
        &spec.channel(),
        &ResyncPolicy::default(),
        Some(Dur::from_ticks(spec.deadline_ticks)),
    );
    let mut monitor = InvariantMonitor::new(mcfg);
    if static_control {
        monitor = monitor.with_mirror(spec.control_policy(), spec.seed);
    }
    let mut detector = static_control.then(|| spec.detector());

    let eng = {
        let sink = sink.as_mut().map(|s| &mut **s as &mut dyn MetricSink);
        let mut mutator = MutatingObserver::new(mutation, &mut monitor);
        let eng = match detector.as_mut() {
            Some(det) => {
                let mut inner = Tee {
                    a: det,
                    b: &mut mutator,
                };
                let mut obs = Tee {
                    a: extra,
                    b: &mut inner,
                };
                spec.run_engine(&mut obs, sink)
            }
            None => {
                let mut obs = Tee {
                    a: extra,
                    b: &mut mutator,
                };
                spec.run_engine(&mut obs, sink)
            }
        };
        mutator.flush();
        eng
    };
    monitor.finish(
        eng.now(),
        eng.pending_count(),
        &eng.metrics,
        &eng.channel_stats,
    );
    if let Some(sink) = sink {
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
    } else if strict_differential(spec) && divergences > 0 {
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

/// Runs one spec under the monitor with `mutation` applied, forwarding
/// events to `extra` and emitting telemetry into `sink` when given. A
/// panic — in the engine or in `extra` — is caught and classified as a
/// `panic` outcome, so a traced and an untraced run of a failing spec
/// report it alike. Deterministic: the same inputs always return the
/// same outcome.
pub fn execute_observed(
    spec: &RunSpec,
    mutation: Mutation,
    extra: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) -> ChaosOutcome {
    match catch_unwind(AssertUnwindSafe(|| {
        run_observed(spec, mutation, extra, sink)
    })) {
        Ok(out) => out,
        Err(payload) => ChaosOutcome {
            kind: "panic".to_string(),
            detail: panic_message(payload),
            ..ChaosOutcome::default()
        },
    }
}

/// [`execute_observed`] with no extra observer or sink.
pub fn execute(spec: &RunSpec, mutation: Mutation) -> ChaosOutcome {
    execute_observed(spec, mutation, &mut NoopObserver, None)
}

/// One shrinker trial.
#[derive(Clone, Debug)]
pub struct ShrinkStep {
    /// The candidate transformation tried.
    pub action: String,
    /// Whether the shrunk spec still reproduced the failure.
    pub kept: bool,
}

/// Result of shrinking a failing spec.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The 1-minimal spec.
    pub spec: RunSpec,
    /// Every trial, in order (capped at 200 entries).
    pub steps: Vec<ShrinkStep>,
    /// Total re-executions spent.
    pub trials: u64,
}

/// Every single-step shrink of `c`, each with its window re-derived by
/// chaos's rule.
fn candidates(c: &RunSpec) -> Vec<(String, RunSpec)> {
    let mut out = Vec::new();
    let mut push = |action: String, spec: RunSpec| out.push((action, with_static_window(spec)));
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
    let segments = c.load.segments();
    for i in (1..segments.len()).rev() {
        let mut kept = segments.to_vec();
        kept.remove(i);
        let n = RunSpec {
            load: Load::Piecewise(kept),
            ..c.clone()
        };
        push(format!("drop load segment {i}"), n);
    }
    // Each edit zeroes one stressor; it is a candidate only where it
    // changes the spec.
    type Edit = fn(&mut RunSpec);
    let edits: [(&str, Edit); 13] = [
        ("remove adversary", |s| {
            (s.adv_rate, s.adv_burst, s.adv_start) = (0.0, 0, 0)
        }),
        ("zero fault success_to_collision", |s| {
            s.faults.success_to_collision = 0.0
        }),
        ("zero fault collision_to_success", |s| {
            s.faults.collision_to_success = 0.0
        }),
        ("zero fault collision_to_idle", |s| {
            s.faults.collision_to_idle = 0.0
        }),
        ("zero fault idle_to_collision", |s| {
            s.faults.idle_to_collision = 0.0
        }),
        ("zero fault erasure", |s| s.faults.erasure = 0.0),
        ("zero fault deafness", |s| {
            (s.faults.deafness, s.faults.deaf_slots) = (0.0, 0)
        }),
        ("zero churn crash", |s| {
            (s.churn.crash, s.churn.down_slots) = (0.0, 0)
        }),
        ("zero churn late-join", |s| {
            (s.churn.late_join_frac, s.churn.join_slot) = (0.0, 0)
        }),
        ("zero churn leave", |s| {
            (s.churn.leave_frac, s.churn.leave_slot) = (0.0, 0)
        }),
        ("zero churn outage", |s| {
            (s.churn.outage_start_slot, s.churn.outage_slots) = (0, 0)
        }),
        ("zero churn catch-up", |s| {
            // Catch-up serves crashed and late-joining stations.
            if s.churn.crash == 0.0 && s.churn.late_join_frac == 0.0 {
                s.churn.catch_up_slots = 0;
            }
        }),
        ("use static controller", |s| {
            s.controller = Controller::Static
        }),
    ];
    for (action, edit) in edits {
        let mut n = c.clone();
        edit(&mut n);
        if n != *c {
            push(action.to_string(), n);
        }
    }
    out
}

/// Greedy delta-debugging: repeatedly applies the first candidate
/// transformation (halve horizon/stations, drop a load segment, remove
/// the adversary, zero one fault/churn dimension, fall back to the
/// static controller) that still reproduces `(kind, class)` under
/// `mutation`, until a full pass accepts nothing.
///
/// The result is **1-minimal with respect to the candidate family**: at
/// the fixpoint every candidate was re-tried against the final spec
/// and failed to reproduce, so no single remaining transformation can
/// be applied without losing the failure. Termination is guaranteed —
/// every accepted step strictly decreases a positive integer measure —
/// and the whole search re-executes deterministically, capped at
/// [`SHRINK_BUDGET`] trials.
pub fn shrink(orig: &RunSpec, mutation: Mutation, kind: &str, class: &str) -> ShrinkResult {
    let mut current = orig.clone();
    let mut steps = Vec::new();
    let mut trials = 0u64;
    'outer: loop {
        for (action, cand) in candidates(&current) {
            if trials >= SHRINK_BUDGET {
                break 'outer;
            }
            trials += 1;
            let out = execute(&cand, mutation);
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
        spec: current,
        steps,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{Artifact, ARTIFACT_VERSION};

    #[test]
    fn panicking_observer_is_classified_as_a_panic() {
        struct Boom;
        impl EngineObserver for Boom {
            fn on_decision(&mut self, _now: Time, _segments: Option<&[Interval]>) {
                panic!("observer boom");
            }
        }
        let spec = RunSpec::chaos_sample(BASE_SEED, 0);
        let out = execute_observed(&spec, Mutation::None, &mut Boom, None);
        assert_eq!(out.kind, "panic");
        assert_eq!(out.detail, "observer boom");
    }

    fn artifact(spec: RunSpec, mutation: Mutation) -> Artifact {
        Artifact {
            experiment: "chaos".to_string(),
            spec,
            mutation,
            kind: "violation".to_string(),
            class: "fcfs".to_string(),
            detail: "t=123 example".to_string(),
        }
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let art = artifact(RunSpec::chaos_sample(BASE_SEED, 7), Mutation::ReorderPair);
        let parsed = Artifact::from_json(&art.to_json(), "chaos").expect("parse");
        assert_eq!(parsed, art);
    }

    #[test]
    fn record_rejects_stale_and_corrupt() {
        let json = artifact(RunSpec::chaos_sample(BASE_SEED, 3), Mutation::None).to_json();
        let stale = json.replace(
            &format!("\"version\": \"{ARTIFACT_VERSION}\""),
            "\"version\": \"0.0.0-stale\"",
        );
        assert!(Artifact::from_json(&stale, "chaos").is_err());
        assert!(Artifact::from_json(&json, "adaptive").is_err());
        let bad_plan = json.replace("\"erasure\": 0", "\"erasure\": 9.0");
        assert!(Artifact::from_json(&bad_plan, "chaos").is_err());
        let bad_mutation = json.replace("\"mutation\": \"none\"", "\"mutation\": \"x\"");
        assert!(Artifact::from_json(&bad_mutation, "chaos").is_err());
    }

    /// Every field the chaos sampler draws, on any spec of the grid, and
    /// the grid's order and size reach the resume journal's fingerprint.
    #[test]
    fn fingerprint_covers_every_config_field() {
        use crate::runner::fingerprint;
        let grid: Vec<RunSpec> = (0..4)
            .map(|i| RunSpec::chaos_sample(BASE_SEED, i))
            .collect();
        let base = fingerprint(&grid);
        let stale = |specs: &[RunSpec]| fingerprint(specs) != base;
        type Edit = fn(&mut RunSpec);
        let edits: [(&str, Edit); 15] = [
            ("seed", |s| s.seed += 1),
            ("horizon_ticks", |s| s.horizon_ticks += 1),
            ("stations", |s| s.stations += 1),
            ("ticks_per_tau", |s| s.ticks_per_tau += 1),
            ("message_slots", |s| s.message_slots += 1),
            ("deadline_ticks", |s| s.deadline_ticks += 1),
            ("controller", |s| {
                let [a, b, _] = Controller::PLAIN;
                s.controller = if s.controller == a { b } else { a };
            }),
            ("fault probability", |s| s.faults.erasure += 0.01),
            ("deaf_slots", |s| s.faults.deaf_slots += 1),
            ("crash rate", |s| s.churn.crash += 1e-4),
            ("outage_slots", |s| s.churn.outage_slots += 1),
            ("segment rate", |s| {
                let Load::Piecewise(segments) = &mut s.load else {
                    unreachable!("chaos samples piecewise loads")
                };
                segments[0].1 *= 1.5;
            }),
            ("segment count", |s| {
                let Load::Piecewise(segments) = &mut s.load else {
                    unreachable!("chaos samples piecewise loads")
                };
                segments.push((u64::MAX, 0.01));
            }),
            ("adv_rate", |s| s.adv_rate += 0.001),
            ("adv_start", |s| s.adv_start += 1),
        ];
        for (field, edit) in edits {
            let mut specs = grid.clone();
            edit(&mut specs[2]);
            assert!(stale(&specs), "{field} is not covered");
        }
        let mut reordered = grid.clone();
        reordered.swap(0, 1);
        assert!(stale(&reordered), "grid order is not covered");
        assert!(stale(&grid[..3]), "grid size is not covered");
    }

    #[test]
    fn sampled_configs_are_valid_and_deterministic() {
        for i in 0..64 {
            let a = RunSpec::chaos_sample(BASE_SEED, i);
            let b = RunSpec::chaos_sample(BASE_SEED, i);
            assert_eq!(a, b);
            a.check().expect("valid sample");
            assert!(a.window_ticks >= 1);
        }
        RunSpec::chaos_inject()
            .check()
            .expect("valid injection baseline");
    }
}
