//! Online window-length control (adaptive policy element 2).
//!
//! The paper chooses the window length offline from a *known, stationary*
//! Poisson rate (§4.1: `w* = mu*/lambda`). That is the one knob the
//! protocol cannot defend at runtime: under a load step, a flash crowd or
//! adversarial injection the tuned length goes stale and the collision
//! cascade eats the deadline budget. A [`WindowController`] closes the
//! loop: it observes the same ternary channel feedback every station
//! already shares and re-chooses element (2) at each decision point.
//!
//! ## Determinism contract
//!
//! Controllers consume **only cleanly observed slot outcomes** — exactly
//! the events the engine reports to observers via `on_probe`. Detectably
//! corrupted slots (erasures, transmitter-flagged misreads) feed nothing;
//! undetectable misreads fool every station identically and are consumed
//! as observed. No controller draws from an RNG stream. Every window
//! decision is therefore a deterministic function of shared channel
//! history, so the distributed-realizability argument of [`crate::mirror`]
//! extends unchanged: any station (or mirror) replaying the feedback
//! sequence reproduces the controller state bit for bit.
//!
//! [`StaticController`] (the default) defers entirely to
//! [`ControlPolicy::window_length`] and keeps the engine bit-identical to
//! a controller-free build — pinned by the golden-fingerprint tests.

use crate::analysis::optimal_mu;
use crate::policy::ControlPolicy;
use tcw_mac::SlotOutcome;
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};

/// Where a cleanly observed slot sat in the protocol's round structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotContext {
    /// The probe of a round's *initial* window; `width` is the probed
    /// pseudo width in ticks (the commanded length clipped to the
    /// backlog). Initial probes carry the arrival-rate information: the
    /// window was chosen blind, so its occupancy is an unbiased sample of
    /// `lambda * width`.
    Initial {
        /// Probed pseudo width in ticks.
        width: u64,
    },
    /// A later probe of the same round: a split half, an immediate-split
    /// sibling, or a sub-tick coin round. Conditioned on the collision
    /// that caused it, so useless for rate estimation (but still evidence
    /// of contention for AIMD).
    Resolution,
    /// The idle slot taken at a decision point that found no unexamined
    /// time (zero backlog).
    IdleDecision,
}

/// An online chooser for policy element (2), the window length.
///
/// The engine calls [`next_length`](Self::next_length) once per decision
/// point and feeds back every cleanly observed slot through
/// [`on_slot`](Self::on_slot). Implementations must be deterministic
/// functions of that feedback (no RNG, no wall clock) — see the module
/// docs for why.
pub trait WindowController {
    /// The window length (ticks) to command for the next initial window.
    /// `backlog` is the current unexamined pseudo time; `policy` supplies
    /// the static element-(2) table for controllers that defer to it.
    fn next_length(&mut self, now: Time, backlog: Dur, policy: &ControlPolicy) -> u64;

    /// A cleanly observed slot completed.
    fn on_slot(&mut self, ctx: SlotContext, outcome: &SlotOutcome);

    /// Feeds back up to `n` consecutive steady-state idle rounds in one
    /// call: at each round the engine would command a length, clip it to
    /// the one-`tau` backlog `width` (ticks), probe the whole gap idle and
    /// report `Initial { width }` / `Idle`. The default replays exactly
    /// that loop — [`next_length`](Self::next_length) then
    /// [`on_slot`](Self::on_slot), advancing `now` by `width` ticks per
    /// round — bailing out (without the `on_slot`) as soon as a commanded
    /// length no longer covers the gap, and returns the number of rounds
    /// consumed. The engine re-runs `next_length` at the bail point on its
    /// slow path, so implementations must keep `next_length` idempotent at
    /// fixed state (all in-tree controllers are). Overrides must be
    /// bit-identical to the default; [`StaticController`] collapses it to
    /// O(1) because its feedback is ignored and its command depends only
    /// on the backlog.
    fn on_idle_run(&mut self, now: Time, width: u64, n: u64, policy: &ControlPolicy) -> u64 {
        let backlog = Dur::from_ticks(width);
        let mut t = now;
        for i in 0..n {
            let len = self.next_length(t, backlog, policy);
            if len < width {
                return i;
            }
            self.on_slot(SlotContext::Initial { width }, &SlotOutcome::Idle);
            t += backlog;
        }
        n
    }

    /// The most recently commanded window length in ticks (gauge).
    fn window_ticks(&self) -> u64;

    /// Number of feedback events that shrank the commanded window.
    fn shrinks(&self) -> u64 {
        0
    }

    /// Number of feedback events that grew the commanded window.
    fn grows(&self) -> u64 {
        0
    }

    /// Serializes the controller's mutable state for an engine checkpoint.
    /// Configuration is not captured — the restore target must be built
    /// with an identically configured controller of the same kind. The
    /// default captures nothing; controllers with decision-affecting state
    /// must override both hooks symmetrically.
    fn save_state(&self, _w: &mut tcw_sim::snap::SnapWriter) {}

    /// Restores state written by [`WindowController::save_state`].
    fn load_state(
        &mut self,
        _r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        Ok(())
    }

    /// Exports controller telemetry (`tcw_controller_*`).
    fn emit(&self, sink: &mut dyn MetricSink) {
        sink.gauge(
            "tcw_controller_window_ticks",
            "commanded window length",
            self.window_ticks() as f64,
        );
        sink.counter(
            "tcw_controller_shrinks_total",
            "feedback events that shrank the window",
            self.shrinks(),
        );
        sink.counter(
            "tcw_controller_grows_total",
            "feedback events that grew the window",
            self.grows(),
        );
    }
}

/// `x.round() as u64` without a libm call (`f64::round` compiles to one
/// on baseline x86-64): rounds half away from zero and saturates, so NaN
/// and negatives give 0 and anything from `2^64` up gives `u64::MAX`.
fn round_u64(x: f64) -> u64 {
    // NaN, negatives and [0, 0.5) all round to 0.
    if x.is_nan() || x < 0.5 {
        return 0;
    }
    // Truncation (saturating); `x - t` is the exact fractional part below
    // 2^52 and zero from there on, where every `f64` is an integer.
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// 2^52, from which every `f64` is an integer.
const TWO_52: f64 = (1u64 << 52) as f64;

/// The static oracle: element (2) exactly as configured in the
/// [`ControlPolicy`]. Feedback is ignored; the engine behaves
/// bit-identically to a controller-free build.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticController {
    last: u64,
}

impl StaticController {
    /// Creates the static controller.
    pub fn new() -> Self {
        StaticController::default()
    }
}

impl WindowController for StaticController {
    fn next_length(&mut self, _now: Time, backlog: Dur, policy: &ControlPolicy) -> u64 {
        self.last = policy.window_length(backlog);
        self.last
    }

    fn on_slot(&mut self, _ctx: SlotContext, _outcome: &SlotOutcome) {}

    fn on_idle_run(&mut self, now: Time, width: u64, n: u64, policy: &ControlPolicy) -> u64 {
        // Feedback is ignored and the command is a pure function of the
        // backlog, so one `next_length` call reproduces the state of `n`.
        let len = self.next_length(now, Dur::from_ticks(width), policy);
        if len < width {
            0
        } else {
            n
        }
    }

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

/// Parameters of the [`AimdController`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AimdConfig {
    /// Initial commanded length in ticks.
    pub initial: u64,
    /// Lower clamp in ticks.
    pub min: u64,
    /// Upper clamp in ticks.
    pub max: u64,
    /// Multiplicative factor applied on a collision (`0 < shrink < 1`).
    pub shrink: f64,
    /// Ticks added per cleanly observed idle or success slot.
    pub grow: f64,
}

impl AimdConfig {
    /// A reasonable default around a starting length `initial` (ticks):
    /// halving-style shrink (0.7), quarter-tick additive growth, clamped
    /// to `[1, 32 * initial]`.
    pub fn around(initial: u64) -> Self {
        AimdConfig {
            initial: initial.max(1),
            min: 1,
            max: initial.max(1).saturating_mul(32),
            shrink: 0.7,
            grow: 0.25,
        }
    }

    /// # Panics
    /// Panics unless `0 < shrink < 1`, `grow > 0` and `min <= initial <=
    /// max` with `min >= 1`.
    pub fn check(&self) {
        assert!(self.shrink > 0.0 && self.shrink < 1.0, "shrink in (0,1)");
        assert!(self.grow > 0.0 && self.grow.is_finite(), "grow > 0");
        assert!(self.min >= 1, "min >= 1");
        assert!(
            self.min <= self.initial && self.initial <= self.max,
            "min <= initial <= max"
        );
    }
}

/// Additive-increase / multiplicative-decrease control of the window
/// length, in the spirit of congestion-window MACs (see PAPERS.md,
/// "Tournament MAC with Constant Size Congestion Window"): every cleanly
/// observed collision multiplies the length by `shrink`, every cleanly
/// observed idle or success slot adds `grow` ticks, clamped to
/// `[min, max]`. Pure feedback control — no rate model, no RNG.
#[derive(Clone, Debug)]
pub struct AimdController {
    cfg: AimdConfig,
    /// Continuous internal length; commanded length is the rounding.
    window: f64,
    /// Derived: `window` rounded and clamped to `[min, max]`. Refreshed
    /// whenever `window` moves, on construction and on load; not
    /// serialized.
    command: u64,
    shrinks: u64,
    grows: u64,
}

impl AimdController {
    /// Creates the controller.
    ///
    /// # Panics
    /// Panics on an invalid config (see [`AimdConfig::check`]).
    pub fn new(cfg: AimdConfig) -> Self {
        cfg.check();
        let mut c = AimdController {
            cfg,
            window: cfg.initial as f64,
            command: 0,
            shrinks: 0,
            grows: 0,
        };
        c.command = c.commanded();
        c
    }

    fn commanded(&self) -> u64 {
        round_u64(self.window).clamp(self.cfg.min, self.cfg.max)
    }

    /// Refreshes `command` after `window` moved. Below 2^52 the windows
    /// that round to a command `c` are exactly `[c − 0.5, c + 0.5)`, both
    /// bounds exact, so a window still inside keeps its command without a
    /// rounding.
    fn recommand(&mut self) {
        let c = self.command as f64;
        if !(c < TWO_52 && (c - 0.5..c + 0.5).contains(&self.window)) {
            self.command = self.commanded();
        }
    }

    /// The default idle replay, one `f64` add per slot: a slot's command
    /// after its feedback is the next slot's bail check, and once the
    /// window stops changing (at `max`) every remaining slot is a no-op.
    fn idle_slot_by_slot(&mut self, width: u64, n: u64) -> u64 {
        let max = self.cfg.max as f64;
        for i in 0..n {
            if self.command < width {
                return i;
            }
            let window = (self.window + self.cfg.grow).min(max);
            if window == self.window {
                break;
            }
            self.window = window;
            let before = self.command;
            self.recommand();
            self.count(before, self.command);
        }
        n
    }

    /// How many idle steps after the window `w` (at most `left`) add
    /// `grow` exactly without reaching the next binade or passing `max`:
    /// zero unless `w >= 1` and the ulp of its binade divides `grow`.
    /// Then every such sum is a multiple of that ulp below the binade's
    /// end, so each step is exact and a stretch of them is one multiply.
    fn exact_steps(&self, w: f64, left: u64) -> u64 {
        if w < 1.0 {
            return 0;
        }
        let binade = ((w.to_bits() >> 52) as i32) - 1023;
        let ulp = 2f64.powi(binade - 52);
        let grow = self.cfg.grow / ulp;
        if grow.fract() != 0.0 {
            return 0;
        }
        // In ulps, all exact: `w` lies in [2^52, 2^53), and `top` is the
        // last whole number below 2^53 and at most `max`.
        let top = (self.cfg.max as f64 / ulp).min(TWO_52 * 2.0 - 1.0);
        ((top - w / ulp) as u64 / grow as u64).min(left)
    }

    /// Counts a command change as a shrink or a grow.
    fn count(&mut self, before: u64, after: u64) {
        if after < before {
            self.shrinks += 1;
        } else if after > before {
            self.grows += 1;
        }
    }
}

impl WindowController for AimdController {
    fn next_length(&mut self, _now: Time, _backlog: Dur, _policy: &ControlPolicy) -> u64 {
        self.command
    }

    fn on_slot(&mut self, _ctx: SlotContext, outcome: &SlotOutcome) {
        let before = self.command;
        match outcome {
            SlotOutcome::Collision(_) => {
                self.window = (self.window * self.cfg.shrink).max(self.cfg.min as f64);
            }
            SlotOutcome::Idle | SlotOutcome::Success(_) => {
                self.window = (self.window + self.cfg.grow).min(self.cfg.max as f64);
            }
        }
        self.recommand();
        self.count(before, self.command);
    }

    /// The default replay in O(binades) rather than O(n) where it can be
    /// exact: with `grow <= 0.5`, `max < 2^52` and a finite window, idle
    /// feedback never lowers the command (from above `max` the window
    /// drops to `max`, whose command is `max`), so the first bail check
    /// decides all `n` slots. One slot moves the window by at most
    /// `grow` plus half an ulp, under 1, so the command by at most one,
    /// and the grows are the command's rise. The window itself advances
    /// by real `f64` adds only where a step crosses a binade or reaches
    /// `max`; in between, `exact_steps` takes whole stretches at once.
    /// Elsewhere the slots run one by one.
    fn on_idle_run(&mut self, _now: Time, width: u64, n: u64, _policy: &ControlPolicy) -> u64 {
        if self.cfg.grow > 0.5 || self.cfg.max >= 1 << 52 || !self.window.is_finite() {
            return self.idle_slot_by_slot(width, n);
        }
        if self.command < width {
            return 0;
        }
        let (max, before) = (self.cfg.max as f64, self.command);
        let mut left = n;
        while left > 0 {
            let window = (self.window + self.cfg.grow).min(max);
            if window == self.window {
                break;
            }
            left -= 1;
            let k = self.exact_steps(window, left);
            self.window = window + (k as f64) * self.cfg.grow;
            left -= k;
        }
        self.command = self.commanded();
        self.grows += self.command - before;
        n
    }

    fn window_ticks(&self) -> u64 {
        self.command
    }

    fn shrinks(&self) -> u64 {
        self.shrinks
    }

    fn grows(&self) -> u64 {
        self.grows
    }

    fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push_f64(self.window);
        w.push(self.shrinks);
        w.push(self.grows);
    }

    fn load_state(
        &mut self,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        self.window = r.take_f64()?;
        self.command = self.commanded();
        self.shrinks = r.take()?;
        self.grows = r.take()?;
        Ok(())
    }
}

/// Parameters of the [`EstimatorController`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatorConfig {
    /// Initial commanded length in ticks (also seeds the rate estimate at
    /// `mu*/initial`).
    pub initial: u64,
    /// Lower clamp in ticks.
    pub min: u64,
    /// Upper clamp in ticks.
    pub max: u64,
    /// EWMA gain in `(0, 1]`; smaller tracks slower but less noisily.
    pub gain: f64,
}

impl EstimatorConfig {
    /// A reasonable default around a starting length `initial` (ticks).
    pub fn around(initial: u64) -> Self {
        EstimatorConfig {
            initial: initial.max(1),
            min: 1,
            max: initial.max(1).saturating_mul(32),
            gain: 0.05,
        }
    }

    /// # Panics
    /// Panics unless `0 < gain <= 1` and `min <= initial <= max` with
    /// `min >= 1`.
    pub fn check(&self) {
        assert!(self.gain > 0.0 && self.gain <= 1.0, "gain in (0,1]");
        assert!(self.min >= 1, "min >= 1");
        assert!(
            self.min <= self.initial && self.initial <= self.max,
            "min <= initial <= max"
        );
    }
}

/// Rate-estimating control: tracks the arrival rate from initial-probe
/// occupancy and re-solves the paper's §4.1 window recurrence online,
/// commanding `w = mu*/lambda_hat` each decision point.
///
/// An initial window of pseudo width `W` was chosen blind, so its
/// occupancy `N ~ Poisson(lambda * W)`; the ternary feedback reveals `N =
/// 0`, `N = 1` or `N >= 2`. The controller keeps EWMAs of occupancy and
/// width over initial probes only (resolution probes are conditioned on
/// the collision that caused them and would bias the estimate) and
/// imputes a collision's occupancy as `E[N | N >= 2]` under the current
/// estimate — real stations cannot count colliders, so the simulator's
/// collision multiplicity is deliberately not consulted.
#[derive(Clone, Debug)]
pub struct EstimatorController {
    cfg: EstimatorConfig,
    mu_star: f64,
    occ_ewma: f64,
    width_ewma: f64,
    last: u64,
    shrinks: u64,
    grows: u64,
}

impl EstimatorController {
    /// Creates the controller.
    ///
    /// # Panics
    /// Panics on an invalid config (see [`EstimatorConfig::check`]).
    pub fn new(cfg: EstimatorConfig) -> Self {
        cfg.check();
        let mu_star = optimal_mu();
        EstimatorController {
            cfg,
            mu_star,
            // Seeded so lambda_hat = mu*/initial, i.e. the first command
            // equals the configured initial length.
            occ_ewma: mu_star,
            width_ewma: cfg.initial as f64,
            last: cfg.initial,
            shrinks: 0,
            grows: 0,
        }
    }

    /// The current arrival-rate estimate (messages per tick).
    pub fn lambda_hat(&self) -> f64 {
        self.occ_ewma / self.width_ewma
    }

    /// `E[N | N >= 2]` for `N ~ Poisson(mu)` — the imputed occupancy of a
    /// collided window. Tends to 2 as `mu -> 0` and to `mu` as
    /// `mu -> inf`.
    fn imputed_collision_occupancy(mu: f64) -> f64 {
        let mu = mu.clamp(1e-9, 60.0);
        let e = (-mu).exp();
        let denom = 1.0 - e - mu * e;
        if denom <= 1e-12 {
            2.0
        } else {
            (mu * (1.0 - e) / denom).max(2.0)
        }
    }

    fn commanded(&self) -> u64 {
        let w = self.mu_star / self.lambda_hat();
        round_u64(w).clamp(self.cfg.min, self.cfg.max)
    }
}

impl WindowController for EstimatorController {
    fn next_length(&mut self, _now: Time, _backlog: Dur, _policy: &ControlPolicy) -> u64 {
        self.last = self.commanded();
        self.last
    }

    fn on_slot(&mut self, ctx: SlotContext, outcome: &SlotOutcome) {
        let SlotContext::Initial { width } = ctx else {
            return;
        };
        let before = self.commanded();
        let w = width as f64;
        let occ = match outcome {
            SlotOutcome::Idle => 0.0,
            SlotOutcome::Success(_) => 1.0,
            SlotOutcome::Collision(_) => Self::imputed_collision_occupancy(self.lambda_hat() * w),
        };
        let g = self.cfg.gain;
        self.occ_ewma = (1.0 - g) * self.occ_ewma + g * occ;
        self.width_ewma = (1.0 - g) * self.width_ewma + g * w;
        let after = self.commanded();
        if after < before {
            self.shrinks += 1;
        } else if after > before {
            self.grows += 1;
        }
    }

    fn window_ticks(&self) -> u64 {
        self.last
    }

    fn shrinks(&self) -> u64 {
        self.shrinks
    }

    fn grows(&self) -> u64 {
        self.grows
    }

    fn emit(&self, sink: &mut dyn MetricSink) {
        sink.gauge(
            "tcw_controller_window_ticks",
            "commanded window length",
            self.window_ticks() as f64,
        );
        sink.counter(
            "tcw_controller_shrinks_total",
            "feedback events that shrank the window",
            self.shrinks(),
        );
        sink.counter(
            "tcw_controller_grows_total",
            "feedback events that grew the window",
            self.grows(),
        );
        sink.gauge(
            "tcw_controller_lambda_hat",
            "estimated arrival rate (messages per tick)",
            self.lambda_hat(),
        );
    }

    fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push_f64(self.occ_ewma);
        w.push_f64(self.width_ewma);
        w.push(self.last);
        w.push(self.shrinks);
        w.push(self.grows);
    }

    fn load_state(
        &mut self,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        self.occ_ewma = r.take_f64()?;
        self.width_ewma = r.take_f64()?;
        self.last = r.take()?;
        self.shrinks = r.take()?;
        self.grows = r.take()?;
        Ok(())
    }
}

/// A serializable controller selection, for experiment configs and replay
/// artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerConfig {
    /// [`StaticController`] — element (2) from the policy, bit-identical
    /// to a controller-free build.
    Static,
    /// [`AimdController`].
    Aimd(AimdConfig),
    /// [`EstimatorController`].
    Estimator(EstimatorConfig),
}

impl ControllerConfig {
    /// Builds the selected controller.
    ///
    /// # Panics
    /// Panics on an invalid embedded config.
    pub fn build(&self) -> Box<dyn WindowController> {
        match self {
            ControllerConfig::Static => Box::new(StaticController::new()),
            ControllerConfig::Aimd(cfg) => Box::new(AimdController::new(*cfg)),
            ControllerConfig::Estimator(cfg) => Box::new(EstimatorController::new(*cfg)),
        }
    }

    /// Stable short name (`static` / `aimd` / `estimator`).
    pub fn label(&self) -> &'static str {
        match self {
            ControllerConfig::Static => "static",
            ControllerConfig::Aimd(_) => "aimd",
            ControllerConfig::Estimator(_) => "estimator",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_mac::MessageId;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    fn policy() -> ControlPolicy {
        ControlPolicy::controlled(d(300), d(12))
    }

    #[test]
    fn static_controller_defers_to_policy() {
        let mut c = StaticController::new();
        let p = policy();
        assert_eq!(c.next_length(Time::ZERO, d(100), &p), 12);
        c.on_slot(SlotContext::Resolution, &SlotOutcome::Collision(5));
        assert_eq!(c.next_length(Time::ZERO, d(100), &p), 12);
        assert_eq!(c.window_ticks(), 12);
        assert_eq!(c.shrinks() + c.grows(), 0);
    }

    #[test]
    fn aimd_shrinks_on_collision_and_grows_on_quiet() {
        let mut c = AimdController::new(AimdConfig {
            initial: 100,
            min: 2,
            max: 200,
            shrink: 0.5,
            grow: 1.0,
        });
        let p = policy();
        assert_eq!(c.next_length(Time::ZERO, d(1000), &p), 100);
        c.on_slot(
            SlotContext::Initial { width: 100 },
            &SlotOutcome::Collision(3),
        );
        assert_eq!(c.window_ticks(), 50);
        c.on_slot(SlotContext::Resolution, &SlotOutcome::Idle);
        c.on_slot(SlotContext::Resolution, &SlotOutcome::Success(MessageId(0)));
        assert_eq!(c.window_ticks(), 52);
        assert_eq!(c.shrinks(), 1);
        assert_eq!(c.grows(), 2);
    }

    #[test]
    fn aimd_respects_bounds() {
        let mut c = AimdController::new(AimdConfig {
            initial: 4,
            min: 2,
            max: 6,
            shrink: 0.5,
            grow: 1.0,
        });
        for _ in 0..10 {
            c.on_slot(SlotContext::Resolution, &SlotOutcome::Collision(2));
        }
        assert_eq!(c.window_ticks(), 2);
        for _ in 0..100 {
            c.on_slot(SlotContext::Resolution, &SlotOutcome::Idle);
        }
        assert_eq!(c.window_ticks(), 6);
    }

    #[test]
    fn round_u64_matches_libm_round() {
        let two52 = (1u64 << 52) as f64;
        let mut cases = vec![
            2.5,
            3.5,
            0.5,
            0.49999999999999994,
            two52 - 0.5,
            2.0 * two52 + 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.7,
            -0.0,
            1.8446744073709552e19,
            1e300,
        ];
        let mut rng = tcw_sim::rng::Rng::new(3);
        for _ in 0..10_000 {
            cases.push(f64::from_bits(rng.next_u64()));
            cases.push(rng.f64() * 1e6);
            cases.push((rng.below(1 << 20) as f64) + 0.5);
        }
        for x in cases {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    /// The trait's default `on_idle_run`, which the AIMD override must
    /// reproduce bit for bit.
    fn default_idle_replay(c: &mut AimdController, width: u64, n: u64) -> u64 {
        let p = policy();
        for i in 0..n {
            if c.next_length(Time::ZERO, d(width), &p) < width {
                return i;
            }
            c.on_slot(SlotContext::Initial { width }, &SlotOutcome::Idle);
        }
        n
    }

    fn words(c: &AimdController) -> Vec<u64> {
        let mut w = tcw_sim::snap::SnapWriter::new();
        c.save_state(&mut w);
        w.into_words()
    }

    /// An AIMD controller restored to `window` with random counters. The
    /// window is set directly, so the command cache is refreshed by hand.
    fn restored(cfg: AimdConfig, window: f64, rng: &mut tcw_sim::rng::Rng) -> AimdController {
        let mut c = AimdController::new(cfg);
        c.window = window;
        c.command = c.commanded();
        c.shrinks = rng.below(100);
        c.grows = rng.below(100);
        c
    }

    /// Runs the override and the default replay from the same state: the
    /// same result, the same snapshot words, and both command caches
    /// equal to a fresh rounding.
    fn check_idle_run(at: &str, a: AimdController, width: u64, n: u64) {
        let (mut a, mut b) = (a.clone(), a);
        let got = a.on_idle_run(Time::ZERO, width, n, &policy());
        let want = default_idle_replay(&mut b, width, n);
        let at = format!("{at}: {:?} width={width} n={n}", a.cfg);
        assert_eq!(got, want, "{at}");
        assert_eq!(words(&a), words(&b), "{at}");
        assert_eq!([a.command, b.command], [a.commanded(); 2], "{at}");
    }

    /// `2^k` less one ulp.
    fn just_below_power_of_two(k: u64) -> f64 {
        f64::from_bits(((1u64 << k) as f64).to_bits() - 1)
    }

    #[test]
    fn aimd_idle_run_matches_the_default_replay() {
        let mut rng = tcw_sim::rng::Rng::new(11);
        // Dyadic and non-dyadic, up to 0.5 and above.
        let grows = [0.125, 0.25, 0.5, 0.1, 0.3, 0.999, 1.0, 1.5, 3.7];
        for case in 0..4_000u64 {
            let min = 1 + rng.below(8);
            let max = match case % 5 {
                // Above 2^53 the clamp bound itself rounds as an f64.
                0 => (1u64 << 53) + 1 + rng.below(8),
                _ => min + rng.below(400),
            };
            let grow = if case % 7 == 0 {
                0.01 + rng.f64() * 3.0
            } else {
                grows[rng.below(grows.len() as u64) as usize]
            };
            let cfg = AimdConfig {
                initial: min,
                min,
                max,
                shrink: 0.5,
                grow,
            };
            // Restored states cover ties, windows just below a tie whose
            // `+ 1` rounds up to it, windows just below a power of two and
            // windows above `max`, each with every kind of `max`.
            let window = match (case / 5) % 5 {
                0 => (min + rng.below(max - min + 1)) as f64 + 0.5,
                1 => 7.5 - 2f64.powi(-50),
                2 => max as f64 + rng.f64() * 10.0,
                3 => just_below_power_of_two(1 + rng.below(64 - u64::from(max.leading_zeros()))),
                _ => min as f64 + rng.f64() * (max - min) as f64,
            };
            let a = restored(cfg, window, &mut rng);
            // Mostly gaps the first command covers, so the replay runs.
            let width = if case % 9 == 0 {
                1 + rng.below(2 * max.min(500))
            } else {
                1 + rng.below(a.command)
            };
            check_idle_run(&format!("case {case}"), a, width, rng.below(600));
        }
        // Runs of up to 2^20 slots with `max` out of their reach, so they
        // cross binades without saturating.
        for case in 0..27u64 {
            let cfg = AimdConfig {
                initial: 1,
                min: 1,
                max: 1 << (40 + rng.below(12)),
                shrink: 0.5,
                grow: grows[case as usize % grows.len()],
            };
            let window = match case % 3 {
                0 => just_below_power_of_two(1 + rng.below(12)),
                1 => rng.below(1 << 12) as f64 + 0.5,
                _ => 1.0 + rng.f64() * 4096.0,
            };
            let n = (1 << 19) + rng.below(1 << 19);
            check_idle_run(
                &format!("long case {case}"),
                restored(cfg, window, &mut rng),
                1,
                n,
            );
        }
    }

    #[test]
    fn aimd_config_validation() {
        let bad = AimdConfig {
            shrink: 1.5,
            ..AimdConfig::around(10)
        };
        assert!(std::panic::catch_unwind(|| AimdController::new(bad)).is_err());
    }

    #[test]
    fn estimator_converges_to_optimal_window_under_known_rate() {
        // Feed the controller synthetic initial probes from a known
        // Bernoulli-ized Poisson occupancy at lambda = 0.03/tick; the
        // commanded window must approach mu*/lambda ≈ 42 ticks.
        let lambda = 0.03;
        let mut c = EstimatorController::new(EstimatorConfig {
            initial: 400,
            min: 1,
            max: 4096,
            gain: 0.05,
        });
        let p = policy();
        let mut rng = tcw_sim::rng::Rng::new(7);
        for _ in 0..4000 {
            let w = c.next_length(Time::ZERO, d(100_000), &p);
            // Sample a Poisson(lambda * w) occupancy via thinning.
            let mu = lambda * w as f64;
            let mut n = 0u32;
            let mut acc = -rng.f64_open_left().ln();
            while acc < mu {
                n += 1;
                acc += -rng.f64_open_left().ln();
            }
            let outcome = match n {
                0 => SlotOutcome::Idle,
                1 => SlotOutcome::Success(MessageId(0)),
                k => SlotOutcome::Collision(k),
            };
            c.on_slot(SlotContext::Initial { width: w }, &outcome);
        }
        let target = optimal_mu() / lambda;
        let got = c.window_ticks() as f64;
        assert!(
            (got - target).abs() / target < 0.25,
            "commanded {got}, target {target}"
        );
        assert!(c.shrinks() > 0);
    }

    #[test]
    fn estimator_ignores_resolution_and_idle_decision_slots() {
        let mut c = EstimatorController::new(EstimatorConfig::around(50));
        let before = c.lambda_hat();
        c.on_slot(SlotContext::Resolution, &SlotOutcome::Collision(4));
        c.on_slot(SlotContext::IdleDecision, &SlotOutcome::Idle);
        assert_eq!(c.lambda_hat().to_bits(), before.to_bits());
    }

    #[test]
    fn imputed_collision_occupancy_limits() {
        let small = EstimatorController::imputed_collision_occupancy(1e-6);
        assert!((small - 2.0).abs() < 1e-3, "{small}");
        let large = EstimatorController::imputed_collision_occupancy(30.0);
        assert!((large - 30.0).abs() < 0.1, "{large}");
    }

    #[test]
    fn config_labels_and_build() {
        assert_eq!(ControllerConfig::Static.label(), "static");
        let a = ControllerConfig::Aimd(AimdConfig::around(10));
        assert_eq!(a.label(), "aimd");
        assert_eq!(a.build().window_ticks(), 10);
        let e = ControllerConfig::Estimator(EstimatorConfig::around(10));
        assert_eq!(e.label(), "estimator");
        assert_eq!(e.build().window_ticks(), 10);
    }
}
