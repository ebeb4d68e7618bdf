//! A-B equivalence proof for the event-horizon fast path.
//!
//! The engine promises that the idle-slot jump-ahead and the batched
//! collision-resolution kernel are pure dispatch optimizations: on any
//! fixed seed, a run with `jump_ahead` on is bit-identical — every
//! metric bit pattern, the channel accounting, the clock, the
//! controller's internal state, the churn counters and the examined-set
//! shape — to the same run forced through the slot-stepped path, and so
//! are the engine's snapshot word stream, which holds every RNG stream
//! position and every station's churn state, and the sequence of
//! transmissions (id, start, paper and true delay). The only permitted
//! difference is [`tcw_window::engine::HorizonStats`], which counts the
//! fast path's own activations and is excluded here.
//!
//! 200 randomized configurations sweep offered load (weighted toward
//! the light-load regime where the jump engages), population, channel
//! geometry, window policy, all three controllers, fault plans and
//! churn plans. 60 more stay in the regime where most windows collide,
//! which the batched kernel resolves in place. 45 more compose feedback
//! faults or random crashes with scheduled joins and leaves at light
//! load, where the idle jump steps slot by slot. Cases reproduce from
//! their index (deterministic `tcw_sim` RNG, no external framework).

use tcw_mac::{
    ChannelConfig, ChurnEvent, ChurnPlan, FaultPlan, Message, MessageId, PoissonArrivals,
    SlotOutcome,
};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::{poisson_engine, Engine, HorizonStats};
use tcw_window::interval::Interval;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::{ControlPolicy, WindowPosition};
use tcw_window::trace::{EngineObserver, NoopObserver};
use tcw_window::{AimdConfig, ControllerConfig, EstimatorConfig, SlotContext, WindowController};

const CASES: u64 = 200;
const HEAVY_CASES: u64 = 60;
const MIXED_CASES: u64 = 45;

/// One randomized engine configuration, reproducible from the case
/// index.
struct Case {
    channel: ChannelConfig,
    policy: ControlPolicy,
    rho: f64,
    stations: u32,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    ctl: ControllerConfig,
    /// Install [`Fickle`] instead of `ctl`.
    fickle: bool,
    horizon: u64,
}

fn draw_case(case: u64) -> Case {
    let mut rng = Rng::new(0xE4_0001 ^ (case.wrapping_mul(0x9E37_79B9)));
    let ticks_per_tau = [2, 4, 8, 16][rng.below(4) as usize];
    let channel = ChannelConfig {
        ticks_per_tau,
        message_slots: 1 + rng.below(8),
        guard: rng.below(2) == 0,
    };
    // Two loads out of three land in the light regime the fast path
    // targets; the third exercises the bail-to-slow-path boundaries.
    let rho = match rng.below(3) {
        0 => 0.02 + rng.f64() * 0.08,
        1 => 0.1 + rng.f64() * 0.2,
        _ => 0.4 + rng.f64() * 0.4,
    };
    let w = Dur::from_ticks(ticks_per_tau * (1 + rng.below(6)));
    let k = Dur::from_ticks(ticks_per_tau * (20 + rng.below(100)));
    // LCFS with a window no wider than the slot period starves: each
    // idle round examines exactly the one tau of fresh time `advance`
    // just accrued and never reaches older backlog. That is a protocol
    // property (either path loops in `drain` forever), so keep the LCFS
    // draws off that boundary.
    let w_lcfs = Dur::from_ticks(ticks_per_tau * (2 + rng.below(5)));
    let policy = match rng.below(4) {
        0 | 1 => ControlPolicy::controlled(k, w),
        2 => ControlPolicy::fcfs(w),
        _ => ControlPolicy::lcfs(w_lcfs),
    };
    let ctl = match case % 3 {
        0 => ControllerConfig::Static,
        1 => ControllerConfig::Aimd(AimdConfig::around(w.ticks())),
        _ => ControllerConfig::Estimator(EstimatorConfig::around(w.ticks())),
    };
    let plan = if rng.below(4) == 0 {
        FaultPlan::uniform(0.01 + rng.f64() * 0.05)
    } else {
        FaultPlan::none()
    };
    let churn = if rng.below(4) == 0 {
        ChurnPlan::crash_restart(0.0005 + rng.f64() * 0.003, 20 + rng.below(60), 100)
    } else {
        ChurnPlan::none()
    };
    Case {
        channel,
        policy,
        rho,
        stations: 5 + rng.below(30) as u32,
        seed: 0xAB00 ^ case,
        plan,
        churn,
        ctl,
        fickle: false,
        horizon: 20_000 + rng.below(40_000),
    }
}

/// A heavy-load configuration: Oldest position and `OlderFirst` splits
/// at rho' in [0.85, 0.98], where most windows collide. Two or four
/// ticks per `tau` make same-tick clusters common; biased split
/// fractions exercise `split_window`; a third of the cases schedule
/// joins and leaves early, so collision rounds leave the fast path only
/// until the last transition.
fn draw_heavy_case(case: u64) -> Case {
    let mut rng = Rng::new(0x4EA7_0001 ^ (case.wrapping_mul(0x9E37_79B9)));
    let ticks_per_tau = [2, 4][rng.below(2) as usize];
    let channel = ChannelConfig {
        ticks_per_tau,
        message_slots: 5 + rng.below(21),
        guard: rng.below(2) == 0,
    };
    let rho = 0.85 + rng.f64() * 0.13;
    let w = Dur::from_ticks(ticks_per_tau * (1 + rng.below(6)));
    let k = Dur::from_ticks(ticks_per_tau * (20 + rng.below(100)));
    let base = if rng.below(3) == 0 {
        ControlPolicy::fcfs(w)
    } else {
        ControlPolicy::controlled(k, w)
    };
    let policy = ControlPolicy {
        split_fraction: [0.5, 0.5, 0.3, 0.7][rng.below(4) as usize],
        ..base
    };
    let ctl = match case % 3 {
        0 => ControllerConfig::Static,
        1 => ControllerConfig::Aimd(AimdConfig::around(w.ticks())),
        _ => ControllerConfig::Estimator(EstimatorConfig::around(w.ticks())),
    };
    let churn = if rng.below(3) == 0 {
        ChurnPlan {
            late_join_frac: 0.2,
            join_slot: 100 + rng.below(300),
            leave_frac: 0.2,
            leave_slot: 200 + rng.below(600),
            catch_up_slots: 50,
            ..ChurnPlan::none()
        }
    } else {
        ChurnPlan::none()
    };
    Case {
        channel,
        policy,
        rho,
        stations: 5 + rng.below(30) as u32,
        seed: 0xCD00 ^ case,
        plan: FaultPlan::none(),
        churn,
        ctl,
        fickle: false,
        horizon: 20_000 + rng.below(20_000),
    }
}

/// A light-load configuration with feedback faults, random crashes or
/// both, so every idle slot draws, plus late joins and permanent leaves
/// scheduled early in the run (some leaves before the joins).
fn draw_mixed_case(case: u64) -> Case {
    let mut rng = Rng::new(0x313E_0001 ^ (case.wrapping_mul(0x9E37_79B9)));
    let ticks_per_tau = [2, 4, 8, 16][rng.below(4) as usize];
    let channel = ChannelConfig {
        ticks_per_tau,
        message_slots: 1 + rng.below(8),
        guard: rng.below(2) == 0,
    };
    let rho = 0.02 + rng.f64() * 0.28;
    let w = Dur::from_ticks(ticks_per_tau * (1 + rng.below(6)));
    let k = Dur::from_ticks(ticks_per_tau * (20 + rng.below(100)));
    // Off the LCFS livelock boundary, as in `draw_case`.
    let w_lcfs = Dur::from_ticks(ticks_per_tau * (2 + rng.below(5)));
    let policy = match rng.below(3) {
        0 => ControlPolicy::controlled(k, w),
        1 => ControlPolicy::fcfs(w),
        _ => ControlPolicy::lcfs(w_lcfs),
    };
    let ctl = match case % 3 {
        0 => ControllerConfig::Static,
        1 => ControllerConfig::Aimd(AimdConfig::around(w.ticks())),
        _ => ControllerConfig::Estimator(EstimatorConfig::around(w.ticks())),
    };
    // Faults only, crashes only, or both.
    let mode = (case / 3) % 3;
    let plan = if mode != 1 {
        FaultPlan::uniform(0.01 + rng.f64() * 0.05)
    } else {
        FaultPlan::none()
    };
    let join_slot = 50 + rng.below(700);
    let churn = ChurnPlan {
        crash: if mode != 0 {
            0.0005 + rng.f64() * 0.003
        } else {
            0.0
        },
        down_slots: 20 + rng.below(60),
        late_join_frac: 0.1 + rng.f64() * 0.3,
        join_slot,
        leave_frac: 0.1 + rng.f64() * 0.3,
        leave_slot: if rng.below(3) == 0 {
            join_slot / 2
        } else {
            join_slot + rng.below(500)
        },
        catch_up_slots: 100,
        ..ChurnPlan::none()
    };
    Case {
        channel,
        policy,
        rho,
        stations: 5 + rng.below(30) as u32,
        seed: 0xEF00 ^ case,
        plan,
        churn,
        ctl,
        fickle: false,
        horizon: 20_000 + rng.below(40_000),
    }
}

fn build(case: &Case) -> Engine<PoissonArrivals> {
    let measure = MeasureConfig {
        start: Time::from_ticks(500),
        end: Time::from_ticks(case.horizon * 3 / 4),
        deadline: Dur::from_ticks(case.channel.ticks_per_tau * 75),
    };
    let mut eng = poisson_engine(
        case.channel,
        case.policy.clone(),
        measure,
        case.rho,
        case.stations,
        case.seed,
    );
    eng.set_fault_plan(case.plan);
    eng.set_churn_plan(case.churn, case.stations);
    eng.set_controller(if case.fickle {
        Box::<Fickle>::default()
    } else {
        case.ctl.build()
    });
    eng
}

/// Every observable output except `horizon_stats`, which legitimately
/// differs between the two paths.
fn summary(eng: &Engine<PoissonArrivals>) -> String {
    let m = &eng.metrics;
    let c = &eng.channel_stats;
    let h = m.paper_delay_histogram();
    format!(
        "offered={} sender={} receiver={} loss={:016x} now={} succ={} coll={} idle={} \
         idle_dur={} erased={} quiet={} paper_mean={:016x} paper_max={:016x} \
         true_mean={:016x} sched={:016x} util={:016x} corrupted={} resyncs={} abandoned={} \
         reopened={} fault_losses={} churn_blocked={} churn_losses={} churn_reopened={} \
         crashes={} restarts={} churn_slot={} ctl_window={} ctl_shrinks={} ctl_grows={} \
         fragments={} backlog={} pending={} aoi_n={} aoi_st={} aoi_mean={:016x} \
         aoi_viol={:016x} aoi_peak_n={} aoi_peak_mean={:016x} paper_hist={:?}",
        m.offered(),
        m.sender_lost(),
        m.receiver_lost(),
        m.loss_fraction().to_bits(),
        eng.now().ticks(),
        c.successes,
        c.collision_slots,
        c.idle_slots,
        c.idle.ticks(),
        c.erased_slots,
        c.quiet.ticks(),
        m.paper_delay().mean().to_bits(),
        m.paper_delay().max().to_bits(),
        m.true_delay().mean().to_bits(),
        m.sched_time().mean().to_bits(),
        c.utilization().to_bits(),
        m.corrupted_slots(),
        m.resyncs(),
        m.rounds_abandoned(),
        m.reopened(),
        m.fault_losses(),
        m.churn_blocked(),
        m.churn_losses(),
        m.churn_reopened(),
        eng.churn().crashes(),
        eng.churn().restarts(),
        eng.churn().slot(),
        eng.controller().window_ticks(),
        eng.controller().shrinks(),
        eng.controller().grows(),
        eng.timeline().examined_fragments(),
        eng.timeline().unexamined_total().ticks(),
        eng.pending_count(),
        m.aoi().deliveries(),
        m.aoi().stations_observed(),
        m.aoi().mean_age().unwrap_or(-1.0).to_bits(),
        m.aoi().violation_fraction().unwrap_or(-1.0).to_bits(),
        m.aoi().peak_age().count(),
        m.aoi().peak_age().mean().to_bits(),
        (
            h.underflow(),
            (0..h.bins()).map(|i| h.bin_count(i)).collect::<Vec<_>>(),
            h.overflow(),
        ),
    )
}

/// The engine snapshot without its last six words (`jump_ahead`, the
/// four horizon counters and the checksum). It holds every RNG stream
/// position and every station's churn state, so a stream drawn once too
/// often on one path shows here even when no metric moves.
fn state_words(eng: &Engine<PoissonArrivals>) -> Vec<u64> {
    let mut words = eng.snapshot().expect("Poisson sources checkpoint");
    words.truncate(words.len() - 6);
    words
}

/// A controller that commands the whole backlog, except one tick for the
/// decision after every seventh idle initial probe. Inside an idle jump
/// that decision is a bail: the jump must end before the slot with no
/// fault draw taken, or the fault stream drifts from the slow path's.
#[derive(Default)]
struct Fickle {
    idle_initials: u64,
    last: u64,
}

impl WindowController for Fickle {
    fn next_length(&mut self, _now: Time, backlog: Dur, _policy: &ControlPolicy) -> u64 {
        self.last = if self.idle_initials % 7 == 6 {
            1
        } else {
            backlog.ticks().max(1)
        };
        self.last
    }
    fn on_slot(&mut self, ctx: SlotContext, outcome: &SlotOutcome) {
        if matches!(ctx, SlotContext::Initial { .. }) && *outcome == SlotOutcome::Idle {
            self.idle_initials += 1;
        }
    }
    fn window_ticks(&self) -> u64 {
        self.last
    }
    fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push(self.idle_initials);
        w.push(self.last);
    }
    fn load_state(
        &mut self,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        self.idle_initials = r.take()?;
        self.last = r.take()?;
        Ok(())
    }
}

/// Watches a run without asking for the slow path. It records every
/// transmission in order: both paths must transmit the same messages at
/// the same instants, which catches a reordering that leaves every
/// summary statistic unchanged. It also counts the collision probes
/// reported one by one through `on_probe`; the batched kernel reports
/// none, so on a fast run the channel's collision count minus this tally
/// is the number of collision probes the kernel resolved. And it counts
/// the idle jumps that ended with a membership transition, whose
/// callback fires inside the jump.
#[derive(Default)]
struct RunLog {
    /// `(id, start, paper delay, true delay)` per `on_transmit`.
    transmits: Vec<(MessageId, Time, Dur, Dur)>,
    collisions: u64,
    last_churn: Option<Time>,
    transition_jumps: u64,
}

impl EngineObserver for RunLog {
    fn on_transmit(&mut self, msg: &Message, start: Time, paper: Dur, true_d: Dur) {
        self.transmits.push((msg.id, start, paper, true_d));
    }
    fn on_probe(&mut self, _start: Time, _segments: &[Interval], outcome: &SlotOutcome, _dur: Dur) {
        if matches!(outcome, SlotOutcome::Collision(_)) {
            self.collisions += 1;
        }
    }
    fn on_churn_event(&mut self, now: Time, _ev: &ChurnEvent) {
        self.last_churn = Some(now);
    }
    fn on_idle_jump(&mut self, from: Time, _to: Time, _slots: u64) {
        if self.last_churn.is_some_and(|t| t > from) {
            self.transition_jumps += 1;
        }
    }
}

/// What the fast run of [`run_both_paths`] did on its fast path.
struct FastRun {
    stats: HorizonStats,
    /// Collision probes the batched kernel resolved.
    kernel_collisions: u64,
    /// Idle jumps that ended with a membership transition.
    transition_jumps: u64,
}

/// Runs `cfg` with the fast path on and forced off, asserts the two runs
/// are bit-identical, and returns what the fast run did on its fast path.
fn run_both_paths(cfg: &Case, label: &str) -> FastRun {
    let horizon = Time::from_ticks(cfg.horizon);

    let mut fast = build(cfg);
    assert!(fast.jump_ahead(), "jump-ahead must default on");
    let mut fast_log = RunLog::default();
    fast.run_until(horizon, &mut fast_log);
    fast.drain(&mut fast_log);

    let mut slow = build(cfg);
    slow.set_jump_ahead(false);
    let mut slow_log = RunLog::default();
    slow.run_until(horizon, &mut slow_log);
    slow.drain(&mut slow_log);

    let (a, b) = (&fast_log.transmits, &slow_log.transmits);
    assert!(!a.is_empty(), "{label}: nothing was transmitted");
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "{label}: transmission {i} diverged from slot stepping: fast {:?}, slow {:?}",
            a.get(i),
            b.get(i)
        );
    }
    assert_eq!(
        summary(&fast),
        summary(&slow),
        "{label}: fast path diverged from slot stepping"
    );
    assert_eq!(
        state_words(&fast),
        state_words(&slow),
        "{label}: engine state diverged from slot stepping"
    );
    assert_eq!(
        slow.horizon_stats.jumps + slow.horizon_stats.batched_runs,
        0,
        "{label}: disabled fast path must not activate"
    );
    FastRun {
        stats: fast.horizon_stats,
        kernel_collisions: fast.channel_stats.collision_slots - fast_log.collisions,
        transition_jumps: fast_log.transition_jumps,
    }
}

/// Jump-ahead on vs. forced slot stepping: bit-identical on every
/// configuration, and the fast path genuinely engages across the suite
/// (a vacuously-equal test with the jump never firing would prove
/// nothing) — idle jumps included in the cases with feedback faults and
/// in those with random crashes, where every slot draws.
#[test]
fn jump_ahead_is_bit_identical_to_slot_stepping() {
    let mut total_jumps = 0u64;
    let mut total_batched = 0u64;
    // (cases, cases with idle jumps) with a fault plan / with crashes.
    let mut faulty = (0u64, 0u64);
    let mut crashing = (0u64, 0u64);
    for case in 0..CASES {
        let cfg = draw_case(case);
        let stats = run_both_paths(&cfg, &format!("case {case}")).stats;
        total_jumps += stats.jumps;
        total_batched += stats.batched_runs;
        for (on, tally) in [
            (!cfg.plan.is_none(), &mut faulty),
            (cfg.churn.crash > 0.0, &mut crashing),
        ] {
            if on {
                tally.0 += 1;
                tally.1 += u64::from(stats.jumps > 0);
            }
        }
    }
    assert!(
        total_jumps > 0 && total_batched > 0,
        "fast path never engaged: jumps={total_jumps} batched={total_batched}"
    );
    // Two heavy-load AIMD fault cases never reach the steady idle shape.
    assert!(
        faulty.0 > 0 && faulty.1 * 10 >= faulty.0 * 9,
        "idle jumps in too few fault cases: {faulty:?}"
    );
    assert!(
        crashing.0 > 0 && crashing.1 == crashing.0,
        "idle jumps missing in crash cases: {crashing:?}"
    );
}

/// Heavy load: bit-identical on both paths, and in every case the
/// batched kernel resolved collision probes itself instead of handing
/// the round to the slot-stepped cycle.
#[test]
fn heavy_load_collisions_stay_on_the_fast_path() {
    for case in 0..HEAVY_CASES {
        let cfg = draw_heavy_case(case);
        let label = format!("heavy case {case}");
        assert!(
            run_both_paths(&cfg, &label).kernel_collisions > 0,
            "{label}: no collision probe was resolved on the fast path"
        );
    }
}

/// Feedback faults, random crashes or both, composed with scheduled
/// joins and leaves: bit-identical on both paths, every case takes idle
/// jumps, and across the suite jumps end with a membership transition,
/// so the per-slot jump's hand-off to `churn_step` is exercised.
#[test]
fn idle_jumps_step_through_faults_and_churn_transitions() {
    let mut transition_jumps = 0u64;
    for case in 0..MIXED_CASES {
        let label = format!("mixed case {case}");
        let run = run_both_paths(&draw_mixed_case(case), &label);
        assert!(run.stats.jumps > 0, "{label}: no idle jump");
        transition_jumps += run.transition_jumps;
    }
    assert!(
        transition_jumps > 0,
        "no idle jump ended with a membership transition"
    );
}

/// The same compositions under a controller that bails out of idle jumps
/// every few slots: the bail leaves no fault draw behind.
#[test]
fn idle_jump_bails_leave_every_stream_untouched() {
    for case in 0..MIXED_CASES / 3 {
        let cfg = Case {
            fickle: true,
            ..draw_mixed_case(case)
        };
        let label = format!("fickle case {case}");
        assert!(
            run_both_paths(&cfg, &label).stats.jumps > 0,
            "{label}: no idle jump"
        );
    }
}

/// Feedback faults and random crashes keep no round off the batched
/// kernel: every Oldest-position case of the general and mixed suites
/// with a fault plan or random crashes resolves rounds there. The tests
/// above prove these runs bit-identical to slot stepping.
#[test]
fn faulty_and_crashing_rounds_run_on_the_batched_kernel() {
    let general = (0..CASES).map(|case| (format!("case {case}"), draw_case(case)));
    let mixed = (0..MIXED_CASES).map(|case| (format!("mixed case {case}"), draw_mixed_case(case)));
    // Cases checked with a fault plan / with random crashes.
    let (mut faulty, mut crashing) = (0u64, 0u64);
    for (label, cfg) in general.chain(mixed) {
        let (faults, crashes) = (!cfg.plan.is_none(), cfg.churn.crash > 0.0);
        if !matches!(cfg.policy.position, WindowPosition::Oldest) || !(faults || crashes) {
            continue;
        }
        faulty += u64::from(faults);
        crashing += u64::from(crashes);
        let mut eng = build(&cfg);
        eng.run_until(Time::from_ticks(cfg.horizon), &mut NoopObserver);
        assert!(
            eng.horizon_stats.batched_runs > 0,
            "{label}: no round ran on the batched kernel"
        );
    }
    assert!(
        faulty > 0 && crashing > 0,
        "too few cases: {faulty} with faults, {crashing} with crashes"
    );
}

/// A slow-path-demanding observer disables the fast path even when
/// `jump_ahead` is left on, and the run still matches the stepped one.
#[test]
fn slow_path_observer_forces_slot_stepping() {
    struct Demand;
    impl tcw_window::trace::EngineObserver for Demand {
        fn slow_path(&self) -> bool {
            true
        }
    }
    for case in [0u64, 1, 2, 7, 31] {
        let cfg = draw_case(case);
        let horizon = Time::from_ticks(cfg.horizon);

        let mut observed = build(&cfg);
        observed.run_until(horizon, &mut Demand);
        observed.drain(&mut Demand);
        assert_eq!(
            observed.horizon_stats.jumps + observed.horizon_stats.batched_runs,
            0,
            "case {case}: observer demanded slot stepping"
        );

        let mut slow = build(&cfg);
        slow.set_jump_ahead(false);
        slow.run_until(horizon, &mut NoopObserver);
        slow.drain(&mut NoopObserver);
        assert_eq!(summary(&observed), summary(&slow), "case {case}");
    }
}

/// Records every lifecycle-span callback, and every membership
/// transition (which also fires inside idle jumps), as text while keeping
/// `slow_path()` = false, like the real span tracer: the stream must be
/// byte-identical whether the fast path engages or is forced off.
#[derive(Default)]
struct SpanLog {
    lines: Vec<String>,
    force_slow: bool,
}

impl tcw_window::trace::EngineObserver for SpanLog {
    fn slow_path(&self) -> bool {
        self.force_slow
    }
    fn on_arrival(&mut self, msg: &tcw_mac::Message, now: Time) {
        self.lines
            .push(format!("arr {:?} {:?} {}", msg.id, msg.station, now));
    }
    fn on_window_member(&mut self, msg: &tcw_mac::Message, now: Time) {
        self.lines.push(format!("win {:?} {}", msg.id, now));
    }
    fn on_collision_member(&mut self, msg: &tcw_mac::Message, now: Time) {
        self.lines.push(format!("col {:?} {}", msg.id, now));
    }
    fn on_transmit(&mut self, msg: &tcw_mac::Message, start: Time, paper: Dur, true_d: Dur) {
        self.lines
            .push(format!("tx {:?} {} {} {}", msg.id, start, paper, true_d));
    }
    fn on_sender_discard(&mut self, msg: &tcw_mac::Message, now: Time) {
        self.lines.push(format!("disc {:?} {}", msg.id, now));
    }
    fn on_message_drop(
        &mut self,
        msg: &tcw_mac::Message,
        now: Time,
        cause: tcw_window::trace::DropCause,
    ) {
        self.lines
            .push(format!("drop {:?} {} {}", msg.id, now, cause.label()));
    }
    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        self.lines.push(format!("churn {ev:?} {now}"));
    }
}

/// The lifecycle-span stream is a fast-path-safe observation: recording
/// it must leave the fast path engaged, and the recorded stream must be
/// byte-identical to the one a forced slot-stepped run produces.
#[test]
fn span_stream_is_identical_on_both_paths() {
    let mut engaged = 0u64;
    let general = (0..CASES / 4).map(|case| (format!("case {case}"), draw_case(case)));
    let heavy =
        (0..HEAVY_CASES / 4).map(|case| (format!("heavy case {case}"), draw_heavy_case(case)));
    let mixed =
        (0..MIXED_CASES / 3).map(|case| (format!("mixed case {case}"), draw_mixed_case(case)));
    for (label, cfg) in general.chain(heavy).chain(mixed) {
        let horizon = Time::from_ticks(cfg.horizon);

        let mut fast = build(&cfg);
        let mut fast_log = SpanLog::default();
        fast.run_until(horizon, &mut fast_log);
        fast.drain(&mut fast_log);
        engaged += fast.horizon_stats.jumps + fast.horizon_stats.batched_runs;

        let mut slow = build(&cfg);
        let mut slow_log = SpanLog {
            force_slow: true,
            ..SpanLog::default()
        };
        slow.run_until(horizon, &mut slow_log);
        slow.drain(&mut slow_log);
        assert_eq!(
            slow.horizon_stats.jumps + slow.horizon_stats.batched_runs,
            0,
            "{label}: slow_path() observer must force slot stepping"
        );

        assert_eq!(
            fast_log.lines.join("\n"),
            slow_log.lines.join("\n"),
            "{label}: span stream diverged between paths"
        );
        assert_eq!(summary(&fast), summary(&slow), "{label}");
    }
    assert!(engaged > 0, "fast path never engaged under the span log");
}
