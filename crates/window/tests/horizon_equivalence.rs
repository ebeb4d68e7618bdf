//! A-B equivalence proof for the event-horizon fast path.
//!
//! The engine promises that the idle-slot jump-ahead and the batched
//! collision-resolution kernel are pure dispatch optimizations: on any
//! fixed seed, a run with `jump_ahead` on is bit-identical — every
//! metric bit pattern, the channel accounting, the clock, the
//! controller's internal state, the churn counters and the examined-set
//! shape — to the same run forced through the slot-stepped path. The
//! only permitted difference is [`tcw_window::engine::HorizonStats`],
//! which counts the fast path's own activations and is excluded here.
//!
//! 200 randomized configurations sweep offered load (weighted toward
//! the light-load regime where the jump engages), population, channel
//! geometry, window policy, all three controllers, fault plans and
//! churn plans. 60 more stay in the regime where most windows collide,
//! which the batched kernel resolves in place. Cases reproduce from their
//! index (deterministic `tcw_sim` RNG, no external framework).

use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::{poisson_engine, Engine, HorizonStats};
use tcw_window::interval::Interval;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::{EngineObserver, NoopObserver};
use tcw_window::{AimdConfig, ControllerConfig, EstimatorConfig};

const CASES: u64 = 200;
const HEAVY_CASES: u64 = 60;

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
        horizon: 20_000 + rng.below(20_000),
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
    eng.set_controller(case.ctl.build());
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
         aoi_viol={:016x} aoi_peak_n={} aoi_peak_mean={:016x} true_p95={:?} true_p99={:?} \
         paper_hist={:?}",
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
        // The P² estimators depend on the order of the deliveries, so
        // they catch a reordering that leaves every mean unchanged.
        m.true_delay_p95().map(f64::to_bits),
        m.true_delay_p99().map(f64::to_bits),
        (
            h.underflow(),
            (0..h.bins()).map(|i| h.bin_count(i)).collect::<Vec<_>>(),
            h.overflow(),
        ),
    )
}

/// Counts the collision probes reported one by one through `on_probe`
/// while leaving the fast path on. The batched kernel reports none, so
/// the channel's collision count minus this tally is the number of
/// collision probes the kernel resolved.
#[derive(Default)]
struct CollisionTally(u64);

impl EngineObserver for CollisionTally {
    fn on_probe(&mut self, _start: Time, _segments: &[Interval], outcome: &SlotOutcome, _dur: Dur) {
        if matches!(outcome, SlotOutcome::Collision(_)) {
            self.0 += 1;
        }
    }
}

/// Runs `cfg` with the fast path on and forced off, asserts the two runs
/// are bit-identical, and returns the fast run's fast-path counters and
/// the collision probes its batched kernel resolved.
fn run_both_paths(cfg: &Case, label: &str) -> (HorizonStats, u64) {
    let horizon = Time::from_ticks(cfg.horizon);

    let mut fast = build(cfg);
    assert!(fast.jump_ahead(), "jump-ahead must default on");
    let mut tally = CollisionTally::default();
    fast.run_until(horizon, &mut tally);
    fast.drain(&mut tally);

    let mut slow = build(cfg);
    slow.set_jump_ahead(false);
    slow.run_until(horizon, &mut NoopObserver);
    slow.drain(&mut NoopObserver);

    assert_eq!(
        summary(&fast),
        summary(&slow),
        "{label}: fast path diverged from slot stepping"
    );
    assert_eq!(
        slow.horizon_stats.jumps + slow.horizon_stats.batched_runs,
        0,
        "{label}: disabled fast path must not activate"
    );
    (
        fast.horizon_stats,
        fast.channel_stats.collision_slots - tally.0,
    )
}

/// Jump-ahead on vs. forced slot stepping: bit-identical on every
/// configuration, and the fast path genuinely engages across the suite
/// (a vacuously-equal test with the jump never firing would prove
/// nothing).
#[test]
fn jump_ahead_is_bit_identical_to_slot_stepping() {
    let mut total_jumps = 0u64;
    let mut total_batched = 0u64;
    for case in 0..CASES {
        let (stats, _) = run_both_paths(&draw_case(case), &format!("case {case}"));
        total_jumps += stats.jumps;
        total_batched += stats.batched_runs;
    }
    assert!(
        total_jumps > 0 && total_batched > 0,
        "fast path never engaged: jumps={total_jumps} batched={total_batched}"
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
        let (_, kernel_collisions) = run_both_paths(&cfg, &label);
        assert!(
            kernel_collisions > 0,
            "{label}: no collision probe was resolved on the fast path"
        );
    }
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

/// Records every lifecycle-span callback as text while keeping
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
    for (label, cfg) in general.chain(heavy) {
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
