//! Differential test of `Engine` against the naive reference engine in
//! `reference/mod.rs`, which shares no state machinery with it.
//!
//! 1024 fault- and churn-free configurations, reproducible from their
//! index, span the controlled, FCFS, LCFS and RANDOM disciplines, all
//! three split rules, split fractions 0.3–0.7, offered loads rho'
//! 0.05–0.98, 1–16 ticks per `tau` and all three window controllers.
//! Each runs three times to the same horizon and then drains:
//!
//! - the engine under a `slow_path()` observer must report exactly the
//!   reference's sequence of decisions (time, initial window segments,
//!   and the policy stream's state at the beacon), probes (start,
//!   segments, outcome, duration), deliveries (id, start, paper delay,
//!   true delay) and sender discards;
//! - the engine with its fast path on must report the same deliveries
//!   and discards, in the same order.
//!
//! Engine reports are checked as they happen, so a diverging engine
//! fails at its first wrong event.

mod reference;

use reference::{Event, RefEngine, Span};
use tcw_mac::{ChannelConfig, Message, PoissonArrivals, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::{Engine, EngineConfig};
use tcw_window::interval::Interval;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::{ControlPolicy, SplitRule};
use tcw_window::timeline::Timeline;
use tcw_window::trace::EngineObserver;
use tcw_window::{AimdConfig, ControllerConfig, EstimatorConfig};

/// Configurations per discipline.
const CONFIGS: u64 = 256;

#[derive(Clone, Copy, Debug)]
enum Discipline {
    Controlled,
    Fcfs,
    Lcfs,
    Random,
}

#[derive(Debug)]
struct Config {
    channel: ChannelConfig,
    policy: ControlPolicy,
    ctl: ControllerConfig,
    rho: f64,
    stations: u32,
    seed: u64,
    horizon: u64,
}

fn draw(discipline: Discipline, case: u64) -> Config {
    let mut rng =
        Rng::new(0xD1FF_0001 ^ ((discipline as u64) << 40) ^ case.wrapping_mul(0x9E37_79B9));
    let tpt = 1 + rng.below(16);
    let channel = ChannelConfig {
        ticks_per_tau: tpt,
        message_slots: 1 + rng.below(12),
        guard: rng.below(2) == 0,
    };
    let w = Dur::from_ticks(1 + rng.below(6 * tpt));
    let wide = Dur::from_ticks(tpt * (2 + rng.below(5)));
    let k = Dur::from_ticks(tpt * (10 + rng.below(140)));
    let base = match discipline {
        Discipline::Controlled => ControlPolicy::controlled(k, w),
        Discipline::Fcfs => ControlPolicy::fcfs(w),
        // A Newest window no wider than `tau` livelocks `drain`
        // (DESIGN.md §11.4): each idle probe examines no more time than
        // it accrues. A Random window that narrow lets the backlog grow
        // while the drain hunts for the last messages. Both span two
        // `tau` or more.
        Discipline::Lcfs => ControlPolicy::lcfs(wide),
        Discipline::Random => ControlPolicy::random(wide),
    };
    let split = match rng.below(4) {
        0 => SplitRule::OlderFirst,
        1 => SplitRule::NewerFirst,
        2 => SplitRule::Random,
        _ => base.split,
    };
    let split_fraction = if rng.below(2) == 0 {
        0.5
    } else {
        0.3 + 0.4 * rng.f64()
    };
    let window = match &base.length {
        tcw_window::WindowLength::Fixed(d) => d.ticks(),
        tcw_window::WindowLength::PerBacklog(_) => unreachable!("presets use fixed windows"),
    };
    let ctl = match case % 3 {
        0 => ControllerConfig::Static,
        1 => ControllerConfig::Aimd(AimdConfig::around(window)),
        _ => ControllerConfig::Estimator(EstimatorConfig::around(window)),
    };
    Config {
        channel,
        policy: ControlPolicy {
            split,
            split_fraction,
            ..base
        },
        ctl,
        rho: 0.05 + 0.93 * rng.f64(),
        stations: 1 + rng.below(30) as u32,
        seed: rng.next_u64(),
        horizon: tpt * (200 + rng.below(1000)),
    }
}

fn source(cfg: &Config) -> PoissonArrivals {
    let rate_per_tau = cfg.rho / cfg.channel.message_slots as f64;
    PoissonArrivals::per_tau(rate_per_tau, cfg.channel.ticks_per_tau, cfg.stations)
}

fn engine(cfg: &Config) -> Engine<PoissonArrivals> {
    let mut eng = Engine::new(
        EngineConfig {
            channel: cfg.channel,
            policy: cfg.policy.clone(),
            measure: MeasureConfig {
                start: Time::ZERO,
                end: Time::from_ticks(cfg.horizon),
                deadline: Dur::from_ticks(cfg.channel.ticks_per_tau * 50),
            },
            seed: cfg.seed,
        },
        source(cfg),
    );
    eng.set_controller(cfg.ctl.build());
    eng
}

/// Checks the engine's reports, as they happen, against the events the
/// reference engine logged, so a diverging engine fails at its first
/// wrong event instead of running on (a mis-mapped window can livelock
/// `drain`). With `slow` set it demands every per-slot callback and
/// checks decisions and probes too; otherwise it leaves the fast path on
/// and checks deliveries and discards only.
struct Checker<'a> {
    label: String,
    cfg: &'a Config,
    slow: bool,
    want: Vec<&'a Event>,
    seen: usize,
    beacon_rng: [u64; 4],
}

impl<'a> Checker<'a> {
    fn new(label: String, cfg: &'a Config, slow: bool, reference: &'a [Event]) -> Self {
        let want = reference
            .iter()
            .filter(|e| slow || matches!(e, Event::Delivery { .. } | Event::Discard { .. }))
            .collect();
        Checker {
            label,
            cfg,
            slow,
            want,
            seen: 0,
            beacon_rng: [0; 4],
        }
    }

    fn check(&mut self, got: Event) {
        let i = self.seen;
        if self.want.get(i) != Some(&&got) {
            let from = i.saturating_sub(4);
            panic!(
                "{}: engine departs from the reference at event {i}\nconfig: {:?}\n\
                 engine: {got:?}\nreference, from event {from}: {:#?}",
                self.label,
                self.cfg,
                &self.want[from..self.want.len().min(i + 2)],
            );
        }
        self.seen += 1;
    }

    fn finish(&self) {
        assert_eq!(
            self.seen,
            self.want.len(),
            "{}: engine stopped short of the reference",
            self.label
        );
    }
}

fn spans(segments: &[Interval]) -> Vec<Span> {
    segments
        .iter()
        .map(|s| (s.lo.ticks(), s.hi.ticks()))
        .collect()
}

impl EngineObserver for Checker<'_> {
    fn slow_path(&self) -> bool {
        self.slow
    }
    fn on_beacon(&mut self, _now: Time, _timeline: &Timeline, rng: &Rng) {
        self.beacon_rng = rng.state();
    }
    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        if self.slow {
            self.check(Event::Decision {
                t: now.ticks(),
                rng: self.beacon_rng,
                window: segments.map(spans),
            });
        }
    }
    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        if self.slow {
            self.check(Event::Probe {
                t: start.ticks(),
                window: spans(segments),
                outcome: *outcome,
                dur: dur.ticks(),
            });
        }
    }
    fn on_transmit(&mut self, msg: &Message, start: Time, paper: Dur, true_delay: Dur) {
        self.check(Event::Delivery {
            id: msg.id.0,
            start: start.ticks(),
            paper: paper.ticks(),
            true_delay: true_delay.ticks(),
        });
    }
    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.check(Event::Discard {
            id: msg.id.0,
            t: now.ticks(),
        });
    }
}

/// What a discipline's configurations exercised, so that a vacuous pass
/// cannot go unnoticed.
#[derive(Default, Debug)]
struct Coverage {
    deliveries: u64,
    discards: u64,
    /// Decisions whose initial window spans several actual segments.
    fragmented: u64,
    /// Sub-tick coin probes that someone transmitted in (the zero-backlog
    /// idle slot, also reported without a window, is always idle).
    coin_probes: u64,
    /// Configurations in which the fast path engaged.
    fast: u64,
}

fn check(discipline: Discipline) -> Coverage {
    let mut cov = Coverage::default();
    for case in 0..CONFIGS {
        let cfg = draw(discipline, case);
        let label = format!("{discipline:?} case {case}");

        let mut oracle = RefEngine::new(
            cfg.channel,
            cfg.policy.clone(),
            cfg.ctl.build(),
            cfg.seed,
            source(&cfg),
        );
        oracle.run_until(cfg.horizon);
        oracle.drain();
        let want = oracle.events;

        for slow in [true, false] {
            let path = if slow { "slow" } else { "fast" };
            let mut checker = Checker::new(format!("{label}, {path} path"), &cfg, slow, &want);
            let mut eng = engine(&cfg);
            eng.run_until(Time::from_ticks(cfg.horizon), &mut checker);
            eng.drain(&mut checker);
            checker.finish();
            if !slow {
                cov.fast += u64::from(eng.horizon_stats.jumps + eng.horizon_stats.batched_runs > 0);
            }
        }

        for e in &want {
            match e {
                Event::Delivery { .. } => cov.deliveries += 1,
                Event::Discard { .. } => cov.discards += 1,
                Event::Decision {
                    window: Some(w), ..
                } if w.len() > 1 => cov.fragmented += 1,
                Event::Probe {
                    window, outcome, ..
                } if window.is_empty() && *outcome != SlotOutcome::Idle => cov.coin_probes += 1,
                _ => {}
            }
        }
    }
    cov
}

#[test]
fn controlled_matches_reference() {
    let cov = check(Discipline::Controlled);
    assert!(cov.deliveries > 10_000 && cov.discards > 1_000, "{cov:?}");
    assert!(cov.coin_probes > 0 && cov.fast >= CONFIGS / 2, "{cov:?}");
}

#[test]
fn fcfs_matches_reference() {
    let cov = check(Discipline::Fcfs);
    assert!(cov.deliveries > 10_000 && cov.coin_probes > 0, "{cov:?}");
    assert!(cov.fast >= CONFIGS / 2, "{cov:?}");
}

#[test]
fn lcfs_matches_reference() {
    let cov = check(Discipline::Lcfs);
    assert!(cov.deliveries > 10_000 && cov.fragmented > 100, "{cov:?}");
}

#[test]
fn random_matches_reference() {
    let cov = check(Discipline::Random);
    assert!(cov.deliveries > 10_000 && cov.fragmented > 100, "{cov:?}");
}
