//! Multi-class minimum-slack windowing — the §5 priority extension.
//!
//! The paper closes by asking how stations with different priorities
//! could be served differently. Group polling makes one clean answer
//! possible: the enabling criterion may combine a *traffic class* with an
//! arrival-time window (§2 allows any criterion — station addresses,
//! time intervals, and by extension class tags). Each class `c` carries
//! its own deadline `K_c` and its own view of the time axis; at every
//! decision point the protocol picks the served class by a [`ClassRule`]
//! and runs one windowing round within it (oldest window, older half
//! first, per-class discard — the Theorem-1 elements). All quantities are
//! channel-observable, so the scheme remains fully distributed.
//!
//! Lifting Theorem 1 naively — serve the class with minimum absolute
//! slack — turns out to be wrong: a tight-deadline class's *fresh, empty*
//! time keeps its slack small forever, starving looser classes
//! ([`ClassRule::MinSlack`]'s documented pathology). The working rule is
//! proportional urgency, `argmax_c (now - t_past_c)/K_c`.
//!
//! Each class is one [`Engine`] under `ControlPolicy::controlled(K_c,
//! W_c)` with master seed `stream_seed(seed, c)`, and
//! [`MulticlassEngine`] only schedules them. At each decision point it
//! picks a class from the class engines' timelines, runs one
//! [`Engine::step`] on it, and lets every other class
//! [`Engine::yield_until`] the end of that step. Every ingest, discard,
//! round and coin flip therefore happens inside `Engine`. With a single
//! class the scheduler always steps class 0, so the run is bit-identical
//! to that class's engine run alone; the test
//! `single_class_is_bit_identical_to_engine` compares every metric,
//! every channel counter and the final clock.

use crate::engine::{Engine, EngineConfig};
use crate::metrics::{MeasureConfig, Metrics};
use crate::policy::ControlPolicy;
use crate::trace::NoopObserver;
use tcw_mac::{ArrivalSource, ChannelConfig};
use tcw_sim::rng::stream_seed;
use tcw_sim::time::{Dur, Time};

/// How the served class is chosen at each decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassRule {
    /// Serve the class with the smallest absolute slack
    /// `K_c - (now - t_past_c)`.
    ///
    /// **Caveat (a finding of this reproduction):** because a class's
    /// fresh, just-elapsed time counts as unexamined backlog, a
    /// tight-deadline class *always* has small slack even when it has no
    /// traffic at all — so pure minimum slack starves every looser class
    /// (served only when its own slack decays to the tight class's
    /// level). The tests demonstrate the pathology.
    MinSlack,
    /// Serve the class with the largest *age fraction*
    /// `(now - t_past_c) / K_c` — proportional urgency. Equalizing age
    /// fractions shares the channel deadline-monotonically and avoids the
    /// fresh-time starvation of [`ClassRule::MinSlack`].
    ProportionalUrgency,
}

/// Per-class configuration.
pub struct ClassSpec {
    /// The class's delivery deadline `K_c`.
    pub deadline: Dur,
    /// The class's initial window length (element (2); typically the §4.1
    /// heuristic at the class's own arrival rate).
    pub window: Dur,
    /// The class's arrival process.
    pub source: Box<dyn ArrivalSource>,
}

/// One class's protocol engine.
pub type ClassEngine = Engine<Box<dyn ArrivalSource>>;

/// The multi-class minimum-slack protocol: a class scheduler over one
/// controlled [`Engine`] per class, all sharing one clock.
pub struct MulticlassEngine {
    rule: ClassRule,
    /// `K_c`, per class.
    deadlines: Vec<Dur>,
    classes: Vec<ClassEngine>,
}

impl MulticlassEngine {
    /// Creates an engine serving the given classes over one channel.
    ///
    /// # Panics
    /// Panics if no classes are given.
    pub fn new(
        channel: ChannelConfig,
        rule: ClassRule,
        classes: Vec<ClassSpec>,
        measure: MeasureConfig,
        seed: u64,
    ) -> Self {
        assert!(!classes.is_empty());
        let deadlines = classes.iter().map(|spec| spec.deadline).collect();
        let classes = classes
            .into_iter()
            .enumerate()
            .map(|(c, spec)| {
                let cfg = EngineConfig {
                    channel,
                    policy: ControlPolicy::controlled(spec.deadline, spec.window),
                    measure: MeasureConfig {
                        deadline: spec.deadline,
                        ..measure
                    },
                    seed: stream_seed(seed, c as u64),
                };
                Engine::new(cfg, spec.source)
            })
            .collect();
        MulticlassEngine {
            rule,
            deadlines,
            classes,
        }
    }

    /// Current simulation time (every class engine's clock).
    pub fn now(&self) -> Time {
        self.classes[0].now()
    }

    /// Per-class metrics.
    pub fn class_metrics(&self, c: usize) -> &Metrics {
        &self.classes[c].metrics
    }

    /// Class `c`'s engine. Its `channel_stats` hold the channel time of
    /// the steps it ran; summed over classes they cover the whole clock.
    pub fn class(&self, c: usize) -> &ClassEngine {
        &self.classes[c]
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total pending messages across classes.
    pub fn pending_count(&self) -> usize {
        self.classes.iter().map(|e| e.pending_count()).sum()
    }

    /// Runs until the clock reaches `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        while self.now() < horizon {
            self.cycle();
        }
    }

    /// Stops admitting arrivals and resolves every admitted message.
    pub fn drain(&mut self) {
        for e in &mut self.classes {
            e.close_admission(&mut NoopObserver);
        }
        while !self.classes.iter().all(|e| e.is_drained()) {
            self.cycle();
        }
    }

    /// One decision point: choose a class, step it, and let every other
    /// class yield the channel until that step ends. When no class has
    /// unexamined time, class 0's step idles the slot.
    fn cycle(&mut self) {
        let c = self.choose().unwrap_or(0);
        self.classes[c].step(&mut NoopObserver);
        let end = self.classes[c].now();
        for e in &mut self.classes {
            // A no-op for the class that just stepped.
            e.yield_until(end);
        }
    }

    /// The class the rule serves, among those with unexamined time.
    fn choose(&self) -> Option<usize> {
        let now = self.now();
        let backlogged = (0..self.classes.len()).filter_map(|c| {
            let age = (now - self.t_past(c)?).ticks();
            Some((c, age, self.deadlines[c].ticks()))
        });
        match self.rule {
            ClassRule::MinSlack => backlogged
                .min_by_key(|&(c, age, k)| (k as i128 - age as i128, c))
                .map(|(c, ..)| c),
            // Compares age/K as scaled integers to stay exact and
            // platform-independent; ties go to the lower class.
            ClassRule::ProportionalUrgency => backlogged
                .map(|(c, age, k)| (age as u128 * (1 << 20) / k.max(1) as u128, c))
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .map(|(_, c)| c),
        }
    }

    /// The `t_past` class `c`'s next decision will see: the oldest
    /// unexamined instant at or after its element (4) cutoff `now - K_c`,
    /// or `None` when there is none. A controlled class's unexamined
    /// region is one interval `[t_past, now)` (Lemma 2), and a yield only
    /// extends it to the new `now`, so raising `t_past` to the cutoff is
    /// exact.
    fn t_past(&self, c: usize) -> Option<Time> {
        let timeline = self.classes[c].timeline();
        debug_assert!(timeline.is_contiguous());
        let now = timeline.now();
        let t = timeline
            .t_past()?
            .max(now.saturating_sub(self.deadlines[c]));
        (t < now).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::poisson_engine;
    use tcw_mac::PoissonArrivals;
    use tcw_sim::snap::SnapWriter;

    const TPT: u64 = 16;

    fn channel() -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: TPT,
            message_slots: 25,
            guard: false,
        }
    }

    fn measure(k: Dur) -> MeasureConfig {
        MeasureConfig {
            start: Time::from_ticks(100_000),
            end: Time::from_ticks(8_000_000),
            deadline: k,
        }
    }

    fn spec(rate_per_tau: f64, k_tau: u64, w_tau: u64, stations: u32) -> ClassSpec {
        ClassSpec {
            deadline: Dur::from_ticks(k_tau * TPT),
            window: Dur::from_ticks(w_tau * TPT),
            source: Box::new(PoissonArrivals::per_tau(rate_per_tau, TPT, stations)),
        }
    }

    /// Every accumulated measurement, as the snapshot codec writes it.
    fn metric_words(m: &Metrics) -> Vec<u64> {
        let mut w = SnapWriter::new();
        m.save_state(&mut w);
        w.into_words()
    }

    #[test]
    fn single_class_is_bit_identical_to_engine() {
        // With one class the scheduler only ever steps class 0, so the
        // run must be the controlled engine's own run on the class's
        // seed, bit for bit. The engine runs alone through `run_until`,
        // fast path included.
        let (k_tau, w_tau, seed) = (100u64, 42u64, 5u64);
        let k = Dur::from_ticks(k_tau * TPT);
        let w = Dur::from_ticks(w_tau * TPT);
        let mut single = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::controlled(k, w),
                measure: measure(k),
                seed: stream_seed(seed, 0),
            },
            PoissonArrivals::per_tau(0.03, TPT, 50),
        );
        single.run_until(Time::from_ticks(9_000_000), &mut NoopObserver);
        single.drain(&mut NoopObserver);
        assert!(single.metrics.offered() > 5_000);

        for rule in [ClassRule::ProportionalUrgency, ClassRule::MinSlack] {
            let mut multi = MulticlassEngine::new(
                channel(),
                rule,
                vec![spec(0.03, k_tau, w_tau, 50)],
                measure(k),
                seed,
            );
            multi.run_until(Time::from_ticks(9_000_000));
            multi.drain();
            assert_eq!(
                metric_words(multi.class_metrics(0)),
                metric_words(&single.metrics),
                "{rule:?}: metrics differ"
            );
            assert_eq!(multi.class(0).channel_stats, single.channel_stats);
            assert_eq!(multi.now(), single.now());
        }
    }

    fn two_class_engine(rule: ClassRule, seed: u64) -> MulticlassEngine {
        // Voice (K = 60 tau) + data (K = 600 tau), combined load 0.75.
        let mut e = MulticlassEngine::new(
            channel(),
            rule,
            vec![
                spec(0.015, 60, 84, 25),  // voice: rho' 0.375
                spec(0.015, 600, 84, 25), // data: rho' 0.375
            ],
            measure(Dur::from_ticks(60 * TPT)),
            seed,
        );
        e.run_until(Time::from_ticks(9_000_000));
        e.drain();
        e
    }

    #[test]
    fn tight_class_gets_priority_under_proportional_urgency() {
        let e = two_class_engine(ClassRule::ProportionalUrgency, 9);
        let voice_loss = e.class_metrics(0).loss_fraction();
        let data_loss = e.class_metrics(1).loss_fraction();
        assert!(
            voice_loss < 0.08,
            "voice loss {voice_loss:.4} too high under priority scheduling"
        );
        assert!(
            data_loss < 0.05,
            "data loss {data_loss:.4} — its huge deadline should absorb everything"
        );
    }

    #[test]
    fn naive_min_slack_starves_the_loose_class() {
        // The documented pathology: the voice class's fresh time keeps its
        // absolute slack below the data class's, so data is served only
        // once critically old — and loses far more than under
        // proportional urgency.
        let naive = two_class_engine(ClassRule::MinSlack, 9);
        let good = two_class_engine(ClassRule::ProportionalUrgency, 9);
        let naive_data = naive.class_metrics(1).loss_fraction();
        let good_data = good.class_metrics(1).loss_fraction();
        assert!(
            naive_data > good_data + 0.02,
            "expected starvation: min-slack data loss {naive_data:.4} vs proportional {good_data:.4}"
        );
        // Mean data delay is also far worse under naive min-slack.
        assert!(
            naive.class_metrics(1).true_delay().mean()
                > 2.0 * good.class_metrics(1).true_delay().mean()
        );
    }

    #[test]
    fn starved_class_would_suffer_without_slack_ordering() {
        // Sanity on the counterfactual: with a single shared deadline of
        // 60 tau for *both* streams (the only option without classes),
        // the data stream inherits voice-grade losses.
        let k = Dur::from_ticks(60 * TPT);
        let w = Dur::from_ticks(42 * TPT);
        let mut single = poisson_engine(
            channel(),
            ControlPolicy::controlled(k, w),
            measure(k),
            0.75,
            50,
            11,
        );
        single.run_until(Time::from_ticks(9_000_000), &mut NoopObserver);
        single.drain(&mut NoopObserver);
        // Combined loss with K = 60 for everyone is clearly worse than the
        // multiclass data loss above.
        assert!(single.metrics.loss_fraction() > 0.05);
    }

    #[test]
    fn conservation_per_class() {
        let mut e = MulticlassEngine::new(
            channel(),
            ClassRule::ProportionalUrgency,
            vec![spec(0.01, 80, 100, 10), spec(0.02, 200, 60, 10)],
            measure(Dur::from_ticks(80 * TPT)),
            13,
        );
        e.run_until(Time::from_ticks(4_000_000));
        e.drain();
        assert_eq!(e.pending_count(), 0);
        for c in 0..e.class_count() {
            assert_eq!(e.class_metrics(c).outstanding(), 0);
        }
        // Channel time is fully accounted: each slot belongs to the class
        // whose step ran it, and yielded time to none.
        let total: u64 = (0..e.class_count())
            .map(|c| e.class(c).channel_stats.total().ticks())
            .sum();
        assert_eq!(total, e.now().ticks());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = MulticlassEngine::new(
                channel(),
                ClassRule::ProportionalUrgency,
                vec![spec(0.01, 60, 100, 10), spec(0.02, 300, 60, 10)],
                measure(Dur::from_ticks(60 * TPT)),
                seed,
            );
            e.run_until(Time::from_ticks(3_000_000));
            e.drain();
            (
                e.class_metrics(0).offered(),
                e.class_metrics(0).loss_fraction(),
                e.class_metrics(1).loss_fraction(),
            )
        };
        assert_eq!(run(17), run(17));
    }
}
