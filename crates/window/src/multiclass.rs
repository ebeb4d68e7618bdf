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
//! With a single class this engine runs the same protocol as
//! [`crate::engine::Engine`] under the controlled policy, but it is a
//! separate implementation on differently labelled random streams, so
//! the runs are not bit-identical. The tests check only that the two
//! losses agree within 0.015 (`single_class_matches_controlled_engine`).

use crate::interval::Interval;
use crate::metrics::{MeasureConfig, Metrics};
use crate::pseudo::{PseudoInterval, PseudoMap};
use crate::timeline::Timeline;
use std::collections::BTreeMap;
use tcw_mac::{
    Arrival, ArrivalSource, ChannelConfig, ChannelStats, Medium, Message, MessageId, SlotOutcome,
};
use tcw_sim::rng::Rng;
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

struct ClassState {
    deadline: Dur,
    window: Dur,
    timeline: Timeline,
    pending: BTreeMap<(Time, MessageId), Message>,
    source: Box<dyn ArrivalSource>,
    lookahead: Option<Arrival>,
    source_done: bool,
    metrics: Metrics,
}

/// The multi-class minimum-slack protocol engine.
pub struct MulticlassEngine {
    medium: Medium,
    rule: ClassRule,
    classes: Vec<ClassState>,
    now: Time,
    next_id: u64,
    arrival_cutoff: Time,
    rng_coins: Rng,
    rng_sources: Vec<Rng>,
    /// Channel-time accounting (all classes share the channel).
    pub channel_stats: ChannelStats,
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
        let mut master = Rng::new(seed);
        let _policy_stream = master.fork("policy"); // reserved, parity with Engine
        let rng_coins = master.fork("coins");
        let rng_sources: Vec<Rng> = (0..classes.len())
            .map(|c| master.fork(&format!("source-{c}")))
            .collect();
        let classes = classes
            .into_iter()
            .map(|spec| ClassState {
                deadline: spec.deadline,
                window: spec.window,
                timeline: Timeline::new(),
                pending: BTreeMap::new(),
                source: spec.source,
                lookahead: None,
                source_done: false,
                metrics: Metrics::new(MeasureConfig {
                    deadline: spec.deadline,
                    ..measure
                }),
            })
            .collect();
        MulticlassEngine {
            medium: Medium::new(channel),
            rule,
            classes,
            now: Time::ZERO,
            next_id: 0,
            arrival_cutoff: Time::MAX,
            rng_coins,
            rng_sources,
            channel_stats: ChannelStats::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Per-class metrics.
    pub fn class_metrics(&self, c: usize) -> &Metrics {
        &self.classes[c].metrics
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total pending messages across classes.
    pub fn pending_count(&self) -> usize {
        self.classes.iter().map(|c| c.pending.len()).sum()
    }

    /// Runs until the clock reaches `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        while self.now < horizon {
            self.cycle();
        }
    }

    /// Stops admitting arrivals and resolves every admitted message.
    pub fn drain(&mut self) {
        self.arrival_cutoff = self.now;
        self.ingest_all();
        while self.classes.iter().any(|c| !c.pending.is_empty()) || self.has_admissible_lookahead()
        {
            self.cycle();
        }
    }

    fn has_admissible_lookahead(&self) -> bool {
        self.classes
            .iter()
            .any(|c| c.lookahead.is_some_and(|a| a.time <= self.arrival_cutoff))
    }

    fn ingest_all(&mut self) {
        let now = self.now;
        for (c, state) in self.classes.iter_mut().enumerate() {
            loop {
                if state.lookahead.is_none() && !state.source_done {
                    state.lookahead = state.source.next_arrival(&mut self.rng_sources[c]);
                    if state.lookahead.is_none() {
                        state.source_done = true;
                    }
                }
                match state.lookahead {
                    Some(a) if a.time <= now => {
                        state.lookahead = None;
                        if a.time > self.arrival_cutoff {
                            continue;
                        }
                        let msg = Message::new(MessageId(self.next_id), a.station, a.time);
                        self.next_id += 1;
                        state.metrics.on_offered(a.time);
                        state.pending.insert((a.time, msg.id), msg);
                    }
                    _ => break,
                }
            }
        }
    }

    fn advance(&mut self, to: Time) {
        self.now = to;
        for c in &mut self.classes {
            c.timeline.advance(to);
        }
    }

    /// One decision point: per-class discard, minimum-slack class choice,
    /// then a windowing round (or an idle slot when every class is clear).
    fn cycle(&mut self) {
        let now = self.now;
        self.ingest_all();

        // Element (4), per class.
        for state in &mut self.classes {
            let cutoff = now.saturating_sub(state.deadline);
            while let Some((&key, _)) = state.pending.iter().next() {
                if key.0 >= cutoff {
                    break;
                }
                state.pending.remove(&key);
                state.metrics.on_sender_discard(key.0);
            }
            state.timeline.discard_before(cutoff);
        }

        // Pick the served class among those with unexamined time.
        let chosen = match self.rule {
            ClassRule::MinSlack => self
                .classes
                .iter()
                .enumerate()
                .filter_map(|(c, s)| {
                    s.timeline.t_past().map(|tp| {
                        let age = now - tp;
                        let slack = s.deadline.ticks() as i128 - age.ticks() as i128;
                        (slack, c)
                    })
                })
                .min()
                .map(|(_, c)| c),
            ClassRule::ProportionalUrgency => self
                .classes
                .iter()
                .enumerate()
                .filter_map(|(c, s)| {
                    s.timeline.t_past().map(|tp| {
                        let age = (now - tp).ticks() as u128;
                        // compare age/K as cross-multiplied integers to
                        // stay exact and platform-independent
                        (age * (1 << 20) / s.deadline.ticks().max(1) as u128, c)
                    })
                })
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .map(|(_, c)| c),
        };

        match chosen {
            None => {
                // All classes fully examined: idle one tau.
                let (outcome, dur) = self.medium.probe(&[]);
                self.channel_stats.record(&outcome, dur);
                self.advance(now + dur);
            }
            Some(c) => self.windowing_round(c),
        }
    }

    fn in_segments(&self, c: usize, segments: &[Interval]) -> Vec<Message> {
        let mut out = Vec::new();
        for s in segments {
            out.extend(
                self.classes[c]
                    .pending
                    .range((s.lo, MessageId(0))..(s.hi, MessageId(0)))
                    .map(|(_, m)| *m),
            );
        }
        out
    }

    /// One windowing round within class `c` (oldest window, older half
    /// first — the Theorem-1 elements).
    fn windowing_round(&mut self, c: usize) {
        let round_start = self.now;
        let pm = PseudoMap::new(&self.classes[c].timeline);
        let backlog = pm.backlog().ticks();
        debug_assert!(backlog > 0);
        let w = self.classes[c].window.ticks().max(1).min(backlog);
        let mut current = PseudoInterval::new(0, w);
        let mut sibling: Option<PseudoInterval> = None;
        let mut overhead = 0u64;

        loop {
            let now = self.now;
            let segments = pm.preimage(current);
            let txs = self.in_segments(c, &segments);
            let ids: Vec<MessageId> = txs.iter().map(|m| m.id).collect();
            let (outcome, dur) = self.medium.probe(&ids);
            self.channel_stats.record(&outcome, dur);
            self.advance(now + dur);

            match outcome {
                SlotOutcome::Idle => {
                    overhead += 1;
                    for s in &segments {
                        self.classes[c].timeline.mark_examined(*s);
                    }
                    match sibling.take() {
                        None => return,
                        Some(sib) => match sib.split() {
                            Some((older, younger)) => {
                                current = older;
                                sibling = Some(younger);
                            }
                            None => {
                                current = sib;
                                sibling = None;
                            }
                        },
                    }
                }
                SlotOutcome::Success(_) => {
                    debug_assert_eq!(txs.len(), 1);
                    for s in &segments {
                        self.classes[c].timeline.mark_examined(*s);
                    }
                    self.complete(c, txs[0], now, round_start, overhead);
                    return;
                }
                SlotOutcome::Collision(_) => {
                    overhead += 1;
                    match current.split() {
                        Some((older, younger)) => {
                            current = older;
                            sibling = Some(younger);
                        }
                        None => {
                            let winner = self.resolve_cluster(txs, &mut overhead);
                            let tx_start = self.now - self.medium.config().success_duration();
                            self.complete(c, winner, tx_start, round_start, overhead);
                            return;
                        }
                    }
                }
            }
        }
    }

    fn resolve_cluster(&mut self, cluster: Vec<Message>, overhead: &mut u64) -> Message {
        let mut active = cluster;
        loop {
            let older: Vec<Message> = active
                .iter()
                .copied()
                .filter(|_| self.rng_coins.chance(0.5))
                .collect();
            let now = self.now;
            let ids: Vec<MessageId> = older.iter().map(|m| m.id).collect();
            let (outcome, dur) = self.medium.probe(&ids);
            self.channel_stats.record(&outcome, dur);
            self.advance(now + dur);
            match outcome {
                SlotOutcome::Idle => *overhead += 1,
                SlotOutcome::Success(_) => return older[0],
                SlotOutcome::Collision(_) => {
                    *overhead += 1;
                    active = older;
                }
            }
        }
    }

    fn complete(
        &mut self,
        c: usize,
        msg: Message,
        tx_start: Time,
        round_start: Time,
        overhead: u64,
    ) {
        let state = &mut self.classes[c];
        state
            .pending
            .remove(&(msg.arrival, msg.id))
            .expect("transmitted message was pending");
        let paper_delay = round_start - msg.arrival;
        let true_delay = tx_start - msg.arrival;
        state
            .metrics
            .on_transmit(msg.arrival, paper_delay, true_delay);
        state.metrics.on_round(overhead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::poisson_engine;
    use crate::policy::ControlPolicy;
    use crate::trace::NoopObserver;
    use tcw_mac::PoissonArrivals;

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

    #[test]
    fn single_class_matches_controlled_engine() {
        // One class must reproduce the single-class controlled protocol's
        // loss within statistical noise (the dynamics are identical; the
        // random streams differ in labels, so seeds differ).
        let k_tau = 100u64;
        let w_tau = 42u64;
        let k = Dur::from_ticks(k_tau * TPT);
        let mut multi = MulticlassEngine::new(
            channel(),
            ClassRule::ProportionalUrgency,
            vec![spec(0.03, k_tau, w_tau, 50)],
            measure(k),
            5,
        );
        multi.run_until(Time::from_ticks(9_000_000));
        multi.drain();

        let w = Dur::from_ticks(w_tau * TPT);
        let mut single = poisson_engine(
            channel(),
            ControlPolicy::controlled(k, w),
            measure(k),
            0.75,
            50,
            5,
        );
        single.run_until(Time::from_ticks(9_000_000), &mut NoopObserver);
        single.drain(&mut NoopObserver);

        let a = multi.class_metrics(0).loss_fraction();
        let b = single.metrics.loss_fraction();
        assert!(
            (a - b).abs() < 0.015,
            "multiclass single-class {a:.4} vs engine {b:.4}"
        );
        assert!(multi.class_metrics(0).offered() > 5_000);
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
        // Channel time is fully accounted.
        assert_eq!(e.channel_stats.total().ticks(), e.now().ticks());
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
