//! Distributed consistency checker.
//!
//! The protocol's correctness rests on a strong claim (paper §2): *every*
//! station, observing only the shared channel, maintains exactly the same
//! view of the windowing process, so all stations always agree on the next
//! window. [`StationMirror`] verifies that claim mechanically: it is an
//! independent model of one listening station that receives **only** the
//! channel feedback (slot outcomes and their durations) plus the public
//! policy and the shared pseudo-random stream — never the engine's message
//! state — and must reproduce every window decision the engine makes.
//!
//! Any divergence would mean the protocol requires information a real
//! station could not have; the integration tests run every policy preset
//! through the mirror and assert zero mismatches.
//!
//! Fault injection extends the claim: as long as every station hears the
//! same (possibly corrupted) feedback, consensus survives — the mirror
//! consumes the fault events ([`EngineObserver::on_corrupted_slot`],
//! `on_backoff`, `on_round_abandoned`, `on_reopen`) and must still match.
//! What consensus cannot survive is a station *missing* slots entirely
//! (deafness). [`DivergenceDetector`] models that failure: it drops slots
//! from a deaf station's view, detects the resulting divergence at the
//! next decision-point beacon, and resynchronizes from the beaconed
//! consensus timeline.

use crate::interval::Interval;
use crate::policy::ControlPolicy;
use crate::pseudo::{PseudoInterval, PseudoMap};
use crate::timeline::Timeline;
use crate::trace::EngineObserver;
use tcw_mac::{Message, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};

struct RoundState {
    pm: PseudoMap,
    current: PseudoInterval,
    sibling: Option<PseudoInterval>,
    cluster: bool,
}

/// An independent station model fed exclusively by channel feedback.
pub struct StationMirror {
    policy: ControlPolicy,
    timeline: Timeline,
    rng_policy: Rng,
    round: Option<RoundState>,
    mismatches: Vec<String>,
    mismatch_count: u64,
    decisions: u64,
    probes: u64,
}

impl StationMirror {
    /// Creates a mirror for an engine built with the same `policy` and
    /// master `seed` (the engine derives its policy stream as the first
    /// fork of `Rng::new(seed)`; the mirror does the same).
    pub fn new(policy: ControlPolicy, seed: u64) -> Self {
        StationMirror {
            policy,
            timeline: Timeline::new(),
            rng_policy: Rng::new(seed).fork("policy"),
            round: None,
            mismatches: Vec::new(),
            mismatch_count: 0,
            decisions: 0,
            probes: 0,
        }
    }

    /// Mismatch descriptions collected so far (empty = fully consistent).
    /// Capped at 32 entries; [`StationMirror::mismatch_count`] keeps the
    /// true total.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Total mismatches observed (uncapped).
    pub fn mismatch_count(&self) -> u64 {
        self.mismatch_count
    }

    /// Abandons the station's own state and adopts the beaconed consensus
    /// `timeline` and shared policy stream `rng` (used by
    /// [`DivergenceDetector`] after a detected divergence; a faithful
    /// station model never calls this). Adopting the RNG matters under the
    /// RANDOM disciplines: a station that missed decisions also missed
    /// policy-stream draws, so its own stream is permanently behind.
    pub fn resync_from(&mut self, _now: Time, timeline: &Timeline, rng: &Rng) {
        self.timeline = timeline.clone();
        self.rng_policy = rng.clone();
        self.round = None;
    }

    /// Decisions checked.
    pub fn decisions_checked(&self) -> u64 {
        self.decisions
    }

    /// Probes observed.
    pub fn probes_observed(&self) -> u64 {
        self.probes
    }

    /// Panics with the collected mismatches if any divergence occurred.
    pub fn assert_consistent(&self) {
        assert!(
            self.mismatches.is_empty(),
            "station diverged from engine after {} decisions / {} probes:\n{}",
            self.decisions,
            self.probes,
            self.mismatches.join("\n")
        );
    }

    fn note(&mut self, msg: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 32 {
            self.mismatches.push(msg);
        }
    }
}

impl EngineObserver for StationMirror {
    // The mirror re-derives every window from per-slot feedback, so it
    // must see every slot: attaching it forces the slot-stepped path.
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        self.decisions += 1;
        if self.round.is_some() {
            self.note(format!("t={now}: decision arrived mid-round"));
            self.round = None;
        }
        if self.timeline.now() != now {
            self.note(format!(
                "t={now}: mirror clock is at {} instead",
                self.timeline.now()
            ));
            self.timeline.advance(now.max(self.timeline.now()));
        }
        // Element (4): a listening station knows K and discards on its own.
        if let Some(k) = self.policy.discard_after {
            self.timeline.discard_before(now.saturating_sub(k));
        }
        let pm = PseudoMap::new(&self.timeline);
        let window = self
            .policy
            .choose_window(pm.backlog(), &mut self.rng_policy);
        let mine: Option<Vec<Interval>> = window.map(|w| pm.preimage(w));
        let theirs: Option<Vec<Interval>> = segments.map(|s| s.to_vec());
        if mine != theirs {
            self.note(format!(
                "t={now}: window mismatch — station chose {mine:?}, engine chose {theirs:?}"
            ));
        }
        if let Some(w) = window {
            self.round = Some(RoundState {
                pm,
                current: w,
                sibling: None,
                cluster: false,
            });
        }
    }

    fn on_probe(&mut self, start: Time, _segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        self.probes += 1;
        if self.timeline.now() != start {
            self.note(format!(
                "t={start}: probe started but mirror clock is at {}",
                self.timeline.now()
            ));
        }
        self.timeline.advance(start + dur);

        let Some(mut round) = self.round.take() else {
            // No round in progress: this must be the no-window idle slot.
            // Under fault injection it may also be observed as a phantom
            // collision (idle misread); only a success — which requires a
            // transmitter — is impossible here.
            if matches!(outcome, SlotOutcome::Success(_)) {
                self.note(format!("t={start}: unexpected {outcome:?} outside a round"));
            }
            return;
        };

        if round.cluster {
            // Sub-tick resolution: outcomes carry no timeline information;
            // the round ends at the first success.
            if !matches!(outcome, SlotOutcome::Success(_)) {
                self.round = Some(round);
            }
            return;
        }

        let segments = round.pm.preimage(round.current);
        match outcome {
            SlotOutcome::Idle => {
                for s in &segments {
                    self.timeline.mark_examined(*s);
                }
                match round.sibling.take() {
                    None => {} // empty initial window: round over
                    Some(sib) => {
                        match self.policy.split_window(sib, &mut self.rng_policy) {
                            Some((first, second)) => {
                                round.current = first;
                                round.sibling = Some(second);
                            }
                            None => {
                                round.current = sib;
                                round.sibling = None;
                            }
                        }
                        self.round = Some(round);
                    }
                }
            }
            SlotOutcome::Success(_) => {
                for s in &segments {
                    self.timeline.mark_examined(*s);
                }
                // round over
            }
            SlotOutcome::Collision(_) => {
                match self
                    .policy
                    .split_window(round.current, &mut self.rng_policy)
                {
                    Some((first, second)) => {
                        round.current = first;
                        round.sibling = Some(second);
                    }
                    None => {
                        round.cluster = true;
                    }
                }
                self.round = Some(round);
            }
        }
    }

    fn on_transmit(&mut self, _msg: &Message, _start: Time, _paper: Dur, _true_delay: Dur) {}
    fn on_sender_discard(&mut self, _msg: &Message, _now: Time) {}

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        // Detectably corrupted feedback: every station consumes the slot
        // without learning anything about the window; the round state is
        // unchanged.
        if self.timeline.now() != now {
            self.note(format!(
                "t={now}: corrupted slot but mirror clock is at {}",
                self.timeline.now()
            ));
        }
        self.timeline.advance(now + dur);
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        if self.timeline.now() != now {
            self.note(format!(
                "t={now}: backoff but mirror clock is at {}",
                self.timeline.now()
            ));
        }
        self.timeline.advance(now + dur);
    }

    fn on_round_abandoned(&mut self, _now: Time) {
        // The retry budget is public; every station abandons in lockstep
        // and resumes from the unexamined backlog at the next decision.
        self.round = None;
    }

    fn on_reopen(&mut self, iv: Interval) {
        // The reopened interval is inferable from shared state: every
        // station saw the misread success and knows no delivery followed.
        self.timeline.reopen(iv);
    }
}

/// A [`StationMirror`] augmented with a *deafness* fault model, an
/// optional churn *outage*, and a beacon-driven resynchronization loop:
/// the runtime divergence detector.
///
/// While deaf, the station misses channel slots entirely — the one fault
/// class that genuinely breaks the shared-view invariant. The wrapped
/// mirror then accumulates mismatches; at every decision-point beacon the
/// detector compares the mismatch count against the last synchronized
/// value, records a divergence, and re-adopts the beaconed consensus
/// timeline and policy stream.
///
/// An outage ([`DivergenceDetector::with_outage`]) models a station that
/// is *down* rather than merely deaf: for a contiguous span of slots it
/// misses every event, including decisions, beacons and reopens. When the
/// outage ends the station knows it was away, waits for the first beacon
/// it hears, and performs a cold rejoin — counted once in
/// [`DivergenceDetector::churn_repairs`].
pub struct DivergenceDetector {
    mirror: StationMirror,
    deafness: f64,
    deaf_slots: u64,
    rng: Rng,
    deaf_remaining: u64,
    seen: u64,
    divergences: u64,
    resyncs: u64,
    dropped_slots: u64,
    first_divergence: Option<String>,
    outage_start: u64,
    outage_slots: u64,
    slot: u64,
    in_outage: bool,
    pending_rejoin: bool,
    churn_repairs: u64,
}

impl DivergenceDetector {
    /// Creates a detector for station index `station` of an engine built
    /// with the same `policy` and master `seed`. Each heard slot turns the
    /// station deaf with probability `deafness` for `deaf_slots` slots
    /// (deterministic per `(seed, station)`).
    pub fn new(
        policy: ControlPolicy,
        seed: u64,
        station: u64,
        deafness: f64,
        deaf_slots: u64,
    ) -> Self {
        DivergenceDetector {
            mirror: StationMirror::new(policy, seed),
            deafness,
            deaf_slots: deaf_slots.max(1),
            rng: Rng::new(seed).fork_indexed("deaf", station),
            deaf_remaining: 0,
            seen: 0,
            divergences: 0,
            resyncs: 0,
            dropped_slots: 0,
            first_divergence: None,
            outage_start: 0,
            outage_slots: 0,
            slot: 0,
            in_outage: false,
            pending_rejoin: false,
            churn_repairs: 0,
        }
    }

    /// Schedules a churn outage: the station goes down for `slots`
    /// consecutive heard-slot opportunities starting at slot index
    /// `start_slot`, missing everything (decisions and beacons included),
    /// then cold-rejoins at the first beacon after the outage. `slots == 0`
    /// disables the outage.
    pub fn with_outage(mut self, start_slot: u64, slots: u64) -> Self {
        self.outage_start = start_slot;
        self.outage_slots = slots;
        self
    }

    /// The wrapped station mirror.
    pub fn mirror(&self) -> &StationMirror {
        &self.mirror
    }

    /// Divergences detected at beacons.
    pub fn divergences(&self) -> u64 {
        self.divergences
    }

    /// Resynchronizations performed (one per detected divergence).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Channel slots this station failed to hear.
    pub fn dropped_slots(&self) -> u64 {
        self.dropped_slots
    }

    /// The first recorded mismatch, if any divergence was ever detected.
    pub fn first_divergence(&self) -> Option<&str> {
        self.first_divergence.as_deref()
    }

    /// Divergence repairs attributable to a churn outage (cold rejoins).
    /// Always a subset of [`DivergenceDetector::resyncs`].
    pub fn churn_repairs(&self) -> u64 {
        self.churn_repairs
    }

    /// Pushes the detector's counters into `sink` under stable
    /// `tcw_detector_*` names.
    pub fn emit(&self, sink: &mut dyn tcw_sim::stats::MetricSink) {
        sink.counter(
            "tcw_detector_divergences_total",
            "divergences detected at decision-point beacons",
            self.divergences,
        );
        sink.counter(
            "tcw_detector_resyncs_total",
            "beacon resynchronizations performed",
            self.resyncs,
        );
        sink.counter(
            "tcw_detector_dropped_slots_total",
            "channel slots the tracked station failed to hear",
            self.dropped_slots,
        );
        sink.counter(
            "tcw_detector_churn_repairs_total",
            "divergence repairs attributable to a churn outage",
            self.churn_repairs,
        );
        sink.counter(
            "tcw_detector_decisions_checked_total",
            "decision points checked against the consensus view",
            self.mirror.decisions_checked(),
        );
        sink.counter(
            "tcw_detector_probes_observed_total",
            "probe slots the tracked station observed",
            self.mirror.probes_observed(),
        );
    }

    /// Whether the station hears the current slot; advances the outage
    /// span and the deafness process one slot either way.
    fn hears_slot(&mut self) -> bool {
        let s = self.slot;
        self.slot += 1;
        if self.outage_slots > 0 {
            if s >= self.outage_start && s - self.outage_start < self.outage_slots {
                // Down: the station is off the air entirely.
                self.in_outage = true;
                self.dropped_slots += 1;
                return false;
            }
            if self.in_outage {
                // The outage just ended; rejoin at the next heard beacon.
                self.in_outage = false;
                self.pending_rejoin = true;
            }
        }
        if self.deaf_remaining > 0 {
            self.deaf_remaining -= 1;
            self.dropped_slots += 1;
            return false;
        }
        if self.deafness > 0.0 && self.rng.chance(self.deafness) {
            self.deaf_remaining = self.deaf_slots - 1;
            self.dropped_slots += 1;
            return false;
        }
        true
    }
}

impl EngineObserver for DivergenceDetector {
    // Outage windows are counted in heard slots, so the detector needs
    // every per-slot callback.
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        // A down station misses decisions outright — unlike a deaf one,
        // which still catches the (out-of-band) decision announcement.
        if !self.in_outage {
            self.mirror.on_decision(now, segments);
        }
    }

    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        if self.hears_slot() {
            self.mirror.on_probe(start, segments, outcome, dur);
        }
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        if !self.in_outage {
            self.mirror.on_immediate_split(now, segments);
        }
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        self.mirror.on_transmit(msg, start, paper_delay, true_delay);
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.mirror.on_sender_discard(msg, now);
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        if self.hears_slot() {
            self.mirror.on_corrupted_slot(now, dur);
        }
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        if self.hears_slot() {
            self.mirror.on_backoff(now, dur);
        }
    }

    fn on_round_abandoned(&mut self, now: Time) {
        // Not a slot of its own: announced within slots already counted.
        if !self.in_outage && self.deaf_remaining == 0 {
            self.mirror.on_round_abandoned(now);
        }
    }

    fn on_reopen(&mut self, iv: Interval) {
        if !self.in_outage && self.deaf_remaining == 0 {
            self.mirror.on_reopen(iv);
        }
    }

    fn on_beacon(&mut self, now: Time, timeline: &Timeline, rng: &Rng) {
        if self.in_outage {
            // Down stations miss the beacon too.
            return;
        }
        if self.pending_rejoin {
            // Cold rejoin after a churn outage: the station *knows* it was
            // away, so the first heard beacon triggers an unconditional
            // resync — exactly one repair per outage, whether or not the
            // wrapped mirror managed to notice a mismatch in the gap
            // between outage end and this beacon.
            self.pending_rejoin = false;
            self.divergences += 1;
            self.churn_repairs += 1;
            if self.first_divergence.is_none() {
                self.first_divergence = Some(format!(
                    "t={now}: cold rejoin after {}-slot outage",
                    self.outage_slots
                ));
            }
            self.seen = self.mirror.mismatch_count();
            self.mirror.resync_from(now, timeline, rng);
            self.resyncs += 1;
            return;
        }
        if self.mirror.mismatch_count() > self.seen {
            self.divergences += 1;
            if self.first_divergence.is_none() {
                self.first_divergence = self
                    .mirror
                    .mismatches()
                    .get(self.seen as usize)
                    .or_else(|| self.mirror.mismatches().last())
                    .cloned();
            }
            self.seen = self.mirror.mismatch_count();
            self.mirror.resync_from(now, timeline, rng);
            self.resyncs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::poisson_engine;
    use crate::metrics::MeasureConfig;
    use crate::trace::Tee;
    use tcw_mac::ChannelConfig;

    fn check_policy(policy: ControlPolicy, seed: u64) {
        let channel = ChannelConfig {
            ticks_per_tau: 4,
            message_slots: 5,
            guard: false,
        };
        let measure = MeasureConfig {
            start: Time::ZERO,
            end: Time::from_ticks(u64::MAX / 2),
            deadline: Dur::from_ticks(400),
        };
        let mut mirror = StationMirror::new(policy.clone(), seed);
        let mut eng = poisson_engine(channel, policy, measure, 0.6, 10, seed);
        let mut noop = crate::trace::NoopObserver;
        let mut tee = Tee {
            a: &mut mirror,
            b: &mut noop,
        };
        eng.run_until(Time::from_ticks(100_000), &mut tee);
        mirror.assert_consistent();
        assert!(mirror.decisions_checked() > 100);
    }

    #[test]
    fn mirror_tracks_controlled_policy() {
        check_policy(
            ControlPolicy::controlled(Dur::from_ticks(400), Dur::from_ticks(12)),
            1,
        );
    }

    #[test]
    fn mirror_tracks_fcfs() {
        check_policy(ControlPolicy::fcfs(Dur::from_ticks(12)), 2);
    }

    #[test]
    fn mirror_tracks_lcfs() {
        check_policy(ControlPolicy::lcfs(Dur::from_ticks(12)), 3);
    }

    #[test]
    fn mirror_tracks_random_policy() {
        check_policy(ControlPolicy::random(Dur::from_ticks(12)), 4);
    }

    #[test]
    fn mirror_tracks_biased_split() {
        // Collided windows and immediately split siblings are both cut at
        // the policy's split fraction, on the engine and in the mirror.
        let policy = ControlPolicy {
            split_fraction: 0.3,
            ..ControlPolicy::controlled(Dur::from_ticks(400), Dur::from_ticks(12))
        };
        check_policy(policy, 5);
    }

    #[test]
    fn mirror_detects_wrong_seed() {
        // A station with the wrong shared pseudo-random stream must
        // diverge under the RANDOM discipline.
        let channel = ChannelConfig {
            ticks_per_tau: 4,
            message_slots: 5,
            guard: false,
        };
        let measure = MeasureConfig {
            start: Time::ZERO,
            end: Time::from_ticks(u64::MAX / 2),
            deadline: Dur::from_ticks(400),
        };
        let policy = ControlPolicy::random(Dur::from_ticks(12));
        let mut mirror = StationMirror::new(policy.clone(), 999);
        let mut eng = poisson_engine(channel, policy, measure, 0.6, 10, 1);
        eng.run_until(Time::from_ticks(50_000), &mut mirror);
        assert!(
            !mirror.mismatches().is_empty(),
            "mirror with wrong seed failed to detect divergence"
        );
    }
}
