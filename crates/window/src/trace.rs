//! Observer hooks and a human-readable trace recorder.
//!
//! The engine reports every externally visible protocol event through
//! [`EngineObserver`]. Observers power the distributed consistency checker
//! ([`crate::mirror`]) and the [`TraceRecorder`], whose output reproduces
//! the walk-throughs of the paper's figures 1 and 4.
//!
//! Windows are reported as their materialized actual-time segments (a
//! window is contiguous in pseudo time but may map to several actual
//! intervals when examined regions intervene).

use crate::interval::Interval;
use tcw_mac::{ChurnEvent, Message, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};

/// Why a pending message was removed from the protocol without either a
/// delivery or a policy-element-(4) sender discard. These are the churn
/// terminations; together with [`EngineObserver::on_transmit`] and
/// [`EngineObserver::on_sender_discard`] they close every message
/// lifecycle span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// The message's station left the population permanently.
    StationLeft,
    /// The message's station restarted, but the message was older than
    /// the rejoin catch-up window and was not re-admitted.
    RejoinExpired,
}

impl DropCause {
    /// Stable lower-case label (used in span streams and traces).
    pub fn label(&self) -> &'static str {
        match self {
            DropCause::StationLeft => "station_left",
            DropCause::RejoinExpired => "rejoin_expired",
        }
    }
}

/// Callbacks for protocol events. All methods have empty defaults.
pub trait EngineObserver {
    /// A decision point: a new initial window was chosen (`None`: no
    /// unexamined time existed, the channel idles one `tau`). `segments`
    /// are the window's actual-time segments, oldest first.
    fn on_decision(&mut self, _now: Time, _segments: Option<&[Interval]>) {}

    /// A probe step completed. `segments` is the probed window
    /// (materialized), empty during sub-tick (coin-flip) resolution and
    /// for the no-window idle slot.
    fn on_probe(
        &mut self,
        _start: Time,
        _segments: &[Interval],
        _outcome: &SlotOutcome,
        _dur: Dur,
    ) {
    }

    /// A window known to hold two or more arrivals was split without a
    /// probe.
    fn on_immediate_split(&mut self, _now: Time, _segments: &[Interval]) {}

    /// A message was transmitted successfully.
    fn on_transmit(&mut self, _msg: &Message, _start: Time, _paper_delay: Dur, _true_delay: Dur) {}

    /// A message was discarded at the sender (policy element 4).
    fn on_sender_discard(&mut self, _msg: &Message, _now: Time) {}

    /// A slot's feedback was detectably corrupted (erased, or flagged by
    /// the transmitters); all stations consume the slot and retry.
    fn on_corrupted_slot(&mut self, _now: Time, _dur: Dur) {}

    /// Stations hold a quiet backoff period before re-probing a window
    /// whose feedback was corrupted.
    fn on_backoff(&mut self, _now: Time, _dur: Dur) {}

    /// The current windowing round was abandoned after repeated feedback
    /// corruption; the protocol resumes from the unexamined backlog at the
    /// next decision point.
    fn on_round_abandoned(&mut self, _now: Time) {}

    /// A previously examined interval was reopened because a feedback
    /// fault stranded untransmitted arrivals inside it.
    fn on_reopen(&mut self, _iv: Interval) {}

    /// A state beacon emitted at every decision point: the consensus
    /// timeline all correctly-tracking stations share, plus the shared
    /// policy RNG state as of this decision point. Resynchronizing
    /// observers (the divergence detector) may copy both — a station that
    /// missed decisions has also missed policy-stream draws, so adopting
    /// the timeline alone is not enough under the RANDOM disciplines.
    /// Faithful station models must ignore the beacon entirely.
    fn on_beacon(&mut self, _now: Time, _timeline: &crate::timeline::Timeline, _rng: &Rng) {}

    /// A station membership transition (crash, restart, late join or
    /// permanent leave) occurred after the slot that just completed.
    fn on_churn_event(&mut self, _now: Time, _ev: &ChurnEvent) {}

    /// Whether this observer needs every per-event callback (`on_beacon`,
    /// `on_decision`, `on_probe`, ...) at each individual slot. Observers
    /// returning `true` force the engine onto its slot-stepped slow path;
    /// the event-horizon fast path (which aggregates runs of idle slots
    /// and reports only [`on_idle_jump`](Self::on_idle_jump) /
    /// [`on_batched_run`](Self::on_batched_run)) would starve them.
    /// Metrics, channel stats and controller state are bit-identical on
    /// either path, so purely statistical observers keep the default.
    fn slow_path(&self) -> bool {
        false
    }

    /// The event-horizon fast path advanced the clock from `from` to `to`
    /// in one jump, aggregating `slots` idle decision rounds. Per-event
    /// callbacks for those rounds are suppressed, except
    /// [`on_churn_event`](Self::on_churn_event): under feedback faults or
    /// random crashes the jump steps churn slot by slot, so a membership
    /// transition reports at its slot's end time, as on the slow path,
    /// before this callback. The jump ends with that slot.
    fn on_idle_jump(&mut self, _from: Time, _to: Time, _slots: u64) {}

    /// The batched resolution kernel resolved whole windowing rounds,
    /// `slots` probe slots in all, between `from` and `to` without
    /// per-slot re-dispatch. The per-slot callbacks (`on_beacon`,
    /// `on_decision`, `on_probe`, `on_immediate_split`) for those rounds
    /// are suppressed; the span callbacks (`on_window_member`,
    /// `on_collision_member`, `on_transmit`, ...), the fault callbacks and
    /// `on_churn_event` fire as on the slow path, before this callback.
    fn on_batched_run(&mut self, _from: Time, _to: Time, _slots: u64) {}

    /// A message was admitted into the protocol (lifecycle span opens).
    /// Blocked arrivals (single-buffer or churn-blocked) never enter the
    /// protocol and never open a span. Fired on both the slot-stepped and
    /// the event-horizon fast path — a span stream does **not** force the
    /// slow path, because no message event can occur inside an idle jump
    /// and the batched kernel reports its rounds' span events itself.
    fn on_arrival(&mut self, _msg: &Message, _now: Time) {}

    /// A pending message became a member of the window about to be
    /// probed (one event per windowing round it participates in).
    fn on_window_member(&mut self, _msg: &Message, _now: Time) {}

    /// A message transmitted into a collision episode (it remains pending
    /// and re-contends as the window is split or the cluster resolved).
    fn on_collision_member(&mut self, _msg: &Message, _now: Time) {}

    /// A pending message was removed by churn (lifecycle span closes
    /// without delivery or sender discard); see [`DropCause`].
    fn on_message_drop(&mut self, _msg: &Message, _now: Time, _cause: DropCause) {}
}

/// The do-nothing observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl EngineObserver for NoopObserver {}

fn fmt_segments(segments: &[Interval]) -> String {
    if segments.is_empty() {
        return "(sub-tick)".to_string();
    }
    segments
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("∪")
}

/// Records a textual narrative of protocol operation.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    lines: Vec<String>,
    limit: usize,
}

impl TraceRecorder {
    /// Creates a recorder keeping at most `limit` lines.
    pub fn new(limit: usize) -> Self {
        TraceRecorder {
            lines: Vec::new(),
            limit,
        }
    }

    /// The recorded lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The full narrative as one string.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    fn push(&mut self, line: String) {
        if self.lines.len() < self.limit {
            self.lines.push(line);
        }
    }
}

impl EngineObserver for TraceRecorder {
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        match segments {
            Some(s) => self.push(format!(
                "t={now}: decision — initial window {}",
                fmt_segments(s)
            )),
            None => self.push(format!("t={now}: decision — nothing unexamined, idle tau")),
        }
    }

    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        let what = match outcome {
            SlotOutcome::Idle => "idle (no arrivals)".to_string(),
            SlotOutcome::Success(id) => format!("success: {id:?} transmits"),
            SlotOutcome::Collision(n) => format!("collision among {n}"),
        };
        self.push(format!(
            "t={start}: probe {} -> {what} [+{dur}]",
            fmt_segments(segments)
        ));
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        self.push(format!(
            "t={now}: {} known to hold >=2 arrivals — split without probing",
            fmt_segments(segments)
        ));
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        self.push(format!(
            "t={start}: {:?} from {:?} delivered (waiting time {paper_delay}, true {true_delay})",
            msg.id, msg.station
        ));
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.push(format!(
            "t={now}: {:?} discarded at sender (older than deadline)",
            msg.id
        ));
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        self.push(format!(
            "t={now}: feedback corrupted — slot wasted [+{dur}]"
        ));
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        self.push(format!("t={now}: quiet backoff before re-probe [+{dur}]"));
    }

    fn on_round_abandoned(&mut self, now: Time) {
        self.push(format!(
            "t={now}: round abandoned after repeated corruption"
        ));
    }

    fn on_reopen(&mut self, iv: Interval) {
        self.push(format!("reopened {iv} (arrivals stranded by fault)"));
    }

    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        let what = match ev {
            ChurnEvent::Crash(s) => format!("{s:?} crashed"),
            ChurnEvent::Restart(s) => format!("{s:?} restarted (cold)"),
            ChurnEvent::Join(s) => format!("{s:?} joined late"),
            ChurnEvent::Leave(s) => format!("{s:?} left permanently"),
        };
        self.push(format!("t={now}: {what}"));
    }
}

/// Fans one event stream out to two observers (e.g. a mirror plus a trace).
pub struct Tee<'a, A: EngineObserver + ?Sized, B: EngineObserver + ?Sized> {
    /// First observer.
    pub a: &'a mut A,
    /// Second observer.
    pub b: &'a mut B,
}

impl<'a, A: EngineObserver + ?Sized, B: EngineObserver + ?Sized> EngineObserver for Tee<'a, A, B> {
    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        self.a.on_decision(now, segments);
        self.b.on_decision(now, segments);
    }
    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        self.a.on_probe(start, segments, outcome, dur);
        self.b.on_probe(start, segments, outcome, dur);
    }
    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        self.a.on_immediate_split(now, segments);
        self.b.on_immediate_split(now, segments);
    }
    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        self.a.on_transmit(msg, start, paper_delay, true_delay);
        self.b.on_transmit(msg, start, paper_delay, true_delay);
    }
    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.a.on_sender_discard(msg, now);
        self.b.on_sender_discard(msg, now);
    }
    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        self.a.on_corrupted_slot(now, dur);
        self.b.on_corrupted_slot(now, dur);
    }
    fn on_backoff(&mut self, now: Time, dur: Dur) {
        self.a.on_backoff(now, dur);
        self.b.on_backoff(now, dur);
    }
    fn on_round_abandoned(&mut self, now: Time) {
        self.a.on_round_abandoned(now);
        self.b.on_round_abandoned(now);
    }
    fn on_reopen(&mut self, iv: Interval) {
        self.a.on_reopen(iv);
        self.b.on_reopen(iv);
    }
    fn on_beacon(&mut self, now: Time, timeline: &crate::timeline::Timeline, rng: &Rng) {
        self.a.on_beacon(now, timeline, rng);
        self.b.on_beacon(now, timeline, rng);
    }
    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        self.a.on_churn_event(now, ev);
        self.b.on_churn_event(now, ev);
    }
    fn slow_path(&self) -> bool {
        self.a.slow_path() || self.b.slow_path()
    }
    fn on_idle_jump(&mut self, from: Time, to: Time, slots: u64) {
        self.a.on_idle_jump(from, to, slots);
        self.b.on_idle_jump(from, to, slots);
    }
    fn on_batched_run(&mut self, from: Time, to: Time, slots: u64) {
        self.a.on_batched_run(from, to, slots);
        self.b.on_batched_run(from, to, slots);
    }
    fn on_arrival(&mut self, msg: &Message, now: Time) {
        self.a.on_arrival(msg, now);
        self.b.on_arrival(msg, now);
    }
    fn on_window_member(&mut self, msg: &Message, now: Time) {
        self.a.on_window_member(msg, now);
        self.b.on_window_member(msg, now);
    }
    fn on_collision_member(&mut self, msg: &Message, now: Time) {
        self.a.on_collision_member(msg, now);
        self.b.on_collision_member(msg, now);
    }
    fn on_message_drop(&mut self, msg: &Message, now: Time, cause: DropCause) {
        self.a.on_message_drop(msg, now, cause);
        self.b.on_message_drop(msg, now, cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_mac::{MessageId, StationId};

    #[test]
    fn recorder_formats_events() {
        let mut r = TraceRecorder::new(10);
        let w = [Interval::from_ticks(0, 8)];
        r.on_decision(Time::from_ticks(0), Some(&w));
        r.on_probe(
            Time::from_ticks(0),
            &w,
            &SlotOutcome::Collision(2),
            Dur::from_ticks(1),
        );
        let msg = Message::new(MessageId(3), StationId(1), Time::from_ticks(2));
        r.on_transmit(
            &msg,
            Time::from_ticks(5),
            Dur::from_ticks(3),
            Dur::from_ticks(3),
        );
        assert_eq!(r.lines().len(), 3);
        assert!(r.text().contains("collision among 2"));
        assert!(r.text().contains("m3"));
    }

    #[test]
    fn recorder_formats_multi_segment_windows() {
        let mut r = TraceRecorder::new(10);
        let w = [Interval::from_ticks(0, 5), Interval::from_ticks(9, 12)];
        r.on_decision(Time::from_ticks(20), Some(&w));
        assert!(r.text().contains("[0, 5)∪[9, 12)"), "{}", r.text());
    }

    #[test]
    fn recorder_respects_limit() {
        let mut r = TraceRecorder::new(2);
        for i in 0..5 {
            r.on_decision(Time::from_ticks(i), None);
        }
        assert_eq!(r.lines().len(), 2);
    }

    #[test]
    fn recorder_limit_keeps_oldest_lines_across_event_kinds() {
        let mut r = TraceRecorder::new(3);
        let w = [Interval::from_ticks(0, 8)];
        r.on_decision(Time::from_ticks(0), Some(&w));
        r.on_probe(
            Time::from_ticks(0),
            &w,
            &SlotOutcome::Idle,
            Dur::from_ticks(1),
        );
        r.on_backoff(Time::from_ticks(1), Dur::from_ticks(2));
        // Past the limit: every further event of any kind is dropped.
        r.on_round_abandoned(Time::from_ticks(3));
        let msg = Message::new(MessageId(7), StationId(2), Time::from_ticks(1));
        r.on_sender_discard(&msg, Time::from_ticks(4));
        r.on_corrupted_slot(Time::from_ticks(5), Dur::from_ticks(1));
        assert_eq!(r.lines().len(), 3);
        assert!(r.text().contains("decision"));
        assert!(r.text().contains("quiet backoff"));
        assert!(!r.text().contains("abandoned"));
        assert!(!r.text().contains("discarded"));
    }

    #[test]
    fn recorder_zero_limit_records_nothing() {
        let mut r = TraceRecorder::new(0);
        r.on_decision(Time::from_ticks(0), None);
        assert!(r.lines().is_empty());
        assert_eq!(r.text(), "");
    }

    /// Counts the lifecycle-span callbacks; stays on the default fast
    /// path (`slow_path()` = false) like a real span tracer.
    #[derive(Default)]
    struct SpanCounter {
        arrivals: u64,
        members: u64,
        collisions: u64,
        drops: u64,
    }

    impl EngineObserver for SpanCounter {
        fn on_arrival(&mut self, _msg: &Message, _now: Time) {
            self.arrivals += 1;
        }
        fn on_window_member(&mut self, _msg: &Message, _now: Time) {
            self.members += 1;
        }
        fn on_collision_member(&mut self, _msg: &Message, _now: Time) {
            self.collisions += 1;
        }
        fn on_message_drop(&mut self, _msg: &Message, _now: Time, _cause: DropCause) {
            self.drops += 1;
        }
    }

    #[test]
    fn tee_propagates_slow_path_from_either_side() {
        let mut noop_a = NoopObserver;
        let mut noop_b = NoopObserver;
        assert!(!Tee {
            a: &mut noop_a,
            b: &mut noop_b,
        }
        .slow_path());

        let mut rec = TraceRecorder::new(4);
        let mut noop = NoopObserver;
        assert!(Tee {
            a: &mut rec,
            b: &mut noop,
        }
        .slow_path());
        assert!(Tee {
            a: &mut noop,
            b: &mut rec,
        }
        .slow_path());

        // Nested tee: the slow-path bit must survive another fan-out
        // layer (the engine sees only the outermost observer).
        let mut spans = SpanCounter::default();
        let mut inner = Tee {
            a: &mut rec,
            b: &mut noop,
        };
        assert!(Tee {
            a: &mut inner,
            b: &mut spans,
        }
        .slow_path());
    }

    #[test]
    fn tee_forwards_span_callbacks_to_both_sides() {
        let mut a = SpanCounter::default();
        let mut b = SpanCounter::default();
        let msg = Message::new(MessageId(1), StationId(0), Time::from_ticks(3));
        {
            let mut tee = Tee {
                a: &mut a,
                b: &mut b,
            };
            tee.on_arrival(&msg, Time::from_ticks(3));
            tee.on_window_member(&msg, Time::from_ticks(4));
            tee.on_collision_member(&msg, Time::from_ticks(4));
            tee.on_message_drop(&msg, Time::from_ticks(9), DropCause::StationLeft);
            assert!(!tee.slow_path());
        }
        for c in [&a, &b] {
            assert_eq!((c.arrivals, c.members, c.collisions, c.drops), (1, 1, 1, 1));
        }
    }

    #[test]
    fn drop_cause_labels_are_stable() {
        assert_eq!(DropCause::StationLeft.label(), "station_left");
        assert_eq!(DropCause::RejoinExpired.label(), "rejoin_expired");
    }
}
