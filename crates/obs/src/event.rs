//! Structured event tracing: an [`EngineObserver`] that writes each
//! protocol event as one schema-versioned NDJSON line (one JSON object
//! per line).
//!
//! The tracer is strictly passive: it copies scalars out of the engine's
//! callbacks and never draws from an RNG stream, so enabling it cannot
//! perturb simulated results. The line format is documented at the crate
//! root ([`crate`]); [`SCHEMA_VERSION`] stamps every line.

use std::fmt::Write as _;

use tcw_mac::{ChurnEvent, Message, SlotOutcome};
use tcw_sim::record;
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::interval::Interval;
use tcw_window::timeline::Timeline;
use tcw_window::trace::EngineObserver;

/// Version stamped into every NDJSON line as `"schema_version"`.
pub const SCHEMA_VERSION: u32 = 1;

/// NDJSON output shared by the event and span tracers: the accumulated
/// text and the per-cell line counter behind `seq`.
#[derive(Debug, Default)]
pub(crate) struct Lines {
    out: String,
    /// Line number within the current cell (the `cell` header excluded).
    seq: u64,
}

impl Lines {
    /// Writes a `cell` header line and restarts `seq` from zero, so each
    /// cell's stream is self-contained.
    pub(crate) fn begin_cell(&mut self, index: usize, label: &str) {
        let _ = write!(
            self.out,
            "{{\"schema_version\":{SCHEMA_VERSION},\"ev\":\"cell\",\"cell\":{index},\"label\":"
        );
        record::push_quoted(&mut self.out, label);
        self.out.push_str("}\n");
        self.seq = 0;
    }

    /// Opens the next line with its `schema_version`, `seq`, `slot` (event
    /// streams only) and `t` prefix; the caller appends the event fields
    /// and the closing `}\n`.
    pub(crate) fn open(&mut self, slot: Option<u64>, t: u64) -> &mut String {
        let seq = self.seq;
        self.seq += 1;
        let _ = match slot {
            Some(slot) => write!(
                self.out,
                "{{\"schema_version\":{SCHEMA_VERSION},\"seq\":{seq},\"slot\":{slot},\"t\":{t},"
            ),
            None => write!(
                self.out,
                "{{\"schema_version\":{SCHEMA_VERSION},\"seq\":{seq},\"t\":{t},"
            ),
        };
        &mut self.out
    }

    /// Takes the accumulated text, leaving the writer empty.
    pub(crate) fn take(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

/// NDJSON event tracer. See the crate root for the schema.
///
/// Use [`EventTracer::begin_cell`] to mark the start of each sweep cell's
/// stream and [`EventTracer::finish`] to take the text.
#[derive(Debug, Default)]
pub struct EventTracer {
    lines: Lines,
    /// Probe slots consumed so far in the current cell.
    slot: u64,
    /// Most recent event time, for events reported without one (`reopen`).
    last_t: u64,
}

impl EventTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a `cell` header line; `seq` and `slot` restart from zero so
    /// each cell's stream is self-contained.
    pub fn begin_cell(&mut self, index: usize, label: &str) {
        self.lines.begin_cell(index, label);
        self.slot = 0;
        self.last_t = 0;
    }

    /// Returns the accumulated NDJSON text, leaving the tracer empty and
    /// reusable.
    pub fn finish(&mut self) -> String {
        self.lines.take()
    }

    /// Opens the line of an event observed at tick `t`.
    fn line(&mut self, t: u64) -> &mut String {
        self.last_t = t;
        self.lines.open(Some(self.slot), t)
    }
}

/// Window bounds as (segment count, first lo, last hi); zeros when empty.
fn window_bounds(segments: &[Interval]) -> (usize, u64, u64) {
    match (segments.first(), segments.last()) {
        (Some(a), Some(b)) => (segments.len(), a.lo.ticks(), b.hi.ticks()),
        _ => (0, 0, 0),
    }
}

impl EngineObserver for EventTracer {
    // NDJSON traces are a per-event record by definition; the tracer
    // forces the slot-stepped path so no event is aggregated away.
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        let out = self.line(now.ticks());
        let _ = match segments {
            Some(s) => {
                let (n, lo, hi) = window_bounds(s);
                writeln!(
                    out,
                    "\"ev\":\"decision\",\"segments\":{n},\"win_start\":{lo},\"win_end\":{hi}}}"
                )
            }
            None => writeln!(out, "\"ev\":\"decision_idle\"}}"),
        };
    }

    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        let (n, dur) = (segments.len(), dur.ticks());
        let out = self.line(start.ticks());
        let _ = match outcome {
            SlotOutcome::Idle => writeln!(
                out,
                "\"ev\":\"probe\",\"outcome\":\"idle\",\"dur\":{dur},\"segments\":{n}}}"
            ),
            SlotOutcome::Success(id) => writeln!(
                out,
                "\"ev\":\"probe\",\"outcome\":\"success\",\"msg\":{},\"dur\":{dur},\"segments\":{n}}}",
                id.0
            ),
            SlotOutcome::Collision(k) => writeln!(
                out,
                "\"ev\":\"probe\",\"outcome\":\"collision\",\"n\":{k},\"dur\":{dur},\"segments\":{n}}}"
            ),
        };
        self.slot += 1;
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        let (n, lo, hi) = window_bounds(segments);
        let out = self.line(now.ticks());
        let _ = writeln!(
            out,
            "\"ev\":\"split\",\"segments\":{n},\"win_start\":{lo},\"win_end\":{hi}}}"
        );
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        // Deliveries are reported at completion, so `start` can precede
        // events already written; keep the line's `t` monotone (the
        // observation time) and carry the raw start in the payload.
        let out = self.line(self.last_t.max(start.ticks()));
        let _ = writeln!(
            out,
            "\"ev\":\"transmit\",\"start\":{},\"msg\":{},\"station\":{},\"paper_delay\":{},\"true_delay\":{}}}",
            start.ticks(),
            msg.id.0,
            msg.station.0,
            paper_delay.ticks(),
            true_delay.ticks()
        );
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        let out = self.line(now.ticks());
        let _ = writeln!(
            out,
            "\"ev\":\"discard\",\"msg\":{},\"station\":{}}}",
            msg.id.0, msg.station.0
        );
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        let out = self.line(now.ticks());
        let _ = writeln!(out, "\"ev\":\"corrupted_slot\",\"dur\":{}}}", dur.ticks());
        self.slot += 1;
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        let out = self.line(now.ticks());
        let _ = writeln!(out, "\"ev\":\"backoff\",\"dur\":{}}}", dur.ticks());
    }

    fn on_round_abandoned(&mut self, now: Time) {
        self.line(now.ticks())
            .push_str("\"ev\":\"round_abandoned\"}\n");
    }

    fn on_reopen(&mut self, iv: Interval) {
        // The engine reports reopens without a timestamp; attribute them to
        // the most recent event time so `t` stays non-decreasing.
        let out = self.line(self.last_t);
        let _ = writeln!(
            out,
            "\"ev\":\"reopen\",\"start\":{},\"end\":{}}}",
            iv.lo.ticks(),
            iv.hi.ticks()
        );
    }

    fn on_beacon(&mut self, _now: Time, _timeline: &Timeline, _rng: &Rng) {
        // Beacons carry full consensus state; tracing them would dominate
        // the stream without adding per-event information.
    }

    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        let (what, station) = match ev {
            ChurnEvent::Crash(s) => ("crash", s.0),
            ChurnEvent::Restart(s) => ("restart", s.0),
            ChurnEvent::Join(s) => ("join", s.0),
            ChurnEvent::Leave(s) => ("leave", s.0),
        };
        let out = self.line(now.ticks());
        let _ = writeln!(
            out,
            "\"ev\":\"churn\",\"what\":\"{what}\",\"station\":{station}}}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_mac::{MessageId, StationId};

    #[test]
    fn lines_carry_schema_version_and_seq() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "demo");
        tr.on_decision(Time::from_ticks(0), Some(&[Interval::from_ticks(0, 8)]));
        tr.on_probe(
            Time::from_ticks(0),
            &[Interval::from_ticks(0, 8)],
            &SlotOutcome::Collision(2),
            Dur::from_ticks(64),
        );
        let msg = Message::new(MessageId(3), StationId(1), Time::from_ticks(2));
        tr.on_transmit(
            &msg,
            Time::from_ticks(64),
            Dur::from_ticks(70),
            Dur::from_ticks(70),
        );
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ev\":\"cell\""));
        assert!(lines[0].contains("\"label\":\"demo\""));
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[2].contains("\"outcome\":\"collision\""));
        assert!(lines[2].contains("\"n\":2"));
        assert!(lines[3].contains("\"ev\":\"transmit\""));
        assert!(lines[3].contains("\"start\":64"));
        assert!(lines[3].contains("\"paper_delay\":70"));
        for l in &lines {
            assert!(l.starts_with("{\"schema_version\":1,"), "{l}");
            assert!(l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn slot_counter_tracks_probes_and_corrupted_slots() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "slots");
        tr.on_probe(
            Time::from_ticks(0),
            &[],
            &SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        tr.on_corrupted_slot(Time::from_ticks(64), Dur::from_ticks(64));
        tr.on_probe(
            Time::from_ticks(128),
            &[],
            &SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        let text = tr.finish();
        let slots: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| {
                let i = l.find("\"slot\":").unwrap() + 7;
                &l[i..i + 1]
            })
            .collect();
        assert_eq!(slots, ["0", "1", "2"]);
    }

    #[test]
    fn begin_cell_resets_seq_and_flushes() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "a");
        tr.on_round_abandoned(Time::from_ticks(5));
        tr.begin_cell(1, "b");
        tr.on_round_abandoned(Time::from_ticks(9));
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"cell\":0"));
        assert!(lines[2].contains("\"cell\":1"));
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[3].contains("\"seq\":0"));
    }

    #[test]
    fn ring_overflow_flushes_in_order() {
        // A stream longer than 4096 lines stays dense and in order.
        const N: usize = 4096 + 10;
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "big");
        for i in 0..N as u64 {
            tr.on_round_abandoned(Time::from_ticks(i));
        }
        let text = tr.finish();
        assert_eq!(text.lines().count(), N + 1);
        for (i, line) in text.lines().skip(1).enumerate() {
            let prefix = format!("{{\"schema_version\":1,\"seq\":{i},\"slot\":0,\"t\":{i},");
            assert!(line.starts_with(&prefix), "{line}");
        }
    }

    #[test]
    fn labels_are_json_escaped() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "a\"b\\c\nd");
        let text = tr.finish();
        assert!(text.contains(r#""label":"a\"b\\c\nd""#), "{text}");
    }

    #[test]
    fn reopen_reuses_last_event_time() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "reopen");
        tr.on_round_abandoned(Time::from_ticks(42));
        tr.on_reopen(Interval::from_ticks(7, 9));
        let text = tr.finish();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"t\":42"), "{last}");
        assert!(last.contains("\"start\":7"), "{last}");
        assert!(last.contains("\"end\":9"), "{last}");
    }
}
