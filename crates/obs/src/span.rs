//! Message-lifecycle span tracing: an [`EngineObserver`] that encodes
//! every message's protocol lifecycle (admission → window membership →
//! collision episodes → delivery / discard / drop) as schema-versioned
//! NDJSON, one JSON object per line.
//!
//! Unlike [`crate::EventTracer`], the span tracer keeps
//! [`EngineObserver::slow_path`] at `false`: span events are emitted on
//! the event-horizon fast path too. That is sound because no message
//! event can occur inside a jumped idle run (the pending book is empty by
//! construction) and the batched resolution kernel reports its rounds'
//! window memberships, collision episodes and deliveries through the same
//! callbacks, at the same instants, as the slot-stepped path — pinned by the
//! `span_stream_is_identical_on_both_paths` A-B property test in
//! `tcw-window`.
//!
//! The line format is documented at the crate root ([`crate`]). Span
//! lines carry `seq` and `t` but no `slot` — probe-slot attribution is
//! the event stream's job, and slot counting would tie the span stream to
//! the slot-stepped path.

use std::fmt::Write as _;

use tcw_mac::Message;
use tcw_sim::time::{Dur, Time};
use tcw_window::trace::{DropCause, EngineObserver};

use crate::event::SCHEMA_VERSION;

/// Capacity of the preallocated record ring (see [`crate::EventTracer`]).
const RING_CAP: usize = 4096;

/// Compact payload of one span event. Fixed-size and `Copy` so ring
/// storage never allocates.
#[derive(Clone, Copy, Debug)]
enum Sp {
    /// Lifecycle opens: the message was admitted into the protocol.
    Open {
        msg: u64,
        station: u32,
        arrival: u64,
    },
    /// The message joined the initial window of a windowing round.
    Window { msg: u64, age: u64 },
    /// The message transmitted into a collision episode.
    Collision { msg: u64, age: u64 },
    /// Lifecycle closes: delivered.
    Delivered {
        msg: u64,
        station: u32,
        start: u64,
        paper_delay: u64,
        true_delay: u64,
    },
    /// Lifecycle closes: discarded at the sender (policy element 4).
    Discarded { msg: u64, station: u32, age: u64 },
    /// Lifecycle closes: dropped by churn.
    Dropped {
        msg: u64,
        station: u32,
        age: u64,
        cause: DropCause,
    },
}

/// One ring entry: event time plus payload.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    t: u64,
    ev: Sp,
}

/// Ring-buffered NDJSON lifecycle-span tracer. See the crate root for the
/// schema; use [`SpanTracer::begin_cell`] / [`SpanTracer::finish`] exactly
/// like the event tracer.
#[derive(Debug)]
pub struct SpanTracer {
    ring: Vec<SpanRecord>,
    out: String,
    /// Line number within the current cell (the `cell` header excluded).
    seq: u64,
    /// Most recent event time, to keep `t` non-decreasing for deliveries
    /// reported at completion with an earlier transmission start.
    last_t: u64,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTracer {
    /// Creates a tracer with a preallocated record ring.
    pub fn new() -> Self {
        SpanTracer {
            ring: Vec::with_capacity(RING_CAP),
            out: String::new(),
            seq: 0,
            last_t: 0,
        }
    }

    /// Flushes pending records and writes a `cell` header line; `seq`
    /// restarts from zero so each cell's stream is self-contained.
    pub fn begin_cell(&mut self, index: usize, label: &str) {
        self.flush();
        let _ = write!(
            self.out,
            "{{\"schema_version\":{SCHEMA_VERSION},\"ev\":\"cell\",\"cell\":{index},\"label\":"
        );
        crate::event::escape_json_str(label, &mut self.out);
        self.out.push_str("}\n");
        self.seq = 0;
        self.last_t = 0;
    }

    /// Flushes pending records and returns the accumulated NDJSON text,
    /// leaving the tracer empty and reusable.
    pub fn finish(&mut self) -> String {
        self.flush();
        std::mem::take(&mut self.out)
    }

    fn record(&mut self, t: Time, ev: Sp) {
        self.last_t = t.ticks();
        if self.ring.len() == RING_CAP {
            self.flush();
        }
        self.ring.push(SpanRecord { t: t.ticks(), ev });
    }

    fn flush(&mut self) {
        let ring = std::mem::take(&mut self.ring);
        for rec in &ring {
            let _ = write!(
                self.out,
                "{{\"schema_version\":{SCHEMA_VERSION},\"seq\":{},\"t\":{},",
                self.seq, rec.t
            );
            self.seq += 1;
            match rec.ev {
                Sp::Open {
                    msg,
                    station,
                    arrival,
                } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_open\",\"msg\":{msg},\"station\":{station},\"arrival\":{arrival}"
                    );
                }
                Sp::Window { msg, age } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_window\",\"msg\":{msg},\"age\":{age}"
                    );
                }
                Sp::Collision { msg, age } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_collision\",\"msg\":{msg},\"age\":{age}"
                    );
                }
                Sp::Delivered {
                    msg,
                    station,
                    start,
                    paper_delay,
                    true_delay,
                } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_close\",\"outcome\":\"delivered\",\"msg\":{msg},\"station\":{station},\"start\":{start},\"paper_delay\":{paper_delay},\"true_delay\":{true_delay}"
                    );
                }
                Sp::Discarded { msg, station, age } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_close\",\"outcome\":\"discarded\",\"msg\":{msg},\"station\":{station},\"age\":{age}"
                    );
                }
                Sp::Dropped {
                    msg,
                    station,
                    age,
                    cause,
                } => {
                    let _ = write!(
                        self.out,
                        "\"ev\":\"span_close\",\"outcome\":\"dropped\",\"msg\":{msg},\"station\":{station},\"age\":{age},\"cause\":\"{}\"",
                        cause.label()
                    );
                }
            }
            self.out.push_str("}\n");
        }
        self.ring = ring;
        self.ring.clear();
    }
}

impl EngineObserver for SpanTracer {
    // Deliberately *not* overriding `slow_path`: span events survive the
    // event-horizon fast path bit-for-bit (see the module doc).

    fn on_arrival(&mut self, msg: &Message, now: Time) {
        self.record(
            now,
            Sp::Open {
                msg: msg.id.0,
                station: msg.station.0,
                arrival: msg.arrival.ticks(),
            },
        );
    }

    fn on_window_member(&mut self, msg: &Message, now: Time) {
        self.record(
            now,
            Sp::Window {
                msg: msg.id.0,
                age: msg.age_at(now).ticks(),
            },
        );
    }

    fn on_collision_member(&mut self, msg: &Message, now: Time) {
        self.record(
            now,
            Sp::Collision {
                msg: msg.id.0,
                age: msg.age_at(now).ticks(),
            },
        );
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        // Deliveries are reported at completion, so `start` can precede
        // the latest recorded instant; keep `t` monotone like the event
        // tracer and carry the raw start in the payload.
        self.record(
            Time::from_ticks(self.last_t.max(start.ticks())),
            Sp::Delivered {
                msg: msg.id.0,
                station: msg.station.0,
                start: start.ticks(),
                paper_delay: paper_delay.ticks(),
                true_delay: true_delay.ticks(),
            },
        );
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.record(
            now,
            Sp::Discarded {
                msg: msg.id.0,
                station: msg.station.0,
                age: msg.age_at(now).ticks(),
            },
        );
    }

    fn on_message_drop(&mut self, msg: &Message, now: Time, cause: DropCause) {
        self.record(
            now,
            Sp::Dropped {
                msg: msg.id.0,
                station: msg.station.0,
                age: msg.age_at(now).ticks(),
                cause,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_mac::{MessageId, StationId};

    fn msg(id: u64, station: u32, arrival: u64) -> Message {
        Message::new(MessageId(id), StationId(station), Time::from_ticks(arrival))
    }

    #[test]
    fn span_lines_carry_schema_and_lifecycle() {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "demo");
        let m = msg(3, 1, 2);
        tr.on_arrival(&m, Time::from_ticks(8));
        tr.on_window_member(&m, Time::from_ticks(8));
        tr.on_collision_member(&m, Time::from_ticks(8));
        tr.on_transmit(
            &m,
            Time::from_ticks(12),
            Dur::from_ticks(6),
            Dur::from_ticks(10),
        );
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"ev\":\"cell\""));
        assert!(lines[1].contains("\"ev\":\"span_open\""));
        assert!(lines[1].contains("\"arrival\":2"));
        assert!(lines[2].contains("\"ev\":\"span_window\""));
        assert!(lines[2].contains("\"age\":6"));
        assert!(lines[3].contains("\"ev\":\"span_collision\""));
        assert!(lines[4].contains("\"outcome\":\"delivered\""));
        assert!(lines[4].contains("\"true_delay\":10"));
        for l in &lines {
            assert!(l.starts_with("{\"schema_version\":1,"), "{l}");
        }
    }

    #[test]
    fn close_events_cover_every_cause() {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "causes");
        let m = msg(1, 0, 0);
        tr.on_arrival(&m, Time::from_ticks(0));
        tr.on_sender_discard(&m, Time::from_ticks(5));
        let m2 = msg(2, 1, 1);
        tr.on_arrival(&m2, Time::from_ticks(1));
        tr.on_message_drop(&m2, Time::from_ticks(7), DropCause::StationLeft);
        let m3 = msg(3, 2, 2);
        tr.on_arrival(&m3, Time::from_ticks(2));
        tr.on_message_drop(&m3, Time::from_ticks(9), DropCause::RejoinExpired);
        let text = tr.finish();
        assert!(text.contains("\"outcome\":\"discarded\""));
        assert!(text.contains("\"cause\":\"station_left\""));
        assert!(text.contains("\"cause\":\"rejoin_expired\""));
    }

    #[test]
    fn delivery_start_before_last_t_stays_monotone() {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "mono");
        let m = msg(1, 0, 0);
        tr.on_arrival(&m, Time::from_ticks(50));
        // Transmission started at 40 but is reported after the t=50 line.
        tr.on_transmit(
            &m,
            Time::from_ticks(40),
            Dur::from_ticks(40),
            Dur::from_ticks(40),
        );
        let text = tr.finish();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"t\":50"), "{last}");
        assert!(last.contains("\"start\":40"), "{last}");
    }

    #[test]
    fn begin_cell_resets_seq() {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "a");
        let m = msg(1, 0, 0);
        tr.on_arrival(&m, Time::from_ticks(1));
        tr.begin_cell(1, "b");
        tr.on_arrival(&m, Time::from_ticks(2));
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[3].contains("\"seq\":0"));
    }

    #[test]
    fn ring_overflow_flushes_in_order() {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "big");
        let m = msg(1, 0, 0);
        for i in 0..(super::RING_CAP as u64 + 10) {
            tr.on_window_member(&m, Time::from_ticks(i));
        }
        let text = tr.finish();
        assert_eq!(text.lines().count(), super::RING_CAP + 11);
        let last = text.lines().last().unwrap();
        assert!(
            last.contains(&format!("\"seq\":{}", super::RING_CAP + 9)),
            "{last}"
        );
    }
}
