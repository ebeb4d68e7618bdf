//! # tcw-obs — the observability layer
//!
//! Production telemetry for the time-window protocol stack, built on the
//! two seeds the workspace already had: the engine's
//! [`tcw_window::trace::EngineObserver`] hook and the online collectors in
//! [`tcw_sim::stats`]. Four pieces:
//!
//! * [`event::EventTracer`] — an `EngineObserver` that writes each
//!   decision/probe/split/transmit/discard/fault/churn event as one
//!   schema-versioned NDJSON line (the `--trace-events PATH` flag of the
//!   experiment binaries);
//! * [`span::SpanTracer`] — an `EngineObserver` that writes each
//!   message's lifecycle (admission → window membership → collision
//!   episodes → delivery/discard/drop) as NDJSON spans (the
//!   `--spans PATH` flag); unlike the event tracer it does **not**
//!   disable the event-horizon fast path, and the `obs_report` binary
//!   consumes its output offline;
//! * [`registry::Registry`] — a named-metric registry
//!   (counters/gauges/histograms) populated through
//!   [`tcw_sim::stats::MetricSink`] by the engine, the channel accounting,
//!   the churn process and the divergence detector, snapshotted per sweep
//!   cell and exportable as Prometheus text exposition format or JSON
//!   (the `--metrics PATH[.prom|.json]` flag);
//! * [`progress::Progress`] — per-cell state and worker heartbeats for the
//!   parallel sweep executor, rendered as a stderr progress line with ETA
//!   and stall detection.
//!
//! ## Determinism contract
//!
//! Observability is strictly read-only with respect to the simulation:
//! observers receive event data but never touch an RNG stream, so
//!
//! * with tracing/metrics **disabled**, runs are bit-identical to builds
//!   that predate this crate (the golden fingerprints pin this);
//! * with tracing/metrics **enabled**, simulated results are byte-identical
//!   for any `--jobs N` — every cell's telemetry is buffered worker-side
//!   and reassembled in cell order (the `sweep_determinism` test pins
//!   this). Only the stderr progress line is wall-clock dependent.
//!
//! ## Event schema (`schema_version` 1)
//!
//! One JSON object per line, all values scalars. Every line carries
//! `"schema_version"` and `"ev"`; every line except the `cell` header also
//! carries `"seq"` (line number within the cell, from 0), `"slot"` (probe
//! slots consumed so far — non-decreasing within a cell) and `"t"` (the
//! engine time at which the event was observed, in ticks — non-decreasing
//! within a cell; a `transmit` line's true start tick is its `start`
//! field, which can precede `t` because deliveries are reported at
//! completion).
//!
//! | `ev` | extra fields | meaning |
//! |---|---|---|
//! | `cell` | `cell`, `label` | header: start of one sweep cell's stream |
//! | `decision` | `segments`, `win_start`, `win_end` | decision point chose an initial window |
//! | `decision_idle` | — | decision point found nothing unexamined; idle `tau` |
//! | `probe` | `outcome` (`idle`\|`success`\|`collision`), `msg` (success), `n` (collision), `dur`, `segments` | one probe slot resolved |
//! | `split` | `segments`, `win_start`, `win_end` | window known to hold ≥ 2 arrivals split unprobed |
//! | `transmit` | `start`, `msg`, `station`, `paper_delay`, `true_delay` | successful delivery (started at tick `start`) |
//! | `discard` | `msg`, `station` | sender discard (policy element 4) |
//! | `corrupted_slot` | `dur` | slot feedback corrupted by a fault |
//! | `backoff` | `dur` | quiet backoff before re-probe |
//! | `round_abandoned` | — | windowing round abandoned after repeated corruption |
//! | `reopen` | `start`, `end` | examined interval reopened for stranded arrivals |
//! | `churn` | `what` (`crash`\|`restart`\|`join`\|`leave`), `station` | membership transition |
//!
//! Durations and times are integer ticks. Every line is a flat record in
//! the sense of [`tcw_sim::record`], which both writes (escaping) and reads
//! (the strict parser behind [`lint`] and [`report`]) it. The `obs_lint`
//! binary validates streams against this schema.
//!
//! ## Span schema (`schema_version` 1, `*.spans.ndjson`)
//!
//! Lifecycle-span streams reuse the `cell` header and the `seq`/`t`
//! prefix but carry **no** `slot` field: spans are emitted on the
//! event-horizon fast path too, where probe slots are not individually
//! stepped. Within a cell every `span_open` is eventually balanced by
//! exactly one `span_close` for the same `msg`, with any `span_window` /
//! `span_collision` lines for that `msg` strictly between the two; `t` is
//! non-decreasing line-to-line.
//!
//! | `ev` | extra fields | meaning |
//! |---|---|---|
//! | `cell` | `cell`, `label` | header: start of one sweep cell's stream |
//! | `span_open` | `msg`, `station`, `arrival` | message admitted into the protocol (span opens) |
//! | `span_window` | `msg`, `age` | message joined the initial window of a windowing round |
//! | `span_collision` | `msg`, `age` | message transmitted into a collision episode |
//! | `span_close` | `outcome` (`delivered`\|`discarded`\|`dropped`), plus `start`, `paper_delay`, `true_delay` when delivered; `age` otherwise; `cause` (`station_left`\|`rejoin_expired`) when dropped | lifecycle closes |
//!
//! The `obs_lint` binary validates span balance and monotonicity; the
//! `obs_report` binary reconstructs collision-resolution episodes,
//! per-message latency breakdowns and age-of-information series offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod lint;
pub mod progress;
pub mod registry;
pub mod report;
pub mod span;

pub use event::{EventTracer, SCHEMA_VERSION};
pub use progress::Progress;
pub use registry::Registry;
pub use span::SpanTracer;
