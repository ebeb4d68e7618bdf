//! Runtime invariant monitor.
//!
//! An [`crate::trace::EngineObserver`] that checks, on every reported
//! protocol event, the safety invariants the property-test suite
//! establishes offline — so composed stress runs (faults × churn ×
//! adversarial load × adaptive controllers) can be screened at scale
//! without writing a bespoke assertion harness per experiment:
//!
//! * **Conservation** — no message is delivered twice, none is both
//!   delivered and discarded, and at end of run ([`InvariantMonitor::finish`])
//!   the pending set is empty, the metrics ledger balances
//!   (`outstanding == 0`, delivered/discarded event counts equal the
//!   engine's own tallies under a full-coverage measurement window) and
//!   channel-time accounting matches the clock.
//! * **FCFS order** — delivered messages appear in non-decreasing
//!   arrival order (Theorem 1's oldest-first discipline). Stations that
//!   experience a churn event are exempted from that point on: recovered
//!   backlog is legally delivered out of global order
//!   (`fcfs_order_survives_churn_for_untouched_stations`).
//! * **Age bound** — every delivery obeys
//!   `paper_delay <= K + slack` where the slack covers one maximal
//!   corrupted-round recovery (see [`MonitorConfig::for_engine`]), and
//!   every sender discard is genuinely older than the deadline `K`.
//! * **Clock** — event times are mutually consistent: decision, beacon,
//!   discard, backoff and churn events carry the monitor's reconstructed
//!   clock exactly; probe/corruption slots advance it by their duration;
//!   transmit starts are non-decreasing and never in the future.
//! * **Consensus** — an optional embedded [`StationMirror`] replays every
//!   window decision from channel feedback alone and must agree slot by
//!   slot. Only valid for the *static* controller: the mirror recomputes
//!   decisions from the shared [`ControlPolicy`], so an adaptive
//!   controller's length changes are invisible to it (adaptive-controller
//!   determinism is covered by the controller property tests instead).
//!
//! The monitor allocates only when recording a violation (bounded at
//! [`MAX_STORED`] stored reports). It is an ordinary observer: runs that
//! do not attach it execute no monitor code, so the golden fingerprints
//! and bench numbers are those of an unobserved engine.

use std::collections::HashSet;

use crate::engine::ResyncPolicy;
use crate::interval::Interval;
use crate::metrics::Metrics;
use crate::mirror::StationMirror;
use crate::policy::ControlPolicy;
use crate::trace::EngineObserver;
use tcw_mac::{
    ChannelConfig, ChannelStats, ChurnEvent, Message, MessageId, SlotOutcome, StationId,
};
use tcw_sim::rng::Rng;
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};

/// Cap on stored [`Violation`] reports (the total count is unbounded).
pub const MAX_STORED: usize = 32;

/// The class of invariant a violation falls under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// Message conservation / ledger balance.
    Conservation,
    /// FCFS (oldest-first) delivery order.
    Fcfs,
    /// Deadline/age bound on deliveries and discards.
    Age,
    /// Event-clock consistency and monotonicity.
    Clock,
    /// Mirror-consensus agreement on window decisions.
    Consensus,
}

impl InvariantClass {
    /// All classes, in reporting order.
    pub const ALL: [InvariantClass; 5] = [
        InvariantClass::Conservation,
        InvariantClass::Fcfs,
        InvariantClass::Age,
        InvariantClass::Clock,
        InvariantClass::Consensus,
    ];

    /// Stable lower-case label (used in artifacts and telemetry).
    pub fn label(self) -> &'static str {
        match self {
            InvariantClass::Conservation => "conservation",
            InvariantClass::Fcfs => "fcfs",
            InvariantClass::Age => "age",
            InvariantClass::Clock => "clock",
            InvariantClass::Consensus => "consensus",
        }
    }

    /// Parses a [`InvariantClass::label`] back into the class.
    pub fn parse(s: &str) -> Option<Self> {
        InvariantClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant was broken.
    pub class: InvariantClass,
    /// Monitor clock when the violation was detected.
    pub at: Time,
    /// Human-readable description with the offending values.
    pub detail: String,
}

/// Static configuration of the checks.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Check FCFS delivery order (exempting churned stations).
    pub fcfs: bool,
    /// The deadline `K`; `None` disables the age checks.
    pub deadline: Option<Dur>,
    /// Allowed excess over `K` for delivered paper delay (see
    /// [`MonitorConfig::for_engine`]).
    pub age_slack: Dur,
    /// The measurement window covers the whole run, so end-of-run event
    /// counts must equal the engine's metric tallies exactly.
    pub full_measure: bool,
}

impl MonitorConfig {
    /// Derives the configuration from the engine's channel, resync policy
    /// and deadline.
    ///
    /// The age slack covers the worst case between the decision point
    /// whose discard pass admitted a message (age `<= K` at that instant)
    /// and its transmit start: one message slot (plus guard), one probe
    /// slot, the full quiet-backoff ladder `1 + 2 + 4 + ...` (clamped at
    /// `backoff_cap_slots`, `max_retries` rungs) and one re-probe slot per
    /// retry — the same bound the fault/churn age property tests assert.
    pub fn for_engine(
        channel: &ChannelConfig,
        resync: &ResyncPolicy,
        deadline: Option<Dur>,
    ) -> Self {
        let ladder: u64 = (0..resync.max_retries)
            .map(|i| (1u64 << i.min(62)).min(resync.backoff_cap_slots))
            .sum();
        let slots = channel.message_slots
            + u64::from(channel.guard)
            + 1
            + ladder
            + u64::from(resync.max_retries)
            + 1;
        MonitorConfig {
            fcfs: true,
            deadline,
            age_slack: Dur::from_ticks(slots * channel.ticks_per_tau),
            full_measure: true,
        }
    }
}

/// The runtime invariant monitor. See the module docs for the catalogue.
pub struct InvariantMonitor {
    cfg: MonitorConfig,
    mirror: Option<StationMirror>,
    mirror_seen: u64,
    clock: Option<Time>,
    last_transmit_start: Option<Time>,
    last_fcfs_arrival: Option<Time>,
    churned: HashSet<StationId>,
    delivered: HashSet<MessageId>,
    discarded: HashSet<MessageId>,
    deliveries: u64,
    discards: u64,
    checks: u64,
    violations: Vec<Violation>,
    total: u64,
    finished: bool,
}

impl InvariantMonitor {
    /// Creates a monitor with the given configuration (no consensus
    /// mirror).
    pub fn new(cfg: MonitorConfig) -> Self {
        InvariantMonitor {
            cfg,
            mirror: None,
            mirror_seen: 0,
            clock: None,
            last_transmit_start: None,
            last_fcfs_arrival: None,
            churned: HashSet::new(),
            delivered: HashSet::new(),
            discarded: HashSet::new(),
            deliveries: 0,
            discards: 0,
            checks: 0,
            violations: Vec::new(),
            total: 0,
            finished: false,
        }
    }

    /// Enables the consensus check by embedding a [`StationMirror`] built
    /// from the engine's policy and seed. Only valid when the engine runs
    /// the static controller (the mirror recomputes decisions from the
    /// shared policy alone).
    pub fn with_mirror(mut self, policy: ControlPolicy, seed: u64) -> Self {
        self.mirror = Some(StationMirror::new(policy, seed));
        self
    }

    /// The stored violation reports (capped at [`MAX_STORED`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected (uncapped).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// The first violation, if any.
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Whether no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Number of individual checks evaluated.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Deliveries observed.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Sender discards observed.
    pub fn discards(&self) -> u64 {
        self.discards
    }

    /// End-of-run conservation checks. Call exactly once, after
    /// `drain()`: verifies the pending set emptied, the metrics ledger
    /// balances and channel-time accounting matches the final clock.
    pub fn finish(&mut self, now: Time, pending: usize, metrics: &Metrics, stats: &ChannelStats) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.checks += 4;
        if pending != 0 {
            self.violate(
                InvariantClass::Conservation,
                now,
                format!("pending set not empty after drain: {pending}"),
            );
        }
        if metrics.outstanding() != 0 {
            self.violate(
                InvariantClass::Conservation,
                now,
                format!(
                    "metrics ledger unbalanced: outstanding={}",
                    metrics.outstanding()
                ),
            );
        }
        if stats.total() != now.since_origin() {
            self.violate(
                InvariantClass::Clock,
                now,
                format!(
                    "channel time {} != clock {}",
                    stats.total().ticks(),
                    now.ticks()
                ),
            );
        }
        if self.cfg.full_measure {
            self.checks += 2;
            let counted = metrics.true_delay().count();
            if self.deliveries != counted {
                self.violate(
                    InvariantClass::Conservation,
                    now,
                    format!(
                        "observed {} deliveries but metrics counted {counted}",
                        self.deliveries
                    ),
                );
            }
            if self.discards != metrics.sender_lost() {
                self.violate(
                    InvariantClass::Conservation,
                    now,
                    format!(
                        "observed {} discards but metrics counted {}",
                        self.discards,
                        metrics.sender_lost()
                    ),
                );
            }
        }
    }

    /// Exports monitor counters (`tcw_invariant_*`).
    pub fn emit(&self, sink: &mut dyn MetricSink) {
        sink.counter(
            "tcw_invariant_checks_total",
            "individual invariant checks evaluated",
            self.checks,
        );
        sink.counter(
            "tcw_invariant_violations_total",
            "invariant violations detected",
            self.total,
        );
        for class in InvariantClass::ALL {
            let n = self.violations.iter().filter(|v| v.class == class).count() as u64;
            let (name, help) = match class {
                InvariantClass::Conservation => (
                    "tcw_invariant_violations_conservation",
                    "message-conservation violations (stored)",
                ),
                InvariantClass::Fcfs => (
                    "tcw_invariant_violations_fcfs",
                    "FCFS delivery-order violations (stored)",
                ),
                InvariantClass::Age => (
                    "tcw_invariant_violations_age",
                    "deadline/age-bound violations (stored)",
                ),
                InvariantClass::Clock => (
                    "tcw_invariant_violations_clock",
                    "event-clock consistency violations (stored)",
                ),
                InvariantClass::Consensus => (
                    "tcw_invariant_violations_consensus",
                    "mirror-consensus violations (stored)",
                ),
            };
            sink.counter(name, help, n);
        }
    }

    fn violate(&mut self, class: InvariantClass, at: Time, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(Violation { class, at, detail });
        }
    }

    /// Event-time equality against the reconstructed clock; initializes
    /// the clock on the first event seen.
    fn check_clock(&mut self, what: &str, now: Time) {
        self.checks += 1;
        match self.clock {
            None => self.clock = Some(now),
            Some(c) if c == now => {}
            Some(c) => {
                self.violate(
                    InvariantClass::Clock,
                    now,
                    format!("{what} at t={} but clock is t={}", now.ticks(), c.ticks()),
                );
                // Resynchronize so one skew does not cascade into a
                // violation per subsequent event.
                self.clock = Some(now);
            }
        }
    }

    fn poll_mirror(&mut self) {
        if let Some(m) = &self.mirror {
            let count = m.mismatch_count();
            if count > self.mirror_seen {
                let detail = m
                    .mismatches()
                    .last()
                    .cloned()
                    .unwrap_or_else(|| "mirror mismatch".to_string());
                let at = self.clock.unwrap_or(Time::ZERO);
                self.mirror_seen = count;
                self.violate(InvariantClass::Consensus, at, detail);
            }
        }
        self.checks += 1;
    }
}

impl EngineObserver for InvariantMonitor {
    // The monitor reconstructs the clock from individual probes, so it
    // must see every slot: attaching it forces the slot-stepped path.
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        self.check_clock("decision", now);
        if let Some(m) = &mut self.mirror {
            m.on_decision(now, segments);
        }
        self.poll_mirror();
    }

    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        self.check_clock("probe", start);
        self.clock = Some(start + dur);
        if let Some(m) = &mut self.mirror {
            m.on_probe(start, segments, outcome, dur);
        }
        self.poll_mirror();
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        self.check_clock("immediate split", now);
        if let Some(m) = &mut self.mirror {
            m.on_immediate_split(now, segments);
        }
        self.poll_mirror();
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, _true_delay: Dur) {
        // Transmits are reported after the success slot advanced the
        // clock, so `start` lies in the immediate past.
        self.checks += 2;
        // FCFS first: a reordered delivery pair inverts both arrival
        // order and transmit-start order, and the arrival inversion is
        // the semantic root cause, so it must win the first-violation
        // classification over the derived clock symptom.
        if self.cfg.fcfs && !self.churned.contains(&msg.station) {
            self.checks += 1;
            if let Some(prev) = self.last_fcfs_arrival {
                if msg.arrival < prev {
                    self.violate(
                        InvariantClass::Fcfs,
                        start,
                        format!(
                            "{:?} arrived t={} delivered after a t={} arrival",
                            msg.id,
                            msg.arrival.ticks(),
                            prev.ticks()
                        ),
                    );
                }
            }
            self.last_fcfs_arrival = Some(
                self.last_fcfs_arrival
                    .map_or(msg.arrival, |p| p.max(msg.arrival)),
            );
        }

        if let Some(c) = self.clock {
            if start > c {
                self.violate(
                    InvariantClass::Clock,
                    start,
                    format!(
                        "transmit start t={} is ahead of clock t={}",
                        start.ticks(),
                        c.ticks()
                    ),
                );
            }
        }
        if let Some(prev) = self.last_transmit_start {
            if start < prev {
                self.violate(
                    InvariantClass::Clock,
                    start,
                    format!(
                        "transmit start t={} precedes previous transmit at t={}",
                        start.ticks(),
                        prev.ticks()
                    ),
                );
            }
        }
        self.last_transmit_start = Some(start);

        if let Some(k) = self.cfg.deadline {
            self.checks += 1;
            if paper_delay > k + self.cfg.age_slack {
                self.violate(
                    InvariantClass::Age,
                    start,
                    format!(
                        "{:?} delivered with waiting time {} > K {} + slack {}",
                        msg.id,
                        paper_delay.ticks(),
                        k.ticks(),
                        self.cfg.age_slack.ticks()
                    ),
                );
            }
        }

        self.checks += 1;
        self.deliveries += 1;
        if !self.delivered.insert(msg.id) {
            self.violate(
                InvariantClass::Conservation,
                start,
                format!("{:?} delivered twice", msg.id),
            );
        } else if self.discarded.contains(&msg.id) {
            self.violate(
                InvariantClass::Conservation,
                start,
                format!("{:?} both discarded and delivered", msg.id),
            );
        }
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.check_clock("discard", now);
        if let Some(k) = self.cfg.deadline {
            self.checks += 1;
            if now - msg.arrival <= k {
                self.violate(
                    InvariantClass::Age,
                    now,
                    format!(
                        "{:?} discarded at age {} <= K {}",
                        msg.id,
                        (now - msg.arrival).ticks(),
                        k.ticks()
                    ),
                );
            }
        }
        self.checks += 1;
        self.discards += 1;
        if !self.discarded.insert(msg.id) {
            self.violate(
                InvariantClass::Conservation,
                now,
                format!("{:?} discarded twice", msg.id),
            );
        } else if self.delivered.contains(&msg.id) {
            self.violate(
                InvariantClass::Conservation,
                now,
                format!("{:?} both delivered and discarded", msg.id),
            );
        }
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        self.check_clock("corrupted slot", now);
        self.clock = Some(now + dur);
        if let Some(m) = &mut self.mirror {
            m.on_corrupted_slot(now, dur);
        }
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        self.check_clock("backoff", now);
        self.clock = Some(now + dur);
        if let Some(m) = &mut self.mirror {
            m.on_backoff(now, dur);
        }
    }

    fn on_round_abandoned(&mut self, now: Time) {
        self.check_clock("round abandonment", now);
        if let Some(m) = &mut self.mirror {
            m.on_round_abandoned(now);
        }
    }

    fn on_reopen(&mut self, iv: Interval) {
        if let Some(m) = &mut self.mirror {
            m.on_reopen(iv);
        }
    }

    fn on_beacon(&mut self, now: Time, timeline: &crate::timeline::Timeline, rng: &Rng) {
        self.check_clock("beacon", now);
        if let Some(m) = &mut self.mirror {
            m.on_beacon(now, timeline, rng);
        }
        self.poll_mirror();
    }

    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        self.check_clock("churn event", now);
        let station = match ev {
            ChurnEvent::Crash(s)
            | ChurnEvent::Restart(s)
            | ChurnEvent::Join(s)
            | ChurnEvent::Leave(s) => *s,
        };
        self.churned.insert(station);
        if let Some(m) = &mut self.mirror {
            m.on_churn_event(now, ev);
        }
    }
}
