//! The slotted broadcast channel: configuration, slot outcomes and costs.

use crate::message::MessageId;
use tcw_sim::time::Dur;

/// Static parameters of the multiple-access channel.
///
/// Time is measured in kernel ticks; `ticks_per_tau` fixes the resolution
/// at which message arrival instants are distinguished. The paper's
/// evaluation uses fixed-length messages of `M` propagation delays
/// (`M ∈ {25, 100}` in Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Ticks in one end-to-end propagation delay `tau`.
    pub ticks_per_tau: u64,
    /// Fixed message transmission time in units of `tau` (the paper's `M`).
    pub message_slots: u64,
    /// Whether a successful transmission is followed by one extra `tau` of
    /// quiet time before the next protocol step (conservative detection of
    /// the transmission's end). The paper's analytic model omits it; the
    /// ablation harness exercises both settings.
    pub guard: bool,
}

impl ChannelConfig {
    /// A configuration with the given `M`, 64 ticks per `tau`, no guard.
    pub fn with_message_slots(m: u64) -> Self {
        ChannelConfig {
            ticks_per_tau: 64,
            message_slots: m,
            guard: false,
        }
    }

    /// One propagation delay as a duration.
    pub fn tau(&self) -> Dur {
        Dur::from_ticks(self.ticks_per_tau)
    }

    /// Duration of one message transmission (`M * tau`).
    pub fn message_duration(&self) -> Dur {
        Dur::from_ticks(self.ticks_per_tau * self.message_slots)
    }

    /// Channel time of a successful protocol step: the transmission,
    /// plus one guard `tau` if configured.
    pub fn success_duration(&self) -> Dur {
        if self.guard {
            self.message_duration() + self.tau()
        } else {
            self.message_duration()
        }
    }

    /// Converts a count of `tau` units into ticks.
    pub fn taus(&self, n: u64) -> Dur {
        Dur::from_ticks(self.ticks_per_tau * n)
    }

    /// Converts a duration into (fractional) units of `tau`.
    pub fn dur_in_taus(&self, d: Dur) -> f64 {
        d.as_f64() / self.ticks_per_tau as f64
    }
}

/// What all stations observe, `tau` after a protocol step began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No station transmitted.
    Idle,
    /// Exactly one station transmitted; its message is received intact.
    Success(MessageId),
    /// Two or more stations transmitted; all transmissions are destroyed.
    /// Carries the number of colliding transmissions (observable in
    /// simulation, not by real stations — stations only learn "collision").
    Collision(u32),
}

impl SlotOutcome {
    /// Whether this outcome is a successful transmission.
    pub fn is_success(&self) -> bool {
        matches!(self, SlotOutcome::Success(_))
    }
}

/// The physical medium: maps a set of simultaneous transmissions to an
/// outcome and the channel time it consumes.
#[derive(Clone, Copy, Debug)]
pub struct Medium {
    cfg: ChannelConfig,
}

impl Medium {
    /// Creates a medium with the given configuration.
    pub fn new(cfg: ChannelConfig) -> Self {
        Medium { cfg }
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Resolves one protocol step in which `transmitters` stations begin
    /// transmitting (identified by the message each would send).
    ///
    /// Returns the outcome and the channel time consumed by the step:
    ///
    /// * idle probe — `tau` (silence is recognized after one propagation
    ///   delay);
    /// * collision — `tau` (all stations abort on detecting the collision);
    /// * success — `M * tau`, plus one guard `tau` if configured.
    pub fn probe(&self, transmitters: &[MessageId]) -> (SlotOutcome, Dur) {
        match transmitters.len() {
            0 => (SlotOutcome::Idle, self.cfg.tau()),
            1 => (
                SlotOutcome::Success(transmitters[0]),
                self.cfg.success_duration(),
            ),
            n => (SlotOutcome::Collision(n as u32), self.cfg.tau()),
        }
    }
}

/// Aggregate channel-time accounting, split by how the time was spent.
///
/// `utilization()` is the fraction of channel time carrying successful
/// transmissions — the "useful work" the paper's Section 4.2 credits the
/// controlled protocol with maximizing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelStats {
    /// Channel time spent idle (empty probes).
    pub idle: Dur,
    /// Channel time destroyed by collisions.
    pub collision: Dur,
    /// Channel time carrying successful transmissions.
    pub success: Dur,
    /// Channel time whose feedback was erased by an injected fault.
    pub erased: Dur,
    /// Channel time spent in quiet resynchronization backoff after a
    /// detected feedback fault.
    pub quiet: Dur,
    /// Count of idle probes.
    pub idle_slots: u64,
    /// Count of collision slots.
    pub collision_slots: u64,
    /// Count of successful transmissions.
    pub successes: u64,
    /// Count of erased slots.
    pub erased_slots: u64,
    /// Count of quiet backoff periods.
    pub quiet_periods: u64,
}

impl ChannelStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one resolved step.
    pub fn record(&mut self, outcome: &SlotOutcome, dur: Dur) {
        match outcome {
            SlotOutcome::Idle => {
                self.idle += dur;
                self.idle_slots += 1;
            }
            SlotOutcome::Collision(_) => {
                self.collision += dur;
                self.collision_slots += 1;
            }
            SlotOutcome::Success(_) => {
                self.success += dur;
                self.successes += 1;
            }
        }
    }

    /// Records a slot whose feedback was erased by an injected fault.
    pub fn record_erased(&mut self, dur: Dur) {
        self.erased += dur;
        self.erased_slots += 1;
    }

    /// Records quiet channel time spent backing off after a detected
    /// feedback fault.
    pub fn record_quiet(&mut self, dur: Dur) {
        self.quiet += dur;
        self.quiet_periods += 1;
    }

    /// Total accounted channel time.
    pub fn total(&self) -> Dur {
        self.idle + self.collision + self.success + self.erased + self.quiet
    }

    /// Fraction of channel time carrying successful transmissions.
    pub fn utilization(&self) -> f64 {
        let total = self.total().as_f64();
        if total == 0.0 {
            0.0
        } else {
            self.success.as_f64() / total
        }
    }

    /// Pushes the accumulated channel-time accounting into `sink` under
    /// stable `tcw_channel_*` names (counts, ticks per category, and the
    /// derived utilization gauge).
    pub fn emit(&self, sink: &mut dyn tcw_sim::stats::MetricSink) {
        sink.counter(
            "tcw_channel_idle_slots_total",
            "idle probe slots",
            self.idle_slots,
        );
        sink.counter(
            "tcw_channel_collision_slots_total",
            "collision slots",
            self.collision_slots,
        );
        sink.counter(
            "tcw_channel_successes_total",
            "successful transmissions",
            self.successes,
        );
        sink.counter(
            "tcw_channel_erased_slots_total",
            "slots with fault-erased feedback",
            self.erased_slots,
        );
        sink.counter(
            "tcw_channel_quiet_periods_total",
            "quiet resynchronization backoff periods",
            self.quiet_periods,
        );
        sink.counter(
            "tcw_channel_idle_ticks_total",
            "channel time spent idle (ticks)",
            self.idle.ticks(),
        );
        sink.counter(
            "tcw_channel_collision_ticks_total",
            "channel time destroyed by collisions (ticks)",
            self.collision.ticks(),
        );
        sink.counter(
            "tcw_channel_success_ticks_total",
            "channel time carrying successful transmissions (ticks)",
            self.success.ticks(),
        );
        sink.gauge(
            "tcw_channel_utilization",
            "fraction of channel time carrying successes",
            self.utilization(),
        );
    }

    /// Mean number of overhead (idle + collision) slots per success.
    pub fn overhead_slots_per_success(&self) -> f64 {
        if self.successes == 0 {
            0.0
        } else {
            (self.idle_slots + self.collision_slots) as f64 / self.successes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;

    fn cfg() -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: 10,
            message_slots: 25,
            guard: false,
        }
    }

    #[test]
    fn durations_derive_from_config() {
        let c = cfg();
        assert_eq!(c.tau(), Dur::from_ticks(10));
        assert_eq!(c.message_duration(), Dur::from_ticks(250));
        assert_eq!(c.taus(3), Dur::from_ticks(30));
        assert_eq!(c.dur_in_taus(Dur::from_ticks(25)), 2.5);
    }

    #[test]
    fn probe_outcomes() {
        let m = Medium::new(cfg());
        let (o, d) = m.probe(&[]);
        assert_eq!(o, SlotOutcome::Idle);
        assert_eq!(d, Dur::from_ticks(10));

        let (o, d) = m.probe(&[MessageId(1)]);
        assert_eq!(o, SlotOutcome::Success(MessageId(1)));
        assert_eq!(d, Dur::from_ticks(250));

        let (o, d) = m.probe(&[MessageId(1), MessageId(2), MessageId(3)]);
        assert_eq!(o, SlotOutcome::Collision(3));
        assert_eq!(d, Dur::from_ticks(10));
    }

    #[test]
    fn guard_extends_success() {
        let mut c = cfg();
        c.guard = true;
        let m = Medium::new(c);
        let (_, d) = m.probe(&[MessageId(1)]);
        assert_eq!(d, Dur::from_ticks(260));
        // guard does not affect probes
        let (_, d) = m.probe(&[]);
        assert_eq!(d, Dur::from_ticks(10));
    }

    #[test]
    fn stats_accumulate_and_utilization() {
        let m = Medium::new(cfg());
        let mut s = ChannelStats::new();
        for step in [
            m.probe(&[]),
            m.probe(&[MessageId(1), MessageId(2)]),
            m.probe(&[MessageId(1)]),
        ] {
            s.record(&step.0, step.1);
        }
        assert_eq!(s.idle_slots, 1);
        assert_eq!(s.collision_slots, 1);
        assert_eq!(s.successes, 1);
        assert_eq!(s.total(), Dur::from_ticks(270));
        assert!((s.utilization() - 250.0 / 270.0).abs() < 1e-12);
        assert_eq!(s.overhead_slots_per_success(), 2.0);
    }

    #[test]
    fn erased_and_quiet_time_counts_toward_total() {
        let mut s = ChannelStats::new();
        s.record(&SlotOutcome::Success(MessageId(1)), Dur::from_ticks(250));
        s.record_erased(Dur::from_ticks(10));
        s.record_quiet(Dur::from_ticks(40));
        assert_eq!(s.erased_slots, 1);
        assert_eq!(s.quiet_periods, 1);
        assert_eq!(s.total(), Dur::from_ticks(300));
        assert!((s.utilization() - 250.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ChannelStats::new();
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.overhead_slots_per_success(), 0.0);
    }
}
