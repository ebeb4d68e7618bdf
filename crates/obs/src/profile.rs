//! Slot-phase profiling: log-scale wall-clock histograms, and (behind the
//! `obs-profile` feature) an [`EngineObserver`] that attributes the time
//! between consecutive engine callbacks to the protocol phase that
//! produced them.
//!
//! [`LogHistogram`] is always compiled (and unit-tested); only the
//! [`PhaseProfiler`], which reads the wall clock, is feature-gated — so
//! default builds carry no timing code on the engine path at all.
//!
//! Profiling output is wall-clock dependent and therefore never part of a
//! deterministic artifact; it is printed to stderr on demand.

#[cfg(feature = "obs-profile")]
pub use gated::PhaseProfiler;

/// A histogram over `u64` magnitudes (nanoseconds, ticks, …) with one
/// bucket per power of two — 64 buckets cover the full range with no
/// configuration and O(1) recording.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: [u64; 64],
    total: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; 64],
            total: 0,
            sum: 0,
        }
    }

    /// Bucket index for a value: 0 holds {0, 1}, bucket `i` holds
    /// `[2^i, 2^(i+1))` for `i >= 1`.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).saturating_sub(1)
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-quantile,
    /// or `None` when empty. Resolution is a factor of two — adequate for
    /// phase timing, where only the order of magnitude matters.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(if i >= 63 { u64::MAX } else { 2u64 << i });
            }
        }
        Some(u64::MAX)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(feature = "obs-profile")]
mod gated {
    use super::LogHistogram;
    use std::fmt::Write as _;
    use std::time::Instant;
    use tcw_mac::{ChurnEvent, Message, SlotOutcome};
    use tcw_sim::rng::Rng;
    use tcw_sim::time::{Dur, Time};
    use tcw_window::interval::Interval;
    use tcw_window::timeline::Timeline;
    use tcw_window::trace::EngineObserver;

    /// Engine phases the profiler attributes wall-clock time to.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Phase {
        /// Work culminating in a decision-point callback.
        Decision,
        /// Work culminating in a probe resolution.
        Probe,
        /// Work culminating in a reopen of examined time.
        Reopen,
        /// Everything else (transmit bookkeeping, churn, faults, …).
        Other,
    }

    /// Wall-clock slot-phase profiler (feature `obs-profile`).
    ///
    /// Implements [`EngineObserver`] by measuring the host time elapsed
    /// between consecutive callbacks and attributing each gap to the phase
    /// of the callback that ended it. Purely an observer: reads the wall
    /// clock, never the simulation's RNG, so simulated results are
    /// unaffected — but its output is machine-dependent and must never be
    /// written into a deterministic artifact.
    pub struct PhaseProfiler {
        last: Instant,
        decision: LogHistogram,
        probe: LogHistogram,
        reopen: LogHistogram,
        other: LogHistogram,
        jumps: u64,
        slots_skipped: u64,
        batched_runs: u64,
        batched_slots: u64,
    }

    impl Default for PhaseProfiler {
        fn default() -> Self {
            Self::new()
        }
    }

    impl PhaseProfiler {
        /// Creates a profiler; the first gap is measured from this call.
        pub fn new() -> Self {
            PhaseProfiler {
                last: Instant::now(),
                decision: LogHistogram::new(),
                probe: LogHistogram::new(),
                reopen: LogHistogram::new(),
                other: LogHistogram::new(),
                jumps: 0,
                slots_skipped: 0,
                batched_runs: 0,
                batched_slots: 0,
            }
        }

        /// Idle-run jumps observed (event-horizon fast path).
        pub fn jumps(&self) -> u64 {
            self.jumps
        }

        /// Idle decision rounds aggregated into jumps.
        pub fn slots_skipped(&self) -> u64 {
            self.slots_skipped
        }

        /// Batched resolution kernel activations observed.
        pub fn batched_runs(&self) -> u64 {
            self.batched_runs
        }

        /// Probe slots resolved by the batched kernel.
        pub fn batched_slots(&self) -> u64 {
            self.batched_slots
        }

        fn lap(&mut self, phase: Phase) {
            let now = Instant::now();
            let ns = now
                .duration_since(self.last)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            self.last = now;
            match phase {
                Phase::Decision => self.decision.record(ns),
                Phase::Probe => self.probe.record(ns),
                Phase::Reopen => self.reopen.record(ns),
                Phase::Other => self.other.record(ns),
            }
        }

        /// Human-readable per-phase summary (counts, mean, p50/p99 bucket
        /// bounds in nanoseconds).
        pub fn summary(&self) -> String {
            let mut out = String::from("phase profile (wall-clock ns between engine callbacks)\n");
            for (name, h) in [
                ("decision", &self.decision),
                ("probe", &self.probe),
                ("reopen", &self.reopen),
                ("other", &self.other),
            ] {
                let _ = writeln!(
                    out,
                    "  {name:<8} n={} mean={:.0} p50<{} p99<{}",
                    h.count(),
                    h.mean(),
                    h.quantile_bound(0.5).unwrap_or(0),
                    h.quantile_bound(0.99).unwrap_or(0),
                );
            }
            let _ = writeln!(
                out,
                "  horizon  jumps={} slots_skipped={} batched_runs={} batched_slots={}",
                self.jumps, self.slots_skipped, self.batched_runs, self.batched_slots,
            );
            out
        }
    }

    impl EngineObserver for PhaseProfiler {
        fn on_decision(&mut self, _now: Time, _segments: Option<&[Interval]>) {
            self.lap(Phase::Decision);
        }
        fn on_probe(
            &mut self,
            _start: Time,
            _segments: &[Interval],
            _outcome: &SlotOutcome,
            _dur: Dur,
        ) {
            self.lap(Phase::Probe);
        }
        fn on_immediate_split(&mut self, _now: Time, _segments: &[Interval]) {
            self.lap(Phase::Probe);
        }
        fn on_transmit(
            &mut self,
            _msg: &Message,
            _start: Time,
            _paper_delay: Dur,
            _true_delay: Dur,
        ) {
            self.lap(Phase::Other);
        }
        fn on_sender_discard(&mut self, _msg: &Message, _now: Time) {
            self.lap(Phase::Other);
        }
        fn on_corrupted_slot(&mut self, _now: Time, _dur: Dur) {
            self.lap(Phase::Other);
        }
        fn on_backoff(&mut self, _now: Time, _dur: Dur) {
            self.lap(Phase::Other);
        }
        fn on_round_abandoned(&mut self, _now: Time) {
            self.lap(Phase::Other);
        }
        fn on_reopen(&mut self, _iv: Interval) {
            self.lap(Phase::Reopen);
        }
        fn on_beacon(&mut self, _now: Time, _timeline: &Timeline, _rng: &Rng) {}
        fn on_churn_event(&mut self, _now: Time, _ev: &ChurnEvent) {
            self.lap(Phase::Other);
        }
        // Deliberately keeps the default `slow_path() == false`: the
        // profiler tolerates aggregated stretches and counts them here.
        fn on_idle_jump(&mut self, _from: Time, _to: Time, slots: u64) {
            self.jumps += 1;
            self.slots_skipped += slots;
            self.lap(Phase::Other);
        }
        fn on_batched_run(&mut self, _from: Time, _to: Time, slots: u64) {
            self.batched_runs += 1;
            self.batched_slots += slots;
            self.lap(Phase::Other);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 0);
        assert_eq!(LogHistogram::bucket(2), 1);
        assert_eq!(LogHistogram::bucket(3), 1);
        assert_eq!(LogHistogram::bucket(4), 2);
        assert_eq!(LogHistogram::bucket(u64::MAX), 63);
    }

    #[test]
    fn count_mean_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 2, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 251.25).abs() < 1e-9);
        // p50 falls in the bucket holding the 2s: [2,4) -> bound 4.
        assert_eq!(h.quantile_bound(0.5), Some(4));
        // p99 falls in the bucket holding 1000: [512,1024) -> bound 1024.
        assert_eq!(h.quantile_bound(0.99), Some(1024));
        assert_eq!(LogHistogram::new().quantile_bound(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new();
        a.record(10);
        let mut b = LogHistogram::new();
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 5005.0).abs() < 1e-9);
    }
}
