//! Arrival processes: streams of message arrivals at stations.

use crate::message::StationId;
use tcw_sim::rng::Rng;
use tcw_sim::snap::SnapError;
use tcw_sim::time::{Dur, Time};

/// One message arrival: when, and at which station.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant.
    pub time: Time,
    /// The receiving (sending-side) station.
    pub station: StationId,
}

/// A stream of arrivals with non-decreasing times.
///
/// Implementations must return times that never decrease across calls;
/// `None` means the source is exhausted (infinite sources never return it).
pub trait ArrivalSource {
    /// Produces the next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival>;

    /// Captures the source's mutable cursor for an engine checkpoint, or
    /// `None` when the source kind does not support checkpointing (the
    /// engine then refuses to snapshot rather than silently skewing the
    /// arrival stream on restore). Configuration — rates, schedules, trace
    /// contents — is *not* captured: a restore target must be built from
    /// the same configuration.
    fn save_cursor(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restores a cursor captured by [`ArrivalSource::save_cursor`] on a
    /// source built from the same configuration.
    fn load_cursor(&mut self, _words: &[u64]) -> Result<(), SnapError> {
        Err(SnapError::new(
            "arrival source does not support checkpointing",
        ))
    }
}

/// A boxed source forwards to the source it holds, so an engine can run
/// over a `Box<dyn ArrivalSource>` chosen at runtime.
impl<T: ArrivalSource + ?Sized> ArrivalSource for Box<T> {
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival> {
        (**self).next_arrival(rng)
    }

    fn save_cursor(&self) -> Option<Vec<u64>> {
        (**self).save_cursor()
    }

    fn load_cursor(&mut self, words: &[u64]) -> Result<(), SnapError> {
        (**self).load_cursor(words)
    }
}

/// Aggregate Poisson arrivals at rate `lambda` (messages per tick),
/// assigned to one of `stations` uniformly at random — the paper's traffic
/// model ("the probability of more than one message arrival anywhere in the
/// network in `Delta` is zero" holds in the limit of fine ticks).
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rate_per_tick: f64,
    stations: u32,
    /// Continuous-time position, kept in f64 ticks to avoid accumulating
    /// rounding bias when quantizing to the tick lattice.
    clock: f64,
}

impl PoissonArrivals {
    /// Creates a source with `rate_per_tick` expected arrivals per tick
    /// spread over `stations` stations.
    ///
    /// # Panics
    /// Panics if the rate is not positive-finite or `stations == 0`.
    pub fn new(rate_per_tick: f64, stations: u32) -> Self {
        assert!(rate_per_tick > 0.0 && rate_per_tick.is_finite());
        assert!(stations > 0);
        PoissonArrivals {
            rate_per_tick,
            stations,
            clock: 0.0,
        }
    }

    /// Creates a source with `rate_per_tau` expected arrivals per
    /// propagation delay, given the channel tick resolution.
    pub fn per_tau(rate_per_tau: f64, ticks_per_tau: u64, stations: u32) -> Self {
        Self::new(rate_per_tau / ticks_per_tau as f64, stations)
    }

    /// The aggregate arrival rate in messages per tick.
    pub fn rate_per_tick(&self) -> f64 {
        self.rate_per_tick
    }
}

impl ArrivalSource for PoissonArrivals {
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival> {
        let gap = -rng.f64_open_left().ln() / self.rate_per_tick;
        self.clock += gap;
        let station = StationId(rng.below(u64::from(self.stations)) as u32);
        Some(Arrival {
            time: Time::from_ticks(self.clock as u64),
            station,
        })
    }

    fn save_cursor(&self) -> Option<Vec<u64>> {
        Some(vec![self.clock.to_bits()])
    }

    fn load_cursor(&mut self, words: &[u64]) -> Result<(), SnapError> {
        match words {
            [clock] => {
                self.clock = f64::from_bits(*clock);
                Ok(())
            }
            _ => Err(SnapError::new("malformed Poisson cursor")),
        }
    }
}

/// A rate change of a piecewise-constant arrival schedule: from `start`
/// onward, arrivals occur at `rate_per_tick`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateStep {
    /// Instant the rate takes effect.
    pub start: Time,
    /// Aggregate arrival rate from `start` (messages per tick).
    pub rate_per_tick: f64,
}

/// Non-stationary Poisson arrivals with a piecewise-constant rate —
/// load steps and flash crowds, the workloads an offline-tuned window
/// length cannot anticipate.
///
/// Sampling uses time rescaling: one unit-exponential draw is spent
/// across segments at each segment's rate, then one uniform draw picks
/// the station. That is **exactly the draw pattern of
/// [`PoissonArrivals`]** (one `f64` + one `below` per arrival), so a
/// single-segment schedule is bit-identical to the stationary source on
/// the same RNG stream — `none()`-style plans stay bit-identical.
#[derive(Clone, Debug)]
pub struct PiecewiseArrivals {
    steps: Vec<RateStep>,
    stations: u32,
    /// Continuous-time position in f64 ticks (see [`PoissonArrivals`]).
    clock: f64,
    /// Index of the segment containing `clock`.
    seg: usize,
}

impl PiecewiseArrivals {
    /// Creates a source from a rate schedule.
    ///
    /// # Panics
    /// Panics if the schedule is empty, does not start at time zero, has
    /// non-increasing step instants, or any rate is not positive-finite;
    /// or if `stations == 0`.
    pub fn new(steps: Vec<RateStep>, stations: u32) -> Self {
        assert!(!steps.is_empty(), "empty rate schedule");
        assert_eq!(steps[0].start, Time::ZERO, "schedule must start at 0");
        assert!(stations > 0);
        for w in steps.windows(2) {
            assert!(w[0].start < w[1].start, "step instants must increase");
        }
        for s in &steps {
            assert!(
                s.rate_per_tick > 0.0 && s.rate_per_tick.is_finite(),
                "rates must be positive-finite"
            );
        }
        PiecewiseArrivals {
            steps,
            stations,
            clock: 0.0,
            seg: 0,
        }
    }

    /// A single-rate schedule — bit-identical to
    /// [`PoissonArrivals::new`] on the same stream.
    pub fn constant(rate_per_tick: f64, stations: u32) -> Self {
        Self::new(
            vec![RateStep {
                start: Time::ZERO,
                rate_per_tick,
            }],
            stations,
        )
    }

    /// A one-shot load step: rate `before` until `at`, then `after`.
    pub fn load_step(before: f64, after: f64, at: Time, stations: u32) -> Self {
        Self::new(
            vec![
                RateStep {
                    start: Time::ZERO,
                    rate_per_tick: before,
                },
                RateStep {
                    start: at,
                    rate_per_tick: after,
                },
            ],
            stations,
        )
    }

    /// Flash crowds: `base` rate, multiplied by `surge` for each
    /// `(start, duration)` burst (bursts must be disjoint and in order).
    pub fn flash_crowd(base: f64, surge: f64, bursts: &[(Time, Dur)], stations: u32) -> Self {
        assert!(surge > 0.0 && surge.is_finite());
        let mut steps = vec![RateStep {
            start: Time::ZERO,
            rate_per_tick: base,
        }];
        for &(start, dur) in bursts {
            assert!(!dur.is_zero(), "zero-length burst");
            if start == Time::ZERO {
                steps[0].rate_per_tick = base * surge;
            } else {
                steps.push(RateStep {
                    start,
                    rate_per_tick: base * surge,
                });
            }
            steps.push(RateStep {
                start: start + dur,
                rate_per_tick: base,
            });
        }
        Self::new(steps, stations)
    }

    /// The configured rate at `time` (messages per tick).
    pub fn rate_at(&self, time: Time) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|s| s.start <= time)
            .expect("schedule starts at 0")
            .rate_per_tick
    }

    /// The rate schedule.
    pub fn steps(&self) -> &[RateStep] {
        &self.steps
    }

    /// Long-run mean rate up to `horizon` (messages per tick).
    pub fn mean_rate_until(&self, horizon: Time) -> f64 {
        let h = horizon.ticks() as f64;
        let mut mass = 0.0;
        for (i, s) in self.steps.iter().enumerate() {
            let lo = (s.start.ticks() as f64).min(h);
            let hi = self
                .steps
                .get(i + 1)
                .map(|n| (n.start.ticks() as f64).min(h))
                .unwrap_or(h);
            mass += (hi - lo) * s.rate_per_tick;
        }
        mass / h
    }
}

impl ArrivalSource for PiecewiseArrivals {
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival> {
        // One unit-exponential draw, rescaled through the schedule.
        let mut e = -rng.f64_open_left().ln();
        loop {
            let rate = self.steps[self.seg].rate_per_tick;
            match self.steps.get(self.seg + 1) {
                Some(next) => {
                    let boundary = next.start.ticks() as f64;
                    let capacity = (boundary - self.clock) * rate;
                    if e < capacity {
                        self.clock += e / rate;
                        break;
                    }
                    e -= capacity;
                    self.clock = boundary;
                    self.seg += 1;
                }
                None => {
                    self.clock += e / rate;
                    break;
                }
            }
        }
        let station = StationId(rng.below(u64::from(self.stations)) as u32);
        Some(Arrival {
            time: Time::from_ticks(self.clock as u64),
            station,
        })
    }

    fn save_cursor(&self) -> Option<Vec<u64>> {
        Some(vec![self.clock.to_bits(), self.seg as u64])
    }

    fn load_cursor(&mut self, words: &[u64]) -> Result<(), SnapError> {
        match words {
            [clock, seg] => {
                let seg = usize::try_from(*seg)
                    .ok()
                    .filter(|&s| s < self.steps.len())
                    .ok_or_else(|| SnapError::new("piecewise cursor segment out of range"))?;
                self.clock = f64::from_bits(*clock);
                self.seg = seg;
                Ok(())
            }
            _ => Err(SnapError::new("malformed piecewise cursor")),
        }
    }
}

/// A deterministic, finite arrival trace — used for unit tests and for the
/// Figure 1 walk-through example where arrival instants are hand-placed.
#[derive(Clone, Debug)]
pub struct TraceArrivals {
    arrivals: Vec<Arrival>,
    next: usize,
}

impl TraceArrivals {
    /// Creates a trace from `(time, station)` pairs; they are sorted by
    /// time (stable).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.time);
        TraceArrivals { arrivals, next: 0 }
    }

    /// Convenience constructor from `(ticks, station_index)` pairs.
    pub fn from_ticks(pairs: &[(u64, u32)]) -> Self {
        Self::new(
            pairs
                .iter()
                .map(|&(t, s)| Arrival {
                    time: Time::from_ticks(t),
                    station: StationId(s),
                })
                .collect(),
        )
    }

    /// Number of arrivals remaining.
    pub fn remaining(&self) -> usize {
        self.arrivals.len() - self.next
    }
}

impl ArrivalSource for TraceArrivals {
    fn next_arrival(&mut self, _rng: &mut Rng) -> Option<Arrival> {
        let a = self.arrivals.get(self.next).copied();
        if a.is_some() {
            self.next += 1;
        }
        a
    }

    fn save_cursor(&self) -> Option<Vec<u64>> {
        Some(vec![self.next as u64])
    }

    fn load_cursor(&mut self, words: &[u64]) -> Result<(), SnapError> {
        match words {
            [next] => {
                self.next = usize::try_from(*next)
                    .ok()
                    .filter(|&n| n <= self.arrivals.len())
                    .ok_or_else(|| SnapError::new("trace cursor out of range"))?;
                Ok(())
            }
            _ => Err(SnapError::new("malformed trace cursor")),
        }
    }
}

/// Merges several sources into one time-ordered stream.
///
/// Each inner source is buffered one arrival deep; the earliest buffered
/// arrival is emitted next, so the merged stream is monotone as long as the
/// inner streams are.
pub struct MergedSource {
    sources: Vec<(Box<dyn ArrivalSource>, Option<Arrival>)>,
    primed: bool,
}

impl MergedSource {
    /// Creates a merged source over the given inner sources.
    pub fn new(sources: Vec<Box<dyn ArrivalSource>>) -> Self {
        MergedSource {
            sources: sources.into_iter().map(|s| (s, None)).collect(),
            primed: false,
        }
    }
}

impl ArrivalSource for MergedSource {
    fn next_arrival(&mut self, rng: &mut Rng) -> Option<Arrival> {
        if !self.primed {
            for (src, buf) in &mut self.sources {
                *buf = src.next_arrival(rng);
            }
            self.primed = true;
        }
        // Pick the earliest buffered arrival.
        let idx = self
            .sources
            .iter()
            .enumerate()
            .filter_map(|(i, (_, buf))| buf.map(|a| (i, a.time)))
            .min_by_key(|&(_, t)| t)
            .map(|(i, _)| i)?;
        let out = self.sources[idx].1.take();
        self.sources[idx].1 = self.sources[idx].0.next_arrival(rng);
        out
    }
}

/// Drains up to `max` arrivals before `horizon` into a vector (testing and
/// batch-analysis helper).
pub fn collect_until(
    src: &mut dyn ArrivalSource,
    rng: &mut Rng,
    horizon: Time,
    max: usize,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    while out.len() < max {
        match src.next_arrival(rng) {
            Some(a) if a.time <= horizon => out.push(a),
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_matches() {
        let mut src = PoissonArrivals::per_tau(0.01, 100, 50);
        let mut rng = Rng::new(1);
        let horizon = Time::from_ticks(10_000_000);
        let arrivals = collect_until(&mut src, &mut rng, horizon, usize::MAX);
        // expected 0.01 per tau = 1e-4/tick * 1e7 ticks = 1000
        let n = arrivals.len() as f64;
        assert!((n - 1000.0).abs() < 120.0, "n = {n}");
    }

    #[test]
    fn poisson_times_monotone() {
        let mut src = PoissonArrivals::new(0.1, 4);
        let mut rng = Rng::new(2);
        let mut prev = Time::ZERO;
        for _ in 0..10_000 {
            let a = src.next_arrival(&mut rng).unwrap();
            assert!(a.time >= prev);
            prev = a.time;
        }
    }

    #[test]
    fn poisson_stations_covered() {
        let mut src = PoissonArrivals::new(0.5, 3);
        let mut rng = Rng::new(3);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            let a = src.next_arrival(&mut rng).unwrap();
            seen[a.station.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poisson_interarrival_cv_near_one() {
        // Exponential gaps: coefficient of variation 1.
        let mut src = PoissonArrivals::new(0.05, 1);
        let mut rng = Rng::new(4);
        let mut prev = 0.0;
        let mut tally = tcw_sim::stats::Tally::new();
        for _ in 0..50_000 {
            let a = src.next_arrival(&mut rng).unwrap();
            let t = a.time.ticks() as f64;
            tally.record(t - prev);
            prev = t;
        }
        let cv = tally.std_dev() / tally.mean();
        assert!((cv - 1.0).abs() < 0.05, "cv = {cv}");
    }

    #[test]
    fn piecewise_single_segment_is_bit_identical_to_poisson() {
        let mut poisson = PoissonArrivals::new(0.02, 7);
        let mut piece = PiecewiseArrivals::constant(0.02, 7);
        let mut rng_a = Rng::new(99);
        let mut rng_b = Rng::new(99);
        for _ in 0..5_000 {
            assert_eq!(
                poisson.next_arrival(&mut rng_a),
                piece.next_arrival(&mut rng_b)
            );
        }
    }

    #[test]
    fn piecewise_rate_steps_take_effect() {
        let at = Time::from_ticks(100_000);
        let mut src = PiecewiseArrivals::load_step(0.001, 0.01, at, 5);
        assert_eq!(src.rate_at(Time::from_ticks(0)), 0.001);
        assert_eq!(src.rate_at(at), 0.01);
        let mut rng = Rng::new(5);
        let (mut before, mut after) = (0u64, 0u64);
        loop {
            let a = src.next_arrival(&mut rng).unwrap();
            if a.time.ticks() >= 200_000 {
                break;
            }
            if a.time < at {
                before += 1;
            } else {
                after += 1;
            }
        }
        // Expect ~100 before, ~1000 after.
        assert!((before as f64 - 100.0).abs() < 50.0, "before = {before}");
        assert!((after as f64 - 1000.0).abs() < 150.0, "after = {after}");
    }

    #[test]
    fn piecewise_times_monotone_across_many_steps() {
        let steps: Vec<RateStep> = (0..20)
            .map(|i| RateStep {
                start: Time::from_ticks(i * 1_000),
                rate_per_tick: if i % 2 == 0 { 0.001 } else { 0.05 },
            })
            .collect();
        let mut src = PiecewiseArrivals::new(steps, 3);
        let mut rng = Rng::new(8);
        let mut prev = Time::ZERO;
        for _ in 0..5_000 {
            let a = src.next_arrival(&mut rng).unwrap();
            assert!(a.time >= prev);
            prev = a.time;
        }
    }

    #[test]
    fn flash_crowd_surges_during_bursts() {
        let bursts = [(Time::from_ticks(50_000), Dur::from_ticks(10_000))];
        let src = PiecewiseArrivals::flash_crowd(0.001, 10.0, &bursts, 4);
        assert_eq!(src.rate_at(Time::from_ticks(0)), 0.001);
        assert_eq!(src.rate_at(Time::from_ticks(55_000)), 0.01);
        assert_eq!(src.rate_at(Time::from_ticks(60_000)), 0.001);
        let mean = src.mean_rate_until(Time::from_ticks(100_000));
        let expect = (90_000.0 * 0.001 + 10_000.0 * 0.01) / 100_000.0;
        assert!((mean - expect).abs() < 1e-12, "{mean} vs {expect}");
    }

    #[test]
    fn piecewise_rejects_bad_schedules() {
        use std::panic::catch_unwind;
        assert!(catch_unwind(|| PiecewiseArrivals::new(vec![], 3)).is_err());
        assert!(catch_unwind(|| PiecewiseArrivals::new(
            vec![RateStep {
                start: Time::from_ticks(5),
                rate_per_tick: 0.1,
            }],
            3
        ))
        .is_err());
        assert!(catch_unwind(|| PiecewiseArrivals::constant(0.0, 3)).is_err());
        assert!(catch_unwind(|| PiecewiseArrivals::constant(0.1, 0)).is_err());
    }

    #[test]
    fn trace_sorted_and_exhausts() {
        let mut src = TraceArrivals::from_ticks(&[(30, 1), (10, 0), (20, 2)]);
        let mut rng = Rng::new(0);
        assert_eq!(src.remaining(), 3);
        let a = src.next_arrival(&mut rng).unwrap();
        assert_eq!((a.time.ticks(), a.station.0), (10, 0));
        let a = src.next_arrival(&mut rng).unwrap();
        assert_eq!(a.time.ticks(), 20);
        let a = src.next_arrival(&mut rng).unwrap();
        assert_eq!(a.time.ticks(), 30);
        assert_eq!(src.next_arrival(&mut rng), None);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn merged_interleaves_in_time_order() {
        let a = TraceArrivals::from_ticks(&[(1, 0), (5, 0), (9, 0)]);
        let b = TraceArrivals::from_ticks(&[(2, 1), (3, 1), (8, 1)]);
        let mut m = MergedSource::new(vec![Box::new(a), Box::new(b)]);
        let mut rng = Rng::new(0);
        let mut times = Vec::new();
        while let Some(x) = m.next_arrival(&mut rng) {
            times.push(x.time.ticks());
        }
        assert_eq!(times, vec![1, 2, 3, 5, 8, 9]);
    }

    #[test]
    fn merged_empty_sources() {
        let mut m = MergedSource::new(vec![]);
        let mut rng = Rng::new(0);
        assert_eq!(m.next_arrival(&mut rng), None);
    }
}
