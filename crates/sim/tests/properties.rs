//! Property-based tests for the simulation kernel.
//!
//! Properties are checked over many randomized cases drawn from the
//! crate's own deterministic [`Rng`] (the repository builds offline, so no
//! external property-testing framework is used; the loop-over-seeds style
//! keeps every failure reproducible from the case index).

use tcw_sim::events::EventQueue;
use tcw_sim::rng::Rng;
use tcw_sim::snap::{SnapReader, SnapWriter};
use tcw_sim::stats::{Histogram, RatioCounter, Tally, TickHistogram};
use tcw_sim::time::{Dur, Time};

const CASES: u64 = 200;

/// Popping the event queue yields times in non-decreasing order, and
/// events with equal times come out in insertion order.
#[test]
fn event_queue_is_ordered_and_stable() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0001 ^ case);
        let n = 1 + rng.below(199) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Time::from_ticks(rng.below(50)), i);
        }
        let mut prev: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                assert!(t >= pt, "case {case}: time went backwards");
                if t == pt {
                    assert!(
                        i > pi,
                        "case {case}: equal-time events out of insertion order"
                    );
                }
            }
            prev = Some((t, i));
        }
    }
}

/// Every scheduled event is delivered exactly once.
#[test]
fn event_queue_conserves_events() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0002 ^ case);
        let n = rng.below(300) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Time::from_ticks(rng.below(1000)), i);
        }
        let mut seen = vec![false; n];
        while let Some((_, i)) = q.pop() {
            assert!(!seen[i], "case {case}: event delivered twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "case {case}: event lost");
    }
}

/// Time affine algebra: (a + d) - a == d for all representable pairs.
#[test]
fn time_affine_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0003 ^ case);
        let a = rng.below(u64::MAX / 2);
        let d = rng.below(u64::MAX / 2);
        let t = Time::from_ticks(a);
        let dur = Dur::from_ticks(d);
        assert_eq!((t + dur) - t, dur);
        assert_eq!((t + dur) - dur, t);
    }
}

/// Tally::merge is equivalent to recording the concatenation.
#[test]
fn tally_merge_associative() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0004 ^ case);
        let draw = |rng: &mut Rng| -> Vec<f64> {
            let n = rng.below(50) as usize;
            (0..n).map(|_| (rng.f64() - 0.5) * 2e6).collect()
        };
        let xs = draw(&mut rng);
        let ys = draw(&mut rng);
        let mut whole = Tally::new();
        for &x in xs.iter().chain(ys.iter()) {
            whole.record(x);
        }
        let mut a = Tally::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = Tally::new();
        for &y in &ys {
            b.record(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        if whole.count() > 0 {
            assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
            assert!(
                (a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance().abs())
            );
        }
    }
}

/// The RNG's bounded sampler stays in range for arbitrary bounds.
#[test]
fn rng_below_in_range() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0005 ^ case);
        let seed = rng.next_u64();
        let bound = 1 + rng.below(u64::MAX - 1);
        let mut r = Rng::new(seed);
        for _ in 0..64 {
            assert!(r.below(bound) < bound, "case {case}: out of range");
        }
    }
}

/// Histogram CDF is monotone non-decreasing and bounded by [0,1].
#[test]
fn histogram_cdf_monotone() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0006 ^ case);
        let n = 1 + rng.below(199) as usize;
        let mut h = Histogram::new(0.0, 10.0, 17);
        for _ in 0..n {
            h.record(-2.0 + rng.f64() * 14.0);
        }
        let mut prev = 0.0;
        for i in 0..=120 {
            let q = -1.0 + i as f64 * 0.1;
            let c = h.cdf(q);
            assert!((0.0..=1.0 + 1e-12).contains(&c));
            assert!(
                c + 1e-12 >= prev,
                "case {case}: cdf decreased at {q}: {c} < {prev}"
            );
            prev = c;
        }
    }
}

/// The exact `q`-quantile of a sorted sample (the value at rank
/// `ceil(q*n)`, clamped into range).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Histogram quantile estimates land within one bin width of the exact
/// sorted-sample quantile, for in-range samples (no under/overflow mass).
#[test]
fn histogram_quantile_matches_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0008 ^ case);
        let n = 50 + rng.below(200) as usize;
        let bins = 8 + rng.below(56) as usize;
        let mut h = Histogram::new(0.0, 10.0, bins);
        let mut samples: Vec<f64> = (0..n).map(|_| rng.f64() * 10.0).collect();
        for &x in &samples {
            h.record(x);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let width = 10.0 / bins as f64;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95] {
            let exact = exact_quantile(&samples, q);
            let est = h
                .quantile(q)
                .expect("in-range samples: quantile never falls in under/overflow");
            assert!(
                (est - exact).abs() <= width + 1e-9,
                "case {case}: q={q} bins={bins}: histogram {est} vs exact {exact} \
                 (bin width {width})"
            );
        }
    }
}

/// Tick-histogram percentiles are exact: on random integer streams
/// (ranges inside and past the reserved capacity, heavy ties, a single
/// distinct value), every percentile from 1 to 99 equals the nearest
/// rank of the sorted sample, and a save/load round trip reproduces
/// every read-out and then records identically.
#[test]
fn tick_histogram_percentiles_are_nearest_rank() {
    let reserve = 201;
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0009 ^ case);
        // Values inside the reservation, past it, a handful of values
        // (heavy ties) or a single one.
        let (offset, span) = match case % 4 {
            0 => (0, reserve),
            1 => (rng.below(reserve), 10 * reserve),
            2 => (rng.below(3 * reserve), 4),
            _ => (rng.below(3 * reserve), 1),
        };
        let n = 1 + rng.below(2000);
        let mut sample: Vec<u64> = (0..n).map(|_| offset + rng.below(span)).collect();
        let mut h = TickHistogram::with_capacity(reserve as usize);
        sample.iter().for_each(|&x| h.record(x));
        sample.sort_unstable();
        for p in 1..=99 {
            let rank = (u64::from(p) * n).div_ceil(100);
            let exact = sample[rank as usize - 1];
            assert_eq!(h.percentile(p), Some(exact), "case {case}: p{p} n={n}");
        }

        let mut w = SnapWriter::new();
        h.save_state(&mut w);
        let words = w.into_words();
        let mut r = SnapReader::new(&words);
        let mut back = TickHistogram::load_state(reserve as usize, &mut r).expect("round trip");
        r.finish().expect("whole stream consumed");
        let same = |a: &TickHistogram, b: &TickHistogram| {
            a.count() == b.count() && (0..=100).all(|p| a.percentile(p) == b.percentile(p))
        };
        assert!(same(&back, &h), "case {case}: restored read-outs differ");
        for _ in 0..1 + rng.below(50) {
            let x = offset + rng.below(span);
            h.record(x);
            back.record(x);
        }
        assert!(
            same(&back, &h),
            "case {case}: restored histogram records differently"
        );
    }
}

/// RatioCounter::merge equals recording the concatenation, and merging
/// is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
#[test]
fn ratio_counter_merge_associative() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_000A ^ case);
        let draw = |rng: &mut Rng| -> Vec<bool> {
            let n = rng.below(60) as usize;
            (0..n).map(|_| rng.f64() < 0.3).collect()
        };
        let (xs, ys, zs) = (draw(&mut rng), draw(&mut rng), draw(&mut rng));
        let fill = |marks: &[bool]| {
            let mut c = RatioCounter::new();
            for &m in marks {
                c.record(m);
            }
            c
        };
        let mut whole = RatioCounter::new();
        for &m in xs.iter().chain(ys.iter()).chain(zs.iter()) {
            whole.record(m);
        }
        // Left fold: (a ⊕ b) ⊕ c.
        let mut left = fill(&xs);
        left.merge(&fill(&ys));
        left.merge(&fill(&zs));
        // Right fold: a ⊕ (b ⊕ c).
        let mut bc = fill(&ys);
        bc.merge(&fill(&zs));
        let mut right = fill(&xs);
        right.merge(&bc);
        for c in [&left, &right] {
            assert_eq!(c.marked(), whole.marked(), "case {case}: marked differs");
            assert_eq!(c.total(), whole.total(), "case {case}: total differs");
            assert_eq!(
                c.ratio().to_bits(),
                whole.ratio().to_bits(),
                "case {case}: ratio differs"
            );
        }
    }
}

/// Histogram conserves its observation count across buckets.
#[test]
fn histogram_conserves_count() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EED_0007 ^ case);
        let n = rng.below(300) as usize;
        let mut h = Histogram::new(0.0, 10.0, 13);
        for _ in 0..n {
            h.record(-5.0 + rng.f64() * 20.0);
        }
        let binned: u64 = (0..h.bins()).map(|i| h.bin_count(i)).sum();
        assert_eq!(binned + h.underflow() + h.overflow(), n as u64);
    }
}
