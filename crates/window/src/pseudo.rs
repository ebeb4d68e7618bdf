//! Pseudo time (paper §3.1, figure 3).
//!
//! Pseudo time compresses the actual time axis by removing every interval
//! known to contain no untransmitted message arrivals. Each unit of pseudo
//! time corresponds to a unit of actual time that *may* still contain an
//! untransmitted arrival, and ordering is preserved. The paper's
//! semi-Markov decision model lives entirely in pseudo time; Lemma 2 shows
//! that under the optimal policy pseudo time and actual time coincide for
//! all surviving messages.

use crate::interval::Interval;
use crate::timeline::Timeline;
use tcw_sim::time::{Dur, Time};

/// A half-open interval `[lo, hi)` of *pseudo* time, in ticks from the
/// pseudo origin (the oldest unexamined instant maps to pseudo 0).
///
/// The window protocol's windows are intervals of pseudo time: contiguous
/// on the compressed axis of figure 3, but possibly mapping to several
/// disjoint actual-time segments when examined regions intervene (windows
/// never include examined time — those intervals were "removed from
/// further consideration", §2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PseudoInterval {
    /// Inclusive lower bound (pseudo ticks).
    pub lo: u64,
    /// Exclusive upper bound (pseudo ticks).
    pub hi: u64,
}

impl PseudoInterval {
    /// Creates `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted pseudo interval [{lo}, {hi})");
        PseudoInterval { lo, hi }
    }

    /// Width in pseudo ticks.
    pub fn width(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Splits at the midpoint into (older, younger) halves, or `None` when
    /// narrower than 2 pseudo ticks.
    pub fn split(&self) -> Option<(PseudoInterval, PseudoInterval)> {
        self.split_at_fraction(0.5)
    }

    /// Splits at `lo + round(width * frac)` into (older, younger) parts —
    /// the paper's §5 generalization ("not necessarily splitting a window
    /// in half"). The cut is clamped so both parts are non-empty; returns
    /// `None` when narrower than 2 pseudo ticks.
    ///
    /// # Panics
    /// Panics if `frac` is outside `(0, 1)`.
    pub fn split_at_fraction(&self, frac: f64) -> Option<(PseudoInterval, PseudoInterval)> {
        assert!(frac > 0.0 && frac < 1.0, "split fraction must be in (0,1)");
        let w = self.width();
        if w < 2 {
            return None;
        }
        // Floor, so halving odd widths gives the older part the shorter
        // piece — matching `Interval::split` and the decision model's
        // lattice split. The product is non-negative, so the cast's
        // truncation is the floor; a half of a width that `f64` holds
        // exactly is `w / 2`.
        let cut = if frac == 0.5 && w < 1 << f64::MANTISSA_DIGITS {
            w / 2
        } else {
            (w as f64 * frac) as u64
        };
        let cut = cut.clamp(1, w - 1);
        let mid = self.lo + cut;
        Some((
            PseudoInterval {
                lo: self.lo,
                hi: mid,
            },
            PseudoInterval {
                lo: mid,
                hi: self.hi,
            },
        ))
    }
}

/// A snapshot of the actual-time → pseudo-time mapping induced by a
/// [`Timeline`].
#[derive(Clone, Debug)]
pub struct PseudoMap {
    /// Unexamined gaps, oldest first.
    gaps: Vec<Interval>,
    /// Cumulative pseudo time at the start of each gap.
    offsets: Vec<Dur>,
    now: Time,
}

impl Default for PseudoMap {
    fn default() -> Self {
        PseudoMap {
            gaps: Vec::new(),
            offsets: Vec::new(),
            now: Time::ZERO,
        }
    }
}

impl PseudoMap {
    /// Builds the mapping from the current state of a timeline.
    pub fn new(tl: &Timeline) -> Self {
        let mut pm = PseudoMap::default();
        pm.rebuild(tl);
        pm
    }

    /// Re-derives the mapping from `tl`, reusing the existing `gaps` and
    /// `offsets` buffers so per-round callers (the engine rebuilds the map
    /// at every decision point) stop allocating once the buffers reach
    /// their steady-state capacity.
    pub fn rebuild(&mut self, tl: &Timeline) {
        tl.unexamined_into(&mut self.gaps);
        self.offsets.clear();
        let mut acc = Dur::ZERO;
        for g in &self.gaps {
            self.offsets.push(acc);
            acc += g.width();
        }
        self.now = tl.now();
    }

    /// Total pseudo time (the pseudo-time state `i` of the decision model:
    /// the amount of time that may still contain untransmitted arrivals).
    pub fn backlog(&self) -> Dur {
        match (self.gaps.last(), self.offsets.last()) {
            (Some(g), Some(&o)) => o + g.width(),
            _ => Dur::ZERO,
        }
    }

    /// Pseudo time associated with actual instant `t`: the amount of
    /// unexamined time in `[0, t)`.
    ///
    /// Instants inside examined regions map to the pseudo time of the next
    /// unexamined instant (the mapping is the monotone closure of fig. 3).
    pub fn pseudo_of(&self, t: Time) -> Dur {
        // Find the first gap ending after t.
        let idx = self.gaps.partition_point(|g| g.hi <= t);
        if idx == self.gaps.len() {
            return self.backlog();
        }
        let g = self.gaps[idx];
        if t <= g.lo {
            self.offsets[idx]
        } else {
            self.offsets[idx] + (t - g.lo)
        }
    }

    /// Pseudo delay of a message that arrived at `arrival`: the pseudo time
    /// between `arrival` and now (paper §3.2 definition). While a message's
    /// *actual* delay only grows, its pseudo delay can shrink when younger
    /// intervals are examined and removed.
    pub fn pseudo_delay(&self, arrival: Time) -> Dur {
        self.backlog() - self.pseudo_of(arrival)
    }

    /// Actual delay of the same message, for comparison.
    pub fn actual_delay(&self, arrival: Time) -> Dur {
        self.now - arrival
    }

    /// Maps a pseudo-time interval back to the actual-time segments it
    /// covers (oldest first). The segment widths sum to the pseudo width
    /// (clamped at the backlog).
    pub fn preimage(&self, p: PseudoInterval) -> Vec<Interval> {
        let mut out = Vec::new();
        self.preimage_into(p, &mut out);
        out
    }

    /// As [`PseudoMap::preimage`], writing into `out` (cleared first) so
    /// per-probe callers can reuse one buffer instead of allocating a
    /// fresh `Vec` every slot.
    pub fn preimage_into(&self, p: PseudoInterval, out: &mut Vec<Interval>) {
        out.clear();
        if p.is_empty() {
            return;
        }
        for (g, &off) in self.gaps.iter().zip(&self.offsets) {
            let g_lo = off.ticks();
            let g_hi = g_lo + g.width().ticks();
            let lo = p.lo.max(g_lo);
            let hi = p.hi.min(g_hi);
            if lo < hi {
                let a_lo = g.lo + Dur::from_ticks(lo - g_lo);
                let a_hi = g.lo + Dur::from_ticks(hi - g_lo);
                out.push(Interval::new(a_lo, a_hi));
            }
            if g_hi >= p.hi {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }
    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    /// Build the figure-3 situation: examined regions carved out of the
    /// past compress actual time into pseudo time.
    fn figure3_timeline() -> Timeline {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(10, 30)); // 20 removed
        tl.mark_examined(Interval::from_ticks(50, 60)); // 10 removed
        tl
    }

    #[test]
    fn figure3_mapping() {
        let pm = PseudoMap::new(&figure3_timeline());
        // unexamined: [0,10) [30,50) [60,100) => backlog 70
        assert_eq!(pm.backlog(), d(70));
        assert_eq!(pm.pseudo_of(t(0)), d(0));
        assert_eq!(pm.pseudo_of(t(5)), d(5));
        // inside the first examined region: collapses to pseudo 10
        assert_eq!(pm.pseudo_of(t(10)), d(10));
        assert_eq!(pm.pseudo_of(t(29)), d(10));
        assert_eq!(pm.pseudo_of(t(30)), d(10));
        assert_eq!(pm.pseudo_of(t(40)), d(20));
        assert_eq!(pm.pseudo_of(t(50)), d(30));
        assert_eq!(pm.pseudo_of(t(60)), d(30));
        assert_eq!(pm.pseudo_of(t(100)), d(70));
    }

    #[test]
    fn ordering_is_preserved() {
        let pm = PseudoMap::new(&figure3_timeline());
        let mut prev = Dur::ZERO;
        for x in 0..=100 {
            let p = pm.pseudo_of(t(x));
            assert!(p >= prev, "pseudo time decreased at {x}");
            prev = p;
        }
    }

    #[test]
    fn pseudo_delay_le_actual_delay() {
        // Lemma 1's engine: pseudo delay never exceeds actual delay.
        let pm = PseudoMap::new(&figure3_timeline());
        for x in 0..=100 {
            assert!(
                pm.pseudo_delay(t(x)) <= pm.actual_delay(t(x)),
                "violated at {x}"
            );
        }
    }

    #[test]
    fn no_examined_regions_means_identity() {
        let mut tl = Timeline::new();
        tl.advance(t(42));
        let pm = PseudoMap::new(&tl);
        for x in 0..=42 {
            assert_eq!(pm.pseudo_of(t(x)), d(x));
            assert_eq!(pm.pseudo_delay(t(x)), pm.actual_delay(t(x)));
        }
    }

    #[test]
    fn fully_examined_backlog_is_zero() {
        let mut tl = Timeline::new();
        tl.advance(t(10));
        tl.mark_examined(Interval::from_ticks(0, 10));
        let pm = PseudoMap::new(&tl);
        assert_eq!(pm.backlog(), Dur::ZERO);
        assert_eq!(pm.pseudo_of(t(7)), Dur::ZERO);
    }

    #[test]
    fn pseudo_interval_split() {
        let p = PseudoInterval::new(4, 13);
        let (a, b) = p.split().unwrap();
        assert_eq!(a, PseudoInterval::new(4, 8));
        assert_eq!(b, PseudoInterval::new(8, 13));
        assert!(PseudoInterval::new(3, 4).split().is_none());
    }

    /// The integer halving and the truncating cast equal the floored
    /// float product on every width up to 2^20 and on both sides of 2^53,
    /// where `f64` stops holding every width exactly.
    #[test]
    fn split_cut_is_the_floored_float_product() {
        let huge = 1u64 << 53;
        for frac in [0.5, 0.3] {
            for w in (2..=1u64 << 20).chain(huge - 2..=huge + 2) {
                let floored = ((w as f64 * frac).floor() as u64).clamp(1, w - 1);
                let (older, younger) = PseudoInterval::new(7, 7 + w)
                    .split_at_fraction(frac)
                    .expect("two ticks or wider");
                assert_eq!(older, PseudoInterval::new(7, 7 + floored), "{frac} of {w}");
                assert_eq!(younger, PseudoInterval::new(7 + floored, 7 + w));
            }
        }
    }

    #[test]
    fn preimage_spans_gaps() {
        let pm = PseudoMap::new(&figure3_timeline());
        // pseudo [5, 25) crosses the first examined region:
        // actual [5,10) then [30,45)
        let segs = pm.preimage(PseudoInterval::new(5, 25));
        assert_eq!(
            segs,
            vec![Interval::from_ticks(5, 10), Interval::from_ticks(30, 45)]
        );
        let width: u64 = segs.iter().map(|s| s.width().ticks()).sum();
        assert_eq!(width, 20);
    }

    #[test]
    fn preimage_single_gap() {
        let pm = PseudoMap::new(&figure3_timeline());
        let segs = pm.preimage(PseudoInterval::new(0, 10));
        assert_eq!(segs, vec![Interval::from_ticks(0, 10)]);
    }

    #[test]
    fn preimage_empty_and_beyond_backlog() {
        let pm = PseudoMap::new(&figure3_timeline());
        assert!(pm.preimage(PseudoInterval::new(5, 5)).is_empty());
        // beyond backlog (70): clamped
        let segs = pm.preimage(PseudoInterval::new(60, 100));
        assert_eq!(segs, vec![Interval::from_ticks(90, 100)]);
    }

    #[test]
    fn preimage_roundtrips_pseudo_of() {
        let pm = PseudoMap::new(&figure3_timeline());
        for lo in 0..70u64 {
            for hi in [lo + 1, lo + 7, lo + 33] {
                let hi = hi.min(70);
                if lo >= hi {
                    continue;
                }
                let segs = pm.preimage(PseudoInterval::new(lo, hi));
                let total: u64 = segs.iter().map(|s| s.width().ticks()).sum();
                assert_eq!(total, hi - lo, "width mismatch for [{lo},{hi})");
                // each segment's start maps back to its pseudo coordinate
                let mut cursor = lo;
                for s in &segs {
                    assert_eq!(pm.pseudo_of(s.lo), d(cursor));
                    cursor += s.width().ticks();
                }
            }
        }
    }

    #[test]
    fn examining_young_time_shrinks_pseudo_delay() {
        // A message's pseudo delay can decrease (paper §3.2 remark).
        let mut tl = Timeline::new();
        tl.advance(t(100));
        let before = PseudoMap::new(&tl).pseudo_delay(t(20));
        tl.mark_examined(Interval::from_ticks(50, 90));
        let after = PseudoMap::new(&tl).pseudo_delay(t(20));
        assert!(after < before, "{after:?} !< {before:?}");
        assert_eq!(after, d(40)); // [20,50) + [90,100)
    }
}
