//! The station's view of the time axis (paper figure 2).
//!
//! Every station tracks which intervals of past time are *examined* — known
//! to contain either no message arrivals or only arrivals that were already
//! transmitted (the shaded regions of figure 2). The complement within
//! `[horizon, now)` is the *unexamined* region, which may still contain
//! untransmitted messages; initial windows are always drawn from it.
//!
//! The representation stores the examined set as a sorted, coalesced list
//! of disjoint [`Interval`]s. Under the optimal (Theorem 1) policy the
//! unexamined region is always a single interval `[t_past, now)` — a
//! property the integration tests assert — but LCFS/RANDOM policies leave
//! genuine gaps, so the general structure is required.

use crate::interval::Interval;
use tcw_sim::time::{Dur, Time};

/// Examined/unexamined bookkeeping over `[0, now)`.
#[derive(Clone, Debug)]
pub struct Timeline {
    now: Time,
    /// Sorted, disjoint, coalesced examined intervals, all within
    /// `[0, now)`.
    examined: Vec<Interval>,
    /// Reused by [`Timeline::reopen`] so the fault-recovery path does not
    /// allocate a fresh interval list on every reopened message.
    scratch: Vec<Interval>,
}

impl Timeline {
    /// A timeline starting at the origin with nothing examined.
    pub fn new() -> Self {
        Timeline {
            now: Time::ZERO,
            examined: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the clock; newly elapsed time is unexamined.
    ///
    /// # Panics
    /// Debug-panics if `to` precedes the current time.
    pub fn advance(&mut self, to: Time) {
        debug_assert!(to >= self.now, "timeline moved backwards");
        self.now = to;
    }

    /// Marks `iv` as examined (coalescing with neighbours).
    ///
    /// # Panics
    /// Panics if `iv` extends beyond `now`.
    pub fn mark_examined(&mut self, iv: Interval) {
        assert!(iv.hi <= self.now, "cannot examine the future: {iv:?}");
        if iv.is_empty() {
            return;
        }
        // The FCFS steady state: `iv` touches or overlaps the lone
        // examined prefix, which absorbs it in place.
        if let [e] = self.examined.as_mut_slice() {
            if e.lo == Time::ZERO && iv.lo <= e.hi {
                e.hi = e.hi.max(iv.hi);
                return;
            }
        }
        // Find insertion range: all stored intervals overlapping or adjacent
        // to iv get merged into one.
        let start = self.examined.partition_point(|e| e.hi < iv.lo);
        let mut end = start;
        let mut lo = iv.lo;
        let mut hi = iv.hi;
        while end < self.examined.len() && self.examined[end].lo <= iv.hi {
            lo = lo.min(self.examined[end].lo);
            hi = hi.max(self.examined[end].hi);
            end += 1;
        }
        // Merged in place: the first absorbed interval takes the union and
        // the rest are drained.
        let merged = Interval::new(lo, hi);
        if start == end {
            self.examined.insert(start, merged);
        } else {
            self.examined[start] = merged;
            self.examined.drain(start + 1..end);
        }
    }

    /// Marks everything before `t` examined — policy element (4): messages
    /// older than the deadline are discarded by treating their arrival
    /// intervals as if they were known to contain no untransmitted
    /// arrivals (paper §3.1). Returns at once when the examined prefix
    /// `[0, e)` already reaches `t`, as it does at most decision points.
    pub fn discard_before(&mut self, t: Time) {
        let t = t.min(self.now);
        let covered = self
            .examined
            .first()
            .is_some_and(|e| e.lo == Time::ZERO && e.hi >= t);
        if t > Time::ZERO && !covered {
            self.mark_examined(Interval::new(Time::ZERO, t));
        }
    }

    /// Removes `iv` from the examined set, returning that stretch of past
    /// time to the unexamined pool (splitting stored fragments as needed).
    ///
    /// This is the resynchronization primitive for fault recovery: when a
    /// feedback fault stranded untransmitted arrivals inside examined time
    /// (e.g. a collision misread as a success), the protocol reopens their
    /// arrival intervals so the windowing process can reach them again.
    ///
    /// # Panics
    /// Debug-panics if `iv` extends beyond `now`.
    pub fn reopen(&mut self, iv: Interval) {
        debug_assert!(iv.hi <= self.now, "cannot reopen the future: {iv:?}");
        if iv.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        for e in &self.examined {
            if e.hi <= iv.lo || e.lo >= iv.hi {
                out.push(*e);
                continue;
            }
            if e.lo < iv.lo {
                out.push(Interval::new(e.lo, iv.lo));
            }
            if e.hi > iv.hi {
                out.push(Interval::new(iv.hi, e.hi));
            }
        }
        // The old examined list becomes the next call's scratch.
        std::mem::swap(&mut self.examined, &mut out);
        self.scratch = out;
    }

    /// Whether instant `t` is inside an examined interval.
    pub fn is_examined(&self, t: Time) -> bool {
        let idx = self.examined.partition_point(|e| e.hi <= t);
        self.examined.get(idx).is_some_and(|e| e.contains(t))
    }

    /// The unexamined gaps within `[0, now)`, oldest first.
    pub fn unexamined(&self) -> Vec<Interval> {
        let mut gaps = Vec::new();
        self.unexamined_into(&mut gaps);
        gaps
    }

    /// As [`Timeline::unexamined`], writing into `out` (cleared first) so
    /// per-round callers can reuse one buffer instead of allocating.
    pub fn unexamined_into(&self, out: &mut Vec<Interval>) {
        out.clear();
        let mut cursor = Time::ZERO;
        for e in &self.examined {
            if e.lo > cursor {
                out.push(Interval::new(cursor, e.lo));
            }
            cursor = cursor.max(e.hi);
        }
        if cursor < self.now {
            out.push(Interval::new(cursor, self.now));
        }
    }

    /// The oldest unexamined instant (`t_past` of the controlled protocol),
    /// or `None` when everything up to `now` is examined.
    pub fn t_past(&self) -> Option<Time> {
        match self.examined.first() {
            Some(first) if first.lo == Time::ZERO => {
                if first.hi < self.now {
                    Some(first.hi)
                } else {
                    None
                }
            }
            _ => {
                if self.now > Time::ZERO {
                    Some(Time::ZERO)
                } else {
                    None
                }
            }
        }
    }

    /// The oldest unexamined gap, or `None` if fully examined.
    pub fn oldest_gap(&self) -> Option<Interval> {
        let mut cursor = Time::ZERO;
        for e in &self.examined {
            if e.lo > cursor {
                return Some(Interval::new(cursor, e.lo));
            }
            cursor = cursor.max(e.hi);
        }
        (cursor < self.now).then(|| Interval::new(cursor, self.now))
    }

    /// The newest unexamined gap, or `None` if fully examined.
    pub fn newest_gap(&self) -> Option<Interval> {
        // The examined list is sorted, disjoint and coalesced, so scanning
        // backwards finds the youngest gap without materializing the list.
        let mut cursor = self.now;
        for e in self.examined.iter().rev() {
            if e.hi < cursor {
                return Some(Interval::new(e.hi, cursor));
            }
            cursor = cursor.min(e.lo);
        }
        (cursor > Time::ZERO).then(|| Interval::new(Time::ZERO, cursor))
    }

    /// Total unexamined time.
    pub fn unexamined_total(&self) -> Dur {
        // Everything examined lies within `[0, now)`, so the unexamined
        // total is the complement of the examined total.
        let examined = self
            .examined
            .iter()
            .fold(Dur::ZERO, |acc, e| acc + e.width());
        Dur::from_ticks(self.now.ticks() - examined.ticks())
    }

    /// Whether the unexamined region is a single contiguous interval
    /// `[t_past, now)` (or empty) — the structural consequence of
    /// Theorem 1 / Lemma 2: under the optimal policy actual time equals
    /// pseudo time, so no interior gaps ever form.
    pub fn is_contiguous(&self) -> bool {
        let mut gaps = 0usize;
        let mut cursor = Time::ZERO;
        for e in &self.examined {
            if e.lo > cursor {
                gaps += 1;
            }
            cursor = cursor.max(e.hi);
        }
        if cursor < self.now {
            gaps += 1;
        }
        gaps <= 1
    }

    /// Number of stored examined intervals (memory/diagnostics).
    pub fn examined_fragments(&self) -> usize {
        self.examined.len()
    }

    /// The single trailing unexamined gap `[e, now)` when the examined set
    /// is exactly the prefix `[0, e)` (or empty), `None` otherwise. This
    /// is the steady-state shape under the FCFS/Theorem-1 discipline and
    /// the precondition for the engine's event-horizon fast path: a
    /// nonempty answer proves the whole unexamined region is one interval
    /// ending at `now`.
    pub fn trailing_gap(&self) -> Option<Interval> {
        match self.examined.as_slice() {
            [] => (self.now > Time::ZERO).then(|| Interval::new(Time::ZERO, self.now)),
            [e] if e.lo == Time::ZERO && e.hi < self.now => Some(Interval::new(e.hi, self.now)),
            _ => None,
        }
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// Serializes the timeline (clock + examined set) for an engine
    /// checkpoint. The reopen scratch buffer is transient and not captured.
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push(self.now.ticks());
        w.push_usize(self.examined.len());
        for iv in &self.examined {
            w.push(iv.lo.ticks());
            w.push(iv.hi.ticks());
        }
    }

    /// Rebuilds a timeline from checkpoint state written by
    /// [`Timeline::save_state`], re-validating the sorted/disjoint/past
    /// invariants so corrupt snapshots are rejected instead of poisoning
    /// later window choices.
    pub fn load_state(
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<Self, tcw_sim::snap::SnapError> {
        use tcw_sim::snap::SnapError;
        let now = Time::from_ticks(r.take()?);
        let n = r.take_len()?;
        let mut examined = Vec::with_capacity(n);
        let mut prev_hi = None::<Time>;
        for _ in 0..n {
            let lo = Time::from_ticks(r.take()?);
            let hi = Time::from_ticks(r.take()?);
            if lo >= hi || hi > now {
                return Err(SnapError::new("examined interval out of range"));
            }
            if let Some(p) = prev_hi {
                if lo <= p {
                    return Err(SnapError::new("examined intervals not sorted/disjoint"));
                }
            }
            prev_hi = Some(hi);
            examined.push(Interval::new(lo, hi));
        }
        Ok(Timeline {
            now,
            examined,
            scratch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    #[test]
    fn fresh_timeline_is_one_gap() {
        let mut tl = Timeline::new();
        assert_eq!(tl.unexamined(), vec![]);
        assert_eq!(tl.t_past(), None);
        tl.advance(t(100));
        assert_eq!(tl.unexamined(), vec![Interval::from_ticks(0, 100)]);
        assert_eq!(tl.t_past(), Some(t(0)));
        assert!(tl.is_contiguous());
    }

    #[test]
    fn marking_prefix_moves_t_past() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(0, 30));
        assert_eq!(tl.t_past(), Some(t(30)));
        assert_eq!(tl.unexamined(), vec![Interval::from_ticks(30, 100)]);
        assert!(tl.is_contiguous());
    }

    #[test]
    fn interior_mark_creates_gaps() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(40, 60));
        let gaps = tl.unexamined();
        assert_eq!(
            gaps,
            vec![Interval::from_ticks(0, 40), Interval::from_ticks(60, 100)]
        );
        assert!(!tl.is_contiguous());
        assert_eq!(tl.t_past(), Some(t(0)));
        assert_eq!(tl.oldest_gap(), Some(Interval::from_ticks(0, 40)));
        assert_eq!(tl.newest_gap(), Some(Interval::from_ticks(60, 100)));
        assert_eq!(tl.unexamined_total(), Dur::from_ticks(80));
    }

    #[test]
    fn adjacent_marks_coalesce() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(10, 20));
        tl.mark_examined(Interval::from_ticks(20, 30));
        tl.mark_examined(Interval::from_ticks(0, 10));
        assert_eq!(tl.examined_fragments(), 1);
        assert_eq!(tl.t_past(), Some(t(30)));
    }

    #[test]
    fn overlapping_marks_merge() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(10, 40));
        tl.mark_examined(Interval::from_ticks(30, 60));
        tl.mark_examined(Interval::from_ticks(5, 15));
        assert_eq!(tl.examined_fragments(), 1);
        assert_eq!(
            tl.unexamined(),
            vec![Interval::from_ticks(0, 5), Interval::from_ticks(60, 100)]
        );
    }

    #[test]
    fn mark_bridging_multiple_fragments() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(10, 20));
        tl.mark_examined(Interval::from_ticks(40, 50));
        tl.mark_examined(Interval::from_ticks(70, 80));
        assert_eq!(tl.examined_fragments(), 3);
        tl.mark_examined(Interval::from_ticks(15, 75));
        assert_eq!(tl.examined_fragments(), 1);
        assert_eq!(
            tl.unexamined(),
            vec![Interval::from_ticks(0, 10), Interval::from_ticks(80, 100)]
        );
    }

    #[test]
    fn discard_before_clamps_to_now() {
        let mut tl = Timeline::new();
        tl.advance(t(50));
        tl.discard_before(t(80));
        assert_eq!(tl.t_past(), None);
        assert_eq!(tl.unexamined(), vec![]);
        tl.advance(t(60));
        assert_eq!(tl.unexamined(), vec![Interval::from_ticks(50, 60)]);
    }

    #[test]
    fn discard_before_zero_is_noop() {
        let mut tl = Timeline::new();
        tl.advance(t(10));
        tl.discard_before(t(0));
        assert_eq!(tl.unexamined(), vec![Interval::from_ticks(0, 10)]);
    }

    #[test]
    fn reopen_splits_and_removes_fragments() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(10, 60));
        tl.reopen(Interval::from_ticks(20, 30));
        assert_eq!(
            tl.unexamined(),
            vec![
                Interval::from_ticks(0, 10),
                Interval::from_ticks(20, 30),
                Interval::from_ticks(60, 100)
            ]
        );
        assert_eq!(tl.examined_fragments(), 2);
        // Reopening across several fragments removes them all.
        tl.reopen(Interval::from_ticks(0, 100));
        assert_eq!(tl.unexamined(), vec![Interval::from_ticks(0, 100)]);
        assert_eq!(tl.examined_fragments(), 0);
    }

    #[test]
    fn reopen_then_mark_roundtrips() {
        let mut tl = Timeline::new();
        tl.advance(t(50));
        tl.mark_examined(Interval::from_ticks(0, 50));
        tl.reopen(Interval::from_ticks(12, 13));
        assert_eq!(tl.t_past(), Some(t(12)));
        tl.mark_examined(Interval::from_ticks(12, 13));
        assert_eq!(tl.t_past(), None);
        assert_eq!(tl.examined_fragments(), 1);
    }

    #[test]
    fn is_examined_queries() {
        let mut tl = Timeline::new();
        tl.advance(t(100));
        tl.mark_examined(Interval::from_ticks(20, 30));
        assert!(!tl.is_examined(t(19)));
        assert!(tl.is_examined(t(20)));
        assert!(tl.is_examined(t(29)));
        assert!(!tl.is_examined(t(30)));
    }

    #[test]
    #[should_panic]
    fn examining_future_panics() {
        let mut tl = Timeline::new();
        tl.advance(t(10));
        tl.mark_examined(Interval::from_ticks(5, 15));
    }

    #[test]
    fn t_past_fully_examined_is_none() {
        let mut tl = Timeline::new();
        tl.advance(t(10));
        tl.mark_examined(Interval::from_ticks(0, 10));
        assert_eq!(tl.t_past(), None);
        assert_eq!(tl.oldest_gap(), None);
        assert_eq!(tl.newest_gap(), None);
    }

    /// Random sequences of `advance`, `mark_examined`, `reopen` and
    /// `discard_before` against a naive model holding one examined flag
    /// per tick. After every step the queries must match the model and
    /// the stored fragments must be coalesced: one per maximal examined
    /// run.
    #[test]
    fn random_operations_match_a_per_tick_model() {
        use tcw_sim::rng::Rng;
        let mut rng = Rng::new(0x7133_0001);
        let mut gaps = Vec::new();
        for sequence in 0..200 {
            let mut tl = Timeline::new();
            let mut flags: Vec<bool> = Vec::new();
            for step in 0..150 {
                let now = flags.len() as u64;
                // A random interval inside [0, now), possibly empty.
                let span = |rng: &mut Rng| {
                    let (a, b) = (rng.below(now + 1), rng.below(now + 1));
                    (a.min(b), a.max(b))
                };
                match rng.below(8) {
                    0 | 1 => {
                        let to = now + rng.below(9);
                        tl.advance(t(to));
                        flags.resize(to as usize, false);
                    }
                    2 | 3 => {
                        // Half of the marks start where the examined
                        // prefix ends or just inside it — touching,
                        // overlapping, extending or inside it — the
                        // engine's common case.
                        let (lo, hi) = if rng.below(2) == 0 {
                            let e = flags.iter().position(|&f| !f).unwrap_or(flags.len()) as u64;
                            let lo = e.saturating_sub(rng.below(3));
                            (lo, lo + rng.below(now - lo + 1))
                        } else {
                            span(&mut rng)
                        };
                        tl.mark_examined(Interval::from_ticks(lo, hi));
                        flags[lo as usize..hi as usize].fill(true);
                    }
                    4 | 5 => {
                        let (lo, hi) = span(&mut rng);
                        tl.reopen(Interval::from_ticks(lo, hi));
                        flags[lo as usize..hi as usize].fill(false);
                    }
                    _ => {
                        let cut = rng.below(now + 4);
                        tl.discard_before(t(cut));
                        let cut = cut.min(now) as usize;
                        flags[..cut].fill(true);
                    }
                }
                let label = format!("sequence {sequence} step {step}");
                let now = flags.len() as u64;
                assert_eq!(tl.now(), t(now), "{label}");
                for x in 0..now + 2 {
                    let expect = flags.get(x as usize).copied().unwrap_or(false);
                    assert_eq!(tl.is_examined(t(x)), expect, "{label}: tick {x}");
                }
                // Maximal runs of examined and of unexamined ticks.
                let mut runs: Vec<(bool, Interval)> = Vec::new();
                for (x, &f) in flags.iter().enumerate() {
                    let x = x as u64;
                    match runs.last_mut() {
                        Some((g, iv)) if *g == f => {
                            *iv = Interval::from_ticks(iv.lo.ticks(), x + 1)
                        }
                        _ => runs.push((f, Interval::from_ticks(x, x + 1))),
                    }
                }
                let model_gaps: Vec<Interval> = runs.iter().filter(|r| !r.0).map(|r| r.1).collect();
                tl.unexamined_into(&mut gaps);
                assert_eq!(gaps, model_gaps, "{label}");
                assert_eq!(
                    tl.examined_fragments(),
                    runs.len() - model_gaps.len(),
                    "{label}: fragments not coalesced"
                );
                assert_eq!(tl.t_past(), model_gaps.first().map(|g| g.lo), "{label}");
                let trailing = match model_gaps.as_slice() {
                    [g] if g.hi == t(now) => Some(*g),
                    _ => None,
                };
                assert_eq!(tl.trailing_gap(), trailing, "{label}");
            }
        }
    }
}
