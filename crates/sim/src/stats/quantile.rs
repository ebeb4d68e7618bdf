//! Exact quantiles of whole-tick observations from one count per tick.

use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Counts of non-negative integer observations (ticks), one bin per
/// value, read out as exact nearest-rank percentiles.
///
/// Recording costs one increment. The bins cover `0..=max`, the largest
/// value seen so far: capacity reserved at construction is zero-filled
/// only as far as `max` reaches, and the vector reallocates, at least
/// doubling, only when a value passes the reservation. Memory is eight
/// bytes per tick of the largest value.
#[derive(Clone, Debug)]
pub struct TickHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl TickHistogram {
    /// An empty histogram with room for the values `0..reserve` reserved
    /// but not filled.
    pub fn with_capacity(reserve: usize) -> Self {
        TickHistogram {
            counts: Vec::with_capacity(reserve),
            total: 0,
        }
    }

    /// Records one observation of `ticks`.
    #[inline]
    pub fn record(&mut self, ticks: u64) {
        match self.counts.get_mut(ticks as usize) {
            Some(c) => *c += 1,
            None => self.extend_to(ticks as usize),
        }
        self.total += 1;
    }

    /// Zero-fills the bins below a new maximum `v` and counts `v`.
    #[cold]
    #[inline(never)]
    fn extend_to(&mut self, v: usize) {
        self.counts.resize(v, 0);
        self.counts.push(1);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-th percentile (`p <= 100`): the smallest
    /// recorded value with at least `ceil(p·n/100)` observations at or
    /// below it (at least one). `None` while empty.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        self.percentiles([p]).map(|[v]| v)
    }

    /// Several nearest-rank percentiles (ascending, each at most 100),
    /// read in one pass over the bins.
    ///
    /// # Panics
    /// Panics if the percentiles are not ascending or one exceeds 100.
    pub fn percentiles<const N: usize>(&self, ps: [u32; N]) -> Option<[u64; N]> {
        if self.total == 0 {
            return None;
        }
        let mut out = [0; N];
        let mut bins = self.counts.iter().enumerate();
        let (mut below, mut value, mut last_p) = (0u64, 0usize, 0u32);
        for (slot, p) in out.iter_mut().zip(ps) {
            assert!(
                p <= 100 && p >= last_p,
                "percentiles must ascend within 0..=100"
            );
            last_p = p;
            let rank = (u128::from(p) * u128::from(self.total))
                .div_ceil(100)
                .max(1) as u64;
            while below < rank {
                let (v, &c) = bins.next().expect("rank at most the count");
                below += c;
                value = v;
            }
            *slot = value as u64;
        }
        Some(out)
    }

    /// Serializes the bins in use, not the reservation.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.push_usize(self.counts.len());
        for &c in &self.counts {
            w.push(c);
        }
    }

    /// Rebuilds a histogram from state written by
    /// [`TickHistogram::save_state`], reserving room for `reserve` values
    /// as [`TickHistogram::with_capacity`] does.
    pub fn load_state(reserve: usize, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut h = TickHistogram::with_capacity(reserve.max(n));
        for _ in 0..n {
            let c = r.take()?;
            h.counts.push(c);
            h.total = h
                .total
                .checked_add(c)
                .ok_or_else(|| SnapError::new("tick histogram count overflows u64"))?;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Each of `0..n` once, in a scrambled order.
    fn each_once(n: u64) -> TickHistogram {
        let mut h = TickHistogram::with_capacity(n as usize);
        for i in 0..n {
            h.record(i * 7919 % n);
        }
        h
    }

    #[test]
    fn uniform_median() {
        assert_eq!(each_once(1000).percentile(50), Some(499));
    }

    #[test]
    fn uniform_p95_and_p99() {
        assert_eq!(each_once(1000).percentiles([95, 99]), Some([949, 989]));
    }

    #[test]
    fn exponential_tail_quantile() {
        // p90 of Exp(1) is ln(10) ≈ 2.3026; at 1000 ticks per unit the
        // values pass the 1000-tick reservation, so the bins regrow.
        let mut h = TickHistogram::with_capacity(1000);
        let mut rng = Rng::new(3);
        for _ in 0..300_000 {
            h.record((-rng.f64_open_left().ln() * 1000.0) as u64);
        }
        let x = h.percentile(90).unwrap() as f64 / 1000.0;
        assert!((x - 10f64.ln()).abs() < 0.02, "p90 = {x}");
        assert!(h.percentile(100) > Some(1000));
    }

    #[test]
    fn small_samples_are_exact() {
        let mut h = TickHistogram::with_capacity(4);
        assert_eq!(h.percentiles([95, 99]), None);
        h.record(3);
        assert_eq!(h.percentile(50), Some(3));
        h.record(1);
        h.record(2);
        assert_eq!(h.percentile(50), Some(2));
        assert_eq!(h.count(), 3);
        // Sorted 1 2 3 5 9: rank ceil(p*5/100) is 1 up to p20, 2 from p21.
        h.record(9);
        h.record(5);
        let read = h.percentiles([0, 20, 21, 60, 80, 81, 100]);
        assert_eq!(read, Some([1, 1, 2, 3, 5, 9, 9]));
    }

    #[test]
    fn constant_stream() {
        let mut h = TickHistogram::with_capacity(4);
        for _ in 0..1000 {
            h.record(7);
        }
        for p in 0..=100 {
            assert_eq!(h.percentile(p), Some(7));
        }
    }

    #[test]
    fn sorted_and_reverse_sorted_streams_agree() {
        let n = 50_000;
        let mut fwd = TickHistogram::with_capacity(1000);
        let mut rev = TickHistogram::with_capacity(1000);
        for i in 0..n {
            fwd.record(i);
            rev.record(n - 1 - i);
        }
        for p in 0..=100 {
            assert_eq!(fwd.percentile(p), rev.percentile(p), "p{p}");
        }
        assert_eq!(fwd.percentile(90), Some(44_999));
    }

    #[test]
    #[should_panic]
    fn invalid_quantile_panics() {
        let mut h = TickHistogram::with_capacity(0);
        h.record(1);
        let _ = h.percentile(101);
    }
}
