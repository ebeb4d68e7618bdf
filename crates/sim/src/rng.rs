//! Deterministic pseudo-random number generation.
//!
//! The generator is **xoshiro256++** seeded through **SplitMix64**, a
//! well-studied combination with a 2^256 − 1 period and excellent statistical
//! quality for simulation work. It is implemented here (≈60 lines) rather
//! than imported so that
//!
//! 1. random streams are identical on every platform and toolchain, forever
//!    (an external crate may legitimately change its stream in a major
//!    version bump, silently invalidating recorded experiment outputs), and
//! 2. the simulation core stays dependency-free.
//!
//! Independent substreams for different model components (arrivals per
//! station, service times, ...) are derived with [`Rng::fork`], which hashes
//! a label into a fresh seed; forked streams are statistically independent
//! and insensitive to the order in which other components draw numbers.

/// The `index`-th output of the SplitMix64 sequence seeded at `base`.
///
/// This is the master-seed stream for replicated experiments: replication
/// `r` of a run rooted at `base_seed` uses `stream_seed(base_seed, r)` as
/// its engine master seed, and the engine then forks its per-component
/// substreams ("policy", "coins", "source", "faults", "churn", per-station
/// arrivals) from that master seed. SplitMix64's state advance
/// (`+= GAMMA`) and output finalizer are both bijections on `u64`, so for
/// a fixed `base` all indices map to distinct seeds and for a fixed
/// `index` all bases map to distinct seeds — unlike an XOR-of-offsets
/// scheme, no (base, index) pair can collide with (base', index') unless
/// the underlying states already coincide.
///
/// The jump to position `index` is O(1): the SplitMix64 state after `n`
/// steps is `base + n·GAMMA`, so one more step from there yields output
/// `n`.
#[inline]
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut state = base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// SplitMix64 step: advances the state and returns the next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including 0) is valid; the state is expanded through
    /// SplitMix64, which never produces the all-zero xoshiro state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the raw xoshiro256++ state, for engine checkpoints.
    ///
    /// Paired with [`Rng::from_state`]; the captured generator resumes its
    /// stream exactly where this one stands.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`Rng::state`].
    ///
    /// Only states that came from `state()` are meaningful; in particular
    /// the all-zero state (which `new` can never produce) yields a stuck
    /// generator, so snapshot decoders guard it behind a checksum.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }

    /// Derives an independent substream for component `label`.
    ///
    /// The label is mixed with fresh output of this generator, so two forks
    /// with the same label taken at different points differ, while a fixed
    /// fork sequence from a fixed seed is fully reproducible.
    pub fn fork(&mut self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng::new(h ^ self.next_u64())
    }

    /// Derives an independent substream for the `index`-th instance of
    /// component `label` (e.g. one stream per station).
    ///
    /// Equivalent to [`Rng::fork`] with a label that also encodes `index`,
    /// so streams for different indices are statistically independent.
    pub fn fork_indexed(&mut self, label: &str, index: u64) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(h ^ self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` (never exactly zero; safe for `ln`).
    #[inline]
    pub fn f64_open_left(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is undefined");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// The integer threshold of [`Rng::chance`]: `chance(p)` succeeds
    /// exactly when the 53 high bits of its draw are below
    /// `ceil(p * 2^53)`, because `f64()` is exactly `(x >> 11) * 2^-53`
    /// and scaling by a power of two is exact. The cast saturates, so
    /// negative and NaN probabilities give 0 (never) and anything at or
    /// above 1 gives at least `2^53` (always).
    pub fn chance_threshold(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// [`Rng::chance`] against a precomputed
    /// [`chance_threshold`](Rng::chance_threshold): the same single draw
    /// and the same outcome, without the float conversion.
    #[inline]
    pub fn chance_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(12345);
        let mut b = Rng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let mut root1 = Rng::new(7);
        let mut root2 = Rng::new(7);
        let mut f1 = root1.fork("arrivals");
        let mut f2 = root2.fork("arrivals");
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut root = Rng::new(7);
        let mut a = root.fork("arrivals");
        let mut s = root.fork("service");
        assert_ne!(a.next_u64(), s.next_u64());
    }

    #[test]
    fn fork_indexed_is_reproducible_and_distinct() {
        let mut root1 = Rng::new(42);
        let mut root2 = Rng::new(42);
        let mut a = root1.fork_indexed("deaf", 3);
        let mut b = root2.fork_indexed("deaf", 3);
        assert_eq!(a.next_u64(), b.next_u64());

        let mut root = Rng::new(42);
        let mut x = root.fork_indexed("deaf", 0);
        let mut root = Rng::new(42);
        let mut y = root.fork_indexed("deaf", 1);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(99);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open_left();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(4242);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let x = r.below(7) as usize;
            counts[x] += 1;
        }
        for &c in &counts {
            // expectation 10_000 per bucket; allow generous slack
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = Rng::new(6);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range_inclusive(3, 5);
            assert!((3..=5).contains(&x), "out of range: {x}");
            saw_lo |= x == 3;
            saw_hi |= x == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn stream_seed_matches_splitmix_sequence() {
        // Position n of the jump formula equals n sequential steps.
        let base = 0xDEAD_BEEF_u64;
        let mut state = base;
        for i in 0..16 {
            assert_eq!(stream_seed(base, i), splitmix64(&mut state));
        }
    }

    #[test]
    fn stream_seed_is_collision_free_on_a_dense_grid() {
        // The old `base ^ (0x9E37 + r)` derivation collided whenever two
        // (base, r) pairs XORed to the same value; the SplitMix64 stream
        // cannot, because state advance and finalizer are bijections.
        let mut seen = std::collections::HashSet::new();
        for base in 0..64u64 {
            for idx in 0..64u64 {
                assert!(
                    seen.insert(stream_seed(base, idx)),
                    "collision at base={base} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_threshold_equals_chance() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let top = (1u64 << 53) - 1;
        for p in [0.0, scale, 1e-300, 2e-4, 0.5, 1.0 - scale, 1.0] {
            let t = Rng::chance_threshold(p);
            // The predicate on the draw's 53 high bits, at the edges of
            // the threshold and of the draw's range.
            for k in [0, 1, t.saturating_sub(1), t, t + 1, top] {
                let k = k.min(top);
                assert_eq!(k < t, (k as f64) * scale < p, "p={p:e} k={k}");
            }
            let mut a = Rng::new(p.to_bits());
            let mut b = a.clone();
            for _ in 0..1_000 {
                assert_eq!(a.chance(p), b.chance_below(t), "p={p:e}");
            }
            assert_eq!(a.state(), b.state());
        }
    }
}
