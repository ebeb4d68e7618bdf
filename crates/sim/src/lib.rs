//! # tcw-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the bottom-most substrate of the `tcw` workspace, which
//! reproduces Kurose, Schwartz & Yemini, *"Controlling Window Protocols for
//! Time-Constrained Communication in a Multiple Access Environment"* (5th
//! Data Communications Symposium, 1983).
//!
//! It provides everything a reproducible protocol simulation needs and
//! nothing more:
//!
//! * [`time`] — an integer-tick simulation clock ([`time::Time`], [`time::Dur`]) with a
//!   configurable resolution relative to the channel propagation delay `tau`;
//! * [`events`] — a stable (FIFO-at-equal-time) event queue;
//! * [`rng`] — an in-house, cross-platform deterministic PRNG
//!   (SplitMix64-seeded xoshiro256++) with independent named streams;
//! * [`variates`] — random-variate generators (uniform, exponential,
//!   geometric, Poisson, Erlang, hyperexponential, empirical);
//! * [`stats`] — online statistics: Welford tallies, time-weighted averages,
//!   histograms with quantiles, ratio/loss counters, batch-means confidence
//!   intervals;
//! * [`snap`] — the flat word-stream codec engine checkpoints are encoded
//!   with ([`snap::SnapWriter`], [`snap::SnapReader`], FNV checksum);
//! * [`record`] — the flat text-record codec every workspace file is
//!   written and read with: JSON string escaping, a strict flat-object
//!   parser, the version/family envelope check, hex word payloads and an
//!   atomic file write.
//!
//! Determinism is a design requirement (the paper's Figure 7 simulation
//! points must be regenerable bit-for-bit), which is why the RNG is
//! implemented here rather than pulled from an external crate whose stream
//! definitions may change across major versions.
//!
//! ## Quick example
//!
//! ```
//! use tcw_sim::prelude::*;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::ZERO + Dur::from_ticks(5), "b");
//! q.schedule(Time::ZERO + Dur::from_ticks(2), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.ticks(), e), (2, "a"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod record;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;
pub mod variates;

/// Convenient glob-import of the most commonly used kernel types.
pub mod prelude {
    pub use crate::events::EventQueue;
    pub use crate::rng::Rng;
    pub use crate::stats::{BatchMeans, Histogram, RatioCounter, Tally, TimeWeighted};
    pub use crate::time::{Dur, Time};
    pub use crate::variates::{Exponential, Geometric, Poisson, Uniform};
}
