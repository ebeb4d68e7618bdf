//! Online statistics for simulation output analysis.
//!
//! All collectors are *online* (no stored sample) and cheap enough to be
//! sampled inside the inner simulation loop. None allocates on the
//! observation path except [`TickHistogram`], and it only when a value
//! passes the capacity reserved at construction:
//!
//! * [`Tally`] — Welford mean/variance/min/max of plain observations;
//! * [`TimeWeighted`] — time-averaged piecewise-constant signals (queue
//!   lengths, busy indicators);
//! * [`Histogram`] — fixed-width bins with overflow, quantile estimates;
//! * [`RatioCounter`] — counted events over a denominator (loss ratios);
//! * [`BatchMeans`] — batch-means confidence intervals for steady-state
//!   simulation estimates;
//! * [`TickHistogram`] — one count per tick, exact nearest-rank
//!   percentiles of whole-tick observations (tail-delay percentiles).
//!
//! [`MetricSink`] is the push-style enumeration interface metric
//! *producers* use to expose these collectors to an observability
//! registry without depending on one.

mod batch;
mod counter;
mod histogram;
mod quantile;
mod sink;
mod tally;
mod timeweighted;

pub use batch::BatchMeans;
pub use counter::RatioCounter;
pub use histogram::Histogram;
pub use quantile::TickHistogram;
pub use sink::MetricSink;
pub use tally::Tally;
pub use timeweighted::TimeWeighted;
