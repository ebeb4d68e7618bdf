//! # tcw-window — the controlled time-window multiple-access protocol
//!
//! This crate is the primary contribution of the reproduced paper:
//! Kurose, Schwartz & Yemini, *"Controlling Window Protocols for
//! Time-Constrained Communication in a Multiple Access Environment"* (1983).
//!
//! ## The protocol (paper §2)
//!
//! All stations monitor a shared broadcast channel and execute the same
//! deterministic procedure, so they stay in lock-step without any central
//! coordinator:
//!
//! 1. pick a *window* of past time (every station picks the same one);
//! 2. stations holding a message that **arrived inside the window**
//!    transmit;
//! 3. after one propagation delay `tau`, everyone knows the outcome:
//!    *idle* (no arrivals in the window), *success* (exactly one), or
//!    *collision* (two or more);
//! 4. a collision is resolved by splitting the window in half and probing
//!    one half — recursively, until a single message is isolated;
//! 5. when a half is found empty while its sibling is known to contain two
//!    or more arrivals, the sibling is split immediately without a probe.
//!
//! ## The control policy (paper §§2–3)
//!
//! Operation is controlled at each *decision point* (whenever a new initial
//! window must be chosen) by four policy elements:
//! **(1)** the window's position, **(2)** its length, **(3)** the
//! splitting rule, and **(4)** discarding messages older than the deadline
//! `K`. Theorem 1 shows the loss-optimal choice of (1) and (3): place the
//! window at the *oldest* time not exceeding `K` in the past, and always
//! probe the *older* half first — global FCFS, i.e. minimum-slack-time
//! scheduling. Element (2) has no closed form; [`analysis`] implements the
//! paper's heuristic (minimize mean scheduling time).
//!
//! ## Crate layout
//!
//! * [`interval`] / [`timeline`] — half-open tick intervals and the
//!   station's view of the time axis (paper fig. 2): which past intervals
//!   may still hold untransmitted arrivals;
//! * [`pseudo`] — the pseudo-time compression of §3.1 (paper fig. 3);
//! * [`policy`] — the four-element control policy with `controlled`,
//!   `fcfs`, `lcfs` and `random` presets;
//! * [`engine`] — the protocol state machine driving arrivals from
//!   `tcw-mac` over the shared channel;
//! * [`metrics`] — per-message loss/delay accounting (sender discards vs.
//!   receiver losses);
//! * [`analysis`] — exact splitting-process analysis under Poisson traffic:
//!   scheduling-time distribution and the optimal window length;
//! * [`trace`] — observer hooks and a human-readable trace recorder
//!   (regenerates the paper's figs. 1 and 4);
//! * [`mirror`] — a *distributed consistency checker*: an independent
//!   station model that sees only channel outcomes and must reproduce every
//!   window decision, proving the protocol needs no central state;
//! * [`controller`] — online control of element (2): static oracle, AIMD
//!   feedback control, and a rate estimator re-solving §4.1's recurrence
//!   at runtime, for loads the offline tuning never anticipated;
//! * [`invariant`] — a runtime invariant monitor: an observer checking
//!   message conservation, FCFS order, deadline/age bounds, clock
//!   consistency and mirror consensus on every reported event, powering
//!   the `chaos` stress harness. It costs nothing unless attached.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod controller;
pub mod engine;
pub mod interval;
pub mod invariant;
pub mod metrics;
pub mod mirror;
pub mod multiclass;
pub mod policy;
pub mod pseudo;
pub mod timeline;
pub mod trace;

pub use controller::{
    AimdConfig, AimdController, ControllerConfig, EstimatorConfig, EstimatorController,
    SlotContext, StaticController, WindowController,
};
pub use engine::{Engine, EngineConfig, ResyncPolicy};
pub use interval::Interval;
pub use invariant::{InvariantClass, InvariantMonitor, MonitorConfig, Violation};
pub use metrics::Metrics;
pub use mirror::{DivergenceDetector, StationMirror};
pub use policy::{ControlPolicy, SplitRule, WindowLength, WindowPosition};
pub use timeline::Timeline;
