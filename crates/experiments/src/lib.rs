//! # tcw-experiments — the reproduction harness
//!
//! Shared machinery for the binaries that regenerate every figure of the
//! paper:
//!
//! * `fig7` — the six Figure-7 panels (`rho' ∈ {0.25, 0.50, 0.75} ×
//!   M ∈ {25, 100}`): analytic controlled curve, simulated controlled /
//!   FCFS / LCFS points, analytic FCFS check; CSV + ASCII plots;
//! * `limits` — the eq. 4.7 boundary checks reported in §4.1;
//! * `mdp_verify` — the Theorem-1 / semi-Markov decision model
//!   verification of §3 and Appendix A;
//! * `ablate` — design-choice ablations (discard on/off, split rule,
//!   window length, scheduling-time shape, guard slot);
//! * `trace_window` — the figure 1 / figure 4 operation walk-through;
//! * `robustness` — fault-injection sweeps (imperfect channel feedback)
//!   against the fault-free baseline, plus the deterministic
//!   failure-replay harness (`--replay <artifact>`);
//! * `adaptive` — adaptive window control under non-stationary and
//!   adversarial load: stale static tuning vs per-segment oracle vs the
//!   AIMD and rate-estimating controllers, with per-cell regret and the
//!   `--episode` load-step walk-through;
//! * `chaos` — composed stress sweeps (faults × churn × load ×
//!   controllers) run under the `tcw-window` invariant monitor, with
//!   delta-debugging shrinking of failures to minimal replay artifacts.
//!
//! The library part hosts the simulation runners (so the `tcw-bench`
//! criterion benches reuse exactly the code that produced EXPERIMENTS.md)
//! and small CSV/ASCII-plot helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod chaos;
pub mod diag;
pub mod obs;
pub mod panels;
pub mod plot;
pub mod replay;
pub mod runner;
pub mod supervise;
pub mod sweep;

pub use chaos::{
    execute as chaos_execute, shrink, ChaosConfig, ChaosController, ChaosOutcome, ChaosRecord,
    Mutation, ShrinkResult, ShrinkStep,
};
pub use obs::{
    observe_engine_cell, observed_cell, write_observability, Capture, CellArtifacts, ObsConfig,
    SweepMeta,
};
pub use panels::{Panel, PANELS};
pub use replay::FailureRecord;
pub use runner::{
    simulate_panel, simulate_panel_faulty, simulate_with_detector, DetectorReport, FaultCounters,
    FaultSimPoint, PolicyKind, SimPoint, SimSettings,
};
pub use supervise::{
    run_supervised, supervised_cells, Journal, JournalItem, SupervisorOptions, SweepOutcome,
};
pub use sweep::{jobs_from_args, run_parallel, Cell, Failure, Quarantined};
