//! Protocol-simulation runners for the Figure-7 panels.

use crate::panels::Panel;
use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals};
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::{poisson_engine, Engine};
use tcw_window::metrics::MeasureConfig;
use tcw_window::mirror::DivergenceDetector;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::NoopObserver;

/// Which protocol variant to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's controlled protocol (Theorem 1 + discard + heuristic
    /// window).
    Controlled,
    /// Uncontrolled FCFS ([Kurose 83]); receiver losses only.
    Fcfs,
    /// Uncontrolled LCFS ([Kurose 83]); receiver losses only.
    Lcfs,
    /// Uncontrolled RANDOM order ([Kurose 83]); receiver losses only.
    Random,
}

impl PolicyKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Controlled => "controlled",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Lcfs => "lcfs",
            PolicyKind::Random => "random",
        }
    }
}

/// Simulation-size knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSettings {
    /// Ticks per propagation delay.
    pub ticks_per_tau: u64,
    /// Measured messages (after warm-up).
    pub messages: u64,
    /// Warm-up messages.
    pub warmup: u64,
    /// Number of stations.
    pub stations: u32,
    /// Guard slot after transmissions.
    pub guard: bool,
}

impl Default for SimSettings {
    fn default() -> Self {
        SimSettings {
            ticks_per_tau: 64,
            messages: 40_000,
            warmup: 4_000,
            stations: 50,
            guard: false,
        }
    }
}

/// One simulated point.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    /// Deadline in `tau`.
    pub k: f64,
    /// Total loss fraction (sender + receiver).
    pub loss: f64,
    /// 95% CI half-width (binomial).
    pub ci95: f64,
    /// Sender-discard fraction of offered messages.
    pub sender_loss: f64,
    /// Mean scheduling time of transmitted messages (in `tau`).
    pub sched_time_mean: f64,
    /// Mean overhead slots of rounds ending in a transmission.
    pub round_overhead_mean: f64,
    /// Channel utilization (fraction of time carrying successes).
    pub utilization: f64,
    /// Offered (counted) messages.
    pub offered: u64,
}

/// Degradation counters of one fault-injected run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounters {
    /// Slots whose feedback an injected fault corrupted (misdetections).
    pub corrupted_slots: u64,
    /// Slots whose feedback was erased.
    pub erased_slots: u64,
    /// Backoff/re-probe resynchronizations after detectable corruption.
    pub resyncs: u64,
    /// Windowing rounds abandoned after exhausting the retry budget.
    pub rounds_abandoned: u64,
    /// Examined intervals reopened for fault-stranded messages.
    pub reopened: u64,
    /// Losses attributable to a fault on the message's trajectory.
    pub fault_losses: u64,
}

/// A [`SimPoint`] together with the degradation counters of the run.
#[derive(Clone, Copy, Debug)]
pub struct FaultSimPoint {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
}

/// Membership and recovery counters of one churn-enabled run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCounters {
    /// Station crashes.
    pub crashes: u64,
    /// Station restarts (every crash eventually restarts).
    pub restarts: u64,
    /// Late joins.
    pub joins: u64,
    /// Permanent leaves.
    pub leaves: u64,
    /// Arrivals refused because the station was down.
    pub blocked: u64,
    /// Counted messages lost to a crash or leave (as opposed to the K
    /// deadline).
    pub losses: u64,
    /// Examined intervals reopened to recover a rejoining station's
    /// backlog.
    pub reopened: u64,
    /// Mean rejoin latency (probe slots from restart to the recovery
    /// beacon); `NaN` when no station rejoined.
    pub rejoin_mean_slots: f64,
    /// Worst rejoin latency in probe slots (0 when no station rejoined).
    pub rejoin_max_slots: f64,
}

/// A [`FaultSimPoint`] together with the churn counters of the run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSimPoint {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
    /// Membership/recovery counters.
    pub churn: ChurnCounters,
    /// Event-horizon fast-path counters (telemetry only — excluded from
    /// equivalence fingerprints; sweeps feed them into the live progress
    /// line's `[hzn: ...]` segment).
    pub horizon: tcw_window::engine::HorizonStats,
}

/// Converts the message-count knobs into the measurement window at
/// offered rate `lambda` (messages per `tau`): warm up for
/// `settings.warmup` expected messages, then measure for
/// `settings.messages` expected messages.
///
/// Every run that measures loss goes through this helper — the panel
/// runners and the failure-replay path via [`build_engine`], and the
/// ablation binary directly — so "the window where metrics count" is
/// defined exactly once.
pub fn measure_window(lambda: f64, settings: SimSettings, deadline: Dur) -> MeasureConfig {
    let ticks_per_msg = settings.ticks_per_tau as f64 / lambda;
    let warmup_end = (settings.warmup as f64 * ticks_per_msg) as u64;
    let measure_end = warmup_end + (settings.messages as f64 * ticks_per_msg) as u64;
    MeasureConfig {
        start: Time::from_ticks(warmup_end),
        end: Time::from_ticks(measure_end),
        deadline,
    }
}

/// The run horizon for a measurement window: continue 10% of the window
/// past its end so late messages resolve under realistic load, plus a
/// 64-`tau` tail, before the final drain.
pub fn run_horizon(measure: MeasureConfig, ticks_per_tau: u64) -> Time {
    let start = measure.start.ticks();
    let end = measure.end.ticks();
    Time::from_ticks(end + (end - start) / 10 + 64 * ticks_per_tau)
}

/// Drives an engine to its horizon and through the final drain, ends the
/// age read-outs at the run's last instant
/// ([`tcw_window::metrics::Metrics::end_run`]; an unbounded measurement
/// window would otherwise run every age tail to `Time::MAX`), then —
/// when a sink is attached — registers the engine's own accounting with
/// it: metrics, channel stats, churn counters, and the event-horizon
/// fast-path counters (`tcw_horizon_*`). Every sweep binary that runs
/// an engine to completion shares this sequence; telemetry specific to
/// a call site (controller, invariant monitor, divergence detector)
/// stays with the caller.
pub fn run_to_horizon<S: tcw_mac::ArrivalSource>(
    eng: &mut Engine<S>,
    horizon: Time,
    obs: &mut dyn tcw_window::trace::EngineObserver,
    sink: Option<&mut dyn tcw_sim::stats::MetricSink>,
) {
    eng.run_until(horizon, obs);
    eng.drain(obs);
    eng.metrics.end_run(eng.now());
    if let Some(sink) = sink {
        eng.metrics.emit(sink);
        eng.channel_stats.emit(sink);
        eng.churn().emit(sink);
        eng.horizon_stats.emit(sink);
    }
}

/// Builds the engine for one panel point; returns it with the run horizon
/// and the policy (so observers needing the shared policy/seed can be
/// constructed alongside).
fn build_engine(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
) -> (Engine<PoissonArrivals>, Time, ControlPolicy) {
    let channel = ChannelConfig {
        ticks_per_tau: settings.ticks_per_tau,
        message_slots: panel.m,
        guard: settings.guard,
    };
    let lambda = panel.lambda(); // per tau
    let w_star_tau = optimal_mu() / lambda;
    let w = Dur::from_ticks(
        (w_star_tau * settings.ticks_per_tau as f64)
            .round()
            .max(1.0) as u64,
    );
    let k = Dur::from_ticks((k_tau * settings.ticks_per_tau as f64).round() as u64);

    let policy = match kind {
        PolicyKind::Controlled => ControlPolicy::controlled(k, w),
        PolicyKind::Fcfs => ControlPolicy::fcfs(w),
        PolicyKind::Lcfs => ControlPolicy::lcfs(w),
        PolicyKind::Random => ControlPolicy::random(w),
    };

    let measure = measure_window(lambda, settings, k);
    let horizon = run_horizon(measure, settings.ticks_per_tau);
    let eng = poisson_engine(
        channel,
        policy.clone(),
        measure,
        panel.rho_prime,
        settings.stations,
        seed,
    );
    (eng, horizon, policy)
}

/// Collects the measured point from a finished engine, asserting the
/// run-level invariants (full drain, conservation of channel time).
fn collect_point(eng: &Engine<PoissonArrivals>, k_tau: f64, settings: SimSettings) -> SimPoint {
    assert_eq!(
        eng.metrics.outstanding(),
        0,
        "unresolved messages after drain"
    );
    assert_eq!(
        eng.channel_stats.total().ticks(),
        eng.now().ticks(),
        "channel time not conserved"
    );
    let offered = eng.metrics.offered();
    SimPoint {
        k: k_tau,
        loss: eng.metrics.loss_fraction(),
        ci95: eng.metrics.loss_ci95(),
        sender_loss: if offered == 0 {
            0.0
        } else {
            eng.metrics.sender_lost() as f64 / offered as f64
        },
        sched_time_mean: eng.metrics.sched_time().mean() / settings.ticks_per_tau as f64,
        round_overhead_mean: eng.metrics.sched_slots().mean(),
        utilization: eng.channel_stats.utilization(),
        offered,
    }
}

fn collect_faults(eng: &Engine<PoissonArrivals>) -> FaultCounters {
    FaultCounters {
        corrupted_slots: eng.metrics.corrupted_slots(),
        erased_slots: eng.metrics.erased_slots(),
        resyncs: eng.metrics.resyncs(),
        rounds_abandoned: eng.metrics.rounds_abandoned(),
        reopened: eng.metrics.reopened(),
        fault_losses: eng.metrics.fault_losses(),
    }
}

fn collect_churn(eng: &Engine<PoissonArrivals>) -> ChurnCounters {
    let process = eng.churn();
    let rejoin = eng.metrics.rejoin_latency();
    ChurnCounters {
        crashes: process.crashes(),
        restarts: process.restarts(),
        joins: process.joins(),
        leaves: process.leaves(),
        blocked: eng.metrics.churn_blocked(),
        losses: eng.metrics.churn_losses(),
        reopened: eng.metrics.churn_reopened(),
        rejoin_mean_slots: rejoin.mean(),
        rejoin_max_slots: if rejoin.count() == 0 {
            0.0
        } else {
            rejoin.max()
        },
    }
}

/// Runs one protocol simulation at deadline `k_tau` (units of `tau`) and
/// returns the measured point.
///
/// The window length follows the §4.1 heuristic at the offered rate:
/// `w* = mu* / lambda` (same value the analytic marching uses).
pub fn simulate_panel(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
) -> SimPoint {
    // With FaultPlan::none() this is bit-identical to a fault-free build.
    simulate_panel_faulty(panel, kind, k_tau, settings, seed, FaultPlan::none()).point
}

/// Runs one panel point with an injected [`FaultPlan`] (the deafness
/// fields are ignored here — deafness is a per-station receive fault, see
/// [`simulate_with_detector`]).
pub fn simulate_panel_faulty(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    plan: FaultPlan,
) -> FaultSimPoint {
    // With ChurnPlan::none() this is bit-identical to a churn-free build.
    let p = simulate_churn(panel, kind, k_tau, settings, seed, plan, ChurnPlan::none());
    FaultSimPoint {
        point: p.point,
        faults: p.faults,
    }
}

/// Runs one panel point with both a [`FaultPlan`] and a [`ChurnPlan`]
/// (stations crash, restart, join late and leave while the protocol
/// runs).
pub fn simulate_churn(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
) -> ChurnSimPoint {
    simulate_churn_observed(
        panel,
        kind,
        k_tau,
        settings,
        seed,
        plan,
        churn,
        &mut NoopObserver,
        None,
    )
}

/// [`simulate_churn`] with telemetry attached: protocol events stream to
/// `obs` during the run, and after the final drain the engine's metrics,
/// channel accounting and churn process register themselves with `sink`
/// (when one is given).
///
/// Observers and sinks are strictly passive — they receive data but never
/// draw from an RNG stream — so the simulated result is bit-identical to
/// [`simulate_churn`] regardless of what is attached.
#[allow(clippy::too_many_arguments)]
pub fn simulate_churn_observed(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    obs: &mut dyn tcw_window::trace::EngineObserver,
    sink: Option<&mut dyn tcw_sim::stats::MetricSink>,
) -> ChurnSimPoint {
    let (mut eng, horizon, _policy) = build_engine(panel, kind, k_tau, settings, seed);
    eng.set_fault_plan(plan);
    eng.set_churn_plan(churn, settings.stations);
    run_to_horizon(&mut eng, horizon, obs, sink);
    ChurnSimPoint {
        point: collect_point(&eng, k_tau, settings),
        faults: collect_faults(&eng),
        churn: collect_churn(&eng),
        horizon: eng.horizon_stats,
    }
}

/// Runs one clean panel point and reports the measured point together
/// with the event-horizon fast-path counters — how many idle-run jumps
/// and batched resolutions the engine took while producing it. The
/// counters are telemetry only (the result is bit-identical with the
/// fast path off); sweeps that make performance claims commit them so
/// CI can prove the fast path actually engaged.
pub fn simulate_with_horizon(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
) -> (SimPoint, tcw_window::engine::HorizonStats) {
    let (mut eng, horizon, _policy) = build_engine(panel, kind, k_tau, settings, seed);
    run_to_horizon(&mut eng, horizon, &mut NoopObserver, None);
    (collect_point(&eng, k_tau, settings), eng.horizon_stats)
}

/// Age-of-Information summary of one run, in units of `tau`.
///
/// The underlying sawtooth integral is exact integer arithmetic over
/// ticks (see `tcw_window::metrics::AgeTracker`); the conversion to
/// `tau` happens only here, at the reporting boundary.
#[derive(Clone, Copy, Debug)]
pub struct AoiPoint {
    /// Deadline `K` in units of `tau` (grid coordinate).
    pub k: f64,
    /// Time-averaged age across observed stations, in `tau`.
    pub mean_age_tau: f64,
    /// Mean of the per-station peak ages, in `tau`.
    pub peak_age_tau: f64,
    /// Fraction of observed time the age exceeded the deadline `K`.
    pub violation: f64,
    /// Source-to-monitor deliveries the tracker observed.
    pub deliveries: u64,
    /// Stations that delivered at least once (age is undefined for the
    /// rest — they never produced a sample to monitor).
    pub stations_observed: u64,
}

/// Collects the AoI summary from a finished engine.
fn collect_aoi(eng: &Engine<PoissonArrivals>, k_tau: f64, settings: SimSettings) -> AoiPoint {
    let aoi = eng.metrics.aoi();
    let tpt = settings.ticks_per_tau as f64;
    AoiPoint {
        k: k_tau,
        mean_age_tau: aoi.mean_age().unwrap_or(0.0) / tpt,
        peak_age_tau: aoi.peak_age().mean() / tpt,
        violation: aoi.violation_fraction().unwrap_or(0.0),
        deliveries: aoi.deliveries(),
        stations_observed: aoi.stations_observed(),
    }
}

/// One AoI run: conventional measurements, the AoI summary and the
/// event-horizon counters of the run that produced them.
#[derive(Clone, Copy, Debug)]
pub struct AoiRun {
    /// The conventional measurements.
    pub point: SimPoint,
    /// The Age-of-Information summary.
    pub aoi: AoiPoint,
    /// Event-horizon fast-path counters (telemetry only).
    pub horizon: tcw_window::engine::HorizonStats,
}

/// Runs one clean panel point and returns the conventional measurements
/// together with the Age-of-Information summary.
pub fn simulate_aoi(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
) -> AoiRun {
    simulate_aoi_observed(panel, kind, k_tau, settings, seed, &mut NoopObserver, None)
}

/// [`simulate_aoi`] with telemetry attached; the observer and sink are
/// strictly passive, so the measured result is bit-identical to the
/// unobserved run.
pub fn simulate_aoi_observed(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    obs: &mut dyn tcw_window::trace::EngineObserver,
    sink: Option<&mut dyn tcw_sim::stats::MetricSink>,
) -> AoiRun {
    let (mut eng, horizon, _policy) = build_engine(panel, kind, k_tau, settings, seed);
    run_to_horizon(&mut eng, horizon, obs, sink);
    AoiRun {
        point: collect_point(&eng, k_tau, settings),
        aoi: collect_aoi(&eng, k_tau, settings),
        horizon: eng.horizon_stats,
    }
}

/// Outcome of a run observed through the per-station
/// [`DivergenceDetector`].
#[derive(Clone, Debug)]
pub struct DetectorReport {
    /// Divergences the detector caught at decision-point beacons.
    pub divergences: u64,
    /// Resynchronizations performed.
    pub resyncs: u64,
    /// Channel slots the deaf (or down) station missed.
    pub dropped_slots: u64,
    /// Resyncs attributable to a churn outage (cold rejoins).
    pub churn_repairs: u64,
    /// Description of the first divergence, if any.
    pub first_divergence: Option<String>,
}

/// Runs one panel point with a fault plan while a deaf listening station
/// (index 0, deafness parameters taken from `plan`) tracks the run through
/// a [`DivergenceDetector`].
pub fn simulate_with_detector(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    plan: FaultPlan,
) -> (FaultSimPoint, DetectorReport) {
    let (p, report) =
        simulate_churn_with_detector(panel, kind, k_tau, settings, seed, plan, ChurnPlan::none());
    (
        FaultSimPoint {
            point: p.point,
            faults: p.faults,
        },
        report,
    )
}

/// Runs one panel point with fault and churn plans while listening
/// station 0 tracks the run through a [`DivergenceDetector`] configured
/// with the plan's deafness parameters and the churn plan's listener
/// outage span.
pub fn simulate_churn_with_detector(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
) -> (ChurnSimPoint, DetectorReport) {
    let (mut eng, horizon, policy) = build_engine(panel, kind, k_tau, settings, seed);
    eng.set_fault_plan(plan);
    eng.set_churn_plan(churn, settings.stations);
    let mut det = DivergenceDetector::new(policy, seed, 0, plan.deafness, plan.deaf_slots)
        .with_outage(churn.outage_start_slot, churn.outage_slots);
    run_to_horizon(&mut eng, horizon, &mut det, None);
    let report = DetectorReport {
        divergences: det.divergences(),
        resyncs: det.resyncs(),
        dropped_slots: det.dropped_slots(),
        churn_repairs: det.churn_repairs(),
        first_divergence: det.first_divergence().map(|s| s.to_string()),
    };
    (
        ChurnSimPoint {
            point: collect_point(&eng, k_tau, settings),
            faults: collect_faults(&eng),
            churn: collect_churn(&eng),
            horizon: eng.horizon_stats,
        },
        report,
    )
}

/// A replicated estimate: independent seeds, Student-t confidence
/// interval across replications. This is the rigorous interval for
/// autocorrelated protocol output (the per-run binomial CI in
/// [`SimPoint::ci95`] treats messages as independent and is only
/// indicative).
#[derive(Clone, Copy, Debug)]
pub struct Replicated {
    /// Mean loss across replications.
    pub loss: f64,
    /// 95% half-width across replications (t-distribution).
    pub ci95: f64,
    /// Number of replications.
    pub replications: u32,
}

/// Runs `replications` independent seeds of the same panel point and
/// aggregates with a t-interval.
///
/// Replication `r` runs under master seed
/// [`tcw_sim::rng::stream_seed`]`(base_seed, r)` — the `r`-th output of
/// the SplitMix64 sequence rooted at `base_seed` — and the engine forks
/// its per-component substreams from that master seed, so replications
/// never share a stream. Replications execute on the parallel sweep
/// executor; each is seeded independently and aggregation happens in
/// replication order, so the result is identical at any worker count.
///
/// # Panics
/// Panics if `replications < 2`.
pub fn replicate_panel(
    panel: Panel,
    kind: PolicyKind,
    k_tau: f64,
    settings: SimSettings,
    base_seed: u64,
    replications: u32,
) -> Replicated {
    assert!(replications >= 2);
    let seeds: Vec<u64> = (0..u64::from(replications))
        .map(|r| tcw_sim::rng::stream_seed(base_seed, r))
        .collect();
    let jobs = crate::sweep::default_jobs();
    let losses = crate::sweep::run_parallel(&seeds, jobs, false, |_, &seed, _| {
        simulate_panel(panel, kind, k_tau, settings, seed).loss
    });
    // BatchMeans with batch size 1: each replication is one independent
    // batch, so the collector's t-interval is exactly the replication CI.
    let mut bm = tcw_sim::stats::BatchMeans::new(1);
    for loss in losses {
        bm.record(loss);
    }
    Replicated {
        loss: bm.mean(),
        ci95: bm.ci95_half_width().unwrap_or(f64::INFINITY),
        replications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::PANELS;

    fn quick() -> SimSettings {
        SimSettings {
            messages: 4_000,
            warmup: 400,
            ticks_per_tau: 16,
            ..Default::default()
        }
    }

    #[test]
    fn controlled_loss_decreases_with_k() {
        let panel = PANELS[4]; // rho' = 0.75, M = 25
        let p_small = simulate_panel(panel, PolicyKind::Controlled, 25.0, quick(), 1);
        let p_large = simulate_panel(panel, PolicyKind::Controlled, 400.0, quick(), 1);
        assert!(
            p_large.loss < p_small.loss,
            "loss did not decrease: {} -> {}",
            p_small.loss,
            p_large.loss
        );
        assert!(p_small.offered > 3_000);
    }

    #[test]
    fn controlled_beats_fcfs_at_tight_k() {
        let panel = PANELS[4];
        let k = 100.0;
        let c = simulate_panel(panel, PolicyKind::Controlled, k, quick(), 2);
        let f = simulate_panel(panel, PolicyKind::Fcfs, k, quick(), 2);
        assert!(c.loss < f.loss, "controlled {} !< fcfs {}", c.loss, f.loss);
    }

    #[test]
    fn replication_interval_contains_analytic_value() {
        let panel = PANELS[2]; // rho' = 0.50, M = 25
        let k = 100.0;
        let rep = crate::runner::replicate_panel(panel, PolicyKind::Controlled, k, quick(), 9, 4);
        assert_eq!(rep.replications, 4);
        assert!(rep.ci95.is_finite());
        // The analytic value (~0.0046) lies inside the replication CI.
        let analytic = 0.0046;
        assert!(
            (rep.loss - analytic).abs() <= rep.ci95 + 0.01,
            "analytic {analytic} outside {:.4} ± {:.4}",
            rep.loss,
            rep.ci95
        );
    }

    #[test]
    fn light_load_large_k_loss_is_negligible() {
        let panel = PANELS[0]; // rho' = 0.25, M = 25
        let p = simulate_panel(panel, PolicyKind::Controlled, 400.0, quick(), 3);
        assert!(p.loss < 0.01, "loss = {}", p.loss);
        assert!(p.utilization > 0.15 && p.utilization < 0.35);
    }
}
