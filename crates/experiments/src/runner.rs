//! Panel simulation for the Figure-7 panels and the sweeps built on
//! them: a [`Cell`] describes one run and its methods run it.

use crate::panels::Panel;
use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals};
use tcw_sim::snap::{checksum, SnapWriter};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::{poisson_engine, Engine, HorizonStats};
use tcw_window::metrics::MeasureConfig;
use tcw_window::mirror::DivergenceDetector;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::{EngineObserver, NoopObserver};

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

/// Everything one panel run measures: the conventional point, the
/// fault and churn counters, the Age-of-Information summary and the
/// event-horizon fast-path counters. A clean cell reads all-zero fault
/// and churn counters.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
    /// Membership/recovery counters.
    pub churn: ChurnCounters,
    /// The Age-of-Information summary.
    pub aoi: AoiPoint,
    /// Event-horizon fast-path counters (telemetry only — excluded from
    /// equivalence fingerprints; sweeps feed them into the live progress
    /// line's `[hzn: ...]` segment).
    pub horizon: HorizonStats,
}

/// Converts the message-count knobs into the measurement window at
/// offered rate `lambda` (messages per `tau`): warm up for
/// `settings.warmup` expected messages, then measure for
/// `settings.messages` expected messages.
///
/// Every run that measures loss goes through this helper — every
/// [`Cell`] run and the ablation binary — so "the window where metrics
/// count" is defined exactly once.
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
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
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

/// One fully specified panel simulation: the only description of a
/// Figure-7-style run in the harness.
///
/// A `Cell` carries everything a run needs — including the master seed —
/// so running it is a pure function of the cell, and a sweep grid is a
/// list of cells. Plans default to [`FaultPlan::none`] /
/// [`ChurnPlan::none`], which are bit-identical to fault- and churn-free
/// builds.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Workload panel (offered load and message length).
    pub panel: Panel,
    /// Protocol variant.
    pub policy: PolicyKind,
    /// Deadline in units of `tau`.
    pub k_tau: f64,
    /// Simulation-size knobs.
    pub settings: SimSettings,
    /// Master seed of the run.
    pub seed: u64,
    /// Injected fault plan (its deafness fields configure
    /// [`Cell::detector`]; the shared medium ignores them).
    pub plan: FaultPlan,
    /// Injected churn plan (its listener outage configures
    /// [`Cell::detector`]).
    pub churn: ChurnPlan,
}

impl Cell {
    /// A clean (fault- and churn-free) cell.
    pub fn clean(
        panel: Panel,
        policy: PolicyKind,
        k_tau: f64,
        settings: SimSettings,
        seed: u64,
    ) -> Self {
        Cell {
            panel,
            policy,
            k_tau,
            settings,
            seed,
            plan: FaultPlan::none(),
            churn: ChurnPlan::none(),
        }
    }

    /// The deadline `K` in ticks.
    fn deadline(&self) -> Dur {
        Dur::from_ticks((self.k_tau * self.settings.ticks_per_tau as f64).round() as u64)
    }

    /// The protocol the cell runs. The window length follows the §4.1
    /// heuristic at the offered rate: `w* = mu* / lambda` (the value the
    /// analytic marching uses).
    fn control_policy(&self) -> ControlPolicy {
        let tpt = self.settings.ticks_per_tau as f64;
        let w_star_tau = optimal_mu() / self.panel.lambda();
        let w = Dur::from_ticks((w_star_tau * tpt).round().max(1.0) as u64);
        match self.policy {
            PolicyKind::Controlled => ControlPolicy::controlled(self.deadline(), w),
            PolicyKind::Fcfs => ControlPolicy::fcfs(w),
            PolicyKind::Lcfs => ControlPolicy::lcfs(w),
            PolicyKind::Random => ControlPolicy::random(w),
        }
    }

    /// Station 0's [`DivergenceDetector`] for this cell: the deafness
    /// parameters come from the fault plan and the listener outage from
    /// the churn plan. Pass it to [`Cell::run_observed`] and read its
    /// accessors afterwards.
    pub fn detector(&self) -> DivergenceDetector {
        DivergenceDetector::new(
            self.control_policy(),
            self.seed,
            0,
            self.plan.deafness,
            self.plan.deaf_slots,
        )
        .with_outage(self.churn.outage_start_slot, self.churn.outage_slots)
    }

    /// Runs the cell to completion.
    pub fn run(&self) -> CellResult {
        self.run_observed(&mut NoopObserver, None)
    }

    /// Runs the cell with telemetry attached: protocol events stream to
    /// `obs` during the run, and after the final drain the engine's
    /// accounting registers itself with `sink` (see [`run_to_horizon`]).
    ///
    /// Observers and sinks are strictly passive — they receive data but
    /// never draw from an RNG stream — so the result is bit-identical to
    /// [`Cell::run`] whatever is attached.
    pub fn run_observed(
        &self,
        obs: &mut dyn EngineObserver,
        sink: Option<&mut dyn MetricSink>,
    ) -> CellResult {
        let s = self.settings;
        let channel = ChannelConfig {
            ticks_per_tau: s.ticks_per_tau,
            message_slots: self.panel.m,
            guard: s.guard,
        };
        let measure = measure_window(self.panel.lambda(), s, self.deadline());
        let mut eng = poisson_engine(
            channel,
            self.control_policy(),
            measure,
            self.panel.rho_prime,
            s.stations,
            self.seed,
        );
        eng.set_fault_plan(self.plan);
        eng.set_churn_plan(self.churn, s.stations);
        run_to_horizon(&mut eng, run_horizon(measure, s.ticks_per_tau), obs, sink);
        self.collect(&eng)
    }

    /// Checksums every field of every cell, in grid order: the resume
    /// journal's grid fingerprint (any edit to the grid, its settings or
    /// its plans makes an old journal stale).
    pub fn fingerprint(cells: &[Cell]) -> u64 {
        let mut w = SnapWriter::new();
        for c in cells {
            let (s, f, ch) = (c.settings, c.plan, c.churn);
            w.push_str(c.policy.label());
            w.push_bool(s.guard);
            for x in [
                c.panel.rho_prime,
                c.k_tau,
                f.success_to_collision,
                f.collision_to_success,
                f.collision_to_idle,
                f.idle_to_collision,
                f.erasure,
                f.deafness,
                ch.crash,
                ch.late_join_frac,
                ch.leave_frac,
            ] {
                w.push_f64(x);
            }
            for n in [
                c.panel.m,
                c.seed,
                s.ticks_per_tau,
                s.messages,
                s.warmup,
                u64::from(s.stations),
                f.deaf_slots,
                ch.down_slots,
                ch.join_slot,
                ch.leave_slot,
                ch.catch_up_slots,
                ch.outage_start_slot,
                ch.outage_slots,
            ] {
                w.push(n);
            }
        }
        checksum(&w.into_words())
    }

    /// Collects the result from a finished engine, asserting the
    /// run-level invariants (full drain, conservation of channel time).
    fn collect(&self, eng: &Engine<PoissonArrivals>) -> CellResult {
        let m = &eng.metrics;
        assert_eq!(m.outstanding(), 0, "unresolved messages after drain");
        assert_eq!(
            eng.channel_stats.total().ticks(),
            eng.now().ticks(),
            "channel time not conserved"
        );
        let tpt = self.settings.ticks_per_tau as f64;
        let offered = m.offered();
        let process = eng.churn();
        let rejoin = m.rejoin_latency();
        let aoi = m.aoi();
        CellResult {
            point: SimPoint {
                k: self.k_tau,
                loss: m.loss_fraction(),
                ci95: m.loss_ci95(),
                sender_loss: if offered == 0 {
                    0.0
                } else {
                    m.sender_lost() as f64 / offered as f64
                },
                sched_time_mean: m.sched_time().mean() / tpt,
                round_overhead_mean: m.sched_slots().mean(),
                utilization: eng.channel_stats.utilization(),
                offered,
            },
            faults: FaultCounters {
                corrupted_slots: m.corrupted_slots(),
                erased_slots: m.erased_slots(),
                resyncs: m.resyncs(),
                rounds_abandoned: m.rounds_abandoned(),
                reopened: m.reopened(),
                fault_losses: m.fault_losses(),
            },
            churn: ChurnCounters {
                crashes: process.crashes(),
                restarts: process.restarts(),
                joins: process.joins(),
                leaves: process.leaves(),
                blocked: m.churn_blocked(),
                losses: m.churn_losses(),
                reopened: m.churn_reopened(),
                rejoin_mean_slots: rejoin.mean(),
                rejoin_max_slots: if rejoin.count() == 0 {
                    0.0
                } else {
                    rejoin.max()
                },
            },
            aoi: AoiPoint {
                k: self.k_tau,
                mean_age_tau: aoi.mean_age().unwrap_or(0.0) / tpt,
                peak_age_tau: aoi.peak_age().mean() / tpt,
                violation: aoi.violation_fraction().unwrap_or(0.0),
                deliveries: aoi.deliveries(),
                stations_observed: aoi.stations_observed(),
            },
            horizon: eng.horizon_stats,
        }
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

    fn point(panel: Panel, kind: PolicyKind, k_tau: f64, seed: u64) -> SimPoint {
        Cell::clean(panel, kind, k_tau, quick(), seed).run().point
    }

    #[test]
    fn controlled_loss_decreases_with_k() {
        let panel = PANELS[4]; // rho' = 0.75, M = 25
        let p_small = point(panel, PolicyKind::Controlled, 25.0, 1);
        let p_large = point(panel, PolicyKind::Controlled, 400.0, 1);
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
        let c = point(panel, PolicyKind::Controlled, k, 2);
        let f = point(panel, PolicyKind::Fcfs, k, 2);
        assert!(c.loss < f.loss, "controlled {} !< fcfs {}", c.loss, f.loss);
    }

    #[test]
    fn light_load_large_k_loss_is_negligible() {
        let panel = PANELS[0]; // rho' = 0.25, M = 25
        let p = point(panel, PolicyKind::Controlled, 400.0, 3);
        assert!(p.loss < 0.01, "loss = {}", p.loss);
        assert!(p.utilization > 0.15 && p.utilization < 0.35);
    }

    #[test]
    fn fingerprint_covers_every_cell_field() {
        let grid = || -> Vec<Cell> {
            PANELS
                .iter()
                .map(|&panel| Cell::clean(panel, PolicyKind::Controlled, 100.0, quick(), 7))
                .collect()
        };
        let base = Cell::fingerprint(&grid());
        assert_eq!(Cell::fingerprint(&grid()), base, "identical grids differ");
        type Edit = fn(&mut Cell);
        let edits: [(&str, Edit); 14] = [
            ("rho_prime", |c| c.panel.rho_prime = 0.3),
            ("m", |c| c.panel.m = 50),
            ("policy", |c| c.policy = PolicyKind::Fcfs),
            ("k_tau", |c| c.k_tau = 101.0),
            ("ticks_per_tau", |c| c.settings.ticks_per_tau = 8),
            ("messages", |c| c.settings.messages = 2_000),
            ("warmup", |c| c.settings.warmup = 200),
            ("stations", |c| c.settings.stations = 49),
            ("guard", |c| c.settings.guard = true),
            ("seed", |c| c.seed = 8),
            ("fault probability", |c| c.plan.erasure = 0.01),
            ("deaf_slots", |c| c.plan.deaf_slots = 4),
            ("crash rate", |c| c.churn.crash = 0.001),
            ("outage_slots", |c| c.churn.outage_slots = 64),
        ];
        for (field, edit) in edits {
            let mut cells = grid();
            edit(&mut cells[3]);
            assert_ne!(Cell::fingerprint(&cells), base, "{field} is not covered");
        }
        let mut reordered = grid();
        reordered.swap(0, 1);
        assert_ne!(
            Cell::fingerprint(&reordered),
            base,
            "grid order is not covered"
        );
    }
}
