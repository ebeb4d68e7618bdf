//! The four workloads: which simulation cells one repetition runs, how a
//! cell is set up and run, and the checks every finished cell must pass.

use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals};
use tcw_queueing::marching::{controlled_curve, fcfs_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_window;
use tcw_window::controller::{AimdConfig, AimdController};
use tcw_window::engine::{poisson_engine, Engine};
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::NoopObserver;

/// A named set of cells; one repetition runs every cell once, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// rho' = 0.05: nearly every decision cycle is an idle probe, the
    /// regime the event-horizon fast path collapses (idle-run jumps).
    Light,
    /// rho' = 0.9: collisions on most windows, so the batched kernel bails
    /// out and the generic slot-stepped cycle dominates.
    Heavy,
    /// The Figure 7 grid at its middle deadline: all six (rho', M) panels,
    /// controlled and uncontrolled FCFS, as a sweep binary runs them.
    Fig7,
    /// rho' = 0.6 under the AIMD window controller and station churn:
    /// one cell with feedback faults and random crashes (recovery paths,
    /// fast path off), one with scheduled joins and leaves only.
    Stress,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "light" => Some(Workload::Light),
            "heavy" => Some(Workload::Heavy),
            "fig7" => Some(Workload::Fig7),
            "stress" => Some(Workload::Stress),
            _ => None,
        }
    }

    /// The cells of one repetition.
    pub fn cells(self) -> Vec<CellSpec> {
        match self {
            Workload::Light => vec![CellSpec::clean(25, 0.05, Policy::Controlled, 5_000)],
            Workload::Heavy => vec![CellSpec::clean(25, 0.9, Policy::Controlled, 6_000)],
            Workload::Fig7 => {
                let mut cells = Vec::new();
                for (rho_prime, m) in FIG7_PANELS {
                    for policy in [Policy::Controlled, Policy::Fcfs] {
                        cells.push(CellSpec::clean(m, rho_prime, policy, 600));
                    }
                }
                cells
            }
            Workload::Stress => {
                let base = CellSpec {
                    aimd: true,
                    ..CellSpec::clean(25, 0.6, Policy::Controlled, 2_500)
                };
                // Random crashes and feedback faults keep every slot on
                // the slow path; scheduled joins and leaves let the fast
                // path run between the two transitions.
                let faulty = CellSpec {
                    faults: FaultPlan::uniform(0.01),
                    churn: ChurnPlan::crash_restart(2e-4, 200, 50),
                    ..base
                };
                let scheduled = CellSpec {
                    churn: ChurnPlan {
                        late_join_frac: 0.2,
                        join_slot: 2_000,
                        leave_frac: 0.2,
                        leave_slot: 40_000,
                        catch_up_slots: 50,
                        ..ChurnPlan::none()
                    },
                    ..base
                };
                vec![faulty, scheduled]
            }
        }
    }
}

/// The six `(rho', M)` panels of the paper's Figure 7.
const FIG7_PANELS: [(f64, u64); 6] = [
    (0.25, 25),
    (0.25, 100),
    (0.50, 25),
    (0.50, 100),
    (0.75, 25),
    (0.75, 100),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The paper's controlled protocol (Theorem 1 elements + discard).
    Controlled,
    /// The uncontrolled FCFS baseline; losses only at receivers.
    Fcfs,
}

/// One simulation cell: channel, offered load, policy, and the size of
/// its warm-up and measured stretches in expected messages.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Message length in `tau`.
    pub m: u64,
    /// Normalized offered load `rho' = lambda * M * tau`.
    pub rho_prime: f64,
    /// Deadline `K` in `tau`.
    pub k_tau: f64,
    pub policy: Policy,
    pub ticks_per_tau: u64,
    pub stations: u32,
    /// Expected warm-up messages (run during set-up, not counted).
    pub warmup: u64,
    /// Expected measured messages.
    pub messages: u64,
    pub faults: FaultPlan,
    pub churn: ChurnPlan,
    /// Replace the static window with the AIMD controller.
    pub aimd: bool,
}

impl CellSpec {
    /// A fault-free, churn-free cell at the middle deadline `K = 4M`.
    fn clean(m: u64, rho_prime: f64, policy: Policy, messages: u64) -> Self {
        CellSpec {
            m,
            rho_prime,
            k_tau: 4.0 * m as f64,
            policy,
            ticks_per_tau: 16,
            stations: 50,
            warmup: messages / 10,
            messages,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            aimd: false,
        }
    }

    fn ticks(&self, taus: f64) -> u64 {
        (taus * self.ticks_per_tau as f64).round() as u64
    }

    fn measure(&self) -> MeasureConfig {
        let ticks_per_msg = self.ticks_per_tau as f64 * self.m as f64 / self.rho_prime;
        let start = (self.warmup as f64 * ticks_per_msg) as u64;
        let end = start + (self.messages as f64 * ticks_per_msg) as u64;
        MeasureConfig {
            start: Time::from_ticks(start),
            end: Time::from_ticks(end),
            deadline: Dur::from_ticks(self.ticks(self.k_tau)),
        }
    }

    /// Run horizon: 10% past the measurement window plus a 64-`tau` tail,
    /// before the final drain (the sweep binaries' convention).
    pub fn horizon(&self) -> Time {
        let m = self.measure();
        let (start, end) = (m.start.ticks(), m.end.ticks());
        Time::from_ticks(end + (end - start) / 10 + 64 * self.ticks_per_tau)
    }

    /// Builds the engine, unrun.
    pub fn engine(&self, seed: u64) -> Engine<PoissonArrivals> {
        let channel = ChannelConfig {
            ticks_per_tau: self.ticks_per_tau,
            message_slots: self.m,
            guard: false,
        };
        let lambda = self.rho_prime / self.m as f64;
        let w = self.ticks(optimal_window(lambda)).max(1);
        let k = Dur::from_ticks(self.ticks(self.k_tau));
        let policy = match self.policy {
            Policy::Controlled => ControlPolicy::controlled(k, Dur::from_ticks(w)),
            Policy::Fcfs => ControlPolicy::fcfs(Dur::from_ticks(w)),
        };
        let mut eng = poisson_engine(
            channel,
            policy,
            self.measure(),
            self.rho_prime,
            self.stations,
            seed,
        );
        eng.set_fault_plan(self.faults);
        eng.set_churn_plan(self.churn, self.stations);
        if self.aimd {
            eng.set_controller(Box::new(AimdController::new(AimdConfig::around(w))));
        }
        eng
    }

    /// Set-up of one cell: build the engine and run it through the
    /// warm-up stretch, so the measured stretch starts in steady state.
    pub fn set_up(&self, seed: u64) -> Engine<PoissonArrivals> {
        let mut eng = self.engine(seed);
        eng.run_until(self.measure().start, &mut NoopObserver);
        eng
    }

    /// The measured stretch: run to the horizon, then drain.
    pub fn run(
        &self,
        eng: &mut Engine<PoissonArrivals>,
        obs: &mut dyn tcw_window::trace::EngineObserver,
    ) {
        eng.run_until(self.horizon(), obs);
        eng.drain(obs);
    }

    /// Analytic loss of this cell (eq. 4.7 with K-marching for the
    /// controlled protocol, the M/G/1 waiting-time tail for FCFS), or
    /// `None` when the model does not cover it (faults, churn, adaptive
    /// window).
    pub fn analytic_loss(&self) -> Option<f64> {
        if !self.faults.is_none() || !self.churn.is_none() || self.aimd {
            return None;
        }
        let cfg = PanelConfig {
            m: self.m,
            rho_prime: self.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let k = [self.k_tau];
        let curve = match self.policy {
            Policy::Controlled => controlled_curve(cfg, &k),
            Policy::Fcfs => fcfs_curve(cfg, &k, true),
        };
        Some(curve[0].loss)
    }
}

/// Probe slots the channel has resolved so far.
pub fn probe_slots(eng: &Engine<PoissonArrivals>) -> u64 {
    let c = &eng.channel_stats;
    c.idle_slots + c.collision_slots + c.successes + c.erased_slots
}

/// What a finished cell produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellOutcome {
    pub offered: u64,
    pub lost: u64,
    /// Digest of every simulated statistic that must not depend on the
    /// execution path (fast path on or off, snapshot/restore, observers).
    pub fingerprint: u64,
}

/// Checks a drained engine's run-level invariants and digests its output.
pub fn finish(eng: &Engine<PoissonArrivals>) -> Result<CellOutcome, String> {
    let m = &eng.metrics;
    let c = &eng.channel_stats;
    if m.outstanding() != 0 || eng.pending_count() != 0 {
        return Err(format!(
            "{} messages unresolved after drain",
            m.outstanding()
        ));
    }
    if c.total().ticks() != eng.now().ticks() {
        return Err("channel time not conserved".into());
    }
    // Every loss cause (sender discard, late delivery, blocking, churn)
    // counts in the loss ratio; its numerator is an integer.
    let lost = (m.loss_fraction() * m.offered() as f64).round() as u64;
    if m.offered() == 0 || c.successes == 0 || lost > m.offered() {
        return Err(format!(
            "implausible counts: offered {} lost {lost} delivered {}",
            m.offered(),
            c.successes
        ));
    }
    let words = [
        m.offered(),
        m.sender_lost(),
        m.receiver_lost(),
        m.blocked(),
        m.churn_losses(),
        m.fault_losses(),
        m.true_delay().mean().to_bits(),
        m.sched_slots().mean().to_bits(),
        c.idle_slots,
        c.collision_slots,
        c.successes,
        c.erased_slots,
        c.quiet_periods,
        eng.now().ticks(),
    ];
    Ok(CellOutcome {
        offered: m.offered(),
        lost,
        fingerprint: tcw_sim::snap::checksum(&words),
    })
}
