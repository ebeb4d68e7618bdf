//! Deterministic station churn: dynamic membership for the station
//! population.
//!
//! The paper assumes a fixed population of stations that hear every slot
//! forever. [`ChurnPlan`] breaks that assumption in controlled,
//! reproducible ways:
//!
//! * **crash/restart** — a live station crashes with a per-probe-slot
//!   probability and is silent for a fixed outage length, then restarts
//!   cold (it must re-acquire protocol state from the next decision-point
//!   beacon);
//! * **late join** — a fraction of the population does not exist until a
//!   scheduled slot;
//! * **scheduled leave** — a fraction of the population departs
//!   permanently at a scheduled slot, abandoning its backlog;
//! * **listener outage** — a scheduled deaf window for one *monitored*
//!   station; this field is consumed by the divergence detector in
//!   `tcw-window`, not by the shared membership process, because an outage
//!   is private to the listening station.
//!
//! All randomness comes from a dedicated tagged RNG stream passed in by
//! the caller, so churn sequences are reproducible from the run seed and
//! independent of every other random stream. With [`ChurnPlan::none`] the
//! process draws **nothing** from that stream and every station is
//! permanently up — bit-identical to a static-population build.
//!
//! The process is clocked in *probe slots*: the engine steps it once per
//! channel probe, the only unit of time every surviving station can count
//! by listening.

use crate::message::{Message, StationId};
use tcw_sim::rng::Rng;

/// Per-station membership dynamics. All values are flat scalars so a plan
/// embeds directly in the flat-JSON failure-replay artifacts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnPlan {
    /// P(per probe slot) that a live station crashes.
    pub crash: f64,
    /// How many probe slots a crashed station stays down before
    /// restarting.
    pub down_slots: u64,
    /// Fraction of the population (highest station indices) absent until
    /// [`ChurnPlan::join_slot`].
    pub late_join_frac: f64,
    /// Probe slot at which late joiners come up.
    pub join_slot: u64,
    /// Fraction of the population (lowest station indices) that leaves
    /// permanently at [`ChurnPlan::leave_slot`].
    pub leave_frac: f64,
    /// Probe slot at which leavers depart.
    pub leave_slot: u64,
    /// Rejoin catch-up bound, in units of `tau`: at its first decision
    /// point back, a restarted station recovers only backlog younger than
    /// this; older stranded messages are dropped (counted as churn loss).
    pub catch_up_slots: u64,
    /// First slot of the monitored listener's scheduled outage (consumed
    /// by the divergence detector, not the shared membership process).
    pub outage_start_slot: u64,
    /// Length of the monitored listener's outage in heard slots; zero
    /// disables the outage.
    pub outage_slots: u64,
}

impl ChurnPlan {
    /// The churn-free plan: every station is permanently up and the
    /// process draws nothing from its RNG stream.
    pub fn none() -> Self {
        ChurnPlan {
            crash: 0.0,
            down_slots: 0,
            late_join_frac: 0.0,
            join_slot: 0,
            leave_frac: 0.0,
            leave_slot: 0,
            catch_up_slots: 0,
            outage_start_slot: 0,
            outage_slots: 0,
        }
    }

    /// A crash/restart-only plan: stations crash at `crash` per probe
    /// slot, stay down `down_slots`, and recover backlog younger than
    /// `catch_up_slots` tau when they rejoin.
    pub fn crash_restart(crash: f64, down_slots: u64, catch_up_slots: u64) -> Self {
        ChurnPlan {
            crash,
            down_slots,
            catch_up_slots,
            ..ChurnPlan::none()
        }
    }

    /// Whether this plan changes the shared membership process at all
    /// (the listener outage is private to the monitored station and does
    /// not count).
    pub fn is_none(&self) -> bool {
        self.crash == 0.0 && self.late_join_frac == 0.0 && self.leave_frac == 0.0
    }

    /// Non-panicking validation, used when parsing replay artifacts so a
    /// corrupted file degrades to an error instead of aborting.
    pub fn check(&self) -> Result<(), String> {
        for (name, p) in [
            ("crash", self.crash),
            ("late_join_frac", self.late_join_frac),
            ("leave_frac", self.leave_frac),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        if self.crash > 0.0 && self.down_slots == 0 {
            return Err("crash > 0 requires down_slots >= 1".to_string());
        }
        Ok(())
    }

    /// Checks plan sanity.
    ///
    /// # Panics
    /// Panics with a description of the offending field on violation.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid churn plan: {e}");
        }
    }
}

impl Default for ChurnPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A membership transition of one station.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The station crashed: it stops hearing the channel and its backlog
    /// is stranded until it restarts (or ages out).
    Crash(StationId),
    /// The station restarted cold; it re-acquires protocol state from the
    /// next decision-point beacon.
    Restart(StationId),
    /// A late joiner came up for the first time.
    Join(StationId),
    /// The station left permanently, abandoning its backlog.
    Leave(StationId),
}

impl ChurnEvent {
    /// The station the event concerns.
    pub fn station(&self) -> StationId {
        match self {
            ChurnEvent::Crash(s)
            | ChurnEvent::Restart(s)
            | ChurnEvent::Join(s)
            | ChurnEvent::Leave(s) => *s,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemberState {
    Up,
    Down { remaining: u64 },
    Absent,
    Left,
}

/// The membership state machine, stepped once per channel probe slot.
///
/// A step costs O(1) plus one crash draw per up station when
/// `crash > 0`: the per-station passes run only when a join, leave or
/// restart can be due, which the derived counts below tell without a
/// scan. The derived values are rebuilt from `state` and `leave_at` on
/// construction and on [`load_state`](Self::load_state) and are not
/// serialized, so the snapshot format does not depend on them.
#[derive(Clone, Debug)]
pub struct ChurnProcess {
    plan: ChurnPlan,
    rng: Rng,
    state: Vec<MemberState>,
    /// Slot at which each station leaves permanently (`u64::MAX` = never).
    leave_at: Vec<u64>,
    slot: u64,
    crashes: u64,
    restarts: u64,
    joins: u64,
    leaves: u64,
    /// Derived: stations still absent (waiting for `join_slot`).
    absent: usize,
    /// Derived: stations down.
    down: usize,
    /// Derived: the earliest `leave_at` of a station that has not left
    /// (`u64::MAX` = none).
    next_leave: u64,
    /// Derived: [`Rng::chance_threshold`] of `plan.crash`.
    crash_threshold: u64,
}

impl ChurnProcess {
    /// Creates a membership process over `stations` stations. `rng` must
    /// be a dedicated substream (the engine forks it as `"churn"` from the
    /// master seed). With a [`ChurnPlan::none`] plan the stream is never
    /// touched.
    pub fn new(plan: ChurnPlan, stations: u32, rng: Rng) -> Self {
        plan.validate();
        let n = stations as usize;
        let joiners = if plan.late_join_frac > 0.0 {
            ((plan.late_join_frac * n as f64).ceil() as usize).min(n)
        } else {
            0
        };
        let leavers = if plan.leave_frac > 0.0 {
            ((plan.leave_frac * n as f64).ceil() as usize).min(n)
        } else {
            0
        };
        let mut state = vec![MemberState::Up; n];
        // Late joiners occupy the highest indices, leavers the lowest, so
        // the two sets only overlap when the fractions sum past 1.
        for s in state.iter_mut().skip(n - joiners) {
            *s = MemberState::Absent;
        }
        let mut leave_at = vec![u64::MAX; n];
        for l in leave_at.iter_mut().take(leavers) {
            *l = plan.leave_slot;
        }
        let mut p = ChurnProcess {
            plan,
            rng,
            state,
            leave_at,
            slot: 0,
            crashes: 0,
            restarts: 0,
            joins: 0,
            leaves: 0,
            absent: 0,
            down: 0,
            next_leave: u64::MAX,
            crash_threshold: Rng::chance_threshold(plan.crash),
        };
        p.derive();
        p
    }

    /// Recomputes the derived counts from `state` and `leave_at`.
    fn derive(&mut self) {
        self.absent = 0;
        self.down = 0;
        self.next_leave = u64::MAX;
        for (m, &l) in self.state.iter().zip(&self.leave_at) {
            match m {
                MemberState::Absent => self.absent += 1,
                MemberState::Down { .. } => self.down += 1,
                MemberState::Up | MemberState::Left => {}
            }
            if *m != MemberState::Left {
                self.next_leave = self.next_leave.min(l);
            }
        }
    }

    /// A process with no stations and no plan (the engine default before
    /// [`ChurnProcess::new`] replaces it).
    pub fn disabled(rng: Rng) -> Self {
        Self::new(ChurnPlan::none(), 0, rng)
    }

    /// The active plan.
    pub fn plan(&self) -> &ChurnPlan {
        &self.plan
    }

    /// A clone of the current RNG stream position. The engine uses this
    /// to rebuild the process when a plan is installed before a run
    /// starts (the stream is untouched until the first crash draw, so the
    /// clone is exactly the original `"churn"` fork).
    pub fn stream(&self) -> Rng {
        self.rng.clone()
    }

    /// Probe slots stepped so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Crashes so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Late joins so far.
    pub fn joins(&self) -> u64 {
        self.joins
    }

    /// Permanent leaves so far.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Pushes the membership counters into `sink` under stable
    /// `tcw_churn_*` names.
    pub fn emit(&self, sink: &mut dyn tcw_sim::stats::MetricSink) {
        sink.counter(
            "tcw_churn_slots_total",
            "probe slots stepped by the membership process",
            self.slot,
        );
        sink.counter("tcw_churn_crashes_total", "station crashes", self.crashes);
        sink.counter(
            "tcw_churn_restarts_total",
            "station restarts",
            self.restarts,
        );
        sink.counter("tcw_churn_joins_total", "late joins", self.joins);
        sink.counter("tcw_churn_leaves_total", "permanent leaves", self.leaves);
    }

    /// Whether the station currently hears the channel and may transmit.
    /// Stations beyond the modelled population are always up.
    pub fn is_up(&self, station: StationId) -> bool {
        match self.state.get(station.0 as usize) {
            Some(s) => matches!(s, MemberState::Up),
            None => true,
        }
    }

    /// Whether the station still exists (it may be down, but has not left
    /// permanently). Messages of present stations stay resolvable;
    /// messages of departed stations never will be.
    pub fn is_present(&self, station: StationId) -> bool {
        match self.state.get(station.0 as usize) {
            Some(s) => !matches!(s, MemberState::Left),
            None => true,
        }
    }

    /// Drops messages whose sender cannot currently transmit.
    pub fn retain_up(&self, msgs: &mut Vec<Message>) {
        msgs.retain(|m| self.is_up(m.station));
    }

    /// The earliest future probe slot (strictly after the current one) at
    /// which [`step`](Self::step) could emit an event or mutate any
    /// member's state, or `None` if no transition will ever occur. With a
    /// positive crash probability (or any station mid-outage) every slot
    /// can transition, so the answer is the very next slot. O(1), from
    /// the derived counts. The engine's event-horizon fast path uses this
    /// to bound how many slots it may [`skip_slots`](Self::skip_slots)
    /// past.
    pub fn next_scheduled_transition(&self) -> Option<u64> {
        if self.plan.is_none() {
            return None;
        }
        // A down station mutates (counts down) on every step.
        if self.plan.crash > 0.0 || self.down > 0 {
            return Some(self.slot + 1);
        }
        let join = (self.absent > 0).then_some(self.plan.join_slot);
        let leave = (self.next_leave != u64::MAX).then_some(self.next_leave);
        join.into_iter()
            .chain(leave)
            .min()
            .map(|s| s.max(self.slot + 1))
    }

    /// Advances the slot clock by `n` without stepping the state machine,
    /// for runs of slots proven transition-free via
    /// [`next_scheduled_transition`](Self::next_scheduled_transition).
    /// Draws nothing and emits nothing, so it is bit-identical to `n`
    /// transition-free [`step`](Self::step) calls.
    pub fn skip_slots(&mut self, n: u64) {
        debug_assert!(
            match self.next_scheduled_transition() {
                None => true,
                Some(s) => s > self.slot + n,
            },
            "skip_slots({n}) would jump over a membership transition"
        );
        self.slot += n;
    }

    /// Advances the membership process one probe slot, appending any
    /// transitions to `events`. With [`ChurnPlan::none`] this only
    /// advances the slot counter and draws nothing from the RNG.
    pub fn step(&mut self, events: &mut Vec<ChurnEvent>) {
        self.slot += 1;
        if self.plan.is_none() {
            return;
        }
        let slot = self.slot;
        // Scheduled membership first: joins and permanent leaves happen at
        // exact slots, independent of the crash process.
        if (self.absent > 0 && slot >= self.plan.join_slot) || self.next_leave <= slot {
            for i in 0..self.state.len() {
                let id = StationId(i as u32);
                if self.state[i] == MemberState::Absent && slot >= self.plan.join_slot {
                    self.state[i] = MemberState::Up;
                    self.joins += 1;
                    events.push(ChurnEvent::Join(id));
                }
                if self.leave_at[i] <= slot && self.state[i] != MemberState::Left {
                    self.state[i] = MemberState::Left;
                    self.leaves += 1;
                    events.push(ChurnEvent::Leave(id));
                }
            }
            self.derive();
        }
        if self.crash_threshold > 0 || self.down > 0 {
            self.crash_and_restart(events);
        }
    }

    /// Crash/restart dynamics: exactly one RNG draw per live station per
    /// slot (when crash > 0), in station order, so the stream is
    /// reproducible regardless of what the protocol is doing. The draws
    /// run on a local copy of the stream, written back once.
    fn crash_and_restart(&mut self, events: &mut Vec<ChurnEvent>) {
        let threshold = self.crash_threshold;
        let mut rng = self.rng.clone();
        for (i, m) in self.state.iter_mut().enumerate() {
            match *m {
                MemberState::Up => {
                    if threshold > 0 && rng.chance_below(threshold) {
                        *m = MemberState::Down {
                            remaining: self.plan.down_slots,
                        };
                        self.crashes += 1;
                        self.down += 1;
                        events.push(ChurnEvent::Crash(StationId(i as u32)));
                    }
                }
                MemberState::Down { remaining } => {
                    if remaining <= 1 {
                        *m = MemberState::Up;
                        self.restarts += 1;
                        self.down -= 1;
                        events.push(ChurnEvent::Restart(StationId(i as u32)));
                    } else {
                        *m = MemberState::Down {
                            remaining: remaining - 1,
                        };
                    }
                }
                MemberState::Absent | MemberState::Left => {}
            }
        }
        self.rng = rng;
    }
}

impl ChurnProcess {
    /// Serializes the full membership state (plan, RNG position, per-station
    /// states, leave schedule, slot clock, event counters) for an engine
    /// checkpoint.
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push_f64(self.plan.crash);
        w.push(self.plan.down_slots);
        w.push_f64(self.plan.late_join_frac);
        w.push(self.plan.join_slot);
        w.push_f64(self.plan.leave_frac);
        w.push(self.plan.leave_slot);
        w.push(self.plan.catch_up_slots);
        w.push(self.plan.outage_start_slot);
        w.push(self.plan.outage_slots);
        for s in self.rng.state() {
            w.push(s);
        }
        w.push_usize(self.state.len());
        for m in &self.state {
            // Fixed two words per member: discriminant + payload.
            let (tag, payload) = match m {
                MemberState::Up => (0u64, 0u64),
                MemberState::Down { remaining } => (1, *remaining),
                MemberState::Absent => (2, 0),
                MemberState::Left => (3, 0),
            };
            w.push(tag);
            w.push(payload);
        }
        for &l in &self.leave_at {
            w.push(l);
        }
        w.push(self.slot);
        w.push(self.crashes);
        w.push(self.restarts);
        w.push(self.joins);
        w.push(self.leaves);
    }

    /// Rebuilds a process from checkpoint state written by
    /// [`ChurnProcess::save_state`].
    pub fn load_state(
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<Self, tcw_sim::snap::SnapError> {
        let plan = ChurnPlan {
            crash: r.take_f64()?,
            down_slots: r.take()?,
            late_join_frac: r.take_f64()?,
            join_slot: r.take()?,
            leave_frac: r.take_f64()?,
            leave_slot: r.take()?,
            catch_up_slots: r.take()?,
            outage_start_slot: r.take()?,
            outage_slots: r.take()?,
        };
        plan.check().map_err(tcw_sim::snap::SnapError::new)?;
        let mut s = [0u64; 4];
        for x in s.iter_mut() {
            *x = r.take()?;
        }
        let rng = Rng::from_state(s);
        let n = r.take_len()?;
        let mut state = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.take()?;
            let payload = r.take()?;
            state.push(match tag {
                0 => MemberState::Up,
                1 => MemberState::Down { remaining: payload },
                2 => MemberState::Absent,
                3 => MemberState::Left,
                t => {
                    return Err(tcw_sim::snap::SnapError::new(format!(
                        "invalid member-state tag {t}"
                    )))
                }
            });
        }
        let mut leave_at = Vec::with_capacity(n);
        for _ in 0..n {
            leave_at.push(r.take()?);
        }
        let mut p = ChurnProcess::new(plan, 0, rng);
        p.state = state;
        p.leave_at = leave_at;
        p.slot = r.take()?;
        p.crashes = r.take()?;
        p.restarts = r.take()?;
        p.joins = r.take()?;
        p.leaves = r.take()?;
        p.derive();
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_draws_nothing_and_everyone_is_up() {
        let mut p = ChurnProcess::new(ChurnPlan::none(), 10, Rng::new(7));
        let mut witness = Rng::new(7);
        let mut events = Vec::new();
        for _ in 0..1_000 {
            p.step(&mut events);
        }
        assert!(events.is_empty());
        assert_eq!(p.slot(), 1_000);
        for i in 0..10 {
            assert!(p.is_up(StationId(i)));
            assert!(p.is_present(StationId(i)));
        }
        assert_eq!(p.rng.next_u64(), witness.next_u64());
    }

    #[test]
    fn crash_and_restart_cycle_is_deterministic() {
        let mk = || ChurnProcess::new(ChurnPlan::crash_restart(0.01, 5, 100), 20, Rng::new(3));
        let mut a = mk();
        let mut b = mk();
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        for _ in 0..5_000 {
            a.step(&mut ea);
            b.step(&mut eb);
        }
        assert_eq!(ea, eb);
        assert!(a.crashes() > 0, "no crashes at p=0.01 over 5000 slots");
        // Every crash either restarted or is still inside its outage.
        assert!(a.restarts() <= a.crashes());
        assert!(a.crashes() - a.restarts() <= 20);
    }

    #[test]
    fn down_station_restarts_after_exact_outage() {
        // Force a crash on the first slot, then count slots until restart.
        let plan = ChurnPlan::crash_restart(1.0, 4, 100);
        let mut p = ChurnProcess::new(plan, 1, Rng::new(1));
        let mut events = Vec::new();
        p.step(&mut events);
        assert_eq!(events, vec![ChurnEvent::Crash(StationId(0))]);
        assert!(!p.is_up(StationId(0)));
        assert!(p.is_present(StationId(0)));
        events.clear();
        // down_slots = 4: the station is down for slots 2..=4 and restarts
        // on the 4th step after the crash.
        for _ in 0..3 {
            p.step(&mut events);
            assert!(!p.is_up(StationId(0)));
        }
        p.step(&mut events);
        assert!(events.contains(&ChurnEvent::Restart(StationId(0))));
        assert!(p.is_up(StationId(0)));
    }

    #[test]
    fn late_join_and_leave_fire_at_scheduled_slots() {
        let plan = ChurnPlan {
            late_join_frac: 0.2,
            join_slot: 10,
            leave_frac: 0.1,
            leave_slot: 20,
            ..ChurnPlan::none()
        };
        let mut p = ChurnProcess::new(plan, 10, Rng::new(2));
        // Two joiners (highest indices), one leaver (lowest index).
        assert!(!p.is_up(StationId(8)));
        assert!(!p.is_up(StationId(9)));
        assert!(p.is_up(StationId(0)));
        let mut events = Vec::new();
        for _ in 0..9 {
            p.step(&mut events);
        }
        assert!(events.is_empty());
        p.step(&mut events);
        assert_eq!(
            events,
            vec![
                ChurnEvent::Join(StationId(8)),
                ChurnEvent::Join(StationId(9))
            ]
        );
        assert!(p.is_up(StationId(9)));
        events.clear();
        for _ in 0..10 {
            p.step(&mut events);
        }
        assert_eq!(events, vec![ChurnEvent::Leave(StationId(0))]);
        assert!(!p.is_up(StationId(0)));
        assert!(!p.is_present(StationId(0)));
        assert_eq!(p.joins(), 2);
        assert_eq!(p.leaves(), 1);
    }

    #[test]
    fn out_of_range_stations_are_always_up() {
        let p = ChurnProcess::new(ChurnPlan::crash_restart(1.0, 2, 10), 2, Rng::new(5));
        assert!(p.is_up(StationId(99)));
        assert!(p.is_present(StationId(99)));
    }

    /// The per-station process as it was before the derived counts: both
    /// passes scan every station on every slot, and the next transition
    /// is found by a scan. The event-cost process must match it exactly.
    struct Reference {
        plan: ChurnPlan,
        rng: Rng,
        state: Vec<MemberState>,
        leave_at: Vec<u64>,
        slot: u64,
        counters: [u64; 4],
    }

    impl Reference {
        fn of(p: &ChurnProcess) -> Self {
            Reference {
                plan: p.plan,
                rng: p.rng.clone(),
                state: p.state.clone(),
                leave_at: p.leave_at.clone(),
                slot: p.slot,
                counters: [p.crashes, p.restarts, p.joins, p.leaves],
            }
        }

        fn step(&mut self, events: &mut Vec<ChurnEvent>) {
            self.slot += 1;
            if self.plan.is_none() {
                return;
            }
            let slot = self.slot;
            for i in 0..self.state.len() {
                let id = StationId(i as u32);
                if self.state[i] == MemberState::Absent && slot >= self.plan.join_slot {
                    self.state[i] = MemberState::Up;
                    self.counters[2] += 1;
                    events.push(ChurnEvent::Join(id));
                }
                if self.leave_at[i] <= slot && self.state[i] != MemberState::Left {
                    self.state[i] = MemberState::Left;
                    self.counters[3] += 1;
                    events.push(ChurnEvent::Leave(id));
                }
            }
            for i in 0..self.state.len() {
                match self.state[i] {
                    MemberState::Up => {
                        if self.plan.crash > 0.0 && self.rng.chance(self.plan.crash) {
                            self.state[i] = MemberState::Down {
                                remaining: self.plan.down_slots,
                            };
                            self.counters[0] += 1;
                            events.push(ChurnEvent::Crash(StationId(i as u32)));
                        }
                    }
                    MemberState::Down { remaining } => {
                        if remaining <= 1 {
                            self.state[i] = MemberState::Up;
                            self.counters[1] += 1;
                            events.push(ChurnEvent::Restart(StationId(i as u32)));
                        } else {
                            self.state[i] = MemberState::Down {
                                remaining: remaining - 1,
                            };
                        }
                    }
                    MemberState::Absent | MemberState::Left => {}
                }
            }
        }

        fn next_scheduled_transition(&self) -> Option<u64> {
            if self.plan.is_none() {
                return None;
            }
            if self.plan.crash > 0.0 {
                return Some(self.slot + 1);
            }
            let mut next: Option<u64> = None;
            let consider = |candidate: u64, next: &mut Option<u64>| {
                let c = candidate.max(self.slot + 1);
                *next = Some(next.map_or(c, |n: u64| n.min(c)));
            };
            for (i, m) in self.state.iter().enumerate() {
                match m {
                    MemberState::Absent => consider(self.plan.join_slot, &mut next),
                    MemberState::Down { .. } => consider(self.slot + 1, &mut next),
                    MemberState::Up | MemberState::Left => {}
                }
                if self.leave_at[i] != u64::MAX && !matches!(m, MemberState::Left) {
                    consider(self.leave_at[i], &mut next);
                }
            }
            next
        }
    }

    fn random_plan(rng: &mut Rng) -> ChurnPlan {
        let crash = match rng.below(4) {
            0 => 0.0,
            1 => 1.0,
            _ => 0.001 + rng.f64() * 0.05,
        };
        let join_slot = rng.below(120);
        ChurnPlan {
            crash,
            down_slots: if rng.below(3) == 0 {
                1
            } else {
                1 + rng.below(30)
            },
            // Fractions up to 0.8 each, so joiners and leavers overlap
            // in some plans; some plans join and leave at the same slot
            // and some leave before they join.
            late_join_frac: [0.0, rng.f64() * 0.8][rng.below(2) as usize],
            join_slot,
            leave_frac: [0.0, rng.f64() * 0.8][rng.below(2) as usize],
            leave_slot: match rng.below(3) {
                0 => join_slot,
                1 => join_slot / 2,
                _ => rng.below(240),
            },
            catch_up_slots: 10,
            ..ChurnPlan::none()
        }
    }

    fn round_trip(p: &ChurnProcess) -> ChurnProcess {
        let mut w = tcw_sim::snap::SnapWriter::new();
        p.save_state(&mut w);
        let words = w.into_words();
        let mut r = tcw_sim::snap::SnapReader::new(&words);
        let q = ChurnProcess::load_state(&mut r).expect("round trip");
        r.finish().expect("whole state consumed");
        q
    }

    #[test]
    fn event_cost_process_matches_the_per_station_reference() {
        let mut draws = Rng::new(0xC4_0001);
        // Events of each kind over the suite, so it cannot pass vacuously.
        let mut seen = [0u64; 4];
        for case in 0..300u64 {
            let plan = random_plan(&mut draws);
            let stations = 1 + draws.below(20) as u32;
            let mut p = ChurnProcess::new(plan, stations, Rng::new(case));
            let mut r = Reference::of(&p);
            let restore_at = draws.below(300);
            let (mut ep, mut er) = (Vec::new(), Vec::new());
            for slot in 0..300 {
                if slot == restore_at {
                    p = round_trip(&p);
                }
                assert_eq!(
                    p.next_scheduled_transition(),
                    r.next_scheduled_transition(),
                    "case {case} slot {slot}: {plan:?}"
                );
                p.step(&mut ep);
                r.step(&mut er);
                assert_eq!(ep, er, "case {case} slot {slot}: {plan:?}");
                assert_eq!(p.rng.state(), r.rng.state(), "case {case} slot {slot}");
                assert_eq!(
                    [p.crashes(), p.restarts(), p.joins(), p.leaves()],
                    r.counters,
                    "case {case} slot {slot}"
                );
                assert_eq!(p.slot(), r.slot);
                for (i, m) in r.state.iter().enumerate() {
                    let id = StationId(i as u32);
                    assert_eq!(p.is_up(id), *m == MemberState::Up, "case {case}");
                    assert_eq!(p.is_present(id), *m != MemberState::Left, "case {case}");
                }
                assert_eq!(p.state, r.state, "case {case} slot {slot}");
            }
            for ev in &ep {
                seen[match ev {
                    ChurnEvent::Crash(_) => 0,
                    ChurnEvent::Restart(_) => 1,
                    ChurnEvent::Join(_) => 2,
                    ChurnEvent::Leave(_) => 3,
                }] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "event mix {seen:?}");
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(ChurnPlan {
            crash: 1.5,
            ..ChurnPlan::none()
        }
        .check()
        .is_err());
        assert!(ChurnPlan {
            crash: 0.1,
            down_slots: 0,
            ..ChurnPlan::none()
        }
        .check()
        .is_err());
        assert!(ChurnPlan::none().check().is_ok());
    }
}
