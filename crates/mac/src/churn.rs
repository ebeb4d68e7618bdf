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
//! by listening. A station draws the slot of its next crash when it comes
//! up, so the process costs nothing between transitions (see
//! [`ChurnProcess`]).

use crate::message::{Message, StationId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tcw_sim::rng::Rng;
use tcw_sim::variates::Geometric;

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

/// One station's membership, with the probe slot of its next crash or
/// restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Member {
    /// Hears the channel, and crashes at step `crash_at`: 0 until the
    /// first step draws it, [`NEVER`] under a plan without crashes.
    Up { crash_at: u64 },
    /// Crashed; restarts at step `restart_at`.
    Down { restart_at: u64 },
    /// A late joiner that has not come up yet.
    Absent,
    /// Left permanently.
    Left,
}

/// The slot of a transition that never comes.
const NEVER: u64 = u64::MAX;

/// The membership process, stepped once per channel probe slot.
///
/// Each station is an alternating renewal process: up for a
/// Geometric(`crash`) number of probe slots, then down for exactly
/// `down_slots`. A station draws the slot of its next crash once, when it
/// comes up: the initial population at the first [`step`](Self::step)
/// (not in [`new`](Self::new), so [`stream`](Self::stream) is the
/// untouched fork until then), a late joiner when it joins and a crashed
/// station when it restarts. Members carry these absolute slots and the
/// process keeps the earliest one, so a step between transitions is one
/// comparison and [`next_scheduled_transition`](Self::next_scheduled_transition)
/// is exact. A queue keyed by due slot names the stations due at a
/// transition slot; the step makes one pass over them for joins and
/// leaves, then one for crashes and restarts, both in station order, and
/// only these passes draw. The queue is rebuilt on construction and on
/// load, and is not serialized.
#[derive(Debug)]
pub struct ChurnProcess {
    plan: ChurnPlan,
    /// Derived: `!plan.is_none()`, read at every round.
    active: bool,
    rng: Rng,
    members: Vec<Member>,
    /// Slot at which each station leaves permanently ([`NEVER`] = never).
    leave_at: Vec<u64>,
    slot: u64,
    crashes: u64,
    restarts: u64,
    joins: u64,
    leaves: u64,
    /// Derived: up-period lengths, `None` without crashes.
    up_time: Option<Geometric>,
    /// Derived: `(due slot, station)` for every station with a pending
    /// transition, earliest first; one entry per station.
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// Reused buffer for the stations due at one transition slot.
    popped: Vec<u32>,
    /// Derived: the earliest due slot, [`NEVER`] if none.
    next: u64,
}

impl ChurnProcess {
    /// Creates a membership process over `stations` stations. `rng` must
    /// be a dedicated substream (the engine forks it as `"churn"` from the
    /// master seed). With a [`ChurnPlan::none`] plan the stream is never
    /// touched.
    pub fn new(plan: ChurnPlan, stations: u32, rng: Rng) -> Self {
        plan.validate();
        let n = stations as usize;
        let share = |frac: f64| {
            if frac > 0.0 {
                ((frac * n as f64).ceil() as usize).min(n)
            } else {
                0
            }
        };
        let crash_at = if plan.crash > 0.0 { 0 } else { NEVER };
        let mut members = vec![Member::Up { crash_at }; n];
        // Late joiners occupy the highest indices, leavers the lowest, so
        // the two sets only overlap when the fractions sum past 1.
        for m in members.iter_mut().skip(n - share(plan.late_join_frac)) {
            *m = Member::Absent;
        }
        let mut leave_at = vec![NEVER; n];
        for l in leave_at.iter_mut().take(share(plan.leave_frac)) {
            *l = plan.leave_slot;
        }
        let mut p = ChurnProcess {
            plan,
            active: !plan.is_none(),
            rng,
            members,
            leave_at,
            slot: 0,
            crashes: 0,
            restarts: 0,
            joins: 0,
            leaves: 0,
            up_time: (plan.crash > 0.0).then(|| Geometric::new(plan.crash)),
            queue: BinaryHeap::new(),
            popped: Vec::new(),
            next: NEVER,
        };
        p.derive();
        p
    }

    /// A process with no stations and no plan (the engine default before
    /// [`ChurnProcess::new`] replaces it).
    pub fn disabled(rng: Rng) -> Self {
        Self::new(ChurnPlan::none(), 0, rng)
    }

    /// The next slot at which station `i` is due to transition.
    fn due(&self, i: usize) -> u64 {
        let own = match self.members[i] {
            Member::Up { crash_at } => crash_at,
            Member::Down { restart_at } => restart_at,
            Member::Absent => self.plan.join_slot,
            Member::Left => return NEVER,
        };
        own.min(self.leave_at[i])
    }

    /// Rebuilds the due queue from the members.
    fn derive(&mut self) {
        self.queue = (0..self.members.len())
            .map(|i| Reverse((self.due(i), i as u32)))
            .filter(|e| e.0 .0 != NEVER)
            .collect();
        self.next = self.queue.peek().map_or(NEVER, |e| e.0 .0);
    }

    /// The crash slot of a station whose first slot up is `from + 1`:
    /// `from + G` for G ~ Geometric(`crash`), one draw (none at
    /// `crash = 1`, where G is 1).
    fn crash_after(&mut self, from: u64) -> u64 {
        match self.up_time {
            Some(g) => from.saturating_add(g.sample(&mut self.rng)),
            None => NEVER,
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &ChurnPlan {
        &self.plan
    }

    /// Whether the plan changes the shared membership at all.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// A clone of the current RNG stream position. The engine uses this
    /// to rebuild the process when a plan is installed before a run
    /// starts (the first step makes the first draw, so before it the
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
        match self.members.get(station.0 as usize) {
            Some(m) => matches!(m, Member::Up { .. }),
            None => true,
        }
    }

    /// Whether the station still exists (it may be down, but has not left
    /// permanently). Messages of present stations stay resolvable;
    /// messages of departed stations never will be.
    pub fn is_present(&self, station: StationId) -> bool {
        match self.members.get(station.0 as usize) {
            Some(m) => !matches!(m, Member::Left),
            None => true,
        }
    }

    /// Drops messages whose sender cannot currently transmit.
    pub fn retain_up(&self, msgs: &mut Vec<Message>) {
        msgs.retain(|m| self.is_up(m.station));
    }

    /// The earliest future probe slot (strictly after the current one) at
    /// which [`step`](Self::step) will emit an event or change any
    /// member's state, or `None` if no transition will ever occur: the
    /// next slot until the first step has drawn the initial crash slots,
    /// then the earliest scheduled join or leave or drawn crash or
    /// restart. O(1). The engine's event-horizon fast path uses this to
    /// bound how many slots it may [`skip_slots`](Self::skip_slots) past.
    pub fn next_scheduled_transition(&self) -> Option<u64> {
        (self.next != NEVER).then(|| self.next.max(self.slot + 1))
    }

    /// Advances the slot clock by `n` without stepping the state machine,
    /// for runs of slots proven transition-free via
    /// [`next_scheduled_transition`](Self::next_scheduled_transition).
    /// Draws nothing and emits nothing, so it is bit-identical to `n`
    /// transition-free [`step`](Self::step) calls.
    #[inline]
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
    /// transitions to `events`. Between transitions this is one
    /// comparison and draws nothing.
    #[inline]
    pub fn step(&mut self, events: &mut Vec<ChurnEvent>) {
        self.slot += 1;
        if self.slot >= self.next {
            self.transition(events);
        }
    }

    /// The transitions due at the current slot, in one fixed order. The
    /// stations that were due go back on the queue at their next due
    /// slots.
    fn transition(&mut self, events: &mut Vec<ChurnEvent>) {
        let slot = self.slot;
        let mut stations = std::mem::take(&mut self.popped);
        stations.clear();
        while let Some(&Reverse((at, i))) = self.queue.peek() {
            if at > slot {
                break;
            }
            self.queue.pop();
            stations.push(i);
        }
        stations.sort_unstable();
        // Scheduled membership first: joins and permanent leaves happen at
        // exact slots. A joiner is up in its join slot, so it can crash in
        // it.
        for &id in &stations {
            let i = id as usize;
            if self.members[i] == (Member::Up { crash_at: 0 }) {
                // The initial population, at the first step.
                let crash_at = self.crash_after(0);
                self.members[i] = Member::Up { crash_at };
            }
            if self.members[i] == Member::Absent && slot >= self.plan.join_slot {
                let crash_at = self.crash_after(slot - 1);
                self.members[i] = Member::Up { crash_at };
                self.joins += 1;
                events.push(ChurnEvent::Join(StationId(id)));
            }
            if self.leave_at[i] <= slot && self.members[i] != Member::Left {
                self.members[i] = Member::Left;
                self.leaves += 1;
                events.push(ChurnEvent::Leave(StationId(id)));
            }
        }
        // Then crashes and restarts. A restarted station is up from the
        // next slot on.
        for &id in &stations {
            let i = id as usize;
            match self.members[i] {
                Member::Up { crash_at } if crash_at <= slot => {
                    let restart_at = slot.saturating_add(self.plan.down_slots);
                    self.members[i] = Member::Down { restart_at };
                    self.crashes += 1;
                    events.push(ChurnEvent::Crash(StationId(id)));
                }
                Member::Down { restart_at } if restart_at <= slot => {
                    let crash_at = self.crash_after(slot);
                    self.members[i] = Member::Up { crash_at };
                    self.restarts += 1;
                    events.push(ChurnEvent::Restart(StationId(id)));
                }
                _ => {}
            }
        }
        for &id in &stations {
            let at = self.due(id as usize);
            if at != NEVER {
                self.queue.push(Reverse((at, id)));
            }
        }
        self.next = self.queue.peek().map_or(NEVER, |e| e.0 .0);
        self.popped = stations;
    }

    /// Whether the plan can have put `m` where it is by the current slot.
    fn reachable(&self, m: Member) -> bool {
        let (slot, plan) = (self.slot, &self.plan);
        match m {
            Member::Up { crash_at } if plan.crash == 0.0 => crash_at == NEVER,
            Member::Up { crash_at } if slot == 0 => crash_at == 0,
            Member::Up { crash_at } if plan.crash >= 1.0 => crash_at == slot.saturating_add(1),
            Member::Up { crash_at } => crash_at > slot,
            // It crashed at `restart_at - down_slots`, in `1..=slot`.
            Member::Down { restart_at } => {
                plan.crash > 0.0
                    && restart_at > slot.max(plan.down_slots)
                    && restart_at - plan.down_slots <= slot
            }
            Member::Absent | Member::Left => true,
        }
    }

    /// Serializes the full membership state (plan, RNG position, per-station
    /// states with their crash or restart slots, leave schedule, slot clock,
    /// event counters) for an engine checkpoint.
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
        w.push_usize(self.members.len());
        for m in &self.members {
            // Fixed two words per member: tag + crash or restart slot.
            let (tag, at) = match *m {
                Member::Up { crash_at } => (0u64, crash_at),
                Member::Down { restart_at } => (1, restart_at),
                Member::Absent => (2, 0),
                Member::Left => (3, 0),
            };
            w.push(tag);
            w.push(at);
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
    /// [`ChurnProcess::save_state`]. A crash or restart slot that the plan
    /// cannot have reached by the saved slot is an error.
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
        let mut p = ChurnProcess::new(plan, 0, Rng::from_state(s));
        let n = r.take_len()?;
        for _ in 0..n {
            let (tag, at) = (r.take()?, r.take()?);
            p.members.push(match (tag, at) {
                (0, crash_at) => Member::Up { crash_at },
                (1, restart_at) => Member::Down { restart_at },
                (2, 0) => Member::Absent,
                (3, 0) => Member::Left,
                _ => {
                    return Err(tcw_sim::snap::SnapError::new(format!(
                        "invalid member state: tag {tag}, slot {at}"
                    )))
                }
            });
        }
        for _ in 0..n {
            p.leave_at.push(r.take()?);
        }
        p.slot = r.take()?;
        p.crashes = r.take()?;
        p.restarts = r.take()?;
        p.joins = r.take()?;
        p.leaves = r.take()?;
        if let Some(m) = p.members.iter().find(|&&m| !p.reachable(m)) {
            return Err(tcw_sim::snap::SnapError::new(format!(
                "member state {m:?} unreachable at slot {} under {:?}",
                p.slot, p.plan
            )));
        }
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

    /// At the first step the due queue holds joiners due at slot 0 ahead
    /// of leavers due at slot 1; the step still handles them in station
    /// order, as a pass over all stations would.
    #[test]
    fn stations_due_at_different_slots_step_in_station_order() {
        let plan = ChurnPlan {
            late_join_frac: 0.2,
            join_slot: 0,
            leave_frac: 0.2,
            leave_slot: 1,
            ..ChurnPlan::none()
        };
        let mut p = ChurnProcess::new(plan, 10, Rng::new(4));
        let mut events = Vec::new();
        p.step(&mut events);
        use ChurnEvent::{Join, Leave};
        let s = StationId;
        assert_eq!(events, [Leave(s(0)), Leave(s(1)), Join(s(8)), Join(s(9))]);
    }

    #[test]
    fn out_of_range_stations_are_always_up() {
        let p = ChurnProcess::new(ChurnPlan::crash_restart(1.0, 2, 10), 2, Rng::new(5));
        assert!(p.is_up(StationId(99)));
        assert!(p.is_present(StationId(99)));
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

    fn words(p: &ChurnProcess) -> Vec<u64> {
        let mut w = tcw_sim::snap::SnapWriter::new();
        p.save_state(&mut w);
        w.into_words()
    }

    fn round_trip(p: &ChurnProcess) -> ChurnProcess {
        let words = words(p);
        let mut r = tcw_sim::snap::SnapReader::new(&words);
        let q = ChurnProcess::load_state(&mut r).expect("round trip");
        r.finish().expect("whole state consumed");
        q
    }

    /// The crash clock as a naive scan: every slot visits every station
    /// for joins and leaves and then for crashes and restarts, drawing as
    /// the process does, and the next transition is found by a scan. The
    /// process, which scans only at transition slots, must match it
    /// exactly.
    struct Reference {
        plan: ChurnPlan,
        rng: Rng,
        members: Vec<Member>,
        leave_at: Vec<u64>,
        slot: u64,
        counters: [u64; 4],
    }

    impl Reference {
        fn new(plan: ChurnPlan, stations: u32, rng: Rng) -> Self {
            let n = stations as usize;
            let count = |frac: f64| ((frac * n as f64).ceil() as usize).min(n);
            let up = Member::Up { crash_at: NEVER };
            Reference {
                plan,
                rng,
                members: (0..n)
                    .map(|i| match i + count(plan.late_join_frac) >= n {
                        true => Member::Absent,
                        false => up,
                    })
                    .collect(),
                leave_at: (0..n)
                    .map(|i| match i < count(plan.leave_frac) {
                        true => plan.leave_slot,
                        false => NEVER,
                    })
                    .collect(),
                slot: 0,
                counters: [0; 4],
            }
        }

        /// `from + G`, with G drawn as the process draws it.
        fn crash_after(&mut self, from: u64) -> u64 {
            match self.plan.crash > 0.0 {
                true => from + Geometric::new(self.plan.crash).sample(&mut self.rng),
                false => NEVER,
            }
        }

        fn step(&mut self, events: &mut Vec<ChurnEvent>) {
            self.slot += 1;
            let slot = self.slot;
            for i in 0..self.members.len() {
                let id = StationId(i as u32);
                if slot == 1 && matches!(self.members[i], Member::Up { .. }) {
                    self.members[i] = Member::Up {
                        crash_at: self.crash_after(0),
                    };
                }
                if self.members[i] == Member::Absent && slot >= self.plan.join_slot {
                    self.members[i] = Member::Up {
                        crash_at: self.crash_after(slot - 1),
                    };
                    self.counters[2] += 1;
                    events.push(ChurnEvent::Join(id));
                }
                if self.leave_at[i] <= slot && self.members[i] != Member::Left {
                    self.members[i] = Member::Left;
                    self.counters[3] += 1;
                    events.push(ChurnEvent::Leave(id));
                }
            }
            for i in 0..self.members.len() {
                let id = StationId(i as u32);
                match self.members[i] {
                    Member::Up { crash_at } if crash_at == slot => {
                        self.members[i] = Member::Down {
                            restart_at: slot + self.plan.down_slots,
                        };
                        self.counters[0] += 1;
                        events.push(ChurnEvent::Crash(id));
                    }
                    Member::Down { restart_at } if restart_at == slot => {
                        self.members[i] = Member::Up {
                            crash_at: self.crash_after(slot),
                        };
                        self.counters[1] += 1;
                        events.push(ChurnEvent::Restart(id));
                    }
                    _ => {}
                }
            }
        }

        fn next_scheduled_transition(&self) -> Option<u64> {
            // The first step draws the initial crash slots.
            let undrawn = self.slot == 0 && self.plan.crash > 0.0;
            let mut due = Vec::new();
            for (m, &leave) in self.members.iter().zip(&self.leave_at) {
                match *m {
                    Member::Up { .. } if undrawn => due.push(1),
                    Member::Up { crash_at } => due.push(crash_at),
                    Member::Down { restart_at } => due.push(restart_at),
                    Member::Absent => due.push(self.plan.join_slot),
                    Member::Left => continue,
                }
                due.push(leave);
            }
            due.into_iter()
                .filter(|&s| s != NEVER)
                .min()
                .map(|s| s.max(self.slot + 1))
        }
    }

    /// The process matches the naive scan slot by slot over random plans:
    /// events, stream position, counters, member states and the next
    /// transition, with a snapshot round trip at a random slot. A slot
    /// that draws or transitions is always the one announced.
    #[test]
    fn event_cost_process_matches_the_per_station_reference() {
        let mut draws = Rng::new(0xC4_0001);
        // Events of each kind over the suite, so it cannot pass vacuously.
        let mut seen = [0u64; 4];
        for case in 0..300u64 {
            let plan = random_plan(&mut draws);
            let stations = 1 + draws.below(20) as u32;
            let restore_at = draws.below(300);
            let mut p = ChurnProcess::new(plan, stations, Rng::new(case));
            let mut r = Reference::new(plan, stations, Rng::new(case));
            let (mut ep, mut er) = (Vec::new(), Vec::new());
            for slot in 0..300 {
                if slot == restore_at {
                    p = round_trip(&p);
                }
                let at = format!("case {case} slot {slot}: {plan:?}");
                let next = r.next_scheduled_transition();
                assert_eq!(p.next_scheduled_transition(), next, "{at}");
                let (stream, before) = (r.rng.state(), er.len());
                p.step(&mut ep);
                r.step(&mut er);
                if r.rng.state() != stream || er.len() > before {
                    assert_eq!(next, Some(slot + 1), "{at}: unannounced transition");
                }
                assert_eq!(ep, er, "{at}");
                assert_eq!(p.rng.state(), r.rng.state(), "{at}");
                assert_eq!(
                    [p.crashes(), p.restarts(), p.joins(), p.leaves()],
                    r.counters,
                    "{at}"
                );
                assert_eq!(p.slot(), r.slot, "{at}");
                assert_eq!(p.members, r.members, "{at}");
                for (i, m) in r.members.iter().enumerate() {
                    let id = StationId(i as u32);
                    assert_eq!(p.is_up(id), matches!(m, Member::Up { .. }), "{at}");
                    assert_eq!(p.is_present(id), *m != Member::Left, "{at}");
                }
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

    /// The initial crash slots are drawn at the first step, not in `new`:
    /// until then the stream is the untouched fork, which
    /// `Engine::set_churn_plan` rebuilds from, and the next transition is
    /// the next slot, also after a snapshot round trip.
    #[test]
    fn initial_crash_slots_are_drawn_at_the_first_step() {
        let mut p = ChurnProcess::new(ChurnPlan::crash_restart(0.001, 10, 10), 5, Rng::new(21));
        assert_eq!(p.stream().state(), Rng::new(21).state());
        assert_eq!(p.next_scheduled_transition(), Some(1));
        p = round_trip(&p);
        assert_eq!(p.next_scheduled_transition(), Some(1));
        p.step(&mut Vec::new());
        let mut witness = Rng::new(21);
        let g = Geometric::new(0.001);
        let first = (0..5).map(|_| g.sample(&mut witness)).min();
        assert_eq!(p.stream().state(), witness.state());
        assert!(first > Some(1), "a crash at slot 1: {first:?}");
        assert_eq!(p.next_scheduled_transition(), first);
    }

    /// Slot arithmetic at crash = 1, where G is 1 and nothing is drawn: a
    /// station that joins at slot j crashes at j (its crash slot is
    /// j − 1 + G), a crash at c restarts at c + D, and a restarted station
    /// cannot crash in its restart slot.
    #[test]
    fn joiners_crash_from_their_join_slot_and_restarts_from_the_next() {
        let plan = ChurnPlan {
            late_join_frac: 1.0,
            join_slot: 5,
            ..ChurnPlan::crash_restart(1.0, 3, 10)
        };
        let mut p = ChurnProcess::new(plan, 1, Rng::new(8));
        let mut log = Vec::new();
        for _ in 0..12 {
            let mut events = Vec::new();
            p.step(&mut events);
            log.extend(events.into_iter().map(|ev| (p.slot(), ev)));
        }
        let s = StationId(0);
        use ChurnEvent::{Crash, Join, Restart};
        assert_eq!(
            log,
            [
                (5, Join(s)),
                (5, Crash(s)),
                (8, Restart(s)),
                (9, Crash(s)),
                (12, Restart(s))
            ]
        );
        assert_eq!(p.stream().state(), Rng::new(8).state());
    }

    /// On a crash plan the stream advances exactly one draw per station
    /// that comes up: each station of the initial population at the first
    /// step, each restart and each join. A plan without crashes draws
    /// nothing, and neither does crash = 1.
    #[test]
    fn the_stream_advances_one_draw_per_station_that_comes_up() {
        let scheduled = ChurnPlan {
            late_join_frac: 0.3,
            join_slot: 700,
            leave_frac: 0.2,
            leave_slot: 1_500,
            ..ChurnPlan::none()
        };
        let crashing = ChurnPlan {
            crash: 0.01,
            down_slots: 30,
            ..scheduled
        };
        for (plan, draws_per_station) in [
            (crashing, 1),
            (ChurnPlan::crash_restart(0.01, 30, 10), 1),
            (
                ChurnPlan {
                    crash: 1.0,
                    ..crashing
                },
                0,
            ),
            (scheduled, 0),
            (ChurnPlan::none(), 0),
        ] {
            let mut p = ChurnProcess::new(plan, 20, Rng::new(5));
            let initial = (0..20).filter(|&i| p.is_up(StationId(i))).count() as u64;
            for _ in 0..3_000 {
                p.step(&mut Vec::new());
            }
            let came_up = initial + p.restarts() + p.joins();
            let mut witness = Rng::new(5);
            for _ in 0..draws_per_station * came_up {
                witness.next_u64();
            }
            assert_eq!(p.stream().state(), witness.state(), "{plan:?}");
            if plan.crash > 0.0 {
                assert!(p.restarts() > 20, "{} restarts", p.restarts());
            }
            assert_eq!(p.joins(), if plan.late_join_frac > 0.0 { 6 } else { 0 });
        }
    }

    /// Per-station statistics of one long run: each station's down
    /// fraction and crash rate, and the lengths of the up periods that
    /// began in the run's first half. Every one of those ends inside the
    /// run unless it is longer than half of it, which has probability
    /// (1 − p)^(slots/2).
    struct Law {
        per_station: Vec<[f64; 2]>,
        up_periods: Vec<u64>,
    }

    /// The crash clock over `slots` slots, skipped from transition to
    /// transition.
    fn crash_clock(p: f64, d: u64, stations: u32, slots: u64, seed: u64) -> Law {
        let plan = ChurnPlan::crash_restart(p, d, 0);
        let mut clock = ChurnProcess::new(plan, stations, Rng::new(seed));
        let n = stations as usize;
        // The slot of each station's last crash or restart.
        let (mut since, mut crashes, mut down) = (vec![0; n], vec![0; n], vec![0; n]);
        let mut up_periods = Vec::new();
        let mut events = Vec::new();
        while let Some(at) = clock.next_scheduled_transition().filter(|&at| at <= slots) {
            clock.skip_slots(at - clock.slot() - 1);
            clock.step(&mut events);
            for ev in events.drain(..) {
                let i = ev.station().0 as usize;
                match ev {
                    ChurnEvent::Crash(_) if since[i] < slots / 2 => up_periods.push(at - since[i]),
                    ChurnEvent::Crash(_) => {}
                    ChurnEvent::Restart(_) => down[i] += at - since[i],
                    ev => panic!("{ev:?} under a crash-only plan"),
                }
                crashes[i] += u64::from(matches!(ev, ChurnEvent::Crash(_)));
                since[i] = at;
            }
        }
        for i in 0..n {
            if !clock.is_up(StationId(i as u32)) {
                down[i] += slots + 1 - since[i];
            }
        }
        Law {
            per_station: (0..n)
                .map(|i| {
                    [
                        down[i] as f64 / slots as f64,
                        crashes[i] as f64 / slots as f64,
                    ]
                })
                .collect(),
            up_periods,
        }
    }

    /// The per-slot Bernoulli process the crash clock replaced, kept as
    /// the law reference: every up station crashes with probability `p`
    /// in each slot, is down in that slot and the next `d − 1`, and draws
    /// again from the slot after its restart. Per-station down fraction
    /// and crash rate.
    fn bernoulli(p: f64, d: u64, stations: u32, slots: u64, seed: u64) -> Vec<[f64; 2]> {
        let n = stations as usize;
        let mut rng = Rng::new(seed);
        let threshold = Rng::chance_threshold(p);
        let (mut remaining, mut crashes, mut down) = (vec![0; n], vec![0; n], vec![0; n]);
        for _ in 0..slots {
            for i in 0..n {
                if remaining[i] > 0 {
                    remaining[i] -= 1;
                } else if rng.chance_below(threshold) {
                    remaining[i] = d;
                    crashes[i] += 1;
                }
                down[i] += u64::from(remaining[i] > 0);
            }
        }
        (0..n)
            .map(|i| {
                [
                    down[i] as f64 / slots as f64,
                    crashes[i] as f64 / slots as f64,
                ]
            })
            .collect()
    }

    /// Mean and standard error of independent replicates.
    fn mean_se(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// Pearson's statistic of `samples` against Geometric(p) on
    /// {1, 2, ...}, over `bins` bins cut at its quantiles j/bins.
    fn chi_square_geometric(samples: &[u64], p: f64, bins: usize) -> f64 {
        let ln_q = (-p).ln_1p();
        let tail = |k: u64| (k as f64 * ln_q).exp();
        let mut edges: Vec<u64> = (1..bins)
            .map(|j| ((1.0 - j as f64 / bins as f64).ln() / ln_q).ceil() as u64)
            .collect();
        edges.dedup();
        edges.push(u64::MAX);
        let mut observed = vec![0u64; edges.len()];
        for &g in samples {
            observed[edges.partition_point(|&e| e < g)] += 1;
        }
        let mut lo = 0;
        let mut chi2 = 0.0;
        for (&hi, &o) in edges.iter().zip(&observed) {
            let prob = tail(lo) - if hi == u64::MAX { 0.0 } else { tail(hi) };
            let expected = prob * samples.len() as f64;
            chi2 += (o as f64 - expected).powi(2) / expected;
            lo = hi;
        }
        chi2
    }

    /// Each station alternates Geometric(p) up periods with outages of
    /// exactly D slots, so the renewal theorem gives its long-run down
    /// fraction D/(1/p + D) and crash rate 1/(1/p + D). Checked at three
    /// (p, D), with per-station replicates (four seeds × 25 stations ×
    /// 1 000 cycles for the clock, two seeds × 25 × 100 for the per-slot
    /// reference, whose every slot draws): the clock and the reference
    /// each lie within four standard errors of the renewal values and
    /// of each other, and the clock's up periods pass a chi-square test
    /// against Geometric(p).
    #[test]
    fn crash_clock_follows_the_renewal_law() {
        for (p, d) in [(0.002, 200), (0.0005, 200), (0.01, 20)] {
            let cycle = 1.0 / p + d as f64;
            let clock: Vec<Law> = (0..4)
                .map(|seed| crash_clock(p, d, 25, (1_000.0 * cycle) as u64, seed))
                .collect();
            let reference: Vec<[f64; 2]> = (10..12)
                .flat_map(|seed| bernoulli(p, d, 25, (100.0 * cycle) as u64, seed))
                .collect();
            let renewal = [d as f64 / cycle, 1.0 / cycle];
            for (k, name) in ["down fraction", "crash rate"].into_iter().enumerate() {
                let stat = |per_station: &mut dyn Iterator<Item = &[f64; 2]>| {
                    mean_se(&per_station.map(|s| s[k]).collect::<Vec<_>>())
                };
                let (c, c_se) = stat(&mut clock.iter().flat_map(|l| &l.per_station));
                let (b, b_se) = stat(&mut reference.iter());
                let at = format!(
                    "p={p} D={d} {name}: renewal {:.6}, clock {c:.6} ± {c_se:.6}, \
                     per-slot {b:.6} ± {b_se:.6}",
                    renewal[k]
                );
                assert!((c - renewal[k]).abs() <= 4.0 * c_se, "{at}");
                assert!((b - renewal[k]).abs() <= 4.0 * b_se, "{at}");
                assert!((c - b).abs() <= 4.0 * c_se.hypot(b_se), "{at}");
            }
            let periods: Vec<u64> = clock.iter().flat_map(|l| l.up_periods.clone()).collect();
            // 20 bins, 19 degrees of freedom: 43.82 is the 0.1% critical
            // value of chi-square.
            let chi2 = chi_square_geometric(&periods, p, 20);
            assert!(
                chi2 < 43.82,
                "p={p} D={d}: chi2 {chi2:.1} over {} up periods",
                periods.len()
            );
        }
    }

    /// A snapshot whose crash or restart slot the saved slot and the plan
    /// rule out is refused; the words of a reachable state load.
    #[test]
    fn load_rejects_slots_the_plan_rules_out() {
        let plan = ChurnPlan::crash_restart(0.05, 10, 10);
        let mut p = ChurnProcess::new(plan, 6, Rng::new(3));
        for _ in 0..200 {
            p.step(&mut Vec::new());
        }
        let (slot, down) = (p.slot(), plan.down_slots);
        let member = |tag: u64, at: u64| {
            let mut q = ChurnProcess::new(plan, 0, p.stream());
            q.members = vec![match tag {
                0 => Member::Up { crash_at: at },
                _ => Member::Down { restart_at: at },
            }];
            q.leave_at = vec![NEVER];
            q.slot = slot;
            let words = words(&q);
            ChurnProcess::load_state(&mut tcw_sim::snap::SnapReader::new(&words)).is_ok()
        };
        assert!(member(0, slot + 1) && member(0, NEVER));
        assert!(member(1, slot + 1) && member(1, slot + down));
        // A crash or restart already past, or a restart more than D away.
        assert!(!member(0, slot) && !member(0, 0));
        assert!(!member(1, slot) && !member(1, slot + down + 1));
        // Before the first step an up station's crash slot is not drawn.
        let fresh = ChurnProcess::new(plan, 3, Rng::new(3));
        let mut w = words(&fresh);
        // Nine plan words, four of stream state and the member count, then
        // the first member's tag and crash slot.
        let first_crash_at = 9 + 4 + 1 + 1;
        assert_eq!(w[first_crash_at - 1..=first_crash_at], [0, 0]);
        w[first_crash_at] = 7;
        assert!(ChurnProcess::load_state(&mut tcw_sim::snap::SnapReader::new(&w)).is_err());
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
