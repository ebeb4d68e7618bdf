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
//! by listening. When its plan draws and a core is idle, the process
//! draws ahead on a worker thread (see [`ChurnProcess`]); no output
//! depends on which path it takes.

use crate::message::{Message, StationId};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcw_sim::cores::{self, Busy, Cores};
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

/// Slots one chunk of drawn-ahead transitions covers. At 512 slots a
/// 50-station crash plan is ~25 600 draws (~40–100 µs on a 2-vCPU Xeon
/// VM): the two channel hand-offs per chunk cost a few percent of that,
/// and [`ChurnProcess::save_state`] re-draws at most one chunk.
const CHUNK_SLOTS: u64 = 512;

/// Drawn chunks the channel holds. With the chunk being applied and the
/// one the worker fills, `DEPTH + 2` chunks circulate, all made when the
/// worker starts.
const DEPTH: usize = 4;

/// How long the engine's side spins on an empty channel before it
/// sleeps. Where the draws take longer than the rest of the run, the
/// engine waits for nearly every chunk, and waking it cost the worker a
/// system call of 2–16 µs per chunk on a 2-vCPU VM, a fifth of the
/// worker's time in the `churn` sweep; a chunk takes ~50–100 µs to draw,
/// so it mostly arrives within this. The worker does not spin: when it
/// is ahead, the engine is busy and the worker's core is better idle.
const SPIN: Duration = Duration::from_micros(200);

/// Run-ahead workers alive at once in a process. A worker that waits on
/// a full channel holds no core, so the busy count would let every
/// stepped process start one; this bounds the threads of a program that
/// keeps many stepped processes alive.
const MAX_WORKERS: usize = 16;

static WORKERS: Cores = Cores::new(0);

/// The membership state machine: everything a step reads or writes.
///
/// A step costs O(1) plus one crash draw per up station when
/// `crash > 0`: the per-station passes run only when a join, leave or
/// restart can be due, which the derived counts below tell without a
/// scan. The derived values are rebuilt from `state` and `leave_at` on
/// construction and on load and are not serialized, so the snapshot
/// format does not depend on them.
#[derive(Clone, Debug)]
struct Machine {
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

impl Machine {
    fn new(plan: ChurnPlan, stations: u32, rng: Rng) -> Self {
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
        let mut m = Machine {
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
        m.derive();
        m
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

    /// One probe slot, handing each transition to `emit`.
    fn step(&mut self, emit: &mut impl FnMut(ChurnEvent)) {
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
                    emit(ChurnEvent::Join(id));
                }
                if self.leave_at[i] <= slot && self.state[i] != MemberState::Left {
                    self.state[i] = MemberState::Left;
                    self.leaves += 1;
                    emit(ChurnEvent::Leave(id));
                }
            }
            self.derive();
        }
        if self.crash_threshold > 0 || self.down > 0 {
            self.crash_and_restart(emit);
        }
    }

    /// Crash/restart dynamics: exactly one RNG draw per live station per
    /// slot (when crash > 0), in station order, so the stream is
    /// reproducible regardless of what the protocol is doing. The draws
    /// run on a local copy of the stream, written back once.
    fn crash_and_restart(&mut self, emit: &mut impl FnMut(ChurnEvent)) {
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
                        emit(ChurnEvent::Crash(StationId(i as u32)));
                    }
                }
                MemberState::Down { remaining } => {
                    if remaining <= 1 {
                        *m = MemberState::Up;
                        self.restarts += 1;
                        self.down -= 1;
                        emit(ChurnEvent::Restart(StationId(i as u32)));
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

    /// Records a transition drawn elsewhere: the member's up/down/absent/
    /// left state and the counters. Outage countdowns, derived counts and
    /// the stream are left as they were.
    fn apply(&mut self, ev: ChurnEvent) {
        let (member, counter) = match ev {
            ChurnEvent::Crash(_) => (
                MemberState::Down {
                    remaining: self.plan.down_slots,
                },
                &mut self.crashes,
            ),
            ChurnEvent::Restart(_) => (MemberState::Up, &mut self.restarts),
            ChurnEvent::Join(_) => (MemberState::Up, &mut self.joins),
            ChurnEvent::Leave(_) => (MemberState::Left, &mut self.leaves),
        };
        *counter += 1;
        self.state[ev.station().0 as usize] = member;
    }

    /// Draws the next `slots` slots into `chunk`.
    fn fill(&mut self, slots: u64, chunk: &mut Chunk) {
        chunk.events.clear();
        for _ in 0..slots {
            let slot = self.slot + 1;
            self.step(&mut |ev| chunk.events.push((slot, ev)));
        }
        chunk.end.copy_from(self);
    }

    /// Makes `self` equal to `src`, reusing `self`'s buffers.
    fn copy_from(&mut self, src: &Machine) {
        let mut state = std::mem::take(&mut self.state);
        let mut leave_at = std::mem::take(&mut self.leave_at);
        state.clone_from(&src.state);
        leave_at.clone_from(&src.leave_at);
        *self = Machine {
            rng: src.rng.clone(),
            state,
            leave_at,
            ..*src
        };
    }

    fn save(&self, w: &mut tcw_sim::snap::SnapWriter) {
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

    fn load(r: &mut tcw_sim::snap::SnapReader<'_>) -> Result<Self, tcw_sim::snap::SnapError> {
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
        let mut m = Machine::new(plan, 0, rng);
        m.state = state;
        m.leave_at = leave_at;
        m.slot = r.take()?;
        m.crashes = r.take()?;
        m.restarts = r.take()?;
        m.joins = r.take()?;
        m.leaves = r.take()?;
        m.derive();
        Ok(m)
    }
}

/// The membership state machine, stepped once per channel probe slot.
///
/// Nothing the protocol does feeds back into the process: its
/// trajectory is a function of its RNG stream and the slot count alone.
/// So when the plan draws (`crash > 0`, at least one station) and a core
/// is idle ([`tcw_sim::cores::try_claim`]), the first [`step`](Self::step)
/// starts a worker thread that runs the same per-slot step ahead of the
/// caller, 512 slots at a time. Each chunk's transitions, with the state
/// after its last slot, arrive over a bounded channel and go back over a
/// second one once applied, so the steady state allocates nothing.
/// `step` then only applies the slot's transitions: `is_up`,
/// `is_present`, the counters and `slot` are exact at every slot, on
/// either path. [`save_state`](Self::save_state) writes the same words
/// on either path, re-drawing at most one chunk from that chunk's start,
/// and a loaded process picks its path at its own first step. With every
/// core busy (a sweep pool as wide as the host) the process steps
/// inline, as it does when its plan draws nothing. Dropping the process
/// closes both channels and joins the worker; if the worker panicked,
/// the next `step` re-raises its panic.
#[derive(Debug)]
pub struct ChurnProcess {
    /// Inline, the exact machine. Running ahead, its membership,
    /// counters and slot, which the accessors read, are exact; its
    /// stream, outage countdowns and derived counts are not kept.
    m: Machine,
    path: Path,
}

/// How a process steps.
#[derive(Debug)]
enum Path {
    /// Not stepped yet: the first step picks the path.
    Undecided,
    /// Each step draws on the caller's thread.
    Inline,
    /// A worker draws ahead.
    Ahead(Box<RunAhead>),
}

/// A chunk of drawn-ahead slots.
#[derive(Debug)]
struct Chunk {
    /// The chunk's transitions in order, each with its slot.
    events: Vec<(u64, ChurnEvent)>,
    /// The machine after the chunk's last slot.
    end: Machine,
}

impl Chunk {
    fn new(m: &Machine) -> Self {
        Chunk {
            events: Vec::with_capacity(64),
            end: m.clone(),
        }
    }
}

/// The two claims a run-ahead worker holds: a place among the
/// [`MAX_WORKERS`] live workers, and an idle core while it draws.
type Claims = (Busy<'static>, Busy<'static>);

/// The caller's side of a run-ahead worker.
#[derive(Debug)]
struct RunAhead {
    // Fields drop in order: both channel ends close before `worker`
    // joins, which wakes a worker blocked on either channel.
    full: Receiver<Chunk>,
    empty: SyncSender<Chunk>,
    /// The chunk being applied.
    chunk: Chunk,
    /// Index in `chunk.events` of the next transition to apply.
    next: usize,
    /// The exact machine before `chunk`'s first slot.
    base: Machine,
    worker: Worker,
}

impl RunAhead {
    /// Starts a worker that fills chunks with `fill`, drawing from
    /// `start`; `None` when the host will not start a thread.
    fn spawn(
        start: &Machine,
        claims: Claims,
        fill: impl FnMut(&mut Chunk) + Send + 'static,
    ) -> Option<Self> {
        let (full_tx, full) = mpsc::sync_channel(DEPTH);
        let (empty, empty_rx) = mpsc::sync_channel(DEPTH + 2);
        for _ in 0..=DEPTH {
            empty
                .try_send(Chunk::new(start))
                .expect("the recycling channel holds every chunk");
        }
        let worker = std::thread::Builder::new()
            .name("churn-ahead".to_string())
            .spawn(move || draw_ahead(claims, full_tx, empty_rx, fill))
            .ok()?;
        Some(RunAhead {
            full,
            empty,
            // Used up from the start: the first step fetches chunk one.
            chunk: Chunk::new(start),
            next: 0,
            base: start.clone(),
            worker: Worker(Some(worker)),
        })
    }

    /// One slot: applies its transitions to `m` and appends them to
    /// `events`.
    #[inline]
    fn step(&mut self, m: &mut Machine, events: &mut Vec<ChurnEvent>) {
        m.slot += 1;
        if m.slot > self.chunk.end.slot {
            self.advance(m);
        }
        while let Some(&(slot, ev)) = self.chunk.events.get(self.next) {
            if slot != m.slot {
                break;
            }
            m.apply(ev);
            events.push(ev);
            self.next += 1;
        }
    }

    /// Moves on to the next chunk: the used-up chunk's end becomes the
    /// base, and its buffers go back to the worker.
    #[inline(never)]
    fn advance(&mut self, m: &Machine) {
        debug_assert_eq!(self.next, self.chunk.events.len(), "unapplied transitions");
        std::mem::swap(&mut self.base, &mut self.chunk.end);
        debug_assert!(
            self.base.slot + 1 == m.slot
                && [m.crashes, m.restarts, m.joins, m.leaves]
                    == [
                        self.base.crashes,
                        self.base.restarts,
                        self.base.joins,
                        self.base.leaves
                    ],
            "the applied transitions left the drawn ones"
        );
        let deadline = Instant::now() + SPIN;
        let next = loop {
            match self.full.try_recv() {
                Ok(chunk) => break chunk,
                Err(TryRecvError::Empty) if Instant::now() < deadline => std::hint::spin_loop(),
                Err(_) => match self.full.recv() {
                    Ok(chunk) => break chunk,
                    Err(_) => self.worker.reraise(),
                },
            }
        };
        let done = std::mem::replace(&mut self.chunk, next);
        self.next = 0;
        // Never full: it has room for every chunk but the two in hand. A
        // worker that has died is reported by the next `advance`.
        let _ = self.empty.try_send(done);
    }
}

/// The worker's loop: fill a recycled chunk, send it, repeat, until the
/// process drops its channel ends. While it waits on a full channel it
/// marks no core busy.
fn draw_ahead(
    claims: Claims,
    full: SyncSender<Chunk>,
    empty: Receiver<Chunk>,
    mut fill: impl FnMut(&mut Chunk),
) {
    let (_live, mut busy) = claims;
    while let Ok(mut chunk) = empty.recv() {
        fill(&mut chunk);
        chunk = match full.try_send(chunk) {
            Ok(()) => continue,
            Err(TrySendError::Full(chunk)) => chunk,
            Err(TrySendError::Disconnected(_)) => return,
        };
        drop(busy);
        if full.send(chunk).is_err() {
            return;
        }
        busy = cores::occupy(1);
    }
}

/// A run-ahead worker's thread, joined on drop.
#[derive(Debug)]
struct Worker(Option<JoinHandle<()>>);

impl Worker {
    /// Joins a worker that hung up while its process lived and re-raises
    /// its panic.
    fn reraise(&mut self) -> ! {
        if let Some(Err(panic)) = self.0.take().map(JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
        panic!("the churn process's run-ahead worker has stopped");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Some(worker) = self.0.take() {
            // A panic here was never needed by a step; dropping it keeps
            // `drop` from panicking.
            let _ = worker.join();
        }
    }
}

/// How the next processes to take their first step on this thread pick
/// their path.
#[derive(Clone, Copy, Debug)]
enum Forced {
    /// Ahead when the plan draws and a core is idle.
    Rule,
    Inline,
    /// Ahead whenever the plan draws, in chunks of this many slots.
    Ahead(u64),
}

thread_local! {
    static FORCED: Cell<Forced> = const { Cell::new(Forced::Rule) };
}

/// Runs `f` with processes whose first step runs inside it on this
/// thread taking the path `how`.
fn forced<R>(how: Forced, f: impl FnOnce() -> R) -> R {
    struct Restore(Forced);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(how));
    f()
}

/// Runs `f` with every churn process whose first step runs inside it on
/// this thread stepping inline (`ahead == false`) or drawing ahead on a
/// worker whenever its plan draws (`true`), whatever the idle-core rule
/// says. For tests that cover both paths on any host.
#[doc(hidden)]
pub fn with_run_ahead<R>(ahead: bool, f: impl FnOnce() -> R) -> R {
    forced(
        if ahead {
            Forced::Ahead(CHUNK_SLOTS)
        } else {
            Forced::Inline
        },
        f,
    )
}

/// Claims taken whatever the counts read.
fn forced_claims() -> Claims {
    (WORKERS.occupy(1), cores::occupy(1))
}

impl ChurnProcess {
    /// Creates a membership process over `stations` stations. `rng` must
    /// be a dedicated substream (the engine forks it as `"churn"` from the
    /// master seed). With a [`ChurnPlan::none`] plan the stream is never
    /// touched.
    pub fn new(plan: ChurnPlan, stations: u32, rng: Rng) -> Self {
        ChurnProcess {
            m: Machine::new(plan, stations, rng),
            path: Path::Undecided,
        }
    }

    /// A process with no stations and no plan (the engine default before
    /// [`ChurnProcess::new`] replaces it).
    pub fn disabled(rng: Rng) -> Self {
        Self::new(ChurnPlan::none(), 0, rng)
    }

    /// The active plan.
    pub fn plan(&self) -> &ChurnPlan {
        &self.m.plan
    }

    /// A clone of the current RNG stream position. The engine uses this
    /// to rebuild the process when a plan is installed before a run
    /// starts (the stream is untouched until the first crash draw, so the
    /// clone is exactly the original `"churn"` fork).
    pub fn stream(&self) -> Rng {
        self.exact().rng.clone()
    }

    /// Probe slots stepped so far.
    pub fn slot(&self) -> u64 {
        self.m.slot
    }

    /// Crashes so far.
    pub fn crashes(&self) -> u64 {
        self.m.crashes
    }

    /// Restarts so far.
    pub fn restarts(&self) -> u64 {
        self.m.restarts
    }

    /// Late joins so far.
    pub fn joins(&self) -> u64 {
        self.m.joins
    }

    /// Permanent leaves so far.
    pub fn leaves(&self) -> u64 {
        self.m.leaves
    }

    /// Pushes the membership counters into `sink` under stable
    /// `tcw_churn_*` names.
    pub fn emit(&self, sink: &mut dyn tcw_sim::stats::MetricSink) {
        sink.counter(
            "tcw_churn_slots_total",
            "probe slots stepped by the membership process",
            self.m.slot,
        );
        sink.counter("tcw_churn_crashes_total", "station crashes", self.m.crashes);
        sink.counter(
            "tcw_churn_restarts_total",
            "station restarts",
            self.m.restarts,
        );
        sink.counter("tcw_churn_joins_total", "late joins", self.m.joins);
        sink.counter("tcw_churn_leaves_total", "permanent leaves", self.m.leaves);
    }

    /// Whether the station currently hears the channel and may transmit.
    /// Stations beyond the modelled population are always up.
    pub fn is_up(&self, station: StationId) -> bool {
        match self.m.state.get(station.0 as usize) {
            Some(s) => matches!(s, MemberState::Up),
            None => true,
        }
    }

    /// Whether the station still exists (it may be down, but has not left
    /// permanently). Messages of present stations stay resolvable;
    /// messages of departed stations never will be.
    pub fn is_present(&self, station: StationId) -> bool {
        match self.m.state.get(station.0 as usize) {
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
        let m = &self.m;
        if m.plan.is_none() {
            return None;
        }
        // A down station mutates (counts down) on every step. A process
        // that draws ahead has `crash > 0`, so it answers here, before
        // the derived counts it does not keep.
        if m.plan.crash > 0.0 || m.down > 0 {
            return Some(m.slot + 1);
        }
        let join = (m.absent > 0).then_some(m.plan.join_slot);
        let leave = (m.next_leave != u64::MAX).then_some(m.next_leave);
        join.into_iter()
            .chain(leave)
            .min()
            .map(|s| s.max(m.slot + 1))
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
                Some(s) => s > self.m.slot + n,
            },
            "skip_slots({n}) would jump over a membership transition"
        );
        if matches!(self.path, Path::Ahead(_)) {
            // A drawing plan can transition at every slot, so `n` is 0
            // here; stepping keeps the applied slots in line with the
            // chunk whatever `n` is.
            for _ in 0..n {
                self.step(&mut Vec::new());
            }
        } else {
            self.m.slot += n;
        }
    }

    /// Advances the membership process one probe slot, appending any
    /// transitions to `events`. With [`ChurnPlan::none`] this only
    /// advances the slot counter and draws nothing from the RNG.
    pub fn step(&mut self, events: &mut Vec<ChurnEvent>) {
        match &mut self.path {
            Path::Ahead(ahead) => ahead.step(&mut self.m, events),
            Path::Inline => self.m.step(&mut |ev| events.push(ev)),
            Path::Undecided => {
                self.path = self.pick_path();
                self.step(events);
            }
        }
    }

    /// The path of the first step: ahead when the plan draws, a core is
    /// idle and fewer than [`MAX_WORKERS`] workers live, or as a test
    /// forces it; inline otherwise.
    fn pick_path(&self) -> Path {
        if self.m.crash_threshold == 0 || self.m.state.is_empty() {
            return Path::Inline;
        }
        let (claims, slots) = match FORCED.get() {
            Forced::Rule => (
                WORKERS.try_claim(MAX_WORKERS).zip(cores::try_claim()),
                CHUNK_SLOTS,
            ),
            Forced::Inline => (None, CHUNK_SLOTS),
            Forced::Ahead(slots) => (Some(forced_claims()), slots),
        };
        let Some(claims) = claims else {
            return Path::Inline;
        };
        let mut m = self.m.clone();
        match RunAhead::spawn(&self.m, claims, move |chunk| m.fill(slots, chunk)) {
            Some(ahead) => Path::Ahead(Box::new(ahead)),
            None => Path::Inline,
        }
    }

    /// The exact machine at the current slot: `m` itself inline; running
    /// ahead, the current chunk's end once the chunk is used up, else the
    /// chunk's start re-drawn up to the current slot.
    fn exact(&self) -> Cow<'_, Machine> {
        let Path::Ahead(ahead) = &self.path else {
            return Cow::Borrowed(&self.m);
        };
        if ahead.chunk.end.slot == self.m.slot {
            return Cow::Borrowed(&ahead.chunk.end);
        }
        let mut m = ahead.base.clone();
        while m.slot < self.m.slot {
            m.step(&mut |_| {});
        }
        Cow::Owned(m)
    }

    /// Serializes the full membership state (plan, RNG position, per-station
    /// states, leave schedule, slot clock, event counters) for an engine
    /// checkpoint.
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        self.exact().save(w);
    }

    /// Rebuilds a process from checkpoint state written by
    /// [`ChurnProcess::save_state`]. Its first step picks its path.
    pub fn load_state(
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<Self, tcw_sim::snap::SnapError> {
        Ok(ChurnProcess {
            m: Machine::load(r)?,
            path: Path::Undecided,
        })
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
        assert_eq!(p.m.rng.next_u64(), witness.next_u64());
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
            let m = p.exact();
            Reference {
                plan: m.plan,
                rng: m.rng.clone(),
                state: m.state.clone(),
                leave_at: m.leave_at.clone(),
                slot: m.slot,
                counters: [m.crashes, m.restarts, m.joins, m.leaves],
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

    /// Chunk sizes the run-ahead cases cycle through: from one slot, so
    /// every slot crosses a chunk boundary, to the production size.
    const CHUNKS: [u64; 7] = [1, 2, 3, 7, 16, 64, CHUNK_SLOTS];

    /// Every case runs twice, stepping inline and drawing ahead on a
    /// worker, and both must match the reference slot by slot: events,
    /// stream position, counters and member states (the run-ahead
    /// process's re-drawn ones), with a snapshot round trip at a random
    /// slot.
    #[test]
    fn event_cost_process_matches_the_per_station_reference() {
        let mut draws = Rng::new(0xC4_0001);
        // Events of each kind over the suite, so it cannot pass vacuously.
        let mut seen = [0u64; 4];
        let mut drew_ahead = 0;
        for case in 0..300u64 {
            let plan = random_plan(&mut draws);
            let stations = 1 + draws.below(20) as u32;
            let restore_at = draws.below(300);
            let chunk = CHUNKS[case as usize % CHUNKS.len()];
            for how in [Forced::Inline, Forced::Ahead(chunk)] {
                let ep = forced(how, || {
                    let mut p = ChurnProcess::new(plan, stations, Rng::new(case));
                    let mut r = Reference::of(&p);
                    let (mut ep, mut er) = (Vec::new(), Vec::new());
                    for slot in 0..300 {
                        if slot == restore_at {
                            p = round_trip(&p);
                        }
                        let at = format!("case {case} slot {slot} {how:?}: {plan:?}");
                        assert_eq!(
                            p.next_scheduled_transition(),
                            r.next_scheduled_transition(),
                            "{at}"
                        );
                        p.step(&mut ep);
                        r.step(&mut er);
                        assert_eq!(ep, er, "{at}");
                        let exact = p.exact();
                        assert_eq!(exact.rng.state(), r.rng.state(), "{at}");
                        assert_eq!(
                            [p.crashes(), p.restarts(), p.joins(), p.leaves()],
                            r.counters,
                            "{at}"
                        );
                        assert_eq!(p.slot(), r.slot, "{at}");
                        for (i, m) in r.state.iter().enumerate() {
                            let id = StationId(i as u32);
                            assert_eq!(p.is_up(id), *m == MemberState::Up, "{at}");
                            assert_eq!(p.is_present(id), *m != MemberState::Left, "{at}");
                        }
                        assert_eq!(exact.state, r.state, "{at}");
                    }
                    if matches!(p.path, Path::Ahead(_)) {
                        drew_ahead += 1;
                    }
                    ep
                });
                for ev in &ep {
                    seen[match ev {
                        ChurnEvent::Crash(_) => 0,
                        ChurnEvent::Restart(_) => 1,
                        ChurnEvent::Join(_) => 2,
                        ChurnEvent::Leave(_) => 3,
                    }] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "event mix {seen:?}");
        assert!(drew_ahead > 100, "{drew_ahead} cases drew ahead");
    }

    /// A snapshot taken on a chunk boundary, or one slot either side of
    /// it, holds the inline process's words, and the restored process
    /// resumes the same trajectory.
    #[test]
    fn round_trips_at_a_chunk_boundary_resume_exactly() {
        let plan = ChurnPlan {
            late_join_frac: 0.25,
            join_slot: 600,
            ..ChurnPlan::crash_restart(0.01, 9, 10)
        };
        for chunk in [5, CHUNK_SLOTS] {
            for at in [chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1] {
                let run = |how| {
                    forced(how, || {
                        let mut p = ChurnProcess::new(plan, 12, Rng::new(at));
                        let mut events = Vec::new();
                        for _ in 0..at {
                            p.step(&mut events);
                        }
                        let saved = words(&p);
                        let mut q = round_trip(&p);
                        drop(p);
                        for _ in 0..chunk + 700 {
                            q.step(&mut events);
                        }
                        (saved, events, words(&q))
                    })
                };
                let inline = run(Forced::Inline);
                assert!(inline.1.len() > 10, "{} transitions", inline.1.len());
                assert!(
                    inline == run(Forced::Ahead(chunk)),
                    "chunk {chunk}, at {at}"
                );
            }
        }
    }

    fn crashing_machine() -> Machine {
        Machine::new(ChurnPlan::crash_restart(0.05, 3, 10), 8, Rng::new(9))
    }

    /// A worker asleep on a full channel wakes when its process drops,
    /// and the drop's join returns.
    #[test]
    fn dropping_a_process_joins_a_worker_asleep_on_a_full_channel() {
        // The worker's claims on a count of the test's own: it gives its
        // core back just before it sleeps on the full channel.
        static COUNT: Cores = Cores::new(0);
        let m = crashing_machine();
        let mut drawn = m.clone();
        let claims = (COUNT.occupy(1), COUNT.occupy(1));
        let ahead = RunAhead::spawn(&m, claims, move |chunk| drawn.fill(CHUNK_SLOTS, chunk))
            .expect("spawn the worker");
        // Nothing consumes: the worker fills the channel's DEPTH chunks
        // and one more, then sleeps.
        let deadline = Instant::now() + Duration::from_secs(60);
        while COUNT.busy() == 2 {
            assert!(Instant::now() < deadline, "the worker never slept");
            std::thread::yield_now();
        }
        let p = ChurnProcess {
            m,
            path: Path::Ahead(Box::new(ahead)),
        };
        let (dropped_tx, dropped) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(p);
            dropped_tx.send(()).expect("the test waits for the drop");
        });
        dropped
            .recv_timeout(Duration::from_secs(60))
            .expect("dropping the process joins its worker");
        dropper.join().expect("the drop does not panic");
        assert_eq!(COUNT.busy(), 0, "the worker's claims outlived it");
    }

    #[test]
    fn a_dead_worker_re_raises_its_own_panic_at_the_next_step() {
        let m = crashing_machine();
        let ahead =
            RunAhead::spawn(&m, forced_claims(), |_| panic!("worker fault 17")).expect("spawn");
        let mut p = ChurnProcess {
            m,
            path: Path::Ahead(Box::new(ahead)),
        };
        let raised =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.step(&mut Vec::new())))
                .expect_err("the step re-raises the worker's panic");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"worker fault 17"));
    }

    /// The process picks its path at its first step, after `load_state`
    /// too, and only a drawing plan over at least one station runs ahead.
    #[test]
    fn only_a_drawing_plan_runs_ahead_and_only_from_its_first_step() {
        let ahead = |plan: ChurnPlan, stations: u32| {
            forced(Forced::Ahead(CHUNK_SLOTS), || {
                let mut p = ChurnProcess::new(plan, stations, Rng::new(4));
                assert!(matches!(p.path, Path::Undecided));
                p.step(&mut Vec::new());
                let q = round_trip(&p);
                assert!(matches!(q.path, Path::Undecided));
                matches!(p.path, Path::Ahead(_))
            })
        };
        assert!(ahead(ChurnPlan::crash_restart(0.01, 5, 10), 3));
        assert!(!ahead(ChurnPlan::crash_restart(0.01, 5, 10), 0));
        assert!(!ahead(ChurnPlan::none(), 3));
        let scheduled = ChurnPlan {
            leave_frac: 0.5,
            leave_slot: 3,
            ..ChurnPlan::none()
        };
        assert!(!ahead(scheduled, 3));
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
